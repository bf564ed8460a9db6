"""Independent reference checks for causekit verdict documents.

Everything here works on plain dictionaries parsed from the instance files
the program reads, with graph code written for the benchmark: a linear-time
attractor, DAG dynamic programs for the execution distances and a direct
reading of the structural-equation semantics.  From the package it uses
only the definitional oracles (``brute_force_check``,
``brute_force_check_cause``, exact ``min_winning_distance``) on instances
small enough for them to finish, and ``causekit.distances`` to re-measure
witnesses.
"""

import json
from collections import deque
from fractions import Fraction
from itertools import combinations, product

INF = float("inf")
REACH, SAFE, EFFECT = "reach", "safe", "effect"
DEFAULT_BUDGET = 10_000_000
ORACLE_BUDGET = 2_000_000


class Mismatch(Exception):
    """A verdict document disagrees with the reference."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def parse_distance(text):
    if text == "inf":
        return INF
    return Fraction(text)


# ---------------------------------------------------------------------------
# instances as plain dictionaries


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def ts_from_json(data):
    succ = {s["id"]: [] for s in data["states"]}
    for a, b in data["transitions"]:
        succ[a].append(b)
    return {
        "init": data["initial"],
        "label": {s["id"]: s["label"] for s in data["states"]},
        "succ": {s: tuple(sorted(t)) for s, t in succ.items()},
    }


def game_from_json(data):
    owner = {v["id"]: v["owner"] for v in data["vertices"]}
    succ = {v: [] for v in owner}
    for a, b in data["edges"]:
        succ[a].append(b)
    return {
        "init": data["initial"],
        "owner": owner,
        "succ": {v: tuple(sorted(t)) for v, t in succ.items()},
    }


def owned(game, player):
    return {v for v, o in game["owner"].items() if o == player}


def effect_set(game):
    return owned(game, EFFECT)


def restricted(game, player, choice):
    """Successor map with the player's vertices cut to the given edge sets."""
    return {
        v: (tuple(choice[v]) if game["owner"][v] == player else s)
        for v, s in game["succ"].items()
    }


def under(game, strategy):
    return restricted(
        game, strategy["player"], {v: (u,) for v, u in strategy["choices"].items()}
    )


def bfs_depths(succ, start):
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in succ[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    return depth


def reachable(succ, start):
    seen = {start}
    stack = [start]
    while stack:
        for u in succ[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def attractor(succ, existential, target):
    """Vertices from which the existential side forces a visit to `target`.

    Predecessor counting: an existential vertex joins with its first
    successor inside, any other vertex once all its successors are inside.
    A vertex without successors joins only as a target.
    """
    preds = {v: [] for v in succ}
    for v, out in succ.items():
        for u in out:
            preds[u].append(v)
    missing = {v: len(set(out)) for v, out in succ.items()}
    attr = set(target)
    queue = deque(attr)
    while queue:
        u = queue.popleft()
        for p in set(preds[u]):
            if p in attr:
                continue
            missing[p] -= 1
            if p in existential or missing[p] == 0:
                attr.add(p)
                queue.append(p)
    return attr


def reach_region(game):
    return attractor(game["succ"], owned(game, REACH), effect_set(game))


def strategy_wins(game, strategy):
    succ = under(game, strategy)
    if strategy["player"] == REACH:
        return game["init"] in attractor(succ, set(), effect_set(game))
    return not (effect_set(game) & reachable(succ, game["init"]))


def wins_from(game, strategy, vertices):
    succ = under(game, strategy)
    eff = effect_set(game)
    if strategy["player"] == REACH:
        return set(vertices) <= attractor(succ, set(), eff)
    return not (set(vertices) & attractor(succ, set(succ), eff))


def can_avoid(game, player, cause, succ=None):
    """The player can keep every play clear of `cause` from the initial vertex."""
    opponent = SAFE if player == REACH else REACH
    return game["init"] not in attractor(
        succ or game["succ"], owned(game, opponent), cause
    )


def avoids(game, strategy, cause):
    return not (set(cause) & reachable(under(game, strategy), game["init"]))


def losing_play_through(game, sigma, cause):
    """Some sigma-play visits the cause and then loses."""
    succ = under(game, sigma)
    hits = set(cause) & reachable(succ, game["init"])
    eff = effect_set(game)
    if sigma["player"] == SAFE:
        return any(eff & reachable(succ, c) for c in hits)
    forced = attractor(succ, set(), eff)
    return any(c not in forced for c in hits)


def wins_with_cause_avoided(game, player, cause):
    """Some strategy of the player both avoids the cause and wins."""
    eff = effect_set(game)
    if player == REACH:
        pruned = {v: s for v, s in game["succ"].items() if v not in cause}
        pruned.update({c: () for c in cause})
        return game["init"] in attractor(pruned, owned(game, REACH), eff)
    return game["init"] not in attractor(game["succ"], owned(game, REACH), eff | set(cause))


def wins_changing_exactly(game, sigma, vertex_set):
    """Some strategy differing from sigma exactly on `vertex_set` wins."""
    player = sigma["player"]
    choice = {
        v: (tuple(u for u in game["succ"][v] if u != c) if v in vertex_set else (c,))
        for v, c in sigma["choices"].items()
    }
    succ = restricted(game, player, choice)
    region = attractor(succ, owned(game, REACH), effect_set(game))
    return (game["init"] in region) == (player == REACH)


def check_strategy_shape(game, strategy, player):
    expect(strategy["player"] == player, "strategy belongs to the wrong player")
    mine = owned(game, player)
    expect(set(strategy["choices"]) == mine, "strategy is not total on owned vertices")
    for v, u in strategy["choices"].items():
        expect(u in game["succ"][v], f"strategy choice {v}->{u} is not an edge")


# ---------------------------------------------------------------------------
# transition systems: layered DAG dynamic programs


def depths(ts):
    depth = {ts["init"]: 0}
    frontier = [ts["init"]]
    while frontier:
        nxt = []
        for s in frontier:
            for t in ts["succ"][s]:
                if t not in depth:
                    depth[t] = depth[s] + 1
                    nxt.append(t)
                expect(depth[t] == depth[s] + 1, "benchmark instance is not layered")
        frontier = nxt
    return depth


def _order(ts, cause):
    """States reachable from the initial state through cause-free states,
    parents first, with every reachable state's depth."""
    depth = depths(ts)
    if ts["init"] in cause:
        return [], depth
    seen = {ts["init"]}
    stack = [ts["init"]]
    while stack:
        for t in ts["succ"][stack.pop()]:
            if t not in seen and t not in cause:
                seen.add(t)
                stack.append(t)
    return sorted(seen, key=lambda s: depth[s]), depth


def ts_avoidable(ts, cause):
    """Some maximal path of the layered system never visits `cause`."""
    order, _depth = _order(ts, cause)
    return any(not ts["succ"][s] for s in order)


def _class_minima(effect, cost_at_terminal):
    zeta = xi = INF
    for s, value in cost_at_terminal.items():
        if s in effect:
            zeta = min(zeta, value)
        else:
            xi = min(xi, value)
    return zeta, xi


def _verdict_from_minima(zeta, xi, phi):
    d = min(zeta, xi)
    if d == INF:
        return False, INF, False
    return (xi < zeta) if phi == REACH else (zeta < xi), d, True


def counting_verdict(ts, pi, cause, effect, phi, metric):
    """hamm, ghamm and lev by dynamic programming over the layered DAG."""
    order, depth = _order(ts, cause)
    label = ts["label"]
    word = [label[s] for s in pi]
    n = len(word)
    preds = {s: [] for s in order}
    alive = set(order)
    for s in order:
        for t in ts["succ"][s]:
            if t in alive:
                preds[t].append(s)
    terminal = {}
    if metric in ("hamm", "ghamm"):
        cost = {}
        for s in order:
            d = depth[s]
            step = (label[s] != word[d]) if d < n else 1
            before = 0 if s == ts["init"] else min(cost[p] for p in preds[s])
            cost[s] = before + step
            if not ts["succ"][s]:
                terminal[s] = cost[s] + max(0, n - 1 - d)
    else:
        rows = {}
        for s in order:
            if s == ts["init"]:
                above = list(range(n + 1))
            else:
                above = rows[preds[s][0]]
                for p in preds[s][1:]:
                    above = list(map(min, above, rows[p]))
            row = [above[0] + 1]
            a = label[s]
            for j in range(1, n + 1):
                row.append(
                    min(above[j - 1] + (a != word[j - 1]), above[j] + 1, row[j - 1] + 1)
                )
            rows[s] = row
            if not ts["succ"][s]:
                terminal[s] = row[n]
    zeta, xi = _class_minima(effect, terminal)
    return _verdict_from_minima(zeta, xi, phi)


def prefix_verdict(ts, pi, cause, effect, phi, metric):
    """pref and pref-ap: longest prefix an avoiding maximal path shares."""
    order, _depth = _order(ts, cause)
    succ = ts["succ"]

    def symbol(s):
        return s if metric == "pref" else ts["label"][s]

    live, good = set(), set()
    for s in reversed(order):
        if not succ[s]:
            live.add(s)
            if (s in effect) == (phi == REACH):
                good.add(s)
        else:
            if any(t in live for t in succ[s]):
                live.add(s)
            if any(t in good for t in succ[s]):
                good.add(s)
    if ts["init"] not in live:
        return False, INF, False
    target = [symbol(s) for s in pi]
    layers = [{ts["init"]}]
    for j in range(1, len(pi)):
        layers.append(
            {t for s in layers[-1] for t in succ[s] if t in live and symbol(t) == target[j]}
        )
    exact = {t for t in layers[-1] if not succ[t]}
    if exact:
        return not (exact & good), Fraction(0), True
    k = max(j for j, layer in enumerate(layers) if layer)
    return not (layers[k] & good), Fraction(1, 2 ** (k + 1)), True


def check_ts_doc(doc, q, oracle):
    """Reference for one ts-cause verdict document."""
    from causekit import distances

    ts = ts_from_json(load_json(q["model"]))
    pi = tuple(load_json(q["path"]))
    cause, effect = set(q["cause"]), set(q["effect"])
    phi, metric = q["phi"], q["metric"]
    if metric in ("pref", "pref-ap"):
        is_cause, d, c1 = prefix_verdict(ts, pi, cause, effect, phi, metric)
    else:
        is_cause, d, c1 = counting_verdict(ts, pi, cause, effect, phi, metric)
    expect(doc["command"] == "ts-cause", "command")
    expect(doc["inputs"]["metric"] == metric and doc["inputs"]["phi"] == phi, "inputs")
    expect(set(doc["inputs"]["cause"]) == cause, "inputs.cause")
    expect(doc["verdict"] is is_cause, f"verdict {doc['verdict']} != {is_cause}")
    expect(parse_distance(doc["minDistance"]) == d, f"minDistance {doc['minDistance']} != {d}")
    expect(doc["condition1"] is c1, "condition1")
    expect(doc["diagnostics"]["budgetLimit"] == DEFAULT_BUDGET, "budgetLimit")
    label = ts["label"]
    for w in doc["witnesses"]:
        rho = tuple(w["path"])
        expect(rho[0] == ts["init"] and not ts["succ"][rho[-1]], "witness not maximal")
        expect(all(b in ts["succ"][a] for a, b in zip(rho, rho[1:])), "witness not a path")
        expect(not (set(rho) & cause), "witness visits the cause")
        visits = bool(set(rho) & effect)
        expect(w["satisfiesPhi"] is (visits if phi == REACH else not visits), "satisfiesPhi")
        expect(not (is_cause and w["satisfiesPhi"]), "a closest witness satisfies phi")
        u, v = [label[s] for s in pi], [label[s] for s in rho]
        measured = {
            "pref": lambda: distances.d_pref(pi, rho),
            "pref-ap": lambda: distances.d_pref_ap(u, v),
            "hamm": lambda: distances.d_hamm(u, v),
            "ghamm": lambda: distances.d_ghamm(u, v),
            "lev": lambda: distances.d_lev(u, v)[0],
        }[metric]()
        expect(measured == d and parse_distance(w["distance"]) == d, "witness distance")
    if oracle:
        from causekit import ts_causality
        from causekit.errors import Budget, BudgetExceeded
        from causekit.model import MaximalFinitePath, load_model

        query = ts_causality.CauseQuery(
            ts=load_model(q["model"]), pi=MaximalFinitePath(pi),
            cause=frozenset(cause), effect=frozenset(effect), phi=phi, metric=metric,
        )
        try:
            ref = ts_causality.brute_force_check(query, budget=Budget(ORACLE_BUDGET))
        except BudgetExceeded:
            return "exact"
        expect(ref.is_cause is is_cause and ref.min_distance == d, "brute-force oracle")
        return "oracle"
    return "exact"


# ---------------------------------------------------------------------------
# structural equation models


def sem_bridge_reference(sem_json, effect_rows, variables):
    names = sem_json["variables"]
    tables = sem_json["tables"]
    n = len(names)

    def eq(i, prefix):
        pos = 0
        for bit in prefix:
            pos = (pos << 1) | int(bit)
        return bool(tables[i][pos])

    def mixed(flipped):
        vals = []
        for i in range(n):
            v = eq(i, vals)
            vals.append((not v) if i in flipped else v)
        return tuple(vals)

    idx = sorted(names.index(x) for x in variables)
    effect = {tuple(r) for r in effect_rows}
    but_for = mixed(set(idx)) not in effect and all(
        mixed(set(sub)) in effect for r in range(len(idx)) for sub in combinations(idx, r)
    )

    def sid(bits):
        return "v" + "".join("1" if b else "0" for b in bits)

    cause = {
        sid(bits + (eq(i, bits),)) for i in idx for bits in product((False, True), repeat=i)
    }
    # Hamming distance to the all-plain default execution counts the flips.
    best = {EFFECT: INF, "other": INF}
    stack = [((), 0)]
    while stack:
        bits, cost = stack.pop()
        if sid(bits) in cause:
            continue
        if len(bits) == n:
            key = EFFECT if bits in effect else "other"
            best[key] = min(best[key], cost)
            continue
        default = eq(len(bits), bits)
        for b in (False, True):
            stack.append((bits + (b,), cost + (b != default)))
    is_cause, d, _c1 = _verdict_from_minima(best[EFFECT], best["other"], REACH)
    return but_for, sorted(cause), is_cause, d, effect, eq


def check_sem_doc(doc, q):
    sem_json = load_json(q["model"])
    k, values = q["effect"]["last"], {tuple(v) for v in q["effect"]["values"]}
    rows = [
        row for row in product((False, True), repeat=len(sem_json["variables"]))
        if row[-k:] in values
    ]
    but_for, cause, is_cause, d, effect, eq = sem_bridge_reference(sem_json, rows, q["vars"])
    expect(doc["command"] == "sem bridge", "command")
    expect(doc["butFor"] is but_for, "butFor")
    expect(doc["causeStates"] == cause, "causeStates")
    expect(doc["verdict"] is is_cause, "verdict")
    expect(parse_distance(doc["minDistance"]) == d, "minDistance")
    n = len(sem_json["variables"])
    for w in doc["witnesses"]:
        path = w["path"]
        expect(len(path) == n + 1 and path[0] == "v", "witness length")
        bits = tuple(c == "1" for c in path[-1][1:])
        expect(all(path[i] == path[-1][: i + 1] for i in range(n + 1)), "witness not a tree path")
        expect(not (set(path) & set(cause)), "witness visits the cause")
        flips = sum(bits[i] != eq(i, bits[:i]) for i in range(n))
        expect(flips == d and parse_distance(w["distance"]) == d, "witness distance")
        expect(w["satisfiesPhi"] is (bits in effect), "satisfiesPhi")
    return "exact"


# ---------------------------------------------------------------------------
# games


def check_solve_doc(doc, q):
    game = game_from_json(load_json(q["model"]))
    region = reach_region(game)
    if "reach_region" in q:
        expect(region == set(q["reach_region"]), "reference disagrees with construction")
    vertices = set(game["owner"])
    expect(set(doc["reachRegion"]) == region, "reachRegion")
    expect(set(doc["safeRegion"]) == vertices - region, "safeRegion")
    expect(doc["verdict"] == (REACH if game["init"] in region else SAFE), "verdict")
    rs, ss = doc["reachStrategy"], doc["safeStrategy"]
    check_strategy_shape(game, rs, REACH)
    check_strategy_shape(game, ss, SAFE)
    expect(wins_from(game, rs, region), "reachStrategy loses inside the reach region")
    expect(wins_from(game, ss, vertices - region), "safeStrategy loses inside the safe region")
    return "construction" if "reach_region" in q else "exact"


def check_explain_doc(doc, q):
    game = game_from_json(load_json(q["model"]))
    sigma = load_json(q["strategy"])
    player = sigma["player"]
    cause = set(q["cause"])
    possible = can_avoid(game, player, cause) and wins_with_cause_avoided(game, player, cause)
    expect(doc["command"] == "explain", "command")
    expect(doc["verdict"] is possible, f"verdict {doc['verdict']} != {possible}")
    if possible:
        tau = doc["witness"]
        check_strategy_shape(game, tau, player)
        expect(avoids(game, tau, cause), "witness visits the cause")
        expect(strategy_wins(game, tau), "witness loses")
        diff = sorted(v for v, u in tau["choices"].items() if u != sigma["choices"][v])
        expect(doc["explanation"] == diff, "explanation is not the witness's change set")
    return "exact"


def check_explain_check_doc(doc, q):
    game = game_from_json(load_json(q["model"]))
    sigma = load_json(q["strategy"])
    vset = set(q["set"])
    ok = wins_changing_exactly(game, sigma, vset)
    expect(doc["command"] == "explain check", "command")
    expect(doc["verdict"] is ok, f"verdict {doc['verdict']} != {ok}")
    if ok:
        tau = doc["witness"]
        check_strategy_shape(game, tau, sigma["player"])
        diff = {v for v, u in tau["choices"].items() if u != sigma["choices"][v]}
        expect(diff == vset, "witness does not change exactly the given set")
        expect(strategy_wins(game, tau), "witness loses")
    else:
        expect(doc["witness"] is None, "witness on a negative verdict")
    return "exact"


def pref_h_radius(game, sigma, cause):
    """Largest j such that the cause stays avoidable with sigma pinned at every
    owned vertex its plays reach in fewer than j steps."""
    player = sigma["player"]
    depth = bfs_depths(under(game, sigma), game["init"])
    limit = max(depth.values()) + 2
    j = 0
    while j <= limit:
        pins = {
            v: ((c,) if v in depth and depth[v] < j + 1 else game["succ"][v])
            for v, c in sigma["choices"].items()
        }
        if not can_avoid(game, player, cause, restricted(game, player, pins)):
            return j
        j += 1
    raise Mismatch("pinning every reachable vertex left the cause avoidable")


def game_query(q):
    from causekit.game_causality import GameCauseQuery
    from causekit.model import load_model, load_strategy

    return GameCauseQuery(
        game=load_model(q["model"]), player=q["player"],
        sigma=load_strategy(q["strategy"]), cause=frozenset(q["cause"]), metric=q["metric"],
    )


def check_game_cause_doc(doc, q, oracle):
    from causekit import distances
    from causekit.errors import Budget, BudgetExceeded
    from causekit.model import MDStrategy, load_model, load_strategy

    game = game_from_json(load_json(q["model"]))
    sigma = load_json(q["strategy"])
    player, metric, cause = q["player"], q["metric"], set(q["cause"])
    c1 = losing_play_through(game, sigma, cause)
    c2 = can_avoid(game, player, cause)
    expect(doc["command"] == "game-cause", "command")
    expect(doc["condition1"] is c1 and doc["condition2"] is c2, "conditions 1 and 2")
    expect(doc["diagnostics"]["budgetLimit"] == DEFAULT_BUDGET, "budgetLimit")
    d = parse_distance(doc["minDistance"])
    if not (c1 and c2):
        expect(doc["verdict"] is False and d == INF, "verdict without conditions")
        return "exact"
    if metric == "pref-h":
        j = pref_h_radius(game, sigma, cause)
        expect(d == Fraction(1, 2 ** (j + 1)), f"minDistance {d} != 2^-{j + 1}")
    pkg_game, pkg_sigma = load_model(q["model"]), load_strategy(q["strategy"])
    measure = {
        "pref-h": lambda t: distances.d_pref_hausdorff(pkg_game, pkg_sigma, t),
        "hamm-s": lambda t: distances.d_hamm_s(pkg_game, pkg_sigma, t),
        "dstar": lambda t: distances.dstar(pkg_game, t, pkg_sigma),
    }[metric]
    losing = False
    for w in doc["witnesses"]:
        tau = w["strategy"]
        check_strategy_shape(game, tau, player)
        expect(avoids(game, tau, cause), "witness visits the cause")
        won = strategy_wins(game, tau)
        expect(w["winning"] is won, "witness winning flag")
        losing |= not won
        expect(measure(MDStrategy(player, tau["choices"])) == d, "witness distance")
        expect(parse_distance(w["distance"]) == d, "witness distance text")
    expect(not (doc["verdict"] and losing), "a cause with a losing closest witness")
    if not doc["verdict"]:
        expect(losing, "no losing closest witness certifies a negative verdict")
    if oracle:
        from causekit import game_causality

        try:
            ref = game_causality.brute_force_check_cause(game_query(q), budget=Budget(ORACLE_BUDGET))
        except BudgetExceeded:
            return "certificate"
        expect(ref.is_cause is doc["verdict"] and ref.min_distance == d, "brute-force oracle")
        return "oracle"
    return "certificate"


class Unverified(Exception):
    """The exact reference ran out of budget on this instance."""


def _exact_min_distance(q, metric):
    from causekit import game_causality
    from causekit.errors import Budget, BudgetExceeded
    from causekit.model import load_model, load_strategy

    try:
        return game_causality.min_winning_distance(
            load_model(q["model"]), load_strategy(q["strategy"]), metric,
            budget=Budget(ORACLE_BUDGET),
        )
    except BudgetExceeded:
        raise Unverified from None


def min_changes_to_win(game, sigma):
    """Fewest owned vertices whose choice must change for sigma to win."""
    free = sorted(v for v, c in sigma["choices"].items() if len(game["succ"][v]) > 1)
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            choice = {
                v: (game["succ"][v] if v in combo else (c,))
                for v, c in sigma["choices"].items()
            }
            region = attractor(restricted(game, sigma["player"], choice),
                               owned(game, REACH), effect_set(game))
            if (game["init"] in region) == (sigma["player"] == REACH):
                return k
    return INF


def check_minimal_doc(doc, q):
    from causekit import distances
    from causekit.model import MDStrategy, load_model, load_strategy

    game = game_from_json(load_json(q["model"]))
    sigma = load_json(q["strategy"])
    vset = set(q["set"])
    metric = q["metric"]
    expect(doc["command"] == "explain check-minimal", "command")
    if not wins_changing_exactly(game, sigma, vset):
        expect(doc["verdict"] is False, "verdict on a non-explanation")
        return "exact"
    if metric == "hamm-s":
        expect(doc["verdict"] is (len(vset) == min_changes_to_win(game, sigma)), "verdict")
        return "exact"
    pkg_game, pkg_sigma = load_model(q["model"]), load_strategy(q["strategy"])
    best = INF
    order = sorted(vset)
    for picks in product(*[[u for u in game["succ"][v] if u != sigma["choices"][v]] for v in order]):
        choices = dict(sigma["choices"], **dict(zip(order, picks)))
        tau = {"player": sigma["player"], "choices": choices}
        if strategy_wins(game, tau):
            best = min(best, distances.dstar(pkg_game, MDStrategy(tau["player"], choices), pkg_sigma))
    expect(doc["verdict"] is (best == _exact_min_distance(q, "dstar")), "verdict")
    return "oracle"


def check_repair_doc(doc, q):
    from causekit import distances
    from causekit.model import MDStrategy, load_model, load_strategy

    game = game_from_json(load_json(q["model"]))
    tau = doc["strategy"]
    check_strategy_shape(game, tau, REACH)
    expect(strategy_wins(game, tau), "repair loses")
    value = parse_distance(doc["value"])
    measured = distances.dstar(
        load_model(q["model"]), MDStrategy(REACH, tau["choices"]), load_strategy(q["strategy"])
    )
    expect(measured == value, "repair value is not its d* distance")
    expect(value == _exact_min_distance(q, "dstar"), "repair is not optimal")
    return "oracle"


CHECKS = {
    "ts-cause": lambda doc, q: check_ts_doc(doc, q, q.get("oracle", False)),
    "sem-bridge": check_sem_doc,
    "solve": check_solve_doc,
    "explain": check_explain_doc,
    "explain.check": check_explain_check_doc,
    "game-cause": lambda doc, q: check_game_cause_doc(doc, q, q.get("oracle", False)),
    "explain.check-minimal": check_minimal_doc,
    "repair": check_repair_doc,
}


def check(doc, q):
    """How the document was checked: against a package oracle, by
    construction, by the benchmark's own exact computation, or only by
    certificates; raise Mismatch when it is wrong."""
    try:
        return CHECKS[q["check"]](doc, q)
    except Unverified:
        return "unverified"
