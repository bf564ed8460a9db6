"""Independent references and seeded instance builders shared by the tests.

One reference per question, none of them calling the search or loop it checks:

- Levenshtein distance: `naive_lev`, by suffix recursion.
- pref-h distance: `hausdorff_oracle`, by play-prefix enumeration.
- dstrat and d*: `dstrat_oracle` and `dstar_oracle`, by chains over visiting orders.
- attractors, with overrides and pins: `naive_attractor`, rescanning every vertex per round.
- reachability and avoiding sets: `naive_reachable` and `naive_avoiding`.
- acyclicity: `naive_is_acyclic`, by a colored depth-first search.
- model loading: `naive_model_from_json`, by per-item checks over sorted pairs.
- strategy predicates: `naive_strategy_is_winning` and its kin, on the whole adjacency.
- breadth-first walks: `naive_defeat_choices`, `naive_bfs_path` and `naive_pin_layers`.
- pref-h cause check: `naive_check_pref_h`, with one fresh attractor per pin radius.
- hamm-s and d* cause checks: `naive_check_exact`, over every strategy of `enumerate_strategies`.
- hamm-s distance: `hamm_s_oracle`, counting the differing choices.
- hamm-s winning distance: `naive_min_winning_hamm_s`, over every strategy of `enumerate_strategies`.
- d* winning search: `naive_min_winning`, over every strategy of `enumerate_strategies`.
- d* minimality: `naive_is_minimal_dstar`, over every strategy of `enumerate_strategies`.
- d* repair: `naive_min_dstar_repair`, with the costs of a Bellman-style sweep.
- maximal paths: `naive_maximal_paths`, by recursion.
- layered Hamming check: `naive_hamm_layered`, by a shortest-path search over the states.
- product search: `naive_dijkstra`, one heap of (distance, node, (prev, edge)) entries.
- SEM bridge: `unrolled_bridge_check`, the layered Hamming check on the unrolled tree.
- SEM effect sets: `naive_effect`, filtering all 2^n valuations.
- SEM cause states: `naive_cause_set`, one `equation` call per prefix.

The references run on ids, and so do the naive loaders, which keep id
successor lists behind the `successors` view and id predecessor lists as
`naive_pred`.  The library's kernels run on vertex numbers; the helpers in
"the boundary between ids and vertex numbers" convert graphs, vertex sets,
edge overrides and results, so a test can hand a kernel the same input as
its reference and compare the answers in ids.
"""

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import product

from causekit import distances
from causekit.distances import INF, dyadic
from causekit.errors import (
    Budget,
    CausekitError,
    InvalidModel,
    NoWinningStrategy,
    PreconditionViolated,
    as_budget,
)
from causekit.game_causality import (
    METRIC_DSTAR,
    GameCauseVerdict,
    StrategyWitness,
    _kept_edges,
    avoid_region,
    enumerate_strategies,
    strategy_is_winning,
    validate_game_query,
)
from causekit.model import (
    EFFECT,
    REACH,
    SAFE,
    Attractor,
    MaximalFinitePath,
    MDStrategy,
    ReachabilityGame,
    TransitionSystem,
    game_from_owners,
    maximal_avoiding_set,
    maximal_paths,
    validate_strategy,
)
from causekit.sem_bridge import (
    StructuralEquationModel,
    evaluate_default,
    state_id,
    unroll_to_ts,
)
from causekit.ts_causality import (
    CauseQuery,
    METRIC_HAMM,
    PHI_REACH,
    PHI_SAFE,
    _named,
    _project_state_route,
    _shortest_path_verdict,
    check_cause_hamm_layered,
    validate_layered,
    validate_query,
)


def naive_lev(u, v):
    """Reference Levenshtein value by suffix recursion."""
    u, v = tuple(u), tuple(v)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(u):
            return len(v) - j
        if j == len(v):
            return len(u) - i
        sub = go(i + 1, j + 1) + (0 if u[i] == v[j] else 1)
        return min(sub, go(i + 1, j) + 1, go(i, j + 1) + 1)

    return go(0, 0)


def naive_attractor(adjacency, existential, target):
    """Reference attractor {vertex: rank}: each round tests every vertex
    outside against the attractor of the previous round, and the rank is the
    round that adds the vertex.  Vertices without successors never join."""
    rank = {v: 0 for v in target}
    for rnd in range(1, len(adjacency) + 1):
        inside = set(rank)
        added = [
            v
            for v, succ in adjacency.items()
            if v not in inside
            and succ
            and (any if v in existential else all)(u in inside for u in succ)
        ]
        if not added:
            break
        for v in added:
            rank[v] = rnd
    return rank


def naive_reachable(adjacency, start):
    """Vertices of an id adjacency reachable from start, start included."""
    seen, stack = {start}, [start]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def naive_avoiding(adjacency, avoid):
    """Vertices of an id adjacency with a maximal path that never visits
    `avoid`: those outside the all-universal round-based attractor."""
    doomed = naive_attractor(adjacency, (), avoid)
    return {v for v in adjacency if v not in doomed}


def naive_traps(adjacency):
    """Vertices of an id adjacency whose only edge is a self-loop."""
    return {v for v, succ in adjacency.items() if tuple(succ) == (v,)}


def id_adjacency(game, strategy=None):
    """{id: successor ids} of every vertex, through the public views, under
    the strategy's choices if one is given."""
    adj = game.adjacency()
    if strategy is not None:
        adj.update((v, (u,)) for v, u in strategy.choice.items())
    return adj


# ---------------------------------------------------------------------------
# the boundary between ids and vertex numbers


def successor_map(model):
    """{id: successor id tuple} through the model's public view."""
    if isinstance(model, ReachabilityGame):
        vertices = model.vertices
    else:
        vertices = sorted(set(model.states))
    return {v: model.successors(v) for v in vertices}


def id_predecessors(model):
    """{id: predecessor ids} of the model's numbered predecessor lists, which
    have no public view."""
    ids = model.ids
    return {ids[v]: [ids[u] for u in pred] for v, pred in enumerate(model._pred)}


def numbers(model, vertices):
    """The vertex numbers of the ids, in their order."""
    return [model.index[v] for v in vertices]


def flags(model, vertices):
    """Flags by vertex number, set at the ids."""
    out = bytearray(len(model.ids))
    for v in vertices:
        out[model.index[v]] = 1
    return bytes(out)


def id_set(model, flagged):
    """The ids of the vertices flagged in a list by vertex number."""
    return {v for v, f in zip(model.ids, flagged) if f}


def int_graph(model, adjacency):
    """An id adjacency over all of the model's vertices as successor tuples
    of numbers."""
    index = model.index
    return [tuple(index[u] for u in adjacency[v]) for v in model.ids]


def avoiding(model, avoid):
    """The ids with a maximal path that never visits the ids `avoid`, by the
    kernel over the model's own lists."""
    return id_set(model, maximal_avoiding_set(model._succ, numbers(model, avoid), model._pred))


def int_allowed(model, allowed):
    """{number: successor numbers} of an id edge-tuple map."""
    index = model.index
    return {index[v]: tuple(index[u] for u in ends) for v, ends in allowed.items()}


def id_ranks(model, rank):
    """{id: rank} of the members of a rank list."""
    return {v: r for v, r in zip(model.ids, rank) if r is not None}


def join_order(model, attractor):
    """[(id, rank)] of an Attractor's members in join order."""
    return [(model.ids[v], attractor.rank[v]) for v in attractor.order]


def model_attractor(model, existential, target, allowed=None):
    """The kernel `Attractor` over the model's own lists, from ids."""
    return Attractor(model._succ, flags(model, existential), numbers(model, target),
                     model._pred, int_allowed(model, allowed or {}))


# ---------------------------------------------------------------------------
# model loading with per-item checks


def _naive_build(cls, post_init, **fields):
    """A `cls` model whose checks and successor map come from `post_init`."""
    model = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(model, name, value)
    post_init(model)
    return model


def _naive_ts_post_init(self):
    succ = {s: [] for s in self.states}
    if not succ:
        raise InvalidModel("transition system has no states")
    if self.initial not in succ:
        raise InvalidModel(f"initial state {self.initial!r} is not a state")
    pred = {s: [] for s in self.states}
    for src, dst in sorted(set(self.transitions)):
        if src not in succ or dst not in succ:
            raise InvalidModel(f"transition ({src!r}, {dst!r}) leaves the state set")
        succ[src].append(dst)
        pred[dst].append(src)
    alphabet = set(self.alphabet)
    for s in self.states:
        if s not in self.labeling:
            raise InvalidModel(f"state {s!r} has no label")
        if self.labeling[s] not in alphabet:
            raise InvalidModel(
                f"state {s!r} carries label {self.labeling[s]!r} outside the alphabet"
            )
    object.__setattr__(self, "_id_succ", {s: tuple(t) for s, t in succ.items()})
    object.__setattr__(self, "naive_pred", pred)


def _naive_game_post_init(self):
    reach, safe, eff = self.reach_owned, self.safe_owned, self.effect
    overlap = (reach & safe) | (reach & eff) | (safe & eff)
    if overlap:
        raise InvalidModel(f"vertex partition overlaps at {sorted(overlap)}")
    vertices = tuple(sorted(reach | safe | eff))
    succ = {v: [] for v in vertices}
    if not succ:
        raise InvalidModel("game has no vertices")
    if self.initial not in succ:
        raise InvalidModel(f"initial vertex {self.initial!r} is not a vertex")
    if self.initial in eff:
        raise InvalidModel("initial vertex lies in the effect set")
    pred = {v: [] for v in vertices}
    for src, dst in sorted(set(self.edges)):
        if src not in succ or dst not in succ:
            raise InvalidModel(f"edge ({src!r}, {dst!r}) leaves the vertex set")
        succ[src].append(dst)
        pred[dst].append(src)
    for v in sorted(eff):
        if succ[v]:
            raise InvalidModel(f"effect vertex {v!r} has an outgoing edge")
    for v in vertices:
        if not succ[v] and v not in eff:
            raise InvalidModel(f"non-effect vertex {v!r} is a dead end")
    object.__setattr__(self, "vertices", vertices)
    object.__setattr__(self, "_id_succ", {v: tuple(t) for v, t in succ.items()})
    object.__setattr__(self, "naive_pred", pred)


def naive_ts(**fields):
    """`TransitionSystem(**fields)` checked and filled over sorted transitions:
    its id successor lists serve the `successors` view, and its id
    predecessor lists are `naive_pred`."""
    return _naive_build(TransitionSystem, _naive_ts_post_init, **fields)


def naive_game(**fields):
    """`ReachabilityGame(**fields)` checked and filled over sorted edges: its
    id successor lists serve the `successors` view, and its id predecessor
    lists are `naive_pred`."""
    return _naive_build(ReachabilityGame, _naive_game_post_init, **fields)


def _naive_expect_json(data, kind, what):
    if not isinstance(data, kind):
        name = {dict: "object", list: "array", str: "string"}[kind]
        raise InvalidModel(f"{what}: expected a JSON {name}, got {type(data).__name__}")
    return data


def _naive_all_json(values, kind, what):
    for i, value in enumerate(values):
        _naive_expect_json(value, kind, what(i))
    return values


def _naive_array_of(data, key, kind):
    return _naive_all_json(
        _naive_expect_json(data[key], list, key), kind, lambda i: f"{key}[{i}]"
    )


def _naive_records(data, key, what, fields):
    items = _naive_array_of(data, key, dict)
    for name in fields:
        _naive_all_json([item[name] for item in items], str, lambda i: f"{key}[{i}].{name}")
    records = {}
    for item in items:
        if item["id"] in records:
            raise InvalidModel(f"duplicate {what} id {item['id']!r}")
        records[item["id"]] = item
    return records


def _naive_pairs(data, key):
    items = _naive_array_of(data, key, list)
    for i, pair in enumerate(items):
        if len(pair) != 2:
            raise InvalidModel(f"{key}[{i}]: expected a pair, got {len(pair)} items")
    ends = [end for pair in items for end in pair]
    _naive_all_json(ends, str, lambda j: f"{key}[{j // 2}][{j % 2}]")
    return frozenset((a, b) for a, b in items)


def naive_model_from_json(data):
    """Reference loader: every check walks the items one by one, and the
    constructors fill the successor map over sorted transitions and edges."""
    _naive_expect_json(data, dict, "model")
    kind = data.get("kind")
    if kind == "ts":
        states = _naive_records(data, "states", "state", ("id", "label"))
        return naive_ts(
            states=tuple(sorted(states)),
            initial=_naive_expect_json(data["initial"], str, "initial"),
            transitions=_naive_pairs(data, "transitions"),
            labeling={s: record["label"] for s, record in states.items()},
            alphabet=tuple(sorted(_naive_array_of(data, "alphabet", str))),
        )
    if kind == "game":
        vertices = _naive_records(data, "vertices", "vertex", ("id",))
        owners = {v: record["owner"] for v, record in vertices.items()}
        for vid, owner in owners.items():
            if owner not in (REACH, SAFE, EFFECT):
                raise InvalidModel(f"vertex {vid!r} has unknown owner {owner!r}")
        initial = _naive_expect_json(data["initial"], str, "initial")
        edges = _naive_pairs(data, "edges")
        parts = {REACH: set(), SAFE: set(), EFFECT: set()}
        for vertex, owner in owners.items():
            parts[owner].add(vertex)
        return naive_game(
            reach_owned=frozenset(parts[REACH]),
            safe_owned=frozenset(parts[SAFE]),
            effect=frozenset(parts[EFFECT]),
            initial=initial,
            edges=edges,
        )
    raise InvalidModel(f"unknown model kind {kind!r}")


def budgeted(fn, *args, limit=None):
    """(fn(*args, budget), budget.used) under a fresh budget of `limit`
    units; a CausekitError stands as its type name."""
    budget = Budget(limit)
    try:
        return fn(*args, budget), budget.used
    except CausekitError as exc:
        return type(exc).__name__, budget.used


# ---------------------------------------------------------------------------
# strategy predicates on the whole strategy-induced adjacency


def naive_strategy_is_winning(game, strategy):
    adj = id_adjacency(game, strategy)
    if strategy.player == REACH:
        return game.initial not in naive_avoiding(adj, game.effect)
    return not (game.effect & naive_reachable(adj, game.initial))


def naive_strategy_avoids(game, strategy, cause):
    adj = id_adjacency(game, strategy)
    return not (set(cause) & naive_reachable(adj, game.initial))


def naive_losing_play_reaches_cause(game, sigma, cause):
    adj = id_adjacency(game, sigma)
    seen = naive_reachable(adj, game.initial)
    hits = sorted(set(cause) & seen)
    if not hits:
        return False
    if sigma.player == SAFE:
        return any(game.effect & naive_reachable(adj, c) for c in hits)
    dodging = naive_avoiding(adj, game.effect)
    return any(c in dodging for c in hits)


def naive_sigma_matched(game, strategy, sigma):
    adj = id_adjacency(game, strategy)
    seen = naive_reachable(adj, game.initial)
    choice = {
        v: (strategy.choice[v] if v in seen else sigma.choice[v])
        for v in strategy.choice
    }
    return MDStrategy(strategy.player, choice)


def naive_distinct_matched(game, sigma, strategies):
    """[(key, choice)] for each strategy sigma-matched on the whole adjacency,
    the first time its sorted choice items appear."""
    out, seen = [], set()
    for tau in strategies:
        tau = naive_sigma_matched(game, tau, sigma)
        key = tuple(sorted(tau.choice.items()))
        if key not in seen:
            seen.add(key)
            out.append((key, tau.choice))
    return out


def diamond_game(k):
    """(game, sigma, tau) on k >= 1 Safe diamonds in a row: s_i lets Safe choose
    Reach's a_i or b_i, and each of those steps on to s_(i+1), directly
    (sigma) or through Safe's c_i (tau); s_k is the effect.  Every play of
    either strategy meets k vertices where the two disagree, and at s_i the
    walk over counted sets sees 2^i of them."""
    s = [f"s{i:04d}" for i in range(k + 1)]
    owners = {s[k]: "effect"}
    edges = set()
    sigma, tau = {}, {}
    for i in range(k):
        a, b, c = f"a{i:04d}", f"b{i:04d}", f"c{i:04d}"
        owners.update({s[i]: SAFE, a: REACH, b: REACH, c: SAFE})
        edges |= {(s[i], a), (s[i], b), (a, s[i + 1]), (b, s[i + 1]), (a, c), (b, c)}
        edges.add((c, s[i + 1]))
        sigma.update({a: s[i + 1], b: s[i + 1]})
        tau.update({a: c, b: c})
    game = game_from_owners(owners, s[0], edges)
    return game, MDStrategy(REACH, sigma), MDStrategy(REACH, tau)


def with_unreachable_copy(game, rng):
    """The game plus a renamed copy of itself ("u" + id) that the initial
    vertex cannot reach; some copy vertices also get an edge into the
    original, so unreachable plays can run into reachable vertices."""
    ren = {v: f"u{v}" for v in game.vertices}
    edges = set(game.edges) | {(ren[a], ren[b]) for a, b in game.edges}
    for v in game.vertices:
        if v not in game.effect and rng.random() < 0.3:
            edges.add((ren[v], rng.choice(game.vertices)))
    return ReachabilityGame(
        reach_owned=game.reach_owned | {ren[v] for v in game.reach_owned},
        safe_owned=game.safe_owned | {ren[v] for v in game.safe_owned},
        effect=game.effect | {ren[v] for v in game.effect},
        initial=game.initial,
        edges=frozenset(edges),
    )


# ---------------------------------------------------------------------------
# acyclicity and the d* repair without the attractor


def naive_is_acyclic(adjacency):
    """Colored depth-first search: False on meeting a vertex still open."""
    color = {v: 0 for v in adjacency}
    for root in sorted(adjacency):
        if color[root]:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if color[u] == 1:
                    return False
                if color[u] == 0:
                    color[u] = 1
                    stack.append((u, iter(adjacency[u])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return True


def naive_is_effectively_acyclic(adjacency):
    """`naive_is_acyclic` on a copy without the trap vertices' self-loops."""
    traps = naive_traps(adjacency)
    stripped = {
        v: tuple(u for u in succ if not (u == v and v in traps))
        for v, succ in adjacency.items()
    }
    return naive_is_acyclic(stripped)


def naive_repair_costs(game, sigma):
    """The repair's min-max costs by in-place sweeps from INF (deviating
    edges cost 1, Safe maximizing), capped at |V| * (|R| + 2) sweeps."""
    INF = distances.INF
    val = {v: (0 if v in game.effect else INF) for v in game.vertices}
    for _ in range(len(game.vertices) * (len(game.reach_owned) + 2)):
        changed = False
        for v in game.vertices:
            if v in game.effect:
                continue
            succ = game.successors(v)
            if v in game.reach_owned:
                new = min(
                    (0 if u == sigma.choice[v] else 1) + val[u] for u in succ
                )
            else:
                new = max(val[u] for u in succ)
            if new != val[v]:
                val[v] = new
                changed = True
        if not changed:
            break
    return val


def naive_min_dstar_repair(game, sigma, budget=None):
    """`min_dstar_winning_strategy_acyclic` with the swept costs and
    `naive_min_winning`."""
    validate_strategy(game, sigma)
    if sigma.player != REACH:
        raise PreconditionViolated("the d* repair is defined for Reach")
    budget = as_budget(budget)
    ranks = naive_attractor(game.adjacency(), game.reach_owned, game.effect)
    if game.initial not in ranks:
        raise NoWinningStrategy("Reach does not win this game")
    val = naive_repair_costs(game, sigma)
    choice = {}
    for v in sorted(game.reach_owned):
        options = []
        for u in game.successors(v):
            cost = (0 if u == sigma.choice[v] else 1) + val[u]
            options.append((cost, ranks.get(u, float("inf")), u))
        options.sort()
        choice[v] = options[0][2]
    tau_fast = naive_sigma_matched(game, MDStrategy(REACH, choice), sigma)
    fast = None
    if strategy_is_winning(game, tau_fast):
        fast = distances.dstar(game, tau_fast, sigma)
        if fast == val[game.initial]:
            return tau_fast, fast
    exact, tau_exact = naive_min_winning(game, sigma, METRIC_DSTAR, None, budget)
    return (tau_fast if fast == exact else tau_exact), exact


def naive_min_winning(game, sigma, metric, threshold, budget):
    """The d* branch of `_min_winning` over every strategy of
    `enumerate_strategies`, sigma-matched and deduplicated by
    `naive_distinct_matched`: one budget unit per strategy, matched or not."""
    if metric != METRIC_DSTAR:
        raise PreconditionViolated(f"unsupported metric {metric!r} for this search")
    player = sigma.player
    best = None
    strategies = enumerate_strategies(game, player, budget)
    for key, choice in naive_distinct_matched(game, sigma, strategies):
        tau = MDStrategy(player, choice)
        if not strategy_is_winning(game, tau):
            continue
        d = distances.dstar(game, tau, sigma)
        if best is None or (d, key) < best[:2]:
            best = (d, key, tau)
            if threshold is not None and d <= threshold:
                break
    if best is not None:
        return best[0], best[2]
    if threshold is not None:
        return threshold + 1, None
    raise NoWinningStrategy(f"player {player} has no winning strategy")


def naive_check_exact(query, distance, budget=None):
    """`check_cause_game` for hamm-s or d* over every strategy of
    `enumerate_strategies`: condition 1 on the whole adjacency and condition
    2 by `naive_attractor`, then the distinct sigma-matched strategies that
    avoid the cause, each measured by `distance(game, tau, sigma)`
    (`hamm_s_oracle` or `dstar_oracle`).  At the least distance the least
    losing and the least winning strategy, by their sorted id pairs, are the
    witnesses.  Matching drops no strategy at the least distance of either
    oracle: a pick off the plays never lowers d* and adds 1 to hamm-s.  One
    budget unit per strategy, matched or not."""
    validate_game_query(query)
    game, player, sigma, cause = query.game, query.player, query.sigma, query.cause
    c1 = naive_losing_play_reaches_cause(game, sigma, cause)
    opponent = game.owned_by(SAFE if player == REACH else REACH)
    c2 = game.initial not in naive_attractor(game.adjacency(), opponent, cause)
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    scored = []
    strategies = enumerate_strategies(game, player, budget)
    for key, choice in naive_distinct_matched(game, sigma, strategies):
        tau = MDStrategy(player, choice)
        if naive_strategy_avoids(game, tau, cause):
            scored.append((distance(game, tau, sigma), key, tau))
    least = min(d for d, _key, _tau in scored)
    first = {}
    for _d, _key, tau in sorted(s for s in scored if s[0] == least):
        first.setdefault(naive_strategy_is_winning(game, tau), tau)
    witnesses = tuple(StrategyWitness(first[w], least, w) for w in (False, True) if w in first)
    return GameCauseVerdict(False not in first, least, True, True, witnesses[: query.witnesses])


def hamm_s_oracle(game, tau, sigma):
    """The number of vertices at which tau's choice differs from sigma's."""
    return sum(u != sigma.choice[v] for v, u in tau.choice.items())


def naive_min_winning_hamm_s(game, sigma):
    """The least `hamm_s_oracle` distance from sigma of a winning strategy
    of `enumerate_strategies`; None when the player has no winning
    strategy."""
    return min(
        (hamm_s_oracle(game, tau, sigma)
         for tau in enumerate_strategies(game, sigma.player)
         if naive_strategy_is_winning(game, tau)),
        default=None,
    )


def naive_is_minimal_dstar(game, sigma, vertex_set):
    """`is_minimal_explanation` for d*: some strategy that changes sigma's
    choice at every vertex of the set and nowhere else wins, at the least d*
    to sigma of any winning strategy of `enumerate_strategies`.  The changed
    choices count wherever they are, reached by a play or not."""
    least = min(
        (distances.dstar(game, t, sigma)
         for t in enumerate_strategies(game, sigma.player)
         if strategy_is_winning(game, t)),
        default=None,
    )
    vertices = sorted(vertex_set)
    options = [[u for u in game.successors(v) if u != sigma.choice[v]] for v in vertices]
    for picks in product(*options):
        tau = MDStrategy(sigma.player, {**sigma.choice, **dict(zip(vertices, picks))})
        if strategy_is_winning(game, tau) and distances.dstar(game, tau, sigma) == least:
            return True
    return False


def naive_maximal_paths(ts, max_len=None, budget=None):
    """`maximal_paths` by a recursive walk, one budget unit per call; the
    acyclicity check is left to the caller."""
    budget = as_budget(budget)
    out = []
    path = [ts.initial]

    def walk(state):
        budget.charge()
        if ts.is_terminal(state):
            out.append(tuple(path))
            return
        if max_len is not None and len(path) >= max_len:
            return
        for nxt in ts.successors(state):
            path.append(nxt)
            walk(nxt)
            path.pop()

    walk(ts.initial)
    return out


# ---------------------------------------------------------------------------
# pref-h with one attractor per pin radius


def naive_check_pref_h(query, budget=None):
    """`check_cause_game` for pref-h with the per-radius pin loop: conditions 1
    and 2 on the whole adjacency, then one `avoid_set` per radius."""
    validate_game_query(query)
    budget = as_budget(budget)
    c1 = naive_losing_play_reaches_cause(query.game, query.sigma, query.cause)
    region = avoid_set(query.game, query.player, query.cause, {})
    c2 = query.game.initial in region
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    return _naive_pref_h(query, region, budget)


def _naive_pref_h(query, region, budget):
    game, sigma, cause, player = query.game, query.sigma, query.cause, query.player
    owned = game.owned_by(player)

    depth = {game.initial: 0}
    frontier = [game.initial]
    adj_sigma = id_adjacency(game, sigma)
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj_sigma[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = sorted(nxt)

    def pins_at(n):
        return {
            v: (sigma.choice[v],)
            for v in sorted(owned)
            if v in depth and depth[v] <= n - 1
        }

    n_star = 0
    pin_region = region
    limit = len(game.vertices) + 2
    for n in range(1, limit + 1):
        budget.charge()
        candidate = avoid_set(game, player, cause, pins_at(n))
        if game.initial in candidate:
            n_star = n
            pin_region = candidate
        else:
            break
    else:
        raise AssertionError("pinning every reachable vertex must block avoidance")

    pins = pins_at(n_star)
    min_d = dyadic(n_star + 1)

    allowed = {}
    for v in sorted(owned & pin_region):
        if v in pins:
            allowed[v] = pins[v]
        else:
            allowed[v] = tuple(u for u in game.successors(v) if u in pin_region)
    arena = {}
    for v in sorted(pin_region):
        if v in owned:
            arena[v] = allowed[v]
        else:
            arena[v] = game.successors(v)

    dodge = None
    if player == REACH:
        dodge = naive_avoiding(arena, game.effect)
        defeated = game.initial in dodge
    else:
        defeated = bool(set(game.effect) & naive_reachable(arena, game.initial))

    overrides = naive_defeat_choices(game, player, arena, owned, dodge) if defeated else {}
    tau = naive_assemble_strategy(sigma, owned, allowed, overrides)
    witness = StrategyWitness(
        tau, distances.d_pref_hausdorff(game, sigma, tau), not defeated
    )
    return GameCauseVerdict(
        not defeated, min_d, True, True, (witness,)[: query.witnesses]
    )


def avoid_set(game, player, cause, allowed):
    """The ids outside the opponent's attractor of the cause ids when the
    vertices of the id edge-tuple map `allowed` keep only those edges."""
    existential = game._owns[SAFE if player == REACH else REACH]
    caught = Attractor(
        game._succ, existential, numbers(game, cause), game._pred, int_allowed(game, allowed)
    )
    return id_set(game, [r is None for r in caught.rank])


def id_avoid_region(game, player, cause):
    """The avoid region of `game_causality.avoid_region` and its kept edges,
    from ids to ids."""
    caught = avoid_region(game, player, numbers(game, cause))
    allowed = _kept_edges(game, player, caught)
    ids = game.ids
    region = id_set(game, [r is None for r in caught.rank])
    return region, {ids[v]: tuple(ids[u] for u in a) for v, a in allowed.items()}


def naive_assemble_strategy(sigma, owned, allowed, overrides):
    """Overrides first, then sigma's choice where `allowed` keeps it, then
    the first allowed edge; sigma's choice off `allowed`."""
    choice = {}
    for v in sorted(owned):
        if v in overrides:
            choice[v] = overrides[v]
        elif v in allowed:
            opts = allowed[v]
            choice[v] = sigma.choice[v] if sigma.choice[v] in opts else opts[0]
        else:
            choice[v] = sigma.choice[v]
    return MDStrategy(sigma.player, choice)


# ---------------------------------------------------------------------------
# breadth-first walks, each with its own loop and tie-break


def naive_defeat_choices(game, player, arena, owned, dodge):
    """MD choices (within the arena) realizing one defeating play.

    For Reach, `dodge` is the arena's maximal effect-avoiding set."""
    if player == REACH:
        choices = {}
        v = game.initial
        while v not in choices:
            stay = [u for u in arena[v] if u in dodge]
            if not stay:
                break
            choices[v] = stay[0]
            v = stay[0]
        return {v: u for v, u in choices.items() if v in owned}
    parent = {game.initial: None}
    queue = [game.initial]
    target = None
    while queue and target is None:
        nxt = []
        for v in queue:
            if v in game.effect:
                target = v
                break
            for u in arena[v]:
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        queue = sorted(nxt)
    choices = {}
    v = target
    while v is not None and parent[v] is not None:
        choices[parent[v]] = v
        v = parent[v]
    return {v: u for v, u in choices.items() if v in owned}


def naive_bfs_path(ts, start, targets, avoid):
    if start in avoid:
        return None
    parent = {start: None}
    queue = [start]
    while queue:
        nxt = []
        for v in queue:
            if v in targets:
                out = []
                while v is not None:
                    out.append(v)
                    v = parent[v]
                return tuple(reversed(out))
            for u in ts.successors(v):
                if u not in avoid and u not in parent:
                    parent[u] = v
                    nxt.append(u)
        queue = sorted(nxt)
    return None


def naive_pin_layers(game, sigma):
    """The owned vertices of sigma's play graph by breadth-first depth from
    the initial vertex: entry d lists those at depth d."""
    owned = game.owned_by(sigma.player)
    seen = {game.initial}
    frontier = [game.initial]
    layers = []
    while frontier:
        layers.append([v for v in frontier if v in owned])
        nxt = []
        for v in frontier:
            for u in (sigma.choice[v],) if v in owned else game.successors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return layers


def pref_h_chain(rng, n):
    """(game, sigma, cause): an alternating Reach/Safe chain c000 -> c001 ->
    ... -> goal of n vertices for a losing Reach sigma.

    Reach owns the even positions; each may get a back edge a few steps up
    and a skip over the next Safe vertex.  Sigma walks the chain but turns
    back near its end, so it never reaches the goal.  The cause is a Safe
    vertex past position 42 behind a skip, so the pref-h radius n_star is
    the cause's position minus one.
    """
    names = [f"c{i:03d}" for i in range(n)]
    owners = {v: REACH if i % 2 == 0 else SAFE for i, v in enumerate(names)}
    owners["goal"] = EFFECT
    turn = 2 * (n // 2 - 2)
    edges = set()
    for i, v in enumerate(names):
        edges.add((v, names[i + 1] if i + 1 < n else "goal"))
        if i % 2 == 0:
            if i == turn or (i >= 2 and rng.random() < 0.5):
                edges.add((v, names[i - 1 - rng.randrange(min(i, 6))]))
            if i + 2 < n and (i == 44 or rng.random() < 0.5):
                edges.add((v, names[i + 2]))
    game = game_from_owners(owners, names[0], edges)
    choice = {v: game.successors(v)[0] for v in game.reach_owned}
    for i, v in enumerate(names):
        if owners[v] == REACH and i != turn:
            choice[v] = names[i + 1] if i + 1 < n else "goal"
    choice[names[turn]] = min(u for u in game.successors(names[turn]) if u < names[turn])
    behind_skip = [
        i for i in range(43, turn, 2) if (names[i - 1], names[i + 1]) in edges
    ]
    cause = frozenset({names[rng.choice(behind_skip)]})
    return game, MDStrategy(REACH, choice), cause


def prefix_sets(game, strategy, max_vertices):
    """All play prefixes of the strategy with up to max_vertices vertices,
    grouped by vertex count."""
    adj = id_adjacency(game, strategy)
    by_len = [set(), {(game.initial,)}]
    level = {(game.initial,)}
    for _ in range(2, max_vertices + 1):
        nxt = set()
        for p in level:
            for u in adj[p[-1]]:
                nxt.add(p + (u,))
        by_len.append(nxt)
        level = nxt
    return by_len


def hausdorff_oracle(game, sigma, tau):
    """Definitional Hausdorff prefix distance: 2^-(k-1) for the least vertex
    count k at which the two prefix sets differ, 0 if they never do within
    |V|+1 vertices (play sets of memoryless strategies coincide beyond)."""
    bound = len(game.vertices) + 1
    ps = prefix_sets(game, sigma, bound)
    pt = prefix_sets(game, tau, bound)
    for k in range(1, bound + 1):
        if ps[k] != pt[k]:
            return Fraction(1, 2 ** (k - 1))
    return Fraction(0)


def dstrat_oracle(game, tau, sigma):
    """Max number of distinct disagreement vertices on one tau-play, by
    dynamic programming over visiting orders (a chain of reachability hops)."""
    adj = id_adjacency(game, tau)
    owned = game.owned_by(sigma.player)
    diff = sorted(
        v for v in owned if tau.choice[v] != sigma.choice[v]
    )
    if not diff:
        return 0
    start_reach = naive_reachable(adj, game.initial)
    after = {v: naive_reachable(adj, adj[v][0]) for v in diff}
    n = len(diff)
    best = 0
    frontier = {
        (1 << i, i) for i, v in enumerate(diff) if v in start_reach
    }
    seen = set(frontier)
    while frontier:
        nxt = set()
        for mask, last in frontier:
            best = max(best, bin(mask).count("1"))
            for j in range(n):
                if mask & (1 << j):
                    continue
                if diff[j] in after[diff[last]]:
                    key = (mask | (1 << j), j)
                    if key not in seen:
                        seen.add(key)
                        nxt.add(key)
        frontier = nxt
    return best


def dstar_oracle(game, tau, sigma):
    return max(dstrat_oracle(game, tau, sigma), dstrat_oracle(game, sigma, tau))


def unrolled_bridge_check(sem, effect, variables, witnesses=3, ts=None):
    """`bridge_check` spelled out on `unroll_to_ts(sem)`: the same input checks
    in the same order, then `check_cause_hamm_layered` with the default path,
    the induced cause states and the effect leaves.  Pass `ts` to reuse one
    unrolled tree across queries on the same SEM."""
    effect = frozenset(tuple(v) for v in effect)
    for v in effect:
        if len(v) != sem.n:
            raise PreconditionViolated("effect valuations must be total")
    if not variables:
        raise PreconditionViolated("an empty variable set induces no cause states")
    query = CauseQuery(
        ts=ts or unroll_to_ts(sem),
        pi=MaximalFinitePath(default_path_states(sem)),
        cause=naive_cause_set(sem, variables),
        effect=effect_leaves(sem, effect),
        phi=PHI_REACH,
        metric=METRIC_HAMM,
        witnesses=witnesses,
    )
    return check_cause_hamm_layered(query, allow_overlap=True)


def naive_hamm_layered(query, allow_overlap=False):
    """`check_cause_hamm_layered` by a search over the states themselves:
    each state weighs the mismatch of its label against the execution's at
    its depth, and a path's weight is its Hamming distance.  The terminal
    states are the goals."""
    seq, cause, effect = validate_query(query, allow_overlap)
    ts = query.ts
    depth = validate_layered(ts)
    labels, succ = ts._labels, ts._succ
    target = [labels[s] for s in seq]
    metric = query.label_metric

    if metric is None:
        def node_weight(state):
            return 0 if labels[state] == target[depth[state]] else 1
    else:
        def node_weight(state):
            return Fraction(metric(labels[state], target[depth[state]]))

    def steps(state, zero):
        for t in succ[state]:
            if t not in cause:
                w = node_weight(t)
                if (w == 0) == zero:
                    yield t, w, "step"

    start = None if ts._init in cause else ts._init
    search = (start, node_weight(ts._init),
              (lambda state: steps(state, True), lambda state: steps(state, False)),
              lambda state: _terminal_class(succ, effect, state))
    return _named(ts, _shortest_path_verdict(query, search, _project_state_route, cause, effect))


def naive_dijkstra(start, start_weight, successors, goal_class):
    """`ts_causality.dijkstra` on a single heap, with the same results;
    `successors` is one function that yields a node's zero-weight and
    positive-weight edges alike.

    Heap entries are (distance, node, (prev, edge)), so ties resolve by node,
    then by predecessor and edge.  The search stops once the popped distance
    exceeds the first goal's, so every goal at the minimal distance is
    settled; zero-weight edges may settle them out of node order.
    """
    best = {}
    parent = {}
    bound = INF
    heap = [] if start is None else [(start_weight, start, None)]
    while heap:
        d, node, via = heapq.heappop(heap)
        if d > bound:
            break
        if node in parent:
            continue
        parent[node] = via
        cls = goal_class(node)
        if cls is not None:
            bound = d
            best[cls] = min(best.get(cls, (d, node)), (d, node))
        for edge in successors(node):
            target, weight, _tag = edge
            if target not in parent:
                heapq.heappush(heap, (d + weight, target, (node, edge)))
    return best, parent


def _terminal_class(succ, effect, state):
    if succ[state]:
        return None
    return "effect" if state in effect else "other"


def all_boolean_sems(n):
    """Every Boolean SEM over exactly n variables (exhaustive truth tables)."""
    variables = tuple(f"X{i + 1}" for i in range(n))
    table_spaces = [
        [tuple(bits) for bits in product((False, True), repeat=2 ** i)]
        for i in range(n)
    ]
    for tables in product(*table_spaces):
        yield StructuralEquationModel(variables=variables, tables=tables)


def naive_effect(sem, data):
    """`effect_from_json` by a filter over all 2^n valuations in sorted
    order: a predicate keeps those whose last k values are an accepted row,
    a list keeps those it names.  Input checks are left to the library."""
    space = product((False, True), repeat=sem.n)
    if isinstance(data, dict):
        k = data["last"]
        values = {tuple(v) for v in data["values"]}
        return tuple(full for full in space if full[-k:] in values)
    listed = {tuple(v) for v in data}
    return tuple(full for full in space if full in listed)


def naive_cause_set(sem, variables):
    """`butfor_to_cause_set` by one `equation` call and one `state_id` per
    prefix of each given variable."""
    cause = set()
    for x in variables:
        i = sem.index_of(x)
        for bits in product((False, True), repeat=i):
            cause.add(state_id(bits + (sem.equation(i, bits),)))
    return frozenset(cause)


def default_path_states(sem):
    """The state ids of the unrolled tree's default execution."""
    values = evaluate_default(sem)
    return tuple(state_id(values[:i]) for i in range(sem.n + 1))


def effect_leaves(sem, effect):
    """The leaf state ids of the unrolled tree for the effect valuations."""
    return frozenset(state_id(tuple(v)) for v in effect)


# ---------------------------------------------------------------------------
# query builders


def build_ts_query(ts, rng, metric, phi, witnesses=3):
    """A valid cause query over the system, or None if the dice give none."""
    paths = maximal_paths(ts)
    if not paths:
        return None
    pi = rng.choice(sorted(paths))
    terminals = sorted(s for s in ts.states if ts.is_terminal(s))
    end = pi[-1]
    if phi == PHI_REACH:
        if metric == METRIC_HAMM:
            effect = frozenset(t for t in terminals if ts.label(t) == ts.label(end))
        else:
            extra = [t for t in terminals if t != end and rng.random() < 0.4]
            effect = frozenset([end] + extra)
    else:
        if metric == METRIC_HAMM:
            effect = frozenset(
                t for t in terminals if ts.label(t) != ts.label(end)
            )
        else:
            pool = [t for t in terminals if t != end]
            if not pool:
                return None
            effect = frozenset(t for t in pool if rng.random() < 0.5)
        if not effect or any(s in effect for s in pi):
            return None
    candidates = [s for s in pi if s not in effect]
    if not candidates:
        return None
    cause = frozenset(
        rng.sample(candidates, rng.randint(1, min(2, len(candidates))))
    )
    return CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(pi),
        cause=cause,
        effect=effect,
        phi=phi,
        metric=metric,
        witnesses=witnesses,
    )


def cyclic_ts_query(rng, metric, max_states=7, max_steps=10):
    """A random cyclic system with self-loops and a valid cause query over a
    random finite maximal execution of it, or None if the dice give none.

    Every non-terminal state has one to three successors, so maximal-path
    enumeration up to `max_steps` states stays small.
    """
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    terminals = set(rng.sample(states[1:], rng.randint(1, max(1, n // 3))))
    transitions = set()
    for s in states:
        if s not in terminals:
            for t in rng.sample(states, rng.randint(1, min(3, n))):
                transitions.add((s, t))
            if rng.random() < 0.4:
                transitions.add((s, s))
    alphabet = ("a", "b", "c")[: rng.randint(1, 3)]
    ts = TransitionSystem(
        states=tuple(states),
        initial="s0",
        transitions=frozenset(transitions),
        labeling={s: rng.choice(alphabet) for s in states},
        alphabet=alphabet,
    )
    pi = [ts.initial]
    while not ts.is_terminal(pi[-1]) and len(pi) < max_steps:
        pi.append(rng.choice(ts.successors(pi[-1])))
    if not ts.is_terminal(pi[-1]):
        return None
    phi = rng.choice((PHI_REACH, PHI_SAFE))
    others = sorted(terminals - {pi[-1]})
    if phi == PHI_REACH:
        effect = frozenset([pi[-1]] + [t for t in others if rng.random() < 0.4])
    else:
        effect = frozenset(t for t in others if rng.random() < 0.5)
        if not effect:
            return None
    candidates = sorted(set(pi) - effect - {ts.initial})
    if not candidates:
        return None
    cause = frozenset(rng.sample(candidates, rng.randint(1, min(2, len(candidates)))))
    return CauseQuery(
        ts=ts,
        pi=MaximalFinitePath(tuple(pi)),
        cause=cause,
        effect=effect,
        phi=phi,
        metric=metric,
    )


def strategy_space_size(game, player):
    size = 1
    for v in game.owned_by(player):
        size *= len(game.successors(v))
    return size


def random_words(rng, alphabet, max_len, equal_length=False):
    n = rng.randint(0, max_len)
    m = n if equal_length else rng.randint(0, max_len)
    u = tuple(rng.choice(alphabet) for _ in range(n))
    v = tuple(rng.choice(alphabet) for _ in range(m))
    return u, v
