"""Independent oracles and seeded instance builders shared by the tests.

The oracles here deliberately avoid the library's algorithmic shortcuts:
Levenshtein by plain recursion, the Hausdorff strategy distance by explicit
play-prefix enumeration, the play-distance supremum by chains over
disagreement subsets, attractors by rescanning every vertex per round, the
pref-h pin search by one fresh attractor per radius, the strategy predicates
on the whole strategy-induced adjacency, the SEM bridge by a layered
Hamming check on the fully unrolled tree, model loading by per-item
checks over sorted transitions and edges, acyclicity by a colored
depth-first search, the d* repair's costs by a Bellman-style min-max sweep,
and the tree change count and maximal-path enumeration by recursion.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from causekit import distances
from causekit.distances import dyadic
from causekit.errors import (
    Budget,
    CausekitError,
    InvalidModel,
    NotAcyclic,
    NoWinningStrategy,
    PreconditionViolated,
    as_budget,
)
from causekit.game_causality import (
    METRIC_DSTAR,
    GameCauseVerdict,
    StrategyWitness,
    _assemble_strategy,
    _avoid_set,
    _defeat_choices,
    _min_winning,
    _sigma_matched,
    avoid_region,
    strategy_is_winning,
    validate_game_query,
)
from causekit.model import (
    EFFECT,
    REACH,
    SAFE,
    MaximalFinitePath,
    MDStrategy,
    ReachabilityGame,
    TransitionSystem,
    attractor,
    game_from_owners,
    maximal_avoiding_set,
    maximal_paths,
    reachable_set,
    strategy_adjacency,
    trap_vertices,
    validate_strategy,
)
from causekit.sem_bridge import (
    butfor_to_cause_set,
    default_path_states,
    effect_leaves,
    unroll_to_ts,
)
from causekit.ts_causality import (
    CauseQuery,
    METRIC_HAMM,
    PHI_REACH,
    PHI_SAFE,
    check_cause_hamm_layered,
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
    for src, dst in sorted(self.transitions):
        if src not in succ or dst not in succ:
            raise InvalidModel(f"transition ({src!r}, {dst!r}) leaves the state set")
        succ[src].append(dst)
    alphabet = set(self.alphabet)
    for s in self.states:
        if s not in self.labeling:
            raise InvalidModel(f"state {s!r} has no label")
        if self.labeling[s] not in alphabet:
            raise InvalidModel(
                f"state {s!r} carries label {self.labeling[s]!r} outside the alphabet"
            )
    object.__setattr__(self, "_succ", {s: tuple(t) for s, t in succ.items()})


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
    for src, dst in sorted(self.edges):
        if src not in succ or dst not in succ:
            raise InvalidModel(f"edge ({src!r}, {dst!r}) leaves the vertex set")
        succ[src].append(dst)
    for v in sorted(eff):
        if succ[v]:
            raise InvalidModel(f"effect vertex {v!r} has an outgoing edge")
    for v in vertices:
        if not succ[v] and v not in eff:
            raise InvalidModel(f"non-effect vertex {v!r} is a dead end")
    object.__setattr__(self, "vertices", vertices)
    object.__setattr__(self, "_succ", {v: tuple(t) for v, t in succ.items()})


def naive_ts(**fields):
    """`TransitionSystem(**fields)` checked and filled over sorted transitions."""
    return _naive_build(TransitionSystem, _naive_ts_post_init, **fields)


def naive_game(**fields):
    """`ReachabilityGame(**fields)` checked and filled over sorted edges."""
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
    adj = strategy_adjacency(game, strategy)
    if strategy.player == REACH:
        return game.initial not in maximal_avoiding_set(adj, game.effect)
    return not (game.effect & reachable_set(adj, game.initial))


def naive_strategy_avoids(game, strategy, cause):
    adj = strategy_adjacency(game, strategy)
    return not (set(cause) & reachable_set(adj, game.initial))


def naive_losing_play_reaches_cause(game, sigma, cause):
    adj = strategy_adjacency(game, sigma)
    seen = reachable_set(adj, game.initial)
    hits = sorted(set(cause) & seen)
    if not hits:
        return False
    if sigma.player == SAFE:
        return any(game.effect & reachable_set(adj, c) for c in hits)
    dodging = maximal_avoiding_set(adj, game.effect)
    return any(c in dodging for c in hits)


def naive_sigma_matched(game, strategy, sigma):
    adj = strategy_adjacency(game, strategy)
    seen = reachable_set(adj, game.initial)
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


def naive_dstrat(game, tau, sigma, budget=None):
    """The (vertex, counted-set) walk of `distances.dstrat` over the whole
    `strategy_adjacency`, charging the budget once per state."""
    budget = as_budget(budget)
    adj = strategy_adjacency(game, tau)
    owned = game.owned_by(sigma.player)
    start = (game.initial, frozenset())
    seen = {start}
    stack = [start]
    best = 0
    while stack:
        v, counted = stack.pop()
        budget.charge()
        if len(counted) > best:
            best = len(counted)
        for u in adj[v]:
            nxt = counted
            if v in owned and sigma.choice[v] != u:
                nxt = counted | {v}
            state = (u, nxt)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return best


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
# acyclicity, the d* repair and the tree change count without the attractor


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
    traps = trap_vertices(adjacency)
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
    """`min_dstar_winning_strategy_acyclic` with the colored-DFS acyclicity
    test and the swept costs."""
    validate_strategy(game, sigma)
    if sigma.player != REACH:
        raise PreconditionViolated("the acyclic repair is defined for Reach")
    budget = as_budget(budget)
    if not naive_is_effectively_acyclic(strategy_adjacency(game, sigma)):
        raise NotAcyclic("the game restricted to sigma is not acyclic")
    ranks = attractor(game.adjacency(), game.reach_owned, game.effect)
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
    tau_fast = _sigma_matched(game, MDStrategy(REACH, choice), sigma)
    fast = None
    if strategy_is_winning(game, tau_fast):
        fast = distances.dstar(game, tau_fast, sigma, budget)
        if fast == val[game.initial]:
            return tau_fast, fast
    exact, tau_exact = _min_winning(game, sigma, METRIC_DSTAR, None, budget)
    return (tau_fast if fast == exact else tau_exact), exact


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


def naive_tree_min_changes(game, sigma, cause):
    """`tree_min_changes` by memoized recursion from the initial vertex; a
    cycle on the way ends in RecursionError."""
    owned = game.owned_by(sigma.player)
    adj = game.adjacency()
    traps = trap_vertices(adj)
    memo = {}

    def cost(v):
        if v not in memo:
            if v in cause:
                memo[v] = distances.INF
            elif v in game.effect or v in traps:
                memo[v] = 0
            elif v in owned:
                keep = cost(sigma.choice[v])
                change = min(
                    (1 + cost(u) for u in adj[v] if u != sigma.choice[v]),
                    default=distances.INF,
                )
                memo[v] = min(keep, change)
            else:
                memo[v] = sum(cost(u) for u in adj[v])
        return memo[v]

    return cost(game.initial)


# ---------------------------------------------------------------------------
# pref-h with one attractor per pin radius


def naive_check_pref_h(query, budget=None):
    """`check_cause_game` for pref-h with the per-radius pin loop: conditions 1
    and 2 on the whole adjacency, then one `_avoid_set` per radius."""
    validate_game_query(query)
    budget = as_budget(budget)
    c1 = naive_losing_play_reaches_cause(query.game, query.sigma, query.cause)
    region, _allowed = avoid_region(query.game, query.player, query.cause)
    c2 = query.game.initial in region
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    return _naive_pref_h(query, region, budget)


def _naive_pref_h(query, region, budget):
    game, sigma, cause, player = query.game, query.sigma, query.cause, query.player
    owned = game.owned_by(player)

    depth = {game.initial: 0}
    frontier = [game.initial]
    adj_sigma = strategy_adjacency(game, sigma)
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
        candidate = _avoid_set(game, player, cause, pins_at(n))
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
        dodge = maximal_avoiding_set(arena, game.effect)
        defeated = game.initial in dodge
    else:
        defeated = bool(set(game.effect) & reachable_set(arena, game.initial))

    overrides = _defeat_choices(game, player, arena, owned, dodge) if defeated else {}
    tau = _assemble_strategy(sigma, owned, allowed, overrides)
    witness = StrategyWitness(
        tau, distances.d_pref_hausdorff(game, sigma, tau), not defeated
    )
    return GameCauseVerdict(
        not defeated, min_d, True, True, (witness,)[: query.witnesses]
    )


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
    adj = strategy_adjacency(game, strategy)
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
    adj = strategy_adjacency(game, tau)
    owned = game.owned_by(sigma.player)
    diff = sorted(
        v for v in owned if tau.choice[v] != sigma.choice[v]
    )
    if not diff:
        return 0
    start_reach = reachable_set(adj, game.initial)
    after = {v: reachable_set(adj, adj[v][0]) for v in diff}
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
        cause=butfor_to_cause_set(sem, variables),
        effect=effect_leaves(sem, effect),
        phi=PHI_REACH,
        metric=METRIC_HAMM,
        witnesses=witnesses,
    )
    return check_cause_hamm_layered(query, allow_overlap=True)


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
