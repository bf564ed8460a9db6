"""Reachability-game solving, counterfactual causes for losing strategies,
and strategy-repair explanations.

The polynomial pieces (attractor solving, safety regions, the Hausdorff-prefix
cause check, the tree DP of the Hamming check and the d* repair's deviation
costs) all run on the one attractor kernel `model.attractor`, on the game's
own predecessor lists where it can; the Hausdorff-prefix check resumes one
`model.Attractor` across all its pin radii.  They are complemented by exact, budget-guarded searches for the
problems the distance functions make NP- or coNP-hard.  Those searches share
one enumeration kernel: `_free_sets` walks the least sets of sigma's vertices
whose freeing solves a feasibility test, `_variants` re-points sigma over a
product of edge choices, and `_distinct_matched` sigma-matches and
deduplicates.  Each charges one budget unit per candidate.  A candidate is
matched, tested and measured on its play graph (`model.play_graph`), the part
of the game its plays can visit.  The acyclic d* repair skips the exact
search when its deviation costs certify the proposed strategy.
"""

from dataclasses import dataclass
from itertools import combinations, islice, product

from .errors import (
    EmptyChoice,
    NoWinningStrategy,
    NotAcyclic,
    PreconditionViolated,
    as_budget,
)
from .model import (
    REACH,
    SAFE,
    Attractor,
    MDStrategy,
    attractor,
    is_effectively_acyclic,
    maximal_avoiding_set,
    opponent,
    play_graph,
    reachable_set,
    strategy_adjacency,
    trap_vertices,
    validate_strategy,
)
from . import distances
from .distances import dyadic

METRIC_PREF_H = "pref-h"
METRIC_HAMM_S = "hamm-s"
METRIC_DSTAR = "dstar"

GAME_METRICS = (METRIC_PREF_H, METRIC_HAMM_S, METRIC_DSTAR)


@dataclass(frozen=True)
class WinningAnalysis:
    reach_region: frozenset
    safe_region: frozenset
    reach_strategy: MDStrategy
    safe_strategy: MDStrategy


@dataclass(frozen=True)
class GameCauseQuery:
    game: object
    player: str
    sigma: MDStrategy
    cause: frozenset
    metric: str
    witnesses: int = 3


@dataclass(frozen=True)
class StrategyWitness:
    strategy: MDStrategy
    distance: object
    winning: bool


@dataclass(frozen=True)
class GameCauseVerdict:
    is_cause: bool
    min_distance: object
    condition1: bool
    condition2: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class Explanation:
    vertex_set: frozenset
    witness: MDStrategy


# ---------------------------------------------------------------------------
# solving


def solve(game):
    """Attractor solving: winning regions and MD strategies for both players.

    Deterministic: Reach picks its first successor of lower attractor rank,
    so repeated runs extract the same strategies.
    """
    rank = attractor(game._succ, game.reach_owned, game.effect, game._pred)
    return WinningAnalysis(
        reach_region=frozenset(rank),
        safe_region=frozenset(v for v in game._succ if v not in rank),
        reach_strategy=MDStrategy(REACH, _attractor_choices(game, {}, rank, REACH)),
        safe_strategy=MDStrategy(SAFE, _attractor_choices(game, {}, rank, SAFE)),
    )


def _attractor_choices(game, allowed, rank, player):
    """The player's MD choices from Reach's attractor ranks over the game
    with the edge tuples of `allowed` in place of its own.

    Reach steps to its first successor of lower rank, Safe to its first
    successor outside the attractor; failing that, the first allowed edge,
    or the first edge of the game where `allowed` leaves none.
    """
    choice = {}
    succ = game._succ
    for v in sorted(game.owned_by(player)):
        opts = allowed.get(v, succ[v])
        choice[v] = opts[0] if opts else succ[v][0]
        if player == SAFE:
            for u in opts:
                if u not in rank:
                    choice[v] = u
                    break
        elif v in rank:
            bound = rank[v]
            for u in opts:
                if rank.get(u, bound) < bound:
                    choice[v] = u
                    break
    return choice


def avoid_region(game, player, cause):
    """Vertices from which the player can guarantee never visiting `cause`,
    with the region-preserving edge sets at the player's vertices."""
    for c in sorted(cause):
        if c in game.effect:
            raise PreconditionViolated(f"cause vertex {c!r} lies in the effect set")
    region = _avoid_set(game, player, cause, {})
    allowed = {
        v: tuple(filter(region.__contains__, game._succ[v]))
        for v in game.owned_by(player) & region
    }
    return frozenset(region), allowed


def _avoid_set(game, player, cause, allowed):
    """Vertices outside the opponent's attractor of `cause` when the vertices
    in `allowed` may only use the given edge tuples."""
    caught = attractor(
        game._succ, game.owned_by(opponent(player)), cause, game._pred, allowed
    )
    return {v for v in game._succ if v not in caught}


def _solve_for(game, player, allowed):
    """Solve the game for `player` when its vertices may only use the given
    edge subsets.  Returns (wins_from_initial, total choice dict).

    `allowed` is keyed by the player's vertices; those missing from it keep
    their full edge set.  Dead ends the restriction creates count against
    Reach: a stuck play never reaches the effect set.
    """
    rank = attractor(game._succ, game.reach_owned, game.effect, game._pred, allowed)
    wins = (game.initial in rank) == (player == REACH)
    return wins, _attractor_choices(game, allowed, rank, player)


# ---------------------------------------------------------------------------
# strategy predicates


def strategy_is_winning(game, strategy):
    graph = play_graph(game, strategy)
    if strategy.player == REACH:
        return game.initial not in maximal_avoiding_set(graph, game.effect)
    return game.effect.isdisjoint(graph)


def strategy_avoids(game, strategy, cause):
    return set(cause).isdisjoint(play_graph(game, strategy))


def losing_play_reaches_cause(game, sigma, cause):
    """Condition 1: some sigma-play visits the cause set and loses.

    Losing means reaching the effect set for Safe, and avoiding it forever
    for Reach (a reachable cycle or trap past the cause visit).
    """
    graph = play_graph(game, sigma)
    hits = sorted(c for c in cause if c in graph)
    if not hits:
        return False
    if sigma.player == SAFE:
        return any(game.effect & reachable_set(graph, c) for c in hits)
    dodging = maximal_avoiding_set(graph, game.effect)
    return any(c in dodging for c in hits)


def enumerate_strategies(game, player, budget=None):
    """All MD strategies for the player, in lexicographic encoding order."""
    budget = as_budget(budget)
    owned = sorted(game.owned_by(player))
    option_lists = [game.successors(v) for v in owned]
    for picks in product(*option_lists):
        budget.charge()
        yield MDStrategy(player, dict(zip(owned, picks)))


def _sigma_matched(game, strategy, sigma):
    """Reset choices at vertices the strategy never reaches to sigma's.

    Harmless for winning and cause-avoidance (the reachable part is
    untouched) and never increases any play-based distance to sigma.
    """
    seen = play_graph(game, strategy)
    choice = {
        v: (u if v in seen else sigma.choice[v]) for v, u in strategy.choice.items()
    }
    return MDStrategy(strategy.player, choice)


# ---------------------------------------------------------------------------
# exact search kernel


def _free_sets(game, sigma, solved, budget, start=0, stop=None):
    """The least sets of sigma's branching vertices that pass `solved` freed.

    Sizes k run from `start` up to but excluding `stop`.  Each k-set S is
    tried in `combinations` order at one budget unit: `solved(allowed)` gets
    every owned vertex outside S pinned to sigma's choice and S free.  The
    accepted sets are yielded lazily, and the search ends with the first
    size that has any.
    """
    owned = game.owned_by(sigma.player)
    branching = sorted(v for v in owned if len(game.successors(v)) >= 2)
    top = len(branching) + 1 if stop is None else min(stop, len(branching) + 1)
    for k in range(start, top):
        found = False
        for free in combinations(branching, k):
            budget.charge()
            if solved({v: (sigma.choice[v],) for v in owned if v not in free}):
                found = True
                yield free
        if found:
            return


def _variants(sigma, options, budget):
    """Sigma re-pointed at every vertex of `options`, once per combination of
    their edge tuples in `product` order, at one budget unit each."""
    vertices = sorted(options)
    for picks in product(*(options[v] for v in vertices)):
        budget.charge()
        choice = dict(sigma.choice)
        choice.update(zip(vertices, picks))
        yield MDStrategy(sigma.player, choice)


def _distinct_matched(game, sigma, strategies):
    """Each strategy sigma-matched, with its sorted choice items as key, the
    first time its key appears.

    A strategy that agrees with the last walked one at every owned vertex
    that one's plays visit has the same plays, hence the same key, and is
    skipped without a walk.
    """
    owned = game.owned_by(sigma.player)
    seen = set()
    plays = None  # the last walked strategy's choices on its play graph
    for tau in strategies:
        if plays is not None and all(tau.choice[v] == u for v, u in plays.items()):
            continue
        plays = {v: tau.choice[v] for v in play_graph(game, tau) if v in owned}
        choice = {v: plays.get(v, sigma.choice[v]) for v in tau.choice}
        key = tuple(sorted(choice.items()))
        if key not in seen:
            seen.add(key)
            yield key, MDStrategy(tau.player, choice)


def _alternatives(game, sigma, vertices):
    """The edges other than sigma's choice at each of the vertices."""
    return {
        v: tuple(u for u in game.successors(v) if u != sigma.choice[v])
        for v in sorted(vertices)
    }


def _verdict(query, k, loser, winner):
    """Both conditions hold; the cause verdict at distance k, with the first
    losing and the first winning minimal strategy as witnesses."""
    pairs = ((loser, False), (winner, True))
    witnesses = tuple(StrategyWitness(t, k, w) for t, w in pairs if t is not None)
    return GameCauseVerdict(loser is None, k, True, True, witnesses[: query.witnesses])


# ---------------------------------------------------------------------------
# cause checking


def validate_game_query(query):
    if query.metric not in GAME_METRICS:
        raise PreconditionViolated(f"unknown strategy metric {query.metric!r}")
    if query.player not in (REACH, SAFE):
        raise PreconditionViolated(f"unknown player {query.player!r}")
    if query.sigma.player != query.player:
        raise PreconditionViolated("the strategy belongs to the other player")
    validate_strategy(query.game, query.sigma)
    for c in sorted(query.cause):
        if c not in query.game._succ:
            raise PreconditionViolated(f"{c!r} is not a vertex")
        if c in query.game.effect:
            raise PreconditionViolated(f"cause vertex {c!r} lies in the effect set")


def check_cause_game(query, budget=None):
    """Decide whether the cause set explains the strategy's loss.

    Conditions: a losing sigma-play through the cause exists, the player can
    avoid the cause at all, and every cause-avoiding strategy at minimal
    distance to sigma is winning.
    """
    validate_game_query(query)
    budget = as_budget(budget)
    game, sigma, cause = query.game, query.sigma, query.cause
    if query.metric == METRIC_HAMM_S:
        _require_effectively_acyclic(game)
    c1 = losing_play_reaches_cause(game, sigma, cause)
    if query.metric == METRIC_PREF_H:
        return _check_pref_h(query, c1, budget)
    region, allowed = avoid_region(game, query.player, cause)
    c2 = game.initial in region
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    if query.metric == METRIC_HAMM_S:
        return _check_hamm_s(query, budget)
    return _check_dstar(query, allowed, budget)


def _pin_layers(game, sigma):
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


def _check_pref_h(query, c1, budget):
    """Hausdorff-prefix cause check, conditions 2 and 3 (condition 1 is `c1`).

    The distance-minimal cause-avoiding strategies are exactly those that
    copy sigma on every owned vertex within the deepest pin radius n_star
    that still leaves the cause avoidable.  They all win iff the opponent
    cannot defeat the player even when also steering the player's remaining
    freedom inside the region-preserving edges.

    One `Attractor` of the cause, for the opponent, answers every radius:
    unpinned it gives condition 2, and radius n pins the owned vertices of
    depth n - 1 in sigma's play graph to sigma's choice, one layer per budget
    unit, until the initial vertex is caught.  The region at n_star is what
    had not joined before that last layer.
    """
    game, sigma, cause, player = query.game, query.sigma, query.cause, query.player
    owned = game.owned_by(player)
    caught = Attractor(game._succ, game.owned_by(opponent(player)), cause, game._pred)
    c2 = game.initial not in caught.rank
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)

    layers = _pin_layers(game, sigma)
    n_star = 0
    for layer in layers:
        budget.charge()
        joined = len(caught.rank)
        caught.pin({v: sigma.choice[v] for v in layer})
        if game.initial in caught.rank:
            break
        n_star += 1
    else:
        raise AssertionError("pinning every reachable vertex must block avoidance")
    lost = set(islice(caught.rank, joined))
    pin_region = {v for v in game._succ if v not in lost}

    pins = {v: (sigma.choice[v],) for layer in layers[:n_star] for v in layer}
    min_d = dyadic(n_star + 1)

    succ = game._succ
    allowed = {
        v: pins[v] if v in pins else tuple(filter(pin_region.__contains__, succ[v]))
        for v in owned & pin_region
    }
    # No opponent or allowed edge leaves the region, so the plays from the
    # initial vertex stay inside it: the arena is the game with `allowed`.
    arena = {**succ, **allowed}

    dodge = None
    if player == REACH:
        doomed = attractor(succ, (), game.effect, game._pred, allowed)
        dodge = {v for v in pin_region if v not in doomed}
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


def _defeat_choices(game, player, arena, owned, dodge):
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


def _assemble_strategy(sigma, owned, allowed, overrides):
    """Overrides first, then sigma's choice where `allowed` keeps it (pinned
    vertices always do), then the first allowed edge."""
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


def _require_effectively_acyclic(game):
    if not is_effectively_acyclic(game._succ):
        raise NotAcyclic(
            "this check needs an acyclic game (self-loop traps aside)"
        )


def _tree_shaped(game):
    """Tree arenas (modulo trap self-loops): one way in per reachable vertex."""
    succ, pred = game._succ, game._pred
    traps = trap_vertices(succ)
    seen = reachable_set(succ, game.initial)
    return all(
        sum(p in seen and not (p == v and v in traps) for p in pred[v]) <= 1
        for v in seen
        if v != game.initial
    )


def tree_min_changes(game, sigma, cause):
    """Minimum number of choice changes that avoid `cause`, on tree arenas.

    Subtree vertex sets are disjoint on a tree, so costs add across opponent
    branches; on general DAGs this sum may double-count shared descendants,
    which is why the exact subset search is used there.  Costs are filled
    bottom-up in the join order of the all-universal attractor of the cause,
    effect and trap vertices, so every successor is costed first; NotAcyclic
    if the initial vertex never joins, that is, if a play from it can cycle
    before reaching one of them.
    """
    owned = game.owned_by(sigma.player)
    adj = game._succ
    ends = trap_vertices(adj).union(game.effect, cause)
    cost = {}
    for v in attractor(adj, (), ends, game._pred):
        if v in cause:
            cost[v] = distances.INF
        elif v in ends:
            cost[v] = 0
        elif v in owned:
            keep = cost[sigma.choice[v]]
            change = min(
                (1 + cost[u] for u in adj[v] if u != sigma.choice[v]),
                default=distances.INF,
            )
            cost[v] = min(keep, change)
        else:
            cost[v] = sum(cost[u] for u in adj[v])
    if game.initial not in cost:
        raise NotAcyclic("a play from the initial vertex can cycle")
    return cost[game.initial]


def _check_hamm_s(query, budget):
    """Hamming strategy-distance cause check on (effectively) acyclic games:
    find the minimum number of changed choices that avoids the cause, then
    verify every avoiding strategy with exactly that many changes wins.

    Change sets are walked in order.  The set in which the first losing
    strategy turns up is walked to its end before the walk stops, so a
    winning strategy later in that set still becomes a witness.
    """
    game, sigma, cause, player = query.game, query.sigma, query.cause, query.player
    start = 0
    if _tree_shaped(game):
        k_tree = tree_min_changes(game, sigma, cause)
        if k_tree != distances.INF:
            start = int(k_tree)

    def avoidable(allowed):
        return game.initial in _avoid_set(game, player, cause, allowed)

    sets = list(_free_sets(game, sigma, avoidable, budget, start))
    if not sets:
        return GameCauseVerdict(False, distances.INF, True, False)
    loser = winner = None
    for free in sets:
        for tau in _variants(sigma, _alternatives(game, sigma, free), budget):
            if not strategy_avoids(game, tau, cause):
                continue
            if strategy_is_winning(game, tau):
                winner = winner or tau
            else:
                loser = loser or tau
        if loser is not None:
            break
    return _verdict(query, len(sets[0]), loser, winner)


def _check_dstar(query, allowed, budget):
    """Exact search for the Hausdorff-inspired vertex-counting distance: no
    polynomial algorithm is claimed for it, so candidates are enumerated and
    measured exactly.

    The candidates take region-preserving choices inside the avoid region
    and sigma's off it, sigma-matched; every cause-avoiding strategy is one
    of them up to off-path choices, which can only increase the distance.
    """
    game, sigma = query.game, query.sigma
    graph = play_graph(game, sigma)
    scored = sorted(
        (distances.dstar(game, tau, sigma, budget, graph), key, tau)
        for key, tau in _distinct_matched(game, sigma, _variants(sigma, allowed, budget))
    )
    k_star = scored[0][0]
    loser = winner = None
    for d, _key, tau in scored:
        if d != k_star:
            break
        if strategy_is_winning(game, tau):
            winner = winner or tau
        else:
            loser = loser or tau
    return _verdict(query, k_star, loser, winner)


def brute_force_check_cause(query, budget=None, distance_fn=None):
    """Definitional oracle: enumerate every MD strategy of the player, keep
    the cause-avoiding ones, and apply the three cause conditions literally.

    `distance_fn(game, tau, sigma)` may inject an independent distance
    implementation; the packaged distances are used otherwise.
    """
    validate_game_query(query)
    budget = as_budget(budget)
    game, sigma = query.game, query.sigma
    if distance_fn is None:
        distance_fn = {
            METRIC_PREF_H: distances.d_pref_hausdorff,
            METRIC_HAMM_S: distances.d_hamm_s,
            METRIC_DSTAR: distances.dstar,
        }[query.metric]
    c1 = losing_play_reaches_cause(game, sigma, query.cause)
    scored = []
    for tau in enumerate_strategies(game, query.player, budget):
        if strategy_avoids(game, tau, query.cause):
            scored.append((distance_fn(game, tau, sigma), tau))
    c2 = bool(scored)
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    min_d = min(d for d, _ in scored)
    minimal = [tau for d, tau in scored if d == min_d]
    flags = [strategy_is_winning(game, tau) for tau in minimal]
    is_cause = all(flags)
    order = sorted(
        range(len(minimal)),
        key=lambda i: (flags[i], sorted(minimal[i].choice.items())),
    )
    witnesses = tuple(
        StrategyWitness(minimal[i], min_d, flags[i])
        for i in order[: query.witnesses]
    )
    return GameCauseVerdict(is_cause, min_d, c1, c2, witnesses)


# ---------------------------------------------------------------------------
# explanations


def extract_explanation(game, sigma, cause=frozenset()):
    """Compute an explanation from a cause: solve the game restricted to the
    player's cause-avoiding region and diff the winning strategy against
    sigma.

    Solving plainly with the cause vertices deleted could hand back a
    strategy that loses once the opponent steers through the deleted part;
    restricting to the avoid region keeps the opponent inside it, so the
    witness wins in the full game.  On actual causes the two coincide.
    """
    validate_strategy(game, sigma)
    cause = frozenset(cause)
    for c in sorted(cause):
        if c not in game._succ:
            raise PreconditionViolated(f"{c!r} is not a vertex")
    player = sigma.player
    region, allowed = avoid_region(game, player, cause)
    if game.initial not in region:
        raise NoWinningStrategy(
            "the player cannot even avoid the cause set from the initial vertex"
        )
    wins, choices = _solve_for(game, player, allowed)
    if not wins:
        raise NoWinningStrategy("the player loses the cause-free subgame")
    owned = game.owned_by(player)
    choice = {v: choices.get(v, sigma.choice[v]) for v in sorted(owned)}
    tau = _sigma_matched(game, MDStrategy(player, choice), sigma)
    diff = frozenset(v for v in sorted(owned) if tau.choice[v] != sigma.choice[v])
    return Explanation(vertex_set=diff, witness=tau)


def is_explanation(game, sigma, vertex_set):
    """Decide whether changing sigma exactly on the given vertices can win.

    Returns (verdict, winning witness strategy or None)."""
    validate_strategy(game, sigma)
    player = sigma.player
    owned = game.owned_by(player)
    vertex_set = frozenset(vertex_set)
    for v in sorted(vertex_set):
        if v not in owned:
            raise PreconditionViolated(f"{v!r} is not owned by {player}")
        if len(game.successors(v)) < 2:
            raise EmptyChoice(f"{v!r} has no edge other than sigma's choice")
    allowed = {v: (sigma.choice[v],) for v in owned}
    allowed.update(_alternatives(game, sigma, vertex_set))
    wins, choices = _solve_for(game, player, allowed)
    if not wins:
        return False, None
    return True, MDStrategy(player, choices)


def min_winning_distance(game, sigma, metric, threshold=None, budget=None):
    """Exact minimum distance from sigma to a winning strategy.

    With a threshold, answers the decision problem "is there a winning
    strategy within distance k" instead (stopping early).
    """
    validate_strategy(game, sigma)
    budget = as_budget(budget)
    value, _tau = _min_winning(game, sigma, metric, threshold, budget)
    if threshold is not None:
        return value <= threshold
    return value


def _min_winning(game, sigma, metric, threshold, budget):
    """(least distance from sigma to a winning strategy, a strategy there).

    The hamm-s search only asks whether the player wins, so its strategy is
    None.  With a threshold, the first strategy within it is returned, or
    (threshold + 1, None) when there is none.
    """
    player = sigma.player
    if metric == METRIC_HAMM_S:
        stop = None if threshold is None else threshold + 1

        def wins(allowed):  # Safe wins exactly where it avoids the effect set
            safe_wins = game.initial in _avoid_set(game, SAFE, game.effect, allowed)
            return safe_wins == (player == SAFE)

        for free in _free_sets(game, sigma, wins, budget, stop=stop):
            return len(free), None
    elif metric == METRIC_DSTAR:
        best = None
        graph = play_graph(game, sigma)
        strategies = enumerate_strategies(game, player, budget)
        for key, tau in _distinct_matched(game, sigma, strategies):
            if not strategy_is_winning(game, tau):
                continue
            d = distances.dstar(game, tau, sigma, budget, graph)
            if best is None or (d, key) < best[:2]:
                best = (d, key, tau)
                if threshold is not None and d <= threshold:
                    break
        if best is not None:
            return best[0], best[2]
    else:
        raise PreconditionViolated(f"unsupported metric {metric!r} for this search")
    if threshold is not None:
        return threshold + 1, None
    raise NoWinningStrategy(f"player {player} has no winning strategy")


def is_minimal_explanation(game, sigma, vertex_set, metric, budget=None):
    """A minimal explanation attains the least possible winning distance.

    For the Hamming strategy distance every E-distinct strategy sits at
    distance exactly |E|, so minimality is a cardinality comparison; for the
    vertex-counting distance the E-distinct winning strategies are measured
    exactly.
    """
    budget = as_budget(budget)
    vertex_set = frozenset(vertex_set)
    ok, _tau = is_explanation(game, sigma, vertex_set)
    if not ok:
        return False
    if metric == METRIC_HAMM_S:
        return len(vertex_set) == min_winning_distance(
            game, sigma, METRIC_HAMM_S, budget=budget
        )
    if metric == METRIC_DSTAR:
        overall = min_winning_distance(game, sigma, METRIC_DSTAR, budget=budget)
        options = _alternatives(game, sigma, vertex_set)
        graph = play_graph(game, sigma)
        found = [
            distances.dstar(game, tau, sigma, budget, graph)
            for tau in _variants(sigma, options, budget)
            if strategy_is_winning(game, tau)
        ]
        return min(found, default=None) == overall
    raise PreconditionViolated(f"unsupported metric {metric!r} for minimality")


# ---------------------------------------------------------------------------
# acyclic d* repair


def min_dstar_winning_strategy_acyclic(game, sigma, budget=None):
    """Winning Reach strategy minimizing the vertex-counting distance to a
    losing sigma whose restriction graph is acyclic, with that distance.

    The min-max costs of `_deviation_costs` (deviating edges cost 1, Safe
    maximizing) propose a strategy tau_fast and a lower bound val[initial].
    The bound holds because a winning MD strategy's plays are simple and
    finite: Safe could repeat any loop forever.  So the play on which Safe
    always moves to a successor of largest value deviates from sigma at no
    fewer distinct vertices than val[initial], and d* is at least that play's
    count.

    A winning tau_fast whose d* equals val[initial] is certified optimal and
    returned without the exact search.  Otherwise the exact search decides,
    and tau_fast is still returned when it ties the exact optimum.
    """
    validate_strategy(game, sigma)
    if sigma.player != REACH:
        raise PreconditionViolated("the acyclic repair is defined for Reach")
    budget = as_budget(budget)
    adj = strategy_adjacency(game, sigma)
    if not is_effectively_acyclic(adj):
        raise NotAcyclic("the game restricted to sigma is not acyclic")
    ranks = attractor(game._succ, game.reach_owned, game.effect, game._pred)
    if game.initial not in ranks:
        raise NoWinningStrategy("Reach does not win this game")

    val = _deviation_costs(game, sigma, adj)
    choice = {}
    for v in sorted(game.reach_owned):
        options = []
        for u in game.successors(v):
            cost = (0 if u == sigma.choice[v] else 1) + val.get(u, distances.INF)
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


def _deviation_costs(game, sigma, adjacency):
    """{vertex: cost} of forcing the effect when each step off sigma's choice
    costs 1 and Safe maximizes; vertices where Reach cannot force it (cost
    INF) are left out.  These are the 0/1 case of min-cost reachability game
    values (Khachiyan et al., "On short paths interdiction problems", 2008):
    a vertex costs at most k iff it joins the all-universal attractor, over
    sigma's graph `adjacency`, of the effect plus every Reach vertex with an
    edge into level k - 1.  One attractor runs per level until no Reach
    vertex is added.  Attractors are least fixpoints, so the costs are the
    greatest fixpoint of the min-max equations: the values a Bellman-style
    sweep reaches from INF.
    """
    cost, level, target = {}, 0, game.effect
    while True:
        for v in attractor(adjacency, (), target):
            cost.setdefault(v, level)
        grown = game.effect.union(
            v for v in game.reach_owned if any(u in cost for u in game.successors(v))
        )
        if len(grown) == len(target):
            return cost
        target, level = grown, level + 1
