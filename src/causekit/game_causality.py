"""Reachability-game solving, counterfactual causes for losing strategies,
and strategy-repair explanations.

The polynomial pieces (attractor solving, safety regions, the Hausdorff-prefix
cause check, the tree DP of the Hamming check and the d* repair's deviation
costs) all run on the one attractor kernel `model.attractor`, on the game's
own predecessor lists where it can; the Hausdorff-prefix check resumes one
`model.Attractor` across all its pin radii, and the deviation costs build
the predecessor lists of sigma's graph once for all their levels.  They are
complemented by exact, budget-guarded searches for the problems the
distance functions make NP- or coNP-hard.  No game needs to be acyclic.
Both exact distances, hamm-s and d*, share one enumeration kernel:
`_matched_strategies` builds each distinct sigma-matched strategy once by
branching only at vertices its plays reach, over any edge options.  The
cause checks (`_check_exact`) give it the region-preserving edges inside
the avoid region and sigma's pick elsewhere; the winning searches behind
`min_winning_distance`, `is_minimal_explanation` and the repair's fallback
give it every edge.  `_variants` re-points sigma over a product of edge
choices, for the d* minimality check.  Each charges one budget unit per
candidate it yields; measuring a candidate charges nothing: hamm-s is the
kernel's own count, and d* is linear in the play graph
(`distances.play_scan`).  The
winning searches flag the vertices from which the player loses against
every strategy, by one run of Reach's attractor of the effect set, and drop
without a budget unit every search state whose plays reach one: all the
strategies below it lose.  A candidate is matched, tested and measured by
play walks, which cost what its plays cost: one `distances.play_scan`
tells whether it wins (`_won`), and condition 1 is one attractor over
sigma's play arena.

`_matched_strategies` yields each candidate with sigma's side of its
distance, the one place that side is found.  Its consumers write each new
least to a limit that it reads: a search state is dropped, without a budget
unit, once one of its lower bounds is strictly above it.  The drop is
strict, since the cause checks need every tie.  Every bound holds for every
strategy below the state, since its fixed picks stay reached; each branch
point saves the bounds with the length of the log of differing picks, and
backtracking restores them.  For d*, tau's side is the most picks
differing from sigma's on a path the walk discovered, carried along each
step; sigma's side is the heaviest path through sigma's condensation over
the differing picks, redone only when one is fixed, and exact at a
strategy.  For hamm-s, sigma's side is the whole distance: the count of
fixed picks that differ from sigma's, which only grows, so a state with no
room for one more follows sigma's picks in one walk.  One loop, `_least`,
measures the cause-check candidates of both distances and the d* winning
search's: one scan adds tau's side of d*, which for hamm-s never exceeds
the count, and the win.  Its witnesses are the least loser and the least
winner at the least distance, those of `brute_force_check_cause`.  The
hamm-s winning search needs one winner per distance, so each winner lowers
the limit to one below its own, and the hamm-s minimality check is the
decision search within |E| - 1.  The E-variants of the d* minimality
check differ from sigma exactly on E and share one sigma side, from one
scan.  The decision searches start the limit at their threshold.  The
value-only d* searches stop at the first winner at a known lower bound:
the least winning distance for `is_minimal_explanation`, Reach's deviation
costs (`_dstar_floor`) for `min_winning_distance`.  The d* repair skips the
exact search when its deviation costs certify the proposed strategy.

Everything here runs on the game's vertex numbers (see `model`): vertex
sets are lists, sets or flags of numbers, and a strategy runs as its picks.
The public entry points take `MDStrategy` values and id sets and convert
them once, `validate_strategy` giving the picks and the game's `index` the
numbers; `strategy_of` turns the picks of a result back into an
`MDStrategy`.  Ids appear only in those conversions, in
`enumerate_strategies` and in error messages.  The definitional oracle
`brute_force_check_cause` stays on `MDStrategy` values and the public
predicates and distances.  `avoid_region`, `tree_min_changes` and the
private kernels take and give numbers.
"""

from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product
from operator import and_, ne, not_

from .errors import (
    EmptyChoice,
    NoWinningStrategy,
    NotAcyclic,
    PreconditionViolated,
    as_budget,
)
from .model import (
    EFFECT,
    REACH,
    SAFE,
    Attractor,
    MDStrategy,
    attractor,
    maximal_avoiding_set,
    opponent,
    play_arena,
    play_layers,
    predecessors,
    shortest_route,
    strategy_of,
    validate_strategy,
    trap_vertices,
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
    rank = attractor(game._succ, game._owns[REACH], game._targets, game._pred)
    inside = [r is not None for r in rank]
    return WinningAnalysis(
        reach_region=frozenset(compress(game.ids, inside)),
        safe_region=frozenset(compress(game.ids, map(not_, inside))),
        reach_strategy=strategy_of(game, REACH, _attractor_choices(game, {}, rank, REACH)),
        safe_strategy=strategy_of(game, SAFE, _attractor_choices(game, {}, rank, SAFE)),
    )


def _attractor_choices(game, allowed, rank, player):
    """The player's picks from Reach's attractor ranks over the game with
    the edge tuples of `allowed` in place of its own.

    Reach steps to its first successor of lower rank, Safe to its first
    successor outside the attractor; failing that, the first allowed edge,
    or the first edge of the game where `allowed` leaves none.
    """
    succ = game._succ
    picks = [None] * len(succ)
    for v in compress(range(len(succ)), game._owns[player]):
        opts = allowed.get(v, succ[v])
        picks[v] = opts[0] if opts else succ[v][0]
        if player == SAFE:
            for u in opts:
                if rank[u] is None:
                    picks[v] = u
                    break
        elif rank[v] is not None:
            bound = rank[v]
            for u in opts:
                if rank[u] is not None and rank[u] < bound:
                    picks[v] = u
                    break
    return picks


def avoid_region(game, player, cause):
    """Flags by vertex of the vertices from which the player can guarantee
    never visiting the vertices `cause`, with the region-preserving edge
    sets at the player's vertices in the region."""
    region = _avoid_set(game, player, cause, {})
    return region, _kept_edges(game, player, region)


def _kept_edges(game, player, region):
    """The edges into `region` of each of the player's vertices in it: all
    their edges, trimmed at the vertices with a successor outside."""
    succ, keep = game._succ, region.__getitem__
    mine = list(compress(range(len(succ)), map(and_, game._owns[player], region)))
    kept = dict(zip(mine, map(succ.__getitem__, mine)))
    for u in compress(range(len(succ)), map(not_, region)):
        for v in game._pred[u]:
            if v in kept:
                kept[v] = tuple(filter(keep, succ[v]))
    return kept


def _avoid_set(game, player, cause, allowed):
    """Flags by vertex of the vertices outside the opponent's attractor of
    `cause` when the vertices in `allowed` may only use the given edge
    tuples."""
    caught = attractor(
        game._succ, game._owns[opponent(player)], cause, game._pred, allowed
    )
    return [r is None for r in caught]


def _solve_for(game, player, allowed):
    """Solve the game for `player` when its vertices may only use the given
    edge subsets.  Returns (wins_from_initial, picks).

    `allowed` is keyed by the player's vertices; those missing from it keep
    their full edge set.  Dead ends the restriction creates count against
    Reach: a stuck play never reaches the effect set.
    """
    rank = attractor(game._succ, game._owns[REACH], game._targets, game._pred, allowed)
    wins = (rank[game._init] is not None) == (player == REACH)
    return wins, _attractor_choices(game, allowed, rank, player)


# ---------------------------------------------------------------------------
# strategy predicates


def strategy_is_winning(game, strategy):
    picks = validate_strategy(game, strategy)
    _d, cyclic, seen = distances.play_scan(game, picks, picks)
    return _won(game, strategy.player, cyclic, seen)


def _won(game, player, cyclic, seen):
    """Whether the player's picks win, read off one `distances.play_scan` of
    their plays: Reach iff no play cycles, since only effect vertices end
    plays, Safe iff no play visits the effect (`seen` holds the vertices
    visited)."""
    if player == REACH:
        return not cyclic
    return not any(map(game._owns[EFFECT].__getitem__, seen))


def strategy_avoids(game, strategy, cause):
    seen = play_arena(game, validate_strategy(game, strategy))[0]
    return not any(game.index.get(c) in seen for c in cause)


def losing_play_reaches_cause(game, sigma, cause):
    """Condition 1: some sigma-play visits the cause set and loses.

    Losing means reaching the effect set for Safe, and avoiding it forever
    for Reach (a reachable cycle or trap past the cause visit).
    """
    picks = validate_strategy(game, sigma)
    return _condition1(game, sigma.player, picks, list(map(game.index.get, cause)))


def _condition1(game, player, picks, cause):
    """Condition 1 by one attractor of the effect over the picks' play
    arena: all-existential for Safe, whose plays can lose from its members,
    all-universal for Reach, whose plays can avoid the effect forever from
    the vertices outside it."""
    seen, succ = play_arena(game, picks)
    hits = [seen[c] for c in cause if c in seen]
    if not hits:
        return False
    effect = compress(range(len(succ)), map(game._owns[EFFECT].__getitem__, seen))
    rank = attractor(succ, (b"\0" if player == REACH else b"\1") * len(succ), effect)
    return any((rank[h] is None) == (player == REACH) for h in hits)


def enumerate_strategies(game, player, budget=None):
    """All MD strategies for the player, in lexicographic encoding order."""
    budget = as_budget(budget)
    ids, succ = game.ids, game._succ
    owned = list(compress(range(len(ids)), game._owns[player]))
    names = [ids[v] for v in owned]
    option_lists = [[ids[u] for u in succ[v]] for v in owned]
    for picks in product(*option_lists):
        budget.charge()
        yield MDStrategy(player, dict(zip(names, picks)))


def _sigma_matched(game, picks, sigma):
    """Reset the picks at vertices they never reach to sigma's.

    Harmless for winning and cause-avoidance (the reachable part is
    untouched) and never increases any play-based distance to sigma.
    """
    seen = play_arena(game, picks)[0]
    return [picks[v] if v in seen else u for v, u in enumerate(sigma)]


# ---------------------------------------------------------------------------
# exact search kernel


def _variants(sigma, options, budget):
    """Sigma's picks re-pointed at every vertex of `options`, once per
    combination of their edge tuples in `product` order, at one budget unit
    each."""
    vertices = sorted(options)
    for picks in product(*(options[v] for v in vertices)):
        budget.charge()
        tau = list(sigma)
        for v, u in zip(vertices, picks):
            tau[v] = u
        yield tau


def _matched_strategies(game, sigma, options, budget, condensed, limit, lost=None):
    """Each distinct sigma-matched strategy whose reached picks come from
    `options` (a tuple per owned vertex) and whose distance from sigma is
    within the one-item list `limit`, which its consumer may lower as it
    goes, once, as (its picks, sigma's side of that distance), at one budget
    unit each, lazily.  `condensed` is `distances.play_condensation(game,
    sigma)` for d*; None measures hamm-s instead, whose sigma side is the
    whole distance: the number of fixed picks that differ from sigma's.
    With `lost`, flags by vertex, only those whose plays reach no flagged
    vertex, in the same order.

    A search state fixes picks at some owned vertices; its plays run from
    the initial vertex until they meet an owned vertex without one.  A state
    whose plays meet none is a strategy, with sigma's pick at every vertex
    they never reach.  Otherwise the search branches at the least such
    vertex, sigma's pick first where it is an option; a vertex whose one
    option is sigma's pick takes it with no branch point.  Picks are fixed
    only at reached vertices and stay reached, so two branches differ at a
    vertex both strategies' plays visit, and no strategy comes twice.  For the same
    reason every strategy below a state whose plays reach a flagged vertex
    reaches it too; such a state is dropped at once, without a budget unit.
    A winning search flags the vertices from which the player loses against
    every strategy, so what it drops are losers.

    The same reason gives two lower bounds on d* from sigma of every
    strategy below a state, since the vertices whose fixed pick differs from
    sigma's stay reached and differing in all of them.  A state is dropped,
    without a budget unit, as soon as either bound is strictly greater than
    the limit; the drop is strict so that a consumer which needs every tie
    at the least distance (`_least`) can lower the limit to the least it
    has found.  Tau's side is the most differing picks on the path by which
    the walk discovered a reached vertex, carried along each step at O(1):
    a simple play path counts no more than `distances.play_scan`'s heaviest
    path through the condensation of tau's play graph, cycles or not.
    Sigma's side is the heaviest path through sigma's condensation weighing
    the differing picks (`distances.heaviest_chain`), redone only when a
    differing pick is fixed, in time quadratic in the few components that
    hold one.  A strategy differs from sigma only at its fixed picks, so
    there this bound is exact, and it is yielded with the strategy.  For
    hamm-s the count of differing fixed picks takes its place: it too only
    grows below a state, and at a strategy it is the hamm-s distance.  A
    state whose count leaves no room for one more differing pick follows
    sigma's pick at every vertex its plays reach, in one walk, and ends
    where sigma's pick is no option.

    One state is kept and changed in place: each branch point records how
    long the logs of reached and waiting vertices and of the differing
    picks' components were, with both bounds, and going back to it undoes
    what was logged since and restores the bounds, so memory stays linear
    in the game.  A branch point whose own bound has come to exceed the
    limit is left at once.
    """
    succ, default = game._succ, sigma
    if lost is None:
        lost = bytes(len(succ))
    if condensed is None:  # hamm-s: every differing pick counts once
        component = {v: v for v, u in enumerate(sigma) if u is not None}
        measure, rise = len, 1
    else:
        owned, reach = condensed
        component = dict(owned)
        measure, rise = partial(distances.heaviest_chain, reach=reach), 0
    fixed, seen, waiting = {}, {game._init}, set()
    trail, parked = [], []  # vertices added to `seen` and to `waiting`, in order
    changed = []  # sigma's components of the fixed picks that differ from sigma's
    depth = [0] * len(succ)  # differing picks on the path that discovered each vertex
    sole = [u is not None and options[v] == (u,) for v, u in enumerate(sigma)]

    def walk(v, top, pinned):
        """Extend the plays from v; the tau-side bound `top` raised by the
        steps taken, or None when they reach a flagged vertex.  A vertex
        whose one option is sigma's pick takes it, and with `pinned` so
        does every vertex without a fixed pick, or the walk ends (None)
        where sigma's pick is no option."""
        todo = [v]
        while todo:
            v = todo.pop()
            d, first = depth[v], default[v]
            if first is None:
                moves = succ[v]
            elif v in fixed:
                moves = (fixed[v],)
                if moves[0] != first:
                    d += 1
                    if d > top:
                        top = d
            elif sole[v] or pinned:
                if first not in options[v]:
                    return None
                moves = (first,)
            else:
                waiting.add(v)
                parked.append(v)
                continue
            for u in moves:
                if u not in seen:
                    if lost[u]:
                        return None
                    seen.add(u)
                    trail.append(u)
                    depth[u] = d
                    todo.append(u)
        return top

    top = None if lost[game._init] else walk(game._init, 0, rise > limit[0])
    if top is None:
        return
    heavy = 0  # sigma's side
    branches = []  # (vertex, its picks left, the log lengths, the bounds) per branch point
    while True:
        if waiting:
            v = min(waiting)
            waiting.remove(v)
            first = default[v]
            if heavy + rise > limit[0]:  # no differing pick fits
                picks = [first] if first in options[v] else []
            else:
                picks = [u for u in options[v] if u != first]
                if first in options[v]:
                    picks.insert(0, first)
            branches.append((v, iter(picks), len(trail), len(parked), len(changed), top, heavy))
        else:
            budget.charge()
            tau = list(default)
            for v, u in fixed.items():
                tau[v] = u
            yield tau, heavy
        while branches:  # the next pick of the innermost branch point with one left
            v, picks, n_seen, n_waiting, n_changed, top, heavy = branches[-1]
            seen.difference_update(trail[n_seen:])
            del trail[n_seen:]
            waiting.difference_update(parked[n_waiting:])
            del parked[n_waiting:]
            del changed[n_changed:]
            u = next(picks, None) if top <= limit[0] >= heavy else None
            if u is None:
                fixed.pop(v, None)
                waiting.add(v)
                branches.pop()
                continue
            fixed[v] = u
            if u != default[v] and v in component:
                changed.append(component[v])
                heavy = measure(changed)
                if heavy > limit[0]:
                    continue
            top = walk(v, top, heavy + rise > limit[0])
            if top is not None and top <= limit[0]:
                break
        else:
            return


def _alternatives(game, sigma, vertices):
    """The edges other than sigma's pick at each of the vertices."""
    succ = game._succ
    return {v: tuple(u for u in succ[v] if u != sigma[v]) for v in sorted(vertices)}


def _verdict(query, k, loser, winner):
    """Both conditions hold; the cause verdict at distance k, with the first
    losing and the first winning minimal picks as witnesses."""
    pairs = ((loser, False), (winner, True))
    witnesses = tuple(
        StrategyWitness(strategy_of(query.game, query.player, t), k, w)
        for t, w in pairs
        if t is not None
    )
    return GameCauseVerdict(loser is None, k, True, True, witnesses[: query.witnesses])


def _least(game, player, sigma, candidates, limit, stop=None):
    """(least distance from sigma's picks among the candidates, the least
    losing and the least winning picks at it, or None).  With a `stop`,
    only winners count, and the search ends at the first one at or below it.

    The candidates are the (picks, sigma's side) pairs of a
    `_matched_strategies`, for d* or for hamm-s, that shares the one-item
    list `limit`: each new least is written to it, so the enumeration drops
    the states whose lower bounds exceed it, and yields no candidate whose
    sigma side does.  A caller that needs no strategy above a threshold
    starts the limit there; otherwise at INF, or at a lower bound such as
    the tree DP's, and nothing is dropped before the first least.  One
    `distances.play_scan` per candidate gives tau's side of d* and, by
    `_won`, the win.  For hamm-s that side counts differing picks along one
    chain of the play graph, and a sigma-matched candidate's differing
    picks are all reached, so it never exceeds the hamm-s count and the
    maximum is the count itself.  A candidate above the limit is skipped,
    strictly, since the cause check needs every tie.  Picks lists compare
    as their sorted (vertex, choice) id pairs do, so the result does not
    depend on the enumeration order: at the least hamm-s distance every
    cause-avoiding strategy is sigma-matched, since a change off its plays
    adds 1, so the witnesses are those of `brute_force_check_cause`.
    """
    least = loser = winner = None
    for tau, side in candidates:
        d_tau, cyclic, rank = distances.play_scan(game, tau, sigma)
        wins = _won(game, player, cyclic, rank)
        if stop is not None and not wins:
            continue
        d = max(side, d_tau)
        if d > limit[0]:
            continue
        if least is None or d < least:
            least, loser, winner = d, None, None
            limit[0] = d
        if wins:
            winner = min(winner or tau, tau)
            if stop is not None and d <= stop:
                break
        else:
            loser = min(loser or tau, tau)
    return least, loser, winner


# ---------------------------------------------------------------------------
# cause checking


def validate_game_query(query):
    """Check the query; return sigma's picks and the cause's vertices."""
    if query.metric not in GAME_METRICS:
        raise PreconditionViolated(f"unknown strategy metric {query.metric!r}")
    if query.player not in (REACH, SAFE):
        raise PreconditionViolated(f"unknown player {query.player!r}")
    if query.sigma.player != query.player:
        raise PreconditionViolated("the strategy belongs to the other player")
    sigma = validate_strategy(query.game, query.sigma)
    return sigma, _cause_vertices(query.game, query.cause)


def _cause_vertices(game, cause):
    """The vertex numbers of the cause ids, each checked to be a vertex
    outside the effect set."""
    for c in sorted(cause):
        if c not in game.index:
            raise PreconditionViolated(f"{c!r} is not a vertex")
        if game._owns[EFFECT][game.index[c]]:
            raise PreconditionViolated(f"cause vertex {c!r} lies in the effect set")
    return frozenset(map(game.index.__getitem__, cause))


def check_cause_game(query, budget=None):
    """Decide whether the cause set explains the strategy's loss.

    Conditions: a losing sigma-play through the cause exists, the player can
    avoid the cause at all, and every cause-avoiding strategy at minimal
    distance to sigma is winning.
    """
    sigma, cause = validate_game_query(query)
    budget = as_budget(budget)
    game = query.game
    c1 = _condition1(game, query.player, sigma, cause)
    if query.metric == METRIC_PREF_H:
        return _check_pref_h(query, sigma, cause, c1, budget)
    region, allowed = avoid_region(game, query.player, cause)
    c2 = region[game._init]
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)
    return _check_exact(query, sigma, cause, allowed, budget)


def _check_pref_h(query, sigma, cause, c1, budget):
    """Hausdorff-prefix cause check, conditions 2 and 3 (condition 1 is `c1`).

    The distance-minimal cause-avoiding strategies are exactly those that
    copy sigma on every owned vertex within the deepest pin radius n_star
    that still leaves the cause avoidable.  They all win iff the opponent
    cannot defeat the player even when also steering the player's remaining
    freedom inside the region-preserving edges.

    One `Attractor` of the cause, for the opponent, answers every radius:
    unpinned it gives condition 2, and radius n pins the owned vertices of
    depth n - 1 in sigma's play graph to sigma's pick, one layer per budget
    unit, until the initial vertex is caught.  The region at n_star is what
    had not joined before that last layer.
    """
    game, player, init = query.game, query.player, query.game._init
    caught = Attractor(game._succ, game._owns[opponent(player)], cause, game._pred)
    c2 = caught.rank[init] is None
    if not (c1 and c2):
        return GameCauseVerdict(False, distances.INF, c1, c2)

    pinned = {}
    for n_star, layer in enumerate(play_layers(game, sigma)):
        budget.charge()
        joined = len(caught.order)
        pins = {v: sigma[v] for v in layer}
        caught.pin(pins)
        if caught.rank[init] is not None:
            break
        pinned.update(pins)
    else:
        raise AssertionError("pinning every reachable vertex must block avoidance")
    pin_region = [True] * len(game._succ)
    for v in islice(caught.order, joined):
        pin_region[v] = False

    allowed = _kept_edges(game, player, pin_region)
    allowed.update((v, (u,)) for v, u in pinned.items() if pin_region[v])
    overrides = _defeat_choices(game, player, allowed)
    wins = overrides is None
    tau = _assemble_strategy(sigma, allowed, overrides or {})
    # tau copies sigma at every depth below n_star and avoids the cause; a
    # strategy that also copied sigma at depth n_star could not, so tau first
    # differs from sigma there and d_pref_hausdorff(sigma, tau) is min_d.
    min_d = dyadic(n_star + 1)
    witness = StrategyWitness(strategy_of(game, player, tau), min_d, wins)
    return GameCauseVerdict(wins, min_d, True, True, (witness,)[: query.witnesses])


def _defeat_choices(game, player, allowed):
    """The player's picks on one play by which the opponent defeats it in the
    arena, the game with the edge tuples of `allowed`, as {vertex: pick};
    None if there is no such play from the initial vertex.  Against Reach
    the play keeps to the effect-avoiding set by first successors until it
    closes a cycle; against Safe it is the least shortest route to the
    effect set."""
    arena = list(game._succ)
    for v, ends in allowed.items():
        arena[v] = ends
    init = game._init
    if player == REACH:
        dodge = maximal_avoiding_set(game._succ, game._targets, game._pred, allowed)
        if not dodge[init]:
            return None
        choices = {}
        v = init
        while v not in choices:
            stay = [u for u in arena[v] if dodge[u]]
            if not stay:
                break
            choices[v] = stay[0]
            v = stay[0]
    else:
        route = shortest_route(arena, init, game._owns[EFFECT].__getitem__)
        if route is None:
            return None
        choices = dict(zip(route, route[1:]))
    mine = game._owns[player]
    return {v: u for v, u in choices.items() if mine[v]}


def _assemble_strategy(sigma, allowed, overrides):
    """Picks: overrides first, then sigma's pick where `allowed` keeps it
    (pinned vertices always do), then the first allowed edge."""
    tau = list(sigma)
    for v, opts in allowed.items():
        if sigma[v] not in opts:
            tau[v] = opts[0]
    for v, u in overrides.items():
        tau[v] = u
    return tau


def _tree_shaped(game):
    """Tree arenas (modulo trap self-loops): one way in per reachable vertex
    but the initial one.  The walk stops at the first vertex with two."""
    succ, init = game._succ, game._init
    seen, todo = {init}, [init]
    while todo:
        v = todo.pop()
        for u in succ[v]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
            elif u != init and not (u == v and succ[v] == (v,)):
                return False
    return True


def tree_min_changes(game, sigma, cause):
    """Minimum number of pick changes that avoid the vertices `cause`, on
    tree arenas.

    Subtree vertex sets are disjoint on a tree, so costs add across opponent
    branches; on general DAGs this sum may double-count shared descendants,
    which is why the exact search is used there.  Costs are filled
    bottom-up in the join order of the all-universal attractor of the cause,
    effect and trap vertices, so every successor is costed first; NotAcyclic
    if the initial vertex never joins, that is, if a play from it can cycle
    before reaching one of them.
    """
    succ = game._succ
    ends = trap_vertices(succ).union(game._targets, cause)
    cost = [None] * len(succ)
    for v in Attractor(succ, bytes(len(succ)), ends, game._pred).order:
        if v in cause:
            cost[v] = distances.INF
        elif v in ends:
            cost[v] = 0
        elif sigma[v] is not None:
            keep = cost[sigma[v]]
            change = min(
                (1 + cost[u] for u in succ[v] if u != sigma[v]),
                default=distances.INF,
            )
            cost[v] = min(keep, change)
        else:
            cost[v] = sum(cost[u] for u in succ[v])
    if cost[game._init] is None:
        raise NotAcyclic("a play from the initial vertex can cycle")
    return cost[game._init]


def _check_exact(query, sigma, cause, allowed, budget):
    """Exact search for the two distances with no polynomial algorithm
    here, hamm-s and d*: candidates are enumerated and measured exactly.

    The candidates are the sigma-matched strategies with region-preserving
    picks inside the avoid region and sigma's off it; every cause-avoiding
    strategy is one of them up to off-path picks, which can only increase
    either distance.  Every search state extends to a candidate, so the
    first comes after one descent and bounds the rest.  The two distances
    differ only in how the search starts: d* condenses sigma's play graph
    once, and on a tree-shaped game where plays from the initial vertex
    cannot cycle, the hamm-s limit starts at the tree DP's count, the
    least.  One loop, `_least`, measures the candidates of both and gives
    the least losing and the least winning at the least distance as
    witnesses.
    """
    game = query.game
    options = [allowed.get(v, (u,)) for v, u in enumerate(sigma)]
    limit, condensed = [distances.INF], None
    if query.metric == METRIC_DSTAR:
        condensed = distances.play_condensation(game, sigma)
    elif _tree_shaped(game):
        try:
            limit[0] = tree_min_changes(game, sigma, cause)
        except NotAcyclic:
            pass
    candidates = _matched_strategies(game, sigma, options, budget, condensed, limit)
    return _verdict(query, *_least(game, query.player, sigma, candidates, limit))


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
    picks = validate_strategy(game, sigma)
    player = sigma.player
    region, allowed = avoid_region(game, player, _cause_vertices(game, cause))
    if not region[game._init]:
        raise NoWinningStrategy(
            "the player cannot even avoid the cause set from the initial vertex"
        )
    wins, choices = _solve_for(game, player, allowed)
    if not wins:
        raise NoWinningStrategy("the player loses the cause-free subgame")
    tau = _sigma_matched(game, choices, picks)
    diff = compress(game.ids, map(ne, tau, picks))
    return Explanation(vertex_set=frozenset(diff), witness=strategy_of(game, player, tau))


def is_explanation(game, sigma, vertex_set):
    """Decide whether changing sigma exactly on the given vertices can win.

    Returns (verdict, winning witness strategy or None)."""
    player = sigma.player
    wins, choices = _is_explanation(
        game, player, validate_strategy(game, sigma), frozenset(vertex_set)
    )
    return wins, strategy_of(game, player, choices) if wins else None


def _is_explanation(game, player, picks, vertex_set):
    """`is_explanation` on sigma's picks and a frozenset of vertex ids:
    (verdict, the picks of a winning witness, or of a losing strategy)."""
    index = game.index
    for v in sorted(vertex_set):
        if v not in index or picks[index[v]] is None:
            raise PreconditionViolated(f"{v!r} is not owned by {player}")
        if len(game._succ[index[v]]) < 2:
            raise EmptyChoice(f"{v!r} has no edge other than sigma's choice")
    allowed = {v: (u,) for v, u in enumerate(picks) if u is not None}
    allowed.update(_alternatives(game, picks, map(index.__getitem__, vertex_set)))
    return _solve_for(game, player, allowed)


def min_winning_distance(game, sigma, metric, threshold=None, budget=None):
    """Exact minimum distance from sigma to a winning strategy.

    With a threshold, answers the decision problem "is there a winning
    strategy within distance k" instead (stopping early).  The d* search
    also stops at the first winner at `_dstar_floor`, below which no winner
    lies.
    """
    picks = validate_strategy(game, sigma)
    return _min_winning_distance(
        game, sigma.player, picks, metric, threshold, as_budget(budget)
    )


def _min_winning_distance(game, player, picks, metric, threshold, budget):
    """`min_winning_distance` on sigma's picks."""
    floor, lost = 0, None
    if metric == METRIC_DSTAR:
        floor, lost = _dstar_floor(game, player, picks)
    value, _tau = _min_winning(game, player, picks, metric, threshold, budget, floor, lost)
    if threshold is not None:
        return value <= threshold
    return value


def _min_winning(game, player, sigma, metric, threshold, budget, floor=0, lost=None):
    """(least distance from sigma's picks to a winning strategy, the picks of
    one there).

    Both searches run on `_matched_strategies` over every edge.  The search
    flags as lost the vertices from which the player loses against every
    strategy: those outside Reach's attractor of the effect set for Reach,
    those inside it for Safe.  A caller may hand these `lost` flags over, as
    the `_lost` flags of Reach's deviation costs; they need only be right
    where the initial vertex reaches.  Otherwise they come from an attractor
    over the whole game.  The enumeration then drops losers early, without a
    budget unit, and leaves the winners and their order as they are.  The
    d* search hands each candidate to `_least`, which keeps the least
    winner at the least distance and lowers the enumeration's limit to it.
    The hamm-s search needs one winner per distance, so each winner, read
    off one `distances.play_scan` by `_won`, lowers the limit to one below
    its own.  With a threshold, the first strategy
    within it is returned, or (threshold + 1, None) when there is none; the
    search starts its limit at the threshold, and does not start at all
    when the `floor` exceeds it.  Without one, a `floor` no winner lies
    below ends the search at the first winner on it; at the default 0 that
    winner is sigma itself, the only strategy at distance 0 from it.
    """
    if metric not in (METRIC_HAMM_S, METRIC_DSTAR):
        raise PreconditionViolated(f"unsupported metric {metric!r} for this search")
    stop, limit = (floor, distances.INF) if threshold is None else (threshold, threshold)
    if lost is None:
        forced = attractor(game._succ, game._owns[REACH], game._targets, game._pred)
        lost = [(r is None) == (player == REACH) for r in forced]
    if floor <= limit:
        condensed = None if metric == METRIC_HAMM_S else distances.play_condensation(game, sigma)
        limit = [limit]
        candidates = _matched_strategies(game, sigma, game._succ, budget, condensed, limit, lost)
        if condensed is not None:
            least, _loser, tau = _least(game, player, sigma, candidates, limit, stop)
        else:
            least = tau = None
            for picks, d in candidates:
                if _won(game, player, *distances.play_scan(game, picks, picks)[1:]):
                    least, tau, limit[0] = d, picks, d - 1
                    if d <= stop:
                        break
        if tau is not None:
            return least, tau
    if threshold is not None:
        return threshold + 1, None
    raise NoWinningStrategy(f"player {player} has no winning strategy")


def is_minimal_explanation(game, sigma, vertex_set, metric, budget=None):
    """A minimal explanation attains the least possible winning distance.

    For the Hamming strategy distance every E-distinct strategy sits at
    distance exactly |E|, so E is minimal unless a winner lies within
    |E| - 1, a decision search with that threshold; for the
    vertex-counting distance the E-distinct winning strategies are measured
    until one attains the least winning distance, below which none can lie.
    Every E-variant differs from sigma exactly on E, so all share sigma's
    side of d*, found by one scan of sigma's plays.  When it exceeds the
    least winning distance no variant is built, and the answer is False.
    Sigma is validated once, here.
    """
    budget = as_budget(budget)
    vertex_set = frozenset(vertex_set)
    player, picks = sigma.player, validate_strategy(game, sigma)
    if not _is_explanation(game, player, picks, vertex_set)[0]:
        return False
    if metric == METRIC_HAMM_S:  # a winner at |E| exists; is one closer?
        return not vertex_set or not _min_winning_distance(
            game, player, picks, METRIC_HAMM_S, len(vertex_set) - 1, budget
        )
    if metric == METRIC_DSTAR:
        overall = _min_winning_distance(game, player, picks, METRIC_DSTAR, None, budget)
        options = _alternatives(game, picks, map(game.index.__getitem__, vertex_set))
        changed = [None if v in options else u for v, u in enumerate(picks)]
        if distances.play_scan(game, picks, changed)[0] > overall:
            return False
        for tau in _variants(picks, options, budget):
            d, cyclic, rank = distances.play_scan(game, tau, picks)
            if d <= overall and _won(game, player, cyclic, rank):
                return True
        return False
    raise PreconditionViolated(f"unsupported metric {metric!r} for minimality")


# ---------------------------------------------------------------------------
# d* repair


def min_dstar_winning_strategy_acyclic(game, sigma, budget=None):
    """Winning Reach strategy minimizing the vertex-counting distance to a
    losing sigma, with that distance.  The name is kept from when sigma's
    graph had to be acyclic; it may now have cycles.

    The min-max costs of `_deviation_costs` (deviating edges cost 1, Safe
    maximizing) propose a strategy tau_fast and a lower bound val[initial]
    (see `_dstar_floor`).

    A winning tau_fast whose d* equals val[initial] is certified optimal and
    returned without the exact search.  Otherwise the exact search decides,
    and tau_fast is still returned when it ties the exact optimum.
    """
    picks = validate_strategy(game, sigma)
    if sigma.player != REACH:
        raise PreconditionViolated("the d* repair is defined for Reach")
    budget = as_budget(budget)
    old, succ, adjacency, reach, targets = _reach_arena(game, picks)
    ranks = attractor(succ, reach, targets)
    if ranks[0] is None:
        raise NoWinningStrategy("Reach does not win this game")

    val = _deviation_costs(succ, reach, targets, adjacency)
    choice = [None] * len(picks)
    for j in compress(range(len(succ)), reach):
        v = old[j]
        options = []
        for u in succ[j]:
            cost = (0 if old[u] == picks[v] else 1) + val[u]
            options.append((cost, float("inf") if ranks[u] is None else ranks[u], old[u]))
        choice[v] = min(options)[2]
    tau_fast = _sigma_matched(game, choice, picks)

    fast = None
    d_tau, cyclic, _rank = distances.play_scan(game, tau_fast, picks)
    if not cyclic:  # the scan of tau_fast's side of d* also tells that it wins
        fast = max(d_tau, distances.play_scan(game, picks, tau_fast)[0])
        if fast == val[0]:
            return strategy_of(game, REACH, tau_fast), fast
    lost = _lost(len(picks), old, val)
    exact, tau_exact = _min_winning(game, REACH, picks, METRIC_DSTAR, None, budget, lost=lost)
    return strategy_of(game, REACH, tau_fast if fast == exact else tau_exact), exact


def _dstar_floor(game, player, sigma):
    """(floor, lost): a d* distance from sigma's picks below which no
    winning strategy of the player lies, and the flags of the vertices
    Reach loses from.  For Reach these are the `_deviation_costs` of the
    initial vertex and their `_lost` flags; for Safe, 0 and None.

    Let Safe always move to a successor whose cost is at least its own; one
    exists at every Safe vertex.  Against a winning Reach strategy that play
    reaches the effect, at cost 0, and is simple, since both players move
    memorylessly and a repeated vertex would repeat forever.  A step on
    sigma's pick never lowers the cost and any other step lowers it by at
    most 1, so the play deviates from sigma at no fewer distinct vertices
    than the initial vertex's cost, and d* is at least that count.  Nothing
    here needs sigma's graph to be acyclic.  The costs are found on
    `_reach_arena`, so vertices no play can visit cost nothing.
    """
    if player != REACH:
        return 0, None
    old, succ, adjacency, reach, targets = _reach_arena(game, sigma)
    cost = _deviation_costs(succ, reach, targets, adjacency)
    return cost[0], _lost(len(sigma), old, cost)


def _lost(size, old, cost):
    """Flags by game vertex of the `_reach_arena` vertices (`old` maps them
    to the game's) whose deviation cost is INF: exactly those outside
    Reach's attractor of the effect, from which Reach loses against every
    strategy.  Vertices outside the arena are not flagged."""
    lost = bytearray(size)
    for v, c in zip(old, cost):
        if c == distances.INF:
            lost[v] = 1
    return lost


def _reach_arena(game, sigma):
    """The part of the game the initial vertex reaches, numbered afresh by
    `play_arena` with no picks, the initial vertex 0, as (`old`, `succ`,
    `adjacency`, `reach`, `targets`): `old` maps each new number to the
    game's, `adjacency` is sigma's graph, `reach` flags Reach's vertices and
    `targets` lists the effect's.  No successor leaves the part, so the
    attractors and costs run on it agree with the whole game's there."""
    seen, succ = play_arena(game, [None] * len(sigma))
    old = list(seen)
    adjacency = [row if sigma[v] is None else [seen[sigma[v]]] for v, row in zip(old, succ)]
    reach = bytes(map(game._owns[REACH].__getitem__, old))
    targets = list(compress(range(len(old)), map(game._owns[EFFECT].__getitem__, old)))
    return old, succ, adjacency, reach, targets


def _deviation_costs(succ, reach, targets, adjacency):
    """Costs by vertex of forcing the effect, the vertices `targets`, over
    the graph `succ` when each step off sigma's pick costs 1 and Safe
    maximizes; INF where Reach, owning the vertices flagged in `reach`,
    cannot force it.  These are
    the 0/1 case of min-cost reachability game values (Khachiyan et al., "On
    short paths interdiction problems", 2008): a vertex costs at most k iff
    it joins the all-universal attractor, over sigma's graph `adjacency`, of
    the effect plus every Reach vertex with an edge into level k - 1.  One
    attractor runs per level, on predecessor lists built once, until no
    Reach vertex is added.  Attractors are
    least fixpoints, so the costs are the greatest fixpoint of the min-max
    equations: the values a Bellman-style sweep reaches from INF.
    """
    INF = distances.INF
    reach = list(compress(range(len(succ)), reach))
    cost, level, target = [INF] * len(succ), 0, targets
    preds, universal = predecessors(adjacency), bytes(len(succ))
    while True:
        for v, r in enumerate(attractor(adjacency, universal, target, preds)):
            if r is not None and cost[v] == INF:
                cost[v] = level
        grown = targets + [v for v in reach if any(cost[u] != INF for u in succ[v])]
        if len(grown) == len(target):
            return cost
        target, level = grown, level + 1
