"""The linear-time attractor kernel against the round-based reference, its
resumption after pins, and the game and system queries built on it:
acyclicity, the d* repair's costs and the tree change count included."""

import random

from hypothesis import example, given, settings, strategies as st

from causekit.distances import INF, dyadic
from causekit.errors import NotAcyclic
from causekit.game_causality import (
    METRIC_PREF_H,
    GameCauseQuery,
    _avoid_set,
    _deviation_costs,
    _solve_for,
    check_cause_game,
    min_dstar_winning_strategy_acyclic,
    solve,
    tree_min_changes,
)
from causekit.generators import acyclic_game, cyclic_game, random_strategy
from causekit.model import (
    EFFECT,
    REACH,
    SAFE,
    Attractor,
    TransitionSystem,
    attractor,
    exists_maximal_path_avoiding,
    game_from_owners,
    is_acyclic,
    is_effectively_acyclic,
    opponent,
    play_graph,
    strategy_adjacency,
)

from helpers import (
    budgeted,
    naive_attractor,
    naive_check_pref_h,
    naive_is_acyclic,
    naive_is_effectively_acyclic,
    naive_min_dstar_repair,
    naive_repair_costs,
    naive_tree_min_changes,
    pref_h_chain,
    with_unreachable_copy,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def random_game(seed, cyclic):
    rng = random.Random(seed)
    return (cyclic_game if cyclic else acyclic_game)(rng, 12), rng


def edge_subsets(game, rng, player):
    """Random edge subsets at some of the player's vertices; an empty subset
    turns the vertex into a dead end."""
    return {
        v: tuple(u for u in game.successors(v) if rng.random() < 0.6)
        for v in sorted(game.owned_by(player))
        if rng.random() < 0.5
    }


def random_pins(game, rng, player):
    return {
        v: rng.choice(game.successors(v))
        for v in sorted(game.owned_by(player))
        if rng.random() < 0.5
    }


def assert_attractor_choices(game, adjacency, rank, player, choice):
    """Reach descends to its first successor of lower rank, Safe leaves the
    attractor by its first edge out; otherwise the first edge."""
    for v in sorted(game.owned_by(player)):
        succ = adjacency[v]
        if player == REACH and v in rank:
            expected = next(u for u in succ if u in rank and rank[u] < rank[v])
        elif player == SAFE and any(u not in rank for u in succ):
            expected = next(u for u in succ if u not in rank)
        else:
            expected = (succ or game.successors(v))[0]
        assert choice[v] == expected, (v, player)


@FUZZ
@given(SEEDS, st.booleans())
@example(1099, True)  # a same-round read once overestimated ranks here
def test_attractor_ranks_match_reference(seed, cyclic):
    game, rng = random_game(seed, cyclic)
    full = game.adjacency()
    expected = naive_attractor(full, game.reach_owned, game.effect)
    assert attractor(full, game.reach_owned, game.effect) == expected
    pool = sorted(set(game.vertices) - game.effect)
    for player in (REACH, SAFE):
        existential = game.owned_by(player)
        adj = {**full, **edge_subsets(game, rng, player)}
        target = set(rng.sample(pool, rng.randint(1, len(pool)))) | game.effect
        assert attractor(adj, existential, target) == naive_attractor(
            adj, existential, target
        )
        cause = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        pins = random_pins(game, rng, player)
        allowed = {v: (u,) for v, u in pins.items()}
        caught = naive_attractor({**full, **allowed}, game.owned_by(opponent(player)), cause)
        assert _avoid_set(game, player, cause, allowed) == set(game.vertices) - set(caught)


@FUZZ
@given(SEEDS, st.booleans())
@example(1099, True)
def test_solved_strategies_descend_the_attractor(seed, cyclic):
    game, rng = random_game(seed, cyclic)
    full = game.adjacency()
    rank = naive_attractor(full, game.reach_owned, game.effect)
    analysis = solve(game)
    assert analysis.reach_region == set(rank)
    assert analysis.safe_region == set(game.vertices) - set(rank)
    assert_attractor_choices(game, full, rank, REACH, analysis.reach_strategy.choice)
    assert_attractor_choices(game, full, rank, SAFE, analysis.safe_strategy.choice)
    for player in (REACH, SAFE):
        allowed = edge_subsets(game, rng, player)
        adj = {**full, **allowed}
        rank = naive_attractor(adj, game.reach_owned, game.effect)
        wins, choice = _solve_for(game, player, allowed)
        assert wins == ((game.initial in rank) == (player == REACH))
        assert_attractor_choices(game, adj, rank, player, choice)


@FUZZ
@given(SEEDS)
def test_maximal_avoiding_set_matches_reference(seed):
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(rng.randint(1, 12)))
    transitions = frozenset(
        (s, t) for s in states for t in rng.sample(states, rng.randint(0, min(3, len(states))))
    )
    ts = TransitionSystem(
        states=states,
        initial=states[0],
        transitions=transitions,
        labeling={s: "a" for s in states},
        alphabet=("a",),
    )
    avoid = set(rng.sample(states, rng.randint(0, len(states))))
    adjacency = {s: ts.successors(s) for s in states}
    doomed = naive_attractor(adjacency, frozenset(), avoid)
    for s in states:
        assert exists_maximal_path_avoiding(ts, s, avoid) == (s not in doomed)


@FUZZ
@given(SEEDS, st.booleans())
def test_pinned_attractor_resumes_to_a_fresh_one(seed, cyclic):
    game, rng = random_game(seed, cyclic)
    pool = sorted(set(game.vertices) - game.effect)
    for player in (REACH, SAFE):
        existential = game.owned_by(opponent(player))
        target = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        adj = game.adjacency()
        caught = Attractor(game.adjacency(), existential, target)
        unpinned = [v for v in game.vertices if v not in existential and adj[v]]
        rng.shuffle(unpinned)
        while unpinned:
            k = rng.randint(1, 4)
            layer, unpinned = unpinned[:k], unpinned[k:]
            pins = {v: rng.choice(game.successors(v)) for v in layer}
            caught.pin(pins)
            adj.update((v, (u,)) for v, u in pins.items())
            assert set(caught.rank) == set(naive_attractor(adj, existential, target))


@FUZZ
@given(SEEDS, st.booleans(), st.booleans())
def test_pref_h_matches_the_per_radius_loop(seed, cyclic, island):
    game, rng = random_game(seed, cyclic)
    if island:
        game = with_unreachable_copy(game, rng)
    pool = sorted(set(game.vertices) - game.effect)
    for player in (REACH, SAFE):
        if not game.owned_by(player):
            continue
        sigma = random_strategy(rng, game, player)
        plays = sorted(set(play_graph(game, sigma)) - game.effect)
        cause = frozenset(rng.sample(plays if rng.random() < 0.7 else pool, 1))
        if rng.random() < 0.3:
            cause |= {rng.choice(pool)}
        query = GameCauseQuery(game, player, sigma, cause, METRIC_PREF_H, rng.randint(0, 2))
        limit = rng.choice((None, rng.randint(0, 6)))
        assert budgeted(check_cause_game, query, limit=limit) == (
            budgeted(naive_check_pref_h, query, limit=limit)
        )


def test_pref_h_deep_chain_matches_the_per_radius_loop():
    for seed in range(6):
        game, sigma, cause = pref_h_chain(random.Random(seed), 60 + 4 * seed)
        query = GameCauseQuery(game, REACH, sigma, cause, METRIC_PREF_H)
        verdict, used = budgeted(check_cause_game, query)
        assert (verdict, used) == budgeted(naive_check_pref_h, query)
        assert verdict.condition1 and verdict.condition2
        assert verdict.min_distance <= dyadic(22) and used > 21
        assert budgeted(check_cause_game, query, limit=used - 1) == (
            "BudgetExceeded", used,
        )


def random_digraph(rng):
    """Forward edges only, plus a few self-loops and back edges, so about
    half the graphs are acyclic."""
    n = rng.randint(1, 12)
    adjacency = {v: sorted(rng.sample(range(v + 1, n), rng.randint(0, min(3, n - v - 1))))
                 for v in range(n)}
    for _ in range(rng.choice((0, 0, 1, 2))):
        v = rng.randrange(n)
        adjacency[v].append(rng.randint(0, v))
        if rng.random() < 0.5:
            adjacency[v] = [v]  # now a trap
    return {v: tuple(succ) for v, succ in adjacency.items()}


@FUZZ
@given(SEEDS, st.booleans(), st.booleans())
def test_acyclicity_matches_the_colored_search(seed, cyclic, island):
    game, rng = random_game(seed, cyclic)
    if island:
        game = with_unreachable_copy(game, rng)
    graphs = [random_digraph(rng), game.adjacency()]
    graphs += [
        strategy_adjacency(game, random_strategy(rng, game, player))
        for player in (REACH, SAFE)
    ]
    for adj in graphs:
        assert is_acyclic(adj) == naive_is_acyclic(adj)
        assert is_effectively_acyclic(adj) == naive_is_effectively_acyclic(adj)


@FUZZ
@given(SEEDS, st.booleans(), st.booleans())
def test_repair_costs_match_the_sweep(seed, cyclic, island):
    game, rng = random_game(seed, cyclic)
    if island:
        game = with_unreachable_copy(game, rng)
    sigma = random_strategy(rng, game, REACH)
    swept = naive_repair_costs(game, sigma)
    costs = _deviation_costs(game, sigma, strategy_adjacency(game, sigma))
    assert costs == {v: c for v, c in swept.items() if c != INF}


@FUZZ
@given(SEEDS, st.booleans(), st.booleans())
def test_repair_matches_the_swept_repair(seed, cyclic, island):
    rng = random.Random(seed)
    game = (cyclic_game if cyclic else acyclic_game)(rng, 7)
    if island:
        game = with_unreachable_copy(game, rng)
    sigma = random_strategy(rng, game, REACH)
    limit = rng.choice((None, rng.randint(0, 300)))
    assert budgeted(min_dstar_winning_strategy_acyclic, game, sigma, limit=limit) == (
        budgeted(naive_min_dstar_repair, game, sigma, limit=limit)
    )


def random_tree_game(rng, n):
    """A random tree of n inner vertices under v0, each with up to two more
    children that are effect vertices or traps."""
    owners, edges = {}, set()
    for i in range(n):
        owners[f"v{i}"] = rng.choice((REACH, SAFE))
        if i:
            edges.add((f"v{rng.randrange(i)}", f"v{i}"))
    parents = {a for a, _ in edges}
    for i in range(n):
        v = f"v{i}"
        for j in range(rng.randint(v not in parents, 2)):
            leaf = f"{v}.{j}"
            owners[leaf] = rng.choice((EFFECT, SAFE))
            edges.add((v, leaf))
            if owners[leaf] == SAFE:
                edges.add((leaf, leaf))
    return game_from_owners(owners, "v0", edges)


@FUZZ
@given(SEEDS, st.sampled_from(("tree", "acyclic", "cyclic")), st.booleans())
def test_tree_min_changes_matches_the_recursion(seed, shape, island):
    if shape == "tree":
        rng = random.Random(seed)
        game = random_tree_game(rng, rng.randint(1, 12))
    else:
        game, rng = random_game(seed, shape == "cyclic")
    if island:
        game = with_unreachable_copy(game, rng)
    pool = sorted(set(game.vertices) - game.effect)
    for player in (REACH, SAFE):
        sigma = random_strategy(rng, game, player)
        # sigma's choices in the cause make changes pay off on several branches
        cause = frozenset(rng.sample(pool, rng.randint(0, min(2, len(pool))))) | {
            u for _v, u in sorted(sigma.choice.items())
            if u not in game.effect and rng.random() < 0.6
        }
        try:
            expected = naive_tree_min_changes(game, sigma, cause)
        except RecursionError:
            expected = "NotAcyclic"
        try:
            got = tree_min_changes(game, sigma, cause)
        except NotAcyclic:
            got = "NotAcyclic"
        assert got == expected
