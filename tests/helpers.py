"""Independent oracles and seeded instance builders shared by the tests.

The oracles here deliberately avoid the library's algorithmic shortcuts:
Levenshtein by plain recursion, the Hausdorff strategy distance by explicit
play-prefix enumeration, the play-distance supremum by chains over
disagreement subsets, attractors by rescanning every vertex per round, and
the SEM bridge by a layered Hamming check on the fully unrolled tree.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from causekit.model import (
    MaximalFinitePath,
    TransitionSystem,
    maximal_paths,
    reachable_set,
    strategy_adjacency,
)
from causekit.errors import PreconditionViolated
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
