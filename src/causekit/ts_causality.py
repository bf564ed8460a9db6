"""Counterfactual cause checking for executions of transition systems.

A state set C is a cause for an effect property (reaching E, or staying clear
of E) on a given execution when every C-avoiding maximal path closest to the
execution under the chosen distance fails the property.  Each distance gets a
polynomial checker plus a shared brute-force oracle that applies the
definition literally on enumerable systems.  The prefix distances run a
layered fixpoint; hamm, ghamm and lev are shortest paths over a product of
the system with the execution, expanded on demand by one kernel, `dijkstra`.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotLayered, PreconditionViolated
from .model import (
    MaximalFinitePath,
    attractor,
    exists_maximal_path_avoiding,
    maximal_avoiding_set,
    maximal_paths,
    validate_maximal_path,
)
from . import distances
from .distances import INF, dyadic

PHI_REACH = "reach"  # eventually reach E
PHI_SAFE = "safe"  # never visit E

METRIC_PREF = "pref"
METRIC_PREF_AP = "pref-ap"
METRIC_HAMM = "hamm"
METRIC_GHAMM = "ghamm"
METRIC_LEV = "lev"

TS_METRICS = (METRIC_PREF, METRIC_PREF_AP, METRIC_HAMM, METRIC_GHAMM, METRIC_LEV)


@dataclass(frozen=True)
class CauseQuery:
    ts: object
    pi: MaximalFinitePath
    cause: frozenset
    effect: frozenset
    phi: str
    metric: str
    label_metric: object = None
    witnesses: int = 3


@dataclass(frozen=True)
class Witness:
    path: tuple
    distance: object
    satisfies_phi: bool


@dataclass(frozen=True)
class CauseVerdict:
    is_cause: bool
    min_distance: object
    witnesses: tuple = ()
    condition1: bool = True


def path_satisfies_phi(ts, sequence, effect, phi):
    visits = any(s in effect for s in sequence)
    return visits if phi == PHI_REACH else not visits


def validate_query(query, allow_overlap=False):
    ts = query.ts
    for s in sorted(query.cause | query.effect):
        if s not in ts._succ:
            raise PreconditionViolated(f"{s!r} is not a state")
    for e in sorted(query.effect):
        if not ts.is_terminal(e):
            raise PreconditionViolated(f"effect state {e!r} is not terminal")
    if not allow_overlap and query.cause & query.effect:
        raise PreconditionViolated(
            f"cause and effect overlap at {sorted(query.cause & query.effect)}"
        )
    if query.phi not in (PHI_REACH, PHI_SAFE):
        raise PreconditionViolated(f"unknown effect property {query.phi!r}")
    if query.metric not in TS_METRICS:
        raise PreconditionViolated(f"unknown metric {query.metric!r}")
    pi = validate_maximal_path(ts, query.pi.sequence)
    if not any(s in query.cause for s in pi.sequence):
        raise PreconditionViolated("the given execution does not visit the cause set")
    if not path_satisfies_phi(ts, pi.sequence, query.effect, query.phi):
        raise PreconditionViolated(
            "the given execution does not satisfy the effect property"
        )
    return pi


def check_cause(query, allow_overlap=False):
    """Dispatch to the metric-specific polynomial checker."""
    if query.metric in (METRIC_PREF, METRIC_PREF_AP):
        return check_cause_pref_ap(query, allow_overlap=allow_overlap)
    if query.metric == METRIC_HAMM:
        return check_cause_hamm_layered(query, allow_overlap=allow_overlap)
    if query.metric == METRIC_GHAMM:
        return check_cause_ghamm(query, allow_overlap=allow_overlap)
    if query.metric == METRIC_LEV:
        return check_cause_lev(query, allow_overlap=allow_overlap)
    raise PreconditionViolated(f"unknown metric {query.metric!r}")


# ---------------------------------------------------------------------------
# prefix distances


def check_cause_pref_ap(query, allow_overlap=False):
    """Layered fixpoint checker for the prefix distances.

    Builds, position by position, the set of states reachable through
    C-avoiding prefixes matching the execution (by label, or by state for the
    path-based variant), each restricted to states from which a C-avoiding
    maximal path still exists.  The last non-empty layer pins the minimal
    distance; the verdict asks whether every C-avoiding continuation from it
    fails the effect property.
    """
    pi = validate_query(query, allow_overlap)
    ts, cause, effect, phi = query.ts, query.cause, query.effect, query.phi
    by_states = query.metric == METRIC_PREF
    seq = pi.sequence
    n_last = len(seq) - 1

    def symbol(state):
        return state if by_states else ts.label(state)

    target_symbols = [symbol(s) for s in seq]
    can_avoid = maximal_avoiding_set(ts._succ, cause)

    layers = []
    parents = []
    first = {ts.initial} if ts.initial in can_avoid else set()
    layers.append(first)
    parents.append({ts.initial: None} if first else {})
    for j in range(1, len(seq)):
        layer = {}
        for s in sorted(layers[j - 1]):
            for t in ts.successors(s):
                if t in can_avoid and symbol(t) == target_symbols[j]:
                    if t not in layer:
                        layer[t] = s
        layers.append(set(layer))
        parents.append(layer)

    if not layers[0]:
        return CauseVerdict(False, INF, (), condition1=False)

    i_max = max(j for j, layer in enumerate(layers) if layer)

    exact_terminals = (
        sorted(t for t in layers[n_last] if ts.is_terminal(t))
        if i_max == n_last
        else []
    )
    if exact_terminals:
        min_d = Fraction(0)
        if phi == PHI_REACH:
            bad = [t for t in exact_terminals if t in effect]
        else:
            bad = [t for t in exact_terminals if t not in effect]
        is_cause = not bad
        witness_paths = []
        for t in exact_terminals[: query.witnesses]:
            witness_paths.append(_reconstruct_prefix(parents, n_last, t))
        wits = _finish_witnesses(query, witness_paths, min_d)
        return CauseVerdict(is_cause, min_d, wits)

    min_d = dyadic(i_max + 1)
    frontier = sorted(layers[i_max])
    # States with a C-avoiding continuation that satisfies the property.
    if phi == PHI_REACH:
        blocked = {s: () if s in cause else t for s, t in ts._succ.items()}
        offending = attractor(blocked, blocked, effect - cause)
    else:
        offending = maximal_avoiding_set(ts._succ, cause | effect)
    is_cause = not any(t in offending for t in frontier)

    witness_paths = []
    for t in frontier[: query.witnesses]:
        prefix = _reconstruct_prefix(parents, i_max, t)
        cont = _finite_avoiding_continuation(
            ts, t, cause, effect, phi, prefer_phi=(t in offending)
        )
        if cont is not None:
            witness_paths.append(prefix[:-1] + cont)
    wits = _finish_witnesses(query, witness_paths, min_d)
    return CauseVerdict(is_cause, min_d, wits)


def _reconstruct_prefix(parents, j, t):
    out = [t]
    while j > 0:
        t = parents[j][t]
        out.append(t)
        j -= 1
    return tuple(reversed(out))


def _finite_avoiding_continuation(ts, start, cause, effect, phi, prefer_phi):
    """A finite maximal C-avoiding path from `start`, preferring one that
    satisfies the effect property when asked.  None if only infinite
    continuations exist."""
    if prefer_phi and phi == PHI_REACH:
        path = _bfs_path(ts, start, effect, cause)
        if path is not None:
            return path
    if prefer_phi and phi == PHI_SAFE:
        goals = {s for s in ts.states if ts.is_terminal(s) and s not in effect}
        path = _bfs_path(ts, start, goals, cause | effect)
        if path is not None:
            return path
    goals = {s for s in ts.states if ts.is_terminal(s)}
    return _bfs_path(ts, start, goals, cause)


def _bfs_path(ts, start, targets, avoid):
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


def _finish_witnesses(query, paths, distance):
    ts, effect, phi = query.ts, query.effect, query.phi
    out = []
    seen = set()
    for p in paths:
        if p and p not in seen:
            seen.add(p)
            out.append(Witness(p, distance, path_satisfies_phi(ts, p, effect, phi)))
    out.sort(key=lambda w: (not w.satisfies_phi, w.path))
    return tuple(out[: query.witnesses])


# ---------------------------------------------------------------------------
# layered Hamming


def validate_layered(ts):
    """Depth of every reachable state; NotLayered if depths are ambiguous or
    maximal paths have different lengths."""
    depth = {ts.initial: 0}
    frontier = [ts.initial]
    while frontier:
        nxt = []
        for s in frontier:
            for t in ts.successors(s):
                if t in depth:
                    if depth[t] != depth[s] + 1:
                        raise NotLayered(
                            f"state {t!r} is reachable at depths {depth[t]} "
                            f"and {depth[s] + 1}"
                        )
                else:
                    depth[t] = depth[s] + 1
                    nxt.append(t)
        frontier = sorted(nxt)
    last = max(depth.values())
    for s, d in sorted(depth.items()):
        if ts.is_terminal(s) and d != last:
            raise NotLayered(
                f"terminal state {s!r} sits at depth {d}, not the last layer {last}"
            )
    return depth


def check_cause_hamm_layered(query, allow_overlap=False):
    """Shortest-path checker for the plain Hamming distance on layered
    systems: per-layer 0/1 state weights turn Hamming distance into
    accumulated path weight.

    The weights are integers under the default 0/1 label metric and
    Fractions of `label_metric` otherwise, as in `metric_distance`.
    """
    pi = validate_query(query, allow_overlap)
    ts, cause, effect = query.ts, query.cause, query.effect
    depth = validate_layered(ts)
    labeling = ts.labeling
    target = [labeling[s] for s in pi.sequence]
    metric = query.label_metric

    if metric is None:
        def node_weight(state):
            return 0 if labeling[state] == target[depth[state]] else 1
    else:
        def node_weight(state):
            return Fraction(metric(labeling[state], target[depth[state]]))

    def successors(state):
        for t in ts.successors(state):
            if t not in cause:
                yield t, node_weight(t), "step"

    start = None if ts.initial in cause else ts.initial
    search = (start, node_weight(ts.initial), successors,
              lambda state: _terminal_class(ts, effect, state))
    return _shortest_path_verdict(query, search, _project_state_route)


# ---------------------------------------------------------------------------
# generalized Hamming


def ghamm_product(ts, pi_sequence, cause, effect):
    """Copy construction for the generalized Hamming distance, as the
    (start, start_weight, successors, goal_class) arguments of `dijkstra`.

    Node (s, i) reads state s against execution position i, for each C-free
    state s; mismatching labels cost 1 per position, early termination jumps
    to the last copy at the cost of the length difference, and overshoot
    steps inside the last copy cost 1 each.  Goals are the terminal states of
    the last copy.
    """
    labeling = ts.labeling
    target = [labeling[s] for s in pi_sequence]
    n = len(target)

    def mismatch(state, copy):
        return 0 if labeling[state] == target[copy - 1] else 1

    def successors(node):
        s, i = node
        for t in ts.successors(s):
            if t not in cause:
                if i < n:
                    yield (t, i + 1), mismatch(t, i + 1), "step"
                else:
                    yield (t, n), 1, "step"
        if i < n and ts.is_terminal(s):
            yield (s, n), n - i, "jump"

    start = None if ts.initial in cause else (ts.initial, 1)
    return start, mismatch(ts.initial, 1), successors, _last_copy_class(ts, effect, n)


def check_cause_ghamm(query, allow_overlap=False):
    validate_query(query, allow_overlap)
    search = ghamm_product(query.ts, query.pi.sequence, query.cause, query.effect)
    return _shortest_path_verdict(query, search, _project_copy_route)


def _project_copy_route(route):
    """Collapse a copy-graph route to the underlying state path."""
    start, edges = route
    states = [start[0]]
    for target, _weight, tag in edges:
        if tag == "step":
            states.append(target[0])
    return tuple(states)


def _project_state_route(route):
    start, edges = route
    return (start,) + tuple(target for target, _weight, _tag in edges)


# ---------------------------------------------------------------------------
# Levenshtein


def lev_product(ts, pi_sequence, cause, effect):
    """Product of the system with the execution's positions, edit-labeled, as
    the (start, start_weight, successors, goal_class) arguments of `dijkstra`.

    Advancing both sides costs 0 on a label match and 1 otherwise; staying in
    a copy inserts into the comparison path's trace; skipping a position
    deletes from the execution's trace.  C-states are left out; goals are the
    terminal states of the last copy.
    """
    labeling = ts.labeling
    target = [labeling[s] for s in pi_sequence]
    n = len(target)

    def successors(node):
        s, i = node
        for t in ts.successors(s):
            if t in cause:
                continue
            if i < n:
                w = 0 if target[i] == labeling[t] else 1
                yield (t, i + 1), w, "step"
            yield (t, i), 1, "step"
        if i < n:
            yield (s, i + 1), 1, "skip"

    start = None if ts.initial in cause else (ts.initial, 1)
    return start, 0, successors, _last_copy_class(ts, effect, n)


def check_cause_lev(query, allow_overlap=False):
    validate_query(query, allow_overlap)
    search = lev_product(query.ts, query.pi.sequence, query.cause, query.effect)
    return _shortest_path_verdict(query, search, _project_copy_route)


# ---------------------------------------------------------------------------
# shared shortest-path verdict logic


def _terminal_class(ts, effect, state):
    if not ts.is_terminal(state):
        return None
    return "effect" if state in effect else "other"


def _last_copy_class(ts, effect, n):
    return lambda node: _terminal_class(ts, effect, node[0]) if node[1] == n else None


def dijkstra(start, start_weight, successors, goal_class):
    """Deterministic Dijkstra from `start` that expands nodes as it pops them.

    `successors(node)` yields (target, weight, tag) edges with non-negative
    weights; `goal_class(node)` returns "effect", "other" or None.  Heap
    entries are (distance, node, (prev, edge)), so ties resolve by node, then
    by predecessor and edge.  The search stops once the popped distance
    exceeds the first goal's, so every goal at the minimal distance is
    settled; zero-weight edges may settle them out of node order.

    Returns (best, parent): best maps each goal class met at the minimal
    distance to its least (distance, node); parent maps every settled node to
    the (node, edge) pair that settled it, None for the start.
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


def _route_to(parent, node):
    """Route as (start_node, [edge, ...]) following the dijkstra parents."""
    edges = []
    cur = node
    while parent[cur] is not None:
        prev, edge = parent[cur]
        edges.append(edge)
        cur = prev
    edges.reverse()
    return cur, edges


def _shortest_path_verdict(query, search, project):
    ts, phi = query.ts, query.phi
    best, parent = dijkstra(*search)
    zeta, zeta_node = best.get("effect", (INF, None))
    xi_other, xi_node = best.get("other", (INF, None))
    min_d = min(zeta, xi_other)

    if min_d == INF:
        condition1 = exists_maximal_path_avoiding(ts, ts.initial, query.cause)
        if not condition1:
            return CauseVerdict(False, INF, (), condition1=False)
        # Only infinite comparison paths remain; they never reach the
        # (terminal) effect states, so they satisfy the safety property.
        return CauseVerdict(phi == PHI_REACH, INF, ())

    # A class missing from `best` lies farther than min_d, which is all that
    # the comparisons below need to know.
    if phi == PHI_REACH:
        is_cause = xi_other < zeta
    else:
        is_cause = zeta < xi_other

    witness_paths = []
    for value, node in ((xi_other, xi_node), (zeta, zeta_node)):
        if node is not None and value == min_d:
            witness_paths.append(project(_route_to(parent, node)))
    wits = _finish_witnesses(query, witness_paths, min_d)
    return CauseVerdict(is_cause, min_d, wits)


# ---------------------------------------------------------------------------
# definitional oracle


def metric_distance(query, rho_sequence):
    """Distance between the query's execution and a comparison path."""
    ts, pi = query.ts, query.pi.sequence
    rho = tuple(rho_sequence)
    if query.metric == METRIC_PREF:
        return distances.d_pref(pi, rho)
    if query.metric == METRIC_PREF_AP:
        return distances.d_pref_ap(ts.trace(pi), ts.trace(rho))
    if query.metric == METRIC_HAMM:
        if query.label_metric is not None:
            return distances.d_hamm_weighted(
                ts.trace(pi), ts.trace(rho), query.label_metric
            )
        return distances.d_hamm(ts.trace(pi), ts.trace(rho))
    if query.metric == METRIC_GHAMM:
        return distances.d_ghamm(ts.trace(pi), ts.trace(rho))
    if query.metric == METRIC_LEV:
        return distances.d_lev(ts.trace(pi), ts.trace(rho))[0]
    raise PreconditionViolated(f"unknown metric {query.metric!r}")


def brute_force_check(query, max_len=None, budget=None, allow_overlap=False):
    """Apply the cause definition literally by enumerating maximal paths.

    Exact on acyclic systems.  On cyclic systems a `max_len` cap must be
    supplied and the oracle only sees finite maximal paths up to that length,
    so its verdict is sound only relative to that enumeration window.
    """
    validate_query(query, allow_overlap)
    ts = query.ts
    paths = maximal_paths(ts, max_len=max_len, budget=budget)
    avoiders = [p for p in paths if not any(s in query.cause for s in p)]
    if not avoiders:
        return CauseVerdict(False, INF, (), condition1=False)
    scored = [(metric_distance(query, p), p) for p in avoiders]
    min_d = min(d for d, _ in scored)
    minimal = [p for d, p in scored if d == min_d]
    statuses = {
        p: path_satisfies_phi(ts, p, query.effect, query.phi) for p in minimal
    }
    is_cause = not any(statuses.values())
    ordered = sorted(minimal, key=lambda p: (statuses[p] == is_cause, p))
    wits = tuple(
        Witness(p, min_d, statuses[p]) for p in ordered[: query.witnesses]
    )
    return CauseVerdict(is_cause, min_d, wits)
