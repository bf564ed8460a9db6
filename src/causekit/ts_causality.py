"""Counterfactual cause checking for executions of transition systems.

A state set C is a cause for an effect property (reaching E, or staying clear
of E) on a given execution when every C-avoiding maximal path closest to the
execution under the chosen distance fails the property.  Each distance gets a
polynomial checker plus a shared brute-force oracle that applies the
definition literally on enumerable systems.  The prefix distances run a
layered fixpoint; hamm, ghamm and lev are shortest paths over a product of
the system with the execution, expanded on demand by one kernel, `dijkstra`,
whose queue is bucketed by distance and pops in a single heap's order.  Each
product gives its zero-weight and its positive-weight edges apart, and the
kernel expands a node's positive-weight edges only once its distance is done
without a goal.  hamm runs on ghamm's copy product, which on layered systems
never jumps or overshoots.

The checkers run on the system's state numbers (see `model`):
`validate_query` checks the query's ids and returns its execution, cause and
effect as numbers, the products' nodes are (state number, position) pairs,
and `_named` turns the witness paths back into ids.  Ids appear only there
and in error messages; the brute-force oracle compares id paths.
"""

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import NotLayered, PreconditionViolated
from .model import (
    MaximalFinitePath,
    attractor,
    maximal_avoiding_set,
    maximal_paths,
    shortest_route,
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


def path_satisfies_phi(sequence, effect, phi):
    visits = any(s in effect for s in sequence)
    return visits if phi == PHI_REACH else not visits


def validate_query(query, allow_overlap=False):
    """Check the query; return its execution, cause and effect as state
    numbers: a tuple and two frozensets."""
    ts = query.ts
    index, succ = ts.index, ts._succ
    for s in sorted(query.cause | query.effect):
        if s not in index:
            raise PreconditionViolated(f"{s!r} is not a state")
    effect = frozenset(map(index.__getitem__, query.effect))
    for e in sorted(effect):
        if succ[e]:
            raise PreconditionViolated(f"effect state {ts.ids[e]!r} is not terminal")
    if not allow_overlap and query.cause & query.effect:
        raise PreconditionViolated(
            f"cause and effect overlap at {sorted(query.cause & query.effect)}"
        )
    if query.phi not in (PHI_REACH, PHI_SAFE):
        raise PreconditionViolated(f"unknown effect property {query.phi!r}")
    if query.metric not in TS_METRICS:
        raise PreconditionViolated(f"unknown metric {query.metric!r}")
    pi = validate_maximal_path(ts, query.pi.sequence)
    seq = tuple(map(index.__getitem__, pi.sequence))
    cause = frozenset(map(index.__getitem__, query.cause))
    if not any(s in cause for s in seq):
        raise PreconditionViolated("the given execution does not visit the cause set")
    if not path_satisfies_phi(seq, effect, query.phi):
        raise PreconditionViolated(
            "the given execution does not satisfy the effect property"
        )
    return seq, cause, effect


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


def _named(ts, verdict):
    """The verdict with its witness paths of state numbers as state ids."""
    name = ts.ids.__getitem__
    witnesses = tuple(replace(w, path=tuple(map(name, w.path))) for w in verdict.witnesses)
    return replace(verdict, witnesses=witnesses)


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
    seq, cause, effect = validate_query(query, allow_overlap)
    ts, phi = query.ts, query.phi
    succ = ts._succ
    symbol = (lambda state: state) if query.metric == METRIC_PREF else ts._labels.__getitem__
    n_last = len(seq) - 1

    target_symbols = [symbol(s) for s in seq]
    can_avoid = maximal_avoiding_set(succ, cause, ts._pred)

    if not can_avoid[ts._init]:
        return CauseVerdict(False, INF, (), condition1=False)

    # parents[j] maps each state of layer j to its parent in layer j - 1; a
    # layer is empty once the one before it is, so the walk stops there.
    parents = [{ts._init: None}]
    for j in range(1, len(seq)):
        layer = {}
        for s in sorted(parents[-1]):
            for t in succ[s]:
                if can_avoid[t] and symbol(t) == target_symbols[j]:
                    if t not in layer:
                        layer[t] = s
        if not layer:
            break
        parents.append(layer)
    i_max = len(parents) - 1

    # Matched terminals are paths at distance 0; each is its own continuation.
    exact = sorted(t for t in parents[i_max] if not succ[t]) if i_max == n_last else []
    # offending[t]: t has a C-avoiding continuation that satisfies the property.
    if exact:
        min_d, frontier = Fraction(0), exact
        offending = {t: path_satisfies_phi((t,), effect, phi) for t in exact}
    else:
        min_d, frontier = dyadic(i_max + 1), sorted(parents[i_max])
        if phi == PHI_REACH:
            blocked = dict.fromkeys(cause, ())  # no edge leaves a cause state
            rank = attractor(succ, b"\x01" * len(succ), effect - cause, ts._pred, blocked)
            offending = [r is not None for r in rank]
        else:
            offending = maximal_avoiding_set(succ, cause | effect, ts._pred)
    is_cause = not any(offending[t] for t in frontier)

    witness_paths = []
    for t in frontier[: query.witnesses]:
        prefix = _reconstruct_prefix(parents, i_max, t)
        cont = _finite_avoiding_continuation(
            ts, t, cause, effect, phi, prefer_phi=offending[t]
        )
        if cont is not None:
            witness_paths.append(prefix[:-1] + cont)
    wits = _finish_witnesses(query, witness_paths, min_d, effect)
    return _named(ts, CauseVerdict(is_cause, min_d, wits))


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
    succ = ts._succ

    def terminal(state):
        return not succ[state]

    if prefer_phi:
        # For safety the walk never enters E, so every terminal it meets lies outside E.
        if phi == PHI_REACH:
            goal, avoid = effect.__contains__, cause
        else:
            goal, avoid = terminal, cause | effect
        path = shortest_route(succ, start, goal, avoid)
        if path is not None:
            return path
    return shortest_route(succ, start, terminal, cause)


def _finish_witnesses(query, paths, distance, effect):
    phi = query.phi
    out = []
    seen = set()
    for p in paths:
        if p and p not in seen:
            seen.add(p)
            out.append(Witness(p, distance, path_satisfies_phi(p, effect, phi)))
    out.sort(key=lambda w: (not w.satisfies_phi, w.path))
    return tuple(out[: query.witnesses])


# ---------------------------------------------------------------------------
# layered Hamming


def validate_layered(ts):
    """Depth of every state by number, None where unreachable; NotLayered if
    depths are ambiguous or maximal paths have different lengths."""
    succ = ts._succ
    depth = [None] * len(succ)
    depth[ts._init] = 0
    frontier = [ts._init]
    while frontier:
        nxt = []
        for s in frontier:
            d = depth[s] + 1
            for t in succ[s]:
                if depth[t] is not None:
                    if depth[t] != d:
                        raise NotLayered(
                            f"state {ts.ids[t]!r} is reachable at depths {depth[t]} and {d}"
                        )
                else:
                    depth[t] = d
                    nxt.append(t)
        frontier = sorted(nxt)
    last = max(d for d in depth if d is not None)
    for s, d in enumerate(depth):
        if d is not None and not succ[s] and d != last:
            raise NotLayered(
                f"terminal state {ts.ids[s]!r} sits at depth {d}, not the last layer {last}"
            )
    return depth


def check_cause_hamm_layered(query, allow_overlap=False):
    """Shortest-path checker for the plain Hamming distance on layered
    systems, on `ghamm_product`: every terminal state sits in the last layer,
    so node (s, i) has i = depth(s) + 1 and never jumps or overshoots.

    The weights are integers under the default 0/1 label metric and
    Fractions of `label_metric` otherwise, as in `metric_distance`.
    """
    seq, cause, effect = validate_query(query, allow_overlap)
    validate_layered(query.ts)
    search = ghamm_product(query.ts, seq, cause, effect, query.label_metric)
    verdict = _shortest_path_verdict(query, search, _project_copy_route, cause, effect)
    return _named(query.ts, verdict)


# ---------------------------------------------------------------------------
# generalized Hamming


def ghamm_product(ts, pi_sequence, cause, effect, label_metric=None):
    """Copy construction for the generalized Hamming distance, as the
    (start, start_weight, (zero_edges, positive_edges), goal_class)
    arguments of `dijkstra`; states, the execution and the sets are state
    numbers.

    Node (s, i) reads state s against execution position i, for each C-free
    state s; mismatching labels cost 1 per position (the Fraction of
    `label_metric`, if given), early termination jumps to the last copy at
    the cost of the length difference, and overshoot steps inside the last
    copy cost 1 each.  Goals are the terminal states of the last copy.
    `zero_edges` yields the steps that cost 0, a `label_metric` mismatch of
    0 among them; `positive_edges` yields the other steps, the jump (i < n,
    so it weighs at least 1) and the overshoot steps.
    """
    labels, succ = ts._labels, ts._succ
    target = [labels[s] for s in pi_sequence]
    n = len(target)

    def mismatch(state, position):
        if label_metric is None:
            return 0 if labels[state] == target[position] else 1
        return Fraction(label_metric(labels[state], target[position]))

    def zero_edges(node):
        s, i = node
        if i == n:
            return
        for t in succ[s]:
            if t not in cause:
                if label_metric is None:
                    if labels[t] == target[i]:
                        yield (t, i + 1), 0, "step"
                else:
                    w = mismatch(t, i)
                    if not w:
                        yield (t, i + 1), w, "step"

    def positive_edges(node):
        s, i = node
        for t in succ[s]:
            if t not in cause:
                if i == n:
                    yield (t, n), 1, "step"
                else:
                    w = mismatch(t, i)
                    if w:
                        yield (t, i + 1), w, "step"
        if i < n and not succ[s]:
            yield (s, n), n - i, "jump"

    start = None if ts._init in cause else (ts._init, 1)
    return (start, mismatch(ts._init, 0), (zero_edges, positive_edges),
            _last_copy_class(succ, effect, n))


def check_cause_ghamm(query, allow_overlap=False):
    seq, cause, effect = validate_query(query, allow_overlap)
    search = ghamm_product(query.ts, seq, cause, effect)
    verdict = _shortest_path_verdict(query, search, _project_copy_route, cause, effect)
    return _named(query.ts, verdict)


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
    the (start, start_weight, (zero_edges, positive_edges), goal_class)
    arguments of `dijkstra`; states, the execution and the sets are state
    numbers.

    Advancing both sides costs 0 on a label match and 1 otherwise; staying in
    a copy inserts into the comparison path's trace; skipping a position
    deletes from the execution's trace.  C-states are left out; goals are the
    terminal states of the last copy.  `zero_edges` yields the matching
    advances, `positive_edges` every other edge, each of weight 1.
    """
    labels, succ = ts._labels, ts._succ
    target = [labels[s] for s in pi_sequence]
    n = len(target)

    def zero_edges(node):
        s, i = node
        if i < n:
            for t in succ[s]:
                if t not in cause and target[i] == labels[t]:
                    yield (t, i + 1), 0, "step"

    def positive_edges(node):
        s, i = node
        for t in succ[s]:
            if t in cause:
                continue
            if i < n and target[i] != labels[t]:
                yield (t, i + 1), 1, "step"
            yield (t, i), 1, "step"
        if i < n:
            yield (s, i + 1), 1, "skip"

    start = None if ts._init in cause else (ts._init, 1)
    return start, 0, (zero_edges, positive_edges), _last_copy_class(succ, effect, n)


def check_cause_lev(query, allow_overlap=False):
    seq, cause, effect = validate_query(query, allow_overlap)
    search = lev_product(query.ts, seq, cause, effect)
    verdict = _shortest_path_verdict(query, search, _project_copy_route, cause, effect)
    return _named(query.ts, verdict)


# ---------------------------------------------------------------------------
# shared shortest-path verdict logic


def _last_copy_class(succ, effect, n):
    """A node's goal class: "effect" or "other" at a terminal state of the
    last copy, None elsewhere."""
    def goal_class(node):
        s, i = node
        if i != n or succ[s]:
            return None
        return "effect" if s in effect else "other"
    return goal_class


def dijkstra(start, start_weight, successors, goal_class):
    """Deterministic Dijkstra from `start` that expands nodes as it settles
    them.

    `successors` is a pair (zero_edges, positive_edges) of functions of a
    node: the first yields its (target, weight, tag) edges of weight 0, the
    second those of positive weight.  `goal_class(node)` returns "effect",
    "other" or None.  Nodes settle in the order of one heap of (distance,
    node, prev, edge) entries over both kinds of edges, so ties resolve by
    node, then by predecessor and edge.  The search stops once every node at
    the first goal's distance is settled; zero-weight edges may settle goals
    there out of node order.

    The queue is bucketed by distance, as in Dial's algorithm (CACM 12(11),
    1969), but keeps that heap's order.  `pending` is a heap of the
    distances that have a bucket, and a bucket is a plain list of (node,
    prev, edge) entries.  When the least distance comes up, its bucket is
    heapified once, and the zero-weight edges of the nodes it settles are
    pushed into it.  Weights are not negative, so every entry pushed from
    then on lands in this bucket or a later one: the least entry of this
    bucket is the least entry of the whole queue, which is what the one heap
    would pop.  Equal int and Fraction distances hash alike, so they share a
    bucket.

    Positive-weight edges are expanded lazily, as in partial expansion
    (Yoshizumi, Miura and Ishida, AAAI 2000): only once the bucket is empty
    and no goal has been met, for the nodes settled at its distance, each
    edge a dict lookup and an append to a later bucket.  An edge whose
    target settled in the meantime is skipped; the heap would have popped
    its entry as stale.  Later buckets are heapified when their distance
    comes up, so the order of the appends does not matter.  When a goal is
    met, the nodes of the last bucket, most of the settled ones, are never
    asked for their positive-weight edges.

    Returns (best, parent): best maps each goal class met at the minimal
    distance to its least (distance, node); parent maps every settled node to
    the (node, edge) pair that settled it, None for the start.
    """
    zero_edges, positive_edges = successors
    best = {}
    parent = {}
    if start is None:
        return best, parent
    pending = [start_weight]
    buckets = {start_weight: [(start, None, None)]}
    while pending:
        d = heapq.heappop(pending)
        bucket = buckets.pop(d)
        heapq.heapify(bucket)
        settled = []
        while bucket:
            node, prev, via = heapq.heappop(bucket)
            if node in parent:
                continue
            parent[node] = (prev, via)
            settled.append(node)
            cls = goal_class(node)
            if cls is not None:
                best[cls] = min(best.get(cls, (d, node)), (d, node))
            for edge in zero_edges(node):
                if edge[0] not in parent:
                    heapq.heappush(bucket, (edge[0], node, edge))
        if best:
            break
        for node in settled:
            for edge in positive_edges(node):
                target, weight, _tag = edge
                if target in parent:
                    continue
                dt = d + weight
                later = buckets.get(dt)
                if later is None:
                    buckets[dt] = [(target, node, edge)]
                    heapq.heappush(pending, dt)
                else:
                    later.append((target, node, edge))
    parent[start] = None  # its entry had no predecessor
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


def _shortest_path_verdict(query, search, project, cause, effect):
    """The verdict of a `dijkstra` search; `project` turns a route into a
    witness path, whose nodes `cause` and `effect` are read in."""
    ts, phi = query.ts, query.phi
    best, parent = dijkstra(*search)
    zeta, zeta_node = best.get("effect", (INF, None))
    xi_other, xi_node = best.get("other", (INF, None))
    min_d = min(zeta, xi_other)

    if min_d == INF:
        condition1 = maximal_avoiding_set(ts._succ, cause, ts._pred)[ts._init]
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
    wits = _finish_witnesses(query, witness_paths, min_d, effect)
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
    so its verdict is sound only relative to that enumeration window.  The
    Hamming distance is checked on layered systems only, as in
    `check_cause_hamm_layered`.
    """
    validate_query(query, allow_overlap)
    ts = query.ts
    if query.metric == METRIC_HAMM:
        validate_layered(ts)
    paths = maximal_paths(ts, max_len=max_len, budget=budget)
    avoiders = [p for p in paths if not any(s in query.cause for s in p)]
    if not avoiders:
        return CauseVerdict(False, INF, (), condition1=False)
    scored = [(metric_distance(query, p), p) for p in avoiders]
    min_d = min(d for d, _ in scored)
    minimal = [p for d, p in scored if d == min_d]
    statuses = {
        p: path_satisfies_phi(p, query.effect, query.phi) for p in minimal
    }
    is_cause = not any(statuses.values())
    ordered = sorted(minimal, key=lambda p: (statuses[p] == is_cause, p))
    wits = tuple(
        Witness(p, min_d, statuses[p]) for p in ordered[: query.witnesses]
    )
    return CauseVerdict(is_cause, min_d, wits)
