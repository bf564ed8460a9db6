"""Labeled transition systems, reachability games, paths and strategies.

Models are validated when they are constructed: `__post_init__` checks every
structural invariant in the pass that builds the graph and raises
InvalidModel on the first violation, so no invalid model exists.  A model
holds successor lists (`_succ`) and predecessor lists (`_pred`), sorted and
without duplicates, filled in one loop over the given pairs.  Unless given
as a frozenset, the pairs are not kept: `transitions` and `edges` (and a
game's sorted `vertices`) are derived from `_succ` on first read.  Models
are immutable; every query in this module is a pure function of its inputs
and safe to share across threads.

`attractor` is the single fixpoint kernel over game and system vertices:
winning regions, safety regions, "exists a maximal avoiding path" and
acyclicity are all attractors or their complements.  On a model's own graph
it reads the model's predecessor lists, with `allowed` edge tuples as
overrides.  `Attractor` is the same kernel as an object that resumes after
universal vertices are pinned to one successor.

Two breadth-first walks answer the questions the checkers ask of paths.
`shortest_route` is the least shortest route to a goal: each layer is
sorted and a vertex keeps the first parent that reaches it.  `play_layers`
yields the owned vertices of a strategy's play graph by depth, each layer
in discovery order; its callers read the layers as sets.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from .errors import InvalidModel, NotAPath, NotMaximal, PreconditionViolated, as_budget

REACH = "reach"
SAFE = "safe"
EFFECT = "effect"

PLAYERS = (REACH, SAFE)
OWNERS = (REACH, SAFE, EFFECT)


def opponent(player):
    return SAFE if player == REACH else REACH


class _Derived:
    """Attributes named in the class's `_DERIVED` are computed from `_succ`
    on first read and cached on the model."""

    _DERIVED = {}

    def __getattr__(self, name):
        derive = type(self)._DERIVED.get(name)
        if derive is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = derive(self._succ)
        object.__setattr__(self, name, value)
        return value


def _pair_set(succ):
    """The (source, target) pairs of the successor lists, as a frozenset."""
    return frozenset((v, u) for v, ends in succ.items() for u in ends)


@dataclass(frozen=True)
class TransitionSystem(_Derived):
    """Finite labeled transition system with a single initial state.

    A state with no outgoing transition is terminal.  Maximal paths are the
    paths that are infinite or end in a terminal state.  `transitions` may be
    any collection of (source, target) pairs; duplicates are dropped.
    Construction checks the initial state, every transition endpoint and
    every label, each with one set test or one loop; a failing check names
    the least offending transition, or the first state of `states` without a
    label from the alphabet.
    """

    states: tuple
    initial: str
    transitions: frozenset
    labeling: dict
    alphabet: tuple
    _succ: dict = field(init=False, repr=False, compare=False)
    _pred: dict = field(init=False, repr=False, compare=False)
    _DERIVED = {"transitions": _pair_set}

    def __post_init__(self):
        succ = {s: [] for s in self.states}
        if not succ:
            raise InvalidModel("transition system has no states")
        if self.initial not in succ:
            raise InvalidModel(f"initial state {self.initial!r} is not a state")
        _link(self, "transitions", succ, "transition ({!r}, {!r}) leaves the state set")
        labeling, alphabet = self.labeling, set(self.alphabet)
        try:
            labeled = alphabet.issuperset(map(labeling.__getitem__, self.states))
        except (KeyError, TypeError):  # a missing or an unhashable label
            labeled = False
        if not labeled:
            for s in self.states:
                if s not in labeling:
                    raise InvalidModel(f"state {s!r} has no label")
                if labeling[s] not in alphabet:
                    raise InvalidModel(
                        f"state {s!r} carries label {labeling[s]!r} outside the alphabet"
                    )

    def successors(self, state):
        return self._succ[state]

    def is_terminal(self, state):
        return not self._succ[state]

    def label(self, state):
        return self.labeling[state]

    def trace(self, sequence):
        return tuple(self.labeling[s] for s in sequence)


@dataclass(frozen=True)
class ReachabilityGame(_Derived):
    """Two-player reachability game.

    Vertices are partitioned into Reach-owned, Safe-owned and effect (target)
    vertices.  Effect vertices are terminal; every other vertex has at least
    one outgoing edge, so plays are infinite or end in an effect vertex.
    `edges` may be any collection of (source, target) pairs; duplicates are
    dropped.  Construction checks the partition, the initial vertex, every
    edge endpoint, and then the effect and the non-effect vertices, each with
    one set test or one loop; a failing check names the least offending edge
    or vertex.  `vertices`, the sorted vertex tuple, is derived on first read.
    """

    reach_owned: frozenset
    safe_owned: frozenset
    effect: frozenset
    initial: str
    edges: frozenset
    _succ: dict = field(init=False, repr=False, compare=False)
    _pred: dict = field(init=False, repr=False, compare=False)
    _DERIVED = {"edges": _pair_set, "vertices": lambda succ: tuple(sorted(succ))}

    def __post_init__(self):
        reach, safe, eff = self.reach_owned, self.safe_owned, self.effect
        overlap = (reach & safe) | (reach & eff) | (safe & eff)
        if overlap:
            raise InvalidModel(f"vertex partition overlaps at {sorted(overlap)}")
        succ = {v: [] for v in chain(reach, safe, eff)}
        if not succ:
            raise InvalidModel("game has no vertices")
        if self.initial not in succ:
            raise InvalidModel(f"initial vertex {self.initial!r} is not a vertex")
        if self.initial in eff:
            raise InvalidModel("initial vertex lies in the effect set")
        _link(self, "edges", succ, "edge ({!r}, {!r}) leaves the vertex set")
        if any(map(succ.__getitem__, eff)):
            v = min(v for v in eff if succ[v])
            raise InvalidModel(f"effect vertex {v!r} has an outgoing edge")
        if not all(map(succ.__getitem__, chain(reach, safe))):
            v = min(v for v in chain(reach, safe) if not succ[v])
            raise InvalidModel(f"non-effect vertex {v!r} is a dead end")

    def owner(self, vertex):
        if vertex in self.reach_owned:
            return REACH
        if vertex in self.safe_owned:
            return SAFE
        if vertex in self.effect:
            return EFFECT
        raise KeyError(vertex)

    def owned_by(self, player):
        return self.reach_owned if player == REACH else self.safe_owned

    def successors(self, vertex):
        return self._succ[vertex]

    def is_terminal(self, vertex):
        return not self._succ[vertex]

    def adjacency(self):
        return dict(self._succ)


def _link(model, name, succ, message):
    """Fill `succ`, which maps every vertex to an empty list, and the
    predecessor lists from the pairs of the init field `name` in one loop;
    keep them as `_succ` (tuples) and `_pred` (lists, shared: never change
    them).  A KeyError in the loop is the endpoint check: InvalidModel
    (`message`) names the least pair with an outside endpoint.  Lists are
    sorted in place and deduplicated if some successor list has a repeat;
    the field is dropped, to be derived again, unless it is a frozenset."""
    pairs = getattr(model, name)
    pred = {v: [] for v in succ}
    try:
        for src, dst in pairs:
            succ[src].append(dst)
            pred[dst].append(src)
    except KeyError:
        src, dst = min((a, b) for a, b in pairs if a not in succ or b not in succ)
        raise InvalidModel(message.format(src, dst)) from None
    if not isinstance(pairs, frozenset):  # a frozenset has no repeats: it stays the view
        multi = [ends for ends in succ.values() if len(ends) > 1]
        if sum(map(len, multi)) != sum(map(len, map(set, multi))):
            succ, pred = ({v: list(set(ends)) for v, ends in m.items()} for m in (succ, pred))
        object.__delattr__(model, name)
    any(map(list.sort, chain(succ.values(), pred.values())))  # sorts in place
    object.__setattr__(model, "_succ", dict(zip(succ, map(tuple, succ.values()))))
    object.__setattr__(model, "_pred", pred)


def game_from_owners(owners, initial, edges):
    """The game whose vertex partition is read off `owners`, a map from each
    vertex to REACH, SAFE or EFFECT; construction validates it."""
    reach, safe, eff = _partition(owners, owners.values())
    return ReachabilityGame(
        reach_owned=reach,
        safe_owned=safe,
        effect=eff,
        initial=initial,
        edges=frozenset(edges),
    )


def _partition(vertices, owners):
    """The Reach, Safe and effect vertex sets, from the parallel sequences of
    distinct vertices and of their owners; InvalidModel names the first
    vertex with an owner outside OWNERS."""
    try:
        known = set(owners) <= set(OWNERS)
    except TypeError:  # an unhashable owner
        known = False
    if not known:
        for v, owner in zip(vertices, owners):
            if owner not in OWNERS:
                raise InvalidModel(f"vertex {v!r} has unknown owner {owner!r}")
    groups = {player: [] for player in OWNERS}
    for v, owner in zip(vertices, owners):
        groups[owner].append(v)
    return tuple(frozenset(groups[player]) for player in OWNERS)


@dataclass(frozen=True)
class MDStrategy:
    """Memoryless deterministic strategy: one fixed edge per owned vertex."""

    player: str
    choice: dict

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))

    def __hash__(self):
        return hash((self.player, tuple(sorted(self.choice.items()))))


@dataclass(frozen=True)
class MaximalFinitePath:
    """A finite path from the initial state ending in a terminal state."""

    sequence: tuple

    def __len__(self):
        return len(self.sequence)


# ---------------------------------------------------------------------------
# validation


def validate_strategy(game, strategy):
    """Check that a strategy is total on its player's vertices and on-edge.

    A valid strategy passes in one unsorted pass; only a failing one is walked
    in sorted order, so the error names the sorted-first offender.
    """
    if strategy.player not in PLAYERS:
        raise InvalidModel(f"unknown player {strategy.player!r}")
    owned = game.owned_by(strategy.player)
    choice, succ = strategy.choice, game._succ
    if choice.keys() == owned and all(
        map(tuple.__contains__, map(succ.get, choice), choice.values())
    ):
        return
    for v in sorted(owned):
        if v not in choice:
            raise InvalidModel(f"strategy undefined at owned vertex {v!r}")
        if choice[v] not in succ[v]:
            raise InvalidModel(
                f"strategy choice {choice[v]!r} is not a successor of {v!r}"
            )
    for v in sorted(choice):
        if v not in owned:
            raise InvalidModel(f"strategy defined at non-owned vertex {v!r}")


# ---------------------------------------------------------------------------
# strategy-induced graphs


def strategy_adjacency(game, strategy):
    """Adjacency of the game under the strategy, without rebuilding the game."""
    owned = game.owned_by(strategy.player)
    return {
        v: ((strategy.choice[v],) if v in owned else game.successors(v))
        for v in game.vertices
    }


def play_graph(game, strategy):
    """The part of `strategy_adjacency` reachable from the initial vertex.

    Built by one walk that reads the strategy's choices and the game's
    successor tuples directly, so its cost is that of the plays, not of the
    game.  It is closed under successors, so `reachable_set`, `attractor` and
    `maximal_avoiding_set` answer on it as on the whole adjacency for every
    vertex it has; its keys are the vertices some play visits.
    """
    owned = game.owned_by(strategy.player)
    choice, succ = strategy.choice, game._succ
    v = game.initial
    graph = {v: (choice[v],) if v in owned else succ[v]}
    stack = [v]
    while stack:
        for u in graph[stack.pop()]:
            if u not in graph:
                graph[u] = (choice[u],) if u in owned else succ[u]
                stack.append(u)
    return graph


def play_layers(game, strategy):
    """The owned vertices of the strategy's play graph, one list per
    breadth-first depth from the initial vertex, generated lazily: entry d
    lists those at depth d."""
    owned = game.owned_by(strategy.player)
    choice, succ = strategy.choice, game._succ
    seen = {game.initial}
    layer = [game.initial]
    while layer:
        yield [v for v in layer if v in owned]
        nxt = []
        for v in layer:
            for u in (choice[v],) if v in owned else succ[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt


# ---------------------------------------------------------------------------
# graph primitives (shared by transition systems and games)


def reachable_set(adjacency, start):
    """Vertices reachable from start, start included."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def shortest_route(adjacency, start, goal, avoid=()):
    """The least shortest route from `start` to a vertex satisfying the
    predicate `goal` that enters no vertex of `avoid`, as a tuple, or None.

    Breadth-first, each layer in sorted order, the first parent winning: the
    route ends at the least goal of the least depth, and each of its
    vertices is entered from its least predecessor one layer up."""
    if start in avoid:
        return None
    parent = {start: None}
    layer = [start]
    while layer:
        nxt = []
        for v in layer:
            if goal(v):
                route = []
                while v is not None:
                    route.append(v)
                    v = parent[v]
                return tuple(reversed(route))
            for u in adjacency[v]:
                if u not in avoid and u not in parent:
                    parent[u] = v
                    nxt.append(u)
        layer = sorted(nxt)
    return None


def attractor(adjacency, existential, target, preds=None, allowed=None):
    """Attractor of `target` as {vertex: rank}, in O(|V| + |E|).

    Target vertices have rank 0.  A vertex in `existential` joins with one
    successor already inside, any other vertex once every successor is inside;
    a vertex without successors never joins.  The rank is the round in which
    the round-based fixpoint adds the vertex: one more than the least
    (existential) or greatest (universal) rank among its successors.  Each
    vertex counts its successors still outside, so every edge is looked at
    once (Zielonka 1998; Grädel, Thomas and Wilke 2002, ch. 2).

    `adjacency` maps every vertex to its successor tuple and must be closed:
    each successor is itself a key.  `preds` are its predecessor lists, built
    here if not given (a model passes its `_pred`); their order decides only
    the join order of equal ranks.  `allowed` maps some vertices to a subset
    of their successors: the result is that over `adjacency` updated with
    it.  Nothing passed in is changed.
    """
    return Attractor(adjacency, existential, target, preds, allowed).rank


class Attractor:
    """`attractor(adjacency, existential, target, preds, allowed)` as `rank`,
    with its counters kept so that the run can resume after pins.

    The predecessor lists are only read: the scan skips an edge from a vertex
    of `allowed` to a successor it does not keep.  `pin` adds such overrides
    at universal vertices and resumes the same counters, so a growing
    sequence of pins costs one run over the graph in all.  This is the
    monotone case of dynamic attractor maintenance (Chatterjee and
    Henzinger, J. ACM 61(3), 2014): fewer edges at a universal vertex only
    let more vertices join, so no member ever has to leave.
    """

    __slots__ = ("existential", "preds", "allowed", "outside", "rank")

    def __init__(self, adjacency, existential, target, preds=None, allowed=None):
        if preds is None:  # in the key order of `adjacency`
            preds = {v: [] for v in adjacency}
            for v, succ in adjacency.items():
                for u in succ:
                    preds[u].append(v)
        self.existential, self.preds = existential, preds
        self.allowed = dict(allowed) if allowed else {}
        self.outside = dict(zip(adjacency, map(len, adjacency.values())))
        self.outside.update(zip(self.allowed, map(len, self.allowed.values())))
        self.rank = dict.fromkeys(target, 0)
        self._absorb(list(self.rank))

    def _absorb(self, queue):
        """Let the predecessors of every queued member join, breadth-first,
        so ranks are assigned in rank order."""
        rank, preds, outside = self.rank, self.preds, self.outside
        existential, allowed = self.existential, self.allowed
        for u in queue:
            joined = rank[u] + 1
            for v in preds.get(u, ()):
                if v in rank or (v in allowed and u not in allowed[v]):
                    continue
                outside[v] -= 1
                if v in existential or not outside[v]:
                    rank[v] = joined
                    queue.append(v)

    def pin(self, pins):
        """Restrict each universal vertex v of `pins` to the one successor
        pins[v] and resume.  Afterwards `rank` has the members of a fresh
        attractor over the pinned adjacency, in the order they joined; the
        ranks of vertices that joined after a pin count rounds of the resumed
        run.  Each vertex may be pinned once, to one of its successors (an
        allowed one, where `allowed` restricts it).

        Every member has had its predecessors scanned when `pin` starts, so
        a vertex still outside counts exactly its successors outside.  A
        pinned vertex whose successor is outside therefore counts 1, and its
        edges to its other outside successors, which no scan has reached
        yet, are skipped from now on; no vertex joins until all pins are
        applied, so that scan state holds throughout the loop.
        """
        rank = self.rank
        joining = []
        for v, u in pins.items():
            if v in rank:
                continue
            if u in rank:
                joining.append(v)
                continue
            self.allowed[v] = (u,)
            self.outside[v] = 1
        for v in joining:
            rank[v] = rank[pins[v]] + 1
        self._absorb(joining)


def maximal_avoiding_set(adjacency, avoid, preds=None, allowed=None):
    """States admitting a maximal path that never visits `avoid`.

    The complement of the attractor of `avoid` in which every state is
    universal.  Maximal paths are the finite ones ending in a terminal state
    together with the infinite ones.  `preds` and `allowed` as in
    `attractor`.
    """
    doomed = attractor(adjacency, (), avoid, preds, allowed)
    return {s for s in adjacency if s not in doomed}


def exists_maximal_path_avoiding(ts, from_state, avoid):
    """True iff some maximal path from `from_state` never visits `avoid`."""
    if from_state not in ts._succ:
        raise PreconditionViolated(f"{from_state!r} is not a state")
    return from_state in maximal_avoiding_set(ts._succ, set(avoid), ts._pred)


# ---------------------------------------------------------------------------
# paths and plays


def validate_maximal_path(ts, sequence):
    """Validate a state sequence as a maximal finite path of the system."""
    sequence = tuple(sequence)
    if not sequence:
        raise NotAPath("empty sequence")
    for s in sequence:
        if s not in ts._succ:
            raise NotAPath(f"{s!r} is not a state")
    if sequence[0] != ts.initial:
        raise NotAPath(
            f"path starts at {sequence[0]!r}, not the initial state {ts.initial!r}"
        )
    for a, b in zip(sequence, sequence[1:]):
        if b not in ts._succ[a]:
            raise NotAPath(f"({a!r}, {b!r}) is not a transition")
    if not ts.is_terminal(sequence[-1]):
        raise NotMaximal(f"path ends at non-terminal state {sequence[-1]!r}")
    return MaximalFinitePath(sequence)


def maximal_paths(ts, max_len=None, budget=None):
    """All maximal finite paths from the initial state, lexicographically.

    On acyclic systems this enumeration is exhaustive.  On cyclic systems a
    `max_len` cap (number of states per path) must be supplied and the result
    only covers maximal paths up to that length; infinite maximal paths are
    never produced.  The depth-first walk keeps one successor iterator per
    state of the current path and charges one budget unit per visited state.
    """
    budget = as_budget(budget)
    acyclic = is_acyclic(ts._succ)
    if not acyclic and max_len is None:
        raise PreconditionViolated(
            "cyclic system: maximal-path enumeration needs a max_len cap"
        )
    out = []
    path = []
    stack = [iter((ts.initial,))]  # stack[i + 1] iterates path[i]'s successors
    while stack:
        for state in stack[-1]:
            budget.charge()
            path.append(state)
            if ts.is_terminal(state):
                out.append(tuple(path))
            elif max_len is None or len(path) < max_len:
                stack.append(iter(ts.successors(state)))
                break
            path.pop()
        else:
            stack.pop()
            if path:
                path.pop()
    return out


def is_acyclic(adjacency):
    """True iff the directed graph has no cycle (self-loops included): every
    vertex joins the all-universal attractor of the sinks."""
    sinks = [v for v, succ in adjacency.items() if not succ]
    return len(attractor(adjacency, (), sinks)) == len(adjacency)


def trap_vertices(adjacency):
    """Vertices whose only outgoing edge is a self-loop.

    A play entering such a vertex stays there forever, so for acyclicity
    purposes these vertices behave like terminal sinks.
    """
    return {v for v, succ in adjacency.items() if tuple(succ) == (v,)}


def is_effectively_acyclic(adjacency):
    """Acyclic once self-loops at trap vertices are disregarded: every vertex
    joins the all-universal attractor of the sinks and the traps.

    This is the acyclicity notion used for games: play-totality forces a
    self-loop wherever a drawing would show a non-target sink, and those
    loops are the only cycles an "acyclic" game may contain.
    """
    ends = trap_vertices(adjacency).union(v for v, succ in adjacency.items() if not succ)
    return len(attractor(adjacency, (), ends)) == len(adjacency)


# ---------------------------------------------------------------------------
# file formats


def model_to_json(model):
    if isinstance(model, TransitionSystem):
        return {
            "kind": "ts",
            "alphabet": list(model.alphabet),
            "states": [
                {"id": s, "label": model.labeling[s]} for s in sorted(model.states)
            ],
            "initial": model.initial,
            "transitions": [list(t) for t in sorted(model.transitions)],
        }
    if isinstance(model, ReachabilityGame):
        return {
            "kind": "game",
            "vertices": [
                {"id": v, "owner": model.owner(v)} for v in model.vertices
            ],
            "initial": model.initial,
            "edges": [list(e) for e in sorted(model.edges)],
        }
    raise InvalidModel(f"not a model: {type(model).__name__}")


def _expect_json(data, kind, what):
    """Return `data` if it is a JSON `kind` (dict, list or str), else raise InvalidModel."""
    if not isinstance(data, kind):
        name = {dict: "object", list: "array", str: "string"}[kind]
        raise InvalidModel(f"{what}: expected a JSON {name}, got {type(data).__name__}")
    return data


def required_field(data, name, what):
    """`data[name]` of the JSON object `what`, or InvalidModel naming the missing field."""
    try:
        return data[name]
    except KeyError:
        raise InvalidModel(f"{what}: missing field {name!r}") from None


def _all_json(values, kind, what):
    """Return `values` if every one is a JSON `kind`; `what(i)` names value i."""
    if not set(map(type, values)) <= {kind}:
        for i, value in enumerate(values):
            _expect_json(value, kind, what(i))
    return values


def _array_of(data, key, kind):
    """`data[key]` if it is a JSON array of `kind` values."""
    return _all_json(
        _expect_json(required_field(data, key, "model"), list, key), kind, lambda i: f"{key}[{i}]"
    )


def _column(items, key, name):
    """The field `name` of every object in the array `key`, as a list."""
    try:
        return list(map(itemgetter(name), items))
    except KeyError:
        i = next(i for i, item in enumerate(items) if name not in item)
        raise InvalidModel(f"{key}[{i}]: missing field {name!r}") from None


def _records(data, key, what, fields):
    """The array `data[key]` of objects and its columns `fields`, which are
    strings; the first column holds unique ids."""
    items = _array_of(data, key, dict)
    columns = [
        _all_json(_column(items, key, name), str, lambda i: f"{key}[{i}].{name}")
        for name in fields
    ]
    ids = columns[0]
    if len(set(ids)) != len(ids):
        seen = set()
        for vid in ids:
            if vid in seen:
                raise InvalidModel(f"duplicate {what} id {vid!r}")
            seen.add(vid)
    return items, columns


@contextmanager
def _pairs_named_first(data, key):
    """Yield the JSON array `data[key]` of arrays for a constructor, whose
    loop checks each pair as it links it.  On an error inside, a malformed
    pair (not a pair, or an end not a string) is named first, as if every
    pair had been checked before."""
    items = _array_of(data, key, list)
    try:
        yield items
    except (InvalidModel, TypeError, ValueError):
        for i, pair in enumerate(items):
            if len(pair) != 2:
                raise InvalidModel(f"{key}[{i}]: expected a pair, got {len(pair)} items")
        _all_json(list(chain.from_iterable(items)), str, lambda j: f"{key}[{j // 2}][{j % 2}]")
        raise


def model_from_json(data):
    _expect_json(data, dict, "model")
    kind = data.get("kind")
    if kind == "ts":
        _, (ids, labels) = _records(data, "states", "state", ("id", "label"))
        initial = _expect_json(required_field(data, "initial", "model"), str, "initial")
        with _pairs_named_first(data, "transitions") as pairs:
            return TransitionSystem(
                states=tuple(sorted(ids)),
                initial=initial,
                transitions=pairs,
                labeling=dict(zip(ids, labels)),
                alphabet=tuple(sorted(_array_of(data, "alphabet", str))),
            )
    if kind == "game":
        items, (ids,) = _records(data, "vertices", "vertex", ("id",))
        reach, safe, eff = _partition(ids, _column(items, "vertices", "owner"))
        initial = _expect_json(required_field(data, "initial", "model"), str, "initial")
        with _pairs_named_first(data, "edges") as pairs:
            return ReachabilityGame(
                reach_owned=reach, safe_owned=safe, effect=eff, initial=initial, edges=pairs
            )
    raise InvalidModel(f"unknown model kind {kind!r}")


def strategy_to_json(strategy):
    return {
        "player": strategy.player,
        "choices": {v: strategy.choice[v] for v in sorted(strategy.choice)},
    }


def strategy_from_json(data):
    _expect_json(data, dict, "strategy")
    choices = _expect_json(required_field(data, "choices", "strategy"), dict, "choices")
    _all_json(list(choices.values()), str, lambda i: f"choices.{list(choices)[i]}")
    return MDStrategy(player=required_field(data, "player", "strategy"), choice=choices)


def path_from_json(data):
    if isinstance(data, dict):
        data = required_field(data, "path", "path")
    return tuple(_all_json(_expect_json(data, list, "path"), str, lambda i: f"path[{i}]"))


def dumps_canonical(obj):
    """Deterministic JSON rendering: sorted keys, two-space indent, ASCII.

    The same text as `json.dumps(obj, sort_keys=True, indent=2) + "\n"`,
    whose `indent` makes `json` fall back to its pure-Python encoder.  This
    writer covers what documents hold: dicts with str keys, lists, tuples,
    str, int, bool and None.  On anything else it raises TypeError, and the
    whole document goes to `json.dumps`.
    """
    try:
        return _render(obj, "\n") + "\n"
    except TypeError:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_BOOLS = {True: "true", False: "false"}


def _render(obj, newline):
    """`obj` as JSON text at the depth whose line break and indent is
    `newline`.  A list of only str or only bool is mapped at once."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return _BOOLS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(map(isinstance, obj, repeat(str))):
            texts = map(_encode_str, obj)
        elif all(map(isinstance, obj, repeat(bool))):
            texts = map(_BOOLS.__getitem__, obj)
        else:
            texts = map(_render, obj, repeat(inner))
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        fields = []
        for key, value in sorted(obj.items()):  # a key not a str raises TypeError
            text = _encode_str(value) if isinstance(value, str) else _render(value, inner)
            fields.append(_encode_str(key) + ": " + text)
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    raise TypeError(obj)


def read_json(path):
    """Decode a model, strategy, path or SEM file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_model(path):
    return model_from_json(read_json(path))


def load_strategy(path):
    return strategy_from_json(read_json(path))


def load_path(path):
    return path_from_json(read_json(path))
