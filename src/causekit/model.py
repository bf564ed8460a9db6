"""Labeled transition systems, reachability games, paths and strategies.

Models are validated when they are constructed: `__post_init__` checks every
structural invariant in the pass that builds the graph and raises
InvalidModel on the first violation, so no invalid model exists.  Models are
immutable; every query in this module is a pure function of its inputs and
safe to share across threads.

Numbering.  A model numbers its states or vertices once, in sorted-id order:
`ids[i]` is the id of vertex i and `index` maps an id to its number.  It
keeps successor tuples (`_succ`) of numbers, sorted and without duplicates,
filled in one loop over the given pairs, and owner flags (`_owns`, games)
or a label list (`_labels`, systems).  The predecessor lists (`_pred`) are
built from `_succ` when a fixpoint first needs them.  Input in writer
order, the order `model_to_json` writes, costs no sort and no duplicate
scan: the loader takes ids that arrive strictly increasing as the sorted
list and the other columns as they stand, and `_link`'s loop takes pairs
that arrive strictly increasing by number as sorted, distinct successor
lists.  Only input out of that order is sorted once and deduplicated.  Number
order is id order, so a sorted list of numbers names a sorted list of ids,
and every sort, minimum, combination order and tie-break on numbers gives
the sequence it gave on ids.  The id-keyed views (`vertices`, `edges`,
`transitions` and a game's `reach_owned`, `safe_owned` and `effect` where
they were not given, and the id tuples of `successors`) are derived from the
numbered lists on first read and cached on the model.

Everything else in this module runs on numbers, and so do the checkers.  Ids
appear only at the boundary: file decoding and encoding, `validate_strategy`
and `strategy_of` for strategies, `validate_maximal_path` and
`maximal_paths` for paths, and error messages.  A strategy runs as its
`picks`: a list holding the chosen successor at each owned vertex and None
at every other vertex.

`attractor` is the single fixpoint kernel over game and system vertices:
winning regions, safety regions, "exists a maximal avoiding path" and
acyclicity are all attractors or their complements.  Ranks, counters and
existential flags are lists indexed by vertex.  On a model's own graph it
reads the model's predecessor lists, with `allowed` edge tuples as
overrides.  `Attractor` is the same kernel as an object that resumes after
universal vertices are pinned to one successor.

`shortest_route` is the least shortest route to a goal, breadth-first: each
layer is sorted and a vertex keeps the first parent that reaches it.  Three
walks answer the questions the checkers ask of a strategy's plays.  Each
reads the picks and the game's successor tuples, so it costs what the plays
cost, however large the rest of the game.  `play_arena` answers which
vertices the plays visit: it numbers them afresh in discovery order, and
the attractors over the plays run on it.  `distances.play_scan` answers
whether the plays can cycle and gives the d* weights.  `play_layers` gives
the owned vertices the plays visit by breadth-first depth, each layer in
discovery order; its callers read the layers as sets.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import is_not, itemgetter, lt, not_

from .errors import (
    CausekitError,
    InvalidModel,
    NotAPath,
    NotMaximal,
    PreconditionViolated,
    as_budget,
)

REACH = "reach"
SAFE = "safe"
EFFECT = "effect"

PLAYERS = (REACH, SAFE)
OWNERS = (REACH, SAFE, EFFECT)

_CODES = {owner: code for code, owner in enumerate(OWNERS)}
# bytes.translate tables from owner codes to the flags of one owner
_FLAGS = {owner: bytes(i == code for i in range(256)) for owner, code in _CODES.items()}


def opponent(player):
    return SAFE if player == REACH else REACH


class _Derived:
    """Attributes named in the class's `_DERIVED` are computed from the
    numbered lists on first read and cached on the model."""

    _DERIVED = {}

    def __getattr__(self, name):
        derive = type(self)._DERIVED.get(name)
        if derive is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = derive(self)
        object.__setattr__(self, name, value)
        return value

    def successors(self, vertex):
        return self._id_succ[vertex]

    def is_terminal(self, vertex):
        return not self._succ[self.index[vertex]]


def _pair_set(model):
    """The (source, target) id pairs of the successor lists, as a frozenset."""
    ids = model.ids
    return frozenset((ids[v], ids[u]) for v, ends in enumerate(model._succ) for u in ends)


def _id_successors(model):
    """{id: successor id tuple}, in id order."""
    name = model.ids.__getitem__
    return dict(zip(model.ids, (tuple(map(name, ends)) for ends in model._succ)))


def _number(model, ids):
    """Keep the sorted list of distinct ids `ids` as `ids` and its inverse
    as `index`."""
    ids = tuple(ids)
    object.__setattr__(model, "ids", ids)
    object.__setattr__(model, "index", dict(zip(ids, range(len(ids)))))
    return model.index


def _new(cls, **fields):
    """A model of class `cls` with the given fields set and nothing checked
    yet, for a loader that numbers and checks it itself."""
    model = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(model, name, value)
    return model


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
    _succ: list = field(init=False, repr=False, compare=False)
    _pred: list = field(init=False, repr=False, compare=False)
    _labels: list = field(init=False, repr=False, compare=False)
    _init: int = field(init=False, repr=False, compare=False)
    _DERIVED = {
        "transitions": _pair_set,
        "_id_succ": _id_successors,
        "_pred": lambda ts: predecessors(ts._succ),
    }

    def __post_init__(self):
        # dict.fromkeys keeps the given order, so states given sorted sort in linear time
        _fill_ts(self, sorted(dict.fromkeys(self.states)))

    def label(self, state):
        return self.labeling[state]

    def trace(self, sequence):
        return tuple(self.labeling[s] for s in sequence)


def _fill_ts(ts, ids, labels=None):
    """Number, link and check the system whose fields are set: `ids` lists
    its states sorted and without repeats, and `labels`, if given, the
    label of each, read off `labeling` otherwise."""
    index = _number(ts, ids)
    if not index:
        raise InvalidModel("transition system has no states")
    if ts.initial not in index:
        raise InvalidModel(f"initial state {ts.initial!r} is not a state")
    _link(ts, "transitions", "transition ({!r}, {!r}) leaves the state set")
    labeling, alphabet = ts.labeling, set(ts.alphabet)
    try:
        if labels is None:
            labels = list(map(labeling.__getitem__, ts.ids))
        labeled = alphabet.issuperset(labels)
    except (KeyError, TypeError):  # a missing or an unhashable label
        labeled = False
    if not labeled:
        for s in ts.states:
            if s not in labeling:
                raise InvalidModel(f"state {s!r} has no label")
            if labeling[s] not in alphabet:
                raise InvalidModel(
                    f"state {s!r} carries label {labeling[s]!r} outside the alphabet"
                )
    object.__setattr__(ts, "_labels", labels)
    object.__setattr__(ts, "_init", index[ts.initial])


def _owner_list(game):
    """The owner of each vertex, by number, read off the owner flags."""
    reach, safe = game._owns[REACH], game._owns[SAFE]
    return [REACH if r else SAFE if f else EFFECT for r, f in zip(reach, safe)]


def _owned(player):
    """The id set of the vertices `player` owns, derived from the owner flags."""
    return lambda game: frozenset(compress(game.ids, game._owns[player]))


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
    or vertex.  `vertices`, the sorted vertex tuple, is `ids`.  `_owns` maps
    each owner to a bytes of flags by vertex number, the one stored record
    of ownership; `_owner`, the owner of each vertex, and `_targets`, the
    effect vertices' numbers, are derived from it on first read.
    """

    reach_owned: frozenset
    safe_owned: frozenset
    effect: frozenset
    initial: str
    edges: frozenset
    _succ: list = field(init=False, repr=False, compare=False)
    _pred: list = field(init=False, repr=False, compare=False)
    _owns: dict = field(init=False, repr=False, compare=False)
    _init: int = field(init=False, repr=False, compare=False)
    _DERIVED = {
        "edges": _pair_set,
        "_id_succ": _id_successors,
        "_pred": lambda game: predecessors(game._succ),
        "vertices": lambda game: game.ids,
        "reach_owned": _owned(REACH),
        "safe_owned": _owned(SAFE),
        "effect": _owned(EFFECT),
        "_targets": lambda game: list(compress(range(len(game.ids)), game._owns[EFFECT])),
        "_owner": _owner_list,
    }

    def __post_init__(self):
        reach, safe, eff = self.reach_owned, self.safe_owned, self.effect
        overlap = (reach & safe) | (reach & eff) | (safe & eff)
        if overlap:
            raise InvalidModel(f"vertex partition overlaps at {sorted(overlap)}")
        codes = dict.fromkeys(reach, _CODES[REACH])
        codes.update(dict.fromkeys(safe, _CODES[SAFE]))
        codes.update(dict.fromkeys(eff, _CODES[EFFECT]))
        _fill_game(self, *_by_id(codes))

    def owner(self, vertex):
        return self._owner[self.index[vertex]]

    def owned_by(self, player):
        return self.reach_owned if player == REACH else self.safe_owned

    def adjacency(self):
        return dict(self._id_succ)


def _link(model, name, message):
    """Fill the successor lists of the numbered model from the pairs of the
    init field `name` in one loop and keep them as `_succ` (tuples).  A
    KeyError in the loop is the endpoint check: InvalidModel (`message`)
    names the least pair with an outside endpoint.  The loop also checks
    writer order, sources not decreasing and targets strictly increasing
    within a source; pairs in that order fill lists that are already sorted
    and distinct.  Pairs in any other order pay for the rest: the lists are
    deduplicated if some list has a repeat and a frozenset is not given,
    then sorted in place.  The field is dropped, to be derived again,
    unless it is a frozenset."""
    pairs = getattr(model, name)
    index = model.index
    succ = [[] for _ in index]
    rest = iter(pairs)
    ordered = True
    prev_s = prev_t = -1
    try:
        for src, dst in rest:
            s = index[src]
            t = index[dst]
            succ[s].append(t)
            if t <= prev_t and s == prev_s or s < prev_s:
                ordered = False
                break
            prev_s, prev_t = s, t
        for src, dst in rest:  # the pairs after the first one out of order
            succ[index[src]].append(index[dst])
    except KeyError:
        src, dst = min((a, b) for a, b in pairs if a not in index or b not in index)
        raise InvalidModel(message.format(src, dst)) from None
    if not isinstance(pairs, frozenset):  # a frozenset has no repeats: it stays the view
        object.__delattr__(model, name)
        if not ordered:
            multi = [ends for ends in succ if len(ends) > 1]
            if sum(map(len, multi)) != sum(map(len, map(set, multi))):
                succ = [list(set(ends)) for ends in succ]
    if not ordered:
        any(map(list.sort, succ))  # sorts in place
    object.__setattr__(model, "_succ", list(map(tuple, succ)))


def _by_id(codes):
    """The sorted vertex list of the map `codes` from vertex to owner code,
    and the codes in that order, as bytes."""
    ids = sorted(codes)
    return ids, bytes(map(codes.__getitem__, ids))


def _fill_game(game, ids, codes):
    """Number, link and check the game whose `initial` and `edges` are set:
    `ids` lists its vertices sorted and without repeats, and `codes` holds
    the owner code of each, its index in OWNERS."""
    index = _number(game, ids)
    if not index:
        raise InvalidModel("game has no vertices")
    if game.initial not in index:
        raise InvalidModel(f"initial vertex {game.initial!r} is not a vertex")
    owns = {p: codes.translate(_FLAGS[p]) for p in OWNERS}
    init = index[game.initial]
    if owns[EFFECT][init]:
        raise InvalidModel("initial vertex lies in the effect set")
    _link(game, "edges", "edge ({!r}, {!r}) leaves the vertex set")
    terminal = bytes(map(not_, game._succ))
    if terminal != owns[EFFECT]:
        ends = list(zip(owns[EFFECT], terminal))
        if (1, 0) in ends:
            v = game.ids[ends.index((1, 0))]
            raise InvalidModel(f"effect vertex {v!r} has an outgoing edge")
        v = game.ids[ends.index((0, 1))]
        raise InvalidModel(f"non-effect vertex {v!r} is a dead end")
    object.__setattr__(game, "_owns", owns)
    object.__setattr__(game, "_init", init)


def _game(ids, codes, initial, edges):
    """The game with the given sorted vertices, owner codes, initial vertex
    and edges, built without the partition sets, which are derived on first
    read."""
    game = _new(ReachabilityGame, initial=initial, edges=edges)
    _fill_game(game, ids, codes)
    return game


def game_from_owners(owners, initial, edges):
    """The game whose vertex partition is read off `owners`, a map from each
    vertex to REACH, SAFE or EFFECT; construction validates it."""
    codes = dict(zip(owners, _owner_codes(owners, owners.values())))
    return _game(*_by_id(codes), initial, frozenset(edges))


def _owner_codes(vertices, owners):
    """The owner codes, as bytes, of the parallel sequences of distinct
    vertices and of their owners; InvalidModel names the first vertex with
    an owner outside OWNERS."""
    try:
        return bytes(map(_CODES.__getitem__, owners))
    except (KeyError, TypeError):  # an unknown or an unhashable owner
        for v, owner in zip(vertices, owners):
            if owner not in OWNERS:
                raise InvalidModel(f"vertex {v!r} has unknown owner {owner!r}") from None
        raise  # not reached: the scan names the owner that failed


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
# strategies at the boundary


def validate_strategy(game, strategy):
    """Check that a strategy is total on its player's vertices and on-edge;
    return its picks.

    A valid strategy passes in one unsorted pass; only a failing one is walked
    in sorted order, so the error names the sorted-first offender.
    """
    if strategy.player not in PLAYERS:
        raise InvalidModel(f"unknown player {strategy.player!r}")
    index, succ, choice = game.index, game._succ, strategy.choice
    mine = game._owns[strategy.player]
    try:
        vs = list(map(index.__getitem__, choice))
        us = list(map(index.__getitem__, choice.values()))
    except (KeyError, TypeError):  # an id that is not a vertex, or unhashable
        vs = None
    if (
        vs is not None
        and len(vs) == mine.count(1)
        and all(map(mine.__getitem__, vs))
        and all(map(tuple.__contains__, map(succ.__getitem__, vs), us))
    ):
        picks = [None] * len(succ)
        any(map(picks.__setitem__, vs, us))  # fills in place
        return picks
    owned = game.owned_by(strategy.player)
    for v in sorted(owned):
        if v not in choice:
            raise InvalidModel(f"strategy undefined at owned vertex {v!r}")
        if choice[v] not in game.successors(v):
            raise InvalidModel(f"strategy choice {choice[v]!r} is not a successor of {v!r}")
    for v in sorted(choice):
        if v not in owned:
            raise InvalidModel(f"strategy defined at non-owned vertex {v!r}")
    raise InvalidModel("invalid strategy")  # not reached: one check above fails


def strategy_of(game, player, picks):
    """The MDStrategy of `player` with the given picks."""
    name = game.ids.__getitem__
    owned = list(compress(range(len(picks)), map(is_not, picks, repeat(None))))
    choices = map(name, map(picks.__getitem__, owned))
    return MDStrategy(player, dict(zip(map(name, owned), choices)))


# ---------------------------------------------------------------------------
# strategy-induced graphs


def play_arena(game, picks):
    """The play graph, the part of the game under the picks (sigma's pick
    alone at each vertex that has one) reachable from the initial vertex,
    numbered afresh in discovery order, for the attractor
    to run on at the cost of the plays rather than of the game.  Returns
    (`seen`, `succ`): `seen` maps each vertex some play visits to its new
    number, the initial vertex 0, and `succ` lists the successors of each
    by new number.  All-None picks give the part of the game the initial
    vertex reaches."""
    succ = game._succ
    seen = {game._init: 0}
    order = [game._init]
    out = []
    for v in order:  # sees the vertices appended below
        u = picks[v]
        row = []
        for w in succ[v] if u is None else (u,):
            i = seen.get(w)
            if i is None:
                i = seen[w] = len(order)
                order.append(w)
            row.append(i)
        out.append(row)
    return seen, out


def play_layers(game, picks):
    """The owned vertices of the strategy's play graph, one list per
    breadth-first depth from the initial vertex, generated lazily: entry d
    lists those at depth d."""
    succ = game._succ
    seen = bytearray(len(succ))
    seen[game._init] = 1
    layer = [game._init]
    while layer:
        yield [v for v in layer if picks[v] is not None]
        nxt = []
        for v in layer:
            u = picks[v]
            for u in succ[v] if u is None else (u,):
                if not seen[u]:
                    seen[u] = 1
                    nxt.append(u)
        layer = nxt


# ---------------------------------------------------------------------------
# graph primitives (shared by transition systems and games)


def shortest_route(succ, start, goal, avoid=()):
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
            for u in succ[v]:
                if u not in avoid and u not in parent:
                    parent[u] = v
                    nxt.append(u)
        layer = sorted(nxt)
    return None


def predecessors(succ):
    """Predecessor lists of the successor tuples `succ`, each sorted."""
    preds = [[] for _ in succ]
    for v, ends in enumerate(succ):
        for u in ends:
            preds[u].append(v)
    return preds


def attractor(succ, existential, target, preds=None, allowed=None):
    """Attractor of `target` as a rank list: entry v is the rank of a member
    v, None for a vertex outside.  O(|V| + |E|).

    Target vertices have rank 0.  A vertex flagged in `existential` joins
    with one successor already inside, any other vertex once every successor
    is inside; a vertex without successors never joins.  The rank is the
    round in which the round-based fixpoint adds the vertex: one more than
    the least (existential) or greatest (universal) rank among its
    successors.  Each vertex counts its successors still outside, so every
    edge is looked at once (Zielonka 1998; Grädel, Thomas and Wilke 2002,
    ch. 2).

    `succ` lists every vertex's successor tuple and `existential` flags the
    existential ones, both indexed by vertex.  `preds` are the predecessor
    lists, built here if not given (a model passes its `_pred`); their order
    decides only the join order of equal ranks.  `allowed` maps some
    vertices to a subset of their successors: the result is that over `succ`
    updated with it.  Nothing passed in is changed.
    """
    return Attractor(succ, existential, target, preds, allowed).rank


class Attractor:
    """`attractor(succ, existential, target, preds, allowed)` as `rank`, with
    the members in join order as `order` and the counters kept so that the
    run can resume after pins.

    The predecessor lists are only read: the scan skips an edge from a vertex
    of `allowed` to a successor it does not keep.  `pin` adds such overrides
    at universal vertices and resumes the same counters, so a growing
    sequence of pins costs one run over the graph in all.  This is the
    monotone case of dynamic attractor maintenance (Chatterjee and
    Henzinger, J. ACM 61(3), 2014): fewer edges at a universal vertex only
    let more vertices join, so no member ever has to leave.
    """

    __slots__ = ("existential", "preds", "allowed", "outside", "rank", "order")

    def __init__(self, succ, existential, target, preds=None, allowed=None):
        self.existential = existential
        self.preds = predecessors(succ) if preds is None else preds
        self.allowed = dict(allowed) if allowed else {}
        outside = self.outside = list(map(len, succ))
        for v, ends in self.allowed.items():
            outside[v] = len(ends)
        rank = self.rank = [None] * len(succ)
        order = self.order = []
        for v in target:
            if rank[v] is None:
                rank[v] = 0
                order.append(v)
        self._absorb(0)

    def _absorb(self, start):
        """Let the predecessors of every member from `order[start]` on join,
        breadth-first, so ranks are assigned in rank order."""
        rank, preds, outside, order = self.rank, self.preds, self.outside, self.order
        existential, allowed = self.existential, self.allowed
        for u in islice(order, start, None):  # sees the members appended below
            joined = rank[u] + 1
            for v in preds[u]:
                if rank[v] is not None or (allowed and v in allowed and u not in allowed[v]):
                    continue
                outside[v] -= 1
                if existential[v] or not outside[v]:
                    rank[v] = joined
                    order.append(v)

    def pin(self, pins):
        """Restrict each universal vertex v of `pins` to the one successor
        pins[v] and resume.  Afterwards `rank` has the members of a fresh
        attractor over the pinned graph, and `order` lists them in the order
        they joined; the ranks of vertices that joined after a pin count
        rounds of the resumed run.  Each vertex may be pinned once, to one of
        its successors (an allowed one, where `allowed` restricts it).

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
            if rank[v] is not None:
                continue
            if rank[u] is not None:
                joining.append(v)
                continue
            self.allowed[v] = (u,)
            self.outside[v] = 1
        for v in joining:
            rank[v] = rank[pins[v]] + 1
        start = len(self.order)
        self.order.extend(joining)
        self._absorb(start)


def maximal_avoiding_set(succ, avoid, preds=None, allowed=None):
    """Flags by vertex: True where the vertex admits a maximal path that
    never visits `avoid`.

    The complement of the attractor of `avoid` in which every vertex is
    universal.  Maximal paths are the finite ones ending in a terminal
    vertex together with the infinite ones.  `preds` and `allowed` as in
    `attractor`.
    """
    return [r is None for r in attractor(succ, bytes(len(succ)), avoid, preds, allowed)]


# ---------------------------------------------------------------------------
# paths and plays


def validate_maximal_path(ts, sequence):
    """Validate a state sequence as a maximal finite path of the system."""
    sequence = tuple(sequence)
    if not sequence:
        raise NotAPath("empty sequence")
    index = ts.index
    for s in sequence:
        if s not in index:
            raise NotAPath(f"{s!r} is not a state")
    if sequence[0] != ts.initial:
        raise NotAPath(
            f"path starts at {sequence[0]!r}, not the initial state {ts.initial!r}"
        )
    states = list(map(index.__getitem__, sequence))
    succ = ts._succ
    for a, b in zip(states, states[1:]):
        if b not in succ[a]:
            raise NotAPath(f"({ts.ids[a]!r}, {ts.ids[b]!r}) is not a transition")
    if succ[states[-1]]:
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
    succ, ids = ts._succ, ts.ids
    if not is_acyclic(succ) and max_len is None:
        raise PreconditionViolated(
            "cyclic system: maximal-path enumeration needs a max_len cap"
        )
    out = []
    path = []
    stack = [iter((ts._init,))]  # stack[i + 1] iterates path[i]'s successors
    while stack:
        for state in stack[-1]:
            budget.charge()
            path.append(state)
            if not succ[state]:
                out.append(tuple(map(ids.__getitem__, path)))
            elif max_len is None or len(path) < max_len:
                stack.append(iter(succ[state]))
                break
            path.pop()
        else:
            stack.pop()
            if path:
                path.pop()
    return out


def is_acyclic(succ):
    """True iff the directed graph has no cycle (self-loops included): every
    vertex joins the all-universal attractor of the sinks."""
    sinks = compress(range(len(succ)), map(not_, succ))
    return None not in attractor(succ, bytes(len(succ)), sinks)


def trap_vertices(succ):
    """Vertices whose only outgoing edge is a self-loop.

    A play entering such a vertex stays there forever, so the `hamm-s` tree
    DP treats these vertices as ends of plays.
    """
    return {v for v, ends in enumerate(succ) if ends == (v,)}


# ---------------------------------------------------------------------------
# file formats


def model_to_json(model):
    """The model's file document, in writer order: each id once, ids and
    pairs strictly increasing."""
    if isinstance(model, TransitionSystem):
        data = {
            "kind": "ts",
            "alphabet": list(model.alphabet),
            "states": [{"id": s, "label": label} for s, label in zip(model.ids, model._labels)],
            "initial": model.initial,
        }
        key = "transitions"
    elif isinstance(model, ReachabilityGame):
        data = {
            "kind": "game",
            "vertices": [{"id": v, "owner": o} for v, o in zip(model.ids, model._owner)],
            "initial": model.initial,
        }
        key = "edges"
    else:
        raise InvalidModel(f"not a model: {type(model).__name__}")
    ids = model.ids
    data[key] = [[ids[v], ids[u]] for v, ends in enumerate(model._succ) for u in ends]
    return data


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
    """The array `data[key]` of objects, its columns `fields`, which are
    strings, and the first column, which holds unique ids, sorted.  Ids in
    strictly increasing order are their own sorted list, so the caller can
    tell by identity that the other columns are in id order too.  Other ids
    are sorted once, and their uniqueness is strict order on that list."""
    items = _array_of(data, key, dict)
    columns = [
        _all_json(_column(items, key, name), str, lambda i: f"{key}[{i}].{name}")
        for name in fields
    ]
    ids = columns[0]
    order = ids if _increasing(ids) else sorted(ids)
    if order is not ids and not _increasing(order):
        seen = set()
        for vid in ids:
            if vid in seen:
                raise InvalidModel(f"duplicate {what} id {vid!r}")
            seen.add(vid)
    return items, columns, order


def _increasing(items):
    """Whether the list `items` is strictly increasing."""
    return all(map(lt, items, islice(items, 1, None)))


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
        _, (ids, labels), order = _records(data, "states", "state", ("id", "label"))
        initial = _expect_json(required_field(data, "initial", "model"), str, "initial")
        labeling = dict(zip(ids, labels))
        if order is not ids:
            labels = list(map(labeling.__getitem__, order))
        order = tuple(order)
        with _pairs_named_first(data, "transitions") as pairs:
            ts = _new(
                TransitionSystem,
                states=order,
                initial=initial,
                transitions=pairs,
                labeling=labeling,
                alphabet=tuple(sorted(_array_of(data, "alphabet", str))),
            )
            _fill_ts(ts, order, labels)
            return ts
    if kind == "game":
        items, (ids,), order = _records(data, "vertices", "vertex", ("id",))
        codes = _owner_codes(ids, _column(items, "vertices", "owner"))
        if order is not ids:
            codes = bytes(map(dict(zip(ids, codes)).__getitem__, order))
        initial = _expect_json(required_field(data, "initial", "model"), str, "initial")
        with _pairs_named_first(data, "edges") as pairs:
            return _game(order, codes, initial, pairs)
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
    whole document goes to `json.dumps`.  The pieces are collected in one
    list and joined once at the end, so a large text is not copied again
    at each level of nesting.
    """
    out = []
    try:
        _render(obj, "\n", out)
    except TypeError:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


_BOOLS = {True: "true", False: "false"}


def _render(obj, newline, out):
    """Append `obj` as JSON text at the depth whose line break and indent is
    `newline` to `out`.  A list of only str or only bool, and a dict of
    only str values, is joined at once, and a list of Boolean rows takes
    one join per row."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append(_BOOLS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("[" + inner)
        if all(map(isinstance, obj, repeat(str))):
            out.append(sep.join(map(_encode_str, obj)))
        elif all(map(isinstance, obj, repeat(bool))):
            out.append(sep.join(map(_BOOLS.__getitem__, obj)))
        elif _boolean_rows(obj):
            word = _BOOLS.__getitem__
            row_inner = inner + "  "
            row_sep = "," + row_inner
            out.append(sep.join([
                f"[{row_inner}{row_sep.join(map(word, row))}{inner}]" if row else "[]"
                for row in obj
            ]))
        else:
            _render(obj[0], inner, out)
            for item in islice(obj, 1, None):
                out.append(sep)
                _render(item, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "," + inner
        out.append("{" + inner)
        items = sorted(obj.items())  # a key not a str raises TypeError when encoded
        if len(obj) > 8 and all(map(isinstance, obj.values(), repeat(str))):
            # a strategy's choices: one piece rather than one per field; on
            # a few fields the test costs more than it saves
            out.append(sep.join([f"{_encode_str(k)}: {_encode_str(v)}" for k, v in items]))
        else:
            lead = ""
            for key, value in items:
                key = _encode_str(key)
                if isinstance(value, str):
                    out.append(f"{lead}{key}: {_encode_str(value)}")
                elif type(value) is bool:
                    out.append(f"{lead}{key}: {_BOOLS[value]}")
                elif type(value) is int:
                    out.append(f"{lead}{key}: {int.__repr__(value)}")
                else:
                    out.append(f"{lead}{key}: ")
                    _render(value, inner, out)
                lead = sep
        out.append(newline + "}")
    else:
        raise TypeError(obj)


def _boolean_rows(items):
    """Whether every item is a list or tuple of bools only.  The types must
    be exact: 1 == True, so _BOOLS would render a 1 as "true"."""
    return (
        set(map(type, items)) <= {list, tuple}
        and set(map(type, chain.from_iterable(items))) <= {bool}
    )


def read_json(path):
    """Decode a model, strategy, path or SEM file.

    The bytes are read at once and decoded as UTF-8, which is faster than a
    text-mode read.  Line ends are translated as a text-mode read would,
    so the text and the positions in decoding errors are the same; a byte
    order mark or another encoding fails as it did there.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    if b"\r" in data:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise CausekitError(f"{path}: JSON nested too deeply") from None


def load_model(path):
    return model_from_json(read_json(path))


def load_strategy(path):
    return strategy_from_json(read_json(path))


def load_path(path):
    return path_from_json(read_json(path))
