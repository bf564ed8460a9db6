"""Seeded random instance generators for the test and acceptance suites.

Identical spec plus seed yields an identical instance, byte for byte once
serialized; all randomness flows through one random.Random(seed).  Each
family charges a unit per state and edge it may draw before building them,
and the transition-system families one per label of their alphabet.
"""

import random
from dataclasses import dataclass
from operator import mul

from .errors import InvalidSpec, as_budget
from .model import (
    EFFECT,
    REACH,
    SAFE,
    MDStrategy,
    TransitionSystem,
    game_from_owners,
)
from .sem_bridge import StructuralEquationModel

FAMILIES = ("layered-ts", "acyclic-ts", "acyclic-game", "cyclic-game", "boolean-sem")
# The least `states` each family that reads it can build: a game needs an
# initial vertex, an effect vertex and one more, a DAG system two states.
MIN_STATES = {"acyclic-ts": 2, "acyclic-game": 3, "cyclic-game": 3}
# The most labels `_symbols` can name: one character each from "a" upward.
MAX_ALPHABET = 0x110000 - ord("a")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    seed: int
    states: int = 8
    layers: int = 4
    width: int = 3
    alphabet: int = 2
    variables: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}")
        for name in ("states", "layers", "width", "alphabet", "variables"):
            if getattr(self, name) < 1:
                raise InvalidSpec(f"{name} must be positive")
        if self.alphabet > MAX_ALPHABET:
            raise InvalidSpec(f"alphabet must be at most {MAX_ALPHABET}")
        least = MIN_STATES.get(self.family, 1)
        if self.states < least:
            raise InvalidSpec(f"{self.family} needs at least {least} states")


def generate(spec, budget=None):
    rng = random.Random(spec.seed)
    if spec.family == "layered-ts":
        return layered_ts(rng, spec.layers, spec.width, spec.alphabet, budget)
    if spec.family == "acyclic-ts":
        return acyclic_ts(rng, spec.states, spec.alphabet, budget)
    if spec.family == "acyclic-game":
        return acyclic_game(rng, spec.states, budget)
    if spec.family == "cyclic-game":
        return cyclic_game(rng, spec.states, budget)
    return boolean_sem(rng, spec.variables, budget)


def _symbols(k):
    return tuple(chr(ord("a") + i) for i in range(k))


def layered_ts(rng, max_layers, max_width, alphabet_size, budget=None):
    """Layered system: one initial state, random widths, transitions only to
    the next layer, every state reachable and every non-final state live.
    The alphabet's labels are charged before they are named, one state and
    one transition per layer once the depth is drawn, the other states and
    the bound w * w' on the transitions between layers of widths w and w'
    once the widths are."""
    budget = as_budget(budget)
    budget.charge(alphabet_size)
    alphabet = _symbols(alphabet_size)
    depth = rng.randint(1, max_layers - 1) if max_layers > 1 else 1
    budget.charge(2 * depth + 1)
    widths = [1] + [rng.randint(1, max_width) for _ in range(depth)]
    budget.charge(sum(widths) + sum(map(mul, widths, widths[1:])) - 2 * depth - 1)
    layers = [
        [f"s{i}_{j}" for j in range(w)] for i, w in enumerate(widths)
    ]
    transitions = set()
    for i in range(depth):
        for src in layers[i]:
            fanout = rng.randint(1, len(layers[i + 1]))
            for dst in rng.sample(layers[i + 1], fanout):
                transitions.add((src, dst))
        for dst in layers[i + 1]:
            if not any((src, dst) in transitions for src in layers[i]):
                transitions.add((rng.choice(layers[i]), dst))
    states = [s for layer in layers for s in layer]
    labeling = {s: rng.choice(alphabet) for s in states}
    return TransitionSystem(
        states=tuple(sorted(states)),
        initial="s0_0",
        transitions=frozenset(transitions),
        labeling=labeling,
        alphabet=alphabet,
    )


def acyclic_ts(rng, max_states, alphabet_size, budget=None):
    """Random DAG over a topological order; sinks are the terminal states.
    Charges the alphabet's labels before naming them, then n states and
    4(n - 1) edges: three in, one shortcut out each."""
    budget = as_budget(budget)
    budget.charge(alphabet_size)
    alphabet = _symbols(alphabet_size)
    n = rng.randint(2, max_states)
    budget.charge(n + 4 * (n - 1))
    states = [f"s{i}" for i in range(n)]
    transitions = set()
    for j in range(1, n):
        preds = rng.sample(range(j), rng.randint(1, min(j, 3)))
        for i in preds:
            transitions.add((states[i], states[j]))
    for i in range(n - 1):
        if rng.random() < 0.3:
            j = rng.randint(i + 1, n - 1)
            transitions.add((states[i], states[j]))
    labeling = {s: rng.choice(alphabet) for s in states}
    return TransitionSystem(
        states=tuple(sorted(states)),
        initial="s0",
        transitions=frozenset(transitions),
        labeling=labeling,
        alphabet=alphabet,
    )


def _owners(rng, names):
    return {v: rng.choice((REACH, SAFE)) for v in names}


def acyclic_game(rng, max_states, budget=None):
    """DAG-shaped game: effect on a subset of the sinks, self-loop traps on
    the rest, random ownership elsewhere.  Charges n vertices and 4n edges:
    up to two in, one shortcut out and one self-loop per vertex."""
    n = rng.randint(3, max_states)
    as_budget(budget).charge(n + 4 * n)
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for j in range(1, n):
        preds = rng.sample(range(j), rng.randint(1, min(j, 2)))
        for i in preds:
            edges.add((names[i], names[j]))
    for i in range(n - 1):
        if rng.random() < 0.35:
            edges.add((names[i], names[rng.randint(i + 1, n - 1)]))
    sources = {src for src, _ in edges}
    sinks = [v for v in names if v not in sources]
    effect = set(rng.sample(sinks, rng.randint(1, len(sinks)))) if sinks else set()
    for v in sinks:
        if v not in effect:
            edges.add((v, v))
    owners = _owners(rng, (v for v in names if v not in effect))
    return game_from_owners({**owners, **dict.fromkeys(effect, EFFECT)}, "v0", edges)


def cyclic_game(rng, max_states, budget=None):
    """Random digraph game: terminal effect vertices, and one to three
    out-edges to other vertices everywhere else.  Charges n vertices and 3n
    edges."""
    n = rng.randint(3, max_states)
    as_budget(budget).charge(n + 3 * n)
    names = [f"v{i}" for i in range(n)]
    effect = set(rng.sample(names[1:], rng.randint(1, max(1, n // 3))))
    live = [v for v in names if v not in effect]
    edges = set()
    for i, v in enumerate(names):
        if v not in effect:
            fanout = rng.randint(1, min(3, n - 1))
            for u in rng.sample(names[:i] + names[i + 1:], fanout):
                edges.add((v, u))
    owners = _owners(rng, live)
    return game_from_owners({**owners, **dict.fromkeys(effect, EFFECT)}, "v0", edges)


def boolean_sem(rng, max_variables, budget=None):
    """A random SEM of 1 to `max_variables` variables, X_{i+1} given by a
    truth table over X_1..X_i.  The 2^n - 1 entries in all cost one budget
    unit each, charged before any table is built, so an oversized SEM
    raises BudgetExceeded without allocating it."""
    n = rng.randint(1, max_variables)
    as_budget(budget).charge(2 ** n - 1)
    variables = tuple(f"X{i + 1}" for i in range(n))
    tables = tuple(
        tuple(rng.random() < 0.5 for _ in range(2 ** i)) for i in range(n)
    )
    return StructuralEquationModel(variables=variables, tables=tables)


def random_strategy(rng, game, player):
    owned = sorted(game.owned_by(player))
    return MDStrategy(
        player, {v: rng.choice(game.successors(v)) for v in owned}
    )
