"""Boolean structural equation models, their tree unrolling, but-for causes,
and the correspondence with Hamming-distance counterfactual causes.

Each variable is governed by a truth table over the lower-indexed variables.
Unrolling yields a full binary tree whose states are partial valuations: the
default child extends a node by the equation's value, the intervention child
by the flip, and intervention-entered states carry a distinguishing label.
`bridge_check` searches that tree implicitly, expanding only the valuations
it settles; `unroll_to_ts` builds it in full and is the reference the bridge
is tested against.

A `sem` document costs what it lists.  A predicate effect on the last k of n
variables builds its 2**(n-k) * |values| valuations and no others, and a
variable X_i adds 2**(i-1) cause states; both charge the budget one unit per
row or state before they are built.
"""

from dataclasses import dataclass, replace
from itertools import chain, combinations, product, starmap
from operator import add

from .errors import PreconditionViolated, as_budget
from .model import TransitionSystem, required_field
from .ts_causality import (
    METRIC_HAMM,
    PHI_REACH,
    CauseQuery,
    _project_state_route,
    _shortest_path_verdict,
)

LABEL_PLAIN = ""
LABEL_INTERVENTION = "intervention"


@dataclass(frozen=True)
class StructuralEquationModel:
    """Boolean SEM: tables[i] lists f_i over all prefixes of X_1..X_i-1.

    tables[i] has 2**i entries, indexed by reading the prefix bits as a
    binary number with the first variable as the most significant bit.
    """

    variables: tuple
    tables: tuple

    def __post_init__(self):
        if not self.variables:
            raise PreconditionViolated("a SEM needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            seen = set()
            for x in self.variables:
                if x in seen:
                    raise PreconditionViolated(f"duplicate variable {x!r}")
                seen.add(x)
        if len(self.tables) != len(self.variables):
            raise PreconditionViolated("one truth table per variable required")
        for i, table in enumerate(self.tables):
            if len(table) != 2 ** i:
                raise PreconditionViolated(
                    f"table for {self.variables[i]!r} must have {2 ** i} entries"
                )

    @property
    def n(self):
        return len(self.variables)

    def equation(self, index, prefix):
        """Value of f_index for the given prefix of variable values."""
        pos = 0
        for bit in prefix:
            pos = (pos << 1) | int(bit)
        return bool(self.tables[index][pos])

    def index_of(self, variable):
        try:
            return self.variables.index(variable)
        except ValueError:
            raise PreconditionViolated(f"unknown variable {variable!r}") from None


def evaluate_default(sem):
    """Evaluate all equations without interventions."""
    return intervened_valuation(sem, ())


def intervened_valuation(sem, intervened):
    """Mixed evaluation: equations everywhere except the intervened variables,
    which take the flip of their equation value (the only Boolean option)."""
    indices = {sem.index_of(x) for x in intervened}
    values = []
    for i in range(sem.n):
        v = sem.equation(i, values)
        values.append((not v) if i in indices else v)
    return tuple(values)


def _frozen(effect):
    """The effect valuations as a frozenset of tuples; a frozenset is taken
    as it is, so a caller that checks several questions freezes it once."""
    if type(effect) is frozenset:
        return effect
    return frozenset(map(tuple, effect))


def is_but_for_cause(sem, effect, variables):
    """Minimal variable set whose forced flips steer the outcome out of the
    effect set.  Minimality is checked by exhausting proper subsets."""
    effect = _frozen(effect)
    if evaluate_default(sem) not in effect:
        raise PreconditionViolated("the default valuation does not exhibit the effect")
    xs = tuple(sorted(variables, key=sem.index_of))
    if intervened_valuation(sem, xs) in effect:
        return False
    for r in range(len(xs)):
        for subset in combinations(xs, r):
            if intervened_valuation(sem, subset) not in effect:
                return False
    return True


def but_for_causes(sem, effect):
    """All but-for causes of the effect, as sorted variable tuples."""
    effect = _frozen(effect)
    out = []
    for r in range(1, sem.n + 1):
        for xs in combinations(sem.variables, r):
            if intervened_valuation(sem, xs) not in effect:
                if is_but_for_cause(sem, effect, xs):
                    out.append(xs)
    return out


# ---------------------------------------------------------------------------
# tree unrolling


def state_id(bits):
    return "v" + "".join("1" if b else "0" for b in bits)


def unroll_to_ts(sem):
    """Unroll a SEM into its intervention-labeled valuation tree."""
    states = []
    labeling = {}
    transitions = set()
    for level in range(sem.n + 1):
        for bits in product((False, True), repeat=level):
            sid = state_id(bits)
            states.append(sid)
            if level == 0:
                labeling[sid] = LABEL_PLAIN
            else:
                default = sem.equation(level - 1, bits[:-1])
                labeling[sid] = (
                    LABEL_PLAIN if bits[-1] == default else LABEL_INTERVENTION
                )
            if level < sem.n:
                transitions.add((sid, state_id(bits + (False,))))
                transitions.add((sid, state_id(bits + (True,))))
    return TransitionSystem(
        states=tuple(sorted(states)),
        initial=state_id(()),
        transitions=frozenset(transitions),
        labeling=labeling,
        alphabet=(LABEL_PLAIN, LABEL_INTERVENTION),
    )


def butfor_to_cause_set(sem, variables, budget=None):
    """States entered by a default step for one of the given variables.

    The default step for X_(i+1) from prefix number `pos` enters the state
    whose id is the i prefix bits followed by `tables[i][pos]`, so each id
    is formatted from the table's index and value.  The 2**i states of each
    variable are charged to `budget` (an int limit, or None for the
    default) before any is built.
    """
    indices = {sem.index_of(x) for x in variables}
    as_budget(budget).charge(sum(2 ** i for i in indices))
    cause = set()
    for i in indices:
        table = sem.tables[i]
        if i == 0:  # no prefix bits: format(0, "00b") would still give "0"
            cause.add(state_id((table[0],)))
            continue
        spec = f"0{i}b"
        cause.update(
            f"v{pos:{spec}}{'1' if value else '0'}" for pos, value in enumerate(table)
        )
    return frozenset(cause)


def bridge_check(sem, effect, variables, witnesses=3):
    """Hamming cause check for the default execution against the cause states
    induced by a variable set.

    The answer is that of `check_cause_hamm_layered` on `unroll_to_ts(sem)`
    with the default path, `butfor_to_cause_set` and the leaves of the effect
    valuations, which the tests use as its reference.  The search runs on
    the tree without building it: a node is a bit tuple, its zero-weight
    edge is the default step, its one-bit extension by the equation's value,
    and its positive-weight edge the intervention, the other extension, which
    costs 1.  A default step for one of the variables enters a cause state
    and is left out.  Bit tuples order like their state ids, so
    `dijkstra` breaks ties and picks witnesses as on the unrolled tree;
    state ids are built for the witness paths only.  The tree is layered and
    its default path maximal by construction, so neither is validated.

    The induced cause set may include effect leaves (a default step for the
    last variable ends in a leaf), so the usual cause/effect disjointness is
    deliberately not enforced here; avoiding the cause set excludes those
    leaves from the comparison paths either way.
    """
    effect = _frozen(effect)
    if not set(map(len, effect)) <= {sem.n}:
        raise PreconditionViolated("effect valuations must be total")
    if not variables:
        raise PreconditionViolated("an empty variable set induces no cause states")
    chosen = {sem.index_of(x) for x in variables}
    if evaluate_default(sem) not in effect:
        raise PreconditionViolated(
            "the given execution does not satisfy the effect property"
        )

    def default_step(bits):
        depth = len(bits)
        if depth < sem.n and depth not in chosen:
            yield bits + (sem.equation(depth, bits),), 0, "step"

    def intervention(bits):
        depth = len(bits)
        if depth < sem.n:
            yield bits + (not sem.equation(depth, bits),), 1, "step"

    def goal_class(bits):
        if len(bits) < sem.n:
            return None
        return "effect" if bits in effect else "other"

    # Every inner node keeps its intervention child, so a leaf is always
    # reached and the verdict never consults the (absent) system.
    query = CauseQuery(
        ts=None,
        pi=None,
        cause=frozenset(),
        effect=effect,
        phi=PHI_REACH,
        metric=METRIC_HAMM,
        witnesses=witnesses,
    )
    verdict = _shortest_path_verdict(
        query, ((), 0, (default_step, intervention), goal_class), _project_state_route,
        frozenset(), effect
    )
    return replace(
        verdict,
        witnesses=tuple(
            replace(w, path=tuple(map(state_id, w.path))) for w in verdict.witnesses
        ),
    )


# ---------------------------------------------------------------------------
# file format


def sem_to_json(sem):
    return {
        "kind": "sem",
        "variables": list(sem.variables),
        "tables": [[bool(x) for x in t] for t in sem.tables],
    }


def sem_from_json(data):
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != "sem":
        raise PreconditionViolated(f"not a SEM document: kind={kind!r}")
    variables = required_field(data, "variables", "model")
    if not isinstance(variables, list) or not all(isinstance(x, str) for x in variables):
        raise PreconditionViolated("variables must be an array of strings")
    tables = _rows(required_field(data, "tables", "model"), "tables")
    return StructuralEquationModel(variables=tuple(variables), tables=tuple(tables))


def effect_from_json(sem, data, budget=None):
    """The effect's valuations, distinct and sorted, as a tuple of tuples.

    Effect sets arrive as explicit valuation lists or as a predicate on the
    last k variables ({"last": k, "values": [...]}).  A predicate builds
    only its 2**(n-k) * |values| valuations, each as a prefix of the first
    n-k variables followed by an accepted row; prefixes and rows are taken
    in sorted order, so the valuations come out sorted.  One unit per
    valuation built is charged to `budget` (as in `butfor_to_cause_set`)
    before any is built.
    """
    if isinstance(data, dict):
        k = required_field(data, "last", "effect")
        if type(k) is not int:  # a JSON true is a bool, which int() would take
            raise PreconditionViolated(
                f"effect.last: expected a JSON integer, got {type(k).__name__}"
            )
        if not 1 <= k <= sem.n:
            raise PreconditionViolated(f"predicate arity {k} out of range")
        values = _rows(required_field(data, "values", "effect"), "predicate values")
        accepted = sorted(set(values))
        if not set(map(len, accepted)) <= {k}:
            raise PreconditionViolated("predicate rows must have length k")
        as_budget(budget).charge(2 ** (sem.n - k) * len(accepted))
        if not accepted:  # product would still build every prefix
            return ()
        prefixes = product((False, True), repeat=sem.n - k)
        return tuple(starmap(add, product(prefixes, accepted)))
    rows = _rows(data, "effect")
    if not set(map(len, rows)) <= {sem.n}:
        raise PreconditionViolated("effect valuations must be total")
    as_budget(budget).charge(len(rows))
    return tuple(sorted(set(rows)))


def _rows(data, what):
    """A JSON array of arrays of Booleans, each row as a tuple; the first
    entry that is not a Boolean is named."""
    if not isinstance(data, list) or not all(isinstance(v, list) for v in data):
        raise PreconditionViolated(f"{what} must be an array of arrays")
    rows = list(map(tuple, data))
    if not set(map(type, chain.from_iterable(rows))) <= {bool}:
        for i, row in enumerate(rows):
            for j, b in enumerate(row):
                if type(b) is not bool:
                    raise PreconditionViolated(
                        f"{what}[{i}][{j}]: expected a JSON Boolean, got {type(b).__name__}"
                    )
    return rows
