"""Boolean structural equation models, their tree unrolling, but-for causes,
and the correspondence with Hamming-distance counterfactual causes.

Each variable is governed by a truth table over the lower-indexed variables.
Unrolling yields a full binary tree whose states are partial valuations: the
default child extends a node by the equation's value, the intervention child
by the flip, and intervention-entered states carry a distinguishing label.
`bridge_check` searches that tree implicitly, expanding only the valuations
it settles; `unroll_to_ts` builds it in full and is the reference the bridge
is tested against.
"""

from dataclasses import dataclass, replace
from itertools import chain, combinations, product

from .errors import BudgetExceeded, PreconditionViolated
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

MAX_UNROLL_VARIABLES = 16


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
    values = []
    for i in range(sem.n):
        values.append(sem.equation(i, values))
    return tuple(values)


def intervened_valuation(sem, intervened):
    """Mixed evaluation: equations everywhere except the intervened variables,
    which take the flip of their equation value (the only Boolean option)."""
    indices = {sem.index_of(x) for x in intervened}
    values = []
    for i in range(sem.n):
        v = sem.equation(i, values)
        values.append((not v) if i in indices else v)
    return tuple(values)


def is_but_for_cause(sem, effect, variables):
    """Minimal variable set whose forced flips steer the outcome out of the
    effect set.  Minimality is checked by exhausting proper subsets."""
    effect = frozenset(tuple(v) for v in effect)
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
    effect_set = frozenset(tuple(v) for v in effect)
    out = []
    for r in range(1, sem.n + 1):
        for xs in combinations(sem.variables, r):
            if intervened_valuation(sem, xs) not in effect_set:
                if is_but_for_cause(sem, effect, xs):
                    out.append(xs)
    return out


# ---------------------------------------------------------------------------
# tree unrolling


def state_id(bits):
    return "v" + "".join("1" if b else "0" for b in bits)


def unroll_to_ts(sem):
    """Unroll a SEM into its intervention-labeled valuation tree."""
    _check_unroll_size(sem)
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


def _check_unroll_size(sem):
    """The tree has 2**(n+1)-1 states; refuse SEMs past the cap."""
    if sem.n > MAX_UNROLL_VARIABLES:
        raise BudgetExceeded(
            f"unrolling {sem.n} variables needs {2 ** (sem.n + 1) - 1} states"
        )


def butfor_to_cause_set(sem, variables):
    """States entered by a default step for one of the given variables."""
    indices = sorted(sem.index_of(x) for x in variables)
    cause = set()
    for i in indices:
        for bits in product((False, True), repeat=i):
            default = sem.equation(i, bits)
            cause.add(state_id(bits + (default,)))
    return frozenset(cause)


def bridge_check(sem, effect, variables, witnesses=3):
    """Hamming cause check for the default execution against the cause states
    induced by a variable set.

    The answer is that of `check_cause_hamm_layered` on `unroll_to_ts(sem)`
    with the default path, `butfor_to_cause_set` and the leaves of the effect
    valuations, which the tests use as its reference.  The search runs on
    the tree without building it: a node is a bit tuple, its successors are
    its two one-bit extensions (False first), entering it by an intervention
    costs 1, and a default step for one of the variables enters a cause
    state and is left out.  Bit tuples order like their state ids, so
    `dijkstra` breaks ties and picks witnesses as on the unrolled tree;
    state ids are built for the witness paths only.  The tree is layered and
    its default path maximal by construction, so neither is validated.
    `MAX_UNROLL_VARIABLES` still applies: the bridge's document lists cause
    states and effect valuations extensionally.

    The induced cause set may include effect leaves (a default step for the
    last variable ends in a leaf), so the usual cause/effect disjointness is
    deliberately not enforced here; avoiding the cause set excludes those
    leaves from the comparison paths either way.
    """
    effect = frozenset(tuple(v) for v in effect)
    for v in effect:
        if len(v) != sem.n:
            raise PreconditionViolated("effect valuations must be total")
    if not variables:
        raise PreconditionViolated("an empty variable set induces no cause states")
    _check_unroll_size(sem)
    chosen = {sem.index_of(x) for x in variables}
    if evaluate_default(sem) not in effect:
        raise PreconditionViolated(
            "the given execution does not satisfy the effect property"
        )

    def successors(bits):
        depth = len(bits)
        if depth < sem.n:
            default = sem.equation(depth, bits)
            for bit in (False, True):
                if bit != default:
                    yield bits + (bit,), 1, "step"
                elif depth not in chosen:
                    yield bits + (bit,), 0, "step"

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
        query, ((), 0, successors, goal_class), _project_state_route, frozenset(), effect
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


def effect_from_json(sem, data):
    """Effect sets arrive as explicit valuation lists or as a predicate on the
    last k variables ({"last": k, "values": [...]}), expanded extensionally."""
    if isinstance(data, dict):
        k = required_field(data, "last", "effect")
        if type(k) is not int:  # a JSON true is a bool, which int() would take
            raise PreconditionViolated(
                f"effect.last: expected a JSON integer, got {type(k).__name__}"
            )
        if not 1 <= k <= sem.n:
            raise PreconditionViolated(f"predicate arity {k} out of range")
        accepted = set(_rows(required_field(data, "values", "effect"), "predicate values"))
        for v in accepted:
            if len(v) != k:
                raise PreconditionViolated("predicate rows must have length k")
        return frozenset(
            full
            for full in product((False, True), repeat=sem.n)
            if full[-k:] in accepted
        )
    out = set()
    for v in _rows(data, "effect"):
        if len(v) != sem.n:
            raise PreconditionViolated("effect valuations must be total")
        out.add(v)
    return frozenset(out)


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
