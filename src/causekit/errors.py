"""Exception types shared across the package."""


class CausekitError(Exception):
    """Base class for all causekit errors."""


class InvalidModel(CausekitError):
    """A transition system or game violates a structural invariant."""


class NotAPath(CausekitError):
    """A state sequence is not a path of the system."""


class NotMaximal(CausekitError):
    """A path does not end in a terminal state."""


class LengthMismatch(CausekitError):
    """Hamming distance applied to words of different lengths."""


class NotLayered(CausekitError):
    """The system does not assign a unique depth to every reachable state."""


class NotAcyclic(CausekitError):
    """An operation that needs an acyclic arena was given a cyclic one."""


class PreconditionViolated(CausekitError):
    """A query violates one of its stated preconditions."""


class BudgetExceeded(CausekitError):
    """An exact search exhausted its budget."""


class NoWinningStrategy(CausekitError):
    """The player has no winning strategy in the (sub)game at hand."""


class EmptyChoice(CausekitError):
    """An explanation names a vertex that has no alternative edge."""


class InvalidSpec(CausekitError):
    """A generator specification is malformed."""


class Budget:
    """Budget for exact searches.

    Exact searches charge one unit per candidate they enumerate (a strategy,
    a change set, a pin layer or, in the path oracle, a visited state) and
    raise BudgetExceeded instead of returning approximate answers.  A SEM
    document's expansions charge one unit per effect row and cause state.
    """

    DEFAULT_LIMIT = 10_000_000

    def __init__(self, limit=None):
        self.limit = self.DEFAULT_LIMIT if limit is None else int(limit)
        self.used = 0

    def charge(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"search budget of {self.limit} units exhausted"
            )


def as_budget(budget):
    """Coerce None or an int limit into a Budget instance."""
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)
