"""Distance-based counterfactual causality for transition systems and
two-player reachability games, with strategy-repair explanations."""

from .errors import (
    Budget,
    BudgetExceeded,
    CausekitError,
    EmptyChoice,
    InvalidModel,
    InvalidSpec,
    LengthMismatch,
    NoWinningStrategy,
    NotAPath,
    NotLayered,
    PreconditionViolated,
)
from .model import (
    MaximalFinitePath,
    MDStrategy,
    ReachabilityGame,
    TransitionSystem,
    validate_maximal_path,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CausekitError",
    "EmptyChoice",
    "InvalidModel",
    "InvalidSpec",
    "LengthMismatch",
    "MaximalFinitePath",
    "MDStrategy",
    "NoWinningStrategy",
    "NotAPath",
    "NotLayered",
    "PreconditionViolated",
    "ReachabilityGame",
    "TransitionSystem",
    "validate_maximal_path",
]

__version__ = "0.1.0"
