"""Cache placement and performance analysis for clustered D2D content delivery."""

from . import asymptotics, fitting, policy, popularity, simulator
from .asymptotics import *  # noqa: F403
from .errors import ConfigError, DomainError, InvariantError, RegimeError
from .fitting import *  # noqa: F403
from .policy import *  # noqa: F403
from .popularity import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(["ConfigError", "DomainError", "InvariantError", "RegimeError",
                  *asymptotics.__all__, *fitting.__all__, *policy.__all__,
                  *popularity.__all__, *simulator.__all__])
