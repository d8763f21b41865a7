"""Exception types shared across the package."""


class TubeformError(Exception):
    """Base class for all package errors."""


class NotHurwitz(TubeformError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class SingularSystem(TubeformError):
    """A linear system arising in a solver is numerically singular."""


class NonFiniteState(TubeformError):
    """An integration step produced NaN or Inf components."""


class GraphNotRooted(TubeformError):
    """The augmented graph has no spanning tree rooted at the leader."""


class InfeasibleLeaderTube(TubeformError):
    """The leader tube feasibility condition is violated."""


class EmptyTightenedSet(TubeformError):
    """Input tightening removed the entire input box."""


class DegenerateGradient(TubeformError):
    """Barrier gradient is undefined (state at the obstacle center)."""


class RiccatiDiverged(TubeformError):
    """The discrete Riccati fixed-point iteration failed to converge."""


class DimensionMismatch(TubeformError):
    """Operands with incompatible shapes were combined."""


class CascadedInfeasibility(TubeformError):
    """An agent exhausted its fallback plan after consecutive infeasible solves."""


class ScenarioError(TubeformError):
    """A scenario file failed to parse or validate."""
