"""Exception types raised by the toolkit."""


class LevyNoiseError(Exception):
    """Base class for all toolkit errors."""


# --- jump-size measure validation ---

class MeasureError(LevyNoiseError, ValueError):
    """Invalid jump-size measure description."""


class AtomAtZeroError(MeasureError):
    """An atomic measure placed mass at z = 0."""


class NonPositiveMassError(MeasureError):
    """An atom or density carries mass <= 0."""


class InfiniteTotalMassError(MeasureError):
    """The measure has infinite total mass; truncate before validating."""


class InfiniteSecondMomentError(MeasureError):
    """The second absolute moment of the jump sizes diverges."""


class InfinitePMomentError(MeasureError):
    """A required p-th absolute moment is not finite."""


class QuadratureError(LevyNoiseError):
    """Numerical quadrature failed to converge."""


# --- combinatorics ---

class SizeLimitError(LevyNoiseError, ValueError):
    """A partition enumeration or a moment order past its declared cap."""


class MissingCumulantError(LevyNoiseError, KeyError):
    """A cumulant needed by the moment formula was not supplied."""


class UnboundedSupportError(LevyNoiseError, ValueError):
    """A step function or kernel has non-finite support."""


# --- simulation / evaluation ---

class WindowExceededError(LevyNoiseError, ValueError):
    """An evaluation reads noise outside the sampled window."""


class PointCountError(LevyNoiseError, ValueError):
    """A sampling call expects more points than the sampler's cap."""


# --- predictable processes ---

class ProcessError(LevyNoiseError, ValueError):
    """Invalid simple-process description."""


class HorizonViolationError(ProcessError):
    """A coefficient reads noise at or beyond its own interval (not predictable)."""


class BreakpointOrderError(ProcessError):
    """Process breakpoints are not strictly increasing."""


class UnboundedCoefficientError(ProcessError):
    """A coefficient functional has no finite bound."""


# --- convolution bound ---

class InfiniteNuTError(LevyNoiseError):
    """The kernel p-th power space-time integral diverges on the grid."""


# --- harness ---

class ConfigError(LevyNoiseError, ValueError):
    """Experiment configuration is malformed."""


class UnknownCheckError(ConfigError):
    """Experiment configuration names a check type that does not exist."""


class DegenerateVarianceError(LevyNoiseError):
    """All Monte Carlo samples are identical but differ from the target."""
