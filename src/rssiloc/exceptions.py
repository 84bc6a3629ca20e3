"""Exception types raised across the toolkit.

Grouped by the failure class they report so callers (and the CLI) can map
them to a coarse category: configuration, data, or numerical failure.
numpy's ``LinAlgError`` counts as a numerical failure too.
"""


class RssilocError(Exception):
    """Base class for all toolkit errors."""


# --- scene / geometry configuration -----------------------------------------

class SceneError(RssilocError):
    """Invalid scene or geometry configuration."""


class TooFewAnchors(SceneError):
    pass


class DegenerateGeometry(SceneError):
    """Anchors do not span two dimensions (collinear or coincident)."""


class CollinearAnchors(DegenerateGeometry):
    pass


# --- signal filtering --------------------------------------------------------

class SignalError(RssilocError):
    """Invalid filter input or parameters."""


class EmptySignal(SignalError):
    pass


class ZeroWindow(SignalError):
    pass


class NonPositiveSigma(SignalError):
    pass


# --- numerical failures in solvers -------------------------------------------

class NumericalError(RssilocError):
    """A solver could not produce a usable estimate."""


class NonPositiveDistance(NumericalError):
    pass


class NoIntersection(NumericalError):
    """Sphere intersection has no real solution beyond tolerance."""


class RankDeficient(NumericalError):
    """Design matrix does not have full column rank."""


class NotPositiveDefinite(NumericalError):
    """Bias correction exceeds the information in some row's weighted system.
    estimate_position("wls-bc") solves such rows by plain WLS instead."""


# --- learners -----------------------------------------------------------------

class LearnerError(RssilocError):
    pass


class EmptyDataset(LearnerError):
    pass


class EmptyTrainingSet(LearnerError):
    pass


class KTooLarge(LearnerError):
    pass


class ShapeMismatch(LearnerError):
    pass


class TooFewSamples(LearnerError):
    pass


# --- metrics -------------------------------------------------------------------

class MetricError(RssilocError):
    pass


class LengthMismatch(MetricError):
    pass


class EmptyMatrix(MetricError):
    pass


# --- dataset I/O -----------------------------------------------------------------

class IngestError(RssilocError):
    pass


class MissingColumn(IngestError):
    pass


class MalformedNumber(IngestError):
    """A cell is not a finite number, or a row is short; names the line."""


class UnmappedLocation(IngestError):
    """A location label has no zone assigned in the mapping."""


class IoFailure(IngestError):
    pass


# --- warnings ----------------------------------------------------------------------

class DegenerateWeightsWarning(UserWarning):
    """A row had no usable rhs variances; the solver fell back to unweighted LS."""
