"""Exception types shared across the package."""


class DiskrodError(Exception):
    """Base class for all diskrod errors."""


class TooFewPoints(DiskrodError):
    """Curve has fewer points than the derivative stencils require."""


class DegenerateSegment(DiskrodError):
    """Two consecutive curve points coincide."""


class TooFewValidSamples(DiskrodError):
    """Not enough well-defined samples to fit a smoothing spline."""


class InvalidParams(DiskrodError):
    """Clustering parameters out of range (eps not finite and > 0, or min_pts < 1)."""


class ClusterCountMismatch(DiskrodError):
    """Number of clusters found differs from the expected disk count."""

    def __init__(self, found: int, expected: int):
        super().__init__(f"found {found} clusters, expected {expected}")
        self.found = found
        self.expected = expected


class DimensionMismatch(DiskrodError):
    """Degree-of-freedom vector, disk-angle count or ``warm_hess_inv`` has the
    wrong size for the configuration."""


class NonFiniteEnergy(DiskrodError):
    """Energy evaluated to NaN or infinity (bad configuration)."""


class SolverNotConverged(DiskrodError):
    """Equilibrium solve failed to reach the gradient tolerance."""


class InvalidBracket(DiskrodError):
    """Golden-section bracket is empty or inverted."""


class IndexRangeInvalid(DiskrodError):
    """Shape RMSE index range outside [0, n_disks] or inverted."""


class EmptyOverlap(DiskrodError):
    """Two profiles share no arc-length overlap."""
