"""Exception taxonomy shared across the package."""


class HurwitzTauError(Exception):
    """Base class for all package-specific failures."""


# --- cover combinatorics ---

class CoverDataError(HurwitzTauError):
    """Invalid permutation/critical-value data."""


class NonTransitive(CoverDataError):
    """Monodromy group does not act transitively: the cover is disconnected."""


class ProductNotIdentity(CoverDataError):
    """Monodromies fail to compose to the identity in the declared cut order."""


class DuplicateCriticalValue(CoverDataError):
    """Two branch records share the same critical value."""


class NonIntegerGenus(CoverDataError):
    """Riemann-Hurwitz count is odd: inconsistent ramification data."""


class NegativeGenus(CoverDataError):
    """Riemann-Hurwitz count is negative: inconsistent ramification data."""


# --- special functions ---

class DomainError(HurwitzTauError):
    """Argument outside the supported domain."""


class LossOfPrecision(HurwitzTauError):
    """Result cannot be certified to the requested accuracy."""


class TruncationFailure(HurwitzTauError):
    """Theta lattice sum would need a truncation radius above the cap."""


class DegenerateInput(HurwitzTauError):
    """Zero polynomial or otherwise degenerate algebraic input."""


class NonConvergence(HurwitzTauError):
    """Iterative solver hit its iteration cap without certifying the result."""


class CriticalPointSingularity(HurwitzTauError):
    """Schwarzian evaluation at a point where f'(w) = 0."""


# --- curve geometry ---

class CurveGeometryError(HurwitzTauError):
    """Base class for Riemann-surface-layer failures."""


class IllConditionedPeriods(CurveGeometryError):
    """Near-degenerate branch configuration: a-period system badly conditioned."""


class PeriodQuadratureFailure(CurveGeometryError):
    """A pair-loop period integral missed its doubling-certificate target."""


class SheetTrackingLoss(CurveGeometryError):
    """Analytic continuation of y could not be tracked reliably."""


class DiagonalTooClose(CurveGeometryError):
    """Bidifferential evaluation requested too close to the diagonal."""


class ExtrapolationUnstable(CurveGeometryError):
    """Richardson estimates disagree beyond tolerance."""


class CharacteristicSingular(CurveGeometryError):
    """All first theta derivatives vanish for the chosen odd characteristic."""


class WrongOrder(CurveGeometryError):
    """Local expansion inconsistent with the declared divisor order."""


class LatticeResolutionFailure(CurveGeometryError):
    """A lattice vector could not be identified within tolerance."""


class ChartBranchInconsistency(HurwitzTauError):
    """Distinguished-chart branch could not be matched across a handoff."""


# --- tau functions ---

class NormalizationFailure(HurwitzTauError):
    """The uniformizing map cannot be normalized at the designated end."""


class DegenerateCriticalPoint(HurwitzTauError):
    """Second derivative vanishes at a critical point where simplicity is required."""


# --- cone spectra ---

class FitUnstable(HurwitzTauError):
    """Asymptotic regression did not converge to a stable fit."""


class PhaseUnwrappingFailure(HurwitzTauError):
    """Determinant phase could not be unwrapped along the sequence."""
