"""Exception taxonomy for opuclab.

Every failure mode that callers are expected to handle gets its own class so
that experiment drivers can convert specific numerical refusals (for instance
a measure that is not numerically in the Szego class) into skipped or failed
verdicts instead of crashes.  All classes derive from :class:`OpuclabError`.
"""


class OpuclabError(Exception):
    """Base class for all opuclab errors."""


class NonNormalizable(OpuclabError):
    """Measure input carries no mass and cannot be scaled to a probability."""


class NegativeInput(OpuclabError):
    """Weight samples or atom masses were negative."""


class InvalidAtoms(OpuclabError):
    """Atom list malformed: repeated angles, angles out of range, bad masses."""


class GridMismatch(OpuclabError):
    """Sampled data does not align with the measure's grid and atom layout."""


class AliasRisk(OpuclabError):
    """Requested trigonometric moment order exceeds the trusted band.

    Trapezoid moments of a sampled density alias above N/8; callers must
    enlarge the grid instead of silently reading folded spectra.
    """


class BoundaryPoint(OpuclabError):
    """Interior-only evaluation requested too close to the unit circle."""


class NotOnBoundary(OpuclabError):
    """Boundary-only evaluation requested off the unit circle."""


class NotSzego(OpuclabError):
    """Operation needs log-integrable density but a sample sits below w_floor."""


class DivisionBlowup(OpuclabError):
    """A Schur-function denominator vanished at 0 or at the requested point."""


class NearZeroArgument(OpuclabError):
    """Pointwise Schur iteration requested at |z| below the safe radius."""


class ContractivityLoss(OpuclabError):
    """A Schur iterate left the closed unit disk; input data is inconsistent."""


class ParameterEscape(OpuclabError):
    """A recurrence coefficient reached modulus 1 (degenerate measure)."""


class PositivityLoss(OpuclabError):
    """Moment data lost positive-definiteness during orthogonalization."""


class OutOfRange(OpuclabError):
    """Index beyond the stored coefficient range."""


class EntropyNegative(OpuclabError):
    """Computed relative entropy fell below the roundoff floor -1e-10."""


class IdentityCheckFailed(OpuclabError):
    """A built-in cross-check identity exceeded its tolerance."""


class FamilyValidationError(OpuclabError):
    """A builtin measure family failed its construction self-checks."""


class ConfigError(OpuclabError):
    """Experiment configuration malformed or inconsistent."""
