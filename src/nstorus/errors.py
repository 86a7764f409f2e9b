"""Exception types shared across the package; all derive from NstorusError."""


class NstorusError(Exception):
    """Base class of every error the package raises on purpose."""


class SpectralError(NstorusError):
    """Base class for field construction and transform errors."""


class ZeroMode(SpectralError):
    """The mean mode k=(0,0) is structurally excluded."""


class InconsistentConjugatePair(SpectralError):
    """Both +/-k were supplied but violate conj(u_k) = -u_{-k}."""


class ResolutionMismatch(SpectralError):
    """Grid or mode resolution incompatible with the requested operation."""


class OracleCapExceeded(SpectralError):
    """Brute-force oracle refused a resolution above its fixed cap (nonlinear.ORACLE_CAP)."""


class InadmissibleParams(NstorusError):
    """Parameter tuple failed the required admissibility gate."""


class SmallnessBoundViolation(NstorusError):
    """No positive local time satisfies the smallness bound at the configured constants."""


class UnboundedConstant(NstorusError):
    """No probe of the empirical estimator gave a constant a positive bound."""


class NonConvergent(NstorusError):
    """Picard iteration exhausted its budget without meeting tolerance."""


class CutoffExhausted(NstorusError):
    """Splitting cutoff reached the resolution limit before meeting the target."""


class SmallnessViolation(NstorusError):
    """Rough-part data exceeded the configured smallness thresholds."""


class NonFiniteField(NstorusError):
    """A field coefficient became non-finite (blow-up signal)."""
