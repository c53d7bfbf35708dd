"""Exception types shared across the package."""


class TwinSourceError(Exception):
    """Base class for all domain errors raised by this package."""


# materials
class OutOfValidityWindow(TwinSourceError):
    """Dispersion model queried outside its declared wavelength/composition range."""


class AboveBandgap(TwinSourceError):
    """Real-index evaluation requested at a photon energy at or above the alloy gap."""


# stack
class NoResonanceInWindow(TwinSourceError):
    """No reflectance dip found in the requested wavelength window."""


class MultipleResonances(TwinSourceError):
    """More than one reflectance dip found where exactly one was required."""


# modes
class NoGuidedMode(TwinSourceError):
    """The dispersion relation has no root in the guided-index window."""


class NonGuidingStack(NoGuidedMode):
    """No layer index exceeds both outer media; the structure cannot guide."""


# phasematch
class NoSolutionInWindow(TwinSourceError):
    """Energy/momentum conservation has no root in the spectral search window."""


# spectra
class KernelUnderResolved(TwinSourceError):
    """Convolution kernel narrower than two grid steps; ``fwhm_nm`` is its width."""

    def __init__(self, message: str, fwhm_nm: float):
        super().__init__(message)
        self.fwhm_nm = fwhm_nm


class NoPeak(TwinSourceError):
    """Spectrum has no unique global maximum."""


class HalfMaxNotBracketed(TwinSourceError):
    """Half-maximum level is not crossed on both sides of the peak."""


# efficiency
class DivisionDomain(TwinSourceError):
    """Parameter combination puts a denominator at zero (e.g. T_up = 0)."""


class NonPhysicalInput(TwinSourceError):
    """Input outside its physical range (negative power, efficiency > 1, ...)."""


# hom
class NoConvergence(TwinSourceError):
    """Iterative fit failed to converge."""


class DegenerateScan(TwinSourceError):
    """Scan data contain no dip resolvable above the noise."""


# cli / config
class ConfigError(TwinSourceError):
    """Device configuration file is malformed or violates an invariant."""
