"""Exception types shared across the package, and the one set of argument rules.

A rule is (test, what it asks for); ``require`` raises "<name> must be <what>,
got <value>" for a value that fails it. The config and CLI flags raise
ConfigError, ``efficiency`` NonPhysicalInput, every other module ValueError.
Every wavelength and angle sweep is built by ``sweep``, at most ``MAX_SWEEP_POINTS`` long.
"""

import numbers
import sys
from collections import namedtuple

import numpy as np

_MAX = sys.float_info.max
MAX_SWEEP_POINTS = 10**6  # longest sweep, grid or HOM scan, held in memory whole


def number(v) -> bool:
    """A finite real number, not a bool: a float or an int compared as it is (no
    OverflowError), another real (numpy's float32) as a float (no cast warning)."""
    if type(v) is float or type(v) is int:
        return -_MAX <= v <= _MAX
    return type(v) is not bool and isinstance(v, numbers.Real) and -_MAX <= float(v) <= _MAX


NUMBER = (number, "a finite number")
REAL = (lambda v: type(v) is not bool and isinstance(v, numbers.Real), "a real number")
POSITIVE = (lambda v: number(v) and v > 0, "a finite number > 0")
NON_NEGATIVE = (lambda v: number(v) and v >= 0, "a finite number >= 0")
FRACTION = (lambda v: number(v) and 0 <= v <= 1, "a number in [0, 1]")
BELOW_ONE = (lambda v: number(v) and 0 <= v < 1, "a number in [0, 1)")
ANGLE = (lambda v: number(v) and abs(v) < 90.0, "an angle strictly between -90 and 90 degrees")
WINDOW = (
    lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(number, v)) and v[0] < v[1],
    "two finite wavelengths lo < hi in nm",
)
LENGTH_MM = (  # a length in mm that nm-scale arithmetic takes as a finite number
    lambda v: POSITIVE[0](v) and float(v) * 1e6 <= _MAX,
    "a finite number > 0 that stays finite in nm",
)
POLARIZATION = (lambda v: isinstance(v, str) and v in ("TE", "TM"), '"TE" or "TM"')
AMBIENT_INDEX = (  # no index below vacuum's, and none a transparent medium comes near
    lambda v: number(v) and 1 <= v <= 10,
    "a finite number from 1 to 10",
)
SQUARABLE = (  # a wavelength the HOM formulas square: its square a normal double, not 0 or inf
    lambda v: POSITIVE[0](v) and sys.float_info.min <= float(v) * float(v) <= _MAX,
    "a finite number > 0 whose square is a normal double",
)


def require(value, rule, name: str, error=ValueError):
    """``value``, or ``error`` naming ``name`` unless it passes ``rule``."""
    if not rule[0](value):
        raise error(f"{name} must be {rule[1]}, got {value!r}")
    return value


def sweep(lo, hi, step, name: str) -> np.ndarray:
    """lo, lo + step, ... up to hi (inclusive, to rounding), for a step > 0; SweepSizeError,
    before any allocation, if that is empty, over ``MAX_SWEEP_POINTS`` or ends past the doubles."""
    if not (lo <= hi and (float(hi) - float(lo)) / float(step) + 1 <= MAX_SWEEP_POINTS):
        raise SweepSizeError(
            f"{name} sweep [{lo}, {hi}] at step {step} is empty or over {MAX_SWEEP_POINTS} points"
        )
    n = int(round((hi - lo) / step))
    if not number(float(lo) + float(step) * n):  # in Python floats: no overflow warning
        raise SweepSizeError(f"{name} sweep [{lo}, {hi}] at step {step} ends past the double range")
    return lo + step * np.arange(n + 1)


def record(name: str, fields, defaults=None):
    """A ``namedtuple`` base whose ``_make`` and ``_replace`` build through ``__new__``."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class TwinSourceError(Exception):
    """Base class for all domain errors raised by this package."""


# sweep
class SweepSizeError(TwinSourceError, ValueError):
    """A sweep (``sweep``) with no point, or more than ``MAX_SWEEP_POINTS``."""


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


class MissingRegion(TwinSourceError):
    """The stack has no region of a name the computation looks up."""


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
