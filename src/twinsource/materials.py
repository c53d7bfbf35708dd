"""Refractive-index dispersion of Al(x)Ga(1-x)As alloys.

All wavelengths are vacuum wavelengths in nanometres; photon energies in eV.
The default model is the single-effective-oscillator interband model of the
Adachi family, with the widely used coefficient set

    A(x)       = 6.3 + 19.0 x
    B(x)       = 9.4 - 10.2 x
    E0(x)      = 1.425 + 1.155 x + 0.37 x^2          (direct gap, eV)
    E0so(x)    = 1.765 + 1.115 x + 0.37 x^2          (gap + spin-orbit, eV)
    n^2        = A [ f(chi) + f(chi_so)/2 (E0/E0so)^1.5 ] + B
    f(chi)     = (2 - sqrt(1+chi) - sqrt(1-chi)) / chi^2,   chi = E/E0

This is a below-gap (transparent) model: the real-index API refuses photon
energies at or above the gap rather than silently returning the real part.
An explicit complex evaluation is provided for the one place the toolkit
legitimately needs an absorbing medium (the GaAs substrate at the pump
wavelength); there sqrt(1-chi) continues to +i*sqrt(chi-1) so that Im(n) >= 0
with the exp(-i w t) time convention.

A scalar wavelength is evaluated in plain ``math`` floats and an array in
numpy, through one n^2 formula taking its square root as an argument (the same
floats, ``==``, and the same errors); both read an Al fraction's E0, E0so,
(E0/E0so)^1.5, A and B, computed once per model from read-only coefficients.
A float fraction at a float wavelength, both inside their windows, takes no
array-generic check (``_terms``); any other argument takes them all.

``get_model`` looks a model up by name (the ``dispersion.model`` config key);
a ``DispersionModel`` with other coefficients can be passed to any function
that takes ``model``, and every result can be traced back to the model name.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import FRACTION, REAL, AboveBandgap, OutOfValidityWindow, record, require

# exact in the 2019 SI
PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0
ELEMENTARY_CHARGE_C = 1.602176634e-19

# h*c in eV*nm, for lambda <-> photon energy conversion
HC_EV_NM = PLANCK_J_S * LIGHT_SPEED_M_S / ELEMENTARY_CHARGE_C * 1e9


class Composition(record("Composition", "x")):
    """Aluminum mole fraction of Al(x)Ga(1-x)As, dimensionless in [0, 1]."""

    __slots__ = ()

    def __new__(cls, x: float):
        return tuple.__new__(cls, (require(x, FRACTION, "aluminum fraction"),))


GAAS = Composition(0.0)
_ADACHI_1985 = {
    "a": (6.3, 19.0),
    "b": (9.4, -10.2),
    "e0": (1.425, 1.155, 0.37),
    "e0_so": (1.765, 1.115, 0.37),
}


X_WINDOW = (0.0, 1.0)  # the Al fractions every model covers
NEAR_GAP_MARGIN = 0.995  # cap on chi = E/E0: past it the index is complex and the real API raises


class DispersionModel(record("DispersionModel", "name coefficients wavelength_window_nm")):
    """A published index formula plus its coefficient table and validity window.

    ``coefficients`` holds the quadratic-in-x expansions keyed by symbol name
    (the Adachi 1985 set when not given), stored read-only. Every model covers
    the fractions ``X_WINDOW`` and refuses a real index past ``NEAR_GAP_MARGIN``.
    """

    def __new__(
        cls,
        name: str,
        coefficients: dict | None = None,
        wavelength_window_nm: tuple = (550.0, 4000.0),
    ):
        given = _ADACHI_1985 if coefficients is None else coefficients
        coefficients = MappingProxyType({k: tuple(v) for k, v in given.items()})
        self = super().__new__(cls, name, coefficients, wavelength_window_nm)
        self._constants = lru_cache(maxsize=64, typed=True)(self._alloy)
        return self

    def __reduce__(self):  # rebuilt from its fields: the mapping and the cache do not pickle
        return type(self), (self.name, dict(self.coefficients), *self[2:])

    def gap_energy_ev(self, x: float) -> float:
        return self._constants(_fraction(x))[0]

    def _alloy(self, x: float):
        """(E0, E0so, (E0/E0so)^1.5, A, B) at Al fraction x, kept per x and its type."""
        (c0, c1, c2), (s0, s1, s2) = self.coefficients["e0"], self.coefficients["e0_so"]
        (a0, a1), (b0, b1) = self.coefficients["a"], self.coefficients["b"]
        e0, e0_so = c0 + c1 * x + c2 * x * x, s0 + s1 * x + s2 * x * x
        return e0, e0_so, (e0 / e0_so) ** 1.5, a0 + a1 * x, b0 + b1 * x

    def _terms(self, x: float, wavelength_nm):
        """(scalar, chi terms): the wavelength checked (NaN is outside) as a
        float or a float array, and the fraction checked. A float fraction at
        a float wavelength, both inside their windows, takes no other check."""
        (lo, hi), (xlo, xhi) = self.wavelength_window_nm, X_WINDOW
        scalar, lam = True, wavelength_nm
        if not (type(lam) is float and type(x) is float and lo <= lam <= hi and xlo <= x <= xhi):
            scalar = isinstance(wavelength_nm, float) or np.isscalar(wavelength_nm)
            lam = float(wavelength_nm) if scalar else np.asarray(wavelength_nm, dtype=float)
            if not ((lo <= lam <= hi) if scalar else (np.all(lo <= lam) and np.all(lam <= hi))):
                shown = f"{lam.min()}..{lam.max()}" if np.ndim(lam) else f"{wavelength_nm}"
                raise OutOfValidityWindow(
                    f"wavelength {shown} nm outside model '{self.name}' "
                    f"window [{lo}, {hi}] nm"
                )
            if not (xlo <= _fraction(x) <= xhi):
                raise OutOfValidityWindow(
                    f"composition x={x} outside model '{self.name}' window [{xlo}, {xhi}]"
                )
        e0, e0_so, ratio, a, b = self._constants(x)
        return scalar, (HC_EV_NM / lam / e0, HC_EV_NM / lam / e0_so, ratio, a, b)

    def _n_squared(self, chi_terms, sqrt, complex_root=None):
        """n^2 from the chi terms of a float (``sqrt`` is ``math.sqrt``) or of
        an array (``np.sqrt``), f(chi) = (2 - sqrt(1+chi) - sqrt(1-chi)) / chi^2
        at chi and chi_so; ``complex_root`` continues sqrt(1-chi) past the gap.

        chi * chi is numpy's square (Python's chi**2 calls ``pow``), and numpy
        divides a complex by a real as a product with the reciprocal, so a
        float and an array give the same floats.
        """
        chi, chi_so, ratio, a, b = chi_terms
        root = complex_root or sqrt
        top = 2.0 - sqrt(1.0 + chi) - root(1.0 - chi)
        top_so = 2.0 - sqrt(1.0 + chi_so) - root(1.0 - chi_so)
        if complex_root is None:
            f_main, f_so = top / (chi * chi), top_so / (chi_so * chi_so)
        else:
            f_main, f_so = top * (1.0 / (chi * chi)), top_so * (1.0 / (chi_so * chi_so))
        return a * (f_main + 0.5 * f_so * ratio) + b

    def evaluate(self, x: float, wavelength_nm):
        """Real below-gap refractive index. Raises above the gap. A float for
        a scalar wavelength, an array for an array: the same floats (``==``)."""
        scalar, terms = self._terms(x, wavelength_nm)
        chi, chi_so = terms[:2]
        above = (chi > NEAR_GAP_MARGIN) | (chi_so > NEAR_GAP_MARGIN)
        if (above if scalar else above.any()):
            raise AboveBandgap(
                f"photon energy at or above {100 * NEAR_GAP_MARGIN:.1f}% of the "
                f"Al(x={x}) gap energy: model '{self.name}' index is complex there"
            )
        sqrt = math.sqrt if scalar else np.sqrt
        return sqrt(self._n_squared(terms, sqrt))

    def evaluate_complex(self, x: float, wavelength_nm):
        """Complex index n + i*kappa, valid above the gap (kappa >= 0). A
        complex for a scalar wavelength, an array for an array (``==``)."""
        scalar, terms = self._terms(x, wavelength_nm)
        if scalar:
            n = cmath.sqrt(self._n_squared(terms, math.sqrt, _complex_root))
            return n.conjugate() if n.imag < 0 else n
        n = np.sqrt(self._n_squared(terms, np.sqrt, lambda v: np.sqrt(v.astype(complex))))
        return np.where(np.imag(n) < 0, np.conj(n), n)


def _fraction(x):
    """``x``, unless it is no real scalar (a 0-d array, a list): ValueError.
    It is not converted, so a float32 fraction keeps its floats."""
    return x if type(x) is float else require(x, REAL, "aluminum fraction")


def _complex_root(v: float) -> complex:
    """sqrt(v) of a float as a complex, +i sqrt(-v) below zero, as numpy's."""
    return complex(math.sqrt(v), 0.0) if v >= 0 else complex(0.0, math.sqrt(-v))


DEFAULT_MODEL = DispersionModel(name="adachi1985")


def get_model(name: str | None = None) -> DispersionModel:
    """The shipped model, by its name (the ``dispersion.model`` config key) or None."""
    if name is None or name == DEFAULT_MODEL.name:
        return DEFAULT_MODEL
    raise OutOfValidityWindow(f"no dispersion model named '{name}'")


def refractive_index(c: Composition, wavelength_nm, model: DispersionModel | None = None):
    """Below-gap real refractive index of Al(x)Ga(1-x)As at a vacuum wavelength."""
    m = model or DEFAULT_MODEL
    return m.evaluate(c.x, wavelength_nm)


def complex_refractive_index(
    c: Composition, wavelength_nm, model: DispersionModel | None = None
):
    """Complex index for absorbing media (above-gap substrate evaluation)."""
    m = model or DEFAULT_MODEL
    return m.evaluate_complex(c.x, wavelength_nm)
