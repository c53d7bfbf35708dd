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

Alternative coefficient sets can be registered at runtime or loaded from a
JSON document, and every result can be traced back to the model name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import c, e, h

from .errors import AboveBandgap, OutOfValidityWindow

# h*c in eV*nm, for lambda <-> photon energy conversion
HC_EV_NM = h * c / e * 1e9


@dataclass(frozen=True)
class Composition:
    """Aluminum mole fraction of Al(x)Ga(1-x)As, dimensionless in [0, 1]."""

    x: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0):
            raise ValueError(f"aluminum fraction must be in [0, 1], got {self.x}")


GAAS = Composition(0.0)


@dataclass(frozen=True)
class DispersionModel:
    """A published index formula plus its coefficient table and validity window.

    ``coefficients`` holds the quadratic-in-x expansions keyed by symbol name.
    ``near_gap_margin`` caps chi = E/E0: beyond it the model is considered
    above-gap (complex index regime) and the real-index API raises.
    """

    name: str
    kind: str = "adachi_algaas"
    coefficients: dict = field(
        default_factory=lambda: {
            "a": (6.3, 19.0),
            "b": (9.4, -10.2),
            "e0": (1.425, 1.155, 0.37),
            "e0_so": (1.765, 1.115, 0.37),
        }
    )
    wavelength_window_nm: tuple = (550.0, 4000.0)
    x_window: tuple = (0.0, 1.0)
    near_gap_margin: float = 0.995

    def gap_energy_ev(self, x: float) -> float:
        c0, c1, c2 = self.coefficients["e0"]
        return c0 + c1 * x + c2 * x * x

    def _check_window(self, x: float, wavelength_nm):
        lo, hi = self.wavelength_window_nm
        if np.ndim(wavelength_nm):
            lam = np.asarray(wavelength_nm, dtype=float)
            outside = np.any(lam < lo) or np.any(lam > hi)
        else:
            outside = wavelength_nm < lo or wavelength_nm > hi
        if outside:
            shown = f"{lam.min()}..{lam.max()}" if np.ndim(wavelength_nm) else f"{wavelength_nm}"
            raise OutOfValidityWindow(
                f"wavelength {shown} nm outside model '{self.name}' "
                f"window [{lo}, {hi}] nm"
            )
        xlo, xhi = self.x_window
        if not (xlo <= x <= xhi):
            raise OutOfValidityWindow(
                f"composition x={x} outside model '{self.name}' window [{xlo}, {xhi}]"
            )

    def _chi_terms(self, x: float, wavelength_nm):
        energy = HC_EV_NM / np.asarray(wavelength_nm, dtype=float)
        e0 = self.gap_energy_ev(x)
        s0, s1, s2 = self.coefficients["e0_so"]
        e0_so = s0 + s1 * x + s2 * x * x
        return energy / e0, energy / e0_so, e0 / e0_so

    def _n_squared(self, x: float, chi_terms, complex_sqrt: bool):
        chi, chi_so, ratio = chi_terms
        a0, a1 = self.coefficients["a"]
        b0, b1 = self.coefficients["b"]
        a = a0 + a1 * x
        b = b0 + b1 * x
        f_main = _oscillator_f(chi, complex_sqrt)
        f_so = _oscillator_f(chi_so, complex_sqrt)
        return a * (f_main + 0.5 * f_so * ratio**1.5) + b

    def evaluate(self, x: float, wavelength_nm):
        """Real below-gap refractive index. Raises above the gap."""
        self._check_window(x, wavelength_nm)
        terms = self._chi_terms(x, wavelength_nm)
        chi, chi_so, _ = terms
        margin = self.near_gap_margin
        if np.ndim(chi):
            above = np.any(chi > margin) or np.any(chi_so > margin)
        else:
            above = chi > margin or chi_so > margin
        if above:
            raise AboveBandgap(
                f"photon energy within {100 * (1 - margin):.1f}% of the "
                f"Al(x={x}) gap: model '{self.name}' index is complex there"
            )
        n = np.sqrt(self._n_squared(x, terms, complex_sqrt=False))
        return float(n) if np.isscalar(wavelength_nm) else n

    def evaluate_complex(self, x: float, wavelength_nm):
        """Complex index n + i*kappa, valid above the gap (kappa >= 0)."""
        self._check_window(x, wavelength_nm)
        n2 = self._n_squared(x, self._chi_terms(x, wavelength_nm), complex_sqrt=True)
        n = np.sqrt(n2.astype(complex) if not np.isscalar(wavelength_nm) else complex(n2))
        n = np.where(np.imag(n) < 0, np.conj(n), n)
        return complex(n) if np.isscalar(wavelength_nm) else n


def _oscillator_f(chi, complex_sqrt: bool):
    """f(chi) = (2 - sqrt(1+chi) - sqrt(1-chi)) / chi^2 of the oscillator model."""
    chi = np.asarray(chi, dtype=float)
    if complex_sqrt:
        one_minus = np.sqrt((1.0 - chi).astype(complex))
    else:
        one_minus = np.sqrt(1.0 - chi)
    return (2.0 - np.sqrt(1.0 + chi) - one_minus) / chi**2


DEFAULT_MODEL = DispersionModel(name="adachi1985")

_REGISTRY: dict[str, DispersionModel] = {DEFAULT_MODEL.name: DEFAULT_MODEL}


def register_model(model: DispersionModel) -> DispersionModel:
    _REGISTRY[model.name] = model
    return model


def get_model(name: str | None = None) -> DispersionModel:
    if name is None:
        return DEFAULT_MODEL
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OutOfValidityWindow(f"no dispersion model named '{name}' registered") from None


def load_model_json(source) -> DispersionModel:
    """Register a model from a JSON document (path, file object, or dict).

    Expected keys: name, kind, coefficients, wavelength_window_nm, x_window,
    and optionally near_gap_margin.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    coeffs = {k: tuple(v) for k, v in doc["coefficients"].items()}
    model = DispersionModel(
        name=doc["name"],
        kind=doc.get("kind", "adachi_algaas"),
        coefficients=coeffs,
        wavelength_window_nm=tuple(doc["wavelength_window_nm"]),
        x_window=tuple(doc.get("x_window", (0.0, 1.0))),
        near_gap_margin=doc.get("near_gap_margin", 0.995),
    )
    return register_model(model)


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


def group_index(
    c: Composition,
    wavelength_nm: float,
    model: DispersionModel | None = None,
    step_nm: float = 0.1,
):
    """Group index n_g = n - lambda dn/dlambda via central finite difference.

    The default 0.1 nm step balances truncation against double-precision
    round-off; both lambda +/- step must lie in the model window.
    """
    m = model or DEFAULT_MODEL
    n0 = m.evaluate(c.x, wavelength_nm)
    n_plus = m.evaluate(c.x, wavelength_nm + step_nm)
    n_minus = m.evaluate(c.x, wavelength_nm - step_nm)
    dn = (n_plus - n_minus) / (2.0 * step_nm)
    return n0 - wavelength_nm * dn
