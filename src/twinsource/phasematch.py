"""Energy and longitudinal-momentum conservation for the counterpropagating
geometry.

A pump photon impinging at angle ``theta`` (in air, degrees) splits into a
guided signal photon copropagating with the in-plane pump momentum and a
counterpropagating guided idler. The emitted wavelengths satisfy

    1/lambda_s + 1/lambda_i = 1/lambda_p                     (energy)
    k_p sin(theta) = n_s k_s - n_i k_i                       (momentum, z)

with vacuum wavenumbers k = 2 pi / lambda and the signal/idler effective
indices taken at their own wavelengths. Two type-II interactions exist:
interaction 1 has a TE copropagating photon (TM counterpropagating),
interaction 2 the reverse. theta > 0 tilts the pump momentum toward +z.

Effective indices are evaluated per candidate wavelength inside the root
loop through a dense spline table of direct mode solves (exact at knots on
the multiples of ``modes.TABLE_STEP_NM`` = 2 nm, interpolation error far
below the momentum residual tolerance ``MOMENTUM_RTOL``). A query outside a
table grows it knot by knot: only the missing knots are solved and the
spline is refitted, so a grown table equals a fresh one over the same range.
The mismatch has one formula, ``_mismatch``, which ``delta_k``,
``solve_pair``, ``PhaseMatchPoint.momentum_residual`` and
``spectra.fluorescence_spectrum`` all evaluate. The signal wavelength is
polished by ``roots.brentq`` (Brent's method, the floats of scipy's
``brentq``). ``solve_pair`` reserves its whole bracket in both tables before
the search, so its Brent function evaluates the mismatch on those two tables
directly, at Python floats, which the tables look up without building arrays.
Brent evaluates each end of the bracket once; when they have one sign it
raises ``roots.NotBracketed``, and ``solve_pair`` widens the window once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ANGLE, POSITIVE, NoSolutionInWindow, TwinSourceError, require
from .modes import EffectiveIndexTable
from .roots import NotBracketed, brentq
from .stack import TE, TM, LayerStack

MOMENTUM_RTOL = 1e-9  # residual bound, relative to k_p
SEARCH_HALF_WINDOW_NM = 150.0
TABLE_PAD_NM = 40.0


@dataclass(frozen=True)
class Interaction:
    """One of the two equally probable type-II polarization assignments."""

    id: int
    copropagating_pol: str
    counterpropagating_pol: str

    def __post_init__(self):
        valid = {(1, TE, TM), (2, TM, TE)}
        if (self.id, self.copropagating_pol, self.counterpropagating_pol) not in valid:
            raise ValueError(
                "interaction 1 copropagates TE, interaction 2 copropagates TM"
            )


INTERACTION_1 = Interaction(1, TE, TM)
INTERACTION_2 = Interaction(2, TM, TE)


def interaction(id_: int) -> Interaction:
    if id_ == 1:
        return INTERACTION_1
    if id_ == 2:
        return INTERACTION_2
    raise ValueError(f"interaction id must be 1 or 2, got {id_}")


@dataclass(frozen=True)
class PhaseMatchPoint:
    """One solved operating point: pump angle/wavelength and the pair it emits."""

    theta_deg: float
    lambda_p_nm: float
    interaction: Interaction
    lambda_s_nm: float
    lambda_i_nm: float
    n_s: float
    n_i: float

    @property
    def momentum_residual(self) -> float:
        """k_p sin(theta) - (n_s k_s - n_i k_i), in rad/nm."""
        return _mismatch(
            _kp_sin(self.theta_deg, self.lambda_p_nm),
            self.lambda_s_nm,
            self.n_s,
            self.lambda_i_nm,
            self.n_i,
        )


def _kp_sin(theta_deg, lambda_p):
    """In-plane pump momentum k_p sin(theta), rad/nm."""
    return 2.0 * math.pi / lambda_p * math.sin(math.radians(theta_deg))


def _mismatch(kp_sin, lam_s, n_s, lam_i, n_i):
    """k_p sin(theta) - (n_s k_s - n_i k_i), floats or arrays: the package's
    one mismatch formula, in one operation order."""
    return kp_sin - n_s * 2.0 * math.pi / lam_s + n_i * 2.0 * math.pi / lam_i


def conjugate_wavelength(lambda_p: float, lambda_s):
    """Idler wavelength paired with lambda_s by energy conservation.

    Raises ValueError for a signal wavelength that is not positive (NaN
    included) or that carries more energy than the pump, in either form.
    """
    if type(lambda_s) is float:  # in plain floats
        if not lambda_s > 0:  # NaN fails the comparison
            raise ValueError(f"signal wavelength {lambda_s} nm is not positive")
        inv = 1.0 / lambda_p - 1.0 / lambda_s
        if not inv > 0:
            raise ValueError(f"signal {lambda_s} nm carries more energy than the pump")
        return 1.0 / inv
    lam = np.asarray(lambda_s, dtype=float)
    if not np.all(lam > 0):
        raise ValueError(f"signal wavelength {lambda_s} nm is not positive")
    inv = 1.0 / lambda_p - 1.0 / lam
    if not np.all(inv > 0):
        raise ValueError(f"signal {lambda_s} nm carries more energy than the pump")
    return float(1.0 / inv) if np.isscalar(lambda_s) else 1.0 / inv


class PhaseMatcher:
    """Caches per-polarization effective-index tables for one stack.

    A table is built on first use over the queried range plus
    ``TABLE_PAD_NM`` on each side; a later query outside it extends it by the
    missing knots only (plus the same pad), so two matchers whose tables
    cover the same range give the same answers, whatever they were asked
    before.
    """

    def __init__(self, s: LayerStack, model=None):
        self.stack = s
        self.model = model
        self._tables: dict[str, EffectiveIndexTable] = {}

    def _ensure(self, pol: str, lo: float, hi: float) -> EffectiveIndexTable:
        tab = self._tables.get(pol)
        if tab is None:
            tab = self._tables[pol] = EffectiveIndexTable(
                self.stack, pol, lo - TABLE_PAD_NM, hi + TABLE_PAD_NM, model=self.model
            )
        elif lo < tab.lambda_min or hi > tab.lambda_max:
            tab.extend(lo - TABLE_PAD_NM, hi + TABLE_PAD_NM)
        return tab

    def _table(self, pol: str, wavelength) -> EffectiveIndexTable:
        """The ``pol`` table, grown to cover ``wavelength`` (a float or an array)."""
        if type(wavelength) is float:
            return self._ensure(pol, wavelength, wavelength)
        lam = np.asarray(wavelength, dtype=float)
        return self._ensure(pol, float(lam.min()), float(lam.max()))

    def n_eff(self, pol: str, wavelength):
        return self._table(pol, wavelength).n_eff(wavelength)

    def n_group(self, pol: str, wavelength):
        return self._table(pol, wavelength).n_group(wavelength)

    # -- momentum mismatch ---------------------------------------------------

    def delta_k(self, lambda_s, theta_deg: float, lambda_p: float, inter: Interaction):
        """Longitudinal mismatch k_p sin(theta) - (n_s k_s - n_i k_i), rad/nm.

        Vanishes at the phase-matched signal wavelength; accepts arrays.
        """
        require(lambda_p, POSITIVE, "pump wavelength")
        require(theta_deg, ANGLE, "pump angle")
        lam_s = lambda_s if type(lambda_s) is float else np.asarray(lambda_s, dtype=float)
        lam_i = conjugate_wavelength(lambda_p, lam_s)
        dk = _mismatch(
            _kp_sin(theta_deg, lambda_p),
            lam_s,
            self.n_eff(inter.copropagating_pol, lam_s),
            lam_i,
            self.n_eff(inter.counterpropagating_pol, lam_i),
        )
        return float(dk) if np.isscalar(lambda_s) else dk

    def solve_pair(
        self,
        theta_deg: float,
        lambda_p: float,
        inter: Interaction,
    ) -> PhaseMatchPoint:
        """Solve momentum conservation for the signal wavelength at one angle.

        Brackets the (monotone) mismatch over +/- ``SEARCH_HALF_WINDOW_NM``
        around the degeneracy wavelength 2 lambda_p, and widens the window
        once when Brent finds no sign change across it (``NotBracketed``).
        The whole bracket is reserved in both tables first, so every
        evaluation reads those two tables and none grows them. Raises
        ValueError for a pump wavelength that is not finite and > 0, or an
        angle that is not strictly between -90 and 90 degrees.
        """
        require(lambda_p, POSITIVE, "pump wavelength")
        require(theta_deg, ANGLE, "pump angle")
        k_p = 2.0 * math.pi / lambda_p
        kp_sin = _kp_sin(theta_deg, lambda_p)
        center = 2.0 * lambda_p
        half = SEARCH_HALF_WINDOW_NM
        for attempt in range(2):
            lo = max(center - half, 1.05 * lambda_p)
            hi = center + half
            # reserve the whole bracket (and its energy conjugate) up front so
            # the index tables are built once, not grown per evaluation
            tab_s = self._ensure(inter.copropagating_pol, lo, hi)
            tab_i = self._ensure(
                inter.counterpropagating_pol,
                conjugate_wavelength(lambda_p, hi),
                conjugate_wavelength(lambda_p, lo),
            )

            def dk(x):
                lam_i = conjugate_wavelength(lambda_p, x)
                return _mismatch(kp_sin, x, tab_s.n_eff(x), lam_i, tab_i.n_eff(lam_i))

            try:
                lam_s = brentq(dk, lo, hi, xtol=1e-10, rtol=8.9e-16)
                break
            except NotBracketed:
                half *= 2.0
        else:
            raise NoSolutionInWindow(
                f"no phase-matched signal within +/-{half / 2:.0f} nm of "
                f"{center:.1f} nm (theta={theta_deg} deg, interaction {inter.id})"
            )
        residual = dk(lam_s)
        if abs(residual) > MOMENTUM_RTOL * k_p:
            raise NoSolutionInWindow(
                f"root polish stalled: |residual| = {abs(residual):.3e} rad/nm"
            )
        lam_i = conjugate_wavelength(lambda_p, lam_s)
        return PhaseMatchPoint(
            theta_deg=theta_deg,
            lambda_p_nm=lambda_p,
            interaction=inter,
            lambda_s_nm=float(lam_s),
            lambda_i_nm=float(lam_i),
            n_s=float(tab_s.n_eff(lam_s)),
            n_i=float(tab_i.n_eff(lam_i)),
        )

    def degeneracy_angle(self, inter: Interaction, lambda_p: float) -> float:
        """Angle at which the pair degenerates to 2 lambda_p, in degrees.

        At degeneracy k_s = k_i = k_p/2, so sin(theta) = (n_s - n_i)/2
        directly from the momentum equation (no iteration). Raises
        ValueError for a pump wavelength that is not finite and > 0.
        """
        require(lambda_p, POSITIVE, "pump wavelength")
        lam_deg = 2.0 * lambda_p
        n_s = self.n_eff(inter.copropagating_pol, lam_deg)
        n_i = self.n_eff(inter.counterpropagating_pol, lam_deg)
        return math.degrees(math.asin((n_s - n_i) / 2.0))

    def tuning_curve(self, theta_deg_values, lambda_p: float):
        """solve_pair swept over angles for both interactions.

        Per-point failures are recorded and the sweep continues: the domain
        errors, ``ValueError`` (angle, energy and bracket checks) and
        ``RuntimeError`` (Brent's non-convergence); any other exception is a
        fault and propagates. Returns (points, failures) where failures is a
        list of (theta_deg, interaction_id, message).
        """
        points, failures = [], []
        for inter in (INTERACTION_1, INTERACTION_2):
            for theta in theta_deg_values:
                try:
                    points.append(self.solve_pair(float(theta), lambda_p, inter))
                except (TwinSourceError, ValueError, RuntimeError) as exc:
                    failures.append((float(theta), inter.id, str(exc)))
        return points, failures
