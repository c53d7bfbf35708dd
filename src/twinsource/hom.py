"""Two-photon (Hong-Ou-Mandel) interference: dip model, counting simulation
and dip fitting.

The normalized coincidence rate as a function of the optical path difference
dz between the interferometer arms is

    N_c(dz) = 1 - V exp( -(pi^2/ln 2) [dz * dl / lambda^2]^2 )

with V the visibility, lambda the degeneracy wavelength and dl the FWHM
spectral intensity width of the photons. Uncoated facets of reflectivity R
add twice-reflected photon paths that never overlap the direct ones, which
caps the visibility at V = 1 / (1 + 2 R^2).

Scans are simulated with independent Poisson draws per position for the
total and the (flat) accidental coincidences. Fits run weighted least squares
on accidental-subtracted, baseline-normalized counts with Poisson error bars.
The model is linear in V for a fixed width, so V is eliminated in closed form
(variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973)
and the width is one Brent root of the chi^2 slope (``roots.brentq``), inside
a few baseline passes whose point set is frozen before it can cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .efficiency import DetectionChain, expected_counts
from .errors import DegenerateScan, NoConvergence
from .roots import brentq

_LN2 = math.log(2.0)
_SHAPE = math.pi**2 / _LN2  # exponent prefactor of the dip model

NM_PER_MM = 1e6

_INIT_DELTA_LAMBDA_NM = np.geomspace(0.1, 2.0, 25)  # fit_dip start values
_WIDTH_BRACKET = 1.5  # each pass finds its width in [w / 1.5, 1.5 w], w the pass's start
_WIDTH_XTOL_NM = 1e-12  # Brent's absolute tolerance on the width
_BASELINE_PASSES = 10  # 8000 hom-calibration-like scans: each fixed point by pass 8
_BASELINE_RTOL = 1e-12


@dataclass(frozen=True)
class DipModel:
    visibility: float
    wavelength_nm: float
    delta_lambda_nm: float

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        if self.delta_lambda_nm <= 0 or self.wavelength_nm <= 0:
            raise ValueError("wavelength and spectral width must be positive")


def _dip_shape(dz_nm, delta_lambda, wavelength):
    u = dz_nm * delta_lambda / wavelength**2
    return np.exp(-_SHAPE * u * u)


def dip_value(m: DipModel, delta_z_mm):
    """Normalized coincidence rate at path difference delta_z (mm)."""
    dz_nm = np.asarray(delta_z_mm, dtype=float) * NM_PER_MM
    val = 1.0 - m.visibility * _dip_shape(dz_nm, m.delta_lambda_nm, m.wavelength_nm)
    return float(val) if np.isscalar(delta_z_mm) else val


def dip_half_width_mm(wavelength_nm: float, delta_lambda_nm: float) -> float:
    """|dz| where the dip has half its depth: (lambda^2/dl) ln2/pi."""
    return (wavelength_nm**2 / delta_lambda_nm) * (_LN2 / math.pi) / NM_PER_MM


def dip_fwhm_mm(wavelength_nm: float, delta_lambda_nm: float) -> float:
    return 2.0 * dip_half_width_mm(wavelength_nm, delta_lambda_nm)


def visibility_from_reflectivity(reflectance: float) -> float:
    """V = 1 / (1 + 2 R^2) for facet intensity reflectance R in [0, 1)."""
    if not (0.0 <= reflectance < 1.0):
        raise ValueError(f"facet reflectance must lie in [0, 1), got {reflectance}")
    return 1.0 / (1.0 + 2.0 * reflectance**2)


@dataclass
class HomScan:
    """One coincidence scan: positions, total and accidental counts."""

    delta_z_mm: np.ndarray
    total_counts: np.ndarray
    accidental_counts: np.ndarray
    dwell_s: float
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        dz = np.asarray(self.delta_z_mm, dtype=float)
        tot = np.asarray(self.total_counts)
        acc = np.asarray(self.accidental_counts)
        if not (dz.ndim == 1 and tot.shape == dz.shape and acc.shape == dz.shape):
            raise ValueError("scan arrays must be matching 1D arrays")
        if not (np.all(np.isfinite(dz)) and np.all(np.diff(dz) > 0)):
            raise ValueError("delta_z positions must be finite and strictly increasing")
        for name, arr in (("total", tot), ("accidental", acc)):
            if np.any(arr < 0) or not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} counts must be non-negative integers")
        if self.dwell_s <= 0:
            raise ValueError("dwell time must be positive")
        self.delta_z_mm = dz
        self.total_counts = tot.astype(np.int64)
        self.accidental_counts = acc.astype(np.int64)

    @property
    def net_counts(self) -> np.ndarray:
        return self.total_counts - self.accidental_counts


def simulate_scan(
    m: DipModel,
    chain: DetectionChain,
    positions_mm,
    dwell_s: float,
    seed: int,
) -> HomScan:
    """Poisson-sampled coincidence scan, reproducible for a given seed.

    Per position the expected totals are dwell * (true_rate * N_c(dz) +
    accidental_rate); the accidental channel is an independent measurement of
    dwell * accidental_rate (delayed-window style), drawn independently.
    """
    positions = np.asarray(positions_mm, dtype=float)
    if positions.ndim != 1 or np.any(np.diff(positions) <= 0):
        raise ValueError("positions must be strictly increasing")
    if dwell_s <= 0:
        raise ValueError("dwell time must be positive")
    budget = expected_counts(chain)
    rng = np.random.default_rng(seed)
    mean_total = dwell_s * (
        budget.true_coincidence_rate_hz * dip_value(m, positions)
        + budget.accidental_rate_hz
    )
    mean_acc = np.full_like(positions, dwell_s * budget.accidental_rate_hz)
    total = rng.poisson(mean_total)
    acc = rng.poisson(mean_acc)
    return HomScan(
        delta_z_mm=positions,
        total_counts=total,
        accidental_counts=acc,
        dwell_s=dwell_s,
        seed=seed,
        metadata={
            "model": {
                "visibility": m.visibility,
                "wavelength_nm": m.wavelength_nm,
                "delta_lambda_nm": m.delta_lambda_nm,
            },
            "true_rate_hz": budget.true_coincidence_rate_hz,
            "accidental_rate_hz": budget.accidental_rate_hz,
        },
    )


@dataclass(frozen=True)
class FitResult:
    """A dip fit; ``iterations`` counts the chi^2-slope evaluations of all its passes."""

    visibility: float
    delta_lambda_nm: float
    visibility_err: float
    delta_lambda_err: float
    residual_norm: float
    converged: bool
    iterations: int
    baseline_counts: float


def _jacobian(v, dl, g, dz_nm, wavelength, sy):
    """d/d(v, dl) of the weighted residuals (y - 1 + v g) / sy, g the shape at dl."""
    jac = np.empty((len(g), 2))
    jac[:, 0] = g / sy
    jac[:, 1] = -2.0 * _SHAPE * v * g * (dz_nm / wavelength**2) ** 2 * dl / sy
    return jac


def _best_visibility(y, w, g) -> float:
    """V minimizing sum w (y - 1 + V g)^2 for a fixed shape g:
    sum w g (1 - y) / sum w g^2 (0 when g vanishes on every point)."""
    wg = w * g
    denom = float(wg @ g)
    return float(wg @ (1.0 - y)) / denom if denom > 0 else 0.0


def fit_dip(scan: HomScan, wavelength_nm: float) -> FitResult:
    """Weighted least-squares fit of (V, delta_lambda) to a scan.

    Accidentals are subtracted and, from the best width of
    ``_INIT_DELTA_LAMBDA_NM``, the net counts are normalized by the mean of the
    points farther than three dip half-widths from zero (at least three
    required). Poisson weights: sigma^2(net) = total + accidental. Each of up
    to ``_BASELINE_PASSES`` passes corrects the baseline with the fitted model,
    then takes V in closed form (``_best_visibility``) and the width from
    ``roots.brentq`` on the chi^2 slope, to ``_WIDTH_XTOL_NM`` within a factor
    ``_WIDTH_BRACKET`` of its start (NoConvergence if that holds no sign
    change). A width that would bring back an earlier pass's baseline point
    set keeps the current set. ``converged`` means one pass started from a
    baseline that moved by at most ``_BASELINE_RTOL`` relative. A width
    leaving < 3 baseline points ends the passes with the previous pass's fit.
    """
    if len(scan.delta_z_mm) < 8:
        raise DegenerateScan("need at least 8 scan points")
    dz_nm = scan.delta_z_mm * NM_PER_MM
    net = scan.net_counts.astype(float)
    sigma = np.sqrt(np.maximum(scan.total_counts + scan.accidental_counts, 1.0))

    # coarse initialization over a spectral-width grid
    best = None
    for dl in _INIT_DELTA_LAMBDA_NM:
        outside = np.abs(scan.delta_z_mm) > 3.0 * dip_half_width_mm(wavelength_nm, dl)
        if outside.sum() < 3:
            continue
        baseline = float(net[outside].mean())
        if baseline <= 0:
            continue
        y = net / baseline
        sy = sigma / baseline
        g = _dip_shape(dz_nm, dl, wavelength_nm)
        w = 1.0 / sy**2
        v = min(max(_best_visibility(y, w, g), 0.0), 1.0)
        chi2 = float(np.sum(w * (y - (1.0 - v * g)) ** 2))
        if best is None or chi2 < best[0]:
            chi2_flat = float(np.sum(w * (y - 1.0) ** 2))
            best = (chi2, v, dl, baseline, chi2_flat)
    if best is None:
        raise DegenerateScan(
            "no spectral-width candidate leaves >= 3 baseline points outside the dip"
        )
    chi2_0, v, dl, baseline, chi2_flat = best
    if chi2_flat - chi2_0 < 9.0:
        raise DegenerateScan("no dip resolvable above the noise (< 3 sigma)")
    span = scan.delta_z_mm[-1] - scan.delta_z_mm[0]
    if span < dip_fwhm_mm(wavelength_nm, dl):
        raise DegenerateScan("scan span must cover at least one dip width")

    u2 = (dz_nm / wavelength_nm**2) ** 2  # d ln g / d width = -2 _SHAPE u2 width

    def slope(width):
        """The chi^2 slope in the width at the optimal V, over 4 _SHAPE."""
        nonlocal iterations
        iterations += 1
        g = _dip_shape(dz_nm, width, wavelength_nm)
        v = _best_visibility(y, w, g)
        return -v * width * float((w * g * (y - 1.0 + v * g)) @ u2)

    # the baseline points still sit ~0.1% inside the dip, so correct the
    # normalization with the fitted model and re-run until it is a fixed point;
    # the start value leaves >= 3 baseline points, so the first pass always runs
    iterations = 0
    sets = []  # the baseline point set of each pass
    for _ in range(_BASELINE_PASSES):
        outside = np.abs(scan.delta_z_mm) > 3.0 * dip_half_width_mm(wavelength_nm, dl)
        if outside.sum() < 3:
            break  # keep the previous pass's fit, not converged
        if any(np.array_equal(outside, seen) for seen in sets):
            outside = sets[-1]  # going back could cycle: keep the current set
        sets.append(outside)
        model_out = 1.0 - v * _dip_shape(dz_nm[outside], dl, wavelength_nm)
        new_baseline = float(np.mean(net[outside] / model_out))
        converged = abs(new_baseline - baseline) <= _BASELINE_RTOL * abs(baseline)
        baseline = new_baseline
        y, sy = net / baseline, sigma / baseline
        w = 1.0 / sy**2
        try:
            dl = brentq(slope, dl / _WIDTH_BRACKET, dl * _WIDTH_BRACKET, _WIDTH_XTOL_NM)
        except (ValueError, RuntimeError) as exc:
            raise NoConvergence(f"no chi^2 minimum in the width: {exc}") from exc
        g = _dip_shape(dz_nm, dl, wavelength_nm)
        v = _best_visibility(y, w, g)
        if converged:
            break

    r = (y - (1.0 - v * g)) / sy
    jac = _jacobian(v, dl, g, dz_nm, wavelength_nm, sy)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise DegenerateScan(f"the scan does not constrain both parameters: {exc}") from exc
    return FitResult(
        visibility=v,
        delta_lambda_nm=float(dl),
        visibility_err=float(math.sqrt(max(cov[0, 0], 0.0))),
        delta_lambda_err=float(math.sqrt(max(cov[1, 1], 0.0))),
        residual_norm=math.sqrt(r @ r),
        converged=converged,
        iterations=iterations,
        baseline_counts=baseline,
    )


def normalized_residuals(scan: HomScan, fit: FitResult, wavelength_nm: float) -> np.ndarray:
    """Baseline-normalized net counts minus the fitted dip, point by point,
    for any fitted V (a V above 1, which ``DipModel`` refuses, too)."""
    g = _dip_shape(scan.delta_z_mm * NM_PER_MM, fit.delta_lambda_nm, wavelength_nm)
    return scan.net_counts / fit.baseline_counts - (1.0 - fit.visibility * g)
