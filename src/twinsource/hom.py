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
a few baseline passes whose point set is frozen before it can cycle. The 25
start widths are scored in one (widths, points) array pass, whose baseline
sums add the integer counts in int64: exact while |counts| sum below 2**53.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .efficiency import DetectionChain, expected_counts
from .errors import BELOW_ONE, FRACTION, POSITIVE, SQUARABLE, DegenerateScan, NoConvergence
from .errors import record, require
from .roots import NotBracketed, brentq

_LN2 = math.log(2.0)
_SHAPE = math.pi**2 / _LN2  # exponent prefactor of the dip model
_U_ZERO = 8.0  # past |u| = 7.24, exp(-_SHAPE u^2) is 0.0 in doubles

NM_PER_MM = 1e6

_INIT_DELTA_LAMBDA_NM = np.geomspace(0.1, 2.0, 25)  # fit_dip start values
_WIDTH_BRACKET = 1.5  # each pass finds its width in [w / 1.5, 1.5 w], w the pass's start
_WIDTH_XTOL_NM = 1e-12  # Brent's absolute tolerance on the width
_BASELINE_PASSES = 10  # 8000 hom-calibration-like scans: each fixed point by pass 8
_BASELINE_RTOL = 1e-12


class DipModel(record("DipModel", "visibility wavelength_nm delta_lambda_nm")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require(self.visibility, FRACTION, "visibility")
        require(self.wavelength_nm, SQUARABLE, "wavelength")
        require(self.delta_lambda_nm, POSITIVE, "spectral width")
        return self


def _dip_shape(dz_nm, delta_lambda, wavelength):
    u = dz_nm * delta_lambda / wavelength**2
    return np.exp(-_SHAPE * u * u)


def dip_value(m: DipModel, delta_z_mm):
    """Normalized coincidence rate at path difference delta_z (mm)."""
    dz_nm = np.asarray(delta_z_mm, dtype=float) * NM_PER_MM
    reach = _U_ZERO * m.wavelength_nm**2 / m.delta_lambda_nm  # |dz| past which the shape is 0.0
    dz_nm = np.clip(dz_nm, -reach, reach)  # the same shape, and u * u stays finite
    val = 1.0 - m.visibility * _dip_shape(dz_nm, m.delta_lambda_nm, m.wavelength_nm)
    return float(val) if np.isscalar(delta_z_mm) else val


def dip_half_width_mm(wavelength_nm: float, delta_lambda_nm: float) -> float:
    """|dz| where the dip has half its depth: (lambda^2/dl) ln2/pi."""
    return (wavelength_nm**2 / delta_lambda_nm) * (_LN2 / math.pi) / NM_PER_MM


def dip_fwhm_mm(wavelength_nm: float, delta_lambda_nm: float) -> float:
    return 2.0 * dip_half_width_mm(wavelength_nm, delta_lambda_nm)


def visibility_from_reflectivity(reflectance: float) -> float:
    """V = 1 / (1 + 2 R^2) for facet intensity reflectance R in [0, 1)."""
    require(reflectance, BELOW_ONE, "facet reflectance")
    return 1.0 / (1.0 + 2.0 * reflectance**2)


def _finite_and_increasing(positions) -> bool:
    """The position rule of a scan: finite and strictly increasing."""
    return bool(np.all(np.isfinite(positions)) and np.all(np.diff(positions) > 0))


class HomScan:
    """One coincidence scan: positions, total and accidental counts."""

    def __init__(
        self,
        delta_z_mm,
        total_counts,
        accidental_counts,
        dwell_s: float,
        seed: int | None = None,
        metadata: dict | None = None,
    ):
        dz = np.asarray(delta_z_mm, dtype=float)
        tot = np.asarray(total_counts)
        acc = np.asarray(accidental_counts)
        if not (dz.ndim == 1 and tot.shape == dz.shape and acc.shape == dz.shape):
            raise ValueError("scan arrays must be matching 1D arrays")
        if not _finite_and_increasing(dz):
            raise ValueError("delta_z positions must all be finite and strictly increasing")
        for name, arr in (("total", tot), ("accidental", acc)):
            if not np.issubdtype(arr.dtype, np.integer) or np.any(arr < 0):
                raise ValueError(f"{name} counts must all be non-negative integers")
        self.dwell_s = require(dwell_s, POSITIVE, "dwell time")
        self.seed = seed
        self.metadata = {} if metadata is None else metadata
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
    if positions.ndim != 1 or not _finite_and_increasing(positions):
        raise ValueError("positions must all be finite and strictly increasing")
    require(dwell_s, POSITIVE, "dwell time")
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


class FitResult(NamedTuple):
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


def _best_visibility(wg, g, r):
    """V minimizing sum w (V g - r)^2 over the last axis, from wg = w g and
    r = 1 - y: sum wg r / sum wg g, and 0 where g vanishes on every point.
    Each row's two sums are numpy's vector dot, as ``wg @ g`` takes them, and
    a 1-D row's come out as numpy scalars (``[()]``), whose truth is cheap."""
    wg = wg[..., None, :]
    numer = (wg @ r[..., None])[..., 0, 0][()]
    denom = (wg @ g[..., None])[..., 0, 0][()]
    ok = denom > 0
    if not (ok.all() if ok.ndim else ok):
        numer, denom = np.where(ok, numer, 0.0), np.where(ok, denom, 1.0)
    return numer / denom


def _score_start_widths(scan, wavelength_nm, dz_nm, net, sigma):
    """Every ``_INIT_DELTA_LAMBDA_NM`` width in one (widths, points) pass: per
    width, whether it leaves >= 3 baseline points of positive mean (the rest
    carry stand-in values), its baseline, V clipped to [0, 1], and the chi^2 of
    that dip and of no dip. The baseline sums add the integer counts in int64,
    so they equal a float sum while the counts' absolute sum stays below 2**53;
    each chi^2 is a pairwise sum over one contiguous row."""
    threshold = 3.0 * dip_half_width_mm(wavelength_nm, _INIT_DELTA_LAMBDA_NM)
    outside = np.abs(scan.delta_z_mm) > threshold[:, None]
    count = outside.sum(axis=-1)
    baseline = np.where(outside, scan.net_counts, 0).sum(axis=-1) / np.maximum(count, 1)
    ok = (count >= 3) & (baseline > 0)
    baseline = np.where(ok, baseline, 1.0)
    y, sy = net / baseline[:, None], sigma / baseline[:, None]
    g = _dip_shape(dz_nm, _INIT_DELTA_LAMBDA_NM[:, None], wavelength_nm)
    w = 1.0 / sy**2
    v = np.minimum(np.maximum(_best_visibility(w * g, g, 1.0 - y), 0.0), 1.0)
    chi2 = np.sum(w * (y - (1.0 - v[:, None] * g)) ** 2, axis=-1)
    return ok, baseline, v, chi2, np.sum(w * (y - 1.0) ** 2, axis=-1)


def fit_dip(scan: HomScan, wavelength_nm: float) -> FitResult:
    """Weighted least-squares fit of (V, delta_lambda) to a scan.

    Accidentals are subtracted and, from the best width of
    ``_INIT_DELTA_LAMBDA_NM``, the net counts are normalized by the mean of the
    points farther than three dip half-widths from zero (at least three
    required). All the start widths are scored in one array pass
    (``_score_start_widths``, whose baseline sums are exact while the counts'
    absolute sum stays below 2**53), and the first chi^2 minimum among the
    widths leaving >= 3 baseline points of positive mean is kept.
    Poisson weights: sigma^2(net) = total + accidental. Each of up
    to ``_BASELINE_PASSES`` passes corrects the baseline with the fitted model,
    then takes V in closed form (``_best_visibility``) and the width from
    ``roots.brentq`` on the chi^2 slope, to ``_WIDTH_XTOL_NM`` within a factor
    ``_WIDTH_BRACKET`` of its start (NoConvergence if that holds no sign
    change). A width that would bring back an earlier pass's baseline point
    set keeps the current set. ``converged`` means one pass started from a
    baseline that moved by at most ``_BASELINE_RTOL`` relative. A width
    leaving < 3 baseline points ends the passes with the previous pass's fit.
    """
    require(wavelength_nm, POSITIVE, "wavelength")
    require(wavelength_nm, SQUARABLE, "wavelength")  # the model squares it
    if len(scan.delta_z_mm) < 8:
        raise DegenerateScan("need at least 8 scan points")
    dz_nm = scan.delta_z_mm * NM_PER_MM
    net = scan.net_counts.astype(float)
    sigma = np.sqrt(np.maximum(scan.total_counts + scan.accidental_counts, 1.0))

    ok, baselines, vs, chi2, chi2_flat = _score_start_widths(scan, wavelength_nm, dz_nm, net, sigma)
    if not ok.any():
        raise DegenerateScan(
            "no spectral-width candidate leaves >= 3 baseline points outside the dip"
        )
    k = int(np.argmin(np.where(ok, chi2, np.inf)))  # the first of equal minima
    v, dl, baseline = float(vs[k]), _INIT_DELTA_LAMBDA_NM[k], float(baselines[k])
    if chi2_flat[k] - chi2[k] < 9.0:
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
        wg = w * g
        v = float(_best_visibility(wg, g, r))
        return -v * width * float((wg * (y_minus_1 + v * g)) @ u2)

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
        r, y_minus_1 = 1.0 - y, y - 1.0  # shared by every slope of the pass
        try:
            dl = brentq(slope, dl / _WIDTH_BRACKET, dl * _WIDTH_BRACKET, _WIDTH_XTOL_NM)
        except NotBracketed as exc:  # dl is still the pass's start width
            bracket = f"[{dl / _WIDTH_BRACKET:.6g}, {dl * _WIDTH_BRACKET:.6g}] nm"
            why = f"keeps one sign over {bracket}, so the baseline points do not bound the width"
            raise NoConvergence(f"no chi^2 minimum in the width: the chi^2 slope {why}") from exc
        except (ValueError, RuntimeError) as exc:
            raise NoConvergence(f"no chi^2 minimum in the width: {exc}") from exc
        g = _dip_shape(dz_nm, dl, wavelength_nm)
        v = float(_best_visibility(w * g, g, r))
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
