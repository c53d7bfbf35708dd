"""Emission spectra of the down-converted photons.

For a monochromatic pump the single-interaction spectrum is
sinc^2(dk L / 2) in the longitudinal mismatch dk, evaluated against the
signal wavelength; the counterpropagating geometry makes dk grow with the
sum of the signal and idler group indices, which is what squeezes the
bandwidth far below the copropagating case. Measured spectra are modeled by
convolving with unit-area Gaussians, each given by its FWHM, for the pump
linewidth and the monochromator resolution (``_smooth``).

Wavelength grids are uniform, in nm, built by ``errors.sweep`` and refused
(SweepSizeError) at a single point; intensities are dimensionless and
non-negative.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FRACTION, LENGTH_MM, NON_NEGATIVE, POSITIVE, require
from .errors import HalfMaxNotBracketed, KernelUnderResolved, NoPeak, SweepSizeError, sweep
from .layers import LayerStack
from .phasematch import PhaseMatcher, _kp_sin, _mismatch, conjugate_wavelength, interaction

# |x| where sinc^2(x) = 1/2; fixes the sinc^2 full width 2x at half maximum
SINC2_HALF_MAX_ARG = 1.3915573782515


class Spectrum:
    """Sampled spectrum on a strictly increasing uniform wavelength grid."""

    def __init__(self, wavelength_nm, intensity, metadata: dict | None = None):
        lam = np.asarray(wavelength_nm, dtype=float)
        inten = np.asarray(intensity, dtype=float)
        if lam.ndim != 1 or lam.size < 2 or inten.shape != lam.shape:
            raise ValueError("wavelength and intensity must be matching 1D arrays")
        steps = np.diff(lam)
        top = max(abs(lam[0]), abs(lam[-1]))  # the largest |lambda| of an increasing grid
        if not (np.all(steps > 0) and math.isfinite(top)) or steps.max() - steps.min() > max(
            1e-9 * steps.mean(), 4 * math.ulp(top)  # lo + step k rounds each point
        ):
            raise ValueError("wavelength grid must be uniform and strictly increasing")
        if not (np.isfinite(inten).all() and (inten >= 0).all()):
            raise ValueError("intensities must all be finite and non-negative")
        self.wavelength_nm = lam
        self.intensity = inten
        self.metadata = {} if metadata is None else metadata

    @property
    def step_nm(self) -> float:
        return float(self.wavelength_nm[1] - self.wavelength_nm[0])


def _matcher(matcher, s: LayerStack) -> PhaseMatcher:
    """``matcher``, or a new one for ``s``; ValueError for a matcher of another stack."""
    if matcher is None:
        return PhaseMatcher(s)
    if matcher.stack is not s and matcher.stack != s:
        raise ValueError("matcher was built for another stack than the one given")
    return matcher


def sinc2(x):
    """sinc^2 with sinc(x) = sin(x)/x and sinc(0) = 1: an array for an array,
    a float for a scalar or a 0-d array."""
    x = np.asarray(x, dtype=float)
    sin = np.sin(x)
    with np.errstate(invalid="ignore"):  # 0/0 at x == 0, replaced by 1
        v = np.where(x == 0, 1.0, sin / x)
    v *= v
    return v if v.ndim else float(v)


def phase_matching_intensity(
    lambda_s, theta_deg, lambda_p, inter, length_mm, s: LayerStack, matcher=None
):
    """sinc^2(dk L/2) at arbitrary signal wavelengths (peak value exactly 1)."""
    require(length_mm, LENGTH_MM, "sample length")
    m = _matcher(matcher, s)
    length_nm = length_mm * 1e6
    dk = m.delta_k(lambda_s, theta_deg, lambda_p, inter)
    return sinc2(np.asarray(dk) * length_nm / 2.0)


def phase_matching_spectrum(
    theta_deg: float,
    lambda_p: float,
    inter,
    length_mm: float,
    s: LayerStack,
    half_span_nm: float = 5.0,
    step_nm: float = 0.005,
    matcher=None,
) -> Spectrum:
    """Single-interaction sinc^2 spectrum around its phase-matched wavelength."""
    require(length_mm, LENGTH_MM, "sample length")
    require(half_span_nm, POSITIVE, "half span")
    require(step_nm, POSITIVE, "grid step")
    m = _matcher(matcher, s)
    point = m.solve_pair(theta_deg, lambda_p, inter)
    lam_s = point.lambda_s_nm
    grid = _grid(lam_s - half_span_nm, lam_s + half_span_nm, step_nm)
    inten = phase_matching_intensity(
        grid, theta_deg, lambda_p, inter, length_mm, s, matcher=m
    )
    meta = {
        "theta_deg": theta_deg,
        "lambda_p_nm": lambda_p,
        "length_mm": length_mm,
        "interaction": inter.id,
        "peak_nm": point.lambda_s_nm,
        "kernels": [],
    }
    return Spectrum(grid, inten, meta)


def _grid(lo, hi, step):
    """The wavelength sweep [lo, hi] at ``step``, of at least two points."""
    grid = sweep(lo, hi, step, "spectrum wavelength (nm)")
    if len(grid) < 2:
        raise SweepSizeError(f"grid step {step} nm leaves one point in [{lo}, {hi}] nm")
    return grid


def _smooth(intensity: np.ndarray, step: float, fwhm_nm: float) -> np.ndarray:
    """Discrete convolution with a unit-area Gaussian of this FWHM (nm) on a
    grid of this step (zero-padded edges).

    The kernel is sampled out to 6 sigma, or out to the grid's span where
    that is shorter (farther points meet no grid point), and normalized to
    unit sum, so the total integral is preserved to better than 0.1% for
    features well inside the grid. KernelUnderResolved for a FWHM under two
    grid steps.
    """
    size = intensity.size
    if fwhm_nm < 2.0 * step:
        raise KernelUnderResolved(
            f"kernel FWHM {fwhm_nm} nm under-resolved on a {step} nm grid", fwhm_nm
        )
    sigma = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = min(int(math.ceil(6.0 * sigma / step)), size - 1)
    x = step * np.arange(-half, half + 1)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    out = np.convolve(intensity, k, mode="same")
    if len(k) > size:  # "same" then has the kernel's length: keep the grid's points
        out = out[half - (size - 1) // 2 :][:size]
    return np.clip(out, 0.0, None)


def fluorescence_spectrum(
    theta_deg: float,
    lambda_p: float,
    length_mm: float,
    s: LayerStack,
    noise_floor: float = 0.0,
    interactions=(1, 2),
    pump_fwhm_nm: float = 0.3,
    mono_fwhm_nm: float = 0.1,
    long_peak_attenuation: float = 0.30,
    half_span_nm: float = 5.0,
    step_nm: float = 0.005,
    matcher=None,
) -> Spectrum:
    """Photon-counting spectrum: the convolved sinc^2 peaks of the selected
    interactions plus a flat noise floor, peak-normalized before the floor.

    Long-wavelength photons exit through the far facet and are collected
    after one reflection there, so those peaks are scaled by the facet
    intensity reflectance (``long_peak_attenuation``).

    Each branch's mismatch is ``delta_k``'s, at the signal grid or at its
    energy conjugate, on tables reserved over every wavelength looked up;
    the lookups at the conjugate, which both interactions make, are made
    once. A kernel width of 0 means no kernel. NoPeak if nothing is left to
    normalize.
    """
    m = _matcher(matcher, s)
    require(length_mm, LENGTH_MM, "sample length")
    require(noise_floor, NON_NEGATIVE, "noise floor")
    require(pump_fwhm_nm, NON_NEGATIVE, "pump kernel FWHM")
    require(mono_fwhm_nm, NON_NEGATIVE, "monochromator kernel FWHM")
    require(long_peak_attenuation, FRACTION, "long-peak attenuation")
    require(half_span_nm, POSITIVE, "half span")
    require(step_nm, POSITIVE, "grid step")
    inters = [interaction(i) for i in interactions]
    if not inters:
        raise ValueError("at least one interaction required")
    points = [m.solve_pair(theta_deg, lambda_p, it) for it in inters]
    peaks = [w for p in points for w in (p.lambda_s_nm, p.lambda_i_nm)]
    grid = _grid(min(peaks) - half_span_nm, max(peaks) + half_span_nm, step_nm)

    length_nm = length_mm * 1e6
    lam_deg = 2.0 * lambda_p
    kp_sin = _kp_sin(theta_deg, lambda_p)
    total = np.zeros_like(grid)
    conj = conjugate_wavelength(lambda_p, grid)
    back = conjugate_wavelength(lambda_p, conj)  # not grid: they differ in the last bits
    # every table is reserved over all three arrays before the first lookup,
    # so no lookup grows a table that an earlier one read
    lo = min(float(a.min()) for a in (grid, conj, back))
    hi = max(float(a.max()) for a in (grid, conj, back))
    tables = {
        pol: m._ensure(pol, lo, hi)
        for it in inters
        for pol in (it.copropagating_pol, it.counterpropagating_pol)
    }
    # each interaction looks up both polarizations at conj: look them up once
    at_conj = {pol: tab.n_eff(conj) for pol, tab in tables.items()}

    def n_eff(pol, lam):
        return at_conj[pol] if lam is conj else tables[pol].n_eff(lam)

    for it, p in zip(inters, points):
        co, counter = it.copropagating_pol, it.counterpropagating_pol
        for branch_peak, lam_s, lam_i in ((p.lambda_s_nm, grid, conj), (p.lambda_i_nm, conj, back)):
            dk = _mismatch(kp_sin, lam_s, n_eff(co, lam_s), lam_i, n_eff(counter, lam_i))
            branch = sinc2(dk * length_nm / 2.0)
            if branch_peak > lam_deg:
                branch = branch * long_peak_attenuation
            total += branch

    inten, step, kernels = total, float(grid[1] - grid[0]), []
    for fwhm in (pump_fwhm_nm, mono_fwhm_nm):
        if fwhm > 0:
            inten = _smooth(inten, step, fwhm)
            kernels.append({"shape": "gaussian", "fwhm_nm": fwhm})
    peak = float(inten.max())
    if peak <= 0:
        raise NoPeak("cannot normalize an all-zero spectrum")
    meta = {
        "theta_deg": theta_deg,
        "lambda_p_nm": lambda_p,
        "length_mm": length_mm,
        "interactions": list(interactions),
        "peaks_nm": sorted(peaks),
        "long_peak_attenuation": long_peak_attenuation,
        "noise_floor": noise_floor,
        "kernels": kernels,
        "normalized": True,
    }
    return Spectrum(grid, inten / peak + noise_floor, meta)  # checks the grid and intensities


def fwhm(sp: Spectrum) -> float:
    """Full width at half maximum by linear interpolation around the peak.

    Requires a unique global maximum with the half level crossed on both
    sides of it inside the grid.
    """
    inten = sp.intensity
    peak = float(inten.max())
    if peak <= 0:
        raise NoPeak("spectrum has no positive peak")
    ties = np.nonzero(inten >= peak * (1.0 - 1e-12))[0]
    if len(ties) > 1:
        raise NoPeak(f"{len(ties)} equal global maxima; width is ambiguous")
    ip = int(ties[0])
    half = peak / 2.0
    lam = sp.wavelength_nm

    def cross(side):
        rng = range(ip, 0, -1) if side < 0 else range(ip, len(inten) - 1)
        for j in rng:
            k = j + side
            if inten[k] < half <= inten[j]:
                frac = (inten[j] - half) / (inten[j] - inten[k])
                return lam[j] + frac * (lam[k] - lam[j])
        raise HalfMaxNotBracketed(
            f"half maximum not crossed on the {'left' if side < 0 else 'right'} side"
        )

    return float(cross(+1) - cross(-1))


def bandwidth_estimates(
    theta_deg: float,
    lambda_p: float,
    inter,
    length_mm: float,
    s: LayerStack,
    matcher=None,
):
    """Analytic sinc^2 FWHM for this geometry and its copropagating reference.

    Both follow from FWHM = 2 * x_half * (2/L) / |d dk / d lambda| with the
    mismatch slope 2 pi (n_gs + n_gi) / lambda^2 here and
    2 pi |n_gs - n_gi| / lambda^2 for two copropagating guided photons on the
    same stack. Returns (counterprop_fwhm_nm, coprop_fwhm_nm).
    """
    require(length_mm, LENGTH_MM, "sample length")
    m = _matcher(matcher, s)
    p = m.solve_pair(theta_deg, lambda_p, inter)
    ngs = m.n_group(inter.copropagating_pol, p.lambda_s_nm)
    ngi = m.n_group(inter.counterpropagating_pol, p.lambda_i_nm)
    length_nm = length_mm * 1e6
    width = 4.0 * SINC2_HALF_MAX_ARG * p.lambda_s_nm**2 / (2.0 * math.pi * length_nm)
    return width / (ngs + ngi), width / abs(ngs - ngi)
