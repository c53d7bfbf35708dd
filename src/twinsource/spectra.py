"""Emission spectra of the down-converted photons.

For a monochromatic pump the single-interaction spectrum is
sinc^2(dk L / 2) in the longitudinal mismatch dk, evaluated against the
signal wavelength; the counterpropagating geometry makes dk grow with the
sum of the signal and idler group indices, which is what squeezes the
bandwidth far below the copropagating case. Measured spectra are modeled by
convolving with Gaussian kernels for the pump linewidth and the
monochromator resolution.

Wavelength grids are uniform, in nm; intensities are dimensionless and
non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HalfMaxNotBracketed, KernelUnderResolved, NoPeak
from .phasematch import PhaseMatcher, conjugate_wavelength, interaction
from .stack import LayerStack

# |x| where sinc^2(x) = 1/2; fixes the sinc^2 full width 2x at half maximum
SINC2_HALF_MAX_ARG = 1.3915573782515


@dataclass
class Spectrum:
    """Sampled spectrum on a strictly increasing uniform wavelength grid."""

    wavelength_nm: np.ndarray
    intensity: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if lam.ndim != 1 or lam.size < 2 or inten.shape != lam.shape:
            raise ValueError("wavelength and intensity must be matching 1D arrays")
        steps = np.diff(lam)
        if np.any(steps <= 0) or (steps.max() - steps.min()) > 1e-9 * steps.mean():
            raise ValueError("wavelength grid must be uniform and strictly increasing")
        if np.any(inten < 0):
            raise ValueError("intensities must be non-negative")
        self.wavelength_nm = lam
        self.intensity = inten

    @property
    def step_nm(self) -> float:
        return float(self.wavelength_nm[1] - self.wavelength_nm[0])

    def normalized(self) -> "Spectrum":
        peak = float(self.intensity.max())
        if peak <= 0:
            raise NoPeak("cannot normalize an all-zero spectrum")
        meta = dict(self.metadata, normalized=True)
        return Spectrum(self.wavelength_nm, self.intensity / peak, meta)


@dataclass(frozen=True)
class GaussianKernel:
    """Unit-area Gaussian convolution kernel, specified by its FWHM in nm."""

    fwhm_nm: float

    def __post_init__(self):
        if self.fwhm_nm <= 0:
            raise ValueError("kernel FWHM must be positive")

    @property
    def sigma_nm(self) -> float:
        return self.fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def sinc2(x):
    """sinc^2 with sinc(x) = sin(x)/x and sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = (np.sin(x[nz]) / x[nz]) ** 2
    return out if out.ndim else float(out)


def phase_matching_intensity(
    lambda_s, theta_deg, lambda_p, inter, length_mm, s: LayerStack, matcher=None
):
    """sinc^2(dk L/2) at arbitrary signal wavelengths (peak value exactly 1)."""
    m: PhaseMatcher = matcher or PhaseMatcher(s)
    length_nm = length_mm * 1e6
    dk = m.delta_k(lambda_s, theta_deg, lambda_p, inter)
    return sinc2(np.asarray(dk) * length_nm / 2.0)


def phase_matching_spectrum(
    theta_deg: float,
    lambda_p: float,
    inter,
    length_mm: float,
    s: LayerStack,
    grid: np.ndarray | None = None,
    half_span_nm: float = 5.0,
    step_nm: float = 0.005,
    matcher=None,
) -> Spectrum:
    """Single-interaction sinc^2 spectrum around its phase-matched wavelength."""
    if length_mm <= 0:
        raise ValueError("sample length must be positive")
    m: PhaseMatcher = matcher or PhaseMatcher(s)
    point = m.solve_pair(theta_deg, lambda_p, inter)
    if grid is None:
        grid = _make_grid(
            point.lambda_s_nm - half_span_nm, point.lambda_s_nm + half_span_nm, step_nm
        )
    else:
        grid = np.asarray(grid, dtype=float)
        if grid[0] > point.lambda_s_nm or grid[-1] < point.lambda_s_nm:
            raise ValueError("grid does not cover the phase-matched wavelength")
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


def _make_grid(lo, hi, step):
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def convolve(sp: Spectrum, kernel: GaussianKernel) -> Spectrum:
    """Discrete convolution on the spectrum's own grid (zero-padded edges).

    The kernel is sampled out to 6 sigma and normalized to unit sum, so the
    total integral is preserved to better than 0.1% for features well inside
    the grid.
    """
    step = sp.step_nm
    if kernel.fwhm_nm < 2.0 * step:
        raise KernelUnderResolved(
            f"kernel FWHM {kernel.fwhm_nm} nm under-resolved on a {step} nm grid"
        )
    half = int(math.ceil(6.0 * kernel.sigma_nm / step))
    x = step * np.arange(-half, half + 1)
    k = np.exp(-0.5 * (x / kernel.sigma_nm) ** 2)
    k /= k.sum()
    out = np.convolve(sp.intensity, k, mode="same")
    meta = dict(sp.metadata)
    meta["kernels"] = list(meta.get("kernels", [])) + [
        {"shape": "gaussian", "fwhm_nm": kernel.fwhm_nm}
    ]
    return Spectrum(sp.wavelength_nm, np.clip(out, 0.0, None), meta)


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
    """
    m: PhaseMatcher = matcher or PhaseMatcher(s)
    if noise_floor < 0:
        raise ValueError("noise floor must be non-negative")
    inters = [interaction(i) for i in interactions]
    if not inters:
        raise ValueError("at least one interaction required")
    points = [m.solve_pair(theta_deg, lambda_p, it) for it in inters]
    peaks = [w for p in points for w in (p.lambda_s_nm, p.lambda_i_nm)]
    grid = _make_grid(min(peaks) - half_span_nm, max(peaks) + half_span_nm, step_nm)

    length_nm = length_mm * 1e6
    lam_deg = 2.0 * lambda_p
    total = np.zeros_like(grid)
    conj = conjugate_wavelength(lambda_p, grid)
    for it, p in zip(inters, points):
        for branch_peak, lam_eval in ((p.lambda_s_nm, grid), (p.lambda_i_nm, conj)):
            dk = m.delta_k(lam_eval, theta_deg, lambda_p, it)
            branch = sinc2(dk * length_nm / 2.0)
            if branch_peak > lam_deg:
                branch = branch * long_peak_attenuation
            total += branch

    sp = Spectrum(
        grid,
        total,
        {
            "theta_deg": theta_deg,
            "lambda_p_nm": lambda_p,
            "length_mm": length_mm,
            "interactions": list(interactions),
            "peaks_nm": sorted(peaks),
            "long_peak_attenuation": long_peak_attenuation,
            "noise_floor": noise_floor,
            "kernels": [],
        },
    )
    for fwhm in (pump_fwhm_nm, mono_fwhm_nm):
        if fwhm and fwhm > 0:
            sp = convolve(sp, GaussianKernel(fwhm))
    sp = sp.normalized()
    return Spectrum(sp.wavelength_nm, sp.intensity + noise_floor, sp.metadata)


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
    m: PhaseMatcher = matcher or PhaseMatcher(s)
    p = m.solve_pair(theta_deg, lambda_p, inter)
    ngs = m.n_group(inter.copropagating_pol, p.lambda_s_nm)
    ngi = m.n_group(inter.counterpropagating_pol, p.lambda_i_nm)
    length_nm = length_mm * 1e6
    width = 4.0 * SINC2_HALF_MAX_ARG * p.lambda_s_nm**2 / (2.0 * math.pi * length_nm)
    return width / (ngs + ngi), width / abs(ngs - ngi)
