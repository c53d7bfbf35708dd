"""One-dimensional transfer-matrix engine over the epitaxial layer stack.

Conventions
-----------
* Depth axis points downward; depth 0 is the top (air) surface.
* Incidence angle ``theta`` is measured in the ambient medium, in degrees.
* Time convention exp(-i w t): forward waves go as exp(+i k z), absorbing
  media have Im(n) >= 0.
* The characteristic-matrix (admittance) formulation is used: per layer
  ``M = [[cos d, -i sin d / eta], [-i eta sin d, cos d]]`` with phase
  thickness ``d = k0 n t cos(theta_layer)`` and tilted admittance
  ``eta = n cos(theta)`` for TE, ``n / cos(theta)`` for TM (free-space
  admittance factored out).
* For lossless stacks R + T = 1; the substrate may be absorbing (complex
  index), in which case T is the flux entering it.

All lengths in nanometres unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import materials
from .errors import MultipleResonances, NoResonanceInWindow
from .materials import Composition, DispersionModel

TE = "TE"
TM = "TM"


@dataclass(frozen=True)
class Layer:
    """One epitaxial layer: alloy composition, thickness, and the sign of its
    effective second-order nonlinearity (bookkeeping for the QPM pattern)."""

    composition: Composition
    thickness_nm: float
    nonlinear_sign: int = 0

    def __post_init__(self):
        if self.thickness_nm <= 0:
            raise ValueError(f"layer thickness must be > 0, got {self.thickness_nm}")
        if self.nonlinear_sign not in (-1, 0, 1):
            raise ValueError(f"nonlinear_sign must be -1, 0 or +1, got {self.nonlinear_sign}")


@dataclass(frozen=True)
class Region:
    """Named contiguous slice of the layer list (half-open [start, stop))."""

    name: str
    start: int
    stop: int
    periods: float


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers (top to bottom) between the ambient and the substrate.

    ``substrate=None`` continues the ambient medium below the layers (useful
    for free-standing test cases). Regions, when present, must partition the
    layer list top to bottom; a region named ``core`` must carry a strictly
    alternating +1/-1 nonlinear-sign pattern.
    """

    layers: tuple
    substrate: Composition | None = Composition(0.0)
    ambient_index: float = 1.0
    regions: tuple = ()

    def __post_init__(self):
        if self.ambient_index < 1.0:
            raise ValueError("ambient index below vacuum")
        if self.regions:
            pos = 0
            for reg in self.regions:
                if reg.start != pos or reg.stop <= reg.start:
                    raise ValueError("regions must partition the layer list in order")
                pos = reg.stop
                if reg.periods <= 0 or round(2 * reg.periods) != 2 * reg.periods:
                    raise ValueError(f"region '{reg.name}' has invalid period count {reg.periods}")
                n_layers = reg.stop - reg.start
                if n_layers != round(2 * reg.periods):
                    raise ValueError(
                        f"region '{reg.name}' declares {reg.periods} periods but "
                        f"holds {n_layers} layers"
                    )
            if pos != len(self.layers):
                raise ValueError("regions do not cover the whole layer list")
        core = self.region("core")
        if core is not None:
            signs = [ly.nonlinear_sign for ly in self.layers[core.start : core.stop]]
            if any(s == 0 for s in signs) or any(
                signs[i] == signs[i + 1] for i in range(len(signs) - 1)
            ):
                raise ValueError("core region must alternate nonlinear_sign +1/-1")

    def region(self, name: str) -> Region | None:
        for reg in self.regions:
            if reg.name == name:
                return reg
        return None

    def region_layers(self, name: str) -> tuple:
        return self.layers[_region_slice(self, name)]


@dataclass(frozen=True)
class StackResponse:
    """Plane-wave response at one (wavelength, angle, polarization) point; over
    a wavelength array ``r``, ``t``, ``reflectance`` and ``transmittance`` are
    arrays of the same length."""

    r: complex
    t: complex
    reflectance: float
    transmittance: float
    wavelength_nm: float
    theta_deg: float
    polarization: str


@dataclass(frozen=True)
class FieldProfile:
    """Tangential field amplitude vs depth for unit incident amplitude."""

    depth_nm: np.ndarray
    amplitude: np.ndarray
    wavelength_nm: float
    theta_deg: float
    polarization: str


@dataclass(frozen=True)
class ResonanceResult:
    wavelength_nm: float
    finesse: float
    t_up: float
    t_down: float
    reflectance_min: float
    fwhm_nm: float
    fsr_nm: float


# ---------------------------------------------------------------------------
# low-level engine on raw index arrays
# ---------------------------------------------------------------------------

# wavelengths per kernel call in stack_response: the kernel's temporaries take
# about 30 kB per wavelength for the 127-layer device, so a block holds ~8 MB
_BLOCK = 256


def _cos_theta(n, n0_sin):
    """Cosine of the propagation angle inside a medium of index n."""
    return np.sqrt(1.0 - (n0_sin / n) ** 2 + 0j)


def _admittance(n, cos_t, pol):
    return n * cos_t if pol == TE else n / cos_t


def _char_matrix(n_list, t_list, n0_sin, wavelength, pol):
    """Characteristic matrices of a layer sequence (top to bottom), one per wavelength.

    ``wavelength`` is a 1-D array of W values, ``n_list`` the layer indices
    with shape (L,) or (W, L), ``t_list`` the L thicknesses and ``n0_sin``
    a scalar or a (W,) array. Returns the entries m00, m01, m10, m11 as a
    (4, W) array. Neighbouring matrices are multiplied pairwise, level by
    level, so the number of array operations grows with log2 L only, not
    with L or W.
    """
    k0 = (2.0 * math.pi / wavelength)[:, None]
    n0_sin = np.reshape(n0_sin, (-1, 1))
    ct = _cos_theta(n_list, n0_sin)
    eta = _admittance(n_list, ct, pol)
    d = k0 * n_list * ct * np.asarray(t_list, dtype=float)
    c, s = np.cos(d), np.sin(d)
    n_layers = d.shape[1]
    # m[i, j] holds entry (i, j) of every layer matrix, shape (W, P); identity
    # matrices pad the sequence to P = a power of two, so every level pairs
    # all of its matrices (multiplying by an identity is exact)
    m = np.zeros((2, 2, len(d), 1 << (n_layers - 1).bit_length()), dtype=complex)
    m[0, 0, :, n_layers:] = m[1, 1, :, n_layers:] = 1.0
    m[0, 0, :, :n_layers] = m[1, 1, :, :n_layers] = c
    m[0, 1, :, :n_layers] = -1j * s / eta
    m[1, 0, :, :n_layers] = -1j * eta * s
    while m.shape[-1] > 1:
        a, b = m[..., 0::2], m[..., 1::2]
        # row i of a times b: a[i, 0] b[0, :] + a[i, 1] b[1, :]
        m = a[:, :1] * b[0] + a[:, 1:] * b[1]
    return m[..., 0].reshape(4, -1)


def raw_response(n0, n_list, t_list, n_sub, wavelength, theta_deg, pol):
    """Fresnel response (r, t, R, T) of an arbitrary index profile (low-level entry point).

    ``wavelength`` is a scalar or a 1-D array of W values. ``n_list`` holds
    one index per layer, shape (L,) or (W, L); ``n0``, ``n_sub`` and
    ``theta_deg`` are scalars or (W,) arrays. A scalar wavelength gives
    scalars out, an array gives (W,) arrays.
    """
    lam = np.asarray(wavelength, dtype=float)
    n0_sin = n0 * np.sin(np.radians(theta_deg))
    eta0 = _admittance(n0, _cos_theta(n0, n0_sin), pol)
    eta_sub = _admittance(n_sub, _cos_theta(n_sub, n0_sin), pol)
    m00, m01, m10, m11 = _char_matrix(np.asarray(n_list), t_list, n0_sin, lam.reshape(-1), pol)
    b = m00 + m01 * eta_sub
    c = m10 + m11 * eta_sub
    denom = eta0 * b + c
    r = (eta0 * b - c) / denom
    t = 2.0 * eta0 / denom
    reflectance = np.abs(r) ** 2
    transmittance = 4.0 * np.real(eta0) * np.real(eta_sub) / np.abs(denom) ** 2
    if lam.ndim == 0:
        return complex(r[0]), complex(t[0]), float(reflectance[0]), float(transmittance[0])
    return r, t, reflectance, transmittance


# ---------------------------------------------------------------------------
# stack-level operations
# ---------------------------------------------------------------------------


def _region_slice(s: LayerStack, name: str) -> slice:
    reg = s.region(name)
    if reg is None:
        raise KeyError(f"stack has no region named '{name}'")
    return slice(reg.start, reg.stop)


def _thicknesses(s: LayerStack) -> np.ndarray:
    return np.array([ly.thickness_nm for ly in s.layers])


def layer_indices(s: LayerStack, wavelength, model: DispersionModel | None = None):
    """Per-layer refractive indices (below-gap real): shape (L,) at one
    wavelength, (W, L) over a 1-D array of W wavelengths. Each distinct
    composition is evaluated once."""
    cache = {}
    for ly in s.layers:
        key = ly.composition.x
        if key not in cache:
            cache[key] = materials.refractive_index(ly.composition, wavelength, model)
    return np.array([cache[ly.composition.x] for ly in s.layers]).T


def substrate_index(s: LayerStack, wavelength, model: DispersionModel | None = None):
    """Complex substrate index (absorbing above the gap), a scalar or an array
    like ``wavelength``; a scalar whenever the substrate is the ambient."""
    if s.substrate is None:
        return complex(s.ambient_index)
    return materials.complex_refractive_index(s.substrate, wavelength, model)


def stack_response(
    s: LayerStack,
    wavelength,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
) -> StackResponse:
    """Plane-wave response at one wavelength (scalar fields) or over a 1-D
    wavelength array (array fields)."""
    lam = np.asarray(wavelength, dtype=float)
    if lam.size > _BLOCK:
        parts = [
            stack_response(s, lam[i : i + _BLOCK], theta_deg, pol, model)
            for i in range(0, lam.size, _BLOCK)
        ]
        r, t, R, T = (
            np.concatenate([getattr(p, name) for p in parts])
            for name in ("r", "t", "reflectance", "transmittance")
        )
    else:
        n_list = layer_indices(s, wavelength, model)
        n_sub = substrate_index(s, wavelength, model)
        r, t, R, T = raw_response(
            s.ambient_index, n_list, _thicknesses(s), n_sub, wavelength, theta_deg, pol
        )
    return StackResponse(r, t, R, T, wavelength, theta_deg, pol)


def characteristic_matrix(
    s: LayerStack,
    wavelength,
    theta_deg: float = 0.0,
    pol: str = TE,
    layer_slice: slice | None = None,
    model: DispersionModel | None = None,
):
    """2x2 characteristic matrix of the stack (or a slice of its layers);
    shape (W, 2, 2) over a 1-D array of W wavelengths."""
    n_list = layer_indices(s, wavelength, model)
    t_list = _thicknesses(s)
    if layer_slice is not None:
        n_list = n_list[..., layer_slice]
        t_list = t_list[layer_slice]
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    m = _char_matrix(n_list, t_list, n0_sin, np.reshape(wavelength, -1), pol)
    m = m.T.reshape(-1, 2, 2)
    return m if np.ndim(wavelength) else m[0]


def _walk(f, g, n_list, t_list, n0_sin, k0, pol):
    """Wave amplitudes (A, B, kz, eta) at the top of each layer, given the
    tangential field (F, G) at the top of the first; also (F, G) below the last."""
    out = []
    for n, t_nm in zip(n_list, t_list):
        ct = _cos_theta(n, n0_sin)
        eta = _admittance(n, ct, pol)
        # tangential (F, G) continuity across the interface
        a = 0.5 * (f + g / eta)
        b = 0.5 * (f - g / eta)
        kz = k0 * n * ct
        out.append((a, b, kz, eta))
        a_bot = a * np.exp(1j * kz * t_nm)
        b_bot = b * np.exp(-1j * kz * t_nm)
        f = a_bot + b_bot
        g = eta * (a_bot - b_bot)
    return out, f, g


def _layer_field(a, b, kz, x):
    """Tangential field at depths x below the top of a layer."""
    return a * np.exp(1j * kz * x) + b * np.exp(-1j * kz * x)


def layer_amplitudes(
    s: LayerStack,
    wavelength: float,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
):
    """Forward/backward wave amplitudes (A, B) at the top of every medium.

    Returns a list of (A, B, kz, eta) tuples for ambient, each layer, and the
    substrate (B = 0 there), normalized to unit incident amplitude. The net
    downward flux Re(eta) (|A|^2 - |B|^2) is conserved through lossless media.
    """
    k0 = 2.0 * math.pi / wavelength
    n_list = layer_indices(s, wavelength, model)
    t_list = _thicknesses(s)
    n_sub = substrate_index(s, wavelength, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    r, _, _, _ = raw_response(s.ambient_index, n_list, t_list, n_sub, wavelength, theta_deg, pol)

    ct0 = _cos_theta(s.ambient_index, n0_sin)
    eta0 = _admittance(s.ambient_index + 0j, ct0, pol)
    out = [(1.0 + 0j, complex(r), k0 * s.ambient_index * ct0, eta0)]
    layers, f, g = _walk(1.0 + r, eta0 * (1.0 - r), n_list, t_list, n0_sin, k0, pol)
    ct_sub = _cos_theta(n_sub, n0_sin)
    eta_sub = _admittance(n_sub, ct_sub, pol)
    out += layers
    out.append((0.5 * (f + g / eta_sub), 0j, k0 * n_sub * ct_sub, eta_sub))
    return out


def field_profile(
    s: LayerStack,
    wavelength: float,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
    points_per_layer: int = 12,
    pad_nm: float = 200.0,
) -> FieldProfile:
    """Tangential field amplitude through the stack for unit incident amplitude.

    Per-layer forward/backward amplitudes come from the same matrix cascade as
    the reflectivity; each layer is sampled at >= ``points_per_layer`` points
    including both of its boundaries, plus evanescent/propagating tails of
    ``pad_nm`` in the ambient and substrate.
    """
    amps_per_medium = layer_amplitudes(s, wavelength, theta_deg, pol, model)
    t_list = [ly.thickness_nm for ly in s.layers]

    depths, amps = [], []
    a0, b0, kz0, _ = amps_per_medium[0]
    if pad_nm > 0:
        x = np.linspace(-pad_nm, 0.0, max(2, points_per_layer))
        depths.append(x)
        amps.append(_layer_field(a0, b0, kz0, x))

    z = 0.0
    for (a, b, kz, _), t_nm in zip(amps_per_medium[1:-1], t_list):
        x_local = np.linspace(0.0, t_nm, max(points_per_layer, 2))
        depths.append(z + x_local)
        amps.append(_layer_field(a, b, kz, x_local))
        z += t_nm

    a_sub, _, kz_sub, _ = amps_per_medium[-1]
    if pad_nm > 0:
        x = np.linspace(0.0, pad_nm, max(2, points_per_layer))
        depths.append(z + x)
        amps.append(a_sub * np.exp(1j * kz_sub * x))

    return FieldProfile(
        depth_nm=np.concatenate(depths),
        amplitude=np.concatenate(amps),
        wavelength_nm=wavelength,
        theta_deg=theta_deg,
        polarization=pol,
    )


def core_intensity(
    s: LayerStack,
    wavelength: float,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
) -> float:
    """Peak |field|^2 inside the core region for unit incident intensity.

    Only the core is sampled, at the 12 points per layer of ``field_profile``.
    The field at the top of the core is the transmitted substrate field
    carried up through the core and the layers below it.
    """
    core = _region_slice(s, "core")
    k0 = 2.0 * math.pi / wavelength
    n_list = layer_indices(s, wavelength, model)
    t_list = _thicknesses(s)
    n_sub = substrate_index(s, wavelength, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    _, t, _, _ = raw_response(s.ambient_index, n_list, t_list, n_sub, wavelength, theta_deg, pol)
    below = slice(core.start, None)
    m00, m01, m10, m11 = _char_matrix(
        n_list[below], t_list[below], n0_sin, np.reshape(wavelength, -1), pol
    )[:, 0]
    eta_sub = _admittance(n_sub, _cos_theta(n_sub, n0_sin), pol)
    f, g = t * (m00 + m01 * eta_sub), t * (m10 + m11 * eta_sub)
    layers, _, _ = _walk(f, g, n_list[core], t_list[core], n0_sin, k0, pol)
    a, b, kz, _ = (np.array(col)[:, None] for col in zip(*layers))
    x = np.linspace(0.0, t_list[core], 12, axis=1)
    return float(np.max(np.abs(_layer_field(a, b, kz, x)) ** 2))


# ---------------------------------------------------------------------------
# resonance search
# ---------------------------------------------------------------------------


def _prominent_minima(y, prominence):
    """Indices of the local minima of ``y`` with at least the given prominence.

    Same result as ``scipy.signal.find_peaks(-y, prominence=prominence)[0]``:
    a flat minimum (a run of equal samples) counts once, at its middle sample
    (the left one of the two middles), and a run touching either end of the
    series is no minimum. The prominence is measured from the lower of the two
    highest points reached on walking away from the minimum, either side,
    until the series first drops below it (or ends).
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        return np.array([], dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    stops = np.r_[starts[1:], len(y)]
    v = y[starts]
    runs = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1
    keep = []
    for k in runs:
        i = (starts[k] + stops[k] - 1) // 2
        lower = np.flatnonzero(y[:i] < y[i])
        left = y[lower[-1] if len(lower) else 0 : i + 1].max()
        lower = np.flatnonzero(y[i:] < y[i])
        right = y[i : i + lower[0] if len(lower) else len(y)].max()
        if min(left, right) - y[i] >= prominence:
            keep.append(i)
    return np.array(keep, dtype=np.intp)


def _golden_minimize(fun, a, b, xtol):
    """Golden-section minimum of a unimodal scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _cavity(s, wavelength, theta_deg, pol, model):
    """Round-trip propagation phase through the core, and the (r, t, R, T) of
    the top and of the bottom DBR, each seen from the core.

    For the mirrors the core is a uniform medium of its thickness-weighted
    mean index; the incidence angle, defined in air, is carried into it by
    the conserved transverse momentum n0 sin(theta).
    """
    top, core, bottom = (_region_slice(s, name) for name in ("top_dbr", "core", "bottom_dbr"))
    k0 = 2.0 * math.pi / wavelength
    n_list = layer_indices(s, wavelength, model)
    t_list = _thicknesses(s)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    n_core, t_core = n_list[core], t_list[core]
    opl = sum(n_core * t_core * _cos_theta(n_core, n0_sin).real)
    n_mean = sum(n_core * t_core) / sum(t_core)
    theta_core = math.degrees(math.asin(n0_sin / abs(n_mean)))
    up = raw_response(
        n_mean, n_list[top][::-1], t_list[top][::-1], s.ambient_index, wavelength, theta_core, pol
    )
    down = raw_response(
        n_mean,
        n_list[bottom],
        t_list[bottom],
        substrate_index(s, wavelength, model),
        wavelength,
        theta_core,
        pol,
    )
    return 2.0 * k0 * opl, up, down


def find_resonance(
    s: LayerStack,
    lambda_window: tuple,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
    scan_step_nm: float = 0.05,
    prominence: float = 5e-4,
) -> ResonanceResult:
    """Locate the cavity resonance in a window holding exactly one R dip.

    Numerics, fixed apart from the scan step and the prominence:

    * the window is scanned at ``scan_step_nm`` (0.05 nm) and must hold
      exactly one reflectance minimum of at least ``prominence``;
    * the resonance wavelength is the reflectance minimum, golden-section
      refined from the neighbouring scan points to xtol = 1e-3 nm;
    * the FWHM is read off the core field-intensity resonance curve: each
      half-maximum crossing is bracketed by walking out in 0.1 nm steps, then
      bisected 40 times;
    * the free spectral range comes from the slope of the cavity round-trip
      phase, a central difference with h = 0.05 nm (the window holds a single
      dip, so peak-to-peak spacing is not available);
    * the finesse is FSR / FWHM.

    T_up and T_down are the transmittances of the two DBR sub-stacks seen
    from the core at the resonance wavelength.
    """
    lo, hi = lambda_window
    if not (hi > lo):
        raise ValueError("empty wavelength window")
    lams = np.arange(lo, hi + scan_step_nm / 2, scan_step_nm)
    refl = stack_response(s, lams, theta_deg, pol, model).reflectance
    idx = _prominent_minima(refl, prominence)
    if len(idx) == 0:
        raise NoResonanceInWindow(f"no reflectance dip in [{lo}, {hi}] nm")
    if len(idx) > 1:
        raise MultipleResonances(f"{len(idx)} reflectance dips in [{lo}, {hi}] nm")
    i = int(idx[0])

    def refl_at(lam):
        return stack_response(s, lam, theta_deg, pol, model).reflectance

    lam_res = _golden_minimize(refl_at, lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)], 1e-3)
    r_min = refl_at(lam_res)

    # FWHM of the core intensity resonance
    def intensity(lam):
        return core_intensity(s, lam, theta_deg, pol, model)

    peak = intensity(lam_res)
    half = peak / 2.0

    def crossing(direction):
        step = 0.1 * direction
        lam_in, lam_out = lam_res, lam_res + step
        while intensity(lam_out) > half:
            lam_in = lam_out
            lam_out += step
            if abs(lam_out - lam_res) > (hi - lo):
                raise NoResonanceInWindow("core resonance half-width exceeds the window")
        for _ in range(40):
            mid = 0.5 * (lam_in + lam_out)
            if intensity(mid) > half:
                lam_in = mid
            else:
                lam_out = mid
        return 0.5 * (lam_in + lam_out)

    fwhm = crossing(+1.0) - crossing(-1.0)

    # FSR from the round-trip phase slope (central difference, wrap-safe)
    h = 0.05
    prop_p, (up_p, *_), (dn_p, *_) = _cavity(s, lam_res + h, theta_deg, pol, model)
    prop_m, (up_m, *_), (dn_m, *_) = _cavity(s, lam_res - h, theta_deg, pol, model)
    dphi = (prop_p - prop_m) + np.angle(up_p / up_m) + np.angle(dn_p / dn_m)
    fsr = 2.0 * math.pi / abs(dphi / (2.0 * h))

    _, (*_, t_up), (*_, t_down) = _cavity(s, lam_res, theta_deg, pol, model)

    return ResonanceResult(
        wavelength_nm=float(lam_res),
        finesse=float(fsr / fwhm),
        t_up=float(t_up),
        t_down=float(t_down),
        reflectance_min=float(r_min),
        fwhm_nm=float(fwhm),
        fsr_nm=float(fsr),
    )
