"""Guided TE/TM modes of the multilayer planar waveguide.

The guided-mode condition is expressed through the (F, G) transfer across the
layer sequence, where F is the tangential field (E_y for TE, H_y for TM) and
G = F'/m with m = 1 for TE and m = n^2 for TM. Starting from a decaying
solution in the top outer medium and requiring a decaying solution in the
bottom one gives a real dispersion residual

    D(n_eff) = G_N + (gamma_bot / m_bot) F_N

whose simple roots are the guided modes. D is analytic in n_eff^2 (the layer
transfer uses cos(kappa t) and sin(kappa t)/kappa, both entire), so every sign
change on a scan grid brackets a true root. Roots are located by sign-change
bracketing on an effective-index grid of step <= 1e-4 and polished by
bisection, and are reported sorted by descending n_eff (order 0 = fundamental).

The nominal device sits on a GaAs substrate whose index at telecom
wavelengths exceeds every layer index, so the strict 1D structure has no
bound modes at all: the thick lower DBR is what isolates the guided light
from the substrate. The default ``substrate_policy="auto"`` therefore
replaces such a substrate by the low-index component of the deepest region
continued to infinity (the medium that sets the Bloch-evanescent decay of
the cladding tail); pass ``"substrate"`` to force the literal structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import materials
from .errors import ModeTrackingLost, NoGuidedMode, NonGuidingStack
from .materials import DispersionModel
from .stack import TE, TM, LayerStack

_GRID_STEP = 1e-4
_BISECT_TOL = 1e-12


@dataclass(frozen=True)
class GuidedMode:
    polarization: str
    wavelength_nm: float
    n_eff: float
    order: int
    n_g: float | None = None
    profile: tuple | None = None  # (depth_nm array, field array) when requested


# ---------------------------------------------------------------------------
# dispersion residual
# ---------------------------------------------------------------------------


def _layer_factors(n, t, m, u, k0):
    """Per-layer transfer ingredients on an n_eff^2 grid ``u``.

    Returns (c, m_sk, k2sk_m) with c = cos(kappa t) (cosh when evanescent),
    m_sk = m sin(kappa t)/kappa and k2sk_m = (kappa^2/m) sin(kappa t)/kappa,
    all real arrays.
    """
    s2 = n * n - u  # kappa^2 / k0^2, signed
    x = k0 * np.sqrt(np.abs(s2)) * t
    prop = s2 > 0
    c = np.where(prop, np.cos(np.where(prop, x, 0.0)), np.cosh(np.where(prop, 0.0, x)))
    with np.errstate(invalid="ignore", divide="ignore"):
        sk = np.where(
            prop,
            np.sin(np.where(prop, x, 0.0)) / np.where(x == 0, 1.0, k0 * np.sqrt(np.abs(s2))),
            np.sinh(np.where(prop, 0.0, x)) / np.where(x == 0, 1.0, k0 * np.sqrt(np.abs(s2))),
        )
    sk = np.where(x == 0, t, sk)
    k2 = k0 * k0 * s2
    return c, m * sk, (k2 / m) * sk


def _residual_grid(n_top, n_bot, layers, wavelength, pol, neff):
    """Dispersion residual D on an array of effective indices."""
    k0 = 2.0 * math.pi / wavelength
    u = neff * neff
    gamma_top = k0 * np.sqrt(u - n_top * n_top)
    gamma_bot = k0 * np.sqrt(u - n_bot * n_bot)
    m_top = 1.0 if pol == TE else n_top * n_top
    m_bot = 1.0 if pol == TE else n_bot * n_bot

    factors = {}
    for n, t in layers:
        m = 1.0 if pol == TE else n * n
        key = (n, t)
        if key not in factors:
            factors[key] = _layer_factors(n, t, m, u, k0)

    f = np.ones_like(neff)
    g = gamma_top / m_top
    for i, (n, t) in enumerate(layers):
        c, m_sk, k2sk_m = factors[(n, t)]
        f, g = c * f + m_sk * g, -k2sk_m * f + c * g
        if i % 8 == 7:
            scale = np.maximum(np.maximum(np.abs(f), np.abs(g)), 1e-280)
            f /= scale
            g /= scale
    return g + (gamma_bot / m_bot) * f


def _residual_scalar(n_top, n_bot, layers, wavelength, pol, neff):
    """Same residual for one effective index (fast python scalars)."""
    k0 = 2.0 * math.pi / wavelength
    u = neff * neff
    gamma_top = k0 * math.sqrt(u - n_top * n_top)
    gamma_bot = k0 * math.sqrt(u - n_bot * n_bot)
    m_top = 1.0 if pol == TE else n_top * n_top
    m_bot = 1.0 if pol == TE else n_bot * n_bot

    f = 1.0
    g = gamma_top / m_top
    for i, (n, t) in enumerate(layers):
        m = 1.0 if pol == TE else n * n
        s2 = n * n - u
        q = k0 * math.sqrt(abs(s2))
        x = q * t
        if x < 1e-9:
            c, sk = 1.0, t
        elif s2 > 0:
            c, sk = math.cos(x), math.sin(x) / q
        else:
            c, sk = math.cosh(x), math.sinh(x) / q
        k2 = k0 * k0 * s2
        f, g = c * f + m * sk * g, -(k2 / m) * sk * f + c * g
        if i % 8 == 7:
            scale = max(abs(f), abs(g), 1e-280)
            f /= scale
            g /= scale
    return g + (gamma_bot / m_bot) * f


def _bisect_root(fun, a, b, fa, fb, tol):
    while (b - a) > tol:
        mid = 0.5 * (a + b)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (fa < 0) != (fm < 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def solve_planar(
    n_top: float,
    layers,
    n_bottom: float,
    wavelength: float,
    pol: str = TE,
    grid_step: float = _GRID_STEP,
    tol: float = _BISECT_TOL,
    max_modes: int | None = None,
    window: tuple | None = None,
):
    """Effective indices of the guided modes of an arbitrary planar profile.

    ``layers`` is a sequence of (index, thickness_nm) pairs between the two
    semi-infinite outer media. Returns effective indices sorted descending;
    with ``max_modes`` the search stops after that many roots counted from the
    top of the window. ``window`` overrides the default guided-index search
    window (max outer index + 1e-6, max layer index - 1e-6).
    """
    layers = [(float(n), float(t)) for n, t in layers]
    n_max_layer = max((n for n, _ in layers), default=0.0)
    lo = max(n_top, n_bottom) + 1e-6
    hi = n_max_layer - 1e-6
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if hi <= lo:
        raise NonGuidingStack(
            f"no guided window: outer indices ({n_top:.4f}, {n_bottom:.4f}) "
            f"vs max layer index {n_max_layer:.4f}"
        )

    def roots_on_grid(step):
        npts = int(math.ceil((hi - lo) / step)) + 1
        grid = np.linspace(lo, hi, npts)
        d = _residual_grid(n_top, n_bottom, layers, wavelength, pol, grid)
        sign = np.sign(d)
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        fun = lambda x: _residual_scalar(n_top, n_bottom, layers, wavelength, pol, x)
        found = []
        for j in idx[::-1]:  # highest n_eff first
            root = _bisect_root(
                fun, float(grid[j]), float(grid[j + 1]), float(d[j]), float(d[j + 1]), tol
            )
            found.append(float(root))
            if max_modes is not None and len(found) >= max_modes:
                break
        return found

    roots = roots_on_grid(grid_step)
    if not roots:
        # near-cutoff modes can hide between grid points; refine once
        roots = roots_on_grid(grid_step / 10.0)
    if not roots:
        raise NoGuidedMode(
            f"no {pol} guided mode in n_eff window ({lo:.6f}, {hi:.6f}) at "
            f"{wavelength} nm"
        )
    return roots


# ---------------------------------------------------------------------------
# LayerStack front end
# ---------------------------------------------------------------------------


def _planar_profile(s: LayerStack, wavelength, model, substrate_policy):
    n_layers = [
        (materials.refractive_index(ly.composition, wavelength, model), ly.thickness_nm)
        for ly in s.layers
    ]
    if not n_layers:
        raise NonGuidingStack("stack has no layers")
    n_top = s.ambient_index
    if s.substrate is None:
        n_bot = s.ambient_index
    else:
        n_bot = materials.refractive_index(s.substrate, wavelength, model)
    if substrate_policy not in ("auto", "substrate"):
        raise ValueError(f"unknown substrate_policy {substrate_policy!r}")
    if substrate_policy == "auto" and n_bot >= max(n for n, _ in n_layers):
        # continue the effective cladding of the deepest region to infinity:
        # its low-index component sets the decay of any Bloch-evanescent tail
        last = s.regions[-1] if s.regions else None
        if last is not None:
            n_bot = min(n for n, _ in n_layers[last.start : last.stop])
        else:
            n_bot = n_layers[-1][0]
    return n_top, n_layers, n_bot


def guided_modes(
    s: LayerStack,
    wavelength: float,
    pol: str = TE,
    model: DispersionModel | None = None,
    grid_step: float = _GRID_STEP,
    max_modes: int | None = None,
    substrate_policy: str = "auto",
    include_profiles: bool = False,
):
    """Guided modes of the stack at one wavelength, fundamental first."""
    n_top, n_layers, n_bot = _planar_profile(s, wavelength, model, substrate_policy)
    roots = solve_planar(
        n_top, n_layers, n_bot, wavelength, pol, grid_step=grid_step, max_modes=max_modes
    )
    out = []
    for order, neff in enumerate(roots):
        profile = (
            _mode_profile(n_top, n_layers, n_bot, wavelength, pol, neff)
            if include_profiles
            else None
        )
        out.append(GuidedMode(pol, wavelength, neff, order, profile=profile))
    return out


def _mode_profile(n_top, layers, n_bot, wavelength, pol, neff, points_per_layer=12):
    """Sampled transverse field of one mode (normalized to unit peak)."""
    k0 = 2.0 * math.pi / wavelength
    u = neff * neff
    gamma_top = k0 * math.sqrt(u - n_top * n_top)
    m_top = 1.0 if pol == TE else n_top * n_top
    depth, field = [], []
    pad = 2.0 / gamma_top if gamma_top > 0 else 500.0
    x = np.linspace(-min(pad, 2000.0), 0.0, points_per_layer)
    depth.append(x)
    field.append(np.exp(gamma_top * x))
    f, g = 1.0, gamma_top / m_top
    z = 0.0
    for n, t in layers:
        m = 1.0 if pol == TE else n * n
        s2 = n * n - u
        q = k0 * math.sqrt(abs(s2))
        xs = np.linspace(0.0, t, points_per_layer)
        if q * t < 1e-9:
            c, sk = np.ones_like(xs), xs
        elif s2 > 0:
            c, sk = np.cos(q * xs), np.sin(q * xs) / q
        else:
            c, sk = np.cosh(q * xs), np.sinh(q * xs) / q
        k2 = k0 * k0 * s2
        depth.append(z + xs)
        field.append(c * f + m * sk * g)
        f, g = (
            float(c[-1] * f + m * sk[-1] * g),
            float(-(k2 / m) * sk[-1] * f + c[-1] * g),
        )
        z += t
    gamma_bot = k0 * math.sqrt(u - n_bot * n_bot)
    pad = 2.0 / gamma_bot if gamma_bot > 0 else 500.0
    x = np.linspace(0.0, min(pad, 2000.0), points_per_layer)
    depth.append(z + x)
    field.append(f * np.exp(-gamma_bot * x))
    depth = np.concatenate(depth)
    field = np.concatenate(field)
    return depth, field / np.max(np.abs(field))


def mode_residual(
    s: LayerStack,
    n_eff: float,
    wavelength: float,
    pol: str = TE,
    model: DispersionModel | None = None,
    substrate_policy: str = "auto",
):
    """Dispersion residual at one candidate n_eff (diagnostic/validation)."""
    n_top, n_layers, n_bot = _planar_profile(s, wavelength, model, substrate_policy)
    return _residual_scalar(n_top, n_bot, n_layers, wavelength, pol, n_eff)


def birefringence(
    s: LayerStack,
    wavelength: float,
    model: DispersionModel | None = None,
    substrate_policy: str = "auto",
) -> float:
    """n_eff(TE, fundamental) - n_eff(TM, fundamental)."""
    te = guided_modes(s, wavelength, TE, model, max_modes=1, substrate_policy=substrate_policy)
    tm = guided_modes(s, wavelength, TM, model, max_modes=1, substrate_policy=substrate_policy)
    return te[0].n_eff - tm[0].n_eff


def mode_group_index(
    s: LayerStack,
    pol: str,
    wavelength: float,
    order: int = 0,
    step_nm: float = 0.1,
    model: DispersionModel | None = None,
    substrate_policy: str = "auto",
) -> float:
    """Group index n_g = n_eff - lambda dn_eff/dlambda of one tracked mode.

    Central difference with the documented step; the same mode order must
    exist on both sides and stay within a small jump bound, otherwise
    tracking is declared lost.
    """
    vals = []
    for lam in (wavelength - step_nm, wavelength, wavelength + step_nm):
        ms = guided_modes(
            s, lam, pol, model, max_modes=order + 1, substrate_policy=substrate_policy
        )
        if len(ms) <= order:
            raise ModeTrackingLost(
                f"{pol} mode order {order} missing at {lam} nm while differentiating"
            )
        vals.append(ms[order].n_eff)
    if abs(vals[2] - vals[0]) > 0.05:
        raise ModeTrackingLost(
            f"{pol} mode order {order} jumped by {abs(vals[2] - vals[0]):.3f} "
            f"across +/-{step_nm} nm at {wavelength} nm"
        )
    dn = (vals[2] - vals[0]) / (2.0 * step_nm)
    return vals[1] - wavelength * dn


# ---------------------------------------------------------------------------
# dense-grid interpolation of the fundamental mode
# ---------------------------------------------------------------------------


class EffectiveIndexTable:
    """Cubic-spline table of the fundamental n_eff over a wavelength range.

    Dispersion solves are exact at the knots (direct root finding at every
    grid wavelength); between knots the spline reproduces direct solves to
    well below 1e-9 for any smooth guided branch, which keeps momentum
    residuals negligible while making sweeps cheap. The solve at each knot
    reuses the previous knot's root to narrow the scan window, falling back
    to the full window when that fails.
    """

    def __init__(
        self,
        s: LayerStack,
        pol: str,
        lambda_min: float,
        lambda_max: float,
        step_nm: float = 2.0,
        model: DispersionModel | None = None,
        substrate_policy: str = "auto",
    ):
        if lambda_max <= lambda_min:
            raise ValueError("empty wavelength range")
        npts = int(math.ceil((lambda_max - lambda_min) / step_nm)) + 1
        lams = np.linspace(lambda_min, lambda_max, max(npts, 4))
        neffs = np.empty_like(lams)
        prev = None
        for i, lam in enumerate(lams):
            n_top, n_layers, n_bot = _planar_profile(s, lam, model, substrate_policy)
            window = (prev - 0.02, prev + 0.02) if prev is not None else None
            try:
                roots = solve_planar(
                    n_top, n_layers, n_bot, lam, pol, max_modes=1, window=window
                )
            except (NoGuidedMode, NonGuidingStack):
                roots = solve_planar(n_top, n_layers, n_bot, lam, pol, max_modes=1)
            prev = roots[0]
            neffs[i] = prev
        self.polarization = pol
        self.lambda_min = float(lams[0])
        self.lambda_max = float(lams[-1])
        self._spline = CubicSpline(lams, neffs)
        self._dspline = self._spline.derivative()

    def _check(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < self.lambda_min - 1e-9) or np.any(lam > self.lambda_max + 1e-9):
            raise ValueError(
                f"wavelength {lam} outside table range "
                f"[{self.lambda_min}, {self.lambda_max}] nm"
            )

    def n_eff(self, wavelength):
        self._check(wavelength)
        val = self._spline(wavelength)
        return float(val) if np.isscalar(wavelength) else val

    __call__ = n_eff

    def n_group(self, wavelength):
        self._check(wavelength)
        val = self._spline(wavelength) - wavelength * self._dspline(wavelength)
        return float(val) if np.isscalar(wavelength) else val


def export_mode_table(
    s: LayerStack,
    wavelengths,
    path,
    pols=(TE, TM),
    max_modes: int = 1,
    model: DispersionModel | None = None,
    substrate_policy: str = "auto",
):
    """Write a CSV mode table: (pol, order, lambda_nm, n_eff, n_g)."""
    lines = ["pol,order,lambda_nm,n_eff,n_g"]
    for pol in pols:
        for lam in wavelengths:
            found = guided_modes(
                s, float(lam), pol, model, max_modes=max_modes,
                substrate_policy=substrate_policy,
            )
            for mode in found:
                ng = mode_group_index(
                    s, pol, float(lam), order=mode.order, model=model,
                    substrate_policy=substrate_policy,
                )
                lines.append(
                    f"{pol},{mode.order},{float(lam)!r},{mode.n_eff!r},{ng!r}"
                )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
