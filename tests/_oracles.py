"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's transfer-matrix machinery: the slab
solver below works from the textbook three-layer transcendental equation in
its phase form and locates roots by bisection on each mode branch, and the
transfer-matrix oracle multiplies the layer matrices one at a time in plain
complex arithmetic. The planar-mode oracle sweeps (F, G) once from the top
medium to the bottom one, layer by layer, and bisects its sign changes; the
dispersion oracle spells out the index formula in the order the package
evaluates it. The resonance oracle is the package's resonance search with its
field-intensity half-width found one wavelength at a time: a scalar walk out
in 0.1 nm steps and a scalar Brent solve of each crossing, with the core
field walked up from the substrate's as the package walks it. The
field-profile oracle walks the layer waves down from the surface field
(1 + r, eta0 (1 - r)), where the package walks them up from the substrate. The
dip-fit oracle is the damped Gauss-Newton fit that ``hom.fit_dip`` ran before
it solved for the width alone. The start-width oracle is ``fit_dip``'s coarse
initialization as it ran before it became one array pass: one width at a time,
each baseline a float mean of the net counts outside the dip.

The one-wavelength response oracle is the exception: it runs the package's
transfer-matrix kernel on a one-element wavelength array and takes the r/t
step on arrays, the floats that the plain-float path at one wavelength must
give. So is the waves oracle: ``stack._waves`` as it ran before it took every
layer's terms in one array pass, each layer's cos(theta), eta, kz and phase
factors computed in the loop that carries (F, G) up the slice.

The spline-piece oracle finds a table's piece by searching the knots, as
``EffectiveIndexTable._at`` did before it read the piece off the knot
lattice. The phase-matching oracles are ``solve_pair`` with every Brent
evaluation through the public ``delta_k``, and the fluorescence spectrum as it
was built before it shared its lookups: each branch looks up both of its
indices (eight lookups for two interactions), sinc^2 takes its mask form, and
every convolution and the normalization build a new ``Spectrum``; each
convolution's kernel is the oracle's own ``GaussianKernel``.

The table-writer oracle is the CLI's writer as it was before it went
column-wise: it indexes every column per row and formats each cell alone.
"""

import cmath
import json
import math

import numpy as np
from scipy.constants import c as _C, e as _E, h as _H

from twinsource import roots
from twinsource.errors import (
    DegenerateScan,
    KernelUnderResolved,
    NoConvergence,
    NoSolutionInWindow,
)
from twinsource.hom import (
    _BASELINE_PASSES,
    _BASELINE_RTOL,
    _INIT_DELTA_LAMBDA_NM,
    NM_PER_MM,
    FitResult,
    _dip_shape,
    _jacobian,
    dip_fwhm_mm,
    dip_half_width_mm,
)
from twinsource.phasematch import SEARCH_HALF_WINDOW_NM, interaction
from twinsource.spectra import Spectrum

HC_EV_NM = _H * _C / _E * 1e9
_MAX_ITERATIONS = 200  # Gauss-Newton iterations per refinement


def slab_modes(n_clad_top, n_core, n_clad_bot, thickness_nm, wavelength_nm, pol):
    """All guided n_eff of an asymmetric 3-layer slab, descending order.

    Solves kappa t - atan(w1/kappa) - atan(w2/kappa) = m pi with the TM
    admittance weights. The left side decreases monotonically in n_eff from
    its value at the cladding cut-off down to -pi at the core line, so each
    branch m holds exactly one root, found here by bisection.
    """
    k0 = 2.0 * math.pi / wavelength_nm

    def phase(neff):
        u = neff * neff
        kappa = k0 * math.sqrt(n_core**2 - u)
        g1 = k0 * math.sqrt(u - n_clad_top**2)
        g2 = k0 * math.sqrt(u - n_clad_bot**2)
        if pol == "TM":
            g1 *= n_core**2 / n_clad_top**2
            g2 *= n_core**2 / n_clad_bot**2
        return kappa * thickness_nm - math.atan2(g1, kappa) - math.atan2(g2, kappa)

    lo = max(n_clad_top, n_clad_bot) + 1e-9
    hi = n_core - 1e-9
    roots = []
    m = 0
    while phase(lo) - m * math.pi > 0:  # phase(hi) ~ -pi, so a root exists
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if phase(mid) - m * math.pi >= 0:
                a = mid
            else:
                b = mid
        roots.append(0.5 * (a + b))
        m += 1
    return sorted(roots, reverse=True)


def char_matrix_loop(n_list, t_list, n0_sin, wavelength, pol):
    """Characteristic matrix of a layer list at one wavelength, multiplied
    layer by layer, top to bottom (the textbook admittance form)."""
    k0 = 2.0 * math.pi / wavelength
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for n, t in zip(n_list, t_list):
        ct = cmath.sqrt(1.0 - (n0_sin / n) ** 2)
        eta = n * ct if pol == "TE" else n / ct
        d = k0 * n * ct * t
        c, s = cmath.cos(d), cmath.sin(d)
        a00, a01 = c, -1j * s / eta
        a10, a11 = -1j * eta * s, c
        m00, m01, m10, m11 = (
            m00 * a00 + m01 * a10,
            m00 * a01 + m01 * a11,
            m10 * a00 + m11 * a10,
            m10 * a01 + m11 * a11,
        )
    return m00, m01, m10, m11


def response_loop(n0, n_list, t_list, n_sub, wavelength, theta_deg, pol):
    """(R, T) of a layer list at one wavelength from ``char_matrix_loop``."""
    n0_sin = n0 * math.sin(math.radians(theta_deg))

    def admittance(n):
        ct = cmath.sqrt(1.0 - (n0_sin / n) ** 2)
        return n * ct if pol == "TE" else n / ct

    eta0, eta_sub = admittance(n0), admittance(n_sub)
    m00, m01, m10, m11 = char_matrix_loop(n_list, t_list, n0_sin, wavelength, pol)
    b = m00 + m01 * eta_sub
    c = m10 + m11 * eta_sub
    denom = eta0 * b + c
    r = (eta0 * b - c) / denom
    return abs(r) ** 2, 4.0 * eta0.real * eta_sub.real / abs(denom) ** 2


def response_at_numpy(n0, n_list, t_list, n_sub, wavelength, theta_deg, pol, tree=None):
    """``stack.raw_response`` at one wavelength as numpy computes it: the
    kernel ``_char_matrix`` on a one-element wavelength array, then the r/t
    step on (1,) arrays (the package's one-wavelength path before it took
    plain floats)."""
    from twinsource import stack as st

    n0_sin = n0 * np.sin(np.radians(theta_deg))
    eta0 = st._admittance(n0, st._cos_theta(n0, n0_sin), pol)
    eta_sub = st._admittance(n_sub, st._cos_theta(n_sub, n0_sin), pol)
    lam = np.array([wavelength], dtype=float)
    m00, m01, m10, m11 = st._char_matrix(n_list, t_list, n0_sin, lam, pol, tree)
    b = m00 + m01 * eta_sub
    c = m10 + m11 * eta_sub
    denom = eta0 * b + c
    r = (eta0 * b - c) / denom
    t = 2.0 * eta0 / denom
    reflectance = np.abs(r) ** 2
    transmittance = 4.0 * np.real(eta0) * np.real(eta_sub) / np.abs(denom) ** 2
    return complex(r[0]), complex(t[0]), float(reflectance[0]), float(transmittance[0])


def adachi_index(model, x, wavelength_nm, complex_index=False):
    """Index of ``model`` at Al fraction x, written out step by step in the
    order ``DispersionModel.evaluate`` (or ``evaluate_complex``) takes them,
    window and gap checks left out, so the tests can hold the package to
    bit-identical results."""
    lam = np.asarray(wavelength_nm, dtype=float)
    energy = HC_EV_NM / lam
    c0, c1, c2 = model.coefficients["e0"]
    e0 = c0 + c1 * x + c2 * x * x
    s0, s1, s2 = model.coefficients["e0_so"]
    e0_so = s0 + s1 * x + s2 * x * x
    chi, chi_so, ratio = energy / e0, energy / e0_so, e0 / e0_so
    a0, a1 = model.coefficients["a"]
    b0, b1 = model.coefficients["b"]

    def f(c):
        c = np.asarray(c, dtype=float)
        one_minus = np.sqrt((1.0 - c).astype(complex)) if complex_index else np.sqrt(1.0 - c)
        return (2.0 - np.sqrt(1.0 + c) - one_minus) / c**2

    n2 = (a0 + a1 * x) * (f(chi) + 0.5 * f(chi_so) * ratio**1.5) + (b0 + b1 * x)
    if not complex_index:
        return np.sqrt(n2)
    n = np.sqrt(n2.astype(complex))
    return np.where(np.imag(n) < 0, np.conj(n), n)


def _topdown_residual(n_top, n_bot, layers, wavelength, pol, neff):
    """Top-down dispersion residual D = G_N + (gamma_bot/m_bot) F_N of a planar
    profile, with (F, G) carried layer by layer from the top outer medium to
    the bottom one and rescaled every 8 layers. ``neff`` is a float (plain
    ``math``) or an array (the same steps in numpy)."""
    xp = np if isinstance(neff, np.ndarray) else math
    k0 = 2.0 * math.pi / wavelength
    u = neff * neff
    m_top = 1.0 if pol == "TE" else n_top * n_top
    m_bot = 1.0 if pol == "TE" else n_bot * n_bot
    f = 1.0
    g = k0 * xp.sqrt(u - n_top * n_top) / m_top
    for i, (n, t) in enumerate(layers):
        m = 1.0 if pol == "TE" else n * n
        s2 = n * n - u
        if xp is math:
            q = k0 * math.sqrt(abs(s2))
            if q * t < 1e-9:
                c, sk = 1.0, t
            elif s2 > 0:
                c, sk = math.cos(q * t), math.sin(q * t) / q
            else:
                c, sk = math.cosh(q * t), math.sinh(q * t) / q
        else:
            q = k0 * np.sqrt(np.abs(s2))
            x = q * t
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                c = np.where(s2 > 0, np.cos(x), np.cosh(x))
                sk = np.where(s2 > 0, np.sin(x), np.sinh(x)) / q
            sk = np.where(x < 1e-9, t, sk)
        f, g = c * f + m * sk * g, -(k0 * k0 * s2 / m) * sk * f + c * g
        if i % 8 == 7:
            scale = np.maximum(np.maximum(np.abs(f), np.abs(g)), 1e-280)
            f, g = f / scale, g / scale
    return g + (k0 * xp.sqrt(u - n_bot * n_bot) / m_bot) * f


def planar_modes_topdown(n_top, layers, n_bot, wavelength, pol, max_modes=None, window=None):
    """Guided n_eff of a planar profile, descending: sign changes of the
    top-down residual on a 1e-4 grid spanning the guided window, each
    bisected to a bracket below 1e-12 (a 1e-5 grid when the coarse one finds
    nothing)."""
    lo = max(n_top, n_bot) + 1e-6
    hi = max(n for n, _ in layers) - 1e-6
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])

    def residual(x):
        return _topdown_residual(n_top, n_bot, layers, wavelength, pol, x)

    for step in (1e-4, 1e-5):
        grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)
        d = residual(grid)
        roots = []
        for j in np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0][::-1]:
            a, b, fa = float(grid[j]), float(grid[j + 1]), float(d[j])
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                fm = residual(mid)
                if fm == 0.0:
                    a = b = mid
                elif (fa < 0) != (fm < 0):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(float(0.5 * (a + b)))
            if max_modes is not None and len(roots) >= max_modes:
                break
        if roots:
            return roots
    return []


def carry_loop(layers, wavelength, pol, neff, f, g):
    """(F, G) carried through ``layers`` one layer at a time in plain ``math``
    at one effective index, with no rescaling; a negative thickness carries
    upward."""
    k0 = 2.0 * math.pi / wavelength
    u = neff * neff
    for n, t in layers:
        m = 1.0 if pol == "TE" else n * n
        s2 = n * n - u
        q = k0 * math.sqrt(abs(s2))
        if q == 0.0:
            c, sk = 1.0, t
        elif s2 > 0:
            c, sk = math.cos(q * t), math.sin(q * t) / q
        else:
            c, sk = math.cosh(q * t), math.sinh(q * t) / q
        f, g = c * f + m * sk * g, -(k0 * k0 * s2 / m) * sk * f + c * g
    return f, g


def core_intensity_scalar(s, wavelength, theta_deg, pol, model=None):
    """Peak core |field|^2 at one wavelength by the package's rule, with
    every array of one wavelength: the transmitted field carried up through
    the layers below the core by their positional characteristic matrix, then
    walked up through the core one layer at a time."""
    from twinsource import stack as st

    core = st._region_slice(s, "core")
    lam = np.reshape(float(wavelength), -1)
    k0 = 2.0 * math.pi / lam
    n_list = st.layer_indices(s, lam, model).T  # (L, 1)
    t_list = s._plan.thickness
    n_sub = st.substrate_index(s, lam, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    _, t, _, _ = st.raw_response(s.ambient_index, n_list.T, t_list, n_sub, lam, theta_deg, pol)
    below = slice(core.stop, None)
    m00, m01, m10, m11 = st._char_matrix(n_list[below].T, t_list[below], n0_sin, lam, pol)
    eta_sub = st._admittance(n_sub, st._cos_theta(n_sub, n0_sin), pol)
    f, g = t * (m00 + m01 * eta_sub), t * (m10 + m11 * eta_sub)
    layers = []
    for n, t_nm in zip(n_list[core][::-1], t_list[core][::-1]):
        ct = st._cos_theta(n, n0_sin)
        eta = st._admittance(n, ct, pol)
        kz = k0 * n * ct
        a = 0.5 * (f + g / eta) * np.exp(-1j * kz * t_nm)
        b = 0.5 * (f - g / eta) * np.exp(1j * kz * t_nm)
        layers.insert(0, (a, b, kz))
        f, g = a + b, eta * (a - b)
    a, b, kz = (np.array(col) for col in zip(*layers))  # (L, 1) each
    x = np.linspace(0.0, t_list[core], st._POINTS_PER_LAYER, axis=1)
    return float(np.max(np.abs(st._layer_field(a, b, kz, x)) ** 2))


def waves_loop(s, lams, theta_deg, pol, model, layers):
    """``stack._waves`` with each layer's terms computed in the carry loop,
    one (W,) row at a time: (A, B, kz, r, t, kz_sub)."""
    from twinsource import stack as st

    k0 = 2.0 * math.pi / lams
    plan = s._plan
    n_x = st._composition_indices(s, lams, model)  # (X, W)
    n_leaf, t_leaf = n_x[plan.leaf_index].T, plan.leaf_thickness  # (W, U), (U,)
    n_sub = st.substrate_index(s, lams, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    whole, below = s._tree(plan.leaf), s._tree(plan.leaf[layers.indices(len(plan.leaf))[1] :])
    r, t, _, _ = st.raw_response(s.ambient_index, n_leaf, t_leaf, n_sub, lams, theta_deg, pol, whole)
    m00, m01, m10, m11 = st._char_matrix(n_leaf, t_leaf, n0_sin, lams, pol, below)
    ct_sub = st._cos_theta(n_sub, n0_sin)
    eta_sub = st._admittance(n_sub, ct_sub, pol)
    f, g = t * (m00 + m01 * eta_sub), t * (m10 + m11 * eta_sub)
    waves = []
    for n, t_nm in zip(n_x[plan.index[layers]][::-1], plan.thickness[layers][::-1]):
        ct = st._cos_theta(n, n0_sin)
        eta = st._admittance(n, ct, pol)
        kz = k0 * n * ct
        a = 0.5 * (f + g / eta) * np.exp(-1j * kz * t_nm)
        b = 0.5 * (f - g / eta) * np.exp(1j * kz * t_nm)
        waves.append((a, b, kz))
        f, g = a + b, eta * (a - b)
    a, b, kz = np.reshape(waves[::-1], (-1, 3, lams.size)).transpose(1, 0, 2)
    return a, b, kz, r, t, k0 * n_sub * ct_sub


def field_profile_top_down(s, wavelength, theta_deg, pol, model=None):
    """(depth_nm, amplitude) of ``stack.field_profile`` with the waves walked
    down from the surface, where the field is (1 + r, eta0 (1 - r)), layer by
    layer in scalar arithmetic, and each layer sampled in its own loop pass."""
    from twinsource import stack as st

    k0 = 2.0 * math.pi / wavelength
    n_list = st.layer_indices(s, wavelength, model)
    t_list = [ly.thickness_nm for ly in s.layers]
    n_sub = st.substrate_index(s, wavelength, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    r, _, _, _ = st.raw_response(s.ambient_index, n_list, t_list, n_sub, wavelength, theta_deg, pol)
    ct0 = st._cos_theta(s.ambient_index, n0_sin)
    eta0 = st._admittance(s.ambient_index + 0j, ct0, pol)
    kz0 = k0 * s.ambient_index * ct0
    x = np.linspace(-st._PAD_NM, 0.0, st._POINTS_PER_LAYER)
    depths, amps = [x], [np.exp(1j * kz0 * x) + r * np.exp(-1j * kz0 * x)]
    f, g, z = 1.0 + r, eta0 * (1.0 - r), 0.0
    for n, t_nm in zip(n_list, t_list):
        ct = st._cos_theta(n, n0_sin)
        eta = st._admittance(n, ct, pol)
        a, b, kz = 0.5 * (f + g / eta), 0.5 * (f - g / eta), k0 * n * ct
        x = np.linspace(0.0, t_nm, st._POINTS_PER_LAYER)
        depths.append(z + x)
        amps.append(a * np.exp(1j * kz * x) + b * np.exp(-1j * kz * x))
        a_bot, b_bot = a * np.exp(1j * kz * t_nm), b * np.exp(-1j * kz * t_nm)
        f, g = a_bot + b_bot, eta * (a_bot - b_bot)
        z += t_nm
    ct_sub = st._cos_theta(n_sub, n0_sin)
    a_sub = 0.5 * (f + g / st._admittance(n_sub, ct_sub, pol))
    x = np.linspace(0.0, st._PAD_NM, st._POINTS_PER_LAYER)
    depths.append(z + x)
    kz_sub = k0 * n_sub * ct_sub
    amps.append(a_sub * np.exp(1j * kz_sub * x))
    return np.concatenate(depths), np.concatenate(amps)


def resonance_scalar(s, lambda_window, theta_deg, pol, model=None):
    """``stack.find_resonance`` with the half-maximum walk and the crossings
    taken one wavelength at a time, each crossing by the scalar ``brentq``."""
    from twinsource import stack as st
    from twinsource.roots import brentq

    lo, hi = lambda_window
    lams = np.arange(lo, hi + st.RESONANCE_SCAN_STEP_NM / 2, st.RESONANCE_SCAN_STEP_NM)
    refl = st.stack_response(s, lams, theta_deg, pol, model).reflectance
    (i,) = st._prominent_minima(refl, st.RESONANCE_PROMINENCE)

    def refl_at(lam):
        return st.stack_response(s, lam, theta_deg, pol, model).reflectance

    lam_res = st._golden_minimize(
        refl_at, lams[max(i - 1, 0)], lams[min(i + 1, len(lams) - 1)], 1e-3
    )
    r_min = refl_at(lam_res)

    def intensity(lam):
        return core_intensity_scalar(s, lam, theta_deg, pol, model)

    half = intensity(lam_res) / 2.0

    def crossing(direction):
        step = 0.1 * direction
        lam_in, lam_out = lam_res, lam_res + step
        while intensity(lam_out) > half:
            lam_in = lam_out
            lam_out += step
            assert abs(lam_out - lam_res) <= hi - lo
        return brentq(lambda lam: intensity(lam) - half, lam_in, lam_out, st._CROSSING_XTOL_NM)

    fwhm = crossing(+1.0) - crossing(-1.0)
    h = 0.05
    prop_p, (up_p, *_), (dn_p, *_) = st._cavity(s, lam_res + h, theta_deg, pol, model)
    prop_m, (up_m, *_), (dn_m, *_) = st._cavity(s, lam_res - h, theta_deg, pol, model)
    dphi = (prop_p - prop_m) + np.angle(up_p / up_m) + np.angle(dn_p / dn_m)
    fsr = 2.0 * math.pi / abs(dphi / (2.0 * h))
    _, (*_, t_up), (*_, t_down) = st._cavity(s, lam_res, theta_deg, pol, model)
    return st.ResonanceResult(
        wavelength_nm=float(lam_res),
        finesse=float(fsr / fwhm),
        t_up=float(t_up),
        t_down=float(t_down),
        reflectance_min=float(r_min),
        fwhm_nm=float(fwhm),
        fsr_nm=float(fsr),
    )


def fit_dip_gauss_newton(scan, wavelength_nm):
    """Weighted least-squares fit of (V, delta_lambda) to a scan.

    Accidentals are subtracted, the net counts are normalized by the mean of
    the points farther than three dip half-widths from zero (at least three
    required), and the two parameters are refined by damped Gauss-Newton from
    the best width of ``_INIT_DELTA_LAMBDA_NM`` until the relative parameter
    change stays below 1e-8 for three of at most ``_MAX_ITERATIONS``
    iterations. Poisson weights: sigma^2(net) = total + accidental. Up to
    ``_BASELINE_PASSES`` passes correct the baseline with the fitted model;
    ``converged`` means one started from a baseline that moved by at most
    ``_BASELINE_RTOL`` relative. A width leaving < 3 baseline points ends the
    passes with the previous pass's fit.
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
        denom = float(np.sum(w * g * g))
        v = float(np.sum(w * g * (1.0 - y)) / denom) if denom > 0 else 0.0
        v = min(max(v, 0.0), 1.0)
        chi2 = float(np.sum(w * (y - (1.0 - v * g)) ** 2))
        if best is None or chi2 < best[0]:
            chi2_flat = float(np.sum(w * (y - 1.0) ** 2))
            best = (chi2, v, dl, baseline, chi2_flat)
    if best is None:
        raise DegenerateScan(
            "no spectral-width candidate leaves >= 3 baseline points outside the dip"
        )
    chi2_0, v0, dl0, baseline, chi2_flat = best
    if chi2_flat - chi2_0 < 9.0:
        raise DegenerateScan("no dip resolvable above the noise (< 3 sigma)")
    span = scan.delta_z_mm[-1] - scan.delta_z_mm[0]
    if span < dip_fwhm_mm(wavelength_nm, dl0):
        raise DegenerateScan("scan span must cover at least one dip width")

    def refine(p0, y, sy):
        def residuals(v, dl):
            g = _dip_shape(dz_nm, dl, wavelength_nm)
            return (y - (1.0 - v * g)) / sy, g

        p = np.array(p0, dtype=float)
        r, g = residuals(*p)
        chi2 = float(r @ r)
        streak = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            jac = _jacobian(*p, g, dz_nm, wavelength_nm, sy)
            jtj = jac.T @ jac
            jtr = jac.T @ r
            try:
                step = -np.linalg.solve(jtj, jtr)
            except np.linalg.LinAlgError:
                step = -np.linalg.lstsq(jtj, jtr, rcond=None)[0]
            scale = 1.0
            for _ in range(30):
                cand = p + scale * step
                if 0.0 <= cand[0] <= 1.2 and 1e-3 <= cand[1] <= 100.0:
                    r_new, g_new = residuals(*cand)
                    chi2_new = float(r_new @ r_new)
                    if chi2_new <= chi2 + 1e-12:
                        break
                scale *= 0.5
            else:
                raise NoConvergence("step search exhausted without improving the fit")
            rel = float(np.max(np.abs(scale * step) / (np.abs(p) + 1e-30)))
            p, r, g, chi2 = cand, r_new, g_new, chi2_new
            streak = streak + 1 if rel < 1e-8 else 0
            if streak >= 3:
                return p, chi2, iterations
        raise NoConvergence(f"no convergence after {_MAX_ITERATIONS} iterations")

    # the baseline points still sit ~0.1% inside the dip, so correct the
    # normalization with the fitted model and re-run until it is a fixed point;
    # the start value leaves >= 3 baseline points, so the first pass always runs
    p = np.array([v0, dl0])
    iterations = 0
    for _ in range(_BASELINE_PASSES):
        outside = np.abs(scan.delta_z_mm) > 3.0 * dip_half_width_mm(wavelength_nm, p[1])
        if outside.sum() < 3:
            break  # keep the previous pass's fit, not converged
        model_out = 1.0 - p[0] * _dip_shape(dz_nm[outside], p[1], wavelength_nm)
        new_baseline = float(np.mean(net[outside] / model_out))
        converged = abs(new_baseline - baseline) <= _BASELINE_RTOL * abs(baseline)
        baseline = new_baseline
        sy = sigma / baseline
        p, chi2, its = refine(p, net / baseline, sy)
        iterations += its
        if converged:
            break

    v, dl = p
    jac = _jacobian(v, dl, _dip_shape(dz_nm, dl, wavelength_nm), dz_nm, wavelength_nm, sy)
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError as exc:
        raise DegenerateScan(f"the scan does not constrain both parameters: {exc}") from exc
    return FitResult(
        visibility=float(v),
        delta_lambda_nm=float(dl),
        visibility_err=float(math.sqrt(max(cov[0, 0], 0.0))),
        delta_lambda_err=float(math.sqrt(max(cov[1, 1], 0.0))),
        residual_norm=float(math.sqrt(chi2)),
        converged=converged,
        iterations=iterations,
        baseline_counts=baseline,
    )


def start_widths_loop(scan, wavelength_nm):
    """Per ``_INIT_DELTA_LAMBDA_NM`` width, None where ``fit_dip`` skips it
    (< 3 baseline points, or a baseline <= 0), else its (baseline, V clipped
    to [0, 1], chi^2, chi^2 of no dip), one width at a time."""
    dz_nm = scan.delta_z_mm * NM_PER_MM
    net = scan.net_counts.astype(float)
    sigma = np.sqrt(np.maximum(scan.total_counts + scan.accidental_counts, 1.0))
    rows = []
    for dl in _INIT_DELTA_LAMBDA_NM:
        outside = np.abs(scan.delta_z_mm) > 3.0 * dip_half_width_mm(wavelength_nm, dl)
        baseline = float(net[outside].mean()) if outside.sum() >= 3 else 0.0
        if baseline <= 0:
            rows.append(None)
            continue
        y = net / baseline
        sy = sigma / baseline
        g = _dip_shape(dz_nm, dl, wavelength_nm)
        w = 1.0 / sy**2
        wg = w * g
        denom = float(wg @ g)
        v = float(wg @ (1.0 - y)) / denom if denom > 0 else 0.0
        v = min(max(v, 0.0), 1.0)
        chi2 = float(np.sum(w * (y - (1.0 - v * g)) ** 2))
        rows.append((baseline, v, chi2, float(np.sum(w * (y - 1.0) ** 2))))
    return rows


def spline_piece_search(table, lam):
    """(c0, c1, c2, c3, t) arrays of the piece of ``table`` holding each of
    ``lam``, found by a search of the knots: ``searchsorted(side="right")``
    less one, clipped to the pieces. No range check."""
    last = table._c.shape[1] - 1
    lam = np.asarray(lam, dtype=float)
    i = np.clip(np.searchsorted(table.knots_nm, lam, side="right") - 1, 0, last)
    return (*table._c[:, i], lam - table.knots_nm[i])


def solve_pair_through_delta_k(matcher, theta_deg, lambda_p, inter):
    """(lambda_s, lambda_i, n_s, n_i) of ``PhaseMatcher.solve_pair``, with the
    bracket reserved as it does and every evaluation through ``delta_k``."""
    center, half = 2.0 * lambda_p, SEARCH_HALF_WINDOW_NM
    for _ in range(2):
        lo, hi = max(center - half, 1.05 * lambda_p), center + half
        matcher._ensure(inter.copropagating_pol, lo, hi)
        matcher._ensure(
            inter.counterpropagating_pol,
            1.0 / (1.0 / lambda_p - 1.0 / hi),
            1.0 / (1.0 / lambda_p - 1.0 / lo),
        )

        def mismatch(x):
            return matcher.delta_k(x, theta_deg, lambda_p, inter)

        f_lo, f_hi = mismatch(lo), mismatch(hi)
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0) != (f_hi < 0):
            break
        half *= 2.0
    else:
        raise NoSolutionInWindow("no bracket")
    if f_lo == 0.0:
        lam_s = lo
    elif f_hi == 0.0:
        lam_s = hi
    else:
        lam_s = roots.brentq(mismatch, lo, hi, xtol=1e-10, rtol=8.9e-16)
    lam_i = 1.0 / (1.0 / lambda_p - 1.0 / lam_s)
    return (
        lam_s,
        lam_i,
        matcher.n_eff(inter.copropagating_pol, lam_s),
        matcher.n_eff(inter.counterpropagating_pol, lam_i),
    )


def sinc2_masked_divide(x):
    """sinc^2 by a masked divide, 1 where x == 0: an array for an array, a
    float for a scalar or a 0-d array."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    np.divide(np.sin(x), x, out=out, where=x != 0)
    out *= out
    return out if out.ndim else float(out)


class GaussianKernel:
    """Unit-area Gaussian convolution kernel, given by its FWHM in nm."""

    def __init__(self, fwhm_nm):
        self.fwhm_nm = fwhm_nm
        self.sigma_nm = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def _convolve_spectrum(sp, kernel):
    step, size = sp.step_nm, sp.intensity.size
    if kernel.fwhm_nm < 2.0 * step:
        raise KernelUnderResolved("kernel under-resolved", kernel.fwhm_nm)
    half = min(int(math.ceil(6.0 * kernel.sigma_nm / step)), size - 1)
    x = step * np.arange(-half, half + 1)
    k = np.exp(-0.5 * (x / kernel.sigma_nm) ** 2)
    k /= k.sum()
    out = np.convolve(sp.intensity, k, mode="same")
    if len(k) > size:
        out = out[half - (size - 1) // 2 :][:size]
    meta = dict(sp.metadata)
    meta["kernels"] = list(meta.get("kernels", [])) + [
        {"shape": "gaussian", "fwhm_nm": kernel.fwhm_nm}
    ]
    return Spectrum(sp.wavelength_nm, np.clip(out, 0.0, None), meta)


def fluorescence_spectrum_per_branch(
    theta_deg,
    lambda_p,
    length_mm,
    matcher,
    noise_floor=0.0,
    interactions=(1, 2),
    pump_fwhm_nm=0.3,
    mono_fwhm_nm=0.1,
    long_peak_attenuation=0.30,
    half_span_nm=5.0,
    step_nm=0.005,
):
    """``spectra.fluorescence_spectrum`` with two lookups per branch and a new
    ``Spectrum`` after each step (module docstring)."""
    inters = [interaction(i) for i in interactions]
    points = [matcher.solve_pair(theta_deg, lambda_p, it) for it in inters]
    peaks = [w for p in points for w in (p.lambda_s_nm, p.lambda_i_nm)]
    lo, hi = min(peaks) - half_span_nm, max(peaks) + half_span_nm
    grid = lo + step_nm * np.arange(int(round((hi - lo) / step_nm)) + 1)

    length_nm = length_mm * 1e6
    k_p = 2.0 * math.pi / lambda_p
    total = np.zeros_like(grid)
    conj = 1.0 / (1.0 / lambda_p - 1.0 / grid)
    for it, p in zip(inters, points):
        for branch_peak, lam_s in ((p.lambda_s_nm, grid), (p.lambda_i_nm, conj)):
            lam_i = 1.0 / (1.0 / lambda_p - 1.0 / lam_s)
            n_s = matcher.n_eff(it.copropagating_pol, lam_s)
            n_i = matcher.n_eff(it.counterpropagating_pol, lam_i)
            dk = (
                k_p * math.sin(math.radians(theta_deg))
                - n_s * 2.0 * math.pi / lam_s
                + n_i * 2.0 * math.pi / lam_i
            )
            branch = sinc2_masked_divide(dk * length_nm / 2.0)
            if branch_peak > 2.0 * lambda_p:
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
            sp = _convolve_spectrum(sp, GaussianKernel(fwhm))
    meta = dict(sp.metadata, normalized=True)
    sp = Spectrum(sp.wavelength_nm, sp.intensity / float(sp.intensity.max()), meta)
    return Spectrum(sp.wavelength_nm, sp.intensity + noise_floor, sp.metadata)


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table_rows(path, columns: dict, fmt: str):
    """``cli._write_table`` row by row (module docstring); rows follow the first column."""
    names = list(columns)
    rows = len(next(iter(columns.values())))
    if fmt == "json":
        records = [
            {name: (columns[name][i].item() if hasattr(columns[name][i], "item") else columns[name][i]) for name in names}
            for i in range(rows)
        ]
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    lines = [",".join(names)]
    for i in range(rows):
        lines.append(",".join(_fmt_cell(columns[name][i]) for name in names))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
