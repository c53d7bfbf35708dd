"""Guided TE/TM modes of the multilayer planar waveguide.

The guided-mode condition is expressed through the (F, G) transfer across the
layer sequence, where F is the tangential field (E_y for TE, H_y for TM) and
G = F'/m with m = 1 for TE and m = n^2 for TM. A layer of index n and
thickness t carries (F, G) down by the unimodular matrix

    [[cos(kappa t), m sin(kappa t)/kappa], [-(kappa^2/m) sin(kappa t)/kappa, cos(kappa t)]]

(cosh and sinh where the layer is evanescent); the same matrix with -t
carries it back up.

Matched residual. The solution that decays into the top outer medium is
carried down to the top face of the highest-index layer, and the one that
decays into the bottom outer medium is carried up to the same plane, each in
the direction in which a guided field grows. Their Wronskian

    W(n_eff) = F_top G_bot - G_top F_bot

vanishes exactly where the two are one guided mode: it has the roots of the
single-sweep residual G_N + (gamma_bot / m_bot) F_N, but no half is carried
against its own decay, so W is smooth and close to linear across a scan step.
Each half is renormalized by a positive factor after every run, which leaves
the signs of W alone; the transfer is analytic in n_eff^2, so every sign
change on a scan grid brackets a true root.

Periodic runs. Each half is compressed into runs of a repeated cell of up to
``_MAX_CELL`` layers, found from the (index, thickness) list itself. A run of
N cells costs one cell matrix C and the Chebyshev identity for a unimodular
matrix, C^N = U_{N-1}(a) C - U_{N-2}(a) I with a = tr(C)/2 (Born & Wolf,
Principles of Optics, sec. 1.6.5; Yeh, Optical Waves in Layered Media,
ch. 6), so a 41-period mirror is two layer matrices and a closed-form power.

Roots. One scan (``_roots_on_grid``) searches a residual at one knot, for
``solve_planar`` and for tables alike, inside the window ``_guided_window``
states. Its grid holds the multiples of ``_GRID_STEP`` (1e-4, refined once
to 1e-5 when it finds no root) inside the window plus its two ends, so a
root's bracket does not depend on the window searched. Brent's method
polishes the brackets together (``roots.brentq_lanes``, the floats of
scipy's ``brentq``; xtol ``_XTOL`` = 1e-12, rtol 4 eps); roots are sorted by
descending n_eff (order 0 = fundamental).

Tables. ``EffectiveIndexTable`` puts its knots on the multiples of
``TABLE_STEP_NM`` (2 nm), evaluates every distinct composition once over the
whole knot array, solves its knots together on one residual and grows by
solving only the knots it lacks. A knot's root does not depend on which
knots share its batch, so a grown table holds exactly the knots of a fresh
table over the same range. Between knots it is the not-a-knot cubic spline,
built and evaluated here with the same floating-point operations as
``scipy.interpolate.CubicSpline``, so the package needs numpy only; on the
evenly spaced knot lattice its tridiagonal solve interchanges no rows. A
lookup reads a Python float inline in plain floats, and an array in one pass
that evaluates in the coefficient rows it takes, touching no shared array.

The nominal device sits on a GaAs substrate whose index at telecom
wavelengths exceeds every layer index, so the strict 1D structure has no
bound modes at all: the thick lower DBR is what isolates the guided light
from the substrate. Where the substrate index reaches the highest layer
index, the stack-level functions therefore replace it by the low-index
component of the deepest region continued to infinity (the medium that sets
the Bloch-evanescent decay of the cladding tail); ``solve_planar`` on an
explicit profile still solves the literal structure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import materials
from .errors import POLARIZATION, POSITIVE, WINDOW, NoGuidedMode, NonGuidingStack, require
from .layers import TE, TM, LayerStack, layer_indices
from .materials import DispersionModel
from .roots import brentq_lanes

_GRID_STEP = 1e-4  # n_eff scan step of the root search
_XTOL = 1e-12  # Brent tolerance on a root, in n_eff
TABLE_STEP_NM = 2.0  # knot spacing of EffectiveIndexTable: a power of two, see its lattice
_MAX_CELL = 8  # longest repeated cell, in layers, that a periodic run may have
_BLOCK = 512  # scan points per residual call, so a full-window scan stays small
_ANCHOR_EVERY = 32  # a table solves every 32nd knot on its own, to predict the others
_SCAN_HALF = 4  # grid points scanned on each side of a knot's predicted root
_WINDOW_MARGIN = 1e-6  # the guided window's distance inside the outer and highest layer index
_CHAIN_HALF = 0.02  # half-width, in n_eff, of a knot's window around the root below it


class GuidedMode(NamedTuple):
    polarization: str
    wavelength_nm: float
    n_eff: float
    order: int


# ---------------------------------------------------------------------------
# dispersion residual
# ---------------------------------------------------------------------------


def _layer_factors(n, t, m, u, k0):
    """Transfer-matrix entries of layers (n, t, m) at squared effective
    indices ``u``, broadcast against each other.

    Returns (c, m_sk, k2sk_m) with c = cos(kappa t), m_sk = m sin(kappa t)/kappa
    and k2sk_m = (kappa^2/m) sin(kappa t)/kappa, all real: kappa = k0
    sqrt(n^2 - u) is imaginary in an evanescent layer, where cos and sin/kappa
    become cosh and sinh/|kappa|. A negative t gives the matrix that carries
    (F, G) upward.
    """
    s2 = n * n - u  # kappa^2 / k0^2, signed
    kappa = k0 * np.sqrt(s2 + 0j)
    x = kappa * t
    sk = np.where(kappa == 0, t, (np.sin(x) / np.where(kappa == 0, 1.0, kappa)).real)
    return np.cos(x).real, m * sk, (k0 * k0 * s2 / m) * sk


def _chebyshev_u(a, n):
    """(U_{n-1}(a), U_{n-2}(a)) for n >= 2: C^n = U_{n-1} C - U_{n-2} I for a
    unimodular 2x2 matrix C of half-trace a.

    U_{k-1}(cos z) = sin(k z)/sin(z), with z = arccos(a) complex outside the
    pass band (|a| > 1), where the ratio is sinh(k ph)/sinh(ph) up to sign;
    at |a| = 1 the limit a^(k-1) k is used. Finite while n arccosh|a| < 709,
    that is for cells across which the field grows by less than e^17.
    """
    z = np.arccos(a + 0j)
    sin_z = np.sin(z)
    edge = sin_z == 0
    sin_z = np.where(edge, 1.0, sin_z)
    u1 = np.where(edge, a ** (n - 1) * n, (np.sin(n * z) / sin_z).real)
    u2 = np.where(edge, a ** (n - 2) * (n - 1), (np.sin((n - 1) * z) / sin_z).real)
    return u1, u2


def _runs(path):
    """Compress a list of (n, t) steps into (cell, count) runs.

    Greedy from the top: at each position take the cell of at most
    ``_MAX_CELL`` steps whose back-to-back repeats cover the most steps
    (the shortest such cell on a tie); a step that starts no repeat is a
    run of one.
    """
    runs, i = [], 0
    while i < len(path):
        best_p, best_count = 1, 1
        for p in range(1, min(_MAX_CELL, (len(path) - i) // 2) + 1):
            cell, count = path[i : i + p], 1
            while path[i + count * p : i + (count + 1) * p] == cell:
                count += 1
            if count > 1 and p * count > best_p * best_count:
                best_p, best_count = p, count
        runs.append((path[i : i + best_p], best_count))
        i += best_p * best_count
    return runs


class _MatchedResidual:
    """Wronskian residual W(n_eff) of one layer sequence at K wavelengths.

    ``layers`` holds (index, thickness) pairs. An index is a float (K = 1) or
    an array over the K wavelengths (knots); ``n_top``, ``n_bot`` and
    ``wavelength`` are floats or (K,) arrays. A layer is identified by its
    indices over all knots and its thickness, so the run structure is found
    once and shared by every knot; it is the structure each knot would get
    on its own unless two different layers share an index at some knot but
    not at all of them, or the first highest-index layer moves. ``uniform``
    is False in those cases, and each knot is then solved on its own.
    """

    def __init__(self, n_top, layers, n_bot, wavelength, pol):
        self.pol = require(pol, POLARIZATION, "polarization")
        self.wavelength = wavelength  # as given: a NoGuidedMode names it
        lams = np.atleast_1d(np.asarray(wavelength, dtype=float))
        size = lams.size
        n = np.array([n_ for n_, _ in layers], dtype=float).reshape(len(layers), -1)
        n = np.broadcast_to(n, (len(layers), size))
        rows = {}  # row bytes -> (number, row) of each distinct index row
        keys = [
            (rows.setdefault(row.tobytes(), (len(rows), row))[0], float(t))
            for row, (_, t) in zip(n, layers)
        ]
        rows = [row for _, row in rows.values()]
        meet = int(np.argmax(n[:, 0]))  # first highest-index layer
        down = keys[:meet]
        up = [(i, -t) for i, t in reversed(keys[meet:])]
        steps = list(dict.fromkeys(down + up))  # distinct (index row, signed t)
        place = {step: i for i, step in enumerate(steps)}
        self.n = np.array([rows[i] for i, _ in steps]).reshape(len(steps), size)
        self.t = np.array([t for _, t in steps])
        self.down = [([place[s] for s in cell], count) for cell, count in _runs(down)]
        self.up = [([place[s] for s in cell], count) for cell, count in _runs(up)]
        self.uniform = size == 1 or (
            bool(np.all(np.argmax(n, axis=0) == meet))
            and not any(np.any(rows[i] == rows[j]) for i in range(len(rows)) for j in range(i))
        )
        self.k0 = 2.0 * math.pi / lams
        # squares and TM weights of the outer media in plain floats, per knot
        tops = np.broadcast_to(np.asarray(n_top, dtype=float), size).tolist()
        bots = np.broadcast_to(np.asarray(n_bot, dtype=float), size).tolist()
        self.top2 = np.array([x**2 for x in tops])
        self.bot2 = np.array([x**2 for x in bots])
        self.m_top = np.array([self._m(x) for x in tops])
        self.m_bot = np.array([self._m(x) for x in bots])

    def _m(self, n):
        return 1.0 if self.pol == TE else n * n

    def __call__(self, neff, knots=None):
        """W at ``neff``, an array of any shape at the one knot, or with
        ``knots`` (K,) one row of effective indices per knot: shape (k,) or
        (k, P) for k knot indices."""
        neff = np.asarray(neff, dtype=float)
        at = np.zeros((), dtype=np.intp) if knots is None else np.asarray(knots)
        at = np.broadcast_to(at.reshape(at.shape + (1,) * (neff.ndim - at.ndim)), neff.shape)
        u = neff * neff
        k0 = self.k0[at]
        n = self.n[:, at]
        c, msk, k2sk = _layer_factors(n, self.t.reshape((-1,) + (1,) * u.ndim), self._m(n), u, k0)
        one = np.ones_like(u)
        g_top = k0 * np.sqrt(u - self.top2[at]) / self.m_top[at]
        g_bot = -k0 * np.sqrt(u - self.bot2[at]) / self.m_bot[at]
        f_t, g_t = _carry(self.down, c, msk, k2sk, one, g_top)
        f_b, g_b = _carry(self.up, c, msk, k2sk, one, g_bot)
        return f_t * g_b - g_t * f_b


def _carry(runs, c, msk, k2sk, f, g):
    """Carry (f, g) through compressed runs of layer rows, renormalizing by a
    positive factor after each run."""
    for cell, count in runs:
        if count == 1:
            for r in cell:
                f, g = c[r] * f + msk[r] * g, -k2sk[r] * f + c[r] * g
        else:
            a, b, cc, d = c[cell[0]], msk[cell[0]], -k2sk[cell[0]], c[cell[0]]
            for r in cell[1:]:
                a, b, cc, d = (
                    c[r] * a + msk[r] * cc,
                    c[r] * b + msk[r] * d,
                    -k2sk[r] * a + c[r] * cc,
                    -k2sk[r] * b + c[r] * d,
                )
            u1, u2 = _chebyshev_u(0.5 * (a + d), count)
            f, g = u1 * (a * f + b * g) - u2 * f, u1 * (cc * f + d * g) - u2 * g
        scale = np.hypot(f, g)
        f, g = f / scale, g / scale
    return f, g


def _refuse_layer(i, n, t):
    """Raise the rule's ValueError for layer i, one of whose values fails it."""
    require(n, POSITIVE, f"index of layer {i}")
    require(t, POSITIVE, f"thickness of layer {i}")


def _guided_window(n_top, n_bot, n_core, window=None):
    """(lo, hi): ``_WINDOW_MARGIN`` inside the higher outer index and the
    highest layer index ``n_core``, narrowed by ``window`` (a NaN end narrows
    nothing). Floats for one profile, arrays over knots; an empty window of
    one profile is a NonGuidingStack, a batch's is left to its caller."""
    lo, hi = np.maximum(n_top, n_bot) + _WINDOW_MARGIN, n_core - _WINDOW_MARGIN
    if window is not None:
        lo, hi = np.fmax(lo, window[0]), np.fmin(hi, window[1])
    if np.ndim(hi) == 0 and hi <= lo:
        raise NonGuidingStack(
            f"no guided window: outer indices ({n_top:.4f}, {n_bot:.4f}) "
            f"vs max layer index {n_core:.4f}"
        )
    return lo, hi


def _roots_on_grid(residual, lo, hi, max_modes, knot=None):
    """Roots of ``residual`` at knot ``knot`` of its batch (its one knot when
    None) in (lo, hi), highest first. With ``max_modes`` the grid is scanned
    in blocks from the top down until its highest cells hold that many sign
    changes. NoGuidedMode when the refined grid holds none either."""
    for step in (_GRID_STEP, _GRID_STEP / 10.0):  # near-cutoff modes can hide between grid points
        inner = np.arange(math.floor(lo / step), math.ceil(hi / step) + 1) * step
        grid = np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], [hi]))
        signs = []
        for i in reversed(range(0, grid.size, _BLOCK)):
            signs.insert(0, np.sign(residual(grid[i : i + _BLOCK], knot)))
            sign = np.concatenate(signs)
            at = i + np.nonzero(sign[:-1] * sign[1:] < 0)[0][::-1][:max_modes]  # highest first
            if len(at) == max_modes:
                break
        if len(at):
            roots = brentq_lanes(lambda x, _: residual(x, knot), grid[at], grid[at + 1], _XTOL)
            return roots.tolist()
    lam = residual.wavelength if knot is None else residual.wavelength[knot]
    window = f"n_eff window ({lo:.6f}, {hi:.6f})"
    raise NoGuidedMode(f"no {residual.pol} guided mode in {window} at {lam} nm")


def solve_planar(
    n_top: float,
    layers,
    n_bottom: float,
    wavelength: float,
    pol: str = TE,
    max_modes: int | None = None,
    window: tuple | None = None,
):
    """Effective indices of the guided modes of an arbitrary planar profile.

    ``layers`` is a sequence of (index, thickness_nm) pairs between the two
    semi-infinite outer media; every index and thickness must be a finite
    number > 0, and layer 0 is the top layer. Returns effective indices
    sorted descending (the module's Roots); with ``max_modes`` the search
    stops after that many roots counted from the top of the window, which
    ``window`` narrows (``_guided_window``).
    """
    require(wavelength, POSITIVE, "wavelength")
    require(n_top, POSITIVE, "top index")
    require(n_bottom, POSITIVE, "bottom index")
    positive = POSITIVE[0]
    layers = [  # one pass: a pair is converted once both values pass the rule
        (float(n), float(t)) if positive(n) and positive(t) else _refuse_layer(i, n, t)
        for i, (n, t) in enumerate(layers)
    ]
    lo, hi = _guided_window(n_top, n_bottom, max((n for n, _ in layers), default=0.0), window)
    residual = _MatchedResidual(n_top, layers, n_bottom, wavelength, pol)
    return _roots_on_grid(residual, lo, hi, max_modes)


# ---------------------------------------------------------------------------
# LayerStack front end
# ---------------------------------------------------------------------------


def _profile_arrays(s: LayerStack, wavelengths, model):
    """(n_top, n_layers (L, K), n_bot (K,), thicknesses) of the stack at K
    wavelengths.

    Every distinct composition, and the substrate, is evaluated once over the
    whole wavelength array. Where the substrate index reaches the highest
    layer index, n_bot is the deepest region's lowest index (the last layer's
    without regions).
    """
    if not s.layers:
        raise NonGuidingStack("stack has no layers")
    lams = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    n_layers = layer_indices(s, lams, model).T  # (L, K)
    n_top = s.ambient_index
    if s.substrate is None:
        n_bot = np.full(lams.shape, n_top)
    else:
        n_bot = materials.refractive_index(s.substrate, lams, model)
    # continue the effective cladding of the deepest region to infinity: its
    # low-index component sets the decay of any Bloch-evanescent tail
    last = s.regions[-1] if s.regions else None
    clad = n_layers[last.start : last.stop].min(axis=0) if last else n_layers[-1]
    n_bot = np.where(n_bot >= n_layers.max(axis=0), clad, n_bot)
    return n_top, n_layers, n_bot, s._plan.thickness.tolist()


def _planar_profiles(s: LayerStack, wavelengths, model):
    """Yield (n_top, [(n, t), ...], n_bot) of the stack at each wavelength."""
    n_top, n_layers, n_bot, thickness = _profile_arrays(s, wavelengths, model)
    for col, nb in zip(n_layers.T, n_bot.tolist()):
        yield n_top, list(zip(col.tolist(), thickness)), nb


def guided_modes(
    s: LayerStack,
    wavelength: float,
    pol: str = TE,
    model: DispersionModel | None = None,
    max_modes: int | None = None,
):
    """Guided modes of the stack at one wavelength, fundamental first."""
    n_top, n_layers, n_bot = next(_planar_profiles(s, wavelength, model))
    roots = solve_planar(n_top, n_layers, n_bot, wavelength, pol, max_modes=max_modes)
    return [GuidedMode(pol, wavelength, neff, order) for order, neff in enumerate(roots)]


def birefringence(
    s: LayerStack,
    wavelength: float,
    model: DispersionModel | None = None,
) -> float:
    """n_eff(TE, fundamental) - n_eff(TM, fundamental)."""
    te = guided_modes(s, wavelength, TE, model, max_modes=1)
    tm = guided_modes(s, wavelength, TM, model, max_modes=1)
    return te[0].n_eff - tm[0].n_eff


# ---------------------------------------------------------------------------
# dense-grid interpolation of the fundamental mode
# ---------------------------------------------------------------------------


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system (sub-diagonal ``dl``, diagonal ``d``,
    super-diagonal ``du``) for right-hand side ``b``; ``d`` and ``b`` are
    overwritten and ``b`` holds the solution.

    LAPACK ``dgtsv`` for one right-hand side on the path it takes while no
    rows need interchanging (|d[i]| >= |dl[i]|): elimination, then back
    substitution. The spline system on evenly spaced knots (spacing h)
    always takes it: d[0] = dl[0] = h, and every later d[i] with
    i < n - 1 is at least 2h, which no dl[i] exceeds.
    """
    n = len(d)
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[n - 1] = b[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return b


def _not_a_knot(x, y):
    """Power-basis coefficients, shape (4, len(x) - 1), of the not-a-knot
    cubic spline through (x, y), for at least four evenly spaced increasing
    x (the table's knot lattice), where the solve interchanges no rows.

    Piece i is c[0] t^3 + c[1] t^2 + c[2] t + c[3] with t = x - x[i]. The
    knot slopes solve the tridiagonal continuity system (de Boor, A Practical
    Guide to Splines, ch. IV) whose first and last rows make the third
    derivative continuous at x[1] and x[-2]. Rows, end formulas and solve
    follow ``scipy.interpolate.CubicSpline`` operation for operation, so the
    coefficients are the same floats.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    diag = np.empty(len(x))
    upper = np.empty(len(x) - 1)
    lower = np.empty(len(x) - 1)
    rhs = np.empty(len(x))
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = np.array(_gtsv(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _shaped(val, query):
    """Spline values (an array, at least 1-d) in the query's shape: a float
    for a scalar, an array (0-d included) otherwise."""
    val = val.reshape(np.shape(query))
    return float(val) if np.isscalar(query) else val


class EffectiveIndexTable:
    """Cubic-spline table of the fundamental n_eff over a wavelength range.

    Knots sit on the multiples of ``TABLE_STEP_NM`` (2 nm) that cover the
    range (at least four). The knots are exact roots; between them the
    spline reproduces direct solves to well below 1e-9 for any smooth guided
    branch. Each knot's root is the one the scan finds in the window
    +-``_CHAIN_HALF`` around the previous knot's root (the full window when
    that finds none); the scan grid is anchored to absolute n_eff values, so
    both windows give the same root. ``_solve`` solves the knots together on
    one residual, by the scan ``solve_planar`` runs; ``extend`` grows the
    table by solving only the knots it lacks.

    The spline is the not-a-knot cubic through the knots (``_not_a_knot``).
    A wavelength is evaluated on the piece of the last knot at or below it
    (the end pieces beyond the ends), as c3 + c2 t + c1 t^2 + c0 t^3 and its
    derivative as c2 + 2 c1 t + 3 c0 t^2, summed in ascending powers; these
    are the values ``CubicSpline`` and its derivative give. ``n_eff`` and
    ``n_group`` read a Python float's piece inline and evaluate it in plain
    floats. Anything else takes one vectorized pass (``_at``) that takes
    every piece's coefficients and knot into fresh arrays; ``n_eff`` then
    multiplies and adds into those arrays in the order written above, so it
    allocates no temporary and gives the float path's floats.

    The piece is found on the knot lattice, not by a search: it is
    floor(lambda / ``TABLE_STEP_NM``) less the first knot's lattice number;
    after its pieces the table holds the last piece and the first once more,
    for lattice numbers one past either end (within 1e-9 nm of it). The step
    is a power of two and the knots whole multiples of it, so lambda / step
    is exact and its floor numbers the last lattice point at or below lambda:
    the piece ``searchsorted(side="right") - 1``, clipped, finds, at the
    knots and at both range ends too.
    """

    def __init__(
        self,
        s: LayerStack,
        pol: str,
        lambda_min: float,
        lambda_max: float,
        model: DispersionModel | None = None,
    ):
        self.stack = s
        self.polarization = pol
        self.model = model
        self.knots_nm = np.empty(0)
        self.knot_n_eff = np.empty(0)
        self.extend(lambda_min, lambda_max)

    def extend(self, lambda_min: float, lambda_max: float):
        """Cover [lambda_min, lambda_max] as well, solving only the new knots.

        Knots already held are kept as they are: the grown table holds exactly
        the knots, and so the spline, of a fresh table over its new range.
        """
        require((lambda_min, lambda_max), WINDOW, "wavelength range")
        step = TABLE_STEP_NM
        j_lo = math.floor(lambda_min / step + 1e-9)
        j_hi = max(math.ceil(lambda_max / step - 1e-9), j_lo + 3)
        # knots held: step * (have_lo .. have_hi), an empty range at first
        have_lo, have_hi = (self._j_lo, self._j_hi) if self.knots_nm.size else (j_lo, j_lo - 1)
        prev = self.knot_n_eff[-1] if self.knot_n_eff.size else np.nan
        below = self._solve(np.arange(j_lo, have_lo) * step, np.nan)
        above = self._solve(np.arange(have_hi + 1, j_hi + 1) * step, prev)
        self._j_lo, self._j_hi = min(j_lo, have_lo), max(j_hi, have_hi)
        self.knots_nm = np.arange(self._j_lo, self._j_hi + 1) * step
        self.knot_n_eff = np.concatenate((below, self.knot_n_eff, above))
        self.lambda_min = float(self.knots_nm[0])
        self.lambda_max = float(self.knots_nm[-1])
        self._lo, self._hi = self.lambda_min - 1e-9, self.lambda_max + 1e-9
        self._c = _not_a_knot(self.knots_nm, self.knot_n_eff)
        # c0, c1, c2, c3 and knot over the pieces, then the last and first again
        cols = np.concatenate((self._c, self.knots_nm[None, :-1]))
        self._cols = np.concatenate((cols, cols[:, [-1, 0]]), axis=1)
        self._rows = list(zip(*self._cols.tolist()))

    def _solve(self, lams, prev):
        """Fundamental n_eff at each of ``lams`` (ascending), each root chained
        from the root of the knot below (``prev`` below the first; the full
        window when it is NaN), in a few array passes over one residual.

        Anchors, every ``_ANCHOR_EVERY``-th knot and the last, take the
        chained scan (``_roots_on_grid`` at their knot) one by one; linear
        interpolation between them predicts every knot. One residual call
        scans the ``2 _SCAN_HALF + 1`` multiples of ``_GRID_STEP`` nearest
        each prediction, and one lane-wise Brent polishes each knot's highest
        sign change: the chained scan's bracket when both its ends lie inside
        the chained window (the root below +-``_CHAIN_HALF``) and W has the
        same sign at its top end as at the window's top, which one more
        residual call checks. Any other knot takes the chained scan, as does
        every knot of a stack without one shared run structure, each on a
        one-knot residual of its own.
        """
        neffs = np.empty(len(lams))
        if not len(lams):
            return neffs
        n_top, n_layers, n_bot, thickness = _profile_arrays(self.stack, lams, self.model)
        n_core = n_layers.max(axis=0)
        pol = self.polarization
        residual = _MatchedResidual(n_top, list(zip(n_layers, thickness)), n_bot, lams, pol)

        def chained(i, prev):
            r, knot, profile = residual, i, (n_top, n_bot[i], n_core[i])
            if not residual.uniform:  # the knot's own run structure
                layers = list(zip(n_layers[:, i].tolist(), thickness))
                r, knot = _MatchedResidual(n_top, layers, n_bot[i], lams[i], pol), None
            try:
                near = (prev - _CHAIN_HALF, prev + _CHAIN_HALF)
                return _roots_on_grid(r, *_guided_window(*profile, near), 1, knot)[0]
            except NoGuidedMode:  # a NonGuidingStack too
                return _roots_on_grid(r, *_guided_window(*profile), 1, knot)[0]

        if not residual.uniform or len(lams) <= 2:  # two knots are both anchors
            for i in range(len(lams)):
                prev = neffs[i] = chained(i, prev)
            return neffs
        anchors = sorted({*range(0, len(lams), _ANCHOR_EVERY), len(lams) - 1})
        roots = [prev]
        for i in anchors:
            roots.append(chained(i, roots[-1]))
        guess = np.interp(lams, lams[anchors], roots[1:])
        knots = np.arange(len(lams))
        j = np.rint(guess / _GRID_STEP)[:, None] + np.arange(-_SCAN_HALF, _SCAN_HALF + 1)
        grid = j * _GRID_STEP
        rows = _BLOCK // grid.shape[1]  # knots per residual call
        sign = np.sign(
            np.concatenate([residual(grid[i : i + rows], knots[i : i + rows]) for i in knots[::rows]])
        )
        change = sign[:, :-1] * sign[:, 1:] < 0
        top = change.shape[1] - 1 - np.argmax(change[:, ::-1], axis=1)  # highest change
        found = change.any(axis=1) & np.all(sign != 0, axis=1)
        lo, hi = grid[knots, top], grid[knots, top + 1]
        root = guess.copy()  # a knot without a bracket keeps its guess as a neighbour
        solved = np.flatnonzero(found)
        root[solved] = brentq_lanes(
            lambda x, lanes: residual(x, solved[lanes]), lo[solved], hi[solved], _XTOL
        )
        # the chained window of each knot, from the batch root below it
        below = np.concatenate(([prev], root[:-1]))
        near = (below - _CHAIN_HALF, below + _CHAIN_HALF)
        w_lo, w_hi = _guided_window(n_top, n_bot, n_core, near)
        same_parity = np.sign(residual(w_hi, knots)) == sign[knots, top + 1]
        ok = found & (w_lo < lo) & (hi < w_hi) & same_parity
        for i in range(len(lams)):  # prev: the knot below, as solved
            held = i == 0 or prev == below[i]
            prev = neffs[i] = root[i] if ok[i] and held else chained(i, prev)
        return neffs

    def _at(self, lam):
        """(c0, c1, c2, c3, t), fresh arrays (at least 1-d): the coefficients
        of the piece holding each wavelength of ``lam`` and its offset t from
        the piece's knot."""
        q = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.all((self._lo <= q) & (q <= self._hi)):  # NaN fails this
            x = q / TABLE_STEP_NM
            i = np.floor(x, out=x).astype(np.intp)
            i -= self._j_lo
            *c, t = (col.take(i) for col in self._cols)
            return (*c, np.subtract(q, t, out=t))
        outside = q[~((self._lo <= q) & (q <= self._hi))]  # NaN included
        raise ValueError(
            f"{outside.size} of {q.size} wavelengths outside table range "
            f"[{self.lambda_min}, {self.lambda_max}] nm, the first {outside[0]} nm"
        )

    def n_eff(self, wavelength):
        if type(wavelength) is float and self._lo <= wavelength <= self._hi:
            c0, c1, c2, c3, knot = self._rows[math.floor(wavelength / TABLE_STEP_NM) - self._j_lo]
            t = wavelength - knot
            return c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
        c0, c1, c2, c3, t = self._at(wavelength)
        # the same sum, each product and sum written into a row taken above
        c3 += np.multiply(c2, t, out=c2)
        c3 += np.multiply(c1, np.multiply(t, t, out=c2), out=c1)
        c3 += np.multiply(c0, np.multiply(c2, t, out=c2), out=c0)
        return _shaped(c3, wavelength)

    __call__ = n_eff

    def n_group(self, wavelength):
        """Group index n_eff - lambda dn_eff/dlambda, from the spline's slope."""
        if type(wavelength) is float and self._lo <= wavelength <= self._hi:
            c0, c1, c2, c3, knot = self._rows[math.floor(wavelength / TABLE_STEP_NM) - self._j_lo]
            t = wavelength - knot
        else:
            c0, c1, c2, c3, t = self._at(wavelength)
        val = c3 + c2 * t + c1 * (t * t) + c0 * (t * t * t)
        val = val - wavelength * (c2 + 2 * c1 * t + 3 * c0 * (t * t))
        return val if type(wavelength) is float else _shaped(val, wavelength)
