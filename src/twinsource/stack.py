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
* Fields inside the stack follow one rule (``_waves``): the transmitted
  substrate field t (1, eta_sub) is carried up through the layers below a
  slice by their characteristic matrix, then walked up through the slice,
  the way a mirror's stop-band field grows (a downward walk amplifies
  rounding with depth below the core). ``field_profile`` (all layers) and
  ``core_intensity`` (the core) read the same waves. Each layer's terms are
  one (L, W) array pass; only the (F, G) carry loops over the layers.
* A stack's layers, regions and layer plan are defined in ``layers``; this
  module is the optics over them.
* A characteristic matrix is the product of a layer sequence's matrices,
  taken pairwise, level by level, along a product tree (``_product_tree``):
  each leaf's matrix is built once, and equal (left, right) pairs on a level
  are one product. A periodic mirror so costs a few products per level, and
  every product is the one the positional pairwise product takes, from the
  same operands in the same order, so it is the same float. A stack's tree
  also holds these products as one compiled straight-line float function
  (``_program``). Both are a pure function of the leaf sequence and leaf
  count, so one tree serves every stack with that layer pattern
  (``_shared_tree``), and a stack keeps the trees it multiplies (``_tree``).
* At a float wavelength, with the leaves' indices and thicknesses as floats,
  ``raw_response`` multiplies a tree through its program, and takes its r/t
  step, in plain floats (``_response_floats``), the floats the kernel gives
  for a one-element array (a tree past ``_PROGRAM_PRODUCTS`` takes the
  kernel), by four rules: (1) a node is four real floats (m00, p01, q10, m11),
  the matrix [[m00, i p01], [i q10, m11]] of a propagating lossless layer, a
  form products keep, so every complex product the kernel takes has a zero
  term and numpy's fused multiply-add gives the unfused product; (2) a
  division is numpy's, a product with a reciprocal: p01 = -s (1/eta), the TM
  admittance n (1/cos theta), and Smith's method for r and t (``_quotient``);
  (3) a square is ``x * x`` and a modulus ``np.abs`` (Python's ``abs`` and
  ``math.hypot`` round otherwise); (4) n0 sin(theta), eta0 and eta_sub stay
  the kernel step's numpy scalars, since CPython divides complex numbers
  otherwise.

All lengths in nanometres unless a name says otherwise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import materials
from .errors import ANGLE, NUMERIC, POLARIZATION, WINDOW, MissingRegion, MultipleResonances
from .errors import MAX_SWEEP_POINTS, NoResonanceInWindow, SweepSizeError, TwinSourceError, require
from .layers import TE, LayerStack, _composition_indices
from .materials import DispersionModel
from .roots import brentq_lanes


class StackResponse(NamedTuple):
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


class FieldProfile(NamedTuple):
    """Tangential field amplitude vs depth for unit incident amplitude."""

    depth_nm: np.ndarray
    amplitude: np.ndarray
    wavelength_nm: float
    theta_deg: float
    polarization: str


class ResonanceResult(NamedTuple):
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

# nodes times wavelengths per kernel call in stack_response; the kernel holds
# (4 N, W) complex arrays for the N nodes of a tree level over W wavelengths,
# so a block of _BLOCK // (the widest level's N) wavelengths holds ~2 MB per
# kernel array whatever the stack (N is 5 or 6 for the paper's cavities and
# their 1000-period variants)
_BLOCK = 1 << 15

_POINTS_PER_LAYER = 12  # field samples per layer, both boundaries included
_PAD_NM = 200.0  # ambient and substrate tails of a field profile
RESONANCE_SCAN_STEP_NM = 0.05
_WALK_STEP_NM = 0.1  # step of the walk out from the peak to each half-maximum
_FSR_STEP_NM = 0.05  # h of the round-trip phase slope's central difference
RESONANCE_PROMINENCE = 5e-4  # least prominence of the resonance's R dip
_WALK_CHUNK = 16  # half-maximum walk points per core_intensity call
_CROSSING_XTOL_NM = 1e-12  # Brent's absolute tolerance on a half-maximum crossing
_CAVITY_REGIONS = ("top_dbr", "core", "bottom_dbr")  # the region names a cavity needs


def _cos_theta(n, n0_sin):
    """Cosine of the propagation angle inside a medium of index n."""
    return np.sqrt(1.0 - (n0_sin / n) ** 2 + 0j)


def _admittance(n, cos_t, pol):
    return n * cos_t if pol == TE else n / cos_t


class _Tree(NamedTuple):
    """Product tree of a layer sequence over U leaves, leaf U the identity."""

    levels: tuple  # per level, the rows (a, b) its products gather
    pairs: tuple  # per level, the (left, right) nodes of its products
    root: int  # the node of the last level (or leaf) that is the product
    widest: int  # the most nodes on one level, the leaves included
    program: object  # a stack tree's products in floats (``_program``), or None


# compiling a program takes ~40 us and keeps ~0.35 KB per product; past this
# bound (the paper's cavities take at most ~60) the kernel takes a float call
_PROGRAM_PRODUCTS = 256

# node o = l r of four-float nodes (m00, p01, q10, m11), as the kernel takes it
_PRODUCT = """
    a{o} = a{l} * a{r} - p{l} * q{r}
    p{o} = a{l} * p{r} + p{l} * d{r}
    q{o} = q{l} * a{r} + d{l} * q{r}
    d{o} = d{l} * d{r} - q{l} * p{r}"""


def _program(level_pairs, root, n_leaves):
    """The tree's products as one straight-line function from its U + 1 leaf
    nodes (the last the identity) to the root; the source holds node indices."""
    leaves = "".join(f"(a0_{k}, p0_{k}, q0_{k}, d0_{k}), " for k in range(n_leaves + 1))
    body = [f"def program(leaves):\n    {leaves}= leaves"]
    for level, pairs in enumerate(level_pairs):
        body += (
            _PRODUCT.format(o=f"{level + 1}_{k}", l=f"{level}_{left}", r=f"{level}_{right}")
            for k, (left, right) in enumerate(pairs)
        )
    z = f"{len(level_pairs)}_{root}"
    scope = {}
    exec("".join(body) + f"\n    return a{z}, p{z}, q{z}, d{z}\n", scope)
    return scope["program"]


def _product_tree(leaf, n_leaves) -> _Tree:
    """The pairwise product tree of the layers whose leaves are ``leaf`` (top
    to bottom), identity leaves (``n_leaves``) padding them to a power of two.

    Level by level, neighbours 2k and 2k + 1 are multiplied, as in the
    positional product; equal (left, right) pairs on a level are one node.
    Entry e (m00, m01, m10, m11) of node k of a level of N nodes sits in row
    e N + k of the kernel's (4 N, W) array. Entry (i, j) of a product is
    a[i, 0] b[0, j] + a[i, 1] b[1, j]: a level gathers the rows of the left
    factors (``a``, the a[i, 0] terms, then the a[i, 1] terms) and of the
    right factors (``b``), multiplies them, and adds the two halves.
    """
    node = np.full(1 << (len(leaf) - 1).bit_length(), n_leaves, dtype=np.intp)
    node[: len(leaf)] = leaf
    width = widest = n_leaves + 1
    i, j = np.divmod(np.arange(4)[:, None], 2)  # product entry (i, j) by row
    levels, level_pairs = [], []
    while len(node) > 1:
        pairs, node = np.unique(node[0::2] * width + node[1::2], return_inverse=True)
        left, right = np.divmod(pairs, width)
        a = np.concatenate([(2 * i + k) * width + left for k in (0, 1)], axis=None)
        b = np.concatenate([(2 * k + j) * width + right for k in (0, 1)], axis=None)
        levels.append((a, b))
        level_pairs.append(tuple(zip(left.tolist(), right.tolist())))
        width = len(pairs)
        widest = max(widest, width)
    return _Tree(tuple(levels), tuple(level_pairs), int(node[0]), widest, None)


@lru_cache(maxsize=64)  # a design box of the paper's cavities takes ~40, ~10-20 KB each
def _shared_tree(leaf_bytes, n_leaves) -> _Tree:
    """The tree of a leaf sequence (intp bytes) with its float ``_program``, a
    pure function of its key: one tree serves every stack with that layer pattern."""
    tree = _product_tree(np.frombuffer(leaf_bytes, dtype=np.intp), n_leaves)
    if sum(map(len, tree.pairs)) > _PROGRAM_PRODUCTS:
        return tree
    return tree._replace(program=_program(tree.pairs, tree.root, n_leaves))


def _tree(s: LayerStack, leaf=None) -> _Tree:
    """Product tree of a sequence of the stack's plan leaves (top to bottom;
    the whole stack without ``leaf``), kept by the stack once per sequence."""
    key = None if leaf is None else leaf.tobytes()
    tree = s._trees.get(key)
    if tree is None:
        plan = s._plan
        leaves = plan.leaf if leaf is None else leaf
        tree = s._trees[key] = _shared_tree(leaves.tobytes(), len(plan.leaf_index))
    return tree


@lru_cache(maxsize=32)
def _positional_tree(n_layers) -> _Tree:
    """The product tree of L layers that are each their own leaf."""
    return _product_tree(np.arange(n_layers), n_layers)


_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)[:, None]


def _char_matrix(n_list, t_list, n0_sin, wavelength, pol, tree=None):
    """Characteristic matrices of a layer sequence (top to bottom), one per wavelength.

    ``wavelength`` is a 1-D array of W values and ``n0_sin`` a scalar or a
    (W,) array. Without a ``tree``, ``n_list`` holds the layer indices, shape
    (L,) or (W, L), and ``t_list`` the L thicknesses, and the product is the
    positional one; with a stack's product tree (``_tree``) they
    hold its U leaves' indices, (U,) or (W, U), and thicknesses. Returns the
    entries m00, m01, m10, m11 as a (4, W) array. One matrix is built per
    leaf, then each level of the tree takes its products at once, so the
    number of array operations grows with log2 L only, not with L or W, and
    the arrays with the widest level, not with L.
    """
    if tree is None:
        tree = _positional_tree(len(t_list))
    n_lam = len(wavelength)
    n = np.atleast_2d(n_list).T  # (U, W) or (U, 1)
    ct = _cos_theta(n, n0_sin)
    eta = _admittance(n, ct, pol)
    d = 2.0 * math.pi / wavelength * n * ct * np.asarray(t_list, dtype=float)[:, None]
    c, s = np.cos(d), np.sin(d)
    n_leaves = len(d)
    # entry e of leaf k in row e (U + 1) + k; leaf U is the identity that pads
    # the sequence (multiplying by an identity is exact)
    m = np.empty((4, n_leaves + 1, n_lam), dtype=complex)
    m[0, :n_leaves] = m[3, :n_leaves] = c
    m[1, :n_leaves] = -1j * s / eta
    m[2, :n_leaves] = -1j * eta * s
    m[:, n_leaves] = _IDENTITY
    m = m.reshape(-1, n_lam)
    for a, b in tree.levels:
        p = m.take(a, 0) * m.take(b, 0)
        m = p[: len(p) // 2] + p[len(p) // 2 :]
    return m.reshape(4, -1, n_lam)[:, tree.root]


def _char_matrix_floats(n_list, t_list, n0_sin, wavelength, pol, tree):
    """``_char_matrix`` at one wavelength in plain floats, the same floats.

    Returns the root of the product tree as (m00, p01, q10, m11), the matrix
    [[m00, i p01], [i q10, m11]], from the tree's compiled ``_program``, or
    None when the tree has no program or a leaf does not propagate (an index
    that is not a float, or n0 sin(theta) >= n) or its phase d is not finite,
    since only a propagating lossless leaf, [[cos d, -i sin d / eta],
    [-i eta sin d, cos d]], has that form.
    """
    if tree.program is None:
        return None
    k0, n0_sin = 2.0 * math.pi / wavelength, float(n0_sin)
    least, te, nodes = abs(n0_sin), pol == TE, []
    for n, t in zip(n_list, t_list):
        if not (isinstance(n, float) and n > least):
            return None
        q = n0_sin / n
        cos2 = 1.0 - q * q
        if not cos2 > 0.0:
            return None
        ct = math.sqrt(cos2)
        eta = n * ct if te else n * (1.0 / ct)
        d = k0 * n * ct * t
        if not math.isfinite(d):
            return None
        c, s = math.cos(d), math.sin(d)
        nodes.append((c, -(s * (1.0 / eta)), -(eta * s), c))
    nodes.append((1.0, 0.0, 0.0, 1.0))
    return tree.program(nodes)


def _quotient(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) in floats as numpy divides: Smith's method,
    multiplying by the reciprocal of the scaled denominator."""
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


@lru_cache(maxsize=64, typed=True)  # typed: a float32 angle computes in float32
def _incidence(n0, theta_deg, pol):
    """n0 sin(theta) and eta0 as numpy computes them (arrays: ``__wrapped__``)."""
    n0_sin = n0 * np.sin(np.radians(theta_deg))
    return n0_sin, _admittance(n0, _cos_theta(n0, n0_sin), pol)


def _response_floats(n_list, t_list, n0_sin, eta0, eta_sub, wavelength, pol, tree):
    """``raw_response`` at one wavelength in plain floats, the same floats as
    its array step, or None where that step must run: a leaf that does not
    propagate, an ambient admittance that is not a real scalar, a zero
    denominator.

    Every complex product of the array step has a zero term (the real part of
    m01 and m10, the imaginary part of m00, m11 and eta0), so a fused
    multiply-add in numpy's loops gives the unfused product of these floats.
    """
    if not (isinstance(n0_sin, float) and isinstance(eta_sub, complex)):
        return None
    if not (isinstance(eta0, complex) and eta0.imag == 0.0):
        return None
    m = _char_matrix_floats(n_list, t_list, n0_sin, wavelength, pol, tree)
    if m is None:
        return None
    a, p, q, d = m
    e0, er, ei = float(eta0.real), float(eta_sub.real), float(eta_sub.imag)
    br, bi = a - p * ei, p * er
    cr, ci = d * er, q + d * ei
    dr, di = e0 * br + cr, e0 * bi + ci
    if dr == 0.0 and di == 0.0:
        return None
    r = complex(*_quotient(e0 * br - cr, e0 * bi - ci, dr, di))
    t = complex(*_quotient(2.0 * e0, 0.0, dr, di))
    abs_r, abs_denom = np.abs([r, complex(dr, di)]).tolist()
    return r, t, abs_r * abs_r, 4.0 * e0 * er / (abs_denom * abs_denom)


def raw_response(n0, n_list, t_list, n_sub, wavelength, theta_deg, pol, tree=None):
    """Fresnel response (r, t, R, T) of an arbitrary index profile (low-level entry point).

    ``wavelength`` is a scalar or a 1-D array of W values. ``n_list`` holds
    one index per layer, shape (L,) or (W, L); ``n0``, ``n_sub`` and
    ``theta_deg`` are scalars or (W,) arrays. A scalar wavelength gives
    scalars out, an array gives (W,) arrays. With a stack's product ``tree``,
    ``n_list`` and ``t_list`` are per leaf, as in ``_char_matrix``.

    A float wavelength with a ``tree`` multiplies the tree in plain floats
    (``_char_matrix_floats``), the same floats as the kernel; it falls back
    to the kernel ``_char_matrix`` when the tree has no float program (past
    ``_PROGRAM_PRODUCTS``), when a leaf does not propagate (an index that is
    not a float, or n0 sin(theta) >= n, as with a large ambient index at a
    steep angle), when the ambient admittance is not real, or when the
    response's denominator is zero.
    """
    require(pol, POLARIZATION, "polarization")
    floats = tree is not None and isinstance(wavelength, float)
    n0_sin, eta0 = (_incidence if floats else _incidence.__wrapped__)(n0, theta_deg, pol)
    eta_sub = _admittance(n_sub, _cos_theta(n_sub, n0_sin), pol)
    if floats:
        out = _response_floats(n_list, t_list, n0_sin, eta0, eta_sub, float(wavelength), pol, tree)
        if out is not None:
            return out
    lam = np.asarray(wavelength, dtype=float)
    m00, m01, m10, m11 = _char_matrix(n_list, t_list, n0_sin, lam.reshape(-1), pol, tree)
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
        raise MissingRegion(f"stack has no region named '{name}'")
    return slice(reg.start, reg.stop)


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
    require(theta_deg, ANGLE, "incidence angle")
    plan, tree = s._plan, _tree(s)
    if isinstance(wavelength, float):
        lam = wavelength
    else:
        lam = np.asarray(require(wavelength, NUMERIC, "wavelength"), dtype=float)
    if isinstance(lam, float) or lam.ndim == 0:
        lam, m = float(lam), model or materials.DEFAULT_MODEL
        n_x = [m.evaluate(x, lam) for x in plan.xs]
        n_leaf = [n_x[i] for i in plan.leaf_index.tolist()]
    else:
        block = max(1, _BLOCK // tree.widest)
        if lam.size > block:
            parts = [
                stack_response(s, lam[i : i + block], theta_deg, pol, model)
                for i in range(0, lam.size, block)
            ]
            fields = ("r", "t", "reflectance", "transmittance")
            r, t, R, T = (np.concatenate([getattr(p, name) for p in parts]) for name in fields)
            return StackResponse(r, t, R, T, wavelength, theta_deg, pol)
        n_leaf = _composition_indices(s, lam, model)[plan.leaf_index].T
    n_sub, t_leaf = substrate_index(s, lam, model), plan.leaf_thickness
    r, t, R, T = raw_response(s.ambient_index, n_leaf, t_leaf, n_sub, lam, theta_deg, pol, tree)
    return StackResponse(r, t, R, T, wavelength, theta_deg, pol)


def _layer_field(a, b, kz, x):
    """Tangential field at depths x below the top of a layer."""
    return a * np.exp(1j * kz * x) + b * np.exp(-1j * kz * x)


def _waves(s, lams, theta_deg, pol, model, layers):
    """Waves in the layers of the slice ``layers`` over a 1-D array of W
    wavelengths, for unit incident amplitude.

    Returns (A, B, kz, r, t, kz_sub): the forward and backward amplitudes and
    the wavenumber at the top of each layer of the slice, each (L, W), the
    stack's r and t, and the substrate wavenumber. The field (F, G) at the
    bottom of the slice is the transmitted substrate field t (1, eta_sub)
    carried up through the layers below the slice by their characteristic
    matrix (the product tree of those layers, empty for the whole stack); the
    waves are then walked up through the slice, the way a stop-band field
    below the core grows, so rounding stays small next to the field.
    """
    require(theta_deg, ANGLE, "incidence angle")
    k0 = 2.0 * math.pi / lams
    plan = s._plan
    n_x = _composition_indices(s, lams, model)  # (X, W)
    n_leaf, t_leaf = n_x[plan.leaf_index].T, plan.leaf_thickness  # (W, U), (U,)
    n_sub = substrate_index(s, lams, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    below = _tree(s, plan.leaf[layers.indices(len(plan.leaf))[1] :])
    r, t, *_ = raw_response(s.ambient_index, n_leaf, t_leaf, n_sub, lams, theta_deg, pol, _tree(s))
    m00, m01, m10, m11 = _char_matrix(n_leaf, t_leaf, n0_sin, lams, pol, below)
    ct_sub = _cos_theta(n_sub, n0_sin)
    eta_sub = _admittance(n_sub, ct_sub, pol)
    f, g = t * (m00 + m01 * eta_sub), t * (m10 + m11 * eta_sub)
    n = n_x[plan.index[layers]].reshape(-1, lams.size)  # (L, W); n_x is (0,) without layers
    ct = _cos_theta(n, n0_sin)
    eta = _admittance(n, ct, pol)
    kz = k0 * n * ct
    down, up = (np.exp(i * kz * plan.thickness[layers][:, None]) for i in (-1j, 1j))
    waves = []
    for eta_l, down_l, up_l in zip(eta[::-1], down[::-1], up[::-1]):
        # (F, G) is continuous across the layer's bottom face; carry it to the top
        h = g / eta_l
        a, b = 0.5 * (f + h) * down_l, 0.5 * (f - h) * up_l
        waves.append((a, b))
        f, g = a + b, eta_l * (a - b)
    a, b = np.reshape(waves[::-1], (-1, 2, lams.size)).transpose(1, 0, 2)
    return a, b, kz, r, t, k0 * n_sub * ct_sub


def field_profile(
    s: LayerStack,
    wavelength: float,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
) -> FieldProfile:
    """Tangential field amplitude through the stack for unit incident amplitude.

    The waves of every layer come from ``_waves`` over the whole stack (the
    transmitted field walked up from the substrate); the ambient holds the
    incident and reflected waves (1, r), the substrate the transmitted wave
    t. Each layer, and the ambient and substrate tails of ``_PAD_NM`` (200
    nm), is sampled at ``_POINTS_PER_LAYER`` (12) points including both of
    its boundaries.
    """
    lam = np.array([wavelength], dtype=float)
    a, b, kz, r, t, kz_sub = _waves(s, lam, theta_deg, pol, model, slice(0, None))
    t_list = s._plan.thickness
    tops = np.cumsum(np.r_[0.0, t_list])  # the last is the substrate's
    x = np.linspace(0.0, t_list, _POINTS_PER_LAYER, axis=1)  # (L, points)
    x_amb = np.linspace(-_PAD_NM, 0.0, _POINTS_PER_LAYER)
    x_sub = np.linspace(0.0, _PAD_NM, _POINTS_PER_LAYER)
    n0 = s.ambient_index
    kz0 = 2.0 * math.pi / wavelength * n0 * _cos_theta(n0, n0 * math.sin(math.radians(theta_deg)))
    return FieldProfile(
        depth_nm=np.concatenate([x_amb, (tops[:-1, None] + x).ravel(), tops[-1] + x_sub]),
        amplitude=np.concatenate(
            [
                _layer_field(1.0, r, kz0, x_amb),
                _layer_field(a, b, kz, x).ravel(),
                t * np.exp(1j * kz_sub * x_sub),
            ]
        ),
        wavelength_nm=wavelength,
        theta_deg=theta_deg,
        polarization=pol,
    )


def core_intensity(
    s: LayerStack,
    wavelength,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
):
    """Peak |field|^2 inside the core region for unit incident intensity, a
    float at one wavelength or an array over a 1-D wavelength array.

    The waves are ``_waves`` on the core: the transmitted substrate field
    carried up through the bottom mirror, then walked up through the core,
    sampled at ``_POINTS_PER_LAYER`` points per layer.
    """
    core = _region_slice(s, "core")
    lams = np.reshape(np.asarray(wavelength, dtype=float), -1)
    a, b, kz = (w[:, :, None] for w in _waves(s, lams, theta_deg, pol, model, core)[:3])
    x = np.linspace(0.0, s._plan.thickness[core], _POINTS_PER_LAYER, axis=1)[:, None, :]
    peak = np.max(np.abs(_layer_field(a, b, kz, x)) ** 2, axis=(0, 2))
    return float(peak[0]) if np.ndim(wavelength) == 0 else peak


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
    top, core, bottom = (_region_slice(s, name) for name in _CAVITY_REGIONS)
    k0 = 2.0 * math.pi / wavelength
    plan = s._plan
    n_x = _composition_indices(s, wavelength, model)
    n0_sin = s.ambient_index * math.sin(math.radians(theta_deg))
    n_core, t_core = n_x[plan.index[core]], plan.thickness[core]
    opl = sum(n_core * t_core * _cos_theta(n_core, n0_sin).real)
    n_mean = sum(n_core * t_core) / sum(t_core)
    theta_core = math.degrees(math.asin(n0_sin / abs(n_mean)))
    n_leaf, t_leaf = n_x[plan.leaf_index].tolist(), plan.leaf_thickness
    n_sub = substrate_index(s, wavelength, model)
    up_tree, down_tree = _tree(s, plan.leaf[top][::-1]), _tree(s, plan.leaf[bottom])
    up = raw_response(n_mean, n_leaf, t_leaf, s.ambient_index, wavelength, theta_core, pol, up_tree)
    down = raw_response(n_mean, n_leaf, t_leaf, n_sub, wavelength, theta_core, pol, down_tree)
    return 2.0 * k0 * opl, up, down


def find_resonance(
    s: LayerStack,
    lambda_window: tuple,
    theta_deg: float = 0.0,
    pol: str = TE,
    model: DispersionModel | None = None,
) -> ResonanceResult:
    """Locate the cavity resonance in a window holding exactly one R dip.

    Numerics, all fixed:

    * the window is scanned at ``RESONANCE_SCAN_STEP_NM`` (0.05 nm), at most
      ``MAX_SWEEP_POINTS`` points (SweepSizeError before the scan is allocated), and
      must hold exactly one reflectance minimum of prominence >= ``RESONANCE_PROMINENCE``;
    * the resonance wavelength is the reflectance minimum, golden-section
      refined from the neighbouring scan points to xtol = 1e-3 nm;
    * the FWHM is read off the core field-intensity resonance curve: each
      half-maximum crossing is bracketed by walking out in ``_WALK_STEP_NM``
      (0.1 nm) steps, ``_WALK_CHUNK`` walk points per ``core_intensity`` call
      (their wavelengths summed step by step, as a loop sums them; a chunk the
      index model cannot evaluate is walked point by point), then found by Brent's
      method to xtol = ``_CROSSING_XTOL_NM`` (1e-12 nm), both crossings in one
      ``roots.brentq_lanes`` call: each of its ``core_intensity`` calls takes
      at most 4 wavelengths, those the scalar ``roots.brentq`` would ask for;
    * the free spectral range comes from the slope of the cavity round-trip
      phase, a central difference with h = ``_FSR_STEP_NM`` (0.05 nm); the
      window holds a single dip, so peak-to-peak spacing is not available;
    * the finesse is FSR / FWHM.

    T_up and T_down are the transmittances of the two DBR sub-stacks seen
    from the core at the resonance wavelength.
    """
    lo, hi = require(lambda_window, WINDOW, "wavelength window")
    for name in _CAVITY_REGIONS:  # a missing region fails before any work
        _region_slice(s, name)
    if not (float(hi) - float(lo)) / RESONANCE_SCAN_STEP_NM + 1 <= MAX_SWEEP_POINTS:
        raise SweepSizeError(f"wavelength window [{lo}, {hi}] nm: over {MAX_SWEEP_POINTS} points")
    lams = np.arange(lo, hi + RESONANCE_SCAN_STEP_NM / 2, RESONANCE_SCAN_STEP_NM)
    refl = stack_response(s, lams, theta_deg, pol, model).reflectance
    idx = _prominent_minima(refl, RESONANCE_PROMINENCE)
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

    def bracket(step):
        """(inside, outside) of the half-maximum crossing on walking out from
        the peak: the first of the wavelengths lam_res + step, + step, ...
        (summed one step at a time) at or below half, ``_WALK_CHUNK`` of them
        per call."""
        span = hi - lo
        walk = np.cumsum(np.r_[lam_res, np.full(int(span / abs(step)) + 2, step)])[1:]
        # the walk gives up at its first point beyond the window span (never the first)
        walk = walk[: 1 + int(np.argmax(np.abs(walk[1:] - lam_res) > span))]
        for start in range(0, len(walk), _WALK_CHUNK):
            part = walk[start : start + _WALK_CHUNK]
            try:
                above = intensity(part) > half
            except TwinSourceError:  # past the crossing the model may end: go one by one
                above = []
                for lam in part.tolist():
                    above.append(intensity(lam) > half)
                    if not above[-1]:
                        break
                above = np.array(above)
            if not above.all():
                k = start + int(np.argmin(above))
                return (lam_res if k == 0 else walk[k - 1]), walk[k]
        raise NoResonanceInWindow("core resonance half-width exceeds the window")

    def over_half(lams, _lanes):  # both lanes solve the same curve
        return intensity(lams) - half

    # both crossings at once, each from its walk bracket (inside, outside)
    lam_in, lam_out = np.array([bracket(_WALK_STEP_NM), bracket(-_WALK_STEP_NM)]).T
    right, left = brentq_lanes(over_half, lam_in, lam_out, _CROSSING_XTOL_NM)
    fwhm = right - left

    # FSR from the round-trip phase slope (central difference, wrap-safe)
    h = _FSR_STEP_NM
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
