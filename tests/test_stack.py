import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import find_peaks

import _oracles
from _oracles import (
    core_intensity_scalar,
    field_profile_top_down,
    resonance_scalar,
    response_at_numpy,
    response_loop,
)
from twinsource import config, materials
from twinsource import stack as stack_mod
from twinsource.errors import (
    AboveBandgap,
    ConfigError,
    MultipleResonances,
    NoResonanceInWindow,
    OutOfValidityWindow,
)
from twinsource.materials import Composition, refractive_index
from twinsource.layers import TE, TM, Layer, LayerStack, Region, layer_indices
from twinsource.stack import (
    _BLOCK,
    _char_matrix,
    _prominent_minima,
    _waves,
    core_intensity,
    field_profile,
    find_resonance,
    raw_response,
    stack_response,
)


def quarter_wave_oracle_reflectance(n_h, n_l, n_sub, pairs):
    """Closed-form reflectance of an ideal (H L)^N quarter-wave mirror from air."""
    y = (n_h / n_l) ** (2 * pairs) * n_sub
    return ((1.0 - y) / (1.0 + y)) ** 2


def test_fresnel_single_interface_normal_incidence():
    s = LayerStack(layers=(), substrate=Composition(0.0))
    resp = stack_response(s, 1520.0)
    n2 = refractive_index(Composition(0.0), 1520.0)
    assert resp.r == pytest.approx((1 - n2) / (1 + n2), abs=1e-12)


def test_quarter_wave_mirror_against_closed_form():
    lam = 760.0
    n_h = refractive_index(Composition(0.35), lam)
    n_l = refractive_index(Composition(0.90), lam)
    for pairs in (1, 3, 10, 25, 41):
        n_list = [n_h, n_l] * pairs
        t_list = [lam / (4 * n_h), lam / (4 * n_l)] * pairs
        _, _, refl, _ = raw_response(1.0, n_list, t_list, 3.5, lam, 0.0, TE)
        assert refl == pytest.approx(
            quarter_wave_oracle_reflectance(n_h, n_l, 3.5, pairs), abs=1e-9
        )


@pytest.mark.parametrize("pol", [TE, TM])
@pytest.mark.parametrize("theta", [0.0, 13.0, 41.0])
def test_energy_conservation_lossless(paper_stack, pol, theta):
    resp = stack_response(paper_stack, 1520.0, theta, pol)
    assert resp.reflectance + resp.transmittance == pytest.approx(1.0, abs=1e-9)


def test_energy_conservation_with_absorbing_substrate(paper_stack):
    # at the pump the GaAs substrate absorbs; layers stay lossless so the
    # flux entering the substrate still closes the budget
    resp = stack_response(paper_stack, 760.0, 0.0, TE)
    assert resp.reflectance + resp.transmittance == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("pol", [TE, TM])
def test_reciprocity_of_transmittance(pol):
    n_list = [3.2, 2.9, 3.4, 3.0]
    t_list = [120.0, 260.0, 90.0, 300.0]
    theta = 23.0
    _, _, _, t_fwd = raw_response(1.0, n_list, t_list, 3.3, 1520.0, theta, pol)
    theta_back = math.degrees(math.asin(math.sin(math.radians(theta)) / 3.3))
    _, _, _, t_back = raw_response(3.3, n_list[::-1], t_list[::-1], 1.0, 1520.0, theta_back, pol)
    assert t_fwd == pytest.approx(t_back, abs=1e-12)


def _oracle_sweep(s, lams, theta, pol):
    """(R, T) per wavelength from per-layer index calls and the layer-by-layer
    matrix oracle; the substrate is real below the gap, complex above it."""
    out = []
    for lam in lams:
        n_list = [refractive_index(ly.composition, lam) for ly in s.layers]
        if s.substrate is None:
            n_sub = s.ambient_index
        else:
            try:
                n_sub = refractive_index(s.substrate, lam)
            except AboveBandgap:
                n_sub = materials.complex_refractive_index(s.substrate, lam)
        t_list = [ly.thickness_nm for ly in s.layers]
        out.append(response_loop(s.ambient_index, n_list, t_list, n_sub, lam, theta, pol))
    return np.array(out).T


_GAAS_GAP_NM = materials.HC_EV_NM / materials.DEFAULT_MODEL.gap_energy_ev(0.0)

# wavelength windows: the pump resonance; across the substrate gap, so real
# and complex substrate indices meet in one batch; and inside the near-gap
# margin, where the substrate index comes from the complex evaluation
_WINDOWS = {
    "pump": np.linspace(740.0, 780.0, 41),
    "across_gap": np.linspace(850.0, 880.0, 31),
    "near_gap_margin": np.linspace(
        _GAAS_GAP_NM + 0.1, _GAAS_GAP_NM / materials.NEAR_GAP_MARGIN - 0.1, 9
    ),
}


@pytest.mark.parametrize("window", sorted(_WINDOWS))
@pytest.mark.parametrize("pol", [TE, TM])
@pytest.mark.parametrize("theta", [0.0, 17.0, 60.0])
def test_batched_response_matches_oracle_and_scalar_calls(paper_stack, window, pol, theta):
    lams = _WINDOWS[window]
    batch = stack_response(paper_stack, lams, theta, pol)
    assert batch.reflectance.shape == batch.transmittance.shape == lams.shape
    scalar = np.array(
        [
            (resp.reflectance, resp.transmittance)
            for resp in (stack_response(paper_stack, float(lam), theta, pol) for lam in lams)
        ]
    ).T
    oracle = _oracle_sweep(paper_stack, lams, theta, pol)
    for other in (scalar, oracle):
        assert np.max(np.abs(batch.reflectance - other[0])) <= 1e-12
        assert np.max(np.abs(batch.transmittance - other[1])) <= 1e-12


_EDGE_STACK_LIST = [
    LayerStack(layers=(Layer(Composition(0.3), 120.0), Layer(Composition(0.7), 95.0)), substrate=None),
    LayerStack(layers=(), substrate=Composition(0.0)),
    LayerStack(layers=(), substrate=None),
]
_EDGE_STACKS = pytest.mark.parametrize(
    "s", _EDGE_STACK_LIST, ids=["free_standing", "bare_substrate", "empty"]
)


@_EDGE_STACKS
@pytest.mark.parametrize("pol", [TE, TM])
def test_batched_response_edge_stacks(s, pol):
    lams = np.linspace(740.0, 1600.0, 23)
    batch = stack_response(s, lams, 17.0, pol)
    oracle = _oracle_sweep(s, lams, 17.0, pol)
    assert np.max(np.abs(batch.reflectance - oracle[0])) <= 1e-12
    assert np.max(np.abs(batch.transmittance - oracle[1])) <= 1e-12
    for lam, r in zip(lams, batch.reflectance):
        assert abs(stack_response(s, float(lam), 17.0, pol).reflectance - r) <= 1e-12


def test_a_stack_built_from_lists_ignores_later_changes_to_them(paper_stack):
    # the stack keeps tuples, so its cached layer plan cannot go stale
    layers, regions = list(paper_stack.layers), list(paper_stack.regions)
    s = LayerStack(layers, paper_stack.substrate, paper_stack.ambient_index, regions)
    lams = np.linspace(740.0, 780.0, 41)
    before = stack_response(s, lams, 3.0, TM), stack_response(s, 761.0, 3.0, TM)
    layers.reverse()
    layers[0] = Layer(Composition(0.1), 50.0)
    regions.clear()
    after = stack_response(s, lams, 3.0, TM), stack_response(s, 761.0, 3.0, TM)
    assert isinstance(s.layers, tuple) and isinstance(s.regions, tuple)
    assert s == paper_stack
    for name in ("r", "t", "reflectance", "transmittance"):
        assert np.array_equal(getattr(before[0], name), getattr(after[0], name))
        assert getattr(before[1], name) == getattr(after[1], name)


@pytest.mark.parametrize("substrate", [Composition(0.0), None], ids=["bare_substrate", "empty"])
def test_an_empty_stack_has_an_empty_layer_plan(substrate):
    s = LayerStack(layers=(), substrate=substrate)
    lams = np.linspace(740.0, 1600.0, 23)
    assert layer_indices(s, 760.0).shape == layer_indices(s, lams).shape == (0,)
    assert s._plan.thickness.shape == (0,)
    n = 1.0 if substrate is None else materials.complex_refractive_index(substrate, 760.0)
    resp = stack_response(s, 760.0)
    assert resp.r == pytest.approx((1.0 - n) / (1.0 + n), abs=1e-15)
    if substrate is None:
        assert (resp.r, resp.t, resp.reflectance, resp.transmittance) == (0.0, 1.0, 0.0, 1.0)
    batch = stack_response(s, lams)
    for lam, r in zip(lams.tolist(), batch.r):
        assert stack_response(s, lam).r == r


@pytest.mark.dispatch
def test_batched_response_past_one_kernel_block(paper_stack):
    """Dispatch: a kernel block boundary is where a SIMD remainder loop starts."""
    # a block holds _BLOCK nodes x wavelengths at the tree's widest level
    block = _BLOCK // stack_mod._tree(paper_stack).widest
    lams = np.linspace(1500.0, 1540.0, 2 * block + 100)
    batch = stack_response(paper_stack, lams, 5.0, TM)
    for i in (0, block - 1, block, 2 * block, len(lams) - 1):
        resp = stack_response(paper_stack, float(lams[i]), 5.0, TM)
        assert batch.r[i] == pytest.approx(resp.r, abs=1e-12)
        assert batch.transmittance[i] == pytest.approx(resp.transmittance, abs=1e-12)


@pytest.mark.dispatch
def test_batched_response_of_a_tall_stack_stays_small():
    """Dispatch: the kernel blocks follow the tree's widest level, so SIMD remainders fall elsewhere."""
    # the kernel arrays follow the widest level of the product tree, not the
    # layer count: 6000 layers (every default region at 1000 periods) have 5
    # distinct layer matrices and at most 6 distinct products on a level, so
    # 300 wavelengths run in one block of a few hundred kB, where one (2, 2,
    # W, 8192) array per layer position held ~134 MB at 256 wavelengths
    cfg = config.default_config()
    for reg in cfg["stack"]["regions"]:
        reg["periods"] = 1000
    s = config.build_stack(cfg)
    lams = np.linspace(740.0, 780.0, 300)
    tracemalloc.start()
    try:
        batch = stack_response(s, lams, 5.0, TM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s.layers) == 6000 and peak < 32e6
    for i in (0, 3, 4, 151, len(lams) - 1):
        resp = stack_response(s, float(lams[i]), 5.0, TM)
        assert batch.r[i] == pytest.approx(resp.r, abs=1e-12)
        assert batch.transmittance[i] == pytest.approx(resp.transmittance, abs=1e-12)


def _draw_stacks():
    """20 cavity-scan-like designs: 16-20 top and 39-43 bottom periods,
    design wavelength 755-765 nm; (stack, design wavelength) pairs."""
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(20):
        cfg = config.default_config()
        lam0 = float(rng.uniform(755.0, 765.0))
        cfg["stack"]["design_wavelength_nm"] = lam0
        cfg["stack"]["regions"][0]["periods"] = int(rng.integers(16, 21))
        cfg["stack"]["regions"][2]["periods"] = int(rng.integers(39, 44))
        draws.append((config.build_stack(cfg), lam0))
    return draws


def _tall_stack():
    cfg = config.default_config()
    for reg in cfg["stack"]["regions"]:
        reg["periods"] = 1000
    return config.build_stack(cfg)


_GAAS, _AL30, _AL70 = Composition(0.0), Composition(0.3), Composition(0.7)

# hand stacks that catch a wrong leaf key, with their leaf counts
_HAND_STACKS = {
    "one_composition_two_thicknesses": (
        LayerStack([Layer(_AL30, 100.0), Layer(_AL30, 130.0)] * 3 + [Layer(_AL30, 100.0)], _GAAS),
        2,
    ),
    "two_compositions_one_thickness": (
        LayerStack([Layer(_AL30, 100.0), Layer(_AL70, 100.0)] * 3 + [Layer(_AL30, 100.0)], _GAAS),
        2,
    ),
    "empty": (LayerStack((), _GAAS), 0),
    "one_layer": (LayerStack((Layer(_AL70, 90.0),), _GAAS), 1),
}


@pytest.fixture(scope="module")
def tree_stacks(paper_stack):
    stacks = {"nominal": paper_stack, "tall": _tall_stack()}
    stacks.update((f"draw{k}", s) for k, (s, _) in enumerate(_draw_stacks()))
    stacks.update((name, s) for name, (s, _) in _HAND_STACKS.items())
    return stacks


def _sequences(s):
    """(layers, reversed) of the sequences a stack multiplies: the whole
    stack, its top mirror seen from the core, the layers below the core; for
    a hand stack the whole stack, reversed, and all but its first layer."""
    if not s.regions:
        return (slice(None), False), (slice(None), True), (slice(1, None), False)
    top, core = (stack_mod._region_slice(s, name) for name in ("top_dbr", "core"))
    return (slice(None), False), (top, True), (slice(core.start, None), False)


@pytest.mark.dispatch
@pytest.mark.parametrize(
    "name", ["nominal", "tall", *(f"draw{k}" for k in range(20)), *_HAND_STACKS]
)
def test_tree_product_is_the_positional_product(tree_stacks, name):
    """Dispatch: a level's gathers move each product to another array position, so into another SIMD loop."""
    # the stack's product tree takes the same products as the positional
    # pairwise product, so the characteristic matrices are the same bytes
    s = tree_stacks[name]
    plan = s._plan
    if name in _HAND_STACKS:
        assert len(plan.leaf_index) == len(plan.leaf_thickness) == _HAND_STACKS[name][1]
    for lams in (np.array([761.3]), np.linspace(740.0, 780.0, 300)):
        n_x = stack_mod._composition_indices(s, lams, None)
        n_leaf, t_leaf = n_x[plan.leaf_index].T, plan.leaf_thickness
        for layers, rev in _sequences(s):
            order = slice(None, None, -1 if rev else 1)
            leaf, index, t = (a[layers][order] for a in (plan.leaf, plan.index, plan.thickness))
            n_layer = n_x[index].T
            for pol in (TE, TM):
                for theta in (0.0, 3.0):
                    n0_sin = math.sin(math.radians(theta))
                    tree = _char_matrix(n_leaf, t_leaf, n0_sin, lams, pol, stack_mod._tree(s, leaf))
                    # the positional product in blocks of 25 wavelengths keeps
                    # its arrays small for the 6000-layer stack
                    blocks = [slice(k, k + 25) for k in range(0, lams.size, 25)]
                    positional = np.concatenate(
                        [_char_matrix(n_layer[b], t, n0_sin, lams[b], pol) for b in blocks],
                        axis=1,
                    )
                    assert tree.shape == positional.shape == (4, lams.size)
                    assert tree.tobytes() == positional.tobytes(), (layers, rev, pol, theta)


def test_nominal_tree_shape(paper_stack):
    # 4 distinct layers (the two mirror layers and the two core layers) and 26
    # distinct sub-products, where the positional product takes 127; a level
    # gathers 8 rows per product
    plan = paper_stack._plan
    whole, positional = stack_mod._tree(paper_stack), stack_mod._positional_tree(127)
    assert len(plan.leaf_index) == 4
    assert sum(len(a) for a, _ in whole.levels) == 8 * 26
    assert sum(len(a) for a, _ in positional.levels) == 8 * 127
    assert sum(map(len, whole.pairs)) == 26 and sum(map(len, positional.pairs)) == 127


def test_stack_calls_take_no_positional_product(paper_stack, monkeypatch):
    # every stack-level call multiplies along one of the stack's trees
    def positional(n_layers):
        raise AssertionError("positional product taken")

    monkeypatch.setattr(stack_mod, "_positional_tree", positional)
    lams = np.linspace(755.0, 765.0, 11)
    stack_response(paper_stack, 760.0, 3.0, TM)
    stack_response(paper_stack, lams, 3.0, TM)
    core_intensity(paper_stack, lams, 3.0, TM)
    field_profile(paper_stack, 760.0, 3.0, TM)
    stack_mod._cavity(paper_stack, 760.0, 3.0, TM, None)


# --- one wavelength in plain floats ------------------------------------------


@pytest.fixture
def one_wavelength_calls(monkeypatch):
    """Every one-wavelength ``raw_response`` call a stack makes: (args, result)."""
    calls, real = [], stack_mod.raw_response

    def recorded(*args):
        out = real(*args)
        if np.ndim(args[4]) == 0:
            calls.append((args, out))
        return out

    monkeypatch.setattr(stack_mod, "raw_response", recorded)
    return calls


def _assert_numpy_floats(calls, least):
    # r, t, R and T of every call are the floats of numpy's one-element path
    assert len(calls) >= least
    for args, out in calls:
        assert out == response_at_numpy(*args), args[4:7]


@pytest.mark.dispatch
@pytest.mark.parametrize("theta", [0.0, -4.0, 3.0, 17.0, 60.0])
@pytest.mark.parametrize("pol", [TE, TM])
def test_one_wavelength_response_is_numpys_on_a_dense_grid(
    paper_stack, one_wavelength_calls, pol, theta
):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    # 735-1600 nm: an absorbing substrate below ~870 nm, a real one above
    for lam in np.arange(735.0, 1600.5, 2.0).tolist():
        stack_response(paper_stack, lam, theta, pol)
    _assert_numpy_floats(one_wavelength_calls, 433)


@pytest.mark.dispatch
def test_one_wavelength_responses_of_cavity_draws_are_numpys(one_wavelength_calls):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    # the sweep's calls, the resonance search's golden-section calls and the
    # mirror responses of _cavity, on 20 cavity-scan-like designs, each at a
    # drawn polarization and angle (0-4 deg), over its design wavelength +/- 20 nm
    rng = np.random.default_rng(15)
    for s, lam0 in _draw_stacks():
        pol, theta = (TE, TM)[int(rng.integers(0, 2))], float(rng.uniform(0.0, 4.0))
        for lam in np.linspace(lam0 - 20.0, lam0 + 20.0, 81).tolist():
            stack_response(s, lam, theta, pol)
        find_resonance(s, (lam0 - 20.0, lam0 + 20.0), theta, pol)
    _assert_numpy_floats(one_wavelength_calls, 20 * (81 + 6))


@pytest.mark.dispatch
@_EDGE_STACKS
@pytest.mark.parametrize("pol", [TE, TM])
def test_one_wavelength_response_of_edge_stacks_is_numpys(s, pol, one_wavelength_calls):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    for theta in (0.0, 17.0, 60.0):
        for lam in np.linspace(740.0, 1600.0, 23).tolist():
            stack_response(s, lam, theta, pol)
    _assert_numpy_floats(one_wavelength_calls, 3 * 23)


@pytest.mark.dispatch
def test_cavity_mirror_responses_are_numpys(paper_stack, one_wavelength_calls):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    # _cavity's two mirror responses, seen from the core at the core's angle
    for pol in (TE, TM):
        for theta in (0.0, 3.0, 17.0):
            for lam in (750.0, 759.9, 761.6058240589, 1520.0):
                stack_mod._cavity(paper_stack, lam, theta, pol, None)
    _assert_numpy_floats(one_wavelength_calls, 2 * 2 * 3 * 4)


def _steep(s):
    """The stack under an ambient of index 3.6: at 60 deg, n0 sin(theta) ~ 3.12
    exceeds the index of Al(0.9)As, so a mirror leaf does not propagate."""
    return LayerStack(s.layers, s.substrate, 3.6, s.regions)


@pytest.mark.dispatch
@pytest.mark.parametrize("pol", [TE, TM])
def test_response_past_a_non_propagating_leaf_is_numpys(paper_stack, one_wavelength_calls, pol):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    steep = _steep(paper_stack)
    for lam in np.linspace(740.0, 1600.0, 44).tolist():
        stack_response(steep, lam, 60.0, pol)
    _assert_numpy_floats(one_wavelength_calls, 44)


@pytest.mark.dispatch
def test_ambient_terms_are_kept_per_angle_type(paper_stack, one_wavelength_calls):
    """Dispatch: the plain-float product must be numpy's one-element product whichever loop numpy takes."""
    # n0 sin(theta) and eta0 are kept per (n0, angle, polarization): a float32
    # angle equal to a float64 one keeps its own float32 terms, and each call
    # gives the floats numpy's one-element path gives for its own arguments
    for theta in (3.0999999046325684, np.float32(3.1), 3.0999999046325684, np.float32(3.1)):
        stack_response(paper_stack, 761.3, theta, TM)
    _assert_numpy_floats(one_wavelength_calls, 4)
    assert one_wavelength_calls[0][1] != one_wavelength_calls[1][1]


def test_one_wavelength_stack_calls_take_the_float_path(paper_stack, monkeypatch):
    # a propagating stack never reaches the array kernel at one wavelength,
    # given as a Python float, a numpy float or a 0-d array, and all three
    # give the same floats; a leaf that does not propagate does
    def kernel(*args):
        raise AssertionError("kernel taken")

    def fields(resp):
        return resp.r, resp.t, resp.reflectance, resp.transmittance

    monkeypatch.setattr(stack_mod, "_char_matrix", kernel)
    for pol in (TE, TM):
        want = fields(stack_response(paper_stack, 760.0, 3.0, pol))
        assert tuple(map(type, want)) == (complex, complex, float, float)
        for lam in (np.float64(760.0), np.array(760.0)):
            got = fields(stack_response(paper_stack, lam, 3.0, pol))
            assert got == want and tuple(map(type, got)) == tuple(map(type, want))
        stack_mod._cavity(paper_stack, 760.0, 3.0, pol, None)
    with pytest.raises(AssertionError, match="kernel taken"):
        stack_response(_steep(paper_stack), 1520.0, 60.0, TE)


def _waves_cases(s, lam0, theta, layers):
    """(stack, wavelengths, angle, slice) of the waves test: one wavelength
    and 16 across +/- 2 nm, for each slice."""
    for lams in (np.array([lam0]), np.linspace(lam0 - 2.0, lam0 + 2.0, 16)):
        for part in layers:
            yield s, lams, theta, part


@pytest.mark.dispatch
@pytest.mark.parametrize("pol", [TE, TM])
def test_waves_are_the_per_layer_loops(pol):
    """Dispatch: a layer's terms move from a (W,) row to an (L, W) array, so into another SIMD loop."""
    # every layer's cos(theta), eta, kz and phase factors in one array pass
    # give the floats of the loop that took them layer by layer: on the 20
    # drawn cavities (whole stack and core) and the edge stacks, the empty one
    # included (whole stack and all but the first layer)
    rng = np.random.default_rng(24)
    cases = []
    for s, lam0 in _draw_stacks():
        core = stack_mod._region_slice(s, "core")
        cases += _waves_cases(s, lam0, float(rng.uniform(0.0, 4.0)), (slice(0, None), core))
    for s in _EDGE_STACK_LIST:
        cases += _waves_cases(s, 1210.0, 17.0, (slice(0, None), slice(1, None)))
    assert len(cases) == 20 * 4 + 3 * 4
    for s, lams, theta, layers in cases:
        got = _waves(s, lams, theta, pol, None, layers)
        want = _oracles.waves_loop(s, lams, theta, pol, None, layers)
        assert got[0].shape == (len(s._plan.thickness[layers]), lams.size)
        for name, g, w in zip(("A", "B", "kz", "r", "t", "kz_sub"), got, want):
            assert g.shape == w.shape and np.array_equal(g, w), (name, lams.size, layers)


def test_characteristic_matrix_cascades(paper_stack):
    n0_sin = math.sin(math.radians(7.0))
    t_list = paper_stack._plan.thickness
    for lam in (np.array([1520.0]), np.array([1480.0, 1520.0, 1560.0])):
        n_list = layer_indices(paper_stack, lam)

        def matrix(part):
            m = _char_matrix(n_list[:, part], t_list[part], n0_sin, lam, TM)
            return m.T.reshape(-1, 2, 2)

        whole, top, rest = matrix(slice(None)), matrix(slice(0, 50)), matrix(slice(50, None))
        assert whole.shape == (lam.size, 2, 2)
        assert np.allclose(whole, top @ rest, rtol=1e-12, atol=1e-12)


# --- nominal structure ------------------------------------------------------


def test_paper_stack_layer_count(paper_stack):
    assert len(paper_stack.layers) == 127  # 2*18 + 2*4.5 + 2*41


def test_paper_stack_core_signs_alternate(paper_stack):
    signs = [ly.nonlinear_sign for ly in paper_stack.layers[stack_mod._region_slice(paper_stack, "core")]]
    assert len(signs) == 9
    assert signs == [1, -1, 1, -1, 1, -1, 1, -1, 1]


def test_quarter_wave_rule_thickness_ordering(paper_stack):
    top = paper_stack.layers[stack_mod._region_slice(paper_stack, "top_dbr")]
    low = {ly.thickness_nm for ly in top if ly.composition.x == 0.90}
    high = {ly.thickness_nm for ly in top if ly.composition.x == 0.35}
    assert len(low) == len(high) == 1
    assert low.pop() > high.pop()  # lower index -> thicker quarter wave


def test_quarter_wave_layer_thickness_value(paper_stack):
    (t,) = {ly.thickness_nm for ly in paper_stack.layers if ly.composition.x == 0.35}
    assert t == pytest.approx(760.0 / (4 * 3.4751169612138712), abs=1e-9)


def _nominal_config(periods=()):
    cfg = config.default_config()
    for reg, n in zip(cfg["stack"]["regions"], periods):
        reg["periods"] = n
    return cfg


def _assert_built_by_the_rules(s, cells, lam):
    """Each region repeats its cell's entries in turn, each layer of the
    thickness its rule gives: lam/(4 n), lam/(4 mean n) or the number."""
    for reg, cell in zip(s.regions, cells):
        n = [refractive_index(Composition(spec["x"]), lam) for spec in cell]
        mean = (n[0] + n[1]) / 2
        for i, layer in enumerate(s.layers[reg.start : reg.stop]):
            spec = cell[i % 2]
            rule = spec.get("thickness", "quarter-wave")
            want = {"quarter-wave": lam / (4.0 * n[i % 2]), "qpm": lam / (4.0 * mean)}
            assert layer.composition == Composition(spec["x"])
            assert layer.thickness_nm == want.get(rule, rule)
            assert layer.nonlinear_sign == spec.get("sign", 0)


def test_build_stack_repeats_each_cell_by_its_rules(monkeypatch):
    cfg = config.default_config()
    cells = [reg["cell"] for reg in cfg["stack"]["regions"]]
    calls = []
    evaluate = materials.DispersionModel.evaluate
    monkeypatch.setattr(
        materials.DispersionModel, "evaluate", lambda m, *a: calls.append(a) or evaluate(m, *a)
    )
    s = config.build_stack(cfg)
    monkeypatch.undo()
    assert len(calls) == 6  # each cell entry once at the design wavelength, not each layer
    regions = (Region("top_dbr", 0, 36), Region("core", 36, 45), Region("bottom_dbr", 45, 127))
    assert s.regions == regions
    _assert_built_by_the_rules(s, cells, 760.0)
    for drawn, lam0 in _draw_stacks():
        _assert_built_by_the_rules(drawn, cells, lam0)
    # a number rule, and a half period ending on the cell's first entry
    top = cfg["stack"]["regions"][0]
    top.update(periods=2.5, cell=[{"x": 0.9, "thickness": 123.25}, {"x": 0.35}])
    s = config.build_stack(cfg)
    assert s.regions[0] == Region("top_dbr", 0, 5) and s.layers[4].thickness_nm == 123.25
    _assert_built_by_the_rules(s, [reg["cell"] for reg in cfg["stack"]["regions"]], 760.0)


def test_a_half_period_region_checks_both_cell_entries():
    # each cell entry is built once, so the entry a 0.5-period region does not
    # repeat is checked too (a sign of 2 used to pass unread)
    cfg = _nominal_config(periods=(18, 0.5, 41))
    cfg["stack"]["regions"][1]["cell"][1]["sign"] = 2
    with pytest.raises(ConfigError, match="nonlinear_sign must be -1, 0 or \\+1, got 2"):
        config.build_stack(cfg)


def test_invalid_design_params():
    cases = {
        "zero_periods": _nominal_config(periods=(0, 4.5, 41)),
        "non_half_integer_periods": _nominal_config(periods=(18, 1.3, 41)),
        "negative_wavelength": _nominal_config(),
        "equal_cell_compositions": _nominal_config(),
        "above_gap": _nominal_config(),
        "outside_model_window": _nominal_config(),
    }
    cases["negative_wavelength"]["stack"]["design_wavelength_nm"] = -5.0
    cases["equal_cell_compositions"]["stack"]["regions"][0]["cell"][0]["x"] = 0.35
    cases["above_gap"]["stack"]["design_wavelength_nm"] = 650.0
    cases["outside_model_window"]["stack"]["design_wavelength_nm"] = 5000.0
    for cfg in cases.values():
        with pytest.raises(ConfigError):
            config.build_stack(cfg)


def test_region_invariants_enforced(paper_stack):
    good = paper_stack
    with pytest.raises(ValueError):
        LayerStack(layers=good.layers[:-1], regions=good.regions)  # uncovered tail
    bad_core = tuple(
        Layer(ly.composition, ly.thickness_nm, 1) for ly in good.layers
    )
    with pytest.raises(ValueError):
        LayerStack(layers=bad_core, regions=good.regions)  # signs not alternating


# --- fields -----------------------------------------------------------------


def test_field_profile_free_space_is_uniform():
    s = LayerStack(layers=(), substrate=None)
    prof = field_profile(s, 1520.0)
    assert np.allclose(np.abs(prof.amplitude), 1.0, atol=1e-12)


def test_field_profile_continuous_at_interfaces(paper_stack, resonance):
    prof = field_profile(paper_stack, resonance.wavelength_nm)
    dup = np.nonzero(np.diff(prof.depth_nm) == 0)[0]
    assert len(dup) >= len(paper_stack.layers)
    jumps = np.abs(prof.amplitude[dup + 1] - prof.amplitude[dup])
    assert jumps.max() < 1e-8


def test_core_intensity_enhancement_at_resonance(paper_stack, resonance):
    enhancement = core_intensity(paper_stack, resonance.wavelength_nm)
    assert enhancement > 10.0
    # regression pin for the nominal design
    assert enhancement == pytest.approx(18.6, rel=0.05)


def test_field_profile_equals_the_top_down_walk(paper_stack):
    # the waves walked up from the substrate agree with those walked down from
    # the surface field (1 + r, eta0 (1 - r)), at the same depths
    cases = ((750.0, 0.0, TE), (759.99, 0.0, TE), (1520.0, 17.0, TE), (760.3, 3.0, TM))
    for lam, theta, pol in cases:
        prof = field_profile(paper_stack, lam, theta, pol)
        depth, amp = field_profile_top_down(paper_stack, lam, theta, pol)
        assert np.array_equal(prof.depth_nm, depth)
        assert np.max(np.abs(prof.amplitude - amp)) <= 1e-11 * np.max(np.abs(amp))


def _max_intensity(s, lam, theta, pol):
    return float(np.max(np.abs(field_profile(s, lam, theta, pol).amplitude) ** 2))


@pytest.mark.parametrize("pol, theta", [(TE, 0.0), (TM, 3.0)])
def test_field_stays_bounded_in_thick_mirrors(pol, theta):
    # below the core a stop-band field decays with depth: a thicker bottom
    # mirror leaves the field above it unchanged (400 periods leak nothing a
    # double can hold) and with every region at 1000 periods the field in the
    # mirrors is the standing wave of a near-perfect reflector, |F|^2 <= 4
    thick = [
        _max_intensity(config.build_stack(_nominal_config((18, 4.5, bottom))), 761.6, theta, pol)
        for bottom in (400, 1000)
    ]
    assert thick[0] == pytest.approx(thick[1], rel=1e-9, abs=0.0) and thick[0] < 25.0
    assert _max_intensity(_tall_stack(), 760.0 if pol == TE else 761.6, theta, pol) < 5.0


def _resonant(top):
    s = config.build_stack(_nominal_config((top, 4.5, 41)))
    return s, find_resonance(s, (740.0, 780.0)).wavelength_nm


@pytest.mark.parametrize(
    "case, theta, pol",
    [
        ("nominal_1520", 17.0, TE),
        ("bottom400", 0.0, TE),
        ("bottom400", 3.0, TM),
        ("top30_resonant", 0.0, TE),
        ("top40_resonant", 0.0, TE),
        ("top60_resonant", 0.0, TE),
    ],
)
def test_net_flux_constant_through_lossless_stack(paper_stack, case, theta, pol):
    # the flux Re(conj(F) G) / Re(eta0) through every layer top of a lossless
    # stack is the transmittance, for TE and TM alike; a thick bottom mirror
    # (T ~ 1e-60) must leave no rounding behind, and a thick top mirror at its
    # resonance, where the field decays upward, keeps to rounding of the field
    if case == "nominal_1520":
        s, lam = paper_stack, 1520.0
    elif case.startswith("bottom"):
        s, lam = config.build_stack(_nominal_config((18, 4.5, 400))), 761.6
    else:
        s, lam = _resonant(int(case[3:5]))
    waves = _waves(s, np.array([lam]), theta, pol, None, slice(0, None))
    a, b, _, r, _, _ = (w[..., 0] for w in waves)
    n0_sin = math.sin(math.radians(theta))
    n = layer_indices(s, lam)
    eta = stack_mod._admittance(n, stack_mod._cos_theta(n, n0_sin), pol)
    eta0 = stack_mod._admittance(1.0, stack_mod._cos_theta(1.0, n0_sin), pol)
    f, g = a + b, eta * (a - b)
    flux = np.r_[1.0 - abs(r) ** 2, (np.conj(f) * g).real / eta0.real]  # ambient, layer tops
    transmittance = stack_response(s, lam, theta, pol).transmittance
    assert len(flux) == len(s.layers) + 1
    bound = 1e-12 if case.startswith(("nominal", "bottom")) else 4e-15 * np.max(np.abs(f) ** 2)
    assert np.max(np.abs(flux - transmittance)) <= bound


# --- resonance --------------------------------------------------------------


def test_resonance_near_design_wavelength(resonance):
    assert abs(resonance.wavelength_nm - 760.0) < 5.0
    assert resonance.finesse > 1.0
    assert resonance.fwhm_nm > 0
    assert resonance.fsr_nm > resonance.fwhm_nm


def test_mirror_transmissions_ordering(resonance):
    # 41 bottom pairs vs 18 top pairs
    assert resonance.t_down < resonance.t_up
    assert 0.0 < resonance.t_down < 0.01
    assert 0.05 < resonance.t_up < 0.5


def test_resonance_stable_under_window_widening(paper_stack, resonance):
    wider = find_resonance(paper_stack, (745.0, 775.0))
    assert wider.wavelength_nm == pytest.approx(resonance.wavelength_nm, abs=1e-3)


def test_no_resonance_in_flat_window():
    # a single DBR has no cavity dip
    mirror = config.build_stack(_nominal_config(periods=(1, 0.5, 20)))
    with pytest.raises((NoResonanceInWindow, MultipleResonances)):
        find_resonance(mirror, (755.0, 765.0))


def _series(rng, n):
    kind = rng.integers(3)
    if kind == 0:  # small alphabet: long plateaus, flat minima at the ends
        return rng.integers(0, 5, n).astype(float)
    if kind == 1:  # smooth random walk rounded to a coarse grid: plateaus on slopes
        return np.round(np.cumsum(rng.normal(size=n)), 1)
    return rng.normal(size=n)


@pytest.mark.parametrize("seed", range(40))
def test_prominent_minima_match_find_peaks(seed):
    rng = np.random.default_rng(seed)
    y = _series(rng, int(rng.integers(0, 80)))
    for prominence in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0):
        expected = find_peaks(-y, prominence=prominence)[0]
        assert _prominent_minima(y, prominence).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "y, minima",
    [
        ([0.0, 1.0, 0.0], []),  # the ends are never minima
        ([1.0, 0.0, 0.0, 0.0, 1.0], [2]),  # odd plateau: its middle sample
        ([1.0, 0.0, 0.0, 1.0], [1]),  # even plateau: the left middle sample
        ([2.0, 0.0, 0.0, 0.0], []),  # plateau running into the end
        ([3.0, 1.0, 2.0, 0.5, 3.0], [1, 3]),
    ],
)
def test_prominent_minima_hand_cases(y, minima):
    assert _prominent_minima(np.array(y), 0.0).tolist() == minima
    assert find_peaks(-np.array(y), prominence=0.0)[0].tolist() == minima


def test_multiple_resonances_detected(paper_stack):
    # widening into the stopband edges brings the band-edge dips into view
    with pytest.raises(MultipleResonances):
        find_resonance(paper_stack, (728.0, 815.0))


@pytest.fixture(scope="module")
def drawn_stacks():
    return _draw_stacks()


# the nominal device in every (polarization, angle), then each drawn design in
# one of them, cycling through all four
_SEARCHES = [
    pytest.param("nominal", pol, theta, id=f"{pol}-{theta}")
    for pol in (TE, TM)
    for theta in (0.0, 3.0)
]
_SEARCHES += [(f"draw{k}", (TE, TM)[k % 2], (0.0, 3.0)[k // 2 % 2]) for k in range(20)]


@pytest.mark.dispatch
@pytest.mark.parametrize("design, pol, theta", _SEARCHES)
def test_resonance_equals_the_scalar_search(
    paper_stack, drawn_stacks, design, pol, theta, monkeypatch
):
    """Dispatch: the batched walk and the scalar oracle must find the same floats on either SIMD path."""
    # the half-maximum walk and both Brent crossings run as array calls, and
    # give every field the scalar search gives, to the bit; every wavelength
    # the scalar search evaluates is evaluated, the same float
    if design == "nominal":
        s, window = paper_stack, (740.0, 780.0)
    else:
        s, lam0 = drawn_stacks[int(design[4:])]
        window = (lam0 - 20.0, lam0 + 20.0)
    asked, asked_by_oracle = [], []
    real, real_oracle = stack_mod.core_intensity, _oracles.core_intensity_scalar

    def recorded(s, wavelength, *args):
        asked.extend(np.ravel(wavelength).tolist())
        return real(s, wavelength, *args)

    def recorded_oracle(s, wavelength, *args):
        asked_by_oracle.append(wavelength)
        return real_oracle(s, wavelength, *args)

    monkeypatch.setattr(stack_mod, "core_intensity", recorded)
    monkeypatch.setattr(_oracles, "core_intensity_scalar", recorded_oracle)
    mine = find_resonance(s, window, theta, pol)
    assert mine == resonance_scalar(s, window, theta, pol)
    # the nominal searches ask for 41 or more wavelengths, a drawn design 32-38
    least = 40 if design == "nominal" else 30
    assert set(asked_by_oracle) <= set(asked) and len(asked_by_oracle) > least


def test_resonance_walk_stops_where_the_scalar_walk_stops(paper_stack, resonance, monkeypatch):
    # an index model that ends just past the first walk point below half
    # maximum: the chunk that reaches beyond fails, and walking it point by
    # point gives the same result without evaluating past that point
    half = core_intensity(paper_stack, resonance.wavelength_nm) / 2.0
    k = 1
    while core_intensity(paper_stack, resonance.wavelength_nm + 0.1 * k) > half:
        k += 1
    limit, refused = resonance.wavelength_nm + 0.1 * k + 0.05, []
    real = stack_mod.core_intensity

    def ending(s, wavelength, *args):
        if np.any(np.asarray(wavelength) > limit):
            refused.append(wavelength)
            raise OutOfValidityWindow(f"no index beyond {limit} nm")
        return real(s, wavelength, *args)

    monkeypatch.setattr(stack_mod, "core_intensity", ending)
    assert find_resonance(paper_stack, (740.0, 780.0)) == resonance
    assert refused and all(np.ndim(lam) for lam in refused)


def test_core_intensity_over_an_array_is_one_wavelength_at_a_time(paper_stack):
    # an array call gives each wavelength's own one-wavelength value, to the
    # bit; the scalar oracle, which multiplies positionally and walks
    # one-wavelength arrays, is held to a few units in the last place
    lams = np.concatenate((np.linspace(755.0, 768.0, 37), [761.6058240589]))
    got = core_intensity(paper_stack, lams, 3.0, TM)
    one = [core_intensity(paper_stack, lam, 3.0, TM) for lam in lams.tolist()]
    assert got.shape == lams.shape and np.array_equal(got, one)
    assert all(type(x) is float for x in one)
    want = [core_intensity_scalar(paper_stack, lam, 3.0, TM) for lam in lams.tolist()]
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


# --- argument rules (errors.require) -----------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda s: stack_response(s, 760.0, 0.0, "te"),
        lambda s: stack_response(s, np.array([750.0, 760.0]), 0.0, "x"),
        lambda s: field_profile(s, 760.0, pol="te"),
        lambda s: core_intensity(s, 760.0, pol="tm"),
        lambda s: find_resonance(s, (740.0, 780.0), pol="te"),
    ],
    ids=["response", "response_array", "field_profile", "core_intensity", "resonance"],
)
def test_a_polarization_other_than_te_or_tm_is_refused(paper_stack, call):
    # any string but "TE" used to select the TM admittance
    with pytest.raises(ValueError, match=r'^polarization must be "TE" or "TM", got '):
        call(paper_stack)


@pytest.mark.parametrize("theta", [90.0, -90.0, 95.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [stack_response, field_profile, core_intensity])
def test_an_angle_at_or_beyond_grazing_is_refused(paper_stack, call, theta):
    # 95 deg used to give R = 0.993 and 90 deg R = 1 - 2e-16
    with pytest.raises(ValueError, match=f"^incidence angle must be .*, got {theta}$"):
        call(paper_stack, 760.0, theta)


def test_a_nan_wavelength_is_outside_the_dispersion_window(paper_stack):
    # NaN used to pass the window and give R = T = nan
    for lam in (math.nan, np.array([760.0, math.nan])):
        with pytest.raises(OutOfValidityWindow, match="wavelength"):
            stack_response(paper_stack, lam)


@pytest.mark.parametrize("thickness", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_layer_thickness_must_be_finite_and_positive(thickness):
    rule = "a finite number > 0"
    with pytest.raises(ValueError, match=f"^layer thickness must be {rule}, got {thickness}$"):
        Layer(Composition(0.3), thickness)


@pytest.mark.parametrize("index", [math.nan, math.inf, 0.5])
def test_ambient_index_must_be_finite_and_at_least_one(index):
    with pytest.raises(ValueError, match=f"^ambient index must be .*, got {index}$"):
        LayerStack(layers=(), substrate=None, ambient_index=index)


def test_ambient_index_is_at_most_ten():
    # at 1e300 the response's |denominator|^2 overflowed and T read 0
    assert LayerStack(layers=(), substrate=None, ambient_index=10).ambient_index == 10
    with pytest.raises(ValueError, match="^ambient index must be a finite number from 1 to 10"):
        LayerStack(layers=(), substrate=None, ambient_index=1e300)


@pytest.mark.parametrize(
    "window",
    [(740.0, math.inf), (740.0, math.nan), (780.0, 740.0), (760.0, 760.0), (740.0,)],
    ids=["inf", "nan", "reversed", "empty", "one_end"],
)
def test_resonance_window_must_be_two_finite_wavelengths(paper_stack, window):
    # (740, inf) used to fail in numpy's arange: "Maximum allowed size exceeded"
    with pytest.raises(ValueError, match=r"^wavelength window must be two finite wavelengths"):
        find_resonance(paper_stack, window)
