import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from _oracles import response_loop
from twinsource import config, materials
from twinsource.errors import (
    AboveBandgap,
    ConfigError,
    MultipleResonances,
    NoResonanceInWindow,
)
from twinsource.materials import Composition, refractive_index
from twinsource.stack import (
    TE,
    TM,
    _BLOCK,
    Layer,
    LayerStack,
    _prominent_minima,
    characteristic_matrix,
    core_intensity,
    field_profile,
    find_resonance,
    layer_amplitudes,
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
        _GAAS_GAP_NM + 0.1, _GAAS_GAP_NM / materials.DEFAULT_MODEL.near_gap_margin - 0.1, 9
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


@pytest.mark.parametrize(
    "s",
    [
        LayerStack(layers=(Layer(Composition(0.3), 120.0), Layer(Composition(0.7), 95.0)), substrate=None),
        LayerStack(layers=(), substrate=Composition(0.0)),
        LayerStack(layers=(), substrate=None),
    ],
    ids=["free_standing", "bare_substrate", "empty"],
)
@pytest.mark.parametrize("pol", [TE, TM])
def test_batched_response_edge_stacks(s, pol):
    lams = np.linspace(740.0, 1600.0, 23)
    batch = stack_response(s, lams, 17.0, pol)
    oracle = _oracle_sweep(s, lams, 17.0, pol)
    assert np.max(np.abs(batch.reflectance - oracle[0])) <= 1e-12
    assert np.max(np.abs(batch.transmittance - oracle[1])) <= 1e-12
    for lam, r in zip(lams, batch.reflectance):
        assert abs(stack_response(s, float(lam), 17.0, pol).reflectance - r) <= 1e-12


def test_batched_response_past_one_kernel_block(paper_stack):
    lams = np.linspace(1500.0, 1540.0, 2 * _BLOCK + 100)
    batch = stack_response(paper_stack, lams, 5.0, TM)
    for i in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK, len(lams) - 1):
        resp = stack_response(paper_stack, float(lams[i]), 5.0, TM)
        assert batch.r[i] == pytest.approx(resp.r, abs=1e-12)
        assert batch.transmittance[i] == pytest.approx(resp.transmittance, abs=1e-12)


def test_characteristic_matrix_cascades(paper_stack):
    for lam in (1520.0, np.array([1480.0, 1520.0, 1560.0])):
        whole = characteristic_matrix(paper_stack, lam, 7.0, TM)
        top = characteristic_matrix(paper_stack, lam, 7.0, TM, layer_slice=slice(0, 50))
        rest = characteristic_matrix(paper_stack, lam, 7.0, TM, layer_slice=slice(50, None))
        assert whole.shape == np.shape(lam) + (2, 2)
        assert np.allclose(whole, top @ rest, rtol=1e-12, atol=1e-12)


# --- nominal structure ------------------------------------------------------


def test_paper_stack_layer_count(paper_stack):
    assert len(paper_stack.layers) == 127  # 2*18 + 2*4.5 + 2*41


def test_paper_stack_core_signs_alternate(paper_stack):
    signs = [ly.nonlinear_sign for ly in paper_stack.region_layers("core")]
    assert len(signs) == 9
    assert signs == [1, -1, 1, -1, 1, -1, 1, -1, 1]


def test_quarter_wave_rule_thickness_ordering(paper_stack):
    top = paper_stack.region_layers("top_dbr")
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


def test_net_flux_constant_through_lossless_stack(paper_stack):
    amps = layer_amplitudes(paper_stack, 1520.0, 17.0, TE)
    fluxes = [(eta.real * (abs(a) ** 2 - abs(b) ** 2)) for a, b, _, eta in amps]
    assert np.allclose(fluxes, fluxes[0], rtol=1e-9, atol=1e-12)


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
