import math

import numpy as np
import pytest

from _oracles import carry_loop, planar_modes_topdown, slab_modes
from test_stack import _draw_stacks
from twinsource import modes
from twinsource.errors import NoGuidedMode, NonGuidingStack, OutOfValidityWindow
from twinsource.layers import TE, TM, Layer, LayerStack
from twinsource.materials import Composition, refractive_index
from twinsource.modes import (
    EffectiveIndexTable,
    birefringence,
    guided_modes,
    solve_planar,
)
from twinsource.stack import _region_slice

# regression pins from the nominal structure (engine-derived, frozen)
PIN_NEFF_TE_1520 = 3.131277
PIN_NEFF_TM_1520 = 3.116907
PIN_BIREFRINGENCE_1520 = 0.014371


@pytest.mark.parametrize("pol", [TE, TM])
def test_symmetric_slab_against_analytic_oracle(pol):
    n_core, n_clad, t, lam = 3.30, 3.16, 900.0, 1520.0
    oracle = slab_modes(n_clad, n_core, n_clad, t, lam, pol)
    mine = solve_planar(n_clad, [(n_core, t)], n_clad, lam, pol)
    assert len(mine) == len(oracle)
    for a, b in zip(mine, oracle):
        assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("pol", [TE, TM])
def test_asymmetric_slab_against_analytic_oracle(pol):
    oracle = slab_modes(1.0, 2.2, 1.444, 1400.0, 1310.0, pol)
    mine = solve_planar(1.0, [(2.2, 1400.0)], 1.444, 1310.0, pol)
    assert len(mine) == len(oracle)
    for a, b in zip(mine, oracle):
        assert a == pytest.approx(b, abs=1e-8)


def test_no_confinement_when_cladding_equals_core():
    with pytest.raises(NoGuidedMode):
        solve_planar(3.2, [(3.2, 800.0)], 3.2, 1520.0, TE)


def test_reported_roots_satisfy_dispersion_relation(paper_stack):
    n_top, layers, n_bot = next(modes._planar_profiles(paper_stack, 1520.0, None))
    for pol in (TE, TM):
        residual = modes._MatchedResidual(n_top, layers, n_bot, 1520.0, pol)
        for mode in guided_modes(paper_stack, 1520.0, pol, max_modes=2):
            below, above = residual(np.array([mode.n_eff - 1e-9, mode.n_eff + 1e-9]))
            assert (below < 0) != (above < 0)  # root pinched to 1e-9


def test_paper_stack_fundamentals(paper_stack):
    te = guided_modes(paper_stack, 1520.0, TE, max_modes=1)[0]
    tm = guided_modes(paper_stack, 1520.0, TM, max_modes=1)[0]
    assert te.n_eff != tm.n_eff  # modal birefringence
    assert te.n_eff == pytest.approx(PIN_NEFF_TE_1520, abs=2e-5)
    assert tm.n_eff == pytest.approx(PIN_NEFF_TM_1520, abs=2e-5)
    assert te.order == 0


def test_modes_sorted_descending(paper_stack):
    ms = guided_modes(paper_stack, 1520.0, TE, max_modes=4)
    vals = [m.n_eff for m in ms]
    assert vals == sorted(vals, reverse=True)
    assert [m.order for m in ms] == [0, 1, 2, 3]


def test_birefringence_pinned(paper_stack):
    dn = birefringence(paper_stack, 1520.0)
    # the sign matters: TE above TM sets which interaction has the positive
    # degeneracy angle
    assert dn == pytest.approx(PIN_BIREFRINGENCE_1520, abs=2e-5)
    assert 1e-4 < abs(dn) < 2e-2


def test_birefringence_varies_smoothly(paper_stack):
    d1 = birefringence(paper_stack, 1510.0)
    d2 = birefringence(paper_stack, 1530.0)
    assert abs(d2 - d1) < 0.1 * abs(d1)


def test_thick_symmetric_slab_loses_birefringence():
    # bulk limit: TE/TM fundamentals converge as the core swallows the mode
    lam = 1520.0
    gaps = []
    for t in (600.0, 2400.0):
        te = solve_planar(3.16, [(3.30, t)], 3.16, lam, TE)[0]
        tm = solve_planar(3.16, [(3.30, t)], 3.16, lam, TM)[0]
        gaps.append(abs(te - tm))
    assert gaps[1] < gaps[0] / 10


def test_group_index_exceeds_effective_index(paper_stack):
    for pol in (TE, TM):
        ng = EffectiveIndexTable(paper_stack, pol, 1505.0, 1535.0).n_group(1520.0)
        neff = guided_modes(paper_stack, 1520.0, pol, max_modes=1)[0].n_eff
        assert ng > neff
        assert 3.0 < ng < 4.0  # nominal-structure pin


def test_mode_count_non_increasing_with_wavelength():
    counts = []
    for lam in (1300.0, 1400.0, 1500.0, 1600.0):
        counts.append(len(solve_planar(3.0, [(3.45, 2500.0)], 3.0, lam, TE)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > 1  # the test structure is multimode at the short end


def test_substrate_policy_literal_vs_auto(paper_stack):
    # the literal GaAs substrate outruns every layer index at telecom, so the
    # strict structure cannot guide; the stack-level profile swaps in the
    # bottom mirror's low index, and that profile guides
    n_top, layers, n_bot = next(modes._planar_profiles(paper_stack, 1520.0, None))
    substrate = refractive_index(paper_stack.substrate, 1520.0)
    assert substrate > max(n for n, _ in layers)
    with pytest.raises(NonGuidingStack):
        solve_planar(n_top, layers, substrate, 1520.0, TE)
    mirror = paper_stack.layers[_region_slice(paper_stack, "bottom_dbr")]
    assert n_bot == min(refractive_index(ly.composition, 1520.0) for ly in mirror)
    assert solve_planar(n_top, layers, n_bot, 1520.0, TE, max_modes=1)


def test_effective_index_table_matches_direct_solves(paper_stack):
    table = EffectiveIndexTable(paper_stack, TE, 1490.0, 1550.0)
    for lam in (1497.3, 1511.1, 1533.7):
        direct = guided_modes(paper_stack, lam, TE, max_modes=1)[0].n_eff
        assert abs(table(lam) - direct) < 1e-9
    with pytest.raises(ValueError):
        table(1300.0)


def test_effective_index_table_group_index(paper_stack):
    # the spline's slope against a central difference of direct solves
    table = EffectiveIndexTable(paper_stack, TE, 1505.0, 1535.0)
    lo, mid, hi = (
        guided_modes(paper_stack, lam, TE, max_modes=1)[0].n_eff for lam in (1519.9, 1520.0, 1520.1)
    )
    direct = mid - 1520.0 * (hi - lo) / 0.2
    assert table.n_group(1520.0) == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("pol", [TE, TM])
def test_table_knots_match_topdown_oracle(paper_stack, pol):
    # every fifth knot over 1330-1710 nm, each solved by the single top-down
    # sweep and bisection from the previous root's window, as tables were
    table = EffectiveIndexTable(paper_stack, pol, 1330.0, 1710.0)
    lams = table.knots_nm[::5]
    index = {
        ly.composition: refractive_index(ly.composition, lams) for ly in paper_stack.layers
    }
    prev, worst = None, 0.0
    for i, lam in enumerate(lams):
        layers = [(index[ly.composition][i], ly.thickness_nm) for ly in paper_stack.layers]
        # the GaAs substrate outruns every layer index: the auto policy puts
        # the bottom mirror's low index below the stack instead
        mirror = paper_stack.layers[_region_slice(paper_stack, "bottom_dbr")]
        clad = min(index[ly.composition][i] for ly in mirror)
        window = (prev - 0.02, prev + 0.02) if prev is not None else None
        prev = planar_modes_topdown(1.0, layers, clad, lam, pol, max_modes=1, window=window)[0]
        worst = max(worst, abs(table(lam) - prev))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "n_top, layers, n_bot, lam",
    [
        (3.16, [(3.30, 900.0)], 3.16, 1520.0),
        (1.0, [(2.2, 1400.0)], 1.444, 1310.0),
        (3.16, [(3.30, 2400.0)], 3.16, 1520.0),
        (3.0, [(3.45, 2500.0)], 3.0, 1300.0),
        (1.0, [(3.2, 300.0), (3.45, 500.0), (3.1, 700.0)], 3.0, 1450.0),
    ],
    ids=["symmetric", "asymmetric", "thick", "multimode", "three_layer"],
)
@pytest.mark.parametrize("pol", [TE, TM])
def test_slab_roots_match_topdown_oracle(n_top, layers, n_bot, lam, pol):
    mine = solve_planar(n_top, layers, n_bot, lam, pol)
    oracle = planar_modes_topdown(n_top, layers, n_bot, lam, pol)
    assert len(mine) == len(oracle)
    assert max(abs(a - b) for a, b in zip(mine, oracle)) <= 1e-12


@pytest.mark.parametrize("periods", [18, 41])
@pytest.mark.parametrize("pol", [TE, TM])
def test_periodic_run_matches_layer_by_layer(periods, pol):
    # a 760 nm quarter-wave mirror carried at 1520 nm, downward and upward,
    # from n_eff where both layers propagate to where both are evanescent
    lam, k0 = 1520.0, 2.0 * math.pi / 1520.0
    neff = np.linspace(2.5, 3.4, 181)
    for sign in (1.0, -1.0):
        cell = [(3.0, sign * 63.0), (3.2, sign * 59.0)]
        runs = modes._runs(cell * periods)
        assert runs == [(cell, periods)]
        n = np.array([[3.0], [3.2]])
        m = 1.0 if pol == TE else n * n
        factors = modes._layer_factors(n, np.array([[cell[0][1]], [cell[1][1]]]), m, neff**2, k0)
        f, g = modes._carry([([0, 1], periods)], *factors, np.ones_like(neff), 0.01 * neff)
        for i, x in enumerate(neff):
            f0, g0 = carry_loop(cell * periods, lam, pol, x, 1.0, 0.01 * x)
            scale = math.hypot(f0, g0)
            assert f[i] == pytest.approx(f0 / scale, abs=1e-11)
            assert g[i] == pytest.approx(g0 / scale, abs=1e-11)


def test_roots_do_not_depend_on_the_search_window(paper_stack):
    n_top, layers, n_bot = next(modes._planar_profiles(paper_stack, 1520.0, None))
    full = solve_planar(n_top, layers, n_bot, 1520.0, TE, max_modes=1)[0]
    for lo, hi in ((full - 0.02, full + 0.02), (full - 0.0123, full + 0.0071)):
        assert solve_planar(n_top, layers, n_bot, 1520.0, TE, max_modes=1, window=(lo, hi)) == [full]


def test_table_knots_sit_on_step_multiples(paper_stack):
    table = EffectiveIndexTable(paper_stack, TE, 1501.3, 1519.1)
    assert table.knots_nm[0] == 1500.0 and table.knots_nm[-1] == 1520.0
    assert np.array_equal(table.knots_nm, 2.0 * np.arange(750, 761))
    grown = EffectiveIndexTable(paper_stack, TE, 1505.0, 1511.0)
    grown.extend(1501.3, 1519.1)
    assert np.array_equal(grown.knots_nm, table.knots_nm)
    assert np.array_equal(grown.knot_n_eff, table.knot_n_eff)


def _chained_knots(stack, pol, lams):
    """Each knot solved on its own by ``solve_planar``, from the window
    around the root below it (the full window for the first), as a table
    once solved its knots one by one."""
    prev, out = None, []
    for lam, (n_top, layers, n_bot) in zip(lams, modes._planar_profiles(stack, lams, None)):
        window = None if prev is None else (prev - 0.02, prev + 0.02)
        try:
            prev = solve_planar(n_top, layers, n_bot, lam, pol, max_modes=1, window=window)[0]
        except NoGuidedMode:
            prev = solve_planar(n_top, layers, n_bot, lam, pol, max_modes=1)[0]
        out.append(prev)
    return np.array(out)


@pytest.mark.dispatch
@pytest.mark.parametrize("pol", [TE, TM])
def test_knot_roots_do_not_depend_on_their_batch(paper_stack, pol):
    """Dispatch: a batch's length decides which knots a SIMD main or remainder loop solves."""
    # the same knot solved in batches of 191, 31 and 10 + 181 (a table grown
    # both ways) gives the same float, and that float is the per-knot solve's
    wide = EffectiveIndexTable(paper_stack, pol, 1330.0, 1710.0)
    narrow = EffectiveIndexTable(paper_stack, pol, 1500.0, 1560.0)
    grown = EffectiveIndexTable(paper_stack, pol, 1500.0, 1520.0)
    grown.extend(1330.0, 1710.0)
    assert np.array_equal(grown.knots_nm, wide.knots_nm)
    assert np.array_equal(grown.knot_n_eff, wide.knot_n_eff)
    overlap = np.isin(wide.knots_nm, narrow.knots_nm)
    assert overlap.sum() == narrow.knots_nm.size == 31
    assert np.array_equal(wide.knot_n_eff[overlap], narrow.knot_n_eff)
    assert np.array_equal(wide.knot_n_eff, _chained_knots(paper_stack, pol, wide.knots_nm))
    assert np.array_equal(narrow.knot_n_eff, _chained_knots(paper_stack, pol, narrow.knots_nm))


def test_table_falls_back_to_per_knot_solves(paper_stack, monkeypatch):
    # a prediction 100 grid steps above every root leaves no sign change in
    # the narrow scans, so every knot takes the chained scan at its knot of
    # the table's residual and lands on the same floats
    want = EffectiveIndexTable(paper_stack, TE, 1500.0, 1560.0).knot_n_eff
    real_interp, real_scan, knots, residuals = np.interp, modes._roots_on_grid, [], set()
    monkeypatch.setattr(np, "interp", lambda *args: real_interp(*args) + 0.01)

    def counted(residual, lo, hi, max_modes, knot=None):
        knots.append(knot)
        residuals.add(id(residual))
        return real_scan(residual, lo, hi, max_modes, knot)

    monkeypatch.setattr(modes, "_roots_on_grid", counted)
    assert np.array_equal(EffectiveIndexTable(paper_stack, TE, 1500.0, 1560.0).knot_n_eff, want)
    assert knots == [0, 30, *range(31)]  # two anchors, then every knot on its own
    assert len(residuals) == 1  # all on the table's one residual


@pytest.mark.parametrize("pol", [TE, TM])
def test_knots_without_a_shared_run_structure_take_their_own_residuals(
    paper_stack, pol, monkeypatch
):
    # a table whose residual is flagged not uniform searches each knot on a
    # one-knot residual built from its own column, and lands on the floats
    # of solve_planar's per-knot solves
    lams = 2.0 * np.arange(750, 781)
    want = _chained_knots(paper_stack, pol, lams)
    sizes = []

    class Split(modes._MatchedResidual):
        def __init__(self, *args):
            super().__init__(*args)
            sizes.append(np.size(args[3]))
            self.uniform = False

    monkeypatch.setattr(modes, "_MatchedResidual", Split)
    table = EffectiveIndexTable(paper_stack, pol, 1500.0, 1560.0)
    assert np.array_equal(table.knots_nm, lams)
    assert np.array_equal(table.knot_n_eff, want)
    assert sizes == [31] + [1] * 31  # the batch, then one residual per knot


@pytest.mark.dispatch
def test_drawn_designs_table_knots_are_the_per_knot_solves():
    """Dispatch: a batch's length decides which knots a SIMD main or remainder loop solves."""
    # 20 cavity-scan designs (16-20 top, 39-43 bottom periods, 755-765 nm)
    for s, _ in _draw_stacks():
        for pol in (TE, TM):
            table = EffectiveIndexTable(s, pol, 1500.0, 1560.0)
            assert np.array_equal(table.knot_n_eff, _chained_knots(s, pol, table.knots_nm))


@pytest.mark.dispatch
@pytest.mark.parametrize("lam", [1330.0, 1520.0, 1710.0])
@pytest.mark.parametrize("pol", [TE, TM])
def test_max_modes_gives_the_highest_roots_of_the_full_search(paper_stack, pol, lam, monkeypatch):
    """Dispatch: the early stop scans fewer grid blocks and polishes fewer brackets together."""
    n_top, layers, n_bot = next(modes._planar_profiles(paper_stack, lam, None))
    points, real_call = [], modes._MatchedResidual.__call__

    def counted(self, neff, knots=None):
        points.append(np.size(neff))
        return real_call(self, neff, knots)

    monkeypatch.setattr(modes._MatchedResidual, "__call__", counted)
    full = solve_planar(n_top, layers, n_bot, lam, pol)
    assert len(full) > 4
    evaluated = sum(points)
    for k in (1, 2, 4):
        points.clear()
        assert solve_planar(n_top, layers, n_bot, lam, pol, max_modes=k) == full[:k]
        if k == 1:  # no grid block below the fundamental's is scanned
            assert sum(points) < evaluated


def test_a_prediction_on_the_next_mode_is_caught(paper_stack, monkeypatch):
    # predictions on the first-order mode: every narrow scan brackets that
    # mode, the sign at the top of the first knot's window shows the
    # fundamental above it, and each knot then follows its true neighbour
    want = EffectiveIndexTable(paper_stack, TE, 1500.0, 1560.0)
    lams = want.knots_nm
    second = [
        solve_planar(n_top, layers, n_bot, lam, TE, max_modes=2)[1]
        for lam, (n_top, layers, n_bot) in zip(lams, modes._planar_profiles(paper_stack, lams, None))
    ]
    monkeypatch.setattr(np, "interp", lambda *args: np.array(second))
    got = EffectiveIndexTable(paper_stack, TE, 1500.0, 1560.0)
    assert np.array_equal(got.knot_n_eff, want.knot_n_eff)


def test_knots_without_a_shared_run_structure_are_flagged():
    # one layer list at two wavelengths: a structure found from both knots
    # is each knot's own unless two different layers meet in index at one
    # knot only, or the highest-index layer changes
    def uniform(first, second):
        layers = [(first, 100.0), (second, 200.0), (np.array([3.0, 3.0]), 50.0)]
        return modes._MatchedResidual(1.0, layers, 1.0, np.array([1500.0, 1510.0]), TE).uniform

    assert uniform(np.array([3.2, 3.3]), np.array([3.1, 3.2]))
    assert not uniform(np.array([3.2, 3.3]), np.array([3.2, 3.1]))  # equal at one knot
    assert not uniform(np.array([3.2, 3.1]), np.array([3.1, 3.3]))  # the top layer moves
    assert modes._MatchedResidual(1.0, [(3.2, 100.0), (3.2, 50.0)], 1.0, 1500.0, TE).uniform


# --- argument rules (errors.require) -----------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda s: guided_modes(s, 1520.0, "x"),
        lambda s: guided_modes(s, 1520.0, "te"),
        lambda s: EffectiveIndexTable(s, "te", 1500.0, 1520.0),
        lambda s: solve_planar(3.16, [(3.30, 900.0)], 3.16, 1520.0, pol="x"),
    ],
    ids=["guided_modes", "guided_modes_lower_case", "table", "solve_planar"],
)
def test_a_polarization_other_than_te_or_tm_is_refused(paper_stack, call):
    # any string but "TE" used to solve the TM modes, labelled with that string
    with pytest.raises(ValueError, match=r'^polarization must be "TE" or "TM", got '):
        call(paper_stack)


@pytest.mark.parametrize("wavelength", [math.nan, math.inf, 0.0, -1520.0])
def test_solve_planar_names_a_wavelength_that_is_not_finite_and_positive(wavelength):
    # each used to answer NoGuidedMode "no TE guided mode in n_eff window ..."
    with pytest.raises(ValueError, match=f"^wavelength must be .*, got {wavelength}$"):
        solve_planar(3.16, [(3.30, 900.0)], 3.16, wavelength)


@pytest.mark.parametrize(
    "layers, name, value",
    [
        ([(3.30, math.nan)], "thickness of layer 0", "nan"),
        ([(3.30, -900.0)], "thickness of layer 0", "-900.0"),
        ([(3.30, math.inf)], "thickness of layer 0", "inf"),
        ([(3.30, 900.0), (math.nan, 900.0)], "index of layer 1", "nan"),
    ],
    ids=["nan_thickness", "negative_thickness", "inf_thickness", "nan_index"],
)
def test_solve_planar_names_a_layer_that_is_not_finite_and_positive(layers, name, value):
    # the thicknesses used to answer NoGuidedMode "no TE guided mode in n_eff
    # window (3.160001, 3.299999)", inf after a RuntimeWarning, and a NaN index
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got {value}$"):
        solve_planar(3.16, layers, 3.16, 1520.0)


@pytest.mark.parametrize("side", ["top", "bottom"])
def test_solve_planar_names_an_outer_index_that_is_not_finite_and_positive(side):
    for bad in (math.nan, -3.16):
        outer = {"n_top": 3.16, "n_bottom": 3.16} | {f"n_{side}": bad}
        with pytest.raises(ValueError, match=f"^{side} index must be .*, got {bad}$"):
            solve_planar(layers=[(3.30, 900.0)], wavelength=1520.0, **outer)


def test_a_nan_wavelength_is_named(paper_stack):
    # both used to fail with "cannot convert float NaN to integer"
    with pytest.raises(OutOfValidityWindow, match=r"^wavelength (nan\.\.)?nan nm outside"):
        guided_modes(paper_stack, math.nan)
    for lo, hi in ((math.nan, 1600.0), (1500.0, math.inf), (1600.0, 1500.0)):
        with pytest.raises(ValueError, match=r"^wavelength range must be .*, got \("):
            EffectiveIndexTable(paper_stack, TE, lo, hi)


def test_a_stack_without_layers_guides_nothing():
    with pytest.raises(NonGuidingStack, match="^stack has no layers$"):
        guided_modes(LayerStack([]), 1520.0)


@pytest.mark.parametrize("pol", [TE, TM])
def test_a_free_standing_slab_is_the_analytic_slab(pol):
    # substrate=None continues the ambient medium below the layers
    core, t, lam = Composition(0.3), 600.0, 1520.0
    s = LayerStack([Layer(core, t, 0)], substrate=None)
    oracle = slab_modes(1.0, refractive_index(core, lam), 1.0, t, lam, pol)
    mine = [m.n_eff for m in guided_modes(s, lam, pol)]
    assert len(mine) == len(oracle) > 1
    for a, b in zip(mine, oracle):
        assert a == pytest.approx(b, abs=1e-8)
