import math

import numpy as np
import pytest

from _oracles import solve_pair_through_delta_k
from twinsource import phasematch
from twinsource.errors import NoSolutionInWindow, OutOfValidityWindow
from twinsource.layers import TE, TM
from twinsource.modes import EffectiveIndexTable
from twinsource.phasematch import (
    INTERACTION_1,
    INTERACTION_2,
    Interaction,
    SEARCH_HALF_WINDOW_NM,
    PhaseMatcher,
    conjugate_wavelength,
    interaction,
)

# frozen peak positions for theta = 3.1 deg, lambda_p = 759.5 nm (engine run)
PIN_FOUR_PEAKS = (1490.824, 1497.339, 1541.297, 1548.261)
PIN_DEGENERACY_DEG = 0.4117


def test_interaction_polarity_assignments():
    assert INTERACTION_1.copropagating_pol == TE
    assert INTERACTION_1.counterpropagating_pol == TM
    assert INTERACTION_2.copropagating_pol == TM
    assert interaction(1) is INTERACTION_1
    with pytest.raises(ValueError):
        interaction(3)
    with pytest.raises(ValueError):
        Interaction(1, TM, TE)


def test_conjugate_wavelength_roundtrip():
    lam_i = conjugate_wavelength(760.0, 1497.0)
    assert 1.0 / 1497.0 + 1.0 / lam_i == pytest.approx(1.0 / 760.0, rel=1e-15)
    with pytest.raises(ValueError):
        conjugate_wavelength(760.0, 700.0)


@pytest.mark.parametrize(
    "signal",
    [-5.0, 0.0, math.nan, np.float64(-5.0), np.array(math.nan), np.array([1497.0, -5.0]),
     np.array([math.nan, 1497.0])],
    ids=["negative", "zero", "nan", "numpy_negative", "0d_nan", "array_negative", "array_nan"],
)
def test_conjugate_wavelength_refuses_a_signal_that_is_not_positive(signal):
    with pytest.raises(ValueError, match="not positive"):
        conjugate_wavelength(760.0, signal)


@pytest.mark.dispatch
def test_tuning_curve_is_the_per_point_solve_through_delta_k(box_matcher, pair_draws):
    """Dispatch: the tuning points and the per-point oracle must agree on either SIMD path."""
    # solve_pair's Brent function reads the two reserved tables directly;
    # every point must be the one a solve through delta_k finds
    angles = np.linspace(-1.0, 4.0, 21)
    for _, lambda_p in pair_draws:
        points, failures = box_matcher.tuning_curve(angles, lambda_p)
        assert not failures
        want = [
            solve_pair_through_delta_k(box_matcher, float(theta), lambda_p, inter)
            for inter in (INTERACTION_1, INTERACTION_2)
            for theta in angles
        ]
        assert [(p.lambda_s_nm, p.lambda_i_nm, p.n_s, p.n_i) for p in points] == want


def test_zero_birefringence_degenerates_at_normal_incidence(matcher, paper_stack):
    # force n_s == n_i by giving both polarizations the same index table
    forced = PhaseMatcher(paper_stack)
    forced._ensure(TE, 1370.0, 1710.0)
    forced._tables[TM] = forced._tables[TE]
    assert forced.degeneracy_angle(INTERACTION_1, 760.0) == 0.0
    p = forced.solve_pair(0.0, 760.0, INTERACTION_1)
    assert p.lambda_s_nm == pytest.approx(2.0 * 760.0, abs=1e-6)
    assert p.lambda_i_nm == pytest.approx(2.0 * 760.0, abs=1e-6)


def test_grown_tables_equal_fresh_tables(paper_stack):
    m = PhaseMatcher(paper_stack)
    m.tuning_curve([3.1], 760.0)
    before = {pol: (tab.lambda_min, tab.lambda_max) for pol, tab in m._tables.items()}
    m.tuning_curve([3.1], 770.0)
    assert any(
        (tab.lambda_min, tab.lambda_max) != before[pol] for pol, tab in m._tables.items()
    )  # the 770 nm query grew at least one table
    for pol, tab in m._tables.items():
        fresh = EffectiveIndexTable(paper_stack, pol, tab.lambda_min, tab.lambda_max)
        assert np.array_equal(tab.knots_nm, fresh.knots_nm)
        assert np.array_equal(tab.knot_n_eff, fresh.knot_n_eff)


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.37, 2.0, 3.1])
@pytest.mark.parametrize("inter_id", [1, 2])
def test_energy_and_momentum_identities(matcher, theta, inter_id):
    p = matcher.solve_pair(theta, 760.0, interaction(inter_id))
    energy = 1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm
    assert energy == pytest.approx(1.0 / 760.0, rel=1e-12)
    k_p = 2.0 * math.pi / 760.0
    assert abs(p.momentum_residual) < 1e-9 * k_p


def test_four_distinct_wavelengths_at_spectrum_angle(matcher):
    pts = [matcher.solve_pair(3.1, 759.5, it) for it in (INTERACTION_1, INTERACTION_2)]
    wls = sorted(w for p in pts for w in (p.lambda_s_nm, p.lambda_i_nm))
    assert len(set(round(w, 3) for w in wls)) == 4
    for got, pin in zip(wls, PIN_FOUR_PEAKS):
        assert got == pytest.approx(pin, abs=5e-3)
    for p in pts:
        assert 1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm == pytest.approx(
            1.0 / 759.5, rel=1e-12
        )


def test_degeneracy_angles_antisymmetric(matcher):
    th1 = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    th2 = matcher.degeneracy_angle(INTERACTION_2, 760.0)
    assert th1 == pytest.approx(-th2, abs=1e-12)
    assert th1 == pytest.approx(PIN_DEGENERACY_DEG, abs=2e-3)
    # soft comparison against the reported operating point, wide tolerance
    # because the dispersion model is a modeling choice
    assert abs(abs(th1) - 0.37) < 0.5


def test_branches_cross_at_degeneracy(matcher):
    th1 = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    p = matcher.solve_pair(th1, 760.0, INTERACTION_1)
    assert p.lambda_s_nm == pytest.approx(2.0 * 760.0, abs=1e-3)
    assert p.lambda_i_nm == pytest.approx(2.0 * 760.0, abs=1e-3)


def test_branches_monotone_near_degeneracy(matcher):
    th0 = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    thetas = th0 + np.linspace(-0.3, 0.3, 7)
    ls = [matcher.solve_pair(float(t), 760.0, INTERACTION_1).lambda_s_nm for t in thetas]
    li = [matcher.solve_pair(float(t), 760.0, INTERACTION_1).lambda_i_nm for t in thetas]
    assert all(a > b for a, b in zip(ls, ls[1:]))  # signal moves blue with angle
    assert all(a < b for a, b in zip(li, li[1:]))  # idler moves red


def test_tuning_curve_x_shape(matcher):
    thetas = np.arange(-1.0, 4.0001, 0.1)
    points, failures = matcher.tuning_curve(thetas, 760.0)
    assert not failures
    assert len(points) == 2 * len(thetas)
    crossings = 0
    for inter_id in (1, 2):
        sep = [
            p.lambda_s_nm - p.lambda_i_nm for p in points if p.interaction.id == inter_id
        ]
        crossings += sum(
            1 for a, b in zip(sep, sep[1:]) if (a < 0) != (b < 0)
        )
    assert crossings == 2  # one X crossing per interaction


def test_tuning_curve_records_domain_failures_and_raises_faults(matcher, monkeypatch):
    points, failures = matcher.tuning_curve([3.1, 95.0], 760.0)
    assert len(points) == 2  # 3.1 deg for both interactions
    assert [(f[0], f[1]) for f in failures] == [(95.0, 1), (95.0, 2)]  # |theta| < 90 check

    def broken(theta_deg, lambda_p, inter):
        raise TypeError("a fault, not a failed point")

    monkeypatch.setattr(matcher, "solve_pair", broken)
    with pytest.raises(TypeError, match="a fault"):
        matcher.tuning_curve([3.1], 760.0)


def test_delta_k_zero_at_solution_and_sign_flip(matcher):
    p = matcher.solve_pair(1.5, 760.0, INTERACTION_1)
    k_p = 2.0 * math.pi / 760.0
    assert abs(matcher.delta_k(p.lambda_s_nm, 1.5, 760.0, INTERACTION_1)) < 1e-9 * k_p
    below = matcher.delta_k(p.lambda_s_nm - 1.0, 1.5, 760.0, INTERACTION_1)
    above = matcher.delta_k(p.lambda_s_nm + 1.0, 1.5, 760.0, INTERACTION_1)
    assert (below < 0) != (above < 0)


def test_delta_k_slope_is_group_index_sum(matcher):
    p = matcher.solve_pair(0.8, 760.0, INTERACTION_1)
    h = 0.01
    slope = (
        matcher.delta_k(p.lambda_s_nm + h, 0.8, 760.0, INTERACTION_1)
        - matcher.delta_k(p.lambda_s_nm - h, 0.8, 760.0, INTERACTION_1)
    ) / (2 * h)
    ngs = matcher.n_group(TE, p.lambda_s_nm)
    ngi = matcher.n_group(TM, p.lambda_i_nm)
    expected = 2.0 * math.pi * (ngs + ngi) / p.lambda_s_nm**2
    assert slope == pytest.approx(expected, rel=1e-2)


def test_search_window_widens_once(matcher):
    # at 25 deg the root sits ~173 nm from degeneracy, past the +/-150 nm
    # first bracket but inside the doubled one
    p = matcher.solve_pair(25.0, 760.0, INTERACTION_1)
    assert abs(p.lambda_s_nm - 1520.0) > 150.0
    assert abs(p.momentum_residual) < 1e-9 * (2 * math.pi / 760.0)


@pytest.mark.parametrize("theta", [3.1, 25.0], ids=["first_window", "widened"])
def test_solve_pair_evaluates_each_bracket_end_once(matcher, monkeypatch, theta):
    lambda_p, inter = 760.0, INTERACTION_1
    matcher.solve_pair(theta, lambda_p, inter)  # tables grown before the count
    lookups = []
    n_eff = EffectiveIndexTable.n_eff

    def counted(tab, lam):
        lookups.append((tab.polarization, lam))
        return n_eff(tab, lam)

    monkeypatch.setattr(EffectiveIndexTable, "n_eff", counted)
    matcher.solve_pair(theta, lambda_p, inter)
    halves = [SEARCH_HALF_WINDOW_NM] + [2 * SEARCH_HALF_WINDOW_NM] * (theta == 25.0)
    for half in halves:
        for lam in (2 * lambda_p - half, 2 * lambda_p + half):
            lam_i = conjugate_wavelength(lambda_p, lam)
            assert lookups.count((inter.copropagating_pol, lam)) == 1
            assert lookups.count((inter.counterpropagating_pol, lam_i)) == 1


def test_no_solution_for_extreme_angle(matcher):
    with pytest.raises(NoSolutionInWindow):
        matcher.solve_pair(60.0, 760.0, INTERACTION_1)


def test_angle_domain_enforced(matcher):
    with pytest.raises(ValueError):
        matcher.solve_pair(95.0, 760.0, INTERACTION_1)


_BAD_PUMPS = pytest.mark.parametrize(
    "lambda_p", [0.0, math.nan, -760.0, math.inf], ids=["zero", "nan", "negative", "inf"]
)


@_BAD_PUMPS
def test_tuning_curve_records_a_pump_that_is_not_finite_and_positive(paper_stack, lambda_p):
    # solve_pair refuses the pump before it touches a table; the sweep records
    # each point's refusal and goes on
    m = PhaseMatcher(paper_stack)
    with pytest.raises(ValueError, match="pump wavelength"):
        m.solve_pair(1.0, lambda_p, INTERACTION_1)
    points, failures = m.tuning_curve([1.0, 2.0], lambda_p)
    assert points == [] and [(theta, i) for theta, i, _ in failures] == [
        (1.0, 1), (2.0, 1), (1.0, 2), (2.0, 2)
    ]
    prefix = f"pump wavelength must be a finite number > 0, got {lambda_p}"
    assert all(str(exc).startswith(prefix) for *_, exc in failures)
    assert m._tables == {}


def test_a_pump_whose_search_starts_outside_the_model_is_refused_before_any_table(paper_stack):
    # 2 lambda_p = 2e300 nm: the padded table window rounded to one wavelength,
    # which solve_pair, degeneracy_angle and fluorescence_spectrum answered
    # with a ValueError about a wavelength range
    from twinsource.spectra import fluorescence_spectrum

    m = PhaseMatcher(paper_stack)
    message = (
        "^pump wavelength 1e\\+300 nm: the pair search starts at 2e\\+300 nm, "
        "outside model 'adachi1985' window \\[550.0, 4000.0\\] nm$"
    )
    with pytest.raises(OutOfValidityWindow, match=message):
        m.solve_pair(1.0, 1e300, INTERACTION_1)
    with pytest.raises(OutOfValidityWindow, match=message):
        m.degeneracy_angle(INTERACTION_2, 1e300)
    with pytest.raises(OutOfValidityWindow, match=message):
        fluorescence_spectrum(3.1, 1e300, 1.0, paper_stack, matcher=m)
    assert m._tables == {}


def test_tuning_curve_records_the_models_refusal_itself(paper_stack):
    # 300 nm: the search starts inside the window at 600 nm, but its bracket
    # reaches down to 450 nm, outside it; each record holds the exception
    points, failures = PhaseMatcher(paper_stack).tuning_curve([1.0, 2.0], 300.0)
    assert points == [] and len(failures) == 4
    assert all(type(exc) is OutOfValidityWindow for *_, exc in failures)


@_BAD_PUMPS
def test_degeneracy_angle_refuses_a_pump_that_is_not_finite_and_positive(paper_stack, lambda_p):
    m = PhaseMatcher(paper_stack)
    for inter in (INTERACTION_1, INTERACTION_2):
        with pytest.raises(ValueError, match="pump wavelength"):
            m.degeneracy_angle(inter, lambda_p)
    assert m._tables == {}


@pytest.mark.parametrize("theta", [90.0, -95.0, math.nan])
def test_solve_pair_and_delta_k_name_an_angle_at_or_beyond_grazing(matcher, theta):
    # delta_k used to return the mismatch at 95 deg
    with pytest.raises(ValueError, match=f"^pump angle must be .*, got {theta}$"):
        matcher.solve_pair(theta, 760.0, INTERACTION_1)
    with pytest.raises(ValueError, match=f"^pump angle must be .*, got {theta}$"):
        matcher.delta_k(1500.0, theta, 760.0, INTERACTION_1)


def test_a_root_off_the_momentum_bound_is_refused(matcher, monkeypatch):
    # a root left at the bracket's end misses |residual| <= MOMENTUM_RTOL k_p
    monkeypatch.setattr(phasematch, "brentq", lambda f, lo, hi, **kwargs: lo)
    with pytest.raises(NoSolutionInWindow, match=r"^root polish stalled: \|residual\| = \S+ rad/nm$"):
        matcher.solve_pair(1.0, 760.0, INTERACTION_1)


def test_delta_k_names_a_pump_that_is_not_finite_and_positive(matcher):
    # a NaN pump used to say "signal 1500.0 nm carries more energy than the pump"
    for lambda_p in (math.nan, 0.0, -760.0):
        with pytest.raises(ValueError, match=f"^pump wavelength must be .*, got {lambda_p}$"):
            matcher.delta_k(1500.0, 1.0, lambda_p, INTERACTION_1)


def test_conjugate_wavelength_refuses_an_array_signal_above_the_pump_energy():
    with pytest.raises(ValueError, match="carries more energy than the pump"):
        conjugate_wavelength(760.0, np.array([1500.0, 700.0]))


@pytest.fixture(scope="module")
def te_table(paper_stack):
    return EffectiveIndexTable(paper_stack, TE, 1500.0, 1540.0)


@pytest.mark.parametrize(
    "wavelength",
    ["1520", b"1520", np.str_("1520"), np.array(["1520", "1530"]), [1520.0, "1530"]],
    ids=["str", "bytes", "numpy_str", "string_array", "mixed_list"],
)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda m, tab, lam: m.n_eff(TE, lam), "wavelength"),
        (lambda m, tab, lam: m.n_group(TE, lam), "wavelength"),
        (lambda m, tab, lam: tab.n_eff(lam), "wavelength"),
        (lambda m, tab, lam: tab.n_group(lam), "wavelength"),
        (lambda m, tab, lam: conjugate_wavelength(760.0, lam), "signal wavelength"),
        (lambda m, tab, lam: m.delta_k(lam, 0.0, 760.0, INTERACTION_1), "signal wavelength"),
    ],
    ids=["matcher_n_eff", "matcher_n_group", "table_n_eff", "table_n_group", "conjugate", "delta_k"],
)
def test_a_wavelength_given_as_text_is_refused(matcher, te_table, call, name, wavelength):
    # numpy reads text as a number: n_eff used to answer 3.1312774 at "1520",
    # conjugate_wavelength 1520.0 and delta_k 1.27e-05, and n_group raised
    # numpy's UFuncTypeError
    with pytest.raises(ValueError, match=f"^{name} must be a number or an array of numbers, got "):
        call(matcher, te_table, wavelength)
