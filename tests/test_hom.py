import math
import re
import warnings

import _oracles
import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinsource import hom, roots
from twinsource.efficiency import DetectionChain, expected_counts
from twinsource.errors import DegenerateScan, NoConvergence
from twinsource.hom import (
    DipModel,
    HomScan,
    dip_fwhm_mm,
    dip_half_width_mm,
    dip_value,
    fit_dip,
    simulate_scan,
    visibility_from_reflectivity,
)

PAPER_MODEL = DipModel(visibility=0.85, wavelength_nm=1520.0, delta_lambda_nm=0.53)
POSITIONS = np.linspace(-5.0, 5.0, 25)


def _noiseless_scan(model, chain, positions, dwell):
    budget = expected_counts(chain)
    mean_total = dwell * (
        budget.true_coincidence_rate_hz * dip_value(model, positions)
        + budget.accidental_rate_hz
    )
    mean_acc = np.full_like(positions, dwell * budget.accidental_rate_hz)
    return HomScan(
        positions,
        np.round(mean_total).astype(np.int64),
        np.round(mean_acc).astype(np.int64),
        dwell_s=dwell,
    )


# --- dip model ----------------------------------------------------------------


def test_dip_minimum_at_zero_delay():
    assert dip_value(PAPER_MODEL, 0.0) == pytest.approx(1.0 - 0.85, abs=1e-15)


def test_dip_half_depth_point():
    # exponent hits ln 2 at dz = (lambda^2/dl) ln2/pi, derived symbolically
    dz = dip_half_width_mm(1520.0, 0.53)
    assert dz == pytest.approx((1520.0**2 / 0.53) * math.log(2) / math.pi / 1e6, rel=1e-12)
    assert dip_value(PAPER_MODEL, dz) == pytest.approx(1.0 - 0.85 / 2, abs=1e-12)


def test_dip_recovers_at_large_delay():
    assert dip_value(PAPER_MODEL, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_dip_fwhm_matches_reported_scale():
    assert dip_fwhm_mm(1520.0, 0.53) == pytest.approx(1.92, abs=0.01)


@given(dz=st.floats(-30.0, 30.0), v=st.floats(0.0, 1.0), dl=st.floats(0.05, 5.0))
def test_dip_bounds_and_symmetry(dz, v, dl):
    m = DipModel(v, 1520.0, dl)
    val = dip_value(m, dz)
    assert 1.0 - v - 1e-12 <= val <= 1.0 + 1e-12
    assert val == pytest.approx(dip_value(m, -dz), abs=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        DipModel(1.2, 1520.0, 0.5)
    with pytest.raises(ValueError):
        DipModel(0.5, 1520.0, -0.5)


# --- facet-reflection visibility -----------------------------------------------


def test_visibility_limits():
    assert visibility_from_reflectivity(0.0) == 1.0
    assert visibility_from_reflectivity(0.30) == pytest.approx(0.847, abs=1e-3)
    assert 0.82 < visibility_from_reflectivity(0.30) < 0.88


def test_visibility_monotone_decreasing():
    rs = np.linspace(0.0, 0.9, 10)
    vs = [visibility_from_reflectivity(r) for r in rs]
    assert all(a > b for a, b in zip(vs, vs[1:]))
    with pytest.raises(ValueError):
        visibility_from_reflectivity(1.0)


# --- simulation -----------------------------------------------------------------


def test_simulation_reproducible():
    chain = DetectionChain()
    a = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=11)
    b = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=11)
    assert np.array_equal(a.total_counts, b.total_counts)
    assert np.array_equal(a.accidental_counts, b.accidental_counts)
    c = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=12)
    assert not np.array_equal(a.total_counts, c.total_counts)


def test_flat_scan_for_zero_visibility():
    chain = DetectionChain()
    flat = DipModel(0.0, 1520.0, 0.53)
    scan = simulate_scan(flat, chain, POSITIONS, 60.0, seed=5)
    budget = expected_counts(chain)
    mean = 60.0 * (budget.true_coincidence_rate_hz + budget.accidental_rate_hz)
    assert np.all(np.abs(scan.total_counts - mean) < 4.0 * math.sqrt(mean))


def test_paper_like_scan_shape():
    chain = DetectionChain()
    scan = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=21)
    net = scan.net_counts.astype(float)
    outside = np.abs(scan.delta_z_mm) > 3.0
    baseline = net[outside].mean()
    center = net[np.argmin(np.abs(scan.delta_z_mm))]
    assert center / baseline == pytest.approx(0.15, abs=0.1)  # ~85% dip
    assert net[0] / baseline == pytest.approx(1.0, abs=0.2)  # recovered wings


def test_sample_mean_tracks_model_chi2():
    chain = DetectionChain()
    budget = expected_counts(chain)
    chi2 = []
    for seed in range(100):
        scan = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=seed)
        mean = 60.0 * (
            budget.true_coincidence_rate_hz * dip_value(PAPER_MODEL, scan.delta_z_mm)
            + budget.accidental_rate_hz
        )
        chi2.append(np.mean((scan.total_counts - mean) ** 2 / mean))
    assert 0.5 < np.mean(chi2) < 2.0


@pytest.mark.parametrize(
    "counts", [np.array(["1", "2"]), np.array([None, None])], ids=["str", "object_none"]
)
def test_scan_refuses_counts_that_are_not_integers_before_comparing_them(counts):
    # a str array used to raise numpy's UFuncTypeError from "counts < 0", and
    # an object array of None a bare TypeError
    with pytest.raises(ValueError, match="^total counts must all be non-negative integers$"):
        HomScan(np.array([0.0, 1.0]), counts, np.array([0, 0]), 1.0)
    with pytest.raises(ValueError, match="^accidental counts must all be non-negative integers$"):
        HomScan(np.array([0.0, 1.0]), np.array([1, 1]), counts, 1.0)


def test_scan_validation():
    with pytest.raises(ValueError):
        HomScan(np.array([0.0, -1.0]), np.array([1, 1]), np.array([0, 0]), 1.0)
    with pytest.raises(ValueError):
        HomScan(np.array([0.0, 1.0]), np.array([1.5, 1.0]), np.array([0, 0]), 1.0)
    with pytest.raises(ValueError):
        HomScan(np.array([0.0, 1.0]), np.array([1, -2]), np.array([0, 0]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_simulate_scan_refuses_non_finite_positions(bad):
    # the rule of HomScan; a NaN position used to pass the increasing check
    # and fail inside numpy's Poisson sampler
    chain = DetectionChain()
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        simulate_scan(DipModel(0.84, 1520.0, 0.5), chain, [0.0, bad, 1.0], 1.0, 0)
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        simulate_scan(DipModel(0.84, 1520.0, 0.5), chain, [0.0, 1.0, bad], 1.0, 0)


# --- fitting ---------------------------------------------------------------------


def test_noiseless_round_trip_is_exact():
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), POSITIONS, dwell=1e7)
    fit = fit_dip(scan, 1520.0)
    assert fit.visibility == pytest.approx(0.85, abs=1e-6)
    assert fit.delta_lambda_nm == pytest.approx(0.53, abs=1e-6)
    assert fit.converged


def test_fit_on_noisy_scans_recovers_truth():
    chain = DetectionChain()
    vs, dls = [], []
    for seed in range(20):
        scan = simulate_scan(PAPER_MODEL, chain, POSITIONS, 60.0, seed=seed)
        fit = fit_dip(scan, 1520.0)
        vs.append(fit.visibility)
        dls.append(fit.delta_lambda_nm)
        assert fit.visibility_err < 0.1
        assert np.isfinite(fit.delta_lambda_err)
    assert np.mean(vs) == pytest.approx(0.85, abs=0.03)
    assert np.mean(dls) == pytest.approx(0.53, abs=0.05)


def test_fitted_parameters_imply_reported_dip_width():
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), POSITIONS, dwell=1e6)
    fit = fit_dip(scan, 1520.0)
    assert dip_fwhm_mm(1520.0, fit.delta_lambda_nm) == pytest.approx(1.92, abs=0.05)


def _calibration_scan(delta_lambda_nm, seed):
    # drawn as the hom-calibration benchmark draws them: V from R = 0.30, the
    # default chain, 25 points over +/-5 mm, 60 s dwell
    model = DipModel(visibility_from_reflectivity(0.30), 1520.0, delta_lambda_nm)
    return simulate_scan(model, DetectionChain(), POSITIONS, 60.0, seed)


def _oracle_fit(scan, monkeypatch):
    """The Gauss-Newton oracle's fit, and whether its baseline point set
    cycles: a pass's set differs from the previous pass's and equals an
    earlier one."""
    widths = []

    def recorded(wavelength_nm, delta_lambda_nm):
        widths.append(delta_lambda_nm)
        return dip_half_width_mm(wavelength_nm, delta_lambda_nm)

    monkeypatch.setattr(_oracles, "dip_half_width_mm", recorded)
    fit = _oracles.fit_dip_gauss_newton(scan, 1520.0)
    # one half-width per start candidate, then one per baseline pass
    sets = [
        tuple(np.abs(scan.delta_z_mm) > 3.0 * dip_half_width_mm(1520.0, dl))
        for dl in widths[len(_oracles._INIT_DELTA_LAMBDA_NM) :]
    ]
    cycles = any(s != sets[k - 1] and s in sets[: k - 1] for k, s in enumerate(sets) if k)
    return fit, cycles


def _assert_fits_agree(got, want):
    assert got.converged == want.converged
    for name in ("visibility", "delta_lambda_nm", "baseline_counts"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=0), name


def test_fit_matches_the_gauss_newton_oracle(monkeypatch):
    # variable projection and Brent reach the optimum the damped Gauss-Newton
    # fit reaches, with the same status, wherever the baseline set never cycles
    rng = np.random.default_rng(401)
    compared = 0
    for _ in range(240):
        scan = _calibration_scan(float(rng.uniform(0.4, 0.7)), int(rng.integers(0, 2**31)))
        want, cycles = _oracle_fit(scan, monkeypatch)
        if not cycles:
            _assert_fits_agree(fit_dip(scan, 1520.0), want)
            compared += 1
    assert compared >= 200


@pytest.mark.parametrize("seed", [20090401, 7], ids=["config_seed", "readme_seed"])
def test_reference_fits_match_the_gauss_newton_oracle(monkeypatch, seed):
    # the hom-calibration reference scan and the README's `hom simulate --seed 7`
    scan = _calibration_scan(0.53, seed)
    want, cycles = _oracle_fit(scan, monkeypatch)
    assert not cycles and want.converged
    _assert_fits_agree(fit_dip(scan, 1520.0), want)


# the two reference scans' fits, recorded before the start widths were scored
# in one array pass; any moved bit in ``hom_fit.json`` shows here
PIN_REFERENCE_FITS = {
    20090401: hom.FitResult(
        visibility=0.841900968868997,
        delta_lambda_nm=0.5510647521354819,
        visibility_err=0.022498949518106298,
        delta_lambda_err=0.021270421765301445,
        residual_norm=5.1229436232614445,
        converged=True,
        iterations=60,
        baseline_counts=532.2526915914051,
    ),
    7: hom.FitResult(
        visibility=0.8303242942603832,
        delta_lambda_nm=0.5388902750402034,
        visibility_err=0.022301924971846698,
        delta_lambda_err=0.02116508988372846,
        residual_norm=4.334833908606589,
        converged=True,
        iterations=77,
        baseline_counts=533.0302088639212,
    ),
}


@pytest.mark.dispatch
@pytest.mark.parametrize("seed", PIN_REFERENCE_FITS, ids=["config_seed", "readme_seed"])
def test_reference_fits_are_pinned(seed):
    assert fit_dip(_calibration_scan(0.53, seed), 1520.0) == PIN_REFERENCE_FITS[seed]


def _assert_start_widths_match_the_loop(scan):
    dz_nm = scan.delta_z_mm * hom.NM_PER_MM
    net = scan.net_counts.astype(float)
    sigma = np.sqrt(np.maximum(scan.total_counts + scan.accidental_counts, 1.0))
    ok, *columns = hom._score_start_widths(scan, 1520.0, dz_nm, net, sigma)
    want = _oracles.start_widths_loop(scan, 1520.0)
    assert ok.tolist() == [row is not None for row in want]
    for k, row in enumerate(want):
        if row is not None:
            assert tuple(float(col[k]) for col in columns) == row, k


@pytest.mark.dispatch
def test_start_widths_score_as_the_scalar_loop_scores_them():
    # the one array pass gives every width the loop's skip decision, baseline,
    # V and both chi^2, to the bit
    rng = np.random.default_rng(2323)
    for _ in range(500):
        scan = _calibration_scan(float(rng.uniform(0.4, 0.7)), int(rng.integers(0, 2**31)))
        _assert_start_widths_match_the_loop(scan)


def _dip_counts_scan(positions, no_counts_beyond_mm=math.inf, accidentals_there=0):
    """A noiseless 60 s scan of PAPER_MODEL whose counts are zero beyond
    ``no_counts_beyond_mm`` but for ``accidentals_there`` accidentals."""
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), positions, dwell=60.0)
    beyond = np.abs(scan.delta_z_mm) > no_counts_beyond_mm
    scan.total_counts[beyond] = 0
    scan.accidental_counts[beyond] = accidentals_there
    return scan


_NO_BASELINE = "no spectral-width candidate leaves >= 3 baseline points outside the dip"
_NO_DIP = "no dip resolvable above the noise"
_FEW_BASELINES = {
    "all_inside": (_dip_counts_scan(np.linspace(-0.5, 0.5, 25)), DegenerateScan, _NO_BASELINE),
    "few_outside": (_dip_counts_scan(np.linspace(-1.0, 1.0, 25)), NoConvergence, "no chi"),
    "no_counts_outside": (_dip_counts_scan(POSITIONS, 0.7), DegenerateScan, _NO_BASELINE),
    "negative_outside": (_dip_counts_scan(POSITIONS, 0.7, 3), DegenerateScan, _NO_BASELINE),
    # g underflows to 0 on every point of every width, or of the widest five
    "dip_vanishes": (_dip_counts_scan(np.linspace(200.0, 400.0, 25)), DegenerateScan, _NO_DIP),
    "dip_vanishes_for_some": (_dip_counts_scan(np.linspace(10.0, 130.0, 25)), DegenerateScan, _NO_DIP),
}


@pytest.mark.dispatch
@pytest.mark.parametrize("scan, error, message", _FEW_BASELINES.values(), ids=_FEW_BASELINES)
def test_start_widths_without_baseline_points_match_the_loop(scan, error, message):
    # most or all widths are skipped, or have no dip to fit; the fit fails as
    # the loop made it fail, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_start_widths_match_the_loop(scan)
        with pytest.raises(error, match=f"^{message}"):
            fit_dip(scan, 1520.0)


def test_a_width_the_baseline_points_do_not_bound_names_its_bracket():
    # the chi^2 slope keeps one sign over [w / 1.5, 1.5 w]: the error says
    # so, with the bracket in nm, not in Brent's wording for its ends
    with pytest.raises(NoConvergence, match="^no chi") as err:
        fit_dip(_FEW_BASELINES["few_outside"][0], 1520.0)
    message = str(err.value)
    assert "f(a) and f(b)" not in message
    bracket = re.search(r"keeps one sign over \[(\S+), (\S+)\] nm", message)
    lo, hi = map(float, bracket.groups())
    assert 0.0 < lo < hi and hi / lo == pytest.approx(hom._WIDTH_BRACKET**2, rel=1e-5)
    assert "baseline points do not bound the width" in message


def test_fit_settles_a_baseline_set_that_would_cycle(monkeypatch):
    # its baseline points fall in and out of the fitted dip region from pass
    # to pass, so the oracle's baseline changes by ~1% every pass and never
    # settles; keeping the current set once a width would bring back an
    # earlier one gives a fixed point
    scan = _calibration_scan(0.5443425958180103, 331913304)
    want, cycles = _oracle_fit(scan, monkeypatch)
    assert cycles and not want.converged
    fit = fit_dip(scan, 1520.0)
    assert fit.converged
    assert fit.visibility == pytest.approx(0.8558163064958964, abs=1e-9)
    assert fit.delta_lambda_nm == pytest.approx(0.522226808495588, abs=1e-9)
    assert fit.visibility == pytest.approx(want.visibility, abs=1e-4)


def test_fit_keeps_the_last_pass_that_leaves_baseline_points():
    # the second pass's width leaves fewer than 3 baseline points
    fit = fit_dip(_calibration_scan(0.4014396240156993, 1150664034), 1520.0)
    assert not fit.converged
    assert fit.visibility == pytest.approx(0.847, abs=0.05)
    assert np.isfinite(fit.delta_lambda_err)


def test_fit_raises_when_the_width_bracket_holds_no_minimum(monkeypatch):
    # a bracket of +/-0.1% around the coarse start width, a grid value 4-8%
    # from the optimum: the chi^2 slope has one sign across it
    monkeypatch.setattr(hom, "_WIDTH_BRACKET", 1.001)
    with pytest.raises(NoConvergence):
        fit_dip(_calibration_scan(0.53, 7), 1520.0)


@pytest.mark.parametrize(
    "brent, why",
    [
        (lambda f, a, b, xtol: roots.brentq(f, a, b, xtol, maxiter=1), "Failed to converge after 1 "),
        (
            lambda f, a, b, xtol: roots.brentq(lambda x: f(x) if x in (a, b) else math.nan, a, b, xtol),
            "The function value at x=",
        ),
    ],
    ids=["iterations", "nan"],
)
def test_a_width_search_brent_gives_up_on_is_no_convergence(monkeypatch, brent, why):
    # Brent's own RuntimeError (maxiter) and ValueError (a NaN slope) become
    # NoConvergence, with Brent's reason after the fit's
    monkeypatch.setattr(hom, "brentq", brent)
    with pytest.raises(NoConvergence, match=f"^no chi\\^2 minimum in the width: {why}"):
        fit_dip(_calibration_scan(0.53, 7), 1520.0)


def test_flat_scan_raises_degenerate():
    chain = DetectionChain()
    scan = simulate_scan(DipModel(0.0, 1520.0, 0.53), chain, POSITIONS, 60.0, seed=2)
    with pytest.raises(DegenerateScan):
        fit_dip(scan, 1520.0)


def test_too_few_points_rejected():
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), np.linspace(-5, 5, 6), 1e5)
    with pytest.raises(DegenerateScan):
        fit_dip(scan, 1520.0)


def test_narrow_span_rejected():
    positions = np.linspace(-0.4, 0.4, 15)  # well inside one dip width
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), positions, 1e6)
    with pytest.raises(DegenerateScan):
        fit_dip(scan, 1520.0)


def test_a_scan_of_one_flank_is_narrower_than_the_dip():
    # 8 points on one flank, 1.4-2.0 mm from the centre: enough baseline
    # points and a resolved slope, but a span of 0.6 mm under the 1.92 mm FWHM
    scan = _noiseless_scan(PAPER_MODEL, DetectionChain(), np.linspace(1.4, 2.0, 8), 1e5)
    with pytest.raises(DegenerateScan, match="^scan span must cover at least one dip width$"):
        fit_dip(scan, 1520.0)


# --- argument rules (errors.require) -----------------------------------------------


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"delta_lambda_nm": math.nan}, "spectral width"),
        ({"delta_lambda_nm": math.inf}, "spectral width"),
        ({"wavelength_nm": math.nan}, "wavelength"),
        ({"visibility": math.nan}, "visibility"),
    ],
    ids=["nan_width", "inf_width", "nan_wavelength", "nan_visibility"],
)
def test_dip_model_refuses_values_that_are_not_finite(kwargs, name):
    # a NaN width or wavelength used to pass the "<= 0" test
    with pytest.raises(ValueError, match=f"^{name} must be .*, got (nan|inf)$"):
        DipModel(**{"visibility": 0.84, "wavelength_nm": 1520.0, "delta_lambda_nm": 0.5} | kwargs)


@pytest.mark.parametrize("dwell", [math.nan, math.inf, 0.0])
def test_dwell_time_must_be_finite_and_positive(dwell):
    # a NaN dwell used to reach numpy's Poisson sampler: "lam value too large"
    with pytest.raises(ValueError, match=f"^dwell time must be .*, got {dwell}$"):
        simulate_scan(DipModel(0.84, 1520.0, 0.5), DetectionChain(), [0.0, 1.0], dwell, 0)
    with pytest.raises(ValueError, match=f"^dwell time must be .*, got {dwell}$"):
        HomScan(np.array([0.0, 1.0]), np.array([1, 1]), np.array([0, 0]), dwell)


def test_facet_reflectance_must_lie_in_the_unit_interval():
    for r in (math.nan, 1.0, -0.1):
        with pytest.raises(ValueError, match=f"^facet reflectance must be .*, got {r}$"):
            visibility_from_reflectivity(r)


@pytest.mark.parametrize("wavelength", [math.nan, -1520.0, 0.0])
def test_fit_dip_refuses_a_wavelength_that_is_not_finite_and_positive(wavelength):
    # -1520 nm used to give a converged fit (the model squares the wavelength),
    # NaN a DegenerateScan and 0 a NoConvergence after division warnings
    positions = np.linspace(-5.0, 5.0, 25)
    scan = simulate_scan(DipModel(0.84, 1520.0, 0.5), DetectionChain(), positions, 60.0, 7)
    rule = "a finite number > 0"
    with pytest.raises(ValueError, match=f"^wavelength must be {rule}, got {wavelength}$"):
        fit_dip(scan, wavelength)


@pytest.mark.parametrize("wavelength", [1e-300, 5e-324, 1e200])
def test_the_dip_model_refuses_a_wavelength_whose_square_is_no_normal_double(wavelength):
    # lambda^2 underflowed to 0 (divide-by-zero, then NaN) or overflowed
    positions = np.linspace(-5.0, 5.0, 25)
    scan = simulate_scan(DipModel(0.84, 1520.0, 0.5), DetectionChain(), positions, 60.0, 7)
    rule = "a finite number > 0 whose square is a normal double"
    message = re.escape(f"wavelength must be {rule}, got {wavelength}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DipModel(0.84, wavelength, 0.5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_dip(scan, wavelength)


@pytest.mark.parametrize("width, half_span", [(1e300, 5.0), (0.53, 1e300)])
def test_dip_value_at_extreme_widths_and_spans(width, half_span):
    # u * u overflowed there; |dz| is now held where the shape is already 0.0
    positions = np.linspace(-half_span, half_span, 25)
    got = dip_value(DipModel(0.84, 1520.0, width), positions)
    assert got[12] == 1.0 - 0.84 and np.all(np.delete(got, 12) == 1.0)


def test_dip_value_holds_only_where_the_shape_is_zero():
    # |u| runs to 17 here: the held positions past 8 give the same 0.0 shape
    positions = np.linspace(-20.0, 20.0, 401)
    unheld = 1.0 - 0.84 * hom._dip_shape(positions * hom.NM_PER_MM, 2.0, 1520.0)
    assert np.array_equal(dip_value(DipModel(0.84, 1520.0, 2.0), positions), unheld)
    assert np.count_nonzero(unheld == 1.0) > 100


def test_scan_arrays_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="^scan arrays must be matching 1D arrays$"):
        HomScan(np.array([0.0, 1.0]), np.array([1, 2, 3]), np.array([0, 0]), 1.0)
