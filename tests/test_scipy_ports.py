"""The Brent root finder and the not-a-knot spline against the scipy routines
they port: the same floats, not merely close ones."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from _oracles import spline_piece_search
from twinsource import modes, roots
from twinsource.modes import EffectiveIndexTable
from twinsource.phasematch import INTERACTION_1, INTERACTION_2
from twinsource.stack import TE, TM


@pytest.fixture(scope="module")
def tables(paper_stack):
    return {pol: EffectiveIndexTable(paper_stack, pol, 1340.0, 1700.0) for pol in (TE, TM)}


@pytest.mark.parametrize("pol", [TE, TM])
def test_brent_matches_scipy_on_the_mode_residual(paper_stack, pol):
    lams = np.array([1340.0, 1520.0, 1700.0])
    brackets = 0
    for lam, (n_top, layers, n_bot) in zip(lams, modes._planar_profiles(paper_stack, lams, None)):
        residual = modes._MatchedResidual(n_top, layers, n_bot, lam, pol)
        grid = np.arange(3.0, max(n for n, _ in layers), modes._GRID_STEP)
        sign = np.sign(residual(grid))
        for j in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            a, b = grid[j], grid[j + 1]
            want = brentq(residual, a, b, xtol=modes._XTOL)
            assert roots.brentq(residual, a, b, modes._XTOL) == want
            brackets += 1
    assert brackets >= 6


@pytest.mark.dispatch
@pytest.mark.parametrize("pol", [TE, TM])
def test_spline_piece_is_the_searched_piece(tables, pol, rng):
    """Dispatch: the lattice read is a floor and a subtraction in numpy, on either SIMD path."""
    # lambda / TABLE_STEP_NM is exact only for a power-of-two step
    assert math.frexp(modes.TABLE_STEP_NM)[0] == 0.5
    tab = tables[pol]
    knots = tab.knots_nm
    edges = np.concatenate((
        knots,
        np.nextafter(knots, -math.inf),
        np.nextafter(knots, math.inf),
        [tab.lambda_min - 1e-9, tab.lambda_max + 1e-9],
    ))
    lams = np.concatenate((edges, rng.uniform(tab.lambda_min - 1e-9, tab.lambda_max + 1e-9, 10**5)))
    got, want = tab._at(lams), spline_piece_search(tab, lams)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the float read inline in n_eff and n_group takes the array pass's piece
    for lookup in (tab.n_eff, tab.n_group):
        assert [lookup(lam) for lam in edges.tolist()] == lookup(edges).tolist()
    for outside in (np.nextafter(tab._lo, -math.inf), np.nextafter(tab._hi, math.inf), math.nan):
        for query in (float(outside), np.array([tab.lambda_min, outside])):
            for lookup in (tab._at, tab.n_eff, tab.n_group):
                with pytest.raises(ValueError):
                    lookup(query)


@pytest.mark.parametrize("inter", [INTERACTION_1, INTERACTION_2], ids=["inter1", "inter2"])
def test_brent_matches_scipy_on_the_momentum_mismatch(matcher, inter):
    for theta in (-1.0, 0.0, 0.37, 1.7, 3.1, 4.0):
        def mismatch(x):
            return matcher.delta_k(x, theta, 760.0, inter)

        for lo, hi in ((1370.0, 1670.0), (1400.0, 1650.0)):
            mine = roots.brentq(mismatch, lo, hi, xtol=1e-10, rtol=8.9e-16)
            assert mine == brentq(mismatch, lo, hi, xtol=1e-10, rtol=8.9e-16)


# values so small that Brent's interpolation divides by an underflowed 0,
# where C gets inf or NaN and bisects
_SCALES = [1.0, 1e-120, 1e-300]


def test_brent_steps_are_scipys(rng):
    # the same points evaluated in the same order, on smooth, steep and flat
    # roots with loose and tight tolerances, at every value scale
    for _ in range(300):
        a, b, p = rng.uniform(0.5, 8.0), rng.uniform(-0.9, 0.9), int(rng.integers(1, 6))
        xtol = 10.0 ** rng.uniform(-14, -3)
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        for scale in _SCALES:
            calls = {"scipy": [], "port": []}

            def f(x, log, scale=scale):
                log.append(x)
                return scale * (math.sin(a * x) ** p + b * x - 0.1)

            if (f(lo, []) < 0) == (f(hi, []) < 0):
                break
            want = brentq(f, lo, hi, args=(calls["scipy"],), xtol=xtol)
            assert roots.brentq(lambda x: f(x, calls["port"]), lo, hi, xtol) == want
            assert calls["port"] == calls["scipy"]


def _lane_cases(rng):
    """The bracketed random functions of ``test_brent_steps_are_scipys``,
    plus roots that Brent lands on exactly or that sit on a bracket end."""
    cases = []
    for _ in range(300):
        a, b, p = rng.uniform(0.5, 8.0), rng.uniform(-0.9, 0.9), int(rng.integers(1, 6))
        rng.uniform(-14, -3)  # the xtol draw of that test, skipped to keep its brackets
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))

        def f(x, a=a, b=b, p=p):
            return math.sin(a * x) ** p + b * x - 0.1

        if (f(lo) < 0) != (f(hi) < 0):
            cases.append((f, lo, hi))
    exact = [(lambda x: x - 0.5, 0.0, 1.0), (lambda x: x - 0.25, 0.25, 1.0)]
    return cases + exact + [(lambda x: x - 0.25, 0.0, 0.25), (lambda x: 0.75 - x, 0.5, 1.0)]


def _lane_function(cases, log):
    def f(x, lanes):
        out = []
        for lane, xi in zip(lanes.tolist(), x.tolist()):
            log[lane].append(xi)
            out.append(cases[lane][0](xi))
        return np.array(out)

    return f


@pytest.mark.parametrize("xtol", [1e-3, 1e-8, 2e-12, 1e-14])
def test_brent_lanes_are_scipys(rng, xtol):
    # every lane takes scipy's steps: the same points in the same order and
    # the same root, whichever iteration the other lanes stop at, at every
    # value scale
    unscaled = _lane_cases(rng)
    lo, hi = np.array([c[1:] for c in unscaled]).T
    for scale in _SCALES:
        cases = [(lambda x, f=f: scale * f(x), a, b) for f, a, b in unscaled]
        log = [[] for _ in cases]
        got = roots.brentq_lanes(_lane_function(cases, log), lo, hi, xtol)
        counts = set()
        for (f, a, b), root, seen in zip(cases, got.tolist(), log):
            calls = []
            want = brentq(lambda x: calls.append(x) or f(x), a, b, xtol=xtol)
            assert root == want
            assert seen == calls
            counts.add(len(calls))
        assert len(cases) > 100 and len(counts) > 5


def test_brent_lanes_call_shape(rng):
    # the first call holds both ends of every lane; each later call the lanes
    # still running, in lane order, a subset of the lanes of the call before
    cases = _lane_cases(rng)
    lo, hi = np.array([c[1:] for c in cases]).T
    calls = []

    def f(x, lanes):
        calls.append((x.tolist(), lanes.tolist()))
        return np.array([cases[lane][0](xi) for lane, xi in zip(lanes.tolist(), x.tolist())])

    roots.brentq_lanes(f, lo, hi, 2e-12)
    (ends, lanes), *steps = calls
    n = len(cases)
    assert ends == [*lo.tolist(), *hi.tolist()] and lanes == [*range(n), *range(n)]
    # a lane with a zero end stops there, before any step
    before = [i for i, (g, a, b) in enumerate(cases) if g(a) != 0 and g(b) != 0]
    assert len(before) == n - 2
    for points, lanes in steps:
        assert len(points) == len(lanes) > 0
        assert lanes == sorted(set(lanes)) and set(lanes) <= set(before)
        before = lanes
    assert len(steps) > 5 and len(steps[0][1]) == n - 2


def test_ends_of_one_sign_are_not_bracketed():
    assert issubclass(roots.NotBracketed, ValueError)
    with pytest.raises(roots.NotBracketed):
        roots.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12)
    with pytest.raises(roots.NotBracketed):  # the second lane has no sign change
        roots.brentq_lanes(lambda x, _: x * x - 0.25, [0.0, 1.0], [1.0, 2.0], 2e-12)


def test_brent_lanes_raise_what_scipy_raises(rng):
    good = _lane_cases(rng)[:20]
    bad = [
        ((lambda x: x * x + 1.0, -1.0, 1.0), {}, ValueError),  # no sign change
        ((lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0), {}, ValueError),  # NaN
        ((lambda x: math.nan, 0.0, 1.0), {}, ValueError),  # NaN at a bracket end
        ((math.sin, 3.0, 4.0), {"xtol": 1e-300, "maxiter": 2}, RuntimeError),
        ((math.sin, 3.0, 4.0), {"rtol": 1e-16}, ValueError),  # below 4 eps
        ((math.sin, 3.0, 4.0), {"xtol": 0.0}, ValueError),
    ]
    for case, kwargs, error in bad:
        with pytest.raises(error):
            brentq(*case, **kwargs)
        cases = good[:7] + [case] + good[7:]
        lo, hi = np.array([c[1:] for c in cases]).T
        f = _lane_function(cases, [[] for _ in cases])
        with pytest.raises(error):
            roots.brentq_lanes(f, lo, hi, **{"xtol": 2e-12, **kwargs})
    assert roots.brentq_lanes(lambda x, _: np.sin(x), [3.0], [4.0], 2e-12)[0] == brentq(
        np.sin, 3.0, 4.0
    )
    assert roots.brentq_lanes(lambda x, _: x, [], [], 2e-12).size == 0


def test_brent_raises_what_scipy_raises():
    cases = [
        ((lambda x: x * x + 1.0, -1.0, 1.0), {}, ValueError),  # no sign change
        ((lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0), {}, ValueError),  # NaN
        ((math.sin, 3.0, 4.0), {"rtol": 1e-16}, ValueError),  # below 4 eps
        ((math.sin, 3.0, 4.0), {"xtol": 0.0}, ValueError),
        ((math.sin, 3.0, 4.0), {"xtol": 1e-300, "maxiter": 2}, RuntimeError),
    ]
    for args, kwargs, error in cases:
        with pytest.raises(error):
            brentq(*args, **kwargs)
        with pytest.raises(error):
            roots.brentq(*args, **{"xtol": 2e-12, **kwargs})
    assert roots.brentq(math.sin, 3.0, 4.0, 2e-12) == brentq(math.sin, 3.0, 4.0)


@pytest.mark.parametrize("pol", [TE, TM])
def test_spline_coefficients_are_cubic_splines(tables, pol):
    tab = tables[pol]
    spline = CubicSpline(tab.knots_nm, tab.knot_n_eff)
    assert np.array_equal(tab._c, spline.c)


def test_spline_coefficients_on_lattice_knots(rng):
    # the table's knots are whole multiples of the 2 nm step, where the
    # tridiagonal solve interchanges no rows: up to 1726 knots, the most a
    # table inside the dispersion window (550-4000 nm) holds
    for size in [*range(4, 70), 191, 500, 1726]:
        x = (int(rng.integers(275, 2000)) + np.arange(size)) * modes.TABLE_STEP_NM
        y = rng.normal(size=size)
        assert np.array_equal(modes._not_a_knot(x, y), CubicSpline(x, y).c)


@pytest.mark.parametrize("pol", [TE, TM])
def test_spline_values_are_cubic_splines(tables, pol, rng):
    tab = tables[pol]
    spline = CubicSpline(tab.knots_nm, tab.knot_n_eff)
    slope = spline.derivative()
    lo, hi = tab.lambda_min, tab.lambda_max
    lams = np.concatenate(
        (rng.uniform(lo, hi, 2000), tab.knots_nm, [lo, hi, lo - 0.9e-9, hi + 0.9e-9])
    )
    want = spline(lams)
    want_group = spline(lams) - lams * slope(lams)
    assert np.array_equal(tab.n_eff(lams), want)
    assert np.array_equal(tab.n_group(lams), want_group)
    assert np.array_equal([tab.n_eff(x) for x in lams.tolist()], want)
    assert np.array_equal([tab.n_group(x) for x in lams.tolist()], want_group)
    assert all(type(tab.n_eff(x)) is float for x in (lo, hi, float(lams[0])))


def _outcome(lookup, query):
    try:
        value = lookup(query)
    except ValueError:
        return "raised"
    return "nan" if np.isnan(value).all() else "value"


@pytest.mark.parametrize("method", ["n_eff", "n_group"])
def test_scalar_and_array_range_checks_agree(tables, method):
    tab = tables[TE]
    lookup = getattr(tab, method)
    lo, hi = tab.lambda_min - 1e-9, tab.lambda_max + 1e-9
    probes = [
        lo, hi, np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf), tab.lambda_min,
        tab.lambda_max, 0.5 * (lo + hi), 0.0, -1.0, 1e300, math.inf, -math.inf, math.nan,
    ]
    for lam in map(float, probes):
        want = "value" if lo <= lam <= hi else "raised"  # NaN included
        for query in (lam, np.float64(lam), np.array(lam), np.array([lam])):
            assert _outcome(lookup, query) == want, (lam, type(query))


def test_range_error_names_what_is_outside(tables):
    # the count outside (NaN among them) and the first of them, not the query
    tab = tables[TE]
    query = np.concatenate(([1500.0, math.nan], np.linspace(1400.0, 3000.0, 10000)))
    with pytest.raises(ValueError) as err:
        tab.n_eff(query)
    outside = int(np.sum(~((query >= tab.lambda_min - 1e-9) & (query <= tab.lambda_max + 1e-9))))
    assert str(err.value) == (
        f"{outside} of 10002 wavelengths outside table range "
        f"[{tab.lambda_min}, {tab.lambda_max}] nm, the first nan nm"
    )
    with pytest.raises(ValueError, match=r"^1 of 1 wavelengths .*, the first 3000\.0 nm$"):
        tab.n_group(3000.0)
