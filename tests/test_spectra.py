import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.signal import find_peaks

from _oracles import fluorescence_spectrum_per_branch, sinc2_masked_divide
from twinsource.errors import HalfMaxNotBracketed, KernelUnderResolved, NoPeak
from twinsource.phasematch import INTERACTION_1, INTERACTION_2, PhaseMatcher
from twinsource.spectra import (
    SINC2_HALF_MAX_ARG,
    Spectrum,
    _smooth,
    bandwidth_estimates,
    fluorescence_spectrum,
    fwhm,
    phase_matching_intensity,
    phase_matching_spectrum,
    sinc2,
)
from twinsource.stack import TE, TM

PIN_SINC_FWHM_NM = 0.3157  # L = 1 mm at the interaction-1 degeneracy, frozen


def test_sinc2_basics():
    with warnings.catch_warnings():  # any warning fails here, not only a RuntimeWarning
        warnings.simplefilter("error")
        assert sinc2(0.0) == sinc2(-0.0) == sinc2(np.array(-0.0)) == 1.0
        y = sinc2(np.array([-1.0, 0.0, -0.0, 1.0]))
        assert y[1] == y[2] == 1.0 and y[0] == y[3] < 1.0
    for x in (0.0, -0.0, 0.5, np.float64(0.5), np.array(0.0), np.array(-2.0)):
        assert type(sinc2(x)) is float
    assert sinc2(math.pi) == pytest.approx(0.0, abs=1e-30)
    x = np.linspace(-8, 8, 40001)
    y = sinc2(x)
    half = y >= 0.5
    width = x[half].max() - x[half].min()
    assert width == pytest.approx(2 * SINC2_HALF_MAX_ARG, abs=2 * (x[1] - x[0]))


@pytest.mark.dispatch
def test_sinc2_is_the_masked_divide(box_matcher):
    """Dispatch: sin follows numpy's SIMD loop; both sides take the same sin."""
    # the mismatch arguments of a real spectrum grid, and the grid's exact zeros
    for inter in (INTERACTION_1, INTERACTION_2):
        lam_s = box_matcher.solve_pair(3.1, 759.5, inter).lambda_s_nm
        grid = lam_s - 5.0 + 0.005 * np.arange(2001)
        x = box_matcher.delta_k(grid, 3.1, 759.5, inter) * 1e6 / 2.0
        x = np.concatenate((x, [0.0, -0.0]))
        assert sinc2(x).tobytes() == sinc2_masked_divide(x).tobytes()
        assert [sinc2(v) for v in x[::97].tolist()] == sinc2_masked_divide(x[::97]).tolist()


def _table_bytes(tab):
    return [a.tobytes() for a in (tab._c, tab._cols, tab.knots_nm, tab.knot_n_eff)]


def test_lookups_write_into_no_shared_array(box_matcher, paper_stack):
    # an array lookup evaluates in the arrays it takes: the caller's query and
    # the table's arrays come out of lookups and whole spectra as they went in
    fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, matcher=box_matcher)
    tables = [box_matcher._tables[pol] for pol in (TE, TM)]
    held = [_table_bytes(tab) for tab in tables]
    lams = np.linspace(1500.0, 1540.0, 101)
    queries = [lams, lams[::3], np.array(1520.3), lams.reshape(1, -1)]
    before = [q.tobytes() for q in queries]
    for tab in tables:
        for query in queries:
            assert tab.n_eff(query).shape == tab.n_group(query).shape == query.shape
        assert type(tab.n_eff(1520.3)) is type(tab.n_group(1520.3)) is float
    sp = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, matcher=box_matcher)
    again = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, matcher=box_matcher)
    assert [q.tobytes() for q in queries] == before
    assert [_table_bytes(tab) for tab in tables] == held
    assert sp.intensity.tobytes() == again.intensity.tobytes()


def test_peak_intensity_is_unity_at_phase_matching(matcher, paper_stack):
    p = matcher.solve_pair(0.9, 760.0, INTERACTION_1)
    val = phase_matching_intensity(
        p.lambda_s_nm, 0.9, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_first_zeros_at_plus_minus_pi(matcher, paper_stack):
    length_nm = 1e6
    p = matcher.solve_pair(0.9, 760.0, INTERACTION_1)
    for side in (+1.0, -1.0):
        lam_zero = brentq(
            lambda lam: matcher.delta_k(lam, 0.9, 760.0, INTERACTION_1) * length_nm / 2
            - side * math.pi,
            p.lambda_s_nm - 2.0,
            p.lambda_s_nm + 2.0,
            xtol=1e-12,
        )
        val = phase_matching_intensity(
            lam_zero, 0.9, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher
        )
        assert val < 1e-18


def test_phase_matching_bandwidth_one_millimetre(matcher, paper_stack):
    theta = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    sp = phase_matching_spectrum(theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher)
    width = fwhm(sp)
    assert 0.15 < width < 0.45
    assert width == pytest.approx(PIN_SINC_FWHM_NM, abs=5e-3)


def test_bandwidth_scales_inversely_with_length(matcher, paper_stack):
    theta = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    w1 = fwhm(phase_matching_spectrum(theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher))
    w2 = fwhm(
        phase_matching_spectrum(
            theta, 760.0, INTERACTION_1, 2.0, paper_stack, half_span_nm=2.5, matcher=matcher
        )
    )
    assert w2 == pytest.approx(w1 / 2, rel=1e-3)


def test_counterpropagating_narrowness(matcher, paper_stack):
    theta = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    counter, co = bandwidth_estimates(theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher)
    assert co / counter >= 10.0
    sp = phase_matching_spectrum(theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher)
    assert fwhm(sp) == pytest.approx(counter, rel=5e-3)


# --- convolution -------------------------------------------------------------


def _gaussian_spectrum(fwhm_nm, step=0.005, span=8.0, center=1520.0):
    lam = np.arange(center - span, center + span + step / 2, step)
    inten = np.exp(-4 * math.log(2) * ((lam - center) / fwhm_nm) ** 2)
    return Spectrum(lam, inten)


def smoothed(sp, fwhm_nm):
    """``_smooth`` (the smoothing ``fluorescence_spectrum`` applies) as a Spectrum, for ``fwhm``."""
    return Spectrum(sp.wavelength_nm, _smooth(sp.intensity, sp.step_nm, fwhm_nm))


def test_delta_like_kernel_is_identity():
    sp = _gaussian_spectrum(1.0)
    out = smoothed(sp, 2 * sp.step_nm)
    assert np.max(np.abs(out.intensity - sp.intensity)) < 0.02


def test_gaussian_convolution_widths_add_in_quadrature():
    sp = _gaussian_spectrum(0.8)
    out = smoothed(sp, 0.6)
    assert fwhm(out) == pytest.approx(math.hypot(0.8, 0.6), rel=1e-2)


def test_convolution_preserves_integral_and_positivity():
    sp = _gaussian_spectrum(0.5)
    out = smoothed(sp, 0.3)
    assert out.intensity.sum() == pytest.approx(sp.intensity.sum(), rel=1e-3)
    assert np.all(out.intensity >= 0)


def test_convolved_width_not_below_factors(matcher, paper_stack):
    theta = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    sp = phase_matching_spectrum(theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher)
    out = smoothed(smoothed(sp, 0.3), 0.1)
    width = fwhm(out)
    assert width >= fwhm(sp)
    assert width >= 0.3
    # measured-linewidth scale check: pump and monochromator blur the 1 mm line
    assert abs(width - 0.53) < 0.15


def test_kernel_longer_than_the_grid_keeps_the_grid():
    # "same" convolution on the spectrum's own points, as a full convolution
    # cut at the kernel's centre, also when 6 sigma of kernel outgrow the
    # grid (the kernel then ends at the grid's span)
    for fwhm_nm in (0.6, 3.0, 40.0, 1e300):
        sp = _gaussian_spectrum(0.5)
        out = smoothed(sp, fwhm_nm)
        assert np.array_equal(out.wavelength_nm, sp.wavelength_nm)
        sigma = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        half = min(math.ceil(6.0 * sigma / sp.step_nm), sp.intensity.size - 1)
        k = np.exp(-0.5 * (sp.step_nm * np.arange(-half, half + 1) / sigma) ** 2)
        full = np.convolve(sp.intensity, k / k.sum())
        assert np.allclose(out.intensity, full[half : half + sp.intensity.size], rtol=1e-12)


def test_kernel_under_resolved():
    sp = _gaussian_spectrum(1.0, step=0.05)
    with pytest.raises(KernelUnderResolved):
        smoothed(sp, 0.05)


# --- fluorescence ------------------------------------------------------------


def test_fluorescence_four_peaks(matcher, paper_stack):
    sp = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, noise_floor=0.01, matcher=matcher)
    peaks, _ = find_peaks(sp.intensity, prominence=0.05)
    assert len(peaks) == 4
    wls = sp.wavelength_nm[peaks]
    # pairwise energy match within the grid resolution
    for a, b in ((wls[0], wls[3]), (wls[1], wls[2])):
        assert 1.0 / a + 1.0 / b == pytest.approx(1.0 / 759.5, abs=2e-8)
    # long-wavelength peaks collected after a facet bounce
    assert sp.intensity[peaks[2]] < 0.5 * sp.intensity[peaks[0]]


@pytest.mark.dispatch
def test_fluorescence_spectrum_is_the_per_branch_spectrum(box_matcher, paper_stack, pair_draws):
    """Dispatch: exp and np.convolve give other last bits without AVX-512; both sides share a path."""
    # six shared lookups and two Spectrum objects give the floats of eight
    # per-branch lookups and five Spectrum objects, bit for bit
    for theta, lambda_p in pair_draws:
        got = fluorescence_spectrum(theta, lambda_p, 1.0, paper_stack, matcher=box_matcher)
        want = fluorescence_spectrum_per_branch(theta, lambda_p, 1.0, box_matcher)
        assert got.wavelength_nm.tobytes() == want.wavelength_nm.tobytes()
        assert got.intensity.tobytes() == want.intensity.tobytes()
        assert repr(got.metadata) == repr(want.metadata)
    one = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, interactions=(2,), matcher=box_matcher)
    want = fluorescence_spectrum_per_branch(3.1, 759.5, 1.0, box_matcher, interactions=(2,))
    assert one.intensity.tobytes() == want.intensity.tobytes()


@pytest.mark.dispatch
def test_wide_spectrum_reserves_its_tables_before_the_first_lookup(paper_stack):
    """Dispatch: exp and np.convolve give other last bits without AVX-512; both sides share a path."""
    # a half span past the solves' reserved brackets and their pad grows the
    # tables; they grow before the first lookup, so each shared lookup is the
    # one a per-branch lookup makes, and a fresh matcher answers as a grown one
    m = PhaseMatcher(paper_stack)
    for inter in (INTERACTION_1, INTERACTION_2):
        m.solve_pair(3.1, 759.5, inter)
    reserved = {pol: (t.lambda_min, t.lambda_max) for pol, t in m._tables.items()}
    kw = dict(half_span_nm=200.0, step_nm=0.05)
    first = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, matcher=m, **kw)
    grown = {pol: (t.lambda_min, t.lambda_max) for pol, t in m._tables.items()}
    assert all(grown[pol][1] > reserved[pol][1] for pol in reserved)
    again = fluorescence_spectrum(3.1, 759.5, 1.0, paper_stack, matcher=m, **kw)
    want = fluorescence_spectrum_per_branch(3.1, 759.5, 1.0, m, **kw)
    assert {pol: (t.lambda_min, t.lambda_max) for pol, t in m._tables.items()} == grown
    assert first.intensity.tobytes() == again.intensity.tobytes() == want.intensity.tobytes()


def test_fluorescence_single_interaction_two_peaks(matcher, paper_stack):
    sp = fluorescence_spectrum(
        3.1, 759.5, 1.0, paper_stack, interactions=(2,), matcher=matcher
    )
    peaks, _ = find_peaks(sp.intensity, prominence=0.05)
    assert len(peaks) == 2


def test_fluorescence_merged_at_degeneracy(matcher, paper_stack):
    th1 = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    sp = fluorescence_spectrum(
        th1, 760.0, 1.0, paper_stack, interactions=(1,), matcher=matcher
    )
    peaks, _ = find_peaks(sp.intensity, prominence=0.05)
    assert len(peaks) == 1  # signal and idler merge at 2 lambda_p


def test_spectrum_grid_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0, 2.5]), np.ones(3))
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0, 3.0]), np.array([1.0, -0.1, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectrum_refuses_intensities_that_are_not_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, 0.0]))


_LENGTH_USERS = {
    "phase_matching_intensity": lambda m, s, length: phase_matching_intensity(
        1500.0, 1.0, 760.0, INTERACTION_1, length, s, matcher=m
    ),
    "phase_matching_spectrum": lambda m, s, length: phase_matching_spectrum(
        1.0, 760.0, INTERACTION_1, length, s, matcher=m
    ),
    "fluorescence_spectrum": lambda m, s, length: fluorescence_spectrum(
        1.0, 760.0, length, s, matcher=m
    ),
    "bandwidth_estimates": lambda m, s, length: bandwidth_estimates(
        1.0, 760.0, INTERACTION_1, length, s, matcher=m
    ),
}


@pytest.mark.parametrize("user", sorted(_LENGTH_USERS))
def test_sample_length_must_be_finite_and_positive(matcher, paper_stack, user):
    for length in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sample length"):
            _LENGTH_USERS[user](matcher, paper_stack, length)


def test_kernel_width_must_be_finite_and_not_negative(matcher, paper_stack):
    for kernel in ("pump_fwhm_nm", "mono_fwhm_nm"):
        for width in (-0.3, math.nan, math.inf):
            with pytest.raises(ValueError, match="kernel FWHM"):
                fluorescence_spectrum(
                    1.0, 760.0, 1.0, paper_stack, matcher=matcher, **{kernel: width}
                )
    # a zero width still means no kernel
    sp = fluorescence_spectrum(1.0, 760.0, 1.0, paper_stack, pump_fwhm_nm=0.0, matcher=matcher)
    assert sp.metadata["kernels"] == [{"shape": "gaussian", "fwhm_nm": 0.1}]


# --- width extraction ---------------------------------------------------------


def test_fwhm_of_exact_gaussian():
    sp = _gaussian_spectrum(2.0, step=0.01)
    assert fwhm(sp) == pytest.approx(2.0, rel=5e-3)


def test_fwhm_rejects_twin_peaks():
    lam = np.arange(0.0, 10.0, 0.01) + 1500.0
    twin = np.exp(-(((lam - 1502.0) / 0.5) ** 2)) + np.exp(-(((lam - 1508.0) / 0.5) ** 2))
    with pytest.raises(NoPeak):
        fwhm(Spectrum(lam, twin))


def test_fwhm_requires_bracketing():
    lam = np.arange(0.0, 3.0, 0.01) + 1500.0
    truncated = np.exp(-(((lam - 1503.0) / 2.0) ** 2))  # peak at the right edge
    with pytest.raises(HalfMaxNotBracketed):
        fwhm(Spectrum(lam, truncated))


# --- argument rules (errors.require) -----------------------------------------------


_INSTRUMENT = [
    ("noise_floor", math.nan, "noise floor"),
    ("noise_floor", math.inf, "noise floor"),
    ("noise_floor", -0.1, "noise floor"),
    ("long_peak_attenuation", 5.0, "long-peak attenuation"),
    ("long_peak_attenuation", -0.3, "long-peak attenuation"),
    ("long_peak_attenuation", math.nan, "long-peak attenuation"),
    ("half_span_nm", -1.0, "half span"),
    ("half_span_nm", math.nan, "half span"),
    ("step_nm", 0.0, "grid step"),
    ("step_nm", -0.005, "grid step"),
]


@pytest.mark.parametrize(
    "key, value, name", _INSTRUMENT, ids=[f"{k}={v}" for k, v, _ in _INSTRUMENT]
)
def test_fluorescence_spectrum_names_an_instrument_argument_out_of_its_rule(
    matcher, paper_stack, key, value, name
):
    # NaN and inf noise floors were refused only by Spectrum's final check,
    # an attenuation of 5 or -0.3 was taken, and a half span of -1 gave a
    # grid that stops 1 nm inside the outer peaks
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
        fluorescence_spectrum(1.0, 760.0, 1.0, paper_stack, matcher=matcher, **{key: value})


@pytest.mark.parametrize("key, name", [("half_span_nm", "half span"), ("step_nm", "grid step")])
def test_phase_matching_spectrum_names_its_grid_argument(matcher, paper_stack, key, name):
    # a half span of -1 used to fail in numpy: "zero-size array to reduction operation"
    with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0, got -1.0$"):
        phase_matching_spectrum(
            1.0, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher, **{key: -1.0}
        )
