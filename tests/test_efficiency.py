import math

import pytest
from hypothesis import given, strategies as st

from twinsource.efficiency import (
    CavityParams,
    CountBudget,
    DetectionChain,
    PumpPulse,
    brightness,
    enhancement_factor,
    expected_counts,
)
from twinsource.errors import DivisionDomain, NonPhysicalInput


def test_hand_evaluated_reference_case():
    p = CavityParams(n_mean=3.0, finesse=100.0, t_up=0.5, t_down=0.5)
    assert enhancement_factor(p) == pytest.approx(3200.0 / (9.0 * math.pi), abs=1e-9)


def test_perfect_bottom_mirror_limit():
    n, f = 3.2, 40.0
    p = CavityParams(n_mean=n, finesse=f, t_up=0.3, t_down=0.0)
    assert enhancement_factor(p) == pytest.approx((1 + n) ** 2 * f / (math.pi * n), rel=1e-12)


def test_linear_in_finesse():
    base = CavityParams(3.1, 25.0, 0.2, 0.01)
    doubled = CavityParams(3.1, 50.0, 0.2, 0.01)
    assert enhancement_factor(doubled) == pytest.approx(2 * enhancement_factor(base), rel=1e-12)


@given(
    n=st.floats(1.5, 4.0),
    f1=st.floats(1.0, 500.0),
    f2=st.floats(1.0, 500.0),
    t_up=st.floats(0.01, 1.0),
    t_down=st.floats(0.0, 1.0),
)
def test_monotone_increasing_in_finesse(n, f1, f2, t_up, t_down):
    lo, hi = sorted((f1, f2))
    a = enhancement_factor(CavityParams(n, lo, t_up, t_down))
    b = enhancement_factor(CavityParams(n, hi, t_up, t_down))
    assert (b >= a) == (hi >= lo)


@given(
    n=st.floats(1.5, 4.0),
    f=st.floats(1.0, 500.0),
    t_up=st.floats(0.01, 1.0),
    r1=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 1.0),
)
def test_monotone_decreasing_in_mirror_ratio(n, f, t_up, r1, r2):
    lo, hi = sorted((r1, r2))
    a = enhancement_factor(CavityParams(n, f, t_up, lo * t_up))
    b = enhancement_factor(CavityParams(n, f, t_up, hi * t_up))
    assert b <= a


def test_division_domain_and_invariants():
    with pytest.raises(DivisionDomain):
        enhancement_factor(CavityParams(3.0, 10.0, 0.0, 0.1))
    with pytest.raises(NonPhysicalInput):
        CavityParams(0.9, 10.0, 0.5, 0.5)
    with pytest.raises(NonPhysicalInput):
        CavityParams(3.0, -1.0, 0.5, 0.5)
    with pytest.raises(NonPhysicalInput):
        CavityParams(3.0, 10.0, 1.5, 0.5)


# --- brightness ---------------------------------------------------------------


def test_pump_photon_number():
    # 10 W peak, 150 ns, 760 nm
    assert PumpPulse().photons_per_pulse == pytest.approx(5.74e12, rel=0.01)


def test_brightness_order_of_magnitude():
    pairs = brightness(PumpPulse(), 1e-11)
    assert pairs == pytest.approx(57.4, rel=0.01)
    # reported operating point: ~10 pairs per pulse with the focus covering
    # 0.65 mm of the ridge; the conversion-efficiency route lands within x10
    illuminated_fraction = 0.65
    assert 10.0 / 10 < pairs * illuminated_fraction < 10.0 * 10


def test_brightness_linearities():
    assert brightness(PumpPulse(), 0.0) == 0.0
    full = brightness(PumpPulse(), 1e-11)
    halved = brightness(PumpPulse(duration_s=75e-9), 1e-11)
    assert halved == pytest.approx(full / 2, rel=1e-12)


def test_brightness_rejects_nonphysical():
    with pytest.raises(NonPhysicalInput):
        brightness(PumpPulse(), 1.2)
    with pytest.raises(NonPhysicalInput):
        brightness(PumpPulse(), -1e-3)
    with pytest.raises(NonPhysicalInput):
        PumpPulse(peak_power_w=-1.0)


# --- count budget ---------------------------------------------------------------


def test_singles_rate_matches_bench_scale():
    budget = expected_counts(DetectionChain())
    assert 400.0 / 2 < budget.singles_rate_hz < 400.0 * 2


def test_interferometer_transmission_is_itemized():
    chain = DetectionChain()
    assert chain.arm_transmission == pytest.approx(0.1225, abs=1e-12)  # ~12.5%


def test_zero_transmission_leaves_only_darks():
    chain = DetectionChain(facet_transmission=0.0)
    budget = expected_counts(chain)
    assert budget.singles_rate_hz == pytest.approx(chain.dark_rate_hz, abs=1e-12)


def test_accidental_fraction_scale():
    budget = expected_counts(DetectionChain())
    assert abs(budget.accidental_fraction - 0.14) < 0.07


def test_budget_monotone_in_each_transmission():
    default = DetectionChain()
    base = expected_counts(default)
    for field in (
        "facet_transmission",
        "objective_transmission",
        "filter_transmission",
        "splitter_transmission",
        "detector_efficiency",
    ):
        degraded = expected_counts(
            DetectionChain(**{field: 0.5 * getattr(default, field)})
        )
        assert degraded.singles_rate_hz < base.singles_rate_hz
        assert degraded.true_coincidence_rate_hz < base.true_coincidence_rate_hz


def test_budget_surfaces_intermediate_factors():
    budget = expected_counts(DetectionChain())
    d = budget.as_dict()
    assert isinstance(budget, CountBudget)
    for key in ("photon_detection_prob", "pair_click_prob", "dark_click_prob",
                "coincidence_duty", "single_click_prob"):
        assert key in d


def test_chain_validation():
    with pytest.raises(NonPhysicalInput):
        DetectionChain(detector_efficiency=1.2)
    with pytest.raises(NonPhysicalInput):
        DetectionChain(dark_rate_hz=-5.0)
    with pytest.raises(NonPhysicalInput):
        DetectionChain(pulse_rate_hz=0.0)  # dark clicks per pulse divide by it
    with pytest.raises(NonPhysicalInput):
        DetectionChain(coincidence_window_s=1e-6)  # wider than the pulse
