"""Conversion-efficiency enhancement and the detection-chain count budget.

The vertical microcavity multiplies the pair-conversion efficiency by

    2 (1 + n)^2 / (pi n) * F / (1 + |1 + T_down / T_up|)

with n the mean effective index of the guided modes, F the cavity finesse
and T_up/T_down the mirror transmittances.

The count model follows the actual bench: a pulsed pump (3 kHz, 150 ns)
generates a mean number of pairs per pulse, equally split between the two
interactions of which one is selected; each photon then runs the gauntlet of
facet, objective, filter, beam splitter and detector. True pairs arrive
simultaneously (well inside any coincidence window) while uncorrelated
clicks are spread over the pulse, so accidentals pick up the extra factor
2 tau_c / tau_pulse of the coincidence electronics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BELOW_ONE, FRACTION, NON_NEGATIVE, NUMBER, POSITIVE, number, require
from .errors import DivisionDomain, NonPhysicalInput, record
from .materials import LIGHT_SPEED_M_S, PLANCK_J_S


def _check(obj, rules: dict) -> None:
    """NonPhysicalInput unless each field of ``obj`` named in ``rules`` passes its rule."""
    for name, rule in rules.items():
        require(getattr(obj, name), rule, name, NonPhysicalInput)


class CavityParams(record("CavityParams", "n_mean finesse t_up t_down")):
    """Inputs of the enhancement formula."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n_mean = (lambda v: number(v) and v > 1.0, "a finite number > 1")
        _check(self, {"n_mean": n_mean, "finesse": POSITIVE, "t_up": FRACTION, "t_down": FRACTION})
        return self


def enhancement_factor(p: CavityParams) -> float:
    """Cavity-to-bare conversion-efficiency ratio; OverflowError when it
    leaves the double range."""
    if p.t_up == 0.0:
        raise DivisionDomain("t_up = 0 leaves the mirror ratio undefined")
    n, mirrors = p.n_mean, 1.0 + abs(1.0 + p.t_down / p.t_up)
    try:
        factor = 2.0 * (1.0 + n) ** 2 / (math.pi * n) * p.finesse / mirrors
    except OverflowError:  # (1 + n) ** 2 raises where a product gives inf
        factor = math.inf
    if not math.isfinite(factor):
        raise OverflowError("enhancement factor leaves the double range")
    return factor


class PumpPulse(record("PumpPulse", "peak_power_w duration_s wavelength_nm")):
    """One pump pulse: peak power (W), duration (s), wavelength (nm)."""

    __slots__ = ()

    def __new__(cls, peak_power_w=10.0, duration_s=150e-9, wavelength_nm=760.0):
        self = tuple.__new__(cls, (peak_power_w, duration_s, wavelength_nm))
        _check(self, dict(peak_power_w=NON_NEGATIVE, duration_s=POSITIVE, wavelength_nm=POSITIVE))
        return self

    @property
    def energy_j(self) -> float:
        return self.peak_power_w * self.duration_s

    @property
    def photons_per_pulse(self) -> float:
        return self.energy_j / (PLANCK_J_S * LIGHT_SPEED_M_S / (self.wavelength_nm * 1e-9))


def brightness(pulse: PumpPulse, eta: float) -> float:
    """Mean generated pairs per pulse for a pair-conversion efficiency eta.

    eta is the pair count divided by the pump photon count; the measured
    pairs-per-pulse of a real device also folds in how much of the ridge the
    cylindrical-lens focus actually illuminates, so the two numbers are kept
    as independent inputs.
    """
    require(eta, BELOW_ONE, "conversion efficiency", NonPhysicalInput)
    return eta * pulse.photons_per_pulse


_CHAIN = {  # each DetectionChain field, in order: its default and its rule
    "pairs_per_pulse": (10.0, NON_NEGATIVE),
    "selected_fraction": (0.5, FRACTION),  # one of the two equal interactions kept
    "pulse_rate_hz": (3000.0, POSITIVE),
    "pulse_duration_s": (150e-9, POSITIVE),
    "facet_transmission": (0.70, FRACTION),
    "objective_transmission": (0.70, FRACTION),
    "filter_transmission": (0.50, FRACTION),
    "splitter_transmission": (0.50, FRACTION),
    "detector_efficiency": (0.20, FRACTION),
    "dark_rate_hz": (20.0, NON_NEGATIVE),
    "coincidence_window_s": (2e-9, POSITIVE),
    "luminescence_per_nm_pulse": (0.05, NON_NEGATIVE),
    "filter_bandwidth_nm": (10.0, NON_NEGATIVE),
    "filter_center_nm": (1520.0, NUMBER),
}


class DetectionChain(
    record("DetectionChain", _CHAIN, defaults=[default for default, _ in _CHAIN.values()])
):
    """Bench parameters of the coincidence measurement (defaults in ``_CHAIN``)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check(self, {name: rule for name, (_, rule) in _CHAIN.items()})
        if self.coincidence_window_s > self.pulse_duration_s:
            raise NonPhysicalInput("coincidence window wider than the pulse gate")
        return self

    @property
    def arm_transmission(self) -> float:
        """Source facet to detector input, one arm."""
        return (
            self.facet_transmission
            * self.objective_transmission
            * self.filter_transmission
            * self.splitter_transmission
        )


class CountBudget(NamedTuple):
    """Every intermediate factor of the expected-count calculation."""

    singles_rate_hz: float
    true_coincidence_rate_hz: float
    accidental_rate_hz: float
    accidental_fraction: float
    photon_detection_prob: float
    pair_click_prob: float
    luminescence_click_prob: float
    dark_click_prob: float
    single_click_prob: float
    coincidence_duty: float

    def as_dict(self) -> dict:
        return self._asdict()


def expected_counts(chain: DetectionChain) -> CountBudget:
    """Singles rate per detector, true coincidence rate, accidental fraction.

    Probabilities are per pump pulse (one detection opportunity per pulse).
    OverflowError when a factor leaves the double range.
    """
    p_det = chain.arm_transmission * chain.detector_efficiency
    pairs_selected = chain.pairs_per_pulse * chain.selected_fraction
    p_pair = pairs_selected * p_det
    p_lum = chain.luminescence_per_nm_pulse * chain.filter_bandwidth_nm * p_det
    p_dark = chain.dark_rate_hz / chain.pulse_rate_hz
    p_single = p_pair + p_lum + p_dark

    p_true = pairs_selected * p_det * p_det
    duty = 2.0 * chain.coincidence_window_s / chain.pulse_duration_s
    p_acc = p_single * p_single * duty

    rate = chain.pulse_rate_hz
    total_coinc = p_true + p_acc
    budget = CountBudget(
        singles_rate_hz=rate * p_single,
        true_coincidence_rate_hz=rate * p_true,
        accidental_rate_hz=rate * p_acc,
        accidental_fraction=(p_acc / total_coinc) if total_coinc > 0 else 0.0,
        photon_detection_prob=p_det,
        pair_click_prob=p_pair,
        luminescence_click_prob=p_lum,
        dark_click_prob=p_dark,
        single_click_prob=p_single,
        coincidence_duty=duty,
    )
    if not all(map(math.isfinite, budget)):
        raise OverflowError("count budget leaves the double range")
    return budget
