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
from dataclasses import asdict, astuple, dataclass

from .errors import DivisionDomain, NonPhysicalInput
from .materials import LIGHT_SPEED_M_S, PLANCK_J_S


@dataclass(frozen=True)
class CavityParams:
    """Inputs of the enhancement formula."""

    n_mean: float
    finesse: float
    t_up: float
    t_down: float

    def __post_init__(self):
        if self.n_mean <= 1.0:
            raise NonPhysicalInput(f"mean effective index must exceed 1, got {self.n_mean}")
        if self.finesse <= 0:
            raise NonPhysicalInput(f"finesse must be positive, got {self.finesse}")
        for name, t in (("t_up", self.t_up), ("t_down", self.t_down)):
            if not (0.0 <= t <= 1.0):
                raise NonPhysicalInput(f"{name} must lie in [0, 1], got {t}")


def enhancement_factor(p: CavityParams) -> float:
    """Cavity-to-bare conversion-efficiency ratio."""
    if p.t_up == 0.0:
        raise DivisionDomain("t_up = 0 leaves the mirror ratio undefined")
    n = p.n_mean
    return (
        2.0
        * (1.0 + n) ** 2
        / (math.pi * n)
        * p.finesse
        / (1.0 + abs(1.0 + p.t_down / p.t_up))
    )


@dataclass(frozen=True)
class PumpPulse:
    """One pump pulse: peak power (W), duration (s), wavelength (nm)."""

    peak_power_w: float = 10.0
    duration_s: float = 150e-9
    wavelength_nm: float = 760.0

    def __post_init__(self):
        if self.peak_power_w < 0 or self.duration_s <= 0 or self.wavelength_nm <= 0:
            raise NonPhysicalInput("pulse power/duration/wavelength out of range")

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
    if not (0.0 <= eta < 1.0):
        raise NonPhysicalInput(f"conversion efficiency must be in [0, 1), got {eta}")
    return eta * pulse.photons_per_pulse


@dataclass(frozen=True)
class DetectionChain:
    """Bench parameters of the coincidence measurement."""

    pairs_per_pulse: float = 10.0
    selected_fraction: float = 0.5  # one of the two equal interactions kept
    pulse_rate_hz: float = 3000.0
    pulse_duration_s: float = 150e-9
    facet_transmission: float = 0.70
    objective_transmission: float = 0.70
    filter_transmission: float = 0.50
    splitter_transmission: float = 0.50
    detector_efficiency: float = 0.20
    dark_rate_hz: float = 20.0
    coincidence_window_s: float = 2e-9
    luminescence_per_nm_pulse: float = 0.05
    filter_bandwidth_nm: float = 10.0
    filter_center_nm: float = 1520.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise NonPhysicalInput("bench parameters must be finite numbers")
        probs = (
            self.selected_fraction,
            self.facet_transmission,
            self.objective_transmission,
            self.filter_transmission,
            self.splitter_transmission,
            self.detector_efficiency,
        )
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise NonPhysicalInput("transmissions/efficiencies must lie in [0, 1]")
        rates = (
            self.pairs_per_pulse,
            self.dark_rate_hz,
            self.luminescence_per_nm_pulse,
            self.filter_bandwidth_nm,
        )
        if any(r < 0 for r in rates):
            raise NonPhysicalInput("rates and counts must be non-negative")
        if not (
            self.pulse_rate_hz > 0 and self.pulse_duration_s > 0 and self.coincidence_window_s > 0
        ):
            raise NonPhysicalInput(
                "pulse rate, pulse duration and coincidence window must be positive"
            )
        if self.coincidence_window_s > self.pulse_duration_s:
            raise NonPhysicalInput("coincidence window wider than the pulse gate")

    @property
    def arm_transmission(self) -> float:
        """Source facet to detector input, one arm."""
        return (
            self.facet_transmission
            * self.objective_transmission
            * self.filter_transmission
            * self.splitter_transmission
        )


@dataclass(frozen=True)
class CountBudget:
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

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise OverflowError("count budget leaves the double range")

    def as_dict(self) -> dict:
        return asdict(self)


def expected_counts(chain: DetectionChain) -> CountBudget:
    """Singles rate per detector, true coincidence rate, accidental fraction.

    Probabilities are per pump pulse (one detection opportunity per pulse).
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
    return CountBudget(
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
