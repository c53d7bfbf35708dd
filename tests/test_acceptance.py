"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with ``pytest -s`` to watch).

Tolerances are fixed here, not tuned: quoted laboratory values act as model
targets with their stated bands, exact identities at solver precision.
"""

import json
import math
import time

import numpy as np
from scipy.signal import find_peaks

from _oracles import slab_modes
from twinsource import hom
from twinsource.cli import EXIT_OK, main as cli_main
from twinsource.efficiency import CavityParams, DetectionChain, enhancement_factor, expected_counts
from twinsource.layers import TE
from twinsource.materials import Composition, refractive_index
from twinsource.modes import solve_planar
from twinsource.phasematch import INTERACTION_1, INTERACTION_2, interaction
from twinsource.spectra import bandwidth_estimates, fwhm, phase_matching_spectrum
from twinsource.stack import raw_response


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_quarter_wave_transfer_matrix_oracle():
    lam = 760.0
    n_h = refractive_index(Composition(0.35), lam)
    n_l = refractive_index(Composition(0.90), lam)
    n_sub = 3.5
    t_h, t_l = lam / (4 * n_h), lam / (4 * n_l)
    t0 = time.perf_counter()
    worst = 0.0
    for pairs in range(1, 42):
        _, _, refl, _ = raw_response(
            1.0, [n_h, n_l] * pairs, [t_h, t_l] * pairs, n_sub, lam, 0.0, TE
        )
        y = (n_h / n_l) ** (2 * pairs) * n_sub
        worst = max(worst, abs(refl - ((1 - y) / (1 + y)) ** 2))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "quarter-wave mirror oracle",
        worst < 1e-9 and elapsed < 1.0,
        f"max |dR| = {worst:.2e} over 1..41 pairs in {elapsed:.3f} s",
    )


def test_criterion_02_mode_solver_oracle():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    slabs = 20
    for _ in range(slabs):
        n_core = rng.uniform(1.6, 3.5)
        n_clad = max(n_core - rng.uniform(0.05, 0.8), 1.0)
        t = rng.uniform(200.0, 3000.0)
        lam = rng.uniform(1000.0, 1600.0)
        for pol in ("TE", "TM"):
            oracle = slab_modes(n_clad, n_core, n_clad, t, lam, pol)
            mine = solve_planar(n_clad, [(n_core, t)], n_clad, lam, pol)
            assert len(oracle) == len(mine)
            worst = max(worst, max(abs(a - b) for a, b in zip(mine, oracle)))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "slab mode-solver oracle",
        worst < 1e-8 and elapsed < 10.0,
        f"max |dn_eff| = {worst:.2e} over {slabs} random slabs x2 pol in {elapsed:.2f} s",
    )


def test_criterion_03_energy_momentum_identities(matcher):
    worst_energy = 0.0
    worst_momentum = 0.0
    for lambda_p in (755.0, 760.0, 765.0):
        k_p = 2.0 * math.pi / lambda_p
        for theta in (-1.0, 0.0, 0.37, 1.0, 2.0, 3.1, 4.0):
            for inter_id in (1, 2):
                p = matcher.solve_pair(theta, lambda_p, interaction(inter_id))
                energy = abs(
                    (1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm) * lambda_p - 1.0
                )
                worst_energy = max(worst_energy, energy)
                worst_momentum = max(worst_momentum, abs(p.momentum_residual) / k_p)
    _report(
        3,
        "energy/momentum identities",
        worst_energy < 1e-12 and worst_momentum < 1e-9,
        f"max energy residual {worst_energy:.2e} (rel), "
        f"max momentum residual {worst_momentum:.2e} k_p over 42 grid points",
    )


def test_criterion_04_degeneracy_structure(matcher):
    th1 = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    th2 = matcher.degeneracy_angle(INTERACTION_2, 760.0)
    p = matcher.solve_pair(th1, 760.0, INTERACTION_1)
    on_design = abs(p.lambda_s_nm - 2 * 760.0) < 1e-3 and abs(
        p.lambda_i_nm - 2 * 760.0
    ) < 1e-3
    antisym = abs(th1 + th2) < 1e-12
    # soft band: the reported operating point, dispersion-model caveat applies
    near_reported = abs(abs(th1) - 0.37) < 0.5
    _report(
        4,
        "degeneracy structure",
        on_design and antisym and near_reported,
        f"theta_deg = {th1:+.4f}/{th2:+.4f} deg (|th1|-0.37 = {abs(th1) - 0.37:+.3f}), "
        f"pair at degeneracy -> {p.lambda_s_nm:.4f}/{p.lambda_i_nm:.4f} nm",
    )


def test_criterion_05_bandwidth(matcher, paper_stack):
    t0 = time.perf_counter()
    theta = matcher.degeneracy_angle(INTERACTION_1, 760.0)
    sp = phase_matching_spectrum(
        theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher
    )
    width = fwhm(sp)
    counter, co = bandwidth_estimates(
        theta, 760.0, INTERACTION_1, 1.0, paper_stack, matcher=matcher
    )
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "phase-matching bandwidth",
        0.15 < width < 0.45 and co / counter >= 10.0 and elapsed < 10.0,
        f"FWHM(L=1mm) = {width:.4f} nm, copropagating/counterpropagating = "
        f"{co / counter:.0f}x in {elapsed:.2f} s",
    )


def test_criterion_06_enhancement_formula():
    hand = enhancement_factor(CavityParams(3.0, 100.0, 0.5, 0.5))
    exact = abs(hand - 3200.0 / (9.0 * math.pi)) < 1e-9
    f_grid = np.linspace(1.0, 400.0, 25)
    mono_f = all(
        enhancement_factor(CavityParams(3.0, b, 0.3, 0.1))
        > enhancement_factor(CavityParams(3.0, a, 0.3, 0.1))
        for a, b in zip(f_grid, f_grid[1:])
    )
    ratios = np.linspace(0.0, 3.0, 25)
    mono_r = all(
        enhancement_factor(CavityParams(3.0, 50.0, 0.3, rb * 0.3))
        < enhancement_factor(CavityParams(3.0, 50.0, 0.3, ra * 0.3))
        for ra, rb in zip(ratios, ratios[1:])
    )
    _report(
        6,
        "enhancement factor checks",
        exact and mono_f and mono_r,
        f"hand case -> {hand:.9f} (3200/9pi = {3200 / (9 * math.pi):.9f}), "
        f"monotone in F: {mono_f}, decreasing in T_down/T_up: {mono_r}",
    )


def test_criterion_07_visibility_model():
    v = hom.visibility_from_reflectivity(0.30)
    _report(
        7,
        "facet-reflection visibility",
        abs(v - 0.847) < 1e-3,
        f"V(R=0.30) = {v:.4f}",
    )


def test_criterion_08_hom_estimator_calibration():
    t0 = time.perf_counter()
    model = hom.DipModel(0.85, 1520.0, 0.53)
    chain = DetectionChain()
    positions = np.linspace(-5.0, 5.0, 25)

    budget = expected_counts(chain)
    dwell = 1e7
    mean_total = dwell * (
        budget.true_coincidence_rate_hz * hom.dip_value(model, positions)
        + budget.accidental_rate_hz
    )
    mean_acc = np.full_like(positions, dwell * budget.accidental_rate_hz)
    clean = hom.HomScan(
        positions,
        np.round(mean_total).astype(np.int64),
        np.round(mean_acc).astype(np.int64),
        dwell_s=dwell,
    )
    noiseless = hom.fit_dip(clean, 1520.0)
    round_trip = (
        abs(noiseless.visibility - 0.85) < 1e-6
        and abs(noiseless.delta_lambda_nm - 0.53) < 1e-6
    )

    vs, dls = [], []
    for seed in range(100):
        scan = hom.simulate_scan(model, chain, positions, 60.0, seed)
        fit = hom.fit_dip(scan, 1520.0)
        vs.append(fit.visibility)
        dls.append(fit.delta_lambda_nm)
    v_mean, dl_mean = float(np.mean(vs)), float(np.mean(dls))
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "HOM estimator calibration",
        round_trip
        and abs(v_mean - 0.85) < 0.03
        and abs(dl_mean - 0.53) < 0.05
        and elapsed < 60.0,
        f"noiseless exact: {round_trip}; 100 seeds -> V = {v_mean:.4f}, "
        f"dl = {dl_mean:.4f} nm in {elapsed:.1f} s",
    )


def test_criterion_09_count_budget():
    budget = expected_counts(DetectionChain())
    singles_ok = 400.0 / 2 <= budget.singles_rate_hz <= 400.0 * 2
    acc_ok = abs(budget.accidental_fraction - 0.14) <= 0.07
    _report(
        9,
        "detection count budget",
        singles_ok and acc_ok,
        f"singles = {budget.singles_rate_hz:.0f} /s (target 400 x2), "
        f"accidental fraction = {budget.accidental_fraction:.3f} (target 0.14 +/- 0.07)",
    )


def test_criterion_10_figure_reproduction_smoke(tmp_path):
    # tuning curves: X shape, four branches, deterministic
    t_dir1, t_dir2 = tmp_path / "t1", tmp_path / "t2"
    argv = ["tuning", "--theta-min", "-1", "--theta-max", "4", "--theta-step", "0.25", "--quiet"]
    assert cli_main(argv + ["--out", str(t_dir1)]) == EXIT_OK
    assert cli_main(argv + ["--out", str(t_dir2)]) == EXIT_OK
    deterministic = (t_dir1 / "tuning.csv").read_bytes() == (t_dir2 / "tuning.csv").read_bytes()
    rows = [
        ln.split(",")
        for ln in (t_dir1 / "tuning.csv").read_text().strip().splitlines()[1:]
    ]
    crossings = 0
    branches = 0
    for inter_id in ("1", "2"):
        sep = [float(r[2]) - float(r[3]) for r in rows if r[0] == inter_id]
        crossings += sum(1 for a, b in zip(sep, sep[1:]) if (a < 0) != (b < 0))
        branches += 2  # signal + idler columns per interaction
    x_shape = crossings == 2 and branches == 4

    # fluorescence: four peaks pairwise energy-matched to the pump
    s_dir = tmp_path / "spec"
    assert cli_main(
        ["spectrum", "--theta", "3.1", "--set", "pump.wavelength_nm=759.5",
         "--out", str(s_dir), "--quiet"]
    ) == EXIT_OK
    data = np.loadtxt(s_dir / "spectrum.csv", delimiter=",", skiprows=1)
    peaks, _ = find_peaks(data[:, 1], prominence=0.05)
    wls = data[peaks, 0]
    four_peaks = len(peaks) == 4 and all(
        abs((1 / wls[i] + 1 / wls[j]) - 1 / 759.5) < 2e-8
        for i, j in ((0, 3), (1, 2))
    )

    # HOM: simulate + fit (fixed seed), dip depth ~0.85, width ~1.9 mm
    h_dir = tmp_path / "hom"
    assert cli_main(["hom", "simulate", "--out", str(h_dir), "--quiet"]) == EXIT_OK
    assert cli_main(
        ["hom", "fit", "--scan", str(h_dir / "hom_scan.csv"), "--out", str(h_dir), "--quiet"]
    ) == EXIT_OK
    fit = json.loads((h_dir / "hom_fit.json").read_text())
    dip_ok = abs(fit["visibility"] - 0.85) < 0.10 and abs(fit["dip_fwhm_mm"] - 1.9) < 0.4

    _report(
        10,
        "figure-reproduction smoke",
        deterministic and x_shape and four_peaks and dip_ok,
        f"deterministic: {deterministic}; crossings = {crossings}; "
        f"peaks at {np.round(wls, 2).tolist() if len(wls) else '[]'}; "
        f"fit V = {fit['visibility']:.3f}, dip FWHM = {fit['dip_fwhm_mm']:.2f} mm",
    )
