"""Time the package's kernels one by one, on the nominal device.

Usage::

    PYTHONPATH=src python tools/kernel_times.py [--repeat N]

Each kernel is timed N times (default 15), each time over a batch of calls
sized to take ~20 ms, and its best per-call time is printed in microseconds
as one JSON object, kernels in the order below. These are the layers a
README command spends its compute in, so a change to one of them shows here
before it shows in a whole command:

dispersion_1       the nominal stack's fractions in one pass, at one wavelength
dispersion_801     the same pass over 801 wavelengths
stack_response_1   one-wavelength response (760.3 nm, 1 deg, TE)
stack_response_801 801-point response sweep, 740-780 nm
core_intensity_2   core intensity at two wavelengths
find_resonance     the nominal resonance search, 740-780 nm
te_table_build     one TE effective-index table, 1330-1710 nm
solve_pair         one pair solve (3.1 deg, 759.5 nm, interaction 1), tables warm
fit_dip            one HOM dip fit of the default simulated scan

The package is the one PYTHONPATH finds, so the same script times any
checkout. Times are wall-clock on a shared host: compare two trees by
alternating runs, not by one run each.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def _kernels():
    from twinsource import config, hom, modes, phasematch, stack

    cfg = config.default_config()
    model = config.dispersion_model(cfg)
    device = config.build_stack(cfg)
    xs = device._plan.xs
    sweep = np.linspace(740.0, 780.0, 801)
    two = np.array([760.0, 760.1])
    matcher = phasematch.PhaseMatcher(device, model)
    matcher.solve_pair(3.1, 759.5, phasematch.INTERACTION_1)  # builds both tables
    hcfg = cfg["hom"]
    dip = hom.DipModel(
        visibility=config.hom_visibility(cfg),
        wavelength_nm=float(hcfg["degeneracy_wavelength_nm"]),
        delta_lambda_nm=float(hcfg["delta_lambda_nm"]),
    )
    positions = np.linspace(-hcfg["scan_half_span_mm"], hcfg["scan_half_span_mm"], hcfg["scan_points"])
    scan = hom.simulate_scan(
        dip, config.build_detection_chain(cfg), positions, float(hcfg["dwell_s"]), cfg["seed"]
    )
    return {
        "dispersion_1": lambda: model.evaluate_many(xs, 760.3),
        "dispersion_801": lambda: model.evaluate_many(xs, sweep),
        "stack_response_1": lambda: stack.stack_response(device, 760.3, 1.0, "TE", model),
        "stack_response_801": lambda: stack.stack_response(device, sweep, 0.0, "TE", model),
        "core_intensity_2": lambda: stack.core_intensity(device, two, 0.0, "TE", model),
        "find_resonance": lambda: stack.find_resonance(device, (740.0, 780.0), 0.0, "TE", model),
        "te_table_build": lambda: modes.EffectiveIndexTable(device, "TE", 1330.0, 1710.0, model),
        "solve_pair": lambda: matcher.solve_pair(3.1, 759.5, phasematch.INTERACTION_1),
        "fit_dip": lambda: hom.fit_dip(scan, dip.wavelength_nm),
    }


def _best_us(call, repeat: int) -> float:
    """Best per-call time over ``repeat`` batches, each batch ~20 ms long."""
    start = time.perf_counter()
    call()  # warm: caches, compiled float programs
    once = time.perf_counter() - start
    batch = max(1, int(0.02 / max(once, 1e-9)))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        best = min(best, (time.perf_counter() - start) / batch)
    return round(best * 1e6, 2)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=15, help="batches per kernel (default 15)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    times = {name: _best_us(call, args.repeat) for name, call in _kernels().items()}
    print(json.dumps(times, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
