"""twinsource benchmark: four seeded workloads, checked outputs, end-to-end
metrics untraced and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is used from ``src/``
(not installed). Every workload runs in fresh interpreters started here, one
at a time, with BLAS/OpenMP pinned to one thread. ``setup_s`` is the median of
three set-ups, each timed from process start to the worker's ready line.
End-to-end times and rates are adjusted to a reference host speed with the
probe in probe.py; the raw values are printed beside them. The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists (end-to-end untraced, per-layer traced). The
lines before it print every metric by name and unit. Scratch files go to
``.perfbench_tmp/`` in the checkout and are removed at exit. perfbench/
DESIGN.json records the workloads, metrics, predictions and baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}

# every end-to-end metric the runner prints; BENCHMARK.json gates a subset
E2E_UNITS = {
    "setup_s": "s",
    "stack_cmd_s": "s",
    "tuning_cmd_s": "s",
    "spectrum_cmd_s": "s",
    "enhancement_cmd_s": "s",
    "light_cmd_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    return {**os.environ, **THREAD_PINS, "PYTHONPATH": str(ROOT / "src")}


def start_worker(args: list[str]):
    """Start a worker; return it and its set-up time, raw and speed-adjusted.

    Set-up runs from process start to the worker's ready line, less the time
    the worker spent in its probe bursts.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
    )
    for line in proc.stdout:
        if line.startswith("@@READY "):
            ready = json.loads(line[len("@@READY ") :])
            raw = perf_counter() - t0 - ready["probe_spent_s"]
            return proc, (raw, raw * ready["speed"])
    proc.wait()
    raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode} before set-up ended")


def run_workload(name, seed, seconds, trace, tmp, perturb_ref=None) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--trace", str(trace), "--tmp", str(tmp / name)]
    args = common + (["--perturb-ref", perturb_ref] if perturb_ref else [])
    proc, setup = start_worker(args)
    result = None
    for line in proc.stdout:
        if line.startswith("@@RESULT "):
            result = json.loads(line[len("@@RESULT ") :])
    if proc.wait() != 0 or result is None:
        raise WorkerFailed(f"{name} worker exited {proc.returncode} without a result")
    samples = [setup]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            extra, t = start_worker(common + ["--setup-only"])
            extra.stdout.read()
            extra.wait()
            samples.append(t)
    result["setup_samples"] = samples
    return result


def e2e_metrics(result):
    """End-to-end metrics: (speed-adjusted, raw). Counts and memory are not adjusted."""
    adjusted, raw = dict(result["metrics"]), dict(result["raw"])
    for i, m in enumerate((raw, adjusted)):
        if m.get("op_tail"):
            m["op_tail_s"], m["op_tail_pct"] = m["op_tail"]
        m["setup_s"] = statistics.median(s[i] for s in result["setup_samples"])
        m["fail_frac"] = result["failed"] / result["attempted"]
        m["peak_rss_mb"] = result["peak_rss_mb"]
    return adjusted, raw


def print_block(name, seed, seconds, trace, result, metrics, raw=None):
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
    print("   threads: " + " ".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    if trace:
        for key in sorted(metrics):
            print(f"   {key:30s} {metrics[key]!r}")
    else:
        print(f"   host probe median {result['probe_s']:.6f} s, speed factor {result['speed']:.4f}; "
              "times and rates are adjusted to the reference host speed, raw in brackets")
        for key, unit in E2E_UNITS.items():
            if key not in metrics:
                if key == "op_tail_s":
                    print(f"   {key:30s} omitted: {raw['op_samples']} ops, fewer than 100")
                continue
            note = ""
            if metrics[key] != raw[key]:
                note = f"  [raw {raw[key]:.6g}]"
            if key == "setup_s":
                note += "  (median of " + ", ".join(f"{s[1]:.3f}" for s in result["setup_samples"]) + ")"
            elif key == "op_p50_s":
                note += f"  (n={raw['op_samples']})"
            elif key == "op_tail_s":
                note += f"  (p{raw['op_tail_pct']:.1f}, n={raw['op_samples']})"
            elif key == "fail_frac":
                note += f"  ({result['failed']}/{result['attempted']})"
            print(f"   {key:30s} {metrics[key]:.6g} {unit}{note}")
    print(f"   reference values: {json.dumps(result['reference_values'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def contract_line(result, metrics, listed) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def self_check(tmp) -> bool:
    """The gate must pass the recorded references and fail perturbed ones."""
    refs = gate.load_refs()
    caught = total = 0
    for workload, wrefs in refs.items():
        recorded = {k: v["value"] for k, v in wrefs.items()}
        if gate.compare(recorded, wrefs):
            print(f"self-check: {workload} fails its own references")
            return False
        for key in wrefs:
            total += 1
            caught += bool(gate.compare(recorded, gate.perturbed(wrefs, key)))
    print(f"self-check: {caught}/{total} perturbed references caught by the comparison")
    live = {}
    for perturb in (None, "visibility"):
        r = run_workload("hom-calibration", DEFAULT_SEED, 1, 0, tmp, perturb_ref=perturb)
        live[perturb] = r["failed"]
        print(f"self-check: hom-calibration run, reference perturbed: {perturb is not None}, "
              f"failed={r['failed']}, problems={r['problems']}")
    return caught == total and live[None] == 0 and live["visibility"] > 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "twinsource" / "__init__.py").is_file() or not bench.is_file():
        print(f"error: {ROOT} lacks src/twinsource or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer" if args.trace else "end_to_end"]

    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_check:
            return 0 if self_check(tmp) else 1
        lines = {}
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(name, args.seed, seconds, args.trace, tmp)
            if args.trace:
                metrics, raw = result["metrics"], None
            else:
                metrics, raw = e2e_metrics(result)
            print_block(name, args.seed, seconds, args.trace, result, metrics, raw)
            lines[name] = contract_line(result, metrics, listed)
        print(json.dumps(lines[args.workload] if args.workload != "all" else lines), flush=True)
        return 0
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
