"""Runs one workload in a fresh interpreter. Started by run.py, never by hand.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
                     [--setup-only] [--perturb-ref KEY]

Prints ``@@READY <json>`` when set-up is done (run.py times set-up from
process start to that line; the JSON carries the host-speed probe taken just
before and after set-up) and, unless --setup-only, ``@@RESULT <json>`` at the
end. Untraced runs probe host speed between ops too (see probe.py).

Untraced, ops run in a closed loop until --seconds have passed (cli-figures
runs whole README chains only, so every run holds the same command mix).
Traced, a fixed number of ops derived from --seconds runs, each op once
untraced and once traced in alternating order, so counts repeat exactly for a
seed and the wall-time ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
import spans
import workloads
from probe import Probe


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, if >= p90."""
    n = len(latencies)
    if n < 100:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def op_metrics(latencies, completed) -> dict:
    """Throughput over the summed op latencies (the timed phase less the gate's
    checks, the probes and input generation), and latency of the timed ops."""
    return {
        "ops_per_s": completed / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_samples": len(latencies),
        "op_tail": tail(latencies),
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def measure_import(reps: int = 3):
    """Wall of a fresh ``import twinsource.cli`` and the scipy share of it."""
    argv = [sys.executable, "-c", "import twinsource.cli"]
    walls, scipy = [], []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run(argv, check=True)
        walls.append(perf_counter() - t0)
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *argv[1:]], check=True, capture_output=True, text=True
        )
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            name = parts[-1].strip()
            if len(parts) == 3 and (name == "scipy" or name.startswith("scipy.")):
                total_us += int(parts[0].split(":")[1])
        scipy.append(total_us / 1e6)
    return statistics.median(walls), statistics.median(scipy)


def run_in_process(wl, args, rec, refs, probe):
    attempted = failed = 0
    problems, latencies = [], []
    walls = {False: 0.0, True: 0.0}

    def one_op(inp):
        t0 = perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # an op that raises counts as failed
            return perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
        return perf_counter() - t0, out, None

    t_start = perf_counter()
    if rec is None:
        probe.burst(5)
        while perf_counter() - t_start < args.seconds:
            inp = wl.make_input()
            dt, out, errs = one_op(inp)
            errs = errs or wl.check(inp, out)
            attempted += 1
            latencies.append(dt)
            probe.add(dt)
            if errs:
                failed += 1
                problems += errs
            probe.every()
        probe.burst(5)
    else:
        for i in range(max(1, round(args.seconds * wl.trace_ops_per_s))):
            inp = wl.make_input()
            errs = []
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    rec.op_id = i
                    rec.enable()
                dt, out, e = one_op(inp)
                rec.disable()
                rec.op_id = -1
                walls[traced] += dt
                errs += e or wl.check(inp, out)
            attempted += 1
            if errs:
                failed += 1
                problems += errs

    measured = wl.reference_values()
    ref_problems = gate.compare(measured, refs)
    result = {
        "attempted": attempted,
        "failed": failed + bool(ref_problems),
        "problems": problems[:10] + [f"reference: {p}" for p in ref_problems],
        "reference_values": measured,
        "peak_rss_mb": rss_mb(),
    }
    if rec is None:
        result["raw"] = op_metrics(latencies, attempted - failed)
        result["metrics"] = op_metrics([t for _, t in probe.adjusted], attempted - failed)
    else:
        result["walls"] = walls
    return result


def run_cli(wl, args, refs, probe):
    """Whole README chains; ``probe`` must hold the spawn probe that ended set-up."""
    wl.refs = refs
    attempted = failed = 0
    problems, latencies, peak_rss = [], {}, 0.0
    walls = {False: 0.0, True: 0.0}
    span_files, bytes_written = [], 0
    t_start = perf_counter()
    chains = 0
    while chains == 0 or (not args.trace and perf_counter() - t_start < args.seconds):
        outs = {False: wl.tmp / f"chain{chains}", True: wl.tmp / f"chain{chains}-traced"}
        commands = {traced: wl.chain(out) for traced, out in outs.items()}
        for i, (command, _) in enumerate(commands[False]):
            errs = []
            for traced in ((False, True) if i % 2 == 0 else (True, False)) if args.trace else (False,):
                spans_path = wl.tmp / f"spans-{chains}-{i}.npz" if traced else None
                t0 = perf_counter()
                rc, err, rss = wl.invoke(wl.argv(commands[traced][i][1], spans_path, i))
                dt = perf_counter() - t0
                walls[traced] += dt
                errs += [f"{command}: exit {rc}: {err.strip()[-300:]}"] if rc else wl.check(command, outs[traced])
                if traced:
                    span_files.append(spans_path)
                    bytes_written += wl.bytes_written(command, outs[True])
                else:
                    peak_rss = max(peak_rss, rss)
                    latencies.setdefault(command, []).append(dt)
                    if not args.trace:
                        probe.add(dt, command)
                        probe.burst()
            attempted += 1
            if errs:
                failed += 1
                problems += errs
        chains += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "reference_values": wl.measured,
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        result["walls"] = walls
        result["span_files"] = [str(p) for p in span_files]
        result["bytes_written"] = bytes_written
        return result
    adjusted = {}
    for command, t in probe.adjusted:
        adjusted.setdefault(command, []).append(t)
    for key, lat in (("raw", latencies), ("metrics", adjusted)):
        every = [t for ts in lat.values() for t in ts]
        result[key] = {
            **op_metrics(every, attempted - failed),
            **{f"{c}_cmd_s": statistics.median(lat[c]) for c in ("stack", "tuning", "spectrum", "enhancement")},
            "light_cmd_s": statistics.median(t for c in workloads.LIGHT_COMMANDS for t in lat[c]),
        }
    return result


def trace_metrics(result, rec, wl, traced_wall):
    """Per-layer metrics and the tracer's self-checks for a traced run."""
    problems = []
    if rec is not None:
        path = wl.tmp / "spans.npz"
        rec.dump(path)
        span_sets = [spans.load(path)]
        missing = rec.missing
    else:
        span_sets = [spans.load(p) for p in result.pop("span_files")]
        missing = sorted({str(m) for s in span_sets for m in s["missing"]})
    metrics = spans.layer_metrics(span_sets)
    problems += [f"trace: wrap target missing: {m}" for m in missing]
    if metrics["trace.self_s"] > traced_wall:
        problems.append(f"trace: summed self time {metrics['trace.self_s']:.3f} s exceeds wall {traced_wall:.3f} s")
    if wl.name == "pair-analysis" and metrics["modes.table_builds_in_ops"]:
        problems.append(f"trace: {metrics['modes.table_builds_in_ops']} table builds inside timed ops")
    walls = result.pop("walls")
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    metrics["cli.bytes_written"] = result.pop("bytes_written", 0)
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = measure_import()
    result["metrics"] = metrics
    result["problems"] += problems
    result["failed"] += bool(problems)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb-ref")
    args = ap.parse_args()

    args.tmp.mkdir(parents=True, exist_ok=True)
    in_process = workloads.WORKLOADS[args.workload].in_process
    kind, setup_burst = ("loop", 20) if in_process else ("spawn", 1)
    probe = Probe(kind)
    probe.burst(setup_burst)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    rec = spans.Recorder().install() if args.trace and in_process else None
    t0 = perf_counter()
    wl.setup()
    setup_wall = perf_counter() - t0
    probe.burst(setup_burst)
    print("@@READY " + json.dumps({"speed": probe.speed(), "probe_spent_s": probe.spent_s}), flush=True)
    if args.setup_only:
        return 0
    if rec is not None:
        rec.disable()

    refs = gate.load_refs()[wl.name]
    if args.perturb_ref:
        refs = gate.perturbed(refs, args.perturb_ref)
    if in_process:
        probe = Probe(kind)
        result = run_in_process(wl, args, rec, refs, probe)
    else:
        result = run_cli(wl, args, refs, probe)
    if probe.samples:  # traced in-process runs do not probe
        result["speed"], result["probe_s"] = probe.speed(), probe.median()
    if args.trace:
        traced_wall = result["walls"][True] + (setup_wall if rec is not None else 0.0)
        trace_metrics(result, rec, wl, traced_wall)
    print("@@RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
