"""The four workloads. Each draws its op inputs from its seed alone, runs one
op at a time in a closed loop, checks every op, and computes the values the
correctness gate compares with ``refs.json``.

cli-figures     README commands, in README order, one fresh subprocess each
cavity-scan     seeded cavity designs through the transfer-matrix engine
pair-analysis   seeded spectrum/tuning/bandwidth requests on a warm matcher
hom-calibration seeded HOM scans simulated and fitted
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gate

DEFAULT_SEED = 7  # the README's `hom simulate --seed 7`


class InProcess:
    """Workload whose ops call the package directly in this process.

    Subclasses provide ``setup()``, ``make_input()`` (the next op's inputs,
    drawn from ``self.rng``), ``run(inputs)`` (the timed op), ``check(inputs,
    output)`` (a list of problems) and ``reference_values()`` (the values
    compared with refs.json), and set ``trace_ops_per_s``: traced runs make
    round(trace_ops_per_s * seconds) ops, so counts repeat for a seed.
    """

    in_process = True

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.rng = np.random.default_rng(seed)


class CavityScan(InProcess):
    """Transfer-matrix work only: sweep, resonance search and field profile."""

    name = "cavity-scan"
    trace_ops_per_s = 0.34

    def setup(self):
        from twinsource import config, stack

        self.config, self.stack = config, stack
        self.model = config.dispersion_model(config.default_config())

    def make_input(self):
        r = self.rng
        return {
            "top_periods": int(r.integers(16, 21)),
            "bottom_periods": int(r.integers(39, 44)),
            "design_nm": float(r.uniform(755.0, 765.0)),
            "pol": ("TE", "TM")[int(r.integers(0, 2))],
            "theta_deg": float(r.uniform(0.0, 4.0)),
        }

    def run(self, inp):
        config, stack = self.config, self.stack
        cfg = config.default_config()
        cfg["stack"]["design_wavelength_nm"] = inp["design_nm"]
        regions = cfg["stack"]["regions"]
        regions[0]["periods"] = inp["top_periods"]
        regions[2]["periods"] = inp["bottom_periods"]
        device = config.build_stack(cfg)
        theta, pol, lam0 = inp["theta_deg"], inp["pol"], inp["design_nm"]
        lams = lam0 - 20.0 + 0.05 * np.arange(801)
        sweep = [stack.stack_response(device, float(l), theta, pol, self.model) for l in lams]
        res = stack.find_resonance(device, (lam0 - 20.0, lam0 + 20.0), theta, pol, self.model)
        prof = stack.field_profile(device, res.wavelength_nm, theta, pol, self.model)
        return sweep, res, prof

    def check(self, inp, out):
        sweep, res, prof = out
        R = np.array([r.reflectance for r in sweep])
        T = np.array([r.transmittance for r in sweep])
        problems = []
        if not (np.all(R >= 0) and np.all(T >= 0) and np.all(R + T <= 1 + 1e-12)):
            problems.append(f"R/T out of bounds: max R+T = {np.max(R + T)!r}")
        if not abs(res.wavelength_nm - inp["design_nm"]) < 20.0:
            problems.append(f"resonance {res.wavelength_nm} nm outside the window")
        if not (res.finesse > 0 and 0 < res.t_up < 1 and 0 < res.t_down < 1):
            problems.append(f"finesse {res.finesse}, t_up {res.t_up}, t_down {res.t_down}")
        if not np.all(np.isfinite(prof.amplitude)):
            problems.append("field profile not finite")
        return problems

    def reference_values(self):
        """Nominal device (18/41 periods, 760 nm, TE, normal incidence)."""
        device = self.config.build_stack(self.config.default_config())
        res = self.stack.find_resonance(device, (740.0, 780.0), 0.0, "TE", self.model)
        return {
            "resonance_nm": res.wavelength_nm,
            "reflectance_min": res.reflectance_min,
            "finesse": res.finesse,
            "t_up": res.t_up,
            "t_down": res.t_down,
        }


class PairAnalysis(InProcess):
    """Query side of phasematch, modes and spectra on one warm matcher."""

    name = "pair-analysis"
    trace_ops_per_s = 4.0
    PUMP_NM = (758.0, 762.0)
    THETA_DEG = (-1.0, 4.0)
    TUNING_ANGLES = np.linspace(-1.0, 4.0, 21)

    def setup(self):
        from twinsource import config, phasematch, spectra

        self.pm, self.spectra = phasematch, spectra
        cfg = config.default_config()
        self.device = config.build_stack(cfg)
        self.matcher = phasematch.PhaseMatcher(self.device, config.dispersion_model(cfg))
        # solve at the corners of the box: solve_pair reserves its whole
        # search bracket, so no table is built or grown inside a timed op
        for lambda_p in self.PUMP_NM:
            for inter in (phasematch.INTERACTION_1, phasematch.INTERACTION_2):
                for theta in self.THETA_DEG:
                    self.matcher.solve_pair(theta, lambda_p, inter)

    def make_input(self):
        return {
            "theta_deg": float(self.rng.uniform(*self.THETA_DEG)),
            "lambda_p_nm": float(self.rng.uniform(*self.PUMP_NM)),
        }

    def run(self, inp):
        m, sp, pm = self.matcher, self.spectra, self.pm
        theta, lambda_p = inp["theta_deg"], inp["lambda_p_nm"]
        spectrum = sp.fluorescence_spectrum(theta, lambda_p, 1.0, self.device, matcher=m)
        points, failures = m.tuning_curve(self.TUNING_ANGLES, lambda_p)
        widths = [
            sp.bandwidth_estimates(theta, lambda_p, inter, 1.0, self.device, matcher=m)
            for inter in (pm.INTERACTION_1, pm.INTERACTION_2)
        ]
        return spectrum, points, failures, widths

    def check(self, inp, out):
        spectrum, points, failures, widths = out
        lambda_p = inp["lambda_p_nm"]
        problems = [f"tuning point failed: {f}" for f in failures]
        if len(points) != 2 * len(self.TUNING_ANGLES):
            problems.append(f"{len(points)} tuning points")
        problems += gate.pair_point_problems(points, lambda_p)
        problems += gate.four_peak_problems(
            spectrum.wavelength_nm, spectrum.intensity, spectrum.metadata["peaks_nm"], lambda_p
        )
        for counter, co in widths:
            if not (0 < counter < co and np.isfinite(co)):
                problems.append(f"bandwidths {counter}, {co}")
        return problems

    def reference_values(self):
        """PIN_FOUR_PEAKS and PIN_DEGENERACY_DEG of the test suite, to full precision."""
        pm = self.pm
        pts = [self.matcher.solve_pair(3.1, 759.5, it) for it in (pm.INTERACTION_1, pm.INTERACTION_2)]
        return {
            "four_peaks_nm": sorted(w for p in pts for w in (p.lambda_s_nm, p.lambda_i_nm)),
            "degeneracy_deg": self.matcher.degeneracy_angle(pm.INTERACTION_1, 760.0),
        }


class HomCalibration(InProcess):
    """Estimator calibration of acceptance criterion 08: simulate, then fit."""

    name = "hom-calibration"
    trace_ops_per_s = 80.0
    WAVELENGTH_NM = 1520.0

    def setup(self):
        from twinsource import config, hom

        self.hom = hom
        cfg = config.default_config()
        self.chain = config.build_detection_chain(cfg)
        self.visibility = config.hom_visibility(cfg)  # from facet R = 0.30
        hcfg = cfg["hom"]
        self.positions = np.linspace(
            -hcfg["scan_half_span_mm"], hcfg["scan_half_span_mm"], hcfg["scan_points"]
        )
        self.dwell_s = hcfg["dwell_s"]
        self.config_seed = cfg["seed"]

    def make_input(self):
        return {
            "delta_lambda_nm": float(self.rng.uniform(0.4, 0.7)),
            "scan_seed": int(self.rng.integers(0, 2**31)),
        }

    def _fit(self, delta_lambda_nm, scan_seed):
        hom = self.hom
        model = hom.DipModel(self.visibility, self.WAVELENGTH_NM, delta_lambda_nm)
        scan = hom.simulate_scan(model, self.chain, self.positions, self.dwell_s, scan_seed)
        return hom.fit_dip(scan, self.WAVELENGTH_NM)

    def run(self, inp):
        return self._fit(inp["delta_lambda_nm"], inp["scan_seed"])

    def check(self, inp, fit):
        if 0.0 <= fit.visibility <= 1.0 and fit.delta_lambda_nm > 0:
            return []
        return [f"fit V = {fit.visibility}, delta_lambda = {fit.delta_lambda_nm}"]

    def reference_values(self):
        """Default-config scan (delta_lambda 0.53 nm, the config's seed)."""
        fit = self._fit(0.53, self.config_seed)
        return {"visibility": fit.visibility, "delta_lambda_nm": fit.delta_lambda_nm}


# --------------------------------------------------------------------------
# cli-figures: each op is one CLI invocation in a fresh interpreter
# --------------------------------------------------------------------------

LIGHT_COMMANDS = ("counts", "hom-simulate", "hom-fit")


class CliFigures:
    """README commands in README order; one op per fresh subprocess."""

    name = "cli-figures"
    in_process = False

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.refs = {}  # set by the worker before the timed phase
        self.measured = {}  # output values of the last checked invocations

    def chain(self, out: Path):
        """(report name, argv) of the seven README commands.

        Commands run in ``self.tmp`` and get paths relative to it, so the
        files they write do not depend on where the checkout lives.
        """
        rel = out.relative_to(self.tmp)
        o = ["--out", str(rel), "--quiet"]
        return [
            ("stack", ["stack", "--lambda-min", "740", "--lambda-max", "780", *o]),
            ("tuning", ["tuning", *o]),
            ("spectrum", ["spectrum", "--theta", "3.1", "--set", "pump.wavelength_nm=759.5", *o]),
            ("enhancement", ["enhancement", *o]),
            ("counts", ["counts", *o]),
            ("hom-simulate", ["hom", "simulate", "--seed", str(self.seed), *o]),
            ("hom-fit", ["hom", "fit", "--scan", str(rel / "hom_scan.csv"), *o]),
        ]

    def argv(self, cli_args, spans_path=None, op_id=-1):
        if spans_path is None:
            return [sys.executable, "-m", "twinsource.cli", *cli_args]
        boot = Path(__file__).resolve().parent / "cli_boot.py"
        return [sys.executable, str(boot), str(spans_path), str(op_id), *cli_args]

    def invoke(self, argv):
        """Run one command; (exit code, stderr text, peak RSS in MB)."""
        with open(self.tmp / "stderr.txt", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(argv, cwd=self.tmp, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return proc.returncode, err.read(), usage.ru_maxrss / 1024.0  # kB on Linux

    def setup(self):
        # one discarded invocation loads the interpreter and package files
        # into the page cache, as a user's second command would find them
        rc, err, _ = self.invoke(self.argv(["counts", "--out", "warm", "--quiet"]))
        if rc != 0:
            raise RuntimeError(f"warm-up invocation exited {rc}: {err.strip()}")

    def check(self, command: str, out: Path) -> list[str]:
        """Run report lists only existing files; command outputs pass the gate."""
        report_path = out / f"{command}.report.json"
        if not report_path.exists():
            return [f"{command}: no run report"]
        listed = json.loads(report_path.read_text(encoding="utf-8"))["outputs"]
        missing = [p for p in listed if not (self.tmp / p).exists()]
        if missing:
            return [f"{command}: listed outputs missing: {missing}"]
        measured, problems = self.output_values(command, out)
        self.measured.update(measured)
        refs = {k: v for k, v in self.refs.items() if k.split(".")[0] == command}
        if command == "hom-fit" and self.seed != DEFAULT_SEED:
            refs = {}  # the simulated scan, hence the fit, depends on the seed
        return problems + gate.compare(measured, refs)

    def bytes_written(self, command: str, out: Path) -> int:
        """Size of the outputs the run report lists and of their sidecars.

        The report itself is left out: it carries the elapsed time, whose
        printed length varies from run to run.
        """
        listed = json.loads((out / f"{command}.report.json").read_text(encoding="utf-8"))["outputs"]
        files = [self.tmp / p for p in listed] + [self.tmp / (p + ".meta.json") for p in listed]
        return sum(f.stat().st_size for f in files)

    def output_values(self, command: str, out: Path):
        """Values compared with refs.json, and invariant problems, per command."""
        def table(name):
            return np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)

        def doc(name):
            return json.loads((out / f"{name}.json").read_text(encoding="utf-8"))

        problems, values = [], {}
        if command == "stack":
            t = table("reflectance")
            R, T, flag = t[:, 1], t[:, 2], t[:, 3]
            if not (np.all(R >= 0) and np.all(T >= 0) and np.all(R + T <= 1 + 1e-12)):
                problems.append("stack: R/T out of bounds")
            if flag.sum() != 1:
                return values, problems + [f"stack: {int(flag.sum())} resonance rows"]
            i = int(np.argmax(flag))
            values = {"stack.resonance_row_nm": t[i, 0], "stack.resonance_row_R": R[i]}
        elif command == "tuning":
            t = table("tuning")
            crossings = 0
            for inter in (1, 2):
                sep = np.sign(t[t[:, 0] == inter, 2] - t[t[:, 0] == inter, 3])
                crossings += int(np.sum(sep[:-1] != sep[1:]))
            energy = np.abs((1.0 / t[:, 2] + 1.0 / t[:, 3]) * 760.0 - 1.0)
            if energy.max() >= 1e-12:
                problems.append(f"tuning: energy residual {energy.max():.2e}")
            values = {"tuning.rows": len(t), "tuning.crossings": crossings, "tuning.flagged": t[:, 4].sum()}
        elif command == "spectrum":
            t = table("spectrum")
            meta = json.loads((out / "spectrum.csv.meta.json").read_text(encoding="utf-8"))
            problems += [f"spectrum: {p}" for p in gate.four_peak_problems(t[:, 0], t[:, 1], meta["peaks_nm"], 759.5)]
            values = {"spectrum.peaks_nm": [t[i, 0] for i in gate.prominent_peaks(t[:, 1], 0.05)]}
        elif command == "enhancement":
            values = {f"enhancement.{k}": v for k, v in doc("enhancement").items()}
        elif command == "counts":
            values = {f"counts.{k}": v for k, v in doc("counts").items()}
        elif command == "hom-simulate":
            t = table("hom_scan")
            if len(t) != 25 or np.any(t[:, 1:] < 0):
                problems.append(f"hom-simulate: {len(t)} rows or negative counts")
        elif command == "hom-fit":
            fit = doc("hom_fit")
            if not 0.0 <= fit["visibility"] <= 1.0:
                problems.append(f"hom-fit: V = {fit['visibility']}")
            values = {"hom-fit.visibility": fit["visibility"], "hom-fit.delta_lambda_nm": fit["delta_lambda_nm"]}
        return values, problems


WORKLOADS = {w.name: w for w in (CliFigures, CavityScan, PairAnalysis, HomCalibration)}
