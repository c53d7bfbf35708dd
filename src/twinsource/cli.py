"""Command-line surface: one subcommand per reproducible figure or report.

    twinsource stack        reflectance spectrum + intracavity field profile
    twinsource tuning       signal/idler wavelengths vs pump incidence angle
    twinsource spectrum     photon-counting fluorescence spectrum
    twinsource hom          coincidence-dip simulation and fitting
    twinsource enhancement  cavity efficiency-enhancement report
    twinsource counts       detection-chain count budget report

Every command is deterministic given (config, seed). ``main`` runs every
command one way: it reads and checks the config into a ``_Run``, calls the
command, which only computes and emits its outputs, and then writes the run
report ``<command>.report.json`` listing every file produced, the warnings
and the time spent reading the config, importing the command's layers
(``_Run.importing``), computing and writing. A failed run
writes no report. Data files are CSV (header row, '.' decimal separator, LF
endings) or JSON via --format; each output gets a ``<name>.meta.json``
sidecar carrying the config hash. Each command imports only the layers it
runs: ``counts`` loads no stack, mode, spectrum or HOM code.

Exit status: 0 success, 2 input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import efficiency, errors
from .config import MAX_SWEEP_POINTS
from .errors import ANGLE, POSITIVE, WINDOW, ConfigError, NoResonanceInWindow, OutOfValidityWindow
from .errors import TwinSourceError, require

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
_flag = partial(require, error=ConfigError)  # a flag outside its rule is an input error


# a CSV cell by its column's dtype kind: floats by repr, bools as 1/0
_CELL = {"f": repr, "b": lambda v: "1" if v else "0"}


def _write_table(path: Path, columns: dict, fmt: str):
    """Write a column dict as CSV (default) or a JSON record list, column-wise.

    Each column is one array, and its values one ``tolist()``; a float
    column is cast to float64 first, so a longdouble cell stays a double.
    A CSV cell follows its column's dtype kind (``_CELL``; ``str`` for the
    rest). CSV rows are streamed; columns of unequal length raise ValueError.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    arrays = [a.astype(np.float64, copy=False) if a.dtype.kind == "f" else a for a in arrays]
    values = [a.tolist() for a in arrays]
    if fmt == "json":
        _write_json(path, [dict(zip(columns, row)) for row in zip(*values, strict=True)])
        return
    cells = [map(_CELL.get(a.dtype.kind, str), v) for a, v in zip(arrays, values)]
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(columns) + "\n")
        for row in map(",".join, zip(*cells, strict=True)):
            out.write(row + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sidecar(path: Path, cfg_hash: str, extra: dict):
    meta = {"config_hash": cfg_hash, **extra}
    _write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


class _Run:
    """One command invocation: its checked config, the files it emits, its warnings."""

    def __init__(self, args, command):
        self.t0 = time.monotonic()
        self.command, self.quiet = command, args.quiet
        cfg = cfgmod.apply_overrides(cfgmod.load_config(args.config), args.set or [])
        if args.seed is not None:
            cfg["seed"] = args.seed
        self.model = model = cfgmod.dispersion_model(cfg)  # checks the whole config first
        self.cfg = cfg  # commands read the values it checked
        self.hash = cfgmod.config_hash(cfg)
        self.out_dir = Path(args.out)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --out names a file, or a path through one
            raise ConfigError(f"cannot use output directory: {exc}") from exc
        self.outputs, self.warnings = [], []
        self.fmt = args.format
        self.provenance = {
            "dispersion_model": model.name,
            "dispersion_coefficients": {k: list(v) for k, v in model.coefficients.items()},
        }
        self.config_s, self.import_s, self.write_s = time.monotonic() - self.t0, 0.0, 0.0

    @contextmanager
    def importing(self):
        """Time the block, the command's imports of its layers, as the import stage."""
        t = time.monotonic()
        yield
        self.import_s += time.monotonic() - t

    def table_path(self, name: str) -> Path:
        ext = ".json" if self.fmt == "json" else ".csv"
        return self.out_dir / f"{name}{ext}"

    def emit_table(self, name: str, columns: dict, meta: dict) -> Path:
        return self._emit(self.table_path(name), meta, _write_table, columns, self.fmt)

    def emit_json(self, name: str, payload: dict, meta: dict) -> Path:
        return self._emit(self.out_dir / f"{name}.json", meta, _write_json, payload)

    def _emit(self, path: Path, meta: dict, write, *data) -> Path:
        t = time.monotonic()
        write(path, *data)
        _sidecar(path, self.hash, {**self.provenance, **meta})
        self.outputs.append(str(path))
        self.write_s += time.monotonic() - t
        return path

    def finish(self):
        """Write the run report; list the warnings and outputs unless quiet."""
        elapsed = time.monotonic() - self.t0
        compute_s = elapsed - self.config_s - self.import_s - self.write_s
        stages = {
            "config_s": self.config_s,
            "import_s": self.import_s,
            "compute_s": compute_s,
            "write_s": self.write_s,
        }
        report = {
            "command": self.command,
            "config_hash": self.hash,
            "outputs": self.outputs,
            "elapsed_s": round(elapsed, 6),
            "stages": {k: round(v, 6) for k, v in stages.items()},  # elapsed_s split
            "warnings": self.warnings,
        }
        _write_json(self.out_dir / f"{self.command}.report.json", report)
        if not self.quiet:
            for line in self.warnings:
                print(f"warning: {line}", file=sys.stderr)
            for out in self.outputs:
                print(out)


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def _grid(lo, hi, step, name: str) -> np.ndarray:
    """Sweep lo, lo + step, ... up to hi (inclusive, to rounding), for a step > 0."""
    if not (lo <= hi and (hi - lo) / step + 1 <= MAX_SWEEP_POINTS):
        raise ConfigError(
            f"{name} sweep [{lo}, {hi}] at step {step} is empty or over {MAX_SWEEP_POINTS} points"
        )
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def _pump_nm(run: _Run) -> float:
    """``pump.wavelength_nm`` as a float (sidecars record floats, whole numbers
    too), unless the pair search, which starts at twice it, starts outside the
    dispersion model's window: ConfigError naming the key."""
    lam_p = float(run.cfg["pump"]["wavelength_nm"])
    lo, hi = run.model.wavelength_window_nm
    if not lo <= 2.0 * lam_p <= hi:
        raise ConfigError(
            f"pump.wavelength_nm {lam_p}: the pair search starts at twice it, outside "
            f"model '{run.model.name}' window [{lo}, {hi}] nm"
        )
    return lam_p


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_stack(run: _Run, args):
    with run.importing():
        from . import stack
    cfg = run.cfg
    model = run.model
    device = cfgmod.build_stack(cfg)
    if args.lambda_min is None and args.lambda_max is None:
        lam_lo, lam_hi = cfg["resonance"]["window_nm"]
    else:  # both flags, or the one given fails the rule
        lam_lo, lam_hi = _flag([args.lambda_min, args.lambda_max], WINDOW, "--lambda-min/max")
    theta = _flag(0.0 if args.theta is None else args.theta, ANGLE, "--theta")
    pol = args.pol
    lams = _grid(lam_lo, lam_hi, _flag(args.step, POSITIVE, "--step"), "wavelength (nm)")
    resp = stack.stack_response(device, lams, theta, pol, model)

    resonance_nm = None
    try:
        res = stack.find_resonance(device, (lam_lo, lam_hi), theta, pol, model)
        resonance_nm = res.wavelength_nm
    except (NoResonanceInWindow, errors.MultipleResonances, errors.MissingRegion) as exc:
        run.warnings.append(f"resonance not flagged: {exc}")
    flag = np.zeros(len(lams), dtype=bool)
    if resonance_nm is not None:
        flag[int(np.argmin(np.abs(lams - resonance_nm)))] = True

    run.emit_table(
        "reflectance",
        {
            "lambda_nm": lams,
            "reflectance": resp.reflectance,
            "transmittance": resp.transmittance,
            "is_resonance": flag,
        },
        {
            "columns": "lambda_nm: vacuum wavelength; reflectance/transmittance: "
            "flux-normalized; is_resonance: 1 marks the row nearest the R dip",
            "theta_deg": theta,
            "polarization": pol,
            "resonance_nm": resonance_nm,
        },
    )

    lam_field = resonance_nm if resonance_nm is not None else 0.5 * (lam_lo + lam_hi)
    prof = stack.field_profile(device, lam_field, theta, pol, model)
    run.emit_table(
        "field_profile",
        {
            "depth_nm": prof.depth_nm,
            "re_amplitude": prof.amplitude.real,
            "im_amplitude": prof.amplitude.imag,
            "intensity": np.abs(prof.amplitude) ** 2,
        },
        {
            "columns": "depth_nm: 0 at top surface, increasing downward; "
            "amplitude: tangential field for unit incident amplitude",
            "wavelength_nm": lam_field,
            "theta_deg": theta,
            "polarization": pol,
        },
    )


def cmd_tuning(run: _Run, args):
    with run.importing():
        from . import phasematch
    cfg = run.cfg
    device = cfgmod.build_stack(cfg)
    tcfg = cfg["tuning"]
    lo, hi, step = tcfg["theta_min_deg"], tcfg["theta_max_deg"], tcfg["theta_step_deg"]
    lo = lo if args.theta_min is None else _flag(args.theta_min, ANGLE, "--theta-min")
    hi = hi if args.theta_max is None else _flag(args.theta_max, ANGLE, "--theta-max")
    step = step if args.theta_step is None else _flag(args.theta_step, POSITIVE, "--theta-step")
    thetas = _grid(lo, hi, step, "pump angle (deg)")
    lam_p = _pump_nm(run)
    matcher = phasematch.PhaseMatcher(device, run.model)
    points, failures = matcher.tuning_curve(thetas, lam_p)
    failed = [f"theta={theta} interaction={inter_id}: {msg}" for theta, inter_id, msg in failures]
    run.warnings += failed
    if not points:
        try:  # solved again, the first point raises as in spectrum: a pump the model refuses
            matcher.solve_pair(float(thetas[0]), lam_p, phasematch.INTERACTION_1)
        except (OutOfValidityWindow, errors.AboveBandgap):
            raise
        except (TwinSourceError, ValueError, RuntimeError):  # a failure of the point, as recorded
            pass
        raise errors.NoSolutionInWindow(f"every tuning point failed, the first at {failed[0]}")
    # flag the rows bracketing each branch crossing: the signed signal-idler
    # separation changes sign exactly at the degeneracy angle
    flags = [False] * len(points)
    for inter_id in (1, 2):
        idx = [i for i, p in enumerate(points) if p.interaction.id == inter_id]
        seps = [points[i].lambda_s_nm - points[i].lambda_i_nm for i in idx]
        for a, b in zip(range(len(idx) - 1), range(1, len(idx))):
            if seps[a] == 0.0 or (seps[a] < 0) != (seps[b] < 0):
                flags[idx[a]] = flags[idx[b]] = True
    run.emit_table(
        "tuning",
        {
            "interaction": [p.interaction.id for p in points],
            "theta_deg": [p.theta_deg for p in points],
            "lambda_s_nm": [p.lambda_s_nm for p in points],
            "lambda_i_nm": [p.lambda_i_nm for p in points],
            "near_degeneracy": flags,
        },
        {
            "columns": "signal copropagates with the in-plane pump momentum; "
            "near_degeneracy: 1 on the rows bracketing a branch crossing",
            "lambda_p_nm": lam_p,
        },
    )


def cmd_spectrum(run: _Run, args):
    with run.importing():
        from . import phasematch, spectra
    cfg = run.cfg
    device = cfgmod.build_stack(cfg)
    theta = _flag(cfg["pump"]["angle_deg"] if args.theta is None else args.theta, ANGLE, "--theta")
    lam_p = _pump_nm(run)
    length_mm = float(cfg["sample"]["length_mm"])
    scfg = cfg["spectrum"]
    half_span, step = scfg["half_span_nm"], scfg["step_nm"]
    instrument = {  # what the measured spectrum adds to the sinc^2 lines
        "noise_floor": float(scfg["noise_floor"]),
        "pump_fwhm_nm": float(cfg["pump"]["linewidth_fwhm_nm"]),
        "mono_fwhm_nm": float(scfg["monochromator_fwhm_nm"]),
        "long_peak_attenuation": float(cfg["sample"]["facet_reflectance"]),
    }
    matcher = phasematch.PhaseMatcher(device, run.model)
    # size the grid (every emission peak, +/- the half span) before it is allocated
    pairs = [matcher.solve_pair(theta, lam_p, phasematch.interaction(i)) for i in (1, 2)]
    peaks = [w for p in pairs for w in (p.lambda_s_nm, p.lambda_i_nm)]
    grid = _grid(min(peaks) - half_span, max(peaks) + half_span, step, "spectrum wavelength (nm)")
    if len(grid) < 2:
        raise ConfigError(f"spectrum.step_nm {step} leaves a single grid point")
    try:
        sp = spectra.fluorescence_spectrum(
            theta, lam_p, length_mm, device, half_span_nm=half_span, step_nm=step, matcher=matcher,
            **instrument,
        )
    except errors.KernelUnderResolved as exc:  # the config chose both the kernel and the step
        pump = exc.fwhm_nm == instrument["pump_fwhm_nm"]
        key = "pump.linewidth_fwhm_nm" if pump else "spectrum.monochromator_fwhm_nm"
        raise ConfigError(f"spectrum.step_nm {step} is too coarse for {key}: {exc}") from exc
    run.emit_table(
        "spectrum",
        {"lambda_nm": sp.wavelength_nm, "intensity": sp.intensity},
        {"columns": "intensity normalized to unit tallest peak", **sp.metadata},
    )


def cmd_hom_simulate(run: _Run, args):
    with run.importing():
        from . import hom
    cfg = run.cfg
    hcfg = cfg["hom"]
    model = hom.DipModel(  # sidecars record floats
        visibility=cfgmod.hom_visibility(cfg),
        wavelength_nm=float(hcfg["degeneracy_wavelength_nm"]),
        delta_lambda_nm=float(hcfg["delta_lambda_nm"]),
    )
    chain = cfgmod.build_detection_chain(cfg)
    half_span = hcfg["scan_half_span_mm"]
    positions = np.linspace(-half_span, half_span, int(hcfg["scan_points"]))
    try:
        scan = hom.simulate_scan(model, chain, positions, float(hcfg["dwell_s"]), cfg["seed"])
    except ValueError as exc:  # positions or expected counts the sampler cannot take
        raise ConfigError(f"hom scan cannot be simulated: {exc}") from exc
    run.emit_table(
        "hom_scan",
        {
            "delta_z_mm": scan.delta_z_mm,
            "total_counts": scan.total_counts,
            "accidental_counts": scan.accidental_counts,
        },
        {
            "columns": "coincidence counts per dwell; accidental channel measured "
            "independently",
            "dwell_s": scan.dwell_s,
            "seed": scan.seed,
            "model": scan.metadata["model"],
        },
    )


def _read_scan_csv(path: Path) -> tuple:
    """The delta_z_mm, total_counts and accidental_counts columns of a scan CSV."""
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scan file: {exc}") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("scan file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    expected = ["delta_z_mm", "total_counts", "accidental_counts"]
    if header != expected:
        raise ConfigError(f"scan header must be {expected}, got {header}")
    if len(lines) == 1:
        raise ConfigError("scan file has a header and no data rows")
    dz, tot, acc = [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ConfigError(f"malformed scan row: {ln!r}")
        try:
            dz.append(float(parts[0]))
            tot.append(int(parts[1]))
            acc.append(int(parts[2]))
        except ValueError as exc:
            raise ConfigError(f"malformed scan row {ln!r}: {exc}") from exc
    return np.array(dz), np.array(tot), np.array(acc)


def cmd_hom_fit(run: _Run, args):
    with run.importing():
        from . import hom
    cfg = run.cfg
    lam = float(cfg["hom"]["degeneracy_wavelength_nm"])
    try:
        scan = hom.HomScan(*_read_scan_csv(Path(args.scan)), dwell_s=float(cfg["hom"]["dwell_s"]))
    except ValueError as exc:
        raise ConfigError(f"scan violates invariants: {exc}") from exc
    fit = hom.fit_dip(scan, lam)
    if not fit.converged:
        run.warnings.append("dip fit not converged: its baseline reached no fixed point")
    if fit.visibility > 1.0:
        run.warnings.append(f"fitted visibility {fit.visibility} exceeds 1: net counts < 0")
    residuals = hom.normalized_residuals(scan, fit, lam).tolist()
    run.emit_json(
        "hom_fit",
        {
            "visibility": fit.visibility,
            "visibility_err": fit.visibility_err,
            "delta_lambda_nm": fit.delta_lambda_nm,
            "delta_lambda_err_nm": fit.delta_lambda_err,
            "dip_fwhm_mm": hom.dip_fwhm_mm(lam, fit.delta_lambda_nm),
            "baseline_counts": fit.baseline_counts,
            "residual_norm": fit.residual_norm,
            "normalized_residuals": residuals,
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        {"scan_file": str(args.scan), "wavelength_nm": lam},
    )


def cmd_counts(run: _Run, args):
    chain = cfgmod.build_detection_chain(run.cfg)
    budget = efficiency.expected_counts(chain)
    run.emit_json(
        "counts",
        budget.as_dict(),
        {"chain": {k: getattr(chain, k) for k in (
            "pairs_per_pulse", "selected_fraction", "pulse_rate_hz",
            "detector_efficiency", "dark_rate_hz")}},
    )


def cmd_enhancement(run: _Run, args):
    cfg = run.cfg
    overrides = cfg["enhancement_overrides"]
    model = run.model
    payload = {}
    if not set(cfgmod.OVERRIDE_KEYS).issubset(overrides):
        with run.importing():
            from . import layers, modes, stack
        device = cfgmod.build_stack(cfg)
        window = cfg["resonance"]["window_nm"]
        try:
            res = stack.find_resonance(device, window, pol=layers.TE, model=model)
        except errors.MissingRegion as exc:  # the cavity's regions are found by name
            raise ConfigError(f"stack.regions: {exc}") from exc
        lam_deg = 2.0 * cfg["pump"]["wavelength_nm"]
        te = modes.guided_modes(device, lam_deg, layers.TE, model, max_modes=1)[0]
        tm = modes.guided_modes(device, lam_deg, layers.TM, model, max_modes=1)[0]
        payload = {
            "resonance_nm": res.wavelength_nm,
            "resonance_fwhm_nm": res.fwhm_nm,
            "free_spectral_range_nm": res.fsr_nm,
            "n_mean": 0.5 * (te.n_eff + tm.n_eff),
            "finesse": res.finesse,
            "t_up": res.t_up,
            "t_down": res.t_down,
        }
    payload.update(overrides)
    try:
        params = efficiency.CavityParams(*(payload[key] for key in cfgmod.OVERRIDE_KEYS))
    except errors.NonPhysicalInput as exc:  # CavityParams holds the ranges an override must keep
        raise ConfigError(f"enhancement_overrides: {exc}") if overrides else exc
    payload["enhancement_factor"] = efficiency.enhancement_factor(params)
    run.emit_json("enhancement", payload, {"overrides": sorted(overrides)})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON config overlaying the defaults")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config RNG seed")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="dotted-path config override, e.g. --set pump.angle_deg=3.1",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress normal output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinsource",
        description="counterpropagating twin-photon source simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stack", help="reflectance spectrum and field profile")
    p.add_argument("--lambda-min", type=float)
    p.add_argument("--lambda-max", type=float)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--theta", type=float)
    p.add_argument("--pol", choices=("TE", "TM"), default="TE")  # layers.TE, layers.TM
    _add_common(p)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("tuning", help="signal/idler wavelengths vs pump angle")
    p.add_argument("--theta-min", type=float)
    p.add_argument("--theta-max", type=float)
    p.add_argument("--theta-step", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_tuning)

    p = sub.add_parser("spectrum", help="parametric fluorescence spectrum")
    p.add_argument("--theta", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("hom", help="two-photon interference scan")
    hom_sub = p.add_subparsers(dest="hom_command", required=True)
    ps = hom_sub.add_parser("simulate", help="Poisson-sampled coincidence scan")
    _add_common(ps)
    ps.set_defaults(func=cmd_hom_simulate)
    pf = hom_sub.add_parser("fit", help="fit the dip model to a scan CSV")
    pf.add_argument("--scan", required=True, metavar="CSV", help="input scan file")
    _add_common(pf)
    pf.set_defaults(func=cmd_hom_fit)

    p = sub.add_parser("enhancement", help="cavity enhancement report")
    _add_common(p)
    p.set_defaults(func=cmd_enhancement)

    p = sub.add_parser("counts", help="detection-chain count budget report")
    _add_common(p)
    p.set_defaults(func=cmd_counts)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"hom-{args.hom_command}" if args.command == "hom" else args.command
    try:
        run = _Run(args, command)
        args.func(run, args)
        run.finish()
        return EXIT_OK
    except (ConfigError, OutOfValidityWindow, errors.AboveBandgap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TwinSourceError, OverflowError) as exc:  # OverflowError: beyond the double range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
