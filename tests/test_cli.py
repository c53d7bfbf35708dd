import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinsource
from _oracles import write_table_rows
from twinsource.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, MAX_SWEEP_POINTS, _write_table, main
from twinsource.config import (
    DEFAULT_CONFIG,
    MAX_PERIODS,
    OVERRIDE_KEYS,
    apply_overrides,
    build_detection_chain,
    check_config,
    config_hash,
    default_config,
)
from twinsource.efficiency import DetectionChain
from twinsource.errors import ConfigError
from twinsource.hom import DipModel, simulate_scan


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    """A directory holding the default-config scan ``hom_scan.csv``."""
    out = tmp_path_factory.mktemp("scan")
    assert main(["hom", "simulate", "--out", str(out), "--quiet"]) == EXIT_OK
    return out


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_stack_command_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = (
        "stack", "--lambda-min", 758, "--lambda-max", 765, "--step", 0.1,
        "--quiet",
    )
    assert run(*argv, "--out", out1) == EXIT_OK
    assert run(*argv, "--out", out2) == EXIT_OK
    refl1 = out1 / "reflectance.csv"
    assert refl1.exists() and (out1 / "field_profile.csv").exists()
    assert refl1.read_bytes() == (out2 / "reflectance.csv").read_bytes()
    header, rows = read_csv(refl1)
    assert header == ["lambda_nm", "reflectance", "transmittance", "is_resonance"]
    flagged = [r for r in rows if r[3] == "1"]
    assert len(flagged) == 1
    assert abs(float(flagged[0][0]) - 761.6) < 0.5


def test_stack_meta_sidecar_and_report(tmp_path):
    assert run(
        "stack", "--lambda-min", 760, "--lambda-max", 763, "--step", 0.2,
        "--out", tmp_path, "--quiet",
    ) == EXIT_OK
    meta = json.loads((tmp_path / "reflectance.csv.meta.json").read_text())
    assert len(meta["config_hash"]) == 64
    assert meta["dispersion_model"] == "adachi1985"
    report = json.loads((tmp_path / "stack.report.json").read_text())
    assert report["command"] == "stack"
    assert report["config_hash"] == meta["config_hash"]
    stages = report["stages"]  # elapsed_s split: reading the config, importing, computing, writing
    assert set(stages) == {"config_s", "import_s", "compute_s", "write_s"}
    assert min(stages.values()) >= 0
    assert sum(stages.values()) == pytest.approx(report["elapsed_s"], abs=1e-5)
    for out in report["outputs"]:
        assert Path(out).exists()


# the seven README commands (tools/readme_outputs.py), by the run each names
_README_RUNS = {
    "stack": ("stack", "--lambda-min", 740, "--lambda-max", 780),
    "tuning": ("tuning",),
    "spectrum": ("spectrum", "--theta", 3.1, "--set", "pump.wavelength_nm=759.5"),
    "hom-simulate": ("hom", "simulate", "--seed", 7),
    "hom-fit": ("hom", "fit", "--scan"),  # the scan_dir scan
    "enhancement": ("enhancement",),
    "counts": ("counts",),
}
_REPORT_KEYS = {"command", "config_hash", "outputs", "elapsed_s", "stages", "warnings"}


@pytest.mark.parametrize("name", _README_RUNS)
def test_every_command_writes_its_report(scan_dir, tmp_path, name):
    scan = (scan_dir / "hom_scan.csv",) if name == "hom-fit" else ()
    assert run(*_README_RUNS[name], *scan, "--out", tmp_path, "--quiet") == EXIT_OK
    report = json.loads((tmp_path / f"{name}.report.json").read_text())
    assert set(report) == _REPORT_KEYS
    assert report["command"] == name and report["warnings"] == []
    assert sum(report["stages"].values()) == pytest.approx(report["elapsed_s"], abs=1e-5)
    # the directory holds the outputs, a sidecar each and the report
    outputs = [Path(out).name for out in report["outputs"]]
    written = {*outputs, *(f"{out}.meta.json" for out in outputs), f"{name}.report.json"}
    assert {path.name for path in tmp_path.iterdir()} == written


def test_the_default_detection_section_is_the_nominal_chain():
    cfg = default_config()
    assert build_detection_chain(cfg) == DetectionChain()
    assert config_hash(cfg) == "97748bb16b0a97b7797e4805d35b41f2993e4f4db02012154b597f6343a2244f"


def test_stack_rejects_empty_layer_list(tmp_path):
    assert run(
        "stack", "--set", "stack.regions=[]", "--out", tmp_path, "--quiet"
    ) == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ("--step", 0),
        ("--step", -0.05),
        ("--lambda-min", 740),
        ("--lambda-max", 780),
        ("--lambda-min", 780, "--lambda-max", 740),
        ("--theta", 95),
        ("--set", 'resonance.window_nm=["a","b"]'),
        ("--set", "resonance.window_nm=[740]"),
        ("--lambda-min", 500, "--lambda-max", 560),
    ],
    ids=[
        "zero_step", "negative_step", "min_only", "max_only", "reversed_window",
        "theta_past_90", "config_window_strings", "config_window_one_value",
        "outside_model_window",
    ],
)
def test_stack_bad_sweep_is_input_error(tmp_path, capsys, argv):
    assert run("stack", *argv, "--out", tmp_path, "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "reflectance.csv").exists()


def test_stack_sweep_is_capped(tmp_path, capsys):
    assert run(
        "stack", "--lambda-min", 740, "--lambda-max", 780, "--step", 1e-6,
        "--out", tmp_path, "--quiet",
    ) == EXIT_INPUT
    assert str(MAX_SWEEP_POINTS) in capsys.readouterr().err


# one two-layer region whose first cell entry gets the given extra key
_ONE_REGION = 'stack.regions=[{"name":"a","periods":1,"cell":[{"x":0.9,%s},{"x":0.3}]}]'
_NARROW_SWEEP = ("--lambda-min", 750, "--lambda-max", 770, "--step", 1)
# the default regions renamed: enhancement finds the cavity's mirrors by name
_RENAMED_REGIONS = "stack.regions=" + json.dumps(
    [
        {**region, "name": name}
        for region, name in zip(DEFAULT_CONFIG["stack"]["regions"], ("t", "core", "b"))
    ]
)
_OTHER_OVERRIDES = (
    "--set", "enhancement_overrides.finesse=100",
    "--set", "enhancement_overrides.t_up=0.5",
    "--set", "enhancement_overrides.t_down=0.5",
)


@pytest.mark.parametrize(
    "argv",
    [
        ("stack", "--set", "stack.design_wavelength_nm=-5"),
        ("enhancement", "--set", 'resonance.window_nm=["a","b"]'),
        ("tuning", "--theta-step", 0),
        ("tuning", "--theta-min", 4, "--theta-max", -1),
        ("spectrum", "--theta", 95),
        ("counts", "--set", "detection.pulse_rate_hz=0"),
        ("hom", "simulate", "--set", 'hom.visibility="x"'),
        ("hom", "simulate", "--set", "hom.scan_points=-3"),
        ("spectrum", "--set", "sample.length_mm=nan"),
        ("spectrum", "--set", "sample.length_mm=1e308"),
        ("tuning", "--set", 'pump.wavelength_nm="abc"'),
        ("hom", "simulate", "--set", "hom.dwell_s=0"),
        ("spectrum", "--set", 'spectrum.monochromator_fwhm_nm="x"'),
        ("spectrum", "--set", 'spectrum.noise_floor="x"'),
        ("spectrum", "--set", 'spectrum.step_nm="x"'),
        ("spectrum", "--set", 'pump.linewidth_fwhm_nm="x"'),
        ("spectrum", "--set", 'sample.facet_reflectance="x"'),
        ("spectrum", "--set", "spectrum.half_span_nm=-3"),
        ("enhancement", "--set", 'pump.wavelength_nm="x"'),
        ("enhancement", "--set", 'enhancement_overrides.n_mean="x"'),
        ("hom", "simulate", "--set", 'hom.delta_lambda_nm="x"'),
        ("counts", "--set", "pump.wavelenght_nm=700"),
        ("counts", "--set", "enhancement_overrides.gain=3"),
        ("stack", "--set", "resonance=3"),
        ("tuning", "--set", "tuning=3"),
        ("enhancement", "--set", "enhancement_overrides=3"),
        ("hom", "simulate", "--set", 'seed="x"'),
        ("counts", "--set", "seed=true"),
        ("counts", "--set", "seed=-1"),
        ("counts", "--set", "seed=2.5"),
        ("stack", "--set", "dispersion.model=[1]"),
        ("spectrum", "--set", "pump.angle_deg=true"),
        ("counts", "--set", "detection.pulse_rate_hz=true"),
        ("stack", "--set", _ONE_REGION % '"thickness":true', *_NARROW_SWEEP),
        ("stack", "--set", _ONE_REGION % '"thikness":100', *_NARROW_SWEEP),
        ("counts", "--set", 'pump.wavelength_nm="x"'),
        ("enhancement", "--set", "enhancement_overrides.n_mean=0.5", *_OTHER_OVERRIDES),
        ("stack", "--set", "resonance=3", "--set", "resonance={}"),
        ("enhancement", "--set", _RENAMED_REGIONS),
        ("spectrum", "--set", "spectrum.step_nm=46"),
        ("spectrum", "--set", "spectrum.step_nm=0.2"),
        # a wavelength above an alloy's gap, as one outside the model's window
        ("stack", "--lambda-min", 560, "--lambda-max", 600),
        ("enhancement", "--set", "pump.wavelength_nm=300"),
        ("spectrum", "--set", "spectrum.half_span_nm=700"),
    ],
    ids=[
        "negative_design_wavelength", "enhancement_window_strings", "tuning_zero_step",
        "tuning_reversed_range", "spectrum_theta_past_90", "zero_pulse_rate",
        "visibility_not_a_number", "negative_scan_points", "sample_length_nan",
        "sample_length_infinite_in_nm",
        "pump_wavelength_string", "zero_dwell", "monochromator_fwhm_string",
        "noise_floor_string", "spectrum_step_string", "pump_linewidth_string",
        "facet_reflectance_string", "negative_half_span", "enhancement_pump_string",
        "n_mean_override_string", "delta_lambda_string", "misspelt_key",
        "unknown_override", "resonance_section_number", "tuning_section_number",
        "overrides_section_number", "seed_string", "seed_bool", "seed_negative", "seed_float",
        "dispersion_model_list", "angle_bool", "pulse_rate_bool", "cell_thickness_bool",
        "misspelt_cell_key", "unread_section_checked", "n_mean_override_out_of_range",
        "section_emptied", "cavity_regions_renamed", "spectrum_single_grid_point",
        "spectrum_step_coarser_than_kernel", "stack_above_gap", "enhancement_pump_above_gap",
        "spectrum_span_above_gap",
    ],
)
def test_bad_input_is_input_error(tmp_path, capsys, argv):
    assert run(*argv, "--out", tmp_path, "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["spectrum", "tuning"])
def test_a_pump_whose_pair_search_leaves_the_model_is_input_error(tmp_path, capsys, command):
    # the pair search starts at twice the pump wavelength; at 1e300 nm its
    # window rounds to one wavelength, which spectrum answered with a
    # ValueError traceback (exit 1) and tuning with "every tuning point failed"
    argv = (command, "--set", "pump.wavelength_nm=1e300", "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: pump.wavelength_nm 1e+300: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


_EXTREMES = {  # argv ("SCAN" is the default scan file), and the exit code
    # every tuning point failed, so tuning exited 3 where spectrum exits 2
    "tuning_pump_outside_the_model": (("tuning", "--set", "pump.wavelength_nm=300"), EXIT_INPUT),
    "tuning_pump_above_the_gap": (("tuning", "--set", "pump.wavelength_nm=400"), EXIT_INPUT),
    # |denominator|^2 overflowed: stack exited 0 with T read as 0, enhancement 3
    "stack_ambient_1e300": (("stack", "--set", "stack.ambient_index=1e300"), EXIT_INPUT),
    "enhancement_ambient_1e300": (("enhancement", "--set", "stack.ambient_index=1e300"), EXIT_INPUT),
    # u * u overflowed in the dip shape, whose value there is 0.0 all the same
    "hom_width_1e300": (("hom", "simulate", "--set", "hom.delta_lambda_nm=1e300"), EXIT_OK),
    "hom_span_1e300": (("hom", "simulate", "--set", "hom.scan_half_span_mm=1e300"), EXIT_OK),
    # the positions overflowed once taken to nm
    "hom_span_1e305": (("hom", "simulate", "--set", "hom.scan_half_span_mm=1e305"), EXIT_INPUT),
    # the squared wavelength underflowed to 0: divide-by-zero and invalid values
    "hom_simulate_wavelength_1e-300": (
        ("hom", "simulate", "--set", "hom.degeneracy_wavelength_nm=1e-300"), EXIT_INPUT
    ),
    "hom_simulate_wavelength_5e-324": (
        ("hom", "simulate", "--set", "hom.degeneracy_wavelength_nm=5e-324"), EXIT_INPUT
    ),
    "hom_fit_wavelength_1e-300": (
        ("hom", "fit", "--scan", "SCAN", "--set", "hom.degeneracy_wavelength_nm=1e-300"), EXIT_INPUT
    ),
    "hom_fit_wavelength_5e-324": (
        ("hom", "fit", "--scan", "SCAN", "--set", "hom.degeneracy_wavelength_nm=5e-324"), EXIT_INPUT
    ),
}


@pytest.mark.parametrize("argv, code", _EXTREMES.values(), ids=_EXTREMES.keys())
def test_extreme_inputs_keep_the_exit_contract(tmp_path, capsys, scan_dir, argv, code):
    argv = [scan_dir / "hom_scan.csv" if a == "SCAN" else a for a in argv]
    assert run(*argv, "--out", tmp_path, "--quiet") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "" if code == EXIT_OK else err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pump", [300, 400])
def test_tuning_and_spectrum_refuse_a_pump_the_model_refuses_alike(tmp_path, capsys, pump):
    # 300 nm puts the pair search outside the model's window, 400 nm above
    # the Al(x=0.35) gap: every angle fails alike, so no point is to blame
    errs = []
    for command in ("tuning", "spectrum"):
        argv = (command, "--set", f"pump.wavelength_nm={pump}", "--out", tmp_path, "--quiet")
        assert run(*argv) == EXIT_INPUT
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_a_run_checks_its_config_once_before_the_commands_rechecks(monkeypatch, tmp_path):
    # the run resolves the dispersion model, which checks the whole config;
    # build_stack, build_detection_chain and hom_visibility each check it again
    from twinsource import config

    calls = []

    def counted(cfg):
        calls.append(cfg)
        return check_config(cfg)

    monkeypatch.setattr(config, "check_config", counted)
    runs = {
        ("counts",): 2,
        ("hom", "simulate"): 3,
        ("stack", *_NARROW_SWEEP): 2,
        ("enhancement",): 2,
    }
    for argv, checks in runs.items():
        calls.clear()
        assert run(*argv, "--out", tmp_path, "--quiet") == EXIT_OK
        assert len(calls) == checks, argv


@pytest.mark.parametrize("periods", [1e7, 1e300])
def test_region_periods_are_bounded(tmp_path, capsys, periods):
    # a region is built as 2 x periods layer objects: past the bound the
    # check refuses it before any is built
    regions = [
        {**region, "periods": periods} if region["name"] == "bottom_dbr" else region
        for region in DEFAULT_CONFIG["stack"]["regions"]
    ]
    start = time.monotonic()
    argv = ("stack", "--set", "stack.regions=" + json.dumps(regions), "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_INPUT
    assert time.monotonic() - start < 1.0
    assert f"to {MAX_PERIODS}" in capsys.readouterr().err


def test_stack_field_stays_bounded_with_every_region_at_the_period_bound(tmp_path):
    # 6000 layers: the field is walked up from the substrate, the way a
    # mirror's stop-band field grows, so it stays a standing wave (|F|^2 <= 4)
    regions = [{**region, "periods": MAX_PERIODS} for region in DEFAULT_CONFIG["stack"]["regions"]]
    argv = ("stack", "--set", "stack.regions=" + json.dumps(regions), "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_OK
    header, rows = read_csv(tmp_path / "field_profile.csv")
    intensity = [float(row[header.index("intensity")]) for row in rows]
    assert len(intensity) > 12 * 6000 and max(intensity) < 5.0


def test_enhancement_names_the_missing_region(tmp_path, capsys):
    assert run("enhancement", "--set", _RENAMED_REGIONS, "--out", tmp_path) == EXIT_INPUT
    assert "stack.regions" in (err := capsys.readouterr().err) and "'top_dbr'" in err


def test_above_gap_error_names_the_energy_bound(tmp_path, capsys):
    # 560 nm is ~20% above the Al(x=0.35) gap: the model refuses any photon
    # energy past 99.5% of the gap, however far past
    argv = ("stack", "--lambda-min", "560", "--lambda-max", "600", "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "at or above 99.5% of the Al(x=0.35) gap energy" in err and "within" not in err


def test_stack_warns_of_the_missing_region(tmp_path):
    argv = ("stack", "--set", _RENAMED_REGIONS, *_NARROW_SWEEP, "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_OK
    warnings = json.loads((tmp_path / "stack.report.json").read_text())["warnings"]
    assert warnings == ["resonance not flagged: stack has no region named 'top_dbr'"]


def test_stack_does_not_swallow_a_fault_in_the_resonance_search(tmp_path, monkeypatch):
    # only a missing region is a "resonance not flagged" warning: a KeyError
    # from inside the search is a fault, not a stack without its cavity
    from twinsource import stack

    def broken(*args):
        raise KeyError("fault")

    monkeypatch.setattr(stack, "_cavity", broken)
    with pytest.raises(KeyError, match="fault"):
        run("stack", *_NARROW_SWEEP, "--out", tmp_path, "--quiet")


def test_tuning_with_every_point_failed_is_numeric_error(tmp_path, capsys):
    # an ambient index of 3.5, above every layer's, leaves no guided window:
    # each point fails, and with no point left the run fails as a whole, with
    # the first point's reason
    argv = ("tuning", "--set", "stack.ambient_index=3.5", "--set", "tuning.theta_step_deg=1")
    assert run(*argv, "--out", tmp_path) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "error: every tuning point failed, the first at theta=-1.0 interaction=1: "
        "no guided window: outer indices (3.5000, 2.9780) vs max layer index 3.3238\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("step", [1e-4, 5e-5])
def test_spectrum_on_a_fine_grid(tmp_path, step):
    # kernels off: the steps of lo + step k spread by an ulp of |lambda|, which
    # the grid check takes as uniform
    kernels = ("--set", "pump.linewidth_fwhm_nm=0", "--set", "spectrum.monochromator_fwhm_nm=0")
    argv = ("spectrum", "--set", f"spectrum.step_nm={step}", *kernels, "--out", tmp_path)
    assert run(*argv, "--quiet") == EXIT_OK
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) > 10.0 / step


def test_counts_beyond_the_double_range_is_numeric_error(tmp_path, capsys):
    argv = ("counts", "--set", "detection.pairs_per_pulse=1e300", "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "overrides",
    [
        '{"n_mean":3.1,"finesse":1e308,"t_up":1,"t_down":0}',
        '{"n_mean":1e308,"finesse":100,"t_up":1,"t_down":0}',
    ],
    ids=["finesse", "n_mean"],
)
def test_enhancement_beyond_the_double_range_is_numeric_error(tmp_path, capsys, overrides):
    # an infinite factor is no JSON number: the command writes no file
    argv = ("enhancement", "--set", f"enhancement_overrides={overrides}", "--out", tmp_path)
    assert run(*argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == "error: enhancement factor leaves the double range\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "setting",
    ['hom.dwell_s="x"', 'hom.degeneracy_wavelength_nm="x"', "hom.degeneracy_wavelength_nm=-1"],
    ids=["dwell_string", "wavelength_string", "negative_wavelength"],
)
def test_hom_fit_bad_config_is_input_error(scan_dir, tmp_path, capsys, setting):
    scan = scan_dir / "hom_scan.csv"
    argv = ("hom", "fit", "--scan", scan, "--set", setting, "--out", tmp_path, "--quiet")
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_spectrum_grid_is_capped(tmp_path, capsys):
    assert run(
        "spectrum", "--set", "spectrum.step_nm=1e-9", "--out", tmp_path, "--quiet"
    ) == EXIT_INPUT
    assert str(MAX_SWEEP_POINTS) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "step, key",
    [(0.2, "pump.linewidth_fwhm_nm"), (0.06, "spectrum.monochromator_fwhm_nm")],
    ids=["pump_kernel", "monochromator_kernel"],
)
def test_spectrum_step_coarser_than_a_kernel_names_both_keys(tmp_path, capsys, step, key):
    # the default kernels are 0.3 nm (pump) and 0.1 nm (monochromator) wide;
    # a kernel needs at least two grid steps across its FWHM
    assert run("spectrum", "--set", f"spectrum.step_nm={step}", "--out", tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "spectrum.step_nm" in err and key in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "document, named",
    [({"pump": {"wavelenght_nm": 700}}, "pump.wavelenght_nm"), ({"resonance": 3}, "resonance")],
    ids=["misspelt_key", "section_number"],
)
def test_config_file_shape_is_checked(tmp_path, capsys, document, named):
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps(document), encoding="utf-8")
    assert run("counts", "--config", cfg, "--out", tmp_path / "out", "--quiet") == EXIT_INPUT
    assert f"'{named}'" in capsys.readouterr().err


def _source_env():
    src = str(Path(twinsource.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_loads_no_scipy():
    # importing scipy's constants, interpolate and optimize took ~0.75-0.85 s of
    # the ~1.0 s start of every command (measured on a 2-vCPU x86-64 host)
    code = (
        "import sys, twinsource.cli; "
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=_source_env(), timeout=120).returncode == 0


@pytest.mark.parametrize(
    "command, absent",
    [
        (["counts"], {"stack", "modes", "phasematch", "spectra", "hom", "roots"}),
        (["hom", "simulate"], {"stack", "modes", "phasematch", "spectra"}),
        (["stack"], {"modes", "phasematch", "spectra", "hom"}),
        (["tuning"], {"stack", "spectra", "hom"}),
        (["spectrum"], {"stack", "hom"}),
        (["enhancement"], {"phasematch", "spectra", "hom"}),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, absent):
    # each layer a command skips saves its import (and, without bytecode
    # caches, its compile) in every fresh process
    code = (
        "import sys, twinsource.cli as cli; rc = cli.main(sys.argv[1:]); "
        "print(*(m for m in sys.modules if m.startswith('twinsource.'))); sys.exit(rc)"
    )
    argv = [sys.executable, "-c", code, *command, "--out", str(tmp_path), "--quiet"]
    proc = subprocess.run(argv, env=_source_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = {m.removeprefix("twinsource.") for m in proc.stdout.split()}
    assert {"cli", "config"} <= loaded and not loaded & absent
    # the layers a command imports are timed as their own stage
    stages = json.loads((tmp_path / f"{'-'.join(command)}.report.json").read_text())["stages"]
    assert (stages["import_s"] > 0) == (command != ["counts"])


def _mixed_columns():
    specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.1, -2.5e-7]
    n = len(specials)
    return {
        "f64": np.array(specials),
        "f32": np.array([-0.0, math.inf, -math.inf, math.nan, 1e-45, 3e38, 0.1, -2.5e-7], dtype=np.float32),
        "flag": np.arange(n) % 3 == 0,
        "count": np.arange(n) - 3,
        "floats": [1.0 / (k + 1) for k in range(n)],
        "ints": list(range(-4, n - 4)),
        "bools": [k % 2 == 1 for k in range(n)],
        "scalars": [np.float64(k) / 7 for k in range(n)],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [8, 0])
def test_column_wise_table_writer_is_the_row_by_row_writer(tmp_path, fmt, rows):
    columns = {name: col[:rows] for name, col in _mixed_columns().items()}
    _write_table(tmp_path / "new", columns, fmt)
    write_table_rows(tmp_path / "old", columns, fmt)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_table_writer_keeps_a_longdouble_cell_a_double(tmp_path):
    # tolist() leaves longdouble elements numpy scalars, whose repr is not a float's
    columns = {"x": np.array([0.1, 1e300], dtype=np.longdouble), "y": np.array([1.0, 2.0])}
    _write_table(tmp_path / "new", columns, "csv")
    write_table_rows(tmp_path / "old", columns, "csv")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
def test_table_writer_refuses_ragged_columns(tmp_path, fmt, lengths):
    # the row-by-row writer took its row count from the first column alone
    columns = {"a": np.arange(float(lengths[0])), "b": list(range(lengths[1]))}
    with pytest.raises(ValueError):
        _write_table(tmp_path / "table", columns, fmt)


def test_unknown_dispersion_model_is_input_error(tmp_path):
    assert run(
        "spectrum", "--set", 'dispersion.model="nope"', "--out", tmp_path, "--quiet"
    ) == EXIT_INPUT


def test_tuning_four_branches_with_crossings(tmp_path):
    assert run(
        "tuning", "--theta-min", -1, "--theta-max", 4, "--theta-step", 0.25,
        "--out", tmp_path, "--quiet",
    ) == EXIT_OK
    header, rows = read_csv(tmp_path / "tuning.csv")
    assert header == ["interaction", "theta_deg", "lambda_s_nm", "lambda_i_nm", "near_degeneracy"]
    inters = {r[0] for r in rows}
    assert inters == {"1", "2"}
    flagged = [r for r in rows if r[4] == "1"]
    assert len(flagged) == 4  # two rows bracketing each interaction's crossing
    assert {r[0] for r in flagged} == {"1", "2"}


def test_tuning_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ("tuning", "--theta-min", 0, "--theta-max", 1, "--theta-step", 0.5, "--quiet")
    assert run(*argv, "--out", a) == EXIT_OK
    assert run(*argv, "--out", b) == EXIT_OK
    assert (a / "tuning.csv").read_bytes() == (b / "tuning.csv").read_bytes()


def test_tuning_output_is_independent_of_earlier_runs(tmp_path):
    # a run that needs wider mode tables must not change what a later run writes
    argv = ("tuning", "--theta-min", 3.1, "--theta-max", 3.1, "--theta-step", 1, "--quiet")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(*argv, "--out", a) == EXIT_OK
    assert run(*argv, "--set", "pump.wavelength_nm=770", "--out", b) == EXIT_OK
    assert run(*argv, "--out", c) == EXIT_OK
    assert (a / "tuning.csv").read_bytes() == (c / "tuning.csv").read_bytes()


def test_spectrum_four_peaks(tmp_path):
    from scipy.signal import find_peaks

    assert run("spectrum", "--theta", 3.1, "--out", tmp_path, "--quiet") == EXIT_OK
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["lambda_nm", "intensity"]
    inten = np.array([float(r[1]) for r in rows])
    peaks, _ = find_peaks(inten, prominence=0.05)
    assert len(peaks) == 4


def test_spectrum_json_format(tmp_path):
    assert run(
        "spectrum", "--theta", 3.1, "--out", tmp_path, "--format", "json", "--quiet"
    ) == EXIT_OK
    records = json.loads((tmp_path / "spectrum.json").read_text())
    assert {"lambda_nm", "intensity"} == set(records[0])


def test_hom_simulate_then_fit_roundtrip(tmp_path):
    assert run("hom", "simulate", "--out", tmp_path, "--quiet") == EXIT_OK
    scan = tmp_path / "hom_scan.csv"
    header, rows = read_csv(scan)
    assert header == ["delta_z_mm", "total_counts", "accidental_counts"]
    assert len(rows) == 25
    assert run("hom", "fit", "--scan", scan, "--out", tmp_path, "--quiet") == EXIT_OK
    fit = json.loads((tmp_path / "hom_fit.json").read_text())
    assert abs(fit["visibility"] - 0.847) < 0.1
    assert abs(fit["delta_lambda_nm"] - 0.53) < 0.1
    assert fit["converged"] is True


def test_hom_fit_reports_an_unconverged_fit(tmp_path):
    # a scan whose second baseline pass leaves fewer than 3 baseline points: the
    # first pass's fit is written, flagged as not converged
    assert run(
        "hom", "simulate", "--seed", 1150664034,
        "--set", "hom.delta_lambda_nm=0.4014396240156993", "--out", tmp_path, "--quiet",
    ) == EXIT_OK
    scan = tmp_path / "hom_scan.csv"
    assert run("hom", "fit", "--scan", scan, "--out", tmp_path, "--quiet") == EXIT_OK
    assert json.loads((tmp_path / "hom_fit.json").read_text())["converged"] is False
    warnings = json.loads((tmp_path / "hom-fit.report.json").read_text())["warnings"]
    assert any("not converged" in w for w in warnings)


def test_hom_fit_keeps_a_visibility_above_one(tmp_path):
    # accidentals above the totals at the three central points push the net
    # counts below zero there, so the fitted V exceeds 1: the fit is written
    # as it is, with a warning, and its residuals need no DipModel
    positions = np.linspace(-5.0, 5.0, 25)
    scan = simulate_scan(DipModel(1.0, 1520.0, 0.53), DetectionChain(), positions, 60.0, seed=0)
    centre = np.abs(positions) < 0.5
    accidental = np.where(centre, scan.total_counts + 1, scan.accidental_counts)
    rows = zip(positions.tolist(), scan.total_counts.tolist(), accidental.tolist())
    path = tmp_path / "scan.csv"
    path.write_text(
        "delta_z_mm,total_counts,accidental_counts\n"
        + "".join(f"{z!r},{t},{a}\n" for z, t, a in rows)
    )
    assert run("hom", "fit", "--scan", path, "--out", tmp_path, "--quiet") == EXIT_OK
    fit = json.loads((tmp_path / "hom_fit.json").read_text())
    assert fit["visibility"] == pytest.approx(1.069, abs=1e-3)
    assert len(fit["normalized_residuals"]) == 25
    assert all(np.isfinite(fit["normalized_residuals"]))
    warnings = json.loads((tmp_path / "hom-fit.report.json").read_text())["warnings"]
    assert any("exceeds 1" in w for w in warnings)


def test_hom_seed_changes_counts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("hom", "simulate", "--out", a, "--seed", 1, "--quiet") == EXIT_OK
    assert run("hom", "simulate", "--out", b, "--seed", 2, "--quiet") == EXIT_OK
    assert (a / "hom_scan.csv").read_bytes() != (b / "hom_scan.csv").read_bytes()
    c = tmp_path / "c"
    assert run("hom", "simulate", "--out", c, "--seed", 1, "--quiet") == EXIT_OK
    assert (a / "hom_scan.csv").read_bytes() == (c / "hom_scan.csv").read_bytes()


def test_hom_fit_rejects_corrupt_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("delta_z_mm,total_counts\n0.0,5\n", encoding="utf-8")
    assert run("hom", "fit", "--scan", bad, "--out", tmp_path, "--quiet") == EXIT_INPUT
    bad.write_text(
        "delta_z_mm,total_counts,accidental_counts\n0.0,x,1\n", encoding="utf-8"
    )
    assert run("hom", "fit", "--scan", bad, "--out", tmp_path, "--quiet") == EXIT_INPUT
    assert run(
        "hom", "fit", "--scan", tmp_path / "missing.csv", "--out", tmp_path, "--quiet"
    ) == EXIT_INPUT


def test_hom_fit_names_a_scan_without_rows(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("delta_z_mm,total_counts,accidental_counts\n", encoding="utf-8")
    assert run("hom", "fit", "--scan", empty, "--out", tmp_path / "out", "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err == "error: scan file has a header and no data rows\n"


def test_hom_fit_degenerate_scan_is_numeric_failure(tmp_path):
    flat = tmp_path / "flat.csv"
    rows = ["delta_z_mm,total_counts,accidental_counts"]
    rng = np.random.default_rng(0)
    for dz in np.linspace(-5, 5, 25):
        rows.append(f"{float(dz)!r},{500 + int(rng.integers(0, 40))},100")
    flat.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("hom", "fit", "--scan", flat, "--out", tmp_path, "--quiet") == EXIT_NUMERIC


def test_enhancement_hand_value_via_overrides(tmp_path):
    assert run(
        "enhancement",
        "--set", "enhancement_overrides.n_mean=3",
        "--set", "enhancement_overrides.finesse=100",
        "--set", "enhancement_overrides.t_up=0.5",
        "--set", "enhancement_overrides.t_down=0.5",
        "--out", tmp_path, "--quiet",
    ) == EXIT_OK
    payload = json.loads((tmp_path / "enhancement.json").read_text())
    assert payload["enhancement_factor"] == pytest.approx(3200 / (9 * np.pi), abs=1e-9)


def test_enhancement_doubles_with_finesse(tmp_path):
    vals = []
    for i, f in enumerate((50, 100)):
        out = tmp_path / str(i)
        assert run(
            "enhancement",
            "--set", "enhancement_overrides.n_mean=3.1",
            "--set", f"enhancement_overrides.finesse={f}",
            "--set", "enhancement_overrides.t_up=0.2",
            "--set", "enhancement_overrides.t_down=0.001",
            "--out", out, "--quiet",
        ) == EXIT_OK
        vals.append(json.loads((out / "enhancement.json").read_text())["enhancement_factor"])
    assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)


def test_enhancement_full_device_path(tmp_path):
    assert run("enhancement", "--out", tmp_path, "--quiet") == EXIT_OK
    payload = json.loads((tmp_path / "enhancement.json").read_text())
    assert payload["enhancement_factor"] > 1.0
    assert payload["t_down"] < payload["t_up"]
    assert abs(payload["resonance_nm"] - 760.0) < 5.0
    assert 3.0 < payload["n_mean"] < 3.3


def test_enhancement_no_resonance_is_numeric_failure(tmp_path):
    assert run(
        "enhancement", "--set", "resonance.window_nm=[744,752]",
        "--out", tmp_path, "--quiet",
    ) == EXIT_NUMERIC


def test_counts_report(tmp_path):
    assert run("counts", "--out", tmp_path, "--quiet") == EXIT_OK
    payload = json.loads((tmp_path / "counts.json").read_text())
    assert 200 < payload["singles_rate_hz"] < 800
    assert abs(payload["accidental_fraction"] - 0.14) < 0.07
    # every intermediate factor of the budget is surfaced
    for key in ("photon_detection_prob", "pair_click_prob", "dark_click_prob",
                "coincidence_duty"):
        assert key in payload


def test_config_file_loading(tmp_path):
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps({"pump": {"angle_deg": 3.1}}), encoding="utf-8")
    assert run("spectrum", "--config", cfg, "--out", tmp_path, "--quiet") == EXIT_OK
    meta = json.loads((tmp_path / "spectrum.csv.meta.json").read_text())
    assert meta["theta_deg"] == 3.1


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert run("spectrum", "--config", cfg, "--out", tmp_path, "--quiet") == EXIT_INPUT
    assert run(
        "spectrum", "--config", tmp_path / "absent.json", "--out", tmp_path, "--quiet"
    ) == EXIT_INPUT


@pytest.mark.parametrize("below", ["", "x"], ids=["file", "path_through_a_file"])
def test_out_naming_a_file_is_input_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert run("counts", "--out", taken / below, "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [("counts", "--config"), ("hom", "fit", "--scan")], ids=["config", "scan"])
def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys, argv):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with its byte-order mark
    assert run(*argv, path, "--out", tmp_path / "out", "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("row, position", [(12, "nan"), (24, "inf")], ids=["nan", "inf"])
def test_hom_fit_non_finite_position_is_input_error(scan_dir, tmp_path, capsys, row, position):
    header, *rows = (scan_dir / "hom_scan.csv").read_text(encoding="utf-8").splitlines()
    rows[row] = f"{position}," + rows[row].split(",", 1)[1]
    scan = tmp_path / "scan.csv"
    scan.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    assert run("hom", "fit", "--scan", scan, "--out", tmp_path / "out", "--quiet") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: scan violates invariants")


# --- arbitrary config values through the commands -----------------------------------

# the commands run for a value in each section: the cheapest that read it, and
# tuning for the stack, whose mode tables then solve the changed device
_FUZZ_COMMANDS = {
    "hom": ("hom simulate", "hom fit"),
    "detection": ("counts", "hom simulate"),
    "sample": ("hom simulate",),
    "enhancement_overrides": ("enhancement",),
    "stack": ("stack", "tuning"),
    "tuning": ("tuning",),
    "spectrum": ("spectrum",),
}
_FUZZ_KEYS = (
    [f"hom.{k}" for k in DEFAULT_CONFIG["hom"]]
    + [f"detection.{k}" for k in DEFAULT_CONFIG["detection"]]
    + ["sample.facet_reflectance"]
    + [f"enhancement_overrides.{k}" for k in ("n_mean", "finesse", "t_up", "t_down")]
    + [f"{part}.{k}" for part in ("stack", "tuning", "spectrum") for k in DEFAULT_CONFIG[part]]
)
# sweeps that pass the check but hold this many points make an example slow,
# not a better test
_FUZZ_MAX_POINTS = 2000
# a numeric default scaled by one of these is a value the check may pass
_FUZZ_SCALES = (-1.0, 0.0, 0.5, 0.99, 1.01, 1.5, 3.0)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _fuzz_assignment(key):
    """(key, value): any JSON value or, for a numeric default, a scaled default."""
    section, name = key.split(".")
    default = DEFAULT_CONFIG.get(section, {}).get(name)
    values = _JSON_VALUES
    if type(default) in (int, float):
        values = st.one_of(values, st.sampled_from([default * f for f in _FUZZ_SCALES]))
    return st.tuples(st.just(key), values)


# enhancement runs on these four overrides alone, without the device
_ALL_OVERRIDES = (
    "enhancement_overrides.n_mean=3.1",
    "enhancement_overrides.finesse=100",
    "enhancement_overrides.t_up=0.2",
    "enhancement_overrides.t_down=0.001",
)




def _sweeps_stay_small(assignments):
    cfg = apply_overrides(default_config(), [f"{k}={json.dumps(v)}" for k, v in assignments])
    try:
        check_config(cfg)
    except ConfigError:
        return True
    tuning, spectrum = cfg["tuning"], cfg["spectrum"]
    angles = (tuning["theta_max_deg"] - tuning["theta_min_deg"]) / tuning["theta_step_deg"]
    return max(angles, 2 * spectrum["half_span_nm"] / spectrum["step_nm"]) <= _FUZZ_MAX_POINTS


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    assignments=st.lists(
        st.sampled_from(_FUZZ_KEYS).flatmap(_fuzz_assignment), min_size=1, max_size=2
    ).filter(_sweeps_stay_small)
)
def test_arbitrary_config_values_keep_the_exit_contract(scan_dir, assignments):
    sets = [f"{key}={json.dumps(value)}" for key, value in assignments]
    commands = {c for key, _ in assignments for c in _FUZZ_COMMANDS[key.split(".")[0]]}
    for command in sorted(commands):
        argv = command.split()
        if command == "hom fit":
            argv += ["--scan", str(scan_dir / "hom_scan.csv")]
        for item in (_ALL_OVERRIDES if command == "enhancement" else ()) + tuple(sets):
            argv += ["--set", item]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(scan_dir / "out"), "--quiet"])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# --- arbitrary values through the config check itself ------------------------------


def _dotted(tree, prefix=""):
    for key, val in tree.items():
        yield prefix + key
        if isinstance(val, dict):
            yield from _dotted(val, f"{prefix}{key}.")


# every section and leaf key, the expensive sections (stack, tuning, spectrum,
# pump, resonance, dispersion) and the override names included
_CONFIG_KEYS = sorted(
    {*_dotted(DEFAULT_CONFIG), *(f"enhancement_overrides.{k}" for k in OVERRIDE_KEYS)}
)
_THICKNESS = st.one_of(_JSON_VALUES, st.sampled_from(("quarter-wave", "qpm")))
# regions and cells that pass their list's rule, so the walk descends into
# them, besides arbitrary objects and non-objects
_CELL_WITH_X = st.fixed_dictionaries(
    {"x": st.floats(0, 1), "thickness": _THICKNESS},
    optional={"sign": _JSON_VALUES, "thikness": _JSON_VALUES},
)
_CELL = st.one_of(
    _CELL_WITH_X,
    st.dictionaries(st.sampled_from(("x", "thickness", "sign")), _THICKNESS, max_size=3),
    _JSON_VALUES,
)
_CELLS = st.one_of(
    st.lists(_CELL_WITH_X, min_size=2, max_size=2),
    st.lists(_CELL, min_size=2, max_size=2),
    st.lists(_CELL, max_size=3),
)
_REGION = st.fixed_dictionaries(
    {
        "name": st.text(max_size=3),
        "periods": st.one_of(st.sampled_from((1, 4.5)), _JSON_VALUES),
        "cell": _CELLS,
    },
    optional={"size": _JSON_VALUES},
)
_REGIONS = st.one_of(
    st.lists(_REGION, min_size=1, max_size=2),
    st.lists(
        st.one_of(
            _REGION,
            st.dictionaries(st.sampled_from(("name", "periods", "cell")), _CELLS, max_size=3),
            _JSON_VALUES,
        ),
        max_size=3,
    ),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    assignments=st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES), max_size=3),
    regions=st.one_of(st.none(), _REGIONS),
    dropped=st.lists(st.sampled_from(_CONFIG_KEYS), max_size=1),
)
def test_config_check_raises_only_config_errors(assignments, regions, dropped):
    sets = [f"{key}={json.dumps(value)}" for key, value in assignments]
    if regions is not None:
        sets.append(f"stack.regions={json.dumps(regions)}")
    cfg = apply_overrides(default_config(), sets)
    for key in dropped:
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(leaf, None)
    try:
        assert check_config(cfg) is cfg
    except ConfigError:
        pass
