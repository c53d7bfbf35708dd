"""Device configuration: one JSON document drives every command.

A config file is deep-merged over the built-in defaults (which mirror the
nominal device and bench), so files only need the keys they change.
Thickness rules inside stack regions are either a number (nm),
"quarter-wave" (quarter wave at the design wavelength in that layer) or
"qpm" (quarter wave at the mean index of the region's cell compositions).
"""

from __future__ import annotations

import copy
import hashlib
import json

from . import materials
from .efficiency import DetectionChain
from .errors import AboveBandgap, ConfigError, NonPhysicalInput, OutOfValidityWindow
from .hom import visibility_from_reflectivity
from .materials import Composition
from .stack import Layer, LayerStack, Region


# The nominal device. DBR cells are listed top to bottom as (low, high) index,
# so the layer next to the core is the high-index one in the top mirror and
# the low-index one in the bottom mirror; with quarter-wave layers this
# parity puts the cavity resonance at the design wavelength.
DEFAULT_CONFIG = {
    "dispersion": {"model": "adachi1985"},
    "stack": {
        "design_wavelength_nm": 760.0,
        "substrate_x": 0.0,
        "ambient_index": 1.0,
        "regions": [
            {
                "name": "top_dbr",
                "periods": 18,
                "cell": [
                    {"x": 0.90, "thickness": "quarter-wave"},
                    {"x": 0.35, "thickness": "quarter-wave"},
                ],
            },
            {
                "name": "core",
                "periods": 4.5,
                "cell": [
                    {"x": 0.25, "thickness": "qpm", "sign": 1},
                    {"x": 0.80, "thickness": "qpm", "sign": -1},
                ],
            },
            {
                "name": "bottom_dbr",
                "periods": 41,
                "cell": [
                    {"x": 0.90, "thickness": "quarter-wave"},
                    {"x": 0.35, "thickness": "quarter-wave"},
                ],
            },
        ],
    },
    "pump": {"wavelength_nm": 760.0, "linewidth_fwhm_nm": 0.3, "angle_deg": 0.37},
    "sample": {"length_mm": 1.0, "facet_reflectance": 0.30},
    "resonance": {"window_nm": [740.0, 780.0]},
    "spectrum": {
        "step_nm": 0.005,
        "half_span_nm": 5.0,
        "monochromator_fwhm_nm": 0.1,
        "noise_floor": 0.0,
    },
    "tuning": {"theta_min_deg": -1.0, "theta_max_deg": 4.0, "theta_step_deg": 0.05},
    "detection": {
        "pairs_per_pulse": 10.0,
        "selected_fraction": 0.5,
        "pulse_rate_hz": 3000.0,
        "pulse_duration_s": 150e-9,
        "facet_transmission": 0.70,
        "objective_transmission": 0.70,
        "filter_transmission": 0.50,
        "splitter_transmission": 0.50,
        "detector_efficiency": 0.20,
        "dark_rate_hz": 20.0,
        "coincidence_window_s": 2e-9,
        "luminescence_per_nm_pulse": 0.05,
        "filter_bandwidth_nm": 10.0,
        "filter_center_nm": 1520.0,
    },
    "hom": {
        "visibility": None,  # None -> 1/(1 + 2 R^2) from the facet reflectance
        "delta_lambda_nm": 0.53,
        "degeneracy_wavelength_nm": 1520.0,
        "scan_half_span_mm": 5.0,
        "scan_points": 25,
        "dwell_s": 60.0,
    },
    "enhancement_overrides": {},
    "seed": 20090401,
}


def _deep_merge(base: dict, update: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in update.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def default_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def load_config(path=None) -> dict:
    """Defaults, overlaid with the JSON document at ``path`` when given."""
    cfg = default_config()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
        cfg = _deep_merge(cfg, user)
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides (values parsed as JSON, else string)."""
    out = copy.deepcopy(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def dispersion_model(cfg: dict):
    name = cfg.get("dispersion", {}).get("model", "adachi1985")
    try:
        return materials.get_model(name)
    except OutOfValidityWindow as exc:
        raise ConfigError(str(exc)) from exc


def build_stack(cfg: dict) -> LayerStack:
    """LayerStack from the config's stack section (invariants enforced)."""
    sc = cfg.get("stack", {})
    model = dispersion_model(cfg)
    lam = sc.get("design_wavelength_nm", 760.0)
    try:
        if not lam > 0:
            raise ConfigError(f"stack.design_wavelength_nm must be > 0, got {lam}")
        layers: list[Layer] = []
        regions: list[Region] = []
        for reg in sc.get("regions", []):
            periods = reg["periods"]
            if periods <= 0 or round(2 * periods) != 2 * periods:
                raise ConfigError(
                    f"region '{reg.get('name')}' period count {periods} "
                    "is not a half-integer > 0"
                )
            cell = reg["cell"]
            if len(cell) != 2:
                raise ConfigError("each region cell must list exactly two layers")
            if cell[0]["x"] == cell[1]["x"]:
                raise ConfigError(
                    f"region '{reg.get('name')}' cell repeats composition x={cell[0]['x']}"
                )
            n_layers = round(2 * periods)
            mean_n = sum(
                materials.refractive_index(Composition(c["x"]), lam, model) for c in cell
            ) / len(cell)
            start = len(layers)
            for i in range(n_layers):
                spec = cell[i % 2]
                comp = Composition(spec["x"])
                rule = spec.get("thickness", "quarter-wave")
                if rule == "quarter-wave":
                    t = lam / (4.0 * materials.refractive_index(comp, lam, model))
                elif rule == "qpm":
                    t = lam / (4.0 * mean_n)
                elif isinstance(rule, (int, float)) and rule > 0:
                    t = float(rule)
                else:
                    raise ConfigError(f"bad thickness rule {rule!r}")
                layers.append(Layer(comp, t, spec.get("sign", 0)))
            regions.append(Region(reg["name"], start, len(layers), periods))
        substrate = (
            Composition(sc["substrate_x"]) if sc.get("substrate_x") is not None else None
        )
        return LayerStack(
            layers=tuple(layers),
            substrate=substrate,
            ambient_index=sc.get("ambient_index", 1.0),
            regions=tuple(regions),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OutOfValidityWindow, AboveBandgap) as exc:
        raise ConfigError(f"invalid stack description: {exc}") from exc


def build_detection_chain(cfg: dict) -> DetectionChain:
    try:
        return DetectionChain(**cfg.get("detection", {}))
    except (TypeError, NonPhysicalInput) as exc:
        raise ConfigError(f"invalid detection section: {exc}") from exc


def hom_visibility(cfg: dict) -> float:
    vis = cfg.get("hom", {}).get("visibility")
    if vis is None:
        r = cfg.get("sample", {}).get("facet_reflectance", 0.30)
        try:
            return visibility_from_reflectivity(r)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sample.facet_reflectance: {exc}") from exc
    if not (isinstance(vis, (int, float)) and 0.0 <= vis <= 1.0):
        raise ConfigError(f"hom.visibility must be a number in [0, 1], got {vis!r}")
    return float(vis)
