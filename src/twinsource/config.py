"""Device configuration: one JSON document drives every command.

A config file is deep-merged over the built-in defaults (which mirror the
nominal device and bench), so files only need the keys they change;
``check_config`` checks the result whole (keys, types, ``_RULES``), so a
bad value in any section is a ConfigError, whichever command runs.
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
from .errors import ANGLE, BELOW_ONE, FRACTION, LENGTH_MM, NON_NEGATIVE, NUMBER, POSITIVE, WINDOW
from .errors import AMBIENT_INDEX, MAX_SWEEP_POINTS, SQUARABLE, number
from .errors import AboveBandgap, ConfigError, NonPhysicalInput, OutOfValidityWindow, require
from .materials import Composition


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
    "detection": DetectionChain()._asdict(),  # the nominal chain, written once
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

OVERRIDE_KEYS = ("n_mean", "finesse", "t_up", "t_down")  # CavityParams fields, in order
_SHAPE = {**DEFAULT_CONFIG, "enhancement_overrides": dict.fromkeys(OVERRIDE_KEYS, 0.0)}
MAX_PERIODS = 1000  # most periods of one stack region, each built as layer objects


# A key's rule (``errors``) is its range rule in _RULES, which checks the
# type too, or else the type of its default value.
_TYPES = {
    dict: (lambda v: isinstance(v, dict), "an object"),
    str: (lambda v: isinstance(v, str), "a string"),
}
_RULES = {
    **dict.fromkeys(
        (
            "stack.design_wavelength_nm", "pump.wavelength_nm", "spectrum.step_nm",
            "spectrum.half_span_nm", "tuning.theta_step_deg", "hom.delta_lambda_nm",
            "hom.dwell_s",
        ),
        POSITIVE,
    ),
    **dict.fromkeys(
        ("pump.linewidth_fwhm_nm", "spectrum.monochromator_fwhm_nm", "spectrum.noise_floor"),
        NON_NEGATIVE,
    ),
    **dict.fromkeys(("pump.angle_deg", "tuning.theta_min_deg", "tuning.theta_max_deg"), ANGLE),
    "resonance.window_nm": WINDOW,
    "stack.ambient_index": AMBIENT_INDEX,
    "hom.degeneracy_wavelength_nm": SQUARABLE,
    **dict.fromkeys(("sample.length_mm", "hom.scan_half_span_mm"), LENGTH_MM),
    "sample.facet_reflectance": BELOW_ONE,
    "hom.visibility": (lambda v: v is None or FRACTION[0](v), "null or in [0, 1]"),
    "hom.scan_points": (
        lambda v: number(v) and v == int(v) and 2 <= v <= MAX_SWEEP_POINTS,
        f"a whole number from 2 to {MAX_SWEEP_POINTS}",
    ),
    "seed": (lambda v: number(v) and isinstance(v, int) and v >= 0, "a non-negative integer"),
    "stack.substrate_x": (lambda v: v is None or number(v), "null (no substrate) or a number"),
    "stack.regions": (
        lambda v: isinstance(v, list) and len(v) > 0
        and all(isinstance(r, dict) and {"name", "periods", "cell"} <= r.keys() for r in v),
        "a non-empty list of objects with a name, periods and a cell",
    ),
    "stack.regions.periods": (
        lambda v: number(v) and 0 < v <= MAX_PERIODS and round(2 * v) == 2 * v,
        f"a half-integer from 0.5 to {MAX_PERIODS}",
    ),
    "stack.regions.cell": (
        lambda v: isinstance(v, list) and len(v) == 2
        and all(isinstance(c, dict) and "x" in c for c in v) and v[0]["x"] != v[1]["x"],
        "two layers, each with an x, of different compositions",
    ),
    "stack.regions.cell.thickness": (
        lambda v: v in ("quarter-wave", "qpm") or POSITIVE[0](v),
        '"quarter-wave", "qpm" or a finite number > 0',
    ),
}


def _item_shape(items: list) -> dict:
    """The shape of one list entry: every key of the default entries, their lists joined."""
    shape = {}
    for item in items:
        for key, val in item.items():
            shape[key] = shape.get(key, []) + val if isinstance(val, list) else val
    return shape


def _walk(doc: dict, shape: dict, required: dict, path: str, rule_path: str):
    """ConfigError unless ``doc`` has the keys of ``required``, and each key it has
    is in ``shape`` and passes its rule."""
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"config key '{path}{missing[0]}' is missing")
    for key, val in doc.items():
        where, rule_key = f"{path}{key}", f"{rule_path}{key}"
        if key not in shape:
            raise ConfigError(f"unknown config key '{where}'")
        default = shape[key]
        rule = _RULES.get(rule_key) or _TYPES.get(type(default), NUMBER)
        require(val, rule, f"config key '{where}'", ConfigError)
        if isinstance(default, dict):
            _walk(val, default, required.get(key, {}), f"{where}.", f"{rule_key}.")
        elif isinstance(default, list) and isinstance(default[0], dict):
            for i, entry in enumerate(val):  # objects with the keys they need, by the list's rule
                _walk(entry, _item_shape(default), {}, f"{where}[{i}].", f"{rule_key}.")


def check_config(cfg: dict) -> dict:
    """``cfg`` itself once it is a whole config that passes every rule, else ConfigError."""
    _walk(cfg, _SHAPE, DEFAULT_CONFIG, "", "")
    try:
        DetectionChain(**cfg["detection"])
    except NonPhysicalInput as exc:
        raise ConfigError(f"invalid detection section: {exc}") from exc
    return cfg


_DEPTH = 6  # the config's own nesting: the config, stack, regions, a region, its cell, a layer


def _too_deep(source: str) -> ConfigError:
    return ConfigError(f"{source} nests objects and lists more than {_DEPTH} deep, as no key does")


def _nested(doc, source: str):
    """``doc``, unless it nests objects and lists deeper than the config does
    (``_too_deep``), found without looking deeper, so before any deep copy."""

    def within(node, depth):
        if not isinstance(node, (dict, list)):
            return True
        items = node.values() if isinstance(node, dict) else node
        return depth > 0 and all(within(v, depth - 1) for v in items)

    if not within(doc, _DEPTH):
        raise _too_deep(source)
    return doc


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
    """Defaults, overlaid with the JSON document at ``path`` when given (see ``check_config``)."""
    cfg = default_config()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        except RecursionError:  # nested past the decoder's depth
            raise _too_deep("config document") from None
        if not isinstance(user, dict):
            raise ConfigError("config document must be a JSON object")
        cfg = _deep_merge(cfg, _nested(user, "config document"))
    return cfg


def apply_overrides(cfg: dict, assignments) -> dict:
    """Apply ``key.path=value`` overrides (JSON, else string) as config files are applied."""
    out = copy.deepcopy(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            doc = raw
        except RecursionError:  # nested past the decoder's depth
            raise _too_deep(f"override of '{key}'") from None
        for part in reversed(key.split(".")):
            doc = {part: doc}
        out = _deep_merge(out, _nested(doc, f"override of '{key}'"))
    return out


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def dispersion_model(cfg: dict):
    """The dispersion model the config names (the config is checked first)."""
    try:
        return materials.get_model(check_config(cfg)["dispersion"]["model"])
    except OutOfValidityWindow as exc:
        raise ConfigError(str(exc)) from exc


def build_stack(cfg: dict) -> LayerStack:
    """LayerStack from the config's stack section (config checked, invariants enforced).

    A region's cell is built once, both its layers, and repeated layer by
    layer round(2 periods) times: a half period ends on the cell's first layer.
    """
    from .layers import Layer, LayerStack, Region  # here: a command that builds no stack loads none
    model = dispersion_model(cfg)
    sc = cfg["stack"]
    lam = sc["design_wavelength_nm"]
    try:
        layers: list[Layer] = []
        regions: list[Region] = []
        for reg in sc["regions"]:
            comps = [Composition(spec["x"]) for spec in reg["cell"]]
            indices = [materials.refractive_index(comp, lam, model) for comp in comps]
            mean_n = sum(indices) / len(indices)
            cell = []
            for spec, comp, n in zip(reg["cell"], comps, indices):
                rule = spec.get("thickness", "quarter-wave")
                if rule == "quarter-wave":
                    t = lam / (4.0 * n)
                elif rule == "qpm":
                    t = lam / (4.0 * mean_n)
                else:
                    t = float(rule)
                cell.append(Layer(comp, t, spec.get("sign", 0)))
            start = len(layers)
            layers += [cell[i % 2] for i in range(round(2 * reg["periods"]))]
            regions.append(Region(reg["name"], start, len(layers)))
        substrate = Composition(sc["substrate_x"]) if sc["substrate_x"] is not None else None
        return LayerStack(
            layers=tuple(layers),
            substrate=substrate,
            ambient_index=sc["ambient_index"],
            regions=tuple(regions),
        )
    except (ValueError, OutOfValidityWindow, AboveBandgap) as exc:
        raise ConfigError(f"invalid stack description: {exc}") from exc


def build_detection_chain(cfg: dict) -> DetectionChain:
    """DetectionChain from the config's detection section (config checked)."""
    return DetectionChain(**check_config(cfg)["detection"])


def hom_visibility(cfg: dict) -> float:
    """``hom.visibility``, or 1/(1 + 2 R^2) from the facet reflectance when it is null."""
    from .hom import visibility_from_reflectivity
    vis, r = check_config(cfg)["hom"]["visibility"], cfg["sample"]["facet_reflectance"]
    return visibility_from_reflectivity(r) if vis is None else float(vis)
