"""In-memory span recorder and the wrappers that feed it.

``install()`` replaces the public functions of every twinsource layer module,
and a short list of methods, with thin wrappers. Each wrapper appends one span
(name, start, end, parent span, op id, error flag, value) to parallel lists;
nothing is written until ``Recorder.dump``. A name bound into another module
by ``from x import f`` is replaced at every module that holds it, and methods
are replaced on their class, so every binding site is covered.

The wrappers cost about a microsecond per call. ``materials.refractive_index``
and ``materials.complex_refractive_index`` are left unwrapped: their body is
one call into ``DispersionModel.evaluate[_complex]``, which is wrapped, and the
tuning command makes tens of thousands of such calls.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

import numpy as np

LAYERS = (
    "materials",
    "stack",
    "modes",
    "phasematch",
    "spectra",
    "efficiency",
    "hom",
    "config",
    "cli",
)

METHODS = {
    "materials": {"DispersionModel": ("evaluate", "evaluate_complex")},
    "modes": {"EffectiveIndexTable": ("__init__", "n_eff", "__call__", "n_group")},
    "phasematch": {
        "PhaseMatcher": ("solve_pair", "delta_k", "degeneracy_angle", "tuning_curve")
    },
}

SKIP = {"materials.refractive_index", "materials.complex_refractive_index"}


def _grid_len(result):
    return len(result.wavelength_nm)


# span name -> function of the return value, stored as the span's value
VALUES = {
    "spectra.phase_matching_spectrum": _grid_len,
    "spectra.fluorescence_spectrum": _grid_len,
    "hom.fit_dip": lambda result: result.iterations,
}


class Recorder:
    """Spans of one process, kept in parallel lists until dumped."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.name_id: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.err: list[int] = []
        self.val: list[float] = []
        self.current = -1
        self.op_id = -1
        self.missing: list[str] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def wrap(self, name: str, fn):
        nid = self.name_of.setdefault(name, len(self.name_of))
        if nid == len(self.names):
            self.names.append(name)
        value_of = VALUES.get(name)
        rec = self
        name_id, t0s, t1s, parents = self.name_id, self.t0, self.t1, self.parent
        ops, errs, vals = self.op, self.err, self.val

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            name_id.append(nid)
            parents.append(rec.current)
            ops.append(rec.op_id)
            errs.append(0)
            vals.append(0.0)
            t1s.append(0.0)
            rec.current = idx
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errs[idx] = 1
                raise
            finally:
                t1s[idx] = perf_counter()
                rec.current = parents[idx]
            if value_of is not None:
                vals[idx] = value_of(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr], new))

    def install(self):
        """Wrap every layer's public functions at all their binding sites.

        ``disable``/``enable`` restore and re-apply the originals, so one
        process can alternate untraced and traced ops.
        """
        mods = {layer: importlib.import_module(f"twinsource.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self.wrap(name, fn)
                for site in mods.values():
                    for bound, obj in list(vars(site).items()):
                        if obj is fn:
                            self._patch(site, bound, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is None or meth not in vars(cls):
                        self.missing.append(f"{layer}.{cls_name}.{meth}")
                        continue
                    span = "n_eff" if meth == "__call__" else meth  # an alias of n_eff
                    self._patch(cls, meth, self.wrap(f"{layer}.{cls_name}.{span}", vars(cls)[meth]))
        self.enable()
        return self

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def dump(self, path, **extra):
        """Write the spans to ``path`` (``.npz``) with extra scalar fields."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            t0=np.array(self.t0),
            t1=np.array(self.t1),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            err=np.array(self.err, dtype=np.int8),
            val=np.array(self.val),
            **{k: np.array(v) for k, v in extra.items()},
        )


def load(path):
    """Spans written by ``Recorder.dump`` as a dict of arrays, with self times."""
    with np.load(path) as data:
        spans = {k: data[k] for k in data.files}
    dur = spans["t1"] - spans["t0"]
    child = spans["parent"] >= 0
    # calls nest and never overlap on one thread, so the union of a span's
    # children is the sum of their durations
    covered = np.bincount(
        spans["parent"][child], weights=dur[child], minlength=len(dur)
    )
    spans["dur"] = dur
    spans["self"] = dur - covered
    spans["name"] = spans["names"][spans["name_id"]] if len(dur) else np.array([], dtype=str)
    return spans


def _count(spans, name):
    return int(np.sum(spans["name"] == name))


def _total(spans, name, field):
    return float(np.sum(spans[field][spans["name"] == name]))


def layer_metrics(span_sets) -> dict:
    """Per-layer counts and times from the spans of one or more processes."""
    keys = ("name", "dur", "self", "err", "val", "op")
    spans = {k: np.concatenate([s[k] for s in span_sets]) for k in keys}
    unique, inverse = np.unique(spans["name"], return_inverse=True)
    layer = np.array([u.split(".", 1)[0] for u in unique] or [""], dtype=str)[inverse]

    def self_s(name):
        return float(np.sum(spans["self"][layer == name]))

    builds = spans["name"] == "modes.EffectiveIndexTable.__init__"
    fits = spans["name"] == "hom.fit_dip"
    solves = spans["name"] == "phasematch.PhaseMatcher.solve_pair"
    out = {
        "materials.evals": _count(spans, "materials.DispersionModel.evaluate")
        + _count(spans, "materials.DispersionModel.evaluate_complex"),
        "stack.tmm_calls": _count(spans, "stack.raw_response"),
        "stack.field_calls": _count(spans, "stack.field_profile"),
        "stack.resonance_s": _total(spans, "stack.find_resonance", "dur"),
        "modes.table_builds": int(np.sum(builds)),
        "modes.table_builds_in_ops": int(np.sum(builds & (spans["op"] >= 0))),
        "modes.solve_calls": _count(spans, "modes.solve_planar"),
        "modes.table_build_s": float(np.sum(spans["dur"][builds])),
        "phasematch.solve_pair_calls": int(np.sum(solves)),
        "phasematch.delta_k_calls": _count(spans, "phasematch.PhaseMatcher.delta_k"),
        "phasematch.failed": int(np.sum(spans["err"][solves])),
        "spectra.grid_points": int(
            _total(spans, "spectra.phase_matching_spectrum", "val")
            + _total(spans, "spectra.fluorescence_spectrum", "val")
        ),
        "spectra.convolve_s": _total(spans, "spectra.convolve", "dur"),
        "hom.fit_calls": int(np.sum(fits)),
        "hom.fit_iterations": int(np.sum(spans["val"][fits])),
        "hom.fit_failed": int(np.sum(spans["err"][fits])),
        "hom.fit_s": float(np.sum(spans["dur"][fits])),
        "hom.simulate_s": _total(spans, "hom.simulate_scan", "dur"),
        "trace.spans": len(spans["name"]),
        "trace.self_s": float(np.sum(spans["self"])),
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = self_s(name)
    return out
