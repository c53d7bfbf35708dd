"""The epitaxial layer structure: layers, named regions, and the stack they form.

A stack holds its layers top to bottom between the ambient medium and the
substrate, and builds its layer plan once (distinct compositions, each
layer's index into them, thicknesses, and its leaves: the distinct
(composition, thickness) pairs), so no caller loops over the layers; it keeps
its layers and regions as tuples, so the plan cannot go stale. The optics
(``stack``) and the mode solver (``modes``) both read the plan, and the
indices of its distinct compositions come from one dispersion pass
(``DispersionModel.evaluate_many``) per wavelength or wavelength array.

All lengths in nanometres.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import materials
from .errors import AMBIENT_INDEX, POSITIVE, record, require
from .materials import GAAS, Composition, DispersionModel

TE = "TE"
TM = "TM"


class Layer(record("Layer", "composition thickness_nm nonlinear_sign")):
    """One epitaxial layer: alloy composition, thickness, and the sign of its
    effective second-order nonlinearity (bookkeeping for the QPM pattern)."""

    __slots__ = ()

    def __new__(cls, composition: Composition, thickness_nm: float, nonlinear_sign: int = 0):
        require(thickness_nm, POSITIVE, "layer thickness")
        if nonlinear_sign not in (-1, 0, 1):
            raise ValueError(f"nonlinear_sign must be -1, 0 or +1, got {nonlinear_sign}")
        return tuple.__new__(cls, (composition, thickness_nm, nonlinear_sign))


class Region(NamedTuple):
    """Named contiguous slice of the layer list (half-open [start, stop))."""

    name: str
    start: int
    stop: int


class _LayerPlan(NamedTuple):
    """The layers of a stack as arrays, built once per stack."""

    xs: tuple  # the distinct aluminium fractions, in order of first appearance
    index: np.ndarray  # (L,) intp: each layer's fraction in xs
    thickness: np.ndarray  # (L,) read-only layer thicknesses, nm
    leaf: np.ndarray  # (L,) intp: each layer's leaf, its (fraction, thickness) pair
    leaf_index: np.ndarray  # (U,) intp: each leaf's fraction in xs
    leaf_thickness: tuple  # (U,) leaf thicknesses as floats, nm


class LayerStack(record("LayerStack", "layers substrate ambient_index regions")):
    """Ordered layers (top to bottom) between the ambient and the substrate.

    ``substrate=None`` continues the ambient medium below the layers (useful
    for free-standing test cases). Regions, when present, must partition the
    layer list top to bottom; a region named ``core`` must carry a strictly
    alternating +1/-1 nonlinear-sign pattern.
    """

    def __new__(cls, layers, substrate: Composition | None = GAAS, ambient_index=1.0, regions=()):
        self = tuple.__new__(cls, (tuple(layers), substrate, ambient_index, tuple(regions)))
        require(self.ambient_index, AMBIENT_INDEX, "ambient index")
        if self.regions:
            pos = 0
            for reg in self.regions:
                if reg.start != pos or reg.stop <= reg.start:
                    raise ValueError("regions must partition the layer list in order")
                pos = reg.stop
            if pos != len(self.layers):
                raise ValueError("regions do not cover the whole layer list")
        core = self.region("core")
        if core is not None:
            signs = [ly.nonlinear_sign for ly in self.layers[core.start : core.stop]]
            if any(s == 0 for s in signs) or any(
                signs[i] == signs[i + 1] for i in range(len(signs) - 1)
            ):
                raise ValueError("core region must alternate nonlinear_sign +1/-1")
        return self

    def region(self, name: str) -> Region | None:
        for reg in self.regions:
            if reg.name == name:
                return reg
        return None

    @cached_property
    def _plan(self) -> _LayerPlan:
        def frozen(values, dtype):
            out = np.array(values, dtype=dtype)
            out.flags.writeable = False
            return out

        first, leaves = {}, {}
        index = [first.setdefault(ly.composition.x, len(first)) for ly in self.layers]
        thickness = [ly.thickness_nm for ly in self.layers]
        leaf = [leaves.setdefault(key, len(leaves)) for key in zip(index, thickness)]
        return _LayerPlan(
            tuple(first),
            frozen(index, np.intp),
            frozen(thickness, float),
            frozen(leaf, np.intp),
            frozen([i for i, _ in leaves], np.intp),
            tuple(float(t) for _, t in leaves),
        )

    _trees = cached_property(lambda self: {})  # ``stack``'s product trees, by leaf sequence


def layer_indices(s: LayerStack, wavelength, model: DispersionModel | None = None):
    """Per-layer refractive indices (below-gap real): shape (L,) at one
    wavelength, (W, L) over a 1-D array of W wavelengths. Each distinct
    composition of the stack's layer plan is evaluated once, and the plan's
    layer index spreads the results over the layers."""
    return _composition_indices(s, wavelength, model)[s._plan.index].T


def _composition_indices(s, wavelength, model):
    """Index of each distinct composition of the stack's layer plan (one pass):
    shape (X,) at one wavelength, (X, W) over a 1-D array of W wavelengths."""
    m = model or materials.DEFAULT_MODEL
    return np.asarray(m.evaluate_many(s._plan.xs, wavelength))
