"""The argument rules of ``errors``: the number test, that no other module
words a rule of its own, that a checked record checks every way it is built,
and the one sweep rule."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import twinsource
from twinsource.efficiency import CavityParams, DetectionChain, PumpPulse
from twinsource.errors import MAX_SWEEP_POINTS, NUMERIC, POSITIVE, WINDOW, ConfigError
from twinsource.errors import SweepSizeError
from twinsource.errors import TwinSourceError, number, require, sweep
from twinsource.hom import DipModel
from twinsource.layers import Layer, LayerStack
from twinsource.materials import Composition
from twinsource.phasematch import INTERACTION_1

_SRC = Path(twinsource.__file__).parent


_NUMBERS = {
    "float32": (np.float32(0.5), True),
    "int64": (np.int64(3), True),
    "float64": (np.float64(2.0), True),
    "int": (7, True),
    "bool": (True, False),
    "numpy_bool": (np.True_, False),
    "nan": (math.nan, False),
    "inf": (math.inf, False),
    "minus_inf": (-math.inf, False),
    "float32_nan": (np.float32("nan"), False),
    "float32_inf": (np.float32("inf"), False),
    "int_beyond_doubles": (10**400, False),
    "minus_int_beyond_doubles": (-(10**400), False),
    "string": ("1.0", False),
    "none": (None, False),
    "complex": (1 + 0j, False),
}


@pytest.mark.parametrize("value, ok", _NUMBERS.values(), ids=_NUMBERS.keys())
def test_number_is_a_finite_real_that_is_not_a_bool(value, ok):
    # no cast to float32 (a RuntimeWarning) and no OverflowError from 10**400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert number(value) == ok


def test_require_returns_the_value_or_raises_the_callers_error():
    assert require(2.5, POSITIVE, "x") == 2.5
    window = (740, 780.0)
    assert require(window, WINDOW, "w") is window
    with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got -1$"):
        require(-1, POSITIVE, "x")
    with pytest.raises(ConfigError, match=r"^w must be two finite wavelengths lo < hi in nm"):
        require([780.0, 740.0], WINDOW, "w", ConfigError)


@pytest.mark.parametrize(
    "elements, refused",
    [([760.0, "770"], True), ([760.0, b"770"], True), ([760.0, 770], False)],
    ids=["str", "bytes", "numbers"],
)
def test_numeric_reads_an_object_array_element_by_element(elements, refused):
    # an object array's dtype says nothing of text: each element is looked at
    value = np.array(elements, dtype=object)
    if not refused:
        assert require(value, NUMERIC, "wavelength") is value
        return
    message = r"^wavelength must be a number or an array of numbers, got array\(\[760\.0, b?'770'\]"
    with pytest.raises(ValueError, match=message):
        require(value, NUMERIC, "wavelength")


def test_only_errors_words_a_rule():
    # a rule worded in a second module is a second rule set, free to drift
    # from the first; array checks say "must all be"
    phrases = re.compile(r"must (be finite|be positive|lie in|be non-negative)")
    found = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(_SRC.glob("*.py"))
        if path.name != "errors.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if phrases.search(line)
    ]
    assert found == []


_CHECKED = {  # a checked record, and a replacement its check refuses
    "composition": (Composition(0.3), {"x": 1.5}),
    "layer": (Layer(Composition(0.3), 100.0), {"thickness_nm": -5.0}),
    "layer_stack": (LayerStack([]), {"ambient_index": 0.5}),
    "cavity_params": (CavityParams(3.1, 17.0, 0.2, 4e-4), {"finesse": 0.0}),
    "pump_pulse": (PumpPulse(), {"duration_s": -1.0}),
    "detection_chain": (DetectionChain(), {"pulse_rate_hz": 0.0}),
    "dip_model": (DipModel(0.85, 1520.0, 0.53), {"visibility": 1.5}),
    "interaction": (INTERACTION_1, {"id": 2}),
}


@pytest.mark.parametrize("good, bad", _CHECKED.values(), ids=_CHECKED.keys())
def test_a_checked_record_checks_its_replacements(good, bad):
    # a plain namedtuple's _replace and _make build the tuple without __new__
    assert good._replace() == good == type(good)._make(good)
    with pytest.raises((ValueError, TwinSourceError)):
        good._replace(**bad)


def test_a_sweep_is_lo_plus_step_k_up_to_its_bound():
    lams = sweep(740.0, 780.0, 0.05, "wavelength (nm)")
    assert np.array_equal(lams, 740.0 + 0.05 * np.arange(801))
    assert sweep(1.0, 1.0, 0.5, "x").tolist() == [1.0]
    assert len(sweep(0.0, MAX_SWEEP_POINTS - 1.0, 1.0, "x")) == MAX_SWEEP_POINTS
    assert issubclass(SweepSizeError, ValueError) and issubclass(SweepSizeError, TwinSourceError)


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (0.0, float(MAX_SWEEP_POINTS), 1.0),
        (2.0, 1.0, 0.1),
        (0.0, math.nan, 1.0),
        (0.0, 1.0, 5e-324),
        (-1e308, 1e308, 1.0),
    ],
    ids=["one_past_the_bound", "reversed", "nan", "subnormal_step", "span_beyond_doubles"],
)
def test_an_empty_or_over_long_sweep_is_refused(lo, hi, step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SweepSizeError, match=f"^x sweep .* empty or over {MAX_SWEEP_POINTS}"):
            sweep(np.float64(lo), np.float64(hi), np.float64(step), "x")


@pytest.mark.parametrize("lo, hi, step", [(0.0, 1.7e308, 1.13e308), (1e308, 1.7e308, 0.4e308)])
def test_a_sweep_that_ends_past_the_double_range_is_refused(lo, hi, step):
    # its last point, lo + step * round((hi - lo) / step), overflowed in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SweepSizeError, match="^x sweep .* ends past the double range$"):
            sweep(np.float64(lo), np.float64(hi), np.float64(step), "x")
    assert sweep(0.0, 1.7e308, 0.85e308, "x").tolist() == [0.0, 0.85e308, 1.7e308]
