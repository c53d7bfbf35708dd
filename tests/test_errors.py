"""The argument rules of ``errors``: the number test, and that no other module
words a rule of its own."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import twinsource
from twinsource.errors import POSITIVE, WINDOW, ConfigError, number, require

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
