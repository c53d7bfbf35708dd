import copy
import pickle

import numpy as np
import pytest

from _oracles import adachi_index
from twinsource.errors import AboveBandgap, OutOfValidityWindow, TwinSourceError
from twinsource.materials import (
    Composition,
    DispersionModel,
    complex_refractive_index,
    get_model,
    refractive_index,
)
from twinsource.stack import core_intensity, field_profile, stack_response

# frozen against a symbolic evaluation of the shipped formula (sympy, 20 digits)
ORACLE_N = {
    (0.00, 1520.0): 3.4330731675924684,
    (0.25, 1520.0): 3.3089507662938660,
    (0.80, 1520.0): 3.0199958423418893,
    (0.35, 760.0): 3.4751169612138712,
    (0.90, 760.0): 3.1016515311701027,
    (0.25, 760.0): 3.5721654206691638,
}


@pytest.mark.parametrize("window", [(1330.0, 1710.0), (740.0, 780.0)])
@pytest.mark.parametrize("x", [0.0, 0.35, 0.9])
def test_evaluate_is_bit_identical_to_the_formula(window, x):
    model = get_model()
    lam = np.linspace(*window, 381)
    try:
        got = model.evaluate(x, lam)
    except AboveBandgap:  # GaAs at the pump wavelength: only the complex index exists
        assert x == 0.0 and window[1] < 800.0
    else:
        expected = adachi_index(model, x, lam)
        assert np.array_equal(got, expected)
        assert np.array_equal([model.evaluate(x, float(v)) for v in lam], expected)
    expected = adachi_index(model, x, lam, complex_index=True)
    assert np.array_equal(model.evaluate_complex(x, lam), expected)
    assert np.array_equal([model.evaluate_complex(x, float(v)) for v in lam], expected)


def _outcomes(evaluate, x, lams):
    """evaluate(x, lam) at each of lams, or the class of the domain error it raised."""
    out = []
    for lam in lams:
        try:
            out.append(evaluate(x, lam))
        except TwinSourceError as exc:
            out.append(type(exc))
    return out


def _float_path_equals_the_array_paths(evaluate, x, lams, kind):
    got = _outcomes(evaluate, x, lams.tolist())
    assert got == _outcomes(evaluate, x, [np.array(lam) for lam in lams])  # 0-d arrays
    values = [v for v in got if not isinstance(v, type)]
    assert all(type(v) is kind for v in values)
    # the valid points as one 1-D array, through numpy's vector loops
    valid = lams[[not isinstance(v, type) for v in got]]
    batch = evaluate(x, valid)
    assert isinstance(batch, np.ndarray) and np.array_equal(batch, values)
    return got


@pytest.mark.dispatch
@pytest.mark.parametrize("x", [0.0, 0.25, 0.35, 0.8, 0.9])
def test_float_index_equals_the_array_index_on_a_dense_grid(x):
    """Dispatch: the plain-float index must equal numpy's whichever loop numpy dispatches."""
    # every 0.5 nm of 600-4000 nm; Python's chi**2 or a true division in the
    # float path moves some of these floats
    got = _float_path_equals_the_array_paths(
        get_model().evaluate, x, np.arange(1200, 8001) * 0.5, float
    )
    assert (AboveBandgap in got) == (x <= 0.35)  # the grid starts above those gaps


@pytest.mark.dispatch
@pytest.mark.parametrize("x", [0.0, 0.35])
def test_float_complex_index_equals_the_array_index_on_a_dense_grid(x):
    """Dispatch: the plain-float index must equal numpy's whichever loop numpy dispatches."""
    # every 0.25 nm of 550-4000 nm, the absorbing GaAs substrate at the pump
    # wavelengths included
    got = _float_path_equals_the_array_paths(
        get_model().evaluate_complex, x, np.arange(2200, 16001) * 0.25, complex
    )
    assert any(v.imag > 0 for v in got)  # the absorbing branch is on the grid


# the nominal stack's fractions (its layer plan's xs), then GaAs, AlAs, an int
# and a float32; GaAs is complex at the pump, so it stands where it is refused
_PASS_FRACTIONS = (0.9, 0.35, 0.25, 0.8, 0.0, 1.0, 1, np.float32(0.35))
_PUMP_FRACTIONS = tuple(x for x in _PASS_FRACTIONS if x != 0.0)


def _the_loop(model):
    """The per-fraction loop the pass replaces."""
    return lambda xs, lam: [model.evaluate(x, lam) for x in xs]


@pytest.mark.dispatch
def test_the_pass_at_a_float_wavelength_equals_evaluate():
    """Dispatch: each entry is evaluate's float and the formula's, whichever loop numpy dispatches."""
    model = get_model()
    refused = 0
    for lam in np.linspace(740.0, 4000.0, 1000).tolist():
        for xs in (_PASS_FRACTIONS, _PUMP_FRACTIONS):
            kind, got = _outcome(model.evaluate_many, xs, lam)
            assert (kind, got) == _outcome(_the_loop(model), xs, lam), (xs, lam)
            if kind is AboveBandgap:  # GaAs below its gap wavelength
                assert "Al(x=0.0)" in got
                refused += 1
                continue
            assert kind is list and all(type(v) is float for v in got)
            for x, v in zip(xs, got):
                if type(x) is not np.float32:  # a float32 chi is a float32 at a float wavelength
                    assert v == adachi_index(model, x, lam), (x, lam)
    assert 0 < refused < 1000


@pytest.mark.dispatch
@pytest.mark.parametrize("n", [1, 2, 4, 16, 191, 801])
def test_the_pass_over_an_array_equals_evaluate_and_the_formula(paper_stack, n):
    """Dispatch: a row of the (X, W) pass is evaluate's array and the formula's, at any length."""
    assert _PASS_FRACTIONS[:4] == paper_stack._plan.xs
    model = get_model()
    for xs, lam in (
        (_PASS_FRACTIONS, np.linspace(1330.0, 1710.0, n)),
        (_PUMP_FRACTIONS, np.linspace(740.0, 780.0, n)),
    ):
        got = model.evaluate_many(xs, lam)
        assert isinstance(got, np.ndarray) and got.shape == (len(xs), n) and got.dtype == float
        for x, row in zip(xs, got):
            assert np.array_equal(row, model.evaluate(x, lam))
            assert np.array_equal(row, adachi_index(model, x, lam))


@pytest.mark.parametrize(
    "lam",
    [
        5000.0,
        np.array([760.0, 5000.0]),
        float("nan"),
        np.array([760.0, float("nan")]),
        "760.3",
        ["760.3"],
        760.0,
        np.array([900.0, 760.0]),
        np.float64(760.0),
    ],
    ids=["outside", "outside_array", "nan", "nan_array", "text", "text_list", "above_gap",
         "above_gap_array", "above_gap_numpy_float"],
)
def test_the_pass_refuses_as_the_loop_does(lam):
    # GaAs, the second fraction, is above its gap at 760 nm: the pass names it,
    # not the fraction out of the window after it, as the loop did
    model = get_model()
    xs = (0.9, 0.0, 1.5)
    kind, message = _outcome(model.evaluate_many, xs, lam)
    assert (kind, message) == _outcome(_the_loop(model), xs, lam)
    if kind is AboveBandgap:
        assert "Al(x=0.0) gap" in message
    else:
        assert kind in (OutOfValidityWindow, ValueError) and message.startswith("wavelength ")
    # the fraction out of the window, first in xs, is named before any gap
    assert _outcome(model.evaluate_many, (1.5, 0.0), 760.0) == (
        OutOfValidityWindow, "composition x=1.5 outside model 'adachi1985' window [0.0, 1.0]"
    )


@pytest.mark.parametrize("key", sorted(ORACLE_N))
def test_index_matches_symbolic_oracle(key):
    x, lam = key
    assert refractive_index(Composition(x), lam) == pytest.approx(ORACLE_N[key], abs=1e-9)


def test_telecom_indices_ordered_and_in_range():
    n_low = refractive_index(Composition(0.25), 1520.0)
    n_high = refractive_index(Composition(0.80), 1520.0)
    assert n_low > n_high
    assert 2.8 < n_high < n_low < 3.6


def test_evaluation_is_deterministic():
    a = refractive_index(Composition(0.37), 1444.5)
    b = refractive_index(Composition(0.37), 1444.5)
    assert a == b  # bit-for-bit


def test_dbr_contrast_at_pump_wavelength():
    n35 = refractive_index(Composition(0.35), 760.0)
    n90 = refractive_index(Composition(0.90), 760.0)
    assert n35 - n90 > 0.3


def test_monotone_decreasing_in_aluminum_fraction():
    xs = np.linspace(0.0, 0.9, 19)
    ns = [refractive_index(Composition(x), 1520.0) for x in xs]
    assert all(a > b for a, b in zip(ns, ns[1:]))


def test_smoothness_bound():
    # |n(lam+d) - n(lam)| <= K d with K = 2e-3 / nm over the telecom patch
    delta = 0.5
    for x in (0.0, 0.25, 0.5, 0.9):
        for lam in np.linspace(1000.0, 2500.0, 31):
            dn = abs(
                refractive_index(Composition(x), lam + delta)
                - refractive_index(Composition(x), lam)
            )
            assert dn <= 2e-3 * delta


def test_composition_range_is_enforced():
    with pytest.raises(ValueError):
        Composition(-0.1)
    with pytest.raises(ValueError):
        Composition(1.3)


def test_out_of_validity_window():
    with pytest.raises(OutOfValidityWindow):
        refractive_index(Composition(0.2), 100.0)
    with pytest.raises(OutOfValidityWindow):
        refractive_index(Composition(0.2), 9000.0)
    # a wavelength sweep is named by its span, not sample by sample
    with pytest.raises(OutOfValidityWindow, match=r"wavelength 500\.0\.\.560\.0 nm outside"):
        refractive_index(Composition(0.2), np.linspace(500.0, 560.0, 801))


def test_above_bandgap_refused_for_real_index():
    # GaAs at the pump wavelength is absorbing; never return a silent real part
    with pytest.raises(AboveBandgap):
        refractive_index(Composition(0.0), 760.0)


def test_complex_index_above_gap_is_absorbing():
    n = complex_refractive_index(Composition(0.0), 760.0)
    assert n.real > 1.0
    assert n.imag > 0.0  # exp(-i w t) convention


def test_model_registry_and_json_loading():
    """A model with other coefficients is passed in directly; get_model knows
    only the shipped model by name."""
    model = DispersionModel(
        name="toy-algaas",
        coefficients={
            "a": (6.3, 19.0),
            "b": (9.4, -10.2),
            "e0": (1.5, 1.0, 0.3),
            "e0_so": (1.8, 1.0, 0.3),
        },
        wavelength_window_nm=(900.0, 2000.0),
    )
    n = refractive_index(Composition(0.3), 1520.0, model)
    assert 1.0 < n < 4.0
    with pytest.raises(OutOfValidityWindow):
        refractive_index(Composition(0.3), 850.0, model)
    with pytest.raises(OutOfValidityWindow):
        get_model("nonexistent-model")


def test_default_model_provenance():
    model = get_model()
    assert model.name == "adachi1985"
    assert isinstance(model, DispersionModel)
    assert model.coefficients["a"] == (6.3, 19.0)


_TOY_COEFFICIENTS = {
    "a": [6.3, 19.0],
    "b": [9.4, -10.2],
    "e0": [1.5, 1.0, 0.3],
    "e0_so": [1.8, 1.0, 0.3],
}


def test_model_coefficients_are_read_only_from_construction():
    # a model keeps each composition's constants, so nothing may change the
    # coefficients they come from: not the model's mapping, not its entries,
    # not the dict the model was built from
    given = {k: list(v) for k, v in _TOY_COEFFICIENTS.items()}
    model = DispersionModel(name="toy-algaas", coefficients=given)
    n = model.evaluate(0.3, 1520.0)
    for target in (model, get_model()):
        with pytest.raises(TypeError):
            target.coefficients["a"] = (7.0, 19.0)
        with pytest.raises(TypeError):
            target.coefficients["e0"][0] = 1.6
        with pytest.raises(TypeError):
            del target.coefficients["b"]
    given["a"][0] = 7.0
    given["e0"] = [1.6, 1.0, 0.3]
    assert model.coefficients["a"] == (6.3, 19.0) and model.coefficients["e0"] == (1.5, 1.0, 0.3)
    assert model.evaluate(0.3, 1520.0) == n == adachi_index(model, 0.3, 1520.0)
    # a copy or a pickled model is the same model, with read-only coefficients of its own
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin == model and twin.evaluate(0.3, 1520.0) == n
        with pytest.raises(TypeError):
            twin.coefficients["a"] = (7.0, 19.0)


def test_a_model_with_other_coefficients_gets_its_own_indices():
    # evaluated after the shipped model at the same fractions, a model with
    # other coefficients takes none of the shipped model's constants
    lams = np.linspace(900.0, 2000.0, 23)
    shipped = get_model()
    toy = DispersionModel(name="toy-algaas", coefficients=_TOY_COEFFICIENTS)
    for x in (0.3, 0.9):
        first = shipped.evaluate(x, 1520.0), shipped.evaluate(x, lams)
        for model in (toy, shipped):
            assert model.evaluate(x, 1520.0) == adachi_index(model, x, 1520.0)
            assert np.array_equal(model.evaluate(x, lams), adachi_index(model, x, lams))
            c0, c1, c2 = model.coefficients["e0"]
            assert model.gap_energy_ev(x) == c0 + c1 * x + c2 * x * x
        assert toy.evaluate(x, 1520.0) != first[0]
        assert (shipped.evaluate(x, 1520.0), *shipped.evaluate(x, lams)) == (first[0], *first[1])
    # a float32 fraction equal to a float64 one keeps its own float32
    # constants: each gives what a model that never saw the other gives
    fractions = float(np.float32(0.3)), np.float32(0.3)
    want = [DispersionModel(name=shipped.name).evaluate(x, 1520.0) for x in fractions]
    assert want[0] != want[1]
    for _ in range(2):
        assert [shipped.evaluate(x, 1520.0) for x in fractions] == want


def test_a_nan_wavelength_is_outside_the_window():
    # NaN fails every comparison, so a window written as "lam < lo or lam > hi" passed it
    model = get_model()
    for lam in (float("nan"), np.float32("nan"), np.array([1520.0, float("nan")])):
        with pytest.raises(OutOfValidityWindow, match="^wavelength "):
            model.evaluate(0.3, lam)
        with pytest.raises(OutOfValidityWindow, match="^wavelength "):
            model.evaluate_complex(0.0, lam)


@pytest.mark.parametrize(
    "fraction", [np.array(0.3), [0.3], np.array([0.3]), "0.3", None, True],
    ids=["zero_d_array", "list", "one_element_array", "string", "none", "bool"],
)
def test_a_fraction_that_is_no_real_scalar_is_refused(fraction):
    # a 0-d array reached the per-fraction cache (unhashable) and a list the
    # window comparison: both raised TypeError
    model = get_model()
    for call in (
        lambda: model.evaluate(fraction, 1520.0),
        lambda: model.evaluate(fraction, np.array([1500.0, 1520.0])),
        lambda: model.evaluate_complex(fraction, 760.0),
        lambda: model.gap_energy_ev(fraction),
    ):
        with pytest.raises(ValueError, match="^aluminum fraction must be a real number"):
            call()


@pytest.mark.parametrize(
    "wavelength",
    [
        "760.3",
        b"760.3",
        np.str_("760.3"),
        np.array(["760.3", "770"]),
        ["760.3"],
        [760.3, "770"],
        np.array([760.3, "770"], dtype=object),
    ],
    ids=["str", "bytes", "numpy_str", "string_array", "string_list", "mixed_list", "object_array"],
)
@pytest.mark.parametrize(
    "call", ["evaluate", "evaluate_complex", "stack_response", "field_profile", "core_intensity"]
)
def test_a_wavelength_given_as_text_is_refused(paper_stack, call, wavelength):
    # float() and numpy read text as a number: each call used to answer as
    # if given 760.3 nm, while a fraction given as text was refused, and
    # field_profile raised a TypeError after computing the whole field
    model = get_model()
    run = {
        "evaluate": lambda: model.evaluate(0.3, wavelength),
        "evaluate_complex": lambda: model.evaluate_complex(0.3, wavelength),
        "stack_response": lambda: stack_response(paper_stack, wavelength),
        "field_profile": lambda: field_profile(paper_stack, wavelength),
        "core_intensity": lambda: core_intensity(paper_stack, wavelength),
    }[call]
    with pytest.raises(ValueError, match=r"^wavelength must be a number or an array of numbers"):
        run()


def test_a_fraction_outside_the_composition_window_is_refused():
    from twinsource.materials import DEFAULT_MODEL

    with pytest.raises(OutOfValidityWindow, match=r"^composition x=1.5 outside model 'adachi1985'"):
        DEFAULT_MODEL.evaluate(1.5, 800.0)
    # the window is checked with the fraction's cached constants, so the gap
    # energy, read from those, refuses it too
    for x in (1.5, -0.1, float("nan")):
        with pytest.raises(OutOfValidityWindow, match=f"^composition x={x} outside"):
            DEFAULT_MODEL.gap_energy_ev(x)


def _outcome(call, x, lam):
    """(type, value) of a call's result, or (class, message) of what it raised."""
    try:
        value = call(x, lam)
    except Exception as exc:  # every refusal is compared, whatever its class
        return type(exc), str(exc)
    return type(value), value


def test_a_float_fraction_at_a_float_wavelength_answers_as_the_generic_route():
    # a float fraction at a float wavelength skips the array-generic checks;
    # the same arguments through that route (the wavelength as a numpy float)
    # give the same value, or the same error class and message: at the window
    # edges and just past them, at NaN, above the gap, outside the fraction
    # window, and for a float32 or numpy float64 fraction
    model = get_model()
    lo, hi = model.wavelength_window_nm
    wavelengths = (
        lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), float("nan"), 760.0, 1520.0,
    )
    fractions = (0.0, 1.0, 0.35, -0.1, 1.5, float("nan"), np.float32(0.35), np.float64(0.35))
    seen = set()
    for call in (model.evaluate, model.evaluate_complex):
        for x in fractions:
            for lam in map(float, wavelengths):
                got = _outcome(call, x, lam)
                assert got == _outcome(call, x, np.float64(lam)), (x, lam)
                seen.add(got[0])
    assert seen == {float, complex, OutOfValidityWindow, AboveBandgap}
