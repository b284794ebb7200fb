import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner_cert import (
    BadInterval,
    DomainError,
    Interval,
    InvalidFunction,
    NonFinite,
    ParseError,
    affine,
    check_gradient_inequality,
    exponential,
    neglog,
    parse_function,
    parse_interval,
    power,
)

# windows strictly inside each function's domain
CASES = [
    (power(2), -1.2, 1.2),
    (power(2, parse_interval("[0,inf)")), 0.0, 2.2),
    (power(3), 0.0, 2.0),
    (power(1.5), 0.0, 2.2),
    (power(-1), 0.25, 2.5),
    (power(-0.5), 0.25, 2.5),
    (power(0), 0.25, 2.5),
    (exponential(), -1.4, 1.4),
    (neglog(), 0.2, 2.8),
    (affine(1.3, -0.4), -2.0, 2.0),
    (affine(-0.8, 0.6), -2.0, 2.0),
]


# -- interval ----------------------------------------------------------


def test_interval_contains_endpoints():
    iv = Interval(0.0, 1.0, lo_closed=True, hi_closed=False)
    assert iv.contains(0.0)
    assert iv.contains(0.5)
    assert not iv.contains(1.0)
    assert not iv.contains(-1e-300)


def test_interval_rejects_degenerate():
    with pytest.raises(BadInterval):
        Interval(1.0, 1.0)
    with pytest.raises(BadInterval):
        Interval(2.0, 1.0)
    with pytest.raises(BadInterval):
        Interval(float("nan"), 1.0)


def test_infinite_endpoints_forced_open():
    iv = Interval(lo_closed=True, hi_closed=True)
    assert not iv.lo_closed and not iv.hi_closed
    assert str(iv) == "(-inf,inf)"


def test_clamp_spectrum_snaps_closed_endpoint():
    iv = parse_interval("[0,inf)")
    w = iv.clamp_spectrum(np.array([-5e-11, 0.3, 2.0]))
    assert w[0] == 0.0 and w[1] == 0.3


def test_clamp_spectrum_rejects_far_values():
    iv = parse_interval("[0,inf)")
    with pytest.raises(DomainError) as exc:
        iv.clamp_spectrum(np.array([-1e-3, 0.3]))
    assert exc.value.offending == [-1e-3]


def test_clamp_spectrum_open_endpoint_no_grace():
    iv = parse_interval("(0,inf)")
    with pytest.raises(DomainError):
        iv.clamp_spectrum(np.array([0.0]))


@pytest.mark.parametrize("text", ["(0,inf)", "[0,inf)", "[-1.5,2]", "(-inf,inf)", "[0.25,2.5]"])
def test_interval_parse_format_roundtrip(text):
    assert str(parse_interval(text)) == text


@pytest.mark.parametrize("text", ["", "0,1", "(1,0)", "[a,b]", "(0,inf", "(0;1)"])
def test_interval_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_interval(text)


# -- families ----------------------------------------------------------


def test_power_default_domains():
    assert str(power(2).domain) == "(-inf,inf)"
    assert str(power(4).domain) == "(-inf,inf)"
    assert str(power(3).domain) == "[0,inf)"
    assert str(power(1.5).domain) == "[0,inf)"
    assert str(power(-1).domain) == "(0,inf)"
    assert str(power(0).domain) == "(0,inf)"


def test_power_rejects_gap_exponents():
    for p in (0.5, 0.99, 0.01):
        with pytest.raises(InvalidFunction):
            power(p)


def test_power_domain_constraints():
    with pytest.raises(InvalidFunction):
        power(3, Interval(-1.0, 1.0))
    with pytest.raises(InvalidFunction):
        power(-1, parse_interval("[0,2)"))
    # even powers may straddle or sit left of zero
    assert power(2, Interval(-5.0, -1.0, True, True)).monotonicity == "decreasing"


def test_neglog_domain_constraint():
    with pytest.raises(InvalidFunction):
        neglog(parse_interval("[0,1)"))


def test_values_and_derivatives():
    assert power(2)(3.0) == 9.0
    assert power(2).deriv(3.0) == 6.0
    assert power(-1)(2.0) == 0.5
    assert power(-1).deriv(2.0) == -0.25
    assert power(0)(5.0) == 1.0
    assert power(0).deriv(5.0) == 0.0
    assert exponential()(0.0) == 1.0
    assert exponential().deriv(1.0) == math.e
    assert neglog()(1.0) == 0.0
    assert neglog().deriv(2.0) == -0.5
    assert affine(2.0, -1.0)(3.0) == 5.0
    assert affine(2.0, -1.0).deriv(100.0) == 2.0


def test_domain_errors_on_eval():
    with pytest.raises(DomainError):
        power(-1)(0.0)
    with pytest.raises(DomainError):
        neglog()(-1.0)
    with pytest.raises(DomainError):
        power(3)(-0.5)


def test_closed_endpoint_evaluates():
    # one-sided derivative at the closed endpoint is the usual formula
    assert power(3)(0.0) == 0.0
    assert power(3).deriv(0.0) == 0.0
    assert power(1.5)(0.0) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("f,t", [(power(-3), 1e-80), (power(-1), 1e-160),
                                 (neglog(), 1e-320), (exponential(), 710.0)])
def test_derivative_beyond_the_float_range_is_named(f, t):
    # f(t) is finite or overflows alike, but f'(t) may overflow alone
    with pytest.raises(NonFinite, match=rf"^f'\({t!r}\) is not finite, f = "):
        f.deriv(t)


def test_monotonicity_tags():
    assert power(2).monotonicity == "neither"
    assert power(2, parse_interval("[0,inf)")).monotonicity == "increasing"
    assert power(3).monotonicity == "increasing"
    assert power(-1).monotonicity == "decreasing"
    assert power(0).monotonicity == "increasing"
    assert exponential().monotonicity == "increasing"
    assert neglog().monotonicity == "decreasing"
    assert affine(1.3, 0.0).monotonicity == "increasing"
    assert affine(-0.8, 0.0).monotonicity == "decreasing"
    assert affine(0.0, 7.0).monotonicity == "increasing"


@pytest.mark.parametrize("f,lo,hi", CASES)
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_gradient_inequality(f, lo, hi, u, v):
    s = lo + (hi - lo) * u
    t = lo + (hi - lo) * v
    if not (f.domain.contains(s) and f.domain.contains(t)):
        return
    scale = 1.0 + abs(f(s)) + abs(f(t)) + abs(f.deriv(s) * (t - s))
    assert check_gradient_inequality(f, s, t, tol=1e-12 * scale)


@pytest.mark.parametrize("f,lo,hi", CASES)
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_two_sided_chord_bound(f, lo, hi, u, v):
    # f'(s)(t-s) <= f(t) - f(s) <= f'(t)(t-s) for s <= t
    a = lo + (hi - lo) * u
    b = lo + (hi - lo) * v
    s, t = min(a, b), max(a, b)
    if not (f.domain.contains(s) and f.domain.contains(t)):
        return
    diff = f(t) - f(s)
    tol = 1e-12 * (1.0 + abs(f(s)) + abs(f(t)) + abs(t - s))
    assert f.deriv(s) * (t - s) <= diff + tol
    assert diff <= f.deriv(t) * (t - s) + tol


def test_value_array_matches_scalar():
    f = power(1.5)
    w = np.array([0.0, 0.5, 2.0])
    assert np.allclose(f.value_array(w), [f(t) for t in w])
    assert np.allclose(f.deriv_array(w[1:]), [f.deriv(t) for t in w[1:]])


# -- textual specs -----------------------------------------------------


@pytest.mark.parametrize("f", [c[0] for c in CASES])
def test_spec_string_roundtrip(f):
    assert parse_function(f.spec_string()) == f


def test_parse_function_examples():
    assert parse_function("power:3") == power(3)
    assert parse_function("exp") == exponential()
    assert parse_function("neglog") == neglog()
    assert parse_function("affine:2,-1") == affine(2.0, -1.0)
    assert parse_function("power:2;dom=[0,inf)") == power(2, parse_interval("[0,inf)"))


def test_spec_string_form():
    assert power(2).spec_string() == "power:2;dom=(-inf,inf)"
    assert power(-0.5).spec_string() == "power:-0.5;dom=(0,inf)"
    assert affine(1.0, 0.0).spec_string() == "affine:1,0;dom=(-inf,inf)"


@pytest.mark.parametrize("text", [
    "", "power", "power:", "power:0.5", "bogus:1", "affine:1", "exp:3",
    "neglog:2", "power:2;dom=(0", "power:2;x=3", "power:2;dom=[5,1]",
])
def test_parse_function_rejects(text):
    with pytest.raises(ParseError):
        parse_function(text)
