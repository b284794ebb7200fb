import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner_cert import (
    BadInterval,
    DomainError,
    NonFinite,
    NonPositiveAlpha,
    beta,
    beta_point,
    chord_coeffs,
    exponential,
    kantorovich,
    power,
)


def ratio_peak(m, M, p, resolution=20001):
    """Independent route: max of chord(t) / t**p over [m, M].

    Dense grid to locate the basin, then golden-section refinement.
    """
    a, b = chord_coeffs(power(p), m, M)

    def g(t):
        return (a * t + b) / t**p

    ts = np.linspace(m, M, resolution)
    vals = (a * ts + b) / ts**p
    i = int(np.argmax(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, resolution - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    for _ in range(200):
        if g(c) < g(d):
            lo = c
        else:
            hi = d
        c = hi - phi * (hi - lo)
        d = lo + phi * (hi - lo)
    return g(0.5 * (lo + hi))


def test_chord_coeffs_square_exact():
    coeffs = chord_coeffs(power(2), 1.0, 2.0)
    assert (coeffs.a_f, coeffs.b_f) == (3.0, -2.0)
    a, b = coeffs
    assert (a, b) == (3.0, -2.0)
    assert coeffs(1.0) == 1.0 and coeffs(2.0) == 4.0


def test_chord_coeffs_rejects_bad_window():
    with pytest.raises(BadInterval):
        chord_coeffs(power(2), 2.0, 2.0)
    with pytest.raises(DomainError):
        chord_coeffs(power(-1), -1.0, 2.0)


def test_beta_square_interior_max():
    val, arg = beta_point(power(2), 1.0, 3.0, 1.0)
    assert abs(val - 1.0) < 1e-9
    assert abs(arg - 2.0) < 1e-7


def test_beta_square_endpoint_max():
    val, arg = beta_point(power(2), 1.0, 3.0, 2.0)
    assert abs(val - (-1.0)) < 1e-9
    assert arg == 1.0


def test_beta_alpha_must_be_positive():
    with pytest.raises(NonPositiveAlpha):
        beta(power(2), 1.0, 3.0, 0.0)
    with pytest.raises(NonPositiveAlpha):
        beta(power(2), 1.0, 3.0, -1.0)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_beta_alpha_must_be_finite(alpha):
    with pytest.raises(NonPositiveAlpha, match=f"alpha must be finite and positive, got {alpha}"):
        beta_point(power(2), 1.0, 2.0, alpha)


@pytest.mark.parametrize("m,M,name", [(1.0, math.inf, "M"), (-math.inf, 2.0, "m"),
                                      (math.nan, 2.0, "m"), (1.0, math.nan, "M")])
def test_window_ends_must_be_finite(m, M, name):
    # power:2 lives on the whole line, so the domain check would pass an infinite end
    bad = M if name == "M" else m
    for call in (lambda: chord_coeffs(power(2), m, M), lambda: beta_point(power(2), m, M, 1.0)):
        with pytest.raises(BadInterval, match=f"need a finite {name}, got {bad}"):
            call()


def test_beta_window_must_sit_in_domain():
    with pytest.raises(DomainError):
        beta(power(-1), 0.0, 1.0, 1.0)


@given(
    m=st.floats(0.1, 2.0),
    width=st.floats(0.2, 3.0),
    alpha=st.floats(0.2, 3.0),
    pick=st.integers(0, 3),
)
def test_beta_is_tight_upper_envelope(m, width, alpha, pick):
    f = (power(2), power(3), power(-1), power(1.5))[pick]
    M = m + width
    val, arg = beta_point(f, m, M, alpha)
    a, b = chord_coeffs(f, m, M)
    ts = np.linspace(m, M, 2001)
    gap = a * ts + b - alpha * f.value_array(ts)
    scale = 1.0 + float(np.max(np.abs(gap)))
    assert float(np.max(gap)) <= val + 1e-9 * scale
    assert abs((a * arg + b - alpha * f(arg)) - val) <= 1e-9 * scale


def test_kantorovich_frozen_values():
    assert abs(kantorovich(1.0, 2.0, 2.0) - 1.125) < 1e-12
    assert abs(kantorovich(1.0, 4.0, 2.0) - 1.5625) < 1e-12


@pytest.mark.parametrize("m,M", [(1.0, 2.0), (0.5, 3.0)])
@pytest.mark.parametrize("p", [1e-10, -1e-10, 1.0 + 1e-10, 1.0 - 1e-10])
def test_kantorovich_degenerate_exponents(m, M, p):
    assert kantorovich(m, M, p) == 1.0


@given(m=st.floats(0.05, 2.0), width=st.floats(0.1, 4.0))
def test_kantorovich_squared_closed_form(m, width):
    M = m + width
    got = kantorovich(m, M, 2.0)
    want = (M + m) ** 2 / (4.0 * m * M)
    assert abs(got - want) < 1e-12 * (1.0 + want)


@pytest.mark.parametrize("m,M,p", [
    (1.0, 2.0, 2.0),
    (1.0, 4.0, 2.0),
    (0.5, 3.0, 3.0),
    (0.2, 1.1, 1.5),
    (1.0, 9.0, -1.0),
    (0.3, 2.0, -0.5),
])
def test_kantorovich_matches_ratio_peak(m, M, p):
    got = kantorovich(m, M, p)
    want = ratio_peak(m, M, p)
    assert abs(got - want) < 1e-9 * (1.0 + want)


def test_kantorovich_rejects_bad_window():
    with pytest.raises(BadInterval):
        kantorovich(0.0, 1.0, 2.0)
    with pytest.raises(BadInterval):
        kantorovich(-1.0, 1.0, 2.0)
    with pytest.raises(BadInterval):
        kantorovich(2.0, 2.0, 2.0)
    with pytest.raises(BadInterval):
        kantorovich(3.0, 2.0, 2.0)


@pytest.mark.parametrize("m,M,p,name", [
    (1.0, 2.0, math.nan, "p"),
    (1.0, math.inf, 2.0, "M"),
    (1.0, 2.0, math.inf, "p"),
    (1.0, 2.0, -math.inf, "p"),
    (math.nan, 2.0, 2.0, "m"),
])
def test_kantorovich_rejects_non_finite_arguments(m, M, p, name):
    with pytest.raises(BadInterval, match=f"need a finite {name}, got"):
        kantorovich(m, M, p)


@pytest.mark.parametrize("m,M,p", [
    (1e300, 2e300, 3.0),  # M**p overflows
    (1e-300, 1.0, -3.0),  # m**p overflows
    (1e-200, 1.0, 3.0),  # m**p underflows to 0, and base**p overflows
    (1e-200, 2e-200, 3.0),  # both powers underflow to 0
])
def test_kantorovich_out_of_float_range_is_named(m, M, p):
    with pytest.raises(NonFinite, match=r"^K\(.*\) overflows or underflows the float range"):
        kantorovich(m, M, p)


@pytest.mark.parametrize("f,m,M", [
    (exponential(), 700.0, 800.0),  # f(M) overflows
    (exponential(), 700.0, 709.0),  # f is finite, m f(M) is not
    (power(-3.0), 1e-300, 1.0),  # f(m) overflows
])
def test_chord_out_of_float_range_is_named(f, m, M):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for compute in (chord_coeffs, lambda *args: beta(*args, 1.0)):
            with pytest.raises(NonFinite, match=rf"^the chord of {f.spec_string()[:3]}"):
                compute(f, m, M)


@given(
    m=st.floats(0.1, 2.0),
    width=st.floats(0.2, 3.0),
    pick=st.integers(0, 4),
)
def test_chord_interpolates_endpoints(m, width, pick):
    from loewner_cert import affine, exponential, neglog
    f = (power(2), power(3), power(-1), exponential(), neglog())[pick]
    M = m + width
    coeffs = chord_coeffs(f, m, M)
    scale = 1.0 + abs(f(m)) + abs(f(M))
    assert abs(coeffs(m) - f(m)) < 1e-12 * scale
    assert abs(coeffs(M) - f(M)) < 1e-12 * scale


def test_chord_of_neglog():
    from loewner_cert import neglog
    e = np.e
    a, b = chord_coeffs(neglog(), 1.0, e)
    assert abs(a - (-1.0 / (e - 1.0))) < 1e-14
    assert abs(b - (1.0 / (e - 1.0))) < 1e-14


def test_chord_of_affine_is_itself():
    from loewner_cert import affine
    a, b = chord_coeffs(affine(2.5, -0.75), 0.5, 4.0)
    assert (a, b) == (2.5, -0.75)
    assert beta(affine(2.5, -0.75), 0.5, 4.0, 1.0) == 0.0


def test_beta_nonincreasing_in_alpha():
    # larger multiplicative allowance never needs more additive slack
    # (convex nonnegative f)
    for f, m, M in ((power(2), 1.0, 3.0), (power(3), 0.5, 2.5),
                    (power(-1), 0.5, 2.0)):
        alphas = np.linspace(0.4, 3.0, 14)
        vals = [beta(f, m, M, a) for a in alphas]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


@given(m=st.floats(0.05, 2.0), width=st.floats(0.1, 4.0),
       p=st.floats(1.0, 5.0))
def test_kantorovich_at_least_one_for_p_geq_one(m, width, p):
    assert kantorovich(m, m + width, p) >= 1.0 - 1e-12
