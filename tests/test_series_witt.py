"""Truncated series and big Witt ring arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_zeta import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    WittElement,
    ghost_components,
    ghost_to_witt,
    witt_add,
    witt_mul,
)
from motivic_zeta.errors import PrecisionError, PreconditionError, ValidationError
from motivic_zeta.series import exp_from_traces, series_log

PREC = 12

witt_tails = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    min_size=PREC,
    max_size=PREC,
)


def _witt(tail) -> WittElement:
    return WittElement(TruncatedSeries([Fraction(1)] + list(tail)))


def geometric(r, precision=PREC) -> WittElement:
    """[r] = 1/(1 - r t); ghost components r, r^2, r^3, ..."""
    return WittElement(
        TruncatedSeries([Fraction(r) ** n for n in range(precision + 1)])
    )


def test_series_precision_tracking():
    s = TruncatedSeries([1, 2, 3])
    assert s.precision == 2
    with pytest.raises(PrecisionError):
        s[3]
    t = TruncatedSeries([1, 1])
    assert (s * t).precision == 1


def test_series_additive_group_on_seeded_inputs():
    rng = random.Random(3)

    def series(precision):
        return TruncatedSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(precision + 1)])

    for _ in range(20):
        a, b = series(rng.randint(0, 8)), series(rng.randint(0, 8))
        n = min(a.precision, b.precision)
        assert (a + b).coeffs == tuple(a[i] + b[i] for i in range(n + 1))
        assert (a - b).coeffs == tuple(a[i] - b[i] for i in range(n + 1))
        assert (-a).coeffs == tuple(-c for c in a.coeffs)
        zero = TruncatedSeries.zero(a.precision)
        assert zero.coeffs == (0,) * (a.precision + 1)
        assert a + zero == a and a - a == zero and -(-a) == a


def test_series_exp_log_inverse():
    # log s = sum a_n t^n / n for s = exp_from_traces(a): the two kernels
    # are inverse, at every precision down to 0
    s = TruncatedSeries([0, 1, Fraction(1, 2), -2, 0, 3])
    traces = [n * s[n] for n in range(1, 6)]
    for n in range(6):
        assert series_log(exp_from_traces(traces[:n])) == s.truncate(n)
    with pytest.raises(PreconditionError):
        series_log(TruncatedSeries([0, 1]))


def test_witt_element_requires_unit_constant_term():
    with pytest.raises(ValidationError):
        WittElement(TruncatedSeries([2, 1]))


def test_ghost_of_geometric():
    w = geometric(3)
    assert ghost_components(w, 4) == [3, 9, 27, 81]


def test_ghost_round_trip():
    w = _witt([Fraction(1, 2), -1, 3, 0, 0, 1, 0, 0, 0, 0, 2])
    gh = ghost_components(w, w.precision)
    assert ghost_to_witt(gh) == w


def test_witt_add_is_series_product():
    a, b = geometric(2), geometric(3)
    # 1/(1-2t) * 1/(1-3t) has Taylor coefficients sum 2^i 3^(n-i)
    s = witt_add(a, b).series
    rf = RationalFunction(Polynomial.one(), Polynomial([1, -5, 6]))
    assert list(s.coeffs) == rf.taylor(PREC)


def test_witt_mul_of_teichmueller_lifts():
    # [a] * [b] = [ab]
    assert witt_mul(geometric(2), geometric(3)) == geometric(6)


def test_witt_mul_unit():
    one = WittElement.one_geometric(PREC)
    w = _witt([2, -1, 0, 5, 0, 0, 0, 1, 0, 0, 0])
    assert witt_mul(one, w) == w


@settings(max_examples=25, deadline=None)
@given(witt_tails, witt_tails, witt_tails)
def test_witt_ring_laws(ta, tb, tc):
    a, b, c = _witt(ta), _witt(tb), _witt(tc)
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_mul(a, b) == witt_mul(b, a)
    assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    # distributivity
    assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
    # additive zero and multiplicative unit
    assert witt_add(a, WittElement.zero(PREC)) == a
    assert witt_mul(a, WittElement.one_geometric(PREC)) == a


@settings(max_examples=25, deadline=None)
@given(witt_tails, witt_tails)
def test_ghost_map_is_a_ring_homomorphism(ta, tb):
    a, b = _witt(ta), _witt(tb)
    ga = ghost_components(a, PREC)
    gb = ghost_components(b, PREC)
    assert ghost_components(witt_add(a, b), PREC) == [x + y for x, y in zip(ga, gb)]
    assert ghost_components(witt_mul(a, b), PREC) == [x * y for x, y in zip(ga, gb)]


def test_json_round_trip():
    w = _witt([1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0])
    assert WittElement.from_json(w.to_json()) == w
    with pytest.raises(ValidationError):
        TruncatedSeries.from_json({"precision": 5, "coeffs": ["1", "2"]})
