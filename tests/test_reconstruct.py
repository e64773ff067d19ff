"""Berlekamp-Massey reconstruction and linear-complexity profiles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_zeta import (
    NotStabilized,
    Polynomial,
    RationalFunction,
    berlekamp_massey,
    linear_complexity_profile,
    traces_to_zeta,
)
from motivic_zeta.errors import ResourceError, ValidationError
from motivic_zeta.reconstruct import MAX_BITS
from motivic_zeta.motives import artin_mazur_traces


def test_geometric_sequence():
    rec = berlekamp_massey([2**n for n in range(12)])
    assert not isinstance(rec, NotStabilized)
    assert rec.value == RationalFunction(Polynomial([-Fraction(1, 2)]), Polynomial([-Fraction(1, 2), 1]))
    # i.e. 1/(1-2t)
    assert rec.value == RationalFunction(Polynomial.one(), Polynomial([1, -2]))


def test_fibonacci():
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    rec = berlekamp_massey(fib)
    assert not isinstance(rec, NotStabilized)
    assert rec.value == RationalFunction(Polynomial.one(), Polynomial([1, -1, -1]))


def test_polynomial_sequence_order():
    # n^2 satisfies a recurrence of order 3: (1-t)^3 denominator
    rec = berlekamp_massey([n * n for n in range(14)])
    assert not isinstance(rec, NotStabilized)
    # sum n^2 t^n = t(1+t)/(1-t)^3
    assert rec.value == RationalFunction(
        Polynomial([0, 1, 1]), Polynomial([1, -3, 3, -1])
    )


def test_short_data_not_stabilized():
    # order-3 recurrence from 5 terms: order exceeds half the length
    out = berlekamp_massey([n * n for n in range(5)])
    assert isinstance(out, NotStabilized)
    assert out.profile


def test_factorials_not_stabilized():
    seq = [1]
    for n in range(1, 18):
        seq.append(seq[-1] * n)
    out = berlekamp_massey(seq)
    assert isinstance(out, NotStabilized)


def test_empty_sequence_rejected():
    with pytest.raises(ValidationError):
        berlekamp_massey([])


def test_profile_monotone_and_bounded_for_rational():
    prof = linear_complexity_profile([3**n + 1 for n in range(20)])
    assert prof == sorted(prof)
    assert prof[-1] == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
def test_reconstruction_recovers_rational_functions(num_coeffs, den_tail):
    """Round trip: expand num/den as a series, reconstruct, compare."""
    num = Polynomial(num_coeffs)
    den = Polynomial([1] + den_tail)
    rf = RationalFunction(num, den)
    order = max(rf.num.degree + 1, rf.den.degree)
    n_terms = max(4 * (order + 1), 8)
    rec = berlekamp_massey(rf.taylor(n_terms - 1))
    assert not isinstance(rec, NotStabilized)
    assert rec.value == rf


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=24))
def test_profile_is_nondecreasing(seq):
    prof = linear_complexity_profile(seq)
    assert prof == sorted(prof)
    assert all(0 <= L <= len(seq) for L in prof)


def test_traces_to_zeta_projective_line():
    # traces q^n + 1 give 1/((1-t)(1-qt))
    counts = [5**n + 1 for n in range(1, 9)]
    rec = traces_to_zeta(counts)
    assert not isinstance(rec, NotStabilized)
    assert rec.value == RationalFunction(Polynomial.one(), Polynomial([1, -6, 5]))


def test_traces_to_zeta_elliptic():
    # a_n from 1 + 3t + 5t^2 over the denominator (1-t)(1-5t)
    num = Polynomial([1, 3, 5])
    den = Polynomial([1, -6, 5])
    expected = RationalFunction(num, den)
    counts = []
    alpha_pow = [Fraction(1)]  # power sums via Newton identities on num
    # counts N_n = 1 + 5^n - (alpha^n + beta^n) with alpha*beta = 5, alpha+beta = -3
    s = [Fraction(-3), Fraction(-1)]  # s1 = -3; s2 = s1*(-3) - 2*5 = ... compute directly
    a, b = Fraction(-3), Fraction(5)  # x^2 + 3x + 5 roots: sum -3, product 5
    p1 = a
    p2 = a * p1 - 2 * b
    powers = [p1, p2]
    for n in range(3, 9):
        powers.append(a * powers[-1] - b * powers[-2])
    counts = [1 + 5**n - powers[n - 1] for n in range(1, 9)]
    rec = traces_to_zeta(counts)
    assert not isinstance(rec, NotStabilized)
    assert rec.value == expected


@pytest.mark.parametrize("route", [berlekamp_massey, linear_complexity_profile, traces_to_zeta])
def test_one_size_cap_for_every_route(route):
    # the connection polynomial of 800 Artin-Mazur traces (and of their exp
    # series) outgrows MAX_BITS, while long sequences of low order, where
    # it stays small, still answer
    with pytest.raises(ResourceError) as refused:
        route(artin_mazur_traces(5, 2, 800))
    assert refused.value.budget == MAX_BITS < refused.value.required
    assert route([1] * 800) and route([0] * 799 + [1]) and route([2**k + 3**k for k in range(1, 801)])
