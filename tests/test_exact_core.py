"""Exact polynomial, rational-function and matrix arithmetic."""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_zeta import (
    Polynomial,
    RatMatrix,
    RationalFunction,
    char_poly,
    reversed_char_poly,
)
from motivic_zeta.errors import (
    DimensionError,
    NotInvertibleError,
    ValidationError,
)

small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
polys = st.lists(small_fracs, min_size=0, max_size=6).map(Polynomial)


def test_polynomial_basics():
    p = Polynomial([1, 2, 3])
    assert p.degree == 2
    assert p[0] == 1 and p[5] == 0
    assert Polynomial([1, 0, 0]) == Polynomial([1])
    assert Polynomial().is_zero()
    assert Polynomial().degree == -1


def test_polynomial_rejects_floats():
    with pytest.raises(ValidationError):
        Polynomial([0.5])


def test_polynomial_divmod():
    a = Polynomial([2, 0, 3, 1])  # t^3 + 3t^2 + 2
    b = Polynomial([1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_polynomial_reversed():
    p = Polynomial([1, 2, 3])
    assert p.reversed() == Polynomial([3, 2, 1])
    assert p.reversed(at_degree=4) == Polynomial([0, 0, 3, 2, 1])
    with pytest.raises(ValidationError):
        p.reversed(at_degree=1)


def test_polynomial_scale_argument():
    p = Polynomial([1, 1, 1])
    assert p.scale_argument(2) == Polynomial([1, 2, 4])


@settings(max_examples=50)
@given(polys, polys, polys)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50)
@given(polys, polys)
def test_polynomial_division_invariant(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a


def test_rational_function_normalization():
    r = RationalFunction(Polynomial([0, 2]), Polynomial([2, 2]))
    assert r.den.coeffs[-1] == 1
    assert r == RationalFunction(Polynomial([0, 1]), Polynomial([1, 1]))


def test_rational_function_cancellation():
    # (1-t^2)/(1-t) = 1+t
    r = RationalFunction(Polynomial([1, 0, -1]), Polynomial([1, -1]))
    assert r.num == Polynomial([1, 1])
    assert r.den == Polynomial.one()


def test_rational_function_taylor():
    geom = RationalFunction(Polynomial.one(), Polynomial([1, -1]))
    assert geom.taylor(5) == [Fraction(1)] * 6


def test_substitute_reciprocal():
    # R(t) = 1/(1-t); R(1/(5t)) = 5t/(5t-1)
    r = RationalFunction(Polynomial.one(), Polynomial([1, -1]))
    s = r.substitute_reciprocal(scale=5)
    expected = RationalFunction(Polynomial([0, 5]), Polynomial([-1, 5]))
    assert s == expected


def test_matrix_shapes_and_errors():
    with pytest.raises(DimensionError):
        RatMatrix(2, 2, [1, 2, 3])
    m = RatMatrix.from_rows([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.transpose()[1, 0] == 2
    with pytest.raises(NotInvertibleError):
        RatMatrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_matrix_det_and_inverse():
    m = RatMatrix.from_rows([[2, 1], [1, 1]])
    assert m.det() == 1
    assert m * m.inverse() == RatMatrix.identity(2)
    assert RatMatrix.empty().det() == 1


def test_matrix_kron_trace():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.rows == 4
    assert k.trace() == a.trace() * b.trace()


def test_char_poly_companion():
    # companion of t^2 + 3t + 5
    m = RatMatrix.from_rows([[0, -5], [1, -3]])
    assert char_poly(m) == Polynomial([5, 3, 1])
    assert reversed_char_poly(m) == Polynomial([1, 3, 5])


def test_char_poly_empty_and_identity():
    assert char_poly(RatMatrix.empty()) == Polynomial.one()
    assert char_poly(RatMatrix.identity(2)) == Polynomial([1, -2, 1])


@settings(max_examples=30)
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_char_poly_det_and_trace_coefficients(entries):
    m = RatMatrix(3, 3, entries)
    cp = char_poly(m)
    assert cp[3] == 1
    assert cp[2] == -m.trace()
    assert cp[0] == -leibniz_det(m)  # (-1)^n det for n = 3
    assert m.det() == leibniz_det(m)


def leibniz_det(m):
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i, perm[i]] for i in range(n))
    return total


def interpolated_char_poly(m):
    """det(t*I - M) from Leibniz determinants at t = 0..n and Lagrange
    interpolation, a route apart from char_poly."""
    n = m.rows
    xs = list(range(n + 1))
    ys = [leibniz_det(RatMatrix.identity(n) * x + m * -1) for x in xs]
    total = Polynomial.zero()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = Polynomial.constant(yi)
        for xj in xs[:i] + xs[i + 1 :]:
            basis = basis * Polynomial([-xj, 1]) * Fraction(1, xi - xj)
        total = total + basis
    return total


def mixed_entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
    if kind == 1:
        return Fraction(5, 7) * rng.choice([1, -1])
    if kind == 2:
        return rng.randint(-(2**70), 2**70)  # past 64 bits
    return rng.randint(-3, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_char_poly_matches_interpolated_determinants(n):
    rng = random.Random(1000 + n)
    for _ in range(4):
        m = RatMatrix(n, n, [mixed_entry(rng) for _ in range(n * n)])
        assert char_poly(m) == interpolated_char_poly(m)


def bareiss_det(rows):
    """Fraction-free Gaussian elimination (Bareiss) on an integer matrix."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def test_det_of_20x20_integer_matrix_matches_bareiss():
    rng = random.Random(20)
    rows = [[rng.randint(-3, 3) for _ in range(20)] for _ in range(20)]
    start = time.perf_counter()
    det = RatMatrix.from_rows(rows).det()
    assert time.perf_counter() - start < 0.5
    assert det == bareiss_det(rows) != 0


def test_block_diag():
    a = RatMatrix.identity(2)
    b = RatMatrix.from_rows([[7]])
    d = RatMatrix.block_diag(a, b)
    assert d.rows == 3 and d[2, 2] == 7 and d[0, 2] == 0


def test_json_round_trips():
    p = Polynomial([Fraction(1, 2), 3])
    assert Polynomial.from_json(p.to_json()) == p
    r = RationalFunction(p, Polynomial([1, 1]))
    assert RationalFunction.from_json(r.to_json()) == r
    m = RatMatrix.from_rows([[Fraction(1, 3), 0], [1, 2]])
    assert RatMatrix.from_json(m.to_json()) == m
