"""The vectorized field engine against scalar FqElement arithmetic, on
seeded rows with forced zeros, through both of its engines: exp/log/Zech
tables and base-p digits."""

import random

import numpy as np
import pytest

from motivic_zeta import VarietySpec, count_points
from motivic_zeta.gf import fq_make
from motivic_zeta.gfvec import TABLE_MAX, VecField, vec_field
from motivic_zeta.varieties import DEFAULT_BUDGET

TABLED = [(2, 1), (3, 2), (2, 4), (2, 12), (5, 7), (3, 10), (65537, 1)]
DIGITS = [(3, 10), (2, 24), (2**31 - 1, 1), (2**61 - 1, 1)]


def tabulated(p, e):
    vf = VecField(fq_make(p, e))
    vf.digits_of_range(0, 1)  # a range over one variable builds the tables
    assert vf.tabulated
    return vf


def untabulated(p, e):
    vf = VecField(fq_make(p, e))
    vf.digits_of_range(0, 1, 0)  # a one-row range builds nothing
    assert not vf.tabulated
    return vf


ENGINES = [pytest.param(tabulated, p, e, id=f"tables-{p}^{e}") for p, e in TABLED]
ENGINES += [pytest.param(untabulated, 127, 1, id="digits-127")]
ENGINES += [pytest.param(untabulated, p, e, id=f"digits-{p}^{e}") for p, e in DIGITS]  # 2^24 > TABLE_MAX


def operands(vf, seed):
    """Two seeded columns of packed elements: random rows plus every pairing
    of zero, one, -1 and a, -a."""
    rng = random.Random(seed)
    f = vf.field
    a = [rng.randrange(vf.q) for _ in range(100)]
    b = [rng.randrange(vf.q) for _ in range(100)]
    minus_one = (-f.one()).to_int()
    x = rng.randrange(1, vf.q)
    minus_x = (-f.from_int(x)).to_int()
    specials = [0, 1, minus_one, x, minus_x]
    for s in specials:
        for t in specials:
            a.append(s)
            b.append(t)
    return np.array(a, dtype=vf.dtype), np.array(b, dtype=vf.dtype)


def scalars(vf, column):
    return [vf.field.from_int(int(n)) for n in column]


def packed(values):
    return [x.to_int() for x in values]


@pytest.mark.parametrize("make, p, e", ENGINES)
def test_ring_operations_match_scalar_arithmetic(make, p, e):
    vf = make(p, e)
    a, b = operands(vf, p * 100 + e)
    sa, sb = scalars(vf, a), scalars(vf, b)
    assert vf.add(a, b).tolist() == packed(x + y for x, y in zip(sa, sb))
    assert vf.sub(a, b).tolist() == packed(x - y for x, y in zip(sa, sb))
    assert vf.mul(a, b).tolist() == packed(x * y for x, y in zip(sa, sb))
    assert vf.equal(a, b).tolist() == [x == y for x, y in zip(sa, sb)]
    assert vf.is_zero(a).tolist() == [x.is_zero() for x in sa]
    for c in (0, 1, -1, 2, p + 3):
        want = packed(vf.field.element(c) * x for x in sa)
        assert vf.scale(a, c).tolist() == want
        assert vf.mul(vf.const(c), a).tolist() == want  # one-row constants broadcast


@pytest.mark.parametrize("make, p, e", ENGINES)
def test_powers_match_scalar_arithmetic(make, p, e):
    vf = make(p, e)
    a, _ = operands(vf, p * 100 + e + 1)
    sa = scalars(vf, a)
    q = vf.q
    exponents = {0, 1, 2, q - 1, q, q + 1, 3 * q + 5} | {p**m for m in (1, 2, e // 2, e)}
    for n in sorted(exponents):
        got = np.broadcast_to(vf.power(a, n), a.shape).tolist()
        assert got == packed(x**n for x in sa), n


@pytest.mark.parametrize("make, p, e", ENGINES)
def test_squares_and_traces_match_scalar_arithmetic(make, p, e):
    vf = make(p, e)
    a, _ = operands(vf, p * 100 + e + 2)
    sa = scalars(vf, a)
    one = vf.field.one()
    if p == 2:
        squares = [not x.is_zero() for x in sa]
    else:
        squares = [not x.is_zero() and x ** ((vf.q - 1) // 2) == one for x in sa]
    assert vf.is_square(a).tolist() == squares

    def trace(x):
        acc = x
        for _ in range(e - 1):
            x = x**p
            acc = acc + x
        assert all(c == 0 for c in acc.coeffs[1:])
        return acc.coeffs[0]

    assert vf.trace(a).tolist() == [trace(x) for x in sa]


@pytest.mark.parametrize("make, p, e", ENGINES)
def test_elements_and_ranges(make, p, e):
    vf = make(p, e)
    a, _ = operands(vf, p * 100 + e + 3)
    index = np.array([0, 3, len(a) - 1])
    assert vf.elements(a, index) == [vf.field.from_int(int(a[i])) for i in index]
    assert vf.elements(vf.const(-1), index) == [-vf.field.one()] * 3
    # tuple index i = x_0 q + x_1 for two variables
    start = max(vf.q**2 - 7, 0)
    x0, x1 = vf.digits_of_range(start, vf.q**2, 2)
    assert [int(u) * vf.q + int(w) for u, w in zip(x0, x1)] == list(range(start, vf.q**2))


def test_tables_are_capped_at_the_default_budget():
    assert TABLE_MAX == DEFAULT_BUDGET
    vf = VecField(fq_make(2**31 - 1, 1))
    vf.digits_of_range(0, 5)
    assert not vf.tabulated


def test_one_row_charts_build_no_tables():
    # x^2 = a y^2 on P^1 over F_127: the only chart with points has one
    # free variable, and the quadratic shortcut enumerates none of them
    vec_field.cache_clear()
    for a, points in ((2, 2), (3, 0)):  # 2 is a square mod 127, 3 is not
        conic = VarietySpec("projective", 1, 127, 1, ((((2, 0), 1), ((0, 2), -a)),))
        assert count_points(conic, 1, budget=10) == points
    assert not vec_field(fq_make(127, 1)).tabulated
    # a curve in the plane enumerates q rows, and that pass builds them
    curve = VarietySpec("projective", 2, 127, 1, ((((0, 2, 1), 1), ((3, 0, 0), -1), ((0, 0, 3), -1)),))
    count_points(curve, 1)
    assert vec_field(fq_make(127, 1)).tabulated
