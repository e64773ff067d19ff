"""Counts over F_{q^n} that build no table of F_{q^n}: a chart with one free
variable by deg gcd(P_1, .., P_k, z^Q - z), a quadratic chart with two by
its root counts and the L-polynomial of y^2 = D(x).  Each is checked
against enumerate_points and against today's route (rows or enumeration
over F_{q^n}), which the pricer would pick if it were the only way."""

import math
import random

import pytest

from motivic_zeta import fq_make, varieties
from motivic_zeta.errors import ResourceError, ValidationError
from motivic_zeta.varieties import VarietySpec, count_points, enumerate_points

from conftest import load_variety

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]
ROW_LIMIT = 3 * 10**5  # q^n of the largest field today's route passes over here


@pytest.fixture
def routes(monkeypatch):
    """The routes the pricer picks, one list per request."""
    picked = []
    priced = varieties._priced

    def spy(*args, **kwargs):
        out = priced(*args, **kwargs)
        picked.extend(r for _, _, r in out)
        return out

    monkeypatch.setattr(varieties, "_priced", spy)
    return picked


def todays_count(monkeypatch, v, n, budget=10**9):
    """count_points with every chart on the first of its ways: rows or
    enumeration over F_{q^n}, or the closed form of one equation of degree
    <= 2 in one free variable."""
    ways = varieties._ways
    with monkeypatch.context() as m:
        m.setattr(varieties, "_ways", lambda *args: ways(*args)[:1])
        return count_points(v, n, budget=budget)


def gcd_count(monkeypatch, v, n):
    """count_points with every chart on the last of its ways: the root gcd
    on a chart with one free variable."""
    ways = varieties._ways
    with monkeypatch.context() as m:
        m.setattr(varieties, "_ways", lambda *args: ways(*args)[-1:])
        return count_points(v, n, budget=10**9)


def element(rng, p, e, nonzero=False):
    base = fq_make(p, e)
    x = base.from_int(rng.randrange(1 if nonzero else 0, base.q))
    return x.coeffs[0] if e == 1 else x


def poly(rng, p, e, degree, monic=False):
    """Dense coefficients of a seeded polynomial of the given degree."""
    return [element(rng, p, e) for _ in range(degree)] + [1 if monic else element(rng, p, e, nonzero=True)]


def multiply(a, b, p, e):
    base = fq_make(p, e)
    a, b = ([base.element(x) if isinstance(x, int) else x for x in y] for y in (a, b))
    out = [base.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return [x.coeffs[0] if e == 1 else x for x in out]


def quadratic_chart(rng, p, e, d, linear=False, square=False):
    """a(x) v^2 + b(x) v + c(x) on A^2 (variables x, v) with deg D = d for
    D = b^2 - 4ac unless leading terms cancel: a = 0 when linear; D a
    square times a factor when square."""
    if linear:
        a, b, c = [], poly(rng, p, e, max(d // 2, 0)), poly(rng, p, e, d)
    elif square:
        h = poly(rng, p, e, max(d // 2, 1))
        a, b, c = [1], [], multiply(multiply(h, h, p, e), poly(rng, p, e, max(d - 2 * len(h) + 2, 0)), p, e)
    else:
        da = rng.randrange(0, min(d, 2) + 1)
        a, b, c = poly(rng, p, e, da), poly(rng, p, e, rng.randrange(0, d // 2 + 1)), poly(rng, p, e, d - da)
    terms = tuple(((k, power), x) for power, part in ((2, a), (1, b), (0, c)) for k, x in enumerate(part) if x)
    return VarietySpec("affine", 2, p, e, (terms,))


@pytest.mark.parametrize("p, e", FIELDS)
def test_quadratic_charts_match_enumeration_and_rows(monkeypatch, routes, p, e):
    """Seeded charts with deg D = 0..8, squarefree or not, a = 0, constant
    or not, at every n <= 8 with q^n <= ROW_LIMIT: equal to today's rows,
    and to enumerate_points while q^(2n) <= 2 * 10^4; the L-polynomial
    route answers some of them past its genus."""
    rng = random.Random(100 * p + e)
    q, weil = p**e, 0
    for d in range(9):
        for shape in ({}, {"linear": True}, {"square": True}):
            v = quadratic_chart(rng, p, e, d, **shape)
            for n in range(1, 9):
                if q**n > ROW_LIMIT:
                    break
                got = count_points(v, n, budget=10**9)
                weil += varieties.WEIL in routes[-1]
                assert got == todays_count(monkeypatch, v, n), (v.equations, n)
                if q ** (2 * n) <= 2 * 10**4:
                    assert got == len(enumerate_points(v, n, budget=10**9)), (v.equations, n)
    assert weil >= 10


@pytest.mark.parametrize("p, e", FIELDS)
def test_projective_cubics_match_enumeration_and_rows(monkeypatch, p, e):
    """Seeded plane cubics with a y^2 z term and no y^3, so that the chart
    x = 1 is quadratic in y and the chart x = 0, y = 1 a cubic in z."""
    rng = random.Random(p**e)
    monomials = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i) if (i, j) not in ((0, 3), (0, 2))]
    for _ in range(3):
        terms = tuple((m, element(rng, p, e)) for m in monomials if rng.random() < 0.6)
        v = VarietySpec("projective", 2, p, e, (terms + (((0, 2, 1), element(rng, p, e, nonzero=True)),),))
        for n in range(1, 9):
            if p ** (e * n) > ROW_LIMIT:
                break
            got = count_points(v, n, budget=10**9)
            assert got == todays_count(monkeypatch, v, n), (v.equations, n)
            if p ** (2 * e * n) <= 2 * 10**4:
                assert got == len(enumerate_points(v, n, budget=10**9)), (v.equations, n)


def irreducible(rng, p, e, degree):
    """A seeded monic irreducible polynomial of degree 1, 2 or 3 over F_{p^e}:
    one with no root there."""
    base = fq_make(p, e)
    while True:
        f = poly(rng, p, e, degree, monic=True)
        coeffs = [base.element(x) if isinstance(x, int) else x for x in f]
        if degree == 1 or all(not sum((c * x**i for i, c in enumerate(coeffs)), base.zero()).is_zero() for x in base.enumerate()):
            return f


def distinct(rng, p, e, degree, k):
    """k distinct seeded monic irreducible polynomials of the given degree."""
    out = []
    while len(out) < k:
        f = irreducible(rng, p, e, degree)
        out += [] if f in out else [f]
    return out


@pytest.mark.parametrize("p, e", FIELDS)
def test_one_variable_charts_follow_the_gcd_rule(monkeypatch, routes, p, e):
    """Products of seeded irreducible factors of degree 1..3, repeated, of
    degree 1..60 over F_p (1..12 over its extensions, where a coefficient
    product is a field product), one equation or two sharing factors: an
    irreducible factor of degree k has its k roots in F_{q^n} when k | n,
    else none.  Two equations whose gcd is a quadratic, irreducible, split
    or a square, check its closed form.  The root gcd agrees at every n,
    today's route while q^n <= 2 * 10^4."""
    rng = random.Random(7 * p + e)
    cases = []  # (irreducible factors, equations, a mask of the factors they share)
    for degree in (1, 4, 12, 30, 60) if e == 1 else (1, 4, 12):
        factors = list({tuple(f): f for f in (irreducible(rng, p, e, rng.randrange(1, 4)) for _ in range(4))}.values())
        first, first_used = [1], 0
        while len(first) - 1 < degree:
            f = rng.choice(factors)
            first, first_used = multiply(first, f, p, e), first_used | 1 << factors.index(f)
        g = rng.choice(factors)
        second, second_used = multiply(factors[0], g, p, e), 1 | 1 << factors.index(g)
        cases += [(factors, [first], first_used), (factors, [first, second], first_used & second_used)]
    (quadratic,), (l1, l2), (k1, k2) = (distinct(rng, p, e, degree, k) for degree, k in ((2, 1), (1, 2), (3, 2)))
    for g, used in ((quadratic, 0b001), (multiply(l1, l2, p, e), 0b110), (multiply(l1, l1, p, e), 0b010)):
        cases.append(([quadratic, l1, l2], [multiply(g, k1, p, e), multiply(g, k2, p, e)], used))
    picked = []  # the pricer's own routes for the charts that are not one equation of degree <= 2
    for factors, eqs, used in cases:
        v = VarietySpec("affine", 1, p, e, tuple(tuple(((k,), x) for k, x in enumerate(eq) if x) for eq in eqs))
        for n in range(1, 9):
            want = sum(len(f) - 1 for i, f in enumerate(factors) if used >> i & 1 and n % (len(f) - 1) == 0)
            assert count_points(v, n) == want, (eqs, n)
            picked += routes[-1:] if len(eqs) > 1 or len(eqs[0]) > 3 else []
            assert want == gcd_count(monkeypatch, v, n), (eqs, n)
            if p ** (e * n) <= 2 * 10**4:
                assert want == todays_count(monkeypatch, v, n), (eqs, n)
    assert any(varieties.GCD in r for r in picked)


P31 = 2**31 - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_large_primes_count_without_tables(monkeypatch, n):
    """Over F_p, p = 2^31 - 1, past the table cap: diagonal conics have
    Q + 1 points and x^m = +-1 has gcd(m, Q - 1) roots or none, Q = p^n;
    today's route, a pass over F_Q, is refused by that cap."""
    rng, q = random.Random(n), P31**n
    for _ in range(3):
        a, b, c = (rng.randrange(1, P31) for _ in range(3))
        conic = VarietySpec("projective", 2, P31, 1, ((((2, 0, 0), a), ((0, 2, 0), b), ((0, 0, 2), c)),))
        assert count_points(conic, n) == q + 1
    for m in (2, 3, 5, 6, 12, 31):
        for sign in (1, -1):
            line = VarietySpec("affine", 1, P31, 1, ((((m,), 1), ((0,), sign)),))
            g = math.gcd(m, q - 1)
            want = g if pow(-sign % P31, (q - 1) // g, P31) == 1 else 0
            assert count_points(line, n) == want, (m, sign)
    with pytest.raises(ResourceError, match="log tables"):
        todays_count(monkeypatch, conic, n, budget=10**30)


GENUS_2 = VarietySpec("affine", 2, 7, 1, ((((0, 2), 1), ((5, 0), -1), ((1, 0), -1), ((0, 0), -2)),))  # v^2 = x^5 + x + 2


def test_the_genus_2_curve_answers_past_its_genus(monkeypatch, routes):
    counts = [count_points(GENUS_2, n) for n in range(1, 7)]
    assert [varieties.WEIL in r for r in routes] == [False, False, True, True, True, True]
    assert counts == [todays_count(monkeypatch, GENUS_2, n) for n in range(1, 7)]


@pytest.mark.parametrize("v, n, shift", [(GENUS_2, 3, 1), (load_variety("elliptic_f5_variety.json"), 2, 20)])
def test_character_sums_that_are_no_curves_are_refused(monkeypatch, v, n, shift):
    """S_1, counted by the quadratic rows over F_q, shifted by one makes
    a_2 = (s_1^2 - s_2) / 2 fractional on a curve of genus 2; shifted by
    20 on one of genus 1 over F_5 it makes |a_1| > 2 sqrt(5).  Either is a
    ValidationError, never a count."""
    rows = varieties._quadratic_count
    monkeypatch.setattr(varieties, "_quadratic_count", lambda vf, *args: rows(vf, *args) + shift * (vf.q == v.q))
    with pytest.raises(ValidationError, match="no L-polynomial"):
        count_points(v, n)
