"""The integer kernels of the exact layer against the Fraction routes they
replaced (the oracles in conftest.py): inverse, gcd and reduction, Taylor
expansion, exp from traces, the series logarithm and Berlekamp-Massey
must give identical outputs, errors and reasons on seeded inputs."""

import random
from fractions import Fraction

import pytest

from motivic_zeta import Polynomial, RatMatrix, RationalFunction
from motivic_zeta.errors import NotInvertibleError
from motivic_zeta.motives import trace_sequence
from motivic_zeta.reconstruct import NotStabilized, _bm_core, berlekamp_massey
from motivic_zeta.series import TruncatedSeries, exp_from_traces, series_log

from conftest import (
    berlekamp_massey_by_fractions,
    bm_core_by_fractions,
    exp_from_traces_by_fractions,
    gcd_by_fractions,
    inverse_by_fractions,
    random_motive,
    reduce_by_fractions,
    series_log_by_fractions,
    taylor_by_fractions,
)

CASES = 300
DENOMINATORS = (1, 1, 2, 3, 5, 7, 35)


def rand_frac(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    """Small entries with denominators 2, 3, 5, 7, or now and then one
    above 2^64."""
    if rng.random() < 0.08:
        num = rng.choice((-1, 1)) * rng.randrange(2**64, 2**72)
    else:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.choice(DENOMINATORS))


def rand_poly(rng: random.Random, max_degree: int) -> Polynomial:
    return Polynomial([rand_frac(rng) for _ in range(rng.randint(0, max_degree + 1))])


def test_inverse_matches_gauss_jordan_over_fractions():
    rng = random.Random(101)
    singular = 0
    for case in range(CASES):
        n = rng.randint(0, 6)
        rows = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
        if n >= 2 and case % 3 == 0:  # make one row a combination of two others
            i, j, k = rng.sample(range(n), 2) + [rng.randrange(n)]
            a, b = rand_frac(rng), rand_frac(rng)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])] if k not in (i, j) else [0] * n
        m = RatMatrix.from_rows(rows) if n else RatMatrix.empty()
        try:
            expected = inverse_by_fractions(m)
        except NotInvertibleError:
            singular += 1
            with pytest.raises(NotInvertibleError):
                m.inverse()
            continue
        assert m.inverse() == expected, rows
    assert singular >= CASES // 4


def test_gcd_and_reduction_match_euclid_over_fractions():
    rng = random.Random(202)
    for case in range(CASES):
        a, b = rand_poly(rng, 5), rand_poly(rng, 5)
        if case % 2:  # a common factor of degree 1 to 3
            g = Polynomial([rand_frac(rng) for _ in range(rng.randint(1, 3))] + [rand_frac(rng, 1, 9)])
            a, b = a * g, b * g
        if case % 10 == 0:
            a = Polynomial()
        if case % 30 == 0:
            b = Polynomial()
        assert a.gcd(b) == gcd_by_fractions(a, b)
        assert b.gcd(a) == gcd_by_fractions(b, a)
        if not b.is_zero():
            r = RationalFunction(a, b)
            assert (r.num, r.den) == reduce_by_fractions(a, b)


def test_taylor_matches_recurrence_over_fractions():
    rng = random.Random(303)
    for _ in range(CASES):
        den = rand_poly(rng, 5)
        if den[0] == 0:
            den = den + rand_frac(rng, 1, 9)
        r = RationalFunction(rand_poly(rng, 6), den)
        n = rng.randint(0, 30)
        assert r.taylor(n) == taylor_by_fractions(r, n)


def test_exp_from_traces_matches_recurrence_over_fractions():
    rng = random.Random(404)
    for case in range(CASES):
        order = rng.choice((1, 2, 3, 7))  # |G| of an orbifold zeta
        n = rng.randint(0, 40)
        if case % 2:
            traces = [Fraction(t) / order for t in trace_sequence(random_motive(rng), max(n, 1))][:n]
        else:
            traces = [rand_frac(rng, -50, 50) / order for _ in range(n)]
        assert exp_from_traces(traces) == exp_from_traces_by_fractions(traces)
    # long inputs: constant traces give 1/(1 - t), every coefficient 1, and
    # long rational ones make the common denominator grow many times
    assert exp_from_traces([1] * 300) == exp_from_traces_by_fractions([1] * 300)
    assert exp_from_traces([1] * 300).coeffs == (Fraction(1),) * 301
    for _ in range(4):
        traces = [rand_frac(rng) / rng.choice((1, 2, 3, 7)) for _ in range(120)]
        assert exp_from_traces(traces) == exp_from_traces_by_fractions(traces)


def test_series_log_matches_recurrence_over_fractions():
    # dense series, reversed characteristic polynomials (the inputs of
    # trace_sequence) and sparse rational polynomials, at precisions 0..40
    rng = random.Random(405)
    for case in range(CASES):
        n = rng.randint(0, 40)
        kind = case % 3
        if kind == 0:
            coeffs = [1] + [rand_frac(rng, -50, 50) for _ in range(n)]
        elif kind == 1:
            m = random_motive(rng)
            coeffs = list(TruncatedSeries.from_polynomial(m.reversed_char_polys[case % 2], n).coeffs)
        else:
            coeffs = ([1] + [rand_frac(rng) for _ in range(rng.randint(0, 4))] + [0] * n)[: n + 1]
        s = TruncatedSeries(coeffs)
        assert series_log(s) == series_log_by_fractions(s)


def bm_inputs(rng: random.Random):
    """Taylor series of rational functions (which stabilise when long
    enough), random sequences, factorials and runs of zeros."""
    for case in range(CASES):
        kind = case % 4
        n = rng.randint(1, 30)
        if kind == 0:
            den = rand_poly(rng, 4)
            if den[0] == 0:
                den = den + 1
            yield RationalFunction(rand_poly(rng, 3), den).taylor(n - 1)
        elif kind == 1:
            yield [rand_frac(rng) for _ in range(n)]
        elif kind == 2:
            fact = [Fraction(1)]
            for k in range(1, n):
                fact.append(fact[-1] * k / rng.choice(DENOMINATORS))
            yield fact
        else:
            seq = [Fraction(0)] * n
            for k in rng.sample(range(n), rng.randint(0, min(n, 2))):
                seq[k] = rand_frac(rng)
            yield seq


def test_berlekamp_massey_matches_fraction_core():
    rng = random.Random(505)
    reasons = set()
    stabilized = 0
    for seq in bm_inputs(rng):
        assert _bm_core(seq) == bm_core_by_fractions(seq), seq
        got, expected = berlekamp_massey(seq), berlekamp_massey_by_fractions(seq)
        if isinstance(expected, NotStabilized):
            assert got == expected
            reasons.add(expected.reason.split()[0])
        else:
            stabilized += 1
            num, den, stabilized_at, checked = expected
            assert (got.value.num, got.value.den) == (num, den)
            assert (got.stabilized_at, got.residual_checked_to) == (stabilized_at, checked)
    assert stabilized >= CASES // 5
    assert reasons == {"order", "recurrence"}
