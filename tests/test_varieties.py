"""Point counting, zeta functions from counts, and Weil-type checks."""

import itertools
import time

import pytest

from motivic_zeta import (
    NotStabilized,
    Polynomial,
    RationalFunction,
    VarietySpec,
    artin_mazur_traces,
    closed_points,
    count_points,
    euler_product_series,
    fq_make,
    linear_complexity_profile,
    twisted_count,
    weil_check,
    zeta_from_counts,
)
from motivic_zeta.errors import PreconditionError, ResourceError, ValidationError
from motivic_zeta.varieties import affine_space, enumerate_points, projective_space

from conftest import load_json, load_variety


def brute_projective_count(v: VarietySpec, n: int) -> int:
    """Reference count: enumerate all nonzero coordinate vectors and
    quotient by scalars."""
    field = fq_make(v.p, v.e * n)
    eqs = [list(eq) for eq in v.equations]
    raw = 0
    for coords in itertools.product(field.enumerate(), repeat=v.num_vars):
        if all(c.is_zero() for c in coords):
            continue
        ok = True
        for eq in eqs:
            acc = field.zero()
            for exps, coeff in eq:
                term = field.element(coeff)
                for x, e in zip(coords, exps):
                    term = term * x**e
                acc = acc + term
            if not acc.is_zero():
                ok = False
                break
        if ok:
            raw += 1
    return raw // (field.q - 1)


def test_projective_space_counts():
    assert count_points(projective_space(1, 5), 1) == 6
    assert count_points(projective_space(2, 3), 1) == 13
    assert count_points(projective_space(2, 3), 2) == 91
    assert count_points(projective_space(0, 2), 1) == 1


def test_affine_space_counts():
    assert count_points(affine_space(2, 3), 1) == 9
    assert count_points(affine_space(1, 2), 3) == 8


def test_elliptic_counts_match_brute_force():
    e5 = load_variety("elliptic_f5_variety.json")
    assert count_points(e5, 1) == 9
    assert count_points(e5, 2) == 27
    assert count_points(e5, 1) == brute_projective_count(e5, 1)
    assert count_points(e5, 2) == brute_projective_count(e5, 2)
    e7 = load_variety("elliptic_f7_variety.json")
    assert count_points(e7, 1) == 5
    assert count_points(e7, 1) == brute_projective_count(e7, 1)


def frobenius_counts(q: int, n1: int, n_max: int) -> list[int]:
    """N_n = q^n + 1 - (alpha^n + beta^n) for an elliptic curve over F_q
    with N_1 = n1, where alpha + beta = q + 1 - n1 and alpha beta = q."""
    a = q + 1 - n1
    sums = [2, a]
    while len(sums) <= n_max:
        sums.append(a * sums[-1] - q * sums[-2])
    return [q**n + 1 - sums[n] for n in range(1, n_max + 1)]


def legendre_n1(p: int, a: int, b: int) -> int:
    """Projective points of y^2 = x^3 + a x + b over F_p, p odd."""
    total = 1  # the point at infinity
    for x in range(p):
        r = (x**3 + a * x + b) % p
        total += 1 if r == 0 else 2 if pow(r, (p - 1) // 2, p) == 1 else 0
    return total


def plane(p: int, *equations, e: int = 1, dim: int = 2) -> VarietySpec:
    return VarietySpec("projective", dim, p, e, tuple(tuple(eq) for eq in equations))


def test_elliptic_fixture_counts_match_frobenius_recurrence():
    e5 = load_variety("elliptic_f5_variety.json")
    assert count_points(e5, 7) == frobenius_counts(5, 9, 7)[6]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_counts_match_brute_force_small_primes(p):
    conic = plane(p, [((2, 0, 0), 1), ((0, 2, 0), 2), ((1, 0, 1), 1), ((0, 0, 2), -1)])
    cubic = plane(p, [((0, 2, 1), 1), ((1, 1, 1), 1), ((3, 0, 0), -1), ((0, 0, 3), -1)])
    # degree 3 in every variable: the chart x = 1 has no quadratic shortcut
    klein = plane(p, [((3, 1, 0), 1), ((0, 3, 1), 1), ((1, 0, 3), 1)])
    # two equations in P^3: the chart x = 1 is exhaustive as well
    quadrics = plane(
        p,
        [((1, 1, 0, 0), 1), ((0, 0, 1, 1), -1)],
        [((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), -1), ((0, 0, 1, 1), 1)],
        dim=3,
    )
    for v in (conic, cubic, klein, quadrics):
        assert count_points(v, 1) == brute_projective_count(v, 1)


def test_counts_match_brute_force_extension_field():
    cubic = plane(3, [((0, 2, 1), 1), ((1, 1, 1), 1), ((3, 0, 0), -1), ((0, 0, 3), 1)])
    assert count_points(cubic, 2) == brute_projective_count(cubic, 2)
    over_f4 = plane(2, [((0, 2, 1), 1), ((0, 1, 2), 1), ((3, 0, 0), 1), ((1, 1, 1), 1)], e=2)
    assert count_points(over_f4, 2) == brute_projective_count(over_f4, 2)


@pytest.mark.parametrize("p", [127, 131, 251, 257, 16381, 20011, 32749, 40009, 65537])
def test_elliptic_n1_at_dtype_edges(p):
    # the fixture's y^2 = x^3 + x + 1 moved to primes around 2^7, 2^8,
    # 2^14, 2^15 and past 2^16
    curve = VarietySpec.from_json(dict(load_json("elliptic_f5_variety.json"), p=p))
    assert count_points(curve, 1) == legendre_n1(p, 1, 1)


def test_large_prime_counts_are_exact():
    cubic = VarietySpec("affine", 1, 32749, 1, ((((3,), 1), ((1,), 1)),))
    assert count_points(cubic, 1) == 3
    circle = VarietySpec("affine", 2, 20011, 1, ((((2, 0), 1), ((0, 2), 1), ((0, 0), -1)),))
    assert count_points(circle, 1) == 20012


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_one_row_chart_needs_no_squares_table(p):
    # x^2 = a y^2 on P^1 has 1 + chi(a) points; the only nonempty chart is
    # one row, so a budget of 10 must suffice at any p.  For these p,
    # 2 is a square and 3 is not.
    for a in (2, 3):
        v = VarietySpec("projective", 1, p, 1, ((((2, 0), 1), ((0, 2), -a)),))
        chi = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
        assert count_points(v, 1, budget=10) == 1 + chi


def test_char2_curve_matches_frobenius_recurrence():
    # y^2 z + y z^2 = x^3 over F_2 is supersingular: a = 0, N_1 = 3
    v = plane(2, [((0, 2, 1), 1), ((0, 1, 2), 1), ((3, 0, 0), -1)])
    assert [count_points(v, n) for n in range(1, 13)] == frobenius_counts(2, 3, 12)


@pytest.mark.parametrize(
    "name, p, n1, n",
    [
        ("elliptic_f5_variety.json", 5, 9, 1),
        ("elliptic_f7_variety.json", 7, 5, 1),
        ("elliptic_f5_variety.json", 5, 9, 2),
    ],
)
def test_quadratic_twist_counts(name, p, n1, n):
    flip = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    n_n = frobenius_counts(p, n1, n)[n - 1]
    assert twisted_count(load_variety(name), flip, n) == 2 * (p**n + 1) - n_n


def test_affine_hyperbola():
    gm = load_variety("gm_f2_variety.json")
    assert [count_points(gm, n) for n in (1, 2, 3)] == [1, 3, 7]


def test_homogeneity_validation():
    with pytest.raises(ValidationError):
        VarietySpec(
            ambient_kind="projective",
            ambient_dim=1,
            p=5,
            e=1,
            equations=((((1, 0), 1), ((0, 0), 1)),),
        )


def test_budget_enforcement():
    e5 = load_variety("elliptic_f5_variety.json")
    with pytest.raises(ResourceError) as err:
        count_points(e5, 4, budget=100)
    assert err.value.required > err.value.budget == 100


def test_enumerate_points_consistent():
    p1 = projective_space(1, 5)
    pts = list(enumerate_points(p1, 1))
    assert len(pts) == count_points(p1, 1)


def test_twisted_count_identity_is_plain_count():
    p1 = load_variety("p1_f5_variety.json")
    assert twisted_count(p1, [[1, 0], [0, 1]], 1) == 6
    assert twisted_count(p1, [[1, 0], [0, 1]], 2) == 26


def test_twisted_count_sign_action():
    p1 = load_variety("p1_f5_variety.json")
    g = [[-1, 0], [0, 1]]
    # [x:y] with -Fr(x) = x: same fixed count as the untwisted Frobenius
    # on the projective line (the twist is by an element of PGL_2(F_q))
    assert twisted_count(p1, g, 1) == 6
    assert twisted_count(p1, g, 4) == 626


def test_over_budget_twisted_count_is_refused_before_embedding(monkeypatch):
    # F_25 with an element of order 2 at n = 3 enumerates F_{5^12}; the
    # refusal must come before the matrices are embedded in that field
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    v = VarietySpec("projective", 1, 5, 2, ())
    start = time.perf_counter()
    with pytest.raises(ResourceError) as err:
        twisted_count(v, [[4, 0], [0, 1]], 3)
    assert time.perf_counter() - start < 1
    assert (err.value.required, err.value.budget) == (5**12, 10**7)


def test_twisted_budget_is_charged_chart_by_chart():
    # P^2/F_5 charts have 25, 5 and 1 assignments
    p2, g = projective_space(2, 5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ResourceError) as err:
        twisted_count(p2, g, 1, budget=27)
    assert (err.value.required, err.value.budget) == (30, 27)
    assert twisted_count(p2, g, 1, budget=31) == 31


def test_zeta_from_counts_p1():
    w = zeta_from_counts(projective_space(1, 5), 6)
    rf = RationalFunction(Polynomial.one(), Polynomial([1, -6, 5]))
    assert list(w.series.coeffs) == rf.taylor(6)


def test_closed_points_and_euler_product():
    gm = load_variety("gm_f2_variety.json")
    b = closed_points(gm, 4)
    assert b == [1, 1, 2, 3]
    series = euler_product_series(b, 4)
    assert list(series.coeffs) == list(zeta_from_counts(gm, 4).series.coeffs)


def test_closed_points_p1():
    assert closed_points(projective_space(1, 5), 3) == [6, 10, 40]


def test_weil_check_p2():
    report = weil_check(projective_space(2, 3), 2, 8)
    assert report.stabilized
    assert report.e_degree == 3
    assert report.functional_equation_holds
    assert report.sign == -1
    assert report.rh_holds
    assert report.zeta == RationalFunction(
        Polynomial.one(), Polynomial([1, -1]) * Polynomial([1, -3]) * Polynomial([1, -9])
    )


def test_weil_check_elliptic():
    report = weil_check(load_variety("elliptic_f5_variety.json"), 1, 7)
    assert report.stabilized
    assert report.e_degree == 0
    assert report.functional_equation_holds
    assert report.sign == 1
    assert report.rh_holds
    moduli = sorted(report.reciprocal_root_moduli)
    assert abs(moduli[1] - 5**0.5) < 1e-9 and abs(moduli[2] - 5**0.5) < 1e-9


def test_weil_check_not_stabilized_with_short_data():
    report = weil_check(projective_space(2, 3), 2, 3)
    assert not report.stabilized
    assert report.zeta is None
    assert report.note


def test_artin_mazur_values():
    assert artin_mazur_traces(5, 2, 6) == [3, 5, 9, 5, 33, 65]


def test_artin_mazur_matches_direct_enumeration():
    # fixed points of x -> x^(m^n) on P^1(F_p-bar) live in small extensions;
    # count roots of x^(m^n) = x with multiplicity-free prime-to-p part
    # via the multiplicative-group order: gcd-based closed form
    import math

    p, m = 5, 2
    for n in range(1, 7):
        val = m**n - 1
        while val % p == 0:
            val //= p
        # x^(m^n - 1) = 1 has gcd(m^n - 1, p^k - 1) solutions in F_{p^k};
        # the union over k is the prime-to-p part, plus 0 and infinity
        assert artin_mazur_traces(p, m, n)[-1] == 2 + val


def test_artin_mazur_validation():
    with pytest.raises(ValidationError):
        artin_mazur_traces(4, 2, 5)
    with pytest.raises(ValidationError):
        artin_mazur_traces(5, 1, 5)
    with pytest.raises(ValidationError):
        artin_mazur_traces(5, 10, 5)


def test_artin_mazur_never_stabilizes():
    from motivic_zeta import traces_to_zeta

    traces = artin_mazur_traces(5, 2, 24)
    assert isinstance(traces_to_zeta(traces), NotStabilized)
    profile = linear_complexity_profile(traces)
    assert profile == sorted(profile)


def test_variety_json_round_trip():
    e5 = load_variety("elliptic_f5_variety.json")
    assert VarietySpec.from_json(e5.to_json()) == e5


def test_from_json_equation_forms():
    # x = 0 on A^1/F_5, as a list of one one-term equation and as a flat
    # equation
    nested = VarietySpec.from_json({"ambient": {"affine": 1}, "p": 5, "equations": [[[[1], 1]]]})
    flat = VarietySpec.from_json({"ambient": {"affine": 1}, "p": 5, "equations": [[[1], 1]]})
    assert nested == flat and count_points(nested, 1) == 1
    with pytest.raises(ValidationError):
        VarietySpec.from_json({"ambient": {"affine": 1}, "p": 5, "equations": [[[1.5], 1]]})


def test_count_rejects_bad_extension():
    with pytest.raises(PreconditionError):
        count_points(projective_space(1, 5), 0)
