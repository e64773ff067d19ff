"""Point counting, zeta functions from counts, and Weil-type checks."""

import functools
import itertools
import json
import math
import random
import tracemalloc

import pytest

from motivic_zeta import (
    NotStabilized,
    Polynomial,
    RationalFunction,
    VarietySpec,
    closed_points,
    count_points,
    euler_product_series,
    fq_make,
    linear_complexity_profile,
    twisted_count,
    weil_check,
    zeta_from_counts,
)
from motivic_zeta import gfvec, varieties
from motivic_zeta.cli import main
from motivic_zeta.errors import PreconditionError, ResourceError, ValidationError
from motivic_zeta.gf import FqField, mobius, row_echelon
from motivic_zeta.gfvec import vec_field
from motivic_zeta.motives import artin_mazur_traces
from motivic_zeta.serialize import dumps
from motivic_zeta.varieties import (
    _counts,
    _equations,
    _fixer_equations,
    _normalize_matrix,
    _twisted,
    affine_space,
    enumerate_points,
    projective_space,
)

from conftest import (
    KLEIN_F5,
    VARIETY_FIXTURES,
    load_json,
    load_variety,
    matrix_order,
    twist_degree,
    twisted_count_by_enumeration,
)


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


def brute_roots(coeffs, base, big) -> int:
    """Roots in big of the polynomial with ascending coefficients coeffs,
    elements of its subfield base, by trying every element."""
    coeffs = [base.embed(c, big) for c in coeffs]
    return sum(sum((c * x**i for i, c in enumerate(coeffs)), big.zero()).is_zero() for x in big.enumerate())


@pytest.mark.parametrize("p, e, n", [(2, 1, 1), (3, 1, 1), (2, 1, 4), (2, 3, 2), (3, 1, 3), (3, 2, 2), (5, 2, 1)])
def test_one_variable_charts_count_roots_from_scalars(p, e, n):
    """Seeded a v^2 + b v + c on A^1 and binary forms a x^2 + b x y + c y^2
    on P^1 over F_{p^e}, each coefficient zero one time in three, counted
    over F_{p^(e n)} against brute force: their only charts with equations
    have one free variable and one equation of degree <= 2, counted in
    closed form, so no count builds a VecField."""
    rng = random.Random(100 * p + 10 * e + n)
    base, big = fq_make(p, e), fq_make(p, e * n)
    vec_field.cache_clear()
    for _ in range(15):
        c, b, a = (base.zero() if rng.randrange(3) == 0 else base.from_int(rng.randrange(1, base.q)) for _ in range(3))
        line = VarietySpec("affine", 1, p, e, ((((2,), a), ((1,), b), ((0,), c)),))
        form = VarietySpec("projective", 1, p, e, ((((2, 0), a), ((1, 1), b), ((0, 2), c)),))
        assert count_points(line, n) == brute_roots([c, b, a], base, big), (a, b, c)
        # [1 : y] with a + b y + c y^2 = 0, and [0 : 1] when c = 0
        assert count_points(form, n) == brute_roots([a, b, c], base, big) + c.is_zero(), (a, b, c)
    assert not gfvec._fields


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_binary_forms_over_large_primes_match_the_residue_closed_form(p):
    """A nonzero a x^2 + b x y + c y^2 on P^1 has 1 + chi(b^2 - 4ac) points
    for c != 0, chi the Legendre symbol, and 1 + (b != 0) for c = 0; a
    budget of 10 suffices, and no count builds a VecField."""
    rng = random.Random(p)
    vec_field.cache_clear()
    for _ in range(20):
        a, b, c = (0 if rng.randrange(4) == 0 else rng.randrange(1, p) for _ in range(3))
        if not (a or b or c):
            continue  # the zero form vanishes on all of P^1
        form = VarietySpec("projective", 1, p, 1, ((((2, 0), a), ((1, 1), b), ((0, 2), c)),))
        disc = (b * b - 4 * a * c) % p
        chi = 0 if disc == 0 else 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
        assert count_points(form, 1, budget=10) == (1 + chi if c else 1 + (b != 0)), (a, b, c)
    assert not gfvec._fields


def test_char2_curve_matches_frobenius_recurrence():
    # y^2 z + y z^2 = x^3 over F_2 is supersingular: a = 0, N_1 = 3
    v = plane(2, [((0, 2, 1), 1), ((0, 1, 2), 1), ((3, 0, 0), -1)])
    assert [count_points(v, n) for n in range(1, 13)] == frobenius_counts(2, 3, 12)


@pytest.mark.parametrize(
    "name, p, n1, n",
    [(name, p, n1, n) for name, p, n1 in (("elliptic_f5_variety.json", 5, 9), ("elliptic_f7_variety.json", 7, 5)) for n in range(1, 7)],
)
def test_quadratic_twist_counts(name, p, n1, n):
    # E/F_5 at n = 3 is 144; enumerating X over F_{5^6} was over budget
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
    # P^0 is one chart with no free variables: its point needs no tables,
    # which no field past TABLE_MAX could have
    vec_field.cache_clear()
    point = fq_make(2**61 - 1, 1).one()
    assert enumerate_points(projective_space(0, 2**61 - 1), budget=1) == [(point,)]
    assert not gfvec._fields


def test_enumerate_points_in_lexicographic_order():
    """Chart by chart (the first nonzero coordinate is 1), the points in
    itertools.product order over FqField.enumerate of the free coordinates,
    over a field whose rows are logs."""
    e5 = load_variety("elliptic_f5_variety.json")
    field = fq_make(5, 2)
    want = []
    for i in range(e5.num_vars):
        for free in itertools.product(list(field.enumerate()), repeat=e5.num_vars - 1 - i):
            coords = (field.zero(),) * i + (field.one(),) + free
            values = [
                sum((field.element(c) * math.prod((x**e for x, e in zip(coords, exps)), start=field.one()) for exps, c in eq), field.zero())
                for eq in e5.equations
            ]
            if all(value.is_zero() for value in values):
                want.append(coords)
    assert enumerate_points(e5, 2) == want and len(want) == count_points(e5, 2)
    assert field in gfvec._fields


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


@pytest.fixture
def field_requests(monkeypatch):
    """The degrees e of the fields F_{p^e} that varieties asks fq_make
    for, in call order, and ("embedding_root", e, E) for each search of an
    embedding of F_{p^e} in F_{p^E}.  Such a work guard holds on any host."""
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    degrees = []
    embedding_root = FqField.embedding_root

    def recorded(p, e):
        degrees.append(e)
        return fq_make(p, e)

    def recorded_embedding(small, big):
        degrees.append(("embedding_root", small.e, big.e))
        return embedding_root(small, big)

    monkeypatch.setattr(varieties, "fq_make", recorded)
    monkeypatch.setattr(FqField, "embedding_root", recorded_embedding)
    return degrees


@pytest.fixture
def field_builds(field_requests, monkeypatch):
    """field_requests, where varieties.vec_field, which builds a field's
    tables for enumeration, raises."""

    def no_enumeration(field):
        raise AssertionError(f"F_{field.p}^{field.e} was set up for enumeration")

    monkeypatch.setattr(varieties, "vec_field", no_enumeration)
    return field_requests


def test_over_budget_twisted_count_is_refused_at_once(field_builds):
    # the Klein quartic over F_25 with an element of order 2 at n = 3: its
    # twisted form over F_{5^6} has no quadratic variable on the chart
    # x = 1, so its count needs 15625^2 assignments, as the untwisted count
    # does; the refusal comes from that count, before any enumeration.  The
    # descent itself works in F_{5^6}[X]/(h) and builds no other field
    klein = plane(5, [((3, 1, 0), 1), ((0, 3, 1), 1), ((1, 0, 3), 1)], e=2)
    with pytest.raises(ResourceError) as err:
        twisted_count(klein, [[4, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert (err.value.required, err.value.budget) == (5**12, 10**7)
    assert set(field_builds) == {2, 6}
    field_builds.clear()
    with pytest.raises(ResourceError) as plain:
        count_points(klein, 3)
    assert (plain.value.required, plain.value.budget) == (err.value.required, err.value.budget)
    assert set(field_builds) == {2}


def test_closed_form_and_refused_counts_build_no_field(field_builds):
    # every chart is charged before F_{q^n} exists: building F_{13^42} took
    # 13.6 s before a closed form, and F_{5^56} 6.0 s before a refusal.
    # The chart x = 1 of the Klein quartic is (5^56)^2 assignments, and
    # enumerate_points visits every chart in full, so the chart x = 1 of
    # E/F_5 alone is as many
    q = 13**42
    assert count_points(projective_space(2, 13), 42) == 1 + q + q**2
    e5 = load_variety("elliptic_f5_variety.json")
    with pytest.raises(ResourceError) as err:
        count_points(VarietySpec.from_json(KLEIN_F5), 56)
    assert (err.value.required, err.value.budget) == (5**112, 10**7)
    with pytest.raises(ResourceError) as err:
        enumerate_points(e5, 56)
    assert (err.value.required, err.value.budget) == (5**112, 10**7)
    assert set(field_builds) == {1}


# the Klein quartic over F_5 at n = 6 is over the default budget: 5^12 on
# its chart x = 1
KLEIN_N6 = 5**12


@pytest.mark.parametrize("count", [weil_check, closed_points, zeta_from_counts])
def test_multi_n_counts_are_charged_for_every_n_before_any_is_counted(field_builds, count):
    # n = 6 is charged before n = 1..5 are counted, so no field is set up
    args = (1, 9) if count is weil_check else (9,)
    with pytest.raises(ResourceError) as err:
        count(VarietySpec.from_json(KLEIN_F5), *args)
    assert (err.value.required, err.value.budget) == (KLEIN_N6, 10**7)
    assert set(field_builds) == {1}


def test_cli_variety_count_is_charged_for_every_n_before_any_is_counted(field_builds, capsys, tmp_path):
    (tmp_path / "klein.json").write_text(json.dumps(KLEIN_F5))
    code = main(["variety", "count", "--in", str(tmp_path / "klein.json"), "--nmax", "9"])
    envelope = json.loads(capsys.readouterr().out)
    assert (code, envelope["status"]) == (2, "resource_error")
    assert (envelope["payload"]["required"], envelope["payload"]["budget"]) == (KLEIN_N6, 10**7)
    assert set(field_builds) == {1}


def test_former_refusals_of_the_elliptic_fixtures_answer(field_requests):
    """E/F_5 at n = 56 (refused with required 5^56) and E/F_7 at n = 8, 9
    (refused with 2 * 7^8) now follow the Frobenius recurrence from N_1 = 9
    and N_1 = 5, and build no field past F_p: each chart is counted by its
    L-polynomial, from S_1 over F_p, or by its root gcd."""
    e5, e7 = load_variety("elliptic_f5_variety.json"), load_variety("elliptic_f7_variety.json")
    assert count_points(e5, 56) == frobenius_counts(5, 9, 56)[55]
    counts = frobenius_counts(7, 5, 9)
    assert varieties.point_counts(e7, 9) == counts
    assert set(field_requests) == {1}
    assert closed_points(e7, 9) == [sum(mobius(d // k) * counts[k - 1] for k in range(1, d + 1) if d % k == 0) // d for d in range(1, 10)]
    zeta = RationalFunction(Polynomial([1, -3, 7]), Polynomial([1, -8, 7]))  # (1 - 3t + 7t^2) / ((1 - t)(1 - 7t))
    assert list(zeta_from_counts(e7, 9).series.coeffs) == zeta.taylor(9)
    report = weil_check(e7, 1, 9)
    assert report.stabilized and report.rh_holds and report.functional_equation_holds and report.counts == counts


@pytest.mark.parametrize("name", VARIETY_FIXTURES)
def test_point_counts_are_the_counts_one_by_one(name):
    v = load_variety(name)
    assert varieties.point_counts(v, 3) == [count_points(v, n) for n in (1, 2, 3)]


def test_weil_check_needs_a_count():
    with pytest.raises(PreconditionError):
        weil_check(projective_space(1, 5), 1, 0)


def test_twisted_budget_is_charged_chart_by_chart():
    # E/F_5 over F_25: the chart x = 1 charges 5 (the rows of S_1 over F_5
    # for its L-polynomial, cheaper than 25 rows and 25 table entries), the
    # chart x = 0, y = 1 charges 25 (z^3 - z, exhaustive, cheaper than a
    # root gcd), and its field's search 2^4 ceil(log2 5) = 48; an identity
    # twist is count_points itself.  The twist y -> -y first charges its
    # descent of degree 2 over F_25, 2^4 2^2 ceil(log2 5) = 192, then its
    # descended count, 50
    e5 = load_variety("elliptic_f5_variety.json")
    ident, flip = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    with pytest.raises(ResourceError) as plain:
        count_points(e5, 2, budget=27)
    with pytest.raises(ResourceError) as err:
        twisted_count(e5, ident, 2, budget=27)
    assert (err.value.required, err.value.budget) == (plain.value.required, plain.value.budget) == (30, 27)
    assert twisted_count(e5, ident, 2, budget=48) == count_points(e5, 2) == 27
    with pytest.raises(ResourceError, match="twist descent") as err:
        twisted_count(e5, flip, 2, budget=191)
    assert (err.value.required, err.value.budget) == (192, 191)
    assert twisted_count(e5, flip, 2, budget=192) == 25


def test_refused_quadratic_twist_builds_only_its_field(field_builds):
    # y -> -y on E/F_5 at n = 20: the descent works in F_{5^20}[X]/(h) with
    # h of degree 2, so it builds F_{5^20} and searches no embedding of F_5
    # before the descended count over F_{5^20} is refused
    e5 = load_variety("elliptic_f5_variety.json")
    with pytest.raises(ResourceError) as err:
        twisted_count(e5, [[1, 0, 0], [0, -1, 0], [0, 0, 1]], 20)
    assert (err.value.required, err.value.budget) == (5**20, 10**7)
    assert set(field_builds) == {1, 20}


# P^1/F_13 cut by x^13 y - x y^13, whose points over any extension are
# P^1(F_13)
P1_F13 = VarietySpec("projective", 1, 13, 1, ((((13, 1), 1), ((1, 13), -1)),))


@pytest.mark.parametrize("n", [1, 2])
def test_twist_of_large_order_descends_by_its_projective_order(field_requests, n):
    # [[0, 2], [1, 4]] has order 168 and projective order 14 (g^14 = 11 I),
    # so the descent works over F_{13^n} in degree 14, not 168; its
    # characteristic polynomial t^2 - 4t - 2 has discriminant 11, not a
    # square mod 13, so g has no eigenvector in P^1(F_13) and no x of X has
    # g(Fr^n(x)) proportional to x
    g = _normalize_matrix(P1_F13, [[0, 2], [1, 4]])
    assert (matrix_order(P1_F13, g), twist_degree(P1_F13, g)) == (168, 14)
    assert varieties._twist_order("projective", g, 10**7) == (14, P1_F13.base_field.element(11))
    assert twisted_count(P1_F13, g, n, budget=10**7) == 0
    assert set(field_requests) == {1, n}


@pytest.mark.parametrize("n", [1, 2])
def test_unipotent_twist_of_projective_order_p(n):
    # [[2, 1], [0, 2]] has order 156 and projective order 13: on P^1(F_13),
    # where Fr^n is the identity, it fixes [1 : 0] alone
    g = [[2, 1], [0, 2]]
    assert (matrix_order(P1_F13, g), twist_degree(P1_F13, g)) == (156, 13)
    points = [(1, 0)] + [(x, 1) for x in range(13)]
    fixed = sum(1 for x, y in points if ((2 * x + y) * y - 2 * y * x) % 13 == 0)
    assert twisted_count(P1_F13, g, n) == fixed == 1


def test_twist_without_equations_is_closed_form(field_builds):
    # an element of order 156 of GL_3(F_13): enumeration would have built
    # F_{13^156}; the twisted form of P^2 is P^2, so no field is built
    assert twisted_count(projective_space(2, 13), [[0, 0, 2], [1, 0, 1], [0, 1, 0]], 1, budget=10) == 183
    assert set(field_builds) == {1}


def _random_element(rng, field, nonzero=False):
    return field.from_int(rng.randrange(1 if nonzero else 0, field.q))


def _inverse(m):
    """The inverse of an invertible matrix of FqElements, or None."""
    field, n = m[0][0].field, len(m)
    rows, pivots = row_echelon([list(row) + [field.element(int(i == j)) for j in range(n)] for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def _mat(a, b):
    zero = a[0][0].field.zero()
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))] for i in range(len(a))]


def _matrix_of_small_order(rng, v):
    """A seeded matrix of order 2, 3 or 4 over the base field: a random
    matrix, or a monomial or unipotent upper triangular one conjugated by a
    random matrix; None when the draw has another order or is singular."""
    field, nv = v.base_field, v.num_vars
    conj = [[_random_element(rng, field) for _ in range(nv)] for _ in range(nv)]
    inv = _inverse(conj)
    if inv is None:
        return None
    kind = rng.randrange(3)
    if kind == 0:
        g = conj
    else:
        m = [[field.element(int(i == j)) if j <= i else _random_element(rng, field) for j in range(nv)] for i in range(nv)]
        if kind == 1:
            m = [[field.zero()] * nv for _ in range(nv)]
            for i, j in enumerate(rng.sample(range(nv), nv)):
                m[i][j] = _random_element(rng, field, nonzero=True)
        g = _mat(_mat(conj, m), inv)
    try:
        order = matrix_order(v, g, limit=4)
    except ValidationError:
        return None
    return g if order > 1 else None


# companion matrices of the cyclotomic polynomials x + 1, x^2 + x + 1 and
# x^2 + 1: of order r = 2, 3, 4 over any field whose characteristic is
# prime to r.  On P^1 the last one squares to -I; [[0, -2], [1, 2]], with
# eigenvalues 1 +- i of ratio i, has projective order 4 in odd characteristic
_BLOCKS = {2: [[[-1]]], 3: [[[0, -1], [1, -1]]], 4: [[[0, -1], [1, 0]], [[0, -2], [1, 2]]]}


def _conjugated_companion(rng, v, block):
    """c diag(B, I) c^-1 for a block B of _BLOCKS, I an identity block, and
    a seeded invertible matrix c: an element whose eigenvalues need not lie
    in the base field."""
    field, nv = v.base_field, v.num_vars
    m = [[field.element(block[i][j] if max(i, j) < len(block) else int(i == j)) for j in range(nv)] for i in range(nv)]
    inv = None
    while inv is None:
        conj = [[_random_element(rng, field) for _ in range(nv)] for _ in range(nv)]
        inv = _inverse(conj)
    return _mat(_mat(conj, m), inv)


def _twist_case(rng, v, f, g):
    """The case (v, g, r, n, fixers), r = twist_degree(v, g), fixers none,
    g^2 or another element; n is 2 or 1, the larger while the oracle
    enumerates at most 2*10^5 rows per chart of f free variables, over
    F_{q^(n r)}; None when neither does."""
    r = twist_degree(v, g)
    ns = [n for n in (2, 1) if v.q ** (n * r * f) <= 2 * 10**5]
    if not ns:
        return None
    h = _matrix_of_small_order(rng, v)
    fixers = rng.choice([(), (_mat(g, g),)] + ([(h,)] if h is not None else []))
    return v, g, r, ns[0], fixers


def _is_power(x, r) -> bool:
    """Whether a nonzero x of F_q is an r-th power: x^((q-1)/gcd(r, q-1)) = 1."""
    q = x.field.q
    return x ** ((q - 1) // math.gcd(r, q - 1)) == x.field.one()


def _twist_cases(p):
    """Seeded twisted counts over F_p and F_{p^2}: P^1 (bare, and cut by a
    binary cubic), plane cubics and an affine conic, each with up to four
    random elements g of order 2..4 (see _twist_case), built ones
    (_conjugated_companion) for a field or a twist degree that no draw
    covered, and per field a scalar g and a g with g^r0 = lam I, lam not an
    r0-th power, where the field has such a lam."""
    rng = random.Random(7000 + p)
    cases, fields = [], []
    for e in (1, 2):
        field = fq_make(p, e)

        def form(monomials):
            # random coefficients, integers or (over F_{p^2}) field elements,
            # plus 1 on the first monomial so that no draw is the zero form
            terms = [(m, _random_element(rng, field) if e == 2 and rng.random() < 0.5 else rng.randrange(p)) for m in monomials]
            return tuple(terms) + ((monomials[0], 1),)

        cubics = [m for m in itertools.product(range(4), repeat=3) if sum(m) == 3]
        shapes = [
            (VarietySpec("projective", 1, p, e, ()), 1),
            (VarietySpec("projective", 1, p, e, (form([(3, 0), (2, 1), (1, 2), (0, 3)]),)), 1),
            (VarietySpec("projective", 2, p, e, (form(cubics),)), 2),
            (VarietySpec("affine", 2, p, e, (form([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]),)), 2),
        ]
        for v, f in shapes:
            kept = 0
            for _ in range(300):
                g = _matrix_of_small_order(rng, v)
                case = None if g is None else _twist_case(rng, v, f, g)
                if case is None:
                    continue
                cases.append(case)
                kept += 1
                if kept == 4:
                    break
        fields.append(shapes)
    # what the draws missed: one built element over a field with no case,
    # and one of each twist degree no draw had, on the first shape it fits
    # where a block of _BLOCKS gives it that degree
    for shapes, r in itertools.product(fields, (2, 3, 4)):
        if shapes[0][0].e in {v.e for v, *_ in cases} and r in {degree for _, _, degree, _, _ in cases}:
            continue
        built = ((v, f, _conjugated_companion(rng, v, b)) for v, f in shapes if v.q ** (r * f) <= 2 * 10**5 for b in _BLOCKS[r])
        fit = next(((v, f, g) for v, f, g in built if twist_degree(v, g) == r), None)
        if fit:
            cases.append(_twist_case(rng, *fit))
    # per field: -I on the binary cubic, a scalar whose twist is X itself,
    # and, on the first shape with equations in r0 variables, the companion
    # matrix of X^r0 - lam with lam not an r0-th power, so that no scalar
    # multiple of g has order r0 (r0 = 2 for odd q, 3 for q = 4; F_2 has none)
    for shapes in fields:
        field = shapes[0][0].base_field
        scalar = field.from_int(field.q - 1)
        cases.append(_twist_case(rng, *shapes[1], [[scalar, field.zero()], [field.zero(), scalar]]))
        for r0 in (2, 3):
            lam = next((x for x in field.enumerate() if not x.is_zero() and not _is_power(x, r0)), None)
            if lam is not None:
                companion = [[lam if (i, j) == (0, r0 - 1) else field.element(int(i == j + 1)) for j in range(r0)] for i in range(r0)]
                cases.append(_twist_case(rng, *next((v, f) for v, f in shapes if v.equations and v.num_vars == r0), companion))
                break
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_descent_matches_enumeration_oracle(p):
    cases = _twist_cases(p)
    seen = {(v.e, degree, bool(fixers)) for v, _, degree, _, fixers in cases}
    assert {e for e, _, _ in seen} == {1, 2} and {fix for _, _, fix in seen} == {False, True}
    assert {degree for _, degree, _ in seen} == {1, 2, 3, 4}
    # some g^r0 = lam I with lam not an r0-th power: no scalar multiple of g
    # has order r0, so the descent needs N(X) = 1/lam
    assert any(
        v.ambient_kind == "projective" and degree > 1 and not _is_power(functools.reduce(_mat, [_normalize_matrix(v, g)] * degree)[0][0], degree)
        for v, g, degree, _, _ in cases
    )
    for v, g, _, n, fixers in cases:
        assert descended_count(v, g, n, fixers) == twisted_count_by_enumeration(v, g, n, fixers), (v, g, n, fixers)


def descended_count(v, g, n, fixers) -> int:
    """The count of a twist case by descent, fixers as extra equations."""
    eqs = _equations(v, None) + [eq for h in fixers for eq in _fixer_equations(v, _normalize_matrix(v, h))]
    return _counts([_twisted(v, _normalize_matrix(v, g), eqs, n, None)], None)[0]


# --- chunks and memory ---


def brute_affine_count(v: VarietySpec, n: int) -> int:
    """Reference count of an affine variety with integer coefficients:
    every point of F_{q^n}^N tried with scalar arithmetic."""
    field = fq_make(v.p, v.e * n)
    return sum(
        all(
            sum((field.element(c) * math.prod((x**e for x, e in zip(xs, exps)), start=field.one()) for exps, c in eq), field.zero()).is_zero()
            for eq in v.equations
        )
        for xs in itertools.product(list(field.enumerate()), repeat=v.num_vars)
    )


def fermat_cubic(p: int, e: int, nv: int) -> VarietySpec:
    """x_1^3 + ... + x_nv^3 + 1 = 0 in A^nv: degree 3 in every variable, so
    its one chart enumerates all q^nv assignments."""
    cubes = tuple((tuple(3 * (i == j) for j in range(nv)), 1) for i in range(nv))
    return VarietySpec("affine", nv, p, e, (cubes + (((0,) * nv, 1),),))


@pytest.mark.parametrize("chunk", [7, 1000])
def test_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    """Passes cut into chunks of 7 or 1000 rows count what brute force and
    the enumeration oracle of the descent count.  The cases have ragged last
    chunks; f = 1 log passes whose last row is the zero element (the
    quadratic charts of the elliptic curves, 25 and 2401 rows); f = 2 and
    f = 3 digit splits (625, 2401 and 729 rows); and a table build whose
    Zech swap runs in chunks of the same size.  enumerate_points keeps its
    order.  The references are taken at the default chunk size."""
    e5, e7 = load_variety("elliptic_f5_variety.json"), load_variety("elliptic_f7_variety.json")
    points = enumerate_points(e5, 2)
    tables = vec_field(fq_make(7, 3))
    twists = [(case, twisted_count_by_enumeration(case[0], case[1], *case[3:])) for case in _twist_cases(2)]
    monkeypatch.setattr(gfvec, "CHUNK", chunk)
    rows = []
    digits_of_range = gfvec.VecField.digits_of_range

    def recorded(vf, start, stop, f=1):
        rows.append(stop - start)
        return digits_of_range(vf, start, stop, f)

    monkeypatch.setattr(gfvec.VecField, "digits_of_range", recorded)
    assert count_points(e5, 2) == frobenius_counts(5, 9, 2)[1]
    assert count_points(e7, 4) == frobenius_counts(7, 5, 4)[3]
    for p, e, nv in ((5, 2, 2), (7, 2, 2), (3, 2, 3)):
        cubic = fermat_cubic(p, e, nv)
        assert count_points(cubic, 1) == brute_affine_count(cubic, 1), (p, e, nv)
    assert enumerate_points(e5, 2) == points
    vec_field.cache_clear()
    rebuilt = vec_field(fq_make(7, 3))
    assert all((getattr(rebuilt, t) == getattr(tables, t)).all() for t in ("_exp", "_log", "_zech"))
    for (v, g, _, n, fixers), expected in twists:
        assert descended_count(v, g, n, fixers) == expected, (v, g, n, fixers)
    assert max(rows) == chunk and any(0 < r < chunk for r in rows)


def test_a_count_allocates_under_a_mebibyte(monkeypatch):
    """A memory work guard, not a clock: with its field's tables built, a
    count's numpy and Python allocations (tracemalloc sees both) peak under
    1 MiB, however long its pass.  y^2 z = x^3 + 3 x z^2 + 2 z^3 over F_{7^6}
    is one quadratic pass of 117 649 rows, x^3 + y^3 + 1 on A^2 over F_{3^7}
    one exhaustive pass of 4.8 million; with chunks of 2^18 rows they
    peaked at 4.9 and 10.2 MB."""
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    curve = plane(7, [((0, 2, 1), 1), ((3, 0, 0), -1), ((1, 0, 2), -3), ((0, 0, 3), -2)])
    for v, n in ((curve, 6), (fermat_cubic(3, 7, 2), 1)):
        expected = count_points(v, n)  # builds the tables
        tracemalloc.start()
        try:
            assert count_points(v, n) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (v, n, peak)


def test_field_element_coefficients():
    # y^2 = w x on A^2 over F_9, w the generator: for each x one root pair
    # per square, so the count is that of y^2 = w x over the field
    f9 = fq_make(3, 2)
    w = f9.element([0, 1])
    v = VarietySpec("affine", 2, 3, 2, ((((0, 2), 1), ((1, 0), -w)),))
    for n in (1, 2):
        big = fq_make(3, 2 * n)
        image = f9.embed(w, big)
        brute = sum(1 for x in big.enumerate() for y in big.enumerate() if (y * y - image * x).is_zero())
        assert count_points(v, n) == brute == big.q
    with pytest.raises(ValidationError):
        VarietySpec("affine", 1, 3, 1, ((((1,), w),),))
    # each shipped variety counts the same with every integer coefficient c
    # written as the base-field element c
    for name in VARIETY_FIXTURES:
        v = load_variety(name)
        base = fq_make(v.p, v.e)
        eqs = tuple(tuple((exps, base.element(c)) for exps, c in eq) for eq in v.equations)
        as_elements = VarietySpec(v.ambient_kind, v.ambient_dim, v.p, v.e, eqs)
        for n in (1, 2, 3):
            assert count_points(as_elements, n) == count_points(v, n), (name, n)


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


def test_weil_check_split_quadric_reads_exact_multiplicities():
    # xy = zw in P^3/F_2 has Z = 1/((1-t)(1-2t)^2(1-4t)): the double root
    # is placed as a simple root of a square-free factor, so its modulus is
    # exact, not 2.000000000000003
    quadric = plane(2, (((1, 1, 0, 0), 1), ((0, 0, 1, 1), -1)), dim=3)
    report = weil_check(quadric, 2, 10)
    assert report.reciprocal_root_moduli == [1.0, 2.0, 2.0, 4.0]
    assert report.rh_holds and report.functional_equation_holds


def test_weil_check_notes_an_odd_dim_times_e():
    # Z(A^1/F_5) = 1/(1 - 5t): E = 1, so q^(dim E/2) is irrational at dim 1
    report = weil_check(affine_space(1, 5), 1, 8)
    assert report.stabilized and report.e_degree == 1
    assert not report.functional_equation_holds and report.sign is None
    assert report.note == "dim*E odd: functional equation constant is irrational"


def test_weil_check_refuses_the_functional_equation_of_an_affine_curve():
    # y^2 = x^3 + x + 1 in A^2/F_5 is E/F_5 less its point at infinity:
    # Z = (1 + 3t + 5t^2)/(1 - 5t), so E = -1 and the monomial has a
    # denominator; read at dim 2, the functional equation fails
    curve = VarietySpec("affine", 2, 5, 1, ((((0, 2), 1), ((3, 0), -1), ((1, 0), -1), ((0, 0), -1)),))
    report = weil_check(curve, 2, 8)
    assert report.stabilized and report.e_degree == -1
    assert report.zeta == RationalFunction(Polynomial([1, 3, 5]), Polynomial([1, -5]))
    assert not report.functional_equation_holds
    assert report.sign is None and report.note is None


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


def test_variety_json_round_trip_with_field_element_coefficients():
    # y^2 = w x over F_9, w the generator: w is written as its coordinates
    w = fq_make(3, 2).element([0, 1])
    v = VarietySpec("affine", 2, 3, 2, ((((0, 2), 1), ((1, 0), -w)),))
    text = dumps(v.to_json())
    assert json.loads(text)["equations"] == [[[[0, 2], 1], [[1, 0], [0, 2]]]]
    assert VarietySpec.from_json(json.loads(text)) == v
    for bad in ([0, 1, 2], [], [0, 1.5], [[0], 1]):
        with pytest.raises(ValidationError):
            VarietySpec.from_json({"ambient": {"affine": 1}, "p": 3, "e": 2, "equations": [[[[1], bad]]]})


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
