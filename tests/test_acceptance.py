"""Acceptance gate: one test per shipped guarantee.

Each criterion prints a single "criterion N: PASS" line when it holds;
pytest marks the test failed otherwise.
"""

import math
import random

from motivic_zeta import (
    GroupAction,
    NotStabilized,
    Polynomial,
    RationalFunction,
    TracedMotive,
    WittElement,
    artin_mazur_traces,
    beilinson_gram,
    check_functional_equation,
    convergence_abscissa,
    count_points,
    direct_sum,
    growth_bound_check,
    hasse_weil_eval,
    l_function,
    linear_complexity_profile,
    mu_count,
    mu_nc_composite,
    mu_rig,
    non_factoring_witness,
    num_grothendieck,
    orbifold_zeta,
    rate_exact,
    regularized_det_check,
    tensor,
    traces_to_zeta,
    trivial_character,
    weil_check,
    witt_add,
    witt_mul,
    zeta_from_counts,
    zeta_rational,
    zeta_series,
)
from motivic_zeta import analytic
from motivic_zeta.k0 import kernel_is_saturated, right_kernel
from motivic_zeta.k0 import EulerGram
from motivic_zeta.measures import affine_space as m_affine
from motivic_zeta.measures import point as m_point
from motivic_zeta.measures import projective_space as m_projective
from motivic_zeta.measures import torus as m_torus
from motivic_zeta.series import TruncatedSeries, exp_from_traces
from motivic_zeta.varieties import affine_space as v_affine
from motivic_zeta.varieties import projective_space as v_projective

from conftest import (
    load_motive,
    load_variety,
    log_q_lower_branch,
    matrix_power_traces,
    random_invertible_motive,
    random_motive,
)


def _passed(n: int, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n}: PASS{suffix}")


def test_criterion_01_weil_suite():
    """Rationality, degree, functional equation and RH moduli for the
    projective spaces and the two elliptic curves."""
    cases = []
    for n in (0, 1, 2):
        for p in (2, 3, 5):
            cases.append((v_projective(n, p), n, n + 1))
    cases.append((load_variety("elliptic_f5_variety.json"), 1, 0))
    cases.append((load_variety("elliptic_f7_variety.json"), 1, 0))

    assert count_points(load_variety("elliptic_f5_variety.json"), 1) == 9

    for variety, dim, expected_e in cases:
        report = weil_check(variety, dim, 7)
        assert report.stabilized, (variety, report.note)
        assert report.e_degree == expected_e, (variety, report.e_degree)
        assert report.functional_equation_holds, variety
        assert report.sign in (1, -1)
        assert report.rh_holds, variety
        q = variety.q
        grid = [q ** (i / 2.0) for i in range(2 * dim + 1)]
        for mod in report.reciprocal_root_moduli:
            assert any(abs(mod - g) <= 1e-9 * (1 + g) for g in grid)
    _passed(1, f"{len(cases)} varieties")


def test_criterion_02_two_route_zeta_identity():
    rng = random.Random(2)
    for _ in range(200):
        m = random_motive(rng, 6)
        series = exp_from_traces(matrix_power_traces(m, 16))
        taylor = zeta_rational(m).taylor(16)
        assert list(series.coeffs) == taylor
        assert zeta_series(m, 16).series == series
    _passed(2, "200 motives, precision 16, exact")


def test_criterion_03_functional_equation_property():
    rng = random.Random(3)
    for _ in range(100):
        m = random_invertible_motive(rng, 4)
        report = check_functional_equation(m)
        assert report.holds
        # extract the constant from the two sides independently and
        # compare with the graded determinant
        e = report.trace_of_identity
        sign = (-1) ** abs(e)
        if e >= 0:
            mono = RationalFunction(Polynomial([0] * e + [sign]), Polynomial.one())
        else:
            mono = RationalFunction(Polynomial([sign]), Polynomial([0] * (-e) + [1]))
        extracted = report.lhs / (mono * zeta_rational(m))
        assert extracted == RationalFunction(
            Polynomial([report.det_value]), Polynomial.one()
        )
    _passed(3, "100 invertible motives, exact")


def test_criterion_04_witt_identities():
    rng = random.Random(4)
    for _ in range(100):
        a = random_motive(rng, 3)
        b = random_motive(rng, 3)
        za, zb = zeta_series(a, 16), zeta_series(b, 16)
        assert zeta_series(direct_sum(a, b), 16) == witt_add(za, zb)
        assert zeta_series(tensor(a, b), 16) == witt_mul(za, zb)
    # ring laws at precision 16
    def rand_witt():
        return WittElement(
            TruncatedSeries([1] + [rng.randint(-3, 3) for _ in range(16)])
        )

    for _ in range(20):
        x, y, z = rand_witt(), rand_witt(), rand_witt()
        assert witt_add(x, y) == witt_add(y, x)
        assert witt_mul(x, y) == witt_mul(y, x)
        assert witt_mul(x, witt_add(y, z)) == witt_add(witt_mul(x, y), witt_mul(x, z))
        assert witt_add(x, WittElement.zero(16)) == x
        assert witt_mul(x, WittElement.one_geometric(16)) == x
    _passed(4, "100 motive pairs + ring laws, precision 16, exact")


def test_criterion_05_l_function_and_orbifold():
    v = load_variety("p1_f5_variety.json")
    action = GroupAction(v, [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]])
    ls = l_function(v, action, trivial_character(action), 5)
    assert ls.is_rational()
    assert ls.to_truncated_series() == zeta_from_counts(v, 5).series
    report = orbifold_zeta(v, action, 5)
    assert report.routes_agree
    _passed(5, "P^1/F_5 with Z/2, exact to O(t^6)")


def test_criterion_06_growth_rates():
    p1 = load_motive("p1_motive.json")
    assert abs(rate_exact(p1) - math.log(5)) <= 1e-12
    constant = TracedMotive(_mat([[1]]), _empty())
    alternating = TracedMotive(_mat([[-1]]), _empty())
    assert rate_exact(constant) == 0.0
    assert rate_exact(alternating) == 0.0
    fixtures = [
        p1,
        load_motive("elliptic_f5_motive.json"),
        load_motive("elliptic_f7_motive.json"),
        constant,
        alternating,
    ]
    for m in fixtures:
        assert growth_bound_check(m, 40)
    _passed(6, "rate log 5 within 1e-12; bound holds to n = 40")


def test_criterion_07_hasse_weil_analytics():
    p1 = load_motive("p1_motive.json")
    assert abs(hasse_weil_eval(p1, 5, 2.0) - 125 / 96) <= 1e-12
    step = 2j * math.pi / math.log(5)
    for s in (2.2 + 0.5j, 3.0 - 1.0j):
        a = hasse_weil_eval(p1, 5, s)
        b = hasse_weil_eval(p1, 5, s + step)
        assert abs(a - b) <= 1e-9 * (1 + abs(a))
    assert abs(convergence_abscissa(p1, 5) - 1.0) <= 1e-12
    e5 = load_motive("elliptic_f5_motive.json")
    assert abs(convergence_abscissa(e5, 5) - 1.0) <= 1e-12
    _passed(7, "zeta_P1(2) = 125/96; periodic; abscissa 1")


def test_criterion_08_regularized_determinants(monkeypatch):
    rng = random.Random(8)
    fixtures = [
        (load_motive("p1_motive.json"), 5),
        (load_motive("elliptic_f5_motive.json"), 5),
        (load_motive("elliptic_f7_motive.json"), 7),
        (TracedMotive(_mat([[-5]]), _empty()), 2),  # branch-boundary eigenvalue
    ]
    for m, q in fixtures:
        samples = [
            complex(rng.uniform(3.0, 4.5), rng.uniform(-4.0, 4.0)) for _ in range(20)
        ]
        assert regularized_det_check(m, q, samples)
    # the deliberately wrong branch window fails the sentinel
    boundary_fixture = TracedMotive(_mat([[-5]]), _empty())
    monkeypatch.setattr(analytic, "_principal_log_q", log_q_lower_branch)
    assert not regularized_det_check(boundary_fixture, 2, [3.5 + 0.3j])
    _passed(8, "4 fixtures x 20 samples at 1e-9; sentinel fails as required")


def test_criterion_09_non_rationality_sentinel():
    traces = artin_mazur_traces(5, 2, 24)
    series = exp_from_traces(traces)
    profile = linear_complexity_profile(series.coeffs)
    # complexity keeps climbing past length 16: no rational limit
    assert all(profile[i + 2] > profile[i] for i in range(15, len(profile) - 2))
    assert isinstance(traces_to_zeta(traces), NotStabilized)
    assert isinstance(
        traces_to_zeta(artin_mazur_traces(5, 2, 32)), NotStabilized
    )
    _passed(9, "profile unbounded; reconstruction refuses to stabilize")


def test_criterion_10_numerical_k0():
    for n in range(5):
        report = num_grothendieck(beilinson_gram(n))
        assert report.rank == n + 1
        assert report.kernels_agree
        assert report.left_kernel_basis == [] and report.right_kernel_basis == []
        assert len(report.quotient_basis) == n + 1
    bad = EulerGram.from_rows([[0, 1], [0, 0]])
    assert not num_grothendieck(bad).kernels_agree
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)] = [0] * n  # force singularity
        g = EulerGram.from_rows(rows)
        kernel = right_kernel(g)
        assert kernel_is_saturated(kernel)
        report = num_grothendieck(g)
        assert report.rank == n - len(kernel)
        assert len(report.quotient_basis) == report.rank
    _passed(10, "beilinson ranks; non-smooth detection; 50 saturations")


def test_criterion_11_motivic_measures():
    w = non_factoring_witness(2, 3)
    assert w.nc_values_agree and not w.count_values_agree
    assert w.mu_count_projective == 13 and w.mu_count_points == 3
    shipped = [
        m_point(),
        m_affine(1),
        m_affine(3),
        m_projective(0),
        m_projective(2),
        m_projective(4),
        m_torus(),
        m_projective(1) * m_projective(1),
        m_point().scale(5),
    ]
    for cls in shipped:
        assert mu_nc_composite(cls).collapse() == mu_rig(cls)
    for q in (2, 3, 5):
        assert mu_count(m_projective(2), q) == count_points(v_projective(2, q), 1)
        assert mu_count(m_affine(2), q) == count_points(v_affine(2, q), 1)
        assert mu_count(m_point(), q) == 1
    assert mu_count(m_torus(), 2) == count_points(load_variety("gm_f2_variety.json"), 1)
    _passed(11, "witness 13 vs 3; collapse = rigid; counts match brute force")


# small helpers kept at the bottom so the criteria read top-down


def _mat(rows):
    from motivic_zeta import RatMatrix

    return RatMatrix.from_rows(rows)


def _empty():
    from motivic_zeta import RatMatrix

    return RatMatrix.empty()
