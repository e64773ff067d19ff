"""Traces, zeta functions and functional equations of graded endomorphisms."""

import random
import sys
import time
from fractions import Fraction

import pytest

from motivic_zeta import (
    Polynomial,
    RatMatrix,
    RationalFunction,
    TracedMotive,
    TruncatedSeries,
    WittElement,
    char_poly,
    check_functional_equation,
    determinant,
    direct_sum,
    dual_inverse,
    ghost_components,
    tensor,
    trace_sequence,
    witt_add,
    witt_mul,
    zeta_degrees,
    zeta_rational,
    zeta_series,
)
from motivic_zeta.analytic import hasse_weil_eval, spectrum
from motivic_zeta.errors import NotInvertibleError, ValidationError
from motivic_zeta.motives import cy_periodicity_check
from motivic_zeta.reconstruct import ReconstructionResult, traces_to_zeta
from motivic_zeta.series import exp_from_traces

from conftest import matrix_power_traces, random_invertible_motive, random_motive


def lefschetz(q) -> TracedMotive:
    """Realization with Z(t) = 1/(1-qt)."""
    return TracedMotive(RatMatrix.from_rows([[q]]), RatMatrix.empty())


def test_supertrace():
    m = TracedMotive(RatMatrix.diagonal([2, 3]), RatMatrix.diagonal([1]))
    assert list(trace_sequence(m, 3)) == [4, 12, 34]
    assert m.euler_characteristic() == 1


def test_projective_line_zeta(p1_motive):
    z = zeta_rational(p1_motive)
    assert z == RationalFunction(Polynomial.one(), Polynomial([1, -6, 5]))
    assert zeta_degrees(p1_motive) == (-2, -2)


def test_elliptic_zeta(elliptic_f5_motive):
    z = zeta_rational(elliptic_f5_motive)
    assert z.num == Polynomial([Fraction(1, 5), Fraction(3, 5), 1])
    assert z.den == Polynomial([Fraction(1, 5), Fraction(-6, 5), 1])
    # monic-denominator normal form of (1+3t+5t^2)/((1-t)(1-5t))
    assert z == RationalFunction(Polynomial([1, 3, 5]), Polynomial([1, -6, 5]))
    assert zeta_degrees(elliptic_f5_motive) == (0, 0)


def test_series_route_matches_rational_route(p1_motive, elliptic_f5_motive):
    for m in (p1_motive, elliptic_f5_motive):
        series = exp_from_traces(matrix_power_traces(m, 10))
        taylor = zeta_rational(m).taylor(10)
        assert list(series.coeffs) == taylor
        assert zeta_series(m, 10).series == series


def test_newton_traces_match_matrix_powers(rng):
    jordan = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cases = [
        TracedMotive.empty(),  # 0x0 blocks: every trace is 0
        TracedMotive(jordan, RatMatrix.empty()),  # nilpotent: det(1 - tF) = 1
        TracedMotive(RatMatrix.diagonal([2]), jordan),
    ] + [random_motive(rng, 4) for _ in range(20)]
    for m in cases:
        n_max = m.d_plus + m.d_minus + 5  # past the degree of both polynomials
        assert list(trace_sequence(m, n_max)) == matrix_power_traces(m, n_max)
    assert list(trace_sequence(TracedMotive.empty(), 3)) == [0, 0, 0]
    assert list(trace_sequence(TracedMotive(jordan, RatMatrix.empty()), 4)) == [0] * 4


def test_char_poly_once_per_block(monkeypatch, elliptic_f5_motive):
    calls = []

    def counting(a):
        calls.append(a)
        return char_poly(a)

    for name, module in list(sys.modules.items()):  # every module that binds it
        if name.startswith("motivic_zeta") and getattr(module, "char_poly", None) is char_poly:
            monkeypatch.setattr(module, "char_poly", counting)
    m = elliptic_f5_motive
    zeta_series(m, 8)
    determinant(m)
    spectrum(m)
    for s in (2, 3j, 1 + 1j):
        hasse_weil_eval(m, 5, s)
    assert len(calls) == 2


def test_degree_cancellation():
    # same eigenvalue on both sides cancels in the reduced zeta
    m = TracedMotive(RatMatrix.diagonal([2, 3]), RatMatrix.diagonal([2]))
    assert zeta_rational(m) == RationalFunction(Polynomial.one(), Polynomial([1, -3]))
    assert zeta_degrees(m) == (-1, -1)
    # a nilpotent block contributes to tr(id) but not to the zeta degree
    m2 = TracedMotive(RatMatrix.diagonal([0]), RatMatrix.empty())
    assert zeta_degrees(m2) == (-1, 0)


def test_determinant_and_dual():
    m = TracedMotive(RatMatrix.diagonal([2, 3]), RatMatrix.diagonal([4]))
    assert determinant(m) == Fraction(6, 4)
    d = dual_inverse(m)
    assert d.f_plus == RatMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(NotInvertibleError):
        dual_inverse(TracedMotive(RatMatrix.diagonal([0]), RatMatrix.empty()))


def test_functional_equation_p1(p1_motive):
    report = check_functional_equation(p1_motive)
    assert report.holds
    assert report.trace_of_identity == 2
    assert report.det_value == 5


def test_functional_equation_random(rng):
    for _ in range(25):
        m = random_invertible_motive(rng, 4)
        assert check_functional_equation(m).holds


def test_direct_sum_is_witt_add(rng):
    for _ in range(10):
        a = random_motive(rng, 3)
        b = random_motive(rng, 3)
        lhs = zeta_series(direct_sum(a, b), 10)
        rhs = witt_add(zeta_series(a, 10), zeta_series(b, 10))
        assert lhs == rhs


def test_tensor_is_witt_mul(rng):
    for _ in range(10):
        a = random_motive(rng, 3)
        b = random_motive(rng, 3)
        lhs = zeta_series(tensor(a, b), 10)
        rhs = witt_mul(zeta_series(a, 10), zeta_series(b, 10))
        assert lhs == rhs


def test_tensor_unit_and_lefschetz():
    unit = TracedMotive.unit()
    l5 = lefschetz(5)
    assert zeta_series(tensor(unit, l5), 8) == zeta_series(l5, 8)
    # L_q tensor L_q has trace q^{2n}
    assert list(trace_sequence(tensor(l5, l5), 3)) == [25, 625, 15625]


def test_tensor_grading_signs():
    # odd (x) odd lands in the even part
    odd = TracedMotive(RatMatrix.empty(), RatMatrix.diagonal([2]))
    t = tensor(odd, odd)
    assert t.d_plus == 1 and t.d_minus == 0
    assert list(trace_sequence(t, 2)) == [4, 16]


def test_cy_periodicity():
    # traces of diag(1) are constant: period 1 in even "dimension"
    assert cy_periodicity_check([1, 1, 1, 1, 1], d=2, r=1)
    # alternating traces flip sign: odd dimension, period 1
    assert cy_periodicity_check([-1, 1, -1, 1, -1], d=3, r=1)
    assert not cy_periodicity_check([1, 2, 3, 4, 5], d=2, r=1)
    with pytest.raises(ValidationError):
        cy_periodicity_check([1, 1], d=2, r=0)


def test_motive_json_round_trip(elliptic_f5_motive):
    m = TracedMotive.from_json(elliptic_f5_motive.to_json())
    assert m.f_plus == elliptic_f5_motive.f_plus
    assert m.f_minus == elliptic_f5_motive.f_minus


def test_non_square_blocks_rejected():
    with pytest.raises(ValidationError):
        TracedMotive(RatMatrix(1, 2, [1, 2]), RatMatrix.empty())


def test_exact_layer_runs_over_the_integers_in_time():
    # a 20|18 motive: 160 traces back to its zeta function, the functional
    # equation through the inverses and 160 zeta coefficients; on a 2-core
    # x86 machine this took 0.9 s over Fraction and takes 0.13 s over ints
    rng = random.Random(7)
    start = time.perf_counter()
    m = TracedMotive(*(RatMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)]) for n in (20, 18)))
    result = traces_to_zeta(list(trace_sequence(m, 160)))
    report = check_functional_equation(m)
    series = zeta_series(m, 160)
    assert time.perf_counter() - start < 0.4
    assert isinstance(result, ReconstructionResult) and result.value == zeta_rational(m)
    assert report.holds and series.series.coeffs == tuple(zeta_rational(m).taylor(160))


def test_traces_and_witt_products_run_over_the_integers_in_time():
    # 160 traces of a 20|18 motive (its characteristic polynomials made
    # beforehand), then one Witt product at precision 40, best of three
    # rounds in CPU time: on a 2-core x86 machine this took 0.029 to
    # 0.057 s with Newton's identities over Fraction and takes 0.0043 to
    # 0.0086 s with the integer series_log and exp_from_traces
    rng = random.Random(7)
    m = TracedMotive(*(RatMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)]) for n in (20, 18)))
    a, b = (
        WittElement(TruncatedSeries([1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(40)]))
        for _ in range(2)
    )
    m.char_polys
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        traces = trace_sequence(m, 160)
        product = witt_mul(a, b)
        best = min(best, time.process_time() - start)
    assert list(traces)[:20] == matrix_power_traces(m, 20)
    assert ghost_components(product, 40) == [x * y for x, y in zip(ghost_components(a, 40), ghost_components(b, 40))]
    assert best < 0.027, best
