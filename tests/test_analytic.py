"""Growth rates, Hasse-Weil evaluation, poles, theta data and
regularized determinants."""

import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest

from motivic_zeta import (
    Inapplicable,
    analytic,
    RatMatrix,
    TracedMotive,
    convergence_abscissa,
    growth_bound_check,
    hasse_weil_eval,
    poles_and_zeros,
    rate_estimate,
    rate_exact,
    regularized_det_check,
    spectral_radius,
    spectrum,
    theta_construction,
    trace_sequence,
)
from motivic_zeta.analytic import _nilpotent_log
from motivic_zeta.errors import NotInvertibleError, PoleError, PreconditionError

from conftest import log_q_lower_branch, nilpotent_log_by_series


def motive(plus_rows, minus_rows=None) -> TracedMotive:
    fp = RatMatrix.from_rows(plus_rows) if plus_rows else RatMatrix.empty()
    fm = RatMatrix.from_rows(minus_rows) if minus_rows else RatMatrix.empty()
    return TracedMotive(fp, fm)


def test_spectrum_p1(p1_motive):
    spec = spectrum(p1_motive)
    vals = sorted(abs(z) for z in spec.eigenvalues_plus)
    assert abs(vals[0] - 1) < 1e-9 and abs(vals[1] - 5) < 1e-9
    assert spec.eigenvalues_minus == []


def test_spectral_radius_elliptic(elliptic_f5_motive):
    rp, rm, rho = spectral_radius(elliptic_f5_motive)
    assert abs(rp - 5) < 1e-9
    assert abs(rm - math.sqrt(5)) < 1e-9
    assert rho == rp


def test_rate_exact_p1(p1_motive):
    assert abs(rate_exact(p1_motive) - math.log(5)) < 1e-12


def test_rate_exact_constant_and_alternating():
    assert rate_exact(motive([[1]])) == 0.0
    assert rate_exact(motive([[-1]])) == 0.0


def test_rate_exact_inapplicable_on_cancellation():
    # same top eigenvalue in both parts: leading terms cancel
    m = motive([[3]], [[3]])
    assert isinstance(rate_exact(m), Inapplicable)
    assert isinstance(rate_exact(motive(None)), Inapplicable)


def test_rate_estimate_tracks_exact(p1_motive):
    traces = [float(t) for t in trace_sequence(p1_motive, 30)]
    assert abs(rate_estimate(traces) - math.log(5)) < 1e-3


def test_growth_bound(p1_motive, elliptic_f5_motive):
    assert growth_bound_check(p1_motive, 40)
    assert growth_bound_check(elliptic_f5_motive, 40)
    assert growth_bound_check(motive([[1, 1], [0, 1]]), 40)  # unipotent


def test_hasse_weil_eval_p1(p1_motive):
    # Z(t) = 1/((1-t)(1-5t)) at t = 5^-2
    val = hasse_weil_eval(p1_motive, 5, 2.0)
    assert abs(val - 125 / 96) < 1e-12


def test_hasse_weil_periodicity(p1_motive):
    s = 2.25 + 0.4j
    step = 2j * math.pi / math.log(5)
    a = hasse_weil_eval(p1_motive, 5, s)
    b = hasse_weil_eval(p1_motive, 5, s + step)
    assert abs(a - b) <= 1e-9 * (1 + abs(a))


def test_hasse_weil_pole_detection(p1_motive):
    with pytest.raises(PoleError) as err:
        hasse_weil_eval(p1_motive, 5, 1.0)
    assert abs(err.value.nearest_pole - 1.0) < 1e-9
    with pytest.raises(PoleError):
        hasse_weil_eval(p1_motive, 5, 0.0)


def test_convergence_abscissa(p1_motive, elliptic_f5_motive):
    assert abs(convergence_abscissa(p1_motive, 5) - 1.0) < 1e-12
    assert abs(convergence_abscissa(elliptic_f5_motive, 5) - 1.0) < 1e-12
    assert convergence_abscissa(motive(None), 5) == float("-inf")


def test_poles_and_zeros_p1(p1_motive):
    report = poles_and_zeros(p1_motive, 5, samples=[2.5])
    assert abs(report.lattice_step - 2 * math.pi / math.log(5)) < 1e-12
    pole_s = sorted(e["s"].real for e in report.poles)
    assert abs(pole_s[0] - 0.0) < 1e-9 and abs(pole_s[1] - 1.0) < 1e-9
    assert report.zeros == []
    assert abs(report.values[0]["value"] - hasse_weil_eval(p1_motive, 5, 2.5)) < 1e-12


def test_poles_and_zeros_cancellation():
    m = motive([[2, 0], [0, 3]], [[2]])
    report = poles_and_zeros(m, 2)
    assert len(report.cancellations) == 1
    assert abs(report.cancellations[0]["eigenvalue"] - 2) < 1e-9


def test_theta_construction_p1(p1_motive):
    theta = theta_construction(p1_motive, 5)
    assert theta.branch_window_ok and theta.log_residual_ok
    zs = sorted(e.z.real for e in theta.entries_plus)
    assert abs(zs[0] - 0.0) < 1e-9 and abs(zs[1] - 1.0) < 1e-9
    assert theta.unipotent_blocks == []


def test_theta_negative_eigenvalue_on_boundary(monkeypatch):
    m = motive([[-5]])
    theta = theta_construction(m, 2)
    assert theta.branch_window_ok
    z = theta.entries_plus[0].z
    assert abs(z.imag - math.pi / math.log(2)) < 1e-12  # boundary is included
    monkeypatch.setattr(analytic, "_principal_log_q", log_q_lower_branch)
    wrong = theta_construction(m, 2)
    assert not wrong.branch_window_ok


def test_theta_jordan_blocks():
    m = motive([[2, 1], [0, 2]])
    theta = theta_construction(m, 2)
    entry = theta.entries_plus[0]
    assert entry.multiplicity == 2
    assert entry.block_sizes == (2,)
    assert len(theta.unipotent_blocks) == 1
    assert theta.unipotent_blocks[0]["size"] == 2


def test_nilpotent_log_closed_form_matches_series():
    # the closed form 1/(j |lam|^j) on superdiagonal j against the numpy
    # matrix series; the two round differently, so a printed 12th digit can
    # differ at a rounding tie, and the entries are compared to 1e-13
    rng = random.Random(16)
    for _ in range(3000):
        size = rng.randint(2, 7)
        r = rng.uniform(0.05, 40)
        lam = rng.choice([complex(-r), cmath.rect(r, rng.uniform(-math.pi, math.pi))])
        closed, series = _nilpotent_log(size, lam), nilpotent_log_by_series(size, lam)
        assert all(
            math.isclose(a, b, rel_tol=1e-13) for row_a, row_b in zip(closed, series) for a, b in zip(row_a, row_b)
        ), (size, lam)
        assert [[a == 0 for a in row] for row in closed] == [[b == 0 for b in row] for row in series]


def test_theta_requires_invertible_blocks():
    with pytest.raises(NotInvertibleError):
        theta_construction(motive([[0]]), 5)


def test_regularized_det_matches_zeta(p1_motive, elliptic_f5_motive):
    samples = [2.5, 3.0 + 1.0j, 2.0 - 2.0j]
    assert regularized_det_check(p1_motive, 5, samples)
    assert regularized_det_check(elliptic_f5_motive, 5, samples)


def test_regularized_det_branch_sentinel(monkeypatch):
    m = motive([[-5]])
    samples = [3.5 + 0.3j, 4.0 - 1.1j]
    assert regularized_det_check(m, 2, samples)
    monkeypatch.setattr(analytic, "_principal_log_q", log_q_lower_branch)
    assert not regularized_det_check(m, 2, samples)


def test_certified_roots_are_found_once_per_polynomial(monkeypatch, elliptic_f5_motive):
    # ten samples of the check: the spectrum of each block and the zeta
    # denominator of every Hasse-Weil sample share one np.roots each
    calls = []
    roots = np.roots

    def counting_roots(coeffs):
        calls.append(tuple(coeffs))
        return roots(coeffs)

    monkeypatch.setattr(analytic.np, "roots", counting_roots)
    analytic._poly_roots_certified.cache_clear()
    samples = [complex(3.0 + 0.1 * k, k - 5.0) for k in range(10)]
    assert regularized_det_check(elliptic_f5_motive, 5, samples)
    cp, cm = elliptic_f5_motive.char_polys
    distinct = {p for p in (cp, cm, elliptic_f5_motive.zeta.den) if p.degree >= 1}
    assert len(calls) == len(set(calls)) == len(distinct) == 3


def test_q_validation(p1_motive):
    with pytest.raises(PreconditionError):
        hasse_weil_eval(p1_motive, 1, 2.0)
    with pytest.raises(PreconditionError):
        theta_construction(p1_motive, 0)


def jordan_block(a: int, k: int) -> RatMatrix:
    return RatMatrix(k, k, [a if i == j else int(j == i + 1) for i in range(k) for j in range(k)])


def jordan_motive(rng: random.Random, shared: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(eigenvalue, block size) lists of the two parts, drawing eigenvalues
    from `shared` so that they repeat within and across the parts."""
    return tuple([(rng.choice(shared), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))] for _ in range(2))


def test_jordan_motives_have_exact_multiplicities_and_block_sizes():
    # block-diagonal motives of Jordan blocks J_k(a), a repeating: theta
    # reads one entry per eigenvalue with the constructed multiplicity and
    # block sizes, and poles_and_zeros cancels the common multiset
    rng = random.Random(5)
    for _ in range(25):
        shared = rng.sample([a for a in range(-5, 6) if a], 2)
        plus, minus = jordan_motive(rng, shared)
        m = TracedMotive(
            RatMatrix.block_diag(*(jordan_block(a, k) for a, k in plus)),
            RatMatrix.block_diag(*(jordan_block(a, k) for a, k in minus)),
        )
        theta = theta_construction(m, 3)
        for blocks, entries in ((plus, theta.entries_plus), (minus, theta.entries_minus)):
            want = {a: sorted((k for b, k in blocks if b == a), reverse=True) for a, _ in blocks}
            got = {round(e.eigenvalue.real): list(e.block_sizes) for e in entries}
            assert got == want
            assert all(e.eigenvalue.imag == 0 and e.multiplicity == sum(e.block_sizes) for e in entries)
        mult_p, mult_m = Counter(), Counter()
        for counter, blocks in ((mult_p, plus), (mult_m, minus)):
            for a, k in blocks:
                counter[a] += k
        report = poles_and_zeros(m, 3)
        assert {round(e["eigenvalue"].real): e["multiplicity"] for e in report.cancellations} == dict(mult_p & mult_m)
        spec = spectrum(m)
        assert (len(spec.eigenvalues_plus), len(spec.eigenvalues_minus)) == (m.d_plus, m.d_minus)


def test_spectrum_repeats_zero_and_multiple_eigenvalues():
    spec = spectrum(motive([[0, 1, 0], [0, 0, 0], [0, 0, 2]], [[2, 1], [0, 2]]))
    assert spec.eigenvalues_plus == [0j, 0j, 2 + 0j]
    assert spec.eigenvalues_minus == [2 + 0j, 2 + 0j]


def test_rate_exact_survivors_after_exact_cancellation():
    # 5 twice against 5 once: one copy survives
    assert rate_exact(motive([[5, 0], [0, 5]], [[5]])) == math.log(5)
    # 5 cancels, 3 +- 4i on the same circle survive
    plus = RatMatrix.block_diag(RatMatrix.from_rows([[5]]), RatMatrix.from_rows([[3, -4], [4, 3]]))
    assert rate_exact(TracedMotive(plus, RatMatrix.from_rows([[5]]))) == math.log(5)
    # everything on the top circle cancels, 2 survives below it
    assert isinstance(rate_exact(motive([[5, 0], [0, 2]], [[5]])), Inapplicable)
