"""Growth rates, Hasse-Weil evaluation, poles, theta data and
regularized determinants."""

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

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
from motivic_zeta.errors import NotInvertibleError, NumericError, PoleError, PreconditionError, ValidationError
from motivic_zeta.exact_core import Polynomial, char_poly, squarefree_factors

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
    traces = list(trace_sequence(p1_motive, 30))
    assert abs(rate_estimate(traces) - math.log(5)) < 1e-3


@pytest.mark.parametrize("bad", [1.5, True, "two"])
def test_rate_estimate_refuses_traces_that_are_not_exact_rationals(bad):
    # a float, a bool or a string that is not a number was read as a
    # rational: [1.5, 2.25, 3.375] gave 0.405 and [True, 2] 0.347
    with pytest.raises(ValidationError):
        rate_estimate([bad, 4])


def test_rate_estimate_reads_ints_fractions_and_ratio_strings():
    assert rate_estimate([3, Fraction(27, 1), "81/1"]) == rate_estimate([3, 27, 81]) == math.log(27) / 2
    assert rate_estimate(["1/2", Fraction(1, 4)]) == math.log(Fraction(1, 4)) / 2


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
    # denominator of every Hasse-Weil sample share one root placement each
    calls = []
    roots = analytic._simple_roots

    def counting_roots(a):
        calls.append(tuple(a.coeffs))
        return roots(a)

    monkeypatch.setattr(analytic, "_simple_roots", counting_roots)
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
    for q in (6, 5.0, True):
        with pytest.raises(PreconditionError):
            convergence_abscissa(p1_motive, q)


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


# --- the pure-Python root finder, with numpy's companion-matrix roots and
# exact factorizations as oracles ---


def poly_from_factors(*factors) -> Polynomial:
    out = Polynomial([1])
    for f in factors:
        out = out * Polynomial(f)
    return out


def weil_factors(rng: random.Random, q: int, d: int) -> tuple[list[list[int]], list[complex]]:
    """d // 2 factors t^2 - a t + q with distinct |a| < 2 sqrt(q), spread over
    that range, and t - sqrt(q) when d is odd (q is a square): the factors
    and their roots, all on |z| = sqrt(q)."""
    bound = math.isqrt(4 * q - 1)
    k = d // 2
    a_values = rng.sample(range(-bound, bound + 1, max(1, (2 * bound + 1) // (2 * k + 1))), k)
    factors = [[q, -a, 1] for a in a_values]
    roots = [complex(a / 2, s * math.sqrt(q - a * a / 4)) for a in a_values for s in (1, -1)]
    if d % 2:
        factors.append([-math.isqrt(q), 1])
        roots.append(complex(math.isqrt(q), 0))
    return factors, roots


def cyclotomic(n: int) -> Polynomial:
    out = Polynomial([-1] + [0] * (n - 1) + [1])
    for k in range(1, n):
        if n % k == 0:
            out = out // cyclotomic(k)
    return out


def square_free_cases():
    """(label, square-free p, its roots or None) for degrees 1 to 24."""
    rng = random.Random(23)
    for d in range(1, 25):
        q = (49, 1369, 1024, 361)[d % 4]
        factors, roots = weil_factors(rng, q, d)
        yield f"weil q={q} d={d}", poly_from_factors(*factors), roots
    for _ in range(12):
        ns, degree = [], 0
        for n in rng.sample(range(1, 40), 39):
            phi = cyclotomic(n)
            if degree + phi.degree <= 24:
                ns.append(n)
                degree += phi.degree
        p = Polynomial([1])
        for n in ns:
            p = p * cyclotomic(n)
        yield f"cyclotomic {sorted(ns)}", p, [cmath.exp(2j * math.pi * k / n) for n in ns for k in range(n) if math.gcd(k, n) == 1]
    for d in range(4, 25, 2):
        # a Weil polynomial over F_1000003 with two adjacent traces: roots
        # 5e-4 apart relative to their modulus
        q = 1000003
        bound = math.isqrt(4 * q - 1)
        a_values = rng.sample(range(-bound + 1, bound - 2, 2 * bound // (d // 2)), d // 2 - 1)
        a_values.append(a_values[0] + 1)
        roots = [complex(a / 2, s * math.sqrt(q - a * a / 4)) for a in a_values for s in (1, -1)]
        yield f"close complex pair d={d}", poly_from_factors(*([q, -a, 1] for a in a_values)), roots
    for d in range(3, 9):
        # a real pair 1/256 apart among integer roots
        c = rng.choice([x for x in range(-6, 7) if x])
        others = rng.sample([x for x in range(-9, 10) if x not in (0, c, c + 1)], d - 2)
        real = [Fraction(c), c + Fraction(1, 256), *others]
        yield f"close real pair d={d}", poly_from_factors(*([-r, 1] for r in real)), [complex(r) for r in real]
    for d in range(1, 25):
        while True:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d + 1)]
            p = Polynomial(coeffs)
            if coeffs[0] and coeffs[-1] and len(squarefree_factors(p)) == 1:
                break
        yield f"rational d={d}", p, None


def condition(p: Polynomial, r: complex) -> float:
    """The relative condition number of a simple root r of p under relative
    perturbations of the coefficients: sum |c_k| |r|^k / (|r| |p'(r)|)."""
    c = [float(x) for x in p.coeffs]
    dp = sum(k * x * r ** (k - 1) for k, x in enumerate(c) if k)
    return sum(abs(x) * abs(r) ** k for k, x in enumerate(c)) / (abs(r) * abs(dp))


def assert_matches(p: Polynomial, approx, reference, label: str):
    """Each reference root is matched, nearest first, with its own
    approximation, to 1e-12 relative.  A backward-stable method errs by a
    small multiple of condition * 2^-53, so a root that close neighbours
    make ill-conditioned is allowed 1000 times that."""
    approx = list(approx)
    for r in reference:
        z = min(approx, key=lambda z: abs(z - r))
        approx.remove(z)
        assert abs(z - r) / abs(r) < 1e-12 + 1e3 * 2.0 ** -53 * condition(p, r), (label, r, z)
    assert not approx, label


def test_simple_roots_match_numpy_and_exact_factorizations():
    for label, p, roots in square_free_cases():
        ours = analytic._simple_roots(p)
        assert len(ours) == p.degree, label
        assert_matches(p, ours, np.roots([float(c) for c in reversed(p.coeffs)]), label)
        if roots is not None:
            assert_matches(p, ours, roots, label)


def test_simple_roots_are_real_or_exact_conjugate_pairs():
    for label, p, roots in square_free_cases():
        ours = analytic._simple_roots(p)
        reference = roots if roots is not None else np.roots([float(c) for c in reversed(p.coeffs)])
        real = sum(abs(r.imag) < 1e-9 for r in reference)
        assert sum(z.imag == 0.0 for z in ours) == real, label
        assert Counter(ours) == Counter(z.conjugate() for z in ours), label
    # the modulus of a conjugate is the modulus of the root, bit for bit
    (z, _), (w, _) = analytic._poly_roots_certified(Polynomial([25, -6, 1]))
    assert z == w.conjugate() and abs(z) == abs(w) == 5.0


def test_perturbed_root_fails_the_residual_certificate(monkeypatch):
    p = poly_from_factors([-2, 1], [3, 0, 1], [5, 1, 1])
    roots = analytic._simple_roots(p)
    analytic._poly_roots_certified.cache_clear()
    assert len(analytic._poly_roots_certified(p)) == 5
    analytic._poly_roots_certified.cache_clear()
    monkeypatch.setattr(analytic, "_simple_roots", lambda a: [roots[0] * (1 + 1e-6)] + roots[1:])
    with pytest.raises(NumericError):
        analytic._poly_roots_certified(p)
    analytic._poly_roots_certified.cache_clear()


def test_matrix_rank_matches_numpy_on_powers():
    # (M - lam I)^k for seeded conjugates of block-diagonal M with Jordan
    # blocks and two equal Weil blocks (a repeated irrational eigenvalue)
    rng = random.Random(11)
    for _ in range(20):
        q = rng.choice([3, 5, 7])
        a = rng.randint(-math.isqrt(4 * q - 1), math.isqrt(4 * q - 1))
        weil = RatMatrix.from_rows([[0, -q], [1, a]])
        b, kb, k1 = rng.choice([-2, 2]), rng.randint(1, 3), rng.randint(1, 2)
        blocks = [weil, weil, jordan_block(b, kb), jordan_block(1, k1)]
        rng.shuffle(blocks)
        diag = RatMatrix.block_diag(*blocks)
        n = diag.rows
        rows = [[int(diag[i, j]) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):  # conjugate by E = I + c e_ij: row i += c row j, column j -= c column i
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[j] -= c * row[i]
        mat = RatMatrix.from_rows(rows)
        for lam, mult in analytic._poly_roots_certified(char_poly(mat)):
            shifted = [[complex(float(mat[i, j])) - (lam if i == j else 0) for j in range(n)] for i in range(n)]
            scale = max(1.0, max(abs(x) for row in shifted for x in row))
            power = np.eye(n, dtype=complex)
            for k in range(1, mult + 2):
                power = power @ np.array(shifted)
                tol = 1e-8 * scale ** k
                assert analytic._matrix_rank(power.tolist(), tol) == np.linalg.matrix_rank(power, tol=tol)
            want = (1, 1) if lam.imag else ((kb,) if round(lam.real) == b else (k1,))
            assert analytic._jordan_block_sizes(mat, lam, mult) == want


def test_regularized_det_check_reads_no_jordan_block_sizes(monkeypatch):
    def refuse(*args):
        raise AssertionError("regularized_det_check computed Jordan block sizes")

    monkeypatch.setattr(analytic, "_jordan_block_sizes", refuse)
    m = TracedMotive(
        RatMatrix.block_diag(jordan_block(2, 3), jordan_block(2, 1), jordan_block(-3, 2)),
        RatMatrix.block_diag(jordan_block(-3, 2), jordan_block(5, 1)),
    )
    assert regularized_det_check(m, 3, [2.5 + 0.25j, 4.0 - 1.0j])
    with pytest.raises(AssertionError):
        theta_construction(m, 3)


def test_regularized_det_check_refuses_a_sample_on_a_cancelled_eigenvalue():
    # 4 is an eigenvalue of both parts, so Z(f; 2^-2) is finite, but the
    # per-eigenvalue quotient is 0/0 there
    m = motive([[4, 0], [0, 3]], [[4]])
    assert hasse_weil_eval(m, 2, 2.0) == pytest.approx(1 / (1 - 3 / 4))
    with pytest.raises(PoleError):
        regularized_det_check(m, 2, [2.0])
