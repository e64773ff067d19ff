"""Tests of the reference checkers: each accepts a right answer, computed
another way where one exists, and rejects a wrong one.

    python3 bench/test_reference.py     (or: python3 -m pytest bench/test_reference.py)
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def brute_count_fp2(p, a, b):
    """#E(F_{p^2}) for y^2 = x^3 + a x + b, with F_{p^2} = F_p[i]/(i^2 - r)."""
    r = next(x for x in range(2, p) if ref.legendre(x, p) == -1)

    def mul(u, v):
        return ((u[0] * v[0] + r * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    elements = [(x, y) for x in range(p) for y in range(p)]
    squares = {}
    for y in elements:
        s = mul(y, y)
        squares[s] = squares.get(s, 0) + 1
    total = 1
    for x in elements:
        x3 = mul(mul(x, x), x)
        rhs = ((x3[0] + a * x[0] + b) % p, (x3[1] + a * x[1]) % p)
        total += squares.get(rhs, 0)
    return total


def test_elliptic_counts():
    for p, a, b in ((5, 1, 1), (7, 1, 1), (11, 1, 3), (13, 5, 7)):
        n1 = ref.weierstrass_n1(p, (0, 0, 0, a, b))
        brute = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x ** 3 - a * x - b) % p == 0)
        assert n1 == brute
        assert ref.frobenius_counts(p, n1, 2)[1] == brute_count_fp2(p, a, b)
    assert ref.weierstrass_n1(5, (0, 0, 0, 1, 1)) == 9  # the F_5 fixture has 9 points
    assert ref.check_equal("count", [10], [9])
    assert not ref.check_equal("count", [9], [9])


def test_closed_forms():
    assert ref.projective_space_count(2, 3) == 13
    assert ref.closed_points_from_counts([6, 26]) == [6, 10]  # P^1/F_5: q + 1, (q^2 - q)/2
    for p in (7, 13, 17, 19):
        for m in range(2, 9):
            for sign in (-1, 1):
                brute = sum(1 for x in range(1, p) if (pow(x, m, p) + sign) % p == 0)
                assert ref.monomial_root_count(m, sign, p) == brute, (p, m, sign)


def test_cubic_surface_brute_force():
    # x^3 + y^3 + z^3 + w^3 over F_2: every point counted by hand
    points = {(x, y, z, w) for x in range(2) for y in range(2) for z in range(2) for w in range(2)}
    zeros = sum(1 for pt in points if any(pt) and sum(pt) % 2 == 0)
    assert ref.diagonal_cubic_surface_count(2, (1, 1, 1, 1)) == zeros


def test_weil_check_rejects_wrong_reports():
    p, n1 = 5, 9
    counts = ref.frobenius_counts(p, n1, 4)
    a = p + 1 - n1
    good = {
        "stabilized": True,
        "zeta": ([1, -a, p], [1, -6, 5]),
        "counts": counts,
        "functional_equation_holds": True,
        "rh_holds": True,
        "moduli": [1.0, 5 ** 0.5, 5 ** 0.5, 5.0],
    }
    assert not ref.check_weil("E", good, p, counts)
    for key, bad in (
        ("counts", counts[:-1] + [counts[-1] + 1]),
        ("zeta", ([1, -a + 1, p], [1, -6, 5])),
        ("rh_holds", False),
        ("functional_equation_holds", False),
        ("moduli", [1.0, 2.0, 2.0, 5.0]),
        ("stabilized", False),
    ):
        assert ref.check_weil("E", dict(good, **{key: bad}), p, counts), key


def test_motive_reference_matches_matrices():
    rng = random.Random(7)
    for idx, (pp, mp) in enumerate(workloads.PATTERNS[:4]):
        q = workloads.WEIGHT_Q[idx]
        plus, minus = workloads.seeded_blocks(rng, pp, q), workloads.seeded_blocks(rng, mp, q)
        motive = workloads.motive_json(rng, plus, minus, 6, idx)
        num, den = ref.motive_reference(plus, minus)
        for t in (2, -3):
            for blocks_poly, mat in ((den, motive["f_plus"]), (num, motive["f_minus"])):
                n = len(mat)
                shifted = [[int(i == j) - t * mat[i][j] for j in range(n)] for i in range(n)]
                assert ref.bareiss_det(shifted) == sum(c * t ** k for k, c in enumerate(blocks_poly))
        traces = ref.motive_traces(plus, minus, 3)
        for n in (1, 2, 3):
            tr = 0
            for sign, mat in ((1, motive["f_plus"]), (-1, motive["f_minus"])):
                power = mat
                for _ in range(n - 1):
                    power = ref.matmul(power, mat)
                tr += sign * sum(power[i][i] for i in range(len(mat)))
            assert tr == traces[n - 1]
        assert ref.motive_det(plus, minus) == Fraction(
            ref.bareiss_det(motive["f_plus"]), ref.bareiss_det(motive["f_minus"])
        )


def test_series_checks():
    # exp(sum 3^n t^n / n) = 1 / (1 - 3t)
    assert ref.exp_of_power_sums([3 ** n for n in range(1, 6)], 5) == [3 ** k for k in range(6)]
    assert ref.taylor([1], [1, -3], 4) == [1, 3, 9, 27, 81]
    assert not ref.check_rational_function("z", ([2, -2], [2, -8, 6]), [1], [1, -3])
    assert ref.check_rational_function("z", ([1], [1, -2]), [1], [1, -3])
    assert ref.check_series_prefix("s", [1, 3, 9, 28], [1, 3, 9, 27])
    assert not ref.check_rational_against_series("r", ([1], [1, -3]), [1, 3, 9, 27])
    assert ref.check_rational_against_series("r", ([1], [1, -2]), [1, 3, 9, 27])


def test_witt_products_from_power_sums():
    # Witt product of 1/(1-2t) and 1/(1-5t) is 1/(1-10t)
    traces = [2 ** n * 5 ** n for n in range(1, 5)]
    good = [str(10 ** k) for k in range(5)]
    job = {"id": "w", "op": "witt_mul", "expect": {"traces": traces}}
    assert not jobs.verify(job, good)
    assert jobs.verify(job, good[:-1] + ["9999"])


def test_hasse_weil_check():
    num, den = [1], [1, -3]
    value = 1 / (1 - 3 * 5 ** -2.0)
    assert not ref.check_hasse_weil("hw", complex(value), num, den, 5, 2.0)
    assert ref.check_hasse_weil("hw", complex(value * (1 + 1e-6)), num, den, 5, 2.0)


def test_smith_check():
    m, v = [[2, 4], [6, 8]], [[1, -2], [0, 1]]
    u = [[1, 0], [-3, 1]]
    assert ref.matmul(ref.matmul(u, m), v) == [[2, 0], [0, -4]]
    assert ref.check_smith("snf", m, [[2, 0], [0, -4]], u, v)  # negative invariant factor
    u, d = [[1, 0], [3, -1]], [[2, 0], [0, 4]]
    assert not ref.check_smith("snf", m, d, u, v)
    assert ref.check_smith("snf", [[4, 0], [0, 6]], [[4, 0], [0, 6]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])  # 4 does not divide 6
    assert ref.check_smith("snf", m, d, [[2, 0], [6, -2]], v)  # U not unimodular
    assert ref.check_smith("snf", m, [[4, 0], [0, 2]], u, v)  # U M V != D
    assert ref.bareiss_det([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18


def test_num_k0_check():
    chi = [[1, 2], [2, 4]]
    good = {"rank": 1, "right_kernel_basis": [[2, -1]], "left_kernel_basis": [[2, -1]], "quotient_basis": [[1, 0]]}
    assert not ref.check_num_k0("k0", chi, good)
    assert ref.check_num_k0("k0", chi, dict(good, rank=2))
    assert ref.check_num_k0("k0", chi, dict(good, right_kernel_basis=[[1, 1]]))
    assert ref.check_num_k0("k0", chi, dict(good, left_kernel_basis=[]))
    assert ref.rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2


def test_lfun_and_orbifold_checks():
    lfun = {"id": "l", "op": "lfun", "expect": {"m": 1, "coeffs": [1, 6, 31]}}
    assert not jobs.verify(lfun, [["1"], ["6"], ["31"]])
    assert jobs.verify(lfun, [["1"], ["6"], ["30"]])
    cubic = {"id": "c", "op": "lfun", "expect": {"m": 3, "coeffs": [1, 0]}}
    assert not jobs.verify(cubic, [["1", "0", "0"], ["8/3", "8/3", "8/3"]])  # 1 + x + x^2 = 0 at x = zeta_3
    assert jobs.verify(cubic, [["1", "0", "0"], ["8/3", "8/3", "0"]])
    orb = {"id": "o", "op": "orbifold", "expect": [8, 28]}
    good = {"traces": ["8", "28"], "direct": ["1", "8", "46"], "routes_agree": True}
    assert not jobs.verify(orb, good)
    assert jobs.verify(orb, dict(good, traces=["8", "27"]))
    assert jobs.verify(orb, dict(good, routes_agree=False))
    # the quadratic twist of E/F_5 (N_1 = 9) has 2 (5 + 1) - 9 = 3 points
    a = 5 + 1 - 9
    assert 2 * 6 - 9 == 5 + 1 + a


def main():
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
