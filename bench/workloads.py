"""Seeded job lists for the four workloads.

A job is a JSON-able dict: "op" names what the child runs (see jobs.py),
the remaining keys are the op's inputs, "expect" holds the reference
answer or the data a reference check needs, and "fault" names a known
program fault when the op is expected to fail on every run.  The sizes of
the inputs are fixed per workload; the seed only picks coefficients,
primes inside fixed bands, conjugating matrices and the job order, so the
work per job list hardly depends on the seed.

Reference answers come from reference.py, never from motivic_zeta.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from reference import (
    closed_points_from_counts,
    diagonal_cubic_surface_count,
    exp_of_power_sums,
    frobenius_counts,
    monomial_root_count,
    motive_det,
    motive_reference,
    motive_traces,
    projective_space_count,
    weierstrass_n1,
)

FIXTURES = Path("src") / "motivic_zeta" / "fixtures"


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_in(rng, lo, hi):
    return rng.choice([p for p in range(lo, hi) if is_prime(p)])


def fixture(name):
    return json.loads((FIXTURES / name).read_text())


# --- varieties as JSON ---


def hypersurface(kind, dim, p, terms):
    eq = [[list(exps), c] for exps, c in terms if c % p]
    return {"ambient": {kind: dim}, "p": p, "e": 1, "equations": [eq]}


def weierstrass(p, coeffs):
    """y^2 z + a1 xyz + a3 yz^2 = x^3 + a2 x^2 z + a4 x z^2 + a6 z^3."""
    a1, a3, a2, a4, a6 = coeffs
    return hypersurface(
        "projective",
        2,
        p,
        [
            ((0, 2, 1), 1),
            ((1, 1, 1), a1),
            ((0, 1, 2), a3),
            ((3, 0, 0), -1),
            ((2, 0, 1), -a2),
            ((1, 0, 2), -a4),
            ((0, 0, 3), -a6),
        ],
    )


def short_weierstrass_coeffs(rng, p):
    """Seeded (0, 0, 0, a, b) of a nonsingular y^2 = x^3 + a x + b with a and
    b nonzero, so every curve has the same number of terms and costs the
    same to count.  Nonsingular: 4a^3 + 27b^2 != 0 mod p (a != 0 for p = 3)."""
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if p == 3 or (4 * a ** 3 + 27 * b * b) % p:
            return (0, 0, 0, a, b)


def char2_coeffs(rng, ordinary):
    """Nonsingular Weierstrass curves over F_2: y^2 + xy = x^3 + a2 x^2 + 1
    (ordinary) or y^2 + y = x^3 + a4 x + a6 (supersingular)."""
    if ordinary:
        return (1, 0, rng.randrange(2), 0, 1)
    return (0, 1, 0, rng.randrange(2), rng.randrange(2))


def curve_counts(p, coeffs, ns):
    counts = frobenius_counts(p, weierstrass_n1(p, coeffs), max(ns))
    return [counts[n - 1] for n in ns]


def count_job(jid, variety, ns, want, fault=None):
    return {"id": jid, "op": "count", "variety": variety, "ns": ns, "expect": want, "fault": fault}


def cli_job(jid, argv, payload, expect, fault=None):
    """argv holds {in} and {out}; the child writes payload to {in}."""
    return {"id": jid, "op": "cli", "argv": argv, "input": payload, "expect": expect, "fault": fault}


# --- counts-small-q: every enumerated field has at most 2*10^4 elements ---


def counts_small_q(rng):
    jobs = []
    for p in (127, 131, 251, 257):
        c = short_weierstrass_coeffs(rng, p)
        jobs.append(count_job(f"E/F_{p}", weierstrass(p, c), [1], curve_counts(p, c, [1])))
    for lo in (1000, 2000):
        p = prime_in(rng, lo, lo + 100)
        c = short_weierstrass_coeffs(rng, p)
        jobs.append(count_job(f"E/F_{p}", weierstrass(p, c), [1], curve_counts(p, c, [1])))
    c = short_weierstrass_coeffs(rng, 13)
    jobs.append(count_job("E/F_13 over F_13^3", weierstrass(13, c), [3], curve_counts(13, c, [3])))
    c = short_weierstrass_coeffs(rng, 7)
    jobs.append(
        {
            "id": "closed points E/F_7",
            "op": "closed_points",
            "variety": weierstrass(7, c),
            "d_max": 3,
            "expect": closed_points_from_counts(curve_counts(7, c, [1, 2, 3])),
        }
    )
    for k, ordinary in ((9, True), (8, False)):
        c = char2_coeffs(rng, ordinary)
        jobs.append(count_job(f"E/F_2 over F_2^{k}", weierstrass(2, c), [k], curve_counts(2, c, [k])))
    for p, n_max, ordinary in ((2, 8, rng.random() < 0.5), (3, 7, None)):
        c = char2_coeffs(rng, ordinary) if p == 2 else short_weierstrass_coeffs(rng, 3)
        jobs.append(
            {
                "id": f"weil E/F_{p}",
                "op": "weil",
                "variety": weierstrass(p, c),
                "dim": 1,
                "n_max": n_max,
                "expect": {"p": p, "counts": curve_counts(p, c, list(range(1, n_max + 1)))},
            }
        )
    for p, n in ((prime_in(rng, 1500, 1600), 1), (11, 3)):
        a, b, cc = (rng.randrange(1, p) for _ in range(3))
        conic = hypersurface("projective", 2, p, [((2, 0, 0), a), ((0, 2, 0), b), ((0, 0, 2), cc)])
        jobs.append(count_job(f"conic/F_{p}^{n}", conic, [n], [p ** n + 1]))
    cubic = [rng.randrange(1, 7) for _ in range(4)]
    surface = hypersurface(
        "projective", 3, 7, [(tuple(int(i == j) * 3 for j in range(4)), c) for i, c in enumerate(cubic)]
    )
    jobs.append(count_job("cubic surface/F_7", surface, [1], [diagonal_cubic_surface_count(7, cubic)]))
    for _ in range(2):
        dim, p = rng.randint(2, 5), rng.choice([2, 3, 5, 7, 11, 13])
        ns = [rng.randint(1, 3)]
        space = {"ambient": {"projective": dim}, "p": p, "e": 1, "equations": []}
        jobs.append(count_job(f"P^{dim}/F_{p}", space, ns, [projective_space_count(dim, p ** ns[0])]))
    p = prime_in(rng, 5000, 5100)
    c = rng.randrange(1, p)
    hyperbola = hypersurface("affine", 2, p, [((1, 1), 1), ((0, 0), -c)])
    jobs.append(count_job(f"hyperbola/F_{p}", hyperbola, [1], [p - 1]))
    p, m = 16381, rng.randint(3, 40)
    roots = hypersurface("affine", 1, p, [((m,), 1), ((0,), -1)])
    jobs.append(count_job(f"x^{m}-1/F_{p}", roots, [1], [monomial_root_count(m, -1, p)]))
    for name, p, n_max in (
        ("elliptic_f5_variety.json", 5, 3),
        ("elliptic_f7_variety.json", 7, 3),
    ):
        n1 = {5: 9, 7: 5}[p]
        want = frobenius_counts(p, n1, n_max)
        jobs.append(
            cli_job(
                f"cli count {name}",
                ["variety", "count", "--in", "{in}", "--out", "{out}", "--nmax", str(n_max)],
                fixture(name),
                {"status": "ok", "counts": want},
            )
        )
    jobs.append(
        cli_job(
            "cli count p2_f3_variety.json",
            ["variety", "count", "--in", "{in}", "--out", "{out}", "--nmax", "3"],
            fixture("p2_f3_variety.json"),
            {"status": "ok", "counts": [projective_space_count(2, 3 ** n) for n in (1, 2, 3)]},
        )
    )
    jobs.append(
        cli_job(
            "cli count gm_f2_variety.json",
            ["variety", "count", "--in", "{in}", "--out", "{out}", "--nmax", "4"],
            fixture("gm_f2_variety.json"),
            {"status": "ok", "counts": [2 ** n - 1 for n in (1, 2, 3, 4)]},
        )
    )
    c = char2_coeffs(rng, rng.random() < 0.5)
    jobs.append(
        cli_job(
            "cli weil E/F_2",
            ["variety", "weil", "--in", "{in}", "--out", "{out}", "--dim", "1", "--nmax", "8"],
            weierstrass(2, c),
            {"status": "ok", "weil": {"p": 2, "counts": curve_counts(2, c, list(range(1, 9)))}},
        )
    )
    # Known faults, on fixed inputs.
    readme_format = dict(fixture("elliptic_f5_variety.json"))
    readme_format["ambient"], readme_format["dim"] = "projective", 2
    jobs.append(
        cli_job(
            "cli README variety format",
            ["variety", "count", "--in", "{in}", "--out", "{out}", "--nmax", "1"],
            readme_format,
            {"status": "ok", "counts": [9]},
            fault="README variety format raises TypeError (varieties.py:132)",
        )
    )
    float_coeff = fixture("elliptic_f5_variety.json")
    float_coeff["equations"][0][1][1] = 1.7
    jobs.append(
        cli_job(
            "cli float coefficient",
            ["variety", "count", "--in", "{in}", "--out", "{out}", "--nmax", "1"],
            float_coeff,
            {"status": "validation_error"},
            fault="coefficient 1.7 truncated to 1 with status ok (varieties.py:143)",
        )
    )
    return jobs


# --- counts-large-q: every enumerated field has more than 2*10^4 elements ---

INT16 = "int16 digit overflow (gfvec.py:41,48, varieties.py:337,693)"


def counts_large_q(rng):
    e5, e7 = fixture("elliptic_f5_variety.json"), fixture("elliptic_f7_variety.json")
    jobs = [
        count_job("fixture E/F_5 over F_5^7", e5, [7], frobenius_counts(5, 9, 7)[6:]),
        count_job("fixture E/F_7 over F_7^6", e7, [6], frobenius_counts(7, 5, 6)[5:]),
    ]
    a, b, cc = (rng.choice([1, 2]) for _ in range(3))
    conic = hypersurface("projective", 2, 3, [((2, 0, 0), a), ((0, 2, 0), b), ((0, 0, 2), cc)])
    jobs.append(count_job("conic/F_3 over F_3^10", conic, [10], [3 ** 10 + 1]))
    for p, n, sign in ((3, 10, 1),):
        m = rng.choice([k for k in range(3, 60) if k % p])
        curve = hypersurface("affine", 1, p, [((m,), 1), ((0,), sign)])
        want = [monomial_root_count(m, sign, p ** n)]
        jobs.append(count_job(f"x^{m}{'+' if sign > 0 else '-'}1/F_{p}^{n}", curve, [n], want))
    # Known faults, on fixed inputs: primes above 2^14 overflow the digits.
    for p in (20011, 32749, 40009):
        jobs.append(
            count_job(f"fixture curve over F_{p}", dict(e5, p=p), [1], [weierstrass_n1(p, (0, 0, 0, 1, 1))], fault=INT16)
        )
    cubic = hypersurface("affine", 1, 32749, [((3,), 1), ((1,), 1)])
    jobs.append(count_job("x^3+x/F_32749", cubic, [1], [3], fault=INT16))
    circle = hypersurface("affine", 2, 20011, [((2, 0), 1), ((0, 2), 1), ((0, 0), -1)])
    jobs.append(count_job("x^2+y^2-1/F_20011", circle, [1], [20012], fault=INT16))
    return jobs


# --- twisted-lfun: group actions, twisted counts, L-series, orbifolds ---


def gl2_conjugate(rng, p, diag):
    """P diag P^{-1} over F_p for a seeded invertible P, as integer rows."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        det = (a * d - b * c) % p
        if det:
            break
    inv = pow(det, -1, p)
    pinv = [[d * inv % p, -b * inv % p], [-c * inv % p, a * inv % p]]
    x, y = diag
    m = [[a * x, b * y], [c * x, d * y]]
    return [[sum(m[i][k] * pinv[k][j] for k in range(2)) % p for j in range(2)] for i in range(2)]


def mat_pow(m, k, p):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = [[sum(out[i][t] * m[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]
    return out


def twisted_lfun(rng):
    jobs = []
    p1_5 = {"ambient": {"projective": 1}, "p": 5, "e": 1, "equations": []}
    p1_7 = dict(p1_5, p=7)
    zeta_p1 = lambda q, n: [(q ** (k + 1) - 1) // (q - 1) for k in range(n + 1)]

    # P^1/F_5 with Z/2 generated by a seeded conjugate of diag(-1, 1).
    g = gl2_conjugate(rng, 5, (4, 1))
    group = [mat_pow(g, 0, 5), g]
    for name, values, want in (("trivial", [1, 1], zeta_p1(5, 2)), ("sign", [1, -1], [1, 0, 0])):
        jobs.append(
            {
                "id": f"lfun P^1/F_5 Z/2 {name}",
                "op": "lfun",
                "variety": p1_5,
                "action": group,
                "character": {"m": 1, "values": values},
                "n_max": 2,
                "expect": {"m": 1, "coeffs": want},
            }
        )
    jobs.append(
        {
            "id": "orbifold P^1/F_5 Z/2",
            "op": "orbifold",
            "variety": p1_5,
            "action": group,
            "n_max": 2,
            "expect": [5 ** n + 1 + 2 for n in (1, 2)],
        }
    )
    for n in (1, 2):
        jobs.append(
            {"id": f"twist P^1/F_5 n={n}", "op": "twisted", "variety": p1_5, "g": g, "n": n, "expect": 5 ** n + 1}
        )

    # P^1/F_7 with Z/3 generated by a seeded conjugate of diag(zeta_3, 1).
    g = gl2_conjugate(rng, 7, (rng.choice([2, 4]), 1))
    group = [mat_pow(g, k, 7) for k in range(3)]
    jobs.append(
        {
            "id": "lfun P^1/F_7 Z/3 trivial",
            "op": "lfun",
            "variety": p1_7,
            "action": group,
            "character": {"m": 1, "values": [1, 1, 1]},
            "n_max": 2,
            "expect": {"m": 1, "coeffs": zeta_p1(7, 2)},
        }
    )
    # chi(g^k) = x^k with x a primitive cube root of unity; every twisted
    # count is q^n + 1, so the character sum vanishes and L = 1.
    jobs.append(
        {
            "id": "lfun P^1/F_7 Z/3 cubic",
            "op": "lfun",
            "variety": p1_7,
            "action": group,
            "character": {"m": 3, "values": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "n_max": 2,
            "expect": {"m": 3, "coeffs": [1, 0, 0]},
        }
    )
    jobs.append(
        {
            "id": "orbifold P^1/F_7 Z/3",
            "op": "orbifold",
            "variety": p1_7,
            "action": group,
            "n_max": 1,
            "expect": [7 + 1 + 2 * 2],
        }
    )
    jobs.append(
        {"id": "twist P^1/F_7 n=2", "op": "twisted", "variety": p1_7, "g": group[2], "n": 2, "expect": 7 ** 2 + 1}
    )

    # y -> -y on seeded elliptic curves: the quadratic twist.
    for p in (5, 7, 11):
        c = short_weierstrass_coeffs(rng, p)
        n1 = weierstrass_n1(p, c)
        curve = weierstrass(p, c)
        ident = [[int(i == j) for j in range(3)] for i in range(3)]
        flip = [[1, 0, 0], [0, p - 1, 0], [0, 0, 1]]
        jobs.append(
            {
                "id": f"lfun E/F_{p} sign",
                "op": "lfun",
                "variety": curve,
                "action": [ident, flip],
                "character": {"m": 1, "values": [1, -1]},
                "n_max": 1,
                "expect": {"m": 1, "coeffs": [1, n1 - (p + 1)]},
            }
        )
        jobs.append(
            {
                "id": f"lfun E/F_{p} trivial",
                "op": "lfun",
                "variety": curve,
                "action": [ident, flip],
                "character": {"m": 1, "values": [1, 1]},
                "n_max": 1,
                "expect": {"m": 1, "coeffs": zeta_p1(p, 1)},
            }
        )
        if p < 11:  # twisted_count bypasses the twist cache: over F_11 it would double the work
            jobs.append(
                {"id": f"twist E/F_{p}", "op": "twisted", "variety": curve, "g": flip, "n": 1, "expect": 2 * (p + 1) - n1}
            )
    # Known fault: x -> -x does not preserve x^2 - x - 1 = 0 over F_3.
    jobs.append(
        {
            "id": "non-preserving action",
            "op": "action_rejected",
            "variety": hypersurface("affine", 1, 3, [((2,), 1), ((1,), -1), ((0,), -1)]),
            "action": [[[1]], [[2]]],
            "expect": "ValidationError",
            "fault": "action preservation checked on base-field points only (lfunctions.py:152)",
        }
    )
    for name, want in (("p1_f5_z2_sign.json", [1, 0, 0]), ("p1_f5_z2_trivial.json", zeta_p1(5, 2))):
        jobs.append(
            cli_job(
                f"cli lfun {name}",
                ["lfun", "--in", "{in}", "--out", "{out}", "--nmax", "2"],
                fixture(name),
                {"status": "ok", "series": want},
            )
        )
    jobs.append(
        cli_job(
            "cli orbifold p1_f5_z2_trivial.json",
            ["orbifold", "--in", "{in}", "--out", "{out}", "--nmax", "2"],
            fixture("p1_f5_z2_trivial.json"),
            {"status": "ok", "traces": [8, 28]},
        )
    )
    return jobs


# --- exact-algebra: motives with spectra fixed by construction ---

# Block patterns per motive: (plus blocks, minus blocks); "e" is a 1x1
# integer eigenvalue, "j2"/"j3" a Jordan block, "w" a Weil companion block
# of t^2 - a t + q.  The seed picks the numbers, never the pattern.
PATTERNS = (
    ("e e w", "w e"),
    ("j2 e w w", "w e e"),
    ("w w j2 e e", "w w e e"),
    ("e e e w w w", "w w j2 e e"),
    ("e e e w w w j2 e", "w w w j3 e e"),
)
WEIGHT_Q = (5, 3, 7, 4, 5)
TENSOR_PATTERNS = (("e w", "e"), ("e e", "w"))


def seeded_blocks(rng, pattern, q):
    """Blocks of a pattern: the magnitudes are fixed by the pattern, the seed
    picks the signs (an eigenvalue lam becomes -lam, a Weil block t^2 - a t + q
    becomes t^2 + a t + q)."""
    bound = math.isqrt(4 * q - 1)  # |a| < 2 sqrt(q): two distinct complex roots
    out = []
    for i, kind in enumerate(pattern.split()):
        sign = rng.choice([-1, 1])
        if kind == "e":
            out.append(("eig", sign * (1 + i % 5)))
        elif kind == "w":
            out.append(("weil", sign * (i % (bound + 1)), q))
        else:
            out.append(("jordan", sign * (2 + i % 2), int(kind[1])))
    return out


def block_matrix(blocks):
    n = sum(2 if b[0] == "weil" else b[2] if b[0] == "jordan" else 1 for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        if b[0] == "eig":
            m[at][at] = b[1]
            at += 1
        elif b[0] == "jordan":
            for i in range(b[2]):
                m[at + i][at + i] = b[1]
                if i:
                    m[at + i - 1][at + i] = 1
            at += b[2]
        else:
            _, a, q = b
            m[at][at + 1], m[at + 1][at], m[at + 1][at + 1] = -q, 1, a
            at += 2
    return m


def unimodular_conjugate(m, steps, salt):
    """E M E^{-1} for `steps` elementary matrices E = I + c e_ij drawn from
    a fixed stream: the same conjugator for every seed."""
    rng = random.Random(f"conjugator:{salt}")
    n = len(m)
    m = [row[:] for row in m]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def signed_permutation(rng, m):
    """S M S^{-1} for a seeded signed permutation matrix S."""
    n = len(m)
    perm = rng.sample(range(n), n)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    return [[signs[i] * signs[j] * m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def motive_json(rng, plus, minus, steps, salt):
    """A motive with the given blocks, conjugated by a fixed unimodular
    matrix and then by seeded signed permutations, so the seed changes the
    entries but not their sizes."""
    return {
        "f_plus": signed_permutation(rng, unimodular_conjugate(block_matrix(plus), steps, f"{salt}+")),
        "f_minus": signed_permutation(rng, unimodular_conjugate(block_matrix(minus), steps, f"{salt}-")),
    }


def random_int_matrix(rng, rows, cols, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def exact_algebra(rng):
    jobs = []
    motives = []
    for idx, (pp, mp) in enumerate(PATTERNS):
        q = WEIGHT_Q[idx]
        plus, minus = seeded_blocks(rng, pp, q), seeded_blocks(rng, mp, q)
        dim = len(block_matrix(plus)) + len(block_matrix(minus))
        motive = motive_json(rng, plus, minus, dim, idx)
        motives.append((motive, plus, minus))
        ref = {"plus": plus, "minus": minus}
        tag = f"M{idx} ({len(block_matrix(plus))}|{len(block_matrix(minus))})"
        jobs.append({"id": f"zeta_series {tag}", "op": "zeta_series", "motive": motive, "precision": 2 * dim, "expect": ref})
        jobs.append({"id": f"zeta_rational {tag}", "op": "zeta_rational", "motive": motive, "expect": ref})
        jobs.append(
            {
                "id": f"feq {tag}",
                "op": "feq",
                "motive": motive,
                "expect": {"det": str(motive_det(plus, minus))},
            }
        )
        jobs.append(
            {
                "id": f"traces_to_zeta {tag}",
                "op": "traces_to_zeta",
                "traces": motive_traces(plus, minus, 4 * dim),
                "expect": ref,
            }
        )
        samples = [[3.0 + 0.5 * k, rng.uniform(-2.0, 2.0)] for k in range(3)]
        jobs.append(
            {"id": f"hasse_weil {tag}", "op": "hasse_weil", "motive": motive, "q": q, "samples": samples, "expect": ref}
        )
        jobs.append(
            {
                "id": f"regdet {tag}",
                "op": "regdet",
                "motive": motive,
                "q": q,
                "samples": [[4.0, rng.uniform(-1.0, 1.0)]],
                "expect": True,
            }
        )
    small = []
    for idx, (pp, mp) in enumerate(TENSOR_PATTERNS):
        plus, minus = seeded_blocks(rng, pp, 3), seeded_blocks(rng, mp, 3)
        small.append((motive_json(rng, plus, minus, 3, f"tensor{idx}"), plus, minus))
    (ma, pa, na), (mb, pb, nb) = small
    precision = 2 * (len(block_matrix(pa)) + len(block_matrix(na))) * (len(block_matrix(pb)) + len(block_matrix(nb))) + 2
    ta, tb = motive_traces(pa, na, precision), motive_traces(pb, nb, precision)
    jobs.append(
        {
            "id": "tensor zeta",
            "op": "tensor_zeta",
            "motives": [ma, mb],
            "precision": precision,
            "expect": {"traces": [x * y for x, y in zip(ta, tb)]},
        }
    )
    (m0, p0, n0), (m1, p1, n1) = motives[0], motives[1]
    jobs.append(
        {
            "id": "direct sum zeta",
            "op": "direct_sum_zeta",
            "motives": [m0, m1],
            "expect": {"plus": p0 + p1, "minus": n0 + n1},
        }
    )
    wp = 12
    ta, tb = motive_traces(pa, na, wp), motive_traces(pb, nb, wp)
    jobs.append(
        {
            "id": "witt_mul",
            "op": "witt_mul",
            "series": [
                {"precision": wp, "coeffs": [str(c) for c in exp_of_power_sums(t, wp)]} for t in (ta, tb)
            ],
            "expect": {"traces": [x * y for x, y in zip(ta, tb)]},
        }
    )
    for n in range(3, 8):
        jobs.append({"id": f"beilinson P^{n}", "op": "beilinson", "n": n, "expect": None})
    for vertices in (5, 8):
        arrows = []
        order = list(range(vertices))
        rng.shuffle(order)
        for _ in range(2 * vertices):
            a, b = sorted(rng.sample(range(vertices), 2))
            arrows.append([order[a], order[b]])
        jobs.append({"id": f"quiver {vertices}", "op": "quiver", "vertices": vertices, "arrows": arrows, "expect": None})
    for n, r in ((6, 4), (7, 4), (8, 4)):  # rank 5 sometimes sends smith_normal_form into minutes of coefficient growth
        left, right = random_int_matrix(rng, n, r, -2, 2), random_int_matrix(rng, r, n, -2, 2)
        chi = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
        jobs.append({"id": f"num_k0 singular {n}x{n}", "op": "num_k0", "gram": {"chi": chi}, "expect": None})
    for n, bound in ((5, 9), (6, 3), (7, 2)):
        jobs.append(
            {"id": f"smith {n}x{n}", "op": "smith", "matrix": random_int_matrix(rng, n, n, -bound, bound), "expect": None}
        )
    m, plus, minus = motives[1]
    jobs.append(
        cli_job(
            "cli motive zeta",
            ["motive", "zeta", "--in", "{in}", "--out", "{out}", "--precision", "12"],
            m,
            {"status": "ok", "zeta": {"plus": plus, "minus": minus}},
        )
    )
    jobs.append(
        cli_job(
            "cli numk0 beilinson",
            ["numk0", "beilinson", "--dim", "4", "--out", "{out}"],
            None,
            {"status": "ok", "rank": 5},
        )
    )
    return jobs


GENERATORS = {
    "exact-algebra": exact_algebra,
    "counts-small-q": counts_small_q,
    "counts-large-q": counts_large_q,
    "twisted-lfun": twisted_lfun,
}
WORKLOADS = tuple(GENERATORS)


def make_jobs(workload, seed):
    """The seeded job list, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    for job in jobs:
        job.setdefault("fault", None)
    return jobs
