"""Reference answers, computed apart from motivic_zeta.

Nothing here imports the library under test.  Every routine works on
plain Python ints and Fractions, and every check returns a list of
problems (empty when the output is right), so a check can be fed a wrong
answer and seen to reject it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# --- polynomials over Q as ascending coefficient lists ---


def poly_trim(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_prod(polys):
    out = [Fraction(1)]
    for p in polys:
        out = poly_mul(out, p)
    return out


def taylor(num, den, precision):
    """Coefficients t^0..t^precision of num/den; den[0] must be nonzero."""
    num = [Fraction(c) for c in num] + [Fraction(0)] * (precision + 1)
    den = [Fraction(c) for c in den]
    inv0 = 1 / den[0]
    out = []
    for k in range(precision + 1):
        acc = Fraction(num[k])
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return out


def exp_of_power_sums(traces, precision):
    """exp(sum_n a_n t^n / n) through Newton's identity k c_k = sum a_j c_{k-j}."""
    a = [Fraction(0)] + [Fraction(t) for t in traces[:precision]]
    c = [Fraction(1)]
    for k in range(1, precision + 1):
        c.append(sum(a[j] * c[k - j] for j in range(1, k + 1)) / k)
    return c


def horner(coeffs, x):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


# --- Weil numbers of the building blocks of a motive ---
#
# A block is ("eig", lam) for a 1x1 integer eigenvalue, ("jordan", lam, k)
# for a k x k Jordan block, or ("weil", a, q) for the companion matrix of
# t^2 - a t + q.


def block_charpoly(block):
    """det(t I - B), ascending."""
    kind = block[0]
    if kind == "eig":
        return [Fraction(-block[1]), Fraction(1)]
    if kind == "jordan":
        return poly_prod([[-block[1], 1]] * block[2])
    _, a, q = block
    return [Fraction(q), Fraction(-a), Fraction(1)]


def block_traces(block, n_max):
    """tr(B^n) for n = 1..n_max."""
    kind = block[0]
    if kind == "eig":
        return [block[1] ** n for n in range(1, n_max + 1)]
    if kind == "jordan":
        return [block[2] * block[1] ** n for n in range(1, n_max + 1)]
    _, a, q = block
    return power_sums_quadratic(a, q, n_max)


def block_det(block):
    kind = block[0]
    if kind == "eig":
        return Fraction(block[1])
    if kind == "jordan":
        return Fraction(block[1]) ** block[2]
    return Fraction(block[2])


def power_sums_quadratic(a, q, n_max):
    """s_n = alpha^n + beta^n for the roots of t^2 - a t + q."""
    s = [2, a]
    for _ in range(2, n_max + 1):
        s.append(a * s[-1] - q * s[-2])
    return s[1 : n_max + 1]


def reversed_poly(p):
    """det(1 - t B) from det(t I - B)."""
    return list(reversed(p))


def motive_reference(plus_blocks, minus_blocks):
    """(numerator, denominator) of the zeta function, unreduced."""
    num = reversed_poly(poly_prod(block_charpoly(b) for b in minus_blocks))
    den = reversed_poly(poly_prod(block_charpoly(b) for b in plus_blocks))
    return num, den


def motive_traces(plus_blocks, minus_blocks, n_max):
    out = [0] * n_max
    for sign, blocks in ((1, plus_blocks), (-1, minus_blocks)):
        for b in blocks:
            for i, t in enumerate(block_traces(b, n_max)):
                out[i] += sign * t
    return out


def motive_det(plus_blocks, minus_blocks):
    dp = math.prod(block_det(b) for b in plus_blocks)
    dm = math.prod(block_det(b) for b in minus_blocks)
    return Fraction(dp) / Fraction(dm)


# --- point counts ---


def legendre(a, p):
    """Quadratic character on F_p, p odd, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def weierstrass_n1(p, coeffs):
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, projective.

    Odd p with a1 = a3 = 0 uses the Legendre-symbol sum; otherwise the
    affine points are enumerated (small p only)."""
    a1, a3, a2, a4, a6 = coeffs
    if p != 2 and a1 % p == 0 and a3 % p == 0:
        return p + 1 + sum(legendre(x * x * x + a2 * x * x + a4 * x + a6, p) for x in range(p))
    if p > 50:
        raise ValueError("enumeration reference is for small p only")
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p == 0
    )
    return affine + 1


def frobenius_counts(p, n1, n_max):
    """N_n = p^n + 1 - (alpha^n + beta^n) with alpha + beta = p + 1 - N_1."""
    a = p + 1 - n1
    return [p ** n + 1 - s for n, s in zip(range(1, n_max + 1), power_sums_quadratic(a, p, n_max))]


def projective_space_count(dim, q):
    return sum(q ** i for i in range(dim + 1))


def monomial_root_count(m, sign, q):
    """Roots in F_q of x^m - 1 (sign = -1) or x^m + 1 (sign = +1), p not dividing m."""
    g = math.gcd(m, q - 1)
    if sign < 0 or q % 2 == 0:
        return g
    return g if ((q - 1) // g) % 2 == 0 else 0


def diagonal_cubic_surface_count(p, coeffs):
    """#{[x:y:z:w] in P^3(F_p) : a x^3 + b y^3 + c z^3 + d w^3 = 0} by brute force."""
    cubes = [pow(x, 3, p) for x in range(p)]
    a, b, c, d = coeffs
    zeros = 0
    for x in range(p):
        for y in range(p):
            for z in range(p):
                s = (a * cubes[x] + b * cubes[y] + c * cubes[z]) % p
                for w in range(p):
                    if (s + d * cubes[w]) % p == 0:
                        zeros += 1
    return (zeros - 1) // (p - 1)


def mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def closed_points_from_counts(counts):
    out = []
    for d in range(1, len(counts) + 1):
        acc = sum(mobius(d // e) * counts[e - 1] for e in range(1, d + 1) if d % e == 0)
        out.append(acc // d)
    return out


# --- integer linear algebra ---


def bareiss_det(m):
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m):
    """Rank over Q by fraction-free elimination."""
    a = [list(map(int, row)) for row in m]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            if a[i][c]:
                f, g = a[i][c], a[r][c]
                a[i] = [x * g - y * f for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# --- checks: each returns a list of problems ---


def _same_rational_function(num, den, ref_num, ref_den):
    return poly_mul(poly_trim(num), poly_trim(ref_den)) == poly_mul(
        poly_trim(ref_num), poly_trim(den)
    )


def check_equal(label, got, want):
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


def check_rational_function(label, got, ref_num, ref_den):
    """got = (num, den); equal to ref_num/ref_den as elements of Q(t)."""
    if got is None:
        return [f"{label}: no rational function"]
    num, den = got
    if not poly_trim(den):
        return [f"{label}: zero denominator"]
    if not _same_rational_function(num, den, ref_num, ref_den):
        return [f"{label}: {num}/{den} differs from {ref_num}/{ref_den}"]
    return []


def check_series_prefix(label, got, want):
    got = [Fraction(c) for c in got]
    want = [Fraction(c) for c in want]
    if len(got) != len(want) or got != want:
        return [f"{label}: series {got[:6]}... differs from {want[:6]}..."]
    return []


def check_rational_against_series(label, got, series):
    """A rational function agrees with a reference Taylor series to the
    precision given; the caller makes that precision exceed the degree
    bound, so agreement means equality."""
    num, den = got
    if not poly_trim(den) or Fraction(den[0]) == 0:
        return [f"{label}: denominator vanishes at t = 0"]
    return check_series_prefix(label, taylor(num, den, len(series) - 1), series)


def check_complex_close(label, got, want, rel=1e-9):
    if abs(got - want) > rel * (1 + abs(want)):
        return [f"{label}: {got} differs from {want}"]
    return []


def check_hasse_weil(label, got, ref_num, ref_den, q, s):
    t0 = cmath.exp(-complex(s) * math.log(q))
    return check_complex_close(label, got, horner(ref_num, t0) / horner(ref_den, t0))


def check_smith(label, m, d, u, v):
    problems = []
    rows, cols = len(m), len(m[0]) if m else 0
    if matmul(matmul(u, m), v) != d:
        problems.append(f"{label}: U*M*V != D")
    for i in range(rows):
        for j in range(cols):
            if i != j and d[i][j] != 0:
                problems.append(f"{label}: D[{i}][{j}] = {d[i][j]} off the diagonal")
                return problems
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(x < 0 for x in diag):
        problems.append(f"{label}: negative invariant factor in {diag}")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            problems.append(f"{label}: divisibility chain broken in {diag}")
            break
    for name, t in (("U", u), ("V", v)):
        if abs(bareiss_det(t)) != 1:
            problems.append(f"{label}: |det {name}| != 1")
    return problems


def check_num_k0(label, chi, report):
    """report: dict with rank, left/right kernel bases and the quotient basis."""
    n = len(chi)
    r = rank(chi)
    problems = check_equal(f"{label} rank", report["rank"], r)
    right = report["right_kernel_basis"]
    left = report["left_kernel_basis"]
    for v in right:
        if any(sum(chi[i][j] * v[j] for j in range(n)) != 0 for i in range(n)):
            problems.append(f"{label}: right kernel vector {v} is not killed by G")
    for v in left:
        if any(sum(v[i] * chi[i][j] for i in range(n)) != 0 for j in range(n)):
            problems.append(f"{label}: left kernel vector {v} is not killed by G^T")
    for name, basis in (("right", right), ("left", left)):
        if len(basis) != n - r or (basis and rank(basis) != len(basis)):
            problems.append(f"{label}: {name} kernel basis has wrong size or is dependent")
    if len(report["quotient_basis"]) != r:
        problems.append(f"{label}: quotient basis size {len(report['quotient_basis'])} != rank {r}")
    return problems


def check_weil(label, report, p, counts):
    """report: stabilized flag, zeta (num, den), counts, the two Weil flags
    and the reciprocal-root moduli of a genus-one curve over F_p."""
    problems = check_equal(f"{label} counts", report["counts"], counts)
    if not report["stabilized"]:
        return problems + [f"{label}: reconstruction did not stabilize"]
    a = p + 1 - counts[0]
    problems += check_rational_function(
        f"{label} zeta", report["zeta"], [1, -a, p], [1, -(1 + p), p]
    )
    if not report["functional_equation_holds"]:
        problems.append(f"{label}: functional equation reported false")
    if not report["rh_holds"]:
        problems.append(f"{label}: Riemann hypothesis reported false")
    want = [1.0, math.sqrt(p), math.sqrt(p), float(p)]
    got = sorted(report["moduli"])
    if len(got) != 4 or any(abs(x - y) > 1e-9 * y for x, y in zip(got, want)):
        problems.append(f"{label}: reciprocal-root moduli {got} != {want}")
    return problems
