"""Shared fixtures and random-input helpers for the test suite."""

import cmath
import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from motivic_zeta import Polynomial, RatMatrix, RationalFunction, TracedMotive, VarietySpec, fq_make
from motivic_zeta.errors import NotInvertibleError, ValidationError
from motivic_zeta.exact_core import _integral
from motivic_zeta.k0 import hermite_rows
from motivic_zeta.lfunctions import _fold
from motivic_zeta.reconstruct import NotStabilized
from motivic_zeta.series import TruncatedSeries
from motivic_zeta.gfvec import vec_field
from motivic_zeta.varieties import _assignments, _equations, _normalize_matrix, _plan, _poly, _vanish

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "motivic_zeta" / "fixtures"
VARIETY_FIXTURES = sorted(path.name for path in FIXTURES.glob("*_variety.json"))


def load_json(name: str):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def load_motive(name: str) -> TracedMotive:
    return TracedMotive.from_json(load_json(name))


def load_variety(name: str) -> VarietySpec:
    return VarietySpec.from_json(load_json(name))


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> RatMatrix:
    return RatMatrix(n, n, [rng.randint(lo, hi) for _ in range(n * n)])


def random_motive(rng: random.Random, max_total_dim: int = 6) -> TracedMotive:
    dp = rng.randint(0, max_total_dim)
    dm = rng.randint(0, max_total_dim - dp)
    return TracedMotive(random_matrix(rng, dp), random_matrix(rng, dm))


def random_invertible_motive(rng: random.Random, max_total_dim: int = 5) -> TracedMotive:
    while True:
        m = random_motive(rng, max_total_dim)
        if m.f_plus.det() != 0 and m.f_minus.det() != 0:
            return m


def matrix_power_traces(m: TracedMotive, n_max: int) -> list[Fraction]:
    """tr(F+^n) - tr(F-^n) for n = 1..n_max by repeated matrix products,
    a route independent of the characteristic polynomials."""
    out = []
    pp, pm = RatMatrix.identity(m.d_plus), RatMatrix.identity(m.d_minus)
    for _ in range(n_max):
        pp, pm = pp * m.f_plus, pm * m.f_minus
        out.append(pp.trace() - pm.trace())
    return out


def matrix_order(v: VarietySpec, g, limit: int = 10_000, up_to_scalars: bool = False) -> int:
    """The least r <= limit with g^r = I (the order of g) or, up_to_scalars,
    with g^r a scalar matrix (its projective order); else ValidationError."""
    m = _normalize_matrix(v, g)
    zero = v.base_field.zero()
    acc = m
    for r in range(1, limit + 1):
        lam = acc[0][0] if up_to_scalars else v.base_field.one()
        if all(acc[i][j] == (lam if i == j else zero) for i in range(len(m)) for j in range(len(m))):
            return r
        acc = [[sum((acc[i][k] * m[k][j] for k in range(len(m))), zero) for j in range(len(m))] for i in range(len(m))]
    raise ValidationError("matrix has no finite order within the search limit")


def twist_degree(v: VarietySpec, g) -> int:
    """The degree r with every twisted fixed point of g in X(F_{q^(n r)}):
    ord g on A^N, the projective order r0 on P^N, since g^r0 = lam I makes
    (g Fr^n)^r0 = lam Fr^(n r0) act on P^N as Fr^(n r0)."""
    return matrix_order(v, g, up_to_scalars=v.ambient_kind == "projective")


def twisted_count_by_enumeration(v: VarietySpec, g, n: int, fixers=()) -> int:
    """#{x : g(Fr^n(x)) = x, h(x) = x for h in fixers} (projective: up to
    scalars) by enumerating X over F_{q^(n r)}, r = twist_degree(v, g), and
    testing the twist row by row, independently of Lang descent; small
    fields only."""
    act = _normalize_matrix(v, g)
    big = fq_make(v.p, v.e * n * twist_degree(v, act))
    vf = vec_field(big)

    def embedded(m):
        return [[None if x.is_zero() else vf.const(v.base_field.embed(x, big)) for x in row] for row in m]

    def apply(m, coords):
        return [
            functools.reduce(vf.add, (vf.mul(c, x) for c, x in zip(row, coords) if c is not None))
            for row in m
        ]

    def same_point(a, b):
        if v.ambient_kind == "affine":
            pairs = list(zip(a, b))
        else:
            pairs = [(vf.mul(a[i], b[j]), vf.mul(a[j], b[i])) for i in range(len(a)) for j in range(i + 1, len(a))]
        return functools.reduce(operator.and_, (x == y for x, y in pairs), True)

    twist = embedded(act)
    fix = [embedded(_normalize_matrix(v, h)) for h in fixers]
    total = 0
    for _, f, eqs, _ in _plan(v.ambient_kind, v.num_vars, v.p, v.e, _equations(v, None)).charts:
        start, eqs = v.num_vars - f, [_poly(eq.items(), big) for eq in eqs]
        consts = [vf.const(c) for c in ([0] * (start - 1) + [1] if start else [])]
        for rows, values in _assignments(vf, f):
            coords, mask = consts + list(values), _vanish(vf, eqs, values, rows)
            for m in fix:
                mask = mask & same_point(apply(m, coords), coords)
            moved = apply(twist, [vf.power(x, v.q**n) for x in coords])
            total += int(np.count_nonzero(mask & same_point(moved, coords)))
    return total


# --- Fraction oracles: the exact layer's kernels as they ran over
# fractions.Fraction before they moved onto the integers.  Each is an
# independent route for a differential test of the integer kernel.


def inverse_by_fractions(m: RatMatrix) -> RatMatrix:
    """Gauss-Jordan elimination over Fraction on [M | I]."""
    n = m.rows
    if n == 0:
        return m
    a = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [e * inv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return RatMatrix(n, n, [a[i][n + j] for i in range(n) for j in range(n)])


def char_poly_by_leverrier(m: RatMatrix) -> Polynomial:
    """det(t*I - M) by the Faddeev-LeVerrier recursion on A = d*M, the
    kernel char_poly ran before Berkowitz: B_k = A*B_(k-1) + c_k*I with
    c_k = -tr(A*B_(k-1))/k exact in Z, and the coefficient of t^(n-k) is
    c_k / d^k."""
    n = m.rows
    flat, d = _integral(m.entries)
    a = [flat[i * n : (i + 1) * n] for i in range(n)]
    coeffs = [Fraction(1)]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*b))
        b = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
        c = -sum(b[i][i] for i in range(n)) // k
        for i in range(n):
            b[i][i] += c
        coeffs.append(Fraction(c, d**k))
    return Polynomial(reversed(coeffs))


def gcd_by_fractions(a: Polynomial, b: Polynomial) -> Polynomial:
    """Euclid's algorithm over Q, made monic at the end."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def reduce_by_fractions(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """num/den in lowest terms with a monic denominator, over Fraction."""
    g = gcd_by_fractions(num, den)
    num, den = num // g, den // g
    lead = den.coeffs[-1]
    return num * (1 / lead), den * (1 / lead)


def taylor_by_fractions(r: RationalFunction, n: int) -> list[Fraction]:
    """c_k = (num_k - sum_j den_j c_(k-j)) / den_0 over Fraction."""
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = r.num[k]
        for j in range(1, k + 1):
            acc -= r.den[j] * out[k - j]
        out.append(acc / r.den[0])
    return out


def exp_from_traces_by_fractions(traces) -> TruncatedSeries:
    """k*b_k = sum_j a_j b_(k-j) over Fraction."""
    a = [Fraction(0)] + [Fraction(t) for t in traces]
    out = [Fraction(1)]
    for k in range(1, len(traces) + 1):
        out.append(sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) / k)
    return TruncatedSeries(out)


def series_log_by_fractions(s: TruncatedSeries) -> TruncatedSeries:
    """k*l_k = k*s_k - sum_j j*l_j*s_(k-j) over Fraction."""
    out = [Fraction(0)]
    for k in range(1, s.precision + 1):
        acc = sum((j * out[j] * s.coeffs[k - j] for j in range(1, k)), Fraction(0))
        out.append(s.coeffs[k] - acc / k)
    return TruncatedSeries(out)


def log_q_lower_branch(lam: complex, q: int) -> complex:
    """log_q on the branch with Im(log lam) in [-pi, pi[: the window a
    wrong theta construction would pick, for the branch sentinels."""
    w = cmath.log(lam)
    if abs(w.imag - math.pi) <= 1e-12:
        w = complex(w.real, -math.pi)
    return w / math.log(q)


def nilpotent_log_by_series(size: int, lam: complex) -> list[list[float]]:
    """Entry moduli of log(I + S/lam), S the size x size shift matrix, by
    summing the nilpotent series (-1)^(j+1) (S/lam)^j / j with numpy
    matrix powers: the route analytic._nilpotent_log took before its
    closed form."""
    s = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        s[i, i + 1] = 1.0 / lam
    acc = np.zeros_like(s)
    power = np.eye(size, dtype=complex)
    for j in range(1, size):
        power = power @ s
        acc += ((-1) ** (j + 1)) * power / j
    return [[abs(x) for x in row] for row in acc.tolist()]


def smith_diagonal_by_pivots(m) -> list[int]:
    """Diagonal of the Smith form by smallest-pivot elimination with no
    transforms: the library's Smith routine before it moved onto Hermite
    forms, kept as an oracle for its invariant factors."""
    d = [list(row) for row in m]
    rows, cols = len(d), len(d[0]) if d else 0
    t = 0
    while t < min(rows, cols):
        nz = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        d[t], d[pi] = d[pi], d[t]
        for row in d:
            row[t], row[pj] = row[pj], row[t]
        progress = True
        while progress:
            progress = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    c = d[i][t] // d[t][t]
                    d[i] = [a - c * b for a, b in zip(d[i], d[t])]
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                    progress = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    c = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= c * row[t]
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                    progress = True
        bad = next(((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % d[t][t]), None)
        if bad is None:
            d[t] = [-a for a in d[t]] if d[t][t] < 0 else d[t]
            t += 1
        else:
            d[t] = [a + b for a, b in zip(d[t], d[bad[0]])]
    return [d[i][i] for i in range(min(rows, cols))]


def right_kernel_by_two_passes(chi) -> list[list[int]]:
    """The integer right kernel of chi as the library found it before one
    Hermite form per kernel: the Hermite form of [chi^T | I], then a second
    Hermite form of the I-parts of its rows whose chi-part vanishes."""
    n = len(chi)
    rows = [[chi[j][i] for j in range(n)] + [int(i == k) for k in range(n)] for i in range(n)]
    return hermite_rows([row[n:] for row in hermite_rows(rows) if not any(row[:n])])


def substitute_reciprocal_by_powers(r: RationalFunction, scale) -> RationalFunction:
    """R(1/(scale t)) with the reversal and the powers of scale written out,
    as the library formed it before it used reversed and scale_argument."""
    scale = Fraction(scale)
    d = max(r.num.degree, r.den.degree)
    num, den = (Polynomial([p[d - i] * scale ** -(d - i) for i in range(d + 1)]) for p in (r.num, r.den))
    return RationalFunction(num, den)


def cyclotomic_product_by_convolution(a, b) -> tuple[Fraction, ...]:
    """The coordinates of a * b in Q(zeta_m) by the convolution loop that
    Cyclotomic.__mul__ ran before it used Polynomial products."""
    conv = [Fraction(0)] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    return _fold(a.m, conv)


def bm_core_by_fractions(seq: list[Fraction]):
    """Classic Berlekamp-Massey over Fraction with C(0) = 1 throughout;
    returns (C, L, profile, last_change)."""
    c = [Fraction(1)]
    b = [Fraction(1)]
    L, m = 0, 1
    bb = Fraction(1)
    profile: list[int] = []
    last_change = -1
    for i, s in enumerate(seq):
        d = s
        for j in range(1, L + 1):
            if j < len(c):
                d += c[j] * seq[i - j]
        if d == 0:
            m += 1
            profile.append(L)
            continue
        t = c[:]
        coef = d / bb
        c = c + [Fraction(0)] * max(0, len(b) + m - len(c))
        for j, bj in enumerate(b):
            c[j + m] -= coef * bj
        if 2 * L <= i:
            L = i + 1 - L
            b, bb, m = t, d, 1
        else:
            m += 1
        last_change = i
        profile.append(L)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, L, profile, last_change


def berlekamp_massey_by_fractions(seq):
    """berlekamp_massey with the Fraction core and a Fraction residual:
    NotStabilized, or (num, den, stabilized_at, residual_checked_to) of
    the reconstruction reduced by reduce_by_fractions."""
    values = [Fraction(s) for s in seq]
    c, L, profile, last_change = bm_core_by_fractions(values)
    n = len(values)
    window = -(-n // 4)
    if L > n // 2:
        return NotStabilized(profile, L, f"order {L} exceeds half the data length")
    if last_change >= n - window:
        return NotStabilized(profile, L, f"recurrence still changing in the final {window} terms")
    prod = [Fraction(0)] * n
    for i, s in enumerate(values):
        for j, cj in enumerate(c):
            if i + j < n:
                prod[i + j] += s * cj
    if any(prod[k] != 0 for k in range(L, n)):
        return NotStabilized(profile, L, "residual check failed")
    num, den = reduce_by_fractions(Polynomial(prod[:L] if L > 0 else prod[:1]), Polynomial(c))
    return num, den, last_change, n


# --- scalar F_q oracles: the product and inverse of gf.FqElement as they
# ran before the reduce-once kernel, reducing mod p at every step.


def generator_by_orders(field):
    """The element of smallest packed index with multiplicative order q - 1
    (past the constants when e > 1), each candidate's order found by
    multiplying it by itself until it reaches 1."""
    one = field.one()
    for n in range(field.p if field.e > 1 else 1, field.q):
        x = g = field.from_int(n)
        order = 1
        while x != one:
            x = x * g
            order += 1
        if order == field.q - 1:
            return g
    raise AssertionError("F_q^* is cyclic")


def trace_column_by_frobenius(field) -> list[int]:
    """Tr(x^i) for i < e as x^i + (x^i)^p + ... + (x^i)^(p^(e-1)), by
    e - 1 Frobenius powers of each: a route independent of the Newton
    identities behind gf.trace_column."""
    column = []
    for i in range(field.e):
        y = acc = field.element([0] * i + [1])
        for _ in range(field.e - 1):
            y = y**field.p
            acc = acc + y
        assert not any(acc.coeffs[1:])
        column.append(acc.coeffs[0])
    return column


def _polymod_by_steps(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        if a[i]:
            c = a[i] * inv_lead % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def reducible_by_products(p: int, e: int) -> set[tuple[int, ...]]:
    """Every product of two monic polynomials over F_p of positive degree
    and total degree e, as an ascending coefficient tuple: the reducible
    monic polynomials of degree e, found by multiplying out rather than by
    Rabin's test."""
    out = set()
    for d in range(1, e // 2 + 1):
        for a in itertools.product(range(p), repeat=d):
            for b in itertools.product(range(p), repeat=e - d):
                prod = [0] * (e + 1)
                for i, x in enumerate(a + (1,)):
                    if x:
                        for j, y in enumerate(b + (1,)):
                            prod[i + j] += x * y
                out.add(tuple(c % p for c in prod))
    return out


def mul_by_schoolbook(x, y):
    """x * y for FqElements of one field: the schoolbook product with a
    % p per term, then long division by the modulus."""
    f = x.field
    out = [0] * (2 * f.e - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = (out[i + j] + a * b) % f.p
    return f.element(_polymod_by_steps(out, list(f.modulus), f.p) or [0])


def inverse_by_euclid(x):
    """x^-1 by extended Euclid in F_p[x] with explicit quotients, as
    gf.FqElement.inverse ran before."""
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero field element")
    f = x.field
    p = f.p
    a, b = list(x.coeffs), list(f.modulus)
    while a and a[-1] == 0:
        a.pop()
    s0, s1 = [1], []
    while b:
        r, dm = a[:], len(b) - 1
        inv_lead = pow(b[-1], -1, p)
        q = [0] * max(1, len(r) - dm)
        for i in range(len(r) - 1, dm - 1, -1):
            if r[i]:
                c = r[i] * inv_lead % p
                q[i - dm] = c
                for j in range(dm + 1):
                    r[i - dm + j] = (r[i - dm + j] - c * b[j]) % p
        while r and r[-1] == 0:
            r.pop()
        qs = [0] * (len(q) + len(s1) - 1) if s1 else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs[i + j] = (qs[i + j] + qi * sj) % p
        s_next = [(u - v) % p for u, v in itertools.zip_longest(s0, qs, fillvalue=0)]
        while s_next and s_next[-1] == 0:
            s_next.pop()
        a, b = b, r
        s0, s1 = s1, s_next
    inv_gcd = pow(a[0], -1, p)
    return f.element([c * inv_gcd % p for c in s0] or [0])


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def p1_motive():
    return load_motive("p1_motive.json")


@pytest.fixture
def elliptic_f5_motive():
    return load_motive("elliptic_f5_motive.json")


@pytest.fixture
def elliptic_f7_motive():
    return load_motive("elliptic_f7_motive.json")
