"""Arithmetic geometry over finite fields by enumeration and Weil's theorem.

Varieties are given by equations in an affine or projective ambient
space over F_q, q = p^e, with integer coefficients (read mod p) or
coefficients in F_q itself, each equation one polynomial over F_q.  Every
count, twisted or not, and every listing of points goes through one
pricer (_priced), which takes a call's requests (what to count: ambient,
field F_{p^e} and equations; at which n), makes each distinct Plan once
and charges the cheapest way (_ways) to count each chart at each n before
any is counted.  One executor (_run) counts a plan over normalized point
representatives (projective: first nonzero coordinate = 1) by route:
CLOSED, no equations; GCD, one free variable, by the common roots of its
equations over F_q (_root_count); ROWS, one equation a v^2 + b v + c of
degree 1 or 2 in a free variable v, split once (_Quadratic), by its roots
over rows of assignments of the others (discriminant squares, or an
absolute trace in characteristic 2); WEIL, such an equation in two free
variables, by the L-polynomial of its curve (_curve_count); ENUMERATE,
in chunks of at most gfvec.CHUNK = 2^14 assignments, each variable an
array of rows, which stay in cache (see gfvec); a polynomial constant on
the chart stays one row.  The rows are discrete logs on the field's
exp/log/Zech tables, which only fields of at most gfvec.TABLE_MAX = 10^7
elements get, the cap their charge checks.

Twisted counts #{x : g(Fr^n(x)) = x} are ordinary counts by Lang
descent (Lang, Amer. J. Math. 78, 1956) in K = F_{q^n}[X]/(h), h monic
and irreducible of degree r over F_{q^n} (found by Ben-Or's test), whose
Frobenius phi fixes the coefficients and sends X to X^(q^n).  On A^N,
r = ord(g) and sigma = g phi; on P^N, where g acts only up to a scalar, r
is the least r with g^r = lam I and sigma = X g phi with h(0) =
(-1)^r/lam, so that the norm of X is 1/lam.  Either way sigma^r = 1 on
K^N, so its fixed vectors are the columns of a matrix H over K with
sigma(H) = H.  Then x = H y maps the F_{q^n}-points of the twisted form,
cut out by the coefficients of F(H y) over F_{q^n}, one to one onto the
twisted fixed points, and the ordinary count counts them with its
shortcuts intact (_twisted makes that request).  A condition h' x = x
(or h' x proportional to x) from a fixing element becomes equations too
(_fixer_equations).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .errors import PreconditionError, ValidationError, charge, charge_digits, resolve_budget
from .analytic import _poly_roots_certified
from .exact_core import RationalFunction, _json_int, _monomial
from .gf import FqElement, FqField, _fpoly_add, _fpoly_gcd, _fpoly_mulmod, _fpoly_powmod, _fpoly_rem, _int_gcd, _trim, fq_make, is_prime, mobius, row_echelon, trace_column
from . import gfvec
from .gfvec import VecField, vec_field
from .reconstruct import NotStabilized, traces_to_zeta
from .series import TruncatedSeries, WittElement, exp_from_traces

SIZES = "64-bit words of chart sizes q^f"
SEARCH = "work of a modulus search"
DESCENT = "work of a twist descent"
CLOSED, ROWS, ENUMERATE = "closed form", "quadratic rows", "enumeration"
GCD, WEIL = "root gcd", "L-polynomial"


def _search(p: int, e: int) -> int:
    """fq_make(p, e)'s modulus search: about e Rabin tests of e^3 ceil(log2
    p), none for e = 1 (F_{5^40}'s 2.6 10^6 took 1.6 s on a 2-core x86-64)."""
    return 0 if e == 1 else e**4 * (p - 1).bit_length()


def _field(p: int, e: int, budget: int | None) -> FqField:
    """fq_make(p, e), its modulus search charged first."""
    charge(SEARCH, _search(p, e), budget)
    return fq_make(p, e)


Term = tuple[tuple[int, ...], "int | FqElement"]  # exponent vector, coefficient


@dataclass(frozen=True)
class VarietySpec:
    """ambient_kind 'projective' or 'affine'; equations are tuples of
    (exponent vector, coefficient) terms, each coefficient an integer read
    mod p or an FqElement of the base field F_{p^e}."""

    ambient_kind: str
    ambient_dim: int
    p: int
    e: int
    equations: tuple[tuple[Term, ...], ...]

    def __post_init__(self):
        if self.ambient_kind not in ("projective", "affine"):
            raise ValidationError("ambient must be projective or affine")
        if self.ambient_dim < 0:
            raise ValidationError("ambient dimension must be >= 0")
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.e < 1:
            raise ValidationError("field extension degree must be >= 1")
        nv = self.num_vars
        for eq in self.equations:
            degrees = set()
            for exps, coeff in eq:
                if len(exps) != nv:
                    raise ValidationError(
                        f"exponent vector {exps} needs {nv} entries"
                    )
                if any(x < 0 for x in exps):
                    raise ValidationError("exponents must be nonnegative")
                if isinstance(coeff, FqElement) and coeff.field != self.base_field:
                    raise ValidationError("field-element coefficients must lie in the base field")
                if (coeff % self.p if isinstance(coeff, int) else not coeff.is_zero()):
                    degrees.add(sum(exps))
            if self.ambient_kind == "projective" and len(degrees) > 1:
                raise ValidationError("projective equations must be homogeneous")

    @property
    def num_vars(self) -> int:
        return self.ambient_dim + (1 if self.ambient_kind == "projective" else 0)

    @property
    def base_field(self) -> FqField:
        return _field(self.p, self.e, None)

    @property
    def q(self) -> int:
        return self.p**self.e

    def to_json(self) -> dict:
        return {
            "ambient": {
                self.ambient_kind: self.ambient_dim,
            },
            "p": self.p,
            "e": self.e,
            "equations": [
                [[list(exps), list(c.coeffs) if isinstance(c, FqElement) else c] for exps, c in eq]
                for eq in self.equations
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "VarietySpec":
        """Parse {"ambient": {"projective" or "affine": dim}, "p": p, "e": e,
        "equations": [...]}.  A coefficient is an integer read mod p or a
        base-field element as the list of its 1 to e coordinates over F_p.
        Malformed input, including a coefficient or exponent that is not an
        integer, raises ValidationError."""
        if not isinstance(data, dict) or "p" not in data:
            raise ValidationError("a variety is a JSON object with 'ambient' and 'p'")
        ambient = data.get("ambient")
        if not (isinstance(ambient, dict) and len(ambient) == 1 and set(ambient) <= {"projective", "affine"}):
            raise ValidationError('ambient must be {"projective": dim} or {"affine": dim}')
        ((kind, dim),) = ambient.items()
        p, e = _json_int(data["p"], "p"), _json_int(data.get("e", 1), "e")

        def coefficient(c):
            if not isinstance(c, list):
                return _json_int(c, "coefficient")
            if not (is_prime(p) and 1 <= len(c) <= e):
                raise ValidationError(f"a coefficient in F_{p}^{e} is a list of 1 to {e} integers, got {c!r}")
            return _field(p, e, None).element([_json_int(x, "coefficient") for x in c])

        raw = data.get("equations", [])
        try:
            # accept either a list of equations (each a list of [exps, coeff]
            # terms) or a single flat equation as a list of terms, whose
            # first entry starts with an exponent vector, not a term
            if raw and raw[0] and not any(isinstance(x, (list, tuple)) for x in raw[0][0]):
                raw = [raw]
            eqs = tuple(
                tuple((tuple(_json_int(x, "exponent") for x in exps), coefficient(c)) for exps, c in eq)
                for eq in raw
            )
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ValidationError(f"equations must be lists of [exponent_vector, coefficient] terms: {exc}")
        return VarietySpec(kind, _json_int(dim, "ambient dimension"), p, e, eqs)


def projective_space(n: int, p: int, e: int = 1) -> VarietySpec:
    return VarietySpec("projective", n, p, e, ())


def affine_space(n: int, p: int, e: int = 1) -> VarietySpec:
    return VarietySpec("affine", n, p, e, ())


# --- charts and plans ---


def _equations(v: VarietySpec, budget: int | None) -> list[dict]:
    """The equations of v as polynomials over its base field, which is
    built only for them, identically zero ones dropped."""
    if not v.equations:
        return []
    base = _field(v.p, v.e, budget)
    return [poly for poly in (_poly(eq, base) for eq in v.equations) if poly]


@dataclass(frozen=True)
class Plan:
    """X over F_{p^e} for every n: per chart with points, in chart order,
    (route, f, eqs, data): f free variables, eqs its equations (read when
    the chart is enumerated or listed), data their coefficient lists for
    GCD (one free variable), the _Quadratic split of the one equation for
    ROWS, else None."""

    p: int
    e: int
    charts: tuple


def _plan(kind: str, nv: int, p: int, e: int, polys: list[dict]) -> Plan:
    """The Plan of polys over F_{p^e} in the kind ambient space in nv
    variables.  A chart's free variables are those from start = nv - f on,
    the fixed ones 0, ..., 0, 1 on P^N, and its equations are polys
    restricted to it, identically zero ones dropped; a chart on which one
    is a nonzero constant has no points and is left out."""
    charts = []
    for start in [0] if kind == "affine" else range(1, nv + 1):
        f, eqs = nv - start, []
        for eq in polys:
            s = _specialize(eq, start)
            if s is None:
                continue
            if list(s) == [(0,) * f]:
                break  # a nonzero constant
            eqs.append(s)
        else:
            # with two or more free variables, the first that a single equation has degree 1 or 2 in
            j = next((j for j in range(f) if max(exps[j] for exps in eqs[0]) in (1, 2)), None) if f > 1 and len(eqs) == 1 else None
            route, data = CLOSED if not eqs else GCD if f == 1 else ENUMERATE if j is None else ROWS, None
            if route == GCD:
                data = [_dense(eq, next(iter(eq.values())).field.zero()) for eq in eqs]
            elif route == ROWS:
                data = _Quadratic(eqs[0], j)
            charts.append((route, f, tuple(eqs), data))
    return Plan(p, e, tuple(charts))


class _Quadratic:
    """A chart's one equation a(x) v^2 + b(x) v + c(x) = 0 over F_q, v its
    free variable j and x the others, split into parts (c, b, a).  With one
    x, it is a curve.  Over F_Q, Q = q^n, x with a(x) != 0 has 1 + chi(D(x))
    roots v, D = b^2 - 4ac; one with a(x) = 0 has 1 if b(x) != 0 (and
    chi(D(x)) = 1), Q if b(x) = c(x) = 0: Q - r(lead) + Q r(gcd(a, b, c)) +
    S_n in all, r the roots in F_Q (r(0) = Q), lead = a, S_n = sum_{x in
    F_Q} chi(D(x)); lead = b, no S_n if a = 0.  For odd p and D squarefree
    of degree d, y^2 = D(x) of genus (d - 1) // 2 has Q + 1 - sum
    alpha_i^n points (Weil, Bull. AMS 55, 1949): Q + S_n affine, 1 (d odd)
    or 1 + chi(lc D)^n (d even) at infinity."""

    def __init__(self, terms: dict, j: int):
        self.parts: tuple = ({}, {}, {})  # c, b, a over the other variables
        for exps, coeff in terms.items():
            self.parts[exps[j]][exps[:j] + exps[j + 1 :]] = coeff
        self.zero = next(iter(terms.values())).field.zero()
        self.linear, self.sums, self.coeffs = not self.parts[2], [], []

    @functools.cached_property
    def lead(self) -> list:  # a, or b when a = 0
        return _dense(self.parts[2] or self.parts[1], self.zero)

    @functools.cached_property
    def disc(self) -> list:
        c, b, a = self.parts
        return _dense(_poly_sub(_poly_mul(b, b), _poly_mul({(0,): self.zero.field.element(4)}, _poly_mul(a, c))), self.zero)

    @functools.cached_property
    def genus(self) -> int:
        """(d - 1) // 2, d = deg D read off b^2 and 4ac unless they may cancel."""
        c, b, a = (max(x, default=(-1,))[0] for x in self.parts)
        b2, ac = 2 * b if b >= 0 else -1, a + c if c >= 0 else -1
        return max((len(self.disc) - 1 if b2 == ac else max(b2, ac)) - 1, 0) // 2

    @functools.cached_property
    def common(self) -> list:
        return functools.reduce(_fpoly_gcd, (_dense(x, self.zero) for x in self.parts), [])

    @functools.cached_property
    def squarefree(self) -> bool:
        slope = _fpoly_add([x * x.field.element(i) for i, x in enumerate(self.disc)][1:], [])  # trailing zeros dropped
        return bool(self.disc) and len(_fpoly_gcd(self.disc, slope)) == 1


def _dense(poly: dict, zero) -> list:
    """A polynomial in one variable, {(k,): c}, as its coefficient list."""
    return [poly.get((k,), zero) for k in range(max(poly, default=(-1,))[0] + 1)]


def _specialize(poly: dict, start: int):
    """Restrict a polynomial to the chart whose free variables start at
    start: its terms over them as {reduced exponent vector: coefficient},
    or None when it is identically zero on the chart."""
    acc: dict[tuple[int, ...], FqElement] = {}
    for exps, coeff in poly.items():
        if any(exps[: max(start - 1, 0)]):
            continue  # a zeroed variable kills the term
        key = exps[start:]
        acc[key] = acc[key] + coeff if key in acc else coeff
    acc = {k: c for k, c in acc.items() if not c.is_zero()}
    return acc if acc else None


# --- enumeration ---


def _assignments(vf: VecField, f: int):
    """The q^f assignments of f free variables in lexicographic order, in
    chunks of at most gfvec.CHUNK rows: yields (rows, one digit array per
    variable)."""
    total, chunk = vf.q**f, gfvec.CHUNK
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        yield stop - start, vf.digits_of_range(start, stop, f)


def _evaluate(vf: VecField, polys, values) -> list:
    """Each polynomial ({exponent vector: FqElement of vf's field}) at
    every row of values, as an array of their rows, or of one row where it
    is constant, so arithmetic on it stays one row; powers of a variable
    are shared across all terms."""
    pows = {}
    out = []
    for terms in polys:
        acc = None
        for exps, coeff in terms.items():
            val = None
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in pows:
                        pows[i, e] = vf.power(values[i], e)
                    val = pows[i, e] if val is None else vf.mul(val, pows[i, e])
            if val is None:
                val = vf.const(coeff)
            elif coeff != vf.field.one():
                val = vf.mul(val, vf.const(coeff))
            acc = val if acc is None else vf.add(acc, val)
        out.append(vf.const(0) if acc is None else acc)
    return out


def _vanish(vf: VecField, eqs, values, rows: int):
    """Mask of the rows where every equation vanishes."""
    mask = np.broadcast_to(True, (rows,))
    for val in _evaluate(vf, eqs, values):
        mask = mask & vf.is_zero(val)
    return mask


# --- point counts ---


def _count(mask, rows: int) -> int:
    """The set entries of a mask of rows rows, or of one row that stands
    for all of them."""
    return int(np.count_nonzero(mask)) * (rows // mask.shape[0])


def _quadratic_count(vf: VecField, parts: tuple, f: int) -> int:
    """Solutions of one equation a v^2 + b v + c = 0 in f free variables,
    split into parts (c, b, a) over the base field (_Quadratic): the roots
    in v summed over the q^(f-1) assignments of the others."""
    q = vf.q
    by_degree = [_poly(part.items(), vf.field) for part in parts]
    total = 0
    for rows, values in _assignments(vf, f - 1):
        c, b, a = _evaluate(vf, by_degree, values)
        a0, b0, c0 = vf.is_zero(a), vf.is_zero(b), vf.is_zero(c)
        total += _count(a0 & ~b0, rows) + q * _count(a0 & b0 & c0, rows)
        if not by_degree[2]:
            continue
        if vf.p == 2:
            # v = (b/a) w turns the equation into w^2 + w = ac/b^2, which has
            # two roots when the absolute trace of ac/b^2 is 0 and none else
            one = b0
            inv_b2 = vf.power(vf.mul(b, b), q - 2)
            two = ~b0 & (vf.trace(vf.mul(vf.mul(a, c), inv_b2)) == 0)
        else:
            disc = vf.add(vf.mul(b, b), vf.mul(vf.mul(a, c), vf.const(-4)))
            one = vf.is_zero(disc)
            two = vf.is_square(disc)
        total += _count(~a0 & one, rows) + 2 * _count(~a0 & two, rows)
    return total


def _root_count(polys: list[list], base: FqField, n: int) -> int:
    """The common roots in F_Q, Q = q^n, of coefficient lists over F_q (Q
    when all are 0): those of their monic gcd g.  For g = z^2 + b z + c,
    the character of F_Q at b^2 - 4c, chi^n on F_q, or in characteristic 2
    the trace of c/b^2 to F_2, n Tr on F_q (Lidl and Niederreiter, Thm
    2.25); else deg gcd(g, z^Q - z), where over F_p on ints z^Q is a power
    in F_p[z]/(g), an FqField whose modulus need not be irreducible."""
    q, p, g = base.q**n, base.p, []
    for poly in polys:
        g = _int_gcd(g, [c.coeffs[0] for c in poly], p) if base.e == 1 else _fpoly_gcd(g, poly)
    if len(g) == 3:
        c, b = (base.element(x) for x in g[:2]) if base.e == 1 else g[:2]
        if p == 2:
            return 1 if b.is_zero() else 0 if n * sum(map(mul, (c / (b * b)).coeffs, trace_column(base))) % 2 else 2
        disc = b * b - base.element(4) * c
        return 1 if disc.is_zero() else 2 if n % 2 == 0 or disc ** ((base.q - 1) // 2) == base.one() else 0
    if len(g) > 2 and base.e == 1:
        w = list((FqField(p, len(g) - 1, tuple(g)).element([0, 1]) ** q).coeffs)
        g = _int_gcd(g, _trim([w[0], (w[1] - 1) % p] + w[2:]), p)
    elif len(g) > 2:
        g = _fpoly_gcd(g, _fpoly_add(_fpoly_powmod([base.zero(), base.one()], q, g), [base.zero(), -base.one()]))
    return len(g) - 1 if g else q


def _curve_count(curve: _Quadratic, base: FqField, n: int) -> int:
    """The points over F_{q^n} of a quadratic chart in two free variables
    (see _Quadratic): S_n = -s_n - [d even] chi(lc D)^n, s_n = sum
    alpha_i^n, for n > g.  The L-polynomial sum a_k t^k has k a_k = -(s_1
    a_(k-1) + .. + s_k) (Newton): a_1..a_g from S_1..S_g over F_{q^m} by
    quadratic rows, a_(2g-k) = q^(g-k) a_k, then all s_n.  An inexact
    division or |a_k| > C(2g, k) q^(k/2) is a ValidationError."""
    g, q, s, a, even = curve.genus, base.q, curve.sums, curve.coeffs, len(curve.disc) % 2
    chi = 1 if not curve.disc or curve.disc[-1] ** ((q - 1) // 2) == base.one() else -1  # chi(lc D)

    def known(m):  # the count over F_{q^m} less S_m
        return q**m - _root_count([curve.lead], base, m) + q**m * _root_count([curve.common], base, m)

    if curve.linear or len(curve.disc) == 1:  # no S_n, or D a nonzero constant
        return known(n) + (0 if curve.linear else q**n * chi**n)
    if not a:
        fields = enumerate((fq_make(base.p, base.e * m) for m in range(1, g + 1)), 1)
        sums = [known(m) - _quadratic_count(vec_field(F), curve.parts, 2) - even * chi**m for m, F in fields]
        coeffs = [1]
        for k in range(1, g + 1):
            num = -sum(sums[i - 1] * coeffs[k - i] for i in range(1, k + 1))
            if num % k or (num // k) ** 2 > math.comb(2 * g, k) ** 2 * q**k:
                raise ValidationError(f"S_1..S_{g} of y^2 = D(x) over F_{q} give no L-polynomial: a_{k} = {num}/{k}")
            coeffs.append(num // k)
        a += coeffs + [q ** (g - k) * coeffs[k] for k in range(g - 1, -1, -1)]
        s += sums
    while len(s) < n:
        m = len(s) + 1
        s.append(-(m * a[m] if m <= 2 * g else 0) - sum(a[i] * s[m - i - 1] for i in range(1, min(m - 1, 2 * g) + 1)))
    return known(n) - s[n - 1] - even * chi**n


def _ways(chart, p: int, e: int, n: int, listing: bool) -> list[tuple]:
    """The ways to count (or list) a chart at n, today's first: (route, rows,
    coefficient products, the k of each F_{p^k} given tables).  A pass over
    F_Q, Q = p^(e n), costs its rows and Q table entries, a root count of
    degree d (d + 1)^2 e^2 ceil(log2 Q) products over F_p, one equation of
    degree <= 2 in one free variable one row, counted in closed form; WEIL
    (two free variables, degree <= 64 in the one not solved for, and a = 0,
    or odd p, D squarefree and n > g) passes over F_{q^m}, m <= g."""
    route, f, _, data = chart
    if listing:
        return [(ENUMERATE, p ** (e * n * f), 0, (e * n,) if f else ())]
    if route == GCD and len(data) == 1 and len(data[0]) <= 3:
        return [(GCD, 1, 0, ())]
    q = p ** (e * n)
    ways, step = [(ENUMERATE if route == GCD else route, q ** (f - (route == ROWS)), 0, (e * n,))], e * e * (q - 1).bit_length()
    if route == GCD:
        ways.append((GCD, 0, max(map(len, data)) ** 2 * step, ()))
    elif route == ROWS and f == 2 and max(k for x in data.parts for (k,) in x) <= 64 and (data.linear or p % 2 and n > data.genus and p ** (e * data.genus) <= gfvec.TABLE_MAX and data.squarefree):
        fields = () if data.linear else tuple(range(e, e * data.genus + 1, e))
        ways.append((WEIL, sum(p**k for k in fields), (len(data.lead) ** 2 + len(data.common) ** 2) * step, fields))
    return ways


def _priced(requests, budget: int | None, listing: bool = False) -> list[tuple[Plan, int, tuple]]:
    """(plan, n, routes) per request ((kind, nv, p, e, polys), n) of one
    call, each distinct plan made once, charged before it is made and used:
    running totals over the call of the words of the sizes q^(n f) of every
    chart of the ambient (A^N: f = N; P^N: f = 0..N), the distinct fields'
    searches and coefficient products; per request, each chart's cheapest
    way (_ways; the first on a tie); last, the digits of q^(n N) to print."""
    budget = resolve_budget(budget)
    plans, searches, words, work, top, priced = {}, {}, 0, 0, 0, []
    for (kind, nv, p, e, polys), n in requests:
        words += (nv if kind == "affine" else nv * (nv - 1) // 2) * e * n * (p - 1).bit_length()
        charge(SIZES, words >> 6, budget)
        top = max(top, e * n * (nv - (kind != "affine")))  # q^(n N) = p^top
        key = (kind, nv, p, e, tuple(frozenset(poly.items()) for poly in polys))
        plan = plans[key] = plans.get(key) or _plan(kind, nv, p, e, polys)
        routes, used, tabled = [], 0, set()
        for chart in plan.charts:
            if chart[0] == CLOSED and not listing:
                routes.append(CLOSED)
                continue
            ways = _ways(chart, p, e, n, listing)
            route, rows, products, fields = min(ways, key=lambda w: w[1] + w[2] + sum(p**k for k in w[3])) if ways[1:] else ways[0]
            used, work = used + rows, work + products
            if rows or products:
                charge("assignments to enumerate", used, budget)
                charge("coefficient products of root counts", work, budget)
            routes.append(route)
            tabled.update(fields)
        if tabled or listing and plan.charts:
            charge(gfvec.TABLES, p ** max(tabled, default=0), gfvec.TABLE_MAX)
            searches.update({(p, k): _search(p, k) for k in tabled | ({e * n} if listing else set())})
            charge(SEARCH, sum(searches.values()), budget)
        priced.append((plan, n, tuple(routes)))
    charge_digits((top * (int(math.log10(p) * 2**40) - 1) >> 40) + 1)  # top log10(p) rounded down, + 1
    return priced


def _counts(requests, budget: int | None) -> list[int]:
    """#X(F_{q^n}) per request of one call, all priced before any is counted."""
    return [_run(*priced) for priced in _priced(requests, budget)]


def _run(plan: Plan, n: int, routes: tuple) -> int:
    """#X(F_{q^n}) from a priced plan of X over F_q, chart by chart by the
    route its pricing chose."""
    total = 0
    for (_, f, eqs, data), route in zip(plan.charts, routes):
        if route == CLOSED:
            total += plan.p ** (plan.e * n * f)
        elif route in (GCD, WEIL):
            base = fq_make(plan.p, plan.e)
            total += _root_count(data, base, n) if route == GCD else _curve_count(data, base, n)
        elif route == ROWS:
            total += _quadratic_count(vec_field(fq_make(plan.p, plan.e * n)), data.parts, f)
        else:
            vf = vec_field(fq_make(plan.p, plan.e * n))
            eqs = [_poly(eq.items(), vf.field) for eq in eqs]
            total += sum(int(np.count_nonzero(_vanish(vf, eqs, values, rows))) for rows, values in _assignments(vf, f))
    return total


def _what(v: VarietySpec, budget: int | None) -> tuple:
    return v.ambient_kind, v.num_vars, v.p, v.e, _equations(v, budget)


def count_points(v: VarietySpec, n: int, budget: int | None = None) -> int:
    """#X(F_{q^n}) by chart-wise enumeration of normalized representatives."""
    if n < 1:
        raise PreconditionError("extension degree must be >= 1")
    return _counts([(_what(v, budget), n)], budget)[0]


def point_counts(v: VarietySpec, n_max: int, budget: int | None = None) -> list[int]:
    """[#X(F_{q^n}) for n = 1..n_max], each n charged before any is counted."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    what = _what(v, budget)
    return _counts(((what, n) for n in range(1, n_max + 1)), budget)


def enumerate_points(v: VarietySpec, n: int = 1, budget: int | None = None):
    """Normalized point representatives over F_{q^n}, chart by chart in
    lexicographic order of the packed indices of the free coordinates
    (desk scale only); a chart with no free variables is one point.  Every
    chart is priced as an enumeration before F_{q^n} is built."""
    ((plan, n, _),) = _priced([(_what(v, budget), n)], budget, listing=True)
    points = []
    for _, f, eqs, *_ in plan.charts:
        field, start = fq_make(v.p, v.e * n), v.num_vars - f
        fixed = tuple(field.element(int(i == start - 1)) for i in range(start))
        if not f:
            points.append(fixed)
            continue
        vf = vec_field(field)
        eqs = [_poly(eq.items(), field) for eq in eqs]
        chart = []
        for rows, values in _assignments(vf, f):
            index = np.flatnonzero(_vanish(vf, eqs, values, rows))
            chart += [fixed + point for point in zip(*(vf.elements(c, index) for c in values))]
        # rows with tables run in log order
        points += sorted(chart, key=lambda point: [x.to_int() for x in point])
    return points


# --- group elements ---


def _normalize_matrix(v: VarietySpec, g) -> tuple[tuple[FqElement, ...], ...]:
    """g as an nv x nv matrix over the base field: its entries are integers
    (read mod p; floats, bools and strings are refused) or FqElements of
    the base field."""
    base = v.base_field
    nv = v.num_vars
    if not (isinstance(g, (list, tuple)) and len(g) == nv and all(isinstance(r, (list, tuple)) and len(r) == nv for r in g)):
        raise ValidationError(f"group elements must be {nv}x{nv} matrices")
    rows = []
    for row in g:
        cells = []
        for entry in row:
            if isinstance(entry, FqElement):
                if entry.field != base:
                    raise ValidationError("matrix entries must lie in the base field")
                cells.append(entry)
            else:
                cells.append(base.element(_json_int(entry, "matrix entry")))
        rows.append(tuple(cells))
    return tuple(rows)


@functools.lru_cache(maxsize=256)
def _twist_order(kind: str, g, budget: int) -> tuple[int, FqElement]:
    """(r, lam) for an invertible matrix g over the base field: the least r
    with g^r = lam I, where lam = 1 on an affine variety (r is the order of
    g) and any scalar on a projective one (r is the projective order); r
    can be huge, so the descent of degree r + 1 is charged before it."""
    field = g[0][0].field
    zero, one = field.zero(), field.one()
    acc = g
    for r in itertools.count(1):
        lam = acc[0][0] if kind == "projective" else one
        if all(x == (lam if i == j else zero) for i, row in enumerate(acc) for j, x in enumerate(row)):
            return r, lam
        charge(DESCENT, _descent_work(r + 1, field), budget)
        acc = _mat_mul(acc, g)


def _descent_work(r: int, small: FqField) -> int:
    """_relative_modulus's work over small = F_{p^e}: about r candidates of
    r/2 Frobenius powers of e log2 p squarings of r^2 products of e^2, so
    r^4 e^2 ceil(log2 p); r = 30 over F_61's 4.9 10^6 took 1.7 s (as above)."""
    return r**4 * small.e**2 * (small.p - 1).bit_length()


def _mat_mul(a, b):
    zero = a[0][0].field.zero()
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)) for row in a)


# --- polynomials over a field: {exponent vector: nonzero FqElement} ---


def _poly(eq, field: FqField) -> dict:
    """An equation's terms as a polynomial over field, an extension of the
    base field."""
    out: dict = {}
    for exps, c in eq:
        c = field.element(c) if isinstance(c, int) else c.field.embed(c, field)
        out[exps] = out[exps] + c if exps in out else c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}


def _poly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] - c if k in out else -c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _linear_forms(m) -> list[dict]:
    """The coordinates of m x, as polynomials."""
    nv = len(m)
    return [{tuple(int(k == j) for k in range(nv)): c for j, c in enumerate(row) if not c.is_zero()} for row in m]


def _substitute(poly: dict, m) -> dict:
    """F(m x) for a polynomial F and a matrix m over its field; the powers
    of each coordinate of m x are shared across terms."""
    forms = _linear_forms(m)
    powers: dict = {}
    out: dict = {}
    for exps, c in poly.items():
        term = {(0,) * len(m): c}
        for i, k in enumerate(exps):
            if k:
                if (i, k) not in powers:
                    acc = forms[i]
                    for _ in range(k - 1):
                        acc = _poly_mul(acc, forms[i])
                    powers[i, k] = acc
                term = _poly_mul(term, powers[i, k])
        for key, val in term.items():
            out[key] = out[key] + val if key in out else val
    return {k: c for k, c in out.items() if not c.is_zero()}


def _degree(poly: dict) -> int:
    return max(sum(exps) for exps in poly)


def _span_basis(polys: list[dict], field: FqField) -> list[dict]:
    """A basis of the span of polynomials over field, in reduced echelon
    form over their monomials, higher degrees first."""
    monomials = sorted({m for poly in polys for m in poly}, key=lambda m: (sum(m), m), reverse=True)
    zero = field.zero()
    rows, _ = row_echelon([[poly.get(m, zero) for m in monomials] for poly in polys])
    return [{m: c for m, c in zip(monomials, row) if not c.is_zero()} for row in rows]


def _fixer_equations(v: VarietySpec, h) -> list[dict]:
    """h x = x (affine) or h x proportional to x (projective) as
    polynomials over the base field: the coordinates of h x - x, or the
    2 x 2 minors (h x)_i x_j - (h x)_j x_i.  Identically zero ones drop,
    so the identity adds none."""
    base = v.base_field
    hx = _linear_forms(h)
    x = _linear_forms([[base.element(int(i == j)) for j in range(len(h))] for i in range(len(h))])
    if v.ambient_kind == "affine":
        eqs = [_poly_sub(hx[i], x[i]) for i in range(len(h))]
    else:
        eqs = [
            _poly_sub(_poly_mul(hx[i], x[j]), _poly_mul(hx[j], x[i]))
            for i in range(len(h))
            for j in range(i + 1, len(h))
        ]
    return [eq for eq in eqs if eq]


def _preserves(v: VarietySpec, g) -> bool:
    """Whether F(g x) lies in the F_q-span of the equations for every
    equation F (of the equations of F's degree, on a projective variety).
    This proves that g maps X into itself; it is sufficient, not
    necessary, since the ideal of X may hold F(g x) outside that span."""
    base = v.base_field
    polys = _equations(v, None)
    for f in polys:
        same = [p for p in polys if v.ambient_kind == "affine" or _degree(p) == _degree(f)]
        moved = _substitute(f, g)
        if moved and len(_span_basis(same + [moved], base)) > len(_span_basis(same, base)):
            return False
    return True


# --- twisted counts by descent ---


def twisted_count(v: VarietySpec, g, n: int, budget: int | None = None) -> int:
    """#{x in X(F-bar) : g(Fr^n(x)) = x}, on a projective X up to a scalar.
    Counted as the F_{q^n}-points of the twisted form of X: it charges what
    count_points charges for that, after its descent (see _twisted)."""
    if n < 1:
        raise PreconditionError("extension degree must be >= 1")
    act = _normalize_matrix(v, g)
    if len(row_echelon(act)[1]) < len(act):
        raise ValidationError("group elements must be invertible")
    return _counts([_twisted(v, act, _equations(v, budget), n, budget)], budget)[0]


def _twisted(v: VarietySpec, g, eqs: list[dict], n: int, budget: int | None):
    """The request counting the x with g(Fr^n(x)) = x (on P^N up to a
    scalar) on the variety cut out by eqs over the base field: eqs at n for
    P^N and A^N or when g acts as the identity, else the descended
    equations over F_{q^n} at 1, that field and the descent charged first."""
    kind, nv = v.ambient_kind, v.num_vars
    r, lam = _twist_order(kind, g, resolve_budget(budget)) if eqs else (1, None)
    if r == 1:
        return (kind, nv, v.p, v.e, eqs), n
    # per n: a twist descended once over F_q, counted at n, fixes g^n Fr^n, not g Fr^n
    small = _field(v.p, v.e * n, budget)
    charge(DESCENT, _descent_work(r, small), budget)
    return (kind, nv, small.p, small.e, _descend(v, g, r, lam, small, eqs)), 1


class _Rel:
    """An element of K = F_{q^n}[X]/(h): its coefficients over F_{q^n}, no
    trailing zeros, with the ring operations that _substitute uses."""

    __slots__ = ("c", "h")

    def __init__(self, c: list, h: tuple):
        self.c, self.h = c, h

    def __add__(self, other):
        return _Rel(_fpoly_add(self.c, other.c), self.h)

    def __mul__(self, other):
        return _Rel(_fpoly_mulmod(self.c, other.c, self.h), self.h)

    def is_zero(self) -> bool:
        return not self.c


def _descend(v: VarietySpec, g, r: int, lam: FqElement, small: FqField, eqs: list[dict]) -> list[dict]:
    """The equations over small = F_{q^n} of the twisted form of the
    variety cut out by eqs (over the base field) under g Fr^n, where
    g^r = lam I and r > 1 (see _twist_order)."""
    base, nv = lam.field, v.num_vars
    zero, one = small.zero(), small.one()
    c0 = base.embed(lam, small).inverse()
    h = _relative_modulus(small, r, -c0 if r % 2 else c0)
    # sigma(X^a e_j) = sum_i g_ij c X^(a Q) e_i with c = X on P^N, where
    # N(X) = (-1)^r h(0) = 1/lam, and c = 1 on A^N: the matrix of sigma - 1
    # in the F_{q^n}-basis X^a e_j of K^nv, one column per basis vector
    frob = _fpoly_powmod([zero, one], small.q, h)
    ts, t = [], [zero, one] if v.ambient_kind == "projective" else [one]
    for _ in range(r):
        ts.append(t + [zero] * (r - len(t)))
        t = _fpoly_mulmod(t, frob, h)
    g = [[base.embed(c, small) for c in row] for row in g]
    columns = []
    for j in range(nv):
        for a, t in enumerate(ts):
            column = [g[i][j] * c for i in range(nv) for c in t]
            column[j * r + a] = column[j * r + a] - one
            columns.append(column)
    rows, pivots = row_echelon(list(zip(*columns)))
    free = [c for c in range(nv * r) if c not in pivots]
    if len(free) != nv:
        raise AssertionError("sigma^r = 1, so sigma - 1 has an nv-dimensional kernel")  # Lang
    # the kernel vector of each free column holds, block i, the coefficients
    # of the i-th entry of a column of H
    h_cols = []
    for c in free:
        vec = [zero] * (nv * r)
        vec[c] = one
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[c]
        h_cols.append([_Rel(_fpoly_rem(vec[i * r : (i + 1) * r], h), h) for i in range(nv)])
    big_h = [[h_cols[j][i] for j in range(nv)] for i in range(nv)]
    # each F(H y) splits into its r coefficients over F_{q^n}; a rational y
    # is a zero of F(H y) exactly when it is a zero of every coefficient
    by_degree: dict[int, list[dict]] = {}
    for eq in eqs:
        moved = _substitute({k: _Rel([base.embed(c, small)], h) for k, c in eq.items()}, big_h)
        for a in range(r):
            part = {exps: c.c[a] for exps, c in moved.items() if a < len(c.c) and not c.c[a].is_zero()}
            if part:
                by_degree.setdefault(_degree(part), []).append(part)
    return [poly for d in sorted(by_degree) for poly in _span_basis(by_degree[d], small)]


@functools.lru_cache(maxsize=64)
def _relative_modulus(small: FqField, r: int, c0: FqElement) -> tuple:
    """A monic irreducible h of degree r > 1 over small with h(0) = c0 != 0:
    the first of a seeded stream of dense candidates to pass Ben-Or's test
    (FOCS 1981), gcd(h, X^(Q^i) - X) = 1 for i <= r/2 with Q = |small|.  A
    reducible h has a factor of degree at most r/2, so it fails early."""
    rng = random.Random(r)
    while True:
        h = [c0] + [small.from_int(rng.randrange(small.q)) for _ in range(r - 1)] + [small.one()]
        xq = [small.zero(), small.one()]
        for _ in range(r // 2):
            xq = _fpoly_powmod(xq, small.q, h)
            if len(_fpoly_gcd(h, _fpoly_add(xq, [small.zero(), -small.one()]))) > 1:
                break
        else:
            return tuple(h)


def zeta_from_counts(
    v: VarietySpec, n_max: int, budget: int | None = None
) -> WittElement:
    """exp(sum #X(F_{q^n}) t^n / n) truncated at t^{n_max}."""
    return WittElement(exp_from_traces(point_counts(v, n_max, budget)))


def closed_points(v: VarietySpec, d_max: int, budget: int | None = None) -> list[int]:
    """B_d = (1/d) sum_{e|d} mu(d/e) #X(F_{q^e}) for d = 1..d_max."""
    if d_max < 1:
        raise PreconditionError("d_max must be >= 1")
    counts = point_counts(v, d_max, budget)
    out = []
    for d in range(1, d_max + 1):
        acc = sum(mobius(d // e) * counts[e - 1] for e in range(1, d + 1) if d % e == 0)
        if acc % d != 0 or acc < 0:
            raise ValidationError(f"closed-point count B_{d} = {acc}/{d} is not valid")
        out.append(acc // d)
    return out


def euler_product_series(b_counts: Sequence[int], precision: int) -> TruncatedSeries:
    """prod_d (1 - t^d)^{-B_d} truncated at t^precision: an independent
    route to the zeta series, kept apart from exp_from_traces so that
    tests can compare the two."""
    result = TruncatedSeries.one(precision)
    for d, b in enumerate(b_counts, start=1):
        if d > precision:
            break
        # (1 - t^d)^{-b} = sum_k C(b+k-1, k) t^{dk}
        coeffs = [Fraction(0)] * (precision + 1)
        for k in range(0, precision // d + 1):
            coeffs[d * k] = Fraction(math.comb(b + k - 1, k))
        result = result * TruncatedSeries(coeffs)
    return result


@dataclass
class WeilReport:
    stabilized: bool
    profile: list[int]
    counts: list[int]
    zeta: RationalFunction | None = None
    e_degree: int | None = None
    functional_equation_holds: bool = False
    sign: int | None = None
    rh_holds: bool = False
    reciprocal_root_moduli: list[float] = field(default_factory=list)
    smooth_proper_assumed: bool = True
    note: str | None = None


def weil_check(
    v: VarietySpec, dim: int, n_max: int, budget: int | None = None
) -> WeilReport:
    """Reconstruct Z_X from counts and verify rationality, the functional
    equation Z(1/(q^dim t)) = +- t^E q^{dim E/2} Z(t), and the expected
    reciprocal-root magnitudes q^{i/2}, read from the certified roots of
    the square-free factors of the reconstructed numerator and denominator,
    each repeated by its exact multiplicity."""
    counts = point_counts(v, n_max, budget)
    rec = traces_to_zeta(counts)
    if isinstance(rec, NotStabilized):
        return WeilReport(stabilized=False, profile=rec.profile, counts=counts, note=rec.reason)
    zeta = rec.value
    e_deg = -zeta.degree
    q = v.q

    sign = note = None
    if (dim * e_deg) % 2 != 0:
        note = "dim*E odd: functional equation constant is irrational"
    else:
        lhs = zeta.substitute_reciprocal(scale=Fraction(q) ** dim)
        ratio = lhs / (_monomial(Fraction(q) ** (dim * e_deg // 2), e_deg) * zeta)
        sign = next((s for s in (1, -1) if ratio == s), None)
    fe_holds = sign is not None

    roots = [r for poly in (zeta.num, zeta.den) for r, mult in _poly_roots_certified(poly) for _ in range(mult)]
    moduli = [1.0 / abs(r) for r in roots]
    grid = [q ** (i / 2.0) for i in range(0, 2 * dim + 1)]
    rh = all(any(abs(m - g) <= 1e-9 * (1 + g) for g in grid) for m in moduli)
    return WeilReport(
        stabilized=True,
        zeta=zeta,
        e_degree=e_deg,
        functional_equation_holds=fe_holds,
        sign=sign,
        rh_holds=rh,
        reciprocal_root_moduli=sorted(moduli),
        profile=rec.profile,
        counts=counts,
        note=note,
    )
