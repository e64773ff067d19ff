"""Arithmetic geometry over finite fields by enumeration.

Varieties are given by integer-coefficient equations in an affine or
projective ambient space over F_{p^e}.  Counting goes chart by chart over
normalized point representatives (projective: first nonzero coordinate
= 1).  Charts cut out by no equations are counted in closed form; a
chart with a single equation of degree 1 or 2 in some free variable
enumerates the remaining variables and counts roots (discriminant
squares in odd characteristic, an absolute trace in characteristic 2);
everything else is exhaustive.  All enumeration runs through one
iterator over chunks of assignments, each variable an array of packed
field elements, evaluated with gfvec: on exp/log/Zech tables once the
field is enumerated over at least q rows (q <= 10^7), on base-p digits
otherwise (one-row charts, larger fields).  Enumeration work is metered
against a budget (default 10^7 assignments, env MOTIVIC_ZETA_BUDGET or
per-call override).

Twisted counts #{x : g(Fr^n(x)) = x} enumerate X(F_{q^{n ord(g)}}) on
the same charts and test the twist condition row by row: Fr^n is the
power x^(q^n), and g multiplies by its entries as one-row constants.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    PreconditionError,
    ResourceError,
    ValidationError,
)
from .exact_core import Polynomial, RationalFunction
from .gf import FqElement, FqField, fq_make, is_prime
from .gfvec import CHUNK, VecField, vec_field
from .reconstruct import NotStabilized, traces_to_zeta
from .series import TruncatedSeries, WittElement, exp_from_traces

DEFAULT_BUDGET = 10_000_000


def resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get("MOTIVIC_ZETA_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


class BudgetTracker:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int):
        if self.used + amount > self.limit:
            raise ResourceError(
                f"enumeration of {self.used + amount} assignments exceeds "
                f"budget {self.limit}",
                required=self.used + amount,
                budget=self.limit,
            )
        self.used += amount


Term = tuple[tuple[int, ...], int]  # exponent vector, integer coefficient


@dataclass(frozen=True)
class VarietySpec:
    """ambient_kind 'projective' or 'affine'; equations are tuples of
    (exponent vector, integer coefficient) terms."""

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
                if coeff % self.p != 0:
                    degrees.add(sum(exps))
            if self.ambient_kind == "projective" and len(degrees) > 1:
                raise ValidationError("projective equations must be homogeneous")

    @property
    def num_vars(self) -> int:
        return self.ambient_dim + (1 if self.ambient_kind == "projective" else 0)

    @property
    def base_field(self) -> FqField:
        return fq_make(self.p, self.e)

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
                [[list(exps), coeff] for exps, coeff in eq] for eq in self.equations
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "VarietySpec":
        """Parse {"ambient": {"projective" or "affine": dim}, "p": p, "e": e,
        "equations": [...]}.  Malformed input, including a coefficient or
        exponent that is not an integer, raises ValidationError."""
        if not isinstance(data, dict) or "p" not in data:
            raise ValidationError("a variety is a JSON object with 'ambient' and 'p'")
        ambient = data.get("ambient")
        if not (isinstance(ambient, dict) and len(ambient) == 1 and set(ambient) <= {"projective", "affine"}):
            raise ValidationError('ambient must be {"projective": dim} or {"affine": dim}')
        ((kind, dim),) = ambient.items()
        raw = data.get("equations", [])
        try:
            # accept either a list of equations (each a list of [exps, coeff]
            # terms) or a single flat equation as a list of terms, whose
            # first entry starts with an exponent vector, not a term
            if raw and raw[0] and not any(isinstance(x, (list, tuple)) for x in raw[0][0]):
                raw = [raw]
            eqs = tuple(
                tuple((tuple(_json_int(x, "exponent") for x in exps), _json_int(coeff, "coefficient")) for exps, coeff in eq)
                for eq in raw
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise ValidationError(f"equations must be lists of [exponent_vector, coefficient] terms: {exc}")
        return VarietySpec(
            kind,
            _json_int(dim, "ambient dimension"),
            _json_int(data["p"], "p"),
            _json_int(data.get("e", 1), "e"),
            eqs,
        )


def _json_int(x, what: str) -> int:
    """x itself if it is an int; floats, bools and strings are refused,
    not coerced."""
    if type(x) is not int:
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def projective_space(n: int, p: int, e: int = 1) -> VarietySpec:
    return VarietySpec("projective", n, p, e, ())


def affine_space(n: int, p: int, e: int = 1) -> VarietySpec:
    return VarietySpec("affine", n, p, e, ())


# --- charts ---


def _charts(v: VarietySpec):
    """Yield (fixed, free, eqs) per chart.  fixed maps a variable index to
    0 or 1 (projective: the first nonzero coordinate is 1), free lists the
    free variable indices and eqs holds the equations restricted to the
    chart, identically zero ones dropped.  Charts on which an equation is
    a nonzero constant have no points and are skipped."""
    nv = v.num_vars
    if v.ambient_kind == "affine":
        layouts = [({}, list(range(nv)))]
    else:
        layouts = [({**{j: 0 for j in range(i)}, i: 1}, list(range(i + 1, nv))) for i in range(nv)]
    for fixed, free in layouts:
        eqs = []
        for eq in v.equations:
            s = _specialize(eq, fixed, free, v.p)
            if s is None:
                continue
            if list(s) == [(0,) * len(free)]:
                break  # a nonzero constant
            eqs.append(s)
        else:
            yield fixed, free, eqs


def _specialize(eq, fixed: dict, free: list[int], p: int):
    """Restrict an equation to a chart; returns terms over the free
    variables as {reduced exponent vector: coeff mod p} or None when the
    equation is identically zero on the chart."""
    acc: dict[tuple[int, ...], int] = {}
    for exps, coeff in eq:
        c = coeff % p
        if c == 0:
            continue
        if any(exps[j] > 0 and fixed[j] == 0 for j in fixed):
            continue  # a zeroed variable kills the term
        key = tuple(exps[j] for j in free)
        acc[key] = (acc.get(key, 0) + c) % p
    acc = {k: c for k, c in acc.items() if c != 0}
    return acc if acc else None


# --- enumeration ---


def _assignments(vf: VecField, f: int):
    """The q^f assignments of f free variables in lexicographic order, in
    chunks of at most CHUNK rows: yields (rows, one digit array per
    variable).  With f = 0 there is one, empty, assignment."""
    total = vf.q**f
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        yield stop - start, vf.digits_of_range(start, stop, f)


def _evaluate(vf: VecField, polys, values, rows: int) -> list:
    """Each polynomial ({exponent vector: coefficient mod p}) at every row
    of values; powers of a variable are shared across all terms."""
    pows = {}
    out = []
    for terms in polys:
        acc = vf.zeros(rows)
        for exps, coeff in terms.items():
            val = None
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in pows:
                        pows[i, e] = vf.power(values[i], e)
                    val = pows[i, e] if val is None else vf.mul(val, pows[i, e])
            if val is None:
                val = vf.const(coeff)
            elif coeff != 1:
                val = vf.scale(val, coeff)
            acc = vf.add(acc, val)
        out.append(acc)
    return out


def _vanish(vf: VecField, eqs, values, rows: int):
    """Mask of the rows where every equation vanishes."""
    mask = np.broadcast_to(True, (rows,))
    for val in _evaluate(vf, eqs, values, rows):
        mask = mask & vf.is_zero(val)
    return mask


def _chart_points(vf: VecField, v: VarietySpec, fixed: dict, free: list[int], eqs):
    """Per chunk of a chart's assignments: (rows, the coordinates of every
    variable with fixed ones as one-row constants, mask of the solutions)."""
    consts = {i: vf.const(c) for i, c in fixed.items()}
    for rows, values in _assignments(vf, len(free)):
        coords = {**consts, **dict(zip(free, values))}
        yield rows, [coords[i] for i in range(v.num_vars)], _vanish(vf, eqs, values, rows)


# --- point counts ---


def _pick_quadratic_var(terms: dict, f: int) -> int | None:
    """Index of a free variable the equation is degree 1-2 in, or None."""
    for j in range(f):
        degs = {exps[j] for exps in terms}
        if max(degs) in (1, 2):
            return j
    return None


def _chart_count(vf: VecField, eqs, f: int, tracker: BudgetTracker) -> int:
    """Solutions in F_q^f of a chart's equations: in closed form without
    equations, by the quadratic shortcut for one equation of degree 1-2 in
    a free variable, else exhaustively."""
    q = vf.q
    if not eqs:
        return q**f
    if len(eqs) == 1:
        j = _pick_quadratic_var(eqs[0], f)
        if j is not None:
            tracker.charge(q ** (f - 1))
            return _quadratic_count(vf, eqs[0], f, j)
    tracker.charge(q**f)
    return sum(int(np.count_nonzero(_vanish(vf, eqs, values, rows))) for rows, values in _assignments(vf, f))


def _quadratic_count(vf: VecField, terms: dict, f: int, j: int) -> int:
    """Solutions of one equation a v^2 + b v + c = 0, v the free variable
    j: the roots in v summed over the q^(f-1) assignments of the others."""
    q = vf.q
    by_degree = [{}, {}, {}]
    for exps, coeff in terms.items():
        by_degree[exps[j]][exps[:j] + exps[j + 1 :]] = coeff
    total = 0
    for rows, values in _assignments(vf, f - 1):
        c, b, a = _evaluate(vf, by_degree, values, rows)
        a0, b0, c0 = vf.is_zero(a), vf.is_zero(b), vf.is_zero(c)
        total += int(np.count_nonzero(a0 & ~b0)) + q * int(np.count_nonzero(a0 & b0 & c0))
        if not by_degree[2]:
            continue
        if vf.p == 2:
            # v = (b/a) w turns the equation into w^2 + w = ac/b^2, which has
            # two roots when the absolute trace of ac/b^2 is 0 and none else
            one = b0
            inv_b2 = vf.power(vf.mul(b, b), q - 2)
            two = ~b0 & (vf.trace(vf.mul(vf.mul(a, c), inv_b2)) == 0)
        else:
            disc = vf.sub(vf.mul(b, b), vf.scale(vf.mul(a, c), 4))
            one = vf.is_zero(disc)
            two = vf.is_square(disc)
        total += int(np.count_nonzero(~a0 & one)) + 2 * int(np.count_nonzero(~a0 & two))
    return total


def count_points(v: VarietySpec, n: int, budget: int | None = None) -> int:
    """#X(F_{q^n}) by chart-wise enumeration of normalized representatives."""
    if n < 1:
        raise PreconditionError("extension degree must be >= 1")
    vf = vec_field(fq_make(v.p, v.e * n))
    tracker = BudgetTracker(resolve_budget(budget))
    return sum(_chart_count(vf, eqs, len(free), tracker) for _, free, eqs in _charts(v))


def enumerate_points(v: VarietySpec, n: int = 1, budget: int | None = None):
    """Normalized point representatives over F_{q^n}, chart by chart in
    lexicographic order of the free coordinates (desk scale only)."""
    vf = vec_field(fq_make(v.p, v.e * n))
    tracker = BudgetTracker(resolve_budget(budget))
    points = []
    for fixed, free, eqs in _charts(v):
        tracker.charge(vf.q ** len(free))
        for _, coords, mask in _chart_points(vf, v, fixed, free, eqs):
            index = np.flatnonzero(mask)
            columns = [vf.elements(c, index) for c in coords]
            points += [tuple(col[i] for col in columns) for i in range(len(index))]
    return points


# --- group elements and twisted counts ---


def _normalize_matrix(v: VarietySpec, g) -> tuple[tuple[FqElement, ...], ...]:
    base = v.base_field
    rows = []
    for row in g:
        cells = []
        for entry in row:
            if isinstance(entry, FqElement):
                if entry.field != base:
                    raise ValidationError("matrix entries must lie in the base field")
                cells.append(entry)
            else:
                cells.append(base.element(entry))
        rows.append(tuple(cells))
    m = tuple(rows)
    nv = v.num_vars
    if len(m) != nv or any(len(r) != nv for r in m):
        raise ValidationError(f"group elements must be {nv}x{nv} matrices")
    return m


def matrix_order(v: VarietySpec, g, limit: int = 10_000) -> int:
    m = _normalize_matrix(v, g)
    base = v.base_field
    nv = v.num_vars
    ident = tuple(
        tuple(base.one() if i == j else base.zero() for j in range(nv))
        for i in range(nv)
    )
    acc = m
    for r in range(1, limit + 1):
        if acc == ident:
            return r
        acc = _mat_mul(acc, m)
    raise ValidationError("matrix has no finite order within the search limit")


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), a[0][0].field.zero())
            for j in range(n)
        )
        for i in range(n)
    )


def _apply_matrix(m, coords):
    n = len(m)
    zero = coords[0].field.zero()
    embedded = m  # entries already embedded by caller
    return tuple(
        sum((embedded[i][j] * coords[j] for j in range(n)), zero) for i in range(n)
    )


def twisted_count(v: VarietySpec, g, n: int, budget: int | None = None) -> int:
    """#{x in X(F-bar) : g(Fr^n(x)) = x}; all such x lie in
    X(F_{q^{n ord(g)}})."""
    return _twisted_core(v, g, n, (), budget)


def _twisted_core(
    v: VarietySpec, g, n: int, fixers: tuple, budget: int | None
) -> int:
    """Points x over F_{q^{n ord(g)}} with g(Fr^n(x)) = x and h(x) = x for
    every h in fixers."""
    if n < 1:
        raise PreconditionError("extension degree must be >= 1")
    act = _normalize_matrix(v, g)
    big = fq_make(v.p, v.e * n * matrix_order(v, act))
    vf = vec_field(big)
    tracker = BudgetTracker(resolve_budget(budget))
    charts = list(_charts(v))
    for _, free, _ in charts:
        # charged up front, so an over-budget count is refused before any
        # work in the big field
        tracker.charge(big.q ** len(free))
    twist = _embedded(vf, v, act)
    fix = [_embedded(vf, v, _normalize_matrix(v, h)) for h in fixers]
    frobenius = v.q**n
    affine = v.ambient_kind == "affine"
    total = 0
    for fixed, free, eqs in charts:
        for _, coords, mask in _chart_points(vf, v, fixed, free, eqs):
            for m in fix:
                mask = mask & _same_point(vf, affine, _apply(vf, m, coords), coords)
            moved = _apply(vf, twist, [vf.power(x, frobenius) for x in coords])
            total += int(np.count_nonzero(mask & _same_point(vf, affine, moved, coords)))
    return total


def _embedded(vf: VecField, v: VarietySpec, m) -> list:
    """The entries of m embedded in the field of vf, as one-row constants;
    None for zero entries."""
    return [[None if x.is_zero() else vf.const(v.base_field.embed(x, vf.field)) for x in row] for row in m]


def _apply(vf: VecField, m, coords) -> list:
    """The tuple sum_j m[i][j] coords[j], i = 1..nv; entries 1 (packed
    index 1) need no product."""
    return [
        functools.reduce(vf.add, (x if c[0] == 1 else vf.mul(c, x) for c, x in zip(row, coords) if c is not None))
        for row in m
    ]


def _same_point(vf: VecField, affine: bool, a, b):
    """Rows where the coordinate tuples a and b are the same point:
    equal, or for projective points proportional."""
    nv = len(a)
    if affine:
        pairs = [(a[i], b[i]) for i in range(nv)]
    else:
        pairs = [(vf.mul(a[i], b[j]), vf.mul(a[j], b[i])) for i in range(nv) for j in range(i + 1, nv)]
    return functools.reduce(operator.and_, (vf.equal(x, y) for x, y in pairs), True)


def zeta_from_counts(
    v: VarietySpec, n_max: int, budget: int | None = None
) -> WittElement:
    """exp(sum #X(F_{q^n}) t^n / n) truncated at t^{n_max}."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    counts = [count_points(v, n, budget) for n in range(1, n_max + 1)]
    return WittElement(exp_from_traces(counts))


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def closed_points(v: VarietySpec, d_max: int, budget: int | None = None) -> list[int]:
    """B_d = (1/d) sum_{e|d} mu(d/e) #X(F_{q^e}) for d = 1..d_max."""
    if d_max < 1:
        raise PreconditionError("d_max must be >= 1")
    counts = {n: count_points(v, n, budget) for n in range(1, d_max + 1)}
    out = []
    for d in range(1, d_max + 1):
        acc = sum(_mobius(d // e) * counts[e] for e in range(1, d + 1) if d % e == 0)
        if acc % d != 0 or acc < 0:
            raise ValidationError(f"closed-point count B_{d} = {acc}/{d} is not valid")
        out.append(acc // d)
    return out


def euler_product_series(b_counts: Sequence[int], precision: int) -> TruncatedSeries:
    """prod_d (1 - t^d)^{-B_d} truncated at t^precision."""
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
    zeta: RationalFunction | None
    e_degree: int | None
    functional_equation_holds: bool
    sign: int | None
    rh_holds: bool
    reciprocal_root_moduli: list[float]
    profile: list[int]
    counts: list[int]
    smooth_proper_assumed: bool = True
    note: str | None = None

    def to_json(self) -> dict:
        out = {
            "stabilized": self.stabilized,
            "functional_equation_holds": self.functional_equation_holds,
            "rh_holds": self.rh_holds,
            "reciprocal_root_moduli": self.reciprocal_root_moduli,
            "profile": self.profile,
            "counts": self.counts,
            "smooth_proper_assumed": self.smooth_proper_assumed,
        }
        if self.zeta is not None:
            out["zeta"] = self.zeta.to_json()
            out["e_degree"] = self.e_degree
            out["sign"] = self.sign
        if self.note:
            out["note"] = self.note
        return out


def _reciprocal_root_moduli(poly: Polynomial) -> list[float]:
    if poly.degree < 1:
        return []
    coeffs = [float(poly[i]) for i in range(poly.degree, -1, -1)]
    return [1.0 / abs(r) for r in np.roots(coeffs)]


def weil_check(
    v: VarietySpec, dim: int, n_max: int, budget: int | None = None
) -> WeilReport:
    """Reconstruct Z_X from counts and verify rationality, the functional
    equation Z(1/(q^dim t)) = +- t^E q^{dim E/2} Z(t), and the expected
    reciprocal-root magnitudes q^{i/2}."""
    from .reconstruct import linear_complexity_profile

    counts = [count_points(v, n, budget) for n in range(1, n_max + 1)]
    series = exp_from_traces(counts)
    profile = linear_complexity_profile(series.coeffs)
    rec = traces_to_zeta(counts)
    if isinstance(rec, NotStabilized):
        return WeilReport(
            stabilized=False,
            zeta=None,
            e_degree=None,
            functional_equation_holds=False,
            sign=None,
            rh_holds=False,
            reciprocal_root_moduli=[],
            profile=rec.profile,
            counts=counts,
            note=rec.reason,
        )
    zeta = rec.value
    e_deg = -zeta.degree
    q = v.q

    fe_holds = False
    sign = None
    note = None
    if (dim * e_deg) % 2 != 0:
        note = "dim*E odd: functional equation constant is irrational"
    else:
        lhs = zeta.substitute_reciprocal(scale=Fraction(q) ** dim)
        factor = Fraction(q) ** (dim * e_deg // 2)
        if e_deg >= 0:
            mono = RationalFunction(Polynomial([0] * e_deg + [factor]), Polynomial.one())
        else:
            mono = RationalFunction(Polynomial([factor]), Polynomial([0] * (-e_deg) + [1]))
        ratio = lhs / (mono * zeta)
        if ratio.den == Polynomial.one() and ratio.num == Polynomial.constant(1):
            fe_holds, sign = True, 1
        elif ratio.den == Polynomial.one() and ratio.num == Polynomial.constant(-1):
            fe_holds, sign = True, -1

    moduli = _reciprocal_root_moduli(zeta.num) + _reciprocal_root_moduli(zeta.den)
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
        profile=profile,
        counts=counts,
        note=note,
    )


def artin_mazur_traces(p: int, m: int, n_max: int) -> list[int]:
    """Fixed points of the n-th iterate of x -> x^m on the projective line
    over an algebraic closure of F_p: 2 + (prime-to-p part of m^n - 1)."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if m < 2:
        raise ValidationError("power map exponent must be >= 2")
    if math.gcd(m, p) != 1:
        raise ValidationError("exponent must be coprime to the characteristic")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    out = []
    for n in range(1, n_max + 1):
        val = m**n - 1
        while val % p == 0:
            val //= p
        out.append(2 + val)
    return out
