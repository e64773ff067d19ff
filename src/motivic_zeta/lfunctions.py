"""Non-abelian L-functions and orbifold zeta functions via fixed-point
counting.

A finite group acts on a variety through matrices over the base field;
that each element maps the variety into itself is proved by algebra at
construction (F(g x) in the span of the equations), with no points.
L-series coefficients are averages (1/|G|) sum_g chi(g^{-1}) N_n(g) of
twisted point counts, with character values kept exact in the cyclotomic
field Q(zeta_m) = Q[x]/(Phi_m), in coordinates over 1, x, ..,
x^(phi(m)-1).  Each N_n(g), and each count N_n(h; fix g) of the orbifold
routes, is an ordinary count of a descended variety over F_{q^n}
(varieties._twisted), as cheap as an untwisted count of the same size;
a route hands all its (element, n) counts, each once, to varieties._counts,
which prices every one before it counts any.  The orbifold
zeta function is computed along two independent routes, a direct trace
formula summed over conjugacy classes and centralizers and the
commuting-pairs sum over the whole group, and the two are compared.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, ValidationError
from .exact_core import Polynomial, _frac
from .gf import FqElement, mobius
from .series import TruncatedSeries, WittElement, exp_from_traces
from .varieties import VarietySpec, _counts, _equations, _fixer_equations, _mat_mul, _normalize_matrix, _preserves, _twisted


@functools.cache
def _cyclotomic_fold(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(m), the nonzero terms (j, a_j) of x^phi(m) = sum_j a_j x^j mod
    Phi_m).  Phi_m is the product of (x^d - 1)^mu(m/d) over d | m: the
    factors with mu = 1 are multiplied out first, so that each division by
    a factor with mu = -1 is exact."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    f = [1]
    for d in divisors:
        if mobius(m // d) == 1:
            f = [(f[i - d] if i >= d else 0) - (f[i] if i < len(f) else 0) for i in range(len(f) + d)]
    for d in divisors:
        if mobius(m // d) == -1:
            q: list[int] = []
            for i in range(len(f) - d):  # f = q (x^d - 1)
                q.append((q[i - d] if i >= d else 0) - f[i])
            f = q
    phi = len(f) - 1
    return phi, tuple((j, -c) for j, c in enumerate(f[:phi]) if c)


def _fold(m: int, coeffs) -> tuple[Fraction, ...]:
    """Coordinates over 1, x, .. reduced mod Phi_m to phi(m) coordinates,
    each term of degree phi(m) or more folded through x^phi(m) mod Phi_m
    from the top down."""
    phi, terms = _cyclotomic_fold(m)
    low = list(coeffs) + [Fraction(0)] * (phi - len(coeffs))
    for k in range(len(low) - 1, phi - 1, -1):
        c = low[k]
        if c:
            for j, a in terms:
                low[k - phi + j] += c * a
    return tuple(low[:phi])


@dataclass(frozen=True)
class Cyclotomic:
    """Element of Q(zeta_m) = Q[x]/(Phi_m), x a primitive m-th root of
    unity.  The constructor takes up to m coordinates over 1, x, x^2, ..
    and folds them mod Phi_m, so coeffs holds phi(m) coordinates over the
    basis 1, x, .., x^(phi(m)-1), and equality and rationality are exact.
    Results come from the constructor, a product folded first: its
    2 phi(m) - 1 coordinates may be more than m."""

    m: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.m < 1 or len(self.coeffs) > self.m:
            raise ValidationError("a cyclotomic element has an order m >= 1 and at most m coordinates")
        object.__setattr__(self, "coeffs", _fold(self.m, self.coeffs))

    @staticmethod
    def rational(x, m: int = 1) -> "Cyclotomic":
        return Cyclotomic(m, (_frac(x),))

    @staticmethod
    def root_of_unity(j: int, m: int) -> "Cyclotomic":
        coeffs = [Fraction(0)] * m
        coeffs[j % m] = Fraction(1)
        return Cyclotomic(m, tuple(coeffs))

    def _match(self, other: "Cyclotomic"):
        if self.m != other.m:
            raise ValidationError("cyclotomic orders differ")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._match(other)
        return Cyclotomic(self.m, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.m, tuple([-a for a in self.coeffs]))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self + (-other)

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.m, tuple([a * other for a in self.coeffs]))
        self._match(other)
        return Cyclotomic(self.m, _fold(self.m, (Polynomial(self.coeffs) * Polynomial(other.coeffs)).coeffs))

    __rmul__ = __mul__

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError("value is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * k / self.m)
            for k, c in enumerate(self.coeffs)
        )


Matrix = tuple[tuple[FqElement, ...], ...]


class GroupAction:
    """A finite matrix group acting on a variety.

    Closure, the identity matrix, inverses (so every element is invertible)
    and preservation of the variety are verified at construction.
    Preservation is checked by algebra, with no points: each F(g x) must
    lie in the span of the equations (see varieties._preserves), which
    proves it but can refuse an action that does preserve the variety.
    """

    def __init__(self, variety: VarietySpec, matrices: Sequence):
        self.variety = variety
        if not isinstance(matrices, (list, tuple)):
            raise ValidationError("a group action is a list of matrices")
        elems = [_normalize_matrix(variety, g) for g in matrices]
        if len(set(elems)) != len(elems):
            raise ValidationError("duplicate group elements")
        index = {g: i for i, g in enumerate(elems)}
        self.elements: list[Matrix] = elems
        n = len(elems)
        table = [[0] * n for _ in range(n)]
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                prod = _mat_mul(a, b)
                if prod not in index:
                    raise ValidationError("matrices are not closed under product")
                table[i][j] = index[prod]
        self.table = table
        # a finite group of invertible matrices holds the identity matrix;
        # a singular idempotent can act as the table's identity instead
        nv = variety.num_vars
        ident = index.get(_normalize_matrix(variety, [[int(i == j) for j in range(nv)] for i in range(nv)]))
        if ident is None:
            raise ValidationError("group elements must be invertible: the identity matrix is not among them")
        self.identity_index = ident
        self.inverse = [next((j for j in range(n) if table[i][j] == ident), None) for i in range(n)]
        if None in self.inverse:
            raise ValidationError("an element has no inverse: the matrices are not a group")
        self.element_orders = [self._order(i) for i in range(n)]
        if not all(_preserves(variety, g) for g in elems):
            raise ValidationError(
                "could not verify that every group element preserves the variety: "
                "some F(g x) is not in the span of the equations"
            )
        self._build_classes()

    def __len__(self):
        return len(self.elements)

    def _order(self, i: int) -> int:
        j, r = i, 1
        while j != self.identity_index:
            j = self.table[j][i]
            r += 1
        return r

    def _build_classes(self):
        n = len(self.elements)
        seen = [False] * n
        self.class_reps: list[int] = []
        self.class_of = [0] * n
        for i in range(n):
            if seen[i]:
                continue
            rep = len(self.class_reps)
            orbit = {self.table[self.table[h][i]][self.inverse[h]] for h in range(n)}
            for j in orbit:
                seen[j] = True
                self.class_of[j] = rep
            self.class_reps.append(min(orbit))
        self.centralizers = [
            [h for h in range(n) if self.table[h][g] == self.table[g][h]]
            for g in self.class_reps
        ]


def check_root_order(action: GroupAction, m: int) -> None:
    """Refuse a root order m above the exponent of the group, the lcm of
    its element orders: every character value lies in Q(zeta_exponent),
    and a larger m only makes each product cost more (phi(m)^2)."""
    exponent = math.lcm(*action.element_orders)
    if m > exponent:
        raise ValidationError(f"character root order {m} exceeds the group exponent {exponent}")


@dataclass(frozen=True)
class Character:
    """A class function on a group action, valued in Q(zeta_m).

    values[k] is the value on the k-th conjugacy class.
    """

    m: int
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        for val in self.values:
            if val.m != self.m:
                raise ValidationError("character values must share the root order")

    def check_against(self, action: GroupAction):
        check_root_order(action, self.m)
        if len(self.values) != len(action.class_reps):
            raise ValidationError("one value per conjugacy class required")
        dim = self.values[action.class_of[action.identity_index]]
        if not dim.is_rational():
            raise ValidationError("chi(e) must be rational")
        d = dim.rational_value()
        if d.denominator != 1 or d <= 0:
            raise ValidationError("chi(e) must be a positive integer")

    def value_on_element(self, action: GroupAction, i: int) -> Cyclotomic:
        return self.values[action.class_of[i]]


def trivial_character(action: GroupAction) -> Character:
    return Character(1, tuple(Cyclotomic.rational(1) for _ in action.class_reps))


def rational_character(action: GroupAction, values: Sequence) -> Character:
    return Character(1, tuple(Cyclotomic.rational(x) for x in values))


@dataclass
class LSeries:
    """Truncated L-series with cyclotomic-rational coefficients."""

    m: int
    coeffs: tuple[Cyclotomic, ...]  # t^0 .. t^precision

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def to_truncated_series(self) -> TruncatedSeries:
        return TruncatedSeries([c.rational_value() for c in self.coeffs])

    def to_json(self) -> dict:
        if self.is_rational():
            return self.to_truncated_series().to_json()
        return {
            "m": self.m,
            "precision": self.precision,
            "coeffs": self.coeffs,
        }


def _exp_cyclotomic(traces: Sequence[Cyclotomic], m: int) -> list[Cyclotomic]:
    """exp(sum a_n t^n / n) with coefficients in Q(zeta_m).  Kept
    apart from series.exp_from_traces, which runs over Q: sharing that
    kernel would make it branch on the caller's ring."""
    n = len(traces)
    out = [Cyclotomic.rational(1, m)]
    a = [Cyclotomic.rational(0, m)] + list(traces)
    for k in range(1, n + 1):
        acc = Cyclotomic.rational(0, m)
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(acc * Fraction(1, k))
    return out


def l_function(
    v: VarietySpec,
    action: GroupAction,
    character: Character,
    n_max: int,
    budget: int | None = None,
) -> LSeries:
    """exp(sum_n (1/|G|) sum_g chi(g^{-1}) N_n(g) t^n / n) where N_n(g) is
    the twisted fixed-point count of g composed with Fr^n.  v must be the
    variety the action was built on, which proved that it is preserved."""
    if v != action.variety:
        raise ValidationError("the action was built on another variety than v")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    character.check_against(action)
    m = character.m
    size = len(action)
    eqs = _equations(v, budget)
    counts = _counts((_twisted(v, g, eqs, n, budget) for n in range(1, n_max + 1) for g in action.elements), budget)
    chi = [character.value_on_element(action, action.inverse[i]) for i in range(size)]
    traces = [
        sum((c * x for c, x in zip(chi, counts[k * size : (k + 1) * size])), Cyclotomic.rational(0, m)) * Fraction(1, size)
        for k in range(n_max)
    ]
    return LSeries(m, tuple(_exp_cyclotomic(traces, m)))


@dataclass
class OrbifoldReport:
    direct: WittElement
    product: WittElement
    routes_agree: bool
    traces: list[Fraction]


def orbifold_zeta(
    v: VarietySpec, action: GroupAction, n_max: int, budget: int | None = None
) -> OrbifoldReport:
    """Zeta function of the quotient orbifold along two routes that must
    agree: the direct trace formula, summed over conjugacy classes and
    their centralizers, and the commuting-pairs formula
    (1/|G|) sum over all g, h with gh = hg of N_n(h; fix g), which reads
    commutation from the multiplication table alone.  v must be the
    variety the action was built on."""
    if v != action.variety:
        raise ValidationError("the action was built on another variety than v")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if len(action) % v.p == 0:
        raise ValidationError("group order must be invertible in the base field")

    ns = range(1, n_max + 1)
    size, table = len(action), action.table
    pairs = [(g, h) for g in range(size) for h in range(size) if table[g][h] == table[h][g]]
    # the keys (h, g, n) of N_n(h; fix g) in the order the two routes read them
    keys = [(h, g, n) for g, cent in zip(action.class_reps, action.centralizers) for n in ns for h in cent]
    keys = list(dict.fromkeys(keys + [(h, g, n) for n in ns for g, h in pairs]))
    eqs = _equations(v, budget)
    fixed = [eqs + _fixer_equations(v, g) for g in action.elements]
    requests = (_twisted(v, action.elements[h], fixed[g], n, budget) for h, g, n in keys)
    count = dict(zip(keys, _counts(requests, budget)))
    class_terms = [
        [Fraction(sum(count[h, g, n] for h in cent), len(cent)) for n in ns]
        for g, cent in zip(action.class_reps, action.centralizers)
    ]
    traces = [sum(column) for column in zip(*class_terms)]
    pair_traces = [Fraction(sum(count[h, g, n] for g, h in pairs), size) for n in ns]

    direct = WittElement(exp_from_traces(traces))
    product = WittElement(exp_from_traces(pair_traces))
    return OrbifoldReport(
        direct=direct,
        product=product,
        routes_agree=(direct == product),
        traces=traces,
    )
