"""Truncated power series over Q and the big Witt ring W(Q).

A series tracks its truncation order N (coefficients 0..N are exact,
O(t^{N+1}) is unknown); binary operations truncate to the smaller N.
Witt elements are series with constant term 1.  Witt addition is the
plain series product; Witt multiplication goes through the ghost map
(pointwise product of ghost components), which is an isomorphism here
because the coefficients form a Q-algebra.  Every move between a trace
(ghost) sequence and a series goes through one of two kernels, both
Newton's identities run over the integers with `Fraction`s made only of
their outputs: `exp_from_traces` (traces to a zeta series, ghosts to a
Witt element) and `series_log` (a series to its ghost components).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .errors import PrecisionError, PreconditionError, ValidationError
from .exact_core import Polynomial, RationalFunction, _frac, _integral, _json_list, frac_to_str

DEFAULT_PRECISION = 16


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(_frac(c) for c in coeffs)
        if not cs:
            raise ValidationError("a truncated series needs at least coefficient 0")
        self.coeffs = cs

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def one(precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries([1] + [0] * precision)

    @staticmethod
    def zero(precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries([0] * (precision + 1))

    def __getitem__(self, i: int) -> Fraction:
        if i > self.precision:
            raise PrecisionError(f"coefficient {i} beyond precision {self.precision}")
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise PrecisionError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: precision + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.precision, other.precision)
        return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        n = min(self.precision, other.precision)
        out = []
        for k in range(n + 1):
            out.append(
                sum(
                    (self.coeffs[i] * other.coeffs[k - i] for i in range(k + 1)),
                    Fraction(0),
                )
            )
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {
            "precision": self.precision,
            "coeffs": [frac_to_str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "TruncatedSeries":
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValidationError(f"a series is an object with a 'coeffs' list, got {data!r}")
        s = TruncatedSeries([_frac(c) for c in _json_list(data["coeffs"], "coeffs")])
        if s.precision != data.get("precision", s.precision):
            raise ValidationError("precision field disagrees with coefficient count")
        return s

    @staticmethod
    def from_rational_function(
        rf: RationalFunction, precision: int = DEFAULT_PRECISION
    ) -> "TruncatedSeries":
        return TruncatedSeries(rf.taylor(precision))

    @staticmethod
    def from_polynomial(p: Polynomial, precision: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        return TruncatedSeries([p[i] for i in range(precision + 1)])

    def __repr__(self):
        return f"TruncatedSeries({[frac_to_str(c) for c in self.coeffs]})"


def series_log(s: TruncatedSeries) -> TruncatedSeries:
    """log(s) for s with constant term 1, to the same precision.

    With p_k = k [t^k] log s, Newton's identities read
    p_k = k s_k - sum_j s_j p_(k-j).  With D the lcm of the denominators of
    s and S_j = D*s_j, the recurrence runs on the integers P_k = D^k p_k:
    P_k = k D^(k-1) S_k - sum_j S_j D^(j-1) P_(k-j), in Horner form."""
    if s.coeffs[0] != 1:
        raise PreconditionError("series_log requires constant term 1")
    a, d = _integral(s.coeffs)
    big = [0]
    out = [Fraction(0)]
    scale = 1  # D^k
    for k in range(1, len(a)):
        acc = k * a[k]
        for j in range(k - 1, 0, -1):
            acc = d * acc - a[j] * big[k - j]
        big.append(acc)
        scale *= d
        out.append(Fraction(acc, k * scale))
    return TruncatedSeries(out)


def exp_from_traces(traces: Sequence) -> TruncatedSeries:
    """exp(sum_n a_n t^n / n) at precision len(traces), from a_1, a_2, ...

    The coefficients satisfy k*b_k = sum_j a_j b_(k-j).  With D the lcm of
    the trace denominators and A_j = D*a_j, the recurrence runs on integer
    numerators N_k = E*b_k over one common denominator E: b_k is S/(kDE)
    with S = sum_j A_j N_(k-j), and E is multiplied only by kD/gcd(S, kD),
    the part of kD that does not divide S (every earlier numerator with it).
    When every b_k is an integer, as for the point counts of a variety, kD
    divides S and E stays 1."""
    a, d = _integral([_frac(t) for t in traces])
    num, den = [1], 1
    for k in range(1, len(a) + 1):
        s = sum(map(mul, a[:k], reversed(num)))
        c = gcd(s, k * d)
        if c != k * d:
            f = k * d // c
            num = [x * f for x in num]
            den *= f
        num.append(s // c)
    return TruncatedSeries([Fraction(x, den) for x in num])


class WittElement:
    """Element of W(Q) = (1 + t Q[[t]], x, *), truncated."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.coeffs[0] != 1:
            raise ValidationError("Witt elements have constant term 1")
        self.series = series

    @property
    def precision(self) -> int:
        return self.series.precision

    @staticmethod
    def one_geometric(precision: int = DEFAULT_PRECISION) -> "WittElement":
        """1/(1-t): the multiplicative unit for *."""
        return WittElement(TruncatedSeries([1] * (precision + 1)))

    @staticmethod
    def zero(precision: int = DEFAULT_PRECISION) -> "WittElement":
        """The constant series 1: the additive zero of W(Q)."""
        return WittElement(TruncatedSeries.one(precision))

    def __eq__(self, other) -> bool:
        return isinstance(other, WittElement) and self.series == other.series

    def __hash__(self):
        return hash(self.series)

    def to_json(self) -> dict:
        return self.series.to_json()

    @staticmethod
    def from_json(data: dict) -> "WittElement":
        return WittElement(TruncatedSeries.from_json(data))

    def __repr__(self):
        return f"WittElement({self.series!r})"


def witt_add(a: WittElement, b: WittElement) -> WittElement:
    return WittElement(a.series * b.series)


def ghost_components(a: WittElement, n_max: int) -> list[Fraction]:
    """gh_n for n = 1..n_max; gh_n = n * [t^n] log(a)."""
    if n_max > a.precision:
        raise PrecisionError(
            f"ghost components to {n_max} need precision >= {n_max}, have {a.precision}"
        )
    lg = series_log(a.series)
    return [n * lg.coeffs[n] for n in range(1, n_max + 1)]


def ghost_to_witt(ghosts: Sequence) -> WittElement:
    """Inverse of ghost_components: the Witt element with the given ghosts."""
    return WittElement(exp_from_traces(ghosts))


def witt_mul(a: WittElement, b: WittElement) -> WittElement:
    n = min(a.precision, b.precision)
    ga = ghost_components(a, n)
    gb = ghost_components(b, n)
    return ghost_to_witt([x * y for x, y in zip(ga, gb)])
