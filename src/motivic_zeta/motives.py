"""Graded-matrix endomorphism realizations: traces, zeta functions,
determinants, duals, functional equations, direct sums and tensors.

A motive realization is a pair of square rational matrices (F+, F-).
Every invariant is read from the characteristic polynomials of the two
blocks, computed once per motive: the zeta function
det(1 - t F-) / det(1 - t F+) is reduced once and cached beside them, its
Taylor expansion is the zeta series, the graded determinant is
det(F+) / det(F-) from the constant terms, and the categorical traces
tr(F+^n) - tr(F-^n) are the ghost components of the two reversed
polynomials (series.series_log), with no matrix powers.  The polynomials,
the reduction, the expansion and the logarithm run over the integers (see
exact_core and series).  The functional-equation check takes the dual's
polynomials from matrix inverses, not from these, so it can fail.

The Artin-Mazur traces of a power map on P^1 are a trace sequence in
closed form, with no motive behind them and no points counted; they live
here, not in varieties, so that a command using them runs without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import NotInvertibleError, PreconditionError, ValidationError, charge
from .exact_core import Polynomial, RatMatrix, RationalFunction, _monomial, char_poly
from .gf import is_prime
from .reconstruct import MAX_BITS
from .series import DEFAULT_PRECISION, TruncatedSeries, WittElement, ghost_components


@dataclass(frozen=True)
class TracedMotive:
    f_plus: RatMatrix
    f_minus: RatMatrix
    label: str | None = None

    def __post_init__(self):
        if not self.f_plus.is_square() or not self.f_minus.is_square():
            raise ValidationError("both graded blocks must be square")

    @cached_property
    def char_polys(self) -> tuple[Polynomial, Polynomial]:
        """(det(t - F+), det(t - F-)), computed once per motive."""
        return char_poly(self.f_plus), char_poly(self.f_minus)

    @cached_property
    def zeta(self) -> RationalFunction:
        """det(1 - t F-) / det(1 - t F+) in lowest terms, reduced once per
        motive."""
        rp, rm = self.reversed_char_polys
        return RationalFunction(rm, rp)

    @property
    def reversed_char_polys(self) -> tuple[Polynomial, Polynomial]:
        """(det(1 - t F+), det(1 - t F-))."""
        cp, cm = self.char_polys
        return cp.reversed(self.d_plus), cm.reversed(self.d_minus)

    @property
    def d_plus(self) -> int:
        return self.f_plus.rows

    @property
    def d_minus(self) -> int:
        return self.f_minus.rows

    def euler_characteristic(self) -> int:
        """tr(id) = dim(+) - dim(-)."""
        return self.d_plus - self.d_minus

    def to_json(self) -> dict:
        out = {"f_plus": self.f_plus.to_json(), "f_minus": self.f_minus.to_json()}
        if self.label is not None:
            out["label"] = self.label
        return out

    @staticmethod
    def from_json(data: dict) -> "TracedMotive":
        """{"f_plus": matrix, "f_minus": matrix, "label": ..}; either matrix
        may be left out for an empty block, but not both."""
        if not (isinstance(data, dict) and ("f_plus" in data or "f_minus" in data)):
            raise ValidationError("a motive is a JSON object with 'f_plus' and/or 'f_minus'")
        return TracedMotive(
            RatMatrix.from_json(data.get("f_plus", [])),
            RatMatrix.from_json(data.get("f_minus", [])),
            data.get("label"),
        )

    @staticmethod
    def empty() -> "TracedMotive":
        return TracedMotive(RatMatrix.empty(), RatMatrix.empty())

    @staticmethod
    def unit() -> "TracedMotive":
        """Monoidal unit: identity on a (1|0)-dimensional space."""
        return TracedMotive(RatMatrix.identity(1), RatMatrix.empty())


@dataclass(frozen=True)
class TraceSequence:
    values: tuple[Fraction, ...]  # index n = 1..n_max

    def __getitem__(self, n: int) -> Fraction:
        if n < 1 or n > len(self.values):
            raise ValidationError(f"trace index {n} out of range")
        return self.values[n - 1]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def trace_sequence(m: TracedMotive, n_max: int) -> TraceSequence:
    """tr(F+^n) - tr(F-^n) for n = 1..n_max: the ghost components of
    det(1 - t F-) minus those of det(1 - t F+), since the n-th ghost
    component of det(1 - t F) is -tr(F^n)."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    plus, minus = (
        ghost_components(WittElement(TruncatedSeries.from_polynomial(r, n_max)), n_max)
        for r in m.reversed_char_polys
    )
    return TraceSequence(tuple(b - a for a, b in zip(plus, minus)))


def zeta_series(m: TracedMotive, precision: int = DEFAULT_PRECISION) -> WittElement:
    if precision < 1:
        raise PreconditionError("precision must be >= 1")
    return WittElement(TruncatedSeries.from_rational_function(zeta_rational(m), precision))


def zeta_rational(m: TracedMotive) -> RationalFunction:
    """det(1 - t F-) / det(1 - t F+), in lowest terms; cached on m."""
    return m.zeta


def zeta_degrees(m: TracedMotive) -> tuple[int, int]:
    """(uncancelled degree, reduced degree).

    The uncancelled degree is always -(d+ - d-) = -tr(id); the reduced
    degree can differ when F+ and F- share eigenvalues and the ratio
    cancels.
    """
    return -m.euler_characteristic(), zeta_rational(m).degree


def determinant(m: TracedMotive) -> Fraction:
    """det(F+) / det(F-); the graded determinant of the realization."""
    cp, cm = m.char_polys
    dp = (-1) ** m.d_plus * cp[0]
    dm = (-1) ** m.d_minus * cm[0]
    if dp == 0 or dm == 0:
        raise NotInvertibleError("determinant needs both blocks invertible")
    return dp / dm


def dual_inverse(m: TracedMotive) -> TracedMotive:
    """Realization of (f^{-1})^dual: inverse-transpose blockwise."""
    try:
        fp = m.f_plus.inverse().transpose()
        fm = m.f_minus.inverse().transpose()
    except NotInvertibleError:
        raise NotInvertibleError("dual_inverse needs both blocks invertible")
    label = None if m.label is None else f"dual_inverse({m.label})"
    return TracedMotive(fp, fm, label)


@dataclass
class FunctionalEquationReport:
    holds: bool
    trace_of_identity: int
    det_value: Fraction
    lhs: RationalFunction
    rhs: RationalFunction


def check_functional_equation(m: TracedMotive) -> FunctionalEquationReport:
    """Z((f^{-1})^dual; 1/t) = (-t)^{tr(id)} det(f) Z(f;t), exactly in Q(t)."""
    dual = dual_inverse(m)
    lhs = zeta_rational(dual).substitute_reciprocal()
    e = m.euler_characteristic()
    d = determinant(m)
    rhs = _monomial(Fraction(-1) ** abs(e), e) * d * zeta_rational(m)
    return FunctionalEquationReport(
        holds=(lhs == rhs),
        trace_of_identity=e,
        det_value=d,
        lhs=lhs,
        rhs=rhs,
    )


def direct_sum(a: TracedMotive, b: TracedMotive) -> TracedMotive:
    return TracedMotive(
        RatMatrix.block_diag(a.f_plus, b.f_plus),
        RatMatrix.block_diag(a.f_minus, b.f_minus),
    )


def tensor(a: TracedMotive, b: TracedMotive) -> TracedMotive:
    """Graded tensor: even part (+ x +) + (- x -), odd part (+ x -) + (- x +)."""
    return TracedMotive(
        RatMatrix.block_diag(a.f_plus.kron(b.f_plus), a.f_minus.kron(b.f_minus)),
        RatMatrix.block_diag(a.f_plus.kron(b.f_minus), a.f_minus.kron(b.f_plus)),
    )


def cy_periodicity_check(traces: TraceSequence | Sequence, d: int, r: int) -> bool:
    """True iff (-1)^d * tr_n = tr_{n+r} for every testable n (1-indexed)."""
    values = list(traces)
    if r == 0:
        raise ValidationError("period r must be nonzero")
    if len(values) <= abs(r):
        raise PreconditionError("need more traces than |r|")
    sign = (-1) ** (d % 2)
    n_max = len(values)
    ok = True
    for n in range(1, n_max + 1):
        m = n + r
        if 1 <= m <= n_max:
            if sign * values[n - 1] != values[m - 1]:
                ok = False
                break
    return ok


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
    charge("bits of Artin-Mazur traces", (m - 1).bit_length() * n_max * (n_max + 1) // 2, MAX_BITS)
    out = []
    for n in range(1, n_max + 1):
        val = m**n - 1
        while val % p == 0:
            val //= p
        out.append(2 + val)
    return out
