"""Motivic measures on a polynomial-count model of the Grothendieck ring
of varieties.

A class is represented by its counting polynomial P (P(q) = number of
points over a q-element field).  Three measures:

* mu_count(q): evaluation at a prime power q (point counting),
* mu_rig: evaluation at 1 (Euler characteristic of compactly supported
  cohomology, exact on the polynomial-count span),
* mu_nc_composite: values in Z[eps]/(eps^2 - 1); on the even-cell span the
  value is (P(1), 0), and collapsing eps -> -1 recovers mu_rig.

non_factoring_witness exhibits two classes with equal mu_nc_composite but
different point counts, so point counting cannot factor through mu_nc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ValidationError
from .exact_core import Polynomial
from .gf import is_prime_power


@dataclass(frozen=True)
class EpsInt:
    """Element a + b*eps of Z[eps]/(eps^2 - 1)."""

    a: int
    b: int = 0

    def __add__(self, other: "EpsInt") -> "EpsInt":
        return EpsInt(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "EpsInt":
        return EpsInt(-self.a, -self.b)

    def __sub__(self, other: "EpsInt") -> "EpsInt":
        return self + (-other)

    def __mul__(self, other: "EpsInt") -> "EpsInt":
        # (a + b eps)(c + d eps) = (ac + bd) + (ad + bc) eps
        return EpsInt(
            self.a * other.a + self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def collapse(self) -> int:
        """The ring map eps -> -1 down to Z."""
        return self.a - self.b

    def __repr__(self):
        return f"EpsInt({self.a}, {self.b})"


@dataclass(frozen=True)
class MeasureClass:
    """A class in the polynomial-count Grothendieck ring model.

    `in_cell_span` is True while the class stays inside the span of
    points, affine/projective spaces, and their sums and products.
    """

    poly: Polynomial
    in_cell_span: bool = True

    def __post_init__(self):
        for i in range(self.poly.degree + 1):
            if self.poly[i].denominator != 1:
                raise ValidationError("counting polynomials have integer coefficients")

    def __add__(self, other: "MeasureClass") -> "MeasureClass":
        return MeasureClass(self.poly + other.poly, self.in_cell_span and other.in_cell_span)

    def __mul__(self, other: "MeasureClass") -> "MeasureClass":
        return MeasureClass(self.poly * other.poly, self.in_cell_span and other.in_cell_span)

    def __sub__(self, other: "MeasureClass") -> "MeasureClass":
        # a formal difference [X] - [Z]; leaves the even-cell span
        return MeasureClass(self.poly - other.poly, False)

    def scale(self, n: int) -> "MeasureClass":
        """n disjoint copies."""
        if n < 0:
            raise ValidationError("cannot take a negative number of copies")
        return MeasureClass(self.poly * Polynomial([n]), self.in_cell_span)


def point() -> MeasureClass:
    return MeasureClass(Polynomial.one())


def affine_space(n: int) -> MeasureClass:
    if n < 0:
        raise ValidationError("dimension must be >= 0")
    return MeasureClass(Polynomial([0] * n + [1]))


def projective_space(n: int) -> MeasureClass:
    """P^n = A^n + P^{n-1} = A^n + ... + A^0."""
    if n < 0:
        raise ValidationError("dimension must be >= 0")
    return MeasureClass(Polynomial([1] * (n + 1)))


def torus() -> MeasureClass:
    """G_m = A^1 - point, counting polynomial q - 1."""
    return MeasureClass(Polynomial([-1, 1]), False)


def mu_count(cls: MeasureClass, q: int) -> int:
    """Point count over F_q; q must be a prime power."""
    if not is_prime_power(q):
        raise ValidationError(f"{q} is not a prime power")
    return int(cls.poly.evaluate(Fraction(q)))


def mu_rig(cls: MeasureClass) -> int:
    """Euler characteristic: the counting polynomial at q = 1."""
    return int(cls.poly.evaluate(Fraction(1)))


def mu_nc_composite(cls: MeasureClass) -> EpsInt:
    """Value in Z[eps]/(eps^2 - 1).

    On the even-cell span all cohomology sits in even degree, so the value
    is (P(1), 0); classes outside the span are extended by linearity
    (the in_cell_span flag on the class marks the extension).
    """
    return EpsInt(mu_rig(cls), 0)


@dataclass
class WitnessReport:
    """P^n versus n+1 disjoint points across the measures."""

    n: int
    q: int
    mu_nc_projective: EpsInt
    mu_nc_points: EpsInt
    nc_values_agree: bool
    mu_count_projective: int
    mu_count_points: int
    count_values_agree: bool
    note: str | None = None


def non_factoring_witness(n: int, q: int) -> WitnessReport:
    """Certified obstruction: [P^n] and (n+1)[point] have equal
    mu_nc_composite values but different point counts over F_q, so point
    counting does not factor through mu_nc."""
    if n < 1:
        raise PreconditionError("need n >= 1 for a meaningful witness")
    if not is_prime_power(q):
        raise ValidationError(f"{q} is not a prime power")
    proj = projective_space(n)
    points = point().scale(n + 1)
    nc_p, nc_pts = mu_nc_composite(proj), mu_nc_composite(points)
    c_p, c_pts = mu_count(proj, q), mu_count(points, q)
    note = "n = 1 also witnesses for q > 1" if n == 1 else None
    return WitnessReport(
        n=n,
        q=q,
        mu_nc_projective=nc_p,
        mu_nc_points=nc_pts,
        nc_values_agree=(nc_p == nc_pts),
        mu_count_projective=c_p,
        mu_count_points=c_pts,
        count_values_agree=(c_p == c_pts),
        note=note,
    )
