"""Exact rational polynomials, rational functions and matrices.

Scalars are `fractions.Fraction`; nothing in this module ever rounds.
Polynomials store ascending coefficients with no trailing zeros, rational
functions are kept in lowest terms with a monic denominator.  The
characteristic polynomial, and with it the determinant, is computed over
the integers: the matrix is scaled by the lcm of its denominators and
Faddeev-LeVerrier runs on Python ints, so only the n + 1 coefficients
are `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionError, NotInvertibleError, ValidationError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise ValidationError("floats are not exact; pass int, Fraction or 'a/b' string")
    return Fraction(x)


def frac_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Polynomial:
    """Univariate polynomial over Q, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial([1])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([c])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValidationError("negative polynomial power")
        result, base = Polynomial.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            c = rem[i] / lead
            q[i - d] = c
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= c * b
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float and complex x."""
        if isinstance(x, (int, Fraction)):
            conv, acc = Fraction, Fraction(0)
        elif isinstance(x, float):
            conv, acc = float, 0.0
        else:
            conv, acc = complex, complex(0)
        for c in reversed(self.coeffs):
            acc = acc * x + conv(c)
        return acc

    def reversed(self, at_degree: int | None = None) -> "Polynomial":
        """t^d * p(1/t) with d = deg(p) unless given explicitly."""
        d = self.degree if at_degree is None else at_degree
        if d < self.degree:
            raise ValidationError("reversal degree below polynomial degree")
        out = [Fraction(0)] * (d + 1)
        for i, c in enumerate(self.coeffs):
            out[d - i] = c
        return Polynomial(out)

    def scale_argument(self, c) -> "Polynomial":
        """p(c*t)."""
        c = _frac(c)
        return Polynomial([a * c**i for i, a in enumerate(self.coeffs)])

    def to_json(self) -> list[str]:
        return [frac_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence) -> "Polynomial":
        return Polynomial([_frac(c) for c in data])

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"{frac_to_str(c)}*t^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Polynomial(" + " + ".join(terms) + ")"


class RationalFunction:
    """Quotient of polynomials in lowest terms, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ValidationError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), Polynomial.one())

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.one())

    @property
    def degree(self) -> int:
        """deg(num) - deg(den) of the reduced representation."""
        return self.num.degree - self.den.degree

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(Polynomial([other]), Polynomial.one())
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(
                other if isinstance(other, Polynomial) else Polynomial([other]),
                Polynomial.one(),
            )
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(
                other if isinstance(other, Polynomial) else Polynomial([other]),
                Polynomial.one(),
            )
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(
                other if isinstance(other, Polynomial) else Polynomial([other]),
                Polynomial.one(),
            )
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = RationalFunction(
                other if isinstance(other, Polynomial) else Polynomial([other]),
                Polynomial.one(),
            )
        return self + (-other)

    def substitute_reciprocal(self, scale=Fraction(1)) -> "RationalFunction":
        """R(1/(scale*t)) as an exact rational function of t."""
        scale = _frac(scale)
        d = max(self.num.degree, self.den.degree)
        # R(1/(s t)) = (t^d num(1/(s t))) / (t^d den(1/(s t)))
        num = Polynomial(
            [self.num[d - i] * scale ** -(d - i) for i in range(d + 1)]
        )
        den = Polynomial(
            [self.den[d - i] * scale ** -(d - i) for i in range(d + 1)]
        )
        return RationalFunction(num, den)

    def evaluate(self, x):
        den_val = self.den.evaluate(x)
        if den_val == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(x) / den_val

    def taylor(self, n: int) -> list[Fraction]:
        """Coefficients 0..n of the power-series expansion at t=0."""
        if self.den[0] == 0:
            raise ValidationError("denominator vanishes at 0; no Taylor expansion")
        d0 = self.den[0]
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.num[k]
            for j in range(1, k + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        return out

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "RationalFunction":
        return RationalFunction(
            Polynomial.from_json(data["num"]), Polynomial.from_json(data["den"])
        )

    def __repr__(self):
        return f"RationalFunction({self.num!r} / {self.den!r})"


class RatMatrix:
    """Dense rational matrix, row-major.  0x0 matrices are legal."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        self.rows = rows
        self.cols = cols
        self.entries = tuple(_frac(e) for e in entries)
        if len(self.entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return RatMatrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def empty() -> "RatMatrix":
        return RatMatrix(0, 0, [])

    @staticmethod
    def diagonal(values: Sequence) -> "RatMatrix":
        n = len(values)
        return RatMatrix(
            n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)]
        )

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch in addition")
        return RatMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatMatrix(self.rows, self.cols, [e * other for e in self.entries])
        if self.cols != other.rows:
            raise DimensionError("shape mismatch in multiplication")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(
                        (ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)),
                        Fraction(0),
                    )
                )
        return RatMatrix(self.rows, other.cols, out)

    __rmul__ = __mul__

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> Fraction:
        if not self.is_square():
            raise DimensionError("trace of non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def det(self) -> Fraction:
        """Exact determinant, (-1)^n times the constant term of the
        characteristic polynomial; 0x0 -> 1."""
        return (-1) ** self.rows * char_poly(self)[0]

    def inverse(self) -> "RatMatrix":
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        if n == 0:
            return self
        m = [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise NotInvertibleError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = 1 / m[col][col]
            m[col] = [e * inv for e in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        return RatMatrix(n, n, [m[i][n + j] for i in range(n) for j in range(n)])

    def kron(self, other: "RatMatrix") -> "RatMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                for j in range(self.cols):
                    a = self[i, j]
                    out.extend(a * other[k, l] for l in range(other.cols))
        return RatMatrix(self.rows * other.rows, self.cols * other.cols, out)

    @staticmethod
    def block_diag(*blocks: "RatMatrix") -> "RatMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b[i, j]
            r0 += b.rows
            c0 += b.cols
        return RatMatrix.from_rows(out) if rows and cols else RatMatrix(rows, cols, [e for row in out for e in row])

    def to_json(self) -> list[list[str]]:
        return [[frac_to_str(e) for e in self.row(i)] for i in range(self.rows)]

    @staticmethod
    def from_json(data: Sequence[Sequence]) -> "RatMatrix":
        if not data:
            return RatMatrix.empty()
        return RatMatrix.from_rows([[_frac(e) for e in row] for row in data])

    def __repr__(self):
        return f"RatMatrix({self.to_json()})"


def char_poly(m: RatMatrix) -> Polynomial:
    """det(t*I - M), monic of degree n, by the Faddeev-LeVerrier recursion
    over the integers.  With d the lcm of the entry denominators and
    A = d*M, the recursion B_k = A*B_{k-1} + c_k*I, c_k = -tr(A*B_{k-1})/k
    stays in Z (the characteristic polynomial of an integer matrix has
    integer coefficients, so the division by k is exact), and the
    coefficient of t^(n-k) in det(t*I - M) is c_k / d^k."""
    if not m.is_square():
        raise DimensionError("characteristic polynomial of non-square matrix")
    n = m.rows
    d = lcm(*(e.denominator for e in m.entries))
    a = [[e.numerator * (d // e.denominator) for e in m.row(i)] for i in range(n)]
    coeffs = [Fraction(1)]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*b))
        b = [[sum(map(mul, row, col)) for col in cols] for row in a]
        c = -sum(b[i][i] for i in range(n)) // k
        for i in range(n):
            b[i][i] += c
        coeffs.append(Fraction(c, d**k))
    return Polynomial(reversed(coeffs))


def reversed_char_poly(m: RatMatrix) -> Polynomial:
    """det(I - t*M); constant term 1, degree <= n."""
    return char_poly(m).reversed(m.rows)
