"""Exact rational polynomials, rational functions and matrices.

Scalars are `fractions.Fraction`; nothing in this module ever rounds.
Polynomials store ascending coefficients with no trailing zeros, rational
functions are kept in lowest terms with a monic denominator.

The kernels run over the integers, not over `Fraction`, whose every
operation normalises with a gcd: `_integral` scales a list of rationals
once by the lcm d of their denominators, the kernel works on Python ints,
and only its outputs become `Fraction`s again.  The characteristic
polynomial (and with it the determinant) is Berkowitz's division-free
algorithm on d*M; the inverse is fraction-free Gauss-Jordan elimination
(Bareiss); the gcd, and with it the reduction of every rational function,
is a primitive pseudo-remainder sequence (Collins), and Yun's square-free
decomposition, which gives every root multiplicity the analytic layer
reports, runs on it; the Taylor expansion of a rational function is a
recurrence on integers scaled by powers of den(0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionError, NotInvertibleError, ValidationError, _printable


def _frac(x) -> Fraction:
    """The one parser of rational scalars: an int, a Fraction or an 'a/b'
    (or decimal) string.  Bools, floats, strings that are not rationals
    and anything else raise ValidationError, never a raw Python error."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValidationError(f"a bool is not a rational number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"not a rational number: {x!r}") from None
    if isinstance(x, float):
        raise ValidationError("floats are not exact; pass int, Fraction or 'a/b' string")
    if isinstance(x, Rational):
        return Fraction(x)
    raise ValidationError(f"not a rational number: {x!r}")


def _json_int(x, what: str) -> int:
    """The one parser of integers: x itself if it is an int; floats,
    bools, strings and anything else raise ValidationError, naming what."""
    if type(x) is not int:
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return x


def _json_list(x, what: str) -> list:
    """The one list-shape check: x itself if it is a list or tuple; a
    string, a number or an object raises ValidationError, naming what."""
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {x!r}")
    return x


def _integral(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """([d*v for v in values], d) with d the lcm of the denominators, so
    that an exact kernel can run on ints and divide by d once at the end."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, leading coefficient positive; [] stays []."""
    if not a:
        return a
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, leading coefficient positive, of two integer
    polynomials (ascending, no trailing zeros) by the primitive
    pseudo-remainder sequence; [] when both are zero."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lb, nb = b[-1], len(b)
        r = a[:]
        while len(r) >= nb:
            lr, shift = r[-1], len(r) - nb
            r = [x * lb for x in r]
            for j, bj in enumerate(b):
                r[shift + j] -= lr * bj
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r)
    return a


def _zdiv(a: list[int], g: list[int]) -> list[int]:
    """a / g for integer polynomials with g primitive and dividing a, so
    that the quotient is integral (Gauss's lemma) and each step exact."""
    r, ng, lg = a[:], len(g), g[-1]
    q = [0] * (len(a) - ng + 1)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + ng - 1] // lg
        q[i] = c
        if c:
            for j, gj in enumerate(g):
                r[i + j] -= c * gj
    return q


def _zderiv(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _zsub(a: list[int], b: list[int]) -> list[int]:
    """a - b for integer polynomials, trailing zeros stripped."""
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and out[-1] == 0:
        out.pop()
    return out


def squarefree_factors(p: "Polynomial") -> list["Polynomial"]:
    """Yun's square-free decomposition (SYMSAC 1976) of a nonzero p: monic,
    pairwise coprime a_1..a_k with p = lead(p) * a_1 * a_2^2 * .. * a_k^k,
    so the roots of a_i are the roots of p of multiplicity i (an a_i may
    be 1; a constant p gives []).  It runs on the primitive integer form f
    of p: b = f/gcd(f, f'), d = f'/gcd(f, f') - b', then a_i = gcd(b, d),
    b <- b/a_i, d <- d/a_i - b'; b and d are always divided by the same
    primitive polynomial, so every quotient is integral."""
    if p.is_zero():
        raise ValidationError("the zero polynomial has no square-free decomposition")
    f = _primitive(_integral(p.coeffs)[0])
    df = _zderiv(f)
    g = _zgcd(f, df)
    b = _zdiv(f, g)
    d = _zsub(_zdiv(df, g), _zderiv(b))
    out = []
    while len(b) > 1:
        a = _zgcd(b, d)
        b = _zdiv(b, a)
        d = _zsub(_zdiv(d, a), _zderiv(b))
        out.append(Polynomial([Fraction(x, a[-1]) for x in a]))
    return out


def frac_to_str(x: Fraction) -> str:
    n, d = _printable(x.numerator), _printable(x.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


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
        other = _as_polynomial(other)
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Polynomial":
        other = _as_polynomial(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        other = _as_polynomial(other)
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
        """Monic gcd; the zero polynomial when both are zero."""
        g = _zgcd(_integral(self.coeffs)[0], _integral(other.coeffs)[0])
        return Polynomial([Fraction(c, g[-1]) for c in g]) if g else Polynomial()

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
        # num/den = (a/dn) / (b/dd) with a, b integral; cancel g = gcd(a, b)
        # over the integers, then make the denominator monic
        a, dn = _integral(num.coeffs)
        b, dd = _integral(den.coeffs)
        g = _zgcd(a, b)
        if len(g) > 1:
            a, b = _zdiv(a, g), _zdiv(b, g)
        lead, scale = b[-1], dn * b[-1]
        self.num = Polynomial([Fraction(x * dd, scale) for x in a])
        self.den = Polynomial([Fraction(x, lead) for x in b])

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
        other = _as_rational_function(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rational_function(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other) -> "RationalFunction":
        other = _as_rational_function(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rational_function(other)
        return self + (-other)

    def substitute_reciprocal(self, scale=Fraction(1)) -> "RationalFunction":
        """R(1/(scale*t)) as an exact rational function of t, scale nonzero:
        t^d p(1/(s t)) = s^-d p.reversed(d)(s t), and s^-d cancels."""
        scale = _frac(scale)
        if scale == 0:
            raise ValidationError("the scale of a reciprocal substitution must be nonzero")
        d = max(self.num.degree, self.den.degree)
        return RationalFunction(*(p.reversed(d).scale_argument(scale) for p in (self.num, self.den)))

    def evaluate(self, x):
        den_val = self.den.evaluate(x)
        if den_val == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.evaluate(x) / den_val

    def taylor(self, n: int) -> list[Fraction]:
        """Coefficients 0..n of the power-series expansion at t=0.

        With a = dn*num and b = dd*den integral, the expansion of a/b has
        c_k = (a_k - sum_j b_j c_(k-j)) / b_0; the recurrence runs on the
        integers B_k = c_k * b_0^(k+1), B_k = a_k b_0^k - sum_j b_j
        b_0^(j-1) B_(k-j), and the expansion of num/den is c_k * dd/dn."""
        if self.den[0] == 0:
            raise ValidationError("denominator vanishes at 0; no Taylor expansion")
        a, dn = _integral(self.num.coeffs)
        b, dd = _integral(self.den.coeffs)
        b0 = b[0]
        powers = [1]  # b0^k
        for _ in range(n + 1):
            powers.append(powers[-1] * b0)
        big: list[int] = []
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = a[k] * powers[k] if k < len(a) else 0
            for j in range(1, min(k, len(b) - 1) + 1):
                acc -= b[j] * powers[j - 1] * big[k - j]
            big.append(acc)
            out.append(Fraction(acc * dd, dn * powers[k + 1]))
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


def _as_polynomial(x) -> Polynomial:
    """An int or Fraction operand as a constant Polynomial; anything else as it is."""
    return Polynomial([x]) if isinstance(x, (int, Fraction)) else x


def _as_rational_function(x) -> RationalFunction:
    """An int, Fraction or Polynomial operand as a RationalFunction over 1;
    anything else as it is."""
    x = _as_polynomial(x)
    return RationalFunction(x, Polynomial.one()) if isinstance(x, Polynomial) else x


def _monomial(c, e: int) -> RationalFunction:
    """c t^e as a rational function, for an exponent e of either sign."""
    if e >= 0:
        return RationalFunction(Polynomial([0] * e + [c]), Polynomial.one())
    return RationalFunction(Polynomial([c]), Polynomial([0] * -e + [1]))


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
        """Fraction-free Gauss-Jordan elimination (Bareiss) on [A | I] with
        A = d*M integral: each step divides exactly by the previous pivot,
        every entry stays a minor of [A | I], and at the end the left block
        is D*I with D = +-det(A), so M^-1 = d * A^-1 = d * (right block) / D."""
        if not self.is_square():
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        if n == 0:
            return self
        a, d = _integral(self.entries)
        m = [a[i * n : (i + 1) * n] + [int(i == j) for j in range(n)] for i in range(n)]
        prev = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                raise NotInvertibleError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            top = m[col]
            p = top[col]
            for r in range(n):
                if r != col:
                    f = m[r][col]
                    m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
            prev = p
        return RatMatrix(
            n, n, [Fraction(d * m[i][n + j], prev) for i in range(n) for j in range(n)]
        )

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
        rows = [_json_list(row, "a matrix row") for row in _json_list(data, "a matrix")]
        if not rows:
            return RatMatrix.empty()
        return RatMatrix.from_rows([[_frac(e) for e in row] for row in rows])

    def __repr__(self):
        return f"RatMatrix({self.to_json()})"


def char_poly(m: RatMatrix) -> Polynomial:
    """det(t*I - M), monic of degree n, by Berkowitz's division-free
    algorithm (Inf. Process. Lett. 18, 1984) over the integers.  With d
    the lcm of the entry denominators, A = d*M and A_r its leading r x r
    block, split A_(r+1) into A_r, the column C above the corner, the row
    R left of it and the corner a; then det(t*I - A_(r+1)) is the product
    of the lower-triangular Toeplitz matrix with first column
    [1, -a, -R*C, -R*A_r*C, .., -R*A_r^(r-1)*C] and the (descending)
    coefficients of det(t*I - A_r).  The powers are matrix-vector products,
    about n^4/4 integer multiplications in all, and the coefficient of
    t^(n-k) in det(t*I - M) is the one of det(t*I - A) over d^k."""
    if not m.is_square():
        raise DimensionError("characteristic polynomial of non-square matrix")
    n = m.rows
    flat, d = _integral(m.entries)
    a = [flat[i * n : (i + 1) * n] for i in range(n)]
    p = [1]  # det(t*I - A_r), descending
    for r in range(n):
        block = [ai[:r] for ai in a[:r]]
        row, v = a[r][:r], [ai[r] for ai in a[:r]]  # R and C
        t = [1, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, bi, v)) for bi in block]  # A_r^k * C
            t.append(-sum(map(mul, row, v)))
        t.reverse()  # t[r + 1 - k] is the k-th entry of the first column
        p = [sum(map(mul, t[r + 1 - i :], p)) for i in range(r + 2)]
    return Polynomial(reversed([Fraction(c, d**k) for k, c in enumerate(p)]))


def reversed_char_poly(m: RatMatrix) -> Polynomial:
    """det(I - t*M); constant term 1, degree <= n."""
    return char_poly(m).reversed(m.rows)
