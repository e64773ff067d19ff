"""Finite fields F_{p^e} with deterministic modulus selection.

The modulus for F_{p^e} is the first monic irreducible degree-e polynomial
in the base-p ascending enumeration of the lower coefficients (constant
coefficient varies fastest), so the same (p, e) always yields the same
field.  For e = 1 the modulus is x and elements are plain scalars mod p.

An element is a slotted, immutable FqElement: its field and the tuple of
its e coordinates in [0, p) over 1, x, .., x^(e-1).  A product is
reduced once: the schoolbook terms of the two coordinate tuples are
summed in Python ints, the terms of degree e .. 2e-2 are folded back
through the rows x^k mod f that the field precomputes, and each output
coordinate takes one % p (_mulmod; for e = 1 the product is a*b % p).
FqElement.__pow__ is the one square-and-multiply (builtin pow over F_p).
Sums and differences are one tuple comprehension each, and an inverse is
pow(c, -1, p) over F_p and extended Euclid above it.  Rabin's test runs
in the candidate ring F_p[x]/(f), a provisional FqField.

The _fpoly_* helpers are the one polynomial family, over FqElements.  A
subfield embeds by a root of its modulus, found by Cantor-Zassenhaus
splitting over the big field; row_echelon is the one linear-algebra
routine over F_q (kernels, spans, inverses).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from .errors import ValidationError

# --- coordinate tuples over F_p: the product kernel of F_p[x]/(m) ---


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fold_columns(m, p: int) -> tuple[tuple[int, ...], ...]:
    """For a modulus m of degree e, the columns of the (e-1) x e matrix
    whose rows are the coordinates of x^k mod m for k = e .. 2e-2."""
    e = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    rows, row = [], [-c * inv_lead % p for c in m[:e]]  # x^e mod m
    for _ in range(e - 1):
        rows.append(row)
        row = [(row[-1] * t + c) % p for t, c in zip(rows[0], [0] + row[:-1])]
    return tuple(zip(*rows))


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], cols, p: int) -> tuple[int, ...]:
    """a * b mod m for coordinate tuples of length e = deg m, given the
    fold columns of m: the schoolbook terms are summed in Python ints, the
    terms of degree >= e are folded through x^k mod m, and each output
    coordinate is reduced mod p once."""
    e = len(a)
    conv = [0] * (2 * e - 1)
    i = 0
    for x in a:
        if x:
            k = i
            for y in b:
                conv[k] += x * y
                k += 1
        i += 1
    high = conv[e:]
    if any(high):
        return tuple([(x + sum(map(mul, high, col))) % p for x, col in zip(conv, cols)])
    return tuple([x % p for x in conv[:e]])


# --- polynomials over F_q on FqElement lists (ascending, no trailing zeros) ---


def _fpoly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)] + a[len(b) :]
    while out and out[-1].is_zero():
        out.pop()
    return out


def _fpoly_rem(a: list, f: list) -> list:
    """a mod f for a monic f."""
    a, d = a[:], len(f) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if not c.is_zero():
            for j in range(d):
                a[i - d + j] = a[i - d + j] - c * f[j]
    a = a[:d]
    while a and a[-1].is_zero():
        a.pop()
    return a


def _fpoly_mulmod(a: list, b: list, f: list) -> list:
    if not a or not b:
        return []
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _fpoly_rem(out, f)


def _fpoly_powmod(a: list, n: int, f: list) -> list:
    result, base = [f[0].field.one()], _fpoly_rem(a, f)
    while n:
        if n & 1:
            result = _fpoly_mulmod(result, base, f)
        n >>= 1
        if n:
            base = _fpoly_mulmod(base, base, f)
    return result


def _fpoly_gcd(a: list, b: list) -> list:
    """The monic gcd."""
    while b:
        inv = b[-1].inverse()
        b = [x * inv for x in b]
        a, b = b, _fpoly_rem(a, b)
    return a


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    # every Miller-Rabin base below is also trial-divided: a base that n
    # divides witnesses nothing
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1, by Newton's method from above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """q = p^k for a prime p and k >= 1: some integer k-th root of q with
    k <= log_2 q is a prime whose k-th power is q."""
    if q < 2:
        return False
    for k in range(1, q.bit_length()):
        r = _integer_root(q, k)
        if r ** k == q and is_prime(r):
            return True
    return False


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    """The Mobius function: 0 when a square divides n, else -1 to the
    number of prime factors of n."""
    primes = _prime_factors(n)
    return 0 if any(n % (r * r) == 0 for r in primes) else (-1) ** len(primes)


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980) of a monic f of degree e >= 2,
    run in the ring F_p[x]/(f): x^{p^e} == x, and x^{p^{e/l}} - x is a unit
    for every prime l | e (so f is reducible when x divides it)."""
    if modulus[0] == 0:
        return False
    e = len(modulus) - 1
    x = FqField(p, e, tuple(modulus)).element([0, 1])
    if x ** p**e != x:
        return False
    try:
        for ell in _prime_factors(e):
            (x ** p ** (e // ell) - x).inverse()
    except ZeroDivisionError:
        return False
    return True


class FqField:
    """F_{p^e} = F_p[x]/(modulus); immutable, hashable by (p, e, modulus).
    Holds what its elements' arithmetic needs: the fold columns of the
    modulus (x^k mod modulus for e <= k <= 2e - 2) and its zero and one."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.modulus = modulus
        self.q = p**e
        self._embeddings: dict[tuple[int, int], "FqElement"] = {}
        self._hash = hash((p, e, modulus))
        self._cols = _fold_columns(modulus, p)
        self._pad = (0,) * (e - 1)
        self._zero = _new(self, (0,) * e)
        self._one = _new(self, (1,) + self._pad)

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FqField(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    def element(self, coeffs) -> "FqElement":
        """The element with the given coordinates over 1, x, x^2, ..: an
        integer, or a list of integers, each read mod p (a list longer than
        e is reduced mod the modulus).  Anything else is a ValidationError."""
        if type(coeffs) is int:
            return _new(self, (coeffs % self.p,) + self._pad)
        if not isinstance(coeffs, (list, tuple)) or any(type(c) is not int for c in coeffs):
            raise ValidationError(f"a field element is an integer or a list of integers, got {coeffs!r}")
        cs = [c % self.p for c in coeffs]
        if len(cs) <= self.e:
            return _new(self, tuple(cs) + (0,) * (self.e - len(cs)))
        x = _new(self, (0, 1) + self._pad[1:]) if self.e > 1 else self._zero  # x mod the modulus
        acc = self._zero
        for c in reversed(cs):  # Horner's rule in the field
            acc = acc * x + _new(self, (c,) + self._pad)
        return acc

    def zero(self) -> "FqElement":
        return self._zero

    def one(self) -> "FqElement":
        return self._one

    def from_int(self, n: int) -> "FqElement":
        """The element with packed index n in [0, q) (the inverse of
        FqElement.to_int)."""
        if type(n) is not int or not 0 <= n < self.q:
            raise ValidationError(f"a packed index of F_{self.q} is an integer in [0, {self.q}), got {n!r}")
        coeffs = []
        for _ in range(self.e):
            n, c = divmod(n, self.p)
            coeffs.append(c)
        return _new(self, tuple(coeffs))

    def enumerate(self):
        """All p^e elements in ascending base-p coefficient order."""
        for n in range(self.q):
            yield self.from_int(n)

    def embedding_root(self, big: "FqField") -> "FqElement":
        """Image of x (mod self.modulus) in the bigger field: the root of
        the modulus with the smallest packed index, the first in big's
        enumeration order.  The roots are the conjugates r^(p^i) of any one
        root r, found by splitting the modulus over big.  Cached."""
        key = (big.p, big.e)
        if key in self._embeddings:
            return self._embeddings[key]
        if big.p != self.p or big.e % self.e != 0:
            raise ValidationError("no embedding between these fields")
        if self.e == 1:  # the modulus is x
            root = big.zero()
        else:
            r = self._split_root(big)
            root = min((r ** (self.p**i) for i in range(self.e)), key=FqElement.to_int)
        self._embeddings[key] = root
        return root

    def _split_root(self, big: "FqField") -> "FqElement":
        """One root in big of the modulus f, by Cantor-Zassenhaus splitting.
        The roots lie in the subfield S of order q and are distinct, so for
        a shift a in S the factor gcd(f, (Y + a)^((q-1)/2) - 1) (odd p), or
        gcd(f, Tr_S(a Y)) (p = 2), keeps the roots y with y + a a square, or
        with Tr(a y) = 0.  A shift in F_p never splits f, whose roots are
        conjugate; a = z^((Q-1)/(q-1)) for z = p, p + 1, ... gives elements
        of S that split a factor for about half the shifts."""
        one = big.one()
        f = [big.element(c) for c in self.modulus]
        for z in itertools.count(self.p):
            if len(f) == 2:
                return -f[0]
            a = big.from_int(z) ** ((big.q - 1) // (self.q - 1))
            if self.p == 2:
                w, term = [], [big.zero(), a]
                for _ in range(self.e):
                    w = _fpoly_add(w, term)
                    term = _fpoly_mulmod(term, term, f)
            else:
                w = _fpoly_powmod([a, one], (self.q - 1) // 2, f)
                w = _fpoly_add(w, [-one])
            d = _fpoly_gcd(f, w)
            if 1 < len(d) < len(f):
                f = d

    def embed(self, elt: "FqElement", big: "FqField") -> "FqElement":
        """The image of elt in big; a prime-field element maps to itself
        without the embedding root, so it never splits the modulus."""
        if big is self or big == self:
            return elt
        if not any(elt.coeffs[1:]):
            if big.p != self.p or big.e % self.e != 0:
                raise ValidationError("no embedding between these fields")
            return _new(big, elt.coeffs[:1] + big._pad)
        root = self.embedding_root(big)
        acc = big.zero()
        for c in reversed(elt.coeffs):
            acc = acc * root + big.element(c)
        return acc


class FqElement:
    """An element of field: its coordinates over 1, x, .., x^(e-1), a tuple
    of e ints in [0, p).  Immutable; equal elements hash equal.  Arithmetic
    between elements of different fields raises ValidationError."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]):
        _set_field(self, field)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FqElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FqElement is immutable")

    def __reduce__(self):
        return FqElement, (self.field, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not FqElement:
            return NotImplemented
        return self.coeffs == other.coeffs and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field._hash, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "FqElement") -> "FqElement":
        f = self.field
        if other.field is not f and other.field != f:
            raise ValidationError("elements of different fields")
        p = f.p
        return _new(f, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return _new(self.field, tuple([-a % p for a in self.coeffs]))

    def __sub__(self, other: "FqElement") -> "FqElement":
        f = self.field
        if other.field is not f and other.field != f:
            raise ValidationError("elements of different fields")
        p = f.p
        return _new(f, tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other: "FqElement") -> "FqElement":
        f = self.field
        if other.field is not f and other.field != f:
            raise ValidationError("elements of different fields")
        if f.e == 1:
            return _new(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        return _new(f, _mulmod(self.coeffs, other.coeffs, f._cols, f.p))

    def __pow__(self, n: int) -> "FqElement":
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        if f.e == 1:
            return _new(f, (pow(self.coeffs[0], n, f.p),))
        cols, p = f._cols, f.p
        result, base = f._one.coeffs, self.coeffs
        while n:
            if n & 1:
                result = _mulmod(result, base, cols, p)
            n >>= 1
            if n:
                base = _mulmod(base, base, cols, p)
        return _new(f, result)

    def inverse(self) -> "FqElement":
        """ZeroDivisionError for a non-unit: zero, or a zero divisor."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        p = f.p
        if f.e == 1:
            return _new(f, (pow(self.coeffs[0], -1, p),))
        # extended Euclid in F_p[x]: r_i = s_i * self mod the modulus
        r0, s0 = list(f.modulus), []
        r1, s1 = _trim(list(self.coeffs)), [1]
        while len(r1) > 1:
            inv_lead = pow(r1[-1], -1, p)
            while len(r0) >= len(r1):
                c, d = r0[-1] * inv_lead % p, len(r0) - len(r1)
                for j, y in enumerate(r1, d):
                    r0[j] = (r0[j] - c * y) % p
                s0 += [0] * (len(s1) + d - len(s0))
                for j, y in enumerate(s1, d):
                    s0[j] = (s0[j] - c * y) % p
                _trim(r0)
                _trim(s0)
            r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise ZeroDivisionError("not a unit: it shares a factor with the modulus")
        c = pow(r1[0], -1, p)
        return _new(f, tuple([x * c % p for x in s1]) + (0,) * (f.e - len(s1)))

    def __truediv__(self, other: "FqElement") -> "FqElement":
        return self * other.inverse()

    def to_int(self) -> int:
        """Base-p packed integer, matching enumeration order."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.e}; {list(self.coeffs)})"


_set_field = FqElement.field.__set__
_set_coeffs = FqElement.coeffs.__set__


def _new(field: FqField, coeffs: tuple[int, ...]) -> FqElement:
    """FqElement(field, coeffs) without the call through the class."""
    x = object.__new__(FqElement)
    _set_field(x, field)
    _set_coeffs(x, coeffs)
    return x


def row_echelon(rows) -> tuple[list[list[FqElement]], list[int]]:
    """Reduced row echelon form of a matrix over a finite field, given as
    rows of FqElements of one field: (its nonzero rows, the pivot column
    of each).  Every pivot is 1 and is the only nonzero entry of its
    column; zero entries of a pivot row are skipped, so sparse and
    block-diagonal matrices reduce cheaply."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        done = len(pivots)
        pick = next((i for i in range(done, len(rows)) if not rows[i][col].is_zero()), None)
        if pick is None:
            continue
        rows[done], rows[pick] = rows[pick], rows[done]
        inv = rows[done][col].inverse()
        pivot = rows[done] = [x * inv for x in rows[done]]
        support = [j for j, x in enumerate(pivot) if not x.is_zero()]
        for i, row in enumerate(rows):
            c = row[col]
            if i != done and not c.is_zero():
                for j in support:
                    row[j] = row[j] - c * pivot[j]
        pivots.append(col)
    return rows[: len(pivots)], pivots


@lru_cache(maxsize=None)
def trace_column(field: FqField) -> tuple[int, ...]:
    """Tr(x^i) for i < e, so that Tr(y) = sum_i y_i Tr(x^i) mod p.  The
    conjugates of x are the roots of the modulus t^e + c_(e-1) t^(e-1) +
    ... + c_0, so Tr(x^i) is their i-th power sum s_i, and Newton's
    identities give s_0 = e and s_i = -(i c_(e-i) + sum_(0<j<i) c_(e-j) s_(i-j))."""
    p, e, c = field.p, field.e, field.modulus
    s = [e % p]
    for i in range(1, e):
        s.append(-(i * c[e - i] + sum(c[e - j] * s[i - j] for j in range(1, i))) % p)
    return tuple(s)


@lru_cache(maxsize=None)
def fq_make(p: int, e: int) -> FqField:
    """Deterministic F_{p^e}: the modulus is the first monic irreducible
    polynomial in base-p counting order.  The first p candidates are the
    binomials x^e + c; when some prime factor of e does not divide p - 1,
    or 4 | e and p = 3 mod 4, none of them is irreducible (Lidl and
    Niederreiter, Finite Fields, Thm 3.75), so the scan starts after them."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if e < 1:
        raise ValidationError("extension degree must be >= 1")
    if e == 1:
        return FqField(p, 1, (0, 1))
    no_binomial = any((p - 1) % ell for ell in _prime_factors(e)) or (e % 4 == 0 and p % 4 == 3)
    for n in range(p if no_binomial else 0, p**e):
        coeffs = []
        m = n
        for _ in range(e):
            coeffs.append(m % p)
            m //= p
        modulus = coeffs + [1]
        if _is_irreducible(modulus, p):
            return FqField(p, e, tuple(modulus))
    raise ValidationError("no irreducible modulus found")  # unreachable

