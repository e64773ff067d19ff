"""Finite fields F_{p^e} with deterministic modulus selection.

The modulus for F_{p^e} is the first monic irreducible degree-e polynomial
in the base-p ascending enumeration of the lower coefficients (constant
coefficient varies fastest), so the same (p, e) always yields the same
field.  For e = 1 the modulus is x and elements are plain scalars mod p.
A subfield embeds by a root of its modulus, found by Cantor-Zassenhaus
splitting over the big field; row_echelon is the one linear-algebra
routine over F_q (kernels, spans, inverses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError

# --- polynomial arithmetic over F_p on plain int lists (ascending) ---


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        if a[i] == 0:
            continue
        c = a[i] * inv_lead % p
        for j in range(dm + 1):
            a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _trim(a)


def _polymulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _polymod(out, m, p)


def _polypowmod(a: list[int], n: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _polymod(a, m, p)
    while n:
        if n & 1:
            result = _polymulmod(result, base, m, p)
        base = _polymulmod(base, base, m, p)
        n >>= 1
    return result


def _polygcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a = _polymod(a, b, p)
        a, b = b, a
    return a


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
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
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


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Rabin test: x^{p^e} == x mod f and gcd(x^{p^{e/l}} - x, f) = 1."""
    e = len(modulus) - 1
    x = [0, 1]
    xq = _polypowmod(x, p**e, modulus, p)
    diff = _trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
    if diff:
        return False
    for ell in _prime_factors(e):
        xq = _polypowmod(x, p ** (e // ell), modulus, p)
        diff = _trim([(a - b) % p for a, b in itertools.zip_longest(xq, x, fillvalue=0)])
        g = _polygcd(modulus, diff, p) if diff else modulus[:]
        if len(g) - 1 > 0:
            return False
    return True


class FqField:
    """F_{p^e} = F_p[x]/(modulus); immutable, hashable by (p, e)."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.modulus = modulus
        self.q = p**e
        self._embeddings: dict[tuple[int, int], "FqElement"] = {}

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FqField(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    def element(self, coeffs) -> "FqElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        cs = [c % self.p for c in coeffs]
        if len(cs) >= self.e and self.e > 0:
            cs = _polymod(cs, list(self.modulus), self.p)
        cs = cs + [0] * (self.e - len(cs))
        return FqElement(self, tuple(cs[: self.e]))

    def zero(self) -> "FqElement":
        return self.element(0)

    def one(self) -> "FqElement":
        return self.element(1)

    def from_int(self, n: int) -> "FqElement":
        """The element with packed index n (the inverse of FqElement.to_int)."""
        coeffs = []
        for _ in range(self.e):
            n, c = divmod(n, self.p)
            coeffs.append(c)
        return FqElement(self, tuple(coeffs))

    def enumerate(self):
        """All p^e elements in ascending base-p coefficient order."""
        for n in range(self.q):
            yield self.from_int(n)

    def extension(self, m: int) -> "FqField":
        return fq_make(self.p, self.e * m)

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
        if big == self:
            return elt
        root = self.embedding_root(big)
        acc = big.zero()
        for c in reversed(elt.coeffs):
            acc = acc * root + big.element(c)
        return acc


@dataclass(frozen=True)
class FqElement:
    field: FqField
    coeffs: tuple[int, ...]

    def _check(self, other: "FqElement"):
        if self.field != other.field:
            raise ValidationError("elements of different fields")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        p = self.field.p
        return FqElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return FqElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other: "FqElement") -> "FqElement":
        return self + (-other)

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        f = self.field
        prod = _polymulmod(list(self.coeffs), list(other.coeffs), list(f.modulus), f.p)
        prod = prod + [0] * (f.e - len(prod))
        return FqElement(f, tuple(prod[: f.e]))

    def __pow__(self, n: int) -> "FqElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FqElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid in F_p[x]
        f = self.field
        p = f.p
        a, b = list(self.coeffs), list(f.modulus)
        s0, s1 = [1], []
        a = _trim(a[:])
        while b:
            # a = q*b + r
            r = a[:]
            dm = len(b) - 1
            inv_lead = pow(b[-1], -1, p)
            q = [0] * max(1, len(r) - dm)
            for i in range(len(r) - 1, dm - 1, -1):
                if r[i] == 0:
                    continue
                c = r[i] * inv_lead % p
                q[i - dm] = c
                for j in range(dm + 1):
                    r[i - dm + j] = (r[i - dm + j] - c * b[j]) % p
            r = _trim(r)
            # s_{k+1} = s_{k-1} - q*s_k
            qs = [0] * (len(q) + len(s1) - 1) if s1 else []
            for i, qi in enumerate(q):
                if qi == 0:
                    continue
                for j, sj in enumerate(s1):
                    qs[i + j] = (qs[i + j] + qi * sj) % p
            s_next = _trim(
                [
                    (x - y) % p
                    for x, y in itertools.zip_longest(s0, qs, fillvalue=0)
                ]
            )
            a, b = b, r
            s0, s1 = s1, s_next
        # a is now gcd (constant), s0 its Bezout coefficient for self
        inv_gcd = pow(a[0], -1, p)
        s0 = [(c * inv_gcd) % p for c in s0]
        return f.element(s0)

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
def fq_make(p: int, e: int) -> FqField:
    """Deterministic F_{p^e}: the modulus is the first monic irreducible
    polynomial in base-p counting order."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if e < 1:
        raise ValidationError("extension degree must be >= 1")
    if e == 1:
        return FqField(p, 1, (0, 1))
    for n in range(p**e):
        coeffs = []
        m = n
        for _ in range(e):
            coeffs.append(m % p)
            m //= p
        modulus = coeffs + [1]
        if _is_irreducible(modulus, p):
            return FqField(p, e, tuple(modulus))
    raise ValidationError("no irreducible modulus found")  # unreachable

