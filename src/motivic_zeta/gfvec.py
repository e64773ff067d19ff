"""Vectorized finite-field arithmetic on packed element indices.

An element of F_{p^k} is stored as one integer, its packed index
sum_i c_i p^i over the coefficients c_i of its polynomial in x, as in
FqElement.to_int and the FqField.enumerate order.  N elements form an
array of shape (N,), one row per element; a one-row array is a constant
that broadcasts against N-row arrays.  Row i of digits_of_range(a, b, f)
holds the f-tuple of elements whose tuple index is a + i.

Two engines share this representation.

Tables.  With g the element of smallest packed index among those of
multiplicative order q - 1, exp[i] = g^i for i <= 2q - 4 (so a sum of two
logs needs no reduction), log[g^i] = i, and zech[d] = log(1 + g^d).
log 0 is the sentinel 2q - 3, the index of exp's last entry, which is 0,
and exp is read with mode="clip", so every index at or past the sentinel
gives 0: a product is exp[log a + log b] with no mask.  A power multiplies
a log mod q - 1, so Frobenius is a power; a sum of nonzero g^l and g^h,
l <= h, is exp[l + zech[h - l]] (zech's last entry, 0, catches a zero
summand), or an XOR in characteristic 2, or a sum mod p in a prime field;
a nonzero square is an element of even log.  The tables take 16 bytes per
element (int32 exp of 2(q - 1) entries, log and zech of q).  They are
built the first time a field is enumerated over f >= 1 variables, a pass
of at least q rows that the budget has already paid for, and only while
q <= TABLE_MAX.  exp is built by doubling: multiplication by g^m is a k x k
F_p-linear map on digits, so each step is one digit matmul.  These run in
float64, through BLAS, and are exact: every entry is an integer, and no
value formed exceeds _table_bound(p, k) = max(k (p - 1)^2, p^k) + 1, which
stays below 2^51 for every field TABLE_MAX admits (about 10^14 at k = 1).
A digit is reduced mod p as a - p floor((a + 1/2)(1/p)), or in a small
array by np.fmod, exact as well, in one call.  The float quotient is off
by less than (a + 1/2) 2^-52 / p, and (a + 1/2)/p lies at least 1/(2p)
from an integer, so below 2^51 the floor is exact; without the 1/2, a
multiple of p can round to just below its quotient (fl(1/p) p 2^j < 2^j),
and 20011 * 2^j reduces to p instead of 0.  g is found by testing
candidates against each cofactor (q - 1)/r, r a prime factor of q - 1:
over F_p by pow(n, (q - 1)/r, p), above it by powers of its k x k digit
matrix.

Digits.  Every other field (one-row charts, q > TABLE_MAX, any field
before its first enumeration pass) unpacks rows into base-p digits,
multiplies by schoolbook convolution plus a reduction matrix for the
modulus and packs the result.  Its dtypes are worked out from p and k, so
it is exact for every prime: products accumulate in float64 while every
intermediate stays below 2^53, else in int64, and past the int64 range in
Python-int (object) arrays.  F_p-linear maps such as the absolute trace
are applied as digit matrices (linear_map) in either engine.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .gf import FqElement, FqField, _prime_factors

CHUNK = 1 << 18  # rows per array in an enumeration pass; bounds peak memory
TABLE_MAX = 10_000_000  # largest field given tables: varieties.DEFAULT_BUDGET
TABLE_BLOCK = 1 << 11  # digit columns per matmul while building tables; stays in cache


def _int_dtype(bound: int):
    """Smallest signed integer dtype holding 0..bound; object past int64."""
    for dtype in (np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _table_bound(p: int, k: int) -> int:
    """A bound on every float64 value that a table build of F_{p^k} forms:
    a digit product sums k terms of at most (p - 1)^2, a packed element is
    below p^k, and the reduction adds 1/2."""
    return max(k * (p - 1) ** 2, p**k) + 1


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, into out if given.  Over an inner dimension of 1 (k = 1) the
    product is an outer one, which np.matmul runs about 10x slower than
    np.multiply does by broadcasting."""
    return (np.multiply if a.shape[-1] == 1 else np.matmul)(a, b, out=out)


def _mod_p(a: np.ndarray, p: int, spare: np.ndarray) -> np.ndarray:
    """a mod p in place, for float64 integers 0 <= a < 2^51, as
    a - p floor((a + 1/2)(1/p)); spare is a buffer of a's shape.  Below
    256 entries one exact np.fmod call is cheaper than these five passes,
    though per entry it is about 7x slower."""
    if a.size < 256:
        return np.fmod(a, p, out=a)
    np.add(a, 0.5, out=spare)
    spare *= 1 / p
    np.floor(spare, out=spare)
    spare *= p
    a -= spare
    return a


class VecField:
    def __init__(self, field: FqField):
        self.field = field
        self.p = p = field.p
        self.k = k = field.e
        self.q = q = field.q
        self.dtype = _int_dtype(2 * (q - 1))  # a sum of two elements fits
        self._wide = _int_dtype(q)  # packing and unpacking
        # largest intermediate of a digit product: k-term convolution sums,
        # then k - 1 more terms from the reduction matmul
        bound = k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1))
        self.acc_dtype = np.float64 if bound < 2**53 else _int_dtype(bound)
        # reduction rows: x^{k+i} mod modulus as digit vectors, i = 0..k-2,
        # the rows of the field's fold columns
        rows = list(zip(*field._cols))
        self._reduce = np.array(rows, dtype=object).reshape(k - 1, k).astype(self.acc_dtype)
        self._exp = self._log = self._zech = None

    @property
    def tabulated(self) -> bool:
        """Whether this field's exp/log/Zech tables have been built."""
        return self._exp is not None

    # --- rows ---

    def digits_of_range(self, start: int, stop: int, f: int = 1) -> list[np.ndarray]:
        """The f-tuples of F_q^f with tuple indices start..stop-1, as f
        arrays of packed elements.  Tuple index i = sum_j to_int(x_j)
        q^(f-1-j): the lexicographic order of itertools.product over
        enumerate().  A range over f >= 1 variables belongs to a pass over
        at least q rows, so it builds the field's tables if it has none."""
        if f and self._exp is None and self.q <= TABLE_MAX:
            self._tabulate()
        n = np.arange(start, stop, dtype=np.int64 if stop <= np.iinfo(np.int64).max else object)
        out = []
        for _ in range(f):
            out.append((n % self.q).astype(self.dtype))
            n = n // self.q
        return out[::-1]

    def const(self, c) -> np.ndarray:
        """c as a one-row array: an FqElement of this field, or an integer
        read as the prime-field element c mod p."""
        n = c.to_int() if isinstance(c, FqElement) else c % self.p
        return np.array([n], dtype=self.dtype)

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=self.dtype)

    def elements(self, a: np.ndarray, index: np.ndarray) -> list[FqElement]:
        """The FqElements at the given rows of a; a one-row constant stands
        for every row."""
        picked = a[index] if a.shape[0] > 1 else np.repeat(a, len(index))
        return [self.field.from_int(n) for n in picked.tolist()]

    # --- arithmetic ---

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        if self._exp is None:
            return self._pack(self._unpack(a) + self._unpack(b))
        la, lb = self._log.take(a), self._log.take(b)
        lo = np.minimum(la, lb)
        return self._exp.take(lo + self._zech.take(np.maximum(la, lb) - lo, mode="clip"), mode="clip")

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a - b) % self.p
        if self._exp is None:
            return self._pack(self._unpack(a) - self._unpack(b))
        return self.add(a, self._exp.take(self._log.take(b) + (self.q - 1) // 2, mode="clip"))

    def scale(self, a: np.ndarray, c: int) -> np.ndarray:
        """c * a for an integer c, an element of the prime field."""
        if self._exp is None:
            return self._pack(self._unpack(a) * (c % self.p))
        return self._exp.take(self._log.take(a) + self._log[c % self.p], mode="clip")

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._exp is not None:
            return self._exp.take(self._log.take(a) + self._log.take(b), mode="clip")
        k = self.k
        wa, wb = self._unpack(a), self._unpack(b)
        conv = np.zeros((max(a.shape[0], b.shape[0]), 2 * k - 1), dtype=self.acc_dtype)
        for i in range(k):
            conv[:, i : i + k] += wa[:, i : i + 1] * wb
        low = conv[:, :k]
        if k > 1:
            low = low + conv[:, k:] @ self._reduce
        return self._pack(low)

    def power(self, a: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return self.const(1)
        if self._exp is not None:
            order = self.q - 1
            if e % order == 1:  # x^e = x, as for Frobenius of the whole field
                return a
            logs = self._log.take(a).astype(np.int64) * (e % order) % order
            return np.where(a == 0, 0, self._exp.take(logs))
        result = None
        while e:
            if e & 1:
                result = a if result is None else self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def linear_map(self, a: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Apply the F_p-linear map from F_{p^k} to F_{p^j} whose i-th row
        (j digits) is the image of x^i."""
        return self._pack(self._unpack(a) @ m.astype(self.acc_dtype))

    def trace(self, a: np.ndarray) -> np.ndarray:
        """Absolute trace to F_p of each row, as an integer array."""
        return self.linear_map(a, self._trace_column)

    @cached_property
    def _trace_column(self) -> np.ndarray:
        column = []
        for i in range(self.k):
            y = acc = self.field.element([0] * i + [1])
            for _ in range(self.k - 1):
                y = y**self.p
                acc = acc + y
            column.append([acc.coeffs[0]])
        return np.array(column, dtype=object)

    def is_square(self, a: np.ndarray) -> np.ndarray:
        """True where a is a nonzero square: a nonzero row in characteristic
        2, an even log with tables, else by Euler's criterion
        a^((q-1)/2) = 1."""
        if self.p == 2:
            return a != 0
        if self._exp is not None:
            return self._log.take(a) % 2 == 0  # log 0, the sentinel, is odd
        return self.equal(self.power(a, (self.q - 1) // 2), self.const(1))

    def is_zero(self, a: np.ndarray) -> np.ndarray:
        return a == 0

    def equal(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise equality; packed indices are unique."""
        return a == b

    # --- digit engine ---

    def _unpack(self, a: np.ndarray) -> np.ndarray:
        """(N, k) base-p digits of the rows, in the accumulator dtype."""
        digits = np.empty((a.shape[0], self.k), dtype=self.acc_dtype)
        n = a.astype(self._wide)
        for i in range(self.k):
            digits[:, i] = n % self.p
            n = n // self.p
        return digits

    def _pack(self, digits: np.ndarray) -> np.ndarray:
        """Packed rows of a digit array, reducing every digit mod p."""
        digits = digits % self.p
        if self.acc_dtype is np.float64:
            digits = digits.astype(np.int64)
        n = digits[:, -1].astype(self._wide)
        for i in range(digits.shape[1] - 2, -1, -1):
            n = n * self.p + digits[:, i]
        return n.astype(self.dtype)

    # --- tables ---

    def _tabulate(self):
        p, k, q = self.p, self.k, self.q
        order = q - 1
        g = self._generator()
        # g^0..g^(cols-1) as digit columns, by doubling: step is the digit
        # matrix of multiplication by g^m.  Float64 products are exact (see
        # the module docstring) and run in BLAS: at (10 x 10)(10 x 2048)
        # 16 us against 283 us for numpy's integer matmul, which has no BLAS
        # route, and 39 against 361 us with the reduction mod p (one thread)
        cols = min(TABLE_BLOCK, order)
        block = np.zeros((k, cols))
        block[0, 0] = 1
        # buffers of block's size, reduced through contiguous (k, n) views:
        # ufuncs on column slices are 2-3x slower
        work, spare = np.empty(k * cols), np.empty(k * cols)
        step, m = self._mul_matrix(g).T.astype(np.float64), 1  # columns c*x^i
        while m < cols:
            n = min(m, cols - m)
            product = _matmul(step, block[:, :n], work[: k * n].reshape(k, n))
            block[:, m : m + n] = _mod_p(product, p, spare[: k * n].reshape(k, n))
            step, m = step @ step % p, 2 * m
        work, spare = work.reshape(k, cols), spare.reshape(k, cols)
        weights = p ** np.arange(k, dtype=np.float64).reshape(1, k)
        exp = np.empty(2 * order, dtype=np.int32)
        log = np.empty(q, dtype=np.int32)
        zech = np.zeros(q, dtype=np.int32)  # 1 + g^d, then its log
        digits, shift = block, step
        for start in range(0, order, cols):
            n = min(cols, order - start)
            exp[start : start + n] = _matmul(weights, digits[:, :n])[0]
            y = exp[start : start + n]
            log[y] = np.arange(start, start + n, dtype=np.int32)
            # 1 + y raises y's constant digit, p - 1 wrapping to 0
            zech[start : start + n] = y + 1 - p * (digits[0, :n] == p - 1)
            if start + cols < order:
                # the next block is the first one times g^(start + cols):
                # cols is then a power of 2, and step multiplies by g^cols
                digits = _mod_p(_matmul(shift, block, work), p, spare)
                shift = step @ shift % p
        exp[order : 2 * order - 1] = exp[: order - 1]
        exp[-1] = 0
        log[0] = 2 * order - 1
        # zech[d] = log(1 + g^d); zech[q - 1] = 0 is the clip target for a
        # zero summand
        for start in range(0, order, CHUNK):
            part = zech[start : min(start + CHUNK, order)]
            log.take(part, out=part)  # take buffers out, so part may be it
        self._exp, self._log, self._zech = exp, log, zech

    def _generator(self) -> list[int]:
        """Digits of the element of smallest packed index with multiplicative
        order q - 1 (past the constants when k > 1: their order divides
        p - 1), the one whose power to no cofactor (q - 1)/r is 1.  Over F_p
        a candidate n is tested by pow(n, c, p), above it by k x k digit
        matrices."""
        order = self.q - 1
        cofactors = [order // r for r in _prime_factors(order)]
        if self.k == 1:
            return [next(n for n in range(1, self.p) if all(pow(n, c, self.p) != 1 for c in cofactors))]
        identity = np.eye(self.k, dtype=np.int64)
        for n in range(self.p, self.q):
            g = list(self.field.from_int(n).coeffs)
            m = self._mul_matrix(g)
            if not any((self._matrix_power(m, c) == identity).all() for c in cofactors):
                return g
        raise AssertionError("F_q^* is cyclic")  # unreachable

    def _mul_matrix(self, c: list[int]) -> np.ndarray:
        """Digit matrix of y -> c*y: row i is c*x^i."""
        shift = np.zeros((self.k, self.k), dtype=np.int64)  # y -> x*y
        shift[np.arange(self.k - 1), np.arange(1, self.k)] = 1
        shift[-1] = [-m % self.p for m in self.field.modulus[: self.k]]
        rows = [np.array(c, dtype=np.int64)]
        for _ in range(self.k - 1):
            rows.append(rows[-1] @ shift % self.p)
        return np.array(rows)

    def _matrix_power(self, base: np.ndarray, e: int) -> np.ndarray:
        """base^e for a k x k digit matrix, by square and multiply."""
        result = np.eye(self.k, dtype=np.int64)
        while e:
            if e & 1:
                result = result @ base % self.p
            e >>= 1
            if e:
                base = base @ base % self.p
        return result


@lru_cache(maxsize=16)
def vec_field(field: FqField) -> VecField:
    """The VecField of a field, shared so its tables are built once."""
    return VecField(field)
