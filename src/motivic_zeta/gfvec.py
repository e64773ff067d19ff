"""Vectorized finite-field arithmetic on arrays of field elements.

N elements of F_{p^k} form an int32 array of shape (N,), one row per
element; a one-row array is a constant that broadcasts against N-row
arrays.  Row i of digits_of_range(a, b, f) holds the f-tuple of elements
whose tuple index is a + i.  A row is unique to its element, so rows
compare with ==, and a - b is add(a, mul(b, const(-1))).

A row is a discrete log.  Let g be the element of smallest packed index
among those of multiplicative order q - 1.  A row holds log_g of its
element, in [0, q - 1), and 0 is the one sentinel ZERO = -2^29.  A product
or a power is integer arithmetic mod q - 1, and a nonzero square is an
even log.  A sum of nonzero g^l and g^h, l <= h, is g^(h + zech[h - l])
with zech[d] = log(1 + g^-d), one gather: an index at or past q - 1 (a
zero summand, so h - l >= -ZERO) is clipped to zech's last entry, 0, and
1 + g^-d = 0 gives ZERO.  A sum s formed in [2 ZERO, 2(q - 2)] is brought
back to a row, with no mask, as max(min(u, u - (q - 1)), ZERO) for u the
uint32 view of s: u - (q - 1) wraps above u for 0 <= s < q - 1, lies
below it otherwise, and a negative s stays negative, now below ZERO.
Alongside zech, exp[i] = g^i as a packed index sum_i c_i p^i over the
coordinates c_i of the element, as in FqElement.to_int (exp[q - 1] = 0,
so the uint32 view of ZERO clips to it), and log = exp^-1 (log[0] = ZERO)
convert between logs and packed indices, for constants and for elements,
linear_map and trace; the three tables take 12 bytes per element.  In
characteristic 2 the absolute trace is the parity of the packed bits
under the column Tr(x^i) of gf.trace_column.

Every intermediate stays inside int32, since q <= TABLE_MAX < 2^24: a row
is at least ZERO = -2^29; a sum of two rows lies in [-2^30, 2^25); a
difference h - l of rows is below 2^29 + 2^24; a reduced sum is at least
-2^30 - 2^24; and a power e*log, at most (q - 2)^2 < 2^48, is formed in
int64 whenever e (q - 2) >= 2^31.

Passes run in chunks of CHUNK = 2^14 rows (varieties._assignments), and
so does the Zech swap of a table build.  A row array is then 64 KB of
int32.  An op writes its intermediates with out= into its result and at
most one scratch array, and the intp indices that np.take wants for the
Zech gather go into one per-thread buffer of CHUNK rows.  So the arrays a
chunk keeps alive, a few hundred KB, fit in cache, and the allocator hands
the same memory back chunk after chunk: 2^18-row chunks took about 1 MB
of fresh pages per temporary (7039 minor page faults in a seed-1
counts-large-q round against about 2100, on a 2-core x86-64 container).

A VecField builds its tables when it is made, for at most TABLE_MAX
elements: a larger field is refused by errors.charge (kind TABLES), which
varieties takes before it builds the field.  exp is built by doubling:
multiplication by g^m is a k x k F_p-linear map on digits, so each step
is one digit matmul.  These run in float64, through BLAS, and are
exact: every entry is an integer, and no value formed exceeds
_table_bound(p, k) = max(k (p - 1)^2, p^k) + 1, which stays below 2^51
for every field TABLE_MAX admits (about 10^14 at k = 1).  A digit is
reduced mod p as a - p floor((a + 1/2)(1/p)), or in a small array by
np.fmod, exact as well, in one call.  The float quotient is off by less
than (a + 1/2) 2^-52 / p, and (a + 1/2)/p lies at least 1/(2p) from an
integer, so below 2^51 the floor is exact; without the 1/2, a multiple of
p can round to just below its quotient (fl(1/p) p 2^j < 2^j), and
20011 * 2^j reduces to p instead of 0.  g is found by testing candidates
against each cofactor (q - 1)/r, r a prime factor of q - 1: over F_p by
pow(n, (q - 1)/r, p), above it by powers of its k x k digit matrix.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import charge
from .gf import FqElement, FqField, _prime_factors, trace_column

CHUNK = 1 << 14  # rows per array in a pass: 64 KB of int32, so a chunk stays in cache (see above)
TABLE_MAX = 10_000_000  # largest field given tables: errors.DEFAULT_BUDGET
TABLES = "elements of a field given log tables"  # the kind charged against TABLE_MAX
TABLE_BLOCK = 1 << 11  # digit columns per matmul while building tables; stays in cache
ZERO = np.int32(-(1 << 29))  # the row of 0 in the table engine, which holds logs
_scratch = threading.local()  # per thread: index, the intp buffer of _index_rows


def _index_rows(a: np.ndarray) -> np.ndarray:
    """a as intp, the index type np.take converts any other to: up to CHUNK
    rows in this thread's one buffer, so a pass reuses it chunk after chunk
    instead of taking fresh pages for each gather; past CHUNK, a new array."""
    n = a.shape[0]
    if n > CHUNK:
        return a.astype(np.intp)
    buf = getattr(_scratch, "index", None)
    if buf is None or buf.shape[0] < n:
        buf = _scratch.index = np.empty(CHUNK, dtype=np.intp)
    d = buf[:n]
    d[...] = a
    return d


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
    """The rows and ring operations of one field, with its tables; a field
    above TABLE_MAX is refused (charged as TABLES)."""

    def __init__(self, field: FqField):
        charge(TABLES, field.q, TABLE_MAX)
        self.field = field
        self.p, self.k, self.q = field.p, field.e, field.q
        self._tabulate()

    @property
    def table_bytes(self) -> int:
        """Bytes held by the exp/log/Zech tables: 12 per element."""
        return self._exp.nbytes + self._log.nbytes + self._zech.nbytes

    # --- rows ---

    def digits_of_range(self, start: int, stop: int, f: int = 1) -> list[np.ndarray]:
        """The f-tuples of F_q^f with tuple indices start..stop-1, as f
        arrays of rows.  Tuple index i = sum_j v_j q^(f-1-j): the
        lexicographic order of the value indices v_j in [0, q), log v for
        v < q - 1 and 0 for v = q - 1."""
        if f == 1:
            logs = np.arange(start, stop, dtype=np.int32)
            if stop == self.q:
                logs[-1] = ZERO
            return [logs]
        n = np.arange(start, stop, dtype=np.int32 if stop < 2**31 else np.int64)
        out = []
        for _ in range(f):
            # n mod q as n - q (n // q): numpy divides by a scalar through
            # libdivide for //, and about 8x slower for % (int32, 16 Ki rows)
            quo = n // self.q
            n -= quo * self.q
            v = n.astype(np.int32, copy=False)
            np.putmask(v, v == self.q - 1, ZERO)
            out.append(v)
            n = quo
        return out[::-1]

    def from_packed(self, n: np.ndarray) -> np.ndarray:
        """Rows of an array of packed indices."""
        return self._log.take(n)

    def packed(self, a: np.ndarray) -> np.ndarray:
        """The packed indices of rows; the uint32 view of ZERO clips to
        exp's last entry, 0."""
        return self._exp.take(a.view(np.uint32), mode="clip")

    def const(self, c) -> np.ndarray:
        """c as a one-row array: an FqElement of this field, or an integer
        read as the prime-field element c mod p."""
        n = c.to_int() if isinstance(c, FqElement) else c % self.p
        return self.from_packed(np.array([n]))

    def elements(self, a: np.ndarray, index: np.ndarray) -> list[FqElement]:
        """The FqElements at the given rows of a; a one-row constant stands
        for every row."""
        picked = a[index] if a.shape[0] > 1 else np.repeat(a, len(index))
        return [self.field.from_int(n) for n in self.packed(picked).tolist()]

    # --- arithmetic ---

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._add_logs(np.maximum(a, b), np.minimum(a, b))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._reduce_log(a + b)

    def power(self, a: np.ndarray, e: int) -> np.ndarray:
        if e == 0:
            return self.const(1)
        order = self.q - 1
        e %= order
        if e == 1:  # x^e = x, as for Frobenius of the whole field
            return a
        # e * log a mod q - 1, with a zero row read as log 0; then the bits
        # of ZERO, which no log has, are or-ed back into zero rows
        logs = np.maximum(a, 0, dtype=np.int32 if e * (order - 1) < 2**31 else np.int64)
        logs *= e
        logs %= order
        out = a & ZERO
        out |= logs
        return out

    def linear_map(self, a: np.ndarray, m) -> np.ndarray:
        """Apply the F_p-linear map from F_{p^k} to F_{p^j}, p^j < 2^63, whose
        i-th row (j digits) is the image of x^i, as packed indices of F_{p^j};
        int64 is exact, as a digit product sum is at most k (p - 1)^2 < 2^47."""
        n = self.packed(a).astype(np.int64)
        digits = np.stack([n // self.p**i % self.p for i in range(self.k)], axis=1)
        image = digits @ np.asarray(m, dtype=np.int64) % self.p
        return image @ self.p ** np.arange(image.shape[1], dtype=np.int64)

    def trace(self, a: np.ndarray) -> np.ndarray:
        """Absolute trace to F_2 of each row, in characteristic 2 only, as
        an integer array: the parity of the packed bits i with Tr(x^i) = 1,
        folded by XOR (np.bitwise_count needs numpy 2)."""
        x = self.packed(a) & sum(t << i for i, t in enumerate(trace_column(self.field)))
        width = 1 << (self.k - 1).bit_length()  # a power of 2 >= k
        while width > 1:
            width >>= 1
            x ^= x >> width
        return x & 1

    def is_square(self, a: np.ndarray) -> np.ndarray:
        """True where a is a nonzero square: a nonzero row in characteristic
        2, else an even log (ZERO | 1 masks the parity and the bits only
        ZERO has)."""
        if self.p == 2:
            return a != ZERO
        return (a & (ZERO | 1)) == 0

    def is_zero(self, a: np.ndarray) -> np.ndarray:
        return a == ZERO

    def _add_logs(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """The row of g^hi + g^lo for rows hi >= lo, hi + zech[hi - lo]
        reduced; both arrays are overwritten, and the result is lo's."""
        np.subtract(hi, lo, out=lo)
        self._zech.take(_index_rows(lo), mode="clip", out=lo)
        hi += lo
        return self._reduce_log(hi, out=lo)

    def _reduce_log(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The row of a sum s of rows or of a row and a zech entry, in
        [2 ZERO, 2(q - 2)], as max(min(u, u - (q - 1)), ZERO) for u the
        uint32 view of s (see the module docstring), written into out, an
        int32 array of s's shape apart from s, or into a new array."""
        u = s.view(np.uint32)
        if out is None:
            t = u - self._order
            out = t.view(np.int32)
        else:
            t = np.subtract(u, self._order, out=out.view(np.uint32))
        np.minimum(u, t, out=t)
        return np.maximum(out, ZERO, out=out)

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
        exp = np.empty(q, dtype=np.int32)
        log = np.empty(q, dtype=np.int32)
        zech = np.zeros(q, dtype=np.int32)  # 1 + g^i, then zech[d] = log(1 + g^-d)
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
        exp[order] = 0
        log[0] = ZERO
        # zech[d] takes the log of 1 + g^(q - 1 - d) for 0 < d < q - 1: the
        # pairs d, q - 1 - d swap in place, a chunk of each at a time;
        # zech[q - 1] = 0 is the clip target for a zero summand
        zech[0] = log[zech[0]]
        half = order // 2 + 1
        for start in range(1, half, CHUNK):
            stop = min(start + CHUNK, half)
            low, high = zech[start:stop], zech[order - stop + 1 : order - start + 1]
            low_logs, high_logs = log.take(low), log.take(high)
            low[:], high[:] = high_logs[::-1], low_logs[::-1]
        self._exp, self._log, self._zech = exp, log, zech
        self._order = np.uint32(order)

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


_fields: dict[FqField, VecField] = {}  # vec_field's cache, least recently used first


def vec_field(field: FqField) -> VecField:
    """The VecField of a field, shared so its tables are built once.  The
    most recently used fields are kept while their tables take at most
    12 TABLE_MAX bytes, those of one field of TABLE_MAX elements."""
    vf = _fields.pop(field, None) or VecField(field)
    _fields[field] = vf
    held = sum(v.table_bytes for v in _fields.values())
    while held > 12 * TABLE_MAX:
        held -= _fields.pop(next(iter(_fields))).table_bytes
    return vf


vec_field.cache_clear = _fields.clear
