"""Vectorized finite-field arithmetic on digit arrays.

Elements of F_{p^k} are stored as numpy arrays of base-p digits, shape
(N, k), one row per element; a one-row array is a constant that
broadcasts against N-row arrays.  Row i of digits_of_range(a, b) is the
element (or f-tuple of elements) whose packed index is a + i, matching
FqElement.to_int and the FqField.enumerate order.  Products use schoolbook
convolution plus a precomputed reduction matrix for the modulus;
Frobenius powers, multiplication by a fixed constant and the absolute
trace are F_p-linear and applied as digit matrices.

Every dtype is worked out here from p and k, so the arithmetic is exact
for every prime.  Digits use the smallest signed integer type that holds
the sum of two digits.  Products accumulate in float64 while every
intermediate stays below 2^53 (BLAS then does the reduction matmul), else
in int64, and past the int64 range digits and products are Python-int
(object) arrays.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .gf import FqElement, FqField

CHUNK = 1 << 18  # rows per array in an enumeration pass; bounds peak memory


def _int_dtype(bound: int):
    """Smallest signed integer dtype holding 0..bound; object past int64."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


class VecField:
    def __init__(self, field: FqField):
        self.field = field
        self.p = p = field.p
        self.k = k = field.e
        self.q = field.q
        self.dtype = _int_dtype(2 * (p - 1))
        # largest intermediate of mul: k-term convolution sums, then k - 1
        # more terms from the reduction matmul
        bound = k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1))
        self.acc_dtype = np.float64 if bound < 2**53 else _int_dtype(bound)
        # reduction rows: x^{k+i} mod modulus as digit vectors, i = 0..k-2
        x = field.element([0, 1])
        rows = [list((x ** (k + i)).coeffs) for i in range(k - 1)]
        self._reduce = np.array(rows, dtype=object).reshape(k - 1, k).astype(self.acc_dtype)

    def _exact(self, a: np.ndarray) -> np.ndarray:
        return a.astype(self.acc_dtype)

    def _digits(self, wide: np.ndarray) -> np.ndarray:
        return (wide % self.p).astype(self.dtype)

    def digits_of_range(self, start: int, stop: int, f: int = 1) -> list[np.ndarray]:
        """The f-tuples of F_q^f with packed indices start..stop-1, as f
        digit arrays.  Tuple index i = sum_j to_int(x_j) q^(f-1-j): the
        lexicographic order of itertools.product over enumerate()."""
        fits = self.dtype is not object and stop <= np.iinfo(np.int64).max
        n = np.arange(start, stop, dtype=np.int64 if fits else object)
        digits = np.empty((stop - start, f * self.k), dtype=self.dtype)
        for i in range(f * self.k):
            digits[:, i] = n % self.p
            n //= self.p
        return [digits[:, (f - 1 - j) * self.k : (f - j) * self.k] for j in range(f)]

    def const(self, c: int) -> np.ndarray:
        """The prime-field element c mod p as a one-row digit array."""
        return np.array([[c % self.p] + [0] * (self.k - 1)], dtype=self.dtype)

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros((n, self.k), dtype=self.dtype)

    def elements(self, a: np.ndarray, index: np.ndarray) -> list[FqElement]:
        """The FqElements at the given rows of a; a one-row constant stands
        for every row."""
        picked = a[index] if a.shape[0] > 1 else np.repeat(a, len(index), axis=0)
        return [FqElement(self.field, tuple(row)) for row in picked.tolist()]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.p

    def scale(self, a: np.ndarray, c: int) -> np.ndarray:
        """c * a for an integer c, an element of the prime field."""
        return self._digits(self._exact(a) * (c % self.p))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = self.k
        n = max(a.shape[0], b.shape[0])
        conv = np.zeros((n, 2 * k - 1), dtype=self.acc_dtype)
        wa, wb = self._exact(a), self._exact(b)
        for i in range(k):
            conv[:, i : i + k] += wa[:, i : i + 1] * wb
        low = conv[:, :k]
        if k > 1:
            low = low + conv[:, k:] @ self._reduce
        return self._digits(low)

    def power(self, a: np.ndarray, e: int) -> np.ndarray:
        result = None
        while e:
            if e & 1:
                result = a if result is None else self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return self.const(1) if result is None else result

    def linear_map(self, a: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Apply the F_p-linear map whose i-th row is the image of x^i."""
        return self._digits(self._exact(a) @ self._exact(m))

    def frobenius_matrix(self, power_of_p: int) -> np.ndarray:
        """Digit matrix of x -> x^{p^m}; rows are images of the basis x^i."""
        exp = self.p**power_of_p
        return self._matrix(lambda basis: basis**exp)

    def const_mul_matrix(self, c: FqElement) -> np.ndarray:
        """Digit matrix of x -> c*x."""
        return self._matrix(lambda basis: c * basis)

    def _matrix(self, image) -> np.ndarray:
        rows = [list(image(self.field.element([0] * i + [1])).coeffs) for i in range(self.k)]
        return np.array(rows, dtype=self.dtype)

    def trace(self, a: np.ndarray) -> np.ndarray:
        """Absolute trace to F_p of each row, as an integer array."""
        return self.linear_map(a, self._trace_column)[:, 0]

    @cached_property
    def _trace_column(self) -> np.ndarray:
        def trace(y):
            acc = y
            for _ in range(self.k - 1):
                y = y**self.p
                acc = acc + y
            return acc

        return self._matrix(trace)[:, :1]

    def is_square(self, a: np.ndarray, tabulate: bool) -> np.ndarray:
        """True where a is a nonzero square (odd p).  With `tabulate` the
        rows are looked up in a table of all q elements, built once per
        field at the cost of q multiplications; otherwise Euler's
        criterion a^((q-1)/2) = 1 is evaluated row by row."""
        if not tabulate:
            return self.equal(self.power(a, (self.q - 1) // 2), self.const(1))
        return self._square_table[self._pack(a)]

    @cached_property
    def _square_table(self) -> np.ndarray:
        table = np.zeros(self.q, dtype=bool)
        for start in range(0, self.q, CHUNK):
            (y,) = self.digits_of_range(start, min(start + CHUNK, self.q))
            table[self._pack(self.mul(y, y))] = True
        table[0] = False
        return table

    def _pack(self, a: np.ndarray) -> np.ndarray:
        """Packed indices of the rows (they index a table of q entries)."""
        return a.astype(np.int64) @ (self.p ** np.arange(self.k, dtype=np.int64))

    def is_zero(self, a: np.ndarray) -> np.ndarray:
        return (a == 0).all(axis=1)

    def equal(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise equality; digits are always reduced, so equal elements
        have equal digits."""
        return (a == b).all(axis=1)


@lru_cache(maxsize=16)
def vec_field(field: FqField) -> VecField:
    """The VecField of a field, shared so its tables are built once."""
    return VecField(field)
