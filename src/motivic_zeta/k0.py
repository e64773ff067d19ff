"""Numerical Grothendieck groups from integer Euler-pairing matrices.

Everything here is exact integer linear algebra on one normal form, the
row-Hermite form: one charged form per kernel gives its canonical basis,
it tests saturation (K^T has Hermite form I_r), and, alternated with the
form of the transpose, it gives the Smith form with small transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError, charge
from .exact_core import _json_int


IntMatrix = list[list[int]]
HERMITE = "work of a Hermite form"


def _copy(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(row) for row in m]


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _hermite_with(d: IntMatrix, u: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(t*d, t*u) with t*d the row-Hermite form of d, for u unimodular:
    the Hermite form of [d | u], which keeps every row, since u has full
    rank, and reduces t*u above its pivots too."""
    n = len(d[0])
    rows = hermite_rows([a + b for a, b in zip(d, u)])
    return [row[:n] for row in rows], [row[n:] for row in rows]


def _transpose(m: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*m)]


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Returns (d, u, v) with u*m*v = d diagonal, d_i | d_(i+1), u, v
    unimodular, and the zero entries of the diagonal last.  Row-Hermite
    forms of d and of its transpose alternate until d is diagonal (each
    pass makes the corner entry the gcd of its column, then of its row,
    and once it divides both it splits off), then 2x2 steps
    diag(a, b) -> diag(gcd, lcm) make the diagonal a divisibility chain.
    Both forms reduce the transforms above their pivots, which keeps their
    entries small."""
    d = _copy(m)
    rows = len(d)
    cols = len(d[0]) if rows else 0
    u, vt = _identity(rows), _identity(cols)  # vt is v transposed
    if not (rows and cols):
        return d, u, vt
    while True:
        d, u = _hermite_with(d, u)
        dt, vt = _hermite_with(_transpose(d), vt)
        d = _transpose(dt)
        if not any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
            break
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i, a in enumerate(diag):
        for j in range(i + 1, len(diag)):
            b = diag[j]
            if a == 0 or b % a == 0:
                continue
            g = math.gcd(a, b)
            ag, bg = a // g, b // g
            s = pow(ag, -1, bg)
            t = (g - s * a) // b  # s*a + t*b = g
            ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
            u[i], u[j] = [s * p + t * q for p, q in zip(ui, uj)], [ag * q - bg * p for p, q in zip(ui, uj)]
            vt[i], vt[j] = [p + q for p, q in zip(vi, vj)], [s * ag * q - t * bg * p for p, q in zip(vi, vj)]
            a, diag[j] = g, a * bg
        diag[i] = a
    for i, x in enumerate(diag):
        d[i][i] = x
    return d, u, _transpose(vt)


def hermite_rows(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `vectors`
    (nonzero rows only, positive pivots, entries above pivots reduced)."""
    m = [list(v) for v in vectors if any(v)]
    if not m:
        return []
    cols = len(m[0])
    pivot_row = 0
    for col in range(cols):
        # gcd-reduce all rows below pivot_row in this column
        while True:
            nz = [i for i in range(pivot_row, len(m)) if m[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(m[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][col] // m[i0][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        nz = [i for i in range(pivot_row, len(m)) if m[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[pivot_row], m[i0] = m[i0], m[pivot_row]
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-a for a in m[pivot_row]]
        for i in range(pivot_row):
            q = m[i][col] // m[pivot_row][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return [row for row in m[:pivot_row]]


@dataclass(frozen=True)
class EulerGram:
    chi: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.chi)
        if any(len(row) != n for row in self.chi):
            raise ValidationError("Euler Gram matrix must be square")

    @property
    def n(self) -> int:
        return len(self.chi)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "EulerGram":
        """Rows of ints from outside the library (JSON); a non-list, a
        float, a bool or a string is refused, not coerced.  The builders
        below make their int rows themselves and skip this check."""
        if not (isinstance(rows, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in rows)):
            raise ValidationError(f"an Euler Gram matrix must be a list of rows, got {rows!r}")
        return EulerGram(tuple(tuple(_json_int(x, "Gram entry") for x in row) for row in rows))

    @staticmethod
    def from_json(data: dict) -> "EulerGram":
        return EulerGram.from_rows(data["chi"])


def right_kernel(g: EulerGram) -> list[list[int]]:
    """Hermite-reduced Z-basis of {v : chi v = 0}.

    Row operations on [chi^T | I] keep every row of the form (chi w | w),
    so the rows of its Hermite form whose chi-part vanishes carry a basis
    of the integer kernel in their I-part.  Those rows come last, with
    reduced positive pivots on the I-block: the kernel's Hermite basis.
    """
    n = g.n
    charge_hermite(n, max((max(map(abs, row)) for row in g.chi), default=0).bit_length())
    rows = [[g.chi[j][i] for j in range(n)] + e for i, e in enumerate(_identity(n))]
    return [row[n:] for row in hermite_rows(rows) if not any(row[:n])]


def charge_hermite(n: int, bits: int = 0) -> None:
    """Charge a Hermite form of an n x n Gram of bits-bit entries (bits = 0:
    the least any costs), n^3 operations on 1 + bits // 64 words, over 8;
    a 340-vertex chain's two (4.9 10^6 each) took 1.5 s on a 2-core x86-64."""
    charge(HERMITE, n**3 * (1 + bits // 64) >> 3, None)


def left_kernel(g: EulerGram) -> list[list[int]]:
    """Hermite-reduced Z-basis of {v : v^T chi = 0}."""
    return right_kernel(EulerGram(tuple(zip(*g.chi))))


@dataclass
class NumK0Report:
    rank: int
    left_kernel_basis: list[list[int]]
    right_kernel_basis: list[list[int]]
    kernels_agree: bool
    quotient_basis: list[list[int]]
    warning: str | None = None


def num_grothendieck(g: EulerGram) -> NumK0Report:
    lk = left_kernel(g)
    rk = right_kernel(g)
    agree = lk == rk
    warning = None
    if not agree:
        warning = "left and right kernels differ (non-smooth input); using right kernel"
    return NumK0Report(
        rank=g.n - len(rk),
        left_kernel_basis=lk,
        right_kernel_basis=rk,
        kernels_agree=agree,
        quotient_basis=_complement_basis(rk, g.n),
        warning=warning,
    )


def _complement_basis(kernel: list[list[int]], n: int) -> list[list[int]]:
    """The unit vectors outside the pivot columns of the (saturated) kernel's
    Hermite basis: their classes form a free basis of the quotient."""
    pivots = {next(j for j, x in enumerate(row) if x) for row in kernel}
    return [e for j, e in enumerate(_identity(n)) if j not in pivots]


def kernel_is_saturated(kernel: list[list[int]]) -> bool:
    """True iff the r kernel rows span a saturated lattice: K v = w is
    solvable in Z^n for every w in Z^r, that is, the row-Hermite form of
    K^T is the identity I_r."""
    return hermite_rows(_transpose(kernel)) == _identity(len(kernel))


def beilinson_gram(n: int) -> EulerGram:
    """Euler pairing of the standard exceptional collection on P^n:
    chi_ij = C(n+j-i, n) for j >= i, 0 below the diagonal."""
    if n < 0:
        raise ValidationError("dimension must be >= 0")
    charge("bits of a Beilinson Gram matrix", (n + 1) ** 2 * max(2 * n, 1), None)  # C(2n, n) < 4^n
    return EulerGram(tuple(tuple(math.comb(n + j - i, n) if j >= i else 0 for j in range(n + 1)) for i in range(n + 1)))


def check_quiver(vertices: int, arrows: Sequence[tuple[int, int]]) -> None:
    """Charge a quiver Gram's vertices^2 entries, then refuse an arrow out of
    range or an oriented cycle in O(vertices + arrows), with no Gram: Kahn's
    algorithm removes every vertex, source by source, iff there is none."""
    charge("entries of a quiver Gram matrix", vertices**2, None)
    heads: list[list[int]] = [[] for _ in range(vertices)]
    indegree = [0] * vertices
    for a, b in arrows:
        if not (0 <= a < vertices and 0 <= b < vertices):
            raise ValidationError(f"arrow ({a},{b}) out of range")
        heads[a].append(b)
        indegree[b] += 1
    sources = [x for x in range(vertices) if indegree[x] == 0]
    removed = 0
    while sources:
        removed += 1
        for y in heads[sources.pop()]:
            indegree[y] -= 1
            if indegree[y] == 0:
                sources.append(y)
    if removed < vertices:
        raise ValidationError("quiver has a cycle")


def quiver_gram(vertices: int, arrows: Sequence[tuple[int, int]]) -> EulerGram:
    """Euler form of an acyclic quiver algebra: chi = I - arrow-count matrix."""
    check_quiver(vertices, arrows)
    counts = [[0] * vertices for _ in range(vertices)]
    for a, b in arrows:
        counts[a][b] += 1
    return EulerGram(tuple(tuple(int(i == j) - c for j, c in enumerate(row)) for i, row in enumerate(counts)))


def phi_pairing_check(g: EulerGram, opposite_g: EulerGram) -> bool:
    """True iff the right kernels of the two pairings coincide as lattices."""
    if g.n != opposite_g.n:
        raise ValidationError("pairing matrices must have matching rank")
    return right_kernel(g) == right_kernel(opposite_g)
