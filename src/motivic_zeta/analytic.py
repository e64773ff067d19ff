"""Complex-analytic layer: eigenvalue spectra with certified residuals,
exponential growth rates, Hasse-Weil evaluation Z(f; q^{-s}), pole/zero
lattices, principal-branch logarithms, and the regularized-determinant
consistency check.

Every root comes from one cached function, `_poly_roots_certified`: the
square-free decomposition of the exact polynomial (exact_core) gives each
root's multiplicity, and floats only place the simple roots of each
square-free factor, each certified against its factor.  So multiplicities,
the cancellations between the graded parts (the roots of the exact gcd of
the two characteristic polynomials) and the multiplicities that Jordan
block sizes are read at are exact; no two floats are ever grouped.

The simple roots are placed in Python complex arithmetic, with no array
library: closed forms at degrees 1 and 2, and above them the
Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) started on
circles whose radii come from the Newton polygon of the coefficients
(Bini, Numer. Algorithms 13, 1996).  The Jordan block sizes read float
ranks from a complete-pivoting elimination.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import (
    NotInvertibleError,
    NumericError,
    PoleError,
    PreconditionError,
)
from .exact_core import Polynomial, RatMatrix, _frac, squarefree_factors
from .gf import is_prime_power
from .motives import TracedMotive, trace_sequence, zeta_rational

RESIDUAL_TOL = 1e-8
ABERTH_MAX_SWEEPS = 100


def _check_q(q: int) -> None:
    if not (isinstance(q, int) and is_prime_power(q)):
        raise PreconditionError(f"q must be a prime power, got {q!r}")


def _quadratic_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> list[complex]:
    """The roots of c2 t^2 + c1 t + c0 with a nonzero discriminant, whose
    sign is decided exactly, so a non-real pair is never taken for two
    real roots.  A real pair takes the larger root from the formula and
    the smaller from the product c0/c2, so neither cancels."""
    disc = c1 * c1 - 4 * c2 * c0
    centre = float(-c1 / (2 * c2))
    half_width = math.sqrt(float(abs(disc) / (4 * c2 * c2)))
    if disc < 0:
        return [complex(centre, half_width), complex(centre, -half_width)]
    big = centre + math.copysign(half_width, centre)
    return [complex(big, 0.0), complex(float(c0 / c2) / big, 0.0)]


def _horner(rev: list[float], z: complex) -> tuple[complex, complex]:
    """(p(z), p'(z)) for the coefficients of p from the leading one down."""
    p, dp = rev[0], 0.0
    for c in rev[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _initial_points(c: list[float]) -> list[complex]:
    """Bini's starting points: for each edge (i, j) of the upper convex
    hull of the points (k, log|c_k|), j - i points on the circle of radius
    (|c_i|/|c_j|)^(1/(j-i)), turned by an angle that keeps the set off
    the real axis's symmetry."""
    d = len(c) - 1
    pts = [(k, math.log(abs(x))) for k, x in enumerate(c) if x]
    hull: list[tuple[int, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) < 0:
                break
            hull.pop()
        hull.append(pt)
    out = []
    for (i, yi), (j, yj) in zip(hull, hull[1:]):
        radius = math.exp((yi - yj) / (j - i))
        for m in range(j - i):
            out.append(cmath.rect(radius, 2 * math.pi * (m / (j - i) + i / d) + 0.7))
    return out


def _aberth(c: list[float]) -> list[complex]:
    """Approximations to the d simple roots of sum c_k t^k, d >= 1, by
    Aberth-Ehrlich sweeps that update each root in place.  A root stops
    moving once |p(z)| is within the rounding error of Horner's rule,
    d 2^-53 sum |c_k| |z|^k; each then takes one Newton step."""
    d = len(c) - 1
    rev = c[::-1]
    mags = [abs(x) for x in rev]
    eps = 4 * d * 2.0 ** -53
    z = _initial_points(c)
    moving = list(range(d))
    for _ in range(ABERTH_MAX_SWEEPS):
        if not moving:
            break
        still = []
        for i in moving:
            zi = z[i]
            p, dp = _horner(rev, zi)
            r, bound = abs(zi), 0.0
            for m in mags:
                bound = bound * r + m
            if abs(p) <= eps * bound:
                continue
            repulsion = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
            z[i] = zi - p / (dp - p * repulsion)
            still.append(i)
        moving = still
    for i, zi in enumerate(z):
        p, dp = _horner(rev, zi)
        if dp:
            z[i] = zi - p / dp
    return z


def _conjugate_pairs(roots: list[complex]) -> list[complex]:
    """The roots of a real polynomial with the tiny imaginary parts zeroed
    and each non-real root paired with the nearest conjugate of another,
    both replaced by their mean: real roots have imag == 0.0 and the
    others come in exact conjugate pairs."""
    real, upper, lower = [], [], []
    for z in roots:
        if abs(z.imag) <= 1e-9 * (1 + abs(z)):
            real.append(complex(z.real, 0.0))
        else:
            (upper if z.imag > 0 else lower).append(z)
    if len(upper) != len(lower):
        raise NumericError("the non-real roots of a real polynomial do not pair up")
    for z in upper:
        w = min(lower, key=lambda w: abs(w.conjugate() - z))
        lower.remove(w)
        re, im = (z.real + w.real) / 2, (z.imag - w.imag) / 2
        real += [complex(re, im), complex(re, -im)]
    return real


def _simple_roots(a: Polynomial) -> list[complex]:
    """Float approximations to the roots of a square-free a of degree >= 1
    with a(0) != 0, real ones with imag == 0.0 and the others in exact
    conjugate pairs: closed forms at degrees 1 and 2, Aberth-Ehrlich above
    them."""
    c = a.coeffs
    if a.degree == 1:
        return [complex(float(-c[0] / c[1]), 0.0)]
    if a.degree == 2:
        return _quadratic_roots(*c)
    try:
        z = _aberth([float(x) for x in c])
    except ZeroDivisionError:
        raise NumericError(f"the Aberth-Ehrlich iteration divided by zero on {a}") from None
    for i in range(len(z)):
        for j in range(i):
            if abs(z[i] - z[j]) <= 1e-12 * (1 + abs(z[i])):
                raise NumericError(f"two approximations meet at {z[i]} on a square-free factor")
    return _conjugate_pairs(z)


@functools.lru_cache(maxsize=64)
def _poly_roots_certified(p: Polynomial) -> tuple[tuple[complex, int], ...]:
    """The distinct nonzero roots of p, each with its exact multiplicity,
    sorted by real and then imaginary part.  The multiplicity i of a root
    is the index of the square-free factor a_i of p / t^k that it is a
    root of; _simple_roots places the simple roots of each a_i, and each
    is certified to satisfy |a_i(root)| < 1e-8 (1+|root|)^deg(a_i).
    Computed once per polynomial (Polynomial is immutable and hashable),
    so repeated spectra and every Hasse-Weil sample share one
    decomposition and one root placement per factor."""
    if p.is_zero():
        return ()
    k = next(i for i, c in enumerate(p.coeffs) if c)
    out = []
    for mult, a in enumerate(squarefree_factors(Polynomial(p.coeffs[k:])), 1):
        d = a.degree
        if d < 1:
            continue
        for lam in _simple_roots(a):
            residual = abs(a.evaluate(lam))
            if not residual < RESIDUAL_TOL * (1 + abs(lam)) ** d:
                raise NumericError(
                    f"eigenvalue {lam} fails the residual certificate "
                    f"({residual:.3e})"
                )
            out.append((lam, mult))
    out.sort(key=lambda e: (e[0].real, e[0].imag))
    return tuple(out)


def _eigenvalues(p: Polynomial) -> list[complex]:
    """All roots of p, each repeated by its exact multiplicity, zero first."""
    roots = [lam for lam, mult in _poly_roots_certified(p) for _ in range(mult)]
    return [0j] * (p.degree - len(roots)) + roots


@dataclass
class ComplexSpectrum:
    eigenvalues_plus: list[complex]
    eigenvalues_minus: list[complex]
    charpoly_plus: Polynomial
    charpoly_minus: Polynomial


def spectrum(m: TracedMotive) -> ComplexSpectrum:
    cp, cm = m.char_polys
    return ComplexSpectrum(
        eigenvalues_plus=_eigenvalues(cp),
        eigenvalues_minus=_eigenvalues(cm),
        charpoly_plus=cp,
        charpoly_minus=cm,
    )


def spectral_radius(m: TracedMotive) -> tuple[float, float, float]:
    """(rho_plus, rho_minus, rho) with empty parts contributing 0."""
    spec = spectrum(m)
    rp = max((abs(z) for z in spec.eigenvalues_plus), default=0.0)
    rm = max((abs(z) for z in spec.eigenvalues_minus), default=0.0)
    return rp, rm, max(rp, rm)


def growth_bound_check(m: TracedMotive, n_max: int) -> bool:
    """|tr(f^n)| <= (d+ + d-) rho^n (1 + 1e-9) + 1e-12 for n = 1..n_max,
    compared in logs, so that neither side leaves the float range."""
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    _, _, rho = spectral_radius(m)
    dim = m.d_plus + m.d_minus
    traces = trace_sequence(m, n_max)
    log_rho = math.log(rho) if rho > 0 else NEG_INF
    log_slack = math.log(1e-12)
    for n in range(1, n_max + 1):
        t = Fraction(traces[n])
        if t == 0:
            continue
        # the log of bound + slack: the larger log plus log1p(e^-gap)
        log_bound = math.log(dim) + n * log_rho + math.log1p(1e-9)
        top = max(log_bound, log_slack)
        if _log_abs(t) > top + math.log1p(math.exp(min(log_bound, log_slack) - top)):
            return False
    return True


NEG_INF = float("-inf")


def _log_abs(t: Fraction) -> float:
    """log|t| for a nonzero rational of any size: math.log takes ints of
    any size, so log|a/b| = log|a| - log b."""
    return math.log(abs(t.numerator)) - math.log(t.denominator)


def rate_estimate(traces: Sequence) -> float:
    """max over the tail window (last ceil(N/2) indices) of (1/n)log|tr_n|;
    zero traces are skipped; all-zero input gives -inf.  Traces are exact
    rationals as _frac reads them: a float or a bool is a ValidationError."""
    values = [_frac(t) for t in traces]
    n = len(values)
    if n == 0:
        raise PreconditionError("need at least one trace")
    window_start = n - (-(-n // 2))  # n - ceil(n/2)
    best = NEG_INF
    for idx in range(window_start, n):
        t = values[idx]
        if t == 0:
            continue
        best = max(best, _log_abs(t) / (idx + 1))
    return best


@dataclass(frozen=True)
class Inapplicable:
    """Sentinel: every eigenvalue of top modulus cancels between the graded
    parts, so the closed-form growth rate does not apply."""


def rate_exact(m: TracedMotive):
    """log rho when some eigenvalue of modulus rho survives cancelling the
    exact common factor gcd(cp, cm) of the two characteristic polynomials
    (so the leading term of the traces does not cancel); otherwise
    Inapplicable.  A survivor's modulus comes from the quotient
    polynomial, not from cp or cm, so it is compared with rho to float
    accuracy (1e-9, the slack of the pole test)."""
    _, _, rho = spectral_radius(m)
    if rho == 0.0:
        return Inapplicable()
    cp, cm = m.char_polys
    g = cp.gcd(cm)
    top = max((abs(z) for f in (cp // g, cm // g) for z, _ in _poly_roots_certified(f)), default=0.0)
    if top < rho * (1 - 1e-9):
        return Inapplicable()
    return math.log(rho)


# --- Hasse-Weil evaluation and pole/zero geometry ---


def _principal_log_q(lam: complex, q: int) -> complex:
    """log_q on the branch with Im(log lam) in ]-pi, pi]."""
    return cmath.log(lam) / math.log(q)


def hasse_weil_eval(m: TracedMotive, q: int, s: complex) -> complex:
    """Z(f; q^{-s}) evaluated as a complex number."""
    _check_q(q)
    z = zeta_rational(m)
    t0 = cmath.exp(-complex(s) * math.log(q))
    for root, _ in _poly_roots_certified(z.den):
        if abs(t0 - root) <= 1e-9 * (1 + abs(t0)):
            nearest = -cmath.log(root) / math.log(q)
            raise PoleError(
                f"s = {s} hits a pole of the Hasse-Weil zeta function",
                nearest_pole=nearest,
            )
    num = complex(z.num.evaluate(t0))
    den = complex(z.den.evaluate(t0))
    return num / den


def convergence_abscissa(m: TracedMotive, q: int) -> float:
    """log rho / log q; -inf when the spectrum is empty or nilpotent."""
    _check_q(q)
    _, _, rho = spectral_radius(m)
    if rho == 0.0:
        return NEG_INF
    return math.log(rho) / math.log(q)


@dataclass
class MeromorphicReport:
    q: int
    lattice_step: float  # poles/zeros repeat along s -> s + i*lattice_step
    poles: list[dict]
    zeros: list[dict]
    cancellations: list[dict]
    values: list[dict] = field(default_factory=list)


def poles_and_zeros(
    m: TracedMotive, q: int, samples: Sequence[complex] = ()
) -> MeromorphicReport:
    """Base solutions of q^s = eigenvalue on the principal branch; the full
    sets repeat along the imaginary lattice 2 pi / log q.  Poles are the
    nonzero roots of det(t - F+), zeros those of det(t - F-), and
    cancellations those of their exact gcd, all with exact multiplicities."""
    _check_q(q)
    cp, cm = m.char_polys

    def entries(p):
        return [
            {"s": _principal_log_q(lam, q), "eigenvalue": lam, "multiplicity": mult}
            for lam, mult in _poly_roots_certified(p)
        ]

    values = [{"s": complex(s), "value": hasse_weil_eval(m, q, s)} for s in samples]
    return MeromorphicReport(
        q=q,
        lattice_step=2 * math.pi / math.log(q),
        poles=entries(cp),
        zeros=entries(cm),
        cancellations=entries(cp.gcd(cm)),
        values=values,
    )


# --- theta construction and regularized determinants ---


@dataclass
class ThetaEntry:
    z: complex  # principal-branch log_q of the eigenvalue
    eigenvalue: complex
    multiplicity: int
    block_sizes: tuple[int, ...]


@dataclass
class ThetaData:
    q: int
    entries_plus: list[ThetaEntry]
    entries_minus: list[ThetaEntry]
    unipotent_blocks: list[dict]
    branch_window_ok: bool
    log_residual_ok: bool


def _matrix_rank(rows: list[list[complex]], tol: float) -> int:
    """The number of pivots above tol in Gaussian elimination with
    complete pivoting, where each pivot is the largest entry left."""
    a = [row[:] for row in rows]
    n = len(a)
    for rank in range(n):
        pivot, i0, j0 = max((abs(a[i][j]), i, j) for i in range(rank, n) for j in range(rank, n))
        if pivot <= tol:
            return rank
        a[rank], a[i0] = a[i0], a[rank]
        for row in a:
            row[rank], row[j0] = row[j0], row[rank]
        top = a[rank]
        for i in range(rank + 1, n):
            f = a[i][rank] / top[rank]
            a[i] = [x - f * y for x, y in zip(a[i], top)]
    return n


def _jordan_block_sizes(mat: RatMatrix, lam: complex, alg_mult: int) -> tuple[int, ...]:
    """Block-size partition for one eigenvalue of exact algebraic
    multiplicity alg_mult, from float ranks of (M - lam I)^j."""
    n = mat.rows
    a = [[complex(float(mat[i, j])) - (lam if i == j else 0) for j in range(n)] for i in range(n)]
    scale = max(1.0, max(abs(x) for row in a for x in row))
    cols = list(zip(*a))
    ranks = [n]
    power = [[complex(i == j) for j in range(n)] for i in range(n)]
    for _ in range(alg_mult):
        power = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in power]
        r = _matrix_rank(power, 1e-8 * scale ** len(ranks))
        ranks.append(r)
        if n - r >= alg_mult:
            break
    # number of blocks of size >= j is rank_{j-1} - rank_j
    sizes = []
    for j in range(1, len(ranks)):
        count_ge = ranks[j - 1] - ranks[j]
        sizes.append(count_ge)
    blocks = []
    for j in range(len(sizes), 0, -1):
        exact = sizes[j - 1] - (sizes[j] if j < len(sizes) else 0)
        blocks.extend([j] * exact)
    return tuple(sorted(blocks, reverse=True))


def _nilpotent_log(size: int, lam: complex) -> list[list[float]]:
    """Entry moduli of the log of the unipotent part of a size-k Jordan
    block at lam: log(I + S/lam) = sum_j (-1)^(j+1) (S/lam)^j / j for the
    shift matrix S, so superdiagonal j holds 1/(j |lam|^j)."""
    w = 1 / lam
    return [[abs(w ** (j - i) / (j - i)) if j > i else 0.0 for j in range(size)] for i in range(size)]


def _log_entries(m: TracedMotive, q: int):
    """(z, eigenvalue, multiplicity) for each distinct eigenvalue of the
    even and of the odd block, z its principal-branch log_q, and whether
    every z lies in the branch window and satisfies q^z = eigenvalue;
    requires invertible blocks."""
    _check_q(q)
    cp, cm = m.char_polys
    if cp[0] == 0 or cm[0] == 0:
        raise NotInvertibleError("theta construction needs invertible blocks")
    lq = math.log(q)
    window = math.pi / lq
    branch_ok = residual_ok = True
    parts = []
    for p in (cp, cm):
        entries = []
        for lam, mult in _poly_roots_certified(p):
            z = _principal_log_q(lam, q)
            branch_ok = branch_ok and -window < z.imag <= window + 1e-12
            residual_ok = residual_ok and abs(cmath.exp(z * lq) - lam) <= 1e-9 * (1 + abs(lam))
            entries.append((z, lam, mult))
        parts.append(entries)
    return parts[0], parts[1], branch_ok, residual_ok


def theta_construction(m: TracedMotive, q: int) -> ThetaData:
    """Principal-branch logarithms of the eigenvalues of both graded
    blocks, with Jordan data; requires invertible blocks."""
    plus, minus, branch_ok, residual_ok = _log_entries(m, q)
    unipotent = []

    def build(entries, mat: RatMatrix, part: str) -> list[ThetaEntry]:
        out = []
        for z, lam, mult in entries:
            sizes = _jordan_block_sizes(mat, lam, mult) if mult > 1 else (1,)
            out.append(ThetaEntry(z, lam, mult, sizes))
            unipotent.extend(
                {"part": part, "z": z, "size": size, "nilpotent_log": _nilpotent_log(size, lam)}
                for size in sizes
                if size > 1
            )
        return out

    return ThetaData(
        q=q,
        entries_plus=build(plus, m.f_plus, "+"),
        entries_minus=build(minus, m.f_minus, "-"),
        unipotent_blocks=unipotent,
        branch_window_ok=branch_ok,
        log_residual_ok=residual_ok,
    )


def regularized_det_check(m: TracedMotive, q: int, samples: Sequence[complex]) -> bool:
    """The per-eigenvalue closed form of the regularized-determinant
    quotient, prod(1 - q^{z-s}) over the odd part divided by the same over
    the even part, must reproduce Z(f; q^{-s}) at every sample; the
    logarithms must also satisfy the theta data's branch-window and
    q^z = lambda invariants (a wrongly chosen branch fails here even
    though the product value is branch-independent).  The Jordan block
    sizes play no part, so they are not computed."""
    plus, minus, branch_ok, residual_ok = _log_entries(m, q)
    if not branch_ok or not residual_ok:
        return False
    lq = math.log(q)
    for s in samples:
        reference = hasse_weil_eval(m, q, s)  # raises PoleError at poles
        num = 1.0 + 0.0j
        for z, _, mult in minus:
            num *= (1 - cmath.exp((z - s) * lq)) ** mult
        den = 1.0 + 0.0j
        for z, _, mult in plus:
            factor = 1 - cmath.exp((z - s) * lq)
            if abs(factor) <= 1e-9:  # no pole of Z: the eigenvalue cancels against the odd part
                raise PoleError(
                    f"s = {s} hits an eigenvalue of both graded parts, where the "
                    "per-eigenvalue quotient is 0/0",
                    nearest_pole=z,
                )
            den *= factor ** mult
        value = num / den
        if abs(value - reference) > 1e-9 * (1 + abs(reference)):
            return False
    return True
