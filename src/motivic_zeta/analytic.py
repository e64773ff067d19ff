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
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    NotInvertibleError,
    NumericError,
    PoleError,
    PreconditionError,
)
from .exact_core import Polynomial, RatMatrix, squarefree_factors
from .motives import TracedMotive, trace_sequence, zeta_rational

RESIDUAL_TOL = 1e-8


@functools.lru_cache(maxsize=64)
def _poly_roots_certified(p: Polynomial) -> tuple[tuple[complex, int], ...]:
    """The distinct nonzero roots of p, each with its exact multiplicity,
    sorted by real and then imaginary part.  The multiplicity i of a root
    is the index of the square-free factor a_i of p / t^k that it is a
    root of; np.roots places the simple roots of each a_i, and each is
    certified to satisfy |a_i(root)| < 1e-8 (1+|root|)^deg(a_i); tiny
    imaginary parts are zeroed.  Computed once per polynomial (Polynomial
    is immutable and hashable), so repeated spectra and every Hasse-Weil
    sample share one decomposition and one np.roots per factor."""
    if p.is_zero():
        return ()
    k = next(i for i, c in enumerate(p.coeffs) if c)
    out = []
    for mult, a in enumerate(squarefree_factors(Polynomial(p.coeffs[k:])), 1):
        d = a.degree
        if d < 1:
            continue
        for r in np.roots([float(c) for c in reversed(a.coeffs)]):
            lam = complex(r)
            if abs(lam.imag) <= 1e-9 * (1 + abs(lam)):
                lam = complex(lam.real, 0.0)
            residual = abs(a.evaluate(lam))
            if residual >= RESIDUAL_TOL * (1 + abs(lam)) ** d:
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
    zero traces are skipped; all-zero input gives -inf."""
    values = [Fraction(t) if not isinstance(t, Fraction) else t for t in traces]
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
    if q < 2:
        raise PreconditionError("q must be a prime power >= 2")
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
    if q < 2:
        raise PreconditionError("q must be a prime power >= 2")
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
    if q < 2:
        raise PreconditionError("q must be a prime power >= 2")
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


def _jordan_block_sizes(mat: RatMatrix, lam: complex, alg_mult: int) -> tuple[int, ...]:
    """Block-size partition for one eigenvalue of exact algebraic
    multiplicity alg_mult, from float ranks of (M - lam I)^j."""
    n = mat.rows
    a = np.array(
        [[float(mat[i, j]) for j in range(n)] for i in range(n)],
        dtype=complex,
    ) - lam * np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    ranks = [n]
    power = np.eye(n, dtype=complex)
    for _ in range(alg_mult):
        power = power @ a
        r = int(np.linalg.matrix_rank(power, tol=1e-8 * scale ** (len(ranks))))
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


def theta_construction(m: TracedMotive, q: int) -> ThetaData:
    """Principal-branch logarithms of the eigenvalues of both graded
    blocks, with Jordan data; requires invertible blocks."""
    if q < 2:
        raise PreconditionError("q must be a prime power >= 2")
    cp, cm = m.char_polys
    if cp[0] == 0 or cm[0] == 0:
        raise NotInvertibleError("theta construction needs invertible blocks")
    lq = math.log(q)
    window_hi = math.pi / lq
    window_lo = -math.pi / lq

    unipotent = []
    branch_ok = True
    residual_ok = True

    def build(p: Polynomial, mat: RatMatrix, part: str) -> list[ThetaEntry]:
        nonlocal branch_ok, residual_ok
        entries = []
        for lam, mult in _poly_roots_certified(p):
            z = _principal_log_q(lam, q)
            if not (window_lo < z.imag <= window_hi + 1e-12):
                branch_ok = False
            if abs(cmath.exp(z * lq) - lam) > 1e-9 * (1 + abs(lam)):
                residual_ok = False
            sizes = (
                _jordan_block_sizes(mat, lam, mult) if mult > 1 else (1,)
            )
            entries.append(ThetaEntry(z, lam, mult, sizes))
            for size in sizes:
                if size > 1:
                    unipotent.append(
                        {
                            "part": part,
                            "z": z,
                            "size": size,
                            "nilpotent_log": _nilpotent_log(size, lam),
                        }
                    )
        return entries

    entries_plus = build(cp, m.f_plus, "+")
    entries_minus = build(cm, m.f_minus, "-")
    return ThetaData(
        q=q,
        entries_plus=entries_plus,
        entries_minus=entries_minus,
        unipotent_blocks=unipotent,
        branch_window_ok=branch_ok,
        log_residual_ok=residual_ok,
    )


def regularized_det_check(m: TracedMotive, q: int, samples: Sequence[complex]) -> bool:
    """The per-eigenvalue closed form of the regularized-determinant
    quotient, prod(1 - q^{z-s}) over the odd part divided by the same over
    the even part, must reproduce Z(f; q^{-s}) at every sample; the theta
    data must also satisfy its branch-window and q^z = lambda invariants
    (a wrongly chosen branch fails here even though the product value is
    branch-independent)."""
    theta = theta_construction(m, q)
    if not theta.branch_window_ok or not theta.log_residual_ok:
        return False
    lq = math.log(q)
    for s in samples:
        reference = hasse_weil_eval(m, q, s)  # raises PoleError at poles
        num = 1.0 + 0.0j
        for entry in theta.entries_minus:
            num *= (1 - cmath.exp((entry.z - s) * lq)) ** entry.multiplicity
        den = 1.0 + 0.0j
        for entry in theta.entries_plus:
            den *= (1 - cmath.exp((entry.z - s) * lq)) ** entry.multiplicity
        value = num / den
        if abs(value - reference) > 1e-9 * (1 + abs(reference)):
            return False
    return True
