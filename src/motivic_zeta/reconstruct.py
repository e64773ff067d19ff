"""Rationality testing and rational-function reconstruction over Q.

Berlekamp-Massey over exact rationals, run over the integers: the
sequence is scaled once by the lcm of its denominators, discrepancies are
cancelled fraction-free and the content is divided out after each update.
A reconstruction is accepted only when the recurrence stopped changing
over the final ceil(len/4) terms and its order is at most floor(len/2);
otherwise NotStabilized is returned carrying the linear-complexity
profile as evidence.  Either result carries the profile, so a caller that
wants both runs Berlekamp-Massey once.  On a sequence that is not
rational of low order the integers of the connection polynomial can grow
with every update, and the run time with them, so Berlekamp-Massey
charges their bits against MAX_BITS; a sequence of low order stays far
below that, however long it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError, charge
from .exact_core import Polynomial, RationalFunction, _frac, _integral, _primitive
from .series import exp_from_traces


# On the Artin-Mazur traces of x -> x^2 over F_5 the connection polynomial
# peaks at 0.67 Mbit over the first 700 terms (0.7 s) and passes 2^20 bits
# at term 750; without a cap it reaches 2.9 Mbit at 800 terms (4.25 s)
MAX_BITS = 2**20


@dataclass
class ReconstructionResult:
    value: RationalFunction
    stabilized_at: int          # index of the last recurrence change
    residual_checked_to: int    # input length used for the residual check
    degree: int = 0             # deg(num) - deg(den) of the reduced value
    profile: list[int] = field(default_factory=list)  # linear complexity per prefix

    def __post_init__(self):
        self.degree = self.value.degree


@dataclass
class NotStabilized:
    profile: list[int] = field(default_factory=list)
    order: int = 0
    reason: str = ""


def _bm_core(seq: list[Fraction]):
    """Fraction-free Berlekamp-Massey; returns (C, L, profile, last_change).

    C is the connection polynomial with C(0)=1 such that
    sum_j C_j * s_{i-j} = 0 for L <= i < len(seq).  The sequence is scaled
    to integers once; a discrepancy d is cancelled by c <- bb*c - d*x^m*b
    instead of c <- c - (d/bb)*x^m*b, which scales c but not the
    recurrence, and c is divided by its content after each update.  Only
    the final C is made to have C(0) = 1.
    """
    # s = D*seq; the classic start bb = 1 on seq becomes bb = D on s
    s, bb = _integral(seq)
    c = [1]
    b = [1]
    L, m = 0, 1
    profile: list[int] = []
    last_change = -1
    for i, si in enumerate(s):
        d = c[0] * si
        for j in range(1, min(L, len(c) - 1) + 1):
            d += c[j] * s[i - j]
        if d == 0:
            m += 1
        else:
            t = c
            c = [bb * x for x in c] + [0] * max(0, len(b) + m - len(c))
            for j, bj in enumerate(b):
                c[j + m] -= d * bj
            c = _primitive(c)
            size = sum(map(int.bit_length, c))
            if size > MAX_BITS:
                charge("bits of Berlekamp-Massey's connection polynomial", size, MAX_BITS)
            if 2 * L <= i:
                L = i + 1 - L
                b, bb, m = t, d, 1
            else:
                m += 1
            last_change = i
        profile.append(L)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return [Fraction(x, c[0]) for x in c], L, profile, last_change


def linear_complexity_profile(seq: Sequence) -> list[int]:
    """Minimal recurrence order after each prefix; monotone nondecreasing."""
    values = [_frac(s) for s in seq]
    if not values:
        return []
    return _bm_core(values)[2]


def berlekamp_massey(seq: Sequence) -> ReconstructionResult | NotStabilized:
    values = [_frac(s) for s in seq]
    if not values:
        raise ValidationError("berlekamp_massey needs a nonempty sequence")
    c, L, profile, last_change = _bm_core(values)
    n = len(values)
    window = -(-n // 4)  # ceil(n/4)
    if L > n // 2:
        return NotStabilized(profile, L, f"order {L} exceeds half the data length")
    if last_change >= n - window:
        return NotStabilized(
            profile, L, f"recurrence still changing in the final {window} terms"
        )
    # numerator = (series * C) truncated; must vanish in degrees L..n-1.
    # With s = S/ds and C = cz/dc integral, series * C = (S * cz)/(ds*dc)
    # and the value is (S * cz)/(ds * cz) once reduced.
    sz, ds = _integral(values)
    cz, _ = _integral(c)
    prod = [0] * n
    for j, cj in enumerate(cz):
        for i in range(n - j):
            prod[i + j] += sz[i] * cj
    if any(prod[k] for k in range(L, n)):
        return NotStabilized(profile, L, "residual check failed")
    num = Polynomial(prod[:L] if L > 0 else prod[:1])
    value = RationalFunction(num, Polynomial([x * ds for x in cz]))
    return ReconstructionResult(value, last_change, n, profile=profile)


def traces_to_zeta(traces: Sequence) -> ReconstructionResult | NotStabilized:
    """exp(sum traces_n t^n / n) reconstructed as a rational function."""
    series = exp_from_traces([_frac(t) for t in traces])
    return berlekamp_massey(series.coeffs)
