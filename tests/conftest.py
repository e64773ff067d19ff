"""Shared fixtures and random-input helpers for the test suite."""

import functools
import json
import operator
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from motivic_zeta import RatMatrix, TracedMotive, VarietySpec, fq_make
from motivic_zeta.gfvec import vec_field
from motivic_zeta.varieties import _chart_points, _charts, _normalize_matrix, matrix_order

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "motivic_zeta" / "fixtures"


def load_json(name: str):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def load_motive(name: str) -> TracedMotive:
    return TracedMotive.from_json(load_json(name))


def load_variety(name: str) -> VarietySpec:
    return VarietySpec.from_json(load_json(name))


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> RatMatrix:
    return RatMatrix(n, n, [rng.randint(lo, hi) for _ in range(n * n)])


def random_motive(rng: random.Random, max_total_dim: int = 6) -> TracedMotive:
    dp = rng.randint(0, max_total_dim)
    dm = rng.randint(0, max_total_dim - dp)
    return TracedMotive(random_matrix(rng, dp), random_matrix(rng, dm))


def random_invertible_motive(rng: random.Random, max_total_dim: int = 5) -> TracedMotive:
    while True:
        m = random_motive(rng, max_total_dim)
        if m.f_plus.det() != 0 and m.f_minus.det() != 0:
            return m


def matrix_power_traces(m: TracedMotive, n_max: int) -> list[Fraction]:
    """tr(F+^n) - tr(F-^n) for n = 1..n_max by repeated matrix products,
    a route independent of the characteristic polynomials."""
    out = []
    pp, pm = RatMatrix.identity(m.d_plus), RatMatrix.identity(m.d_minus)
    for _ in range(n_max):
        pp, pm = pp * m.f_plus, pm * m.f_minus
        out.append(pp.trace() - pm.trace())
    return out


def twisted_count_by_enumeration(v: VarietySpec, g, n: int, fixers=()) -> int:
    """#{x : g(Fr^n(x)) = x, h(x) = x for h in fixers} (projective: up to
    scalars) by enumerating X over F_{q^(n ord g)} and testing the twist
    row by row, independently of Lang descent; small fields only."""
    act = _normalize_matrix(v, g)
    big = fq_make(v.p, v.e * n * matrix_order(v, act))
    vf = vec_field(big)

    def embedded(m):
        return [[None if x.is_zero() else vf.const(v.base_field.embed(x, big)) for x in row] for row in m]

    def apply(m, coords):
        return [
            functools.reduce(vf.add, (x if c[0] == 1 else vf.mul(c, x) for c, x in zip(row, coords) if c is not None))
            for row in m
        ]

    def same_point(a, b):
        if v.ambient_kind == "affine":
            pairs = list(zip(a, b))
        else:
            pairs = [(vf.mul(a[i], b[j]), vf.mul(a[j], b[i])) for i in range(len(a)) for j in range(i + 1, len(a))]
        return functools.reduce(operator.and_, (vf.equal(x, y) for x, y in pairs), True)

    twist = embedded(act)
    fix = [embedded(_normalize_matrix(v, h)) for h in fixers]
    total = 0
    for fixed, free, eqs in _charts(v, big):
        for _, coords, mask in _chart_points(vf, v, fixed, free, eqs):
            for m in fix:
                mask = mask & same_point(apply(m, coords), coords)
            moved = apply(twist, [vf.power(x, v.q**n) for x in coords])
            total += int(np.count_nonzero(mask & same_point(moved, coords)))
    return total


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def p1_motive():
    return load_motive("p1_motive.json")


@pytest.fixture
def elliptic_f5_motive():
    return load_motive("elliptic_f5_motive.json")


@pytest.fixture
def elliptic_f7_motive():
    return load_motive("elliptic_f7_motive.json")
