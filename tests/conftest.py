"""Shared fixtures and random-input helpers for the test suite."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from motivic_zeta import RatMatrix, TracedMotive, VarietySpec

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
