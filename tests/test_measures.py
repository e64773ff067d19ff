"""Motivic measures on the cell-built Grothendieck classes."""

import time

import pytest

from motivic_zeta import (
    EpsInt,
    MeasureClass,
    affine_space,
    count_points,
    mu_count,
    mu_nc_composite,
    mu_rig,
    non_factoring_witness,
    point,
    projective_space,
    torus,
)
from motivic_zeta.errors import PreconditionError, ValidationError
from motivic_zeta.measures import is_prime_power
from motivic_zeta.varieties import affine_space as affine_variety
from motivic_zeta.varieties import projective_space as projective_variety

from conftest import load_variety


def test_eps_int_ring():
    e = EpsInt(0, 1)
    assert e * e == EpsInt(1, 0)  # eps^2 = 1
    assert EpsInt(2, 3) * EpsInt(1, 1) == EpsInt(5, 5)
    assert EpsInt(2, 3) + EpsInt(1, -1) == EpsInt(3, 2)
    assert EpsInt(2, 3).collapse() == -1  # eps -> -1


def test_is_prime_power():
    assert [q for q in range(2, 20) if is_prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
    ]


def test_is_prime_power_of_large_q_is_fast():
    # trial division up to sqrt(q) took 1.4 s on 10^14 + 31 and ran for
    # more than 10 s on 2^61 - 1
    cases = {
        2**61 - 1: True, (2**31 - 1) ** 2: True, 3 * (2**61 - 1): False, 2**64: True,
        37**2: True, -4: False, 0: False, 1: False, 4: True, 6: False,
    }
    start = time.perf_counter()
    assert {q: is_prime_power(q) for q in cases} == cases
    assert time.perf_counter() - start < 0.05


def test_counting_polynomials():
    assert mu_count(point(), 7) == 1
    assert mu_count(affine_space(3), 2) == 8
    assert mu_count(projective_space(2), 3) == 13
    assert mu_count(torus(), 5) == 4


def test_mu_count_rejects_non_prime_powers():
    with pytest.raises(ValidationError):
        mu_count(point(), 6)


def test_mu_count_matches_brute_force_counts():
    for q in (2, 3, 5):
        assert mu_count(projective_space(2), q) == count_points(
            projective_variety(2, q), 1
        )
        assert mu_count(affine_space(2), q) == count_points(affine_variety(2, q), 1)
    # torus: the affine hyperbola xy = 1 over F_2
    gm = load_variety("gm_f2_variety.json")
    assert mu_count(torus(), 2) == count_points(gm, 1)


def test_rigid_measure():
    assert mu_rig(projective_space(3)) == 4
    assert mu_rig(affine_space(5)) == 1
    assert mu_rig(torus()) == 0


def test_nc_composite_on_cell_span():
    for cls in (point(), affine_space(2), projective_space(3)):
        assert cls.in_cell_span
        v = mu_nc_composite(cls)
        assert v.b == 0
        assert v.a == mu_rig(cls)


def test_nc_composite_collapse_equals_rigid():
    shipped = [point(), affine_space(1), affine_space(4), projective_space(0),
               projective_space(2), projective_space(4), torus()]
    for cls in shipped:
        assert mu_nc_composite(cls).collapse() == mu_rig(cls)


def test_cell_decomposition_scissor_steps():
    # P^k = A^k + P^(k-1) and A^1 = G_m + point
    for k in range(1, 5):
        assert projective_space(k).poly == (affine_space(k) + projective_space(k - 1)).poly
    assert (torus() + point()).poly == affine_space(1).poly


def test_torus_leaves_cell_span():
    t = torus()
    assert not t.in_cell_span
    # sum and product propagate the flag
    assert not (t + point()).in_cell_span
    assert (point() + affine_space(1)).in_cell_span


def test_class_algebra():
    # [P^1] = [A^1] + [point]
    lhs = projective_space(1)
    rhs = affine_space(1) + point()
    assert lhs.poly == rhs.poly
    # [A^2] = [A^1] x [A^1]
    assert (affine_space(1) * affine_space(1)).poly == affine_space(2).poly
    # [P^1] - [point] = [A^1]
    d = projective_space(1) - point()
    assert d.poly == affine_space(1).poly


def test_scale():
    three = point().scale(3)
    assert mu_count(three, 4) == 3
    with pytest.raises(ValidationError):
        point().scale(-1)


def test_non_factoring_witness():
    w = non_factoring_witness(2, 3)
    assert w.nc_values_agree
    assert not w.count_values_agree
    assert w.mu_count_projective == 13
    assert w.mu_count_points == 3
    assert w.mu_nc_projective == w.mu_nc_points == EpsInt(3, 0)


def test_witness_validation():
    with pytest.raises(PreconditionError):
        non_factoring_witness(0, 3)
    with pytest.raises(ValidationError):
        non_factoring_witness(2, 6)
    assert non_factoring_witness(1, 2).note
