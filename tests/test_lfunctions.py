"""Equivariant L-series and orbifold zeta functions."""

import cmath
import random
from fractions import Fraction

import pytest

from motivic_zeta import (
    Character,
    Cyclotomic,
    GroupAction,
    count_points,
    l_function,
    orbifold_zeta,
    rational_character,
    trivial_character,
    twisted_count,
    zeta_from_counts,
)
from motivic_zeta import varieties
from motivic_zeta.errors import ResourceError, ValidationError
from motivic_zeta.lfunctions import _exp_cyclotomic
from motivic_zeta.varieties import VarietySpec, projective_space

from conftest import cyclotomic_product_by_convolution, load_json, load_variety


@pytest.fixture
def p1_f5():
    return load_variety("p1_f5_variety.json")


@pytest.fixture
def z2_action(p1_f5):
    return GroupAction(p1_f5, [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]])


@pytest.mark.parametrize("m", range(1, 25))
def test_cyclotomic_products_match_the_convolution(m):
    rng = random.Random(m)
    zeta = cmath.exp(2j * cmath.pi / m)

    def value(x):
        return sum(complex(c) * zeta**k for k, c in enumerate(x.coeffs))

    for _ in range(8):
        a, b = (Cyclotomic(m, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(0, m)))) for _ in "ab")
        product = a * b
        assert product.coeffs == cyclotomic_product_by_convolution(a, b)
        assert abs(value(product) - value(a) * value(b)) < 1e-9 * (1 + abs(value(a) * value(b)))
        for result in (product, a + b, -a, a - b, a * Fraction(-3, 2)):
            assert type(result) is Cyclotomic and len(result.coeffs) == len(a.coeffs)


def test_cyclotomic_arithmetic():
    i = Cyclotomic.root_of_unity(1, 4)
    # in Q(zeta_4) = Q[x]/(x^2 + 1), x^2 is -1
    assert i * i == Cyclotomic.root_of_unity(2, 4)
    assert i * i == Cyclotomic.rational(-1, 4)
    assert (i * i).is_rational()
    assert abs((i * i).to_complex() + 1) < 1e-12
    assert (i * i * i * i).is_rational()
    assert (i + (-i)).rational_value() == 0
    assert not i.is_rational()
    with pytest.raises(ValidationError):
        i.rational_value()
    with pytest.raises(ValidationError):
        # addition across different cyclotomic orders is rejected
        _ = i + Cyclotomic.rational(1, 3)


def test_cyclotomic_to_complex():
    i = Cyclotomic.root_of_unity(1, 4)
    assert abs(i.to_complex() - 1j) < 1e-12


def test_group_action_structure(z2_action):
    assert len(z2_action) == 2
    assert len(z2_action.class_reps) == 2  # abelian group: singleton classes
    assert z2_action.element_orders == [1, 2]


def test_group_action_requires_closure(p1_f5):
    with pytest.raises(ValidationError):
        GroupAction(p1_f5, [[[1, 0], [0, 1]], [[2, 0], [0, 1]]])


def test_group_action_refuses_singular_matrices(p1_f5):
    # each set is closed, and its product table has an identity, the
    # idempotent diag(1, 0) or diag(0, 1); l_function once answered the zeta
    # of P^1 for the first, and a count on the second failed an assertion
    with pytest.raises(ValidationError, match="must be invertible"):
        GroupAction(p1_f5, [[[1, 0], [0, 0]]])
    line = VarietySpec("affine", 2, 5, 1, ((((1, 0), 1),),))
    with pytest.raises(ValidationError, match="must be invertible"):
        GroupAction(line, [[[0, 0], [0, 1]], [[0, 0], [0, -1]]])
    with pytest.raises(ValidationError, match="no inverse"):
        GroupAction(p1_f5, [[[1, 0], [0, 1]], [[1, 0], [0, 0]]])


def test_group_action_must_preserve_variety():
    e5 = load_variety("elliptic_f5_variety.json")
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # closed involution, but x <-> y
    with pytest.raises(ValidationError, match="could not verify"):
        GroupAction(e5, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], swap])
    # x -> -x on x^2 - x - 1 = 0 over F_3, which has no F_3-points: a check
    # on base-field points accepted it
    no_points = VarietySpec("affine", 1, 3, 1, ((((2,), 1), ((1,), -1), ((0,), -1)),))
    with pytest.raises(ValidationError, match="could not verify"):
        GroupAction(no_points, [[[1]], [[2]]])


def test_l_function_and_orbifold_refuse_another_variety(z2_action):
    # x -> -x does not preserve x^2 - xy = 0 in P^1/F_5, and GroupAction
    # refuses it there; handed the action built on P^1, l_function once
    # answered 1, 3/2, 15/8 and orbifold_zeta said the routes agree
    cut = VarietySpec("projective", 1, 5, 1, ((((2, 0), 1), ((1, 1), -1)),))
    with pytest.raises(ValidationError, match="could not verify"):
        GroupAction(cut, [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]])
    with pytest.raises(ValidationError, match="another variety"):
        l_function(cut, z2_action, trivial_character(z2_action), 2)
    with pytest.raises(ValidationError, match="another variety"):
        orbifold_zeta(cut, z2_action, 2)


@pytest.mark.parametrize(
    "variety, matrices",
    [
        (load_json("p1_f5_variety.json"), [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]]),
        (load_json("p1_f5_variety.json"), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
        (load_json("elliptic_f5_variety.json"), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]),
        (load_json("elliptic_f7_variety.json"), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]),
        (load_json("p1_f5_z2_sign.json")["variety"], load_json("p1_f5_z2_sign.json")["action"]),
        # x^2 + y^2 = z^2 over F_7 and the rotations (x, y) -> (y, -x)
        (
            {"ambient": {"projective": 2}, "p": 7, "equations": [[[[2, 0, 0], 1], [[0, 2, 0], 1], [[0, 0, 2], -1]]]},
            [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [-1, 0, 0], [0, 0, 1]], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]]],
        ),
    ],
)
def test_preserving_actions_build(variety, matrices):
    assert len(GroupAction(VarietySpec.from_json(variety), matrices)) == len(matrices)


def test_character_validation(z2_action):
    with pytest.raises(ValidationError):
        rational_character(z2_action, [0, 1]).check_against(z2_action)
    chi = rational_character(z2_action, [1, -1])
    chi.check_against(z2_action)


def test_character_root_order_is_bounded_by_the_group_exponent(p1_f5, z2_action):
    # Z/2 has exponent 2: its values lie in Q(zeta_2) = Q, so m = 1 and
    # m = 2 are read and m = 3 is refused
    for m in (1, 2):
        Character(m, (Cyclotomic.rational(1, m), Cyclotomic.rational(-1, m))).check_against(z2_action)
    too_big = Character(3, (Cyclotomic.rational(1, 3), Cyclotomic.rational(-1, 3)))
    with pytest.raises(ValidationError, match="exponent 2"):
        too_big.check_against(z2_action)
    with pytest.raises(ValidationError, match="exponent 2"):
        l_function(p1_f5, z2_action, too_big, 2)


def test_trivial_character_recovers_zeta(p1_f5, z2_action):
    ls = l_function(p1_f5, z2_action, trivial_character(z2_action), 5)
    assert ls.is_rational()
    assert ls.to_truncated_series() == zeta_from_counts(p1_f5, 5).series


def test_sign_character_l_series(p1_f5, z2_action):
    # both twisted counts equal q^n + 1 here, so the sign-isotypic piece
    # is trivial and L(chi_sign) = 1
    ls = l_function(p1_f5, z2_action, rational_character(z2_action, [1, -1]), 5)
    assert ls.is_rational()
    coeffs = ls.to_truncated_series().coeffs
    assert coeffs[0] == 1 and all(c == 0 for c in coeffs[1:])


def test_character_l_functions_multiply_to_equivariant_product(p1_f5, z2_action):
    # prod_chi L(chi)^deg(chi) = Z_X for abelian G acting on X
    triv = l_function(p1_f5, z2_action, trivial_character(z2_action), 5)
    sign = l_function(p1_f5, z2_action, rational_character(z2_action, [1, -1]), 5)
    prod = triv.to_truncated_series() * sign.to_truncated_series()
    assert prod == zeta_from_counts(p1_f5, 5).series


def test_quartic_character_on_an_elliptic_curve():
    # E: y^2 z = x^3 + x z^2 over F_5, and C_4 generated by g = diag(4, 2, 1),
    # which scales the equation by 4; chi(g^k) = x^k and its conjugate
    # x^(-k), with x a primitive 4th root of unity: L(chi) is not rational,
    # and L(chi) L(conj chi) = 1 - 2t + 5t^2 is the numerator of Z_E
    curve = VarietySpec("projective", 2, 5, 1, ((((0, 2, 1), 1), ((3, 0, 0), -1), ((1, 0, 2), -1)),))
    powers = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[4, 0, 0], [0, 2, 0], [0, 0, 1]]]
    powers += [[[1, 0, 0], [0, 4, 0], [0, 0, 1]], [[4, 0, 0], [0, 3, 0], [0, 0, 1]]]
    action = GroupAction(curve, powers)

    def l_series(step):
        values = [None] * 4
        for k in range(4):
            values[action.class_of[k]] = Cyclotomic.root_of_unity(step * k, 4)
        return l_function(curve, action, Character(4, tuple(values)), 3).coeffs

    chi, conj = l_series(1), l_series(3)
    zero = Cyclotomic.rational(0, 4)
    assert chi == (Cyclotomic.rational(1, 4), Cyclotomic(4, (-1, -2)), zero, zero)
    assert not chi[1].is_rational()
    product = [sum((chi[i] * conj[k - i] for i in range(k + 1)), zero) for k in range(4)]
    assert [c.rational_value() for c in product] == [1, -2, 5, 0]
    assert count_points(curve, 1) == 4  # so a_1 = 5 + 1 - 4 = 2


def test_orbifold_routes_agree(p1_f5, z2_action):
    report = orbifold_zeta(p1_f5, z2_action, 5)
    assert report.routes_agree
    assert report.direct == report.product
    # inertia contributions: (q^n + 1) from the identity sector plus 2
    # from the two fixed points of the involution
    assert report.traces == [Fraction(5**n + 3) for n in range(1, 6)]


def test_orbifold_routes_disagree_on_wrong_centralizers():
    e5 = load_variety("elliptic_f5_variety.json")
    flip = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]  # y -> -y
    action = GroupAction(e5, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], flip])
    assert orbifold_zeta(e5, action, 2).routes_agree
    # claim that the identity commutes with nothing but itself
    action.centralizers[action.class_of[action.identity_index]] = [action.identity_index]
    assert not orbifold_zeta(e5, action, 2).routes_agree


def test_orbifold_rejects_bad_group_order():
    p1_f2 = load_variety("p1_f5_variety.json")
    # build the same involution over F_2 where |G| = 2 = p
    from motivic_zeta.varieties import projective_space

    v = projective_space(1, 2)
    action = GroupAction(v, [[[1, 0], [0, 1]]])
    report = orbifold_zeta(v, action, 3)  # trivial group is fine
    assert report.routes_agree
    two = GroupAction(v, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    with pytest.raises(ValidationError):
        orbifold_zeta(v, two, 3)


def test_trivial_group_orbifold_is_plain_zeta(p1_f5):
    action = GroupAction(p1_f5, [[[1, 0], [0, 1]]])
    report = orbifold_zeta(p1_f5, action, 5)
    assert report.direct.series == zeta_from_counts(p1_f5, 5).series


def test_repeated_l_function_respects_budget():
    # y -> -y on E/F_5: its descent over F_5 charges 48, the identity's
    # count at n = 2 charges 30 assignments, and the descent over F_25 192,
    # so a repeated call with budget 49 must refuse that, as a first call does
    e5 = load_variety("elliptic_f5_variety.json")
    action = GroupAction(e5, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]])
    ls = l_function(e5, action, trivial_character(action), 2)
    assert ls.to_truncated_series() == zeta_from_counts(projective_space(1, 5), 2).series
    assert l_function(e5, action, trivial_character(action), 1, budget=49).precision == 1
    with pytest.raises(ResourceError) as err:
        l_function(e5, action, trivial_character(action), 2, budget=49)
    assert (err.value.required, err.value.budget) == (192, 49)


FLIP = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]  # y -> -y


@pytest.mark.parametrize("route", ["l_function", "orbifold_zeta"])
def test_twisted_routes_charge_every_count_before_any_is_counted(monkeypatch, route):
    # y -> -y on E/F_7 at n_max = 9: the identity's counts are cheap (an
    # L-polynomial and a root gcd), but the twist's count at n = 9, of its
    # twisted form over F_{7^9} at n = 1, passes over the 7^9 rows of its
    # chart x = 1 (quadratic in y, of genus 1 >= n), and 7^9 > 10^7, so
    # the route refuses before it sets up any field for enumeration
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)

    def no_enumeration(field):
        raise AssertionError(f"F_{field.p}^{field.e} was set up for enumeration")

    monkeypatch.setattr(varieties, "vec_field", no_enumeration)
    e7 = load_variety("elliptic_f7_variety.json")
    action = GroupAction(e7, FLIP)
    with pytest.raises(ResourceError) as err:
        if route == "l_function":
            l_function(e7, action, trivial_character(action), 9)
        else:
            orbifold_zeta(e7, action, 9)
    assert (err.value.required, err.value.budget) == (7**9, 10**7)


@pytest.mark.parametrize("route, plans", [("point_counts", 1), ("l_function", 1), ("orbifold_zeta", 7)])
def test_each_distinct_plan_is_made_once_per_call(monkeypatch, route, plans):
    # the sign action on P^1/F_5 at n_max = 5: every plain count is of P^1
    # itself; the orbifold adds P^1 cut by the sign's fixing equation and
    # one descended plan over each F_{5^n}
    made = []

    def spy(*args):
        made.append(args)
        return plan(*args)

    plan = varieties.Plan
    monkeypatch.setattr(varieties, "Plan", spy)
    data = load_json("p1_f5_z2_sign.json")
    v = VarietySpec.from_json(data["variety"])
    action = GroupAction(v, data["action"])
    if route == "point_counts":
        varieties.point_counts(v, 5)
    elif route == "l_function":
        l_function(v, action, rational_character(action, data["character"]["values"]), 5)
    else:
        orbifold_zeta(v, action, 5)
    assert len(made) == plans


def _characters(action, fixture_character=None):
    """The characters to test: a fixture's own, else every character of a
    cyclic group whose elements are listed as g^0, g^1, ..."""
    if fixture_character is not None:
        return [rational_character(action, fixture_character["values"])]
    size = len(action)
    out = []
    for step in range(size):
        values = [None] * len(action.class_reps)
        for k in range(size):
            values[action.class_of[k]] = Cyclotomic.root_of_unity(step * k, size)
        out.append(Character(size, tuple(values)))
    return out


@pytest.mark.parametrize(
    "variety, matrices, character",
    [
        (load_json(name)["variety"], load_json(name)["action"], load_json(name)["character"])
        for name in ("p1_f5_z2_sign.json", "p1_f5_z2_trivial.json")
    ]
    + [(load_json(name), FLIP, None) for name in ("elliptic_f5_variety.json", "elliptic_f7_variety.json")]
    # Z/3 on P^1/F_7, generated by diag(2, 1): 2 has order 3 mod 7
    + [(projective_space(1, 7).to_json(), [[[1, 0], [0, 1]], [[2, 0], [0, 1]], [[4, 0], [0, 1]]], None)],
    ids=["p1_f5_z2_sign", "p1_f5_z2_trivial", "e5_flip", "e7_flip", "p1_f7_z3"],
)
def test_l_function_is_the_character_average_of_counts_one_by_one(variety, matrices, character):
    v = VarietySpec.from_json(variety)
    action = GroupAction(v, matrices)
    size = len(action)
    counts = [[twisted_count(v, g, n) for g in matrices] for n in (1, 2, 3)]
    for chi in _characters(action, character):
        traces = [
            sum((chi.value_on_element(action, action.inverse[i]) * c for i, c in enumerate(row)), Cyclotomic.rational(0, chi.m))
            * Fraction(1, size)
            for row in counts
        ]
        assert l_function(v, action, chi, 3).coeffs == tuple(_exp_cyclotomic(traces, chi.m))


@pytest.mark.parametrize("p", [127, 251, 16381, 65537])
def test_twisted_and_l_function_counts_at_large_primes(p):
    # E: y^2 z = x^3 + a x z^2 + b z^3 with seeded a, b.  N_1 comes from a
    # Legendre-symbol sum; y -> -y twists E into its quadratic twist, with
    # 2(p + 1) - N_1 points, and the sign character's L-series is
    # 1 + (N_1 - (p + 1)) t + ..
    rng = random.Random(p)
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p:
            break

    def legendre(x):
        return 0 if x % p == 0 else (1 if pow(x, (p - 1) // 2, p) == 1 else -1)

    n1 = p + 1 + sum(legendre(x**3 + a * x + b) for x in range(p))
    curve = VarietySpec("projective", 2, p, 1, ((((0, 2, 1), 1), ((3, 0, 0), -1), ((1, 0, 2), -a), ((0, 0, 3), -b)),))
    assert twisted_count(curve, FLIP[1], 1) == 2 * (p + 1) - n1
    action = GroupAction(curve, FLIP)
    ls = l_function(curve, action, rational_character(action, [1, -1]), 1)
    assert ls.coeffs[1].rational_value() == n1 - (p + 1)
