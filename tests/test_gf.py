"""Finite field construction, arithmetic and embeddings."""

import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_zeta import FqField, fq_make
from motivic_zeta.errors import NotInvertibleError, ValidationError
from motivic_zeta.gf import _is_irreducible, is_prime, mobius
from motivic_zeta.varieties import twisted_count

from conftest import _polymod_by_steps, inverse_by_euclid, load_variety, mul_by_schoolbook, reducible_by_products


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    # 37 is also a Miller-Rabin base, and was once refused
    assert [n for n in range(2, 2000) if is_prime(n)] == [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    assert not is_prime(1)
    assert is_prime(2**61 - 1)


def test_mobius_matches_its_defining_sum():
    # mu(1) = 1 and sum_{d | n} mu(d) = 0 for n > 1 determine mu
    brute = {1: 1}
    for n in range(2, 201):
        brute[n] = -sum(brute[d] for d in range(1, n) if n % d == 0)
    assert [mobius(n) for n in range(1, 201)] == [brute[n] for n in range(1, 201)]


def test_prime_field():
    f5 = fq_make(5, 1)
    assert f5.q == 5
    assert f5.modulus == (0, 1)
    a = f5.element(3)
    assert (a + a).to_int() == 1
    assert (a * a).to_int() == 4


def test_rejects_composite_characteristic():
    with pytest.raises(ValidationError):
        fq_make(6, 2)


def test_deterministic_modulus():
    # smallest-lex monic irreducible; repeated calls give the same field
    assert fq_make(2, 2).modulus == fq_make(2, 2).modulus
    assert fq_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_field_sizes_and_enumeration():
    for p, e in [(2, 3), (3, 2), (5, 2)]:
        f = fq_make(p, e)
        elems = list(f.enumerate())
        assert len(elems) == p**e
        assert len({x.coeffs for x in elems}) == p**e


def test_multiplicative_group_order():
    f = fq_make(3, 2)
    for x in f.enumerate():
        if x.is_zero():
            continue
        assert (x ** (f.q - 1)).to_int() == 1


def test_frobenius_fixes_exactly_the_base_field():
    f4 = fq_make(2, 1)
    f16 = fq_make(2, 4)
    fixed = [x for x in f16.enumerate() if x**2 == x]
    assert len(fixed) == 2
    fixed4 = [x for x in f16.enumerate() if x**4 == x]
    assert len(fixed4) == 4


def test_inverse():
    f = fq_make(7, 2)
    for x in list(f.enumerate())[1:]:
        assert x * x.inverse() == f.one()
    with pytest.raises(ZeroDivisionError):
        f.zero().inverse()
    # in F_3[x]/(x^2 - 1), a ring with zero divisors, x + 1 is not a unit
    # and x is its own inverse
    ring = FqField(3, 2, (2, 0, 1))
    with pytest.raises(ZeroDivisionError):
        ring.element([1, 1]).inverse()
    assert ring.element([0, 1]).inverse() == ring.element([0, 1])


def test_embedding_is_a_ring_homomorphism():
    small = fq_make(2, 2)
    big = fq_make(2, 4)
    xs = list(small.enumerate())
    for a in xs:
        for b in xs:
            assert small.embed(a + b, big) == small.embed(a, big) + small.embed(b, big)
            assert small.embed(a * b, big) == small.embed(a, big) * small.embed(b, big)
    assert small.embed(small.one(), big) == big.one()


def test_embedding_injective():
    small = fq_make(3, 2)
    big = fq_make(3, 4)
    images = {small.embed(a, big).coeffs for a in small.enumerate()}
    assert len(images) == small.q


def scan_root(small, big):
    """The first root of small's modulus in big's enumeration order, found
    by scanning big element by element: an oracle for embedding_root."""
    for cand in big.enumerate():
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * cand + big.element(c)
        if acc.is_zero():
            return cand


def test_embedding_root_matches_scan():
    pairs = [
        (p, e, big_e)
        for p in (2, 3, 5, 7)
        for big_e in range(2, 14)
        if p**big_e <= 10**4
        for e in range(1, big_e)
        if big_e % e == 0
    ]
    assert len(pairs) == 45
    for p, e, big_e in pairs:
        small, big = fq_make(p, e), fq_make(p, big_e)
        assert small.embedding_root(big) == scan_root(small, big), (p, e, big_e)


def test_embedding_root_searches_only_the_subfield():
    # the scan of F_{5^10} took minutes; a fresh field has no cached root
    small = FqField(5, 2, fq_make(5, 2).modulus)
    start = time.perf_counter()
    root = small.embedding_root(fq_make(5, 10))
    assert time.perf_counter() - start < 1
    assert root.coeffs == (3, 0, 3, 2, 1, 1, 2, 4, 2, 1)


def test_embedding_root_of_a_large_subfield():
    # F_{7^6} in F_{7^12}, the pair a twisted count at n = 6 with an
    # involution needs: a search through the 117648 nonzero elements of
    # the subfield took 5 s
    small, big = FqField(7, 6, fq_make(7, 6).modulus), fq_make(7, 12)
    start = time.perf_counter()
    root = small.embedding_root(big)
    assert time.perf_counter() - start < 1
    conjugates = [root ** (7**i) for i in range(6)]
    for r in conjugates:
        acc = big.zero()
        for c in reversed(small.modulus):
            acc = acc * r + big.element(c)
        assert acc.is_zero()
    assert len({r.to_int() for r in conjugates}) == 6 and root.to_int() == min(r.to_int() for r in conjugates)


def test_from_int_inverts_to_int():
    f = fq_make(3, 4)
    assert [f.from_int(n).to_int() for n in range(f.q)] == list(range(f.q))
    assert list(f.enumerate()) == [f.from_int(n) for n in range(f.q)]


def test_no_embedding_between_incompatible_fields():
    with pytest.raises(ValidationError):
        fq_make(2, 3).embedding_root(fq_make(2, 4))


def test_mixed_field_arithmetic_rejected():
    a = fq_make(2, 2).one()
    b = fq_make(3, 1).one()
    with pytest.raises(ValidationError):
        a + b


@settings(max_examples=30)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_laws_f27(i, j, k):
    f = fq_make(3, 3)
    elems = list(f.enumerate())
    a, b, c = elems[i], elems[j], elems[k]
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == f.zero()


def test_pow_negative_exponent():
    f = fq_make(5, 1)
    a = f.element(2)
    assert a**-1 == a.inverse()
    assert a**0 == f.one()


@pytest.mark.parametrize(
    "method, arg",
    [
        ("element", [1.5, 2]),
        ("element", 2.0),
        ("element", True),
        ("element", [True, 0]),
        ("element", "3"),
        ("element", ["1", 2]),
        ("element", None),
        ("from_int", 25),
        ("from_int", -1),
        ("from_int", 2.0),
        ("from_int", True),
        ("from_int", "3"),
    ],
)
def test_malformed_elements_are_refused(method, arg):
    # F_25: coefficients must be ints (not bools, floats or strings) and a
    # packed index must lie in [0, 25), not wrap around
    with pytest.raises(ValidationError):
        getattr(fq_make(5, 2), method)(arg)


def test_well_formed_elements_are_read_mod_p():
    f = fq_make(5, 2)  # modulus x^2 + 2, so x^2 = 3
    assert f.element(-1).coeffs == (4, 0)
    assert f.element([7, -1]).coeffs == (2, 4)
    assert f.element([0, 0, 1]).coeffs == (3, 0) == (f.element([0, 1]) * f.element([0, 1])).coeffs
    assert f.from_int(24).coeffs == (4, 4) and f.from_int(0) == f.zero()
    # a list longer than e is reduced mod the modulus, for e = 1 (modulus x) too
    rng = random.Random(7)
    for p, e in [(5, 1), (2, 1), (5, 2), (2, 8), (3, 5), (7, 3)]:
        g = fq_make(p, e)
        for length in range(e + 1, 3 * e + 3):
            cs = [rng.randrange(-p, 2 * p) for _ in range(length)]
            want = _polymod_by_steps([c % p for c in cs], list(g.modulus), p)
            assert g.element(cs) == g.element(want or [0]), (p, e, cs)


DIFFERENTIAL_PRIMES = (2, 3, 5, 7, 127, 65537, 2**31 - 1, 2**61 - 1)


def oracle_pow(x, n):
    """x^n by square-and-multiply over the schoolbook product and the
    Euclid inverse of the oracles."""
    if n < 0:
        x, n = inverse_by_euclid(x), -n
    out = x.field.one()
    while n:
        if n & 1:
            out = mul_by_schoolbook(out, x)
        x = mul_by_schoolbook(x, x)
        n >>= 1
    return out


@pytest.mark.parametrize("p", DIFFERENTIAL_PRIMES)
def test_scalar_kernel_matches_oracles(p):
    # F_p, and every extension degree up to 12 with p^e no larger than the
    # suite's largest extension field, F_{7^12}; seeded dense and sparse
    # elements plus 0, 1 and -1
    rng = random.Random(p)
    for e in range(1, 13):
        if e > 1 and p**e > 7**12:
            break
        f = fq_make(p, e)
        one = f.one()
        xs = [f.zero(), one, -one]
        xs += [f.from_int(rng.randrange(f.q)) for _ in range(6)]
        xs += [f.element([0] * rng.randrange(e) + [rng.randrange(1, p)]) for _ in range(2)]
        for x in xs:
            for y in xs:
                assert x * y == mul_by_schoolbook(x, y), (p, e, x, y)
                assert x + y == f.element([a + b for a, b in zip(x.coeffs, y.coeffs)])
                assert x - y == f.element([a - b for a, b in zip(x.coeffs, y.coeffs)])
                if not y.is_zero():
                    assert x / y == mul_by_schoolbook(x, inverse_by_euclid(y))
            assert -x == f.zero() - x
            if x.is_zero():
                with pytest.raises(ZeroDivisionError):
                    x.inverse()
                assert x**0 == one and x**5 == x
                continue
            assert x.inverse() == inverse_by_euclid(x), (p, e, x)
            for n in (0, 1, 2, 5, f.q - 2, f.q - 1, f.q, -1, -3):
                assert x**n == oracle_pow(x, n), (p, e, x, n)


def test_element_contract():
    f = fq_make(7, 3)
    twin = FqField(7, 3, f.modulus)  # equal to f, not the same object
    x, y = f.element([1, 2, 3]), twin.element([1, 2, 3])
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0, 0)
    with pytest.raises(AttributeError):
        x.field = twin
    with pytest.raises(AttributeError):
        del x.coeffs
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x.coeffs == (1, 2, 3) and x.field is f
    # elements of a field built directly equal those of fq_make's field
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert [a * b for a in f.enumerate() for b in (x, f.one())] == [a * b for a in twin.enumerate() for b in (y, twin.one())]
    assert x != f.element([1, 2, 4]) and x != x.coeffs
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    # mixing fields raises, whichever operator
    other = fq_make(7, 2).element([1, 2])
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ValidationError):
            op(x, other)
    assert x != other


def test_scalar_layer_runs_in_time():
    # 10^4 products of seeded elements of F_25, then the twisted count of
    # E/F_5 under y -> -y at n = 6 (a descent through F_{5^12}), best of
    # three rounds in CPU time: on a 2-core x86 machine this took 0.043 to
    # 0.067 s (median 0.056) with a frozen dataclass per element and
    # products reduced mod p term by term, and takes 0.029 to 0.039 s
    # (median 0.032)
    f = fq_make(5, 2)
    rng = random.Random(11)
    xs = [f.from_int(rng.randrange(f.q)) for _ in range(100)]
    curve = load_variety("elliptic_f5_variety.json")
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        products = [x * y for x in xs for y in xs]
        count = twisted_count(curve, [[1, 0, 0], [0, -1, 0], [0, 0, 1]], 6)
        best = min(best, time.process_time() - start)
    assert count == 15700 and len(products) == 10**4
    assert best < 0.1, best


def first_irreducible_by_full_scan(p: int, e: int) -> tuple[int, ...]:
    """The first monic irreducible of degree e in base-p counting order,
    binomials included."""
    for n in itertools.count():
        modulus = [n // p**i % p for i in range(e)] + [1]
        if _is_irreducible(modulus, p):
            return tuple(modulus)


def test_fq_make_modulus_matches_the_full_scan():
    # skipping the binomials x^e + c that Thm 3.75 of Lidl-Niederreiter
    # rules out keeps the first modulus for every p <= 23 and 2 <= e <= 8
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for e in range(2, 9):
            assert fq_make(p, e).modulus == first_irreducible_by_full_scan(p, e), (p, e)


def test_rabin_test_matches_products_of_monic_polynomials():
    # every monic candidate of every degree e >= 2 with p^e <= 4096 against
    # an oracle that multiplies out all the reducible ones
    cases = [(p, e) for p in range(2, 65) if is_prime(p) for e in range(2, 13) if p**e <= 4096]
    assert len(cases) == 40
    for p, e in cases:
        reducible = reducible_by_products(p, e)
        for n in range(p**e):
            modulus = [n // p**i % p for i in range(e)] + [1]
            assert _is_irreducible(modulus, p) == (tuple(modulus) not in reducible), (p, modulus)


def test_fq_make_skips_impossible_binomials_in_time():
    # 3 does not divide 65536, so no x^3 + c is irreducible over F_65537;
    # the scan of all 65537 of them took about 10 s
    start = time.perf_counter()
    f = fq_make.__wrapped__(65537, 3)
    assert time.perf_counter() - start < 1.0
    assert f.modulus == (4, 1, 0, 1)
