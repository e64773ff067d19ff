"""The vectorized field engine against scalar FqElement arithmetic, on
seeded rows with forced zeros: logs on exp/log/Zech tables.  Rows are
compared through one conversion, VecField.packed.  A field past the table
cap is refused."""

import itertools
import random
import sys

import numpy as np
import pytest

from motivic_zeta import VarietySpec, count_points, gfvec
from motivic_zeta.errors import ResourceError
from motivic_zeta.gf import _prime_factors, fq_make, trace_column
from motivic_zeta.errors import DEFAULT_BUDGET, charge
from motivic_zeta.gfvec import TABLE_MAX, TABLES, ZERO, VecField, _mod_p, _table_bound, vec_field

from conftest import generator_by_orders, trace_column_by_frobenius

TABLED = [(2, 1), (3, 2), (2, 4), (2, 12), (5, 7), (3, 10), (65537, 1)]
PAST_THE_CAP = [(2, 24), (2**31 - 1, 1), (2**61 - 1, 1)]  # 2^24 > TABLE_MAX
FIELDS = [pytest.param(p, e, id=f"tables-{p}^{e}") for p, e in TABLED]


def operands(vf, seed):
    """Two seeded columns of rows: random elements plus every pairing of
    zero, one, -1 and a, -a."""
    rng = random.Random(seed)
    f = vf.field
    a = [rng.randrange(vf.q) for _ in range(100)]
    b = [rng.randrange(vf.q) for _ in range(100)]
    minus_one = (-f.one()).to_int()
    x = rng.randrange(1, vf.q)
    minus_x = (-f.from_int(x)).to_int()
    specials = [0, 1, minus_one, x, minus_x]
    for s in specials:
        for t in specials:
            a.append(s)
            b.append(t)
    return vf.from_packed(np.array(a)), vf.from_packed(np.array(b))


def indices(vf, rows):
    """The packed indices of an array of rows, as a list."""
    return vf.packed(np.asarray(rows)).tolist()


def scalars(vf, column):
    return [vf.field.from_int(n) for n in indices(vf, column)]


def packed(values):
    return [x.to_int() for x in values]


def discriminant(vf, a, b, c):
    """b^2 - 4ac as the quadratic count forms it, with no subtraction."""
    return vf.add(vf.mul(b, b), vf.mul(vf.mul(a, c), vf.const(-4)))


def scalar_discriminants(vf, sa, sb, sc):
    four = vf.field.element(4)
    return packed(y * y - four * x * z for x, y, z in zip(sa, sb, sc))


@pytest.mark.parametrize("p, e", FIELDS)
def test_ring_operations_match_scalar_arithmetic(p, e):
    vf = vec_field(fq_make(p, e))
    a, b = operands(vf, p * 100 + e)
    sa, sb = scalars(vf, a), scalars(vf, b)
    assert indices(vf, vf.add(a, b)) == packed(x + y for x, y in zip(sa, sb))
    assert indices(vf, vf.add(a, vf.mul(b, vf.const(-1)))) == packed(x - y for x, y in zip(sa, sb))
    assert indices(vf, vf.mul(a, b)) == packed(x * y for x, y in zip(sa, sb))
    assert indices(vf, discriminant(vf, a, b, b[::-1].copy())) == scalar_discriminants(vf, sa, sb, sb[::-1])
    assert (a == b).tolist() == [x == y for x, y in zip(sa, sb)]
    assert vf.is_zero(a).tolist() == [x.is_zero() for x in sa]
    for c in (0, 1, -1, 2, p + 3):
        want = packed(vf.field.element(c) * x for x in sa)
        assert indices(vf, vf.mul(a, vf.const(c))) == want  # one-row constants broadcast
        assert indices(vf, vf.mul(vf.const(c), a)) == want


@pytest.mark.parametrize("p, e", FIELDS)
def test_powers_match_scalar_arithmetic(p, e):
    vf = vec_field(fq_make(p, e))
    a, _ = operands(vf, p * 100 + e + 1)
    sa = scalars(vf, a)
    q = vf.q
    exponents = {0, 1, 2, q - 1, q, q + 1, 3 * q + 5} | {p**m for m in (1, 2, e // 2, e)}
    for n in sorted(exponents):
        got = indices(vf, np.broadcast_to(vf.power(a, n), a.shape))
        assert got == packed(x**n for x in sa), n


def frobenius_trace(x):
    """The absolute trace of x as x + x^p + ... + x^(p^(e-1))."""
    f = x.field
    acc = x
    for _ in range(f.e - 1):
        x = x**f.p
        acc = acc + x
    assert all(c == 0 for c in acc.coeffs[1:])
    return acc.coeffs[0]


@pytest.mark.parametrize("p, e", FIELDS)
def test_squares_and_traces_match_scalar_arithmetic(p, e):
    vf = vec_field(fq_make(p, e))
    a, _ = operands(vf, p * 100 + e + 2)
    sa = scalars(vf, a)
    one = vf.field.one()
    if p == 2:
        squares = [not x.is_zero() for x in sa]
    else:
        squares = [not x.is_zero() and x ** ((vf.q - 1) // 2) == one for x in sa]
    assert vf.is_square(a).tolist() == squares
    traces = [frobenius_trace(x) for x in sa]
    if p == 2:  # the parity route of the characteristic-2 quadratic count
        assert vf.trace(a).tolist() == traces
    column = np.array(trace_column(vf.field)).reshape(e, 1)
    assert vf.linear_map(a, column).tolist() == traces


@pytest.mark.parametrize("p, e", FIELDS)
def test_linear_maps_match_scalar_arithmetic(p, e):
    """linear_map against the scalar images of the F_p-linear maps it is
    given: Frobenius x -> x^p, as a map of F_{p^e} to itself, and a seeded
    matrix to F_{p^3}, each image digit sum_i c_i m[i][l] mod p."""
    vf = vec_field(fq_make(p, e))
    f = vf.field
    a, _ = operands(vf, p * 100 + e + 4)
    sa = scalars(vf, a)
    frobenius = [list((f.element([0] * i + [1]) ** p).coeffs) for i in range(e)]
    assert vf.linear_map(a, frobenius).tolist() == packed(x**p for x in sa)
    rng = random.Random(p * 100 + e + 5)
    m = [[rng.randrange(p) for _ in range(3)] for _ in range(e)]
    want = []
    for x in sa:
        image = [sum(c * row[l] for c, row in zip(x.coeffs, m)) % p for l in range(3)]
        want.append(image[0] + image[1] * p + image[2] * p * p)
    assert vf.linear_map(a, m).tolist() == want


@pytest.mark.parametrize("p, e", FIELDS)
def test_elements_and_ranges(p, e):
    vf = vec_field(fq_make(p, e))
    a, _ = operands(vf, p * 100 + e + 3)
    index = np.array([0, 3, len(a) - 1])
    assert vf.elements(a, index) == [vf.field.from_int(indices(vf, a)[i]) for i in index]
    assert vf.elements(vf.const(-1), index) == [-vf.field.one()] * 3
    # tuple index i = v_0 q + v_1 for two variables, v the value index of
    # a row: its log, and q - 1 for zero
    start = max(vf.q**2 - 7, 0)
    x0, x1 = (np.where(x == ZERO, vf.q - 1, x) for x in vf.digits_of_range(start, vf.q**2, 2))
    assert [int(u) * vf.q + int(w) for u, w in zip(x0, x1)] == list(range(start, vf.q**2))


def plane_curve(p, e=1):
    """y^2 z = x^3 + z^3 over F_{p^e}: the chart x = 1 is quadratic in y
    and enumerates z, a pass over one variable."""
    return VarietySpec("projective", 2, p, e, ((((0, 2, 1), 1), ((3, 0, 0), -1), ((0, 0, 3), -1)),))


def test_tables_are_capped_at_the_default_budget():
    """A pass over a field past TABLE_MAX = DEFAULT_BUDGET is refused under
    a budget that pays for it, naming the cap, and so is its VecField; at
    the default budget the charge refuses first.  No field gets tables."""
    assert TABLE_MAX == DEFAULT_BUDGET
    vec_field.cache_clear()
    for p, n in ((2, 24), (2**31 - 1, 1)):
        q = p**n
        with pytest.raises(ResourceError) as err:
            count_points(plane_curve(p), n, budget=10 * q)
        assert (err.value.required, err.value.budget) == (q, TABLE_MAX)
        with pytest.raises(ResourceError) as err:
            vec_field(fq_make(p, n))
        assert (err.value.required, err.value.budget) == (q, TABLE_MAX)
        with pytest.raises(ResourceError) as err:
            count_points(plane_curve(p), n)
        assert err.value.budget == DEFAULT_BUDGET
    assert not gfvec._fields
    charge(TABLES, TABLE_MAX, TABLE_MAX)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:  # a q past the int digit limit names its power of 2, and the
        # refusal is that limit's, for at most 30104 digits
        with pytest.raises(ResourceError, match=r"log tables: at least 2\^100000 exceeds") as err:
            charge(TABLES, 2**100000, TABLE_MAX)
    finally:
        sys.set_int_max_str_digits(default)
    assert (err.value.required, err.value.budget) == (30104, 4300)


def test_one_row_charts_build_no_tables():
    # x^2 = a y^2 on P^1 over F_127: the only chart with points has one
    # free variable, whose roots are counted in closed form
    vec_field.cache_clear()
    for a, points in ((2, 2), (3, 0)):  # 2 is a square mod 127, 3 is not
        conic = VarietySpec("projective", 1, 127, 1, ((((2, 0), 1), ((0, 2), -a)),))
        assert count_points(conic, 1, budget=10) == points
    assert not gfvec._fields
    # a curve in the plane enumerates q rows, and that pass builds them
    count_points(plane_curve(127), 1)
    assert list(gfvec._fields) == [fq_make(127, 1)]


# --- how the tables are built: float64 digit products, the reduction mod p
# and the generator search


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize(
    "p, e", TABLED + [(p, 1) for p in (20011, 32749, 40009, 1048573)], ids=lambda x: str(x)
)
def test_tables_match_scalar_powers(p, e):
    """exp[i] = g^i, log[g^i] = i and g^zech[d] = 1 + g^-d by scalar
    arithmetic, at every i when q <= 2^12 and at 2000 seeded i above."""
    vf = vec_field(fq_make(p, e))
    exp, log, zech = vf._exp, vf._log, vf._zech
    f, q = vf.field, vf.q
    order = q - 1
    assert (len(exp), len(log), len(zech)) == (q, q, q)
    assert (exp[order], log[0], zech[order]) == (0, ZERO, 0)
    g, one = f.element(vf._generator()), f.one()
    if q <= 2**12:
        powers = [one]
        for _ in range(order - 1):
            powers.append(powers[-1] * g)
        picked, power = range(order), powers.__getitem__
    else:
        picked, power = random.Random(q).sample(range(order), 2000), g.__pow__
    for i in picked:
        x = power(i)
        assert exp[i] == x.to_int() and log[exp[i]] == i, i
        d = -i % order  # g^-d = x
        if (one + x).is_zero():
            assert zech[d] == ZERO, i
        else:
            assert 0 <= zech[d] < order and power(int(zech[d])) == one + x, i


def test_reduction_is_exact_where_the_plain_reciprocal_is_not():
    p = 20011
    m = [2**j + d for j in range(31) for d in (0, -1, 1)]
    a = np.array([x * p + r for x in m for r in (0, 1, p - 1)], dtype=np.float64)
    assert a.size >= 256  # the five-pass route, not np.fmod
    assert _mod_p(a.copy(), p, np.empty_like(a)).tolist() == [r for _ in m for r in (0, 1, p - 1)]
    # without the 1/2 offset the rounded quotient of p 2^j falls just below
    # 2^j, and the remainder comes out as p instead of 0
    multiples = np.array([p * 2.0**j for j in range(31)])
    assert (multiples - p * np.floor(multiples * (1 / p)) == p).all()


def test_table_build_values_stay_exact_in_float64(monkeypatch):
    """For every k the largest prime p with p^k <= TABLE_MAX keeps every
    float64 value of a table build below 2^51, where the reduction is exact;
    and real builds stay within the bound."""
    for k in range(1, 24):
        p = int(TABLE_MAX ** (1 / k)) + 1
        while p**k > TABLE_MAX or not is_prime(p):
            p -= 1
        assert p >= 2 and _table_bound(p, k) < 2**51, (p, k)
    assert 2**24 > TABLE_MAX  # so k stops at 23
    seen = []

    def recording(a, p, spare):
        seen.append(a.max(initial=0))
        return _mod_p(a, p, spare)

    monkeypatch.setattr(gfvec, "_mod_p", recording)
    vec_field.cache_clear()  # so that each field below is built here
    for p, k in ((3, 10), (7, 6), (13, 3), (65537, 1), (2, 12)):
        seen.clear()
        vf = vec_field(fq_make(p, k))
        assert 0 < max(seen) <= _table_bound(p, k) and vf._exp.max() < _table_bound(p, k)


PRIMES = [p for p in range(2, 3000) if is_prime(p)] + [20011, 32749, 40009, 65537]


def test_prime_field_generator_is_the_smallest_primitive_root(monkeypatch):
    def refuse(*args):
        raise AssertionError("a prime field reached the digit matrices")

    monkeypatch.setattr(VecField, "_matrix_power", refuse)
    for p in PRIMES:
        f = fq_make(p, 1)
        assert VecField(f)._generator() == [generator_by_orders(f).to_int()], p
    vec_field.cache_clear()
    assert vec_field(fq_make(20011, 1)).table_bytes  # a whole table build, _matrix_power refusing


# g for the extension fields of TABLED, pinned as the digit-matrix search
# has always picked it; for q <= 2^12 the oracle's too
GENERATORS = {
    (3, 2): [1, 1],
    (2, 4): [0, 1, 0, 0],
    (2, 12): [1, 1] + [0] * 10,
    (5, 7): [4, 1, 0, 0, 0, 0, 0],
    (3, 10): [1, 2, 0, 1, 0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("p, e", sorted(GENERATORS), ids=lambda x: str(x))
def test_extension_field_generators_are_unchanged(p, e):
    assert [(p, e) for p, e in TABLED if e > 1] == list(GENERATORS)
    vf = VecField(fq_make(p, e))
    g = vf._generator()
    assert g == GENERATORS[p, e]
    if vf.q <= 2**12:
        assert generator_by_orders(vf.field).coeffs == tuple(g)
    # g is primitive: no power to a cofactor is 1
    x = vf.field.element(g)
    assert all(x ** ((vf.q - 1) // r) != vf.field.one() for r in _prime_factors(vf.q - 1))


# --- the trace column, the log engine's edge rows and its int32 range


@pytest.mark.parametrize("p, e", sorted(set(TABLED + PAST_THE_CAP)) + [(2, k) for k in range(1, 25)], ids=lambda x: str(x))
def test_trace_column_by_newton_matches_frobenius_sums(p, e):
    vec_field.cache_clear()
    field = fq_make(p, e)
    assert list(trace_column(field)) == trace_column_by_frobenius(field)
    assert not gfvec._fields  # the column is the field's, not its tables'


@pytest.mark.parametrize("p, e", FIELDS)
def test_edge_rows(p, e):
    vf = vec_field(fq_make(p, e))
    f, q = vf.field, vf.q
    zero, x = vf.const(0), vf.const(f.from_int(q - 1))
    minus_x = vf.const(-f.from_int(q - 1))
    zero_rows = [vf.add(zero, zero), vf.add(x, minus_x), vf.add(x, vf.mul(x, vf.const(-1))), vf.mul(zero, x), vf.mul(x, zero)]
    zero_rows += [vf.mul(zero, vf.const(3)), vf.mul(x, vf.const(0)), vf.mul(x, vf.const(p))]
    zero_rows += [vf.power(zero, n) for n in (1, 2, q - 1, q, q + 1, 3 * q + 5)]
    for row in zero_rows:
        # a zero row is the one row of 0, so == and is_zero see it
        assert indices(vf, row) == [0] and vf.is_zero(row).tolist() == [True]
        assert (row == zero).tolist() == [True]
    edges = [zero, vf.const(1), vf.const(-1), x, minus_x]
    for a, b, c in itertools.product(edges, repeat=3):
        sa, sb, sc = (scalars(vf, r) for r in (a, b, c))
        assert indices(vf, discriminant(vf, a, b, c)) == scalar_discriminants(vf, sa, sb, sc)
    assert indices(vf, vf.add(zero, x)) == indices(vf, vf.add(x, zero)) == [q - 1]
    assert indices(vf, vf.power(zero, 0)) == indices(vf, vf.power(x, q - 1)) == [1]
    assert vf.is_square(zero).tolist() == [False] and not vf.is_zero(x)[0]
    assert indices(vf, vf.const(0)) == [0]
    assert indices(vf, vf.const(p + 3)) == [f.element(p + 3).to_int()]
    assert vf.elements(zero, [0, 1]) == [f.zero()] * 2


def test_constants_made_before_a_pass_match_its_rows():
    """vec_field builds the tables before it returns, so a constant made
    before the pass, after that call, and the pass's rows are both logs."""
    vec_field.cache_clear()
    vf = vec_field(fq_make(3, 4))
    consts = [vf.const(x) for x in vf.field.enumerate()]
    (rows,) = vf.digits_of_range(0, vf.q)
    assert vf.table_bytes and sorted(indices(vf, rows)) == list(range(vf.q))
    for n, c in enumerate(consts):
        assert np.count_nonzero(rows == c) == 1 and indices(vf, c) == [n]


def test_log_arithmetic_stays_in_int32_near_table_max():
    """At the largest prime field TABLE_MAX admits, rows at both ends of the
    log range and zero give the products, sums, powers and squares of
    arithmetic mod p: an int32 intermediate that wrapped would not."""
    p = 9999991
    assert is_prime(p) and not any(is_prime(n) for n in range(p + 1, TABLE_MAX + 1))
    order = p - 1
    # the module docstring's bounds: a sum of two rows, a difference, a
    # reduced sum and the last exponent whose powers stay in int32
    zero = int(ZERO)
    assert 2 * zero - order >= -(2**31) and order - zero < 2**31 and 2 * order < 2**31
    vf = vec_field(fq_make(p, 1))
    logs = [0, 1, order // 2 - 1, order // 2, order - 2, order - 1, ZERO]
    a = np.array([x for x in logs for _ in logs], dtype=np.int32)
    b = np.array([y for _ in logs for y in logs], dtype=np.int32)
    sa, sb = indices(vf, a), indices(vf, b)
    assert indices(vf, vf.mul(a, b)) == [x * y % p for x, y in zip(sa, sb)]
    assert indices(vf, vf.add(a, b)) == [(x + y) % p for x, y in zip(sa, sb)]
    assert indices(vf, vf.add(a, vf.mul(b, vf.const(-1)))) == [(x - y) % p for x, y in zip(sa, sb)]
    assert indices(vf, vf.mul(a, vf.const(-1))) == [-x % p for x in sa]
    want = [(y * y - 4 * x * z) % p for x, y, z in zip(sa, sb, sb[::-1])]
    assert indices(vf, discriminant(vf, a, b, b[::-1].copy())) == want
    boundary = 2**31 // (order - 1)  # e * log stays in int32 up to here
    for e in (2, boundary, boundary + 1, order - 1, order + 1, 3 * order - 1):
        assert indices(vf, vf.power(a, e)) == [pow(x, e, p) for x in sa], e
    assert vf.is_square(a).tolist() == [x != 0 and pow(x, order // 2, p) == 1 for x in sa]
    vec_field.cache_clear()  # 120 MB of tables


def test_sums_past_a_chunk_match_scalar_arithmetic(monkeypatch):
    """Sums and differences on more rows than CHUNK, whose Zech indices go
    to a new array instead of the per-thread buffer, differences of rows
    from a one-row constant and of a constant from rows, and discriminants."""
    monkeypatch.setattr(gfvec, "CHUNK", 16)
    vf = vec_field(fq_make(5, 3))
    a, b = operands(vf, 53)
    sa, sb = scalars(vf, a), scalars(vf, b)
    three = vf.field.element(3)
    assert indices(vf, vf.add(a, b)) == packed(x + y for x, y in zip(sa, sb))
    assert indices(vf, vf.add(a, vf.mul(b, vf.const(-1)))) == packed(x - y for x, y in zip(sa, sb))
    assert indices(vf, vf.add(vf.const(3), vf.mul(a, vf.const(-1)))) == packed(three - x for x in sa)
    assert indices(vf, vf.add(a, vf.mul(vf.const(3), vf.const(-1)))) == packed(x - three for x in sa)
    assert indices(vf, discriminant(vf, a, b, b[::-1].copy())) == scalar_discriminants(vf, sa, sb, sb[::-1])
    assert indices(vf, discriminant(vf, vf.const(3), a, b)) == scalar_discriminants(vf, [three] * len(sa), sa, sb)


def test_vec_field_keeps_tables_up_to_the_bytes_of_one_table_max_field(monkeypatch):
    """vec_field keeps the most recently used fields while their tables take
    at most 12 TABLE_MAX bytes: over two sweeps, 33 fields of at most
    2 * 10^4 elements are each tabulated once (a cache of 16 fields rebuilt
    every one), and past the bound the least recently used tables go."""
    builds = []
    tabulate = VecField._tabulate

    def counted(vf):
        builds.append(vf.q)
        tabulate(vf)

    monkeypatch.setattr(VecField, "_tabulate", counted)

    def held():
        return sum(vf.table_bytes for vf in gfvec._fields.values())

    vec_field.cache_clear()
    fields = [fq_make(p, e) for p in (2, 3, 5, 7) for e in range(1, 15) if p**e <= 20_000][:33]
    for _ in range(2):
        for field in fields:
            assert vec_field(field).table_bytes and held() <= 12 * TABLE_MAX
    assert len(fields) == 33 and sorted(builds) == sorted(field.q for field in fields)
    monkeypatch.setattr(gfvec, "TABLE_MAX", 1000)  # a bound of 12 000 bytes
    vec_field.cache_clear()
    old = vec_field(fq_make(2, 9))  # 512 elements, 6144 bytes
    assert old.table_bytes == 6144 and held() == 6144
    built = len(builds)
    assert vec_field(fq_make(2, 9)) is old and len(builds) == built  # no second build
    new = vec_field(fq_make(3, 6))  # 729 elements, 8748 bytes: 14 892 with old's, so old's go
    assert new.table_bytes == 8748 and held() == 8748
    assert vec_field(fq_make(3, 6)) is new and vec_field(fq_make(2, 9)) is not old
    vec_field.cache_clear()
