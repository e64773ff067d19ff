"""Integer lattice routines and numerical Grothendieck groups."""

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_zeta import (
    EulerGram,
    beilinson_gram,
    left_kernel,
    num_grothendieck,
    phi_pairing_check,
    quiver_gram,
    right_kernel,
)
from motivic_zeta import k0
from motivic_zeta.errors import ResourceError, ValidationError
from motivic_zeta.exact_core import RatMatrix
from motivic_zeta.k0 import (
    hermite_rows,
    kernel_is_saturated,
    smith_normal_form,
)
from motivic_zeta.serialize import dumps

from conftest import right_kernel_by_two_passes, smith_diagonal_by_pivots

int_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@settings(max_examples=60)
@given(int_matrices)
def test_smith_normal_form_invariants(rows):
    d, u, v = smith_normal_form(rows)
    n = len(rows)
    assert matmul(matmul(u, rows), v) == d
    diag = [d[i][i] for i in range(n)]
    # off-diagonal zero
    assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    # nonnegative and divisibility chain
    nz = [x for x in diag if x != 0]
    assert all(x > 0 for x in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # zeros come last
    assert diag == nz + [0] * (n - len(nz))


def test_hermite_rows():
    h = hermite_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # row-echelon with positive pivots
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            pivots.append(nz[0])
            assert row[nz[0]] > 0
    assert pivots == sorted(pivots)


def test_kernels_of_diagonal_gram():
    g = EulerGram.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    assert right_kernel(g) == [[0, 1, 0]]
    assert left_kernel(g) == [[0, 1, 0]]


def test_kernel_membership_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        # force singularity by duplicating a row
        if n > 1:
            rows[-1] = rows[0]
        g = EulerGram.from_rows(rows)
        for vec in right_kernel(g):
            assert all(
                sum(rows[i][j] * vec[j] for j in range(n)) == 0 for i in range(n)
            )
        for vec in left_kernel(g):
            assert all(
                sum(vec[i] * rows[i][j] for i in range(n)) == 0 for j in range(n)
            )


def test_rank_five_gram_kernel_is_fast():
    # a 7x7 Gram of rank 5 on which Smith-form kernels ran past 30 s
    rows = [
        [6, 0, 6, 4, -2, 0, -8],
        [1, 2, 7, 6, 0, -2, -5],
        [-3, -6, -5, -10, 6, 2, 1],
        [4, 1, -3, -6, 6, 0, 3],
        [-3, -2, 1, 0, 0, 1, -2],
        [4, 2, 6, 2, 4, -1, -5],
        [-2, 3, -1, 2, -2, 2, 3],
    ]
    start = time.perf_counter()
    report = num_grothendieck(EulerGram.from_rows(rows))
    assert time.perf_counter() - start < 0.5
    assert report.rank == 5
    assert len(report.right_kernel_basis) == 2
    for vec in report.right_kernel_basis:
        assert all(sum(r[j] * vec[j] for j in range(7)) == 0 for r in rows)
    assert kernel_is_saturated(report.right_kernel_basis)


def test_saturation_on_random_singular_grams():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[-1] = [2 * x for x in rows[0]]  # singular with a scaled row
        g = EulerGram.from_rows(rows)
        report = num_grothendieck(g)
        # the quotient is free: the kernel used for it is saturated
        sat_kernel = [
            [int(x) for x in row] for row in report.quotient_basis
        ]  # quotient basis rows are unit vectors
        assert all(sum(abs(x) for x in row) == 1 for row in sat_kernel)
        assert report.rank == len(report.quotient_basis)
        # the integer kernel is saturated as computed
        assert kernel_is_saturated(right_kernel(g))


def test_beilinson_grams():
    g2 = beilinson_gram(2)
    assert g2.chi == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    for n in range(5):
        report = num_grothendieck(beilinson_gram(n))
        assert report.rank == n + 1
        assert report.kernels_agree
        assert report.right_kernel_basis == []
        assert len(report.quotient_basis) == n + 1


def test_builders_do_not_recheck_their_own_grams(monkeypatch):
    """Only rows from outside (EulerGram.from_rows, from_json) go through the
    JSON integer check; the builders and left_kernel's transpose make int
    rows themselves."""
    calls = []

    def counting(x, what):
        calls.append(what)
        return x

    monkeypatch.setattr(k0, "_json_int", counting)
    chain = quiver_gram(6, [(i, i + 1) for i in range(5)])
    plane = beilinson_gram(2)
    assert calls == []
    assert chain.chi[0][:2] == (1, -1) and plane.chi == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert left_kernel(chain) == [] and calls == []
    EulerGram.from_json({"chi": [[1, 0], [0, 1]]})
    assert calls == ["Gram entry"] * 4


def test_non_smooth_gram_detected():
    g = EulerGram.from_rows([[0, 1], [0, 0]])
    report = num_grothendieck(g)
    assert not report.kernels_agree
    assert report.left_kernel_basis != report.right_kernel_basis
    assert report.warning


def test_quiver_gram():
    # A2 quiver: two vertices, one arrow
    g = quiver_gram(2, [(0, 1)])
    assert g.chi == ((1, -1), (0, 1))
    report = num_grothendieck(g)
    assert report.rank == 2
    with pytest.raises(ValidationError):
        quiver_gram(2, [(0, 1), (1, 0)])  # oriented cycle
    with pytest.raises(ValidationError):
        quiver_gram(1, [(0, 0)])  # loop


def test_quiver_gram_checks_a_long_chain_without_recursion():
    # acyclicity is checked iteratively: a 1200-vertex chain, past
    # Python's recursion limit, is accepted, and closed by one back arrow
    # or given a self-loop it is refused
    n = 1200
    chain = [(i, i + 1) for i in range(n - 1)]
    g = quiver_gram(n, chain)
    assert g.n == n
    assert all(g.chi[i][i + 1] == -1 and g.chi[i][i] == 1 for i in range(n - 1))
    for arrows in (chain + [(n - 1, 0)], chain + [(n // 2, n // 2)]):
        with pytest.raises(ValidationError, match="cycle"):
            quiver_gram(n, arrows)


def test_phi_pairing():
    g = beilinson_gram(2)
    opposite = EulerGram.from_rows(
        [[g.chi[j][i] for j in range(3)] for i in range(3)]
    )
    assert phi_pairing_check(g, opposite)
    assert not phi_pairing_check(
        EulerGram.from_rows([[0, 1], [0, 0]]),
        EulerGram.from_rows([[1, 0], [0, 1]]),
    )


def test_gram_json_round_trip():
    g = beilinson_gram(3)
    assert EulerGram.from_json(json.loads(dumps(g))).chi == g.chi


@pytest.mark.parametrize("seed", range(6))
def test_smith_form_of_dense_7x7_is_fast_with_small_transforms(seed):
    # the smallest-pivot routine ran past 8 s on seeds 0, 1 and 5 and gave
    # transforms with 17701-bit entries on seed 2
    rng = random.Random(seed)
    m = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
    start = time.perf_counter()
    d, u, v = smith_normal_form(m)
    assert time.perf_counter() - start < 1.0
    assert matmul(matmul(u, m), v) == d
    assert abs(RatMatrix.from_rows(u).det()) == 1 == abs(RatMatrix.from_rows(v).det())
    assert all(d[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    diag = [d[i][i] for i in range(7)]
    assert all(x > 0 for x in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert max(abs(x).bit_length() for t in (u, v) for row in t for x in row) <= 64
    if seed in (2, 3, 4):
        assert diag == smith_diagonal_by_pivots(m)


def test_smith_form_matches_the_pivot_oracle_on_rectangular_matrices():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) * rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert [d[i][i] for i in range(min(rows, cols))] == smith_diagonal_by_pivots(m)


def test_kernel_saturation_by_hermite_form():
    assert kernel_is_saturated([])
    assert kernel_is_saturated([[1, 2, 3], [0, 1, 4]])
    assert not kernel_is_saturated([[2, 4, 6]])  # twice a primitive vector
    assert not kernel_is_saturated([[1, 1, 0], [1, -1, 0]])  # index 2 in its span
    assert not kernel_is_saturated([[0, 0, 0]])


def gram_of_rank(rng, n, r, entry=3):
    """An n x n integer Gram of rank at most r, a product of random n x r
    and r x n factors, so not symmetric: its left and right kernels differ."""
    left = [[rng.randint(-entry, entry) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(n)]


def test_one_hermite_form_per_kernel_matches_two_passes():
    rng = random.Random(29)
    differ = 0
    for n in range(9):
        for r in range(n + 1):
            for _ in range(6):
                chi = gram_of_rank(rng, n, r)
                g = EulerGram.from_rows(chi)
                transpose = [list(col) for col in zip(*chi)]
                assert right_kernel(g) == right_kernel_by_two_passes(chi), chi
                assert left_kernel(g) == right_kernel_by_two_passes(transpose), chi
                differ += right_kernel(g) != left_kernel(g)
    assert differ > 100  # non-smooth Grams, whose kernels differ, are covered


def test_each_kernel_is_one_hermite_form(monkeypatch):
    calls = []

    def counting(vectors):
        calls.append(len(vectors))
        return hermite_rows(vectors)

    monkeypatch.setattr(k0, "hermite_rows", counting)
    singular = EulerGram.from_rows(gram_of_rank(random.Random(5), 6, 3))
    for call, forms in [
        (lambda: right_kernel(singular), 1),
        (lambda: left_kernel(singular), 1),
        (lambda: num_grothendieck(singular), 2),
        (lambda: phi_pairing_check(singular, singular), 2),
    ]:
        calls.clear()
        call()
        assert calls == [6] * forms


@pytest.mark.parametrize(
    "kernel, n, complement",
    [
        ([], 0, []),  # no coordinates at all
        ([], 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),  # empty kernel: the whole lattice
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, []),  # full kernel: nothing left
        ([[1, 0, 2], [0, 0, 1]], 3, [[0, 1, 0]]),  # pivots 0 and 2
        ([[0, 1, -4, 7]], 4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ],
)
def test_complement_basis_is_the_units_outside_the_pivots(kernel, n, complement):
    assert k0._complement_basis(kernel, n) == complement


def test_num_grothendieck_of_the_empty_and_the_zero_gram():
    empty = num_grothendieck(EulerGram(()))
    assert (empty.rank, empty.right_kernel_basis, empty.quotient_basis) == (0, [], [])
    zero = num_grothendieck(EulerGram.from_rows([[0, 0], [0, 0]]))
    assert (zero.rank, zero.right_kernel_basis, zero.quotient_basis) == (0, [[1, 0], [0, 1]], [])


def test_hermite_work_is_charged_before_the_first_form(monkeypatch):
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET", raising=False)
    monkeypatch.setattr(k0, "hermite_rows", lambda vectors: pytest.fail("a Hermite form ran before its charge"))
    chain = quiver_gram(900, [(i, i + 1) for i in range(899)])
    with pytest.raises(ResourceError, match=k0.HERMITE) as err:
        num_grothendieck(chain)
    assert (err.value.required, err.value.budget) == (900**3 // 8, 10**7)
    # entries of 65 bits are charged two words each
    wide = EulerGram.from_rows([[2**64, 0], [0, 1]])
    monkeypatch.setenv("MOTIVIC_ZETA_BUDGET", "1")
    with pytest.raises(ResourceError, match=k0.HERMITE) as err:
        right_kernel(wide)
    assert err.value.required == 2**3 * 2 // 8


def test_the_hermite_charge_leaves_small_grams_far_below_the_budget(monkeypatch):
    # the bench's Grams (n <= 8, entries of a few bits) and P^170, the
    # largest Beilinson Gram that is allocated, answer at the default
    monkeypatch.setenv("MOTIVIC_ZETA_BUDGET", "1000")
    rng = random.Random(8)
    for n in range(1, 9):
        num_grothendieck(EulerGram.from_rows(gram_of_rank(rng, n, n - 1, 9)))
    monkeypatch.delenv("MOTIVIC_ZETA_BUDGET")
    monkeypatch.setattr(k0, "hermite_rows", lambda vectors: [])  # the charge alone
    assert num_grothendieck(beilinson_gram(170)).rank == 171
