"""Tests for the prime-field numpy linear algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    coordinate_restriction_via_scans,
    kernel_double_loop,
    row_space_contains,
    rref_every_column,
)
from invsub.finite_oracle import FiniteLattice, instantiate_spec, pairing_matrix
from invsub.fplinalg import (
    _rref_in_place,
    as_fp,
    coordinate_restriction,
    kernel,
    matmul_mod,
    rank,
    row_basis,
    row_space_equal,
    row_space_intersection,
    rref,
    solve,
)
from invsub.zoo import get_example


def small_matrix(p, max_rows=5, max_cols=6):
    return st.integers(1, max_rows).flatmap(lambda r: st.integers(1, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    ))


def test_rref_hand_example():
    # Worked by hand over F_3: rows (1,2,1), (2,1,1), (1,1,0).
    # r2 <- r2 - 2 r1 = (0,0,2) -> normalize (0,0,1); r3 <- r3 - r1 =
    # (0,2,2) -> (0,1,1) -> clear: unique RREF is the identity pattern.
    m = [[1, 2, 1], [2, 1, 1], [1, 1, 0]]
    red, pivots = rref(m, 3)
    assert pivots == [0, 1, 2]
    assert np.array_equal(red, np.eye(3, dtype=np.int64))


def test_rref_with_free_column():
    # Over F_2, second column is the sum of the first two pivot columns.
    m = [[1, 1, 0], [0, 0, 1]]
    red, pivots = rref(m, 2)
    assert pivots == [0, 2]
    assert np.array_equal(red, as_fp([[1, 1, 0], [0, 0, 1]], 2))


def test_rank_and_kernel_hand_example():
    m = [[1, 1, 1], [2, 2, 2]]
    assert rank(m, 3) == 1
    k = kernel(m, 3)
    assert k.shape == (2, 3)
    assert np.array_equal((as_fp(m, 3) @ k.T) % 3, np.zeros((2, 2)))


def test_solve_consistent_and_inconsistent():
    a = [[1, 1], [0, 1]]
    x = solve(a, [0, 2], 3)
    assert x is not None
    assert np.array_equal((as_fp(a, 3) @ x) % 3, [0, 2])
    a2 = [[1, 1], [2, 2]]
    assert solve(a2, [1, 1], 3) is None
    assert solve(a2, [1, 2], 3) is not None


def test_row_space_predicates():
    a = [[1, 0, 1], [0, 1, 1]]
    b = [[1, 1, 2], [0, 1, 1]]  # same span over F_3
    assert row_space_equal(a, b, 3)
    assert row_space_contains(a, [1, 2, 0], 3)
    assert not row_space_contains(a, [1, 0, 0], 3)
    assert not row_space_equal(a, [[1, 0, 1]], 3)


def test_intersection_hand_example():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    inter = row_space_intersection(a, b, 5)
    assert np.array_equal(inter, [[0, 1, 0]])


def test_intersection_empty():
    a = [[1, 0, 0, 0]]
    b = [[0, 1, 0, 0]]
    inter = row_space_intersection(a, b, 2)
    assert inter.shape == (0, 4)


def test_coordinate_restriction_hand_example():
    a = [[1, 1, 0], [0, 0, 1]]
    res = coordinate_restriction(a, [0, 1], 3)
    assert np.array_equal(res, [[1, 1, 0]])
    res2 = coordinate_restriction(a, [2], 3)
    assert np.array_equal(res2, [[0, 0, 1]])
    res3 = coordinate_restriction(a, [0], 3)
    assert res3.shape == (0, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_rank_nullity_and_kernel_property(p, data):
    m = data.draw(small_matrix(p))
    r = rank(m, p)
    k = kernel(m, p)
    assert r + k.shape[0] == len(m[0])
    if k.shape[0]:
        prod = (as_fp(m, p) @ k.T) % p
        assert not prod.any()
    # RREF is idempotent.
    red, _ = rref(m, p)
    again, _ = rref(red, p)
    assert np.array_equal(red, again)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_intersection_dimension_formula(p, data):
    a = data.draw(small_matrix(p, max_rows=4, max_cols=5))
    ncols = len(a[0])
    b = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
        min_size=1, max_size=4,
    ))
    inter = row_space_intersection(a, b, p)
    da, db = rank(a, p), rank(b, p)
    dsum = rank(np.vstack([as_fp(a, p), as_fp(b, p)]), p)
    assert inter.shape[0] == da + db - dsum
    for v in inter:
        assert row_space_contains(a, v, p)
        assert row_space_contains(b, v, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_coordinate_restriction_property(p, data):
    m = data.draw(small_matrix(p, max_rows=4, max_cols=5))
    ncols = len(m[0])
    coords = data.draw(st.sets(st.integers(0, ncols - 1)))
    res = coordinate_restriction(m, coords, p)
    outside = [c for c in range(ncols) if c not in coords]
    for v in res:
        assert row_space_contains(m, v, p)
        assert not v[outside].any() if outside else True
    # Maximality: restricting again changes nothing.
    assert row_space_equal(res, coordinate_restriction(res, coords, p), p) \
        or res.shape[0] == 0


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_coordinate_restriction_matches_first_route(p):
    # The restriction eliminates its permuted copy in place and keeps the
    # rows whose pivot is on the coordinates; the first route copied
    # twice more and scanned the reduced form for rows vanishing off them.
    rng = np.random.default_rng(p % 1000)
    for rows, cols in ((1, 1), (3, 8), (8, 3), (12, 20), (30, 24)):
        for density in (0.2, 0.9):
            a = rng.integers(-2 * p, 2 * p, size=(rows, cols))
            a[rng.random((rows, cols)) > density] = 0
            for size in (0, 1, cols // 2, cols):
                coords = rng.choice(cols, size=size, replace=False)
                before = a.copy()
                res = coordinate_restriction(a, coords, p)
                old = coordinate_restriction_via_scans(a, coords, p)
                assert res.dtype == old.dtype and res.shape == old.shape
                assert res.tobytes() == old.tobytes()
                assert np.array_equal(a, before)
    assert coordinate_restriction([1, 0, 2], [0, 2], 3).tolist() == [[1, 0, 2]]
    with pytest.raises(ValueError):
        coordinate_restriction([[1, 2]], [0], 2**31)


def test_as_fp_rows_are_contiguous():
    m = np.arange(24).reshape(4, 6)
    for view in (m.T, m[:, [5, 0, 3, 1, 2, 4]], np.asfortranarray(m)):
        arr = as_fp(view, 5)
        assert arr.flags["C_CONTIGUOUS"]
        assert np.array_equal(arr, np.asarray(view) % 5)
        assert np.array_equal(rref(view, 5)[0], rref(np.ascontiguousarray(view), 5)[0])


def test_solve_returns_none_not_exception_on_wide_system():
    x = solve([[1, 2, 0], [0, 1, 1]], [2, 2], 3)
    assert x is not None
    m = as_fp([[1, 2, 0], [0, 1, 1]], 3)
    assert np.array_equal((m @ x) % 3, [2, 2])


def test_row_basis_is_canonical():
    rng = np.random.default_rng(7)
    m = rng.integers(0, 3, size=(6, 8))
    shuffled = m[rng.permutation(6)]
    scaled = (m * 2) % 3
    assert np.array_equal(row_basis(m, 3), row_basis(shuffled, 3))
    assert np.array_equal(row_basis(m, 3), row_basis(scaled, 3))


def object_product(a, b, p):
    """(a @ b) mod p in Python integers, the exact reference."""
    prod = np.asarray(a).astype(object) @ np.asarray(b).astype(object)
    return (prod % p).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_kernel_matches_reference_loop(p):
    rng = np.random.default_rng(p)
    for trial in range(40):
        nrows, ncols = rng.integers(1, 13, size=2)
        # Low-rank products as well as dense draws, so that free
        # columns sit between pivots.
        if trial % 2:
            inner = int(rng.integers(1, min(nrows, ncols) + 1))
            a = object_product(rng.integers(0, p, size=(nrows, inner)),
                               rng.integers(0, p, size=(inner, ncols)), p)
        else:
            a = rng.integers(0, p, size=(nrows, ncols))
        k = kernel(a, p)
        assert k.dtype == np.int64
        assert k.shape == (ncols - rank(a, p), ncols)
        assert not object_product(a, k.T, p).any()
        assert k.tobytes() == kernel_double_loop(a, p).tobytes()


def test_kernel_of_zero_and_full_rank():
    assert np.array_equal(kernel(np.zeros((2, 3), dtype=np.int64), 5),
                          np.eye(3, dtype=np.int64))
    assert kernel(np.eye(4, dtype=np.int64), 5).shape == (0, 4)


@pytest.mark.parametrize("p, inner", [
    (65521, 2048),  # float64: 2048 * 65520^2 < 2^53
    (3, 2048),      # float32: 2048 * 2^2 < 2^24
    (1021, 16),     # float32 at its edge: 16 * 1020^2 < 2^24
    (1021, 17),     # float64 just past it: 17 * 1020^2 > 2^24
    # The largest inner dimension k of each path, k * (p - 1)^2 just
    # below the bound and (k + 1) * (p - 1)^2 above it.
    (257, 255),     # float32
    (2097143, 2048),  # float64
    (8388593, 128),   # float64
])
def test_matmul_mod_float_paths_are_exact(p, inner):
    # Entries near p - 1 push the partial sums towards each limit, and
    # all entries p - 1 reach it; an inexact reduction would show
    # against the Python-integer product.
    rng = np.random.default_rng(inner)
    near = (rng.integers(max(0, p - 50), p, size=(6, inner)),
            rng.integers(max(0, p - 50), p, size=(inner, 5)))
    top = (np.full((6, inner), p - 1), np.full((inner, 5), p - 1))
    for a, b in (near, top):
        out = matmul_mod(a, b, p)
        assert out.dtype == np.int64
        assert np.array_equal(out, object_product(a, b, p))
    assert (matmul_mod(*top, p) == inner % p).all()  # (p - 1)^2 = 1 mod p


def test_matmul_mod_object_path_beyond_float_range():
    # 2^31 - 1 is prime; its products overflow float64's exact range,
    # so the guard must leave BLAS.
    p = 2**31 - 1
    rng = np.random.default_rng(2)
    a = rng.integers(p - 1000, p, size=(4, 64))
    b = rng.integers(p - 1000, p, size=(64, 3))
    exact = object_product(a, b, p)
    floated = np.rint(a.astype(np.float64) @ b.astype(np.float64))
    assert not np.array_equal(floated.astype(object) % p, exact)
    assert np.array_equal(matmul_mod(a, b, p), exact)


def test_matmul_mod_reads_inputs_mod_p():
    a = np.array([[-1, 7], [3, -4]])
    b = np.array([[2, 0], [-3, 5]])
    assert np.array_equal(matmul_mod(a, b, 5), object_product(a % 5, b % 5, 5))
    assert np.array_equal(matmul_mod(a, [1, 1], 5), [1, 4])


def test_modulus_guard():
    for bad in (2**31, 2**31 + 11, 1):
        with pytest.raises(ValueError):
            as_fp([[1, 2]], bad)
        with pytest.raises(ValueError):
            rref([[1, 2]], bad)
        with pytest.raises(ValueError):
            matmul_mod([[1]], [[1]], bad)
    # Just below the limit the int64 products (p - 1)^2 still fit.
    p = 2**31 - 1
    rng = np.random.default_rng(3)
    a = rng.integers(p - 1000, p, size=(5, 7))
    k = kernel(a, p)
    assert k.shape == (7 - rank(a, p), 7)
    assert not object_product(a, k.T, p).any()


PRIMES = [2, 3, 5, 7, 2**31 - 1]


@st.composite
def elimination_inputs(draw):
    """(m, p): a reduced int64 matrix of one of several shapes of input:
    dense or sparse draws, with repeated rows, already reduced, or
    reduced with its columns permuted.  Zero rows and columns and empty
    shapes come up among them."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 1.0]))
    nonzero = st.integers(1, p - 1)
    m = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        for j in range(ncols):
            if density and draw(st.floats(0, 1)) <= density:
                m[i, j] = draw(nonzero)
    kind = draw(st.sampled_from(["draw", "repeated", "reduced", "permuted"]))
    if kind == "repeated" and nrows:
        m = m[draw(st.lists(st.integers(0, nrows - 1), max_size=12))]
    elif kind in ("reduced", "permuted"):
        m = rref_every_column(m, p)[0]
        if kind == "permuted":
            m = m[:, draw(st.permutations(range(ncols)))]
    return np.ascontiguousarray(m, dtype=np.int64), p


def assert_same_elimination(m, p):
    """_rref_in_place gives the reference's whole array, zero rows
    included, and its pivot list."""
    red, pivots = _rref_in_place(m.copy(), p)
    want, want_pivots = rref_every_column(m.copy(), p)
    assert pivots == want_pivots
    assert red.dtype == np.int64 and red.shape == m.shape
    assert red.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(elimination_inputs())
def test_rref_kernel_matches_every_column_reference(case):
    assert_same_elimination(*case)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_kernel_on_seeded_sparse_and_dense_draws(p):
    rng = np.random.default_rng(p % 997)
    for shape in ((0, 0), (0, 7), (7, 0), (1, 1), (3, 40), (40, 3),
                  (25, 25), (60, 90), (90, 60)):
        for density in (0.02, 0.1, 0.5, 1.0):
            m = rng.integers(1, p, size=shape)
            m[rng.random(shape) > density] = 0
            assert_same_elimination(m, p)
            # Rows repeated and shuffled, columns permuted.
            if shape[0] and shape[1]:
                rows = rng.integers(0, shape[0], size=shape[0] + 3)
                cols = rng.permutation(shape[1])
                assert_same_elimination(
                    np.ascontiguousarray(m[rows][:, cols]), p)


def banded(rng, shape, width, p):
    """Row i holds nonzeros only within width columns of column
    i * ncols / nrows.  For p > 2 a row's largest entry is mostly not its
    leading one."""
    nrows, ncols = shape
    m = np.zeros(shape, dtype=np.int64)
    for i in range(nrows):
        start = i * ncols // nrows
        stop = min(ncols, start + width)
        m[i, start:stop] = rng.integers(0, p, size=stop - start)
        m[i, start] = 1
    m[rng.random(nrows) < 0.1] = 0
    return m


def full_column_rank(rng, nrows, ncols, p):
    """A random nrows x ncols matrix of rank ncols (nrows >= ncols): a
    unit upper triangle with random entries above the diagonal, its rows
    mixed and stacked on random rows, then shuffled."""
    top = np.triu(rng.integers(0, p, size=(ncols, ncols)), 1)
    top[np.arange(ncols), np.arange(ncols)] = rng.integers(1, p, size=ncols)
    mix = np.tril(rng.integers(0, p, size=(ncols, ncols)), -1) + np.eye(
        ncols, dtype=np.int64)
    m = np.vstack([matmul_mod(mix, top, p),
                   rng.integers(0, p, size=(nrows - ncols, ncols))])
    return np.ascontiguousarray(m[rng.permutation(nrows)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_kernel_on_banded_and_full_column_rank_draws(p):
    rng = np.random.default_rng(10 + p)
    for shape, width in (((60, 60), 3), ((80, 120), 5), ((120, 80), 4),
                         ((40, 200), 12), ((200, 40), 2)):
        m = banded(rng, shape, width, p)
        assert_same_elimination(m, p)
        # The same rows out of band order.
        assert_same_elimination(np.ascontiguousarray(
            m[rng.permutation(shape[0])]), p)
    for nrows, ncols in ((1, 1), (30, 30), (50, 20), (200, 33), (64, 64)):
        m = full_column_rank(rng, nrows, ncols, p)
        assert rank(m, p) == ncols
        assert_same_elimination(m, p)
        red, pivots = _rref_in_place(m.copy(), p)
        assert pivots == list(range(ncols))
        assert np.array_equal(red[:ncols], np.eye(ncols, dtype=np.int64))
        assert not red[ncols:].any()


def test_rref_kernel_on_patch_pairing_matrix():
    # The span's pairing matrix of example-z3 on a 16x16 patch, 420 x 420:
    # sparse at first, it fills in as the rounds go.
    spec = get_example("example-z3").spec
    lattice = FiniteLattice(spec.p, spec.q, (16, 16), periodic=False)
    span = row_basis(instantiate_spec(spec, lattice), spec.p)
    pairing = pairing_matrix(span, span, spec.p)
    assert pairing.shape == (420, 420)
    assert_same_elimination(as_fp(pairing, spec.p), spec.p)
