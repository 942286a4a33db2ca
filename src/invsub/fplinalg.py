"""Exact linear algebra over prime fields on numpy integer arrays.

All matrices are 2-d int64 arrays with entries reduced into [0, p).
Everything here is deterministic: pivots are always the first usable
row/column in index order, so reduced forms are canonical and safe to
compare across runs.

Sizes in this package stay in the low thousands, where vectorized
Gauss-Jordan over F_p is comfortably fast.  Elimination multiplies two
reduced entries in int64, which is exact while (p - 1)^2 < 2^63, so
`as_fp` (and with it every elimination) refuses p >= 2^31.  Matrix
products go through `matmul_mod`, which uses float BLAS only while
every accumulated sum, at most k*(p - 1)^2 for inner dimension k, is
an integer the float type holds exactly (below 2^24 for float32, 2^53
for float64), and exact Python-integer arithmetic otherwise.  Results
are exact either way.
"""

from __future__ import annotations

from ._lazy_numpy import LazyNumpy

np = LazyNumpy(globals())

# Moduli must stay below this so that products of two reduced entries
# fit in int64.
_MODULUS_LIMIT = 2 ** 31

# Float dtypes, narrowest first, with the bound below which each holds
# every integer exactly (2 to the power of its significand bits).
_EXACT_FLOATS = (("float32", 2 ** 24), ("float64", 2 ** 53))


def _check_modulus(p: int) -> None:
    if not 2 <= p < _MODULUS_LIMIT:
        raise ValueError(
            f"modulus {p} is outside [2, 2^31), where int64 products are exact"
        )


def as_fp(a, p: int) -> np.ndarray:
    """Copy input as a C-ordered int64 array reduced mod p.

    C order keeps each row contiguous for the row operations of `rref`,
    also when the input is a transpose or a column-permuted copy."""
    _check_modulus(p)
    arr = np.array(a, dtype=np.int64, order="C")
    arr %= p
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def _reduced(a, p: int) -> np.ndarray:
    """a as int64 with entries in [0, p), copied only when needed."""
    a = np.asarray(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        a = a % p
    return a


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as int64, with a and b read mod p."""
    _check_modulus(p)
    a, b = _reduced(a, p), _reduced(b, p)
    bound = a.shape[-1] * (p - 1) ** 2
    for dtype, exact in _EXACT_FLOATS:
        if bound < exact:
            # Every partial sum is an integer below `exact`, so BLAS
            # computes it without rounding in any summation order.
            prod = a.astype(dtype) @ b.astype(dtype)
            return np.mod(prod, p, out=prod).astype(np.int64)
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    return _rref_in_place(as_fp(a, p), p)


def _rref_in_place(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref` of m, overwriting m: a 2-d C-ordered int64 array with
    entries in [0, p) that the caller no longer needs."""
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        # Rows r and below are zero left of column c, so only the
        # trailing columns c: ever change.
        lead = r + nz[0]
        if lead != r:
            m[[r, lead], c:] = m[[lead, r], c:]
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            block = m[hit, c:]
            block -= np.outer(block[:, 0], m[r, c:])
            block %= p
            m[hit, c:] = block
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def row_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the row space (nonzero RREF rows)."""
    m, pivots = rref(a, p)
    return m[: len(pivots)]


def row_space_equal(a, b, p: int) -> bool:
    ba, bb = row_basis(a, p), row_basis(b, p)
    return ba.shape == bb.shape and bool(np.array_equal(ba, bb))


def row_space_contains(a, v, p: int) -> bool:
    base = row_basis(a, p)
    stacked = row_basis(np.vstack([base, as_fp(v, p)]), p)
    return stacked.shape[0] == base.shape[0]


def kernel(a, p: int) -> np.ndarray:
    """Basis, as rows, of the right null space {x : a @ x = 0}.

    One row per free column c: 1 at c and minus column c of the reduced
    form at the pivot columns.
    """
    m, pivots = rref(a, p)
    ncols = m.shape[1]
    free = np.setdiff1d(np.arange(ncols), pivots)
    block = m[: len(pivots), free]
    del m  # the reduced form can go before the basis is allocated
    np.negative(block, out=block)
    block %= p
    out = np.zeros((free.size, ncols), dtype=np.int64)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = block.T
    return out


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b (1-d), or None if inconsistent."""
    m = as_fp(a, p)
    rhs = np.atleast_1d(np.array(b, dtype=np.int64) % p)
    red, pivots = _rref_in_place(np.hstack([m, rhs.reshape(-1, 1)]), p)
    ncols = m.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, ncols]
    return x


def row_space_intersection(a, b, p: int) -> np.ndarray:
    """Canonical basis of rowspace(a) & rowspace(b).

    Left-kernel route: every (u, v) with u @ a == v @ b yields the
    intersection vector u @ a, and all of them arise this way.
    """
    ba, bb = row_basis(a, p), row_basis(b, p)
    if ba.shape[0] == 0 or bb.shape[0] == 0:
        return np.zeros((0, as_fp(a, p).shape[1]), dtype=np.int64)
    stacked = np.vstack([ba, (-bb) % p])
    left = kernel(stacked.T, p)  # rows (u | v) with u @ ba - v @ bb = 0
    cand = matmul_mod(left[:, : ba.shape[0]], ba, p)
    return row_basis(cand, p)


def coordinate_restriction(a, coords, p: int) -> np.ndarray:
    """Canonical basis of the vectors in rowspace(a) supported only on
    the given coordinate set.

    Eliminating the complement columns first leaves exactly the rows
    that vanish there, which span the restriction: the nonzero rows
    whose pivot is not a complement column.  The column-permuted copy
    is the only copy of a that is eliminated.
    """
    _check_modulus(p)
    a = np.atleast_2d(np.asarray(a, dtype=np.int64))
    ncols = a.shape[1]
    outside = np.ones(ncols, dtype=bool)
    outside[[int(c) for c in coords]] = False
    n_out = int(outside.sum())
    perm = np.concatenate([np.flatnonzero(outside), np.flatnonzero(~outside)])
    m = np.take(a, perm, axis=1)
    m %= p
    red, pivots = _rref_in_place(m, p)
    first = int(np.searchsorted(pivots, n_out))
    out = np.zeros((len(pivots) - first, ncols), dtype=np.int64)
    out[:, perm] = red[first:len(pivots)]
    del m, red  # the reduced copy can go before the kept rows are reduced
    out, pivots = _rref_in_place(out, p)
    return out[: len(pivots)]
