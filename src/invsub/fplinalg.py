"""Exact linear algebra over prime fields on numpy integer arrays.

All matrices are 2-d int64 arrays with entries reduced into [0, p).
Everything here is deterministic, and the reduced row echelon form of a
matrix is unique, so reduced forms are canonical and safe to compare
across runs.

One kernel, `_rref_in_place`, eliminates for `rref`, `row_basis`,
`kernel`, `solve` and `coordinate_restriction`.  Its Python-level steps
follow the pivots and the fill-in, not the column count.  Each row's
leading column is found in one pass.  Then, in rounds, the first row to
reach a leading column no pivot owns yet becomes that column's pivot,
and every other row subtracts the pivot that owns its leading column,
all in one vectorized update.  Each row keeps a bound on its last
nonzero column, and every row operation stops there, so a banded matrix
costs its band.  At full column rank the reduced form is written as the
identity; otherwise back substitution visits only the pivot columns with
a nonzero above their pivot.  Row-gathered temporaries are built a block
of rows at a time, so no step copies a large matrix whole.

Elimination multiplies two reduced entries in int64, which is exact
while (p - 1)^2 < 2^63, so `as_fp` (and with it every elimination)
refuses p >= 2^31.  Each update adds nonnegative terms whose sum stays
below p^2, so `np.fmod` gives the remainder exactly, and in about half
the time of `np.mod`.  Matrix products go through `matmul_mod`, which
uses float BLAS only while every accumulated sum, at most k*(p - 1)^2
for inner dimension k, is an integer the float type holds exactly
(below 2^24 for float32, 2^53 for float64), and exact Python-integer
arithmetic otherwise.  Results are exact either way.
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
    if not _is_reduced(arr, p):
        arr %= p
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


def _is_reduced(a: np.ndarray, p: int) -> bool:
    """Are all entries in [0, p)?  Two scans cost far less than one
    int64 division."""
    return not a.size or (a.min() >= 0 and a.max() < p)


def _reduced(a, p: int) -> np.ndarray:
    """a as int64 with entries in [0, p), copied only when needed."""
    a = np.asarray(a, dtype=np.int64)
    return a if _is_reduced(a, p) else a % p


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as int64, with a and b read mod p."""
    _check_modulus(p)
    a, b = _reduced(a, p), _reduced(b, p)
    bound = a.shape[-1] * (p - 1) ** 2
    for dtype, exact in _EXACT_FLOATS:
        if bound < exact:
            # Every partial sum is an integer below `exact`, so BLAS
            # computes it without rounding in any summation order.
            # fmod is exact here and, on nonnegative operands, equal to
            # the remainder; np.mod takes about ten times as long.
            prod = a.astype(dtype) @ b.astype(dtype)
            return np.fmod(prod, p, out=prod).astype(np.int64)
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    return _rref_in_place(as_fp(a, p), p)


def _rref_in_place(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """`rref` of m, overwriting m: a 2-d C-ordered int64 array with
    entries in [0, p) that the caller no longer needs.

    The forward pass runs in rounds.  A row is a pivot once it owns its
    leading column: the first row to reach an unowned leading column
    takes it and is scaled to a leading 1.  Every other nonzero row then
    subtracts the pivot that owns its leading column, all in one
    vectorized step, which moves its leading column right or zeroes it.
    Only those rows have their leading column found again.

    Each row also keeps a trailing bound: a column at or after its last
    nonzero.  Subtracting a pivot changes no column after the pivot's
    bound, so the row's new bound is the larger of the two, and every
    scaling and update touches only the columns from the leading column
    to that bound.  On a banded matrix, or one whose data sits in a few
    columns, a step costs the band's width, not the matrix's.

    When every column holds a pivot the reduced form is the identity on
    top of zero rows, written in place.  Otherwise the pivots move to the
    top in column order, and back substitution, last pivot first, clears
    only the pivot columns with a nonzero above the pivot, each up to the
    pivot row's trailing bound.  The reduced form is unique, so the order
    of the row operations does not show in the result.
    """
    ncols = m.shape[1]
    lead, trail = _row_extents(m)
    owner = np.full(ncols, -1, dtype=np.intp)  # pivot row of each column
    rows = np.flatnonzero(lead >= 0)  # nonzero rows that are not pivots
    cols = lead[rows]
    while rows.size:
        fresh = owner[cols] < 0
        if fresh.any():
            _take_pivots(m, rows[fresh], cols[fresh], owner, trail, p)
            reduce = owner[cols] != rows
            rows, cols = rows[reduce], cols[reduce]
        for part in _row_blocks(rows.size, ncols):
            sub, at = rows[part], cols[part]
            pivot = owner[at]
            bound = np.maximum(trail[sub], trail[pivot])
            trail[sub] = bound
            lo, hi = int(at.min()), int(bound.max()) + 1
            # Both terms are nonnegative and the sum is below p^2, so
            # fmod is the exact remainder.
            block = m[sub, lo:hi]
            step = m[pivot, lo:hi]
            step *= (p - m[sub, at])[:, None]
            block += step
            del step  # freed before the leading columns are searched
            np.fmod(block, p, out=block)
            m[sub, lo:hi] = block
            # The block holds each row's nonzeros from lo on, so its
            # leading column is found there (hi > lo: a bound is at or
            # after the leading column).
            nonzero = block != 0
            lead[sub] = np.where(nonzero.any(axis=1),
                                 nonzero.argmax(axis=1) + lo, -1)
        cols = lead[rows]
        keep = cols >= 0
        rows, cols = rows[keep], cols[keep]
    pivots = np.flatnonzero(owner >= 0)
    if pivots.size == ncols:
        m[:] = 0
        np.fill_diagonal(m, 1)
    else:
        source = owner[pivots]
        _move_rows(m, source.tolist())
        _back_substitute(m, pivots, trail[source], p)
    return m, pivots.tolist()


# Row-gathered temporaries hold at most this many entries, so that no
# step of the elimination copies a large matrix whole.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(nrows: int, width: int):
    """Slices covering range(nrows) in blocks of at most _BLOCK_ENTRIES
    entries of the given row width."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(start, start + step) for start in range(0, nrows, step)]


def _row_extents(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of each row's first and last nonzero, -1 for a zero row."""
    lead = np.full(m.shape[0], -1, dtype=np.intp)
    trail = lead.copy()
    if m.shape[1]:
        for part in _row_blocks(m.shape[0], m.shape[1]):
            nonzero = m[part] != 0
            first = nonzero.argmax(axis=1)
            hit = nonzero[np.arange(first.size), first]
            lead[part][hit] = first[hit]
            last = nonzero[hit, ::-1].argmax(axis=1)
            trail[part][hit] = m.shape[1] - 1 - last
    return lead, trail


def _take_pivots(m, rows, cols, owner, trail, p: int) -> None:
    """Make the first row of each distinct leading column in cols the
    pivot that owns it, scaled to a leading 1 up to its trailing bound.
    rows ascend."""
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    first = np.ones(cols.size, dtype=bool)
    first[1:] = cols[1:] != cols[:-1]
    rows, cols = rows[order[first]], cols[first]
    owner[cols] = rows
    values = m[rows, cols]
    scale = values != 1
    rows, cols = rows[scale], cols[scale]
    inverses = np.array([pow(v, -1, p) for v in values[scale].tolist()],
                        dtype=np.int64)
    for part in _row_blocks(rows.size, m.shape[1]):
        sub = rows[part]
        lo, hi = int(cols[part].min()), int(trail[sub].max()) + 1
        block = m[sub, lo:hi]
        block *= inverses[part, None]
        m[sub, lo:hi] = np.fmod(block, p, out=block)


def _move_rows(m: np.ndarray, source: list[int]) -> None:
    """Put row source[i] of m at row i and zero the rows below
    len(source).  Rows are copied one at a time along the paths and
    cycles of the permutation, so m is never copied whole."""
    into = {i: s for i, s in enumerate(source) if i != s}  # row i gets row s
    taken = set(into.values())
    for start in [i for i in into if i not in taken]:
        i = start
        while i in into:
            s = into.pop(i)
            m[i] = m[s]
            i = s
    while into:  # what remains are cycles
        first, s = into.popitem()
        spare = m[first].copy()
        i = first
        while s != first:
            m[i] = m[s]
            i, s = s, into.pop(s)
        m[i] = spare
    m[len(source):] = 0


def _back_substitute(m: np.ndarray, pivots: np.ndarray, trail: np.ndarray,
                     p: int) -> None:
    """Clear each pivot column above its pivot, last pivot first.  Row i
    is zero after column trail[i]; trail is updated as rows change.

    Row i's operations change only columns at or right of pivots[i], so
    the nonzero counts of the columns left of it, taken once before the
    loop, still say which of them need clearing when their turn comes.
    Adding a multiple of row i changes no column after trail[i].
    """
    k = pivots.size
    counts = np.zeros(m.shape[1], dtype=np.intp)
    for part in _row_blocks(k, m.shape[1]):
        counts += (m[:k][part] != 0).sum(axis=0)
    cols = pivots.tolist()
    for i in np.flatnonzero(counts[pivots] > 1)[::-1].tolist():
        c, hi = cols[i], int(trail[i]) + 1
        hit = np.flatnonzero(m[:i, c])
        block = m[hit, c:hi]
        block += (p - block[:, :1]) * m[i, c:hi]
        np.fmod(block, p, out=block)
        m[hit, c:hi] = block
        trail[hit] = np.maximum(trail[hit], hi - 1)


def rank(a, p: int) -> int:
    return len(rref(a, p)[1])


def row_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the row space (nonzero RREF rows)."""
    m, pivots = rref(a, p)
    return m[: len(pivots)]


def row_space_equal(a, b, p: int) -> bool:
    ba, bb = row_basis(a, p), row_basis(b, p)
    return ba.shape == bb.shape and bool(np.array_equal(ba, bb))


def kernel(a, p: int) -> np.ndarray:
    """Basis, as rows, of the right null space {x : a @ x = 0}.

    One row per free column c: 1 at c and minus column c of the reduced
    form at the pivot columns.
    """
    m, pivots = rref(a, p)
    ncols = m.shape[1]
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
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
    if not _is_reduced(m, p):
        m %= p
    red, pivots = _rref_in_place(m, p)
    first = int(np.searchsorted(pivots, n_out))
    out = np.zeros((len(pivots) - first, ncols), dtype=np.int64)
    out[:, perm] = red[first:len(pivots)]
    del m, red  # the reduced copy can go before the kept rows are reduced
    out, pivots = _rref_in_place(out, p)
    return out[: len(pivots)]
