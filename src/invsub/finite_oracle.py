"""Finite-lattice instantiation and exact checks of symbol-level claims.

Symbol-level statements (invertibility, commutants, boundary algebras,
blending) all have finite counterparts on a torus or open patch: symbols
become integer vectors over F_p, subalgebras become row spaces, QCA
become symplectic matrices, and every claim turns into exact linear
algebra.  This module is the independent referee for the rest of the
package: it never touches Laurent-ring reasoning beyond reading off
coefficients.

Coordinate layout, known only to `FiniteLattice`: site index is
row-major over the lattice sizes (`grid` lists the sites in that order);
the X exponent of qudit slot k at site s lives at coordinate s*q + k,
and the Z exponent at q*N + s*q + k, giving symplectic vectors of
length 2qN.  `coords_of` and `site_of` convert between sites and
coordinates, `place` lays every column of a symbol matrix at any array
of base sites in one pass (`_scatter` makes dense rows of its terms),
`shifted_coords` moves coordinates by shifts, and `distance` is the
sup-norm between sites.  The layer of every coordinate along an axis is
`grid[site_of(np.arange(n)), axis]`.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from ._frozen import Frozen, Keyed
from ._lazy_numpy import LazyNumpy
from .fplinalg import (
    coordinate_restriction,
    kernel,
    matmul_mod,
    rank,
    row_basis,
)
from .groebner import unpack
from .laurent import LaurentMatrix, _is_prime
from .pauli import SubalgebraSpec
from .qca import CliffordQCA

np = LazyNumpy(globals())


class InstantiationError(ValueError):
    """A generator or operator cannot be placed on the given lattice."""


# The most symplectic coordinates (n = 2qN) a lattice may have; dense
# elimination costs n^2 memory and n^3 time.  example-z3 (q=2), end to
# end on a 2-core Xeon VM: `boundary` 9^3 (n=2916) 0.33 s, 48 MiB and
# 10^3 (n=4000) 0.36 s, 60 MiB; `oracle` 31x31 (n=3844) 1.1 s, 275 MiB,
# and over the bound 40x40 (n=6400) 4.2 s, 682 MiB and 45x45 (n=8100)
# 6.4 s, 1.0 GiB.
MAX_SYMPLECTIC_LEN = 4096


class LatticeSizeError(ValueError):
    """The lattice's register is longer than MAX_SYMPLECTIC_LEN."""


class FiniteLattice(Keyed):
    """A finite qudit array: q qudits on each site of a torus (periodic)
    or an open box (translates crossing the boundary are dropped).
    Immutable; equal lattices hash alike."""

    def __init__(self, p: int, q: int, sizes: tuple[int, ...],
                 periodic: bool = True):
        sizes = tuple(sizes)
        if any(s < 1 for s in sizes) or not sizes:
            raise ValueError("lattice sizes must be positive")
        if not _is_prime(p):
            raise ValueError(f"qudit dimension {p} is not prime")
        if q < 1:
            raise ValueError(f"need at least one qudit per site, not {q}")
        self._set(p=p, q=q, sizes=sizes, periodic=periodic)
        if self.symplectic_len > MAX_SYMPLECTIC_LEN:
            raise LatticeSizeError(f"{self.symplectic_len} symplectic coordinates, "
                                   f"over the supported bound {MAX_SYMPLECTIC_LEN}")

    def _key(self) -> tuple:
        return self.p, self.q, self.sizes, self.periodic

    @property
    def dims(self) -> int:
        return len(self.sizes)

    @property
    def n_sites(self) -> int:
        n = 1
        for s in self.sizes:
            n *= s
        return n

    @property
    def n_qudits(self) -> int:
        return self.q * self.n_sites

    @property
    def symplectic_len(self) -> int:
        return 2 * self.n_qudits

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """The coordinates of every site, one row per site in site order
        (row-major over the sizes); read-only."""
        out = np.indices(self.sizes).reshape(self.dims, -1).T
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _size_array(self) -> np.ndarray:
        return np.array(self.sizes)

    @functools.cached_property
    def _unit_moves(self) -> np.ndarray:
        """Row a: where each symplectic coordinate goes when an operator
        moves one step up axis a, wrapping round; read-only."""
        out = self.shifted_coords(np.arange(self.symplectic_len),
                                  np.eye(self.dims, dtype=np.int64))
        out.flags.writeable = False
        return out

    def _index(self, sites: np.ndarray) -> np.ndarray:
        """The row-major index of each site of an integer array whose last
        axis holds the coordinates, wrapped round every axis."""
        # Transposed, the coordinates come first; the index is transposed
        # back to the sites' shape.
        wrapped = (sites % self._size_array).T
        return np.ravel_multi_index(tuple(wrapped), self.sizes).T

    def sites(self):
        return itertools.product(*(range(s) for s in self.sizes))

    def _check_site(self, site) -> None:
        if len(site) != self.dims:
            raise ValueError(f"sites must have {self.dims} coordinates")

    def site_index(self, site) -> int:
        self._check_site(site)
        return int(self._index(np.asarray(site, dtype=np.int64)))

    def resolve(self, site) -> tuple[int, ...] | None:
        """Wrap a site into the lattice, or None if it falls off an
        open patch."""
        self._check_site(site)
        out = []
        for c, size in zip(site, self.sizes):
            if self.periodic:
                out.append(c % size)
            elif 0 <= c < size:
                out.append(c)
            else:
                return None
        return tuple(out)

    def coords_of(self, site_indices) -> np.ndarray:
        """The symplectic coordinates of sites given by index: entry
        [r, ...] is the coordinate of row r of a symbol column (X slots
        0..q-1, then Z slots) at each site."""
        sites = np.asarray(site_indices, dtype=np.int64)
        rows = np.arange(2 * self.q)
        offset = rows % self.q + np.where(rows < self.q, 0, self.n_qudits)
        return offset.reshape((-1,) + (1,) * sites.ndim) + self.q * sites

    def site_of(self, coords) -> np.ndarray:
        """The index of the site holding each symplectic coordinate."""
        return np.asarray(coords) % self.n_qudits // self.q

    def site_coords(self, site) -> list[int]:
        return self.coords_of(self.site_index(site)).tolist()

    def shifted_coords(self, coords, shifts) -> np.ndarray:
        """Where each symplectic coordinate of `coords` goes when an
        operator moves by each row of shifts (a k x dims array), wrapping
        round every axis: entry [i, j] moves coords[j] by shifts[i]."""
        coords = np.asarray(coords, dtype=np.int64)
        shifts = np.asarray(shifts, dtype=np.int64)
        if shifts.ndim != 2 or shifts.shape[1] != self.dims:
            raise ValueError(f"sites must have {self.dims} coordinates")
        sites = self.site_of(coords)
        index = self._index(self.grid[sites] + shifts[:, None, :])
        return coords + self.q * (index - sites)

    def distance(self, a, b) -> np.ndarray:
        """The sup-norm distance between sites (integer arrays broadcast
        together, last axis the coordinates), the shorter way round each
        axis of a torus."""
        a, b = np.asarray(a), np.asarray(b)
        if a.shape[-1:] != (self.dims,) or b.shape[-1:] != (self.dims,):
            raise ValueError(f"sites must have {self.dims} coordinates")
        d = np.abs(a - b)
        if self.periodic:
            d %= self._size_array
            d = np.minimum(d, self._size_array - d)
        return d.max(axis=-1)

    def place(self, symbols: LaurentMatrix, at=None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every column of a 2q x k symbol matrix placed at each base site
        of `at` (a b x dims array of sites, any integers; default every
        site in site order).  The terms are listed column by column: term
        t of column column[t] has coefficient coeffs[t] and, placed at
        base s, symplectic coordinate coords[t, s].  Terms that wrap onto
        one coordinate stay separate, so a scatter must add them.  Also
        fits[j, s], whether no term of column j placed at base s falls
        off an open patch (every placement on a torus); the others' terms
        are wrapped round the patch and carry no meaning."""
        if symbols.rows != 2 * self.q:
            raise InstantiationError(f"expected {2 * self.q} symbol rows")
        if symbols.p != self.p or symbols.nvars != self.dims:
            raise InstantiationError("symbol ring does not match the lattice")
        bases = self.grid if at is None else np.asarray(at, dtype=np.int64)
        if bases.ndim != 2 or bases.shape[1] != self.dims:
            raise ValueError(f"sites must have {self.dims} coordinates")
        # One row per term, column by column: its column, its row of the
        # symbol, its coefficient and its exponents, read off its key.
        dims = self.dims
        table = np.array([(j, r, c, *unpack(k, dims)) for j in range(symbols.cols)
                          for r, entry in enumerate(symbols.column(j))
                          for k, c in entry.packed.items()],
                         dtype=np.int64).reshape(-1, 3 + dims)
        column, row, coeffs = table[:, :3].T
        # Term t placed at base s targets the site target[t, s].
        target = bases + table[:, None, 3:]
        fits = np.ones((symbols.cols, len(bases)), dtype=bool)
        if not self.periodic:
            np.logical_and.at(fits, column, np.all(
                (target >= 0) & (target < self._size_array), axis=2))
        at_site = self.coords_of(np.arange(self.n_sites))
        return at_site[row[:, None], self._index(target)], coeffs, column, fits


def pairing_matrix(rows1, rows2, p: int) -> np.ndarray:
    """Symplectic pairings u_X.w_Z - u_Z.w_X for all row pairs."""
    r1 = np.atleast_2d(np.asarray(rows1, dtype=np.int64))
    r2 = np.atleast_2d(np.asarray(rows2, dtype=np.int64))
    m = r1.shape[1] // 2
    return (matmul_mod(r1[:, :m], r2[:, m:].T, p)
            - matmul_mod(r1[:, m:], r2[:, :m].T, p)) % p


def placements(
    lattice: FiniteLattice, symbols: LaurentMatrix, at=None
) -> tuple[np.ndarray, np.ndarray]:
    """Every column of the symbol matrix placed at each base of `at`
    (default every site), as one row per (base, column) pair with the
    columns innermost: row s k + j is column j at base s, for k columns.
    Also, for each row, whether its placement fits (the mask of
    `FiniteLattice.place`)."""
    coords, coeffs, column, fits = lattice.place(symbols, at)
    k, n_bases = fits.shape
    out = np.zeros((k * n_bases, lattice.symplectic_len), dtype=np.int64)
    _scatter(out, np.arange(n_bases) * k + column[:, None], coords,
             coeffs[:, None], lattice.p)
    return out, fits.T.ravel()


def _scatter(out: np.ndarray, rows, coords, coeffs, p: int) -> None:
    """Add each coefficient at (row, coordinate) of the zero array `out`,
    the three arrays broadcast together, and reduce mod p only the
    entries written: the one dense scatter of placed terms."""
    at = (rows, coords)
    np.add.at(out, at, coeffs)
    out[at] %= p


def instantiate_column(
    lattice: FiniteLattice, column: LaurentMatrix, base_site
) -> np.ndarray | None:
    """Place one symbol column at a base site; None if any term of any
    entry falls off an open patch."""
    _check_column(lattice, column)
    rows, fits = placements(lattice, column, [base_site])
    return rows[0] if fits[0] else None


def _check_column(lattice: FiniteLattice, column: LaurentMatrix) -> None:
    if column.shape != (2 * lattice.q, 1):
        raise InstantiationError(f"expected a {2 * lattice.q} x 1 symbol column")


def instantiate_spec(spec: SubalgebraSpec, lattice: FiniteLattice) -> np.ndarray:
    """All surviving generator translates as symplectic rows, generator
    by generator, then in site order.

    On a torus every translate survives; on an open patch a translate is
    dropped whenever the operator would stick out.  A generator losing
    all of its translates is an error.
    """
    if (spec.p, spec.q, spec.dims) != (lattice.p, lattice.q, lattice.dims):
        raise InstantiationError("spec and lattice parameters disagree")
    coords, coeffs, column, fits = lattice.place(spec.generators)
    lost = np.flatnonzero(~fits.any(axis=1))
    if lost.size:
        raise InstantiationError(f"no translate of generator {lost[0]} "
                                 "fits on the patch")
    # The output row of each surviving (generator, site) pair, and the
    # terms of the surviving placements.
    row = np.cumsum(fits).reshape(fits.shape) - 1
    t, s = np.nonzero(fits[column])
    out = np.zeros((int(fits.sum()), lattice.symplectic_len), dtype=np.int64)
    _scatter(out, row[column[t], s], coords[t, s], coeffs[t], lattice.p)
    return out


def spec_span_on_sheet(spec: SubalgebraSpec, lattice: FiniteLattice,
                       sheet: int) -> np.ndarray:
    """The canonical basis of the part of the promoted spec's span on
    `lattice` (one axis more than the spec, appended last) supported on
    one sheet of that last axis.

    Promoted generators have a zero exponent on the new axis, so that
    span is the direct sum over sheets of the spec's span on each
    sheet: the answer is the spec instantiated on the sheet's own
    lattice, with the sheet's coordinates embedded in the larger
    register.  The sheet's coordinates, in ascending order, are the
    sheet lattice's in its own order, so the sheet's canonical basis
    embeds to the canonical basis."""
    if lattice.dims != spec.dims + 1:
        raise InstantiationError("the lattice needs exactly one more axis")
    flat = FiniteLattice(lattice.p, lattice.q, lattice.sizes[:-1],
                         lattice.periodic)
    basis = row_basis(instantiate_spec(spec, flat), lattice.p)
    n = lattice.symplectic_len
    layer = lattice.grid[lattice.site_of(np.arange(n)), -1]
    out = np.zeros((basis.shape[0], n), dtype=np.int64)
    out[:, layer == sheet % lattice.sizes[-1]] = basis
    return out


def symplectic_complement(rows, lattice: FiniteLattice) -> np.ndarray:
    """Basis of everything pairing to zero with the given rows — the
    finite commutant of their span."""
    r = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if r.shape[0] == 0 or not r.any():
        return row_basis(np.eye(lattice.symplectic_len, dtype=np.int64), lattice.p)
    m = lattice.n_qudits
    sj = np.hstack([(-r[:, m:]) % lattice.p, r[:, :m]])
    return kernel(sj, lattice.p)


class FiniteInvertibilityReport(NamedTuple):
    invertible: bool
    dim_span: int
    dim_commutant: int
    dim_center: int
    small_lattice_warning: bool


def _orthogonal_part(span: np.ndarray, others, p: int) -> np.ndarray:
    """Canonical basis of the elements sum_i c_i span_i (span's rows
    independent) pairing to zero with every row of `others`: the c are
    the kernel of the others-by-span pairing matrix."""
    coeffs = kernel(pairing_matrix(others, span, p), p)
    return row_basis(matmul_mod(coeffs, span, p), p)


def _invertibility_and_center(
    span: np.ndarray, lattice: FiniteLattice, spread: int | None = None
) -> tuple[FiniteInvertibilityReport, np.ndarray]:
    """check_invertible_finite's report for a canonical basis of the
    span (`row_basis` of the rows), with a basis of the span's center:
    its part pairing to zero with all of the span.  The form is
    nondegenerate, so the commutant has dimension 2N - dim span."""
    center = _orthogonal_part(span, span, lattice.p)
    warn = spread is not None and any(s <= 4 * spread for s in lattice.sizes)
    report = FiniteInvertibilityReport(
        invertible=center.shape[0] == 0,
        dim_span=int(span.shape[0]),
        dim_commutant=lattice.symplectic_len - int(span.shape[0]),
        dim_center=int(center.shape[0]),
        small_lattice_warning=bool(warn),
    )
    return report, center


def check_invertible_finite(
    rows, lattice: FiniteLattice, spread: int | None = None
) -> FiniteInvertibilityReport:
    """Invertible iff the span meets its commutant only in zero:
    dim_center = dim span - rank of the span's own pairing matrix."""
    return _invertibility_and_center(row_basis(rows, lattice.p), lattice,
                                     spread)[0]


class VsReport(NamedTuple):
    holds: bool
    failure_site: tuple[int, ...] | None
    failure_element: np.ndarray | None


def _translation_invariant(span: np.ndarray, lattice: FiniteLattice) -> bool:
    """Is the span mapped onto itself by a unit shift along every axis
    (and so by every translation of the torus)?"""
    for move in lattice._unit_moves:
        # Coordinate c of the moved span reads the one c moves to: the
        # span shifted one step down, which is the span exactly when the
        # step up is.
        if not np.array_equal(row_basis(span[:, move], lattice.p), span):
            return False
    return True


def check_vs(rows, lattice: FiniteLattice, reach: int) -> VsReport:
    """Does every element of the span have, at every site of its
    support, a nearby non-commuting witness inside the span?

    Checked as a subspace statement so that sums of generators are
    covered, not just basis vectors: the elements with no witness at s
    are V_s, the part of the span pairing to zero with W_s (its part in
    the window around s); it fails iff some V_s has support at s.

    On a torus whose span is verified translation-invariant, the
    translation by t carries V_s onto V_{s+t}, so some site fails iff
    the origin does, and the origin comes first in site order: only
    the origin is checked.
    """
    return _vs_of_span(row_basis(rows, lattice.p), lattice, reach)


def _vs_of_span(span: np.ndarray, lattice: FiniteLattice, reach: int) -> VsReport:
    """check_vs for a canonical basis of the span (`row_basis` of the
    rows).

    W_s is built from the span rows whose pivot lies in the window.  The
    span is in reduced row echelon form, so an element's weight on row i
    is its entry at row i's pivot: an element supported in the window
    has zero weight on every row whose pivot lies outside it.

    With P the pairing matrix of W_s against the span, the elements of
    V_s are c . span for c in the kernel of P, and their entries at s
    are S c, for S the span's columns at s transposed.  Some element of
    V_s has support at s exactly when ker P is not inside ker S, that is
    when rank [P; S] > rank P.  V_s itself is built only at the site
    that fails, to report its first element touching s.
    """
    if reach < 0:
        raise ValueError(f"reach {reach} is negative")
    p, n = lattice.p, lattice.symplectic_len
    pivots = (span != 0).argmax(axis=1)  # each canonical row's leading 1
    n_sites = lattice.n_sites
    if lattice.periodic and _translation_invariant(span, lattice):
        n_sites = 1
    for i in range(n_sites):
        s = lattice.grid[i]
        # The window's columns, X half then Z half.
        inside = np.zeros(n, dtype=bool)
        inside[lattice.coords_of(np.flatnonzero(
            lattice.distance(lattice.grid, s) <= reach))] = True
        cols = np.flatnonzero(inside)
        w_s = coordinate_restriction(span[inside[pivots]], cols, p)
        # W_s lives on the window, so P and S read only its columns, and
        # only the span rows that touch the window give them nonzero
        # columns.
        near = span[:, cols]
        near = near[near.any(axis=1)]
        pairing = pairing_matrix(w_s[:, cols], near, p)
        here = lattice.coords_of(i)
        at_s = near[:, np.searchsorted(cols, here)].T
        if rank(np.vstack([pairing, at_s]), p) > rank(pairing, p):
            blind = _orthogonal_part(span, w_s, p)
            hits = np.flatnonzero(blind[:, here].any(axis=1))
            return VsReport(False, tuple(s.tolist()), blind[hits[0]].copy())
    return VsReport(True, None, None)


# Entries handled at a time when a pass over a map's nonzeros makes
# temporaries: products in the form check, moved keys in the translation
# test, sites in the spread.
_CHUNK = 1 << 13


def _sum_by_key(keys: np.ndarray, values: np.ndarray, p: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order with the sums mod p of their
    values (in [0, p)), less the keys whose sum is 0.  Keys and values
    are sorted together as keys * p + values, which must stay below
    2^63; the int64 sums are exact for p < 2^31.  `keys`, an int64
    array, is overwritten: the sort runs in it, so that no copy of the
    entries is made when no key repeats."""
    code = keys
    code *= p
    code += values
    code.sort()
    values = code % p
    code //= p
    first = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=first[1:])
    if not first.all():
        first = np.flatnonzero(first)
        values = np.add.reduceat(values, first) % p
        code = code[first]
    kept = values != 0
    if not kept.all():
        code, values = code[kept], values[kept]
    return code, values


def _gram_blocks(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                 n: int, k: int, p: int, only: np.ndarray | None = None):
    """The nonzero entries of M^T J M mod p, a run of rows a <= i < b at
    a time from row 0 to row k, as (a, b, keys, sums) with keys i k + j
    ascending; M is the n x k matrix with the given entries (`rows`
    sorted, coordinates may repeat, values in [0, p), k^2 p <= 2^63) and
    J = [[0, I], [-I, 0]].  Given `only`, distinct column indices, just
    the rows i in `only` are made and every other row reads as zero.

    Entry (i, j) is sum_r s(r) M[r, i] M[sw(r), j], where sw swaps the
    X and Z halves and s is +1 on the X half and -1 on the Z half: the
    symplectic pairing of columns i and j, made by pairing each nonzero
    of column i with the nonzeros of its partner row.  The entries are
    taken column by column, about _CHUNK products at a time, each
    reduced mod p (below 2^62 for p < 2^31) before it is summed.  With
    `only` the products are those of the nonzeros in its columns alone.
    """
    if k * k * p > 1 << 63:
        raise ValueError(f"{k} columns mod {p} overflow the Gram keys")
    half = n // 2
    partner = (np.arange(n) + half) % n
    # Row r's nonzeros are entries bounds[r] to bounds[r + 1]; those of
    # its partner row start at start[r] and number count[r].
    bounds = np.searchsorted(rows, np.arange(n + 1))
    start, count = bounds[partner], np.diff(bounds)[partner]
    # The entries column by column, and the products made up to each.
    if only is None:
        order = np.argsort(cols)
    else:
        wanted = np.zeros(k, dtype=bool)
        wanted[only] = True
        order = np.flatnonzero(wanted[cols])
        order = order[np.argsort(cols[order])]
    ends = np.cumsum(count[rows[order]])
    cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1] if ends.size else 0,
                                           _CHUNK), side="right")
    keys = sums = np.zeros(0, dtype=np.int64)
    a = 0
    for lo, hi in zip([0, *cuts], [*cuts, order.size]):
        # Entry e[t] pairs with the w[t] entries of row sw(r[t]), whose
        # entry (sw(r[t]), j) adds to (cols[e[t]], j) of M^T J M.
        e = order[lo:hi]
        r = rows[e]
        w = count[r]
        right = np.repeat(start[r] - (np.cumsum(w) - w), w) + np.arange(w.sum())
        coef = np.where(r < half, values[e], p - values[e])
        keys, sums = _sum_by_key(
            np.concatenate([keys, np.repeat(cols[e] * k, w) + cols[right]]),
            np.concatenate([sums, np.repeat(coef, w) * values[right] % p]), p)
        # The columns before the next entry's are complete.
        b = cols[order[hi]] if hi < order.size else k
        if b > a:
            done = np.searchsorted(keys, b * k)
            yield a, b, keys[:done], sums[:done]
            keys, sums, a = keys[done:], sums[done:], b


def _preserves_form(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                    n: int, p: int, only: np.ndarray | None = None) -> bool:
    """Is M^T J M = J mod p, for the n x n matrix M with the given
    nonzeros (row-major, distinct, values in [1, p))?  Given `only`,
    ascending row indices, are those rows of M^T J M the rows of J?
    Each run of `_gram_blocks` must be J's rows: 1 at i + n/2 on the X
    half, -1 at i - n/2 on the Z half."""
    half = n // 2
    for a, b, keys, sums in _gram_blocks(rows, cols, values, n, n, p, only):
        i = np.arange(a, b) if only is None else only[(only >= a) & (only < b)]
        if not (np.array_equal(keys, i * n + (i + half) % n)
                and np.array_equal(sums, np.where(i < half, 1, p - 1))):
            return False
    return True


def _commutes_with_translations(keys: np.ndarray, values: np.ndarray,
                                lattice: FiniteLattice) -> bool:
    """Does the n x n matrix with nonzeros `values` at the ascending keys
    row * n + col commute with the unit move along every axis of the
    torus: does each nonzero, its row and its column moved alike, land
    on a nonzero of the same value?  A move permutes the keys, so then
    it maps the nonzeros onto themselves."""
    n, last = lattice.symplectic_len, keys.size - 1
    for move in lattice._unit_moves:
        for lo in range(0, keys.size, _CHUNK):
            here = keys[lo:lo + _CHUNK]
            moved = move[here // n] * n + move[here % n]
            at = np.minimum(np.searchsorted(keys, moved), last)
            if not (np.array_equal(keys[at], moved)
                    and np.array_equal(values[at], values[lo:lo + _CHUNK])):
                return False
    return True


class FiniteSymplecticMap(Frozen):
    """An exact symplectic automorphism of the finite symbol space.

    The matrix M (n x n, read mod p) is kept as its nonzeros: `rows`,
    `cols` and `values` in [1, p), in row-major order, read-only.
    `matrix` makes the dense M on each read.  `from_entries` is the one
    constructor: it takes nonzeros and sums repeated coordinates.

    M is accepted exactly when M^T J M = J, with J = [[0, I], [-I, 0]]
    (`_preserves_form`).  M^T J M comes from `_gram_blocks`, the one
    kernel that also makes a Hamiltonian's commutation check: each entry
    is summed from products of a nonzero of M with the nonzeros of its
    partner row in the other half, a bounded number at a time.

    On a torus, M is first tested exactly for commuting with the unit
    move along every axis (`_commutes_with_translations`, a lookup of
    every moved nonzero among the nonzeros).  If it does, so does
    M^T J M, which is then J exactly when its 2q rows at the origin's
    coordinates are J's rows: only the nonzeros in those columns of M
    are paired.  For a lifted automaton a column's nonzeros come from
    the terms of its symbol (14 for example-z3, at most 16 for spread-2
    and spread-3 remark specs), so the check makes about 2q x 200
    products on every torus, and its other work is the lookups, which
    grow like n log n.  Any other M (on an open patch, or not commuting
    with translation) has all n rows checked, sum_r nnz(r) nnz(sw r)
    products: about 200 n for a lift's nonzeros, and n^3 for a dense M
    (2.1 s at n = 512 and 19 s at n = 1024 on a 2-core Xeon VM), whose
    memory stays under that of the dense product M^T (J M).
    """

    __slots__ = ("lattice", "rows", "cols", "values", "spread")

    @classmethod
    def from_entries(cls, lattice: FiniteLattice, rows, cols, values,
                     spread: int = -1) -> FiniteSymplecticMap:
        """The map whose matrix has, at each (rows[k], cols[k]), the sum
        of the values given there."""
        n, p = lattice.symplectic_len, lattice.p
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"entry outside the {n} x {n} matrix")
        keys = rows * n
        keys += cols
        keys, sums = _sum_by_key(keys, np.asarray(values, dtype=np.int64) % p,
                                 p)
        out = cls.__new__(cls)
        out._validate(lattice, keys, sums, spread)
        return out

    def _validate(self, lattice, keys, values, spread) -> None:
        """Take the nonzeros `values` at the ascending keys row * n + col
        (the keys array becomes `rows`) and check the form."""
        n = lattice.symplectic_len
        origin = None
        if lattice.periodic and _commutes_with_translations(keys, values,
                                                            lattice):
            origin = lattice.coords_of(0)
        cols = keys % n
        rows = keys
        rows //= n
        for array in (rows, cols, values):
            array.flags.writeable = False
        self._set(lattice=lattice, rows=rows, cols=cols, values=values)
        if not _preserves_form(rows, cols, values, n, lattice.p, origin):
            raise ValueError("matrix does not preserve the symplectic form")
        self._set(spread=spread if spread >= 0 else self._measure_spread())

    @property
    def matrix(self) -> np.ndarray:
        """M as a fresh dense n x n int64 array."""
        n = self.lattice.symplectic_len
        out = np.zeros((n, n), dtype=np.int64)
        out[self.rows, self.cols] = self.values
        return out

    def _block(self, row_coords: np.ndarray, col_coords: np.ndarray) -> np.ndarray:
        """The dense block M[np.ix_(row_coords, col_coords)], for distinct
        coordinates."""
        n = self.lattice.symplectic_len
        at_row = np.full(n, -1)
        at_row[row_coords] = np.arange(len(row_coords))
        at_col = np.full(n, -1)
        at_col[col_coords] = np.arange(len(col_coords))
        i, j = at_row[self.rows], at_col[self.cols]
        hit = (i >= 0) & (j >= 0)
        out = np.zeros((len(row_coords), len(col_coords)), dtype=np.int64)
        out[i[hit], j[hit]] = self.values[hit]
        return out

    def _measure_spread(self) -> int:
        """Largest distance between the sites of the row and the column
        of a nonzero entry of M."""
        lat = self.lattice
        out = 0
        for lo in range(0, self.rows.size, _CHUNK):
            d = lat.distance(lat.grid[lat.site_of(self.rows[lo:lo + _CHUNK])],
                             lat.grid[lat.site_of(self.cols[lo:lo + _CHUNK])])
            out = max(out, int(d.max()))
        return out


def instantiate_qca(qca: CliffordQCA, lattice: FiniteLattice) -> FiniteSymplecticMap:
    if not lattice.periodic:
        raise InstantiationError("QCA instantiation needs a torus")
    if (qca.p, qca.q, qca.dims) != (lattice.p, lattice.q, lattice.dims):
        raise InstantiationError("QCA and lattice parameters disagree")
    # Column src(c, s) of M is symbol column c placed at site s: every
    # term of every column is one entry, and the terms that wrap onto
    # one coordinate are summed.
    coords, coeffs, column, _ = lattice.place(qca.matrix)
    rows = coords.ravel()
    cols = lattice.coords_of(np.arange(lattice.n_sites))[column].ravel()
    coeffs = np.repeat(coeffs, lattice.n_sites)
    return FiniteSymplecticMap.from_entries(lattice, rows, cols, coeffs,
                                            spread=qca.spread)


class BoundaryAlgebraReport(NamedTuple):
    basis: np.ndarray
    dim_image: int
    dim_boundary: int
    dim_off_slab: int
    factorization_holds: bool


def boundary_algebra_finite(
    alpha: FiniteSymplecticMap,
    axis: int,
    cut: int,
    window: int,
) -> BoundaryAlgebraReport:
    """Image of a band above the cut, intersected with the slab just
    above the cut.

    The band runs L - 2 layers up from the cut, for L the lattice's
    size along the axis, so its far edge stays away from the slab even
    on the torus — a finite stand-in for a half space, which a periodic
    axis cannot hold.  The slab is the first `window` of those layers.
    The report also checks the local-factorization identity
    dim(image) = dim(boundary part) + dim(part supported off the slab):
    equality says the image splits cleanly along the slab boundary,
    which is the finite content of the half-space factorization.

    No elimination of the image is needed: the map M is verified
    symplectic, so it is invertible with M^-1 = -J M^T J.
    - The band's columns are independent, so dim(image) = |band|.
    - v lies in the image of the band iff M^-1 v vanishes outside the
      band, so the boundary part is the kernel of the block
      M^-1[outside the band, slab] placed on the slab coordinates.  The
      block is a signed, transposed slice of M:
      M^-1[i, j] = s(i) s(j) M[sw(j), sw(i)], where sw swaps the X and
      Z halves and s is +1 on the X half and -1 on the Z half.  Row
      signs s(i) leave the kernel alone, so only s(j) is applied.  The
      kernel is row-reduced on the slab's coordinates alone, taken in
      ascending order; placing the rows back keeps that column order,
      so they are the canonical basis of the boundary part.
    - The off-slab layers are the slab's complement, so the part of the
      image supported off the slab is the kernel of the image's
      projection onto the slab: dim = |band| - rank M[slab, band], the
      rank taken on the block's columns that hold a nonzero.
    """
    lat = alpha.lattice
    if not 0 <= axis < lat.dims:
        raise ValueError(f"axis {axis} out of range")
    L = lat.sizes[axis]
    if window < alpha.spread:
        raise ValueError(f"window {window} below the map's spread {alpha.spread}")
    if window > L - 2:
        raise ValueError("need window <= L - 2 for a meaningful band")

    p, n, half = lat.p, lat.symplectic_len, lat.n_qudits
    # Each coordinate's layer counted up from the one above the cut.
    rel = (lat.grid[lat.site_of(np.arange(n)), axis] - cut - 1) % L
    band = np.flatnonzero(rel < L - 2)
    slab = np.flatnonzero(rel < window)
    outside = np.flatnonzero(rel >= L - 2)

    swapped_slab, swapped_outside = (slab + half) % n, (outside + half) % n
    inverse_block = (alpha._block(swapped_slab, swapped_outside).T
                     * np.where(slab < half, 1, -1)) % p
    reduced = row_basis(kernel(inverse_block, p), p)
    boundary = np.zeros((reduced.shape[0], n), dtype=np.int64)
    boundary[:, slab] = reduced
    image = alpha._block(slab, band)
    dim_off_slab = band.size - rank(image[:, image.any(axis=0)], p)
    return BoundaryAlgebraReport(
        basis=boundary,
        dim_image=band.size,
        dim_boundary=boundary.shape[0],
        dim_off_slab=dim_off_slab,
        factorization_holds=band.size == boundary.shape[0] + dim_off_slab,
    )


class BlendReport(NamedTuple):
    agrees: bool
    first_mismatch: int | None


def verify_blend(
    gamma: FiniteSymplecticMap, alpha: FiniteSymplecticMap,
    beta: FiniteSymplecticMap, axis: int, interface: int, margin: int
) -> BlendReport:
    """Does gamma act like alpha well below the interface and like beta
    well above it?  Columns are compared on every basis vector whose
    site sits strictly outside the margin; each side must hold a layer
    of such sites.  The three maps live on one lattice and are compared
    by their nonzeros."""
    lat = gamma.lattice
    if alpha.lattice != lat or beta.lattice != lat:
        raise ValueError("the maps live on different lattices")
    if not 0 <= axis < lat.dims:
        raise ValueError(f"axis {axis} out of range")
    if margin < 0:
        raise ValueError(f"margin {margin} is negative")
    L = lat.sizes[axis]
    if not margin < interface < L - 1 - margin:
        raise ValueError(f"interface {interface} with margin {margin} leaves "
                         f"one side of the axis empty: need {margin} < "
                         f"interface < {L - 1 - margin}")
    p, n = lat.p, lat.symplectic_len
    layer = lat.grid[lat.site_of(np.arange(n)), axis]
    below, above = layer < interface - margin, layer > interface + margin

    def coded(x, in_columns):
        """Each nonzero in the wanted columns as one integer, ordered by
        column, then row, then value (below 2^55)."""
        keep = in_columns[x.cols]
        return (x.cols[keep] * n + x.rows[keep]) * p + x.values[keep]

    # Columns are equal exactly when their nonzeros are, so the first
    # nonzero in only one of gamma and the reference is in the first
    # column that differs.
    differ = np.setxor1d(coded(gamma, below | above),
                         np.concatenate([coded(alpha, below),
                                         coded(beta, above)]),
                         assume_unique=True)
    if differ.size:
        return BlendReport(False, int(differ[0] // p // n))
    return BlendReport(True, None)


def center_at_boundary_distance(rows, lattice: FiniteLattice) -> int:
    """Largest patch-boundary distance of any site supporting a central
    element of the span; -1 when the center is trivial.

    On an open patch the instantiated span of a (symbolically)
    invertible spec picks up a center from the truncated translates;
    that center must hug the boundary.
    """
    if lattice.periodic:
        raise ValueError("boundary distance needs an open patch")
    span = row_basis(rows, lattice.p)
    return _boundary_distance(_invertibility_and_center(span, lattice)[1],
                              lattice)


def _boundary_distance(center: np.ndarray, lattice: FiniteLattice) -> int:
    """center_at_boundary_distance for a basis of the center."""
    sites = lattice.grid[lattice.site_of(np.flatnonzero(center.any(axis=0)))]
    edge = np.minimum(sites, np.array(lattice.sizes) - 1 - sites).min(axis=1)
    return int(edge.max(initial=-1))
