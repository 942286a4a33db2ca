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
coordinates, `place` lays a symbol column's terms at any array of base
sites, and `translation` is the qudit permutation of a shift.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from ._lazy_numpy import LazyNumpy
from .fplinalg import (
    coordinate_restriction,
    kernel,
    matmul_mod,
    rank,
    row_basis,
)
from .laurent import LaurentMatrix
from .pauli import SubalgebraSpec
from .qca import CliffordQCA
from .weyl import PhasedPauli

np = LazyNumpy(globals())


class InstantiationError(ValueError):
    """A generator or operator cannot be placed on the given lattice."""


# The most symplectic coordinates (n = 2qN) a lattice may have; dense
# elimination costs n^2 memory and n^3 time.  example-z3 (q=2), end to
# end on a 2-core Xeon VM: `boundary` 9^3 (n=2916) 1.8 s, 344 MiB and
# 10^3 (n=4000) 3.5 s, 618 MiB; `oracle` 31x31 (n=3844) 4.1 s, 352 MiB,
# 40x40 (n=6400) 15 s, 846 MiB and 45x45 (n=8100) 19 s, 1.3 GiB.
MAX_SYMPLECTIC_LEN = 4096


class LatticeSizeError(ValueError):
    """The lattice's register is longer than MAX_SYMPLECTIC_LEN."""


class FiniteLattice:
    """A finite qudit array: q qudits on each site of a torus (periodic)
    or an open box (translates crossing the boundary are dropped).
    Immutable; equal lattices hash alike."""

    def __init__(self, p: int, q: int, sizes: tuple[int, ...],
                 periodic: bool = True):
        sizes = tuple(sizes)
        if any(s < 1 for s in sizes) or not sizes:
            raise ValueError("lattice sizes must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "periodic", periodic)
        if self.symplectic_len > MAX_SYMPLECTIC_LEN:
            raise LatticeSizeError(f"{self.symplectic_len} symplectic coordinates, "
                                   f"over the supported bound {MAX_SYMPLECTIC_LEN}")

    def __setattr__(self, *a):
        raise AttributeError("FiniteLattice is immutable")

    def _key(self) -> tuple:
        return self.p, self.q, self.sizes, self.periodic

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteLattice) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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

    def sites(self):
        return itertools.product(*(range(s) for s in self.sizes))

    def _check_site(self, site) -> None:
        if len(site) != self.dims:
            raise ValueError(f"sites must have {self.dims} coordinates")

    def site_index(self, site) -> int:
        self._check_site(site)
        idx = 0
        for c, size in zip(site, self.sizes):
            idx = idx * size + (c % size)
        return idx

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

    def x_coord(self, site, slot: int) -> int:
        return self.site_coords(site)[slot]

    def z_coord(self, site, slot: int) -> int:
        return self.site_coords(site)[self.q + slot]

    def site_coords(self, site) -> list[int]:
        return self.coords_of(self.site_index(site)).tolist()

    def translation(self, shift) -> np.ndarray:
        """The qudit permutation moving an operator by shift, wrapping
        round every axis: W.permute(perm) acts at site s as W acts at
        s - shift."""
        self._check_site(shift)
        src = np.ravel_multi_index(tuple(((self.grid - shift) % self.sizes).T),
                                   self.sizes)
        return self.coords_of(src)[:self.q].T.ravel()

    def place(self, column: LaurentMatrix, at=None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms of a symbol column placed at each base site of `at`
        (a k x dims array of sites, any integers; default every site in
        site order): the symplectic coordinate of term t at base s is
        coords[t, s], its coefficient coeffs[t].  Terms that wrap onto
        one coordinate stay separate, so a scatter must add them.  Also
        a mask of the bases where no term falls off an open patch (every
        base on a torus); the other bases' terms are wrapped round the
        patch and carry no meaning."""
        if column.shape != (2 * self.q, 1):
            raise InstantiationError(f"expected a {2 * self.q} x 1 symbol column")
        if column.p != self.p or column.nvars != self.dims:
            raise InstantiationError("symbol ring does not match the lattice")
        bases = self.grid if at is None else np.asarray(at, dtype=np.int64)
        if bases.ndim != 2 or bases.shape[1] != self.dims:
            raise ValueError(f"sites must have {self.dims} coordinates")
        sizes = np.array(self.sizes)
        fits = np.ones(len(bases), dtype=bool)
        at_site = self.coords_of(np.arange(self.n_sites))
        coords, coeffs = [], []
        for r in range(2 * self.q):
            for e, c in column[(r, 0)].terms.items():
                target = bases + np.array(e)
                if not self.periodic:
                    fits &= np.all((target >= 0) & (target < sizes), axis=1)
                index = np.ravel_multi_index(tuple((target % sizes).T),
                                             self.sizes)
                coords.append(at_site[r, index])
                coeffs.append(c)
        return (np.array(coords, dtype=np.intp).reshape(len(coeffs), len(bases)),
                np.array(coeffs, dtype=np.int64), fits)

    def window_sites(self, center, radius: int) -> list[tuple[int, ...]]:
        """Sites within sup-distance radius of center (wrapped or
        clipped), deduplicated, in deterministic order."""
        seen = {}
        for delta in itertools.product(*([range(-radius, radius + 1)] * self.dims)):
            t = self.resolve(tuple(c + d for c, d in zip(center, delta)))
            if t is not None and t not in seen:
                seen[t] = True
        return list(seen)

    def displacement(self, a, b) -> int:
        """Sup-norm distance from site a to site b, shortest way round
        on periodic axes."""
        out = 0
        for ca, cb, size in zip(a, b, self.sizes):
            d = abs(cb - ca)
            if self.periodic:
                d = min(d % size, (-d) % size)
            out = max(out, d)
        return out


def pairing_matrix(rows1, rows2, p: int) -> np.ndarray:
    """Symplectic pairings u_X.w_Z - u_Z.w_X for all row pairs."""
    r1 = np.atleast_2d(np.asarray(rows1, dtype=np.int64))
    r2 = np.atleast_2d(np.asarray(rows2, dtype=np.int64))
    m = r1.shape[1] // 2
    return (matmul_mod(r1[:, :m], r2[:, m:].T, p)
            - matmul_mod(r1[:, m:], r2[:, :m].T, p)) % p


def placements(
    lattice: FiniteLattice, column: LaurentMatrix, at=None
) -> tuple[np.ndarray, np.ndarray]:
    """The column placed at each base of `at` (default every site), as
    one row per base, and the mask of `FiniteLattice.place`."""
    coords, coeffs, fits = lattice.place(column, at)
    out = np.zeros((len(fits), lattice.symplectic_len), dtype=np.int64)
    np.add.at(out, (np.arange(len(fits)), coords), coeffs[:, None])
    out %= lattice.p
    return out, fits


def instantiate_column(
    lattice: FiniteLattice, column: LaurentMatrix, base_site
) -> np.ndarray | None:
    """Place one symbol column at a base site; None if any term of any
    entry falls off an open patch."""
    rows, fits = placements(lattice, column, [base_site])
    return rows[0] if fits[0] else None


def instantiate_spec(spec: SubalgebraSpec, lattice: FiniteLattice) -> np.ndarray:
    """All surviving generator translates as symplectic rows.

    On a torus every translate survives; on an open patch a translate is
    dropped whenever the operator would stick out.  A generator losing
    all of its translates is an error.
    """
    if (spec.p, spec.q, spec.dims) != (lattice.p, lattice.q, lattice.dims):
        raise InstantiationError("spec and lattice parameters disagree")
    rows = [np.zeros((0, lattice.symplectic_len), dtype=np.int64)]
    for j in range(spec.n_generators):
        col = spec.generators.submatrix(range(2 * spec.q), [j])
        placed, fits = placements(lattice, col)
        if not fits.any():
            raise InstantiationError(
                f"no translate of generator {j} fits on the patch"
            )
        rows.append(placed[fits])
    return np.vstack(rows)


def spec_span_on_sheet(spec: SubalgebraSpec, lattice: FiniteLattice,
                       sheet: int) -> np.ndarray:
    """The canonical basis of the part of the promoted spec's span on
    `lattice` (one axis more than the spec, appended last) supported on
    one sheet of that last axis.

    Promoted generators have a zero exponent on the new axis, so that
    span is the direct sum over sheets of the spec's span on each
    sheet: the answer is the spec instantiated on the sheet's own
    lattice, with the sheet's coordinates embedded in the larger
    register.  The embedding keeps the coordinate order, so the sheet's
    canonical basis embeds to the canonical basis."""
    if lattice.dims != spec.dims + 1:
        raise InstantiationError("the lattice needs exactly one more axis")
    flat = FiniteLattice(lattice.p, lattice.q, lattice.sizes[:-1],
                         lattice.periodic)
    basis = row_basis(instantiate_spec(spec, flat), lattice.p)
    on_sheet = np.flatnonzero(lattice.grid[:, -1] == sheet % lattice.sizes[-1])
    out = np.zeros((basis.shape[0], lattice.symplectic_len), dtype=np.int64)
    out[:, lattice.coords_of(on_sheet)] = \
        basis[:, flat.coords_of(np.arange(flat.n_sites))]
    return out


def pauli_from_column(
    lattice: FiniteLattice, column: LaurentMatrix, base_site, phase: int = 0
) -> PhasedPauli:
    vec = instantiate_column(lattice, column, base_site)
    if vec is None:
        raise InstantiationError(f"operator at {base_site} crosses the boundary")
    return PhasedPauli.from_symplectic(lattice.p, vec, phase=phase)


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
    # Both halves of a row move by the same qudit permutation.
    halves = span.reshape(-1, 2, lattice.n_qudits)
    for unit in np.eye(lattice.dims, dtype=np.int64):
        moved = halves[:, :, lattice.translation(unit)].reshape(span.shape)
        if not np.array_equal(row_basis(moved, lattice.p), span):
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
    sites = lattice.sites()
    if lattice.periodic and _translation_invariant(span, lattice):
        sites = itertools.islice(sites, 1)
    for s in sites:
        # The window's columns, X half then Z half.
        inside = np.zeros(n, dtype=bool)
        inside[lattice.coords_of([lattice.site_index(t) for t in
                                  lattice.window_sites(s, reach)])] = True
        cols = np.flatnonzero(inside)
        w_s = coordinate_restriction(span[inside[pivots]], cols, p)
        # W_s lives on the window, so P and S read only its columns, and
        # only the span rows that touch the window give them nonzero
        # columns.
        near = span[:, cols]
        near = near[near.any(axis=1)]
        pairing = pairing_matrix(w_s[:, cols], near, p)
        here = lattice.site_coords(s)
        at_s = near[:, np.searchsorted(cols, here)].T
        if rank(np.vstack([pairing, at_s]), p) > rank(pairing, p):
            blind = _orthogonal_part(span, w_s, p)
            hits = np.flatnonzero(blind[:, here].any(axis=1))
            return VsReport(False, tuple(s), blind[hits[0]].copy())
    return VsReport(True, None, None)


# Entries handled at a time when a pass over a map's nonzeros makes
# temporaries: products in the form check, sites in the spread.
_CHUNK = 1 << 12


def _preserves_form(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                    n: int, p: int) -> bool:
    """Is M^T J M = J mod p, for the n x n matrix M with the given
    nonzeros (row-major, distinct, values in [1, p))?

    Entry (i, j) of M^T J M is sum_r s(r) M[r, i] M[sw(r), j], where sw
    swaps the X and Z halves and s is +1 on the X half and -1 on the Z
    half: its terms pair a nonzero of column i with the nonzeros of the
    partner row.  The rows i of M^T J M are summed a run of columns i of
    M at a time into a dense block of at most 8 _CHUNK entries, from at
    most _CHUNK products at a time (a run of one column may make more,
    _CHUNK at a time).  The sums that cancel mod p are dropped, and what
    is left must be J's rows: 1 at i + n/2 on the X half, -1 at i - n/2
    on the Z half.  Each product is reduced mod p (below 2^62 for
    p < 2^31) and one entry sums at most n of them, so the int64 sums are
    exact.
    """
    half = n // 2
    partner = (np.arange(n) + half) % n
    # Row r's nonzeros are entries bounds[r] to bounds[r + 1]; those of
    # its partner row start at start[r] and number count[r].
    bounds = np.searchsorted(rows, np.arange(n + 1))
    start, count = bounds[partner], np.diff(bounds)[partner]
    # Products made by columns 0 to c (exact in float64).
    made = np.zeros(n)
    for lo in range(0, rows.size, _CHUNK):
        made += np.bincount(cols[lo:lo + _CHUNK],
                            weights=count[rows[lo:lo + _CHUNK]], minlength=n)
    made = np.cumsum(made)
    width = max(1, 8 * _CHUNK // n)
    a = 0
    while a < n:
        done = made[a - 1] if a else 0.0
        b = min(a + width, max(a + 1, int(np.searchsorted(
            made, done + _CHUNK, side="right"))))
        k = np.flatnonzero((cols >= a) & (cols < b))
        r = rows[k]
        coef = np.where(r < half, values[k], p - values[k])
        # Nonzero k pairs with the w[k] nonzeros of row sw(r[k]), whose
        # entry (sw(r[k]), j) adds to (cols[k], j) of M^T J M, at
        # shift[k] + j in the block.
        w = count[r]
        shift = (cols[k] - a) * n
        ends = np.cumsum(w)
        cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1] if k.size else 0,
                                               _CHUNK), side="right")
        block = np.zeros((b - a) * n, dtype=np.int64)
        for lo, hi in zip([0, *cuts], [*cuts, k.size]):
            wk = w[lo:hi]
            right = (np.repeat(start[r[lo:hi]] - (np.cumsum(wk) - wk), wk)
                     + np.arange(wk.sum()))
            np.add.at(block, np.repeat(shift[lo:hi], wk) + cols[right],
                      np.repeat(coef[lo:hi], wk) * values[right] % p)
        keys = np.flatnonzero(block)
        sums = block[keys] % p
        keys, sums = keys[sums != 0], sums[sums != 0]
        i = np.arange(a, b)
        if not (np.array_equal(keys, (i - a) * n + partner[i])
                and np.array_equal(sums, np.where(i < half, 1, p - 1))):
            return False
        a = b
    return True


class FiniteSymplecticMap:
    """An exact symplectic automorphism of the finite symbol space.

    The matrix M (n x n, read mod p) is kept as its nonzeros: `rows`,
    `cols` and `values` in [1, p), in row-major order, read-only.
    `matrix` makes the dense M on each read.  `from_entries` is the one
    constructor: it takes nonzeros and sums repeated coordinates.

    M is accepted exactly when M^T J M = J, with J = [[0, I], [-I, 0]]
    (`_preserves_form`): each entry of M^T J M is summed from products of
    a nonzero of M with the nonzeros of its partner row in the other
    half, sum_r nnz(r) nnz(sw r) products in all, a bounded number at a
    time.  For a lifted automaton the nonzeros of a row or column come
    from the terms of its symbol, so their number does not grow with the
    lattice: 14 in each column for example-z3, at most 16 for spread-2
    and spread-3 remark specs, about 200 n products.  A dense M makes
    n^3 products (1.6 s at n = 512 and 7.6 s at n = 1024 on a 2-core
    Xeon VM): memory stays under that of the dense product M^T (J M),
    but the time is seconds from n = 512 on.
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
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = np.asarray(values, dtype=np.int64)[order]
        values %= p
        del order
        # One sum per distinct coordinate, of values below p, so exact.
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        sums = np.add.reduceat(values, first) % p if keys.size else values
        keys, keep = keys[first], sums != 0
        out = cls.__new__(cls)
        out._validate(lattice, keys[keep] // n, keys[keep] % n, sums[keep],
                      spread)
        return out

    def _validate(self, lattice, rows, cols, values, spread) -> None:
        object.__setattr__(self, "lattice", lattice)
        for name, array in (("rows", rows), ("cols", cols), ("values", values)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if not _preserves_form(rows, cols, values, lattice.symplectic_len,
                               lattice.p):
            raise ValueError("matrix does not preserve the symplectic form")
        object.__setattr__(self, "spread",
                           spread if spread >= 0 else self._measure_spread())

    def __setattr__(self, *a):
        raise AttributeError("FiniteSymplecticMap is immutable")

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
        grid = lat.grid
        sizes = np.array(lat.sizes)
        out = 0
        for lo in range(0, self.rows.size, _CHUNK):
            d = np.abs(grid[lat.site_of(self.rows[lo:lo + _CHUNK])]
                       - grid[lat.site_of(self.cols[lo:lo + _CHUNK])])
            if lat.periodic:
                d = np.minimum(d, sizes - d)
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
    rows, cols, coeffs = [], [], []
    sources = lattice.coords_of(np.arange(lattice.n_sites))
    for c, src in enumerate(sources):
        col = qca.matrix.submatrix(range(2 * qca.q), [c])
        coords, terms, _ = lattice.place(col)
        rows.append(coords.ravel())
        cols.append(np.broadcast_to(src, coords.shape).ravel())
        coeffs.append(np.repeat(terms, lattice.n_sites))
    rows, cols, coeffs = (np.concatenate(x) for x in (rows, cols, coeffs))
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
    depth: int | None = None,
) -> BoundaryAlgebraReport:
    """Image of a band above the cut, intersected with the slab just
    above the cut.

    The band runs `depth` layers up from the cut (default: all but two,
    so its far edge stays away from the slab even on the torus — a
    finite stand-in for a half space, which a periodic axis cannot
    hold).  The report also checks the local-factorization identity
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
    if depth is None:
        depth = L - 2
    if not window <= depth <= L - 2:
        raise ValueError("need window <= depth <= L - 2 for a meaningful band")

    def layer_coords(layers):
        wanted = [l % L for l in layers]
        return lat.coords_of(
            np.flatnonzero(np.isin(lat.grid[:, axis], wanted))).ravel()

    p, n, half = lat.p, lat.symplectic_len, lat.n_qudits
    band = layer_coords(range(cut + 1, cut + depth + 1))
    slab = np.sort(layer_coords(range(cut + 1, cut + window + 1)))
    is_outside = np.ones(n, dtype=bool)
    is_outside[band] = False
    outside = np.flatnonzero(is_outside)

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
