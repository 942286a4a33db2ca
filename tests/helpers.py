"""Shared builders for the worked examples used across test modules,
and plain reference versions of optimised routines.

The frozen matrices here (commutation matrix of the qutrit example and
its inverse) were verified with an independent symbolic oracle before
being committed.
"""

import heapq
import itertools
import random

import numpy as np
import sympy as sp

from invsub import groebner
from invsub.anyon_lab import InfeasibleHopError, _segment_box
from invsub.finite_oracle import (
    BoundaryAlgebraReport,
    FiniteInvertibilityReport,
    FiniteSymplecticMap,
    InstantiationError,
    VsReport,
    pairing_matrix,
    placements,
    symplectic_complement,
)
from invsub.fplinalg import (
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
from invsub.laurent import (
    DeterminantalProfile,
    IdealDescription,
    LaurentMatrix,
    LaurentPoly,
    _localized,
    parse_poly,
)
from invsub.pauli import SubalgebraSpec, brauer_tensor
from invsub.zoo import get_example
from invsub.weyl import BoundedDistance, PhasedPauli, unitary_distance


def row_space_contains(a, v, p):
    """Is the vector v in the row space of a over F_p?  Adding it to a
    basis of the rows leaves the rank as it is."""
    base = row_basis(a, p)
    stacked = row_basis(np.vstack([base, as_fp(v, p)]), p)
    return stacked.shape[0] == base.shape[0]


def instantiate_column_per_term(lattice, column, base_site):
    """finite_oracle.instantiate_column as first written: every term of
    every entry resolved and added one at a time, with the coordinate
    layout written out (X slot k of site s at s*q + k, Z at q*N + s*q +
    k).  None if a term falls off an open patch."""
    q = lattice.q
    if column.shape != (2 * q, 1):
        raise InstantiationError(f"expected a {2 * q} x 1 symbol column")
    if column.p != lattice.p or column.nvars != lattice.dims:
        raise InstantiationError("symbol ring does not match the lattice")
    vec = np.zeros(lattice.symplectic_len, dtype=np.int64)
    for r in range(2 * q):
        for e, c in column[(r, 0)].terms.items():
            target = lattice.resolve(tuple(b + d for b, d in zip(base_site, e)))
            if target is None:
                return None
            coord = (lattice.site_index(target) * q + r % q
                     + (lattice.n_qudits if r >= q else 0))
            vec[coord] = (vec[coord] + c) % lattice.p
    return vec


def window_sites_per_offset(lattice, center, radius):
    """The sites within sup-distance radius of center, wrapped or
    clipped: every offset in the (2 radius + 1)^D box resolved in turn,
    first reaches kept."""
    seen = {}
    for delta in itertools.product(*([range(-radius, radius + 1)]
                                      * lattice.dims)):
        t = lattice.resolve(tuple(c + d for c, d in zip(center, delta)))
        if t is not None and t not in seen:
            seen[t] = True
    return list(seen)


def wrapped_distance(lattice, a, b):
    """Sup-norm distance from site a to site b, one axis at a time, the
    shortest way round on a torus."""
    out = 0
    for ca, cb, size in zip(a, b, lattice.sizes):
        d = abs(cb - ca)
        if lattice.periodic:
            d = min(d % size, (-d) % size)
        out = max(out, d)
    return out


def translation_by_roll(lattice, shift):
    """The qudit permutation moving an operator by shift round the
    torus, built by np.roll of the site-index array: qudit k of site s
    reads qudit k of site s - shift."""
    grid = np.arange(lattice.n_sites).reshape(lattice.sizes)
    src = np.roll(grid, tuple(shift), axis=tuple(range(lattice.dims))).ravel()
    return (src[:, None] * lattice.q + np.arange(lattice.q)).ravel()


def mat(p, nvars, rows):
    return LaurentMatrix(p, nvars, [[parse_poly(s, p, nvars) for s in row]
                                    for row in rows])


XI_Z3_ROWS = [
    ["x^-1 - x", "x + x*y - y + 1"],
    ["-x^-1 + y^-1 - x^-1*y^-1 - 1", "y - y^-1"],
]

XI_Z3_INV_ROWS = [
    ["2*y^-1 + y", "2 + y + 2*x + 2*x*y"],
    ["x^-1*y^-1 + x^-1 + 2*y^-1 + 1", "x^-1 + 2*x"],
]


def z3_spec():
    """Two qutrits per site in 2d, V = (id; 2*Xi); the invertible example."""
    xi = mat(3, 2, XI_Z3_ROWS)
    v = LaurentMatrix.identity(3, 2, 2).vstack(xi.scale(2))
    return SubalgebraSpec(p=3, q=2, dims=2, generators=v)


def xz_chain_spec():
    """One qubit per site in 1d, single generator X(j) Z(j+1); the
    negative control whose commutation polynomial x + x^-1 is not a unit."""
    v = mat(2, 1, [["1"], ["x"]])
    return SubalgebraSpec(p=2, q=1, dims=1, generators=v)


def full_spec():
    return SubalgebraSpec(3, 1, 2, LaurentMatrix.identity(3, 2, 2))


def z3_tensor(k):
    """The builtin example-z3 tensored with itself k times."""
    base = get_example("example-z3").spec
    spec = base
    for _ in range(k - 1):
        spec = brauer_tensor(spec, base)
    return spec


def with_repeated_columns(spec, extra):
    """The same subalgebra presented redundantly: the generator columns
    followed by the first `extra` of them again."""
    g = spec.generators
    cols = list(range(g.cols)) + list(range(extra))
    return SubalgebraSpec(spec.p, spec.q, spec.dims,
                          g.submatrix(range(g.rows), cols))


def cofactor_det(m, rows, cols, cache):
    """det m[rows, cols] by Laplace expansion along the first row, with a
    cache over (row subset, column subset) shared between calls: how
    laurent computed determinants, minors and adjugates before its one
    fraction-free elimination."""
    key = (rows, cols)
    if key in cache:
        return cache[key]
    if not rows:
        out = LaurentPoly.one(m.p, m.nvars)
    else:
        out = LaurentPoly.zero(m.p, m.nvars)
        for t, j in enumerate(cols):
            a = m.entries[rows[0]][j]
            if a.terms:
                term = a * cofactor_det(m, rows[1:], cols[:t] + cols[t + 1:],
                                        cache)
                out = out + (term if t % 2 == 0 else -term)
    cache[key] = out
    return out


def cofactor_minors(m, k):
    """Every k x k minor by cofactor expansion, in the lexicographic order
    of (row set, column set)."""
    cache = {}
    return [cofactor_det(m, rows, cols, cache)
            for rows in itertools.combinations(range(m.rows), k)
            for cols in itertools.combinations(range(m.cols), k)]


def cofactor_inverse(m):
    """m^-1 = adj(m) / det m from cofactors, or None when det m is not a
    monomial (a unit of the Laurent ring)."""
    n, cache = m.rows, {}
    full = tuple(range(n))
    det = cofactor_det(m, full, full, cache)
    if not det.is_monomial():
        return None
    dinv = det.inverse()
    ent = [[cofactor_det(m, full[:j] + full[j + 1:], full[:i] + full[i + 1:],
                         cache) * dinv for j in range(n)] for i in range(n)]
    return LaurentMatrix(m.p, m.nvars, [
        [f if (i + j) % 2 == 0 else -f for j, f in enumerate(row)]
        for i, row in enumerate(ent)])


def determinantal_profile_every_minor(m):
    """laurent.determinantal_profile as first written: from the largest
    size down, every k x k minor is expanded by cofactors until one is
    nonzero."""
    for k in range(min(m.rows, m.cols), 0, -1):
        mins = [f for f in cofactor_minors(m, k) if not f.is_zero()]
        if mins:
            seen = {}
            for f in mins:
                seen.setdefault(f, None)
            ideal = IdealDescription(m.p, m.nvars, list(seen))
            return DeterminantalProfile(k, ideal, ideal.is_unit())
    ideal = IdealDescription(m.p, m.nvars, [LaurentPoly.one(m.p, m.nvars)])
    return DeterminantalProfile(0, ideal, True)


def ideal_contains(ideal, f):
    """Membership of f in a Laurent ideal (an IdealDescription): f
    reduces to zero against the Groebner basis of the ideal's image in
    the localized polynomial ring."""
    if f.is_zero():
        return True
    if ideal.is_zero():
        return False
    return not groebner.normal_form(_localized(f), ideal.groebner_basis(),
                                    ideal.p, ideal.nvars + 1)


# Polynomials keyed by exponent tuples, as groebner kept them before its
# keys were packed ints, and the arithmetic written for them.


def packed(poly):
    """A dict keyed by exponent tuples, keyed by groebner's packed keys."""
    return {groebner.pack(e): c for e, c in poly.items()}


def unpacked(poly, nvars):
    """A dict keyed by groebner's packed keys, keyed by exponent tuples."""
    return {groebner.unpack(k, nvars): c for k, c in poly.items()}


def tuple_add(a, b, p):
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def tuple_dot(left, right, p):
    """groebner.dot on tuple keys: every product of every pair added into
    one dict, each sum reduced once at the end."""
    acc = {}
    for a, b in zip(left, right):
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
    return {e: c % p for e, c in acc.items() if c % p}


def tuple_term_mul(exp, coeff, a, p):
    return {tuple(x + y for x, y in zip(e, exp)): (c * coeff) % p
            for e, c in a.items() if (c * coeff) % p}


def tuple_grevlex_key(exp):
    """grevlex on exponent tuples: total degree, then the rightmost
    differing exponent being smaller."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def tuple_leading_term(a):
    e = max(a, key=tuple_grevlex_key)
    return e, a[e]


def _divides_exp(e, f):
    return all(x <= y for x, y in zip(e, f))


def _exp_sub(e, f):
    return tuple(x - y for x, y in zip(e, f))


def normal_form_rescanning(g, basis, p):
    """groebner.normal_form before its one heap division, on tuple keys:
    the remainder's leading term is found again, by a max over all its
    terms, at every reduction step."""
    rem = {}
    h = dict(g)
    lts = [tuple_leading_term(b) for b in basis]
    while h:
        e, c = tuple_leading_term(h)
        for b, (lbe, lbc) in zip(basis, lts):
            if _divides_exp(lbe, e):
                factor = (c * pow(lbc, p - 2, p)) % p
                shift = _exp_sub(e, lbe)
                h = tuple_add(h, tuple_term_mul(shift, p - factor, b, p), p)
                break
        else:
            rem[e] = c
            del h[e]
    return rem


def divide_single_early_exit(g, f, p):
    """The quotient of polynomials g by f on tuple keys, or None when a
    remainder is left: a heap of exponents in grevlex order, and None as
    soon as the top term is not divisible by f's leading term."""
    if not f:
        raise ZeroDivisionError("division by zero polynomial")
    lfe, lfc = tuple_leading_term(f)
    inv = pow(lfc, p - 2, p)
    tail = [(fe, fc) for fe, fc in f.items() if fe != lfe]
    q = {}
    h = dict(g)
    heap = [(-sum(e), e[::-1]) for e in h]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1][::-1]
        c = h.pop(e, 0)
        if not c:
            continue
        if not _divides_exp(lfe, e):
            return None
        factor = (c * inv) % p
        qe = _exp_sub(e, lfe)
        q[qe] = factor
        for fe, fc in tail:
            te = tuple(x + y for x, y in zip(fe, qe))
            v = (h.get(te, 0) - factor * fc) % p
            if not v:
                h.pop(te, None)
                continue
            if te not in h:
                heapq.heappush(heap, (-sum(te), te[::-1]))
            h[te] = v
    return q


def clear_minimal(terms, nvars):
    """Tuple-keyed terms times the least monomial making every exponent
    nonnegative, and that monomial's exponents."""
    if not terms:
        return {}, (0,) * nvars
    shift = tuple(-min(e[i] for e in terms) for i in range(nvars))
    return {tuple(v + s for v, s in zip(e, shift)): c
            for e, c in terms.items()}, shift


def divides_by_clearing(f, g):
    """laurent.divides before Laurent-ring division: both sides cleared
    by minimal monomials, where Laurent divisibility is polynomial
    divisibility (the lowest corners of a product polytope cannot cancel
    over a domain), one polynomial division and the monomials shifted
    back."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return g
    fc, fshift = clear_minimal(f.terms, f.nvars)
    gc, gshift = clear_minimal(g.terms, g.nvars)
    q = divide_single_early_exit(gc, fc, f.p)
    if q is None:
        return None
    shift = tuple(a - b for a, b in zip(fshift, gshift))
    return LaurentPoly(f.p, f.nvars, tuple_term_mul(shift, 1, q, f.p))


def rref_every_column(m, p):
    """fplinalg._rref_in_place as first written: Gauss-Jordan that scans
    every column for a pivot below the current row, swaps it up, scales
    it and clears its column in every other row.  Overwrites m, a 2-d
    C-ordered int64 array with entries in [0, p)."""
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
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


def kernel_double_loop(a, p):
    """fplinalg.kernel as first written: the basis filled entry by entry."""
    m, pivots = rref(a, p)
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in set(pivots)]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        out[k, c] = 1
        for i, pc in enumerate(pivots):
            out[k, pc] = (-m[i, c]) % p
    return out


def non_graph_spec(rng: random.Random) -> SubalgebraSpec:
    """One draw of an arbitrary generator matrix: p in {2, 3, 5}, 1 or 2
    directions, 1 or 2 qudits per site, 1 to 2q generators, entries of
    up to two terms with exponents in [-1, 1]."""
    p = rng.choice((2, 3, 5))
    dims = rng.choice((1, 2))
    q = rng.choice((1, 2))
    n = rng.randint(1, 2 * q)

    def entry():
        f = LaurentPoly.zero(p, dims)
        for _ in range(rng.randint(0, 2)):
            e = tuple(rng.randint(-1, 1) for _ in range(dims))
            f = f + LaurentPoly.monomial(rng.randint(1, p - 1), e, p, dims)
        return f

    rows = [[entry() for _ in range(n)] for _ in range(2 * q)]
    return SubalgebraSpec(p, q, dims, LaurentMatrix(p, dims, rows))


def invertibility_and_center_via_complement(rows, lattice, spread=None):
    """finite_oracle._invertibility_and_center as first written: the
    whole commutant is built and met with the span."""
    span = row_basis(rows, lattice.p)
    comp = symplectic_complement(span, lattice)
    center = row_space_intersection(span, comp, lattice.p)
    warn = spread is not None and any(s <= 4 * spread for s in lattice.sizes)
    ok = (center.shape[0] == 0
          and span.shape[0] + comp.shape[0] == lattice.symplectic_len)
    report = FiniteInvertibilityReport(
        invertible=ok,
        dim_span=int(span.shape[0]),
        dim_commutant=int(comp.shape[0]),
        dim_center=int(center.shape[0]),
        small_lattice_warning=bool(warn),
    )
    return report, center


def check_vs_every_site(rows, lattice, reach):
    """finite_oracle.check_vs without the torus shortcut: the subspace
    V_s is built and inspected at every site in order."""
    p, m = lattice.p, lattice.n_qudits
    span = row_basis(rows, p)
    if span.shape[0] == 0:
        return VsReport(True, None, None)
    for s in lattice.sites():
        window = [c for t in window_sites_per_offset(lattice, s, reach)
                  for c in lattice.site_coords(t)]
        w_s = coordinate_restriction(span, window, p)
        if w_s.shape[0] == 0:
            blind = span
        else:
            sj = np.hstack([(-w_s[:, m:]) % p, w_s[:, :m]])
            blind = row_space_intersection(span, kernel(sj, p), p)
        here = lattice.site_coords(s)
        for v in blind:
            if v[here].any():
                return VsReport(False, tuple(s), v.copy())
    return VsReport(True, None, None)


def boundary_distance_every_vector(center, lattice):
    """finite_oracle._boundary_distance as first written: every site is
    inspected for every vector of the center basis."""
    worst = -1
    for v in center:
        for s in lattice.sites():
            if v[lattice.site_coords(s)].any():
                edge = min(
                    min(c, size - 1 - c) for c, size in zip(s, lattice.sizes)
                )
                worst = max(worst, edge)
    return worst


def enumerate_support_paulis(p, m, support):
    """All phase-zero Paulis whose support is exactly the given index
    set, in deterministic order."""
    support = tuple(support)
    per_site = [(x, z) for x in range(p) for z in range(p) if (x, z) != (0, 0)]
    for combo in itertools.product(per_site, repeat=len(support)):
        a = np.zeros(m, dtype=np.int64)
        b = np.zeros(m, dtype=np.int64)
        for idx, (ai, bi) in zip(support, combo):
            a[idx], b[idx] = ai, bi
        yield PhasedPauli(p, 0, a, b)


def class_distance_sympy(kind, p):
    """The sympy value of ||id - R|| for R of a `weyl` spectral class:
    the reference for the text and float of `weyl.BoundedDistance`."""
    if kind[0] == "scalar":
        return 2 * sp.sin(sp.pi * sp.Rational(kind[1], p))
    if kind[0] == "qubit":
        return sp.Integer(2) if kind[1] == 0 else sp.sqrt(2)
    return 2 * sp.sin(sp.pi * sp.Rational((p - 1), 2 * p))


def distance_sympy(d):
    """The sympy value a `weyl.BoundedDistance` stands for."""
    return class_distance_sympy(d.kind, d.p) / d.size


def root_of_unity_sympy(k, n):
    """exp(2 pi i k / n) in sympy: the reference for a spin phase
    (k / n = exponent / p) and a Gauss-sum phase (n = 8)."""
    return sp.exp(2 * sp.pi * sp.I * sp.Rational(k, n))


def dist_bounded_every_candidate(alpha, beta, p, m, max_support=2):
    """weyl.dist_bounded as first written: a sympy distance is built and
    evaluated for every candidate Pauli.  Each new best is checked to
    print as that sympy value and to carry its 50-digit float."""
    best = BoundedDistance(("scalar", 0), p, 1, PhasedPauli.identity(p, m))
    best_num = -1.0
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(m), size):
            for w in enumerate_support_paulis(p, m, support):
                kind = unitary_distance(alpha.apply(w), beta.apply(w)).kind
                d = class_distance_sympy(kind, p) / size
                num = float(d.evalf(50))
                if num > best_num + 1e-40:
                    best = BoundedDistance(kind, p, size, w)
                    best_num = num
                    assert best.value == str(d) and best.numeric == num
    return best


def translation_invariant_rereducing(span, lattice):
    """finite_oracle._translation_invariant as first written: the
    already canonical span is reduced again for every axis."""
    for unit in np.eye(lattice.dims, dtype=int):
        perm = translation_by_roll(lattice, unit)
        moved = span[:, np.concatenate([perm, lattice.n_qudits + perm])]
        if not row_space_equal(moved, span, lattice.p):
            return False
    return True


def boundary_algebra_via_image(alpha, axis, cut, window):
    """finite_oracle.boundary_algebra_finite as first written: the image
    of the band is eliminated, then restricted to the slab and to the
    layers off it."""
    lat = alpha.lattice
    if not 0 <= axis < lat.dims:
        raise ValueError(f"axis {axis} out of range")
    L = lat.sizes[axis]
    if window < alpha.spread:
        raise ValueError(f"window {window} below the map's spread {alpha.spread}")
    if window > L - 2:
        raise ValueError("need window <= L - 2 for a meaningful band")

    def layer_coords(layers):
        wanted = {l % L for l in layers}
        return [c for s in lat.sites() if s[axis] in wanted
                for c in lat.site_coords(s)]

    band = layer_coords(range(cut + 1, cut + L - 1))
    slab = layer_coords(range(cut + 1, cut + window + 1))
    off_slab = layer_coords(
        l for l in range(L) if (l - cut - 1) % L >= window
    )
    image = row_basis(alpha.matrix[:, band].T, lat.p)
    boundary = coordinate_restriction(image, slab, lat.p)
    off = coordinate_restriction(image, off_slab, lat.p)
    return BoundaryAlgebraReport(
        basis=boundary,
        dim_image=int(image.shape[0]),
        dim_boundary=int(boundary.shape[0]),
        dim_off_slab=int(off.shape[0]),
        factorization_holds=bool(
            image.shape[0] == boundary.shape[0] + off.shape[0]
        ),
    )


def coordinate_restriction_via_scans(a, coords, p):
    """fplinalg.coordinate_restriction as first written: the input is
    copied, permuted and copied again before elimination, and the kept
    rows are found by scanning the reduced form."""
    m = as_fp(a, p)
    ncols = m.shape[1]
    outside = np.ones(ncols, dtype=bool)
    outside[[int(c) for c in coords]] = False
    n_out = int(outside.sum())
    perm = np.concatenate([np.flatnonzero(outside), np.flatnonzero(~outside)])
    red, _ = rref(m[:, perm], p)
    keep = np.all(red[:, :n_out] == 0, axis=1) & np.any(red != 0, axis=1)
    rows = red[keep]
    out = np.zeros((rows.shape[0], ncols), dtype=np.int64)
    out[:, perm] = rows
    return row_basis(out, p)


def random_symplectic_matrix(lattice, rng, factors=4):
    """A seeded random symplectic matrix on the lattice's register, with
    no translation invariance: a product of [[A, 0], [0, A^-T]] with A
    invertible, [[I, S], [0, I]] with S symmetric, and J, which swaps
    the halves so that lower blocks fill in too."""
    p, half = lattice.p, lattice.n_qudits
    eye, zero = np.eye(half, dtype=np.int64), np.zeros((half, half), np.int64)
    out = np.eye(2 * half, dtype=np.int64)
    for _ in range(factors):
        a = rng.integers(0, p, (half, half))
        while rank(a, p) < half:
            a = rng.integers(0, p, (half, half))
        a_inv = rref(np.hstack([a, eye]), p)[0][:, half:]
        s = np.triu(rng.integers(0, p, (half, half)))
        s = s + np.triu(s, 1).T
        for f in (np.block([[a, zero], [zero, a_inv.T]]),
                  np.block([[eye, s], [zero, eye]]),
                  np.block([[zero, eye], [(-eye) % p, zero]])):
            out = matmul_mod(out, f, p)
    return out


def placements_reducing_every_entry(lattice, column, at=None):
    """finite_oracle.placements before it reduced only the entries it
    wrote: the terms added with np.add.at, then the whole array taken
    mod p."""
    coords, coeffs, _, fits = lattice.place(column, at)
    fits = fits[0]
    out = np.zeros((len(fits), lattice.symplectic_len), dtype=np.int64)
    np.add.at(out, (np.arange(len(fits)), coords), coeffs[:, None])
    out %= lattice.p
    return out, fits


def instantiate_spec_per_site(spec, lattice):
    """finite_oracle.instantiate_spec as first written: the generators
    placed one site at a time."""
    rows = []
    for j in range(spec.n_generators):
        col = spec.generators.submatrix(range(2 * spec.q), [j])
        placed = 0
        for s in lattice.sites():
            vec = instantiate_column_per_term(lattice, col, s)
            if vec is not None:
                rows.append(vec)
                placed += 1
        if placed == 0:
            raise InstantiationError(
                f"no translate of generator {j} fits on the patch"
            )
    if not rows:
        return np.zeros((0, lattice.symplectic_len), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def instantiate_qca_per_site(qca, lattice):
    """The matrix of finite_oracle.instantiate_qca as first written:
    each column placed at one site at a time."""
    n = lattice.symplectic_len
    big = np.zeros((n, n), dtype=np.int64)
    cols = [qca.matrix.submatrix(range(2 * qca.q), [c]) for c in range(2 * qca.q)]
    for s in lattice.sites():
        for c in range(2 * qca.q):
            src = lattice.site_coords(s)[c]
            big[:, src] = instantiate_column_per_term(lattice, cols[c], s)
    return big


def hamiltonian_terms_per_site(lattice, term_symbols):
    """The entries and rows of anyon_lab.build_hamiltonian as first
    written: every term symbol placed one site at a time."""
    entries, rows = [], []
    for fam, sym in enumerate(term_symbols):
        for s in lattice.sites():
            vec = instantiate_column_per_term(lattice, sym, s)
            if vec is not None:
                entries.append((fam, s))
                rows.append(vec)
    return tuple(entries), np.array(rows, dtype=np.int64)


def symplectic_gram_dense(matrix, lattice):
    """Does the matrix preserve the symplectic form?  FiniteSymplecticMap's
    check as first written: the dense product M^T J M, block by block
    against 0, I and -I."""
    p, half = lattice.p, lattice.n_qudits
    m = np.asarray(matrix, dtype=np.int64) % p
    jm = np.vstack([m[half:], (-m[:half]) % p])
    gram = matmul_mod(m.T, jm, p)

    def scalar_block(block, value):
        return (np.count_nonzero(block) == (half if value else 0)
                and bool(np.all(np.diagonal(block) == value)))

    return (scalar_block(gram[:half, :half], 0)
            and scalar_block(gram[half:, half:], 0)
            and scalar_block(gram[:half, half:], 1)
            and scalar_block(gram[half:, :half], p - 1))


def symplectic_map(lattice, matrix, spread=-1):
    """The FiniteSymplecticMap with a dense n x n matrix (read mod p),
    built from its nonzeros."""
    m = np.asarray(matrix, dtype=np.int64)
    n = lattice.symplectic_len
    if m.shape != (n, n):
        raise ValueError(f"matrix must be {n} x {n}")
    rows, cols = np.nonzero(m)
    return FiniteSymplecticMap.from_entries(lattice, rows, cols, m[rows, cols],
                                            spread=spread)


def measure_spread_per_entry(lattice, matrix):
    """FiniteSymplecticMap._measure_spread as first written: the sites
    of every nonzero entry compared one entry at a time."""
    sites = list(lattice.sites())
    out = 0
    nz_rows, nz_cols = np.nonzero(np.asarray(matrix) % lattice.p)
    for r, c in zip(nz_rows, nz_cols):
        s_in = sites[(int(c) % lattice.n_qudits) // lattice.q]
        s_out = sites[(int(r) % lattice.n_qudits) // lattice.q]
        out = max(out, wrapped_distance(lattice, s_in, s_out))
    return out


def first_noncommuting_pair_dense(rows, p):
    """The pair anyon_lab.build_hamiltonian reported as first written:
    the first nonzero of the dense Gram matrix of the term rows, in
    row-major order, or None when every pair commutes."""
    bad = np.argwhere(pairing_matrix(rows, rows, p) != 0)
    return tuple(int(v) for v in bad[0]) if bad.size else None


def syndrome_dense(op, h):
    """anyon_lab.syndrome as first written: a dense pairing of every
    term row with the operator."""
    vals = pairing_matrix(h.rows, op.to_symplectic(), h.lattice.p)[:, 0]
    return {h.entries[i]: int(v) for i, v in enumerate(vals) if v}


def syndrome_all_terms(row, h):
    """anyon_lab._syndrome before it paired only the terms meeting the
    row's support: the row paired with every term."""
    vals = h.pairings(row[:, None])[:, 0]
    return {h.entries[i]: int(vals[i]) for i in np.flatnonzero(vals)}


def ordered_product_full_width(rows, p, phases=0, powers=None):
    """anyon_lab._ordered_product before it ran on the touched qudits
    only: the same prefix-sum kernel over every column of the rows."""
    k, m = rows.shape[0], rows.shape[1] // 2
    rows = rows % p
    c = np.ones(k, dtype=np.int64) if powers is None else \
        np.asarray(powers, dtype=np.int64)
    self_cross = (rows[:, m:] * rows[:, :m]).sum(axis=1) % p
    raised = rows * (c % p)[:, None] % p
    before = np.cumsum(raised[:-1, m:], axis=0) % p
    cross = np.einsum("ij,ij->i", raised[1:, :m], before) % p
    phase = (int((np.asarray(phases) % p * c % p).sum())
             + int(((c * (c - 1) // 2 % p) * self_cross % p).sum())
             + int(cross.sum()))
    return raised.sum(axis=0) % p, phase % p


def solve_transporter_all_terms(h, cols, step, charge, family):
    """anyon_lab._solve_transporter before its system kept only the
    terms near the segment: one equation per term of the torus, and the
    product taken full width."""
    lat = h.lattice
    target = np.zeros(len(h.entries), dtype=np.int64)
    target[h.index_of(family, lat.resolve(step))] = charge % lat.p
    target[h.index_of(family, (0,) * lat.dims)] = -charge % lat.p
    spread = max(max(c.spread() for c in cols), 1)
    for margin in (spread, spread + 1):
        offsets = _segment_box(step, margin)
        placed = np.stack([placements(lat, col, offsets)[0] for col in cols],
                          axis=1).reshape(-1, lat.symplectic_len)
        coeffs = solve(h.pairings(placed.T), target, lat.p)
        if coeffs is not None:
            used = np.flatnonzero(coeffs)
            return ordered_product_full_width(placed[used], lat.p,
                                              powers=coeffs[used])
    raise InfeasibleHopError(
        f"no one-step transporter for charge {charge} along {tuple(step)}")


def leg_full_width(h, generators, junction, direction, length, charge=1,
                   family=0):
    """anyon_lab._leg before the string operators followed their
    support: the transporter from `solve_transporter_all_terms`, its
    copies made by full-lattice translations, the product taken full
    width and the syndrome paired with every term."""
    lat = h.lattice
    cols = [generators.submatrix(range(generators.rows), [j])
            for j in range(generators.cols)]
    step_row, step_phase = solve_transporter_all_terms(h, cols, direction,
                                                       charge, family)
    steps = np.arange(length - 1, -1, -1)[:, None]
    perms = np.array([translation_by_roll(lat, shift) for shift in
                      np.asarray(junction) + steps * np.asarray(direction)])
    m = lat.n_qudits
    copies = np.concatenate([step_row[:m][perms], step_row[m:][perms]],
                            axis=1)
    row, phase = ordered_product_full_width(copies, lat.p, phases=step_phase)
    near = lat.resolve(junction)
    far = lat.resolve(tuple(j + length * d
                            for j, d in zip(junction, direction)))
    want = {}
    if charge % lat.p:
        want = {(family, far): charge % lat.p,
                (family, near): -charge % lat.p}
    if syndrome_all_terms(row, h) != want:
        raise InfeasibleHopError("leg string syndrome failed to telescope")
    return row, phase


def _transporter_factors(h, cols, step, charge, family):
    """The one-step transporter as first solved, on every call: the
    candidates are placed densely and paired with every term row."""
    lat = h.lattice
    target = np.zeros(len(h.entries), dtype=np.int64)
    target[h.index_of(family, lat.resolve(step))] = charge % lat.p
    target[h.index_of(family, (0,) * lat.dims)] = -charge % lat.p
    spread = max(max(c.spread() for c in cols), 1)
    for margin in (spread, spread + 1):
        ranges = [range(min(0, s) - margin, max(0, s) + margin + 1)
                  for s in step]
        cands = [(j, off) for off in itertools.product(*ranges)
                 for j in range(len(cols))]
        placed = [instantiate_column_per_term(lat, cols[j], off)
                  for j, off in cands]
        coeffs = solve(pairing_matrix(h.rows, placed, lat.p), target, lat.p)
        if coeffs is not None:
            return [(j, off, int(c)) for (j, off), c in zip(cands, coeffs) if c]
    raise InfeasibleHopError(
        f"no one-step transporter for charge {charge} along {tuple(step)}")


def leg_string_per_step(h, generators, junction, direction, length,
                        charge=1, family=0):
    """anyon_lab.leg_string as first written: the transporter solved on
    every call and instantiated factor by factor at every step."""
    lat = h.lattice
    cols = [generators.submatrix(range(generators.rows), [j])
            for j in range(generators.cols)]
    factors = _transporter_factors(h, cols, direction, charge, family)
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    for m in range(length):
        at = tuple(j + m * d for j, d in zip(junction, direction))
        step = PhasedPauli.identity(lat.p, lat.n_qudits)
        for j, off, c in factors:
            site = tuple(a + o for a, o in zip(at, off))
            factor = PhasedPauli.from_symplectic(
                lat.p, instantiate_column_per_term(lat, cols[j], site))
            for _ in range(c):
                step = step * factor
        op = step * op
    near = lat.resolve(junction)
    far = lat.resolve(tuple(j + length * d
                            for j, d in zip(junction, direction)))
    want = {}
    if charge % lat.p:
        want = {(family, far): charge % lat.p,
                (family, near): -charge % lat.p}
    if syndrome_dense(op, h) != want:
        raise InfeasibleHopError("leg string syndrome failed to telescope")
    return op


def hopping_operator_per_step(h, generators, charge_at, charge_removed_at,
                              charge=1, family=0):
    """anyon_lab.hopping_operator on leg_string_per_step."""
    lat = h.lattice
    a, b = tuple(charge_at), tuple(charge_removed_at)
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    cur = list(b)
    for axis, size in enumerate(lat.sizes):
        delta = (a[axis] - b[axis]) % size
        if not delta:
            continue
        step, count = (1, delta) if delta <= size // 2 else (-1, size - delta)
        direction = tuple(step if k == axis else 0 for k in range(lat.dims))
        op = leg_string_per_step(h, generators, tuple(cur), direction, count,
                                 charge=charge, family=family) * op
        cur[axis] = a[axis]
    return op


def exchange_exponent_per_step(h, generators, charge, junction, leg_length,
                               leg_directions, family=0):
    """The exchange exponent of anyon_lab.topological_spin, from three
    legs built by leg_string_per_step (no geometry checks)."""
    return exchange_exponent(*(
        leg_string_per_step(h, generators, tuple(junction), d, leg_length,
                            charge=charge, family=family)
        for d in leg_directions))


def exchange_exponent(u1, u2, u3):
    """The exchange exponent of three string operators as
    anyon_lab.topological_spin first read it: the phase of the literal
    product (U1 U2 U3)(U3 U2 U1)^dagger, which must be a scalar."""
    ratio = (u1 * u2 * u3) * (u3 * u2 * u1).dagger()
    assert ratio.is_scalar()
    return ratio.phase
