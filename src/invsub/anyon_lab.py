"""Commuting-Pauli Hamiltonians, string operators, and anyon data.

Everything here is exact: operators are phase-tracked Paulis, syndromes
are symplectic pairings over F_p, string operators come out of F_p
linear solves, the exchange phase is read off a literal operator
product, and the chiral-central-charge phase is evaluated in the
cyclotomic integers with no floating point on the critical path.

A Hamiltonian keeps its terms as their nonzeros, so a pairing with the
terms is a gather of a few coordinates per term, and the all-pairs
commutation check joins X entries with Z entries on the same qudit.
String operators rest on translation invariance: the one-step
transporter for each (generators, step, charge, family) is solved once
per Hamiltonian, instantiated once at the origin and moved along a leg
by site permutations.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from typing import NamedTuple

from ._lazy_numpy import LazyNumpy
from .fplinalg import solve
from .finite_oracle import (
    FiniteLattice,
    InstantiationError,
    placements,
)
from .laurent import LaurentMatrix
from .weyl import PhasedPauli

np = LazyNumpy(globals())


class NoncommutingTermsError(ValueError):
    """Two Hamiltonian terms fail to commute; the model is rejected."""


class InfeasibleHopError(ValueError):
    """No product of the allowed generators realizes the requested
    two-point syndrome."""


class SpinGeometryError(ValueError):
    """Leg geometry too cramped for the exchange phase to have settled
    to its topological value."""


class NotModularError(ValueError):
    """The spin collection fails the Gauss-sum modularity test."""


class HamiltonianInstance:
    """One commuting Pauli term per (family, site) on a finite lattice.

    Families index the distinct term symbols (one for the worked
    example, vertex/plaquette style pairs for stabilizer codes); terms
    whose footprint crosses an open boundary are dropped.  The terms
    are kept as their nonzeros: term i pairs with a symplectic vector v
    as sum_t weights[i, t] * v[partners[i, t]] mod p, with t running
    over the terms of its symbol (padded with zero weights).  `rows`,
    the terms as dense symplectic rows, is built from them on first
    read.  One-step transporters solved on this instance are cached on
    it, keyed by (generators, step, charge mod p, family).
    """

    def __init__(self, lattice: FiniteLattice,
                 term_symbols: tuple[LaurentMatrix, ...],
                 entries: tuple[tuple[int, tuple[int, ...]], ...],
                 partners: np.ndarray, weights: np.ndarray):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "term_symbols", term_symbols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_partners", partners)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_transporters", {})

    def __setattr__(self, *a):
        raise AttributeError("HamiltonianInstance is immutable")

    @property
    def spread(self) -> int:
        return max(sym.spread() for sym in self.term_symbols)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """One dense symplectic row per term, mod p."""
        p, m = self.lattice.p, self.lattice.n_qudits
        # Undo the pairing's swap of halves and sign of the Z entries.
        is_x = self._partners >= m
        coord = np.where(is_x, self._partners - m, self._partners + m)
        coeff = np.where(is_x, self._weights, -self._weights)
        rows = np.zeros((len(self.entries), self.lattice.symplectic_len),
                        dtype=np.int64)
        np.add.at(rows, (np.arange(len(self.entries))[:, None], coord),
                  coeff)
        return rows % p

    def index_of(self, family: int, site) -> int:
        return self.entries.index((family, tuple(site)))

    def pairings(self, vecs) -> np.ndarray:
        """Symplectic pairing of every term (rows of the result) with
        every column of vecs, a 2m x k array, mod p."""
        p = self.lattice.p
        gathered = np.asarray(vecs, dtype=np.int64)[self._partners] % p
        return (self._weights[:, :, None] * gathered % p).sum(axis=1) % p


def _first_noncommuting_pair(coords, coeffs, lattice: FiniteLattice):
    """The first pair (i, j), in row-major order, of terms that fail to
    commute, or None.  Term i holds coeffs[i, t] at symplectic
    coordinate coords[i, t].  Every X entry is joined with every Z
    entry on the same qudit; the pair contributes x*z to pairing (i, j)
    and -x*z to (j, i), and pairings are summed per (i, j) mod p."""
    p, m = lattice.p, lattice.n_qudits
    n_terms = coords.shape[0]
    live = coeffs.ravel() != 0
    term = np.repeat(np.arange(n_terms), coords.shape[1])[live]
    coord, coeff = coords.ravel()[live], coeffs.ravel()[live]
    is_x = coord < m
    xt, xq, xv = term[is_x], coord[is_x], coeff[is_x] % p
    order = np.argsort(coord[~is_x], kind="stable")
    zt, zq, zv = (term[~is_x][order], coord[~is_x][order] - m,
                  coeff[~is_x][order] % p)
    lo = np.searchsorted(zq, xq, "left")
    counts = np.searchsorted(zq, xq, "right") - lo
    if not counts.any():
        return None
    xi = np.repeat(np.arange(len(xq)), counts)
    # The Z entries joined with X entry k are lo[k], lo[k] + 1, ...
    zi = np.arange(xi.size) + np.repeat(lo - np.cumsum(counts) + counts,
                                        counts)
    i, j = xt[xi], zt[zi]
    prod = xv[xi] * zv[zi] % p
    keys = np.concatenate([i * n_terms + j, j * n_terms + i])
    vals = np.concatenate([prod, (-prod) % p])
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    bad = keys[starts][np.add.reduceat(vals, starts) % p != 0]
    return divmod(int(bad[0]), n_terms) if bad.size else None


def build_hamiltonian(
    lattice: FiniteLattice, term_symbols
) -> HamiltonianInstance:
    """Place every translate of every term symbol and verify exact
    pairwise commutation (one bad pair aborts loudly)."""
    symbols = tuple(term_symbols)
    sites = list(lattice.sites())
    entries, families = [], []
    for fam, sym in enumerate(symbols):
        placed, values, fits = lattice.place(sym)
        keep = np.flatnonzero(fits)
        entries.extend((fam, sites[i]) for i in keep)
        families.append((placed[:, keep].T, np.tile(values, (len(keep), 1))))
    if not entries:
        raise NoncommutingTermsError("no term fits on the lattice")
    # One row per term, padded with zero coefficients to the longest
    # symbol.
    width = max(c.shape[1] for c, _ in families)
    coord = np.vstack([np.pad(c, ((0, 0), (0, width - c.shape[1])))
                       for c, _ in families])
    coeff = np.vstack([np.pad(v, ((0, 0), (0, width - v.shape[1])))
                       for _, v in families])
    p, m = lattice.p, lattice.n_qudits
    bad = _first_noncommuting_pair(coord, coeff, lattice)
    if bad is not None:
        i, j = bad
        raise NoncommutingTermsError(
            f"terms {entries[i]} and {entries[j]} do not commute"
        )
    # u.v = u_X.v_Z - u_Z.v_X: an X entry reads v's Z half, a Z entry
    # reads v's X half with the opposite sign.
    is_x = coord < m
    partners = np.where(is_x, coord + m, coord - m)
    weights = np.where(is_x, coeff, -coeff) % p
    return HamiltonianInstance(lattice, symbols, tuple(entries), partners,
                               weights)


def syndrome(op: PhasedPauli, h: HamiltonianInstance) -> dict:
    """Nonzero commutation exponents of the operator against each term:
    op . P = omega^k P . op for the term P at the reported key."""
    vals = h.pairings(op.to_symplectic()[:, None])[:, 0]
    return {h.entries[i]: int(v) for i, v in enumerate(vals) if v}


def _columns(generators: LaurentMatrix) -> list[LaurentMatrix]:
    return [generators.submatrix(range(generators.rows), [j])
            for j in range(generators.cols)]


def _segment_box(step, margin: int):
    """Integer offsets covering the one-step segment {0, step} plus a
    margin, in deterministic order."""
    ranges = [range(min(0, s) - margin, max(0, s) + margin + 1)
              for s in step]
    return list(itertools.product(*ranges))


def _solve_transporter(
    h: HamiltonianInstance, cols, step, charge: int, family: int
) -> PhasedPauli:
    """Solve for a product of generator translates whose syndrome is
    +charge one step away from -charge at the origin, and return it
    placed at the origin: the factors in solution order, each raised to
    its exponent."""
    lat = h.lattice
    target = np.zeros(len(h.entries), dtype=np.int64)
    target[h.index_of(family, lat.resolve(step))] = charge % lat.p
    target[h.index_of(family, (0,) * lat.dims)] = -charge % lat.p
    spread = max(max(c.spread() for c in cols), 1)
    for margin in (spread, spread + 1):
        # Candidate (offset, j) is generator j placed at the offset, for
        # the offsets in box order and the generators in turn.
        offsets = _segment_box(step, margin)
        placed = np.stack([placements(lat, col, offsets)[0] for col in cols],
                          axis=1).reshape(-1, lat.symplectic_len)
        coeffs = solve(h.pairings(placed.T), target, lat.p)
        if coeffs is not None:
            break
    else:
        raise InfeasibleHopError(
            f"no one-step transporter for charge {charge} along {tuple(step)}"
        )
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    for vec, c in zip(placed, coeffs):
        if c:
            op = op * PhasedPauli.from_symplectic(lat.p, vec) ** int(c)
    return op


def _transporter(h: HamiltonianInstance, generators: LaurentMatrix, step,
                 charge: int, family: int) -> PhasedPauli:
    """The one-step transporter at the origin, solved once per
    Hamiltonian."""
    key = (generators, tuple(step), charge % h.lattice.p, family)
    if key not in h._transporters:
        h._transporters[key] = _solve_transporter(
            h, _columns(generators), step, charge, family)
    return h._transporters[key]


def leg_string(
    h: HamiltonianInstance,
    generators: LaurentMatrix,
    junction,
    direction,
    length: int,
    charge: int = 1,
    family: int = 0,
) -> PhasedPauli:
    """The canonical string operator pushing a charge from the junction
    to junction + length*direction: a product of translates of a single
    one-step transporter, so its microscopic shape is uniform along the
    leg and depends only on the direction.  Torus only: the transporter
    is moved along the leg by translation, which an open boundary
    breaks."""
    lat = h.lattice
    if not lat.periodic:
        raise InstantiationError("string operators need a torus")
    transporter = _transporter(h, generators, direction, charge, family)
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    for m in range(length):
        at = tuple(j + m * d for j, d in zip(junction, direction))
        op = transporter.permute(lat.translation(at)) * op
    near = lat.resolve(junction)
    far = lat.resolve(tuple(j + length * d
                            for j, d in zip(junction, direction)))
    got = syndrome(op, h)
    want = {}
    if charge % lat.p:
        want = {(family, far): charge % lat.p,
                (family, near): -charge % lat.p}
    if got != want:
        raise InfeasibleHopError("leg string syndrome failed to telescope")
    return op


def hopping_operator(
    h: HamiltonianInstance,
    generators: LaurentMatrix,
    charge_at,
    charge_removed_at,
    charge: int = 1,
    family: int = 0,
) -> PhasedPauli:
    """A product of generator translates whose syndrome is exactly
    +charge at one site and -charge at the other (family terms only).

    Built as one leg string per lattice axis, each axis walked the
    short way round the torus from charge_removed_at towards charge_at;
    every leg's syndrome is verified exactly, and the legs' syndromes
    telescope to the two requested sites.
    """
    lat = h.lattice
    a, b = tuple(charge_at), tuple(charge_removed_at)
    deltas = [(x - y) % size for x, y, size in zip(a, b, lat.sizes)]
    if not any(deltas):
        raise ValueError("the two syndrome sites must differ")
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    cur = list(b)
    for axis, (delta, size) in enumerate(zip(deltas, lat.sizes)):
        if not delta:
            continue
        step, count = (1, delta) if delta <= size // 2 else (-1, size - delta)
        direction = tuple(step if k == axis else 0 for k in range(lat.dims))
        op = leg_string(h, generators, tuple(cur), direction, count,
                        charge=charge, family=family) * op
        cur[axis] = a[axis]
    return op


DEFAULT_LEG_DIRECTIONS = ((1, 0), (0, 1), (-1, -1))


class SpinReport(NamedTuple):
    exponent: int
    p: int
    junction: tuple[int, ...]
    leg_length: int
    leg_directions: tuple[tuple[int, ...], ...]

    @property
    def phase(self) -> sp.Expr:
        import sympy as sp

        return sp.exp(2 * sp.pi * sp.I * sp.Rational(self.exponent, self.p))


def topological_spin(
    h: HamiltonianInstance,
    generators: LaurentMatrix,
    charge: int = 1,
    junction=(0, 0),
    leg_length: int | None = None,
    leg_directions=DEFAULT_LEG_DIRECTIONS,
    family: int = 0,
) -> SpinReport:
    """Exchange phase of the charge from a three-leg junction process.

    Three string operators U1, U2, U3 push the charge from the junction
    out along the listed legs; the two orderings of their product are
    inverse scalars, and the reported exponent is the one for the
    ordering U1 U2 U3 (U3 U2 U1)^dagger.  Which of the two scalars is
    "the" spin is a handedness choice tied to how the two lattice axes
    are drawn; this one is calibrated against the known chirality of
    the built-in two-qutrit model, and the leg list in the report is
    the orientation datum.  Legs must be at least eight spreads long —
    shorter geometries are refused rather than reported, since the
    phase has not yet converged to its geometry-independent value.
    """
    lat = h.lattice
    spread = max(h.spread, generators.spread(), 1)
    min_leg = 8 * spread
    if leg_length is None:
        leg_length = 10 * spread
    if leg_length < min_leg:
        raise SpinGeometryError(
            f"leg length {leg_length} below the settled threshold {min_leg}"
        )
    halo_pad = 2 * spread + 1
    if any(leg_length * abs(d) + halo_pad > size
           for direction in leg_directions
           for d, size in zip(direction, lat.sizes)):
        raise SpinGeometryError("legs lap around the torus at this size")
    u1, u2, u3 = (
        leg_string(h, generators, tuple(junction), direction, leg_length,
                   charge=charge, family=family)
        for direction in leg_directions
    )
    ratio = (u1 * u2 * u3) * (u3 * u2 * u1).dagger()
    if not ratio.is_scalar():
        raise SpinGeometryError("exchange product failed to collapse to a scalar")
    return SpinReport(exponent=ratio.phase, p=lat.p,
                      junction=tuple(junction), leg_length=leg_length,
                      leg_directions=tuple(tuple(d) for d in leg_directions))


# -- chiral central charge from the spin collection ---------------------


# Elements of Z[z]/(z^p - 1) with nonnegative coefficients are packed
# into one Python int by Kronecker substitution: coefficient k sits in
# bytes [k*width, (k+1)*width).  A product is one big-int multiply; its
# slots do not overlap as long as every coefficient of the product fits
# in `width` bytes.


def _cyclo_pack(coeffs, width: int) -> int:
    return int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _cyclo_mul(a: int, b: int, p: int, width: int) -> list[int]:
    """The coefficients of a*b mod z^p - 1.  Folding adds the slots of
    z^p .. z^(2p-2) onto those of z^0 .. z^(p-2); the caller sizes the
    slots to hold the folded coefficients too."""
    full = a * b
    bits = 8 * width * p
    folded = (full & ((1 << bits) - 1)) + (full >> bits)
    raw = folded.to_bytes(width * p, "little")
    return [int.from_bytes(raw[k * width:(k + 1) * width], "little")
            for k in range(p)]


def _cyclo_equal_int(a: list[int], value: int) -> bool:
    # a - value is a multiple of 1 + z + ... + z^(p-1) iff all its
    # coefficients agree.
    first = a[0] - value
    return all(c == first for c in a[1:])


# exp(2 pi i k / 8) for k = 0..7, as sympy prints it.
_EIGHTH_ROOT_TEXT = ("1", "exp(I*pi/4)", "I", "exp(3*I*pi/4)", "-1",
                     "exp(-3*I*pi/4)", "-I", "exp(-I*pi/4)")


class GaussSumReport(NamedTuple):
    eighth_root_exponent: int

    @property
    def phase_text(self) -> str:
        """`str(self.phase)`, without importing sympy."""
        return _EIGHTH_ROOT_TEXT[self.eighth_root_exponent]

    @property
    def phase(self) -> sp.Expr:
        import sympy as sp

        return sp.exp(2 * sp.pi * sp.I * sp.Rational(self.eighth_root_exponent, 8))


def gauss_sum_phase(p: int, spin_exponents) -> GaussSumReport:
    """The normalized Gauss sum of an abelian spin collection, as an
    exact eighth root of unity.

    The sum S = sum_j omega^(t_j) is manipulated entirely in the
    cyclotomic integers: modularity demands |S|^2 = n, and then S^2 is
    +-n, pinning the phase to a fourth root; the residual sign is
    decided by the (well-separated) real or imaginary part.  Collections
    whose sum has the wrong modulus are refused.
    """
    exps = [int(t) % p for t in spin_exponents]
    n = len(exps)
    if n == 0:
        raise NotModularError("empty spin collection")
    counts = [0] * p
    for t in exps:
        counts[t] += 1
    # Every coefficient of a product of two count vectors, folded or
    # not, is at most n^2.
    width = ((n * n).bit_length() + 7) // 8
    s = _cyclo_pack(counts, width)
    conj = _cyclo_pack(counts[:1] + counts[:0:-1], width)
    if not _cyclo_equal_int(_cyclo_mul(s, conj, p, width), n):
        raise NotModularError("|sum of spins|^2 differs from the anyon count")
    square = _cyclo_mul(s, s, p, width)
    value = sum(c * cmath.exp(2j * cmath.pi * k / p)
                for k, c in enumerate(counts) if c)
    if _cyclo_equal_int(square, n):
        k = 0 if value.real > 0 else 4
    elif _cyclo_equal_int(square, -n):
        k = 2 if value.imag > 0 else 6
    else:
        raise NotModularError("sum of spins squares to neither +n nor -n")
    return GaussSumReport(eighth_root_exponent=k)
