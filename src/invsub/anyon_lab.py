"""Commuting-Pauli Hamiltonians, string operators, and anyon data.

Everything here is exact: syndromes are symplectic pairings over F_p,
string operators come out of F_p linear solves and carry exact phases,
the exchange phase is that of the legs' product less that of their
reversed product, and the chiral-central-charge phase is evaluated in
the cyclotomic integers with no floating point on the critical path.

A Hamiltonian keeps its terms as their nonzeros, so a pairing with the
terms is a gather of a few coordinates per term, and the all-pairs
commutation check is their Gram matrix, made by the kernel that checks
a lifted map is symplectic (`finite_oracle._gram_blocks`).

String operators cost what they touch, not the torus.  They rest on
translation invariance: the one-step transporter for each (generators,
step, charge, family) is solved once per Hamiltonian, at the origin,
and a leg moves its support to every step with
`FiniteLattice.shifted_coords`.  The transporter's system has a row
only for the terms that meet the candidates' support and the two
target terms; every other row would be 0 = 0, so the solution is the
one the whole torus gives, from a system of the same size on every
torus.  Products of Paulis are taken on numpy symplectic rows by
`_ordered_product`, the one phase kernel, which adds the rows and reads
the phase off one prefix sum on the qudits some factor touches.  A
syndrome pairs a row only with the terms that meet its support
(`HamiltonianInstance.terms_meeting`).  A `PhasedPauli` is built only
for what `leg_string` and `hopping_operator` return.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from typing import NamedTuple

from ._frozen import Frozen
from ._lazy_numpy import LazyNumpy
from .fplinalg import solve
from .finite_oracle import (
    FiniteLattice,
    InstantiationError,
    _check_column,
    _gram_blocks,
    _scatter,
    placements,
)
from .laurent import LaurentMatrix, _is_prime
from .specio import MAX_PRIME
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


class HamiltonianInstance(Frozen):
    """One commuting Pauli term per (family, site) on a finite lattice.

    Families index the distinct term symbols (one for the worked
    example, vertex/plaquette style pairs for stabilizer codes); terms
    whose footprint crosses an open boundary are dropped.  The terms
    are kept as `FiniteLattice.place` laid them: term i holds
    coeffs[i, t] at symplectic coordinate coords[i, t], t running over
    the terms of its symbol (padded with zero coefficients).  `rows`,
    the terms as dense symplectic rows, is scattered from them on first
    read.  One-step transporters solved on this instance are cached on
    it as (read-only symplectic row, phase), keyed by (generators, step,
    charge mod p, family), the generators wrapped in `_Generators`.
    """

    def __init__(self, lattice: FiniteLattice,
                 term_symbols: tuple[LaurentMatrix, ...],
                 entries: tuple[tuple[int, tuple[int, ...]], ...],
                 coords: np.ndarray, coeffs: np.ndarray):
        self._set(lattice=lattice, term_symbols=term_symbols,
                  entries=entries, coords=coords, coeffs=coeffs,
                  _transporters={})

    @functools.cached_property
    def spread(self) -> int:
        return max(sym.spread() for sym in self.term_symbols)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """One dense symplectic row per term, mod p."""
        rows = np.zeros((len(self.entries), self.lattice.symplectic_len),
                        dtype=np.int64)
        _scatter(rows, np.arange(len(self.entries))[:, None], self.coords,
                 self.coeffs, self.lattice.p)
        return rows

    def index_of(self, family: int, site) -> int:
        return self.entries.index((family, tuple(site)))

    def pairings(self, vecs, terms=None) -> np.ndarray:
        """Symplectic pairing of every term, or of the terms indexed by
        `terms` (rows of the result, in that order), with every column of
        vecs, a 2m x k array, mod p."""
        p, m = self.lattice.p, self.lattice.n_qudits
        coords, coeffs = self.coords, self.coeffs
        if terms is not None:
            coords, coeffs = coords[terms], coeffs[terms]
        # u.v = u_X.v_Z - u_Z.v_X: an X entry reads v's Z half, a Z entry
        # reads v's X half with the opposite sign.
        weights = np.where(coords < m, coeffs, -coeffs) % p
        partners = (coords + m) % (2 * m)
        gathered = np.asarray(vecs, dtype=np.int64)[partners] % p
        return (weights[:, :, None] * gathered % p).sum(axis=1) % p

    def terms_meeting(self, support) -> np.ndarray:
        """The indices, ascending, of the terms with a nonzero coefficient
        at the partner (X for Z, Z for X) of some coordinate in `support`:
        every other term pairs to zero with an operator supported there."""
        m = self.lattice.n_qudits
        touched = np.zeros(2 * m, dtype=bool)
        touched[(np.asarray(support, dtype=np.int64) + m) % (2 * m)] = True
        return np.flatnonzero((touched[self.coords] & (self.coeffs != 0))
                              .any(axis=1))


def build_hamiltonian(
    lattice: FiniteLattice, term_symbols
) -> HamiltonianInstance:
    """Place every translate of every term symbol and verify exact
    pairwise commutation (one bad pair aborts loudly): the terms are
    the columns of an n x terms matrix, whose Gram matrix's first
    nonzero names the pair."""
    symbols = tuple(term_symbols)
    sites = list(lattice.sites())
    entries, families = [], []
    for fam, sym in enumerate(symbols):
        _check_column(lattice, sym)
        placed, values, _, fits = lattice.place(sym)
        keep = np.flatnonzero(fits[0])
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
    order = np.argsort(coord, axis=None, kind="stable")
    gram = _gram_blocks(coord.ravel()[order], order // width,
                        coeff.ravel()[order], lattice.symplectic_len,
                        len(entries), lattice.p)
    bad = next((int(keys[0]) for _, _, keys, _ in gram if keys.size), None)
    if bad is not None:
        i, j = divmod(bad, len(entries))
        raise NoncommutingTermsError(
            f"terms {entries[i]} and {entries[j]} do not commute"
        )
    return HamiltonianInstance(lattice, symbols, tuple(entries), coord, coeff)


def syndrome(op: PhasedPauli, h: HamiltonianInstance) -> dict:
    """Nonzero commutation exponents of the operator against each term:
    op . P = omega^k P . op for the term P at the reported key."""
    return _syndrome(np.asarray(op.to_symplectic(), dtype=np.int64), h)


def _syndrome(row: np.ndarray, h: HamiltonianInstance) -> dict:
    """`syndrome` of a symplectic row, paired only with the terms that
    meet its support."""
    terms = h.terms_meeting(np.flatnonzero(row))
    vals = h.pairings(row[:, None], terms)[:, 0]
    return {h.entries[terms[i]]: int(vals[i]) for i in np.flatnonzero(vals)}


def _ordered_product(rows: np.ndarray, p: int, phases=0, powers=None
                     ) -> tuple[np.ndarray, int]:
    """The symbol and phase of W_0^c_0 W_1^c_1 ... W_(k-1)^c_(k-1), where
    W_i = omega^phases[i] X^a_i Z^b_i has the symplectic row
    rows[i] = (a_i | b_i) and c_i = powers[i] (every c_i is 1 by default;
    `phases` may be one int for all).

    W^c = omega^(c phase + C(c, 2) b.a) X^(ca) Z^(cb), as in
    `PhasedPauli.__pow__`.  Putting the raised factors in order moves
    the Z part of each past the X part of every later one, which adds
    b_i . a_j for every i < j of the raised factors, summed as the dots
    a_j . (b_0 + ... + b_(j-1)).  The prefix is reduced mod p, so each
    dot stays below m p^2 in int64 and is reduced before the k of them
    are added.  The symbol is the sum of the raised rows, mod p.

    A qudit no factor touches adds nothing to any of these sums, so the
    arithmetic runs on the X and Z columns of the touched qudits only,
    and the symbol is scattered back into a full row."""
    k, n = rows.shape
    touched = np.any(rows, axis=0)
    qudits = np.flatnonzero(touched[:n // 2] | touched[n // 2:])
    cols = np.concatenate([qudits, qudits + n // 2])
    m = len(qudits)
    rows = rows[:, cols] % p
    c = np.ones(k, dtype=np.int64) if powers is None else \
        np.asarray(powers, dtype=np.int64)
    self_cross = (rows[:, m:] * rows[:, :m]).sum(axis=1) % p
    raised = rows * (c % p)[:, None] % p
    before = np.cumsum(raised[:-1, m:], axis=0) % p
    cross = np.einsum("ij,ij->i", raised[1:, :m], before) % p
    phase = (int((np.asarray(phases) % p * c % p).sum())
             + int(((c * (c - 1) // 2 % p) * self_cross % p).sum())
             + int(cross.sum()))
    symbol = np.zeros(n, dtype=np.int64)
    symbol[cols] = raised.sum(axis=0) % p
    return symbol, phase % p


def _segment_box(step, margin: int):
    """Integer offsets covering the one-step segment {0, step} plus a
    margin, in deterministic order."""
    ranges = [range(min(0, s) - margin, max(0, s) + margin + 1)
              for s in step]
    return list(itertools.product(*ranges))


def _solve_transporter(
    h: HamiltonianInstance, generators: _Generators, step, charge: int,
    family: int
) -> tuple[np.ndarray, int]:
    """Solve for a product of generator translates whose syndrome is
    +charge one step away from -charge at the origin, and return it
    placed at the origin, as a read-only symplectic row and a phase:
    the factors in solution order, each raised to its exponent.

    The system has one equation per term, but a term that meets none of
    the candidates' support pairs to zero with all of them, and unless
    it is one of the two target terms its equation is 0 = 0.  Dropping
    those rows leaves the reduced echelon form of the system, and so the
    solution `solve` reads off it, as it was; what is left is the terms
    near the segment, however large the torus."""
    lat = h.lattice
    ends = np.array([h.index_of(family, lat.resolve(step)),
                     h.index_of(family, (0,) * lat.dims)])
    spread = max(generators.spread, 1)
    for margin in (spread, spread + 1):
        # Candidate (offset, j) is generator j placed at the offset, for
        # the offsets in box order and the generators in turn.
        placed = placements(lat, generators.matrix,
                            _segment_box(step, margin))[0]
        # A mask, not np.union1d: numpy's set routines import numpy.ma
        # on first use, about 20 ms of a `spin` process.
        kept = np.zeros(len(h.entries), dtype=bool)
        kept[h.terms_meeting(np.flatnonzero(placed.any(axis=0)))] = True
        kept[ends] = True
        terms = np.flatnonzero(kept)
        target = np.zeros(len(terms), dtype=np.int64)
        at_step, at_origin = np.searchsorted(terms, ends)
        target[at_step] = charge % lat.p
        target[at_origin] = -charge % lat.p
        coeffs = solve(h.pairings(placed.T, terms), target, lat.p)
        if coeffs is not None:
            break
    else:
        raise InfeasibleHopError(
            f"no one-step transporter for charge {charge} along {tuple(step)}"
        )
    used = np.flatnonzero(coeffs)
    row, phase = _ordered_product(placed[used], lat.p, powers=coeffs[used])
    row.flags.writeable = False
    return row, phase


class _Generators(Frozen):
    """Hopping generators as a transporter cache key, hashed and their
    spread read once when wrapped: a `LaurentMatrix` hashes every entry
    on each lookup and decodes every exponent for its spread, and a
    string operator looks up a transporter on every leg."""

    __slots__ = ("matrix", "spread", "_hash")

    def __init__(self, matrix: LaurentMatrix):
        self._set(matrix=matrix, spread=matrix.spread(), _hash=hash(matrix))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return type(other) is _Generators and self.matrix == other.matrix


def _transporter(h: HamiltonianInstance, generators: _Generators, step,
                 charge: int, family: int) -> tuple[np.ndarray, int]:
    """The one-step transporter at the origin, solved once per
    Hamiltonian."""
    key = (generators, tuple(step), charge % h.lattice.p, family)
    out = h._transporters.get(key)
    if out is None:
        out = h._transporters[key] = _solve_transporter(
            h, generators, step, charge, family)
    return out


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
    row, phase = _leg(h, generators, junction, direction, length, charge,
                      family)
    return PhasedPauli.from_symplectic(h.lattice.p, row, phase)


def _leg(h: HamiltonianInstance, generators: LaurentMatrix | _Generators,
         junction, direction, length: int, charge: int, family: int
         ) -> tuple[np.ndarray, int]:
    """`leg_string` as a symplectic row and a phase: the transporter
    moved to every step at once, the copies multiplied by
    `_ordered_product` with the last step leftmost, and the syndrome
    checked to telescope.  A caller making several legs wraps the
    generators in `_Generators` once for all of them."""
    lat = h.lattice
    if not lat.periodic:
        raise InstantiationError("string operators need a torus")
    if not isinstance(generators, _Generators):
        generators = _Generators(generators)
    step_row, step_phase = _transporter(h, generators, direction, charge,
                                        family)
    steps = np.arange(length - 1, -1, -1)[:, None]
    support = np.flatnonzero(step_row)
    moved = lat.shifted_coords(support, np.asarray(junction) + steps
                               * np.asarray(direction))
    copies = np.zeros((length, lat.symplectic_len), dtype=np.int64)
    copies[np.arange(length)[:, None], moved] = step_row[support]
    row, phase = _ordered_product(copies, lat.p, phases=step_phase)
    near = lat.resolve(junction)
    far = lat.resolve(tuple(j + length * d
                            for j, d in zip(junction, direction)))
    want = {}
    if charge % lat.p:
        want = {(family, far): charge % lat.p,
                (family, near): -charge % lat.p}
    if _syndrome(row, h) != want:
        raise InfeasibleHopError("leg string syndrome failed to telescope")
    return row, phase


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
    legs = []
    cur = list(b)
    generators = _Generators(generators)
    for axis, (delta, size) in enumerate(zip(deltas, lat.sizes)):
        if not delta:
            continue
        step, count = (1, delta) if delta <= size // 2 else (-1, size - delta)
        direction = tuple(step if k == axis else 0 for k in range(lat.dims))
        legs.append(_leg(h, generators, tuple(cur), direction, count,
                         charge, family))
        cur[axis] = a[axis]
    # Each leg multiplies the ones before it from the left.
    rows, phases = zip(*reversed(legs))
    row, phase = _ordered_product(np.array(rows), lat.p, phases=phases)
    return PhasedPauli.from_symplectic(lat.p, row, phase)


DEFAULT_LEG_DIRECTIONS = ((1, 0), (0, 1), (-1, -1))


class SpinReport(NamedTuple):
    exponent: int
    p: int
    junction: tuple[int, ...]
    leg_length: int
    leg_directions: tuple[tuple[int, ...], ...]


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
    out along the listed legs; the reported exponent is that of the
    scalar U1 U2 U3 (U3 U2 U1)^dagger: the phase of U1 U2 U3 less that
    of U3 U2 U1, both from `_ordered_product` on the legs' symbols (the
    legs' own phases cancel).  Which of the two orderings gives "the" spin
    is a handedness choice tied to how the two lattice axes
    are drawn; this one is calibrated against the known chirality of
    the built-in two-qutrit model, and the leg list in the report is
    the orientation datum.  Legs must be at least eight spreads long —
    shorter geometries are refused rather than reported, since the
    phase has not yet converged to its geometry-independent value.
    """
    lat = h.lattice
    generators = _Generators(generators)
    spread = max(h.spread, generators.spread, 1)
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
        _leg(h, generators, tuple(junction), direction, leg_length, charge,
             family)[0]
        for direction in leg_directions
    )
    legs = np.array([u1, u2, u3])
    exponent = (_ordered_product(legs, lat.p)[1]
                - _ordered_product(legs[::-1], lat.p)[1]) % lat.p
    return SpinReport(exponent=exponent, p=lat.p,
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
    def phase(self) -> str:
        """The exact phase exp(2 pi i eighth_root_exponent / 8), as
        sympy prints it."""
        return _EIGHTH_ROOT_TEXT[self.eighth_root_exponent]


def gauss_sum_phase(p: int, spin_exponents) -> GaussSumReport:
    """The normalized Gauss sum of an abelian spin collection, as an
    exact eighth root of unity.

    The sum S = sum_j omega^(t_j) is manipulated entirely in the
    cyclotomic integers: modularity demands |S|^2 = n, and then S^2 is
    +-n, pinning the phase to a fourth root; the residual sign is
    decided by the (well-separated) real or imaginary part.  Collections
    whose sum has the wrong modulus are refused with `NotModularError`.

    The test reads a cyclotomic integer as zero when all its coefficients
    agree, which holds only for p prime, so any p that is not a prime of
    at most `specio.MAX_PRIME` raises `ValueError` before anything is
    counted.
    """
    if p > MAX_PRIME or not _is_prime(p):
        raise ValueError(f"modulus {p} is not a prime of at most "
                         f"specio.MAX_PRIME = {MAX_PRIME}")
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
