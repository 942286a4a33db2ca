"""Commuting-Pauli Hamiltonians, string operators, and anyon data.

Everything here is exact: operators are phase-tracked Paulis, syndromes
are symplectic pairings over F_p, string operators come out of F_p
linear solves, the exchange phase is read off a literal operator
product, and the chiral-central-charge phase is evaluated in the
cyclotomic integers with no floating point on the critical path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ._lazy_numpy import LazyNumpy
from .fplinalg import solve
from .finite_oracle import (
    FiniteLattice,
    InstantiationError,
    _placements,
    instantiate_column,
    pairing_matrix,
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


@dataclass(frozen=True)
class HamiltonianInstance:
    """One commuting Pauli term per (family, site) on a finite lattice.

    Families index the distinct term symbols (one for the worked
    example, vertex/plaquette style pairs for stabilizer codes); terms
    whose footprint crosses an open boundary are dropped.
    """

    lattice: FiniteLattice
    term_symbols: tuple[LaurentMatrix, ...]
    entries: tuple[tuple[int, tuple[int, ...]], ...]
    rows: np.ndarray

    @property
    def spread(self) -> int:
        return max(sym.spread() for sym in self.term_symbols)

    def index_of(self, family: int, site) -> int:
        return self.entries.index((family, tuple(site)))


def build_hamiltonian(
    lattice: FiniteLattice, term_symbols
) -> HamiltonianInstance:
    """Place every translate of every term symbol and verify exact
    pairwise commutation (one bad pair aborts loudly)."""
    symbols = tuple(term_symbols)
    sites = list(lattice.sites())
    entries = []
    rows = []
    for fam, sym in enumerate(symbols):
        placed, fits = _placements(lattice, sym)
        entries.extend((fam, sites[i]) for i in np.flatnonzero(fits))
        rows.append(placed[fits])
    if not entries:
        raise NoncommutingTermsError("no term fits on the lattice")
    rows = np.vstack(rows)
    gram = pairing_matrix(rows, rows, lattice.p)
    bad = np.argwhere(gram != 0)
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise NoncommutingTermsError(
            f"terms {entries[i]} and {entries[j]} do not commute"
        )
    return HamiltonianInstance(lattice, symbols, tuple(entries), rows)


def syndrome(op: PhasedPauli, h: HamiltonianInstance) -> dict:
    """Nonzero commutation exponents of the operator against each term:
    op . P = omega^k P . op for the term P at the reported key."""
    vals = pairing_matrix(h.rows, op.to_symplectic(), h.lattice.p)[:, 0]
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


@dataclass(frozen=True)
class _Mover:
    """A one-step charge transporter, stored shift-covariantly as
    (generator index, offset, exponent) factors so the same solution
    can be stamped out anywhere on the torus."""

    step: tuple[int, ...]
    factors: tuple[tuple[int, tuple[int, ...], int], ...]


def _solve_mover(
    h: HamiltonianInstance, cols, step, charge: int, family: int
) -> _Mover:
    """Solve for a product of generator translates whose syndrome is
    +charge one step away from -charge at the origin."""
    lat = h.lattice
    target = np.zeros(len(h.entries), dtype=np.int64)
    target[h.index_of(family, lat.resolve(step))] = charge % lat.p
    target[h.index_of(family, (0,) * lat.dims)] = -charge % lat.p
    spread = max(max(c.spread() for c in cols), 1)
    for margin in (spread, spread + 1):
        cands = [(j, off) for off in _segment_box(step, margin)
                 for j in range(len(cols))]
        placed = [instantiate_column(lat, cols[j], off) for j, off in cands]
        mat = pairing_matrix(h.rows, placed, lat.p)
        coeffs = solve(mat, target, lat.p)
        if coeffs is not None:
            break
    else:
        raise InfeasibleHopError(
            f"no one-step transporter for charge {charge} along {tuple(step)}"
        )
    factors = tuple(
        (j, off, int(c)) for (j, off), c in zip(cands, coeffs) if c
    )
    return _Mover(step=tuple(step), factors=factors)


def _stamp(h: HamiltonianInstance, cols, mover: _Mover, at) -> PhasedPauli:
    lat = h.lattice
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    for j, off, c in mover.factors:
        site = tuple(a + o for a, o in zip(at, off))
        factor = PhasedPauli.from_symplectic(
            lat.p, instantiate_column(lat, cols[j], site)
        )
        for _ in range(c):
            op = op * factor
    return op


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
    is stamped out by translation, which an open boundary breaks."""
    lat = h.lattice
    if not lat.periodic:
        raise InstantiationError("string operators need a torus")
    cols = _columns(generators)
    mover = _solve_mover(h, cols, direction, charge, family)
    op = PhasedPauli.identity(lat.p, lat.n_qudits)
    for m in range(length):
        at = tuple(j + m * d for j, d in zip(junction, direction))
        op = _stamp(h, cols, mover, at) * op
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


@dataclass(frozen=True)
class SpinReport:
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


def _cyclo_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    full = np.convolve(a, b)
    out = full[:p].copy()
    out[: len(full) - p] += full[p:]
    return out


def _cyclo_conj(a: np.ndarray) -> np.ndarray:
    return a[(-np.arange(len(a))) % len(a)]


def _cyclo_equal_int(a: np.ndarray, value: int) -> bool:
    # a - value is a multiple of 1 + z + ... + z^(p-1) iff all its
    # coefficients agree.
    diff = a.astype(np.int64).copy()
    diff[0] -= value
    return bool(np.all(diff == diff[0]))


# exp(2 pi i k / 8) for k = 0..7, as sympy prints it.
_EIGHTH_ROOT_TEXT = ("1", "exp(I*pi/4)", "I", "exp(3*I*pi/4)", "-1",
                     "exp(-3*I*pi/4)", "-I", "exp(-I*pi/4)")


@dataclass(frozen=True)
class GaussSumReport:
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
    s = np.zeros(p, dtype=np.int64)
    for t in exps:
        s[t] += 1
    if not _cyclo_equal_int(_cyclo_mul(s, _cyclo_conj(s), p), n):
        raise NotModularError("|sum of spins|^2 differs from the anyon count")
    square = _cyclo_mul(s, s, p)
    omega = np.exp(2j * np.pi / p)
    value = complex(sum(int(c) * omega ** k for k, c in enumerate(s)))
    if _cyclo_equal_int(square, n):
        k = 0 if value.real > 0 else 4
    elif _cyclo_equal_int(square, -n):
        k = 2 if value.imag > 0 else 6
    else:
        raise NotModularError("sum of spins squares to neither +n nor -n")
    return GaussSumReport(eighth_root_exponent=k)
