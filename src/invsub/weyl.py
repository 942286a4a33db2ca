"""Finite-register Weyl (generalized Pauli) operators with exact phases.

An operator is omega^c X^a Z^b over a register of m p-dimensional
qudits, with a, b exponent vectors and omega the primitive p-th root of
unity.  The phase exponent c is tracked exactly through products,
inverses, and conjugation — including p = 2, where c is the sign bit and
ordering effects that vanish at the symbol level become visible.

Operator-norm distances between phased Paulis are tiny exact
expressions: a unitary's distance to the identity depends only on its
spectrum, and a Pauli's spectrum is read off its symbol and phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _vec(v, p: int) -> np.ndarray:
    arr = np.asarray(v, dtype=np.int64) % p
    if arr.ndim != 1:
        raise ValueError("exponent vectors must be 1-d")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PhasedPauli:
    """omega^phase X^a Z^b on a register of len(a) qudits."""

    p: int
    phase: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a, self.p))
        object.__setattr__(self, "b", _vec(self.b, self.p))
        if self.a.shape != self.b.shape:
            raise ValueError("X and Z exponent vectors differ in length")
        object.__setattr__(self, "phase", self.phase % self.p)

    @classmethod
    def identity(cls, p: int, m: int) -> "PhasedPauli":
        return cls(p, 0, np.zeros(m, np.int64), np.zeros(m, np.int64))

    @classmethod
    def from_symplectic(cls, p: int, row, phase: int = 0) -> "PhasedPauli":
        """Build from a length-2m symplectic row (X half | Z half)."""
        row = np.asarray(row, dtype=np.int64)
        m = row.shape[0] // 2
        return cls(p, phase, row[:m], row[m:])

    def to_symplectic(self) -> np.ndarray:
        return np.concatenate([self.a, self.b])

    @property
    def size(self) -> int:
        return self.a.shape[0]

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in
                     np.nonzero((self.a != 0) | (self.b != 0))[0])

    def is_scalar(self) -> bool:
        return not (self.a.any() or self.b.any())

    def is_identity(self) -> bool:
        return self.is_scalar() and self.phase == 0

    def __mul__(self, other: "PhasedPauli") -> "PhasedPauli":
        if self.p != other.p or self.size != other.size:
            raise ValueError("operators act on different registers")
        # Z factors of the left operand sweep past X factors of the right.
        cross = int(np.dot(self.b, other.a)) % self.p
        return PhasedPauli(
            self.p,
            self.phase + other.phase + cross,
            self.a + other.a,
            self.b + other.b,
        )

    def dagger(self) -> "PhasedPauli":
        cross = int(np.dot(self.a, self.b)) % self.p
        return PhasedPauli(self.p, -self.phase + cross, -self.a, -self.b)

    def scale_phase(self, k: int) -> "PhasedPauli":
        return PhasedPauli(self.p, self.phase + k, self.a, self.b)

    def permute(self, perm) -> "PhasedPauli":
        perm = np.asarray(perm, dtype=np.int64)
        return PhasedPauli(self.p, self.phase, self.a[perm], self.b[perm])

    def commutator_exponent(self, other: "PhasedPauli") -> int:
        """W1 W2 = omega^k W2 W1 with this k."""
        return (int(np.dot(self.b, other.a)) -
                int(np.dot(other.b, self.a))) % self.p

    def commutes_with(self, other: "PhasedPauli") -> bool:
        return self.commutator_exponent(other) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhasedPauli)
            and self.p == other.p
            and self.phase == other.phase
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.phase, self.a.tobytes(), self.b.tobytes()))

    def __repr__(self) -> str:
        return (f"PhasedPauli(p={self.p}, phase={self.phase}, "
                f"a={self.a.tolist()}, b={self.b.tolist()})")


@dataclass(frozen=True)
class PauliConjugation:
    """The automorphism W -> U W U^dagger for a fixed phased Pauli U.

    Symbols are preserved; only phases move, by the commutator pairing
    of U against the argument.
    """

    conjugator: PhasedPauli

    def apply(self, w: PhasedPauli) -> PhasedPauli:
        return w.scale_phase(self.conjugator.commutator_exponent(w))


def _spectral_class(r: PhasedPauli) -> tuple:
    """All that ||id - R|| depends on, for R over a fixed p: the phase
    of a scalar, the X/Z overlap parity of a nonscalar qubit Pauli, and
    nothing else for a nonscalar Pauli over odd p."""
    if r.is_scalar():
        return ("scalar", r.phase)
    if r.p == 2:
        return ("qubit", int(np.dot(r.a, r.b)) % 2)
    return ("odd",)


def unitary_distance_to_identity(r: PhasedPauli) -> sp.Expr:
    """Operator norm ||id - R|| for a phased Pauli R, exactly.

    A scalar omega^c sits at distance 2 sin(pi c / p).  A nonscalar
    Pauli is traceless with spectrum closed under omega-rotation for odd
    p, so every p-th root of unity is an eigenvalue and the phase drops
    out.  Over qubits the square of a nonscalar Pauli is +-id by the
    X/Z overlap parity, putting the spectrum at {+-1} or {+-i}.
    """
    import sympy as sp

    p = r.p
    kind = _spectral_class(r)
    if kind[0] == "scalar":
        return 2 * sp.sin(sp.pi * sp.Rational(kind[1], p))
    if kind[0] == "qubit":
        return sp.Integer(2) if kind[1] == 0 else sp.sqrt(2)
    return 2 * sp.sin(sp.pi * sp.Rational((p - 1), 2 * p))


def unitary_distance(w1: PhasedPauli, w2: PhasedPauli) -> sp.Expr:
    """||W1 - W2|| in operator norm (both unitary, so this is the
    distance from id to W1^dagger W2)."""
    return unitary_distance_to_identity(w1.dagger() * w2)


def enumerate_support_paulis(p: int, m: int, support):
    """All phase-zero Paulis whose support is exactly the given index
    set, in deterministic order."""
    import itertools

    support = tuple(support)
    per_site = [(x, z) for x in range(p) for z in range(p) if (x, z) != (0, 0)]
    for combo in itertools.product(per_site, repeat=len(support)):
        a = np.zeros(m, dtype=np.int64)
        b = np.zeros(m, dtype=np.int64)
        for idx, (ai, bi) in zip(support, combo):
            a[idx], b[idx] = ai, bi
        yield PhasedPauli(p, 0, a, b)


@dataclass(frozen=True)
class BoundedDistance:
    value: sp.Expr
    witness: PhasedPauli

    @property
    def numeric(self) -> float:
        return float(self.value.evalf(50))


def dist_bounded(alpha, beta, p: int, m: int, max_support: int = 2
                 ) -> BoundedDistance:
    """Support-normalized distance between two automorphisms of the
    phased-Pauli algebra of m qudits.

    Scans every Pauli supported on at most ``max_support`` sites and
    maximizes ||alpha(W) - beta(W)|| divided by the support size.  The
    maximum is an exact expression; comparisons between candidates use
    50-digit evaluation while the reported value stays symbolic.  The
    automorphisms are any objects with an ``apply(PhasedPauli)`` method.
    """
    import itertools

    import sympy as sp

    best = BoundedDistance(sp.Integer(0), PhasedPauli.identity(p, m))
    best_num = -1.0
    # A candidate's distance depends only on the spectral class of
    # alpha(W)^dagger beta(W) and on the support size, so each distinct
    # value is built and evaluated once.
    values = {}
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(m), size):
            for w in enumerate_support_paulis(p, m, support):
                r = alpha.apply(w).dagger() * beta.apply(w)
                key = (_spectral_class(r), size)
                if key not in values:
                    d = unitary_distance_to_identity(r) / size
                    values[key] = (d, float(d.evalf(50)))
                d, num = values[key]
                if num > best_num + 1e-40:
                    best, best_num = BoundedDistance(d, w), num
    return best
