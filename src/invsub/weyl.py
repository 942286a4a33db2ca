"""Finite-register Weyl (generalized Pauli) operators with exact phases.

An operator is omega^c X^a Z^b over a register of m p-dimensional
qudits, with a, b exponent vectors and omega the primitive p-th root of
unity.  The phase exponent c is tracked exactly through products,
inverses, and conjugation — including p = 2, where c is the sign bit and
ordering effects that vanish at the symbol level become visible.
The exponents are tuples of Python ints, so this module, and with it
`invsub dist`, never imports numpy; `anyon_lab` does its heavy products
on numpy symplectic rows and builds a `PhasedPauli` only for a result.

Operator-norm distances between phased Paulis are tiny exact
expressions: a unitary's distance to the identity depends only on its
spectrum, and a Pauli's spectrum is read off its symbol and phase.
Every such distance is 2 sin(pi t) for a rational t in [0, 1/2], and
it has one exact value: its text, as sympy prints 2 sin(pi t), written
from integers (a table holds the five angles whose sine sympy writes in
radicals).  Its correctly rounded float comes from fixed-point integer
arithmetic.  Neither needs sympy.

`dist_bounded` compares two Pauli conjugations over every Pauli on a
few sites.  Their difference on any Pauli is a scalar, and the largest
support-normalized distance always sits on one site, so it is found in
closed form, by a modular inverse, with no candidate built.
"""

from __future__ import annotations

import functools
import math
from operator import mul
from typing import NamedTuple

from ._frozen import Frozen, Keyed

# The most candidate Paulis `dist_bounded` accepts in one call.  It
# scores them in closed form without building any (0.03 ms for one
# qudit at p = 997 on a 2-core x86-64 VM), so the bound only fixes
# which inputs are refused.
MAX_CANDIDATES = 10 ** 6


class CandidateCountError(ValueError):
    """More candidate Paulis than `MAX_CANDIDATES` would be scored."""


class Exponents(tuple):
    """An exponent vector: a tuple of Python ints in [0, p).  `tolist`
    gives them as a list, as numpy's does."""

    __slots__ = ()

    def tolist(self) -> list[int]:
        return list(self)


def _vec(v, p: int) -> Exponents:
    """v reduced mod p; v is any 1-d sequence of integers, a numpy
    array included."""
    if hasattr(v, "tolist"):
        v = v.tolist()
    try:
        return Exponents([int(x) % p for x in v])
    except TypeError:
        raise ValueError("exponent vectors must be 1-d") from None


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


class PhasedPauli(Keyed):
    """omega^phase X^a Z^b on a register of len(a) qudits; immutable,
    with a and b `Exponents` (tuples of ints reduced mod p) and the
    phase in [0, p)."""

    __slots__ = ("p", "phase", "a", "b")

    def __init__(self, p: int, phase: int, a, b):
        a, b = _vec(a, p), _vec(b, p)
        if len(a) != len(b):
            raise ValueError("X and Z exponent vectors differ in length")
        self._set(p=p, phase=phase % p, a=a, b=b)

    @classmethod
    def _of(cls, p: int, phase: int, a: Exponents, b: Exponents
            ) -> "PhasedPauli":
        # Operands already reduced: the arithmetic below builds its
        # results here, without `__init__`'s checks.
        w = object.__new__(cls)
        object.__setattr__(w, "p", p)
        object.__setattr__(w, "phase", phase % p)
        object.__setattr__(w, "a", a)
        object.__setattr__(w, "b", b)
        return w

    @classmethod
    def identity(cls, p: int, m: int) -> "PhasedPauli":
        zeros = Exponents([0] * m)
        return cls._of(p, 0, zeros, zeros)

    @classmethod
    def from_symplectic(cls, p: int, row, phase: int = 0) -> "PhasedPauli":
        """Build from a length-2m symplectic row (X half | Z half)."""
        if hasattr(row, "tolist"):
            row = row.tolist()
        m = len(row) // 2
        return cls(p, phase, row[:m], row[m:])

    def to_symplectic(self) -> Exponents:
        return Exponents(self.a + self.b)

    @property
    def size(self) -> int:
        return len(self.a)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, (x, z) in enumerate(zip(self.a, self.b))
                     if x or z)

    def is_scalar(self) -> bool:
        return not (any(self.a) or any(self.b))

    def _check_register(self, other: "PhasedPauli") -> None:
        if self.p != other.p or self.size != other.size:
            raise ValueError("operators act on different registers")

    def __mul__(self, other: "PhasedPauli") -> "PhasedPauli":
        self._check_register(other)
        p = self.p
        # Z factors of the left operand sweep past X factors of the right.
        cross = _dot(self.b, other.a)
        return PhasedPauli._of(
            p,
            self.phase + other.phase + cross,
            Exponents([(x + y) % p for x, y in zip(self.a, other.a)]),
            Exponents([(x + y) % p for x, y in zip(self.b, other.b)]),
        )

    def __pow__(self, c: int) -> "PhasedPauli":
        """W^c in closed form, for any integer c: the k-th product of W
        with W^k picks up k (b.a) from the Z factors sweeping past the X
        factors, so W^c = omega^(c phase + C(c, 2) b.a) X^(ca) Z^(cb)."""
        p = self.p
        cross = _dot(self.b, self.a) % p
        k = c % p
        return PhasedPauli._of(p, c * self.phase + c * (c - 1) // 2 * cross,
                               Exponents([k * x % p for x in self.a]),
                               Exponents([k * z % p for z in self.b]))

    def dagger(self) -> "PhasedPauli":
        p = self.p
        return PhasedPauli._of(p, -self.phase + _dot(self.a, self.b),
                               Exponents([-x % p for x in self.a]),
                               Exponents([-z % p for z in self.b]))

    def scale_phase(self, k: int) -> "PhasedPauli":
        return PhasedPauli._of(self.p, self.phase + k, self.a, self.b)

    def commutator_exponent(self, other: "PhasedPauli") -> int:
        """W1 W2 = omega^k W2 W1 with this k."""
        self._check_register(other)
        return (_dot(self.b, other.a) - _dot(other.b, self.a)) % self.p

    def _key(self) -> tuple:
        return self.p, self.phase, self.a, self.b

    def __repr__(self) -> str:
        return (f"PhasedPauli(p={self.p}, phase={self.phase}, "
                f"a={self.a.tolist()}, b={self.b.tolist()})")


class PauliConjugation(Frozen):
    """The automorphism W -> U W U^dagger for a fixed phased Pauli U.

    Symbols are preserved; only phases move, by the commutator pairing
    of U against the argument.
    """

    __slots__ = ("conjugator",)

    def __init__(self, conjugator: PhasedPauli):
        self._set(conjugator=conjugator)

    def apply(self, w: PhasedPauli) -> PhasedPauli:
        return w.scale_phase(self.conjugator.commutator_exponent(w))


def _spectral_class(r: PhasedPauli) -> tuple:
    """All that ||id - R|| depends on, for R over a fixed p: the phase
    of a scalar, the X/Z overlap parity of a nonscalar qubit Pauli, and
    nothing else for a nonscalar Pauli over odd p."""
    if r.is_scalar():
        return ("scalar", r.phase)
    if r.p == 2:
        return ("qubit", _dot(r.a, r.b) % 2)
    return ("odd",)


def _class_angle(kind: tuple, p: int) -> tuple[int, int]:
    """The t = n / d in [0, 1/2], in lowest terms, with ||id - R|| =
    2 sin(pi t) for R of this spectral class."""
    if kind[0] == "scalar":
        k = kind[1] % p
        n, d = min(k, p - k), p
    elif kind[0] == "qubit":
        n, d = (1, 2) if kind[1] == 0 else (1, 4)
    else:
        n, d = p - 1, 2 * p
    g = math.gcd(n, d)
    return n // g, d // g


# Bits after the binary point of the fixed-point pi and sine below.
_FIXED_BITS = 320


def _arctan_inverse(n: int) -> int:
    """atan(1/n) in fixed point, by its Taylor series."""
    power = (1 << _FIXED_BITS) // n
    total, k = power, 1
    while power:
        power //= n * n
        k += 2
        total += -(power // k) if k % 4 == 3 else power // k
    return total


@functools.cache
def _fixed_pi() -> int:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239).
    return 16 * _arctan_inverse(5) - 4 * _arctan_inverse(239)


def _fixed_sin_pi(n: int, d: int) -> int:
    """sin(pi n / d) in fixed point for n / d in [0, 1/2], by its Taylor
    series; the error is a few units in the last of `_FIXED_BITS`
    places."""
    x = _fixed_pi() * n // d
    x2 = x * x >> _FIXED_BITS
    term, total, k = x, x, 1
    while term:
        term = -(term * x2 >> _FIXED_BITS) // ((k + 1) * (k + 2))
        total += term
        k += 2
    return total


def _scored(kind: tuple, p: int, size: int) -> float:
    """2 sin(pi t) / size for the class's t, rounded once to a float."""
    # Python's int / int is correctly rounded.
    return (2 * _fixed_sin_pi(*_class_angle(kind, p))
            / (size << _FIXED_BITS))


# 2 sin(pi t) = coefficient * factor, for the t of a class whose sine
# sympy evaluates, with the factor as sympy prints it.
_CLOSED_SINES = {
    (1, 2): (2, ""),
    (1, 3): (1, "sqrt(3)"),
    (1, 4): (1, "sqrt(2)"),
    (1, 5): (2, "sqrt(5/8 - sqrt(5)/8)"),
    (2, 5): (2, "sqrt(sqrt(5)/8 + 5/8)"),
}


def _class_text(kind: tuple, p: int, size: int) -> str:
    """2 sin(pi t) / size for the class's t, as sympy prints it."""
    n, d = _class_angle(kind, p)
    if n == 0:
        return "0"
    # Every other t a class reaches has a prime denominator of at least
    # 7, and sympy leaves its sine unevaluated.
    coefficient, factor = _CLOSED_SINES.get(
        (n, d), (2, f"sin({'' if n == 1 else f'{n}*'}pi/{d})"))
    g = math.gcd(coefficient, size)
    num, den = coefficient // g, size // g
    if not factor:
        return str(num) if den == 1 else f"{num}/{den}"
    return (("" if num == 1 else f"{num}*") + factor
            + ("" if den == 1 else f"/{den}"))


def unitary_distance_to_identity(r: PhasedPauli) -> BoundedDistance:
    """Operator norm ||id - R|| for a phased Pauli R, exactly.

    A scalar omega^c sits at distance 2 sin(pi c / p).  A nonscalar
    Pauli is traceless with spectrum closed under omega-rotation for odd
    p, so every p-th root of unity is an eigenvalue and the phase drops
    out.  Over qubits the square of a nonscalar Pauli is +-id by the
    X/Z overlap parity, putting the spectrum at {+-1} or {+-i}.
    """
    return BoundedDistance(_spectral_class(r), r.p, 1, r)


def unitary_distance(w1: PhasedPauli, w2: PhasedPauli) -> BoundedDistance:
    """||W1 - W2|| in operator norm (both unitary, so this is the
    distance from id to W1^dagger W2, which is the record's witness).

    Public API for comparing two phased Paulis.  `dist_bounded` does
    not call it: it scores the spectral class of alpha(W)^dagger beta(W)
    by the closed form behind `unitary_distance_to_identity`.
    """
    return unitary_distance_to_identity(w1.dagger() * w2)


class BoundedDistance(NamedTuple):
    """The distance 2 sin(pi t) / size of a spectral class scored on
    `size` sites, and the Pauli that reaches it: the first candidate
    for `dist_bounded`, R itself for `unitary_distance_to_identity`."""

    kind: tuple
    p: int
    size: int
    witness: PhasedPauli

    @property
    def numeric(self) -> float:
        """The distance, correctly rounded to a float."""
        return _scored(self.kind, self.p, self.size)

    @property
    def value(self) -> str:
        """The exact distance, as sympy prints it (`2`, `sqrt(3)/2`,
        `2*sin(3*pi/7)`, ...)."""
        return _class_text(self.kind, self.p, self.size)


def _check_candidate_count(p: int, m: int, max_support: int) -> None:
    total = 0
    for size in range(1, min(max_support, m) + 1):
        # Each term is at least 3^size, so this stops within a few steps.
        total += math.comb(m, size) * (p * p - 1) ** size
        if total > MAX_CANDIDATES:
            raise CandidateCountError(
                f"{m} qudits over F_{p} carry more than weyl.MAX_CANDIDATES"
                f" = {MAX_CANDIDATES} Paulis on up to {max_support} sites"
            )


def dist_bounded(alpha, beta, p: int, m: int, max_support: int = 2
                 ) -> BoundedDistance:
    """Support-normalized distance between two Pauli conjugations of the
    phased-Pauli algebra of m qudits.

    The maximum of ||alpha(W) - beta(W)|| / |supp W| over every Pauli W
    on at most ``max_support`` sites, with the first W that reaches it
    in scan order: support size, then `itertools.combinations` support,
    then per-site exponents X^x Z^z in (x, z) order, (0, 0) skipped.

    For conjugations by U and by V, (U W U^dagger)^dagger V W V^dagger
    is the scalar omega^c, with c the commutator exponent of D = V - U
    (symbols) with W, so W scores 2 sin(pi min(c, p - c) / p) / |supp W|
    <= 2 / |supp W|.  If D is zero, every W scores 0 and the first one,
    Z on site 0, is kept.  Otherwise c is a nonzero linear form of the
    exponents on the first site where D is nonzero, so one Pauli there
    reaches min(c, p - c) = p // 2 and scores at least sqrt(3), more
    than any W on two or more sites, and every W before that site scores
    0: the witness is that site's first maximizer, found by a modular
    inverse.

    Anything but two `PauliConjugation`s raises `TypeError`.  More than
    ``MAX_CANDIDATES`` candidates raise `CandidateCountError`, and a
    negative ``max_support`` raises `ValueError`.
    """
    if not (isinstance(alpha, PauliConjugation)
            and isinstance(beta, PauliConjugation)):
        raise TypeError("dist_bounded takes two PauliConjugations, not "
                        f"{type(alpha).__name__} and {type(beta).__name__}")
    if max_support < 0:
        raise ValueError(f"max_support {max_support} is negative")
    _check_candidate_count(p, m, max_support)
    u, v = alpha.conjugator, beta.conjugator
    if {u.p, v.p} != {p} or {u.size, v.size} != {m}:
        raise ValueError("conjugators act on a different register")
    a, b = [0] * m, [0] * m
    if min(max_support, m) == 0:
        # No candidate: distance 0, with the identity as witness.
        return BoundedDistance(("scalar", 0), p, 1, PhasedPauli(p, 0, a, b))
    for site in range(m):
        dx, dz = v.a[site] - u.a[site], v.b[site] - u.b[site]
        if dx or dz:
            break
    else:
        b[0] = 1
        return BoundedDistance(("scalar", 0), p, 1, PhasedPauli(p, 0, a, b))
    # c = dz x - dx z.  A site's candidates start X^0 Z^1, ..., X^0 Z^(p-1),
    # so with dx nonzero the first to reach c = t has x = 0 and
    # z = t / -dx; with dx zero, c = dz x, and it has z = 0 and x = t / dz.
    coefficient, exponents = (-dx, b) if dx else (dz, a)
    exponents[site], c = min((t * pow(coefficient, -1, p) % p, t)
                             for t in (p // 2, p - p // 2))
    return BoundedDistance(("scalar", c), p, 1, PhasedPauli(p, 0, a, b))
