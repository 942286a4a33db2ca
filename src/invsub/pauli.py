"""Translation-invariant Pauli subalgebras at the symbol level.

A subalgebra of the infinite qudit lattice generated by translates of
finitely many Pauli operators is encoded by a matrix V over the Laurent
ring: one column per generator, 2q rows per site (rows 1..q carry X-type
exponents, rows q+1..2q carry Z-type exponents).  Commutation data lives
in the antihermitian matrix Xi = bar(V)^T lambda V, where lambda is the
standard symplectic form.

The central decision procedure: the subalgebra is invertible (it and its
commutant jointly generate every local operator, with trivial
intersection) iff the smallest nonzero determinantal ideal of Xi is the
unit ideal and rank Xi = rank V over the fraction field.  The span's
center at a point is the kernel of Xi there restricted to the span of V,
so a rank gap leaves a center at every point even when the ideal is the
unit ideal; Xi = 0 with V nonzero (a commutative subalgebra, its own
center) is the rank-0 case of that gap.  When Xi is itself invertible
over the ring the commutant projector exists in closed form and
everything downstream (the projector, the QCA lift) is available.
When the criterion passes but Xi is singular the verdict is still
"invertible", with the projector honestly reported as unavailable.
"""

from __future__ import annotations

from typing import NamedTuple

from ._frozen import Keyed
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    NotAUnitError,
    determinantal_profile,
    DeterminantalProfile,
    matrix_inverse,
    matrix_rank,
)


class SpecShapeError(ValueError):
    """Generator matrix dimensions are inconsistent with (q, dims)."""


class NotInvertibleError(ValueError):
    """An operation needing an invertible subalgebra was given one that
    fails the determinantal criterion."""


class ProjectorUnavailableError(ValueError):
    """The invertibility criterion passes but Xi is singular, so the
    closed-form projector does not exist; reducing this case needs a
    congruence normal form that is out of scope here."""


class SubalgebraSpec(Keyed):
    """Finite presentation of a translation-invariant Pauli subalgebra.

    p: qudit dimension (prime); q: qudits per site; dims: number of
    lattice directions; generators: 2q x n matrix over F_p Laurent
    polynomials in dims variables.  Immutable; equal presentations are
    equal and hash alike.
    """

    __slots__ = ("p", "q", "dims", "generators")

    def __init__(self, p: int, q: int, dims: int, generators: LaurentMatrix):
        if generators.p != p or generators.nvars != dims:
            raise SpecShapeError("generator matrix ring does not match spec")
        if generators.rows != 2 * q:
            raise SpecShapeError(
                f"generator matrix has {generators.rows} rows, expected {2 * q}"
            )
        if q < 1 or dims < 1:
            raise SpecShapeError("need at least one qudit per site and one axis")
        self._set(p=p, q=q, dims=dims, generators=generators)

    def _key(self) -> tuple:
        return self.p, self.q, self.dims, self.generators

    @property
    def n_generators(self) -> int:
        return self.generators.cols

    @property
    def spread(self) -> int:
        return self.generators.spread()

    def x_block(self) -> LaurentMatrix:
        return self.generators.submatrix(range(self.q), range(self.n_generators))

    def z_block(self) -> LaurentMatrix:
        return self.generators.submatrix(
            range(self.q, 2 * self.q), range(self.n_generators)
        )

    def is_remark_form(self) -> bool:
        """True when V = (id; M): one generator per qudit with the X-part
        the identity, the shape produced by from_antihermitian."""
        if self.n_generators != self.q:
            return False
        return self.x_block() == LaurentMatrix.identity(self.p, self.dims, self.q)


def symplectic_form(p: int, q: int, nvars: int) -> LaurentMatrix:
    """The block form lambda_q = ((0, id), (-id, 0)) over the Laurent ring."""
    ident = LaurentMatrix.identity(p, nvars, q)
    zero = LaurentMatrix.zeros(p, nvars, q, q)
    return zero.hstack(ident).vstack(ident.scale(-1).hstack(zero))


def commutation_matrix(spec: SubalgebraSpec) -> LaurentMatrix:
    """Xi = bar(V)^T lambda V; entry (i, j) is the full commutation
    pairing polynomial between generator i and all translates of
    generator j."""
    lam = symplectic_form(spec.p, spec.q, spec.dims)
    return spec.generators.bar_transpose() @ lam @ spec.generators


def is_antihermitian(m: LaurentMatrix) -> bool:
    return m.bar_transpose() == m.scale(-1)


class InvertibilityCertificate(NamedTuple):
    """The verdict with its evidence: the determinantal profile of Xi,
    det Xi (zero when Xi is singular), and rank V over the fraction
    field, which the verdict compares with the profile's rank."""

    invertible: bool
    profile: DeterminantalProfile
    xi: LaurentMatrix
    determinant: LaurentPoly
    generator_rank: int

    @property
    def projector_available(self) -> bool:
        """Whether Xi is invertible: det Xi is a unit, a monomial.  A unit
        det Xi forces rank Xi = rank V = n and the unit ideal, so it
        implies the verdict."""
        return self.determinant.is_monomial()


def check_invertible(spec: SubalgebraSpec) -> InvertibilityCertificate:
    """Decide invertibility: the smallest nonzero determinantal ideal of
    Xi is the unit ideal and rank Xi = rank V.  The verdict is exact;
    projector availability additionally requires det Xi to be a unit."""
    xi = commutation_matrix(spec)
    profile = determinantal_profile(xi)
    generator_rank = matrix_rank(spec.generators)
    invertible = profile.is_unit and profile.rank == generator_rank
    # Xi is square; at full rank its one maximal minor is the only
    # generator of the profile's ideal, and below full rank det Xi = 0.
    if profile.rank == xi.rows:
        det = profile.ideal.generators[0]
    else:
        det = LaurentPoly.zero(spec.p, spec.dims)
    return InvertibilityCertificate(invertible, profile, xi, det,
                                    generator_rank)


def from_antihermitian(
    xi: LaurentMatrix, m: LaurentMatrix | None = None
) -> SubalgebraSpec:
    """Build the one-generator-per-qudit spec V = (id; M) realizing a
    prescribed commutation matrix Xi = M - bar(M)^T.

    For odd p the default M = (p+1)/2 * Xi works because Xi is
    antihermitian; for p = 2 no canonical half exists and M must be
    supplied (and is checked against Xi).
    """
    if xi.rows != xi.cols:
        raise SpecShapeError("commutation matrix must be square")
    if not is_antihermitian(xi):
        raise ValueError("matrix is not antihermitian under bar-transpose")
    p, nvars, n = xi.p, xi.nvars, xi.rows
    if m is None:
        if p == 2:
            raise ValueError(
                "over F_2 there is no canonical half of Xi; pass M explicitly"
            )
        m = xi.scale((p + 1) // 2)
    if m.shape != (n, n):
        raise SpecShapeError("M must match the shape of Xi")
    if m - m.bar_transpose() != xi:
        raise ValueError("M - bar(M)^T does not reproduce Xi")
    v = LaurentMatrix.identity(p, nvars, n).vstack(m)
    return SubalgebraSpec(p=p, q=n, dims=nvars, generators=v)


class CommutantProjector(NamedTuple):
    """The idempotent Pi = V Xi^-1 bar(V)^T lambda projecting the local
    symbol space onto the subalgebra's span along its commutant."""

    matrix: LaurentMatrix

    @property
    def spread(self) -> int:
        return self.matrix.spread()

    def complement(self) -> LaurentMatrix:
        p, nvars = self.matrix.p, self.matrix.nvars
        return LaurentMatrix.identity(p, nvars, self.matrix.rows) - self.matrix


def build_projector(spec: SubalgebraSpec) -> CommutantProjector:
    """Pi = V Xi^-1 bar(V)^T lambda.  Xi is inverted first: a unit det Xi
    implies the invertibility verdict, so `check_invertible` (the
    determinantal profile) runs only when Xi is singular, to tell a
    failed criterion from an unavailable projector."""
    try:
        xi_inverse = matrix_inverse(commutation_matrix(spec))
    except NotAUnitError:
        if not check_invertible(spec).invertible:
            raise NotInvertibleError(
                "subalgebra fails the invertibility criterion") from None
        raise ProjectorUnavailableError(
            "criterion passes but Xi is singular; projector unavailable"
        ) from None
    v = spec.generators
    lam = symplectic_form(spec.p, spec.q, spec.dims)
    pi = v @ xi_inverse @ v.bar_transpose() @ lam
    proj = CommutantProjector(pi)
    _validate_projector(spec, proj, lam)
    return proj


def _validate_projector(spec, proj, lam) -> None:
    pi = proj.matrix
    v = spec.generators
    if (pi @ pi) != pi:
        raise AssertionError("projector is not idempotent")
    if (pi @ v) != v:
        raise AssertionError("projector does not fix the generators")
    resid = v.bar_transpose() @ lam @ proj.complement()
    if not resid.is_zero():
        raise AssertionError("complement fails to commute with the generators")


def commutant_generators(spec: SubalgebraSpec) -> SubalgebraSpec:
    """Generators of the commutant subalgebra.

    For V = (id; M) the pairing of (u; w) against the generators is
    w - bar(M)^T u, so the commutant is exactly the graph (id; bar(M)^T)
    with no invertibility assumption at all.  Otherwise the columns of
    id - Pi span the commutant (zero columns dropped), which does need
    the projector.
    """
    if spec.is_remark_form():
        m = spec.z_block()
        v = LaurentMatrix.identity(spec.p, spec.dims, spec.q).vstack(
            m.bar_transpose()
        )
        return SubalgebraSpec(spec.p, spec.q, spec.dims, v)
    proj = build_projector(spec)
    comp = proj.complement()
    cols = [j for j in range(comp.cols) if not all(e.is_zero() for e in comp.column(j))]
    gen = comp.submatrix(range(comp.rows), cols)
    return SubalgebraSpec(spec.p, spec.q, spec.dims, gen)


def register_sum(v1: LaurentMatrix, q1: int, v2: LaurentMatrix, q2: int
                 ) -> LaurentMatrix:
    """Symbol columns on registers of q1 and q2 qudits per site, read on
    the joint register of q1 + q2: the X rows of v1 and v2 make one
    block-diagonal matrix, the Z rows another, stacked X over Z."""
    z = LaurentPoly.zero(v1.p, v1.nvars)
    e1 = [row + [z] * v2.cols for row in v1.entries]
    e2 = [[z] * v1.cols + row for row in v2.entries]
    return LaurentMatrix(v1.p, v1.nvars, e1[:q1] + e2[:q2] + e1[q1:] + e2[q2:])


def brauer_tensor(s1: SubalgebraSpec, s2: SubalgebraSpec) -> SubalgebraSpec:
    """Stack two specs on a shared lattice: q adds, generator lists
    concatenate, and the commutation matrix becomes the block sum."""
    if s1.p != s2.p or s1.dims != s2.dims:
        raise SpecShapeError("tensor factors live on different lattices")
    return SubalgebraSpec(s1.p, s1.q + s2.q, s1.dims,
                          register_sum(s1.generators, s1.q, s2.generators, s2.q))
