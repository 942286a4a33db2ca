"""Clifford QCA symbols and the blend lift of an invertible subalgebra.

A Clifford QCA on the symbol level is an invertible 2q x 2q matrix U
over the Laurent ring satisfying bar(U)^T lambda U = lambda; it acts on
symbol columns by multiplication and preserves all commutation data.

The central construction: given a subalgebra spec whose commutant
projector Pi exists, stack copies of the lattice along one new axis
(variable appended last) and set U = Pi + z (id - Pi).  U translates the
commutant by one sheet while leaving the subalgebra span alone, and the
projector identity bar(Pi)^T lambda = lambda Pi makes U exactly
symplectic.  Its inverse is Pi + z^-1 (id - Pi).
"""

from __future__ import annotations

from ._frozen import Frozen
from .laurent import LaurentMatrix, LaurentPoly
from .pauli import SubalgebraSpec, build_projector, register_sum, symplectic_form


class NotSymplecticError(ValueError):
    """Matrix fails bar(U)^T lambda U = lambda."""


def is_symplectic(m: LaurentMatrix, q: int) -> bool:
    if m.shape != (2 * q, 2 * q):
        return False
    lam = symplectic_form(m.p, q, m.nvars)
    return (m.bar_transpose() @ lam @ m) == lam


class CliffordQCA(Frozen):
    """Validated symplectic symbol matrix; dims counts lattice axes."""

    __slots__ = ("p", "q", "dims", "matrix")

    def __init__(self, p: int, q: int, dims: int, matrix: LaurentMatrix):
        if matrix.p != p or matrix.nvars != dims:
            raise ValueError("matrix ring does not match QCA parameters")
        if not is_symplectic(matrix, q):
            raise NotSymplecticError("matrix is not symplectic under bar-transpose")
        self._set(p=p, q=q, dims=dims, matrix=matrix)

    @property
    def spread(self) -> int:
        return self.matrix.spread()

    @classmethod
    def identity(cls, p: int, q: int, dims: int) -> "CliffordQCA":
        return cls(p, q, dims, LaurentMatrix.identity(p, dims, 2 * q))


def _promote(m: LaurentMatrix) -> LaurentMatrix:
    """Re-read a matrix as living on a lattice with one more axis (new
    exponent slot appended, always zero; the packed keys stay)."""
    return LaurentMatrix(m.p, m.nvars + 1,
                         [[f.promote() for f in row] for row in m.entries])


def promote_spec(spec: SubalgebraSpec) -> SubalgebraSpec:
    """The same subalgebra viewed sheet-by-sheet on a lattice with one
    more axis; generators gain a trailing zero exponent."""
    return SubalgebraSpec(spec.p, spec.q, spec.dims + 1,
                          _promote(spec.generators))


def lift_to_qca(spec: SubalgebraSpec) -> CliffordQCA:
    """The blend QCA of an invertible spec, on dims + 1 axes.

    Requires the commutant projector; raises NotInvertibleError or
    ProjectorUnavailableError from the projector construction otherwise.
    """
    proj = build_projector(spec)
    pi = _promote(proj.matrix)
    dims = spec.dims + 1
    z = LaurentPoly.variable(dims - 1, spec.p, dims)
    ident = LaurentMatrix.identity(spec.p, dims, 2 * spec.q)
    u = pi + (ident - pi).map(lambda f: f * z)
    return CliffordQCA(spec.p, spec.q, dims, u)


def qca_compose(first: CliffordQCA, second: CliffordQCA) -> CliffordQCA:
    """The QCA acting as `first` then `second` (matrix product second @ first)."""
    if (first.p, first.q, first.dims) != (second.p, second.q, second.dims):
        raise ValueError("QCAs act on different lattices")
    return CliffordQCA(first.p, first.q, first.dims, second.matrix @ first.matrix)


def qca_inverse(u: CliffordQCA) -> CliffordQCA:
    """lambda^-1 bar(U)^T lambda, the group inverse (lambda^-1 = -lambda)."""
    lam = symplectic_form(u.p, u.q, u.dims)
    inv = lam.scale(-1) @ u.matrix.bar_transpose() @ lam
    return CliffordQCA(u.p, u.q, u.dims, inv)


def shift_qca(p: int, q: int, dims: int, axis: int, power: int = 1) -> CliffordQCA:
    """Uniform lattice translation along one axis: X and Z rows both
    pick up the monomial, so commutation is untouched."""
    if not 0 <= axis < dims:
        raise ValueError(f"axis {axis} out of range for {dims} axes")
    mono = LaurentPoly.variable(axis, p, dims, power)
    m = LaurentMatrix.identity(p, dims, 2 * q).map(lambda f: f * mono)
    return CliffordQCA(p, q, dims, m)


def block_direct_sum(a: CliffordQCA, b: CliffordQCA) -> CliffordQCA:
    """Run two QCAs on disjoint qudit registers of the same lattice.

    The images of the X generators (the first q columns) join on the
    joint register as `brauer_tensor` joins generators, and so do the
    images of the Z generators; each of the four q x q quadrants of the
    factors lands in the matching quadrant of the result as a diagonal
    block.
    """
    if (a.p, a.dims) != (b.p, b.dims):
        raise ValueError("QCAs live on different lattices")
    qa, qb = a.q, b.q

    def half(m, q, j):
        return m.submatrix(range(2 * q), range(j * q, (j + 1) * q))

    x, z = (register_sum(half(a.matrix, qa, j), qa, half(b.matrix, qb, j), qb)
            for j in (0, 1))
    return CliffordQCA(a.p, qa + qb, a.dims, x.hstack(z))
