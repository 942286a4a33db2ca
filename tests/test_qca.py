"""Tests for symplectic validation and the blend lift."""

import pytest

from helpers import XI_Z3_INV_ROWS, XI_Z3_ROWS, full_spec, mat, xz_chain_spec, z3_spec
from invsub.laurent import LaurentMatrix, LaurentPoly
from invsub.pauli import (
    NotInvertibleError,
    SubalgebraSpec,
    brauer_tensor,
    commutant_generators,
)
from invsub.qca import (
    CliffordQCA,
    NotSymplecticError,
    block_direct_sum,
    is_symplectic,
    lift_to_qca,
    qca_compose,
    qca_inverse,
    shift_qca,
)


def promoted_projector_blocks():
    """The frozen projector of the qutrit example, re-read on 3 axes."""
    two_id = LaurentMatrix.identity(3, 3, 2).scale(2)
    xi = mat(3, 3, XI_Z3_ROWS)
    xi_inv = mat(3, 3, XI_Z3_INV_ROWS)
    return two_id.hstack(xi_inv).vstack(xi.hstack(two_id))


def test_identity_and_shift_are_symplectic():
    assert CliffordQCA.identity(3, 2, 2).spread == 0
    s = shift_qca(3, 1, 2, axis=0)
    assert is_symplectic(s.matrix, 1)
    assert s.spread == 1


def test_x_only_shift_rejected():
    z = LaurentPoly.zero(2, 1)
    x = LaurentPoly.variable(0, 2, 1)
    one = LaurentPoly.one(2, 1)
    m = LaurentMatrix(2, 1, [[x, z], [z, one]])
    assert not is_symplectic(m, 1)
    with pytest.raises(NotSymplecticError):
        CliffordQCA(2, 1, 1, m)


def test_wrong_shape_not_symplectic():
    assert not is_symplectic(LaurentMatrix.identity(3, 2, 3), 1)


def test_lift_z3_matrix_value():
    u = lift_to_qca(z3_spec())
    assert (u.p, u.q, u.dims) == (3, 2, 3)
    pi = promoted_projector_blocks()
    z = LaurentPoly.variable(2, 3, 3)
    ident = LaurentMatrix.identity(3, 3, 4)
    assert u.matrix == pi + (ident - pi).map(lambda f: f * z)
    assert u.spread == 1
    assert u.matrix != ident


def test_lift_fixes_span_and_shifts_commutant():
    # The defining action: generators are fixed sheet-by-sheet, commutant
    # generators move one step along the new axis.
    spec = z3_spec()
    u = lift_to_qca(spec)
    z = LaurentPoly.variable(2, 3, 3)

    def promote(m):
        return LaurentMatrix(3, 3, [[LaurentPoly(3, 3, {e + (0,): c for e, c in f.terms.items()})
                                     for f in row] for row in m.entries])

    v = promote(spec.generators)
    assert u.matrix @ v == v
    c = promote(commutant_generators(spec).generators)
    assert u.matrix @ c == c.map(lambda f: f * z)


def test_lift_inverse_swaps_blend_direction():
    u = lift_to_qca(z3_spec())
    inv = qca_inverse(u)
    pi = promoted_projector_blocks()
    zinv = LaurentPoly.variable(2, 3, 3, power=-1)
    ident = LaurentMatrix.identity(3, 3, 4)
    assert inv.matrix == pi + (ident - pi).map(lambda f: f * zinv)
    assert inv.spread == u.spread
    both = qca_compose(u, inv)
    assert both.matrix == ident


def test_lift_full_spec_is_identity():
    u = lift_to_qca(full_spec())
    assert u.matrix == LaurentMatrix.identity(3, 3, 2)


def test_lift_empty_spec_is_uniform_shift():
    empty = SubalgebraSpec(3, 1, 2, LaurentMatrix.zeros(3, 2, 2, 0))
    u = lift_to_qca(empty)
    assert u.matrix == shift_qca(3, 1, 3, axis=2).matrix


def test_lift_requires_invertibility():
    with pytest.raises(NotInvertibleError):
        lift_to_qca(xz_chain_spec())


def test_shift_group_laws():
    s1 = shift_qca(3, 1, 2, axis=1)
    assert qca_compose(s1, s1).matrix == shift_qca(3, 1, 2, axis=1, power=2).matrix
    assert qca_inverse(s1).matrix == shift_qca(3, 1, 2, axis=1, power=-1).matrix
    with pytest.raises(ValueError):
        shift_qca(3, 1, 2, axis=2)


def test_compose_ring_mismatch():
    with pytest.raises(ValueError):
        qca_compose(CliffordQCA.identity(3, 1, 2), CliffordQCA.identity(3, 1, 3))


def test_direct_sum_matches_tensor_lift():
    spec = z3_spec()
    u = lift_to_qca(spec)
    double = lift_to_qca(brauer_tensor(spec, spec))
    assert block_direct_sum(u, u).matrix == double.matrix


def test_direct_sum_of_shifts():
    a = shift_qca(3, 1, 2, axis=0)
    b = shift_qca(3, 2, 2, axis=0)
    s = block_direct_sum(a, b)
    assert s.matrix == shift_qca(3, 3, 2, axis=0).matrix


def test_direct_sum_of_unequal_registers():
    # Registers of different sizes, with nonzero off-diagonal quadrants.
    u = lift_to_qca(z3_spec())
    v = shift_qca(3, 1, u.dims, axis=1, power=2)
    m = block_direct_sum(u, v).matrix
    q = u.q + v.q
    on_u = [*range(u.q), *range(q, q + u.q)]
    on_v = [*range(u.q, q), *range(q + u.q, 2 * q)]
    assert m.submatrix(on_u, on_u) == u.matrix
    assert m.submatrix(on_v, on_v) == v.matrix
    assert m.submatrix(on_u, on_v).is_zero() and m.submatrix(on_v, on_u).is_zero()
