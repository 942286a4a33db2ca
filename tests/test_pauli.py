"""Tests for the symbol-level subalgebra layer.

Frozen expected values (the projector blocks, the inverse of the
commutation matrix) were computed with an independent symbolic oracle
before being asserted here.
"""

import json
import random
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invsub.pauli as pauli
from invsub.finite_oracle import (
    FiniteLattice,
    check_invertible_finite,
    instantiate_spec,
)
from invsub.laurent import LaurentMatrix, LaurentPoly, determinant
from invsub.pauli import (
    CommutantProjector,
    NotInvertibleError,
    ProjectorUnavailableError,
    SpecShapeError,
    SubalgebraSpec,
    brauer_tensor,
    build_projector,
    check_invertible,
    commutant_generators,
    commutation_matrix,
    from_antihermitian,
    is_antihermitian,
    symplectic_form,
)


from invsub.specio import parse_spec
from invsub.zoo import example_names, get_example, random_remark_spec

from helpers import (
    XI_Z3_INV_ROWS,
    XI_Z3_ROWS,
    full_spec,
    mat,
    non_graph_spec,
    with_repeated_columns,
    xz_chain_spec,
    z3_spec,
    z3_tensor,
)


def test_spec_shape_validation():
    good = mat(3, 2, [["1"], ["x"]])
    SubalgebraSpec(3, 1, 2, good)
    with pytest.raises(SpecShapeError):
        SubalgebraSpec(3, 2, 2, good)
    with pytest.raises(SpecShapeError):
        SubalgebraSpec(2, 1, 2, good)
    with pytest.raises(SpecShapeError):
        SubalgebraSpec(3, 1, 1, good)


def test_symplectic_form_shape():
    lam = symplectic_form(3, 2, 2)
    assert lam.shape == (4, 4)
    assert lam[(0, 2)] == LaurentPoly.one(3, 2)
    assert lam[(2, 0)] == LaurentPoly.constant(2, 3, 2)
    assert lam[(0, 1)].is_zero()
    # lambda is itself antihermitian, and squares to -id.
    assert is_antihermitian(lam)
    assert (lam @ lam) == LaurentMatrix.identity(3, 2, 2 * 2).scale(-1)


def test_commutation_matrix_z3_example():
    spec = z3_spec()
    xi = commutation_matrix(spec)
    assert xi == mat(3, 2, XI_Z3_ROWS)
    assert is_antihermitian(xi)


def test_commutation_matrix_xz_chain():
    xi = commutation_matrix(xz_chain_spec())
    assert xi == mat(2, 1, [["x + x^-1"]])


def test_remark_form_detection():
    assert z3_spec().is_remark_form()
    assert xz_chain_spec().is_remark_form()
    assert not full_spec().is_remark_form()


def test_check_invertible_z3():
    cert = check_invertible(z3_spec())
    assert cert.invertible
    assert cert.projector_available
    assert cert.profile.rank == 2
    assert cert.profile.ideal.generator_strings() == ["1"]


def test_check_invertible_xz_chain_fails():
    cert = check_invertible(xz_chain_spec())
    assert not cert.invertible
    assert cert.profile.rank == 1
    assert not cert.projector_available


def test_check_invertible_full_and_empty():
    assert check_invertible(full_spec()).invertible
    empty = SubalgebraSpec(3, 1, 2, LaurentMatrix.zeros(3, 2, 2, 0))
    cert = check_invertible(empty)
    assert cert.invertible
    assert cert.projector_available


def test_criterion_passes_with_singular_xi():
    # A single pure-Z generator commutes with all its translates, so Xi
    # is the 1x1 zero matrix.  Rank 0 is a unit ideal by convention, but
    # a nonzero commutative subalgebra is its own center: not invertible.
    v = mat(3, 2, [["0"], ["1 - y"]])
    spec = SubalgebraSpec(3, 1, 2, v)
    cert = check_invertible(spec)
    assert not cert.invertible
    assert cert.profile.rank == 0
    assert not cert.projector_available
    with pytest.raises(NotInvertibleError):
        build_projector(spec)
    # Repeating a generator of the invertible example keeps the algebra
    # but makes Xi singular: the criterion passes at rank 2 while the
    # projector route is closed off.
    g = z3_spec().generators
    spec = SubalgebraSpec(3, 2, 2, g.hstack(g.submatrix(range(4), [0])))
    cert = check_invertible(spec)
    assert cert.invertible
    assert cert.profile.rank == 2
    assert not cert.projector_available
    with pytest.raises(ProjectorUnavailableError):
        build_projector(spec)


def test_from_antihermitian_odd_p():
    xi = mat(3, 2, XI_Z3_ROWS)
    spec = from_antihermitian(xi)
    assert spec == z3_spec()
    assert commutation_matrix(spec) == xi


def test_from_antihermitian_rejects_bad_input():
    not_ah = mat(3, 2, [["x"]])
    with pytest.raises(ValueError):
        from_antihermitian(not_ah)
    xi2 = mat(2, 1, [["x + x^-1"]])
    with pytest.raises(ValueError):
        from_antihermitian(xi2)  # no canonical half over F_2
    spec = from_antihermitian(xi2, m=mat(2, 1, [["x"]]))
    assert spec == xz_chain_spec()
    with pytest.raises(ValueError):
        from_antihermitian(xi2, m=mat(2, 1, [["1"]]))


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2)),
    max_size=4,
))
def test_graph_spec_commutation_identity(terms):
    # For V = (id; M) the commutation matrix is always M - bar(M)^T.
    f = LaurentPoly.zero(3, 2)
    for ex, ey, c in terms:
        f = f + LaurentPoly.monomial(c, (ex, ey), 3, 2)
    m = LaurentMatrix(3, 2, [[f]])
    xi = m - m.bar_transpose()
    spec = from_antihermitian(xi, m=m)
    assert commutation_matrix(spec) == xi
    assert is_antihermitian(xi)


def test_projector_z3_frozen_blocks():
    proj = build_projector(z3_spec())
    two_id = LaurentMatrix.identity(3, 2, 2).scale(2)
    xi = mat(3, 2, XI_Z3_ROWS)
    xi_inv = mat(3, 2, XI_Z3_INV_ROWS)
    expected = two_id.hstack(xi_inv).vstack(xi.hstack(two_id))
    assert proj.matrix == expected
    assert proj.spread == 1


def test_projector_full_is_identity():
    proj = build_projector(full_spec())
    assert proj.matrix == LaurentMatrix.identity(3, 2, 2)
    assert proj.complement().is_zero()


def test_projector_empty_is_zero():
    empty = SubalgebraSpec(3, 1, 2, LaurentMatrix.zeros(3, 2, 2, 0))
    assert build_projector(empty).matrix.is_zero()


def test_projector_refused_when_not_invertible():
    with pytest.raises(NotInvertibleError):
        build_projector(xz_chain_spec())


def test_projector_invariant_under_column_operations():
    # Right-multiplying V by a ring-invertible matrix changes the
    # presentation but not the span, so the projector must not move.
    spec = z3_spec()
    e = mat(3, 2, [["1", "x"], ["0", "2"]])
    v2 = spec.generators @ e
    spec2 = SubalgebraSpec(3, 2, 2, v2)
    assert build_projector(spec2).matrix == build_projector(spec).matrix
    assert check_invertible(spec2).invertible


def test_commutant_z3_is_negated_z_block():
    # For M = 2*Xi the bar-transpose is -2*Xi = Xi (mod 3), so the
    # commutant generators carry Z-part Xi where the original had 2*Xi.
    comm = commutant_generators(z3_spec())
    xi = mat(3, 2, XI_Z3_ROWS)
    expected = LaurentMatrix.identity(3, 2, 2).vstack(xi)
    assert comm.generators == expected
    # Commutant elements really do commute with the original generators:
    spec = z3_spec()
    lam = symplectic_form(3, 2, 2)
    assert (spec.generators.bar_transpose() @ lam @ comm.generators).is_zero()


def test_commutant_xz_chain():
    # Works through the graph path even though the criterion fails.
    comm = commutant_generators(xz_chain_spec())
    assert comm.generators == mat(2, 1, [["1"], ["x^-1"]])
    # Z(j) X(j+1) is the same commutant generator shifted by one site:
    # its X part x and Z part 1 lie on the graph z = x^-1 * x.
    assert comm.z_block() @ mat(2, 1, [["x"]]) == mat(2, 1, [["1"]])


def test_commutant_of_full_is_empty_and_back():
    comm = commutant_generators(full_spec())
    assert comm.n_generators == 0
    back = commutant_generators(comm)
    assert back.generators == full_spec().generators


def test_double_commutant_z3():
    spec = z3_spec()
    assert commutant_generators(commutant_generators(spec)).generators == \
        spec.generators


def test_decompose_local_z3():
    spec = z3_spec()
    w = mat(3, 2, [["1"], ["0"], ["0"], ["0"]])
    pi = build_projector(spec).matrix
    a = pi @ w
    b = w - a
    assert a + b == w
    assert pi @ a == a
    # b commutes with every generator translate.
    lam = symplectic_form(3, 2, 2)
    assert (spec.generators.bar_transpose() @ lam @ b).is_zero()
    assert a.spread() <= 1 and b.spread() <= 1


def test_membership_projector_route():
    # The span is exactly the image of Pi: Pi fixes a combination of
    # generator translates and moves a column outside the span.
    spec = z3_spec()
    pi = build_projector(spec).matrix
    w = spec.generators @ mat(3, 2, [["2 + x*y"], ["x^-1 - y"]])
    assert pi @ w == w
    e1 = mat(3, 2, [["1"], ["0"], ["0"], ["0"]])
    assert pi @ e1 != e1


def test_membership_certifies_once(monkeypatch):
    calls = []
    real = pauli.determinantal_profile

    def counted(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(pauli, "determinantal_profile", counted)
    spec = get_example("example-z3").spec
    w = spec.generators @ mat(3, 2, [["2 + x*y"], ["x^-1 - y"]])
    assert build_projector(spec).matrix @ w == w
    # Xi is inverted first and its unit determinant implies the verdict,
    # so the projector route takes no determinantal profile at all.
    assert len(calls) == 0


@pytest.mark.parametrize("spec, kind", [
    (get_example("nonexample-1dxz").spec, NotInvertibleError),
    (get_example("toric-code-z3").spec, NotInvertibleError),
    (with_repeated_columns(z3_tensor(2), 4), ProjectorUnavailableError),
], ids=["nonexample-1dxz", "toric-code-z3", "redundant-z3x2-g8"])
def test_projector_refusal_kinds(spec, kind):
    # A singular Xi sends build_projector to check_invertible, whose
    # verdict names the refusal exactly as before Xi was inverted first.
    cert = check_invertible(spec)
    assert not cert.projector_available
    assert cert.invertible == (kind is ProjectorUnavailableError)
    with pytest.raises(kind) as exc:
        build_projector(spec)
    assert type(exc.value) is kind


def test_brauer_tensor_blocks():
    spec = z3_spec()
    double = brauer_tensor(spec, spec)
    assert double.q == 4
    assert double.n_generators == 4
    assert double.spread == spec.spread
    xi = commutation_matrix(spec)
    big = commutation_matrix(double)
    zero = LaurentMatrix.zeros(3, 2, 2, 2)
    assert big == xi.hstack(zero).vstack(zero.hstack(xi))
    assert check_invertible(double).invertible


def test_brauer_tensor_ring_mismatch():
    with pytest.raises(SpecShapeError):
        brauer_tensor(z3_spec(), xz_chain_spec())


def test_spread_values():
    assert z3_spec().spread == 1
    assert xz_chain_spec().spread == 1
    assert full_spec().spread == 0


def _torus_report(spec, side):
    lat = FiniteLattice(spec.p, spec.q, (side,) * spec.dims)
    rows = instantiate_spec(spec, lat)
    return check_invertible_finite(rows, lat, spread=spec.spread)


def test_rank_gap_is_not_invertible():
    # Xi is the block sum of example-z3's invertible Xi and the toric
    # code's zero Xi: its 2x2 minors generate the unit ideal, but rank
    # Xi = 2 < rank V = 4, and the toric code's center shows on a torus.
    spec = brauer_tensor(get_example("example-z3").spec,
                         get_example("toric-code-z3").spec)
    cert = check_invertible(spec)
    assert cert.profile.is_unit
    assert cert.profile.rank == 2
    assert cert.generator_rank == 4
    assert not cert.invertible
    assert not cert.projector_available
    report = _torus_report(spec, 9)
    assert not report.invertible
    assert report.dim_center > 0


# Every spec among the first 400 draws of helpers.non_graph_spec with
# random.Random(0) whose Xi has a unit determinantal ideal at
# 0 < rank Xi < rank V, keyed by draw index.
RANK_GAP_SPECS = json.loads(
    (Path(__file__).parent / "data" / "rank_gap_specs.json").read_text())


@pytest.mark.parametrize("name", sorted(RANK_GAP_SPECS))
def test_rank_gap_draws_are_not_invertible(name):
    spec = parse_spec(json.dumps(RANK_GAP_SPECS[name]))
    cert = check_invertible(spec)
    assert cert.profile.is_unit
    assert 0 < cert.profile.rank < cert.generator_rank
    assert not cert.invertible
    report = _torus_report(spec, 11 if spec.dims == 1 else 7)
    assert not report.invertible
    assert report.dim_center > 0


def _certificate_specs():
    specs = [get_example(name).spec for name in example_names()]
    specs += [z3_tensor(2), with_repeated_columns(z3_spec(), 1),
              with_repeated_columns(z3_tensor(2), 4)]
    return specs


@pytest.mark.parametrize("spec", _certificate_specs())
def test_certificate_determinant_and_generator_rank(spec):
    cert = check_invertible(spec)
    assert cert.determinant == determinant(cert.xi)
    assert cert.projector_available == cert.determinant.is_monomial()
    assert cert.generator_rank <= spec.n_generators
    assert cert.profile.rank <= cert.generator_rank


@st.composite
def _presentations(draw):
    """A builtin, a random graph-form spec or a random generator
    matrix, with up to two of its columns repeated."""
    source = draw(st.sampled_from(("builtin", "remark", "arbitrary")))
    seed = draw(st.integers(0, 2**32 - 1))
    if source == "builtin":
        spec = get_example(draw(st.sampled_from(example_names()))).spec
    elif source == "remark":
        spec = random_remark_spec(draw(st.sampled_from((3, 5))),
                                  np.random.default_rng(seed))
    else:
        spec = non_graph_spec(random.Random(seed))
    return with_repeated_columns(
        spec, draw(st.integers(0, min(2, spec.n_generators))))


@settings(max_examples=150, deadline=None)
@given(_presentations())
def test_unit_determinant_implies_the_verdict(spec):
    # What lets projector_available read det Xi alone: a unit
    # det Xi forces rank Xi = rank V = n and the unit ideal.
    cert = check_invertible(spec)
    assert not cert.projector_available or cert.invertible


def test_repeated_columns_check_is_fast():
    # example-z3 tensored three times with its first 6 columns repeated
    # (q=6, 12 generators); the top-down profile took minutes.
    spec = with_repeated_columns(z3_tensor(3), 6)
    start = perf_counter()
    cert = check_invertible(spec)
    assert perf_counter() - start < 2.0
    assert cert.invertible
    assert (cert.profile.rank, cert.generator_rank) == (6, 6)
    assert not cert.projector_available
    assert cert.determinant.is_zero()


@st.composite
def _non_graph_specs(draw):
    """Any generator matrix: p in {2, 3, 5}, 1 or 2 directions, 1 or 2
    qudits per site, 1 to 2q generators, entries of up to two terms with
    exponents in [-1, 1]."""
    p = draw(st.sampled_from((2, 3, 5)))
    dims = draw(st.sampled_from((1, 2)))
    q = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 2 * q))
    term = st.tuples(st.tuples(*[st.integers(-1, 1)] * dims),
                     st.integers(1, p - 1))

    def entry(terms):
        f = LaurentPoly.zero(p, dims)
        for e, c in terms:
            f = f + LaurentPoly.monomial(c, e, p, dims)
        return f

    entries = st.lists(term, max_size=2).map(entry)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=2 * q, max_size=2 * q))
    return SubalgebraSpec(p, q, dims, LaurentMatrix(p, dims, rows))


@settings(max_examples=200, deadline=None)
@given(_non_graph_specs())
def test_symbolic_invertibility_implies_no_torus_center(spec):
    cert = check_invertible(spec)
    if cert.invertible:
        report = _torus_report(spec, 11 if spec.dims == 1 else 7)
        assert report.invertible
        assert report.dim_center == 0
