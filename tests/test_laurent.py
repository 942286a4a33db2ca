"""Laurent ring arithmetic, ideals, divisibility, and matrix algebra."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import invsub.laurent as laurent
from invsub.laurent import (
    IdealDescription,
    LaurentMatrix,
    LaurentPoly,
    NotAUnitError,
    PolyParseError,
    RingMismatchError,
    determinant,
    determinantal_profile,
    divides,
    format_poly,
    ideal_is_unit,
    matrix_inverse,
    matrix_rank,
    minors,
    parse_poly,
)
from invsub.laurent import MinorCountError, _exact_quotient
from invsub.pauli import brauer_tensor, commutation_matrix
from invsub.zoo import example_names, get_example

from helpers import (
    cofactor_det,
    cofactor_inverse,
    cofactor_minors,
    determinantal_profile_every_minor,
    with_repeated_columns,
    z3_tensor,
)


def f3(s: str) -> LaurentPoly:
    return LaurentPoly.parse(s, 3, 2)


def f2(s: str) -> LaurentPoly:
    return LaurentPoly.parse(s, 2, 1)


def z3_xi() -> LaurentMatrix:
    return LaurentMatrix(
        3,
        2,
        [
            [f3("x^-1 - x"), f3("x + x*y - y + 1")],
            [f3("-x^-1 + y^-1 - x^-1*y^-1 - 1"), f3("y - y^-1")],
        ],
    )


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------


def test_telescoping_product_mod3():
    assert f3("1 - y") * f3("1 + y + y^2") == f3("1 - y^3")


def test_char_two_cancellation():
    assert f2("x + x^-1") + f2("x + x^-1") == LaurentPoly.zero(2, 1)


def test_cross_term_product():
    assert f3("1 - y") * f3("1 - x^-1") == f3("1 - x^-1 - y + x^-1*y")


def test_bar_involution_on_terms():
    g = f3("x + 2*y^-1")
    assert g.bar() == f3("x^-1 + 2*y")
    assert g.bar().bar() == g


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        f3("x") + LaurentPoly.parse("x", 5, 2)
    with pytest.raises(RingMismatchError):
        f2("x") * LaurentPoly.parse("x", 2, 2)


def test_unit_detection_and_inverse():
    u = f3("2*x^-1*y")
    assert u.is_monomial()
    assert u * u.inverse() == LaurentPoly.one(3, 2)
    with pytest.raises(NotAUnitError):
        f3("1 + x").inverse()


def test_spread():
    assert f3("x^-2 + y").spread() == 2
    assert LaurentPoly.zero(3, 2).spread() == 0


_coeffs = st.integers(min_value=0, max_value=2)
_exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_polys = st.dictionaries(_exps, _coeffs, max_size=4).map(
    lambda d: LaurentPoly(3, 2, d)
)


@settings(max_examples=40, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == LaurentPoly.zero(3, 2)


@settings(max_examples=40, deadline=None)
@given(_polys, _polys)
def test_bar_is_ring_involution(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@settings(max_examples=40, deadline=None)
@given(_polys, _polys, st.integers(-4, 4), _exps)
def test_closed_operations_return_clean_terms(a, b, c, e):
    # Ring operations skip the constructor's checks; their results must
    # be what the checked constructor would build from the same terms.
    results = [a + b, a - b, -a, a * b, a.scale(c), a.shift(e), a.bar()]
    if a.is_monomial():
        results.append(a.inverse())
    for f in results:
        assert (f.p, f.nvars) == (3, 2)
        assert all(type(v) is int for x in f.terms for v in x)
        assert all(len(x) == 2 and 1 <= v < 3 for x, v in f.terms.items())
        assert f == LaurentPoly(3, 2, f.terms)


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="not prime"):
        LaurentPoly(4, 1, {(0,): 1})
    with pytest.raises(ValueError, match="wrong arity"):
        LaurentPoly(3, 2, {(1,): 1})
    with pytest.raises(ValueError, match="wrong arity"):
        f3("x").shift((1,))


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------


def test_parse_basic_term():
    g = f3("2*x^-1*y^3")
    assert g.terms == {(-1, 3): 2}


def test_format_round_trip():
    for text in ["0", "1", "2", "x", "2*x^-1*y^3 + y", "x^-1 + x", "2 + x + y^2"]:
        g = f3(text)
        assert parse_poly(format_poly(g), 3, 2) == g
        assert format_poly(parse_poly(format_poly(g), 3, 2)) == format_poly(g)


def test_parse_subtraction_and_signs():
    assert f3("1 - y") == f3("1 + 2*y")
    assert f3("-x + 1") == f3("1 + 2*x")


def test_parse_numbered_variables():
    g = parse_poly("x1*x2^-1", 3, 2)
    assert g.terms == {(1, -1): 1}
    h = parse_poly("x4", 5, 4)
    assert h.terms == {(0, 0, 0, 1): 1}


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as ei:
        parse_poly("x + w", 3, 2)
    assert ei.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("", 3, 2)
    with pytest.raises(PolyParseError):
        parse_poly("x ^", 3, 2)
    with pytest.raises(PolyParseError):
        parse_poly("x + ", 3, 2)


def test_zero_never_prints_empty():
    assert format_poly(LaurentPoly.zero(3, 2)) == "0"
    assert parse_poly("0", 3, 2).is_zero()


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


def test_unit_ideal_negative_control_char2():
    # The one-dimensional X-next-to-Z pattern: x - x^-1 over F_2.
    assert not ideal_is_unit([f2("x + x^-1")])


def test_unit_ideal_constant_four_mod_three():
    assert ideal_is_unit([LaurentPoly.constant(4, 3, 2)])


def test_unit_ideal_two_coordinate_vanishing():
    # 1 - y and 1 - x^-1 share the common zero x = y = 1, so they generate
    # a proper ideal even though they are coprime as ring elements.
    assert not ideal_is_unit([f3("1 - y"), f3("1 - x^-1")])
    # Adding any unit makes the ideal everything.
    assert ideal_is_unit([f3("1 - y"), f3("1 - x^-1"), f3("2")])


def test_unit_ideal_trivial_inputs():
    assert not ideal_is_unit([])
    assert not ideal_is_unit([LaurentPoly.zero(3, 2)])


def test_unit_ideal_invariance_under_monomial_scaling():
    gens = [f3("1 - y"), f3("x + y")]
    base = ideal_is_unit(gens)
    scaled = [gens[0] * f3("2*x^-1*y"), gens[1] * f3("y^-2")]
    assert ideal_is_unit(scaled) == base


def test_unit_ideal_invariance_under_combinations():
    gens = [f2("x + x^-1")]
    base = ideal_is_unit(gens)
    extended = gens + [gens[0] * f2("1 + x")]
    assert ideal_is_unit(extended) == base


def test_ideal_membership():
    ideal = IdealDescription(3, 2, [f3("1 - y")])
    assert ideal.contains(f3("1 - y^2"))
    assert ideal.contains(f3("y^-1 - 1"))  # unit multiple of a generator
    assert not ideal.contains(f3("1 - x"))
    assert ideal.contains(LaurentPoly.zero(3, 2))


def test_groebner_basis_reduces_generators_to_zero():
    ideal = IdealDescription(3, 2, [f3("1 - y"), f3("x^2 + y")])
    for g in ideal.generators:
        assert ideal.contains(g)


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------


def test_divides_exact():
    g = f3("1 - y") * f3("2 + x")
    assert divides(f3("1 - y"), g) == f3("2 + x")


def test_divides_rejects_non_multiple():
    assert divides(f3("1 - y"), f3("1 - x^-1")) is None


def test_divides_zero_numerator():
    assert divides(f3("1 - y"), LaurentPoly.zero(3, 2)) == LaurentPoly.zero(3, 2)


def test_divides_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        divides(LaurentPoly.zero(3, 2), f3("x"))


def test_divides_handles_laurent_units():
    # y^-1 - y = y^-1 * (1 - y^2): the quotient is a bare monomial.
    q = divides(f3("1 - y^2"), f3("y^-1 - y"))
    assert q == f3("y^-1")
    assert q * f3("1 - y^2") == f3("y^-1 - y")


def test_divides_recovers_annihilator_cofactor():
    # The syndrome row of the two-generator F_3 model is annihilated by the
    # column (1 - y; 1 - x^-1); dividing a kernel element by either entry
    # recovers the same cofactor.
    r1, r2 = f3("-y^-1 + x^-1*y^-1"), f3("-1 + y^-1")
    c1, c2 = f3("1 - y"), f3("1 - x^-1")
    assert (r1 * c1 + r2 * c2).is_zero()
    t = f3("2 + x*y")
    a, b = c1 * t, c2 * t
    assert divides(c1, a) == t
    assert divides(c2, b) == t


def test_parse_rejects_parentheses():
    with pytest.raises(PolyParseError):
        parse_poly("y^-1*(1 + x)", 3, 2)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrix_shapes_and_blocks():
    m = LaurentMatrix.identity(3, 2, 2)
    z = LaurentMatrix.zeros(3, 2, 2, 2)
    assert m.hstack(z).shape == (2, 4)
    assert m.vstack(z).shape == (4, 2)
    assert (m @ m) == m


def test_matrix_zero_dimensions():
    a = LaurentMatrix.zeros(3, 2, 4, 0)
    b = LaurentMatrix.zeros(3, 2, 0, 4)
    prod = a @ b
    assert prod.shape == (4, 4)
    assert prod.is_zero()


def test_bar_transpose():
    m = LaurentMatrix(3, 2, [[f3("x"), f3("1")], [f3("0"), f3("y^-1")]])
    bt = m.bar_transpose()
    assert bt[0, 0] == f3("x^-1")
    assert bt[1, 0] == f3("1")
    assert bt[1, 1] == f3("y")


def test_determinant_of_xi_is_one():
    # The integer-lift determinant is 4; over F_3 that residue is 1.
    assert determinant(z3_xi()) == LaurentPoly.one(3, 2)


def test_xi_is_antihermitian():
    xi = z3_xi()
    assert xi.bar_transpose() == xi.scale(-1)


def test_determinantal_profile_xi():
    prof = determinantal_profile(z3_xi())
    assert prof.rank == 2
    assert prof.is_unit
    assert prof.ideal.generator_strings() == ["1"]


def test_determinantal_profile_negative_control():
    m = LaurentMatrix(2, 1, [[f2("x + x^-1")]])
    prof = determinantal_profile(m)
    assert prof.rank == 1
    assert not prof.is_unit
    assert prof.ideal.generator_strings() == ["x^-1 + x"]


def test_determinantal_profile_zero_matrix_convention():
    prof = determinantal_profile(LaurentMatrix.zeros(3, 2, 2, 2))
    assert prof.rank == 0
    assert prof.is_unit
    assert prof.ideal.generator_strings() == ["1"]


def test_minor_nesting():
    # Every 2x2 minor lies in the ideal of 1x1 minors.
    xi = z3_xi()
    ones = IdealDescription(3, 2, [e for row in xi.entries for e in row])
    for m in minors(xi, 2):
        assert ones.contains(m)


def test_matrix_inverse_diagonal_monomials():
    m = LaurentMatrix(3, 2, [[f3("x"), f3("0")], [f3("0"), f3("y^-1")]])
    inv = matrix_inverse(m)
    assert inv[0, 0] == f3("x^-1")
    assert inv[1, 1] == f3("y")
    assert (m @ inv) == LaurentMatrix.identity(3, 2, 2)


def test_matrix_inverse_xi():
    xi = z3_xi()
    inv = matrix_inverse(xi)
    ident = LaurentMatrix.identity(3, 2, 2)
    assert (xi @ inv) == ident
    assert (inv @ xi) == ident


def test_matrix_inverse_requires_unit_determinant():
    m = LaurentMatrix(3, 2, [[f3("1 + x"), f3("0")], [f3("0"), f3("1")]])
    with pytest.raises(NotAUnitError):
        matrix_inverse(m)


def test_matrix_inverse_reads_det_from_adjugate(monkeypatch):
    def refuse(m):
        raise AssertionError("matrix_inverse expanded det a second time")

    monkeypatch.setattr(laurent, "determinant", refuse)
    xi = z3_xi()
    assert (xi @ matrix_inverse(xi)) == LaurentMatrix.identity(3, 2, 2)
    one = LaurentMatrix(3, 2, [[f3("2*x*y^-1")]])
    assert matrix_inverse(one)[0, 0] == f3("2*x^-1*y")
    empty = LaurentMatrix.zeros(3, 2, 0, 0)
    assert matrix_inverse(empty).shape == (0, 0)
    with pytest.raises(NotAUnitError):
        matrix_inverse(LaurentMatrix(3, 2, [[f3("1 + x")]]))


# ---------------------------------------------------------------------------
# rank-first determinantal profile
# ---------------------------------------------------------------------------


def _same_profile(m):
    """The rank-first profile against every minor expanded top-down:
    equal rank (the largest size of a nonzero minor), equal Bareiss rank,
    and the same ideal generators in the same order."""
    ref = determinantal_profile_every_minor(m)
    prof = determinantal_profile(m)
    assert matrix_rank(m) == ref.rank
    assert prof.rank == ref.rank
    assert prof.ideal.generators == ref.ideal.generators
    assert prof.is_unit == ref.is_unit
    return prof


def _builtin_specs():
    return [get_example(name).spec for name in example_names()]


def test_rank_first_profile_on_builtins():
    for spec in _builtin_specs():
        _same_profile(commutation_matrix(spec))
        _same_profile(spec.generators)


def test_rank_first_profile_on_brauer_tensors():
    specs = _builtin_specs()
    for s1, s2 in itertools.product(specs, repeat=2):
        if (s1.p, s1.dims) != (s2.p, s2.dims):
            continue
        spec = brauer_tensor(s1, s2)
        _same_profile(commutation_matrix(spec))
        _same_profile(spec.generators)


@pytest.mark.parametrize("k, extra", [(1, 1), (1, 2), (2, 2), (2, 4), (3, 3)])
def test_rank_first_profile_on_repeated_columns(k, extra):
    spec = with_repeated_columns(z3_tensor(k), extra)
    prof = _same_profile(commutation_matrix(spec))
    assert prof.rank == 2 * k
    assert prof.is_unit
    # V itself, where the top-down enumeration stays cheap.
    if k == 1:
        _same_profile(spec.generators)
    assert matrix_rank(spec.generators) == 2 * k


def _random_matrix(rng):
    p = rng.choice((2, 3))
    nvars = rng.choice((1, 2))
    rows, cols = rng.randint(1, 3), rng.randint(1, 4)

    def entry():
        if rng.random() < 0.4:
            return LaurentPoly.zero(p, nvars)
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(-1, 1) for _ in range(nvars))
            terms[e] = rng.randint(1, p - 1)
        return LaurentPoly(p, nvars, terms)

    ent = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        # A duplicated column, scaled by a unit, drops the rank.
        j = rng.randrange(cols)
        unit = LaurentPoly.monomial(rng.randint(1, p - 1),
                                    (rng.randint(-1, 1),) * nvars, p, nvars)
        at = rng.randint(0, cols)
        for row in ent:
            row.insert(at, row[j] * unit)
    if rng.random() < 0.3:
        # A zero or repeated row on top makes the pivot rows move.
        top = rng.choice([[LaurentPoly.zero(p, nvars)] * len(ent[0]),
                          list(ent[-1])])
        ent.insert(0, top)
    return LaurentMatrix(p, nvars, ent)


def test_rank_first_profile_on_random_matrices():
    rng = random.Random(6)
    for _ in range(200):
        _same_profile(_random_matrix(rng))


def _monomial(rng, p, nvars):
    return LaurentPoly.monomial(rng.randint(1, p - 1),
                                tuple(rng.randint(-1, 1) for _ in range(nvars)),
                                p, nvars)


def _shaped_random_matrix(rng):
    """Up to 5 x 5, wide or tall or square, over F_2, F_3 or F_5, with
    repeated rows and columns scaled by units, zero rows on top that
    force pivot swaps, and square matrices with a monomial determinant (a
    lower triangular matrix with a monomial diagonal times its
    bar-transpose, rows shuffled)."""
    p, nvars = rng.choice((2, 3, 5)), rng.choice((1, 2))
    zero = LaurentPoly.zero(p, nvars)

    def entry():
        if rng.random() < 0.4:
            return zero
        return sum((_monomial(rng, p, nvars) for _ in range(rng.randint(1, 2))),
                   zero)

    if rng.random() < 0.25:
        n = rng.randint(1, 4)
        lower = LaurentMatrix(p, nvars, [
            [_monomial(rng, p, nvars) if i == j else entry() if j < i else zero
             for j in range(n)] for i in range(n)])
        m = lower @ lower.bar_transpose()
        ent = m.entries
        rng.shuffle(ent)
        return LaurentMatrix(p, nvars, ent)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    ent = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        j, unit = rng.randrange(cols), _monomial(rng, p, nvars)
        at = rng.randint(0, cols)
        for row in ent:
            row.insert(at, row[j] * unit)
    if rng.random() < 0.5:
        i, unit = rng.randrange(len(ent)), _monomial(rng, p, nvars)
        ent.insert(rng.randint(0, len(ent)), [f * unit for f in ent[i]])
    if rng.random() < 0.3:
        ent.insert(0, [zero] * len(ent[0]))
    return LaurentMatrix(p, nvars, ent)


@pytest.mark.parametrize("seed", range(3))
def test_elimination_matches_cofactor_reference(seed):
    rng = random.Random(100 + seed)
    inverted = 0
    for _ in range(80):
        m = _shaped_random_matrix(rng)
        for k in range(min(m.shape) + 1):
            assert minors(m, k) == cofactor_minors(m, k)
        if m.rows == m.cols:
            full = tuple(range(m.rows))
            assert determinant(m) == cofactor_det(m, full, full, {})
            ref = cofactor_inverse(m)
            if ref is None:
                with pytest.raises(NotAUnitError):
                    matrix_inverse(m)
            else:
                assert matrix_inverse(m) == ref
                inverted += 1
        _same_profile(m)
    assert inverted >= 10


@pytest.mark.parametrize("rows", [
    # Pivot rows and columns differ, and the pivot row is not the first.
    [["0", "0"], ["1 + x", "0"]],
    [["0", "0", "0"], ["0", "x", "1 + x"], ["0", "x^2", "x + x^2"]],
    # Wide and tall, so rows and columns cannot stand in for each other.
    [["0", "1 + x", "x", "1 + x"]],
    [["0"], ["0"], ["1 + x^-1"], ["x"]],
    [["x", "x^2", "1"], ["1 + x", "x + x^2", "0"]],
])
def test_rank_first_profile_moves_pivot_rows(rows):
    m = LaurentMatrix(3, 1, [[LaurentPoly.parse(t, 3, 1) for t in row]
                             for row in rows])
    prof = _same_profile(m)
    assert not any(f.is_zero() for f in prof.ideal.generators)


def test_bareiss_division_must_be_exact():
    with pytest.raises(ArithmeticError):
        _exact_quotient(f3("x"), f3("1 + x"))
    assert _exact_quotient(f3("x + x^2"), f3("1 + x")) == f3("x")


def test_oversized_minor_count_refused_after_the_screens():
    # Rank 1: the screens need 2 * 150 minors, but all 150^2 pairs survive.
    one = LaurentPoly.one(3, 1)
    m = LaurentMatrix(3, 1, [[one] * 150 for _ in range(150)])
    with pytest.raises(MinorCountError, match="needs 22800 minors"):
        determinantal_profile(m)
