"""Laurent ring arithmetic, ideals, divisibility, and matrix algebra."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import invsub.groebner as groebner
import invsub.laurent as laurent
from invsub.groebner import MAX_EXPONENT
from invsub.laurent import (
    ExponentRangeError,
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
    matrix_inverse,
    matrix_rank,
    minors,
    parse_poly,
)
from invsub.laurent import MinorCountError, _exact_quotient
from invsub.pauli import (
    SubalgebraSpec,
    brauer_tensor,
    check_invertible,
    commutation_matrix,
    symplectic_form,
)
from invsub.zoo import example_names, get_example

from helpers import (
    cofactor_det,
    cofactor_inverse,
    cofactor_minors,
    determinantal_profile_every_minor,
    divides_by_clearing,
    ideal_contains,
    mat,
    tuple_add,
    tuple_dot,
    tuple_term_mul,
    with_repeated_columns,
    z3_tensor,
)


def f3(s: str) -> LaurentPoly:
    return parse_poly(s, 3, 2)


def f2(s: str) -> LaurentPoly:
    return parse_poly(s, 2, 1)


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
        f3("x") + parse_poly("x", 5, 2)
    with pytest.raises(RingMismatchError):
        f2("x") * parse_poly("x", 2, 2)


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
    assert not IdealDescription(2, 1, [f2("x + x^-1")]).is_unit()


def test_unit_ideal_constant_four_mod_three():
    assert IdealDescription(3, 2, [LaurentPoly.constant(4, 3, 2)]).is_unit()


def test_unit_ideal_two_coordinate_vanishing():
    # 1 - y and 1 - x^-1 share the common zero x = y = 1, so they generate
    # a proper ideal even though they are coprime as ring elements.
    assert not IdealDescription(3, 2, [f3("1 - y"), f3("1 - x^-1")]).is_unit()
    # Adding any unit makes the ideal everything.
    assert IdealDescription(3, 2, [f3("1 - y"), f3("1 - x^-1"),
                                   f3("2")]).is_unit()


def test_unit_ideal_trivial_inputs():
    assert not IdealDescription(3, 2, []).is_unit()
    assert not IdealDescription(3, 2, [LaurentPoly.zero(3, 2)]).is_unit()


def test_unit_ideal_invariance_under_monomial_scaling():
    gens = [f3("1 - y"), f3("x + y")]
    base = IdealDescription(3, 2, gens).is_unit()
    scaled = [gens[0] * f3("2*x^-1*y"), gens[1] * f3("y^-2")]
    assert IdealDescription(3, 2, scaled).is_unit() == base


def test_unit_ideal_invariance_under_combinations():
    gens = [f2("x + x^-1")]
    base = IdealDescription(2, 1, gens).is_unit()
    extended = gens + [gens[0] * f2("1 + x")]
    assert IdealDescription(2, 1, extended).is_unit() == base


def test_ideal_membership():
    ideal = IdealDescription(3, 2, [f3("1 - y")])
    assert ideal_contains(ideal, f3("1 - y^2"))
    assert ideal_contains(ideal, f3("y^-1 - 1"))  # unit multiple of a generator
    assert not ideal_contains(ideal, f3("1 - x"))
    assert ideal_contains(ideal, LaurentPoly.zero(3, 2))


def test_groebner_basis_reduces_generators_to_zero():
    ideal = IdealDescription(3, 2, [f3("1 - y"), f3("x^2 + y")])
    for g in ideal.generators:
        assert ideal_contains(ideal, g)


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
        assert ideal_contains(ones, m)


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


@pytest.mark.parametrize("copies", [2, 5, 8])
def test_rank_first_profile_on_copies_of_one_generator(copies):
    # Xi has rank 1 and its screens repeat one value copies times.
    v = mat(3, 1, [["1"] * copies, ["x"] * copies])
    prof = _same_profile(commutation_matrix(SubalgebraSpec(3, 1, 1, v)))
    assert prof.rank == 1


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
    m = LaurentMatrix(3, 1, [[parse_poly(t, 3, 1) for t in row]
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


# ---------------------------------------------------------------------------
# packed monomial keys against the tuple-keyed references
# ---------------------------------------------------------------------------


@st.composite
def _ring_and_polys(draw):
    """A ring F_p in nvars variables and polynomials a, b, c in it, with
    small exponents, at most four terms each."""
    p = draw(st.sampled_from((2, 3, 5)))
    nvars = draw(st.sampled_from((0, 1, 2, 3, 17)))
    exps = st.tuples(*[st.integers(-3, 3)] * nvars)
    poly = st.dictionaries(exps, st.integers(0, p - 1), max_size=4).map(
        lambda d: LaurentPoly(p, nvars, d))
    shift = draw(exps)
    return p, nvars, draw(poly), draw(poly), draw(poly), shift


@settings(max_examples=300, deadline=None)
@given(_ring_and_polys())
def test_packed_arithmetic_matches_the_tuple_references(case):
    p, nvars, a, b, c, shift = case
    assert (a * b).terms == tuple_dot([a.terms], [b.terms], p)
    assert (a + b).terms == tuple_add(a.terms, b.terms, p)
    assert (a - b).terms == tuple_add(
        a.terms, {e: -v % p for e, v in b.terms.items()}, p)
    assert a.bar().terms == {tuple(-v for v in e): x for e, x in a.terms.items()}
    assert a.shift(shift).terms == tuple_term_mul(shift, 1, a.terms, p)
    assert a.spread() == max((abs(v) for e in a.terms for v in e), default=0)
    assert format_poly(parse_poly(format_poly(a), p, nvars)) == format_poly(a)
    if a.is_monomial():
        ((e, x),) = a.terms.items()
        assert a.inverse().terms == {tuple(-v for v in e): pow(x, p - 2, p)}
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divides(b, a)
        return
    # An exact pair, and a pair that is exact only by chance.
    for g in (a * b, a * b + c):
        q = divides(b, g)
        assert q == divides_by_clearing(b, g)
        if q is not None:
            assert q * b == g
    assert divides(b, a * b) == a


def test_a_two_variable_non_multiple_is_refused_at_once():
    # From the top of the key order, y + x + x^-3 over 1 - x would take
    # quotient terms x^-1 y, x^-2 y, ... all above the key of the least
    # possible quotient term, x^-3, until the x slot wrapped, about 2^31
    # steps; they leave the box of x exponents in [-3, 0] at x^-4 y.
    g, f = f3("y + x + x^-3"), f3("1 - x")
    assert divides(f, g) is None
    assert divides_by_clearing(f, g) is None
    assert divides(f, g * f) == g


def test_exponents_at_the_edge_of_the_range():
    m = MAX_EXPONENT
    assert issubclass(ExponentRangeError, ValueError)
    edge = LaurentPoly(3, 2, {(m, -m): 1})
    assert edge.spread() == m and edge.bar().terms == {(-m, m): 1}
    with pytest.raises(ExponentRangeError):
        LaurentPoly(3, 2, {(m + 1, 0): 1})
    with pytest.raises(ExponentRangeError):
        LaurentPoly.variable(0, 3, 1, -m - 1)
    assert parse_poly(f"x^{m}", 3, 1).terms == {(m,): 1}
    for text in (f"x^{m + 1}", f"x^{m}*x", f"x^-{m}*y*x^-1"):
        with pytest.raises(PolyParseError, match="outside the supported range"):
            parse_poly(text, 3, 2)
    x, y = f3("x"), f3("y")
    top = x ** m
    assert top.terms == {(m, 0): 1}
    # Past the range by one, whichever way the exponent gets there.
    with pytest.raises(ExponentRangeError):
        top * x
    with pytest.raises(ExponentRangeError):
        top.shift((1, 0))
    with pytest.raises(ExponentRangeError):
        x ** (m + 1)
    with pytest.raises(ExponentRangeError):
        LaurentMatrix(3, 2, [[top]]) @ LaurentMatrix(3, 2, [[x + y]])
    # The bounds of the factors add past the range, the exponents do not.
    assert (top * y).terms == {(m, 1): 1}
    assert (top * x.inverse()).terms == {(m - 1, 0): 1}
    assert top.shift((-1, 5)).terms == {(m - 1, 5): 1}
    assert ((top * y) * (x.inverse() * y)).terms == {(m - 1, 2): 1}
    assert divides(x.inverse() + y, top * (x.inverse() + y)) == top
    # Clearing the denominators of x^-m + x^m would need exponent 2m.
    with pytest.raises(ExponentRangeError):
        IdealDescription(3, 1, [LaurentPoly(3, 1, {(-m,): 1, (m,): 1}),
                                parse_poly("1 + x", 3, 1)]).is_unit()
    # A quotient past the range: x^(2m - 1) (x^-m + x^(1-m)) = x^(m-1) + x^m.
    with pytest.raises(ExponentRangeError):
        divides(LaurentPoly(3, 1, {(-m,): 1, (1 - m,): 1}),
                LaurentPoly(3, 1, {(m - 1,): 1, (m,): 1}))
    # So is one by a monomial, in one variable and in two: x^m / x^-m.
    for nvars in (1, 2):
        lo = LaurentPoly.variable(0, 3, nvars, -m)
        hi = LaurentPoly.variable(0, 3, nvars, m)
        for f, g in ((lo, hi), (hi, lo), (lo, hi + LaurentPoly.one(3, nvars))):
            with pytest.raises(ExponentRangeError):
                divides(f, g)


def test_repeated_squaring_stops_at_the_range():
    # Each square doubles the bound; the square past 2^31 - 1 is refused,
    # not wrapped into another monomial.
    g = f3("x")
    for _ in range(30):
        g = g * g
    assert g.terms == {(2 ** 30, 0): 1}
    with pytest.raises(ExponentRangeError):
        g * g
    # Over F_2 squaring is the Frobenius map: 1 + x y^-1 stays two terms
    # whose slots grow apart in both directions.
    h = parse_poly("1 + x*y^-1", 2, 2)
    for _ in range(30):
        h = h * h
    assert h.terms == {(0, 0): 1, (2 ** 30, -2 ** 30): 1}
    with pytest.raises(ExponentRangeError):
        h * h
    assert parse_poly("1 + x*y^-1", 2, 2) ** (2 ** 30) == h
    with pytest.raises(ExponentRangeError):
        parse_poly("1 + x*y^-1", 2, 2) ** (2 ** 31)
    with pytest.raises(ExponentRangeError):
        f3("1 + x") ** (2 ** 40)


# ---------------------------------------------------------------------------
# principal ideals and zero operands
# ---------------------------------------------------------------------------


def test_principal_and_monomial_ideals_skip_buchberger(monkeypatch):
    rng = random.Random(32)
    cases = [[f3("2*x*y^-1")], [f3("1 - y")], [f2("x + x^-1")],
             [f3("1 - y"), f3("1 - x^-1"), f3("2")],
             [LaurentPoly.zero(3, 2), f3("x + y")]]
    for _ in range(40):
        gens = [LaurentPoly(3, 2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                   rng.randint(1, 2)
                                   for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(1, 2))]
        cases.append(gens + [LaurentPoly.zero(3, 2)] * rng.randint(0, 1))
    by_basis = [groebner.contains_unit(IdealDescription(g[0].p, g[0].nvars,
                                                        g).groebner_basis())
                for g in cases]
    assert True in by_basis and False in by_basis

    def refuse(*args):
        raise AssertionError("Buchberger ran")

    shortcut = [g for g in cases
                if len([f for f in g if not f.is_zero()]) == 1
                or any(f.is_monomial() for f in g)]
    assert len(shortcut) > 20
    monkeypatch.setattr(groebner, "buchberger", refuse)
    for gens, unit in zip(cases, by_basis):
        if gens in shortcut:
            assert IdealDescription(gens[0].p, gens[0].nvars,
                                    gens).is_unit() == unit
    # At full rank Xi's profile has one generator, det Xi.
    decided = 0
    for name in example_names():
        spec = get_example(name).spec
        xi = commutation_matrix(spec)
        if matrix_rank(xi) == xi.rows:
            cert = check_invertible(spec)
            assert cert.profile.ideal.generators == [cert.determinant]
            decided += 1
    assert decided >= 3


def _count_products(monkeypatch):
    """Every call of the product kernel, as its list of operand pairs."""
    calls = []
    dot = groebner.dot

    def counting(left, right, p):
        pairs = list(zip(left, right))
        calls.append(pairs)
        return dot(*zip(*pairs), p)

    monkeypatch.setattr(groebner, "dot", counting)
    return calls


def test_products_and_elimination_skip_zero_operands(monkeypatch):
    spec = brauer_tensor(z3_tensor(2), get_example("example-z3").spec)
    v = spec.generators
    lam = symplectic_form(spec.p, spec.q, spec.dims)
    calls = _count_products(monkeypatch)
    out = lam @ v
    # lambda is a signed permutation: one pair per nonzero entry of V.
    assert all(len(pairs) == 1 and all(a and b for a, b in pairs)
               for pairs in calls)
    assert len(calls) == sum(not e.is_zero() for row in v.entries for e in row)
    assert out.entries == [
        [sum((lam[i, k] * v[k, j] for k in range(lam.cols)),
             LaurentPoly.zero(3, 2)) for j in range(v.cols)]
        for i in range(lam.rows)]
    # Xi of a tensor is block diagonal; its elimination multiplies no
    # operand of a zero block.
    xi = commutation_matrix(spec)
    calls.clear()
    rows, cols, d, sign, coords = laurent._eliminate(xi.hstack(
        LaurentMatrix.identity(3, 2, xi.rows)))
    assert calls and all(a and b for pairs in calls for a, b in pairs)
    assert len(cols) == xi.rows
    assert d.scale(sign) == determinant(xi)
