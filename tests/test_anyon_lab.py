"""Hamiltonians, syndromes, string operators, exchange phases, and the
Gauss-sum phase.

Syndrome values are cross-checked against an independent symbolic
computation (the pairing polynomial of the term against the generator);
exchange phases are pinned by the model's known chirality and verified
invariant across junction moves, leg lengths, and leg relabelings; the
Gauss-sum machinery is checked against classical quadratic sums whose
values are textbook number theory.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from invsub import anyon_lab
from invsub.anyon_lab import (
    DEFAULT_LEG_DIRECTIONS,
    GaussSumReport,
    InfeasibleHopError,
    NoncommutingTermsError,
    NotModularError,
    SpinGeometryError,
    _Generators,
    _leg,
    _ordered_product,
    _solve_transporter,
    _syndrome,
    build_hamiltonian,
    gauss_sum_phase,
    hopping_operator,
    leg_string,
    syndrome,
    topological_spin,
)
from invsub.finite_oracle import (
    FiniteLattice,
    InstantiationError,
    instantiate_column,
    instantiate_spec,
)
from invsub.fplinalg import rank, row_space_equal, solve
from invsub.laurent import LaurentPoly
from invsub.pauli import commutant_generators, symplectic_form
from invsub.weyl import PhasedPauli
from invsub.zoo import get_example, plaquette_term

from helpers import (
    exchange_exponent,
    exchange_exponent_per_step,
    first_noncommuting_pair_dense,
    hamiltonian_terms_per_site,
    hopping_operator_per_step,
    leg_full_width,
    leg_string_per_step,
    mat,
    ordered_product_full_width,
    root_of_unity_sympy,
    row_space_contains,
    solve_transporter_all_terms,
    syndrome_all_terms,
    syndrome_dense,
)

Z3 = get_example("example-z3")
TORIC = get_example("toric-code-z3")


@pytest.fixture(scope="module")
def h9():
    return build_hamiltonian(FiniteLattice(3, 2, (9, 9)), Z3.term_symbols)


@pytest.fixture(scope="module")
def h13():
    return build_hamiltonian(FiniteLattice(3, 2, (13, 13)), Z3.term_symbols)


@pytest.fixture(scope="module")
def h13_toric():
    return build_hamiltonian(FiniteLattice(3, 2, (13, 13)),
                             TORIC.term_symbols)


def _gen_column(entry, j):
    v = entry.spec.generators
    return v.submatrix(range(v.rows), [j])


def test_build_hamiltonian_counts_and_span(h9):
    assert len(h9.entries) == 81
    assert h9.spread == 1
    spec_rows = instantiate_spec(Z3.spec, h9.lattice)
    assert row_space_contains(spec_rows, h9.rows, 3)


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
def test_build_hamiltonian_matches_per_site(entry):
    # Sides 1 and 2 make terms of one entry wrap onto one coordinate.
    for sizes in ((1, 1), (2, 1), (2, 2), (3, 4), (4, 4)):
        for periodic in (True, False):
            lat = FiniteLattice(3, 2, sizes, periodic)
            entries, rows = hamiltonian_terms_per_site(lat, entry.term_symbols)
            if not entries:
                with pytest.raises(NoncommutingTermsError, match="no term fits"):
                    build_hamiltonian(lat, entry.term_symbols)
                continue
            h = build_hamiltonian(lat, entry.term_symbols)
            assert h.entries == entries
            assert h.rows.tobytes() == rows.tobytes()


def test_noncommuting_terms_rejected():
    lat = FiniteLattice(3, 2, (5, 5))
    bad = tuple(_gen_column(Z3, j) for j in range(2))
    with pytest.raises(NoncommutingTermsError, match="do not commute"):
        build_hamiltonian(lat, bad)


def test_term_symbols_must_be_single_columns():
    # place lays every column of a matrix; a term is one column.
    lat = FiniteLattice(3, 2, (5, 5))
    with pytest.raises(InstantiationError, match="4 x 1 symbol column"):
        build_hamiltonian(lat, (Z3.spec.generators,))


def _message_pair(lat, symbols):
    with pytest.raises(NoncommutingTermsError) as exc:
        build_hamiltonian(lat, symbols)
    return str(exc.value)


@pytest.mark.parametrize("periodic", [True, False], ids=["torus", "patch"])
def test_noncommuting_pair_is_the_dense_grams_first(periodic):
    # Term sets mixing the commuting terms with generators and with each
    # other's conjugates: the reported pair is the first nonzero of the
    # dense Gram matrix, on tori and on open patches alike.
    z3 = [Z3.term_symbols[0], _gen_column(Z3, 0), _gen_column(Z3, 1)]
    toric = list(TORIC.term_symbols) + [_gen_column(Z3, 1)]
    cases = [z3, z3[1:], z3[::-1], toric, toric[::-1],
             [_gen_column(TORIC, 0), _gen_column(TORIC, 1)]]
    reported = 0
    for sizes in ((2, 2), (3, 4), (5, 5), (6, 3)):
        lat = FiniteLattice(3, 2, sizes, periodic)
        for symbols in cases:
            entries, rows = hamiltonian_terms_per_site(lat, symbols)
            if not entries:
                continue
            pair = first_noncommuting_pair_dense(rows, 3)
            if pair is None:
                build_hamiltonian(lat, symbols)
                continue
            i, j = pair
            assert _message_pair(lat, symbols) == \
                f"terms {entries[i]} and {entries[j]} do not commute"
            reported += 1
    assert reported >= 12


def test_pairings_match_the_dense_pairing(h9, h13_toric):
    rng = np.random.default_rng(7)
    for h in (h9, h13_toric):
        vecs = rng.integers(0, 3, (h.lattice.symplectic_len, 5))
        want = (h.rows[:, :h.lattice.n_qudits] @ vecs[h.lattice.n_qudits:]
                - h.rows[:, h.lattice.n_qudits:]
                @ vecs[:h.lattice.n_qudits]) % 3
        assert np.array_equal(h.pairings(vecs), want)
        for k in range(5):
            op = PhasedPauli.from_symplectic(3, vecs[:, k])
            assert syndrome(op, h) == syndrome_dense(op, h)


def test_syndrome_sites_of_the_two_generators(h9):
    # The first generator fails to commute with exactly the terms one
    # site south and one site southwest; the second with the term at
    # its own site and one site south.
    expected_sites = [{(0, -1), (-1, -1)}, {(0, 0), (0, -1)}]
    lam = symplectic_form(3, 2, 2)
    term = Z3.term_symbols[0]
    for j, sites in enumerate(expected_sites):
        col = _gen_column(Z3, j)
        op = PhasedPauli.from_symplectic(
            3, instantiate_column(h9.lattice, col, (0, 0)))
        syn = syndrome(op, h9)
        wrapped = {tuple(c % 9 for c in s): v for s, v in
                   ((s, v) for (fam, s), v in syn.items())}
        assert set(syn) == {(0, tuple(c % 9 for c in s)) for s in sites}
        # Cross-check every exponent against the symbolic pairing
        # polynomial of the term symbol with the generator column.
        poly = (term.bar_transpose() @ lam @ col).entries[0][0]
        assert wrapped == {tuple(c % 9 for c in e): v
                           for e, v in poly.terms.items()}


def test_syndrome_identity_and_additivity(h9):
    ident = PhasedPauli.identity(3, h9.lattice.n_qudits)
    assert syndrome(ident, h9) == {}
    op1 = PhasedPauli.from_symplectic(
        3, instantiate_column(h9.lattice, _gen_column(Z3, 0), (0, 0)))
    op2 = PhasedPauli.from_symplectic(
        3, instantiate_column(h9.lattice, _gen_column(Z3, 1), (3, 4)))
    s1, s2, s12 = syndrome(op1, h9), syndrome(op2, h9), syndrome(op1 * op2, h9)
    total = {k: (s1.get(k, 0) + s2.get(k, 0)) % 3 for k in set(s1) | set(s2)}
    assert s12 == {k: v for k, v in total.items() if v}


def test_hopping_operator_two_point_syndrome():
    lat = FiniteLattice(3, 2, (11, 11))
    h = build_hamiltonian(lat, Z3.term_symbols)
    op = hopping_operator(h, Z3.hopping_generators, (5, 0), (0, 0))
    assert syndrome(op, h) == {(0, (5, 0)): 1, (0, (0, 0)): 2}
    # A five-site hop is a short product: its footprint stays within a
    # couple of dozen qudit sites around the path.
    assert len(op.support()) <= 24
    # A hop along both axes, the second the short way back round.
    op = hopping_operator(h, Z3.hopping_generators, (3, 8), (0, 0), charge=2)
    assert syndrome(op, h) == {(0, (3, 8)): 2, (0, (0, 0)): 1}


def test_hopping_operator_rejects_equal_sites(h9):
    with pytest.raises(ValueError, match="must differ"):
        hopping_operator(h9, Z3.hopping_generators, (1, 1), (1, 1))


def test_hopping_infeasible_with_wrong_strings():
    lat = FiniteLattice(3, 2, (9, 9))
    h = build_hamiltonian(lat, TORIC.term_symbols)
    x_strings = mat(3, 2, [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]])
    # X-type strings only ever excite the second term family, so they
    # cannot carry charge between vertex-family syndromes.
    with pytest.raises(InfeasibleHopError):
        hopping_operator(h, x_strings, (2, 0), (0, 0), family=0)


def test_leg_string_telescopes(h13):
    op = leg_string(h13, Z3.hopping_generators, (2, 3), (-1, -1), 6)
    assert syndrome(op, h13) == {(0, (9, 10)): 1, (0, (2, 3)): 2}


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
def test_leg_string_equals_the_per_step_engine(entry):
    # Translating the origin transporter gives the same operator, phase
    # included, as solving per call and instantiating every step.
    gens = entry.hopping_generators
    for side in (11, 13, 21):
        h = build_hamiltonian(FiniteLattice(3, 2, (side, side)),
                              entry.term_symbols)
        for direction in ((1, 0), (0, 1), (-1, -1), (0, -1)):
            for charge in (1, 2):
                for junction in ((0, 0), (3, side - 2)):
                    got = leg_string(h, gens, junction, direction, 7,
                                     charge=charge)
                    assert got == leg_string_per_step(
                        h, gens, junction, direction, 7, charge=charge)


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
def test_hopping_and_spin_equal_the_per_step_engine(entry):
    gens = entry.hopping_generators
    for side in (11, 13):
        h = build_hamiltonian(FiniteLattice(3, 2, (side, side)),
                              entry.term_symbols)
        for a, b, charge in (((5, 0), (0, 0), 1), ((3, 8), (0, 0), 2),
                             ((1, 1), (9, 4), 1)):
            assert hopping_operator(h, gens, a, b, charge=charge) == \
                hopping_operator_per_step(h, gens, a, b, charge=charge)
    h = build_hamiltonian(FiniteLattice(3, 2, (21, 21)), entry.term_symbols)
    for charge in (1, 2):
        for junction in ((0, 0), (3, 2)):
            for legs in (DEFAULT_LEG_DIRECTIONS,
                         ((0, 1), (-1, -1), (1, 0))):
                rep = topological_spin(h, gens, charge=charge,
                                       junction=junction,
                                       leg_directions=legs)
                assert rep.exponent == exchange_exponent_per_step(
                    h, gens, charge, junction, rep.leg_length, legs)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 65521]), st.data())
def test_ordered_product_is_the_folded_pauli_product(p, data):
    # Powers run past p: at p = 2, XZ has order 4, so (XZ)^3 = -XZ and
    # the sign of C(c, 2) b.a must come from c itself.
    # Up to 40 factors: the prefix sums of the cross term grow with k.
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 40))
    ints = st.integers(0, p - 1)
    rows = np.array(data.draw(st.lists(st.lists(ints, min_size=2 * m,
                                                max_size=2 * m),
                                       min_size=k, max_size=k)),
                    dtype=np.int64).reshape(k, 2 * m)
    phases = data.draw(st.lists(ints, min_size=k, max_size=k))
    powers = data.draw(st.lists(st.integers(0, 3 * p), min_size=k,
                                max_size=k))
    want = PhasedPauli.identity(p, m)
    for row, phase, c in zip(rows, phases, powers):
        want = want * PhasedPauli.from_symplectic(p, row, phase) ** c
    row, phase = _ordered_product(rows, p, phases=phases, powers=powers)
    assert row.tolist() == list(want.to_symplectic())
    assert phase == want.phase


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
@pytest.mark.parametrize("side", [13, 17])
def test_spin_is_the_literal_exchange_product(entry, side):
    # The commutator-sum exponent against the literal product of the
    # three legs that leg_string returns.
    gens = entry.hopping_generators
    h = build_hamiltonian(FiniteLattice(3, 2, (side, side)),
                          entry.term_symbols)
    for charge in (1, 2):
        for junction in ((0, 0), (3, 2)):
            for legs in (DEFAULT_LEG_DIRECTIONS, ((0, 1), (-1, -1), (1, 0))):
                rep = topological_spin(h, gens, charge=charge,
                                       junction=junction, leg_directions=legs)
                assert rep.exponent == exchange_exponent(*(
                    leg_string(h, gens, junction, d, rep.leg_length,
                               charge=charge) for d in legs))


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
@pytest.mark.parametrize("side", [13, 17, 21, 31])
def test_string_engine_equals_the_full_width_reference(entry, side):
    # The local transporter system, the products on the touched qudits
    # and the syndromes on the terms meeting the support give the same
    # rows, phases and syndromes as pairing every term and sweeping
    # every coordinate.
    gens = entry.hopping_generators
    cols = [gens.submatrix(range(gens.rows), [j]) for j in range(gens.cols)]
    h = build_hamiltonian(FiniteLattice(3, 2, (side, side)),
                          entry.term_symbols)
    for charge in range(3):
        legs = []
        for direction in DEFAULT_LEG_DIRECTIONS:
            row, phase = _solve_transporter(h, _Generators(gens), direction,
                                            charge, 0)
            want_row, want_phase = solve_transporter_all_terms(
                h, cols, direction, charge, 0)
            assert (row.tobytes(), phase) == (want_row.tobytes(), want_phase)
            assert _syndrome(row, h) == syndrome_all_terms(row, h)
            row, phase = _leg(h, gens, (3, 2), direction, 10, charge, 0)
            want_row, want_phase = leg_full_width(h, gens, (3, 2), direction,
                                                  10, charge)
            assert (row.tobytes(), phase) == (want_row.tobytes(), want_phase)
            assert _syndrome(row, h) == syndrome_all_terms(row, h)
            legs.append(row)
        legs = np.array(legs)
        for order in (legs, legs[::-1]):
            got, want = (_ordered_product(order, 3),
                         ordered_product_full_width(order, 3))
            assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])


@pytest.mark.parametrize("entry", [Z3, TORIC], ids=["example-z3", "toric-code-z3"])
def test_transporter_system_does_not_grow_with_the_torus(entry, monkeypatch):
    # Only the terms near the one-step segment enter the solve, so the
    # system is the same size on every torus.
    shapes = []

    def recording(a, b, p):
        shapes.append(np.shape(a))
        return solve(a, b, p)

    monkeypatch.setattr(anyon_lab, "solve", recording)
    per_side = {}
    for side in (13, 31):
        shapes.clear()
        h = build_hamiltonian(FiniteLattice(3, 2, (side, side)),
                              entry.term_symbols)
        topological_spin(h, entry.hopping_generators)
        per_side[side] = list(shapes)
    assert len(per_side[13]) == 3
    assert per_side[13] == per_side[31]
    assert all(rows < len(h.entries) // 10 for rows, _ in per_side[31])


def test_transporters_are_solved_once_per_hamiltonian():
    gens = Z3.hopping_generators
    h11, h13 = (build_hamiltonian(FiniteLattice(3, 2, (s, s)),
                                  Z3.term_symbols) for s in (11, 13))
    topological_spin(h13, gens, charge=1)
    assert len(h13._transporters) == 3
    # Charge 4 is charge 1 mod 3 and a junction move is a translation:
    # neither solves again.
    topological_spin(h13, gens, charge=4, junction=(3, 2))
    assert len(h13._transporters) == 3
    assert h11._transporters == {}
    # The other torus solves its own transporters, sized to its register.
    op = leg_string(h11, gens, (2, 3), (1, 0), 5)
    assert op == leg_string_per_step(h11, gens, (2, 3), (1, 0), 5)
    assert len(h11._transporters) == 1
    assert len(h13._transporters) == 3
    # Each entry is a symplectic row and a phase.
    assert all(row.shape == (2 * 242,) for row, _ in
               h11._transporters.values())
    assert all(row.shape == (2 * 338,) for row, _ in
               h13._transporters.values())


def test_warm_spin_hashes_the_generators_once(monkeypatch):
    # Every leg looks up its transporter, but the generators' entries
    # are hashed once per call, not once per lookup (48 hashes before).
    gens = Z3.hopping_generators
    h = build_hamiltonian(FiniteLattice(3, 2, (21, 21)), Z3.term_symbols)
    topological_spin(h, gens)
    hashed = []
    plain = LaurentPoly.__hash__

    def counted(self):
        hashed.append(self)
        return plain(self)

    monkeypatch.setattr(LaurentPoly, "__hash__", counted)
    assert topological_spin(h, gens).exponent == 1
    assert len(hashed) == gens.rows * gens.cols == 8
    hashed.clear()
    hopping_operator(h, gens, (6, 5), (4, 3))
    assert len(hashed) == 8


def test_string_operators_need_a_torus():
    pat = FiniteLattice(3, 2, (11, 11), periodic=False)
    h = build_hamiltonian(pat, Z3.term_symbols)
    with pytest.raises(InstantiationError, match="need a torus"):
        hopping_operator(h, Z3.hopping_generators, (6, 5), (4, 5))
    with pytest.raises(InstantiationError, match="need a torus"):
        leg_string(h, Z3.hopping_generators, (5, 5), (1, 0), 2)


def test_topological_spin_of_the_unit_charge(h13):
    rep = topological_spin(h13, Z3.hopping_generators, charge=1)
    assert rep.exponent == 1
    assert root_of_unity_sympy(rep.exponent, rep.p) == \
        sp.exp(2 * sp.pi * sp.I / 3)
    assert rep.leg_directions == DEFAULT_LEG_DIRECTIONS
    assert rep.leg_length == 10


def test_topological_spin_quadratic_in_charge(h13):
    exps = [topological_spin(h13, Z3.hopping_generators, charge=k).exponent
            for k in (0, 1, 2)]
    assert exps[0] == 0
    assert exps[2] == (4 * exps[1]) % 3


def test_topological_spin_geometry_invariance(h13):
    base = topological_spin(h13, Z3.hopping_generators).exponent
    variants = [
        dict(leg_length=8),
        dict(leg_length=9),
        dict(junction=(3, 2)),
        dict(leg_directions=((0, 1), (-1, -1), (1, 0))),
    ]
    for kw in variants:
        assert topological_spin(h13, Z3.hopping_generators, **kw).exponent \
            == base


def test_topological_spin_toric_e_anyon(h13_toric):
    rep = topological_spin(h13_toric, TORIC.hopping_generators,
                           charge=1, family=0)
    assert rep.exponent == 0
    assert root_of_unity_sympy(rep.exponent, rep.p) == 1


def test_topological_spin_of_the_conjugate_model(h13):
    conj = commutant_generators(Z3.spec)
    h = build_hamiltonian(h13.lattice, (plaquette_term(conj.generators),))
    rep = topological_spin(h, conj.generators, charge=1)
    base = topological_spin(h13, Z3.hopping_generators, charge=1).exponent
    assert rep.exponent == (-base) % 3 == 2


def test_topological_spin_refusals(h13, h9):
    with pytest.raises(SpinGeometryError, match="threshold"):
        topological_spin(h13, Z3.hopping_generators, leg_length=7)
    with pytest.raises(SpinGeometryError, match="lap"):
        topological_spin(h9, Z3.hopping_generators, leg_length=8)


def test_terms_with_conjugates_generate_the_toric_terms():
    lat = FiniteLattice(3, 2, (5, 5))
    h = build_hamiltonian(lat, Z3.term_symbols)
    conj_rows = h.rows.copy()
    half = conj_rows.shape[1] // 2
    conj_rows[:, half:] = (-conj_rows[:, half:]) % 3
    union = np.vstack([h.rows, conj_rows])
    toric_rows = instantiate_spec(TORIC.spec, lat)
    assert rank(union, 3) == rank(toric_rows, 3) == 48
    assert row_space_equal(union, toric_rows, 3)


def test_terms_independent_on_open_patch():
    # Open boundaries break the torus-wide product relation: no
    # nontrivial exponent pattern multiplies to a scalar, which is the
    # statement that the term rows are linearly independent.
    pat = FiniteLattice(3, 2, (6, 6), periodic=False)
    h = build_hamiltonian(pat, Z3.term_symbols)
    assert len(h.entries) == 20
    assert rank(h.rows, 3) == 20


def test_gauss_sum_unit_charge_collection():
    rep = gauss_sum_phase(3, [0, 1, 1])
    assert rep.eighth_root_exponent == 2
    assert root_of_unity_sympy(rep.eighth_root_exponent, 8) == sp.I
    assert rep.phase == str(sp.I)


def test_gauss_sum_toric_collection():
    rep = gauss_sum_phase(3, TORIC.anyon_spin_exponents)
    assert rep.eighth_root_exponent == 0
    assert root_of_unity_sympy(rep.eighth_root_exponent, 8) == 1
    assert rep.phase == str(sp.Integer(1))


def test_gauss_sum_trivial_theory():
    assert gauss_sum_phase(3, [0]).eighth_root_exponent == 0


@pytest.mark.parametrize("p,expected", [(5, 0), (7, 2), (11, 2), (13, 0)])
def test_gauss_sum_quadratic_collections(p, expected):
    # Classical quadratic Gauss sums: sum of omega^(k^2) is +sqrt(p)
    # for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4.
    spins = [(k * k) % p for k in range(p)]
    assert gauss_sum_phase(p, spins).eighth_root_exponent == expected


@pytest.mark.parametrize("k", range(8))
def test_gauss_sum_phase_text_is_the_sympy_phase(k):
    rep = GaussSumReport(eighth_root_exponent=k)
    assert rep.phase == str(root_of_unity_sympy(k, 8))


@pytest.mark.parametrize("p, spins", [
    (9, [0, 3, 3]),       # modular, with phase I, but 9 is not prime
    (4, [0, 0, 1, 3]),
    (1, [0]),
    (0, [0]),
    (65537, [0]),         # a prime above specio.MAX_PRIME
    (2 ** 61 - 1, [0]),   # a count list this long would not fit
])
def test_gauss_sum_refuses_a_modulus_that_is_not_a_supported_prime(p, spins):
    # The cyclotomic test holds only over a prime, so any other modulus
    # is refused as input, not reported as a verdict.
    with pytest.raises(ValueError, match="not a prime") as exc:
        gauss_sum_phase(p, spins)
    assert not isinstance(exc.value, NotModularError)


def test_gauss_sum_at_the_largest_prime():
    # p = 65521 is 1 mod 4: the quadratic sum is +sqrt(p).  Its square
    # has coefficients up to p, which need three-byte slots.
    p = 65521
    assert gauss_sum_phase(p, [(k * k) % p for k in range(p)]) \
        .eighth_root_exponent == 0
    with pytest.raises(NotModularError):
        gauss_sum_phase(p, [0, 1])


def test_gauss_sum_rejects_non_modular():
    with pytest.raises(NotModularError):
        gauss_sum_phase(3, [0, 1])
    with pytest.raises(NotModularError):
        gauss_sum_phase(3, [])
