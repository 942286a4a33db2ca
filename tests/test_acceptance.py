"""Acceptance suite: ten numbered criteria, each contributing one
pass/fail line with its runtime to the terminal summary, and each
enforcing the stated time budget.  All assertions are exact."""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import sympy as sp

from helpers import distance_sympy, mat, root_of_unity_sympy
from invsub.anyon_lab import (
    DEFAULT_LEG_DIRECTIONS,
    build_hamiltonian,
    gauss_sum_phase,
    syndrome,
    topological_spin,
)
from invsub.finite_oracle import (
    FiniteLattice,
    center_at_boundary_distance,
    check_invertible_finite,
    instantiate_column,
    instantiate_qca,
    instantiate_spec,
    symplectic_complement,
)
from invsub.fplinalg import (
    coordinate_restriction,
    row_basis,
    row_space_equal,
)
from invsub.laurent import LaurentMatrix, LaurentPoly
from invsub.pauli import (
    SubalgebraSpec,
    build_projector,
    check_invertible,
    commutant_generators,
    symplectic_form,
)
from invsub.qca import lift_to_qca, promote_spec, qca_inverse
from invsub.weyl import PauliConjugation, PhasedPauli, dist_bounded
from invsub.zoo import get_example, random_remark_spec

Z3 = get_example("example-z3")
TORIC = get_example("toric-code-z3")

RESULTS: list[str] = []


@contextmanager
def criterion(num, description, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {num:02d}: {description}"
        RESULTS.append(line)
        print(line)
        raise
    elapsed = time.monotonic() - start
    line = (f"[PASS] criterion {num:02d}: {description} "
            f"({elapsed:.2f}s / {budget:.0f}s)")
    RESULTS.append(line)
    print(line)
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_invertible_example():
    with criterion(1, "flagship example certified invertible, unit ideal", 1):
        cert = check_invertible(Z3.spec)
        assert cert.invertible is True
        assert cert.profile.is_unit is True
        assert tuple(cert.profile.ideal.generator_strings()) == ("1",)
        assert cert.projector_available is True


def test_criterion_02_noninvertible_chain():
    with criterion(2, "qubit chain rejected with the expected ideal", 1):
        cert = check_invertible(get_example("nonexample-1dxz").spec)
        assert cert.invertible is False
        assert cert.profile.is_unit is False
        assert tuple(cert.profile.ideal.generator_strings()) == ("x^-1 + x",)


def test_criterion_03_projector_identities():
    with criterion(3, "projector idempotent, fixing, commuting, local", 5):
        spec = Z3.spec
        proj = build_projector(spec)
        pi = proj.matrix
        assert pi @ pi == pi
        assert pi @ spec.generators == spec.generators
        lam = symplectic_form(spec.p, spec.q, spec.dims)
        residual = spec.generators.bar_transpose() @ lam @ proj.complement()
        assert residual == LaurentMatrix.zeros(
            spec.p, spec.dims, spec.n_generators, 2 * spec.q)
        assert proj.spread <= 4


def test_criterion_04_commutant_is_conjugate():
    with criterion(4, "commutant equals the conjugated model", 30):
        spec = Z3.spec
        conj = commutant_generators(spec)
        conjugated = SubalgebraSpec(
            p=spec.p, q=spec.q, dims=spec.dims,
            generators=spec.x_block().vstack(spec.z_block().scale(-1)))
        lam = symplectic_form(spec.p, spec.q, spec.dims)
        for other in (conj.generators, conjugated.generators):
            pairing = other.bar_transpose() @ lam @ spec.generators
            assert pairing == LaurentMatrix.zeros(
                spec.p, spec.dims, other.cols, spec.n_generators)
        lat = FiniteLattice(3, 2, (7, 7))
        spec_rows = instantiate_spec(spec, lat)
        commutant_rows = instantiate_spec(conj, lat)
        conjugated_rows = instantiate_spec(conjugated, lat)
        complement = symplectic_complement(row_basis(spec_rows, 3), lat)
        assert row_space_equal(commutant_rows, complement, 3)
        assert row_space_equal(conjugated_rows, complement, 3)


def test_criterion_05_lift_and_boundary():
    with criterion(5, "lift symplectic with local inverse; boundary "
                      "algebra equals the model on every cut", 120):
        spec = Z3.spec
        qca = lift_to_qca(spec)
        n = 2 * spec.q
        lam = symplectic_form(spec.p, spec.q, spec.dims + 1)
        assert qca.matrix.bar_transpose() @ lam @ qca.matrix == lam
        inv = qca_inverse(qca)
        ident = LaurentMatrix.identity(spec.p, spec.dims + 1, n)
        assert inv.matrix @ qca.matrix == ident
        assert qca.matrix @ inv.matrix == ident
        lat = FiniteLattice(3, 2, (7, 7, 7))
        fin = instantiate_qca(qca, lat)
        target = instantiate_spec(promote_spec(spec), lat)
        from invsub.finite_oracle import boundary_algebra_finite
        for cut in (1, 3, 5):
            report = boundary_algebra_finite(fin, axis=2, cut=cut, window=1)
            assert report.factorization_holds
            sheet = (cut + 1) % 7
            coords = [c for s in lat.sites() if s[2] == sheet
                      for c in lat.site_coords(s)]
            per_sheet = coordinate_restriction(target, coords, 3)
            assert row_space_equal(report.basis, per_sheet, 3)


def test_criterion_06_hamiltonian_and_syndromes():
    with criterion(6, "Hamiltonian terms commute on 9x9; defect "
                      "syndromes sit on the predicted sites", 30):
        lat = FiniteLattice(3, 2, (9, 9))
        h = build_hamiltonian(lat, Z3.term_symbols)
        assert len(h.rows) == 81
        gens = Z3.hopping_generators
        origin = (0, 0)
        expected = (
            {(0, (0, 8)): 2, (0, (8, 8)): 1},
            {(0, (0, 0)): 2, (0, (0, 8)): 1},
        )
        for j, want in enumerate(expected):
            col = gens.submatrix(range(gens.rows), [j])
            op = PhasedPauli.from_symplectic(
                lat.p, instantiate_column(lat, col, origin))
            assert syndrome(op, h) == want


def test_criterion_07_topological_spin():
    with criterion(7, "exchange phase: elementary charge a third turn, "
                      "reference boson trivial, geometry independent", 120):
        lat = FiniteLattice(3, 2, (13, 13))
        h = build_hamiltonian(lat, Z3.term_symbols)
        base = topological_spin(h, Z3.hopping_generators, charge=1)
        assert base.exponent == 1
        assert sp.simplify(root_of_unity_sympy(base.exponent, base.p)
                           - sp.exp(2 * sp.pi * sp.I / 3)) == 0
        variants = [
            dict(leg_length=8),
            dict(leg_length=9),
            dict(junction=(3, 2)),
            dict(leg_directions=DEFAULT_LEG_DIRECTIONS[1:]
                 + DEFAULT_LEG_DIRECTIONS[:1]),
        ]
        for kw in variants:
            assert topological_spin(
                h, Z3.hopping_generators, charge=1, **kw).exponent == 1
        toric = build_hamiltonian(lat, TORIC.term_symbols)
        bos = topological_spin(toric, TORIC.hopping_generators, charge=1)
        assert bos.exponent == 0
        assert root_of_unity_sympy(bos.exponent, bos.p) == 1


def test_criterion_08_gauss_sum():
    with criterion(8, "Gauss-sum phase: chiral triple gives i, "
                      "reference model gives 1", 1):
        chiral = gauss_sum_phase(3, [0, 1, 1])
        assert chiral.eighth_root_exponent == 2
        assert sp.simplify(
            root_of_unity_sympy(chiral.eighth_root_exponent, 8) - sp.I) == 0
        assert chiral.phase == str(sp.I)
        toric = gauss_sum_phase(3, list(TORIC.anyon_spin_exponents))
        assert toric.eighth_root_exponent == 0
        assert root_of_unity_sympy(toric.eighth_root_exponent, 8) == 1
        assert toric.phase == str(sp.Integer(1))


def test_criterion_09_distance():
    with criterion(9, "global bit flip at distance 2; metric axioms on "
                      "random conjugations", 60):
        flip = PauliConjugation(
            PhasedPauli(2, 0, np.ones(6, np.int64), np.zeros(6, np.int64)))
        ident = PauliConjugation(PhasedPauli.identity(2, 6))
        result = dist_bounded(flip, ident, 2, 6, max_support=1)
        assert distance_sympy(result) == sp.Integer(2)
        assert result.value == str(sp.Integer(2))
        rng = np.random.default_rng(2026)
        p, m = 3, 3

        def rand_conj():
            while True:
                a = rng.integers(0, p, m)
                b = rng.integers(0, p, m)
                if a.any() or b.any():
                    return PauliConjugation(PhasedPauli(p, 0, a, b))

        def d(x, y):
            return dist_bounded(x, y, p, m, max_support=1).numeric

        for _ in range(20):
            f, g, k = rand_conj(), rand_conj(), rand_conj()
            assert d(f, f) == 0
            assert abs(d(f, g) - d(g, f)) <= 1e-12
            assert d(f, g) <= d(f, k) + d(k, g) + 1e-12


def test_criterion_10_oracle_agreement():
    with criterion(10, "double commutant, presentation invariance, and "
                       "finite-lattice agreement", 300):
        rng = np.random.default_rng(7)
        lat = FiniteLattice(3, 2, (4, 4))
        n = lat.symplectic_len
        for _ in range(100):
            k = int(rng.integers(1, 11))
            rows = row_basis(rng.integers(0, 3, (k, n)), 3)
            twice = symplectic_complement(
                symplectic_complement(rows, lat), lat)
            assert row_space_equal(twice, rows, 3)

        spec = Z3.spec
        for _ in range(100):
            kind = rng.integers(0, 3)
            e = LaurentMatrix.identity(3, 2, 2)
            if kind == 0:
                g = LaurentPoly.monomial(
                    int(rng.integers(1, 3)),
                    tuple(int(v) for v in rng.integers(-2, 3, 2)), 3, 2)
                i, j = (0, 1) if rng.integers(0, 2) else (1, 0)
                rows = [[e.entries[r][c] for c in range(2)] for r in range(2)]
                rows[i][j] = g
                e = LaurentMatrix(3, 2, rows)
            elif kind == 1:
                c = int(rng.integers(1, 3))
                e = e.scale(c)
            else:
                e = LaurentMatrix(3, 2, [
                    [e.entries[0][1], e.entries[0][0]],
                    [e.entries[1][1], e.entries[1][0]]])
            cert = check_invertible(SubalgebraSpec(
                p=3, q=2, dims=2, generators=spec.generators @ e))
            assert cert.invertible is True
            assert cert.profile.is_unit is True

        suite = [
            Z3.spec,
            get_example("full").spec,
            get_example("empty").spec,
            random_remark_spec(3, np.random.default_rng(0)),
            random_remark_spec(5, np.random.default_rng(0)),
        ]
        for s in suite:
            sym = check_invertible(s).invertible
            size = 4 * max(s.spread, 1) + 1
            torus = FiniteLattice(s.p, s.q, (size,) * s.dims)
            rows = instantiate_spec(s, torus)
            fin = check_invertible_finite(rows, torus, spread=s.spread)
            assert fin.invertible == sym
            assert not fin.small_lattice_warning
            if sym and s.spread > 0:
                patch = FiniteLattice(s.p, s.q, (size + 1,) * s.dims,
                                      periodic=False)
                patch_rows = instantiate_spec(s, patch)
                worst = center_at_boundary_distance(patch_rows, patch)
                assert worst <= 2 * s.spread
