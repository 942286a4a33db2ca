"""Tests for finite-lattice instantiation and the exact referee checks."""

import itertools
import random
import tracemalloc
from time import perf_counter

import numpy as np
import pytest

import invsub.finite_oracle as finite_oracle
import invsub.fplinalg as fplinalg
from helpers import (
    boundary_algebra_via_image,
    boundary_distance_every_vector,
    check_vs_every_site,
    full_spec,
    instantiate_column_per_term,
    instantiate_qca_per_site,
    instantiate_spec_per_site,
    invertibility_and_center_via_complement,
    mat,
    measure_spread_per_entry,
    non_graph_spec,
    random_symplectic_matrix,
    symplectic_gram_dense,
    symplectic_map,
    translation_by_roll,
    translation_invariant_rereducing,
    xz_chain_spec,
    z3_spec,
)
from invsub.fplinalg import (
    coordinate_restriction,
    rank,
    row_basis,
    row_space_contains,
    row_space_equal,
)
from invsub.finite_oracle import (
    MAX_SYMPLECTIC_LEN,
    BoundaryAlgebraReport,
    FiniteLattice,
    FiniteSymplecticMap,
    InstantiationError,
    LatticeSizeError,
    boundary_algebra_finite,
    center_at_boundary_distance,
    check_invertible_finite,
    check_vs,
    instantiate_column,
    instantiate_qca,
    instantiate_spec,
    pairing_matrix,
    symplectic_complement,
    verify_blend,
)
from invsub.laurent import LaurentMatrix, LaurentPoly
from invsub.pauli import (
    SubalgebraSpec,
    check_invertible,
    commutant_generators,
    commutation_matrix,
)
from invsub.qca import lift_to_qca, promote_spec, shift_qca
from invsub.zoo import example_names, get_example, random_remark_spec


def test_lattice_indexing_round_trip():
    lat = FiniteLattice(3, 2, (4, 5))
    assert lat.n_sites == 20
    assert lat.symplectic_len == 80
    assert lat.site_index((0, 0)) == 0
    assert lat.site_index((1, 2)) == 7
    assert lat.site_index((1, -3)) == 7  # wraps
    assert lat.x_coord((1, 2), 1) == 15
    assert lat.z_coord((1, 2), 1) == 55
    assert lat.site_coords((0, 0)) == [0, 1, 40, 41]


def test_lattice_patch_resolve_and_window():
    pat = FiniteLattice(3, 1, (4, 4), periodic=False)
    assert pat.resolve((3, 0)) == (3, 0)
    assert pat.resolve((4, 0)) is None
    assert len(pat.window_sites((0, 0), 1)) == 4  # clipped corner
    tor = FiniteLattice(3, 1, (4, 4))
    assert len(tor.window_sites((0, 0), 1)) == 9
    assert tor.displacement((0, 0), (3, 0)) == 1  # shortest way wraps
    assert pat.displacement((0, 0), (3, 0)) == 3


def test_lattice_size_bound():
    # Refused in __post_init__, before any row is allocated.
    with pytest.raises(LatticeSizeError):
        FiniteLattice(3, 2, (200, 200))
    with pytest.raises(LatticeSizeError):
        FiniteLattice(3, 1, (MAX_SYMPLECTIC_LEN // 2 + 1,))
    assert FiniteLattice(3, 1, (MAX_SYMPLECTIC_LEN // 2,)).symplectic_len \
        == MAX_SYMPLECTIC_LEN
    # The largest lattices the tests, benchmark and README use.
    for q, sizes in ((2, (8, 8, 8)), (2, (9, 9, 9)), (2, (31, 31)),
                     (2, (21, 21)), (4, (9, 9))):
        assert FiniteLattice(3, q, sizes).symplectic_len <= MAX_SYMPLECTIC_LEN


def test_instantiate_column_places_terms():
    lat = FiniteLattice(3, 1, (3, 3))
    col = mat(3, 2, [["1 - y"], ["0"]])
    vec = instantiate_column(lat, col, (1, 1))
    # X part: +1 at site (1,1), -1 at site (1,2); no Z part.
    expected = np.zeros(18, dtype=np.int64)
    expected[lat.x_coord((1, 1), 0)] = 1
    expected[lat.x_coord((1, 2), 0)] = 2
    assert np.array_equal(vec, expected)


def test_instantiate_column_patch_drop():
    pat = FiniteLattice(3, 1, (3, 3), periodic=False)
    col = mat(3, 2, [["1 - y"], ["0"]])
    assert instantiate_column(pat, col, (0, 2)) is None
    assert instantiate_column(pat, col, (0, 1)) is not None


def random_column(rng, p, q, dims, reach=2):
    """A 2q x 1 symbol column whose entries have up to three terms with
    exponents in [-reach, reach]."""
    entries = []
    for _ in range(2 * q):
        f = LaurentPoly.zero(p, dims)
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(-reach, reach) for _ in range(dims))
            f = f + LaurentPoly.monomial(rng.randint(1, p - 1), e, p, dims)
        entries.append([f])
    return LaurentMatrix(p, dims, entries)


LAYOUT_SIZES = {1: [(1,), (2,), (5,)], 2: [(1, 3), (2, 2), (3, 4)],
                3: [(1, 2, 2), (2, 3, 2)]}


def layout_cases():
    """Seeded (lattice, column, bases) draws on tori and patches, p in
    {2, 3, 5}, dims 1 to 3; the bases include sites off the patch and
    negative ones."""
    rng = random.Random(20)
    for dims, sizes_list in LAYOUT_SIZES.items():
        for sizes in sizes_list:
            for p in (2, 3, 5):
                for periodic in (True, False):
                    q = rng.choice((1, 2))
                    lat = FiniteLattice(p, q, sizes, periodic)
                    for _ in range(3):
                        bases = [tuple(rng.randint(-3, s + 2) for s in sizes)
                                 for _ in range(6)]
                        yield lat, random_column(rng, p, q, dims), bases


def test_placement_matches_per_term_reference():
    offs = fits = 0
    for lat, col, bases in layout_cases():
        rows, mask = finite_oracle.placements(lat, col, bases)
        coords, coeffs, place_mask = lat.place(col, bases)
        assert coords.shape == (len(coeffs), len(bases))
        assert np.array_equal(mask, place_mask)
        for i, base in enumerate(bases):
            want = instantiate_column_per_term(lat, col, base)
            got = instantiate_column(lat, col, base)
            assert (got is None) == (want is None) == (not mask[i])
            if want is not None:
                assert np.array_equal(got, want)
                assert np.array_equal(rows[i], want)
                fits += 1
            offs += lat.resolve(base) is None
    # Both outcomes and bases off the patch were drawn.
    assert fits and offs


def test_place_at_every_site_by_default():
    for lat, col, _ in itertools.islice(layout_cases(), 0, None, 5):
        every = lat.place(col)
        listed = lat.place(col, list(lat.sites()))
        for a, b in zip(every, listed):
            assert np.array_equal(a, b)


def test_translation_matches_roll_reference():
    rng = random.Random(21)
    for lat, _, bases in itertools.islice(layout_cases(), 0, None, 3):
        for shift in bases + [(0,) * lat.dims]:
            want = translation_by_roll(lat, shift)
            assert np.array_equal(lat.translation(shift), want)
        axis = rng.randrange(lat.dims)
        unit = tuple(int(k == axis) for k in range(lat.dims))
        assert np.array_equal(lat.translation(unit),
                              translation_by_roll(lat, unit))


def test_translation_moves_a_placed_column():
    # Placing at s then translating by t is placing at s + t.
    for lat, col, bases in itertools.islice(layout_cases(), 0, None, 2):
        if not lat.periodic:
            continue
        base, shift = bases[0], bases[1]
        perm = lat.translation(shift)
        vec = instantiate_column(lat, col, base)
        moved = vec.reshape(2, -1)[:, perm].ravel()
        assert np.array_equal(
            moved,
            instantiate_column(lat, col, tuple(b + t for b, t in
                                               zip(base, shift))))


def test_layout_coordinates():
    lat = FiniteLattice(3, 2, (3, 4), periodic=False)
    assert lat.grid.tolist()[:5] == [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0]]
    assert not lat.grid.flags.writeable
    assert lat.grid is lat.grid
    for i, s in enumerate(lat.sites()):
        assert tuple(lat.grid[i]) == s
        here = lat.site_coords(s)
        assert here == [2 * i, 2 * i + 1, 24 + 2 * i, 25 + 2 * i]
        assert lat.coords_of(i).tolist() == here
        assert lat.site_of(here).tolist() == [i] * 4
    assert lat.coords_of([0, 5]).tolist() == [[0, 10], [1, 11],
                                              [24, 34], [25, 35]]
    assert lat.site_of(np.arange(48)).tolist() == \
        list(np.repeat(np.arange(12), 2)) * 2


def test_wrong_arity_sites_are_refused():
    # zip truncated them: site_index((7,)) was 2, and the column placed
    # at (0,) was not its placement at (0, 0).
    lat = FiniteLattice(3, 2, (5, 5))
    col = z3_spec().generators.submatrix(range(4), [0])
    for site in ((7,), (0,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match="2 coordinates"):
            lat.site_index(site)
        with pytest.raises(ValueError, match="2 coordinates"):
            lat.resolve(site)
        with pytest.raises(ValueError, match="2 coordinates"):
            lat.translation(site)
        with pytest.raises(ValueError, match="2 coordinates"):
            instantiate_column(lat, col, site)
        with pytest.raises(ValueError, match="2 coordinates"):
            lat.place(col, [site])
    with pytest.raises(ValueError, match="2 coordinates"):
        lat.place(col, [(0, 0, 0), (1, 1, 1)])
    assert lat.site_index((7, 0)) == 10


def test_instantiate_spec_ranks():
    lat = FiniteLattice(3, 2, (5, 5))
    rows = instantiate_spec(z3_spec(), lat)
    assert rows.shape == (50, 100)
    assert rank(rows, 3) == 50


def test_instantiate_spec_patch_error():
    # On a 1-wide patch no translate of a spread-1 generator fits.
    pat = FiniteLattice(3, 2, (1, 1), periodic=False)
    with pytest.raises(InstantiationError):
        instantiate_spec(z3_spec(), pat)


def test_pairing_matches_symbol_commutation():
    # The finite pairing of generator i at the origin with generator j
    # placed at offset t must be the coefficient of x^(-t) in the
    # symbol-level commutation matrix entry (i, j).
    lat = FiniteLattice(3, 2, (7, 7))
    spec = z3_spec()
    xi = commutation_matrix(spec)
    cols = [spec.generators.submatrix(range(4), [j]) for j in range(2)]
    for i in range(2):
        u = instantiate_column(lat, cols[i], (0, 0))
        for j in range(2):
            for t in [(0, 0), (1, 0), (0, 1), (-1, -1), (2, 0)]:
                w = instantiate_column(lat, cols[j], t)
                finite = int(pairing_matrix(u, w, 3)[0, 0])
                symbol = xi[(i, j)].terms.get((-t[0], -t[1]), 0)
                assert finite == symbol % 3


def test_complement_of_z3_is_conjugate_span():
    lat = FiniteLattice(3, 2, (5, 5))
    rows = instantiate_spec(z3_spec(), lat)
    comp = symplectic_complement(rows, lat)
    assert comp.shape[0] == 50
    conj = instantiate_spec(commutant_generators(z3_spec()), lat)
    assert row_space_equal(comp, conj, 3)
    assert not pairing_matrix(rows, comp, 3).any()


def test_complement_of_full_and_empty():
    lat = FiniteLattice(3, 1, (3, 3))
    full_rows = np.eye(18, dtype=np.int64)
    assert symplectic_complement(full_rows, lat).shape[0] == 0
    empty = np.zeros((0, 18), dtype=np.int64)
    assert symplectic_complement(empty, lat).shape[0] == 18


def test_xz_chain_center_is_all_sites_product():
    lat = FiniteLattice(2, 1, (4,))
    rows = instantiate_spec(xz_chain_spec(), lat)
    comp = symplectic_complement(rows, lat)
    all_y = rows.sum(axis=0) % 2
    assert all_y.all()  # X and Z on every site
    assert row_space_contains(rows, all_y, 2)
    assert row_space_contains(comp, all_y, 2)


@pytest.mark.parametrize("length", [2, 3, 4, 6])
def test_check_invertible_finite_xz_chain_false(length):
    lat = FiniteLattice(2, 1, (length,))
    rows = instantiate_spec(xz_chain_spec(), lat)
    report = check_invertible_finite(rows, lat, spread=1)
    assert not report.invertible
    assert report.dim_center > 0


def test_check_invertible_finite_z3_true():
    lat = FiniteLattice(3, 2, (7, 7))
    rows = instantiate_spec(z3_spec(), lat)
    report = check_invertible_finite(rows, lat, spread=1)
    assert report.invertible
    assert report.dim_span == 98
    assert report.dim_commutant == 98
    assert not report.small_lattice_warning


def test_check_invertible_finite_full_empty_and_warning():
    lat = FiniteLattice(3, 1, (4, 4))
    full_rows = instantiate_spec(full_spec(), lat)
    assert check_invertible_finite(full_rows, lat).invertible
    empty_rows = np.zeros((0, 32), dtype=np.int64)
    assert check_invertible_finite(empty_rows, lat).invertible
    report = check_invertible_finite(full_rows, lat, spread=1)
    assert report.small_lattice_warning  # 4 <= 4 * spread


def test_check_vs_z3_holds():
    lat = FiniteLattice(3, 2, (7, 7))
    rows = instantiate_spec(z3_spec(), lat)
    assert check_vs(rows, lat, reach=2).holds


def test_check_vs_xz_chain_fails_every_reach():
    lat = FiniteLattice(2, 1, (6,))
    rows = instantiate_spec(xz_chain_spec(), lat)
    for reach in (1, 2, 3):
        report = check_vs(rows, lat, reach)
        assert not report.holds
        # The reported element really is witnessless: it lies in the
        # span, touches the failure site, and commutes with every span
        # element supported inside the window around that site.
        v = report.failure_element
        assert row_space_contains(rows, v, 2)
        assert v[lat.site_coords(report.failure_site)].any()
        window = [c for t in lat.window_sites(report.failure_site, reach)
                  for c in lat.site_coords(t)]
        w_s = coordinate_restriction(rows, window, 2)
        assert w_s.shape[0] > 0
        assert not pairing_matrix(w_s, v, 2).any()
    # On an odd ring the center is one-dimensional, so once the window
    # covers everything the reported element is exactly the central
    # all-sites product.
    lat5 = FiniteLattice(2, 1, (5,))
    rows5 = instantiate_spec(xz_chain_spec(), lat5)
    report5 = check_vs(rows5, lat5, 2)
    assert not report5.holds
    assert report5.failure_element.all()


def test_check_vs_full_reach_zero():
    lat = FiniteLattice(3, 1, (4, 4))
    rows = instantiate_spec(full_spec(), lat)
    assert check_vs(rows, lat, reach=0).holds
    # A negative reach answered "fails" instead of being refused.
    with pytest.raises(ValueError, match="reach -1 is negative"):
        check_vs(rows, lat, reach=-1)


def sites_visited(monkeypatch, rows, lattice, reach):
    """check_vs's report and how many sites it built V_s at."""
    calls = []
    real = finite_oracle.coordinate_restriction

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(finite_oracle, "coordinate_restriction", counted)
    report = check_vs(rows, lattice, reach)
    monkeypatch.undo()
    return report, len(calls)


def assert_same_report(a, b):
    assert a.holds == b.holds
    assert a.failure_site == b.failure_site
    if a.failure_element is None:
        assert b.failure_element is None
    else:
        assert a.failure_element.tobytes() == b.failure_element.tobytes()


@pytest.mark.parametrize("spec, sizes, reach, holds", [
    (z3_spec(), (7, 7), 2, True),
    (random_remark_spec(5, np.random.default_rng(0)), (7, 7), 2, True),
    (get_example("toric-code-z3").spec, (6, 6), 1, False),
    (z3_spec(), (5, 5), 0, False),
])
def test_check_vs_torus_shortcut_matches_every_site(monkeypatch, spec, sizes,
                                                    reach, holds):
    lat = FiniteLattice(spec.p, spec.q, sizes)
    rows = instantiate_spec(spec, lat)
    report, visited = sites_visited(monkeypatch, rows, lat, reach)
    assert visited == 1
    assert report.holds is holds
    assert_same_report(report, check_vs_every_site(rows, lat, reach))


def test_check_vs_non_invariant_rows_visit_every_site(monkeypatch):
    # Dropping the translate of one generator at (3, 3) breaks
    # translation invariance; the elements near the hole lose their
    # witnesses, and the first failure is away from the origin.
    lat = FiniteLattice(3, 2, (7, 7))
    rows = instantiate_spec(z3_spec(), lat)
    rows = np.delete(rows, lat.site_index((3, 3)), axis=0)
    report, visited = sites_visited(monkeypatch, rows, lat, 2)
    assert not report.holds
    assert report.failure_site == (2, 2)
    assert visited == lat.site_index((2, 2)) + 1
    assert_same_report(report, check_vs_every_site(rows, lat, 2))


@pytest.mark.parametrize("sizes, reach, hole", [
    ((6, 6), 1, None),
    ((5, 4), 2, None),
    ((6, 6), 1, (3, 3)),
    ((6, 6), 2, (3, 3)),
    ((5, 4), 2, (2, 3)),
])
def test_check_vs_on_open_patches_matches_every_site(monkeypatch, sizes,
                                                     reach, hole):
    # The full algebra has VS at every site of a patch.  Without X at the
    # hole, Z there has no witness, and the hole is the first failure.
    spec = full_spec()
    lat = FiniteLattice(spec.p, spec.q, sizes, periodic=False)
    rows = instantiate_spec(spec, lat)
    if hole is not None:
        rows = np.delete(rows, lat.site_index(hole), axis=0)
    report, visited = sites_visited(monkeypatch, rows, lat, reach)
    assert report.failure_site == hole
    assert report.holds is (hole is None)
    assert visited == (lat.n_sites if hole is None
                       else lat.site_index(hole) + 1)
    assert_same_report(report, check_vs_every_site(rows, lat, reach))


@pytest.mark.parametrize("name", example_names())
def test_boundary_distance_matches_per_vector_loop(name):
    spec = get_example(name).spec
    lat = FiniteLattice(spec.p, spec.q, (5,) * spec.dims, periodic=False)
    rows = instantiate_spec(spec, lat)
    center = finite_oracle._invertibility_and_center(
        row_basis(rows, lat.p), lat, spec.spread)[1]
    want = boundary_distance_every_vector(center, lat)
    assert finite_oracle._boundary_distance(center, lat) == want
    assert center_at_boundary_distance(rows, lat) == want
    # Sparse vectors reach the interior; no vector gives -1.
    rng = np.random.default_rng(3)
    for k in (0, 1, 4):
        sparse = rng.integers(0, lat.p, (k, 2 * lat.n_qudits))
        sparse *= rng.random(sparse.shape) < 0.02
        assert (finite_oracle._boundary_distance(sparse, lat)
                == boundary_distance_every_vector(sparse, lat))


def assert_matches_old_route(spec, lattice, reach):
    """Center basis, report and V_s verdict equal those of the route
    through the whole commutant, checked at every site."""
    rows = instantiate_spec(spec, lattice)
    report, center = finite_oracle._invertibility_and_center(
        row_basis(rows, lattice.p), lattice, spec.spread)
    old_report, old_center = invertibility_and_center_via_complement(
        rows, lattice, spec.spread)
    assert report == old_report
    assert center.shape == old_center.shape
    assert np.array_equal(center, old_center)
    assert check_invertible_finite(rows, lattice, spec.spread) == old_report
    assert_same_report(check_vs(rows, lattice, reach),
                       check_vs_every_site(rows, lattice, reach))


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("periodic", [True, False])
def test_builtins_match_old_route(name, periodic):
    spec = get_example(name).spec
    lat = FiniteLattice(spec.p, spec.q, (5,) * spec.dims, periodic)
    for reach in (0, max(2 * spec.spread, 2)):
        assert_matches_old_route(spec, lat, reach)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("periodic", [True, False])
def test_remark_specs_match_old_route(p, periodic):
    spec = random_remark_spec(p, np.random.default_rng(p))
    # A generator of spread k can span 2k + 1 sites along an axis.
    side = 5 if periodic else 2 * spec.spread + 1
    lat = FiniteLattice(p, spec.q, (side, side), periodic)
    for reach in (1, 2 * spec.spread):
        assert_matches_old_route(spec, lat, reach)


@pytest.mark.parametrize("chunk", range(3))
def test_non_graph_draws_match_old_route(chunk):
    # 300 draws in all, on a ring of 6 or a 4x4 box, torus and patch.
    rng = random.Random(chunk)
    for i in range(100):
        spec = non_graph_spec(rng)
        sizes = (6,) if spec.dims == 1 else (4, 4)
        reach = i % (3 if spec.dims == 1 else 2)
        for periodic in (True, False):
            lat = FiniteLattice(spec.p, spec.q, sizes, periodic)
            assert_matches_old_route(spec, lat, reach)


def test_check_vs_torus_time_budget():
    lat = FiniteLattice(3, 2, (11, 11))
    rows = instantiate_spec(z3_spec(), lat)
    start = perf_counter()
    assert check_vs(rows, lat, reach=2).holds
    assert perf_counter() - start < 1.0


def rref_calls(monkeypatch, rows, lattice, reach):
    """check_vs's report and how many eliminations it ran."""
    calls = []
    real = fplinalg.rref

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fplinalg, "rref", counted)
    report = check_vs(rows, lattice, reach)
    monkeypatch.undo()
    return report, len(calls)


@pytest.mark.parametrize("spec, reach", [(z3_spec(), 2),
                                         (get_example("toric-code-z3").spec, 1)])
def test_translation_check_reuses_the_canonical_span(monkeypatch, spec, reach):
    lat = FiniteLattice(spec.p, spec.q, (6, 6))
    rows = instantiate_spec(spec, lat)
    report, calls = rref_calls(monkeypatch, rows, lat, reach)
    monkeypatch.setattr(finite_oracle, "_translation_invariant",
                        translation_invariant_rereducing)
    old_report, old_calls = rref_calls(monkeypatch, rows, lat, reach)
    assert old_calls - calls == lat.dims
    assert_same_report(report, old_report)


def test_finite_map_validation():
    lat = FiniteLattice(2, 1, (3,))
    with pytest.raises(ValueError):
        symplectic_map(lat, np.diag([0, 1, 1, 1, 1, 1]))
    ident = symplectic_map(lat, np.eye(6, dtype=np.int64))
    assert ident.spread == 0
    # M^T J M has no nonzero entry at all for M = 0.
    with pytest.raises(ValueError, match="does not preserve the symplectic"):
        symplectic_map(lat, np.zeros((6, 6), dtype=np.int64))
    # Each block of M^T J M is checked: 2I scales J by 4, wrong only on
    # the diagonals of the off-diagonal blocks for p = 5 ...
    lat5 = FiniteLattice(5, 1, (3,))
    with pytest.raises(ValueError):
        symplectic_map(lat5, 2 * np.eye(6, dtype=np.int64))
    # ... and a shear [[I, S], [0, I]] with S not symmetric breaks only
    # the lower right block.
    shear = np.eye(6, dtype=np.int64)
    shear[0, 4] = 1
    with pytest.raises(ValueError):
        symplectic_map(lat5, shear)
    shear[1, 3] = 1
    assert symplectic_map(lat5, shear).spread == 1
    # An off-diagonal entry in an identity block is refused.
    swap = np.eye(6, dtype=np.int64)[[1, 0, 2, 4, 3, 5]]
    swap[0, 2] = 1
    with pytest.raises(ValueError):
        symplectic_map(lat5, swap)


SYMPLECTIC_REFUSAL = "matrix does not preserve the symplectic form"


def accepts(lattice, matrix):
    """FiniteSymplecticMap's verdict on the matrix, asserted equal to the
    dense block check of M^T J M."""
    try:
        symplectic_map(lattice, matrix)
    except ValueError as err:
        assert str(err) == SYMPLECTIC_REFUSAL
        verdict = False
    else:
        verdict = True
    assert verdict == symplectic_gram_dense(matrix, lattice)
    return verdict


def corruptions(matrix, lattice, rng):
    """The matrix with one entry changed, once in each of its four
    blocks and once on the diagonal of each off-diagonal block."""
    p, half = lattice.p, lattice.n_qudits
    out = []
    for top in (0, half):
        for left in (0, half):
            i, j = (int(k) for k in rng.integers(half, size=2))
            places = [(top + i, left + j)]
            if top != left:
                places.append((top + i, left + i))
            for r, c in places:
                bad = matrix.copy()
                bad[r, c] = (bad[r, c] + rng.integers(1, p)) % p
                out.append(bad)
    return out


def lift_case(name, sizes):
    qca = lift_to_qca(get_example(name).spec)
    lat = FiniteLattice(qca.p, qca.q, sizes)
    return lat, instantiate_qca(qca, lat).matrix


def shift_case(p, q, sizes, power):
    lat = FiniteLattice(p, q, sizes)
    qca = shift_qca(p, q, len(sizes), axis=len(sizes) - 1, power=power)
    return lat, instantiate_qca(qca, lat).matrix


def random_case(seed, p, q, sizes, periodic=True):
    lat = FiniteLattice(p, q, sizes, periodic)
    return lat, random_symplectic_matrix(lat, np.random.default_rng(seed))


INVERTIBLE_BUILTINS = [n for n in example_names()
                       if check_invertible(get_example(n).spec).invertible]

SYMPLECTIC_CASES = {
    **{f"lift-{name}-{sizes}": (lift_case, name, sizes)
       for name in INVERTIBLE_BUILTINS for sizes in ((3, 3, 3), (2, 2, 4))},
    **{f"shift-p{p}-q{q}-{sizes}-{power}": (shift_case, p, q, sizes, power)
       for p in (2, 3, 5) for q in (1, 2) for sizes in ((6,), (3, 5))
       for power in (1, -2)},
    **{f"random-{seed}": (random_case, seed, (2, 3, 5)[seed % 3],
                          1 + seed % 2, ((5,), (2, 3))[seed % 2], seed < 3)
       for seed in range(6)},
    # Products of two reduced entries reach 2^62 at the largest modulus.
    "random-p65521": (random_case, 6, 65521, 1, (3,)),
    "random-p2^31-1": (random_case, 7, 2 ** 31 - 1, 2, (8,)),
    "identity": (lambda: (FiniteLattice(3, 1, (2, 2)),
                          np.eye(8, dtype=np.int64)),),
}


@pytest.mark.parametrize("label", SYMPLECTIC_CASES)
def test_symplectic_check_matches_dense_block_check(label):
    build, *args = SYMPLECTIC_CASES[label]
    lat, m = build(*args)
    assert accepts(lat, m)
    verdicts = [accepts(lat, bad)
                for bad in corruptions(m, lat, np.random.default_rng(len(m)))]
    assert not all(verdicts)


@pytest.mark.parametrize("label", SYMPLECTIC_CASES)
def test_measured_spread_matches_per_entry_loop(label):
    build, *args = SYMPLECTIC_CASES[label]
    lat, m = build(*args)
    assert symplectic_map(lat, m).spread == measure_spread_per_entry(lat, m)


def test_symplectic_check_makes_no_dense_product(monkeypatch):
    qca = lift_to_qca(z3_spec())
    lat = FiniteLattice(3, 2, (3, 3, 3))
    lat5, random_map = random_case(0, 5, 2, (3,))
    calls = []

    def counted(*args):
        calls.append(1)
        return fplinalg.matmul_mod(*args)

    monkeypatch.setattr(finite_oracle, "matmul_mod", counted)
    instantiate_qca(qca, lat)
    symplectic_map(lat5, random_map)
    assert calls == []


def test_symplectic_check_on_a_dense_map_stays_under_dense_product_memory():
    # A dense map makes n^3 products; they are made in batches, so the
    # check's peak stays under that of the dense product it replaced.
    # The map's nonzeros are gathered and sorted before the check, at a
    # cost that grows with their number, not with n^3.
    lat, m = random_case(8, 3, 1, (128,))
    assert np.count_nonzero(m) > m.size // 2
    fin = symplectic_map(lat, m)

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(lambda: finite_oracle._preserves_form(
                fin.rows, fin.cols, fin.values, lat.symplectic_len, lat.p))
            < peak(lambda: symplectic_gram_dense(m, lat)))


def test_instantiate_shift_qca():
    lat = FiniteLattice(3, 1, (4,))
    fin = instantiate_qca(shift_qca(3, 1, 1, axis=0), lat)
    assert fin.spread == 1
    # Basis X at site 0 maps to X at site 1.
    e = np.zeros(8, dtype=np.int64)
    e[0] = 1
    out = (fin.matrix @ e) % 3
    expected = np.zeros(8, dtype=np.int64)
    expected[1] = 1
    assert np.array_equal(out, expected)


def test_instantiate_qca_needs_torus():
    pat = FiniteLattice(3, 1, (4,), periodic=False)
    with pytest.raises(InstantiationError):
        instantiate_qca(shift_qca(3, 1, 1, axis=0), pat)


def lift_on_torus(sheet_sizes=(5, 5), n_sheets=5):
    spec = z3_spec()
    qca = lift_to_qca(spec)
    lat = FiniteLattice(3, 2, sheet_sizes + (n_sheets,))
    return spec, qca, lat, instantiate_qca(qca, lat)


def sheet_coords(lat, sheet):
    return [c for s in lat.sites() if s[-1] == sheet
            for c in lat.site_coords(s)]


def test_lift_instantiates_symplectic_with_spread_one():
    _, qca, _, fin = lift_on_torus()
    assert qca.spread == 1
    assert fin.spread == 1  # construction validated symplectic already


def test_boundary_algebra_identity_map():
    lat = FiniteLattice(3, 1, (5, 5))
    ident = symplectic_map(lat, np.eye(50, dtype=np.int64))
    report = boundary_algebra_finite(ident, axis=0, cut=0, window=1)
    assert report.dim_image == 30   # three layers of 5 sites, 2q each
    assert report.dim_boundary == 10
    assert report.dim_off_slab == 20
    assert report.factorization_holds


def test_boundary_algebra_shift_pumps_a_layer():
    lat = FiniteLattice(3, 1, (5, 5))
    down = instantiate_qca(shift_qca(3, 1, 2, axis=0, power=-1), lat)
    report = boundary_algebra_finite(down, axis=0, cut=0, window=1)
    assert report.dim_boundary == 10  # the full displaced layer
    up = instantiate_qca(shift_qca(3, 1, 2, axis=0, power=1), lat)
    report_up = boundary_algebra_finite(up, axis=0, cut=0, window=1)
    assert report_up.dim_boundary == 0


def test_boundary_algebra_of_lift_recovers_spec():
    spec, _, lat, fin = lift_on_torus()
    report = boundary_algebra_finite(fin, axis=2, cut=0, window=1)
    # Restricting the full 3-d instantiation to one sheet gives the
    # per-sheet copy; the boundary algebra must be exactly that span.
    target = instantiate_spec(promote_spec(spec), lat)
    per_sheet = coordinate_restriction(target, sheet_coords(lat, 1), 3)
    assert row_space_equal(report.basis, per_sheet, 3)
    assert report.factorization_holds
    assert report.dim_boundary == 2 * lat.sizes[0] * lat.sizes[1]


def test_boundary_algebra_window_below_spread_rejected():
    _, _, _, fin = lift_on_torus(n_sheets=4)
    with pytest.raises(ValueError):
        boundary_algebra_finite(fin, axis=2, cut=0, window=0)


def boundary_outcome(route, alpha, *args):
    try:
        r = route(alpha, *args)
    except ValueError as err:
        return ("refused", str(err))
    return (r.basis.shape, r.basis.dtype, r.basis.tobytes(), r.dim_image,
            r.dim_boundary, r.dim_off_slab, r.factorization_holds)


def assert_boundary_matches_image_route(alpha):
    """Byte-equal reports, or the same refusal, for every axis (and one
    either side), cut, window and depth."""
    lat = alpha.lattice
    cases = refused = 0
    for axis in range(-1, lat.dims + 1):
        L = lat.sizes[axis % lat.dims]
        for cut in range(-1, L + 1):
            for window in range(L):
                for depth in (None, *range(L)):
                    args = (axis, cut, window, depth)
                    new = boundary_outcome(boundary_algebra_finite, alpha, *args)
                    assert new == boundary_outcome(boundary_algebra_via_image,
                                                   alpha, *args), args
                    cases += 1
                    refused += new[0] == "refused"
    assert 0 < refused < cases


@pytest.mark.parametrize("name", [n for n in example_names() if
                                  check_invertible(get_example(n).spec).invertible])
@pytest.mark.parametrize("sheet", [(3, 3), (2, 4)])
def test_boundary_of_lifts_matches_image_route(name, sheet):
    qca = lift_to_qca(get_example(name).spec)
    lat = FiniteLattice(qca.p, qca.q, sheet + (5,))
    assert_boundary_matches_image_route(instantiate_qca(qca, lat))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_boundary_of_shifts_matches_image_route(p):
    for power in (-1, 1, 2):
        for sizes in ((6,), (3, 5)):
            qca = shift_qca(p, 1, len(sizes), axis=len(sizes) - 1, power=power)
            lat = FiniteLattice(p, 1, sizes)
            assert_boundary_matches_image_route(instantiate_qca(qca, lat))


@pytest.mark.parametrize("seed", range(6))
def test_boundary_of_random_symplectic_maps_matches_image_route(seed):
    # Not translation-invariant and of long range, so the spread is set
    # to 0 to reach every window; the two routes are plain linear algebra.
    rng = np.random.default_rng(seed)
    p = (2, 3, 5)[seed % 3]
    for q, sizes in ((1, (5,)), (2, (4,)), (1, (2, 4))):
        lat = FiniteLattice(p, q, sizes)
        alpha = symplectic_map(lat, random_symplectic_matrix(lat, rng),
                               spread=0)
        assert_boundary_matches_image_route(alpha)


def test_boundary_algebra_nine_cubed_time_budget():
    # The seed target for the lifted example-z3 on 9x9x9 (n = 2916).
    qca = lift_to_qca(z3_spec())
    start = perf_counter()
    fin = instantiate_qca(qca, FiniteLattice(3, 2, (9, 9, 9)))
    assert perf_counter() - start < 1.0
    start = perf_counter()
    report = boundary_algebra_finite(fin, axis=2, cut=3, window=1)
    assert perf_counter() - start < 2.0
    assert report.factorization_holds
    assert report.dim_boundary == 2 * 81


def placement_outcome(build, *args):
    try:
        out = build(*args)
    except InstantiationError as err:
        return ("refused", str(err))
    return (out.shape, out.dtype, out.tobytes())


def assert_placements_match_per_site(spec, lattice):
    for j in range(spec.n_generators):
        col = spec.generators.submatrix(range(2 * spec.q), [j])
        rows, fits = finite_oracle.placements(lattice, col)
        for i, s in enumerate(lattice.sites()):
            vec = instantiate_column_per_term(lattice, col, s)
            assert fits[i] == (vec is not None)
            if vec is not None:
                assert np.array_equal(rows[i], vec)
    assert placement_outcome(instantiate_spec, spec, lattice) == \
        placement_outcome(instantiate_spec_per_site, spec, lattice)


# Sides 1 and 2 make terms of one entry wrap onto one coordinate.
SMALL_SIZES = {1: [(1,), (2,), (5,)], 2: [(1, 1), (2, 1), (2, 2), (3, 4)]}


@pytest.mark.parametrize("name", example_names())
def test_placements_of_builtins_match_per_site(name):
    spec = get_example(name).spec
    for sizes in SMALL_SIZES[spec.dims]:
        for periodic in (True, False):
            lat = FiniteLattice(spec.p, spec.q, sizes, periodic)
            assert_placements_match_per_site(spec, lat)


def test_placements_of_non_graph_draws_match_per_site():
    rng = random.Random(7)
    refused = 0
    for _ in range(60):
        spec = non_graph_spec(rng)
        for sizes in SMALL_SIZES[spec.dims]:
            for periodic in (True, False):
                lat = FiniteLattice(spec.p, spec.q, sizes, periodic)
                assert_placements_match_per_site(spec, lat)
                refused += placement_outcome(instantiate_spec, spec,
                                             lat)[0] == "refused"
    assert refused > 0


def test_placements_accumulate_wrapped_terms():
    # x + x^-1 + 1 on a ring of one site lands three times on one
    # coordinate, and x + 2x^-1 twice on a ring of two.
    lat1 = FiniteLattice(5, 1, (1,))
    col = mat(5, 1, [["x + x^-1 + 1"], ["0"]])
    assert instantiate_spec(SubalgebraSpec(5, 1, 1, col), lat1).tolist() == [[3, 0]]
    lat2 = FiniteLattice(5, 1, (2,))
    col = mat(5, 1, [["x + 2*x^-1"], ["0"]])
    assert instantiate_spec(SubalgebraSpec(5, 1, 1, col), lat2).tolist() == \
        [[0, 3, 0, 0], [3, 0, 0, 0]]


def test_instantiate_qca_matches_per_site():
    maps = [lift_to_qca(get_example(n).spec) for n in ("example-z3", "full")]
    maps += [shift_qca(p, q, 2, axis=1, power=k)
             for p, q, k in ((2, 1, 1), (3, 2, -2), (5, 1, 3))]
    for qca in maps:
        for side in (1, 2, 3):
            lat = FiniteLattice(qca.p, qca.q, (side,) * qca.dims)
            fin = instantiate_qca(qca, lat)
            assert fin.matrix.tobytes() == \
                instantiate_qca_per_site(qca, lat).tobytes()


def test_verify_blend_trivial_and_corrupted():
    lat = FiniteLattice(3, 1, (8,))
    ident = symplectic_map(lat, np.eye(16, dtype=np.int64))
    assert verify_blend(ident, ident, ident, axis=0, interface=4, margin=1).agrees
    # X -> 2X and Z -> 2Z on one site is symplectic over F_3.
    corrupted = np.eye(16, dtype=np.int64)
    col = lat.x_coord((7,), 0)  # site 7 > interface + margin
    corrupted[:, col] = 0
    corrupted[col, col] = corrupted[col + 8, col + 8] = 2
    report = verify_blend(symplectic_map(lat, corrupted), ident, ident,
                          axis=0, interface=4, margin=1)
    assert not report.agrees
    assert report.first_mismatch == col
    # Corruption inside the margin zone is not verify_blend's business.
    near = np.eye(16, dtype=np.int64)
    ncol = lat.x_coord((4,), 0)
    near[ncol, ncol] = near[ncol + 8, ncol + 8] = 2
    assert verify_blend(symplectic_map(lat, near), ident, ident, axis=0,
                        interface=4, margin=1).agrees


@pytest.mark.parametrize("axis, margin, message", [
    (1, 1, "axis 1 out of range"),     # raised IndexError
    (-1, 1, "axis -1 out of range"),   # read the last axis
    (0, -3, "margin -3 is negative"),  # compared no column and agreed
])
def test_verify_blend_refuses_bad_axis_and_margin(axis, margin, message):
    lat = FiniteLattice(3, 1, (8,))
    ident = symplectic_map(lat, np.eye(16, dtype=np.int64))
    with pytest.raises(ValueError, match=message):
        verify_blend(ident, ident, ident, axis=axis, interface=4,
                     margin=margin)


@pytest.mark.parametrize("interface", [-3, 0, 1, 6, 7, 20])
def test_verify_blend_refuses_an_interface_with_an_empty_side(interface):
    # With interface 20 no site is above interface + margin, so beta was
    # never read and a beta of 2 I was reported to agree.
    lat = FiniteLattice(3, 1, (8,))
    ident = symplectic_map(lat, np.eye(16, dtype=np.int64))
    doubled = symplectic_map(lat, 2 * np.eye(16, dtype=np.int64))
    with pytest.raises(ValueError, match=f"interface {interface} with margin 1 "
                       "leaves one side of the axis empty: need 1 < interface < 6"):
        verify_blend(ident, ident, doubled, axis=0, interface=interface,
                     margin=1)
    # The bounds move with the margin, and the first layers outside
    # them are compared.
    assert verify_blend(ident, ident, ident, axis=0, interface=2, margin=1).agrees
    assert verify_blend(ident, ident, doubled, axis=0, interface=5,
                        margin=1).first_mismatch == 7
    assert verify_blend(ident, ident, doubled, axis=0, interface=1,
                        margin=0).first_mismatch == 2
    with pytest.raises(ValueError, match="need 2 < interface < 5"):
        verify_blend(ident, ident, ident, axis=0, interface=2, margin=2)


def test_verify_blend_refuses_maps_on_different_lattices():
    ident = symplectic_map(FiniteLattice(3, 1, (8,)), np.eye(16, dtype=np.int64))
    other = symplectic_map(FiniteLattice(3, 1, (9,)), np.eye(18, dtype=np.int64))
    with pytest.raises(ValueError, match="different lattices"):
        verify_blend(ident, ident, other, axis=0, interface=4, margin=1)


def test_finite_map_keeps_its_nonzeros():
    lat = FiniteLattice(5, 1, (3,))
    shear = np.eye(6, dtype=np.int64)
    shear[0, 4] = shear[1, 3] = 6  # read mod 5
    fin = symplectic_map(lat, shear - 5 * np.eye(6, dtype=np.int64))
    assert fin.rows.tolist() == [0, 0, 1, 1, 2, 3, 4, 5]
    assert fin.cols.tolist() == [0, 4, 1, 3, 2, 3, 4, 5]
    assert fin.values.tolist() == [1, 1, 1, 1, 1, 1, 1, 1]
    assert fin.matrix.tolist() == (shear % 5).tolist()
    with pytest.raises(ValueError):
        fin.values[0] = 2
    # Entries at one coordinate are summed, and sums of 0 dropped.
    same = FiniteSymplecticMap.from_entries(
        lat, [4, 0, 0, 1, 2, 3, 5, 1, 2, 2, 0], [4, 0, 4, 1, 2, 3, 5, 3, 2, 1, 4],
        [1, 1, 3, 1, 1, 1, 1, 6, 5, 0, 3], spread=1)
    for name in ("rows", "cols", "values"):
        assert getattr(same, name).tolist() == getattr(fin, name).tolist()
    with pytest.raises(ValueError, match="does not preserve"):
        FiniteSymplecticMap.from_entries(lat, [0], [0], [1])
    with pytest.raises(ValueError, match="entry outside the 6 x 6 matrix"):
        FiniteSymplecticMap.from_entries(lat, [6], [0], [1])
    with pytest.raises(ValueError, match="matrix must be 6 x 6"):
        symplectic_map(lat, np.eye(5, dtype=np.int64))
    # from_entries is the one constructor: no dense matrix is taken.
    with pytest.raises(TypeError):
        FiniteSymplecticMap(lat, np.eye(6, dtype=np.int64))


def traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_instantiate_qca_keeps_no_dense_matrix():
    # The dense 2048 x 2048 M alone is 32 MiB; the scatter peaked at
    # 73 MiB.
    qca = lift_to_qca(z3_spec())
    lat = FiniteLattice(3, 2, (8, 8, 8))
    assert traced_peak(lambda: instantiate_qca(qca, lat)) < 4 * 2 ** 20


def test_boundary_and_spec_span_restriction_memory():
    # The boundary blocks are densified alone, and the restriction of
    # the 1024 x 2048 per-sheet rows (16 MiB) eliminates one copy in
    # place; with the dense M this step peaked at 99 MiB.
    spec = z3_spec()
    lat = FiniteLattice(3, 2, (8, 8, 8))
    fin = instantiate_qca(lift_to_qca(spec), lat)

    def boundary_and_restriction():
        report = boundary_algebra_finite(fin, axis=2, cut=3, window=1)
        target = instantiate_spec(promote_spec(spec), lat)
        per_sheet = coordinate_restriction(target, sheet_coords(lat, 4), 3)
        assert row_space_equal(report.basis, per_sheet, 3)

    assert traced_peak(boundary_and_restriction) < 48 * 2 ** 20


def test_spec_span_on_sheet_is_the_restricted_promoted_span():
    # The sheet's own translates, embedded, give the canonical basis the
    # 3-d promoted span restricted to the sheet gives.
    cases = [(z3_spec(), (n, n, n), True, cut)
             for n in (5, 7) for cut in (0, 3)]
    cases += [(spec, (4, 5, 3), periodic, 1)
              for spec in (full_spec(), get_example("toric-code-z3").spec)
              for periodic in (True, False)]
    for spec, sizes, periodic, cut in cases:
        lat = FiniteLattice(spec.p, spec.q, sizes, periodic)
        target = instantiate_spec(promote_spec(spec), lat)
        want = coordinate_restriction(
            target, sheet_coords(lat, (cut + 1) % sizes[-1]), spec.p)
        got = finite_oracle.spec_span_on_sheet(spec, lat, cut + 1)
        assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(InstantiationError, match="one more axis"):
        finite_oracle.spec_span_on_sheet(z3_spec(), FiniteLattice(3, 2, (5, 5)), 1)


def blend_outcome(gamma, alpha, beta, **where):
    report = verify_blend(gamma, alpha, beta, axis=2, margin=1, **where)
    return report.agrees, report.first_mismatch


def test_dense_built_maps_report_as_instantiated():
    spec, qca, lat, fin = lift_on_torus()
    dense = fin.matrix
    rebuilt = symplectic_map(lat, dense)
    assert rebuilt.spread == fin.spread
    for name in ("rows", "cols", "values"):
        assert getattr(rebuilt, name).tobytes() == getattr(fin, name).tobytes()
    for cut in range(5):
        assert (boundary_outcome(boundary_algebra_finite, rebuilt, 2, cut, 1, None)
                == boundary_outcome(boundary_algebra_finite, fin, 2, cut, 1, None))
    shift = instantiate_qca(shift_qca(3, 2, 3, axis=2), lat)
    outcomes = []
    for gamma, alpha, beta in ((fin, fin, fin), (fin, fin, shift),
                               (fin, shift, fin), (shift, fin, fin)):
        want = blend_outcome(gamma, alpha, beta, interface=2)
        outcomes.append(want)
        # Each role as instantiated or rebuilt from its dense matrix.
        for forms in itertools.product(("map", "rebuilt"), repeat=3):
            maps = [x if f == "map" else symplectic_map(lat, x.matrix)
                    for x, f in zip((gamma, alpha, beta), forms)]
            assert blend_outcome(*maps, interface=2) == want
    # The first column compared on either side is the first X slot of
    # the first site of its layer.
    above, below = lat.x_coord((0, 0, 4), 0), lat.x_coord((0, 0, 0), 0)
    assert outcomes == [(True, None), (False, above), (False, below),
                        (False, below)]
    # A dense matrix is read mod p.
    assert blend_outcome(fin, fin, symplectic_map(lat, dense + 3),
                         interface=2) == (True, None)


def test_center_at_boundary_on_patch():
    pat = FiniteLattice(3, 2, (6, 6), periodic=False)
    rows = instantiate_spec(z3_spec(), pat)
    worst = center_at_boundary_distance(rows, pat)
    assert worst <= 1  # within 2*spread of the boundary


def test_center_at_boundary_requires_patch():
    lat = FiniteLattice(3, 2, (5, 5))
    with pytest.raises(ValueError):
        center_at_boundary_distance(np.zeros((0, 200), dtype=np.int64), lat)
