"""Tests for phased Pauli arithmetic, against an explicit matrix oracle.

The oracle builds the literal unitary (kron of per-site shift and clock
matrices times the phase) so every phase bookkeeping rule is checked
against actual operator products.
"""

import math
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import invsub.weyl as weyl
from helpers import (
    class_distance_sympy,
    dist_bounded_every_candidate,
    distance_sympy,
)
from invsub.weyl import (
    CandidateCountError,
    PauliConjugation,
    PhasedPauli,
    dist_bounded,
    unitary_distance,
    unitary_distance_to_identity,
)


def weyl_matrix(w: PhasedPauli) -> np.ndarray:
    p = w.p
    omega = np.exp(2j * np.pi / p)
    shift = np.zeros((p, p), dtype=complex)
    shift[(np.arange(p) + 1) % p, np.arange(p)] = 1
    clock = np.diag(omega ** np.arange(p))
    m = np.eye(1, dtype=complex)
    for ai, bi in zip(w.a, w.b):
        site = (np.linalg.matrix_power(shift, int(ai)) @
                np.linalg.matrix_power(clock, int(bi)))
        m = np.kron(m, site)
    return omega ** w.phase * m


def paulis(p, size):
    ints = st.integers(0, p - 1)
    vec = st.lists(ints, min_size=size, max_size=size)
    return st.builds(lambda c, a, b: PhasedPauli(p, c, a, b), ints, vec, vec)


def test_exponent_vectors_are_read_only_snapshots():
    a = np.array([1, 2, 0], dtype=np.int64)
    b = np.array([0, 4, 1], dtype=np.int64)
    w = PhasedPauli(3, 0, a, b)
    with pytest.raises(TypeError):
        w.a[0] = 2
    # The caller's arrays are copied, not viewed.
    a[0], b[2] = 2, 2
    assert w.a.tolist() == [1, 2, 0]
    assert w.b.tolist() == [0, 1, 1]
    assert all(type(v) is int for v in w.a.tolist() + w.b.tolist())


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_product_matches_matrix_oracle(p, data):
    size = data.draw(st.integers(1, 2))
    w1 = data.draw(paulis(p, size))
    w2 = data.draw(paulis(p, size))
    lhs = weyl_matrix(w1 * w2)
    rhs = weyl_matrix(w1) @ weyl_matrix(w2)
    assert np.allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_dagger_matches_matrix_oracle(p, data):
    w = data.draw(paulis(p, data.draw(st.integers(1, 2))))
    assert np.allclose(weyl_matrix(w.dagger()), weyl_matrix(w).conj().T,
                       atol=1e-10)
    assert w * w.dagger() == PhasedPauli.identity(p, w.size)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_commutator_exponent_matches_oracle(p, data):
    size = data.draw(st.integers(1, 2))
    w1 = data.draw(paulis(p, size))
    w2 = data.draw(paulis(p, size))
    k = w1.commutator_exponent(w2)
    omega = np.exp(2j * np.pi / p)
    lhs = weyl_matrix(w1) @ weyl_matrix(w2)
    rhs = omega ** k * (weyl_matrix(w2) @ weyl_matrix(w1))
    assert np.allclose(lhs, rhs, atol=1e-10)
    # W2 W1 = omega^-k W1 W2, so they commute in both orders or neither.
    assert w2.commutator_exponent(w1) == -k % p


def test_qutrit_xz_cubed_is_identity():
    w = PhasedPauli(3, 0, [1], [1])
    cubed = w * w * w
    assert cubed == PhasedPauli.identity(3, 1)
    assert cubed.phase == 0


def test_qubit_xz_squared_is_minus_identity():
    w = PhasedPauli(2, 0, [1], [1])
    sq = w * w
    assert sq.is_scalar() and sq.phase == 1
    assert np.allclose(weyl_matrix(sq), -np.eye(2), atol=1e-12)


def test_symplectic_round_trip_and_support():
    w = PhasedPauli.from_symplectic(3, [1, 0, 2, 0, 0, 1], phase=2)
    assert np.array_equal(w.to_symplectic(), [1, 0, 2, 0, 0, 1])
    assert w.support() == (0, 2)
    assert PhasedPauli.identity(3, 4).support() == ()


def test_register_mismatch_rejected():
    with pytest.raises(ValueError):
        PhasedPauli(2, 0, [1], [1]) * PhasedPauli(2, 0, [1, 0], [1, 0])
    with pytest.raises(ValueError):
        PhasedPauli(2, 0, [1], [1]) * PhasedPauli(3, 0, [1], [1])


def test_conjugation_shifts_phase_by_pairing():
    u = PhasedPauli(2, 0, [1], [0])   # X
    z = PhasedPauli(2, 0, [0], [1])   # Z
    alpha = PauliConjugation(u)
    out = alpha.apply(z)
    assert out == z.scale_phase(1)    # X Z X = -Z
    assert np.allclose(weyl_matrix(out),
                       weyl_matrix(u) @ weyl_matrix(z) @ weyl_matrix(u).conj().T,
                       atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_conjugation_preserves_symbol(p, data):
    size = data.draw(st.integers(1, 2))
    u = data.draw(paulis(p, size))
    w = data.draw(paulis(p, size))
    out = PauliConjugation(u).apply(w)
    assert np.array_equal(out.a, w.a) and np.array_equal(out.b, w.b)
    assert out.phase == (w.phase + u.commutator_exponent(w)) % p
    assert out == u * w * u.dagger()


def numeric_distance_to_identity(w: PhasedPauli) -> float:
    eig = np.linalg.eigvals(weyl_matrix(w))
    return float(np.max(np.abs(1 - eig)))


def assert_distance_is(d, want):
    """d stands for the sympy value `want`: its sympy reference equals
    it, its text is sympy's and its float is want's 50-digit value."""
    assert sp.simplify(distance_sympy(d) - want) == 0
    assert d.value == str(want)
    assert d.numeric == float(want.evalf(50))


def test_distance_frozen_values():
    assert_distance_is(
        unitary_distance_to_identity(PhasedPauli.identity(3, 1)),
        sp.Integer(0))
    scalar = PhasedPauli(3, 1, [0], [0])
    assert_distance_is(unitary_distance_to_identity(scalar), sp.sqrt(3))
    x3 = PhasedPauli(3, 0, [1], [0])
    assert_distance_is(unitary_distance_to_identity(x3), sp.sqrt(3))
    x2 = PhasedPauli(2, 0, [1], [0])
    assert_distance_is(unitary_distance_to_identity(x2), sp.Integer(2))
    xz2 = PhasedPauli(2, 0, [1], [1])
    assert_distance_is(unitary_distance_to_identity(xz2), sp.sqrt(2))
    assert unitary_distance_to_identity(xz2).witness == xz2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_distance_matches_spectrum(p, data):
    w = data.draw(paulis(p, data.draw(st.integers(1, 2))))
    d = unitary_distance_to_identity(w)
    assert d.numeric == float(distance_sympy(d).evalf(50))
    assert d.numeric == pytest.approx(numeric_distance_to_identity(w),
                                      abs=1e-9)


def test_unitary_distance_between_operators():
    x = PhasedPauli(2, 0, [1], [0])
    z = PhasedPauli(2, 0, [0], [1])
    d = unitary_distance(x, z)
    # X^dagger Z = XZ has spectrum {+-i}.
    assert_distance_is(d, sp.sqrt(2))
    assert d.witness == x.dagger() * z
    assert_distance_is(unitary_distance(x, x), sp.Integer(0))


# -- support-normalized automorphism distance ---------------------------


def test_dist_bounded_global_x_flip_on_six_qubits():
    m = 6
    flip = PauliConjugation(PhasedPauli(2, 0, np.ones(m, np.int64),
                                        np.zeros(m, np.int64)))
    ident = PauliConjugation(PhasedPauli.identity(2, m))
    d = dist_bounded(flip, ident, 2, m, max_support=1)
    assert_distance_is(d, sp.Integer(2))
    assert d.numeric == pytest.approx(2.0)
    # The maximizer anticommutes with the global flip on one site.
    (site,) = d.witness.support()
    assert d.witness.b[site] != 0


def test_dist_bounded_identical_automorphisms():
    u = PhasedPauli(3, 0, [1, 2], [0, 1])
    d = dist_bounded(PauliConjugation(u), PauliConjugation(u), 3, 2)
    assert_distance_is(d, sp.Integer(0))


def test_dist_bounded_metric_axioms_on_random_triples():
    rng = np.random.default_rng(11)
    m, p = 3, 3
    for _ in range(20):
        auts = [
            PauliConjugation(PhasedPauli(p, 0,
                                         rng.integers(0, p, m),
                                         rng.integers(0, p, m)))
            for _ in range(3)
        ]
        d = {}
        for i in range(3):
            for j in range(3):
                d[i, j] = dist_bounded(auts[i], auts[j], p, m,
                                       max_support=1).numeric
        for i in range(3):
            assert d[i, i] == 0
            for j in range(3):
                assert d[i, j] == pytest.approx(d[j, i], abs=1e-12)
                for k in range(3):
                    assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def _automorphism(name, p, m):
    if name == "identity":
        return PauliConjugation(PhasedPauli.identity(p, m))
    if name == "every-site":
        x, z = [(2 * i + 1) % p for i in range(m)], [i % p for i in range(m)]
        return PauliConjugation(PhasedPauli(p, 0, x, z))
    # Acts on every other site; the rest are idle.  "rephased" has the
    # same symbols and another phase, so D = 0.
    x = [(i + 1) % p if i % 2 == 0 else 0 for i in range(m)]
    z = [1 if i % 4 == 0 else 0 for i in range(m)]
    return PauliConjugation(PhasedPauli(p, name == "rephased", x, z))


def _assert_matches_every_candidate_scan(alpha, beta, p, m, max_support):
    want = dist_bounded_every_candidate(alpha, beta, p, m, max_support)
    got = dist_bounded(alpha, beta, p, m, max_support)
    assert (got.kind, got.size) == (want.kind, want.size)
    assert got.value == want.value
    assert got.value == str(distance_sympy(got))
    assert got.witness == want.witness
    assert got.numeric == want.numeric
    return got


@pytest.mark.parametrize("p, m, max_support", [
    (2, 6, 1), (2, 6, 2),
    (3, 6, 1), (3, 5, 2),
    (5, 6, 1), (5, 3, 2),
    (7, 6, 1), (7, 2, 2),
    (3, 4, 0), (2, 2, 3), (3, 2, 4),   # no candidate; support beyond m
])
@pytest.mark.parametrize("alpha, beta", [
    ("identity", "identity"),   # distance 0
    ("idle-sites", "identity"),  # scalar r: the phase classes
    ("idle-sites", "every-site"),  # two conjugators: D = V - U
    ("rephased", "idle-sites"),  # other phases, D = 0: distance 0
])
def test_dist_bounded_matches_every_candidate_scan(p, m, max_support,
                                                   alpha, beta):
    got = _assert_matches_every_candidate_scan(
        _automorphism(alpha, p, m), _automorphism(beta, p, m),
        p, m, max_support)
    if alpha == beta or alpha == "rephased":
        assert_distance_is(got, sp.Integer(0))


def _candidate_count(p, m, max_support):
    return sum(math.comb(m, size) * (p * p - 1) ** size
               for size in range(1, min(max_support, m) + 1))


# (p, m, max_support) with p in {2, 3, 5, 7}, m <= 4 and max_support <= 3.
# The reference evaluates a sympy distance for every candidate, about
# 0.2 ms each, so the draws with more than 2500 candidates (p = 5 or 7
# on 3 or more qudits at support 2 or more) are left out.
_SCAN_SHAPES = [(p, m, s) for p in (2, 3, 5, 7) for m in range(5)
                for s in range(4) if _candidate_count(p, m, s) <= 2500]


@st.composite
def _conjugation_pairs(draw):
    p, m, max_support = draw(st.sampled_from(_SCAN_SHAPES))
    ints = st.integers(0, p - 1)
    # Idle sites carry X^0 Z^0.
    site = st.one_of(st.just((0, 0)), st.tuples(ints, ints))
    sites = [draw(st.lists(site, min_size=m, max_size=m)) for _ in range(2)]
    if draw(st.booleans()):
        sites[1] = sites[0]   # D = 0
    alpha, beta = (
        PauliConjugation(PhasedPauli(p, draw(ints), [x for x, _ in s],
                                     [z for _, z in s]))
        for s in sites)
    return alpha, beta, p, m, max_support


@settings(max_examples=60, deadline=None)
@given(_conjugation_pairs())
def test_dist_bounded_matches_every_candidate_scan_on_random_pairs(pair):
    _assert_matches_every_candidate_scan(*pair)


@pytest.mark.parametrize("p", [11, 31])
@pytest.mark.parametrize("x, z", [(0, 5), (4, 2)])
def test_dist_bounded_matches_every_candidate_scan_at_larger_primes(p, x, z):
    # Site 0 is idle; on site 1, D_x = 0 puts the witness on X alone,
    # and D_x != 0 on Z alone.
    alpha = PauliConjugation(PhasedPauli(p, 3, [0, x], [0, z]))
    beta = PauliConjugation(PhasedPauli(p, 1, [0, 0], [0, 0]))
    got = _assert_matches_every_candidate_scan(alpha, beta, p, 2, 1)
    assert got.witness.support() == (1,)
    assert got.kind[1] in (p // 2, p - p // 2)


def test_dist_bounded_refuses_non_conjugations():
    alpha, beta = _anyon_dist_input()
    # Any other automorphism, even one with an `apply` method: here the
    # shift moving qudit i to qudit i + 1, cyclically.
    shift = SimpleNamespace(apply=lambda w: PhasedPauli(
        w.p, w.phase, w.a[-1:] + w.a[:-1], w.b[-1:] + w.b[:-1]))
    for a, b in ((alpha, shift), (alpha.conjugator, beta), (None, None)):
        with pytest.raises(TypeError, match="two PauliConjugations"):
            dist_bounded(a, b, 5, 6, max_support=2)


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59]


@pytest.mark.parametrize("p", _SMALL_PRIMES + [61, 257, 997])
def test_class_text_and_float_are_the_sympy_ones(p):
    # The counterpart of the Gauss-sum phase: a distance class's text
    # and float come from integers, and must be what sympy prints and
    # evaluates for the value it stands for.  Every phase for the
    # small primes; the edge phases (evalf takes about 14 ms a value at
    # p = 997) for the others.
    if p in _SMALL_PRIMES:
        phases, sizes = range(p), range(1, 5)
    else:
        phases, sizes = {0, 1, 2, p // 2, p // 2 + 1, p - 1}, (1, 2)
    kinds = [("scalar", k) for k in phases] + [("odd",)] * (p > 2)
    if p == 2:
        kinds += [("qubit", 0), ("qubit", 1)]
    for kind in kinds:
        for size in sizes:
            d = weyl.BoundedDistance(kind, p, size,
                                     PhasedPauli.identity(p, 1))
            ref = class_distance_sympy(kind, p) / size
            assert d.value == str(ref), (kind, size)
            assert d.numeric == float(ref.evalf(50)), (kind, size)


def _anyon_dist_input(p=5, m=6):
    # The benchmark's largest dist input: a conjugator acting on every
    # site, 8784 candidates at support 2.
    rng = np.random.default_rng(7)
    x, z = rng.integers(1, p, m), rng.integers(0, p, m)
    return (PauliConjugation(PhasedPauli(p, 0, x, z)),
            PauliConjugation(PhasedPauli.identity(p, m)))


def test_dist_bounded_conjugations_time_budget():
    alpha, beta = _anyon_dist_input()
    start = perf_counter()
    d = dist_bounded(alpha, beta, 5, 6, max_support=2)
    # The per-candidate loop took 0.6 s.
    assert perf_counter() - start < 0.1
    assert d.numeric == pytest.approx(2 * np.sin(2 * np.pi / 5))


def test_dist_bounded_conjugations_build_only_the_witness(monkeypatch):
    alpha, beta = _anyon_dist_input()
    calls = {"mul": 0, "built": 0}
    mul, init = PhasedPauli.__mul__, PhasedPauli.__init__

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    def counting_init(self, *args):
        calls["built"] += 1
        init(self, *args)

    monkeypatch.setattr(PhasedPauli, "__mul__", counting_mul)
    monkeypatch.setattr(PhasedPauli, "__init__", counting_init)
    d = dist_bounded(alpha, beta, 5, 6, max_support=2)
    assert calls == {"mul": 0, "built": 1}
    assert len(d.witness.support()) == 1


def test_dist_bounded_refuses_too_many_candidates(monkeypatch):
    # 6 * 24 + 15 * 24^2 = 8784 candidates.
    alpha, beta = _anyon_dist_input()
    monkeypatch.setattr(weyl, "MAX_CANDIDATES", 8784)
    dist_bounded(alpha, beta, 5, 6, max_support=2)
    monkeypatch.setattr(weyl, "MAX_CANDIDATES", 8783)
    with pytest.raises(CandidateCountError, match="more than weyl"):
        dist_bounded(alpha, beta, 5, 6, max_support=2)
    # Support beyond m adds no candidates.
    monkeypatch.setattr(weyl, "MAX_CANDIDATES", 24 ** 2 + 2 * 24)
    dist_bounded(*_anyon_dist_input(m=2), 5, 2, max_support=10 ** 9)


def test_dist_bounded_refuses_negative_support():
    # It answered distance 0 with the identity as witness.
    alpha, beta = _anyon_dist_input()
    with pytest.raises(ValueError, match="max_support -1 is negative"):
        dist_bounded(alpha, beta, 5, 6, max_support=-1)


def test_dist_bounded_conjugations_on_another_register():
    alpha, beta = _anyon_dist_input()
    with pytest.raises(ValueError, match="different register"):
        dist_bounded(alpha, beta, 5, 7)
    with pytest.raises(ValueError, match="different register"):
        dist_bounded(alpha, beta, 7, 6)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_matches_repeated_products(p):
    rng = np.random.default_rng(p)
    for _ in range(4):
        w = PhasedPauli(p, int(rng.integers(p)), rng.integers(0, p, 5),
                        rng.integers(0, p, 5))
        product = PhasedPauli.identity(p, 5)
        for c in range(3 * p + 1):
            assert w ** c == product
            product = product * w
        assert w ** -1 == w.dagger()
        assert w ** -p == (w ** p).dagger()
