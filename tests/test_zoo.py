"""The builtin registry: pinned models and the random invertible-spec
generator."""

import numpy as np
import pytest

from invsub.finite_oracle import (
    FiniteLattice,
    check_invertible_finite,
    instantiate_spec,
)
from invsub.laurent import LaurentMatrix
from invsub.pauli import check_invertible, commutation_matrix
from invsub.zoo import example_names, get_example, random_remark_spec

from helpers import full_spec, xz_chain_spec, z3_spec


def test_registry_names():
    assert example_names() == (
        "empty", "example-z3", "full", "nonexample-1dxz", "toric-code-z3",
    )
    with pytest.raises(KeyError, match="unknown builtin"):
        get_example("no-such-model")


def test_example_z3_matches_frozen_spec():
    entry = get_example("example-z3")
    assert entry.spec == z3_spec()
    assert entry.spec.n_generators == 2
    assert entry.spec.spread == 1
    cert = check_invertible(entry.spec)
    assert cert.invertible and cert.xi_invertible


def test_example_z3_term_symbol():
    entry = get_example("example-z3")
    (term,) = entry.term_symbols
    assert term.shape == (4, 1)
    # The defining column is nonzero: the term is never a scalar.
    assert not all(e.is_zero() for e in term.column(0))
    assert entry.anyon_spin_exponents == (0, 1, 1)


def test_nonexample_and_degenerate_entries():
    assert get_example("nonexample-1dxz").spec == xz_chain_spec()
    assert get_example("full").spec == full_spec()
    assert get_example("empty").spec.n_generators == 0


def test_toric_code_entry():
    entry = get_example("toric-code-z3")
    # All generators commute at the symbol level: the commutation
    # matrix vanishes identically, so the nonzero algebra is its own
    # center and is not invertible.
    comm = commutation_matrix(entry.spec)
    assert all(e.is_zero() for row in comm.entries for e in row)
    cert = check_invertible(entry.spec)
    assert not cert.invertible
    assert not cert.xi_invertible
    assert not cert.projector_available
    assert len(entry.term_symbols) == 2
    assert sorted(entry.anyon_spin_exponents) == [0, 0, 0, 0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("name", example_names())
def test_symbolic_and_finite_verdicts_agree(name):
    spec = get_example(name).spec
    lat = FiniteLattice(spec.p, spec.q, (9,) * spec.dims)
    report = check_invertible_finite(instantiate_spec(spec, lat), lat,
                                     spread=spec.spread)
    assert not report.small_lattice_warning
    assert check_invertible(spec).invertible == report.invertible


@pytest.mark.parametrize("p", [3, 5, 2, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_remark_specs_are_invertible(p, seed):
    rng = np.random.default_rng(seed)
    spec = random_remark_spec(p, rng)
    assert spec.p == p
    assert spec.is_remark_form()
    cert = check_invertible(spec)
    assert cert.invertible and cert.xi_invertible


def test_random_remark_spec_deterministic():
    a = random_remark_spec(3, np.random.default_rng(7))
    b = random_remark_spec(3, np.random.default_rng(7))
    assert a == b
