"""Contracts of the package's value types.

Validated and cached types are plain classes with an explicit
constructor: assigning to a field raises, and only the types something
keys or compares by value (`SubalgebraSpec`, `FiniteLattice`,
`PhasedPauli`) define equality and hashing.  Result records are
`typing.NamedTuple`s, read-only in the same way.
"""

import numpy as np
import pytest

import invsub
from helpers import full_spec, z3_spec


def _instances():
    entry = invsub.get_example("example-z3")
    qca = invsub.lift_to_qca(entry.spec)
    pauli = invsub.PhasedPauli(3, 1, [1, 0], [0, 2])
    return {
        "SubalgebraSpec": (entry.spec, "generators"),
        "CliffordQCA": (qca, "matrix"),
        "FiniteLattice": (invsub.FiniteLattice(3, 2, (5, 5)), "sizes"),
        "FiniteSymplecticMap": (invsub.instantiate_qca(
            qca, invsub.FiniteLattice(3, 2, (3, 3, 3))), "spread"),
        "PhasedPauli": (pauli, "phase"),
        "PauliConjugation": (invsub.PauliConjugation(pauli), "conjugator"),
        "HamiltonianInstance": (invsub.build_hamiltonian(
            invsub.FiniteLattice(3, 2, (9, 9)), entry.term_symbols),
            "entries"),
        "IdealDescription": (invsub.check_invertible(entry.spec).profile.ideal,
                             "generators"),
        "InvertibilityCertificate": (invsub.check_invertible(entry.spec),
                                     "invertible"),
        "ZooEntry": (entry, "spec"),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_fields_cannot_be_assigned(name):
    obj, field = _instances()[name]
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_equal_specs_and_lattices_hash_alike():
    a, b = invsub.get_example("example-z3").spec, z3_spec()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "lifted"}[b] == "lifted"
    assert a != full_spec()
    lat = invsub.FiniteLattice(3, 2, (5, 5))
    same = invsub.FiniteLattice(3, 2, [5, 5])
    assert lat == same and hash(lat) == hash(same)
    assert lat != invsub.FiniteLattice(3, 2, (5, 5), periodic=False)
    assert lat != invsub.FiniteLattice(3, 1, (5, 5))


def test_phased_pauli_keeps_its_equality():
    w = invsub.PhasedPauli(3, 2, [1, 0, 2], [0, 1, 1])
    ident = invsub.PhasedPauli.identity(3, 3)
    assert w * w.dagger() == ident
    assert hash(w * w.dagger()) == hash(ident)
    assert (w * w.dagger()).is_identity()
    # Exponents and the phase are read mod p.
    same = invsub.PhasedPauli(3, 5, np.array([4, 3, 2]), [0, -2, 1])
    assert same == w and hash(same) == hash(w)
    assert w != w.scale_phase(1)
    assert w != invsub.PhasedPauli(5, 2, [1, 0, 2], [0, 1, 1])


def test_cached_properties_are_computed_once():
    lat = invsub.FiniteLattice(3, 2, (4, 5))
    assert lat.grid is lat.grid
    assert not lat.grid.flags.writeable
    h = invsub.build_hamiltonian(invsub.FiniteLattice(3, 2, (9, 9)),
                                 invsub.get_example("example-z3").term_symbols)
    assert h.rows is h.rows
