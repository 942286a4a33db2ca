"""Contracts of the package's value types.

Validated and cached types are plain classes with an explicit
constructor on the one base `invsub._frozen.Frozen`: assigning to or
deleting a field raises "<Name> is immutable", and no other class
defines `__setattr__` or `__delattr__`.  The types something keys or
compares by value (`SubalgebraSpec`, `FiniteLattice`, `PhasedPauli`,
`LaurentMatrix`) take equality and hashing from a `_key()` tuple
through `invsub._frozen.Keyed`; `LaurentPoly` keeps its own.  Result
records are `typing.NamedTuple`s, read-only in the same way.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import invsub
from invsub._frozen import Frozen
from helpers import full_spec, z3_spec


def _instances():
    entry = invsub.get_example("example-z3")
    qca = invsub.lift_to_qca(entry.spec)
    pauli = invsub.PhasedPauli(3, 1, [1, 0], [0, 2])
    return {
        "LaurentPoly": (invsub.parse_poly("x + 2*y^-1", 3, 2), "terms"),
        "LaurentMatrix": (entry.spec.generators, "entries"),
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
    message = f"{name} is immutable" if isinstance(obj, Frozen) else None
    with pytest.raises(AttributeError, match=message):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
    with pytest.raises(AttributeError, match=message):
        delattr(obj, field)
    assert hasattr(obj, field)


def test_only_the_base_defines_setattr_or_delattr():
    classes = set()
    for info in pkgutil.iter_modules(invsub.__path__):
        module = importlib.import_module(f"invsub.{info.name}")
        classes.update(c for c in vars(module).values() if isinstance(c, type)
                       and c.__module__ == module.__name__)
    assert {Frozen, invsub.LaurentPoly, invsub.PhasedPauli} <= classes
    for method in ("__setattr__", "__delattr__"):
        assert [c for c in classes if method in vars(c)] == [Frozen], method


def test_equal_laurent_matrices_hash_alike():
    a = invsub.get_example("example-z3").spec.generators
    b = z3_spec().generators
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != a.scale(2)
    zeros = invsub.LaurentMatrix.zeros
    assert zeros(3, 2, 0, 3) == zeros(3, 2, 0, 3)
    assert zeros(3, 2, 0, 3) != zeros(3, 2, 0, 4)
    assert zeros(3, 2, 2, 0) != zeros(3, 2, 3, 0)


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
