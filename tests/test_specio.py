"""Spec document parsing and canonical printing."""

import json

import pytest

import invsub.laurent as laurent
from invsub.specio import (
    MAX_DIMS,
    MAX_GENERATORS,
    MAX_QUDITS,
    MAX_SPREAD,
    SpecFormatError,
    parse_spec,
    resolve_spec,
    spec_to_json,
)
from invsub.zoo import example_names, get_example

from helpers import xz_chain_spec, z3_spec


def test_round_trip_is_byte_stable():
    for name in example_names():
        spec = get_example(name).spec
        text = spec_to_json(spec)
        again = parse_spec(text)
        assert again == spec
        assert spec_to_json(again) == text


def test_parse_handwritten_document():
    doc = json.dumps({
        "prime": 2,
        "qudits_per_site": 1,
        "dims": 1,
        "generators": [{"x": ["1"], "z": ["x"]}],
    })
    assert parse_spec(doc) == xz_chain_spec()


def test_one_reader_per_document(monkeypatch):
    # The variable names are listed once for the whole document, not
    # once for each of its 8 polynomials.
    spec = get_example("example-z3").spec
    text = spec_to_json(spec)
    listed = []
    var_names = laurent.var_names
    monkeypatch.setattr(laurent, "var_names",
                        lambda n: listed.append(n) or var_names(n))
    assert parse_spec(text) == spec
    assert listed == [spec.dims]


def test_rejects_non_prime_modulus():
    doc = spec_to_json(z3_spec()).replace('"prime": 3', '"prime": 4')
    with pytest.raises(SpecFormatError, match="4 is not prime"):
        parse_spec(doc)


def test_spread_bound_is_inclusive():
    def doc(z):
        return json.dumps({
            "prime": 3, "qudits_per_site": 1, "dims": 2,
            "generators": [{"x": ["1"], "z": [z]}],
        })

    assert parse_spec(doc(f"y^-{MAX_SPREAD} + x")).spread == MAX_SPREAD
    with pytest.raises(SpecFormatError,
                       match=rf"generator 0, z\[0\]: spread {MAX_SPREAD + 1} "):
        parse_spec(doc(f"x*y^-{MAX_SPREAD + 1}"))


def test_qudit_and_generator_bounds_are_inclusive():
    def doc(q, n):
        return json.dumps({
            "prime": 3, "qudits_per_site": q, "dims": 1,
            "generators": [{"x": ["1"] * q, "z": ["x"] * q}] * n,
        })

    assert parse_spec(doc(MAX_QUDITS, 1)).q == MAX_QUDITS
    assert parse_spec(doc(1, MAX_GENERATORS)).n_generators == MAX_GENERATORS
    with pytest.raises(SpecFormatError,
                       match=f"^{MAX_QUDITS + 1} qudits per site exceed"):
        parse_spec(doc(MAX_QUDITS + 1, 1))
    with pytest.raises(SpecFormatError,
                       match=f"^{MAX_GENERATORS + 1} generators exceed"):
        parse_spec(doc(1, MAX_GENERATORS + 1))
    wide = json.dumps({
        "prime": 3, "qudits_per_site": 1, "dims": MAX_DIMS,
        "generators": [{"x": ["1"], "z": [f"x{MAX_DIMS}"]}],
    })
    assert parse_spec(wide).dims == MAX_DIMS
    with pytest.raises(SpecFormatError, match=f"^{MAX_DIMS + 1} dims exceed"):
        parse_spec(wide.replace(f'"dims": {MAX_DIMS}',
                                f'"dims": {MAX_DIMS + 1}'))


def test_rejects_malformed_polynomial_with_position():
    doc = json.dumps({
        "prime": 3,
        "qudits_per_site": 1,
        "dims": 2,
        "generators": [{"x": ["x^"], "z": ["0"]}],
    })
    with pytest.raises(SpecFormatError, match=r"generator 0, x\[0\]"):
        parse_spec(doc)


def test_rejects_wrong_slot_count():
    doc = json.dumps({
        "prime": 3,
        "qudits_per_site": 2,
        "dims": 2,
        "generators": [{"x": ["1", "0"], "z": ["0"]}],
    })
    with pytest.raises(SpecFormatError, match="must list 2"):
        parse_spec(doc)


def test_rejects_bad_structure():
    with pytest.raises(SpecFormatError, match="not valid JSON"):
        parse_spec("{")
    with pytest.raises(SpecFormatError, match="top level"):
        parse_spec("[1]")
    with pytest.raises(SpecFormatError, match="missing keys"):
        parse_spec("{}")
    doc = json.dumps({
        "prime": 3, "qudits_per_site": 1, "dims": 1,
        "generators": [], "color": "blue",
    })
    with pytest.raises(SpecFormatError, match="unknown keys: color"):
        parse_spec(doc)


def test_resolve_builtin_and_file(tmp_path):
    assert resolve_spec("example-z3") == z3_spec()
    path = tmp_path / "chain.json"
    path.write_text(spec_to_json(xz_chain_spec()))
    assert resolve_spec(str(path)) == xz_chain_spec()
    with pytest.raises(SpecFormatError, match="neither a builtin"):
        resolve_spec("/nonexistent/nowhere.json")
