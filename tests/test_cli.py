"""End-to-end tests of the command-line interface.

Each test drives ``main(argv)`` in process, captures stdout, and checks
both the exit status and the JSON certificate.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

import invsub
import invsub.fplinalg as fplinalg
import invsub.laurent as laurent
from invsub import cli
from invsub.anyon_lab import build_hamiltonian, hopping_operator
from invsub.cli import main
from invsub.finite_oracle import (
    MAX_SYMPLECTIC_LEN,
    FiniteLattice,
    center_at_boundary_distance,
    check_invertible_finite,
    check_vs,
    instantiate_spec,
)
from invsub.laurent import MAX_MINORS
from invsub.pauli import SubalgebraSpec
from invsub.specio import (
    MAX_DIMS,
    MAX_GENERATORS,
    MAX_QUDITS,
    MAX_SPREAD,
    parse_spec,
    resolve_spec,
    spec_to_json,
)
from invsub.weyl import MAX_CANDIDATES
from invsub.zoo import get_example

from helpers import (
    XI_Z3_ROWS,
    hopping_operator_per_step,
    mat,
    with_repeated_columns,
    z3_tensor,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_check_invertible_example(capsys):
    code, payload, _ = run(capsys, "check", "--spec", "example-z3")
    assert code == 0
    assert payload["invertible"] is True
    assert payload["ideal"] == ["1"]
    assert payload["ideal_unit"] is True
    assert payload["determinant"] == "1"
    assert payload["projector_available"] is True


def test_check_nonexample(capsys):
    code, payload, _ = run(capsys, "check", "--spec", "nonexample-1dxz")
    assert code == 1
    assert payload["invertible"] is False
    assert payload["ideal"] == ["x^-1 + x"]
    assert payload["ideal_unit"] is False


def test_commutant_output_reparses(capsys):
    code, payload, _ = run(capsys, "commutant", "--spec", "example-z3")
    assert code == 0
    text = json.dumps(payload["spec"])
    spec = parse_spec(text)
    assert spec.n_generators == 2
    assert json.loads(spec_to_json(spec)) == payload["spec"]


def test_project_reports_matrix(capsys):
    code, payload, _ = run(capsys, "project", "--spec", "example-z3")
    assert code == 0
    assert len(payload["matrix"]) == 4
    assert all(len(row) == 4 for row in payload["matrix"])
    assert payload["idempotent"] is True
    assert payload["spread"] == 1


def test_lift_reports_inverse(capsys):
    code, payload, _ = run(capsys, "lift", "--spec", "example-z3")
    assert code == 0
    assert payload["symplectic"] is True
    assert payload["variables"] == 3
    assert len(payload["matrix"]) == 4
    assert len(payload["inverse_matrix"]) == 4


def test_oracle_on_torus(capsys):
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3",
                           "--torus", "7x7")
    assert code == 0
    assert payload["invertible"] is True
    assert payload["dim_span"] == payload["dim_commutant"] == 2 * 49
    assert payload["dim_center"] == 0
    assert payload["vs_holds"] is True
    assert payload["lattice_over_spread"] == 7.0


def rref_shapes(monkeypatch, call):
    """The shapes of the matrices call() hands to rref, with counts."""
    shapes = Counter()
    real = fplinalg.rref

    def counted(a, p):
        shapes[a.shape] += 1
        return real(a, p)

    monkeypatch.setattr(fplinalg, "rref", counted)
    call()
    monkeypatch.undo()
    return shapes


def test_oracle_reduces_the_rows_once(monkeypatch, capsys):
    # The command hands the span it reduced for the center to V_s; the
    # two public calls it stands for reduce the 1152 rows twice.
    new = rref_shapes(monkeypatch, lambda: main(
        ["oracle", "--spec", "example-z3", "--torus", "24x24"]))
    payload = json.loads(capsys.readouterr().out)
    spec = resolve_spec("example-z3")
    lat = FiniteLattice(3, 2, (24, 24))
    rows = instantiate_spec(spec, lat)
    old = rref_shapes(monkeypatch, lambda: (
        check_invertible_finite(rows, lat, spec.spread),
        check_vs(rows, lat, payload["vs_reach"])))
    assert old - new == Counter({(1152, 2304): 1})
    assert not new - old


def test_oracle_on_patch_reports_boundary_distance(capsys):
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3",
                           "--patch", "6x6")
    assert code == 0
    assert "center_boundary_distance" in payload
    assert payload["periodic"] is False


def test_oracle_usage_errors(capsys):
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3")
    assert code == 2
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3",
                           "--torus", "7x7", "--patch", "6x6")
    assert code == 2
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3",
                           "--torus", "7x7x7")
    assert code == 2
    assert "2 dimensions" in payload["error"]


def test_huge_prime_refused_quickly(tmp_path, capsys):
    # 10^18 + 3 is prime; trial division over it would run for hours.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "prime": 10**18 + 3, "qudits_per_site": 1, "dims": 1,
        "generators": [{"x": ["1"], "z": ["x"]}],
    }))
    start = perf_counter()
    code, payload, _ = run(capsys, "check", "--spec", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"
    assert "exceeds the supported bound 65521" in payload["error"]


def test_huge_spread_refused_quickly(tmp_path, capsys):
    # Checking this spec ran past 10 s before the spread was bounded.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "prime": 2, "qudits_per_site": 1, "dims": 1,
        "generators": [{"x": ["1"], "z": ["x^20000 + x"]}],
    }))
    start = perf_counter()
    code, payload, _ = run(capsys, "check", "--spec", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"
    assert payload["error"] == (
        f"generator 0, z[0]: spread 20000 exceeds the supported bound "
        f"{MAX_SPREAD}")


@pytest.mark.parametrize("qudits, generators, error", [
    # The 2q x 2q symplectic form alone would have 4 * 10^18 entries.
    (10**9, 0, f"1000000000 qudits per site exceed the supported bound "
               f"{MAX_QUDITS}"),
    # Before the bound, `check` ran 33 s here before MinorCountError.
    (1, 1000, f"1000 generators exceed the supported bound "
              f"{MAX_GENERATORS}"),
])
@pytest.mark.parametrize("command", ["check", "commutant", "project", "lift"])
def test_oversized_spec_document_refused_quickly(tmp_path, capsys, command,
                                                 qudits, generators, error):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "prime": 3, "qudits_per_site": qudits, "dims": 1,
        "generators": [{"x": ["1"], "z": ["x"]}] * generators,
    }))
    start = perf_counter()
    code, payload, _ = run(capsys, command, "--spec", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"
    assert payload["error"] == error


@pytest.mark.parametrize("command", ["check", "commutant", "project", "lift"])
def test_oversized_dims_refused_quickly(tmp_path, capsys, command):
    # Every exponent tuple would have 10^9 entries.  Refused before the
    # polynomials are read: "x" names no variable at this many dims.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "prime": 3, "qudits_per_site": 1, "dims": 10**9,
        "generators": [{"x": ["1"], "z": ["x"]}],
    }))
    start = perf_counter()
    code, payload, _ = run(capsys, command, "--spec", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"
    assert payload["error"] == (
        f"1000000000 dims exceed the supported bound {MAX_DIMS}")


def test_repeated_generator_pairs_distinct_screen_values(tmp_path, capsys,
                                                        monkeypatch):
    # 64 copies of one generator: Xi is 64 x 64 of rank 1, and each screen
    # holds one value 64 times.  Pairing every kept set made 4096 products
    # and 4285 exact divisions in all, 0.4 s in process.
    path = tmp_path / "copies.json"
    path.write_text(json.dumps({
        "prime": 3, "qudits_per_site": 1, "dims": 1,
        "generators": [{"x": ["1"], "z": ["x"]}] * MAX_GENERATORS,
    }))
    divisions = Counter()
    divides = laurent.divides

    def counted(f, g):
        divisions["calls"] += 1
        return divides(f, g)

    monkeypatch.setattr(laurent, "divides", counted)
    # The fastest of three runs, so that one slow wall-time read on a
    # busy machine does not fail the budget.
    seconds = []
    for _ in range(3):
        start = perf_counter()
        code, payload, _ = run(capsys, "check", "--spec", str(path))
        seconds.append(perf_counter() - start)
        if len(seconds) == 1:
            # One back substitution per non-pivot column in each of the
            # two eliminations (of Xi and its transpose), and a single
            # pair.
            assert divisions["calls"] <= 2 * 63 + 1
        assert code == 1
        # At rank 1 the ideal is that of the distinct nonzero entries.
        assert payload["ideal"] == ["2*x^-1 + x"]
    assert min(seconds) < 0.3


def test_huge_minor_count_refused_quickly(tmp_path, capsys):
    # q=6 with 18 generators at rank 6: the profile's two screens alone
    # would expand 2 * C(18, 6) = 37128 minors.
    spec = with_repeated_columns(with_repeated_columns(z3_tensor(3), 6), 6)
    path = tmp_path / "redundant.json"
    path.write_text(spec_to_json(spec))
    start = perf_counter()
    code, payload, _ = run(capsys, "check", "--spec", str(path))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "MinorCountError"
    assert payload["error"] == (
        f"the rank-6 profile of a 18x18 matrix needs 37128 minors, over "
        f"the supported bound {MAX_MINORS}")


def test_huge_lattice_refused_quickly(capsys):
    # 200x200 with q=2 is 160000 symplectic coordinates; its rows alone
    # would take about 100 GB.
    start = perf_counter()
    code, payload, _ = run(capsys, "oracle", "--spec", "example-z3",
                           "--torus", "200x200")
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "LatticeSizeError"
    assert payload["error"] == (
        f"160000 symplectic coordinates, over the supported bound "
        f"{MAX_SYMPLECTIC_LEN}")


@pytest.mark.parametrize("prime, qudits, support", [
    (65521, 1, 1),   # 65521^2 - 1, about 4.3e9 candidates
    (7, 12, 3),      # 12 * 48 + 66 * 48^2 + 220 * 48^3, about 2.4e7
])
def test_huge_dist_scan_refused_quickly(capsys, prime, qudits, support):
    # Both ran past 10 s.
    ones = ",".join(["1"] * qudits)
    start = perf_counter()
    code, payload, _ = run(capsys, "dist", "--prime", str(prime), "--x",
                           ones, "--z", ones, "--max-support", str(support))
    assert perf_counter() - start < 1.0
    assert code == 2
    assert payload["error_kind"] == "CandidateCountError"
    assert payload["error"] == (
        f"{qudits} qudits over F_{prime} carry more than "
        f"weyl.MAX_CANDIDATES = {MAX_CANDIDATES} Paulis on up to "
        f"{support} sites")


# SHA-256 of `check --spec NAME` for every builtin, as printed before the
# determinantal profile went rank-first.
CHECK_DIGESTS = {
    "empty":
        "ee17572982e2a098eeb21ec9fd56dbf4d35a5f3b8f5a48d46c188e71785ad9b4",
    "example-z3":
        "d4b2b72f30ae36fc973b461762df6d03e1d9c8f05579c00c3bff7b1568b0e7b1",
    "full":
        "c834b1142b2070600c1943bcbfd352702b6b0f3d45fa09bc21fd41b35522e530",
    "nonexample-1dxz":
        "c4ddb517acdebf8a7107f315f9d4fb1943d683ecc39c7d7be8b7ae5796987348",
    "toric-code-z3":
        "d126c84e5b437eb43e818eef7a666e8b643f131587c51f6c4544303c466446eb",
}


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_certificate_unchanged(capsys, name):
    assert sorted(CHECK_DIGESTS) == sorted(invsub.example_names())
    _, payload, out = run(capsys, "check", "--spec", name)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        CHECK_DIGESTS[name]
    assert "generator_rank" not in payload


# Certificates of the 3-d lift on example-z3, axis 2: (command, torus,
# cut) -> SHA-256 of stdout.
LIFT_DIGESTS = {
    ("boundary", "5x5x5", "2"):
        "08fb1158a17db31302ea476d06a126dff0b924819c6c6f3e086e034666246236",
    ("boundary", "7x7x7", "3"):
        "bf1a94f8c97184188f1ebf28c635bc1f277ec314509144c64f5693e654b8d6d6",
    ("blend-verify", "5x5x5", "2"):
        "f99065fc8c35d2dc41184b24db48cce7cc61d890afb65f9ebb04b0469ce5f4d7",
    ("blend-verify", "7x7x7", "3"):
        "8e8a1aece436ce629e7c1d8ef1db206927d78f5673af3220161acccd00721c80",
}


@pytest.mark.parametrize("command, torus, cut", sorted(LIFT_DIGESTS))
def test_lift_certificate_unchanged(capsys, command, torus, cut):
    code, _, out = run(capsys, command, "--spec", "example-z3", "--torus",
                       torus, "--axis", "2", "--cut", cut)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        LIFT_DIGESTS[command, torus, cut]


# Certificates of `oracle --spec SPEC LATTICE SIZES` -> SHA-256 of stdout.
ORACLE_DIGESTS = {
    ("full", "--patch", "16x16"):
        "0327c4d42b917707b6dbff47e8a377d810d15919153034fe9053efc9722618fc",
    ("example-z3", "--torus", "31x31"):
        "23e4e81b0a60825e7c155c4d1b88e339c9353649d7a1053ba2a27324dcd308ce",
}


@pytest.mark.parametrize("spec, lattice, sizes", sorted(ORACLE_DIGESTS))
def test_oracle_certificate_unchanged(capsys, spec, lattice, sizes):
    code, _, out = run(capsys, "oracle", "--spec", spec, lattice, sizes)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        ORACLE_DIGESTS[spec, lattice, sizes]


def test_oracle_full_patch_time_budget(capsys):
    # VS holds at every site, so check_vs visits all 256 windows of the
    # patch; it took 3.4 s when each window eliminated the whole span.
    start = perf_counter()
    code, payload, _ = run(capsys, "oracle", "--spec", "full", "--patch",
                           "16x16")
    assert perf_counter() - start < 2.0
    assert code == 0
    assert payload["vs_holds"] is True


def test_oracle_window_past_the_patch_is_the_whole_patch(capsys):
    # A window of 150 on a 6x6 patch is every site; the stdout's SHA-256
    # is the one printed while each window resolved all 301^2 offsets
    # (5.9 s end to end).
    start = perf_counter()
    code, _, out = run(capsys, "oracle", "--spec", "full", "--patch", "6x6",
                       "--window", "150")
    assert perf_counter() - start < 2.0
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "5a4c0cc18dfa1941b20a473ec4af024a3934304d8b23207eb7cc0597a9c79171"


@pytest.mark.parametrize("extra, lifts", [
    ((), 1),
    (("--spec-b", "example-z3", "--blend", "example-z3"), 1),
    (("--spec-b", "SWAPPED"), 2),
    (("--spec-b", "SWAPPED", "--blend", "SWAPPED"), 2),
])
def test_blend_verify_lifts_each_distinct_spec_once(tmp_path, monkeypatch,
                                                    capsys, extra, lifts):
    # example-z3 with its two generators swapped: another presentation,
    # whose lift is the same automaton.
    spec = invsub.get_example("example-z3").spec
    swapped = invsub.SubalgebraSpec(
        spec.p, spec.q, spec.dims,
        spec.generators.submatrix(range(2 * spec.q), [1, 0]))
    path = tmp_path / "swapped.json"
    path.write_text(spec_to_json(swapped))
    calls = []

    def counted(spec):
        calls.append(spec)
        return invsub.lift_to_qca(spec)

    monkeypatch.setattr(cli, "lift_to_qca", counted)
    argv = [str(path) if a == "SWAPPED" else a for a in extra]
    code, payload, _ = run(capsys, "blend-verify", "--spec", "example-z3",
                           "--torus", "5x5x5", "--axis", "2", "--cut", "2",
                           *argv)
    assert len(calls) == lifts
    assert code == 0
    assert payload["agrees"] is True


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler bug")

    monkeypatch.setitem(cli._HANDLERS, "check", broken)
    code = main(["check", "--spec", "example-z3"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 3
    assert payload["error_kind"] == "RuntimeError"
    assert payload["error"] == "handler bug"
    assert payload["command"] == "check"
    assert "Traceback" in captured.err


def run_probe(probe: str, *argv: str) -> str:
    """Run `probe` in a fresh interpreter that imports this package,
    with `argv` as its sys.argv[1:], and return its stdout; its asserts
    name the failing step."""
    src = str(Path(invsub.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(probe), *argv], env=env,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


# SHA-256 of the stdout of each command, as printed while the package
# still built sympy values for its phases and distances.
NO_SYMPY_DIGESTS = {
    ("check", "--spec", "example-z3"):
        "d4b2b72f30ae36fc973b461762df6d03e1d9c8f05579c00c3bff7b1568b0e7b1",
    ("lift", "--spec", "example-z3"):
        "72aed6aa6a401c66f292b5136998f30ff078e8853eed0da6406e5a528738bbea",
    ("spin", "--spec", "example-z3", "--torus", "13x13"):
        "06d9a67903ac346005e1d7c8bcf788af98a00cacfa18c0805f0cf398530b542a",
    ("gauss", "--spec", "example-z3"):
        "3eed1ad2d19317512670d1255d02c7096d0ed2261159bfe3a6b77582a6416160",
    ("dist", "--prime", "5", "--x", "1,4,0,2,3,1", "--z", "2,0,3,1,4,4"):
        "faaa1e90932a63010f48e20d165633f8e8176cd926052ae8c572258509e0dac3",
}


def test_runs_without_sympy():
    # With sys.modules["sympy"] = None every import of sympy raises
    # ImportError, so any use of it in the package fails here.
    out = run_probe("""
        import contextlib, hashlib, io, json, sys
        sys.modules["sympy"] = None
        import invsub
        from invsub.cli import main
        digests = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        P = invsub.PhasedPauli
        x, z = P(2, 0, [1], [0]), P(2, 0, [0], [1])
        u = P(5, 0, [1, 4, 0, 2, 3, 1], [2, 0, 3, 1, 4, 4])
        conj, ident = invsub.PauliConjugation(u), \
            invsub.PauliConjugation(P.identity(5, 6))
        texts = [
            invsub.gauss_sum_phase(3, [0, 1, 1]).phase,
            invsub.unitary_distance_to_identity(P(3, 1, [0], [0])).value,
            invsub.unitary_distance(x, z).value,
            invsub.dist_bounded(conj, ident, 5, 6).value,
        ]
        print(json.dumps([digests, texts]))
    """, json.dumps(list(NO_SYMPY_DIGESTS)))
    digests, texts = json.loads(out)
    assert digests == list(NO_SYMPY_DIGESTS.values())
    assert texts == ["I", "sqrt(3)", "sqrt(2)", "2*sqrt(sqrt(5)/8 + 5/8)"]


def test_numpy_is_imported_on_first_use(tmp_path):
    # Fails on any new top-level numpy use in the package.  The spec
    # file is example-z3 times a unimodular matrix, so its X block is
    # not the identity and the commutant goes through the projector.
    spec = invsub.get_example("example-z3").spec
    unimodular = invsub.LaurentMatrix(spec.p, spec.dims, [
        [invsub.LaurentPoly.constant(1, spec.p, spec.dims),
         invsub.LaurentPoly.monomial(1, (1, 0), spec.p, spec.dims)],
        [invsub.LaurentPoly.zero(spec.p, spec.dims),
         invsub.LaurentPoly.constant(1, spec.p, spec.dims)],
    ])
    path = tmp_path / "represented.json"
    path.write_text(spec_to_json(invsub.SubalgebraSpec(
        spec.p, spec.q, spec.dims, spec.generators @ unimodular)))
    run_probe("""
        import sys
        from invsub.cli import main
        assert "numpy" not in sys.modules, "import invsub.cli"
        for spec in ("example-z3", sys.argv[1]):
            for command in ("check", "commutant", "project", "lift"):
                assert main([command, "--spec", spec]) == 0, (command, spec)
                assert "numpy" not in sys.modules, (command, spec)
        assert main(["gauss", "--spec", "example-z3"]) == 0
        assert main(["gauss", "--spins", "0,1,1", "--prime", "3"]) == 0
        assert "numpy" not in sys.modules, "gauss"
        assert main(["dist", "--prime", "3", "--x", "1,2", "--z", "0,1"]) == 0
        assert "numpy" not in sys.modules, "dist"
        main(["oracle", "--spec", "example-z3", "--torus", "7x7"])
        assert "numpy" in sys.modules, "oracle"

        import numpy
        from invsub import anyon_lab, finite_oracle, fplinalg
        assert fplinalg.np is numpy and finite_oracle.np is numpy, "oracle"
        main(["spin", "--spec", "example-z3", "--torus", "13x13"])
        assert anyon_lab.np is numpy, "spin"
    """, str(path))


def test_runs_without_numpy(capsys):
    # With sys.modules["numpy"] = None every import of numpy raises
    # ImportError, so any numpy use on these commands' paths fails here.
    # The dist certificates pinned below cover p = 2 and odd p at
    # supports 1 and 2; each certificate must be the pinned one or, for
    # the p = 2 scan at support 2, the one this process prints with
    # numpy loaded.
    extra = ("dist", "--prime", "2", "--x", "1,0,1,1,0,1", "--z",
             "0,1,1,0,0,1", "--max-support", "2")
    pinned = {("dist", "--prime", prime, "--x", x, "--z", z,
               "--max-support", support): digest
              for (prime, x, z, support), (_, digest)
              in DIST_CERTIFICATES.items()}
    pinned.update((argv, digest) for argv, digest in NO_SYMPY_DIGESTS.items()
                  if argv[0] in ("gauss", "check", "dist"))
    _, _, out = run(capsys, *extra)
    want = dict(pinned)
    want[extra] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    out = run_probe("""
        import contextlib, hashlib, io, json, sys
        sys.modules["numpy"] = None
        from invsub.cli import main
        digests = []
        for argv in json.loads(sys.argv[1]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        print(json.dumps(digests))
    """, json.dumps(list(want)))
    assert json.loads(out) == list(want.values())


def test_finite_commands_do_not_load_numpy_ma():
    # From numpy 2 on, np.unique (under setdiff1d) imports numpy.ma,
    # about 10 ms and 1.4 MiB, on its first call.  No oracle, boundary,
    # blend-verify or spin path needs it.  numpy 1.x imports numpy.ma
    # with numpy itself, so the commands must only leave that state as
    # is.
    run_probe("""
        import sys
        import numpy
        from invsub.cli import main
        baseline = "numpy.ma" in sys.modules
        for argv in (["oracle", "--spec", "example-z3", "--torus", "7x7"],
                     ["oracle", "--spec", "example-z3", "--patch", "6x6"],
                     ["boundary", "--spec", "example-z3", "--torus",
                      "5x5x5", "--axis", "2", "--cut", "2"],
                     ["blend-verify", "--spec", "example-z3", "--torus",
                      "5x5x5", "--axis", "2", "--cut", "2"],
                     ["spin", "--spec", "example-z3", "--torus", "13x13"],
                     ["spin", "--spec", "toric-code-z3", "--torus",
                      "13x13"]):
            assert main(argv) == 0, argv
            assert ("numpy.ma" in sys.modules) == baseline, argv
    """)


def test_import_loads_every_traced_module():
    # bench/tracer.py wraps functions in these modules, which it finds
    # in sys.modules right after `import invsub`.
    run_probe("""
        import sys
        import invsub
        for name in ("specio", "laurent", "groebner", "pauli", "qca",
                     "fplinalg", "finite_oracle", "anyon_lab", "weyl"):
            assert f"invsub.{name}" in sys.modules, name
    """)


def test_startup_generates_no_code():
    # The value types are plain classes and NamedTuples: loading the
    # package imports neither dataclasses nor inspect and compiles no
    # generated methods.  traceback is imported only on an internal
    # error.
    run_probe("""
        import sys
        from invsub.cli import main

        def loaded():
            return [m for m in ("dataclasses", "inspect", "traceback")
                    if m in sys.modules]

        assert not loaded(), ("import invsub.cli", loaded())
        for command in ("check", "commutant", "project", "lift", "gauss"):
            assert main([command, "--spec", "example-z3"]) == 0, command
            assert not loaded(), (command, loaded())
    """)


def test_certificates_carry_the_package_version(capsys):
    _, payload, _ = run(capsys, "check", "--spec", "example-z3")
    assert payload["version"] == invsub.__version__ == "0.1.0"
    assert not hasattr(cli, "VERSION")


# SHA-256 of the certificates printed before the span's center was shared
# between the invertibility report and the boundary distance.
PATCH_DIGESTS = {
    ("example-z3", "12x12"):
        "add17b45ff28ed19f09717e577a8aa34f0522584f536640a2b726dd9f0b250bb",
    ("example-z3", "16x16"):
        "e74e9bf50cdc6d58253b89f0ee8d806cb45cd2074c5a58a19da36598a931492a",
    ("toric-code-z3", "8x8"):
        "223ed29808f031e5aadd5fe10a1836f0856940c002c6f8c7be0d9ada27772eab",
    ("nonexample-1dxz", "12"):
        "2a02b833d33690d0c9e779dcb8de071eb44433d46a756a9989b3778912978ea6",
}


@pytest.mark.parametrize("name, sizes", sorted(PATCH_DIGESTS))
def test_oracle_patch_certificate_unchanged(capsys, name, sizes):
    code, payload, out = run(capsys, "oracle", "--spec", name,
                             "--patch", sizes)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == PATCH_DIGESTS[name, sizes]
    # The shared center gives what the two public calls give.
    spec = resolve_spec(name)
    lat = FiniteLattice(spec.p, spec.q,
                        tuple(int(s) for s in sizes.split("x")),
                        periodic=False)
    rows = instantiate_spec(spec, lat)
    report = check_invertible_finite(rows, lat, spread=spec.spread)
    assert payload["dim_center"] == report.dim_center
    assert payload["center_boundary_distance"] == \
        center_at_boundary_distance(rows, lat)


def test_unknown_spec_token(capsys):
    code, payload, _ = run(capsys, "check", "--spec", "no-such-model")
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"


def test_boundary_equals_spec_span(capsys):
    code, payload, _ = run(capsys, "boundary", "--spec", "example-z3",
                           "--torus", "5x5x5", "--axis", "2", "--cut", "2")
    assert code == 0
    assert payload["factorization_holds"] is True
    assert payload["equals_spec_span"] is True


def test_blend_verify_self(capsys):
    code, payload, _ = run(capsys, "blend-verify", "--spec", "example-z3",
                           "--torus", "5x5x5", "--axis", "2", "--cut", "2")
    assert code == 0
    assert payload["agrees"] is True
    assert payload["first_mismatch"] is None


@pytest.mark.parametrize("argv, message", [
    (("blend-verify", "--spec", "example-z3", "--torus", "5x5x5",
      "--axis", "7", "--cut", "2"), "axis 7 out of range"),
    (("blend-verify", "--spec", "example-z3", "--torus", "5x5x5",
      "--axis", "-1", "--cut", "2"), "axis -1 out of range"),
    (("blend-verify", "--spec", "example-z3", "--torus", "5x5x5",
      "--axis", "2", "--window", "-3", "--cut", "2"),
     "margin -3 is negative"),
    (("oracle", "--spec", "example-z3", "--torus", "7x7", "--window", "-1"),
     "reach -1 is negative"),
    (("dist", "--prime", "3", "--x", "1", "--z", "1", "--max-support", "-1"),
     "max_support -1 is negative"),
    (("blend-verify", "--spec", "example-z3", "--torus", "5x5x5",
      "--axis", "2", "--cut", "9"),
     "interface 9 with margin 1 leaves one side of the axis empty: "
     "need 1 < interface < 3"),
    (("blend-verify", "--spec", "example-z3", "--torus", "5x5x5",
      "--axis", "2"),
     "the following arguments are required: --cut"),
])
def test_negative_or_out_of_range_arguments_refused(capsys, argv, message):
    # These exited 3 (an IndexError), or answered: "agrees" (also with
    # an interface leaving one side empty), "vs fails" and distance 0.
    # blend-verify without --cut took the default interface 0, which
    # always leaves one side empty; argparse now refuses it.
    if "--cut" in message:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        return
    code, payload, _ = run(capsys, *argv)
    assert code == 2
    assert payload["error_kind"] == "ValueError"
    assert payload["error"] == message


def test_dist_global_flip(capsys):
    code, payload, _ = run(capsys, "dist", "--prime", "2",
                           "--x", "1,1,1,1,1,1", "--z", "0,0,0,0,0,0",
                           "--max-support", "1")
    assert code == 0
    assert payload["distance"] == "2"
    assert payload["distance_numeric"] == 2.0
    w = payload["witness"]
    assert sum(1 for xi, zi in zip(w["x"], w["z"]) if xi or zi) == 1


# `dist` stdout as printed while its distances were scored by sympy:
# the distance text and the SHA-256 of the whole certificate.
DIST_CERTIFICATES = {
    ("2", "1,0,1,1,0,1", "0,1,1,0,0,1", "1"): (
        "2",
        "1ba9d917147c8fb1263a88ccaa9cdcf4eba7949ead1de950b2693ab0b3918eae"),
    ("3", "1,0,2,1,1,2,0,1", "0,1,1,2,0,2,2,1", "2"): (
        "sqrt(3)",
        "158f7b80669d48a86e8bbe27df25ca35f670d2c8b393fdd420b2e6c19bc0ab2c"),
    ("5", "1,4,0,2,3,1", "2,0,3,1,4,4", "2"): (
        "2*sqrt(sqrt(5)/8 + 5/8)",
        "faaa1e90932a63010f48e20d165633f8e8176cd926052ae8c572258509e0dac3"),
    ("7", "3,0,5", "1,2,0", "2"): (
        "2*sin(3*pi/7)",
        "906dd6a57c076f7a33125f5f3527350e2c94d04deeaed9c96986833af2815bed"),
    ("997", "5", "3", "1"): (
        "2*sin(498*pi/997)",
        "432815d2b19098087f20a64a27e2addb5b99a34b6a50486a996bf3f2db789eaf"),
    ("5", "0,0,0", "0,0,0", "2"): (
        "0",
        "8d0dd0d39747e3ca38b5efb72a43be158a50dcaeed427cf799382a29d070bd57"),
}


@pytest.mark.parametrize("prime, x, z, support", sorted(DIST_CERTIFICATES))
def test_dist_certificate_unchanged(capsys, prime, x, z, support):
    code, payload, out = run(capsys, "dist", "--prime", prime, "--x", x,
                             "--z", z, "--max-support", support)
    assert code == 0
    text, digest = DIST_CERTIFICATES[prime, x, z, support]
    assert payload["distance"] == text
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# `oracle` stdout, recorded before the elimination kernel moved from
# column-by-column Gauss-Jordan to rounds: (spec, lattice flag, sizes)
# -> (exit status, SHA-256 of the certificate).
ORACLE_CERTIFICATES = {
    ("example-z3", "--torus", "7x7"): (
        0, "344dea9c7a222bc44e815b289b2ba15f238aaf2479ab519944b7e11667d5cab0"),
    ("toric-code-z3", "--torus", "6x6"): (
        1, "f987a1816ddcc6a640c2f36ed8c15a988f31760cfa047997fc81a408b270e705"),
    ("full", "--patch", "6x6"): (
        0, "59f2c18ef30e10b55e54083e7f92ab215b1f7e04c5b2295c8672bb8e74125f11"),
}


@pytest.mark.parametrize("name, flag, sizes", sorted(ORACLE_CERTIFICATES))
def test_oracle_certificate_unchanged(capsys, name, flag, sizes):
    code, _, out = run(capsys, "oracle", "--spec", name, flag, sizes)
    status, digest = ORACLE_CERTIFICATES[name, flag, sizes]
    assert code == status
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_spin_example(capsys):
    code, payload, _ = run(capsys, "spin", "--spec", "example-z3",
                           "--torus", "13x13")
    assert code == 0
    assert payload["theta_exponent"] == 1
    assert payload["p"] == 3
    assert len(payload["invariance_checks"]) == 3
    assert all(c["agrees"] for c in payload["invariance_checks"])


# SHA-256 of the spin certificates the benchmark's anyon workload
# prints, recorded before the spin engine moved onto the terms'
# nonzeros and translated transporters.
SPIN_DIGESTS = {
    ("example-z3", "21x21", "1"):
        "b6eb4f4d76a1e3740818a71152c703923cd7d877f988286f1fb6e0fb581496c9",
    ("example-z3", "21x21", "2"):
        "c4deb31394c73ab339343a92e1f6164451410e91ad161a89801a5a88f7f63d49",
    ("toric-code-z3", "17x17", "1"):
        "2e18ecf6518839647f4b40688ff8de0d0b3026fe2abfefb8db5aded0caa1a311",
}


@pytest.mark.parametrize("name, torus, charge", sorted(SPIN_DIGESTS))
def test_spin_certificate_unchanged(capsys, name, torus, charge):
    code, _, out = run(capsys, "spin", "--spec", name, "--torus", torus,
                       "--charge", charge)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        SPIN_DIGESTS[name, torus, charge]


def test_spin_takes_no_matrix_product(monkeypatch, capsys):
    # Transporters, legs, hopping operators and the exchange all take
    # their phases from anyon_lab._ordered_product, with no product
    # through matmul_mod.
    z3, lattice = get_example("example-z3"), FiniteLattice(3, 2, (13, 13))
    hop = hopping_operator_per_step(
        build_hamiltonian(lattice, z3.term_symbols), z3.hopping_generators,
        (3, 8), (0, 0), charge=2)

    def no_product(*args):
        raise AssertionError("matmul_mod called")

    for module in list(sys.modules.values()):
        if module.__name__.startswith("invsub") and \
                hasattr(module, "matmul_mod"):
            monkeypatch.setattr(module, "matmul_mod", no_product)
    for (name, torus, charge), digest in SPIN_DIGESTS.items():
        code, _, out = run(capsys, "spin", "--spec", name, "--torus", torus,
                           "--charge", charge)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    h = build_hamiltonian(lattice, z3.term_symbols)
    assert hopping_operator(h, z3.hopping_generators, (3, 8), (0, 0),
                            charge=2) == hop


@pytest.mark.parametrize("spec", [
    SubalgebraSpec(3, 2, 2, get_example("example-z3").spec.generators
                   .submatrix(range(4), [0])),
    z3_tensor(2),
], ids=["1-generator", "4-generator"])
def test_spin_refuses_a_spec_without_two_generators(tmp_path, capsys, spec):
    # The Hamiltonian term is zoo.plaquette_term, which pairs exactly two
    # generators; a four-generator file exited 2 with "ValueError: shape
    # mismatch (8, 4) @ (2, 1)".
    path = tmp_path / "spec.json"
    path.write_text(spec_to_json(spec))
    code, payload, _ = run(capsys, "spin", "--spec", str(path),
                           "--torus", "21x21")
    assert code == 2
    assert payload["error_kind"] == "SpecFormatError"
    assert "exactly two generators" in payload["error"]


def test_spin_refuses_small_torus(capsys):
    code, payload, _ = run(capsys, "spin", "--spec", "example-z3",
                           "--torus", "9x9")
    assert code == 2
    assert payload["error_kind"] == "SpinGeometryError"


def test_spin_needs_a_torus(capsys):
    code, payload, _ = run(capsys, "spin", "--spec", "example-z3",
                           "--patch", "21x21")
    assert code == 2
    assert payload["error_kind"] == "InstantiationError"
    assert payload["error"] == "string operators need a torus"


def test_gauss_builtin(capsys):
    code, payload, _ = run(capsys, "gauss", "--spec", "example-z3")
    assert code == 0
    assert payload["modular"] is True
    assert payload["eighth_root_exponent"] == 2
    code, payload, _ = run(capsys, "gauss", "--spec", "toric-code-z3")
    assert code == 0
    assert payload["eighth_root_exponent"] == 0


def test_gauss_explicit_and_nonmodular(capsys):
    code, payload, _ = run(capsys, "gauss", "--spins", "0,1,1",
                           "--prime", "3")
    assert code == 0
    assert payload["eighth_root_exponent"] == 2
    code, payload, _ = run(capsys, "gauss", "--spins", "0,1", "--prime", "3")
    assert code == 1
    assert payload["modular"] is False


def test_gauss_refuses_a_spec_with_spins_or_prime(capsys):
    # Either flag beside --spec was ignored: the spins' phase, or the
    # builtin's prime, came back with exit 0.
    for extra in (["--spins", "0", "--prime", "3"], ["--prime", "5"]):
        code, payload, _ = run(capsys, "gauss", "--spec", "example-z3", *extra)
        assert code == 2
        assert payload["error_kind"] == "SpecFormatError"
        assert "not both" in payload["error"]


def test_cli_primes_refused_quickly(capsys):
    # A length-p cyclotomic Gauss sum at p = 1000003 ran past 10 s.
    for argv in (["gauss", "--spins", "0", "--prime", "1000003"],
                 ["dist", "--prime", "1000003", "--x", "1", "--z", "0"]):
        start = perf_counter()
        code, payload, _ = run(capsys, *argv)
        assert perf_counter() - start < 1.0
        assert code == 2
        assert payload["error_kind"] == "SpecFormatError"
        assert "exceeds the supported bound 65521" in payload["error"]


def test_cli_composite_prime_is_a_usage_error(capsys):
    for argv in (["gauss", "--spins", "0,1,1", "--prime", "4"],
                 ["dist", "--prime", "4", "--x", "1", "--z", "0"]):
        code, payload, _ = run(capsys, *argv)
        assert code == 2
        assert payload["error_kind"] == "SpecFormatError"
        assert payload["error"] == "modulus 4 is not prime"


def test_out_flag_writes_same_bytes(tmp_path, capsys):
    target = tmp_path / "cert.json"
    _, _, out = run(capsys, "check", "--spec", "example-z3",
                    "--out", str(target))
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("where, kind", [
    ("missing/cert.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),
], ids=["missing-directory", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where, kind):
    # The write ran outside the handler's guard: a traceback and exit 1,
    # the status of a failed property, for an invertible spec.
    code = main(["check", "--spec", "example-z3", "--out",
                 str(tmp_path / where)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 2
    assert payload["error_kind"] == kind
    assert payload["command"] == "check"
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


def test_output_is_deterministic(capsys):
    _, _, first = run(capsys, "commutant", "--spec", "example-z3")
    _, _, second = run(capsys, "commutant", "--spec", "example-z3")
    assert first == second


def test_spin_over_a_large_prime_in_closed_form(tmp_path, capsys):
    # The example-z3 form over F_65521: the transporter's factors carry
    # exponents up to p - 1, and raising them by repeated products made
    # 393 263 products and took 7.9 s.
    p = 65521
    xi = mat(p, 2, XI_Z3_ROWS)
    path = tmp_path / "z3_65521.json"
    path.write_text(spec_to_json(invsub.from_antihermitian(xi)))
    start = perf_counter()
    code, payload, out = run(capsys, "spin", "--spec", str(path),
                             "--torus", "21x21")
    assert perf_counter() - start < 1.5
    assert code == 0
    assert payload["theta_exponent"] == 49141
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "552cdbc8c428fd763a74c382b9c80947e0c6600a1ae96f2255046f972146e9dd"


def test_spin_refuses_a_window(monkeypatch, capsys):
    # spin sizes its legs from the terms' spread and has no window; a
    # --window was accepted and ignored.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the window was refused")

    monkeypatch.setattr(cli, "build_hamiltonian", no_work)
    code, payload, _ = run(capsys, "spin", "--spec", "example-z3",
                           "--torus", "13x13", "--window", "3")
    assert code == 2
    assert payload["error_kind"] == "ValueError"
    assert payload["error"] == "spin takes no --window"


@pytest.mark.parametrize("argv, message", [
    (("oracle", "--spec", "example-z3", "--torus", "31x31"), "reach -1"),
    (("boundary", "--spec", "example-z3", "--torus", "9x9x9", "--axis", "2"),
     "window -1"),
    (("blend-verify", "--spec", "example-z3", "--torus", "9x9x9",
      "--axis", "2", "--cut", "3"), "margin -1"),
    (("spin", "--spec", "example-z3", "--torus", "9x9"), "window -1"),
])
def test_negative_window_refused_before_any_work(monkeypatch, capsys, argv,
                                                 message):
    # oracle at 31x31 exited 2 only after 1.5 s of instantiation and
    # elimination, boundary and blend-verify after lifting.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the window was checked")

    for name in ("instantiate_spec", "lift_to_qca", "build_hamiltonian"):
        monkeypatch.setattr(cli, name, no_work)
    code, payload, _ = run(capsys, *argv, "--window", "-1")
    assert code == 2
    assert payload["error_kind"] == "ValueError"
    assert payload["error"] == f"{message} is negative"
