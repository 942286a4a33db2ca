"""Library pass: serve a workload's invocations through the public
library functions, in one process.

Usage: python worker.py PLAN.json [--trace TRACE.json]

Prints "ready" once everything is imported (and, with --trace, the
tracer installed), then reads invocation indices into PLAN.json from
stdin, one per line, and answers each with one JSON line: the
certificate fields a caller would read, the exit status the CLI would
give, and the seconds the invocation took. Each adapter below does the
work of the matching CLI subcommand with the package's public
functions, so the harness checks its answers against the same known
answers and against the CLI. At end of input a traced worker writes
its span summary to TRACE.json and every span, as [name, start, end,
parent index, invocation index], to TRACE.spans.jsonl.

Use one worker per pass: sympy's global cache must not carry over
from one pass to the next.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import invsub as inv
import invsub.fplinalg as fpl
from tracer import Tracer


def _lattice(a: dict, spec, extra_axis: bool = False):
    token = a.get("torus") or a.get("patch")
    sizes = tuple(int(s) for s in token.split("x"))
    if len(sizes) != spec.dims + extra_axis:
        raise ValueError(f"lattice {token} does not fit the spec")
    return inv.FiniteLattice(spec.p, spec.q, sizes,
                             periodic=a.get("torus") is not None)


def _strings(m) -> list[list[str]]:
    return [[inv.format_poly(e) for e in row] for row in m.entries]


def lib_check(a):
    spec = inv.resolve_spec(a["spec"])
    cert = inv.check_invertible(spec)
    return {"exit": 0 if cert.invertible else 1,
            "invertible": cert.invertible,
            "profile_rank": cert.profile.rank,
            "ideal": cert.profile.ideal.generator_strings(),
            "ideal_unit": cert.profile.is_unit,
            "determinant": inv.format_poly(inv.determinant(cert.xi)),
            "projector_available": cert.projector_available}


def lib_commutant(a):
    conj = inv.commutant_generators(inv.resolve_spec(a["spec"]))
    return {"exit": 0, "spec": json.loads(inv.spec_to_json(conj)),
            "n_generators": conj.n_generators, "spread": conj.spread}


def lib_project(a):
    proj = inv.build_projector(inv.resolve_spec(a["spec"]))
    return {"exit": 0, "matrix": _strings(proj.matrix), "spread": proj.spread}


def lib_lift(a):
    u = inv.lift_to_qca(inv.resolve_spec(a["spec"]))
    return {"exit": 0, "matrix": _strings(u.matrix),
            "inverse_matrix": _strings(inv.qca_inverse(u).matrix),
            "spread": u.spread}


def lib_oracle(a):
    spec = inv.resolve_spec(a["spec"])
    lat = _lattice(a, spec)
    rows = inv.instantiate_spec(spec, lat)
    report = inv.check_invertible_finite(rows, lat, spread=spec.spread)
    reach = max(2 * spec.spread, 2)
    vs = inv.check_vs(rows, lat, reach)
    out = {"exit": 0 if report.invertible else 1,
           "invertible": report.invertible, "dim_span": report.dim_span,
           "dim_commutant": report.dim_commutant,
           "dim_center": report.dim_center,
           "small_lattice_warning": report.small_lattice_warning,
           "vs_holds": vs.holds}
    if not lat.periodic:
        out["center_boundary_distance"] = inv.center_at_boundary_distance(
            rows, lat)
    return out


def lib_boundary(a):
    spec = inv.resolve_spec(a["spec"])
    lat = _lattice(a, spec, extra_axis=True)
    axis, cut = int(a["axis"]), int(a["cut"])
    fin = inv.instantiate_qca(inv.lift_to_qca(spec), lat)
    report = inv.boundary_algebra_finite(fin, axis=axis, cut=cut, window=1)
    out = {"dim_image": report.dim_image,
           "dim_boundary": report.dim_boundary,
           "dim_off_slab": report.dim_off_slab,
           "factorization_holds": report.factorization_holds}
    ok = report.factorization_holds
    if axis == spec.dims:
        target = inv.instantiate_spec(inv.promote_spec(spec), lat)
        sheet = (cut + 1) % lat.sizes[axis]
        coords = [c for s in lat.sites() if s[axis] == sheet
                  for c in lat.site_coords(s)]
        per_sheet = fpl.coordinate_restriction(target, coords, spec.p)
        out["equals_spec_span"] = fpl.row_space_equal(report.basis,
                                                      per_sheet, spec.p)
        ok = ok and out["equals_spec_span"]
    out["exit"] = 0 if ok else 1
    return out


def lib_blend_verify(a):
    spec = inv.resolve_spec(a["spec"])
    lat = _lattice(a, spec, extra_axis=True)
    # The CLI lifts and instantiates once per role (alpha, beta, gamma).
    alpha, beta, gamma = (inv.instantiate_qca(inv.lift_to_qca(spec), lat)
                          for _ in range(3))
    report = inv.verify_blend(gamma, alpha, beta, axis=int(a["axis"]),
                              interface=int(a["cut"]), margin=1)
    return {"exit": 0 if report.agrees else 1, "agrees": report.agrees,
            "first_mismatch": report.first_mismatch}


def lib_spin(a):
    entry = inv.get_example(a["spec"])
    lat = _lattice(a, entry.spec)
    charge = int(a.get("charge", 1))
    h = inv.build_hamiltonian(lat, entry.term_symbols)
    gens = entry.hopping_generators
    base = inv.topological_spin(h, gens, charge=charge)
    variants = (
        {"leg_length": max(8 * max(h.spread, 1), base.leg_length - 1)},
        {"junction": (3, 2)},
        {"leg_directions": tuple(base.leg_directions[1:])
         + (base.leg_directions[0],)},
    )
    agree = []
    for kw in variants:
        try:
            other = inv.topological_spin(h, gens, charge=charge, **kw)
        except inv.SpinGeometryError:
            continue
        agree.append(other.exponent == base.exponent)
    return {"exit": 0 if all(agree) else 1, "theta_exponent": base.exponent,
            "leg_length": base.leg_length}


def lib_gauss(a):
    if "spins" in a:
        p, spins = int(a["prime"]), [int(s) for s in a["spins"].split(",")]
    else:
        entry = inv.get_example(a["spec"])
        p, spins = entry.spec.p, list(entry.anyon_spin_exponents)
    report = inv.gauss_sum_phase(p, spins)
    return {"exit": 0, "eighth_root_exponent": report.eighth_root_exponent,
            "phase": str(report.phase)}


def lib_dist(a):
    p = int(a["prime"])
    x = [int(v) for v in a["x"].split(",")]
    z = [int(v) for v in a["z"].split(",")]
    conj = inv.PauliConjugation(inv.PhasedPauli(p, 0, x, z))
    ident = inv.PauliConjugation(inv.PhasedPauli.identity(p, len(x)))
    result = inv.dist_bounded(conj, ident, p, len(x),
                              max_support=int(a["max_support"]))
    return {"exit": 0, "distance": str(result.value),
            "distance_numeric": result.numeric,
            "witness": {"x": result.witness.a.tolist(),
                        "z": result.witness.b.tolist()}}


ADAPTERS = {
    "check": lib_check, "commutant": lib_commutant, "project": lib_project,
    "lift": lib_lift, "oracle": lib_oracle, "boundary": lib_boundary,
    "blend-verify": lib_blend_verify, "spin": lib_spin, "gauss": lib_gauss,
    "dist": lib_dist,
}


def run_one(item: dict) -> dict:
    t0 = perf_counter()
    try:
        out = ADAPTERS[item["cmd"]](item["args"])
    except Exception as exc:  # reported as a failed invocation
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["seconds"] = perf_counter() - t0
    return out


def main(argv: list[str]) -> int:
    invocations = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    trace_path = Path(argv[2]) if argv[1:2] == ["--trace"] else None
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    while line := sys.stdin.readline():
        index = int(line)
        if tracer is not None:
            tracer.invocation = index
        print(json.dumps(run_one(invocations[index])), flush=True)
    if tracer is not None:
        trace_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")
        with open(trace_path.with_suffix(".spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
