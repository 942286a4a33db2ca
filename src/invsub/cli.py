"""Command-line entry point emitting machine-readable JSON certificates.

One command per process; every certificate is deterministic
byte-for-byte for a given input and version (sorted keys, two-space
indentation), embeds the derived spread plus the lattice-to-spread
ratio where a lattice is involved, and reports enough witness data
(ideals, dimensions, matrices, phases) to be audited offline.  Exit
status: 0 when the queried property holds or the computation succeeds,
1 when it definitively fails, 2 for usage or infeasibility problems,
3 for an internal error (any other exception), so that a crash never
reads as a failed property.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .anyon_lab import (
    NotModularError,
    SpinGeometryError,
    build_hamiltonian,
    gauss_sum_phase,
    topological_spin,
)
from .finite_oracle import (
    FiniteLattice,
    _boundary_distance,
    _invertibility_and_center,
    _vs_of_span,
    boundary_algebra_finite,
    instantiate_qca,
    instantiate_spec,
    spec_span_on_sheet,
    verify_blend,
)
from .fplinalg import row_basis, row_space_equal
from .laurent import LaurentMatrix, format_poly
from .pauli import (
    NotInvertibleError,
    SubalgebraSpec,
    build_projector,
    check_invertible,
    commutant_generators,
)
from .qca import lift_to_qca, qca_inverse
from .specio import SpecFormatError, check_prime, resolve_spec, spec_to_json
from .weyl import PauliConjugation, PhasedPauli, dist_bounded
from .zoo import example_names, get_example, plaquette_term


def _matrix_strings(m: LaurentMatrix) -> list[list[str]]:
    return [[format_poly(e) for e in row] for row in m.entries]


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise SpecFormatError(f"bad lattice sizes {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise SpecFormatError(f"lattice sizes must be positive: {text!r}")
    return sizes


def _parse_vector(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise SpecFormatError(f"bad exponent vector {text!r}") from None


# What --window is, by command.
_WINDOW_NAMES = {"oracle": "reach", "blend-verify": "margin"}


def _lattice_for(args, spec: SubalgebraSpec, extra_axis: bool = False):
    if args.window is not None and args.window < 0:
        name = _WINDOW_NAMES.get(args.command, "window")
        raise ValueError(f"{name} {args.window} is negative")
    wanted = spec.dims + (1 if extra_axis else 0)
    if args.torus and args.patch:
        raise SpecFormatError("--torus and --patch are mutually exclusive")
    token = args.torus or args.patch
    if token is None:
        raise SpecFormatError("a lattice is required: pass --torus or --patch")
    sizes = _parse_sizes(token)
    if len(sizes) != wanted:
        raise SpecFormatError(
            f"this computation runs in {wanted} dimensions, got sizes {sizes}"
        )
    return FiniteLattice(spec.p, spec.q, sizes, periodic=args.torus is not None)


def _ratio(lattice: FiniteLattice, spread: int) -> float:
    return min(lattice.sizes) / max(spread, 1)


def _payload(command: str, **fields) -> dict:
    fields["version"] = __version__
    fields["command"] = command
    return fields


def _cmd_check(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    cert = check_invertible(spec)
    payload = _payload(
        "check",
        invertible=cert.invertible,
        profile_rank=cert.profile.rank,
        ideal=list(cert.profile.ideal.generator_strings()),
        ideal_unit=cert.profile.is_unit,
        determinant=format_poly(cert.determinant),
        pairing_block_invertible=cert.xi_invertible,
        projector_available=cert.projector_available,
        n_generators=spec.n_generators,
        spread=spec.spread,
    )
    return (0 if cert.invertible else 1), payload


def _cmd_commutant(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    conj = commutant_generators(spec)
    payload = _payload(
        "commutant",
        spec=json.loads(spec_to_json(conj)),
        n_generators=conj.n_generators,
        spread=conj.spread,
    )
    return 0, payload


def _cmd_project(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    proj = build_projector(spec)
    payload = _payload(
        "project",
        matrix=_matrix_strings(proj.matrix),
        spread=proj.spread,
        idempotent=True,
        fixes_generators=True,
        complement_commutes=True,
    )
    return 0, payload


def _cmd_lift(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    qca = lift_to_qca(spec)
    inverse = qca_inverse(qca)
    payload = _payload(
        "lift",
        matrix=_matrix_strings(qca.matrix),
        inverse_matrix=_matrix_strings(inverse.matrix),
        symplectic=True,
        spread=qca.spread,
        variables=spec.dims + 1,
    )
    return 0, payload


def _cmd_oracle(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    lattice = _lattice_for(args, spec)
    span = row_basis(instantiate_spec(spec, lattice), lattice.p)
    report, center = _invertibility_and_center(span, lattice, spec.spread)
    reach = args.window if args.window is not None else max(2 * spec.spread, 2)
    vs = _vs_of_span(span, lattice, reach)
    payload = _payload(
        "oracle",
        invertible=report.invertible,
        dim_span=report.dim_span,
        dim_commutant=report.dim_commutant,
        dim_center=report.dim_center,
        small_lattice_warning=report.small_lattice_warning,
        vs_holds=vs.holds,
        vs_reach=reach,
        vs_failure_site=list(vs.failure_site) if vs.failure_site else None,
        sizes=list(lattice.sizes),
        periodic=lattice.periodic,
        spread=spec.spread,
        lattice_over_spread=_ratio(lattice, spec.spread),
    )
    if not lattice.periodic:
        payload["center_boundary_distance"] = _boundary_distance(center,
                                                                 lattice)
    failed = not report.invertible or (args.window is not None and not vs.holds)
    return (1 if failed else 0), payload


def _cmd_boundary(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    lattice = _lattice_for(args, spec, extra_axis=True)
    qca = lift_to_qca(spec)
    fin = instantiate_qca(qca, lattice)
    window = args.window if args.window is not None else 1
    report = boundary_algebra_finite(fin, axis=args.axis, cut=args.cut,
                                     window=window)
    payload = _payload(
        "boundary",
        dim_image=report.dim_image,
        dim_boundary=report.dim_boundary,
        dim_off_slab=report.dim_off_slab,
        factorization_holds=report.factorization_holds,
        axis=args.axis,
        cut=args.cut,
        window=window,
        sizes=list(lattice.sizes),
        spread=qca.spread,
        lattice_over_spread=_ratio(lattice, qca.spread),
    )
    ok = report.factorization_holds
    if args.axis == spec.dims and window == 1:
        per_sheet = spec_span_on_sheet(spec, lattice, args.cut + 1)
        equals = row_space_equal(report.basis, per_sheet, spec.p)
        payload["equals_spec_span"] = equals
        ok = ok and equals
    return (0 if ok else 1), payload


def _cmd_blend_verify(args) -> tuple[int, dict]:
    spec = resolve_spec(args.spec)
    spec_b = resolve_spec(args.spec_b) if args.spec_b else spec
    blend = resolve_spec(args.blend) if args.blend else spec
    lattice = _lattice_for(args, spec, extra_axis=True)
    # One lift and one instantiation per distinct spec, in argument order.
    maps = dict.fromkeys((spec, spec_b, blend))
    for key in maps:
        maps[key] = instantiate_qca(lift_to_qca(key), lattice)
    alpha, beta, gamma = maps[spec], maps[spec_b], maps[blend]
    margin = args.window if args.window is not None else 1
    report = verify_blend(gamma, alpha, beta, axis=args.axis,
                          interface=args.cut, margin=margin)
    payload = _payload(
        "blend-verify",
        agrees=report.agrees,
        first_mismatch=report.first_mismatch,
        axis=args.axis,
        interface=args.cut,
        margin=margin,
        sizes=list(lattice.sizes),
        spread=alpha.spread,
        lattice_over_spread=_ratio(lattice, alpha.spread),
    )
    return (0 if report.agrees else 1), payload


def _cmd_dist(args) -> tuple[int, dict]:
    x = _parse_vector(args.x)
    z = _parse_vector(args.z)
    if len(x) != len(z):
        raise SpecFormatError("--x and --z must have the same length")
    p = check_prime(args.prime)
    conj = PauliConjugation(PhasedPauli(p, 0, x, z))
    ident = PauliConjugation(PhasedPauli.identity(p, len(x)))
    result = dist_bounded(conj, ident, p, len(x),
                          max_support=args.max_support)
    payload = _payload(
        "dist",
        distance=result.value,
        distance_numeric=result.numeric,
        witness={"x": result.witness.a.tolist(),
                 "z": result.witness.b.tolist()},
        max_support=args.max_support,
        qudits=len(x),
        prime=p,
    )
    return 0, payload


def _spin_inputs(token: str):
    if token in example_names():
        entry = get_example(token)
        if entry.term_symbols is None:
            raise SpecFormatError(
                f"builtin {token!r} has no commuting Hamiltonian attached"
            )
        return entry.spec, entry.term_symbols, entry.hopping_generators
    spec = resolve_spec(token)
    if spec.dims != 2 or spec.n_generators != 2:
        raise SpecFormatError(
            "spin runs on two-dimensional specs with exactly two generators "
            "(zoo.plaquette_term builds the Hamiltonian term from two)"
        )
    return spec, (plaquette_term(spec.generators),), spec.generators


def _cmd_spin(args) -> tuple[int, dict]:
    spec, term_symbols, hop_gens = _spin_inputs(args.spec)
    lattice = _lattice_for(args, spec)
    if args.window is not None:
        # The junction's legs are sized from the terms' spread; spin has
        # no window to set.
        raise ValueError("spin takes no --window")
    h = build_hamiltonian(lattice, term_symbols)
    base = topological_spin(h, hop_gens, charge=args.charge)
    min_leg = base.leg_length
    checks = []
    variants = [
        ("legs one step shorter",
         dict(leg_length=max(8 * max(h.spread, 1), min_leg - 1))),
        ("junction translated", dict(junction=(3, 2))),
        ("legs relabeled cyclically",
         dict(leg_directions=tuple(base.leg_directions[1:])
              + (base.leg_directions[0],))),
    ]
    for label, kw in variants:
        try:
            other = topological_spin(h, hop_gens, charge=args.charge, **kw)
        except SpinGeometryError:
            continue
        checks.append({
            "geometry": label,
            "theta_exponent": other.exponent,
            "agrees": other.exponent == base.exponent,
        })
    payload = _payload(
        "spin",
        anyon=args.charge,
        theta_exponent=base.exponent,
        p=base.p,
        legs=[list(d) for d in base.leg_directions],
        leg_length=base.leg_length,
        junction=list(base.junction),
        invariance_checks=checks,
        spread=h.spread,
        lattice_over_spread=_ratio(lattice, h.spread),
    )
    ok = all(c["agrees"] for c in checks)
    return (0 if ok else 1), payload


def _cmd_gauss(args) -> tuple[int, dict]:
    if args.spec is not None and (args.spins is not None
                                  or args.prime is not None):
        raise SpecFormatError("pass --spins with --prime, or a builtin "
                              "--spec, not both")
    if args.spins is not None:
        if args.prime is None:
            raise SpecFormatError("--spins needs --prime")
        p, spins = check_prime(args.prime), _parse_vector(args.spins)
    elif args.spec is not None and args.spec in example_names():
        entry = get_example(args.spec)
        if entry.anyon_spin_exponents is None:
            raise SpecFormatError(
                f"builtin {args.spec!r} has no anyon spin collection"
            )
        p, spins = entry.spec.p, list(entry.anyon_spin_exponents)
    else:
        raise SpecFormatError("pass --spins with --prime, or a builtin --spec")
    try:
        report = gauss_sum_phase(p, spins)
    except NotModularError as exc:
        payload = _payload("gauss", modular=False, reason=str(exc),
                           n_anyons=len(spins), prime=p)
        return 1, payload
    payload = _payload(
        "gauss",
        modular=True,
        eighth_root_exponent=report.eighth_root_exponent,
        phase=report.phase,
        n_anyons=len(spins),
        prime=p,
    )
    return 0, payload


_HANDLERS = {
    "check": _cmd_check,
    "commutant": _cmd_commutant,
    "project": _cmd_project,
    "lift": _cmd_lift,
    "oracle": _cmd_oracle,
    "boundary": _cmd_boundary,
    "blend-verify": _cmd_blend_verify,
    "dist": _cmd_dist,
    "spin": _cmd_spin,
    "gauss": _cmd_gauss,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invsub",
        description="Exact certificates for translation-invariant Pauli "
                    "subalgebras and their lifted automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, spec=True, lattice=False, cutset=False):
        p = sub.add_parser(name, help=help_text)
        if spec:
            p.add_argument("--spec", required=(name != "gauss"),
                           default=None,
                           help="builtin name or path to a spec document")
        if lattice:
            p.add_argument("--torus", default=None,
                           help="periodic sizes, e.g. 7x7 or 7x7x7")
            p.add_argument("--patch", default=None,
                           help="open-boundary sizes, e.g. 6x6")
            p.add_argument("--window", type=int, default=None,
                           help="slab width / verification margin / "
                                "witness reach, by command")
        if cutset:
            p.add_argument("--axis", type=int, default=0,
                           help="lattice axis the cut is normal to")
            # blend-verify refuses interface 0, so it has no default.
            p.add_argument("--cut", type=int, default=0,
                           required=(name == "blend-verify"),
                           help="layer index of the cut")
        p.add_argument("--out", default=None,
                       help="also write the certificate to this path")
        return p

    add("check", "symbolic invertibility certificate")
    add("commutant", "generators of the commutant subalgebra")
    add("project", "local projector onto the subalgebra's symbol span")
    add("lift", "one-higher-dimensional automaton whose boundary action "
                "is the given model")
    add("oracle", "finite-lattice ground truth for invertibility and "
                  "visible simplicity", lattice=True)
    add("boundary", "boundary algebra of the lifted automaton on a finite "
                    "torus", lattice=True, cutset=True)
    blend = add("blend-verify", "check a supplied map agrees with two "
                "automata on opposite sides of an interface",
                lattice=True, cutset=True)
    blend.add_argument("--spec-b", default=None,
                       help="far-side model (defaults to --spec)")
    blend.add_argument("--blend", default=None,
                       help="model whose lift is verified as the blend "
                            "(defaults to --spec)")
    dist = add("dist", "support-normalized distance from a Pauli "
               "conjugation to the identity", spec=False)
    dist.add_argument("--prime", type=int, required=True)
    dist.add_argument("--x", required=True,
                      help="comma-separated X exponents of the conjugator")
    dist.add_argument("--z", required=True,
                      help="comma-separated Z exponents of the conjugator")
    dist.add_argument("--max-support", type=int, default=2)
    spin = add("spin", "exchange phase of an anyon from a three-leg "
               "junction process", lattice=True)
    spin.add_argument("--charge", type=int, default=1)
    gauss = add("gauss", "normalized Gauss-sum phase of a spin collection")
    gauss.add_argument("--spins", default=None,
                       help="comma-separated spin exponents")
    gauss.add_argument("--prime", type=int, default=None)
    return parser


def _error_payload(command: str, exc: Exception) -> dict:
    return _payload(command, error=str(exc), error_kind=type(exc).__name__)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        code, payload = handler(args)
    except Exception as exc:
        # The package raises a ValueError subclass for every usage or
        # infeasibility problem; any other exception is an internal error.
        if isinstance(exc, NotInvertibleError):
            code = 1
        elif isinstance(exc, ValueError):
            code = 2
        else:
            import traceback

            code = 3
            traceback.print_exc()
        payload = _error_payload(args.command, exc)
    text = _dump(payload)
    if args.out:
        # A path that cannot be written is a usage problem, not a verdict.
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            code, text = 2, _dump(_error_payload(args.command, exc))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
