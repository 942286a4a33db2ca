"""JSON interchange for subalgebra specs.

The on-disk shape is a single object: prime, qudits per site, spatial
dimensions, and a list of generators, each giving its X and Z parts as
lists of polynomial strings (one per qudit slot).  Printing is
canonical — sorted keys, sorted terms, reduced coefficients — so a
parse/print cycle is byte-stable, and every parse failure points at the
generator and slot that caused it.
"""

from __future__ import annotations

import json

from .laurent import (
    LaurentMatrix,
    PolyParseError,
    _is_prime,
    format_poly,
    parse_poly,
)
from .pauli import SubalgebraSpec


class SpecFormatError(ValueError):
    """Malformed spec document, with a pointer to the offending part."""


# The largest prime below 2^16.  With p < 2^16, k*(p-1)^2 < 2^53 for any
# inner dimension k < 2^21, so fplinalg.matmul_mod stays on its float-BLAS
# path, and the int64 products of fplinalg.rref stay far from overflow.
# It also bounds the trial division that tests primality, and the
# length-p cyclotomic vectors of anyon_lab.gauss_sum_phase.
MAX_PRIME = 65521

# The largest absolute exponent a spec polynomial may carry.  The
# symbolic certificate's cost grows steeply with the spread: checking
# a one-qubit chain with z = x^k + x takes seconds at k = 32 and runs
# past 20 s at k = 64.  Builtin, test and benchmark specs have spread
# at most 2.
MAX_SPREAD = 32

# The most qudits per site and generators a spec may list.  The symbolic
# commands work on 2q x 2q symplectic forms and n x n commutation
# matrices, so their cost grows steeply with both (end to end, one Xeon
# core): `lift` on a spec with no generators took 0.4 s at q = 32, 2.4 s
# at q = 64 and 15 s at q = 128; `check` on q = 1 with n copies of one
# generator took 1.2 s at n = 64 and 4.3 s at n = 128.  Builtin, test and
# benchmark specs have q <= 16 and at most 18 generators.
MAX_QUDITS = 64
MAX_GENERATORS = 64

# The most spatial dimensions a spec may have; a monomial's key has one
# 32-bit slot per dimension.  `check` on q = 1 with the one generator
# X(x1 + ... + xd) Z(x1^-1 + ... + xd^-1) took 0.6 s at d = 16, 3.3 s at
# d = 24 and 14 s at d = 32 (end to end, one Xeon core) in Buchberger,
# which its principal profile ideal now skips (0.13 s at d = 16).  But
# Buchberger on the two generators x1 + ... + xd and x1^-1 + ... + xd^-1
# over F_3 still takes 0.98 s at d = 12 and 95 s at d = 16 (library,
# 2-core x86-64 VM).  Builtin, test and benchmark specs have dims <= 3,
# a lift included.
MAX_DIMS = 16


def check_prime(p: int) -> int:
    """p itself if it is a prime of at most MAX_PRIME, else SpecFormatError."""
    if p > MAX_PRIME:
        raise SpecFormatError(
            f"modulus {p} exceeds the supported bound {MAX_PRIME}"
        )
    if not _is_prime(p):
        raise SpecFormatError(f"modulus {p} is not prime")
    return p


_REQUIRED = ("prime", "qudits_per_site", "dims", "generators")


def _require_int(data: dict, key: str, minimum: int) -> int:
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise SpecFormatError(
            f"{key!r} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def parse_spec(text: str) -> SubalgebraSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecFormatError("top level must be an object")
    missing = [k for k in _REQUIRED if k not in data]
    if missing:
        raise SpecFormatError(f"missing keys: {', '.join(missing)}")
    unknown = [k for k in data if k not in _REQUIRED]
    if unknown:
        raise SpecFormatError(f"unknown keys: {', '.join(sorted(unknown))}")

    p = check_prime(_require_int(data, "prime", 2))
    q = _require_int(data, "qudits_per_site", 1)
    if q > MAX_QUDITS:
        raise SpecFormatError(
            f"{q} qudits per site exceed the supported bound {MAX_QUDITS}"
        )
    dims = _require_int(data, "dims", 1)
    if dims > MAX_DIMS:
        raise SpecFormatError(
            f"{dims} dims exceed the supported bound {MAX_DIMS}"
        )

    gens = data["generators"]
    if not isinstance(gens, list):
        raise SpecFormatError("'generators' must be a list")
    if len(gens) > MAX_GENERATORS:
        raise SpecFormatError(
            f"{len(gens)} generators exceed the supported bound {MAX_GENERATORS}"
        )
    columns: list[list] = []
    for gi, gen in enumerate(gens):
        where = f"generator {gi}"
        if not isinstance(gen, dict) or set(gen) != {"x", "z"}:
            raise SpecFormatError(
                f"{where}: expected an object with exactly 'x' and 'z'"
            )
        halves = []
        for half in ("x", "z"):
            part = gen[half]
            if not isinstance(part, list) or len(part) != q:
                raise SpecFormatError(
                    f"{where}: {half!r} must list {q} polynomial strings"
                )
            for si, s in enumerate(part):
                if not isinstance(s, str):
                    raise SpecFormatError(
                        f"{where}, {half}[{si}]: expected a string"
                    )
                try:
                    poly = parse_poly(s, p, dims)
                except PolyParseError as exc:
                    raise SpecFormatError(
                        f"{where}, {half}[{si}]: {exc}"
                    ) from None
                if poly.spread() > MAX_SPREAD:
                    raise SpecFormatError(
                        f"{where}, {half}[{si}]: spread {poly.spread()} "
                        f"exceeds the supported bound {MAX_SPREAD}"
                    )
                halves.append(poly)
        columns.append(halves)

    entries = [[col[r] for col in columns] for r in range(2 * q)]
    m = LaurentMatrix._trusted(p, dims, 2 * q, len(columns), entries)
    return SubalgebraSpec(p=p, q=q, dims=dims, generators=m)


def spec_to_json(spec: SubalgebraSpec) -> str:
    gens = []
    for j in range(spec.n_generators):
        col = spec.generators.column(j)
        gens.append({
            "x": [format_poly(e) for e in col[: spec.q]],
            "z": [format_poly(e) for e in col[spec.q:]],
        })
    data = {
        "prime": spec.p,
        "qudits_per_site": spec.q,
        "dims": spec.dims,
        "generators": gens,
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def resolve_spec(token: str) -> SubalgebraSpec:
    """A builtin model name, or a path to a spec document."""
    from .zoo import example_names, get_example

    if token in example_names():
        return get_example(token).spec
    try:
        with open(token, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFormatError(
            f"{token!r} is neither a builtin name nor a readable file: {exc}"
        ) from None
    return parse_spec(text)
