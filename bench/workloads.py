"""Seeded inputs and known answers for the four benchmark workloads.

Every workload is a list of invocations. An invocation is one `invsub`
subcommand with its arguments; the same arguments drive the CLI pass
(as a subprocess) and the library pass (see `worker.py`). Spec files
are generated here from the seed, before any timer starts, and the
program sees only those files and the command-line arguments.

Expected answers come from the mathematics of each input, not from the
program's output:

- the builtin example-z3, full and empty are invertible with unit
  ideal; nonexample-1dxz fails with ideal (x^-1 + x); toric-code-z3 is
  abelian and nonzero, so it is NOT invertible;
- unimodular re-presentations, redundant presentations and
  `random_remark_spec` outputs are invertible by construction;
- on a torus larger than 4 * spread an invertible spec has trivial
  center and visible simplicity; on an open patch the center hugs the
  boundary (distance <= 2 * spread);
- the lift's boundary algebra equals the spec's span sheet by sheet,
  and the lift blends with itself;
- the elementary defect of example-z3 has spin exponent 1 at both
  charges, the toric-code charge is a boson, the Gauss sums of the
  example-z3 and toric-code collections are i and 1, and of (0, 1, 1)
  over F_3 is i;
- a Pauli conjugation that is not the identity sits at distance 2 over
  qubits and 2 sin(pi (p - 1) / 2p) over odd p.

Seeds move only what leaves the amount of work about the same (the
monomials of a re-presentation, the order of a spin list, the
conjugator of `dist`), or draw from a family pinned to
one size (random remark specs in `certify` are redrawn until their
spread is exactly 2), so that run-to-run spread measures the program
and not the draw. Inputs whose cost swings with any such choice are
not seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "oracle", "boundary", "anyon")

# The reference kernels (reference.py) each workload's passes are
# scaled by: those whose speed moves like the workload's. certify spends
# its time in pure Python (Laurent and Groebner arithmetic, interpreter
# start-up); oracle and boundary in numpy eliminations mod p and BLAS
# products. anyon mixes sympy with F_p solves and sits between the two:
# over ten seeds the spread of its library pass was 9 % scaled by
# "numpy" alone, 6 % by both (the geometric mean of their factors).
REFERENCE_KERNEL = {"certify": ("python",), "oracle": ("numpy",),
                    "boundary": ("numpy",), "anyon": ("python", "numpy")}


@dataclass
class Invocation:
    label: str          # unique within a workload; also the digest key
    cmd: str            # invsub subcommand
    args: dict          # flag name (without --) -> value
    expect: dict        # field -> wanted value, ("<=", bound) or ("~", x)
    size: dict          # p, q, generators, spread, lattice, n
    digest: bool = True  # certificate bytes pinned in digests.json

    def argv(self) -> list[str]:
        out = [self.cmd]
        for key, value in self.args.items():
            out += [f"--{key.replace('_', '-')}", str(value)]
        return out


@dataclass
class Plan:
    invocations: list[Invocation] = field(default_factory=list)


def spread_repeats(rest: list, heavy: list, repeats: int) -> list:
    """`rest` with each of `heavy` run `repeats` times, spread evenly
    through it. A pass's time is mostly its few heavy invocations, and
    the machine's speed drifts from second to second; run at several
    moments, their time is not read off the machine at one moment only.
    Repeats carry a ":repeat<r>" suffix on their label."""
    slots = [(r, item) for r in range(repeats) for item in heavy]
    out = []
    for j, (r, item) in enumerate(slots):
        out += rest[len(rest) * j // len(slots):
                    len(rest) * (j + 1) // len(slots)]
        out.append(item if not r else
                   replace(item, label=f"{item.label}:repeat{r}"))
    return out


def unmet(expect: dict, out: dict) -> list[str]:
    """Known answers the output misses, as readable strings."""
    bad = []
    for key, want in expect.items():
        got = out.get(key)
        if isinstance(want, tuple) and want[0] == "<=":
            ok = isinstance(got, int) and got <= want[1]
        elif isinstance(want, tuple) and want[0] == "~":
            ok = isinstance(got, float) and abs(got - want[1]) < 1e-12
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}={got!r}, wanted {want!r}")
    return bad


# -- spec construction ----------------------------------------------------


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _z3_tensor(inv, k: int):
    from invsub.pauli import brauer_tensor

    base = inv.get_example("example-z3").spec
    spec = base
    for _ in range(k - 1):
        spec = brauer_tensor(spec, base)
    return spec


def _with_columns(inv, spec, cols):
    g = spec.generators
    return inv.SubalgebraSpec(spec.p, spec.q, spec.dims,
                              g.submatrix(range(g.rows), cols))


def represented_z3(inv, k: int, rng):
    """example-z3 tensored k times, multiplied on the right by a
    unimodular matrix: inside each factor the second column gains a
    monomial multiple of the first, and the first column of each factor
    gains a constant multiple of the previous factor's first column.
    The X block stops being the identity, so the commutant must go
    through the projector."""
    spec = _z3_tensor(inv, k)
    p, dims, n = spec.p, spec.dims, spec.n_generators
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    e = inv.LaurentMatrix.identity(p, dims, n)
    rows = [list(r) for r in e.entries]
    for f in range(k):
        step = steps[int(rng.integers(len(steps)))]
        rows[2 * f][2 * f + 1] = inv.LaurentPoly.monomial(
            int(rng.integers(1, p)), step, p, dims)
        if f:
            rows[2 * f - 2][2 * f] = inv.LaurentPoly.constant(
                int(rng.integers(1, p)), p, dims)
    e = inv.LaurentMatrix(p, dims, rows)
    return inv.SubalgebraSpec(p, spec.q, dims, spec.generators @ e)


def redundant_z3(inv, k: int, extra: int):
    """example-z3 tensored k times with its first `extra` generator
    columns repeated. Not seeded: which columns repeat, and any unit
    they are scaled by, changes the zero pattern and the distinct minors
    and with them the cost by up to 2x."""
    spec = _z3_tensor(inv, k)
    return _with_columns(inv, spec, list(range(spec.n_generators))
                         + list(range(extra)))


def remark_spec(inv, p: int, rng_of_attempt):
    """`random_remark_spec` redrawn until its spread is exactly 2."""
    for attempt in range(1000):
        spec = inv.random_remark_spec(p, rng_of_attempt(attempt))
        if spec.spread == 2:
            return spec
    raise RuntimeError("no spread-2 remark spec in 1000 draws")


def _spec_size(spec, sizes=None) -> dict:
    out = {"p": spec.p, "q": spec.q, "generators": spec.n_generators,
           "spread": spec.spread}
    if sizes is not None:
        out["lattice"] = "x".join(str(s) for s in sizes)
        out["n"] = 2 * spec.q * math.prod(sizes)
    return out


# -- workloads ------------------------------------------------------------


def build_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate the workload's inputs into workdir and list its
    invocations. Imports the package, so call it with src on sys.path."""
    import invsub as inv

    plan = Plan()
    add = plan.invocations.append

    def write(name: str, spec) -> str:
        path = workdir / f"{name}.json"
        path.write_text(inv.spec_to_json(spec), encoding="utf-8")
        return str(path)

    builtin = {name: inv.get_example(name).spec for name in inv.example_names()}
    unit = {"exit": 0, "invertible": True, "ideal_unit": True}

    if workload == "certify":
        for name, ideal, ok in (("example-z3", ["1"], True),
                                ("toric-code-z3", None, False),
                                ("full", ["1"], True),
                                ("empty", ["1"], True),
                                ("nonexample-1dxz", ["x^-1 + x"], False)):
            expect = {"exit": 0 if ok else 1, "invertible": ok}
            if ideal is not None:
                expect["ideal"] = ideal
            # toric-code-z3 has no pinned digest: the certificate the
            # program prints for it today is wrong.
            add(Invocation(f"check:{name}", "check", {"spec": name}, expect,
                           _spec_size(builtin[name]),
                           digest=name != "toric-code-z3"))
        z3 = builtin["example-z3"]
        for cmd in ("commutant", "project", "lift"):
            add(Invocation(f"{cmd}:example-z3", cmd, {"spec": "example-z3"},
                           {"exit": 0}, _spec_size(z3)))
        for k in (1, 2, 3):
            spec = represented_z3(inv, k, _rng(seed, 1, k))
            path = write(f"repr-z3x{k}", spec)
            add(Invocation(f"check:repr-z3x{k}", "check", {"spec": path},
                           dict(unit), _spec_size(spec), digest=False))
            for cmd in ("commutant", "lift"):
                add(Invocation(f"{cmd}:repr-z3x{k}", cmd, {"spec": path},
                               {"exit": 0}, _spec_size(spec), digest=False))
        for p in (3, 5, 7):
            spec = remark_spec(inv, p, lambda a, p=p: _rng(seed, 2, p, a))
            path = write(f"remark-p{p}", spec)
            add(Invocation(f"check:remark-p{p}", "check", {"spec": path},
                           dict(unit), _spec_size(spec), digest=False))
            add(Invocation(f"lift:remark-p{p}", "lift", {"spec": path},
                           {"exit": 0}, _spec_size(spec), digest=False))
        heavy = []
        for k, extra in ((2, 4), (3, 3)):
            spec = redundant_z3(inv, k, extra)
            name = f"redundant-q{2 * k}-g{spec.n_generators}"
            path = write(name, spec)
            heavy.append(Invocation(f"check:{name}", "check", {"spec": path},
                                    dict(unit), _spec_size(spec)))
        plan.invocations = spread_repeats(plan.invocations, heavy, 3)

    elif workload == "oracle":
        z3 = builtin["example-z3"]
        torus = {"exit": 0, "invertible": True, "dim_center": 0,
                 "vs_holds": True, "small_lattice_warning": False}
        add(Invocation("oracle:example-z3:torus7x7", "oracle",
                       {"spec": "example-z3", "torus": "7x7"}, dict(torus),
                       _spec_size(z3, (7, 7))))
        # Not seeded: the elimination cost follows the density of the
        # drawn spec and moved by about 10 % from one draw to the next.
        spec = remark_spec(inv, 5, lambda a: _rng(0, 4, a))
        path = write("remark-p5", spec)
        add(Invocation("oracle:remark-p5:torus9x9", "oracle",
                       {"spec": path, "torus": "9x9"}, dict(torus),
                       _spec_size(spec, (9, 9))))
        for side in (12, 16):
            add(Invocation(f"oracle:example-z3:patch{side}x{side}", "oracle",
                           {"spec": "example-z3", "patch": f"{side}x{side}"},
                           {"exit": 0,
                            "center_boundary_distance": ("<=", 2 * z3.spread)},
                           _spec_size(z3, (side, side))))

    elif workload == "boundary":
        z3 = builtin["example-z3"]
        # Not seeded: the cut sets the order in which the band's
        # coordinates reach the elimination, and a cut whose band does
        # not wrap round the torus ran about 20 % slower.
        cut = 3
        lifted = inv.promote_spec(z3)
        for cmd, side, want in (("boundary", 7, {"factorization_holds": True,
                                                 "equals_spec_span": True}),
                                ("blend-verify", 7, {"agrees": True}),
                                ("boundary", 8, {"factorization_holds": True,
                                                 "equals_spec_span": True})):
            sizes = (side,) * 3
            add(Invocation(f"{cmd}:example-z3:torus{side}^3:cut{cut}", cmd,
                           {"spec": "example-z3",
                            "torus": "x".join([str(side)] * 3),
                            "axis": 2, "cut": cut},
                           {"exit": 0, **want},
                           _spec_size(lifted, sizes)))

    elif workload == "anyon":
        for name, side, charge, theta in (("example-z3", 21, 1, 1),
                                          ("example-z3", 21, 2, 1),
                                          ("toric-code-z3", 17, 1, 0)):
            add(Invocation(f"spin:{name}:torus{side}x{side}:charge{charge}",
                           "spin", {"spec": name, "torus": f"{side}x{side}",
                                    "charge": charge},
                           {"exit": 0, "theta_exponent": theta},
                           _spec_size(builtin[name], (side, side))))
        for name, k in (("example-z3", 2), ("toric-code-z3", 0)):
            add(Invocation(f"gauss:{name}", "gauss", {"spec": name},
                           {"exit": 0, "eighth_root_exponent": k},
                           {"p": 3, "anyons": 3 if k else 9}))
        spins = [int(s) for s in _rng(seed, 6).permutation([0, 1, 1])]
        text = ",".join(str(s) for s in spins)
        add(Invocation(f"gauss:spins{''.join(map(str, spins))}", "gauss",
                       {"spins": text, "prime": 3},
                       {"exit": 0, "eighth_root_exponent": 2},
                       {"p": 3, "anyons": 3}))
        for p, m, support in ((2, 6, 1), (3, 8, 2), (5, 6, 2)):
            # Non-trivial on every site, so every candidate's phase is
            # spread the same way whatever the draw; with idle sites the
            # scan skips more sympy work and the cost moved by 1.5x.
            rng = _rng(seed, 7, p)
            pairs = [(a, b) for a in range(p) for b in range(p) if a or b]
            x, z = zip(*(pairs[int(i)]
                         for i in rng.integers(len(pairs), size=m)))
            want = 2.0 if p == 2 else 2 * math.sin(math.pi * (p - 1) / (2 * p))
            add(Invocation(f"dist:p{p}:m{m}:support{support}", "dist",
                           {"prime": p, "x": ",".join(map(str, x)),
                            "z": ",".join(map(str, z)),
                            "max_support": support},
                           {"exit": 0, "distance_numeric": ("~", want)},
                           {"p": p, "qudits": m, "max_support": support},
                           digest=False))
        plan.invocations = spread_repeats(plan.invocations[:-1],
                                          plan.invocations[-1:], 2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
