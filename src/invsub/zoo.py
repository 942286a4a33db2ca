"""Built-in model registry.

The worked examples live here as code rather than data files so the
exact matrices are pinned: the invertible two-qutrit model in two
dimensions, the XZ-chain negative control, the full and empty
degenerate cases, and the qutrit surface-code stabilizer model used as
a braiding reference.  A deterministic generator for random invertible
specs in graph form rounds out the property-test diet.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentMatrix, LaurentPoly, _poly_reader
from .pauli import SubalgebraSpec, from_antihermitian


def _mat(p: int, nvars: int, rows) -> LaurentMatrix:
    read = _poly_reader(p, nvars)
    return LaurentMatrix(p, nvars, [[read(s) for s in row] for row in rows])


class ZooEntry(NamedTuple):
    """A named model: its spec, and where applicable the commuting
    Hamiltonian term symbols, string-operator generators, and the spin
    exponents of its anyon collection."""

    name: str
    description: str
    spec: SubalgebraSpec
    term_symbols: tuple[LaurentMatrix, ...] | None = None
    hopping_generators: LaurentMatrix | None = None
    anyon_spin_exponents: tuple[int, ...] | None = None


def plaquette_term(generators: LaurentMatrix) -> LaurentMatrix:
    """The Hamiltonian term symbol V @ (1 - y; 1 - x^-1) of a
    two-generator model in two dimensions: the first generator's
    y-difference plus the second's x-difference.  Whether its
    translates commute is checked where the Hamiltonian is built."""
    return generators @ _mat(generators.p, 2, [["1 - y"], ["1 - x^-1"]])


_XI_ROWS = [
    ["x^-1 - x", "x + x*y - y + 1"],
    ["-x^-1 + y^-1 - x^-1*y^-1 - 1", "y - y^-1"],
]


def _example_z3() -> ZooEntry:
    xi = _mat(3, 2, _XI_ROWS)
    v = LaurentMatrix.identity(3, 2, 2).vstack(xi.scale(2))
    spec = SubalgebraSpec(p=3, q=2, dims=2, generators=v)
    return ZooEntry(
        name="example-z3",
        description="invertible two-qutrit subalgebra in two dimensions "
                    "with chiral anyon content",
        spec=spec,
        term_symbols=(plaquette_term(v),),
        hopping_generators=v,
        anyon_spin_exponents=(0, 1, 1),
    )


def _nonexample_1dxz() -> ZooEntry:
    spec = SubalgebraSpec(p=2, q=1, dims=1,
                          generators=_mat(2, 1, [["1"], ["x"]]))
    return ZooEntry(
        name="nonexample-1dxz",
        description="qubit chain generated by X at each site times Z on "
                    "its right neighbor; fails the invertibility criterion",
        spec=spec,
    )


def _full() -> ZooEntry:
    spec = SubalgebraSpec(p=3, q=1, dims=2,
                          generators=LaurentMatrix.identity(3, 2, 2))
    return ZooEntry(
        name="full",
        description="everything: the full single-qutrit algebra in two "
                    "dimensions",
        spec=spec,
    )


def _empty() -> ZooEntry:
    spec = SubalgebraSpec(p=3, q=1, dims=2,
                          generators=LaurentMatrix.zeros(3, 2, 2, 0))
    return ZooEntry(
        name="empty",
        description="scalars only: the empty subalgebra of a qutrit in "
                    "two dimensions",
        spec=spec,
    )


def _toric_code_z3() -> ZooEntry:
    v = _mat(3, 2, [
        ["1 - y", "0"],
        ["1 - x^-1", "0"],
        ["0", "x - 1"],
        ["0", "1 - y^-1"],
    ])
    spec = SubalgebraSpec(p=3, q=2, dims=2, generators=v)
    vertex = v.submatrix(range(4), [0])
    plaquette = v.submatrix(range(4), [1])
    z_strings = _mat(3, 2, [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]])
    spins = tuple((a * b) % 3 for a in range(3) for b in range(3))
    return ZooEntry(
        name="toric-code-z3",
        description="qutrit surface-code stabilizer model: vertex and "
                    "plaquette term per site, nine abelian anyons",
        spec=spec,
        term_symbols=(vertex, plaquette),
        hopping_generators=z_strings,
        anyon_spin_exponents=spins,
    )


_BUILDERS = {
    "example-z3": _example_z3,
    "nonexample-1dxz": _nonexample_1dxz,
    "full": _full,
    "empty": _empty,
    "toric-code-z3": _toric_code_z3,
}


def example_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_example(name: str) -> ZooEntry:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; available: {', '.join(example_names())}"
        ) from None


def random_remark_spec(p: int, rng, dims: int = 2,
                       congruence_ops: int = 2) -> SubalgebraSpec:
    """A random invertible spec in graph form over F_p.

    Starts from the 2x2 antihermitian matrix with c*x^e off-diagonal
    (its determinant is the unit c^2), then roughs it up with random
    unimodular congruence transformations, which preserve both
    antihermitianity and unit determinant.  Over F_2, where Xi has no
    canonical half, the half M = [[0, c*x^e], [0, 0]] goes through the
    same congruences and is passed along.
    """
    c = int(rng.integers(1, p))
    exps = tuple(int(rng.integers(-2, 3)) for _ in range(dims))
    off = LaurentPoly.monomial(c, exps, p, dims)
    neg_bar = off.bar().scale(-1)
    zero = LaurentPoly.zero(p, dims)
    xi = LaurentMatrix(p, dims, [[zero, off], [neg_bar, zero]])
    half = None
    if p == 2:
        half = LaurentMatrix(p, dims, [[zero, off], [zero, zero]])
    for _ in range(congruence_ops):
        g = LaurentPoly.monomial(
            int(rng.integers(1, p)),
            tuple(int(rng.integers(-1, 2)) for _ in range(dims)),
            p, dims,
        )
        one = LaurentPoly.one(p, dims)
        if rng.integers(2):
            e = LaurentMatrix(p, dims, [[one, g], [zero, one]])
        else:
            e = LaurentMatrix(p, dims, [[one, zero], [g, one]])
        xi = e.bar_transpose() @ xi @ e
        if half is not None:
            half = e.bar_transpose() @ half @ e
    return from_antihermitian(xi, half)
