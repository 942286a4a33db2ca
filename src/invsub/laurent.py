"""Exact Laurent polynomial arithmetic over prime fields.

The coefficient ring is F_p for a small prime p; exponents are integer
vectors of a fixed length (one slot per lattice direction), so an element
represents a finite formal sum of translations.  Everything is exact:
coefficients are residues in [0, p), never floats.  A polynomial keeps
its terms packed: one int key per monomial (groebner.pack, the
exponents in signed 32-bit slots), so multiplying monomials adds keys,
inverting every variable negates them and a translation adds one.  The
terms are added, scaled and multiplied by groebner's add, scale and dot,
the one kernel for F_p arithmetic on packed polynomials.  Exponents are
kept within +-groebner.MAX_EXPONENT: one outside it, entered or reached
by a product, raises ExponentRangeError before any key could wrap.

Exact division works in the Laurent ring itself (groebner.quotient):
from the top of the total order that integer comparison of keys gives,
stopping at the first quotient term outside the box of exponents every
true quotient lies in.  Ranks, determinants, minors, inverses and the
determinantal profile all come from one fraction-free (Bareiss)
elimination with back substitution (_eliminate), which skips every
product with a zero operand; the profile counts the minors it needs
first and refuses more than MAX_MINORS.

Whether an ideal is the whole ring is read off its generators when one
of them is a monomial (a unit) or it has only one; otherwise it is
answered by clearing denominators with a minimal monomial and passing
to an ordinary polynomial ring with one auxiliary variable t subject to
t*x_1*...*x_D = 1, which realizes the localization at the coordinate
monomials.  Groebner bases are computed in grevlex order with t last.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import groebner
from ._frozen import Frozen, Keyed
from .groebner import MAX_EXPONENT, ExponentRangeError, Poly, extents, pack, unpack


class RingMismatchError(ValueError):
    """Operands belong to different coefficient fields or variable counts."""


class NotAUnitError(ValueError):
    """A determinant or divisor that needed to be invertible is not."""


class PolyParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def var_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return list("xyz"[:nvars])
    return [f"x{i + 1}" for i in range(nvars)]


def _range_error(what: str) -> ExponentRangeError:
    return ExponentRangeError(
        f"{what} would leave the supported exponent range +-{MAX_EXPONENT}")


class LaurentPoly(Frozen):
    """Immutable Laurent polynomial with coefficients in F_p.

    packed maps the key of each monomial (groebner.pack) to its residue
    in [1, p); the zero polynomial has no terms.  terms is the same dict
    keyed by exponent tuples.  bound is at least the largest |exponent|:
    exact from the constructor, and the sum of the
    factors' bounds for a product, so a product that could leave the
    exponent range is caught in O(1) and checked exactly before any key
    is added.  Instances with matching (p, nvars) support +, -, *, unary
    -, ** (nonnegative), == and hashing.
    """

    __slots__ = ("p", "nvars", "packed", "bound")

    def __init__(self, p: int, nvars: int, terms: dict[tuple[int, ...], int]):
        if not _is_prime(p):
            raise ValueError(f"coefficient modulus {p} is not prime")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        bound = 0
        for e, c in terms.items():
            if len(e) != nvars:
                raise ValueError(f"exponent {e} has wrong arity for {nvars} variables")
            e = tuple(int(v) for v in e)
            key = pack(e)
            c %= p
            if c:
                clean[key] = c
                bound = max(bound, max(map(abs, e), default=0))
        self._set(p=p, nvars=nvars, packed=clean, bound=bound)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int, nvars: int) -> "LaurentPoly":
        return cls(p, nvars, {})

    @classmethod
    def one(cls, p: int, nvars: int) -> "LaurentPoly":
        return cls.constant(1, p, nvars)

    @classmethod
    def constant(cls, c: int, p: int, nvars: int) -> "LaurentPoly":
        return cls(p, nvars, {(0,) * nvars: c % p})

    @classmethod
    def monomial(cls, coeff: int, exps: tuple[int, ...], p: int, nvars: int) -> "LaurentPoly":
        return cls(p, nvars, {tuple(exps): coeff % p})

    @classmethod
    def variable(cls, i: int, p: int, nvars: int, power: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[i] = power
        return cls(p, nvars, {tuple(e): 1})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuples (decoded on each read)."""
        n = self.nvars
        return {unpack(k, n): c for k, c in self.packed.items()}

    def promote(self) -> "LaurentPoly":
        """The same polynomial in one more variable, appended last and not
        appearing.  Its slot is the top one, so the keys stay as they are."""
        return _trusted(self.p, self.nvars + 1, self.packed, self.bound)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == {0: 1}

    def is_monomial(self) -> bool:
        """Single-term Laurent polynomials are exactly the units of the ring."""
        return len(self.packed) == 1

    def spread(self) -> int:
        """Largest absolute exponent appearing in any direction."""
        n = self.nvars
        return max((abs(e) for k in self.packed for e in unpack(k, n)),
                   default=0)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise RingMismatchError(
                f"F_{self.p} in {self.nvars} vars vs F_{other.p} in {other.nvars} vars"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return _trusted(
            self.p, self.nvars, groebner.add(self.packed, other.packed, self.p),
            max(self.bound, other.bound),
        )

    def __neg__(self) -> "LaurentPoly":
        return self.scale(-1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        p = self.p
        return _trusted(
            p, self.nvars,
            groebner.add(self.packed, groebner.scale(other.packed, -1, p), p),
            max(self.bound, other.bound),
        )

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        if not self.packed or not other.packed:
            return _trusted(self.p, self.nvars, {}, 0)
        return _dot([(self, other)], self.p, self.nvars)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial():
                raise NotAUnitError(f"cannot invert non-monomial {self}")
            return self.inverse() ** (-n)
        if self.bound * n > MAX_EXPONENT and self.spread() * n > MAX_EXPONENT:
            raise _range_error(f"power {n} of {self}")
        out = LaurentPoly.one(self.p, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c: int) -> "LaurentPoly":
        return _trusted(
            self.p, self.nvars, groebner.scale(self.packed, c, self.p), self.bound
        )

    def shift(self, exps: tuple[int, ...]) -> "LaurentPoly":
        """Multiply by the monomial x^exps (a lattice translation)."""
        if len(exps) != self.nvars:
            raise ValueError(f"shift {exps} has wrong arity for {self.nvars} variables")
        exps = tuple(int(v) for v in exps)
        mono = _trusted(self.p, self.nvars, {pack(exps): 1},
                        max(map(abs, exps), default=0))
        return self * mono

    def bar(self) -> "LaurentPoly":
        """The involution inverting every variable, x_i -> x_i^-1."""
        return _trusted(
            self.p, self.nvars, {-k: c for k, c in self.packed.items()}, self.bound
        )

    def inverse(self) -> "LaurentPoly":
        if not self.is_monomial():
            raise NotAUnitError(f"{self} is not a unit")
        ((k, c),) = self.packed.items()
        return _trusted(
            self.p, self.nvars, {-k: pow(c, self.p - 2, self.p)}, self.bound
        )

    # -- comparisons, hashing, repr -----------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.p, self.nvars, frozenset(self.packed.items())))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly(F_{self.p}, {format_poly(self)!r})"


_new = object.__new__
_set_p, _set_nvars, _set_packed, _set_bound = (
    getattr(LaurentPoly, name).__set__ for name in LaurentPoly.__slots__)


def _trusted(p: int, nvars: int, packed: Poly, bound: int) -> LaurentPoly:
    """Wrap terms that are already clean (keys of nvars exponents within
    bound, residues in [1, p)) without re-checking p or the keys, through
    the slots' own setters.  Only for the results of closed ring
    operations on checked operands."""
    f = _new(LaurentPoly)
    _set_p(f, p)
    _set_nvars(f, nvars)
    _set_packed(f, packed)
    _set_bound(f, bound)
    return f


def _product_bound(a: LaurentPoly, b: LaurentPoly) -> int:
    """The largest |exponent| of a * b (a, b nonzero), exactly: over a
    domain, each variable's exponents in a product run from the sum of
    the factors' least to the sum of their greatest.  ExponentRangeError
    when it is past MAX_EXPONENT."""
    (alo, ahi), (blo, bhi) = extents(a.packed, a.nvars), extents(b.packed, b.nvars)
    bound = max((max(-x - y, v + w) for x, y, v, w in zip(alo, blo, ahi, bhi)),
                default=0)
    if bound > MAX_EXPONENT:
        raise _range_error(f"the product of {a} and {b}")
    return bound


def _dot(pairs: list, p: int, nvars: int) -> LaurentPoly:
    """sum a * b over a nonempty list of pairs of nonzero polynomials of
    one ring: one groebner.dot.  The sum of the factors' bounds is checked
    against the range first, and only past it are the factors decoded."""
    bound = max(a.bound + b.bound for a, b in pairs)
    if bound > MAX_EXPONENT:
        bound = max(_product_bound(a, b) for a, b in pairs)
    return _trusted(
        p, nvars,
        groebner.dot([a.packed for a, _ in pairs], [b.packed for _, b in pairs], p),
        bound,
    )


def format_poly(f: LaurentPoly) -> str:
    """Canonical text form; terms in sorted exponent order, coefficients
    in [1, p), joined by ' + '.  Round-trips exactly through parse_poly."""
    if not f.packed:
        return "0"
    names = var_names(f.nvars)
    parts = []
    for e, c in sorted(f.terms.items()):
        factors = []
        if c != 1 or all(v == 0 for v in e):
            factors.append(str(c))
        for name, v in zip(names, e):
            if v == 0:
                continue
            factors.append(name if v == 1 else f"{name}^{v}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, p: int, nvars: int) -> LaurentPoly:
    """Parse sums of terms like '2*x^-1*y^3'.  Accepts x,y,z names for up
    to three variables and x1..xD names always; '+' and '-' separate
    terms.  Raises PolyParseError with a character position on bad input,
    an exponent outside +-groebner.MAX_EXPONENT included."""
    if not _is_prime(p):
        raise ValueError(f"coefficient modulus {p} is not prime")
    if nvars < 0:
        raise ValueError("nvars must be nonnegative")
    names = {n: i for i, n in enumerate(var_names(nvars))}
    for i in range(nvars):
        names[f"x{i + 1}"] = i
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        if pos < n and s[pos] == "-":
            pos += 1
        if pos >= n or not s[pos].isdigit():
            raise PolyParseError("expected integer", pos)
        while pos < n and s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    def read_name() -> str:
        nonlocal pos
        start = pos
        while pos < n and (s[pos].isalnum() or s[pos] == "_"):
            pos += 1
        return s[start:pos]

    terms: dict[tuple[int, ...], int] = {}
    skip_ws()
    if pos >= n:
        raise PolyParseError("empty polynomial", pos)
    sign = 1
    first = True
    while pos < n:
        skip_ws()
        if not first:
            if pos >= n:
                break
            if s[pos] == "+":
                sign = 1
            elif s[pos] == "-":
                sign = -1
            else:
                raise PolyParseError(f"expected '+' or '-', got {s[pos]!r}", pos)
            pos += 1
            skip_ws()
        else:
            if s[pos] == "-":
                sign = -1
                pos += 1
                skip_ws()
            first = False
        # one term: factors joined by '*'
        coeff = 1
        exps = [0] * nvars
        saw_factor = False
        while True:
            skip_ws()
            if pos < n and s[pos].isdigit():
                coeff = (coeff * read_int()) % p
                saw_factor = True
            elif pos < n and s[pos].isalpha():
                at = pos
                name = read_name()
                if name not in names:
                    raise PolyParseError(f"unknown variable {name!r}", at)
                power = 1
                if pos < n and s[pos] == "^":
                    pos += 1
                    power = read_int()
                exps[names[name]] += power
                if abs(exps[names[name]]) > MAX_EXPONENT:
                    raise PolyParseError(
                        f"exponent of {name} outside the supported range "
                        f"+-{MAX_EXPONENT}", at)
                saw_factor = True
            else:
                raise PolyParseError("expected coefficient or variable", pos)
            skip_ws()
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            break
        if not saw_factor:
            raise PolyParseError("empty term", pos)
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + sign * coeff) % p
        skip_ws()
    return LaurentPoly(p, nvars, terms)


# ---------------------------------------------------------------------------
# Ideals and exact division
# ---------------------------------------------------------------------------


def _localized(f: LaurentPoly) -> Poly:
    """f times the least monomial making every exponent nonnegative (each
    variable's lowest exponent becomes exactly zero), read in nvars + 1
    variables with t last: its slot is the top one, so the keys stay.
    ExponentRangeError when the total degree passes MAX_EXPONENT, which
    bounds every exponent Buchberger then makes."""
    if not f.packed:
        return {}
    lo, hi = extents(f.packed, f.nvars)
    if sum(hi) - sum(lo) > MAX_EXPONENT:
        raise _range_error(f"clearing the denominators of {f}")
    shift = -pack(lo)
    return {k + shift: c for k, c in f.packed.items()}


def _t_relation(p: int, nvars: int) -> Poly:
    # t * x_1 * ... * x_D - 1, making every coordinate variable invertible.
    return {pack((1,) * (nvars + 1)): 1, 0: p - 1}


class IdealDescription(Frozen):
    """A finitely generated ideal of the Laurent ring, with a cached
    Groebner basis of its cleared-and-localized polynomial image."""

    __slots__ = ("p", "nvars", "generators", "_gb")

    def __init__(self, p: int, nvars: int, generators: list[LaurentPoly]):
        self._set(p=p, nvars=nvars, generators=generators, _gb=None)

    def groebner_basis(self) -> list[Poly]:
        if self._gb is None:
            gens = [_localized(g) for g in self.generators if not g.is_zero()]
            if gens:
                gens.append(_t_relation(self.p, self.nvars))
                gens = groebner.buchberger(gens, self.p, self.nvars + 1)
            self._set(_gb=gens)
        return self._gb

    def is_zero(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def is_unit(self) -> bool:
        """Whether the ideal is the whole ring.  The units of the ring are
        the monomials, so a monomial generator decides it, and so does a
        single nonzero generator (a principal ideal is the whole ring
        exactly when its generator is a unit); otherwise the Groebner
        basis does."""
        gens = [g for g in self.generators if not g.is_zero()]
        if any(g.is_monomial() for g in gens):
            return True
        if len(gens) < 2:
            return False
        return groebner.contains_unit(self.groebner_basis())

    def generator_strings(self) -> list[str]:
        return [format_poly(g) for g in self.generators]


def divides(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """The quotient g/f when f divides g in the Laurent ring, else None
    (groebner.quotient).  Raises ZeroDivisionError when f is zero."""
    f._check(g)
    q = groebner.quotient(g.packed, f.packed, f.p, f.nvars)
    if q is None:
        return None
    # Each exponent of the quotient is one of g's less one of f's, and
    # quotient refuses one out of range.
    return _trusted(f.p, f.nvars, q, min(g.bound + f.bound, MAX_EXPONENT))


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


class LaurentMatrix(Keyed):
    """Dense matrix over the Laurent ring; rows/cols may be zero."""

    __slots__ = ("p", "nvars", "rows", "cols", "entries")

    def __init__(self, p: int, nvars: int, entries: list[list[LaurentPoly]]):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.p != p or e.nvars != nvars:
                    raise RingMismatchError("entry from a different ring")
        self._set(p=p, nvars=nvars, rows=rows, cols=cols,
                  entries=[list(r) for r in entries])

    @classmethod
    def _trusted(
        cls, p: int, nvars: int, rows: int, cols: int, entries: list[list[LaurentPoly]]
    ) -> "LaurentMatrix":
        """Wrap rows x cols entries from (p, nvars) without re-checking
        them, taking the list as it is.  Only for matrices built from the
        entries of checked matrices; also keeps cols when rows is 0."""
        m = object.__new__(cls)
        for name, value in zip(cls.__slots__, (p, nvars, rows, cols, entries)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def zeros(cls, p: int, nvars: int, rows: int, cols: int) -> "LaurentMatrix":
        z = LaurentPoly.zero(p, nvars)
        return cls._trusted(p, nvars, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, p: int, nvars: int, n: int) -> "LaurentMatrix":
        z = LaurentPoly.zero(p, nvars)
        o = LaurentPoly.one(p, nvars)
        return cls(p, nvars, [[o if i == j else z for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> LaurentPoly:
        return self.entries[ij[0]][ij[1]]

    def column(self, j: int) -> list[LaurentPoly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def _check(self, other: "LaurentMatrix") -> None:
        if self.p != other.p or self.nvars != other.nvars:
            raise RingMismatchError("matrices over different rings")

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return LaurentMatrix(
            self.p,
            self.nvars,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LaurentMatrix":
        return self.map(lambda f: f.scale(c))

    def map(self, fn) -> "LaurentMatrix":
        ent = [[fn(e) for e in row] for row in self.entries]
        return LaurentMatrix._trusted(self.p, self.nvars, self.rows, self.cols, ent)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p, nvars = self.p, self.nvars
        zero = _trusted(p, nvars, {}, 0)
        # Each entry pairs only the nonzero entries of a row and a column.
        rows = [[(k, e) for k, e in enumerate(row) if e.packed]
                for row in self.entries]
        cols = [{k: row[j] for k, row in enumerate(other.entries) if row[j].packed}
                for j in range(other.cols)]
        out = []
        for r in rows:
            line = []
            for c in cols:
                pairs = [(a, c[k]) for k, a in r if k in c]
                line.append(_dot(pairs, p, nvars) if pairs else zero)
            out.append(line)
        return LaurentMatrix._trusted(p, nvars, self.rows, other.cols, out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "LaurentMatrix":
        ent = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return LaurentMatrix._trusted(self.p, self.nvars, self.cols, self.rows, ent)

    def bar(self) -> "LaurentMatrix":
        return self.map(lambda f: f.bar())

    def bar_transpose(self) -> "LaurentMatrix":
        return self.bar().transpose()

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def spread(self) -> int:
        return max((e.spread() for row in self.entries for e in row), default=0)

    def _key(self) -> tuple:
        # The rows fix the shape, except of a matrix with none.
        return self.p, self.nvars, tuple(map(tuple, self.entries)) or self.cols

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_poly(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix(F_{self.p}, [{body}])"

    def hstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        ent = [a + b for a, b in zip(self.entries, other.entries)]
        return LaurentMatrix._trusted(
            self.p, self.nvars, self.rows, self.cols + other.cols, ent
        )

    def vstack(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return LaurentMatrix._trusted(
            self.p, self.nvars, self.rows + other.rows, self.cols,
            self.entries + other.entries,
        )

    def submatrix(self, row_idx, col_idx) -> "LaurentMatrix":
        ent = [[self.entries[i][j] for j in col_idx] for i in row_idx]
        return LaurentMatrix._trusted(self.p, self.nvars, len(ent), len(col_idx), ent)


def _parity(seq) -> int:
    """1 or -1, the sign of the permutation sorting seq (distinct items)."""
    return -1 if sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :]) % 2 else 1


def _eliminate(m: LaurentMatrix) -> tuple:
    """Fraction-free (Bareiss) elimination of m, then fraction-free back
    substitution on the non-pivot columns.  Returns the pivot rows in the
    order taken, the pivot columns c_0 < ... < c_{r-1}, the last pivot
    d' = det m[rows, cols] (1 at rank 0), the parity of rows (so det
    m[sorted(rows), cols] = sign * d') and, per non-pivot column j, the
    list E[j] of E[k][j] = det m[rows, cols with c_k replaced by j]: d'
    times the coordinates of column j in the pivot columns (Cramer).

    After k pivots each entry still to be eliminated is, up to the row
    swaps, the (k+1)-minor on the pivot rows and columns bordered by its
    own row and column (Sylvester's identity), so every division by the
    last pivot is exact, as is U[k][c_k] E[k][j] = d' U[k][j] - sum_{l>k}
    U[k][c_l] E[l][j] for the final pivot rows U; an inexact one raises
    ArithmeticError.  Bareiss, Math. Comp. 22 (1968).  Each update is one
    product kernel call over only the pairs with no zero operand, so zero
    entries (of a block-diagonal matrix, say) cost nothing."""
    p, nvars = m.p, m.nvars
    zero = _trusted(p, nvars, {}, 0)
    a = [list(row) for row in m.entries]
    order = list(range(m.rows))
    prev = _trusted(p, nvars, {0: 1}, 0)
    pivot_cols: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = next((i for i in range(r, m.rows) if a[i][c].packed), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        order[r], order[piv] = order[piv], order[r]
        top = a[r]
        pc = top[c]
        for row in a[r + 1 :]:
            # row[j] <- (pc row[j] - row[c] top[j]) / prev, with the
            # products of zero operands left out; an entry with none left
            # stays zero.
            neg = -row[c] if row[c].packed else None
            for j in range(c + 1, m.cols):
                pairs = [(pc, row[j])] if row[j].packed else []
                if neg is not None and top[j].packed:
                    pairs.append((neg, top[j]))
                if pairs:
                    row[j] = _exact_quotient(_dot(pairs, p, nvars), prev)
        prev = pc
        pivot_cols.append(c)
        r += 1
    coords = {}
    free = sorted(set(range(m.cols)) - set(pivot_cols))
    # The negated entries of the pivot rows in the pivot columns.
    neg_u = [[-a[k][c] for c in pivot_cols] for k in range(r)] if free else []
    for j in free:
        e = coords[j] = [None] * r
        for k in range(r - 1, -1, -1):
            u = a[k]
            pairs = [(prev, u[j])] if u[j].packed else []
            pairs += [(neg_u[k][l], e[l]) for l in range(k + 1, r)
                      if e[l].packed and u[pivot_cols[l]].packed]
            e[k] = (_exact_quotient(_dot(pairs, p, nvars), u[pivot_cols[k]])
                    if pairs else zero)
    return tuple(order[:r]), tuple(pivot_cols), prev, _parity(order[:r]), coords


def _determinant(m: LaurentMatrix) -> LaurentPoly:
    _, cols, d, sign, _ = _eliminate(m)
    return d.scale(sign) if len(cols) == m.rows else LaurentPoly.zero(m.p, m.nvars)


def determinant(m: LaurentMatrix) -> LaurentPoly:
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _determinant(m)


def minors(m: LaurentMatrix, k: int) -> list[LaurentPoly]:
    """All k x k minors, in lexicographic order of (row set, column set)."""
    if k < 0 or k > min(m.rows, m.cols):
        raise ValueError(f"no {k}x{k} minors of a {m.rows}x{m.cols} matrix")
    sets = itertools.product(*(itertools.combinations(range(n), k) for n in m.shape))
    return [_determinant(m.submatrix(rows, cols)) for rows, cols in sets]


def _exact_quotient(num: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    if d.is_one():
        return num
    q = divides(d, num)
    if q is None:
        raise ArithmeticError(f"fraction-free step: {d} does not divide {num}")
    return q


def matrix_rank(m: LaurentMatrix) -> int:
    """Rank over the fraction field, by one fraction-free elimination."""
    return len(_eliminate(m)[1])


# The most minors determinantal_profile will compute: the row and column
# screens plus the surviving pairs.  On redundant presentations of the
# qutrit example each costs 0.01-0.02 ms (one Xeon core): the largest
# count among builtin, test and benchmark specs is 5944 (q=6, 12
# generators, rank 6; 0.13 s); 56666 took 1.0 s and 568569 took 7.1 s.
MAX_MINORS = 20_000


class MinorCountError(ValueError):
    """The determinantal profile would need more than MAX_MINORS minors."""


def _check_minor_count(count: int, m: LaurentMatrix, r: int) -> None:
    if count > MAX_MINORS:
        raise MinorCountError(
            f"the rank-{r} profile of a {m.rows}x{m.cols} matrix needs "
            f"{count} minors, over the supported bound {MAX_MINORS}"
        )


class DeterminantalProfile(NamedTuple):
    """The rank r of a matrix over the fraction field (the largest k with
    a nonzero k x k minor), together with the ideal of its r x r minors.
    The generators are the distinct nonzero r x r minors, in the
    lexicographic order of (row set, column set) of their first
    occurrence.  rank 0 means every entry vanishes; by convention the
    empty (0 x 0) minor is 1, so the ideal is then the unit ideal."""

    rank: int
    ideal: IdealDescription
    is_unit: bool


def _column_screen(ncols: int, cols, d, sign, coords) -> dict:
    """The nonzero det m[R0, C], R0 the sorted pivot rows, for the
    r-subsets C of the ncols columns in lexicographic order, from
    _eliminate(m).  With S = C minus the pivot columns and K the pivot
    positions of the columns not in C, det m[R0, C] = +-det E[K, S] /
    d'^(|S|-1) (Sylvester's identity), signed by sign and the parity of
    C's pivot positions, each column of S taking the next one of K."""
    position = {c: k for k, c in enumerate(cols)}
    out = {}
    for subset in itertools.combinations(range(ncols), len(cols)):
        free = [j for j in subset if j not in position]
        gone = [k for k, c in enumerate(cols) if c not in subset]
        nxt = iter(gone)
        sigma = [position[j] if j in position else next(nxt) for j in subset]
        block = [[coords[j][k] for j in free] for k in gone]
        if len(free) < 2:
            f = block[0][0] if free else d
        else:
            det = _determinant(LaurentMatrix(d.p, d.nvars, block))
            f = _exact_quotient(det, d ** (len(free) - 1))
        if f.packed:
            out[subset] = f.scale(sign * _parity(sigma))
    return out


def determinantal_profile(m: LaurentMatrix) -> DeterminantalProfile:
    """Rank first, then only the nonzero minors at that rank.

    The elimination of m gives the rank r, independent rows R0 and det
    m[R0, C] for each r-subset C of the columns (the column screen); that
    of the transpose gives independent columns C1 and det m[R, C1] for
    each row set R (the row screen, skipped when R0 is every row).  At
    rank r, det m[R, C] = det m[R, C1] det m[R0, C] / det m[R0, C1] is
    nonzero exactly when R and C are independent: one product and one
    exact division per pair of distinct screen values, visited in the
    lexicographic order of their first (R, C), as a scan of every r x r
    minor would.  Refuses with MinorCountError, right after the first
    elimination, when the screens and every pair of kept sets would take
    more than MAX_MINORS minors."""
    el = _eliminate(m)
    r = len(el[1])
    one = LaurentPoly.one(m.p, m.nvars)
    if r == 0:
        return DeterminantalProfile(0, IdealDescription(m.p, m.nvars, [one]), True)
    screen = math.comb(m.rows, r) + math.comb(m.cols, r)
    _check_minor_count(screen, m, r)
    col_minors = _column_screen(m.cols, *el[1:])
    row_minors, pivot = {(): one}, one
    if r < m.rows:
        el_t = _eliminate(m.transpose())
        row_minors = _column_screen(m.rows, *el_t[1:])
        pivot = col_minors[tuple(sorted(el_t[0]))]
    _check_minor_count(screen + len(row_minors) * len(col_minors), m, r)
    # A pair's minor depends only on the two screen values, and the first
    # pair giving each minor pairs first occurrences, so pairing each
    # screen's distinct values in first-occurrence order lists the same
    # minors in the same order.
    seen: dict[LaurentPoly, None] = {}
    for a in dict.fromkeys(row_minors.values()):
        for b in dict.fromkeys(col_minors.values()):
            seen.setdefault(_exact_quotient(a * b, pivot), None)
    ideal = IdealDescription(m.p, m.nvars, list(seen))
    return DeterminantalProfile(r, ideal, ideal.is_unit())


def matrix_inverse(m: LaurentMatrix) -> LaurentMatrix:
    """Inverse over the Laurent ring; exists iff det is a nonzero monomial.
    One elimination of [m | I]: m is singular when a pivot lands in the
    I block, and otherwise the I block of E is d' m^-1."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    _, cols, d, sign, coords = _eliminate(m.hstack(LaurentMatrix.identity(m.p, m.nvars, n)))
    det = d.scale(sign) if cols == tuple(range(n)) else LaurentPoly.zero(m.p, m.nvars)
    if not det.is_monomial():
        raise NotAUnitError(f"determinant {det} is not a unit")
    dinv = d.inverse()
    inverse = [[coords[n + j][k] * dinv for j in range(n)] for k in range(n)]
    return LaurentMatrix(m.p, m.nvars, inverse)
