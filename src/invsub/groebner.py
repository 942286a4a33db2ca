"""F_p polynomial arithmetic on packed monomials, and Buchberger's
algorithm in grevlex order.

A monomial x_1^e_1 ... x_n^e_n is one Python int, its key: the sum of
e_i 2^(32 (i - 1)), each exponent in a signed slot of SLOT_BITS = 32
bits, the first variable lowest.  While every |e_i| is at most
MAX_EXPONENT = 2^31 - 1 a key has exactly one exponent vector
(unpack), the key of a product of monomials is the sum of their keys
and the key of an inverse is its negative; pack refuses a larger
exponent with ExponentRangeError, and laurent checks that no product
leaves the range before it adds keys.  Integer comparison of keys is a
total group order on the monomials: lexicographic, the last variable
most significant.  A variable appended after the last one takes the
next slot up, so a key reads the same with it (exponent 0).

A polynomial is a dict from keys to coefficients in [1, p); everything
is exact modular arithmetic.  This is the one kernel for that
arithmetic: laurent.LaurentPoly adds and scales its terms with add and
scale; each of its products, each entry of a LaurentMatrix product and
each update of laurent's fraction-free elimination is one dot; and the
exact divisions of that elimination are quotient, in the Laurent ring.
Buchberger's reduction, normal_form, works on the same keys in
an ordinary polynomial ring, where the grevlex order and the
divisibility of monomials are read off the keys by integer arithmetic
and only an lcm decodes them.  Its generators are the distinct nonzero
minors of a matrix at its rank (laurent.determinantal_profile bounds
their number by MAX_MINORS), so a few dozen small polynomials in a few
variables; the coprimality and chain criteria are enough for them.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable

Exponent = tuple[int, ...]
Poly = dict[int, int]

SLOT_BITS = 32
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1
_HALF = 1 << (SLOT_BITS - 1)
_MASK = (1 << SLOT_BITS) - 1


class ExponentRangeError(ValueError):
    """An exponent would leave [-MAX_EXPONENT, MAX_EXPONENT]."""


def pack(exps: Iterable[int]) -> int:
    """The key of the monomial with these exponents, first variable
    lowest; ExponentRangeError if one of them is out of range."""
    key = 0
    for e in reversed(tuple(exps)):
        if not -MAX_EXPONENT <= e <= MAX_EXPONENT:
            raise ExponentRangeError(
                f"exponent {e} is outside the supported range "
                f"+-{MAX_EXPONENT}")
        key = (key << SLOT_BITS) + e
    return key


def unpack(key: int, nvars: int) -> Exponent:
    """The exponents of a key, one per variable: each slot read as the
    signed residue of the key mod 2^32, then shifted off (with the 2^31
    added to read it, the shift drops exactly that slot)."""
    out = []
    for _ in range(nvars):
        t = key + _HALF
        out.append((t & _MASK) - _HALF)
        key = t >> SLOT_BITS
    return tuple(out)


def extents(a: Poly, nvars: int) -> tuple[list[int], list[int]]:
    """Per variable, the least and the greatest exponent of a's terms
    (a nonzero)."""
    lo = [MAX_EXPONENT] * nvars
    hi = [-MAX_EXPONENT] * nvars
    for k in a:
        for i, e in enumerate(unpack(k, nvars)):
            if e < lo[i]:
                lo[i] = e
            if e > hi[i]:
                hi[i] = e
    return lo, hi


def trim(poly: Poly, p: int) -> Poly:
    return {k: c % p for k, c in poly.items() if c % p}


def add(a: Poly, b: Poly, p: int) -> Poly:
    out = dict(a)
    for k, c in b.items():
        s = (out.get(k, 0) + c) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return {}
    # p is prime, so a product of nonzero residues is nonzero.
    return {k: (v * c) % p for k, v in a.items()}


def dot(left: Iterable[Poly], right: Iterable[Poly], p: int) -> Poly:
    """sum_k left[k] * right[k].  Every product of every pair is added
    into one dict, and each sum is reduced once at the end."""
    acc: Poly = {}
    get = acc.get
    for a, b in zip(left, right):
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    out: Poly = {}
    for k, c in acc.items():
        c %= p
        if c:
            out[k] = c
    return out


def quotient(g: Poly, f: Poly, p: int, nvars: int) -> Poly | None:
    """g / f in the Laurent ring F_p[x_1^+-1, ..., x_n^+-1] when f divides
    g there, else None.

    Division from the top in the key order: the greatest remaining term
    over f's greatest term is the next quotient term.  Over a domain the
    exponents of a product q f reach, per variable, exactly from min q +
    min f to max q + max f, so every term of a true quotient lies in the
    box [min g - min f, max g - max f]; the first quotient term outside
    it proves that f does not divide g.  The quotient terms strictly
    decrease and the box is finite, so the loop ends on every input.
    Raises ExponentRangeError when the box leaves the packed range, and
    ZeroDivisionError when f is zero."""
    if not f:
        raise ZeroDivisionError("division by the zero polynomial")
    if not g:
        return {}
    top = max(f)
    inv = pow(f[top], p - 2, p)
    (glo, ghi), (flo, fhi) = extents(g, nvars), extents(f, nvars)
    lo = list(map(operator.sub, glo, flo))
    hi = list(map(operator.sub, ghi, fhi))
    if not all(map(operator.le, lo, hi)):
        return None
    if min(lo, default=0) < -MAX_EXPONENT or max(hi, default=0) > MAX_EXPONENT:
        raise ExponentRangeError(
            f"a quotient's exponents would leave the supported range "
            f"+-{MAX_EXPONENT}")
    box = list(zip(lo, hi))
    tail = [(k, c) for k, c in f.items() if k != top]
    q: Poly = {}
    h = dict(g)
    heap = [-k for k in h]
    heapq.heapify(heap)
    while heap:
        e = -heapq.heappop(heap)
        c = h.pop(e, 0)
        if not c:
            continue
        qk = e - top
        # A decoding inside the box is the quotient term's own exponents:
        # plus f's greatest term it gives a term of g's box, in range,
        # whose key is e.
        if not all(a <= x <= b for (a, b), x in zip(box, unpack(qk, nvars))):
            return None
        factor = (c * inv) % p
        q[qk] = factor
        for fk, fc in tail:
            te = fk + qk
            v = (h.get(te, 0) - factor * fc) % p
            if not v:
                h.pop(te, None)
                continue
            if te not in h:
                heapq.heappush(heap, -te)
            h[te] = v
    return q


# ---------------------------------------------------------------------------
# Buchberger, in the ordinary polynomial ring
# ---------------------------------------------------------------------------
#
# Here every exponent is nonnegative and every total degree at most
# MAX_EXPONENT (laurent clears denominators so, and s_poly checks it), so
# a key's slots are its plain base-2^32 digits.  Then a key's total degree
# is the key mod 2^32 - 1, as a decimal number's digit sum is the number
# mod 9, and e divides f exactly when no slot of f - e borrows: with
# 2^31 added to each slot (the guards), each keeps its top bit.


def grevlex_key(key: int) -> tuple:
    """Sort key realizing grevlex: compare by total degree, then by the
    rightmost differing exponent being *smaller*, which for keys of one
    degree is the smaller key.  With the auxiliary variable placed last,
    it is the cheapest variable."""
    return (key % _MASK, -key)


def leading_term(a: Poly) -> tuple[int, int]:
    """The grevlex-largest key of a nonzero a and its coefficient."""
    k = max(a, key=grevlex_key)
    return k, a[k]


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    _, c = leading_term(a)
    return scale(a, pow(c, p - 2, p), p)


def _guards(nvars: int) -> int:
    return sum(_HALF << (SLOT_BITS * i) for i in range(nvars))


def _divides(e: int, f: int, guards: int) -> bool:
    """Whether the monomial of key e divides that of key f."""
    return (f - e + guards) & guards == guards


def _lcm(a: int, b: int, nvars: int) -> Exponent:
    return tuple(map(max, unpack(a, nvars), unpack(b, nvars)))


def normal_form(g: Poly, basis: list[Poly], p: int, nvars: int) -> Poly:
    """Remainder of g on full division by an ordered list of polynomials
    (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, section
    2.3): no term of it is divisible by any leading term, and g minus it
    lies in the ideal they generate.  The largest remaining term is
    reduced by the first divisor whose leading term divides it, or else
    moves to the remainder.

    The remaining keys wait in a heap keyed (-degree, key), whose least
    entry is the grevlex-largest.  A step only adds terms below the one
    it cancels, so nothing is scanned twice; entries for keys that
    cancelled since are skipped."""
    if not all(basis):
        raise ZeroDivisionError("division by zero polynomial")
    guards = _guards(nvars)
    steps = []
    for f in basis:
        lk, lc = leading_term(f)
        tail = [(fk, fc) for fk, fc in f.items() if fk != lk]
        steps.append((lk, pow(lc, p - 2, p), tail))
    rem: Poly = {}
    h = dict(g)
    heap = [(-(k % _MASK), k) for k in h]
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)[1]
        c = h.pop(k, 0)
        if not c:
            continue
        for lk, inv, tail in steps:
            if _divides(lk, k, guards):
                break
        else:
            rem[k] = c
            continue
        factor = (c * inv) % p
        qk = k - lk
        for fk, fc in tail:
            te = fk + qk
            v = (h.get(te, 0) - factor * fc) % p
            if not v:
                h.pop(te, None)
                continue
            if te not in h:
                heapq.heappush(heap, (-(te % _MASK), te))
            h[te] = v
    return rem


def s_poly(f: Poly, g: Poly, p: int, nvars: int) -> Poly:
    """The S-polynomial of f and g.  Its terms have total degree at most
    that of the lcm of the leading monomials; ExponentRangeError when that
    passes MAX_EXPONENT."""
    (fk, fc), (gk, gc) = leading_term(f), leading_term(g)
    lcm = _lcm(fk, gk, nvars)
    if sum(lcm) > MAX_EXPONENT:
        raise ExponentRangeError(
            f"an S-polynomial's degree would leave the supported range "
            f"+-{MAX_EXPONENT}")
    l = pack(lcm)
    return dot([{l - fk: pow(fc, p - 2, p)}, {l - gk: p - pow(gc, p - 2, p)}],
               [f, g], p)


def buchberger(gens: Iterable[Poly], p: int, nvars: int) -> list[Poly]:
    """Reduced Groebner basis (monic, interreduced, grevlex-sorted), the
    canonical form for an ideal under the fixed order.  Deterministic:
    pairs are processed by smallest lcm first."""
    basis = [monic(trim(g, p), p) for g in gens]
    basis = [g for g in basis if g]
    basis.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    if not basis:
        return []

    # Leading keys and pair keys are computed once: the pair queue is a
    # heap on (grevlex key of the lcm, pair), the same order as taking the
    # minimum over all open pairs each round.  Every pair (i, j) with
    # i > j is queued when i joins the basis, so a pair not in `done` is
    # still queued.
    guards = _guards(nvars)
    lead = [leading_term(g)[0] for g in basis]
    queue: list = []
    done: set[tuple[int, int]] = set()

    def _add_pair(i: int, j: int) -> None:
        l = pack(_lcm(lead[i], lead[j], nvars))
        heapq.heappush(queue, (grevlex_key(l), l, (i, j)))

    for i in range(len(basis)):
        for j in range(i):
            _add_pair(i, j)
    while queue:
        _, l, (i, j) = heapq.heappop(queue)
        done.add((i, j))
        # Coprime leading monomials (their lcm is their product): the
        # S-polynomial reduces to zero.
        if l == lead[i] + lead[j]:
            continue
        # Chain criterion: some third element divides the lcm and both
        # companion pairs are already done.
        if any(k not in (i, j) and _divides(lead[k], l, guards)
               and (max(i, k), min(i, k)) in done
               and (max(j, k), min(j, k)) in done
               for k in range(len(basis))):
            continue
        r = normal_form(s_poly(basis[i], basis[j], p, nvars), basis, p,
                        nvars)
        if r:
            r = monic(r, p)
            new = len(basis)
            basis.append(r)
            lead.append(leading_term(r)[0])
            for k in range(new):
                _add_pair(new, k)
    return reduce_basis(basis, p, nvars)


def reduce_basis(basis: list[Poly], p: int, nvars: int) -> list[Poly]:
    """Minimalize (drop elements whose leading term another divides) and
    fully interreduce; the result is the unique reduced basis."""
    guards = _guards(nvars)
    lead = [leading_term(g)[0] for g in basis]
    kept: list[Poly] = []
    for i, g in enumerate(basis):
        if any(
            _divides(lead[j], lead[i], guards)
            for j in range(len(basis))
            if j != i and (j < i or lead[j] != lead[i])
        ):
            continue
        kept.append(g)
    out: list[Poly] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, p, nvars) if others else g
        if r:
            out.append(monic(r, p))
    out.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    return out


def contains_unit(gb: list[Poly]) -> bool:
    """Whether a Groebner basis holds a nonzero constant: only a constant
    has the constant monomial, key 0, as its grevlex-leading term."""
    return any(list(g) == [0] for g in gb)
