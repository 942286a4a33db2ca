"""F_p polynomial arithmetic and Buchberger's algorithm in grevlex order.

Polynomials are dicts mapping exponent tuples to coefficients in [1, p);
everything is exact modular arithmetic.  This is the one kernel for that
arithmetic: laurent.LaurentPoly adds, scales and multiplies its terms
with add, scale and mul, each entry of a LaurentMatrix product is one
dot, and one division, divide, serves both the exact
quotients of laurent's fraction-free elimination (divide_single, by
pivots that on a dense matrix have many terms) and Buchberger's
reductions (normal_form).  Buchberger's generators are the distinct
nonzero minors of a matrix at its rank (laurent.determinantal_profile
bounds their number by MAX_MINORS), so a few dozen small polynomials in
a few variables; the coprimality and chain criteria are enough for them.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable

Exponent = tuple[int, ...]
Poly = dict[Exponent, int]


def grevlex_key(exp: Exponent) -> tuple:
    """Sort key realizing grevlex: compare by total degree, then by the
    rightmost differing exponent being *smaller*.  With the auxiliary
    variable placed last, it is the cheapest variable."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def trim(poly: Poly, p: int) -> Poly:
    return {e: c % p for e, c in poly.items() if c % p}


def add(a: Poly, b: Poly, p: int) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return {}
    # p is prime, so a product of nonzero residues is nonzero.
    return {e: (v * c) % p for e, v in a.items()}


def mul(a: Poly, b: Poly, p: int) -> Poly:
    return dot((a,), (b,), p)


def dot(left: Iterable[Poly], right: Iterable[Poly], p: int) -> Poly:
    """sum_k left[k] * right[k].  Every product of every pair is added
    into one dict, and each sum is reduced once at the end."""
    acc: Poly = {}
    for a, b in zip(left, right):
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(operator.add, ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
    out: Poly = {}
    for e, c in acc.items():
        c %= p
        if c:
            out[e] = c
    return out


def term_mul(exp: Exponent, coeff: int, a: Poly, p: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        v = (c * coeff) % p
        if v:
            out[tuple(map(operator.add, e, exp))] = v
    return out


def leading_term(a: Poly) -> tuple[Exponent, int]:
    e = max(a, key=grevlex_key)
    return e, a[e]


def monic(a: Poly, p: int) -> Poly:
    if not a:
        return a
    _, c = leading_term(a)
    return scale(a, pow(c, p - 2, p), p)


def _divides_exp(e: Exponent, f: Exponent) -> bool:
    return all(map(operator.le, e, f))


def _exp_sub(e: Exponent, f: Exponent) -> Exponent:
    return tuple(map(operator.sub, e, f))


def _exp_lcm(e: Exponent, f: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(e, f))


def divide(g: Poly, divisors: list[Poly], p: int) -> tuple[list[Poly], Poly]:
    """Division of g by an ordered list of polynomials (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, section 2.3): quotients
    q_i and a remainder r with g = sum q_i f_i + r, no term of r divisible
    by any leading term.  The largest remaining term is reduced by the
    first divisor whose leading term divides it, or else moves to r.

    The remaining exponents wait in a heap keyed (-degree, reversed
    exponent), whose least entry is the grevlex-largest.  A step only adds
    exponents below the one it cancels, so nothing is scanned twice;
    entries for exponents that cancelled since are skipped."""
    if not all(divisors):
        raise ZeroDivisionError("division by zero polynomial")
    steps = []
    for f in divisors:
        lfe, lfc = leading_term(f)
        tail = [(fe, fc) for fe, fc in f.items() if fe != lfe]
        steps.append((lfe, pow(lfc, p - 2, p), tail, {}))
    rem: Poly = {}
    h = dict(g)
    heap = [(-sum(e), e[::-1]) for e in h]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1][::-1]
        c = h.pop(e, 0)
        if not c:
            continue
        for lfe, inv, tail, q in steps:
            if _divides_exp(lfe, e):
                break
        else:
            rem[e] = c
            continue
        factor = (c * inv) % p
        qe = _exp_sub(e, lfe)
        q[qe] = factor
        for fe, fc in tail:
            te = tuple(map(operator.add, fe, qe))
            v = (h.get(te, 0) - factor * fc) % p
            if not v:
                h.pop(te, None)
                continue
            if te not in h:
                heapq.heappush(heap, (-sum(te), te[::-1]))
            h[te] = v
    return [s[3] for s in steps], rem


def normal_form(g: Poly, basis: list[Poly], p: int) -> Poly:
    """Remainder of g on full division by an ordered list of polynomials."""
    return divide(g, basis, p)[1]


def divide_single(g: Poly, f: Poly, p: int) -> Poly | None:
    """Quotient of g by the single divisor f, or None if a remainder is
    left.  A single polynomial is a Groebner basis of the ideal it
    generates, so a zero remainder decides principal-ideal membership."""
    (q,), rem = divide(g, [f], p)
    return None if rem else q


def s_poly(f: Poly, g: Poly, p: int) -> Poly:
    (fe, fc), (ge, gc) = leading_term(f), leading_term(g)
    l = _exp_lcm(fe, ge)
    a = term_mul(_exp_sub(l, fe), pow(fc, p - 2, p), f, p)
    b = term_mul(_exp_sub(l, ge), pow(gc, p - 2, p), g, p)
    return add(a, scale(b, p - 1, p), p)


def buchberger(gens: Iterable[Poly], p: int) -> list[Poly]:
    """Reduced Groebner basis (monic, interreduced, grevlex-sorted), the
    canonical form for an ideal under the fixed order.  Deterministic:
    pairs are processed by smallest lcm first."""
    basis = [monic(trim(g, p), p) for g in gens]
    basis = [g for g in basis if g]
    basis.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    if not basis:
        return []

    # Leading exponents and pair keys are computed once: the pair queue is
    # a heap on (grevlex key of the lcm, pair), the same order as taking
    # the minimum over all open pairs each round.  Every pair (i, j) with
    # i > j is queued when i joins the basis, so a pair not in `done` is
    # still queued.
    lead = [leading_term(g)[0] for g in basis]
    queue: list = []
    done: set[tuple[int, int]] = set()

    def _add_pair(i: int, j: int) -> None:
        heapq.heappush(queue, (grevlex_key(_exp_lcm(lead[i], lead[j])), (i, j)))

    for i in range(len(basis)):
        for j in range(i):
            _add_pair(i, j)
    while queue:
        _, (i, j) = heapq.heappop(queue)
        done.add((i, j))
        fe, ge = lead[i], lead[j]
        l = _exp_lcm(fe, ge)
        # Coprime leading monomials: S-polynomial reduces to zero.
        if all(min(a, b) == 0 for a, b in zip(fe, ge)):
            continue
        # Chain criterion: some third element divides the lcm and both
        # companion pairs are already done.
        if any(k not in (i, j) and _divides_exp(lead[k], l)
               and (max(i, k), min(i, k)) in done
               and (max(j, k), min(j, k)) in done
               for k in range(len(basis))):
            continue
        r = normal_form(s_poly(basis[i], basis[j], p), basis, p)
        if r:
            r = monic(r, p)
            new = len(basis)
            basis.append(r)
            lead.append(leading_term(r)[0])
            for k in range(new):
                _add_pair(new, k)
    return reduce_basis(basis, p)


def reduce_basis(basis: list[Poly], p: int) -> list[Poly]:
    """Minimalize (drop elements whose leading term another divides) and
    fully interreduce; the result is the unique reduced basis."""
    kept: list[Poly] = []
    for i, g in enumerate(basis):
        ge = leading_term(g)[0]
        if any(
            _divides_exp(leading_term(h)[0], ge)
            for j, h in enumerate(basis)
            if j != i and (j < i or leading_term(h)[0] != ge)
        ):
            continue
        kept.append(g)
    out: list[Poly] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, p) if others else g
        if r:
            out.append(monic(r, p))
    out.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    return out


def contains_unit(gb: list[Poly]) -> bool:
    return any(all(e == 0 for e in leading_term(g)[0]) for g in gb)
