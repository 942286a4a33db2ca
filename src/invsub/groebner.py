"""Buchberger's algorithm over F_p in graded reverse lexicographic order.

Polynomials live in F_p[x_1..x_n] and are represented as dicts mapping
exponent tuples (nonnegative ints) to coefficients in [1, p).  Everything
here is exact modular arithmetic; no external computer-algebra system is
involved.  The instances this package generates are tiny (at most four
variables over F_2/F_3/F_5, generators with a handful of terms), so plain
Buchberger with the coprimality and chain criteria is entirely adequate.
The generators are the distinct nonzero minors of a matrix at its rank
(laurent.determinantal_profile, which bounds how many minors it needs
by MAX_MINORS); the number of S-pairs grows with their number and
degree, so a few dozen small minors are cheap whatever the matrix size.
The other heavy caller is laurent's fraction-free elimination, whose
every step is an exact division (divide_single) by a pivot that, on a
dense matrix, is a polynomial with many terms.
"""

from __future__ import annotations

import heapq
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
    return {e: (v * c) % p for e, v in a.items()}


def mul(a: Poly, b: Poly, p: int) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = (out.get(e, 0) + ca * cb) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def term_mul(exp: Exponent, coeff: int, a: Poly, p: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        v = (c * coeff) % p
        if v:
            out[tuple(x + y for x, y in zip(e, exp))] = v
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
    return all(x <= y for x, y in zip(e, f))


def _exp_sub(e: Exponent, f: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(e, f))


def _exp_lcm(e: Exponent, f: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(e, f))


def normal_form(g: Poly, basis: list[Poly], p: int) -> Poly:
    """Remainder of g on full division by an ordered list of polynomials."""
    rem: Poly = {}
    h = dict(g)
    lts = [leading_term(b) for b in basis]
    while h:
        e, c = leading_term(h)
        for b, (lbe, lbc) in zip(basis, lts):
            if _divides_exp(lbe, e):
                factor = (c * pow(lbc, p - 2, p)) % p
                h = add(h, term_mul(_exp_sub(e, lbe), p - factor, b, p), p)
                break
        else:
            rem[e] = c
            del h[e]
    return rem


def divide_single(g: Poly, f: Poly, p: int) -> Poly | None:
    """Quotient of g by the single divisor f, or None if any term survives
    reduction.  A single polynomial is a Groebner basis of the ideal it
    generates, so a zero remainder decides principal-ideal membership.

    The remainder's exponents wait in a heap keyed (-degree, reversed
    exponent), whose least entry is the grevlex-largest.  A step only adds
    exponents below the one it cancels, so the remainder is never scanned
    again; entries for exponents that cancelled since are skipped."""
    if not f:
        raise ZeroDivisionError("division by zero polynomial")
    lfe, lfc = leading_term(f)
    inv = pow(lfc, p - 2, p)
    tail = [(fe, fc) for fe, fc in f.items() if fe != lfe]
    q: Poly = {}
    h = dict(g)
    heap = [(-sum(e), e[::-1]) for e in h]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1][::-1]
        c = h.pop(e, 0)
        if not c:
            continue
        if not _divides_exp(lfe, e):
            return None
        factor = (c * inv) % p
        qe = _exp_sub(e, lfe)
        q[qe] = factor
        for fe, fc in tail:
            te = tuple(x + y for x, y in zip(fe, qe))
            v = (h.get(te, 0) - factor * fc) % p
            if not v:
                h.pop(te, None)
                continue
            if te not in h:
                heapq.heappush(heap, (-sum(te), te[::-1]))
            h[te] = v
    return q


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
    # the minimum over all open pairs each round.
    lead = [leading_term(g)[0] for g in basis]
    pairs: set[tuple[int, int]] = set()
    queue: list = []
    done: set[tuple[int, int]] = set()

    def _add_pair(i: int, j: int) -> None:
        pairs.add((i, j))
        heapq.heappush(queue, (grevlex_key(_exp_lcm(lead[i], lead[j])), (i, j)))

    def _treated(i: int, j: int) -> bool:
        key = (max(i, j), min(i, j))
        return key in done or key not in pairs

    for i in range(len(basis)):
        for j in range(i):
            _add_pair(i, j)
    while queue:
        _, (i, j) = heapq.heappop(queue)
        pairs.discard((i, j))
        done.add((i, j))
        fe, ge = lead[i], lead[j]
        l = _exp_lcm(fe, ge)
        # Coprime leading monomials: S-polynomial reduces to zero.
        if all(min(a, b) == 0 for a, b in zip(fe, ge)):
            continue
        # Chain criterion: some third element divides the lcm and both
        # companion pairs were already handled.
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides_exp(lead[k], l):
                if _treated(i, k) and _treated(j, k):
                    skip = True
                    break
        if skip:
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
