"""Unit tests for the packed-monomial kernel and the Buchberger engine."""

from __future__ import annotations

import random
import time

import pytest

from invsub import groebner as gb

from helpers import (
    divide_single_early_exit,
    divide_with_quotients,
    normal_form_rescanning,
    packed as P,
    tuple_dot,
    tuple_grevlex_key,
    unpacked,
)


def _mul(a, b, p):
    return gb.dot([a], [b], p)


def test_pack_round_trips_up_to_the_edge():
    m = gb.MAX_EXPONENT
    assert m == 2**31 - 1
    for e in [(), (0,), (m,), (-m,), (m, -m, 0), (-1, 1, -1, 1), (3, -m, m)]:
        assert gb.unpack(gb.pack(e), len(e)) == e
    for e in [(m + 1,), (0, -m - 1), (2**40, 0)]:
        with pytest.raises(gb.ExponentRangeError):
            gb.pack(e)
    assert issubclass(gb.ExponentRangeError, ValueError)


def test_keys_add_as_exponents_and_order_lexicographically():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(-2**30, 2**30) for _ in range(n))
        b = tuple(rng.randint(-2**30, 2**30) for _ in range(n))
        ka, kb = gb.pack(a), gb.pack(b)
        assert gb.unpack(ka + kb, n) == tuple(x + y for x, y in zip(a, b))
        assert gb.unpack(-ka, n) == tuple(-x for x in a)
        # Integer order of keys: the last variable most significant.
        assert (ka < kb) == (a[::-1] < b[::-1])
    # A variable appended last reads the same key with exponent 0.
    assert gb.unpack(gb.pack((4, -7)), 3) == (4, -7, 0)


def _grevlex(exps):
    return gb.grevlex_key(gb.pack(exps))


def test_grevlex_order_prefers_total_degree():
    assert _grevlex((2, 0)) > _grevlex((1, 0))
    assert _grevlex((3, 0)) > _grevlex((1, 1))


def test_grevlex_tiebreak_rightmost_smaller_wins():
    # Equal degree: the exponent vector with the smaller last entry is larger.
    assert _grevlex((1, 1, 0)) > _grevlex((0, 1, 1))
    assert _grevlex((2, 0)) > _grevlex((0, 2))


def test_grevlex_and_divisibility_read_off_keys():
    # Nonnegative exponents of total degree up to MAX_EXPONENT: the key
    # order agrees with grevlex on exponent tuples, and divisibility with
    # the slotwise comparison.
    rng = random.Random(7)
    big = gb.MAX_EXPONENT // 4
    for _ in range(2000):
        n = rng.randint(1, 4)
        top = rng.choice((3, big))
        a = tuple(rng.randint(0, top) for _ in range(n))
        b = tuple(rng.randint(0, top) for _ in range(n))
        if rng.random() < 0.3:
            b = tuple(x + rng.randint(0, 2) for x in a)
        assert (_grevlex(a) > _grevlex(b)) == (
            tuple_grevlex_key(a) > tuple_grevlex_key(b))
        assert gb._divides(gb.pack(a), gb.pack(b), gb._guards(n)) == all(
            x <= y for x, y in zip(a, b))


def test_leading_term_and_monic():
    f = P({(2, 0): 2, (0, 1): 1})
    k, c = gb.leading_term(f)
    assert gb.unpack(k, 2) == (2, 0) and c == 2
    m = gb.monic(f, 3)
    assert gb.leading_term(m)[1] == 1


def test_normal_form_single_divisor():
    # x^2 reduced by x^2 - y leaves y.
    f = P({(2, 0): 1})
    basis = [P({(2, 0): 1, (0, 1): 2})]  # x^2 - y over F_3
    r = gb.normal_form(f, basis, 3, 2)
    assert r == P({(0, 1): 1})


def test_quotient_exact_and_failed():
    f = P({(1, 0): 1, (0, 0): 2})  # x - 1 over F_3
    g = _mul(f, P({(1, 0): 1, (0, 1): 1}), 3)  # (x - 1)(x + y)
    assert gb.quotient(g, f, 3, 2) == P({(1, 0): 1, (0, 1): 1})
    assert gb.quotient(P({(0, 1): 1}), f, 3, 2) is None
    # In the Laurent ring a monomial divides everything.
    assert gb.quotient(P({(0, 1): 1}), P({(2, -1): 2}), 3, 2) == P({(-2, 2): 2})
    assert gb.quotient({}, f, 3, 2) == {}
    with pytest.raises(ZeroDivisionError):
        gb.quotient(f, {}, 3, 2)


def test_quotient_stops_at_the_box_in_two_variables():
    # y + x + x^-3 over 1 - x (F_3).  From the top of the key order the
    # quotient terms are x^-1 y, x^-2 y, ...; they stay above the least
    # possible quotient term, x^-3, in the key order until the x slot
    # would wrap, about 2^31 steps.  The box of every true quotient, x
    # exponents in [-3, 0], is left at x^-4 y.
    f = P({(0, 0): 1, (1, 0): 2})
    g = P({(0, 1): 1, (1, 0): 1, (-3, 0): 1})
    start = time.perf_counter()
    assert gb.quotient(g, f, 3, 2) is None
    assert time.perf_counter() - start < 1.0
    # An empty box refuses before any step: y + 1 over 1 - x.
    assert gb.quotient(P({(0, 1): 1, (0, 0): 1}), f, 3, 2) is None


def test_quotient_refuses_a_box_outside_the_range():
    m = gb.MAX_EXPONENT
    f = P({(-m,): 1, (1 - m,): 1})
    g = P({(m - 1,): 1, (m,): 1})
    with pytest.raises(gb.ExponentRangeError):
        gb.quotient(g, f, 3, 1)


def test_buchberger_unit_ideal_collapses_to_one():
    # (x, x + 1) contains 1.
    out = gb.buchberger([P({(1,): 1}), P({(1,): 1, (0,): 1})], 2, 1)
    assert out == [P({(0,): 1})]
    assert gb.contains_unit(out)


def test_buchberger_known_basis():
    # Over F_3: ideal (x^2 - y, y^2 - x); the reduced basis is the input
    # (already a Groebner basis in grevlex) and x^4 - x reduces to zero.
    f1 = P({(2, 0): 1, (0, 1): 2})
    f2 = P({(0, 2): 1, (1, 0): 2})
    out = gb.buchberger([f1, f2], 3, 2)
    assert not gb.contains_unit(out)
    # (x^2 - y) * f1 + (x + 1) * f2 is in the ideal; its normal form vanishes.
    member = gb.add(
        _mul(f1, f1, 3), _mul(P({(1, 0): 1, (0, 0): 1}), f2, 3), 3
    )
    assert gb.normal_form(member, out, 3, 2) == {}


def test_buchberger_deterministic():
    gens = [P({(1, 1): 1, (0, 0): 2}), P({(2, 0): 1, (0, 1): 1})]
    a = gb.buchberger(gens, 3, 2)
    b = gb.buchberger(list(reversed(gens)), 3, 2)
    assert a == b


def test_reduce_basis_removes_redundant():
    # x and x^2 generate (x); the reduced basis drops x^2.
    out = gb.reduce_basis([P({(1,): 1}), P({(2,): 1})], 5, 1)
    assert out == [P({(1,): 1})]


def _random_poly(rng, p, nvars, terms, degree):
    """Up to `terms` terms in nvars variables plus t (always last), every
    exponent at most `degree`; t appears in about a third of them.  Keyed
    by exponent tuples."""
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, degree) for _ in range(nvars))
        t = rng.randint(0, degree) if rng.random() < 1 / 3 else 0
        out[e + (t,)] = rng.randrange(1, p)
    return out


def _with_t_relation(gens, p, nvars):
    # t * x_1 * ... * x_n - 1, as laurent appends to every ideal.
    return gens + [P({(1,) * (nvars + 1): 1, (0,) * (nvars + 1): p - 1})]


def test_one_division_matches_the_former_loops(monkeypatch):
    rng = random.Random(16)
    exact = inexact = 0
    for trial in range(3000):
        p = rng.choice((2, 3, 5))
        nvars = rng.randint(1, 3)
        n = nvars + 1
        divisors = [_random_poly(rng, p, nvars, rng.randint(1, 4), 2)
                    for _ in range(rng.randint(1, 4))]
        kind = trial % 3
        if kind == 0:
            g = _random_poly(rng, p, nvars, rng.randint(0, 8), 4)
        else:
            # A multiple of the first divisor, or a member of the ideal
            # of all of them.
            g = {}
            for f in divisors[:1] if kind == 1 else divisors:
                h = _random_poly(rng, p, nvars, rng.randint(1, 4), 2)
                g = unpacked(gb.add(P(g), _mul(P(h), P(f), p), p), n)
        keyed = [P(f) for f in divisors]
        quotients, rem = divide_with_quotients(P(g), keyed, p, n)
        assert unpacked(rem, n) == normal_form_rescanning(g, divisors, p)
        assert gb.normal_form(P(g), keyed, p, n) == rem
        total = rem
        for q, f in zip(quotients, keyed):
            total = gb.add(total, _mul(q, f, p), p)
        assert total == P(g)
        # A polynomial quotient is a Laurent one, but a Laurent quotient
        # may need negative exponents.
        q = gb.quotient(P(g), keyed[0], p, n)
        poly_q = divide_single_early_exit(g, divisors[0], p)
        if poly_q is not None:
            assert q == P(poly_q)
        if q is None:
            inexact += 1
        else:
            exact += 1
            assert _mul(q, keyed[0], p) == P(g)
        if trial % 10 == 0:
            gens = _with_t_relation(keyed, p, nvars)
            basis = gb.buchberger(gens, p, n)

            def rescanning(g, basis, p, nvars):
                return P(normal_form_rescanning(
                    unpacked(g, nvars), [unpacked(b, nvars) for b in basis],
                    p))

            with monkeypatch.context() as patch:
                patch.setattr(gb, "normal_form", rescanning)
                assert gb.buchberger(gens, p, n) == basis
            assert gb.normal_form(P(g), basis, p, n) == rescanning(
                P(g), basis, p, n)
    assert exact > 1000 and inexact > 1000


def test_dot_equals_sum_of_products():
    rng = random.Random(19)
    for trial in range(300):
        p = rng.choice([2, 3, 5, 7])
        nvars = rng.randint(1, 3)
        k = rng.randint(0, 5)
        left = [_random_poly(rng, p, nvars, rng.randint(0, 4), 2)
                for _ in range(k)]
        right = [_random_poly(rng, p, nvars, rng.randint(0, 4), 2)
                 for _ in range(k)]
        total = {}
        for a, b in zip(left, right):
            total = gb.add(total, _mul(P(a), P(b), p), p)
        dot = gb.dot([P(a) for a in left], [P(b) for b in right], p)
        assert dot == total
        assert unpacked(dot, nvars + 1) == tuple_dot(left, right, p)
