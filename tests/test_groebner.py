"""Unit tests for the Buchberger engine on ordinary polynomial dicts."""

from __future__ import annotations

import random

from invsub import groebner as gb

from helpers import divide_single_early_exit, normal_form_rescanning


def P(d):
    return dict(d)


def test_grevlex_order_prefers_total_degree():
    assert gb.grevlex_key((2, 0)) > gb.grevlex_key((1, 0))
    assert gb.grevlex_key((3, 0)) > gb.grevlex_key((1, 1))


def test_grevlex_tiebreak_rightmost_smaller_wins():
    # Equal degree: the exponent vector with the smaller last entry is larger.
    assert gb.grevlex_key((1, 1, 0)) > gb.grevlex_key((0, 1, 1))
    assert gb.grevlex_key((2, 0)) > gb.grevlex_key((0, 2))


def test_leading_term_and_monic():
    f = {(2, 0): 2, (0, 1): 1}
    e, c = gb.leading_term(f)
    assert e == (2, 0) and c == 2
    m = gb.monic(f, 3)
    assert gb.leading_term(m)[1] == 1


def test_normal_form_single_divisor():
    # x^2 reduced by x^2 - y leaves y.
    f = {(2, 0): 1}
    basis = [{(2, 0): 1, (0, 1): 2}]  # x^2 - y over F_3
    r = gb.normal_form(f, basis, 3)
    assert r == {(0, 1): 1}


def test_divide_single_exact_and_failed():
    f = {(1, 0): 1, (0, 0): 2}  # x - 1 over F_3
    g = gb.mul(f, {(1, 0): 1, (0, 1): 1}, 3)  # (x - 1)(x + y)
    q = gb.divide_single(g, f, 3)
    assert q == {(1, 0): 1, (0, 1): 1}
    assert gb.divide_single({(0, 1): 1}, f, 3) is None


def test_buchberger_unit_ideal_collapses_to_one():
    # (x, x + 1) contains 1.
    out = gb.buchberger([{(1,): 1}, {(1,): 1, (0,): 1}], 2)
    assert out == [{(0,): 1}]
    assert gb.contains_unit(out)


def test_buchberger_known_basis():
    # Over F_3: ideal (x^2 - y, y^2 - x); the reduced basis is the input
    # (already a Groebner basis in grevlex) and x^4 - x reduces to zero.
    f1 = {(2, 0): 1, (0, 1): 2}
    f2 = {(0, 2): 1, (1, 0): 2}
    out = gb.buchberger([f1, f2], 3)
    assert not gb.contains_unit(out)
    # (x^2 - y) * f1 + (x + 1) * f2 is in the ideal; its normal form vanishes.
    member = gb.add(
        gb.mul(f1, f1, 3), gb.mul({(1, 0): 1, (0, 0): 1}, f2, 3), 3
    )
    assert gb.normal_form(member, out, 3) == {}


def test_buchberger_deterministic():
    gens = [{(1, 1): 1, (0, 0): 2}, {(2, 0): 1, (0, 1): 1}]
    a = gb.buchberger(gens, 3)
    b = gb.buchberger(list(reversed(gens)), 3)
    assert a == b


def test_reduce_basis_removes_redundant():
    # x and x^2 generate (x); the reduced basis drops x^2.
    out = gb.reduce_basis([{(1,): 1}, {(2,): 1}], 5)
    assert out == [{(1,): 1}]


def _random_poly(rng, p, nvars, terms, degree):
    """Up to `terms` terms in nvars variables plus t (always last), every
    exponent at most `degree`; t appears in about a third of them."""
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, degree) for _ in range(nvars))
        t = rng.randint(0, degree) if rng.random() < 1 / 3 else 0
        out[e + (t,)] = rng.randrange(1, p)
    return out


def _with_t_relation(gens, p, nvars):
    # t * x_1 * ... * x_n - 1, as laurent appends to every ideal.
    return gens + [{(1,) * (nvars + 1): 1, (0,) * (nvars + 1): p - 1}]


def test_one_division_matches_the_former_loops(monkeypatch):
    rng = random.Random(16)
    exact = inexact = 0
    for trial in range(3000):
        p = rng.choice((2, 3, 5))
        nvars = rng.randint(1, 3)
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
                g = gb.add(g, gb.mul(h, f, p), p)
        quotients, rem = gb.divide(g, divisors, p)
        assert rem == normal_form_rescanning(g, divisors, p)
        assert gb.normal_form(g, divisors, p) == rem
        total = rem
        for q, f in zip(quotients, divisors):
            total = gb.add(total, gb.mul(q, f, p), p)
        assert total == g
        q = gb.divide_single(g, divisors[0], p)
        assert q == divide_single_early_exit(g, divisors[0], p)
        if q is None:
            inexact += 1
        else:
            exact += 1
            assert gb.mul(q, divisors[0], p) == g
        if trial % 10 == 0:
            gens = _with_t_relation(divisors, p, nvars)
            basis = gb.buchberger(gens, p)
            with monkeypatch.context() as patch:
                patch.setattr(gb, "normal_form", normal_form_rescanning)
                assert gb.buchberger(gens, p) == basis
            assert gb.normal_form(g, basis, p) == normal_form_rescanning(
                g, basis, p)
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
            total = gb.add(total, gb.mul(a, b, p), p)
        assert gb.dot(left, right, p) == total
