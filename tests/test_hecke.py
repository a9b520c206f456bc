"""Tests for the Hecke algebra: relations, products, vanishing identities."""

import doctest
import os
import random
import re
import subprocess
import sys

import pytest

import qshuffle.hecke as hecke
from prop_checks import (
    check_mul_associativity,
    check_quadratic_braid_matrices,
    check_reduced_word_invariance,
    col_mul,
    mul_along,
    word_times,
)
from qshuffle.hecke import (
    HeckeElt,
    group_mul,
    left_mult_matrix,
    mul,
    tau,
    wallach_group_product,
    wallach_product,
)
from qshuffle.polyring import ONE, Poly, Q, q_int
from qshuffle.symgroup import Perm, _perm_index, cycle_element, enumerate_perms


def test_doctests():
    assert doctest.testmod(hecke).failed == 0


def _simple_times_basis(i, w):
    # T_i * T_w through the one generator step, in Z[q]
    step = hecke._rank_steps(w.n)[i - 1]
    return hecke._elt(w.n, hecke._simple_times(step, {_perm_index(w.n)[w.image]: ONE}, Q))


def test_simple_times_basis_cases():
    e2 = Perm.identity(2)
    s1 = Perm.simple(1, 2)
    assert _simple_times_basis(1, e2) == HeckeElt.basis(s1)
    assert _simple_times_basis(1, s1) == HeckeElt(2, {e2: Q, s1: Q - 1})
    # length-additive case in rank 3
    s2 = Perm.simple(2, 3)
    assert _simple_times_basis(1, s2) == HeckeElt.basis(Perm((2, 3, 1)))


def test_quadratic_relation_elementwise():
    for n in (2, 3, 4):
        one = HeckeElt.unit(n)
        for i in range(1, n):
            t = HeckeElt.basis(Perm.simple(i, n))
            assert mul(t, t) == (Q - 1) * t + Q * one


def test_braid_relation_elementwise():
    for n in (3, 4):
        for i in range(1, n - 1):
            a = HeckeElt.basis(Perm.simple(i, n))
            b = HeckeElt.basis(Perm.simple(i + 1, n))
            assert mul(mul(a, b), a) == mul(mul(b, a), b)


def test_mul_frozen_example():
    # tau(3) * T_{s_1} expanded by hand: lengths add for every term
    expect = HeckeElt(
        3, {Perm((2, 1, 3)): ONE, Perm((3, 1, 2)): ONE, Perm((3, 2, 1)): ONE}
    )
    assert mul(tau(3), HeckeElt.basis(Perm((2, 1, 3)))) == expect


def test_unit_and_zero():
    rng = random.Random(5)
    perms = enumerate_perms(3)
    one = HeckeElt.unit(3)
    zero = HeckeElt.zero(3)
    for _ in range(20):
        a = HeckeElt(3, [(rng.choice(perms), rng.randint(-3, 3)) for _ in range(3)])
        assert mul(a, one) == a
        assert mul(one, a) == a
        assert mul(a, zero).is_zero()
        assert a - a == zero


def test_tau_structure():
    for n in (2, 3, 4, 5):
        t = tau(n)
        assert set(t.terms) == {cycle_element(g, n) for g in range(1, n + 1)}
        assert all(c == ONE for c in t.terms.values())


def test_tau_squared_rank_two():
    t = tau(2)
    assert mul(t, t) == q_int(2) * t


def test_wallach_product_vanishes_small():
    for n in (2, 3, 4):
        assert wallach_product(n).is_zero()


# slow reference: the product as a left-to-right chain of general products
def _wallach_product_by_mul(n, omit):
    t = tau(n)
    prod = HeckeElt.unit(n) if omit == 0 else t
    for k in range(1, n + 1):
        if k not in (n - 1, omit):
            prod = mul(prod, t - q_int(k))
    return prod


def test_wallach_product_minimality_small():
    for n in range(2, 7):
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for omit in [None, 0] + retained:
            prod = wallach_product(n, omit=omit)
            assert prod == _wallach_product_by_mul(n, omit), (n, omit)
            assert prod.is_zero() == (omit is None), (n, omit)
    with pytest.raises(ValueError):
        wallach_product(3, omit=2)  # k = n-1 is not a factor


def test_omit_refusal_is_shared():
    # both products refuse an omit that names no factor, with one message,
    # and accept the full product, the leading tau and every retained k
    for n in (3, 4):
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for product in (wallach_product, wallach_group_product):
            for bad in (n - 1, n + 1, -1):
                message = f"omit must be 0 or one of {retained}, got {bad}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    product(n, omit=bad)
            for omit in [None, 0] + retained:
                product(n, omit=omit)


def test_kronecker_bits_bound_the_oracle():
    # every coefficient of the Z[q] product is below 2^(B-1) in absolute
    # value, so the balanced base-2^B digits read it back uniquely
    for n in range(1, 7):
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for omit in [None, 0] + retained:
            bits = hecke._kronecker_bits(n, omit)
            prod = _wallach_product_by_mul(n, omit)
            top = max((abs(c) for p in prod.terms.values() for c in p.coeffs), default=0)
            assert top < 2 ** (bits - 1), (n, omit, top, bits)
    assert hecke._kronecker_bits(7, None) == 66
    assert hecke._kronecker_bits(8, None) == 87


def test_wallach_product_rank_one():
    # tau = T_e = 1 at n = 1, so tau - [1]_q is zero and only omit=1
    # leaves a nonzero product
    for omit in (None, 0, 1):
        prod = wallach_product(1, omit=omit)
        assert prod == _wallach_product_by_mul(1, omit), omit
        assert prod.is_zero() == (omit != 1), omit


def test_kronecker_decode_round_trips():
    rng = random.Random(31)
    for n in range(1, 9):
        bits = hecke._kronecker_bits(n, None)
        half = 2 ** (bits - 1)
        assert hecke._kronecker_decode(0, bits) == Poly()
        # the extreme balanced digits, at both ends of the polynomial
        for edge in (Poly([-half, half - 1]), Poly([half - 1, 0, -half])):
            assert hecke._kronecker_decode(edge(2**bits), bits) == edge
        for _ in range(30):
            p = Poly([rng.randint(-half, half - 1) for _ in range(rng.randint(1, 12))])
            assert hecke._kronecker_decode(p(2**bits), bits) == p, (n, p)


def _index(n):
    return {w: u for u, w in enumerate(enumerate_perms(n))}


def test_tau_times_matches_mul():
    # slow oracle: tau * a as a sum over the n cycles, each applied one
    # letter of its reduced word at a time, where the tau walk shares
    # the steps through a running sum
    for n in range(1, 6):
        for u, w in enumerate(enumerate_perms(n)):
            got = hecke._elt(n, hecke._tau_walk(n, {u: ONE}, Q))
            assert got == mul_along(tau(n), HeckeElt.basis(w), max), (n, w)
    rng = random.Random(23)
    for n in range(1, 5):
        perms = enumerate_perms(n)
        for _ in range(30):
            a = HeckeElt(n, [
                (rng.choice(perms), Poly([rng.randint(-2, 2) for _ in range(3)]))
                for _ in range(rng.randint(1, 5))
            ])
            got = hecke._elt(n, hecke._tau_walk(n, hecke._indices(a), Q))
            assert got == mul_along(tau(n), a, max) == mul(tau(n), a), a
        assert hecke._tau_walk(n, {}, Q) == {}


def test_basis_times_matches_mul():
    # slow oracle: T_x * b built along the largest-descent reduced word
    # of x, where the memo walk peels the first left descent
    for n in range(1, 5):
        perms = enumerate_perms(n)
        for bi in range(len(perms)):
            walk = hecke._basis_walk(n, {bi: ONE}, Q)
            for xi, x in enumerate(perms):
                assert walk(xi) == word_times(x, {bi: ONE}, max), (x, bi)
    rng = random.Random(29)
    for n in range(1, 5):
        perms = enumerate_perms(n)
        for _ in range(8):
            b = HeckeElt(n, [
                (rng.choice(perms), Poly([rng.randint(-2, 2) for _ in range(3)]))
                for _ in range(rng.randint(1, 5))
            ])
            walk = hecke._basis_walk(n, hecke._indices(b), Q)
            for xi, x in enumerate(perms):
                assert hecke._elt(n, walk(xi)) == mul_along(HeckeElt.basis(x), b, max), (x, b)
        walk = hecke._basis_walk(n, {}, Q)
        assert all(walk(xi) == {} for xi in range(len(perms)))
    # a step that cancels: T_1 (T_1 + (1 - q)) = q, with no zero term kept
    s1, e2 = Perm.simple(1, 2), Perm.identity(2)
    walk = hecke._basis_walk(2, hecke._indices(HeckeElt(2, {s1: ONE, e2: 1 - Q})), Q)
    assert walk(_perm_index(2)[s1.image]) == {0: Q}


def test_basis_walk_at_int_q_matches_specialized_products():
    # the int walk of the structure-constant check, keyed by label
    # index, against the Z[q] walk specialized at q
    for n in range(1, 5):
        size = len(enumerate_perms(n))
        for q in (2, 3, 5):
            for yi in range(size):
                walk = hecke._basis_walk(n, {yi: 1}, q)
                poly_walk = hecke._basis_walk(n, {yi: ONE}, Q)
                for xi in range(size):
                    want = {u: c(q) for u, c in poly_walk(xi).items() if c(q)}
                    assert walk(xi) == want, (n, q, xi, yi)


def test_rank_steps_match_literal_products():
    # d_i[u], index and sign, against the literal s_i w and its length;
    # n = 1 has no generators, so no tables
    for n in range(1, 7):
        perms = enumerate_perms(n)
        index = _index(n)
        steps = hecke._rank_steps(n)
        assert len(steps) == n - 1
        for i, step in enumerate(steps, 1):
            assert len(step) == len(perms)
            s = Perm.simple(i, n)
            for u, w in enumerate(perms):
                moved = s * w
                assert index[moved] == u + step[u], (n, i, w)
                assert (step[u] > 0) == (moved.length() > w.length()), (n, i, w)


def test_first_descents_follow_the_descent_rule():
    # each entry against the rule the walk used to run per product, the
    # least i with a negative rank step; the identity has no descent
    for n in range(1, 8):
        steps = hecke._rank_steps(n)
        table = hecke._first_descents(n)
        assert len(table) == len(enumerate_perms(n)) and table[0] is None
        for x in range(1, len(table)):
            step = next(d for d in steps if d[x] < 0)
            got, parent = table[x]
            assert got is step and parent == x + step[x], (n, x)


def test_factors_commute():
    t = tau(3)
    f1 = t - q_int(1)
    f3 = t - q_int(3)
    assert mul(f1, f3) == mul(f3, f1)
    assert mul(t, f3) == mul(f3, t)


def test_specialize():
    t = tau(3)
    at_one = t.specialize(1)
    assert at_one == {cycle_element(g, 3): 1 for g in (1, 2, 3)}
    shifted = t - q_int(2)
    assert shifted.specialize(1)[Perm.identity(3)] == -1
    # zero coefficients are dropped
    assert (t - t).specialize(4) == {}


# independent oracle: compose through __call__ instead of image arithmetic
def _group_mul_oracle(a, b):
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = Perm(tuple(u(v(i)) for i in range(1, u.n + 1)))
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


def test_group_mul_matches_oracle():
    rng = random.Random(17)
    # n = 1 composes through a one-index getter
    for n in range(1, 6):
        perms = enumerate_perms(n)
        for _ in range(40):
            a = {rng.choice(perms): rng.randint(-3, 3) for _ in range(3)}
            b = {rng.choice(perms): rng.randint(-3, 3) for _ in range(3)}
            assert group_mul(a, b) == _group_mul_oracle(a, b), (a, b)
    # (e + s_1)(e - s_1) = e - s_1^2 = 0: every term cancels
    e2, s1 = Perm.identity(2), Perm.simple(1, 2)
    assert group_mul({e2: 1, s1: 1}, {e2: 1, s1: -1}) == {}
    # mismatched ranks are refused in either order, as in mul
    with pytest.raises(ValueError, match="rank mismatch"):
        group_mul({Perm((2, 3, 1)): 1}, {Perm((2, 1)): 1})
    with pytest.raises(ValueError, match="rank mismatch"):
        group_mul({Perm((2, 1)): 1}, {Perm((2, 3, 1)): 1})


def test_group_product_vanishes_small():
    for n in (2, 3, 4, 5):
        assert wallach_group_product(n) == {}


def test_group_product_minimality_small():
    for n in (2, 3, 4):
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for omit in [0] + retained:
            assert wallach_group_product(n, omit=omit) != {}, (n, omit)


def _group_product_oracle(n, omit):
    # the same factors multiplied left to right by group_mul
    ident = Perm.identity(n)
    shuffle = {cycle_element(g, n): 1 for g in range(1, n + 1)}
    prod = dict(shuffle) if omit != 0 else {ident: 1}
    for k in range(1, n + 1):
        if k in (n - 1, omit):
            continue
        factor = dict(shuffle)
        factor[ident] -= k
        prod = group_mul(prod, {w: c for w, c in factor.items() if c})
    return prod


def test_group_walk_matches_group_mul_oracle():
    for n in range(1, 7):
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for omit in [None, 0] + retained:
            got = wallach_group_product(n, omit=omit)
            assert got == _group_product_oracle(n, omit), (n, omit)


def test_swap_moves_match_composition():
    # gathering the indices through the moves of R_j gives, at w, the
    # index of w s_j, read here off composed images
    for n in range(1, 7):
        perms = enumerate_perms(n)
        index = {w.image: u for u, w in enumerate(perms)}
        for j in range(1, n):
            src = list(range(len(perms)))
            dst = [None] * len(perms)
            for d, s in hecke._swap_moves(n, j):
                dst[d] = src[s]
            assert dst == [index[(w * Perm.simple(j, n)).image] for w in perms], (n, j)
    # 1,264 block moves make the n - 1 swaps at n = 8
    assert sum(len(hecke._swap_moves(8, j)) for j in range(1, 8)) == 1264


def test_group_widths_bound_the_oracle():
    # every coefficient of the q = 1 product is below 2^(W-1) in
    # absolute value, so its residue mod 2^W reads it back uniquely
    for n in range(1, 7):
        bits = hecke._group_widths(n)
        retained = [k for k in range(1, n + 1) if k != n - 1]
        for omit in [None, 0] + retained:
            prod = _group_product_oracle(n, omit)
            top = max(map(abs, prod.values()), default=0)
            assert top < 2 ** (bits - 1), (n, omit, top, bits)
    # k <= n, and k (2^W - x) + x never reaches the next 64-bit field
    for n in range(1, 14):
        bits = hecke._group_widths(n)
        assert bits + (n + 1).bit_length() <= 64, (n, bits)
    assert hecke._group_widths(8) == 30


def test_group_product_refuses_fields_wider_than_64_bits():
    # n = 14 would need 66-bit fields; refused before the n!-field vector
    # is allocated, which would otherwise fail with a MemoryError
    for n in (14, 20):
        for omit in (None, 0):
            with pytest.raises(ValueError, match="64 bits hold n <= 13"):
                wallach_group_product(n, omit=omit)


def test_group_walk_needs_no_group_mul_or_hecke_step(monkeypatch):
    # the q = 1 check shares no code with the Hecke step or group_mul
    def refuse(*args, **kwargs):
        raise AssertionError("the q = 1 walk called a shared product")

    for name in ("group_mul", "_simple_times", "_tau_walk", "_rank_steps"):
        monkeypatch.setattr(hecke, name, refuse)
    assert wallach_group_product(6) == {}
    assert wallach_group_product(6, omit=0) != {}


def test_import_builds_no_rank_table():
    # the rank-step, descent and label-symmetry tables are built on
    # first use, so the import that starts every command carries no
    # table build
    code = (
        "import qshuffle, qshuffle.cli\n"
        "from qshuffle import flagmodel, hecke\n"
        "print(sum(f.cache_info().currsize for f in (hecke._rank_steps,\n"
        "    hecke._first_descents, flagmodel._relabels, flagmodel._slot_orbits)))"
    )
    src = os.path.dirname(os.path.dirname(hecke.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"


def test_specialization_commutes_with_multiplication():
    # the q = 1 route and the symbolic route agree
    t = tau(3)
    sym = mul(t, t).specialize(1)
    grp = group_mul(t.specialize(1), t.specialize(1))
    assert sym == grp


def test_left_mult_matrix_columns_match_products():
    t = tau(3)
    perms = enumerate_perms(3)
    index = {w: i for i, w in enumerate(perms)}
    cols = left_mult_matrix(t)
    for j, w in enumerate(perms):
        expect = {index[u]: c for u, c in mul(t, HeckeElt.basis(w)).terms.items()}
        assert cols[j] == expect


def test_generator_matrix_columns_are_sparse():
    for n in (3, 4):
        for i in range(1, n):
            cols = left_mult_matrix(HeckeElt.basis(Perm.simple(i, n)))
            assert all(1 <= len(col) <= 2 for col in cols)


def test_factor_matrix_product_vanishes():
    # the matrix route to the vanishing product at n = 3
    n = 3
    factors = [left_mult_matrix(tau(n))]
    for k in (1, 3):
        factors.append(left_mult_matrix(tau(n) - q_int(k)))
    prod = factors[0]
    for m in factors[1:]:
        prod = col_mul(prod, m)
    assert all(col == {} for col in prod)


def test_quadratic_braid_matrix_identities_small():
    check_quadratic_braid_matrices(3)


def test_mul_associativity_randomized():
    check_mul_associativity(3, trials=30)
    check_mul_associativity(4, trials=20)


def test_mul_invariant_under_descent_choice():
    check_reduced_word_invariance(4, trials=20)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        mul(tau(2), tau(3))
    with pytest.raises(ValueError):
        HeckeElt(3, {Perm.identity(2): 1})


def test_rendering():
    assert str(HeckeElt.zero(2)) == "0"
    assert str(tau(2)) == "T[1 2] + T[2 1]"
    s1 = Perm.simple(1, 2)
    elt = HeckeElt(2, {s1: Q - 1, Perm.identity(2): Q})
    assert str(elt) == "q*T[1 2] + (-1 + q)*T[2 1]"
