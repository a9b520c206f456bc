"""Tests for flags over F_q, orbit labels, and the convolution model.

The heavier checks compare the packaged fast paths (pivot profiles,
cached structure tensor) against slow test-local reimplementations that
share no code with the package: a local Gaussian elimination, a local
intersection-dimension computation, and a literal sum over middle
flags.
"""

import itertools
import json
import math
import random
import re

import pytest

from prop_checks import (
    _rank_fq,
    check_convolution_associativity,
    check_gl_invariance,
    check_orbit_partition_matches_bruteforce,
)
from test_acceptance import FLAG_GRID
from qshuffle import flagmodel, spectral
from qshuffle.cli import main
from qshuffle.flagmodel import (
    BudgetExceeded,
    Flag,
    OrbitFn,
    Subspace,
    check_orbit_representatives,
    compare_structure_constants,
    convolve,
    enumerate_flags,
    f1,
    f_t,
    flag_count,
    in_x_t,
    relative_position,
    representative_pair,
    verify_factorization,
    verify_lemma3,
    verify_span_commutativity,
)
from qshuffle.hecke import HeckeElt, mul, tau
from qshuffle.spectral import rank_mod
from qshuffle.symgroup import Perm, _tuple_getter, cycle_element, enumerate_perms


# ---------------------------------------------------------------------------
# subspaces and flags


def test_subspace_canonicalization():
    # same row space, different spanning sets; the kernel keeps echelon
    # rows, not reduced ones, so the stored tails differ under one lead set
    a = Subspace([(1, 1, 0), (0, 1, 1)], 3, 2)
    b = Subspace([(1, 0, 1), (0, 1, 1)], 3, 2)
    assert a.pivots.keys() == b.pivots.keys() and a.pivots != b.pivots
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2
    c = Subspace([(2, 1, 0), (1, 1, 1)], 3, 3)
    d = Subspace([(1, 0, 2), (0, 1, 2)], 3, 3)
    assert c.pivots != d.pivots
    assert c == d and hash(c) == hash(d)
    fa = Flag.from_basis([(0, 1, 1), (1, 0, 0), (0, 0, 1)], 2)
    fb = Flag.from_basis([(0, 1, 1), (1, 1, 1), (0, 0, 1)], 2)
    assert fa.step(2).pivots != fb.step(2).pivots
    assert fa == fb and hash(fa) == hash(fb)
    # redundant generators collapse
    c = Subspace([(1, 0, 0), (1, 0, 0), (2, 0, 0)], 3, 3)
    assert c.dim == 1


def test_subspace_membership_and_order():
    v = Subspace([(1, 2, 0)], 3, 3)
    w = Subspace([(1, 2, 0), (0, 0, 1)], 3, 3)
    assert v.contains_vector((2, 1, 0))  # 2 * (1, 2, 0) mod 3
    assert not v.contains_vector((1, 0, 0))
    for bad in ((1, 2, 0, 1), (1, 2)):
        with pytest.raises(ValueError, match="length"):
            v.contains_vector(bad)
    assert v <= w
    assert not w <= v
    assert v <= v


def test_prime_field_required():
    for q in (4, 6, 9, 1, 0):
        with pytest.raises(ValueError, match="prime"):
            Flag.standard(2, q)


def test_flag_from_basis_rejects_dependent_vectors():
    with pytest.raises(ValueError):
        Flag.from_basis([(1, 0, 1), (0, 1, 0), (1, 1, 1)], 2)


def test_flag_from_basis_rejects_wrong_lengths():
    for basis in (
        [(1, 0, 0), (0, 1, 0)],
        [(1, 0), (0, 1), (1, 1)],
        [(1, 0, 0), (0, 1), (0, 0, 1)],
    ):
        with pytest.raises(ValueError, match="length"):
            Flag.from_basis(basis, 3)


def test_equal_leads_do_not_make_equal_spans():
    a = Subspace([(1, 1, 0)], 3, 2)
    b = Subspace([(1, 0, 0)], 3, 2)
    assert a.pivots.keys() == b.pivots.keys()
    assert a != b
    c = Subspace([(1, 0, 1), (0, 1, 0)], 3, 3)
    d = Subspace([(1, 0, 2), (0, 1, 0)], 3, 3)
    assert c != d
    # the same rows over another field are another space
    assert Subspace([(1, 1, 0)], 3, 3) != a
    assert Subspace([(1, 0, 0)], 3, 3) != b


def test_flag_steps():
    e = Flag.standard(3, 2)
    assert e.step(0).dim == 0
    assert e.step(3).dim == 3
    for i in range(4):
        assert e.step(i).dim == i
    assert e.step(2) == Subspace([(1, 0, 0), (0, 1, 0)], 3, 2)
    with pytest.raises(ValueError):
        e.step(4)
    # the zero and whole steps are one pair per (n, q), built once
    other = Flag.permuted(Perm((3, 1, 2)), 2)
    assert other.step(0) is e.step(0) and other.step(3) is e.step(3)
    assert other.step(3).contains_vector((1, 1, 0))
    assert Flag.standard(3, 3).step(3) is not e.step(3)

    w = Perm((2, 3, 1))
    f = Flag.permuted(w, 3)
    for i in range(1, 4):
        units = [tuple(1 if c == w(r) else 0 for c in (1, 2, 3)) for r in range(1, i + 1)]
        assert f.step(i) == Subspace(units, 3, 3)


def test_coordinate_flags_are_cached():
    # the coordinate flag wE equals the one from_basis builds from the
    # permuted unit vectors
    for n, q in ((1, 2), (2, 3), (3, 2), (4, 5)):
        for w in enumerate_perms(n):
            f = Flag.permuted(w, q)
            units = [[int(j == w(i) - 1) for j in range(n)] for i in range(1, n + 1)]
            assert f == Flag.from_basis(units, q), (w, q)
    assert Flag.standard(3, 2) == Flag.permuted(Perm.identity(3), 2)
    assert Flag.permuted(Perm((2, 1)), 2) != Flag.permuted(Perm((2, 1)), 3)
    # q = 2.0 is refused, not read as 2
    with pytest.raises(ValueError, match="prime"):
        Flag.permuted(Perm((2, 1)), 2.0)


def test_chain_bases_span_the_enumerated_flags():
    for n, q in ((3, 2), (3, 3), (2, 5)):
        bases = list(flagmodel._chain_bases(n, q))
        flags = enumerate_flags(n, q)
        assert len(bases) == len(flags)
        for basis, flag in zip(bases, flags):
            assert _rank_fq(basis, q) == n
            # each step spanned on its own, not through _flag_steps
            spans = [Subspace(basis[:i], n, q) for i in range(1, n)]
            assert [s.dim for s in spans] == list(range(1, n))
            assert all(a <= b for a, b in zip(spans, spans[1:]))
            assert flag.steps == tuple(spans)
            assert Flag.from_basis(basis, q) == flag
    # flags come only from the builders, never from a list of steps
    for args in ((flags[0].steps, q), ()):
        with pytest.raises(TypeError):
            Flag(*args)


def test_flag_counts_frozen():
    expected = {
        (2, 2): 3,
        (3, 2): 21,
        (2, 3): 4,
        (3, 3): 52,
        (4, 2): 315,
        (4, 3): 2080,
        (3, 5): 186,
        (5, 2): 9765,
        (5, 3): 251680,
        (6, 2): 615195,
    }
    for (n, q), count in expected.items():
        assert flag_count(n, q) == count, (n, q)


def test_flag_entry_points_refuse_n_below_one():
    # no flag variety has n < 1, so none of them counts or labels one
    for n in (0, -2):
        calls = [lambda: f1(n, 2), lambda: flag_count(n, 2), lambda: enumerate_flags(n, 2),
                 lambda: tau(n)]
        # t <= n and t > n, which f_t would otherwise answer with zero
        calls += [lambda t=t: f_t(n, 2, t) for t in (n, n + 1, 0)]
        for call in calls:
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                call()


def test_enumerate_flags_complete_and_distinct():
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 5)):
        flags = enumerate_flags(n, q)
        assert len(flags) == flag_count(n, q)
        assert len(set(flags)) == len(flags)


def test_budget_refusals(monkeypatch):
    for n, q in ((5, 3), (6, 2)):
        with pytest.raises(BudgetExceeded):
            enumerate_flags(n, q)
    with pytest.raises(BudgetExceeded, match="budget"):
        enumerate_flags(3, 2, budget=20)
    assert issubclass(BudgetExceeded, ValueError)
    with pytest.raises(BudgetExceeded):
        convolve(f1(3, 2), f1(3, 2), budget=10)

    # the verifiers refuse before computing any orbit function
    def no_orbit_fns(*args):
        raise AssertionError("orbit function computed before the budget check")

    monkeypatch.setattr(flagmodel, "f1", no_orbit_fns)
    monkeypatch.setattr(flagmodel, "f_t", no_orbit_fns)
    for verify, n, q in (
        (verify_lemma3, 5, 3),
        (verify_lemma3, 6, 2),
        (verify_lemma3, 7, 2),
        (verify_span_commutativity, 7, 2),
        (verify_factorization, 8, 2),
    ):
        with pytest.raises(BudgetExceeded):
            verify(n, q)
    # within the budget, n = 9 is refused on the counting-field width,
    # still before any orbit function or structure tensor
    monkeypatch.setattr(flagmodel, "_tensor", no_orbit_fns)
    budget = 10**14
    assert flag_count(9, 2) <= budget
    for verify in (
        verify_lemma3,
        verify_factorization,
        verify_span_commutativity,
        compare_structure_constants,
    ):
        with pytest.raises(ValueError, match="n = 9 needs 72 bits, over 64"):
            verify(9, 2, budget=budget)
    with pytest.raises(ValueError, match="n = 9 needs 72 bits, over 64"):
        convolve(OrbitFn(9, 2), OrbitFn(9, 2), budget=budget)


def test_budget_refusal_comes_before_the_primality_test(monkeypatch, capsys):
    # [3]_q! is far over the budget at q = 2^61 - 1, and that refusal
    # must come before any primality test of q
    def no_prime_test(q):
        raise AssertionError("primality tested before the budget")

    monkeypatch.setattr(flagmodel, "_is_prime", no_prime_test)
    q = 2**61 - 1
    for call in (
        verify_lemma3,
        verify_factorization,
        verify_span_commutativity,
        compare_structure_constants,
        enumerate_flags,
    ):
        with pytest.raises(BudgetExceeded):
            call(3, q)
    assert main(["verify", "lemma3", "--n", "3", "--q", str(q)]) == 2
    assert "budget" in capsys.readouterr().err
    # within the budget the primality test still runs
    with pytest.raises(AssertionError, match="primality"):
        enumerate_flags(1, q)


# ---------------------------------------------------------------------------
# relative position


def _local_rref(rows, q):
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        for i in range(r, len(mat)):
            if mat[i][c] % q:
                mat[r], mat[i] = mat[i], mat[r]
                break
        else:
            continue
        inv = pow(mat[r][c], -1, q)
        mat[r] = [x * inv % q for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % q:
                f = mat[i][c]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [row for row in mat[:r]]


def _local_position(w_flag, v_flag):
    """Independent orbit label: rank-based intersection dimensions."""
    n, q = w_flag.n, w_flag.q

    def dim_cap(a, b):
        ra = len(_local_rref(a.rows, q)) if a.rows else 0
        rb = len(_local_rref(b.rows, q)) if b.rows else 0
        stacked = list(a.rows) + list(b.rows)
        rs = len(_local_rref(stacked, q)) if stacked else 0
        return ra + rb - rs

    d = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            d[i][j] = dim_cap(w_flag.step(i), v_flag.step(j))
    image = []
    for i in range(1, n + 1):
        js = [
            j
            for j in range(1, n + 1)
            if d[i][j] - d[i - 1][j] - d[i][j - 1] + d[i - 1][j - 1] == 1
        ]
        assert len(js) == 1
        image.append(js[0])
    return Perm(tuple(image))


def _random_matrices(rng, q):
    # zero, full, dependent, sparse, wide and tall matrices over F_q
    out = []
    for nrows, ncols in ((1, 1), (3, 3), (4, 4), (2, 5), (3, 6), (5, 2), (6, 3)):
        out.append([[0] * ncols for _ in range(nrows)])
        full = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        out.append(full)
        combo = [sum(rng.randrange(q) * row[j] for row in full[:-1]) for j in range(ncols)]
        out.append(full[:-1] + [combo])
        # entries outside [0, q) must be read mod q
        out.append([[x + q * rng.randrange(-2, 3) for x in row] for row in full])
        # mostly zeros, as in a chain matrix: a lead per row, leads that
        # repeat, a zero tail or one more entry after the lead, and
        # entries outside [0, q)
        sparse = []
        for _ in range(nrows):
            row = [0] * ncols
            lead = rng.randrange(ncols)
            row[lead] = rng.randrange(1, q) + q * rng.randrange(-1, 2)
            if lead + 1 < ncols and rng.randrange(2):
                row[rng.randrange(lead + 1, ncols)] = rng.randrange(-q, 2 * q)
            sparse.append(row)
        out.append(sparse)
    return out


def test_kernel_matches_local_rref():
    rng = random.Random(20261018)
    for q in (2, 3, 5, 7):
        for mat in _random_matrices(rng, q):
            reduced = [[x % q for x in row] for row in mat]
            local = [tuple(row) for row in _local_rref(reduced, q)]
            ncols = len(mat[0])
            sub = Subspace(mat, ncols, q)
            # the echelon rows span the space of the matrix
            assert [tuple(row) for row in _local_rref(sub.rows, q)] == local, (q, mat)
            for _ in range(4):
                v = [rng.randrange(q) for _ in range(ncols)]
                if rng.randrange(2):
                    # a combination of the rows, so inside the span
                    v = [sum(rng.randrange(q) * row[j] for row in reduced) for j in range(ncols)]
                inside = len(_local_rref(reduced + [v], q)) == len(local)
                assert sub.contains_vector(v) == inside, (q, mat, v)
            # split the rows into two subspaces and intersect them
            cut = len(mat) // 2
            a = Subspace(mat[:cut], ncols, q)
            b = Subspace(mat[cut:], ncols, q)
            dims = [len(_local_rref(rows, q)) for rows in (reduced[:cut], reduced[cut:], reduced)]
            assert flagmodel._intersection_dim(a, b) == dims[0] + dims[1] - dims[2], (q, mat)


def test_enumerate_flags_matches_per_step_rref():
    # the echelon rows of every step against the local rref of every prefix
    for n, q in FLAG_GRID:
        want = [
            tuple(tuple(map(tuple, _local_rref(basis[:i], q))) for i in range(1, n))
            for basis in flagmodel._chain_bases(n, q)
        ]
        got = [
            tuple(tuple(map(tuple, _local_rref(s.rows, q))) for s in f.steps)
            for f in enumerate_flags(n, q)
        ]
        assert got == want, (n, q)


def test_representative_pairs_label_correctly():
    for q in (2, 3):
        for n in (2, 3, 4):
            for w in enumerate_perms(n):
                wf, vf = representative_pair(w, q)
                assert relative_position(wf, vf) == w


def test_position_of_flag_with_itself():
    for flag in enumerate_flags(3, 2):
        assert relative_position(flag, flag).is_identity()


def test_position_swap_inverts():
    flags = enumerate_flags(3, 2)
    for wf in flags[::3]:
        for vf in flags[::4]:
            assert relative_position(vf, wf) == relative_position(wf, vf).inverse()


def test_position_matches_local_oracle():
    for n, q in ((3, 2), (2, 3)):
        flags = enumerate_flags(n, q)
        for wf in flags:
            for vf in flags:
                assert relative_position(wf, vf) == _local_position(wf, vf)


def test_position_rejects_mismatched_flags():
    with pytest.raises(ValueError):
        relative_position(Flag.standard(3, 2), Flag.standard(3, 3))
    with pytest.raises(ValueError):
        relative_position(Flag.standard(2, 2), Flag.standard(3, 2))


def test_gl_action_preserves_position():
    check_gl_invariance(3, 2)
    check_gl_invariance(3, 3)


def test_orbits_match_labels_bruteforce():
    check_orbit_partition_matches_bruteforce(2, 2)
    check_orbit_partition_matches_bruteforce(3, 2)


# ---------------------------------------------------------------------------
# the sets X_t


def _in_x_t_oracle(w_flag, v_flag, t):
    """Minimal inclusion indices recomputed with test-local ranks.

    m_r = min{i : W_r contained in V_i} must rise strictly for
    r = 1, ..., n - t.
    """
    n, q = w_flag.n, w_flag.q

    def contained(a, b):
        if not a.rows:
            return True
        return _rank_fq(list(a.rows) + list(b.rows), q) == _rank_fq(list(b.rows), q)

    prev = 0
    for r in range(1, n - t + 1):
        m = min(i for i in range(1, n + 1) if contained(w_flag.step(r), v_flag.step(i)))
        if m <= prev:
            return False
        prev = m
    return True


def test_in_x_t_matches_local_rank_oracle():
    flags = enumerate_flags(3, 2)
    for wf in flags:
        for vf in flags:
            for t in range(4):
                assert in_x_t(wf, vf, t) == _in_x_t_oracle(wf, vf, t), (wf, vf, t)


def test_x_t_membership_is_a_label_property():
    # membership depends only on the orbit label w, and equals the
    # condition that w(1), ..., w(n-t) is increasing
    flags = enumerate_flags(3, 2)
    for wf in flags:
        for vf in flags:
            w = relative_position(wf, vf)
            for t in range(4):
                prefix = [w(r) for r in range(1, 3 - t + 1)]
                expected = all(a < b for a, b in zip(prefix, prefix[1:]))
                assert in_x_t(wf, vf, t) == expected, (w, t)


def test_f_t_support_size():
    # |support of f_t| = C(n, t) * t!: values after position n - t are free
    import math

    for n, q in ((3, 2), (4, 2)):
        for t in range(n + 1):
            expect = math.comb(n, t) * math.factorial(t)
            assert len(f_t(n, q, t).support()) == expect


def test_x_t_chain_is_increasing():
    flags = enumerate_flags(3, 2)
    for wf in flags[::2]:
        for vf in flags[::3]:
            for t in range(3):
                if in_x_t(wf, vf, t):
                    assert in_x_t(wf, vf, t + 1)


def test_in_x_t_validates_t():
    e = Flag.standard(3, 2)
    with pytest.raises(ValueError):
        in_x_t(e, e, -1)
    with pytest.raises(ValueError):
        in_x_t(e, e, 4)


# ---------------------------------------------------------------------------
# orbit functions


def test_orbitfn_basics():
    e = Perm.identity(3)
    s = Perm((2, 1, 3))
    f = OrbitFn(3, 2, {e: 2, s: -1})
    assert f[e] == 2
    assert f[s] == -1
    assert f[Perm((3, 2, 1))] == 0
    assert f.support() == [e, s]
    g = OrbitFn.indicator(s, 2)
    assert (f + g)[s] == 0
    assert (f + g).support() == [e]
    assert (3 * f)[e] == 6
    assert (f * 3)[e] == 6
    assert f - f == OrbitFn(3, 2)
    assert (f - f).is_zero()
    assert str(OrbitFn(3, 2)) == "0"
    assert str(g) == "e[2 1 3]"
    assert str(2 * g - 3 * OrbitFn.indicator(e, 2)) == "-3*e[1 2 3] + 2*e[2 1 3]"


def test_orbitfn_validation():
    with pytest.raises(TypeError):
        OrbitFn(3, 2, {Perm.identity(3): 1.5})
    with pytest.raises(ValueError):
        OrbitFn(3, 2, {Perm.identity(2): 1})
    a = OrbitFn(3, 2)
    b = OrbitFn(3, 3)
    with pytest.raises(ValueError):
        a + b


def test_orbitfn_sums_repeated_labels():
    # pairs add up as in HeckeElt, and a zero sum is no value
    w = Perm((2, 1))
    assert OrbitFn(2, 2, [(w, 1), (w, 1)]).values == {w: 2}
    assert OrbitFn(2, 2, [(w, 1), (w, 0)]).values == {w: 1}
    assert OrbitFn(2, 2, [(w, 1), (w, -1)]).values == {}
    assert OrbitFn(2, 2, [(w, 1), (w, -1)]).is_zero()
    assert HeckeElt(2, [(w, 1), (w, 1)]).terms == {w: 2}
    assert HeckeElt(2, [(w, 1), (w, -1)]).terms == {}


def test_f_t_edges():
    for n, q in ((3, 2), (3, 3)):
        assert f_t(n, q, 0) == OrbitFn.indicator(Perm.identity(n), q)
        ones = OrbitFn(n, q, {w: 1 for w in enumerate_perms(n)})
        assert f_t(n, q, n) == ones
        assert f_t(n, q, n - 1) == ones
        assert f_t(n, q, n + 1).is_zero()
        assert f_t(n, q, n + 5).is_zero()


def test_f1_is_f_t_of_one():
    for n, q in ((3, 2), (3, 3), (4, 2)):
        assert f1(n, q) == f_t(n, q, 1)


def test_orbit_fns_match_the_literal_predicates():
    # the coordinate rules of f1 and f_t against _is_f1_pair and in_x_t
    # on the representative pairs (wE, E)
    for n, q in FLAG_GRID:
        std = Flag.standard(n, q)
        pairs = [(w, Flag.permuted(w, q)) for w in enumerate_perms(n)]
        want = {w: 1 for w, wf in pairs if flagmodel._is_f1_pair(wf, std)}
        assert f1(n, q) == OrbitFn(n, q, want), (n, q)
        for t in range(n + 2):
            want = {w: 1 for w, wf in pairs if t <= n and in_x_t(wf, std, t)}
            assert f_t(n, q, t) == OrbitFn(n, q, want), (n, q, t)


def test_f1_support_and_values():
    for n, q in ((2, 2), (3, 2), (3, 3), (4, 2)):
        f = f1(n, q)
        assert set(f.support()) == {cycle_element(g, n) for g in range(1, n + 1)}
        assert f == OrbitFn(n, q, tau(n).specialize(q))


# ---------------------------------------------------------------------------
# convolution


def _conv_tables_oracle(n, q):
    """Literal middle-flag sums for every ordered pair of orbit labels."""
    flags = enumerate_flags(n, q)
    std = Flag.standard(n, q)
    right = [relative_position(m, std) for m in flags]
    tables = {}
    for z in enumerate_perms(n):
        z_flag = Flag.permuted(z, q)
        left = [relative_position(z_flag, m) for m in flags]
        for x, y in zip(left, right):
            table = tables.setdefault((x, y), {})
            table[z] = table.get(z, 0) + 1
    return tables


def _expanded(n, rows):
    """The tensor as n!^2 dicts, slot x * n! + y, from its rows per K-orbit.

    Each slot reads its orbit's row with the labels moved by the
    relabel list of _slot_orbits.
    """
    _, row_of, relabel_of = flagmodel._slot_orbits(n)
    return [{relabel[z]: c for z, c in rows[r].items()} for r, relabel in zip(row_of, relabel_of)]


def test_convolution_matches_middle_flag_oracle():
    rng = random.Random(5)
    values = (-3, -2, -1, 1, 2, 3)
    # sum over M of h(M, V) is sum_y h(y) q^l(y) = 0 for these h, so the
    # all-ones function times h vanishes although no product is zero
    cancelling = {(3, 2): (2, 1, 2, 1, 1, -2), (3, 3): (3, 1, 1, 1, 1, -1)}
    # products read cell slices at q = 2 and at odd q; the whole tensor
    # below, from the byte lanes of F_2, meets the same oracle
    for n, q in ((2, 2), (3, 2), (3, 3), (3, 5)):
        perms = enumerate_perms(n)
        tables = _conv_tables_oracle(n, q)
        for x in perms:
            for y in perms:
                got = convolve(OrbitFn.indicator(x, q), OrbitFn.indicator(y, q))
                assert got.values == tables.get((x, y), {}), (x, y)
        if (n, q) not in cancelling:
            continue
        # dense signed factors, against the bilinear expansion of the oracle
        ones = OrbitFn(n, q, {w: 1 for w in perms})
        h = OrbitFn(n, q, dict(zip(sorted(perms, key=Perm.length), cancelling[n, q])))
        assert convolve(ones, h).is_zero() and convolve(h, ones).is_zero()
        pairs = [(ones, h), (h, ones)]
        for _ in range(3):
            pairs.append(tuple(
                OrbitFn(n, q, {w: rng.choice(values) for w in perms}) for _ in range(2)
            ))
        for f, g in pairs:
            expected = {}
            for (x, y), table in tables.items():
                for z, cnt in table.items():
                    expected[z] = expected.get(z, 0) + f[x] * g[y] * cnt
            expected = {z: c for z, c in expected.items() if c}
            assert convolve(f, g).values == expected, (n, q, f, g)
    # one larger size, compared as a whole tensor
    perms = enumerate_perms(4)
    got = {}
    for key, counts in enumerate(_expanded(4, flagmodel._tensor(4, 2))):
        x, y = divmod(key, len(perms))
        got[perms[x], perms[y]] = {perms[z]: cnt for z, cnt in counts.items()}
    assert got == _conv_tables_oracle(4, 2)


def test_edge_sizes():
    for q in (2, 3):
        for n in (1, 2):
            base = f1(n, q)
            assert base == OrbitFn(n, q, tau(n).specialize(q))
            assert convolve(base, base) == OrbitFn(n, q, mul(tau(n), tau(n)).specialize(q))
            result = compare_structure_constants(n, q)
            assert result.passed, (n, q, result.details)
            assert result.details[0]["pairs"] == len(enumerate_perms(n)) ** 2
        assert verify_lemma3(2, q).passed


def test_convolution_unit():
    f0 = OrbitFn.indicator(Perm.identity(3), 2)
    for f in (f1(3, 2), f_t(3, 2, 2), 3 * f1(3, 2) - 2 * f0):
        assert convolve(f0, f) == f
        assert convolve(f, f0) == f


def test_convolution_bilinear_associative():
    check_convolution_associativity(3, 2)


def test_convolution_debug_representative_agrees():
    # both row backends: byte lanes over F_2 and lists mod q; the
    # cross-check passes and leaves the products as they were
    for n, q in ((3, 3), (3, 2), (4, 2)):
        before = convolve(f1(n, q), f1(n, q))
        assert check_orbit_representatives(n, q) is None
        assert convolve(f1(n, q), f1(n, q)) == before
    with pytest.raises(BudgetExceeded):
        check_orbit_representatives(5, 3)


def _tensor_products(acc, n, q, f, g):
    """Add f * g to acc, f and g as (label index, value) pairs, off the full tensor.

    Slot x * n! + y reads the row of its K-orbit through the relabel
    list of _slot_orbits: the product kernel before cell-local slices,
    kept as convolve's oracle.
    """
    rows = flagmodel._tensor(n, q)
    _, row_of, relabel_of = flagmodel._slot_orbits(n)
    nperms = len(acc)
    for x, a in f:
        base = x * nperms
        for y, b in g:
            s = base + y
            relabel = relabel_of[s]
            ab = a * b
            for z, c in rows[row_of[s]].items():
                acc[relabel[z]] += c * ab


def _tensor_product(f, g):
    perms = enumerate_perms(f.n)
    acc = [0] * len(perms)
    _tensor_products(acc, f.n, f.q, flagmodel._indexed(f), flagmodel._indexed(g))
    return OrbitFn(f.n, f.q, {w: c for w, c in zip(perms, acc) if c})


def _cells(f):
    # the flags in the cells of supp f
    return sum(f.q ** w.length() for w in f.values)


def test_cells_partition_the_flags():
    # every flag of a cell is in its position, the cell of y holds
    # q^l(y) distinct flags, and the cells partition the flags: against
    # the literal layer on small sizes, by count on the grid
    for n, q in ((1, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        std = Flag.standard(n, q)
        seen = set()
        for y in enumerate_perms(n):
            cell = [Flag.from_basis(list(zip(*cols)), q)
                    for cols in flagmodel._cell_columns(n, q, y)]
            assert len(cell) == len(set(cell)) == q ** y.length(), (n, q, y)
            assert all(relative_position(m, std) == y for m in cell), (n, q, y)
            seen.update(cell)
        assert seen == set(enumerate_flags(n, q)), (n, q)
    for n, q in FLAG_GRID:
        sizes = [sum(1 for _ in flagmodel._cell_columns(n, q, y)) for y in enumerate_perms(n)]
        assert sizes == [q ** y.length() for y in enumerate_perms(n)], (n, q)
        assert sum(sizes) == flag_count(n, q), (n, q)
    # the Poincare polynomial sum_y q^l(y) = [n]_q! past the grid
    for n, q in ((4, 5), (6, 2), (6, 3)):
        assert sum(q ** y.length() for y in enumerate_perms(n)) == flag_count(n, q)


def test_slices_match_the_tensor_columns():
    # slice y, counted over its cell, is column y of the full tensor; at
    # q = 2 it reads the lanes of its cell, so it must also equal the
    # slice counted from the per-flag lattice of that cell
    for n, q in FLAG_GRID:
        perms = enumerate_perms(n)
        nperms = len(perms)
        table = _expanded(n, flagmodel._tensor(n, q))
        for y in range(nperms):
            column = [{} for _ in range(nperms)]
            for x in range(nperms):
                for z, c in table[x * nperms + y].items():
                    column[z][x] = c
            assert flagmodel._slice(n, q, y) == column, (n, q, y)
            if q == 2:
                per_flag = flagmodel._flag_masks(flagmodel._cell_columns(n, q, perms[y]), n, q)
                assert flagmodel._cell_slice(n, q, y, per_flag) == column, (n, q, y)


def test_key_count_tables_are_built_once_per_n(monkeypatch):
    # the first slice at n = 4 builds the per-n tables of _label_chains;
    # a slice of another cell names no chain again
    n, q = 4, 2
    perms = enumerate_perms(n)
    flagmodel._cell_slice(n, q, 0, flagmodel._pivot_masks(n, q, perms[:1]))
    name, calls = flagmodel._chain_name, []

    def counted_name(*args):
        calls.append(args)
        return name(*args)

    monkeypatch.setattr(flagmodel, "_chain_name", counted_name)
    flagmodel._cell_slice(n, q, len(perms) - 1, flagmodel._pivot_masks(n, q, perms[-1:]))
    assert calls == []


def _fault_cells(monkeypatch, fault):
    # every cell the fast side reads goes through fault(column lists,
    # label): the lanes of _chain_lanes at q = 2, _cell_columns at other
    # q and in the cross-check at every q
    lanes, cells = flagmodel._chain_lanes, flagmodel._cell_columns

    def faulty_lanes(n, labels):
        columns = [cols for y in labels for cols in fault(_unlane(*lanes(n, [y])), y)]
        return _relane(columns), len(columns)

    monkeypatch.setattr(flagmodel, "_chain_lanes", faulty_lanes)
    monkeypatch.setattr(flagmodel, "_cell_columns", lambda n, q, y: fault(list(cells(n, q, y)), y))


def test_slice_refuses_a_faulty_cell(monkeypatch, capsys):
    n = 3
    perms = enumerate_perms(n)
    longest = perms.index(Perm((3, 2, 1)))
    for q in (2, 3):
        stray = next(flagmodel._cell_columns(n, q, Perm.identity(n)))
        # the cached tensor and slices that the cross-check and lemma3
        # read below are counted on the true cells, whatever ran before
        flagmodel._tensor(n, q)
        for y in range(len(perms)):
            flagmodel._slice(n, q, y)
        size = q ** 3
        faults = (
            (lambda c, y: c[1:], f"enumerated {size - 1} flags, expected {size}"),
            (lambda c, y: c + c[:1], f"enumerated {size + 1} flags, expected {size}"),
            (lambda c, y: c[:-1] + [stray],
             rf"the cell of \(3 2 1\) holds {size - 1} flags, expected {size}"),
        )
        for fault, message in faults:
            _fault_cells(monkeypatch, fault)
            with pytest.raises(ArithmeticError, match=message):
                flagmodel._slice.__wrapped__(n, q, longest)
            monkeypatch.undo()
        # one flag dropped and another doubled keeps the count and every y
        # part, so only the cross-check of --debug-orbit-checks catches it:
        # its moved cells are the faulty ones, and the first cell of
        # several flags, (1 3 2), is the first to differ from the tensor
        _fault_cells(monkeypatch, lambda c, y: c[:-1] + c[:1])
        flagmodel._slice.__wrapped__(n, q, longest)
        moved = f"slice (1 3 2) at n = 3, q = {q} differs from the structure tensor"
        with pytest.raises(ArithmeticError, match=re.escape(moved)):
            check_orbit_representatives(n, q)
        assert main(["verify", "lemma3", "--n", "3", "--q", str(q), "--debug-orbit-checks",
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == ["lemma3", "orbit-representatives"]
        assert doc["checks"][0]["pass"] and not doc["checks"][1]["pass"]
        assert moved in doc["checks"][1]["details"][0]["witness"]
        monkeypatch.undo()


def test_census_names_a_cell_that_keeps_the_total(monkeypatch):
    # one flag of the cell of (3 2 1) dropped and one of (1 3 2) doubled
    # keeps flag_count(n, q), so only the count of each cell on the
    # identity chain refuses the full tensor; at q = 2 the lanes carry the
    # fault.  The failed build leaves no tensor cached
    n = 3
    drop, double = Perm((3, 2, 1)), Perm((1, 3, 2))
    tensors = {q: flagmodel._tensor(n, q) for q in (2, 3)}
    flagmodel._tensor.cache_clear()
    _fault_cells(monkeypatch, lambda c, y: c[1:] if y == drop else c + c[:1] if y == double else c)
    for q in (2, 3):
        message = rf"the cell of \(1 3 2\) holds {q + 1} flags, expected {q}"
        with pytest.raises(ArithmeticError, match=message):
            flagmodel._tensor(n, q)
    assert flagmodel._tensor.cache_info().currsize == 0
    monkeypatch.undo()
    assert {q: flagmodel._tensor(n, q) for q in (2, 3)} == tensors


def test_convolve_matches_the_tensor_products():
    # seeded random supports, so that both the direct read of the slices
    # of supp g and the transposed read of those of supp f run
    rng = random.Random(26)
    turned = set()
    for n, q in FLAG_GRID:
        perms = enumerate_perms(n)
        for _ in range(6):
            f, g = (OrbitFn(n, q, {w: rng.choice((-2, -1, 1, 3))
                                   for w in rng.sample(perms, rng.randint(1, len(perms)))})
                    for _ in range(2))
            turned.add(_cells(g) > _cells(f))
            assert convolve(f, g) == _tensor_product(f, g), (n, q, f, g)
    assert turned == {False, True}


def _unlane(lanes, count):
    # the column lists of every flag: byte f of lanes[j][i] is entry i
    # of column j of flag f
    planes = [[x.to_bytes(count, "little") for x in col] for col in lanes]
    return [[[p[f] for p in col] for col in planes] for f in range(count)]


def _relane(columns):
    # the inverse of _unlane
    n = len(columns[0])
    return [[int.from_bytes(bytes(cols[j][i] for cols in columns), "little") for i in range(n)]
            for j in range(n)]


def _flag_columns(n, q):
    # the columns of every chain matrix, flag by flag, cell by cell
    return [cols for y in enumerate_perms(n) for cols in flagmodel._cell_columns(n, q, y)]


def _dense_move(cols, q):
    # the oracle of _moved_columns: moved column i = sum_j h_ij column j
    # mod q, h upper unitriangular with ones on the diagonal and the
    # superdiagonal
    n = len(cols)
    h = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    return [[sum(c * col[k] for c, col in zip(row, cols)) % q for k in range(n)] for row in h]


def _basis_columns(n, q):
    # the same flags from the literal layer's enumeration, leads first
    return [[list(c) for c in zip(*basis)] for basis in flagmodel._chain_bases(n, q)]


def _patterns(n, groups):
    """Every flag's pattern, byte b = Q(b), with its weight, from the buffers."""
    full = (1 << n) - 1
    patterns = {}
    for weight, masks in groups.items():
        count = len(masks) // full
        for p in range(count):
            pattern = masks[p::count]
            patterns[pattern] = patterns.get(pattern, 0) + weight
    return patterns


def test_chain_lanes_match_the_cell_stream():
    # entry by entry, in the flag order of the cells, for all cells at
    # once and for each cell alone
    for n in range(1, 6):
        perms = enumerate_perms(n)
        expected = _flag_columns(n, 2)
        lanes, count = flagmodel._chain_lanes(n, perms)
        assert count == flag_count(n, 2), n
        assert _unlane(lanes, count) == expected, n
        assert _relane(expected) == lanes, n
        for y in perms:
            assert _unlane(*flagmodel._chain_lanes(n, [y])) == list(
                flagmodel._cell_columns(n, 2, y)), (n, y)


def test_count_check_fires_on_a_dropped_cell(monkeypatch):
    # the cell of the longest permutation, q^3 flags at n = 3, goes
    # missing from the labels that _tensor hands the lanes and the cell
    # stream of _pivot_masks; the census of _count refuses the total,
    # and the failed build leaves no tensor cached
    n = 3
    perms = enumerate_perms(n)
    tensors = {q: flagmodel._tensor(n, q) for q in (2, 3)}
    flagmodel._tensor.cache_clear()
    monkeypatch.setattr(flagmodel, "enumerate_perms", lambda n: perms[:-1])
    for q, count, total in ((2, 13, 21), (3, 25, 52)):
        with pytest.raises(ArithmeticError, match=f"enumerated {count} flags, expected {total}"):
            flagmodel._tensor(n, q)
    assert flagmodel._tensor.cache_info().currsize == 0
    monkeypatch.undo()
    assert {q: flagmodel._tensor(n, q) for q in (2, 3)} == tensors


def test_packed_f2_backend_matches_generic():
    # the lane lattice against the flag-by-flag one at q = 2, on the
    # chain matrices and, relaned, on their moved copies of the debug
    # rebuild, and cell by cell as _slice reads it
    for n in range(1, 6):
        perms = enumerate_perms(n)
        lanes, count = flagmodel._chain_lanes(n, perms)
        columns = _flag_columns(n, 2)
        moved_columns = [flagmodel._moved_columns(cols, 2) for cols in columns]
        assert _unlane(lanes, count) == columns, n
        for chains, cols in ((lanes, columns), (_relane(moved_columns), moved_columns)):
            got, want = flagmodel._lane_masks(chains, n, count), flagmodel._flag_masks(cols, n, 2)
            assert _patterns(n, got) == _patterns(n, want), n
            assert flagmodel._count(n, 2, got) == flagmodel._tensor(n, 2), n
            assert flagmodel._count(n, 2, want) == flagmodel._tensor(n, 2), n
        assert flagmodel._pivot_masks(n, 2, perms) == flagmodel._lane_masks(lanes, n, count), n
        for y in perms:
            got = flagmodel._pivot_masks(n, 2, [y])
            want = flagmodel._flag_masks(flagmodel._cell_columns(n, 2, y), n, 2)
            assert _patterns(n, got) == _patterns(n, want), (n, y)


def test_orbit_check_at_q2_reads_no_lanes(monkeypatch):
    # the moved rebuild runs flag by flag at q = 2 too, so the
    # cross-check compares the cached lane-built tensor with the
    # per-flag lattice and reads no lane of its own
    for n in range(2, 6):
        flagmodel._tensor(n, 2)

    def refuse(*args):
        raise AssertionError("the cross-check read the lane lattice")

    monkeypatch.setattr(flagmodel, "_chain_lanes", refuse)
    monkeypatch.setattr(flagmodel, "_lane_masks", refuse)
    for n in range(2, 6):
        assert check_orbit_representatives(n, 2) is None


def test_orbit_check_reduces_each_flag_once(monkeypatch):
    # with the tensor cached, the cross-check sends every flag through
    # the per-flag lattice once, cell by cell, and recounts no full tensor
    points = ((4, 2), (3, 3), (4, 3))
    for n, q in points:
        flagmodel._tensor(n, q)
    masks = flagmodel._flag_masks
    read = [0]

    def counted_masks(columns, n, q):
        def counted():
            for cols in columns:
                read[0] += 1
                yield cols
        return masks(counted(), n, q)

    def refuse(*args):
        raise AssertionError("the cross-check recounted the full tensor")

    monkeypatch.setattr(flagmodel, "_flag_masks", counted_masks)
    monkeypatch.setattr(flagmodel, "_count", refuse)
    for n, q in points:
        read[0] = 0
        assert check_orbit_representatives(n, q) is None
        assert read[0] == flag_count(n, q), (n, q)


def test_orbit_check_catches_a_faulty_lane_lattice(monkeypatch):
    masks = flagmodel._lane_masks
    # the flag with chain basis e_1, e_2 + e_3, e_2
    f = _flag_columns(3, 2).index([[1, 0, 0], [0, 1, 1], [0, 1, 0]])

    def faulty(lanes, n, count):
        # byte count + f is Q(b) of flag f for b = {the first column}:
        # its pivot moves from the first row to the second, which leaves
        # every chain of pivot sets a chain, so the count runs and only
        # the tensor is wrong
        [buf] = masks(lanes, n, count).values()
        buf = bytearray(buf)
        assert buf[count + f] == 0b01
        buf[count + f] = 0b10
        return {1: bytes(buf)}

    monkeypatch.setattr(flagmodel, "_lane_masks", faulty)
    # no tensor built from the faulty lattice outlives this test
    flagmodel._tensor.cache_clear()
    try:
        with pytest.raises(ArithmeticError,
                           match="at n = 3, q = 2 differs from the structure tensor"):
            check_orbit_representatives(3, 2)
    finally:
        flagmodel._tensor.cache_clear()


def test_orbit_check_catches_a_corrupted_orbit_row(capsys):
    # one stored count of the cached K-orbit rows, raised by one, row by
    # row; lemma3 reads the slices, not the rows, so it still passes
    n = 3
    try:
        for q in (2, 3):
            rows = flagmodel._tensor(n, q)
            message = f"at n = {n}, q = {q} differs from the structure tensor"
            for counts in rows:
                z = min(counts)
                counts[z] += 1
                with pytest.raises(ArithmeticError, match=message):
                    check_orbit_representatives(n, q)
                counts[z] -= 1
            counts = rows[len(rows) // 2]
            counts[min(counts)] += 1
            assert main(["verify", "lemma3", "--n", str(n), "--q", str(q),
                         "--debug-orbit-checks", "--format", "json"]) == 1
            doc = json.loads(capsys.readouterr().out)
            assert [c["name"] for c in doc["checks"]] == ["lemma3", "orbit-representatives"]
            lemma3, orbit = doc["checks"]
            assert lemma3["pass"] and not orbit["pass"]
            assert orbit["params"] == {"n": n, "q": q}
            [row] = orbit["details"]
            assert row["pass"] is False and message in row["witness"], q
    finally:
        flagmodel._tensor.cache_clear()


def test_lattices_refuse_dependent_columns():
    # column 2 of one flag repeats its column 1, so the subset {1, 2}
    # has no new pivot there
    n = 3
    columns = _unlane(*flagmodel._chain_lanes(n, enumerate_perms(n)))
    columns[5][2] = columns[5][1]
    with pytest.raises(ArithmeticError, match="dependent columns have no pivot"):
        flagmodel._lane_masks(_relane(columns), n, len(columns))
    with pytest.raises(ArithmeticError, match="dependent columns have no pivot"):
        flagmodel._flag_masks(columns, n, 2)


def _label_chain(image, n):
    # B_k = the coordinates outside image[:k], as masks, for k = 1..n-1
    full = (1 << n) - 1
    return [full ^ sum(1 << (i - 1) for i in image[:k]) for k in range(1, n)]


def _scatter(n, patterns):
    """The tensor by one dict update per (pattern, z): the counting kernel's oracle.

    Each pattern is read at the chain subsets of every z with a tuple
    getter, and the tuple of pivot sets is looked up as a label's chain.
    """
    perms = enumerate_perms(n)
    nperms = len(perms)
    index = {w: i for i, w in enumerate(perms)}

    def chain(w):
        return _label_chain(w.image, n)

    getters = [_tuple_getter(chain(z)) for z in perms]
    x_keys = {tuple(chain(x)): xi * nperms for xi, x in enumerate(perms)}
    y_keys = {tuple(chain(x)): index[x.inverse()] for x in perms}
    out = [dict() for _ in range(nperms * nperms)]
    for pattern, count in patterns.items():
        y = y_keys[getters[0](pattern)]
        for z, getter in enumerate(getters):
            counts = out[x_keys[getter(pattern)] + y]
            counts[z] = counts.get(z, 0) + count
    return out


def test_counting_kernel_matches_the_scatter():
    weight_groups = set()
    for n, q in FLAG_GRID:
        groups = flagmodel._pivot_masks(n, q, enumerate_perms(n))
        patterns = _patterns(n, groups)
        assert sum(patterns.values()) == flag_count(n, q)
        weight_groups.add(len(groups))
        assert _expanded(n, flagmodel._tensor(n, q)) == _scatter(n, patterns), (n, q)
    # patterns of several weights are counted in separate groups
    assert max(weight_groups) > 1


def _star(w):
    # w0 w w0
    n = w.n
    return Perm(tuple(n + 1 - v for v in reversed(w.image)))


def test_scatter_obeys_the_transpose_and_duality_identities():
    # count_z(x, y) = count_{z^-1}(y^-1, x^-1) = count_{z*}(x*, y*) on
    # the per-flag oracle, so on no output of the counting kernel
    for n, q in (*FLAG_GRID, (4, 5)):
        perms = enumerate_perms(n)
        nperms = len(perms)
        index = {w: i for i, w in enumerate(perms)}
        inverse = [index[w.inverse()] for w in perms]
        star = [index[_star(w)] for w in perms]
        full = _scatter(n, _patterns(n, flagmodel._pivot_masks(n, q, perms)))
        for x, y in itertools.product(range(nperms), repeat=2):
            counts = full[x * nperms + y]
            turned = full[inverse[y] * nperms + inverse[x]]
            starred = full[star[x] * nperms + star[y]]
            assert turned == {inverse[z]: c for z, c in counts.items()}, (n, q, x, y)
            assert starred == {star[z]: c for z, c in counts.items()}, (n, q, x, y)


def test_tensor_counts_once_per_symmetry_orbit(monkeypatch):
    # one Counter run per K-orbit of labels z and one stored row per
    # K-orbit of slots (x, y); at q = 2 every pattern has weight 1, so
    # each run is one Counter
    runs = []

    class Counted(flagmodel.Counter):
        def __init__(self, *args, **kwargs):
            runs.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(flagmodel, "Counter", Counted)
    for n, labels, rows in ((4, 13, 172), (5, 45, 3676)):
        runs.clear()
        tensor = flagmodel._count(n, 2, flagmodel._pivot_masks(n, 2, enumerate_perms(n)))
        assert (len(runs), len(tensor)) == (labels, rows), n
        assert len(flagmodel._slot_orbits(n)[0]) == rows, n
    # the label orbits {z, z^-1, z*, z*^-1} at n = 6
    perms = enumerate_perms(6)
    orbits = {frozenset({w, w.inverse(), _star(w), _star(w).inverse()}) for w in perms}
    assert len(orbits) == 230


def test_chain_names_are_distinct_and_fit_the_field():
    for n in range(1, 9):
        bits = n * (n - 1).bit_length()
        fmt, size = flagmodel._key_field(n)
        assert 2 * bits <= 8 * size and len(memoryview(bytes(size)).cast(fmt)) == 1
        names = set()
        for image in itertools.permutations(range(1, n + 1)):
            name = flagmodel._chain_name(_label_chain(image, n), n)
            assert 0 <= name < 1 << bits, (n, image)
            names.add(name)
        assert len(names) == math.factorial(n), n
    # the plain sum of the masks does not name a chain: it collides at n = 4
    sums = [sum(_label_chain(image, 4)) for image in itertools.permutations(range(1, 5))]
    assert len(set(sums)) < len(sums)


def test_counting_field_width_guard(monkeypatch):
    def refuse(*args):
        raise AssertionError("flags or labels were enumerated")

    monkeypatch.setattr(flagmodel, "_chain_bases", refuse)
    monkeypatch.setattr(flagmodel, "_chain_lanes", refuse)
    monkeypatch.setattr(flagmodel, "_cell_columns", refuse)
    monkeypatch.setattr(flagmodel, "_cell_layout", refuse)
    monkeypatch.setattr(flagmodel, "enumerate_perms", refuse)
    # 10**14 is over flag_count(9, 2), so only the field width refuses
    for call in (lambda: flagmodel._tensor(9, 2),
                 lambda: check_orbit_representatives(9, 2, 10**14),
                 lambda: flagmodel._count(9, 2, {})):
        with pytest.raises(ValueError, match="72 bits, over 64"):
            call()


def test_debug_rebuild_moves_every_chain_matrix():
    # the second representative must really differ, flag by flag, and
    # still give the same tensor, on both lattices, by the counting
    # kernel and by its oracle, and keep every flag in its cell; the
    # move matches its dense product on every chain matrix
    for n, q in FLAG_GRID:
        if n < 2:
            continue
        before = _flag_columns(n, q)
        after = [flagmodel._moved_columns(cols, q) for cols in before]
        assert after == [_dense_move(cols, q) for cols in before], (n, q)
        assert len(after) == len(before) == flag_count(n, q), (n, q)
        assert all(a != b for a, b in zip(after, before)), (n, q)
        groups = flagmodel._flag_masks(after, n, q)
        tensor = flagmodel._tensor(n, q)
        assert flagmodel._count(n, q, groups) == tensor, (n, q)
        assert _scatter(n, _patterns(n, groups)) == _expanded(n, tensor), (n, q)
    # h keeps every cell: by the literal layer, each moved chain matrix
    # spans a flag in the position of its cell, and is another matrix
    for n, q in ((3, 2), (3, 3), (3, 5), (4, 2)):
        std = Flag.standard(n, q)
        for y in enumerate_perms(n):
            for cols in flagmodel._cell_columns(n, q, y):
                moved = flagmodel._moved_columns(cols, q)
                assert moved != cols, (n, q, y)
                flag = Flag.from_basis(list(zip(*moved)), q)
                assert relative_position(flag, std) == y, (n, q, y, moved)


def _holds_chains(value, n):
    # a chain matrix is n rows of n ints; a lane is an int of one byte
    # per flag, far past any count or label the tensor keeps
    if isinstance(value, int):
        return value.bit_length() > 64
    if isinstance(value, dict):
        return _holds_chains(list(value.items()), n)
    if isinstance(value, (list, tuple)):
        if len(value) == n and all(
            isinstance(row, (list, tuple)) and len(row) == n
            and all(isinstance(x, int) for x in row) for row in value
        ):
            return True
        return any(_holds_chains(v, n) for v in value)
    return False


def test_tensor_streams_the_chain_matrices(monkeypatch):
    # at odd q each flag's chain matrix is reduced as soon as it is
    # written, and the cached tensor keeps none of them, nor a lane at q = 2
    events = []
    cells, step = flagmodel._cell_columns, flagmodel._add_row
    flags = itertools.count(1)

    def logged_cells(n, q, y):
        for cols in cells(n, q, y):
            events.append(("yield", next(flags)))
            yield cols

    def logged_step(*args):
        events.append(("step",))
        return step(*args)

    monkeypatch.setattr(flagmodel, "_cell_columns", logged_cells)
    monkeypatch.setattr(flagmodel, "_add_row", logged_step)
    n = 3
    # _tensor is cached, so the streaming is watched on an uncached build
    tensor = flagmodel._count(n, 3, flagmodel._pivot_masks(n, 3, enumerate_perms(n)))
    first, second = events.index(("yield", 1)), events.index(("yield", 2))
    assert ("step",) in events[first:second]
    monkeypatch.undo()
    assert tensor == flagmodel._count(n, 3, flagmodel._flag_masks(_flag_columns(n, 3), n, 3))
    assert tensor == flagmodel._count(n, 3, flagmodel._flag_masks(_basis_columns(n, 3), n, 3))
    assert tensor == flagmodel._tensor(n, 3)
    # the check finds chain matrices and lanes where they are kept
    assert _holds_chains(_flag_columns(n, 3), n)
    assert _holds_chains(flagmodel._chain_lanes(n, enumerate_perms(n))[0], n)
    for q in (2, 3):
        check_orbit_representatives(n, q)
        cached = flagmodel._tensor(n, q)
        assert isinstance(cached, list) and len(cached) == len(flagmodel._slot_orbits(n)[0]), q
        assert len(_expanded(n, cached)) == math.factorial(n) ** 2, q
        for counts in cached:
            assert isinstance(counts, dict), q
            assert all(type(z) is int and type(c) is int for z, c in counts.items()), q
        assert not _holds_chains(cached, n), q


def test_literal_layer_runs_on_the_kernel_and_lattice_matches_local_rref(monkeypatch):
    # the literal layer and the pivot-profile lattice both run on the
    # elimination kernel, so the lattice is checked against _local_rref,
    # which shares no code with the package: Q(b) is the lead set of the
    # rref of the columns in b, for every flag and its moved copy
    for n, q in ((3, 2), (3, 3), (3, 5), (4, 3), (4, 2)):
        for cols in _flag_columns(n, q):
            for c in (cols, flagmodel._moved_columns(cols, q)):
                rrefs = (_local_rref([c[j] for j in range(n) if b >> j & 1], q)
                         for b in range((1 << n) - 1))
                want = bytes(sum(1 << row.index(1) for row in rows) for rows in rrefs)
                assert flagmodel._flag_masks([c], n, q) == {1: want}, (n, q, c)
    expected = flagmodel._tensor(3, 2)
    slices = [flagmodel._slice(3, 2, y) for y in range(6)]
    wf, vf = representative_pair(Perm((2, 3, 1)), 3)
    # two echelon bases of one span, with different tails
    a = Subspace([(1, 1, 0), (0, 1, 1)], 3, 2)
    b = Subspace([(1, 0, 1), (0, 1, 1)], 3, 2)
    assert a.pivots != b.pivots

    def refuse(*args):
        raise AssertionError("the elimination kernel was called")

    monkeypatch.setattr(spectral, "_reduce", refuse)
    monkeypatch.setattr(flagmodel, "_reduce", refuse)
    for call in (
        lambda: rank_mod([[1, 2], [3, 4]], 7),
        lambda: Subspace([(1, 1, 0)], 3, 2),
        lambda: relative_position(wf, vf),
        lambda: enumerate_flags(2, 2),
        lambda: vf.step(1).contains_vector((1, 0, 0)),
        lambda: Flag.from_basis([(1, 1, 0), (0, 1, 1), (0, 0, 1)], 2),
        lambda: a == b,
    ):
        with pytest.raises(AssertionError, match="kernel"):
            call()
    # the F_2 lanes stay off the kernel, for the tensor and for every
    # slice: fresh counts, not the cached ones
    assert flagmodel._count(3, 2, flagmodel._pivot_masks(3, 2, enumerate_perms(3))) == expected
    assert [flagmodel._slice.__wrapped__(3, 2, y) for y in range(6)] == slices


def test_fast_side_and_literal_layer_enumerate_apart(monkeypatch):
    # the tensor and the cross-check read the cells, never the literal
    # layer's enumeration; enumerate_flags reads neither cells nor lanes,
    # so each side stays the other's oracle
    n = 3
    flags = {q: enumerate_flags(n, q) for q in (2, 3)}
    tensors = {q: flagmodel._tensor(n, q) for q in (2, 3)}

    def refuse(*args):
        raise AssertionError("the other side's enumeration was called")

    monkeypatch.setattr(flagmodel, "_chain_bases", refuse)
    for q in (2, 3):
        assert flagmodel._tensor.__wrapped__(n, q) == tensors[q], q
        assert check_orbit_representatives(n, q) is None
    monkeypatch.undo()
    for name in ("_cell_layout", "_cell_columns", "_chain_lanes"):
        monkeypatch.setattr(flagmodel, name, refuse)
    for q in (2, 3):
        assert enumerate_flags(n, q) == flags[q], q


# ---------------------------------------------------------------------------
# verifications


def test_lemma3_product_rule():
    for n, q in ((3, 2), (2, 3)):
        result = verify_lemma3(n, q)
        assert result.passed
        assert [row["t"] for row in result.details] == list(range(1, n + 3))
        assert all(row["pass"] for row in result.details)


def test_lemma3_refuses_empty_t_list():
    # no rows would be a vacuous PASS
    with pytest.raises(ValueError, match="empty t list"):
        verify_lemma3(3, 2, [])


def test_lemma3_debug_mode():
    assert verify_lemma3(2, 2).passed
    assert check_orbit_representatives(2, 2) is None


def test_factorization():
    for n, q in ((3, 2), (3, 3)):
        result = verify_factorization(n, q)
        assert result.passed
        checks = [row.get("check") for row in result.details]
        assert "f_(n-1) == f_n" in checks
        assert "full product == 0" in checks
        assert [row["t"] for row in result.details if "t" in row] == list(range(1, n))


def test_span_commutativity():
    result = verify_span_commutativity(3, 2)
    assert result.passed
    rank_row = next(row for row in result.details if row.get("check") == "span ranks")
    assert rank_row["rank_f"] == rank_row["rank_powers"] == rank_row["rank_union"] == 3


def _structure_oracle(n, q):
    """The tensor row of compare_structure_constants, pair by pair.

    Every slot of the expanded tensor is compared with T_x T_y from
    mul in Z[q], specialized at q, in both orders.
    """
    perms = enumerate_perms(n)
    nperms = len(perms)
    index = {w: i for i, w in enumerate(perms)}
    table = _expanded(n, flagmodel._tensor(n, q))
    product_misses, reversed_misses = [], []
    for xi, x in enumerate(perms):
        for yi, y in enumerate(perms):
            h = mul(HeckeElt.basis(x), HeckeElt.basis(y)).specialize(q)
            h = {index[w]: c for w, c in h.items()}
            if table[xi * nperms + yi] != h:
                product_misses.append((xi, yi))
            if table[yi * nperms + xi] != h:
                reversed_misses.append((yi, xi))
    total = nperms * nperms
    row = {
        "pairs": total,
        "product_order_matches": total - len(product_misses),
        "reversed_order_matches": total - len(reversed_misses),
    }
    if not product_misses:
        row["orientation"] = "product"
    elif not reversed_misses:
        row["orientation"] = "reversed"
    else:
        row["orientation"] = "inconsistent"
    row["pass"] = row["orientation"] != "inconsistent"
    if not row["pass"]:
        first = [f"pair ({perms[a]}, {perms[b]})" for a, b in
                 (min(product_misses), min(reversed_misses))]
        row["witness"] = (
            f"product order first miss {first[0]}; reversed order first miss {first[1]}"
        )
    return row


def _commutativity_oracle(n, q):
    """Span's commutativity row from the full tensor, in one pass.

    The differences D_0 = f_0 and D_a = f_a - f_(a-1) have disjoint
    supports, so the (n+1)^2 products D_a * D_b read every slot once,
    and f_s * f_t is the sum of D_a * D_b over a <= s and b <= t, taken
    as 2-D prefix sums.
    """
    fs = [f_t(n, q, t) for t in range(n + 1)]
    perms = enumerate_perms(n)
    indexed = flagmodel._indexed
    parts = [indexed(fs[0])] + [indexed(fs[a] - fs[a - 1]) for a in range(1, n + 1)]
    # sums[s + 1][t + 1] is f_s * f_t, with a zero border
    zero = [0] * len(perms)
    sums = [[zero] * (n + 2) for _ in range(n + 2)]
    for s, left_part in enumerate(parts, 1):
        for t, right_part in enumerate(parts, 1):
            above, before, corner = sums[s - 1][t], sums[s][t - 1], sums[s - 1][t - 1]
            acc = [a + b - c for a, b, c in zip(above, before, corner)]
            _tensor_products(acc, n, q, left_part, right_part)
            sums[s][t] = acc
    row = {"check": "commutativity of all f_s, f_t", "pass": True}
    for s, t in itertools.combinations(range(n + 1), 2):
        if sums[s + 1][t + 1] != sums[t + 1][s + 1]:
            left = OrbitFn(n, q, zip(perms, sums[s + 1][t + 1]))
            right = OrbitFn(n, q, zip(perms, sums[t + 1][s + 1]))
            row["pass"] = False
            row["witness"] = f"s={s}, t={t}: " + flagmodel._first_mismatch(left, right)
            break
    return row


def _pairwise_commutativity(n, q):
    # the commutativity row from direct products off the full tensor
    fs = [f_t(n, q, t) for t in range(n + 1)]
    row = {"check": "commutativity of all f_s, f_t", "pass": True}
    for s, t in itertools.combinations(range(n + 1), 2):
        left, right = _tensor_product(fs[s], fs[t]), _tensor_product(fs[t], fs[s])
        if left != right:
            row["pass"] = False
            row["witness"] = f"s={s}, t={t}: " + flagmodel._first_mismatch(left, right)
            break
    return row


def test_orbit_reads_match_the_all_pair_oracles():
    # the structure-constant row reads the tensor once per orbit, and
    # the one-pass commutativity oracle reads it through the
    # differences D_a; on the true tensor and with one count of one
    # stored row perturbed, they equal the all-pair comparison and the
    # direct products
    rng = random.Random(25)
    commuted = set()
    try:
        for n in (3, 4):
            flagmodel._tensor.cache_clear()
            assert compare_structure_constants(n, 2).details[0] == _structure_oracle(n, 2)
            assert _commutativity_oracle(n, 2) == _pairwise_commutativity(n, 2)
            for _ in range(4):
                flagmodel._tensor.cache_clear()
                rows = flagmodel._tensor(n, 2)
                counts = rows[rng.randrange(len(rows))]
                counts[rng.choice(sorted(counts))] += 1
                got = compare_structure_constants(n, 2).details[0]
                assert got["orientation"] == "inconsistent", n
                assert got == _structure_oracle(n, 2), n
                comm = _commutativity_oracle(n, 2)
                assert comm == _pairwise_commutativity(n, 2), n
                commuted.add(comm["pass"])
    finally:
        flagmodel._tensor.cache_clear()
    # some perturbation breaks commutativity, so a witness was compared
    assert False in commuted


def test_span_derives_commutativity_from_its_rows():
    # on true slices the derived row equals the one-pass oracle over the
    # full tensor
    for n, q in FLAG_GRID:
        assert verify_span_commutativity(n, q).details[-1] == _commutativity_oracle(n, q), (n, q)
    # one count of one slice that span reads, perturbed: the identity,
    # read for f1^1, and the cycles c_g (g <= n - 2), read for f1^2,
    # each times f1, so a count at a cycle x moves a power by one
    rng = random.Random(26)
    try:
        for n in (3, 4):
            perms = enumerate_perms(n)
            cycles = {perms.index(cycle_element(g, n)) for g in range(1, n - 1)}
            for _ in range(4):
                flagmodel._slice.cache_clear()
                y = rng.choice([0, *sorted(cycles)])
                counts = flagmodel._slice(n, 2, y)
                z = rng.choice([z for z, row in enumerate(counts) if cycles & row.keys()])
                counts[z][rng.choice(sorted(cycles & counts[z].keys()))] += 1
                result = verify_span_commutativity(n, 2)
                failed = [row["check"] for row in result.details[:-2] if not row["pass"]]
                assert any(check.endswith("expansion") for check in failed), (n, y, z)
                assert result.details[-1] == {
                    "check": "commutativity of all f_s, f_t", "pass": False,
                    "witness": "not derived, failed rows: " + ", ".join(failed),
                }, (n, y, z)
    finally:
        flagmodel._slice.cache_clear()


def test_identity_checks_never_build_the_full_tensor(monkeypatch):
    def refuse(*args):
        raise AssertionError("the full tensor was read")

    flagmodel._slice.cache_clear()
    for name in ("_tensor", "_count", "_slot_orbits"):
        monkeypatch.setattr(flagmodel, name, refuse)
    for n, q in ((4, 2), (3, 3)):
        for check in (verify_lemma3, verify_factorization, verify_span_commutativity):
            assert check(n, q).passed, (check.__name__, n, q)


def test_structure_constants_commutative_rank():
    result = compare_structure_constants(2, 2)
    assert result.passed
    head = result.details[0]
    assert head["orientation"] == "product"
    assert head["product_order_matches"] == head["pairs"] == 4


def test_structure_constants_noncommutative_rank():
    result = compare_structure_constants(3, 2)
    assert result.passed
    head = result.details[0]
    # convolution composes labels in the opposite order to the basis
    # products; only the commuting pairs match in the product order
    assert head["orientation"] == "reversed"
    assert head["pairs"] == 36
    assert head["reversed_order_matches"] == 36
    assert head["product_order_matches"] == 16
    f1_row = result.details[1]
    assert f1_row["check"] == "f1 == specialize(tau, q)"
    assert f1_row["pass"]

