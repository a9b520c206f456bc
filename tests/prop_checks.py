"""Shared property checks used by both the module tests and the
acceptance suite.  Each function raises AssertionError on failure and
returns None, so callers can run them directly inside tests."""

from __future__ import annotations

import itertools
import random

from qshuffle.flagmodel import (
    Flag,
    OrbitFn,
    Subspace,
    convolve,
    enumerate_flags,
    relative_position,
)
import qshuffle.hecke as hecke
from qshuffle.hecke import HeckeElt, left_mult_matrix, mul
from qshuffle.polyring import ONE, Poly, Q, ZERO
from qshuffle.symgroup import Perm, enumerate_perms


# --- sparse column-matrix arithmetic (dicts {row: Poly} per column) ---------


def col_identity(size):
    return [{j: ONE} for j in range(size)]


def col_scale(m, p):
    return [{i: v * p for i, v in col.items()} for col in m]


def col_add(a, b):
    out = []
    for ca, cb in zip(a, b):
        acc = dict(ca)
        for i, v in cb.items():
            s = acc.get(i, ZERO) + v
            if s:
                acc[i] = s
            else:
                acc.pop(i, None)
        out.append(acc)
    return out


def col_mul(a, b):
    """Product of sparse column matrices: column j of a*b is a applied
    to column j of b."""
    out = []
    for col in b:
        acc: dict[int, Poly] = {}
        for k, c in col.items():
            for i, v in a[k].items():
                s = acc.get(i, ZERO) + v * c
                if s:
                    acc[i] = s
                else:
                    acc.pop(i, None)
        out.append(acc)
    return out


# --- Hecke relations as matrix identities -----------------------------------


def check_quadratic_braid_matrices(n):
    """T_i^2 = (q-1) T_i + q, the braid relations, and commutation of
    distant generators, all as identities of left-multiplication
    matrices on the full basis of rank n."""
    simples = [
        left_mult_matrix(HeckeElt.basis(Perm.simple(i, n))) for i in range(1, n)
    ]
    size = len(enumerate_perms(n))
    ident = col_identity(size)
    for i, m in enumerate(simples, 1):
        expect = col_add(col_scale(m, Q - 1), col_scale(ident, Q))
        assert col_mul(m, m) == expect, f"quadratic relation fails at i={i}, n={n}"
    for i in range(len(simples) - 1):
        a, b = simples[i], simples[i + 1]
        lhs = col_mul(col_mul(a, b), a)
        rhs = col_mul(col_mul(b, a), b)
        assert lhs == rhs, f"braid relation fails at i={i + 1}, n={n}"
    for i in range(len(simples)):
        for j in range(i + 2, len(simples)):
            assert col_mul(simples[i], simples[j]) == col_mul(
                simples[j], simples[i]
            ), f"distant generators {i + 1},{j + 1} fail to commute at n={n}"


# --- randomized algebra properties ------------------------------------------


def _random_poly(rng):
    return Poly([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])


def _random_hecke(rng, n):
    perms = enumerate_perms(n)
    return HeckeElt(
        n, [(rng.choice(perms), _random_poly(rng)) for _ in range(rng.randint(1, 4))]
    )


def word_times(x, terms, pick):
    """T_x times the index-keyed element `terms` over Z[q], as one
    generator step per letter of x.reduced_word(pick), right to left;
    zero terms dropped."""
    steps = hecke._rank_steps(x.n)
    for i in reversed(x.reduced_word(pick)):
        terms = hecke._simple_times(steps[i - 1], terms, Q)
    return {u: c for u, c in terms.items() if c}


def mul_along(a, b, pick):
    """a * b with each T_w of `a` spelled by w.reduced_word(pick)."""
    right = hecke._indices(b)
    acc = {}
    for w, p in a.terms.items():
        for u, c in word_times(w, right, pick).items():
            acc[u] = acc.get(u, ZERO) + p * c
    return hecke._elt(a.n, acc)


def check_mul_associativity(n, trials=25, seed=20260816):
    rng = random.Random(seed)
    for _ in range(trials):
        a, b, c = (_random_hecke(rng, n) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def check_reduced_word_invariance(n, trials=25, seed=20260816):
    """mul must not depend on the reduced word that spells each T_w:
    products built along the min, max and random descent choices of
    reduced_word all equal it."""
    rng = random.Random(seed)
    chooser = random.Random(seed + 1)
    for _ in range(trials):
        a, b = _random_hecke(rng, n), _random_hecke(rng, n)
        base = mul(a, b)
        for pick in (min, max, chooser.choice):
            assert mul_along(a, b, pick) == base, pick


def check_convolution_associativity(n, q, trials=20, seed=20260816):
    rng = random.Random(seed)
    perms = enumerate_perms(n)

    def rand_fn():
        vals = {}
        for _ in range(rng.randint(1, 4)):
            vals[rng.choice(perms)] = rng.randint(-3, 3)
        return OrbitFn(n, q, vals)

    for _ in range(trials):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


# --- GL action oracles -------------------------------------------------------


def _rank_fq(rows, q):
    # small local Gaussian elimination, independent of the package code
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % q:
                f = mat[i][col]
                mat[i] = [(x - f * y) % q for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def transformed(flag, g):
    """The flag moved by g in GL_n(F_q): every step's rows times g, mod q."""
    n, q = flag.n, flag.q
    assert _rank_fq(g, q) == n, "flags only move under invertible matrices"
    cols = list(zip(*g))

    def moved(rows):
        return [[sum(x * y for x, y in zip(r, c)) % q for c in cols] for r in rows]

    steps = [Subspace(moved(s.rows), n, q) for s in flag.steps]
    assert [s.dim for s in steps] == list(range(1, n))
    assert all(a <= b for a, b in zip(steps, steps[1:])), "moved steps do not nest"
    # a chain basis: row i is the echelon row of step i whose lead step
    # i - 1 lacks
    basis = []
    for i in range(1, n + 1):
        (lead,) = flag.step(i).pivots.keys() - flag.step(i - 1).pivots.keys()
        basis.append((0,) * lead + flag.step(i).pivots[lead])
    out = Flag.from_basis(moved(basis), q)
    assert out.steps == tuple(steps)
    return out


def random_invertible(rng, n, q):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if _rank_fq(rows, q) == n:
            return rows


def check_gl_invariance(n, q, trials=20, seed=20260816):
    """Relative position is constant on diagonal GL orbits, and
    swapping the pair inverts the label."""
    rng = random.Random(seed)
    flags = enumerate_flags(n, q)
    for _ in range(trials):
        a = rng.choice(flags)
        b = rng.choice(flags)
        g = random_invertible(rng, n, q)
        label = relative_position(a, b)
        assert relative_position(transformed(a, g), transformed(b, g)) == label
        assert relative_position(b, a) == label.inverse()


def _general_linear_group(n, q):
    gl = []
    for entries in itertools.product(range(q), repeat=n * n):
        rows = [entries[i * n : (i + 1) * n] for i in range(n)]
        if _rank_fq(rows, q) == n:
            gl.append(rows)
    order = 1
    for i in range(n):
        order *= q**n - q**i
    assert len(gl) == order
    return gl


def check_orbit_partition_matches_bruteforce(n, q):
    """The fibers of relative_position are exactly the diagonal GL
    orbits on ordered pairs of flags, computed by brute force."""
    flags = enumerate_flags(n, q)
    findex = {f: i for i, f in enumerate(flags)}
    gl = _general_linear_group(n, q)
    maps = []
    for g in gl:
        maps.append([findex[transformed(f, g)] for f in flags])
    labels = {}
    for i, a in enumerate(flags):
        for j, b in enumerate(flags):
            labels[(i, j)] = relative_position(a, b)
    orbit_of = {}
    label_of_orbit = {}
    for pair in labels:
        if pair in orbit_of:
            continue
        i, j = pair
        orbit = {(m[i], m[j]) for m in maps}
        lab = labels[pair]
        assert all(labels[p] == lab for p in orbit), f"label not constant on orbit of {pair}"
        assert lab not in label_of_orbit, f"label {lab} shared by two distinct orbits"
        label_of_orbit[lab] = pair
        for p in orbit:
            orbit_of[p] = pair
    assert len(label_of_orbit) == len(enumerate_perms(n))
    assert len(orbit_of) == len(flags) ** 2
