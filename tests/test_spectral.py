"""Tests for exact ranks and proven eigenvalue multiplicities."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

import qshuffle.hecke as hecke
import qshuffle.spectral as spectral
from qshuffle.cli import main
from qshuffle.hecke import HeckeElt, mul, tau
from qshuffle.polyring import ONE, Q, q_int
from qshuffle.seminormal import Block, partitions, standard_tableaux
from qshuffle.spectral import (
    _CERT_PRIME,
    _MR_LIMIT,
    _block_nullities,
    _is_prime,
    _surviving_terms,
    multiplicity,
    rank,
    rank_mod,
    tau_matrix,
    verify_multiplicities,
)
from qshuffle.symgroup import enumerate_perms


def test_rank_frozen_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2, 3], [4, 5, 6]]) == 2
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert rank([[-3], [6], [0]]) == 1
    assert rank([[2, -1], [-4, 2], [6, -3]]) == 1


def test_rank_input_validation():
    for rank_of in (rank, lambda m: rank_mod(m, 7)):
        for ragged in ([[1, 2], [3]], [[1, 0, 0], [0, 1]], [[1], [2, 0]]):
            with pytest.raises(ValueError, match="ragged"):
                rank_of(ragged)
        with pytest.raises(TypeError):
            rank_of([[1.0, 2.0]])
    # a modulus below 2 or a composite one is refused, not divided by or
    # silently reduced: Z/p is a field only for a prime p
    for p in (0, 1, -7, 4, 6, 9):
        with pytest.raises(ValueError, match="modulus"):
            rank_mod([[2, 1], [1, 1]], p)
        with pytest.raises(ValueError, match="modulus"):
            rank_mod([[1, 0], [0, 1]], p)


def test_rank_does_not_mutate():
    m = [[2, 4], [1, 3]]
    rank(m)
    assert m == [[2, 4], [1, 3]]


def _rank_oracle(matrix):
    """Gaussian elimination over Q with exact fractions."""
    a = [[Fraction(x) for x in row] for row in matrix]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def test_rank_matches_fraction_oracle_randomized():
    rng = random.Random(20260816)
    for _ in range(120):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(m) == _rank_oracle(m), m


def test_rank_on_constructed_low_rank():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        us = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        vs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        m = [
            [sum(us[k][i] * vs[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)
        ]
        got = rank(m)
        assert got == _rank_oracle(m)
        assert got <= r


def test_rank_mod_agrees_on_small_entries():
    rng = random.Random(11)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        # entries are tiny next to the prime, so no rank drop
        assert rank_mod(m, _CERT_PRIME) == rank(m)


def test_rank_mod_never_exceeds_rank():
    # the inequality the multiplicity certificate rests on; small primes
    # make the drops below the rank over Q common
    rng = random.Random(23)
    drops = 0
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        exact = rank(m)
        for p in (2, 3, 5):
            got = rank_mod(m, p)
            assert got <= exact, (m, p)
            drops += got < exact
    assert drops > 0


def test_tau_matrix_refuses_q0_that_is_not_an_int():
    # cached int entries must not answer for 2.0, True or Fraction(2)
    tau_matrix(3, 1)
    tau_matrix(3, 2)
    for bad in (2.0, True, Fraction(2)):
        with pytest.raises(TypeError, match="integer q0"):
            tau_matrix(3, bad)
        with pytest.raises(TypeError, match="integer q0"):
            verify_multiplicities(3, [bad])


def test_cert_prime_is_prime():
    p = _CERT_PRIME
    assert p > 2 and p % 2
    assert all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_is_prime_matches_trial_division():
    for p in range(-3, 20000):
        assert _is_prime(p) == _trial_division(p), p


def test_is_prime_on_pseudoprimes():
    # Carmichael numbers, then the least strong pseudoprimes to the first
    # 1, 2, ..., 12 prime bases; the last needs the thirteenth base, 41
    composites = (
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    )
    for c in composites:
        assert not _is_prime(c), c
    for p in (2, 37, 41, 43, 2**31 - 1, 1000000000000037, 2**61 - 1):
        assert _is_prime(p), p
    # at and above the least strong pseudoprime to all thirteen bases the
    # answer is refused, not guessed
    for big in (_MR_LIMIT, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot decide"):
            _is_prime(big)


def test_huge_prime_at_n_one_is_quick(capsys):
    # [1]_q! = 1 is never over the budget, so the primality test of q runs:
    # Miller-Rabin decides 2^61 - 1 at once, and refuses 2^89 - 1, which is
    # at or above 3.3e24, rather than guess
    start = time.perf_counter()
    assert main(["verify", "lemma3", "--n", "1", "--q", str(2**61 - 1)]) == 0
    assert time.perf_counter() - start < 10
    assert "PASS lemma3" in capsys.readouterr().out
    assert main(["verify", "lemma3", "--n", "1", "--q", str(2**89 - 1)]) == 2
    assert "cannot decide" in capsys.readouterr().err


def test_tau_matrix_rank_two_frozen():
    for q0 in (1, 2, 3, 5):
        assert tau_matrix(2, q0) == ((1, q0), (1, q0))


def test_tau_matrix_validates():
    with pytest.raises(ValueError):
        tau_matrix(2, 0)


def test_tau_matrix_columns_are_products():
    perms = enumerate_perms(3)
    index = {w: i for i, w in enumerate(perms)}
    for q0 in (1, 2):
        m = tau_matrix(3, q0)
        for j, w in enumerate(perms):
            prod = mul(tau(3), HeckeElt.basis(w)).specialize(q0)
            col = {index[u]: c for u, c in prod.items()}
            for i in range(6):
                assert m[i][j] == col.get(i, 0)


def test_tau_matrix_matches_tau_times():
    # slow oracle: the columns of tau * T_w walked in Z[q], specialized at q0
    for n in range(1, 6):
        size = len(enumerate_perms(n))
        for q0 in (1, 2, 3):
            m = tau_matrix(n, q0)
            for j in range(size):
                col = hecke._tau_walk(n, {j: ONE}, Q)
                want = [col[u](q0) if u in col else 0 for u in range(size)]
                assert [row[j] for row in m] == want, (n, q0, j)


def test_multiplicity_frozen_small():
    for q0 in (1, 2, 3):
        assert [multiplicity(2, k, q0) for k in (0, 1, 2)] == [1, 0, 1]
        assert [multiplicity(3, k, q0) for k in (0, 1, 2, 3)] == [2, 3, 0, 1]
        assert [multiplicity(4, k, q0) for k in range(5)] == [9, 8, 6, 0, 1]


def test_multiplicity_skips_k_n_minus_one():
    for n in (2, 3, 4):
        for q0 in (1, 2):
            assert multiplicity(n, n - 1, q0) == 0


def test_multiplicities_sum_to_group_order():
    for n in (2, 3, 4):
        assert sum(multiplicity(n, k, 2) for k in range(n + 1)) == math.factorial(n)


def test_multiplicity_validates_k():
    with pytest.raises(ValueError):
        multiplicity(3, 4, 2)
    with pytest.raises(ValueError):
        multiplicity(3, -1, 2)


def test_full_rank_at_absent_eigenvalue():
    # [2]_1 = 2 is not an eigenvalue at n = 3, so the shift has full rank
    m = [list(row) for row in tau_matrix(3, 1)]
    for i in range(6):
        m[i][i] -= 2
    assert rank(m) == 6


def test_verify_multiplicities():
    result = verify_multiplicities(3)
    assert result.passed
    assert result.params == {"n": 3, "q0": [1, 2, 3]}
    # one row per (q0, k) plus one sum row per q0
    assert len(result.details) == 3 * (4 + 1)


def test_verify_multiplicities_refuses_empty_q0_list():
    # no rows would be a vacuous PASS
    with pytest.raises(ValueError, match="empty q0 list"):
        verify_multiplicities(3, [])


def test_large_n_gate(monkeypatch):
    # refused before any work, the fixed-point count of S_9 included
    monkeypatch.setattr(spectral, "enumerate_perms", None)
    with pytest.raises(ValueError, match="allow_large"):
        multiplicity(9, 0, 2)
    with pytest.raises(ValueError, match="allow_large"):
        verify_multiplicities(9)


def _clear_caches():
    for cached in (_block_nullities, _surviving_terms):
        cached.cache_clear()


def _regular_nullities(n, q0):
    # the n! x n! oracle of the blocks: n! - rank mod p of M - [k]_{q0} I
    # for each k, M = tau_matrix(n, q0); the nullities must sum to n!
    m = tau_matrix(n, q0)
    size = math.factorial(n)
    nullities = []
    for k in range(n + 1):
        c = q_int(k)(q0)
        shifted = [list(row) for row in m]
        for i, row in enumerate(shifted):
            row[i] -= c
        nullities.append(size - rank_mod(shifted, _CERT_PRIME))
    assert sum(nullities) == size, (n, q0, nullities)
    return tuple(nullities)


def test_certificate_needs_no_bareiss(monkeypatch):
    # the multiplicities come from the certificate alone: with the exact
    # rank switched off they are still proven and sum to n!
    def no_rank(matrix):
        raise AssertionError("rank over Q called on the multiplicity path")

    monkeypatch.setattr(spectral, "rank", no_rank)
    _clear_caches()
    try:
        for n in (1, 2, 3, 4):
            for q0 in (1, 2):
                for nullities in (_regular_nullities, _block_nullities):
                    got = nullities(n, q0)
                    assert len(got) == n + 1
                    assert sum(got) == math.factorial(n)
        assert verify_multiplicities(4, (1, 2)).passed
    finally:
        _clear_caches()


def test_certified_matches_bareiss_oracle():
    # slow oracle: n! - rank over Q of M - [k]_{q0} I, by Bareiss
    cases = [(n, q0) for n in (1, 2, 3, 4) for q0 in (1, 2, 3, 5)] + [(5, 2)]
    for n, q0 in cases:
        m = tau_matrix(n, q0)
        want = []
        for k in range(n + 1):
            c = q_int(k)(q0)
            shifted = [list(row) for row in m]
            for i in range(len(shifted)):
                shifted[i][i] -= c
            want.append(math.factorial(n) - rank(shifted))
        assert list(_regular_nullities(n, q0)) == want, (n, q0)
        assert [multiplicity(n, k, q0) for k in range(n + 1)] == want


def test_blocks_match_the_regular_representation():
    # the n! x n! eliminations of M itself are the oracle of the blocks
    for n in range(1, 6):
        for q0 in (1, 2, 3, 5):
            assert _block_nullities(n, q0) == _regular_nullities(n, q0), (n, q0)


def test_n_seven_and_eight_never_build_the_regular_matrix(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an n! x n! matrix was built")

    monkeypatch.setattr(spectral, "tau_matrix", refuse)
    for n in (7, 8):
        result = verify_multiplicities(n, (1, 2, 3))
        assert result.passed, result.details
        assert len(result.details) == 3 * (n + 2)
    assert _block_nullities(7, 2) == (1854, 1855, 924, 315, 70, 21, 0, 1)
    assert _block_nullities(8, 2) == (14833, 14832, 7420, 2464, 630, 112, 28, 0, 1)
    assert main(["multiplicities", "--n", "8", "--q", "2"]) == 0
    assert "PASS multiplicities [n=8 q0=[2]]" in capsys.readouterr().out


def _hook_length_dimension(shape):
    n = sum(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(
        (shape[i] - j) + (cols[j] - i) - 1 for i in range(len(shape)) for j in range(shape[i])
    )
    return math.factorial(n) // hooks


def test_seminormal_blocks_hold_every_fact_of_the_proof():
    for n in range(1, 7):
        shapes = partitions(n)
        assert len(set(shapes)) == len(shapes)
        assert all(sum(s) == n and list(s) == sorted(s, reverse=True) for s in shapes)
        assert sum(len(standard_tableaux(s)) ** 2 for s in shapes) == math.factorial(n)
        for shape in shapes:
            tableaux = standard_tableaux(shape)
            assert len(tableaux) == _hook_length_dimension(shape)
            for q0 in (1, 2, 3, 5):
                block = Block(shape, q0)
                assert block.relation_failure() is None, (shape, q0)
                assert block.jucys_murphy_failure() is None, (shape, q0)
                assert block.connected(), (shape, q0)


def test_tau_mod_reads_the_generators_only_through_apply(monkeypatch):
    # the matrix whose nullities the certificate counts is built by the
    # same apply on which the relations and Jucys-Murphy checks run
    real = Block.apply
    blocks = [Block(shape, q0) for shape in partitions(4) for q0 in (1, 2)]
    want = [b.tau_mod(_CERT_PRIME) for b in blocks]

    def refuse(self, i, vec):
        raise AssertionError("apply reached")

    monkeypatch.setattr(Block, "apply", refuse)
    for b in blocks:
        with pytest.raises(AssertionError, match="apply reached"):
            b.tau_mod(_CERT_PRIME)

    def doubled_first(self, i, vec):
        out = real(self, i, vec)
        return {t: 2 * x for t, x in out.items()} if i == 1 else out

    monkeypatch.setattr(Block, "apply", doubled_first)
    for b, m in zip(blocks, want):
        assert b.tau_mod(_CERT_PRIME) != m, (b.shape, b.q0)


def test_block_checks_catch_broken_blocks():
    # a perturbed generator breaks a relation
    block = Block((3, 2), 2)
    block.gens[1][0][0] += 1
    assert block.relation_failure() == "T1 T2 T1 = T2 T1 T2"
    # T1 changed at the second tableau, which the first column's checks
    # reach first through T3: the commutation is the first broken relation
    block = Block((3, 1), 1)
    block.gens[0][0][1] += 1
    assert block.relation_failure() == "T1 T3 = T3 T1"
    # relabeling two tableaux conjugates every generator, so the relations
    # hold, but L_k no longer acts by the contents of its tableaux
    block = Block((2, 1), 3)
    swap = [1, 0]
    for diag, partner, off in block.gens:
        diag[:], off[:] = [diag[s] for s in swap], [off[s] for s in swap]
        partner[:] = [swap[partner[s]] if partner[s] >= 0 else -1 for s in swap]
    assert block.relation_failure() is None
    assert block.jucys_murphy_failure() == 2
    # without off-diagonal entries no tableau reaches another
    block = Block((2, 2), 2)
    for _, _, off in block.gens:
        off[:] = [0] * len(off)
    assert not block.connected()


def _small_prime(monkeypatch):
    # every prime up to 3 divides a difference of the eigenvalues 0..3 at
    # q0 = 1, so no prime fits the first block
    monkeypatch.setattr(spectral, "_CERT_PRIME", 3)
    return {"q0": 1, "shape": [3], "step": "prime", "max_prime": 3, "pass": False}


def _perturbed_tau_matrix(monkeypatch):
    real = Block.tau_mod

    def perturbed(self, p):
        m = real(self, p)
        if len(m) > 1:
            m[-1][0] += 1
        return m

    monkeypatch.setattr(Block, "tau_mod", perturbed)
    return {"q0": 1, "shape": [2, 1], "step": "sum", "prime": _CERT_PRIME, "sum": 1,
            "expected_sum": 2, "pass": False}


def _surviving_annihilator(monkeypatch):
    monkeypatch.setattr(spectral, "wallach_product", tau)
    return {"q0": 1, "step": "annihilator", "surviving_terms": 3, "pass": False}


def _perturbed_generator(monkeypatch):
    real = Block.__init__

    def perturbed(self, shape, q0):
        real(self, shape, q0)
        if shape == (2, 1):
            self.gens[0][0][0] += 1

    monkeypatch.setattr(Block, "__init__", perturbed)
    return {"q0": 1, "shape": [2, 1], "step": "relations",
            "relation": "(T1 - q)(T1 + 1) = 0", "pass": False}


def _unlinked_tableaux(monkeypatch):
    monkeypatch.setattr(Block, "connected", lambda self: len(self.tableaux) == 1)
    return {"q0": 1, "shape": [2, 1], "step": "connected", "pass": False}


def _repeated_shape(monkeypatch):
    monkeypatch.setattr(spectral, "partitions", lambda n: [*partitions(n), (n,)])
    return {"q0": 1, "shape": [3], "step": "contents", "pass": False}


def _missing_shape(monkeypatch):
    monkeypatch.setattr(spectral, "partitions", lambda n: partitions(n)[:-1])
    return {"q0": 1, "step": "dimension", "sum_of_squares": 5, "expected": 6, "pass": False}


@pytest.mark.parametrize(
    "corrupt",
    [
        _small_prime,
        _perturbed_tau_matrix,
        _surviving_annihilator,
        _perturbed_generator,
        _unlinked_tableaux,
        _repeated_shape,
        _missing_shape,
    ],
)
def test_failed_certificate_fails_closed(monkeypatch, capsys, corrupt):
    witness = corrupt(monkeypatch)
    _clear_caches()
    try:
        with pytest.raises(spectral.CertificateError):
            multiplicity(3, 0, 1)
        result = verify_multiplicities(3, (1,))
        assert not result.passed
        assert result.details == [witness]
        assert main(["multiplicities", "--n", "3", "--q", "1", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["pass"]
        assert doc["checks"][0]["details"] == [witness]
        assert main(["multiplicities", "--n", "3", "--q", "1"]) == 1
        out = capsys.readouterr().out
        assert f"  FAIL {witness}" in out
        assert "OVERALL: FAIL" in out
    finally:
        _clear_caches()
