"""Spectrum of the tau action: exact eigenvalue multiplicities.

Left multiplication by tau on the standard basis, specialized at an
integer q0 >= 1, is an n! x n! integer matrix.  Its eigenvalues are the
q-integers [k]_{q0} for k in [0, n] with k = n - 1 absent, and the
multiplicity of [k]_{q0} equals the number of permutations in S_n with
exactly k fixed points.  Multiplicities are read off exactly as

    mult(k) = n! - rank(M - [k]_{q0} I)

with the rank over Z computed by fraction-free (Bareiss) elimination,
so there is no floating point and no tolerance anywhere.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from .hecke import HeckeElt, tau_times
from .polyring import q_int
from .report import CheckResult
from .symgroup import enumerate_perms

__all__ = [
    "rank",
    "rank_mod",
    "tau_matrix",
    "multiplicity",
    "verify_multiplicities",
]

# distinct large primes for the n >= 6 consensus prepass
_PREPASS_PRIMES = (2147483647, 1000000007, 998244353)
_EXACT_N_CEILING = 5


def _check_int_matrix(a: Sequence[Sequence[int]]) -> None:
    for row in a:
        if len(row) != len(a[0]):
            raise ValueError("ragged matrix")
        for x in row:
            if not isinstance(x, int):
                raise TypeError(f"integer entries required, got {type(x).__name__}")


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix over Q, by Bareiss elimination.

    Fraction-free: every intermediate entry is an integer minor of the
    input, every division is exact (and checked).  The input may be
    rectangular; it is copied, not mutated.
    """
    a = [list(row) for row in matrix]
    _check_int_matrix(a)
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv_row = None
        for i in range(r, nrows):
            if a[i][col]:
                piv_row = i
                break
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        piv = a[r][col]
        for i in range(r + 1, nrows):
            f = a[i][col]
            row_i = a[i]
            row_r = a[r]
            for j in range(col + 1, ncols):
                num = piv * row_i[j] - f * row_r[j]
                quo, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("Bareiss division was not exact")
                row_i[j] = quo
            row_i[col] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def rank_mod(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of the matrix reduced modulo a prime p (Gaussian elimination)."""
    _check_int_matrix(matrix)
    a = [[x % p for x in row] for row in matrix]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        piv_row = None
        for i in range(r, nrows):
            if a[i][col]:
                piv_row = i
                break
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(r + 1, nrows):
            f = a[i][col]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


@functools.lru_cache(maxsize=None)
def tau_matrix(n: int, q0: int) -> tuple[tuple[int, ...], ...]:
    """Dense matrix of left multiplication by tau at q = q0.

    Rows and columns follow enumerate_perms(n); entry (i, j) is the
    coefficient of T_{w_i} in tau * T_{w_j}.
    """
    if q0 < 1:
        raise ValueError(f"need an integer q0 >= 1, got {q0}")
    perms = enumerate_perms(n)
    cols = [tau_times(HeckeElt.basis(w)).specialize(q0) for w in perms]
    return tuple(tuple(col.get(u, 0) for col in cols) for u in perms)


@functools.lru_cache(maxsize=None)
def multiplicity(n: int, k: int, q0: int, allow_large: bool = False) -> int:
    """Multiplicity of the eigenvalue [k]_{q0} of the tau action.

    Exact for n <= 5.  For n >= 6 (guarded by `allow_large`: the matrix
    is n! x n!) ranks are first computed modulo several large primes;
    if they agree that consensus is used, otherwise the exact
    elimination runs.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > _EXACT_N_CEILING and not allow_large:
        raise ValueError(
            f"n={n} means a {math.factorial(n)}x{math.factorial(n)} exact "
            "elimination; pass allow_large=True to run it anyway"
        )
    m = tau_matrix(n, q0)
    c = q_int(k)(q0)
    shifted = [list(row) for row in m]
    for i in range(len(shifted)):
        shifted[i][i] -= c
    if n > _EXACT_N_CEILING:
        mod_ranks = {rank_mod(shifted, p) for p in _PREPASS_PRIMES}
        if len(mod_ranks) == 1:
            return math.factorial(n) - mod_ranks.pop()
    return math.factorial(n) - rank(shifted)


def verify_multiplicities(
    n: int,
    q_values: Iterable[int] = (1, 2, 3),
    allow_large: bool = False,
) -> CheckResult:
    """Compare every eigenvalue multiplicity against direct enumeration.

    For each q0 and each k in [0, n], the rank-based multiplicity must
    equal the number of permutations with exactly k fixed points, and
    the multiplicities must sum to n!.
    """
    qs = list(q_values)
    fixed_counts = [0] * (n + 1)
    for w in enumerate_perms(n):
        fixed_counts[w.fixed_point_count()] += 1
    rows = []
    ok_all = True
    for q0 in qs:
        mults = [multiplicity(n, k, q0, allow_large) for k in range(n + 1)]
        for k in range(n + 1):
            ok = mults[k] == fixed_counts[k]
            row = {
                "q0": q0,
                "k": k,
                "eigenvalue": q_int(k)(q0),
                "multiplicity": mults[k],
                "fixed_point_count": fixed_counts[k],
                "pass": ok,
            }
            rows.append(row)
            ok_all = ok_all and ok
        total_ok = sum(mults) == math.factorial(n)
        rows.append({"q0": q0, "sum": sum(mults), "expected_sum": math.factorial(n), "pass": total_ok})
        ok_all = ok_all and total_ok
    return CheckResult("multiplicities", {"n": n, "q0": qs}, ok_all, rows)
