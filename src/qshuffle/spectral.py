"""Spectrum of the tau action: proven eigenvalue multiplicities.

Left multiplication by tau on the standard basis, specialized at an
integer q0 >= 1, is an n! x n! integer matrix M.  Its eigenvalues are
the q-integers [k]_{q0} for k in [0, n] with k = n - 1 absent, and the
multiplicity of [k]_{q0} equals the number of permutations in S_n with
exactly k fixed points.  Multiplicities are proven per q0, not voted:

* ``wallach_product(n)`` is zero in Z[q], so the polynomial
  x * prod (x - [k]_{q0}) over k != n - 1 annihilates M.  Its roots are
  distinct integers, so M is diagonalizable over Q and the nullities
  nullity_Q(M - [k]_{q0} I), k = 0..n, sum to n!.
* A rank modulo a prime p is at most the rank over Q, so each
  nullity_Q is at most the matching nullity_p.  If the nullities mod
  one prime also sum to n!, every nullity_Q equals its nullity_p.

So one elimination mod p per eigenvalue gives exact multiplicities.
When the annihilator survives or the sum misses n!, the helper raises
`CertificateError` with a witness and no multiplicity is returned.
`rank` (fraction-free Bareiss elimination over Z) stays for the span
ranks of the flag model and as the oracle of the tests.  The
elimination mod p, `_reduce`, is the one kernel of the package: the
literal flag layer (rref, subspaces, intersection dimensions) runs on
it too.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from .hecke import _tau_walk, wallach_product
from .polyring import q_int
from .report import CheckResult
from .symgroup import enumerate_perms

__all__ = [
    "CertificateError",
    "rank",
    "rank_mod",
    "tau_matrix",
    "multiplicity",
    "verify_multiplicities",
]

# the one prime of the multiplicity certificate: any prime keeps the
# proof sound, and one this large keeps the eigenvalues [k]_{q0}
# distinct mod p so that their nullities can add up to n!
_CERT_PRIME = 2**31 - 1
# eigenvalue work above this n needs allow_large
_LARGE_N = 5


class CertificateError(ArithmeticError):
    """The multiplicities at one q0 could not be proven.

    `witness` is a dict for a failing detail row: the number of
    surviving annihilator terms, or the prime with the nullity sum.
    """

    def __init__(self, message: str, witness: dict[str, int]):
        super().__init__(message)
        self.witness = witness


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


@functools.lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    # trial division, cached: every elimination mod the certificate
    # prime asks again
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _reduce(v: list[int], pivots: dict[int, Sequence[int]], p: int) -> int:
    """Reduce v, entries in [0, p), in place against echelon rows mod p.

    `pivots` maps a leading index i to the tail row[i:] of an echelon
    row with row[i] == 1.  The entries of v before i are already zero,
    and so are those of the row, so an update touches only the tails.
    Returns the leading index of the remainder, len(v) when it is zero.
    """
    i = 0
    n = len(v)
    while True:
        while i < n and not v[i]:
            i += 1
        tail = pivots.get(i)
        if tail is None:
            return i
        c = v[i]
        v[i:] = [(x - c * y) % p for x, y in zip(v[i:], tail)]


def _echelon(rows: Iterable[Sequence[int]], p: int) -> dict[int, list[int]]:
    """Echelon rows of the span of `rows` mod a prime p, as _reduce keys them.

    One row per dimension of the span, so its length is the rank.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        v = [x % p for x in row]
        i = _reduce(v, pivots, p)
        if i < len(v):
            inv = pow(v[i], -1, p)
            pivots[i] = [(x * inv) % p for x in v[i:]]
    return pivots


def rank_mod(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank of the matrix reduced modulo a prime p.

    Never more than the rank over Q.  The rows are brought to echelon
    form one at a time by _reduce, the one elimination kernel mod p of
    the package.  A modulus that is not prime is refused: Z/p is then
    not a field.
    """
    if not _is_prime(p):
        raise ValueError(f"need a prime modulus p, got {p}")
    _check_int_matrix(matrix)
    return len(_echelon(matrix, p))


# typed caches: 2.0 and True must not hit the entries of 2 and 1
@functools.lru_cache(maxsize=None, typed=True)
def tau_matrix(n: int, q0: int) -> tuple[tuple[int, ...], ...]:
    """Dense matrix of left multiplication by tau at q = q0.

    Rows and columns follow enumerate_perms(n); entry (i, j) is the
    coefficient of T_{w_i} in tau * T_{w_j}, walked on ints at q0.  A
    q0 that is not an int, or is a bool, is refused.
    """
    if not isinstance(q0, int) or isinstance(q0, bool):
        raise TypeError(f"need an integer q0 >= 1, got {q0!r}")
    if q0 < 1:
        raise ValueError(f"need an integer q0 >= 1, got {q0}")
    images = [w.image for w in enumerate_perms(n)]
    cols = [_tau_walk(n, {w: 1}, q0) for w in images]
    return tuple(tuple(col.get(u, 0) for col in cols) for u in images)


@functools.lru_cache(maxsize=None, typed=True)
def _certified_nullities(n: int, q0: int) -> tuple[int, ...]:
    """nullity(M - [k]_{q0} I) over Q for k = 0..n, M = tau_matrix(n, q0).

    Proven as in the module docstring: the annihilator is checked with
    the tau walk that builds M, then each nullity is taken mod
    _CERT_PRIME and their sum must be n!.  Raises CertificateError
    otherwise.
    """
    m = tau_matrix(n, q0)
    annihilator = wallach_product(n)
    if not annihilator.is_zero():
        raise CertificateError(
            f"tau * prod(tau - [k]_q) is not zero at n={n}",
            {"surviving_terms": len(annihilator.terms)},
        )
    size = math.factorial(n)
    p = _CERT_PRIME
    nullities = []
    for k in range(n + 1):
        c = q_int(k)(q0)
        shifted = [list(row) for row in m]
        for i, row in enumerate(shifted):
            row[i] -= c
        nullities.append(size - rank_mod(shifted, p))
    total = sum(nullities)
    if total != size:
        raise CertificateError(
            f"nullities mod {p} sum to {total}, not {size}, at n={n}, q0={q0}",
            {"prime": p, "sum": total, "expected_sum": size},
        )
    return tuple(nullities)


def multiplicity(n: int, k: int, q0: int, allow_large: bool = False) -> int:
    """Proven multiplicity of the eigenvalue [k]_{q0} of the tau action.

    Read from the certified nullities at (n, q0), computed once for all
    k; raises CertificateError when the certificate fails.  Above n = 5
    each eigenvalue costs an n! x n! elimination mod p, so it needs
    `allow_large`.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > _LARGE_N and not allow_large:
        size = math.factorial(n)
        raise ValueError(
            f"n={n} means a {size}x{size} elimination mod p per eigenvalue; "
            "pass --allow-large (allow_large=True in Python) to run it anyway"
        )
    return _certified_nullities(n, q0)[k]


def verify_multiplicities(
    n: int,
    q_values: Iterable[int] = (1, 2, 3),
    allow_large: bool = False,
) -> CheckResult:
    """Compare every eigenvalue multiplicity against direct enumeration.

    For each q0 and each k in [0, n], the proven multiplicity must
    equal the number of permutations with exactly k fixed points, and
    the multiplicities must sum to n!.  A q0 whose certificate fails
    gets one failing row with the witness instead.  An empty list of
    q0 values is refused.
    """
    qs = list(q_values)
    if not qs:
        raise ValueError("empty q0 list: a check of no q0 values proves nothing")
    fixed_counts = [0] * (n + 1)
    for w in enumerate_perms(n):
        fixed_counts[w.fixed_point_count()] += 1
    rows = []
    for q0 in qs:
        try:
            mults = [multiplicity(n, k, q0, allow_large) for k in range(n + 1)]
        except CertificateError as exc:
            rows.append({"q0": q0, **exc.witness, "pass": False})
            continue
        for k in range(n + 1):
            rows.append({
                "q0": q0,
                "k": k,
                "eigenvalue": q_int(k)(q0),
                "multiplicity": mults[k],
                "fixed_point_count": fixed_counts[k],
                "pass": mults[k] == fixed_counts[k],
            })
        total = sum(mults)
        expected = math.factorial(n)
        rows.append({"q0": q0, "sum": total, "expected_sum": expected, "pass": total == expected})
    return CheckResult("multiplicities", {"n": n, "q0": qs}, rows)
