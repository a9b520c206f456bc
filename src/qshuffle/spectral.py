"""Spectrum of the tau action: proven eigenvalue multiplicities.

Left multiplication by tau on the standard basis, specialized at an
integer q0 >= 1, is an n! x n! integer matrix M.  Its eigenvalues are
the q-integers [k]_{q0} for k in [0, n] with k = n - 1 absent, and the
multiplicity of [k]_{q0} equals the number of permutations in S_n with
exactly k fixed points.  At q0 = 1 this is the top-to-random spectrum of
Diaconis, Fill and Pitman (1992).  Multiplicities are proven per q0, not
voted, through the irreducible representations of H_n(q0), with no
n! x n! matrix.  Each step below is computed, and the first that fails
raises `CertificateError` with a witness that names the step and, where
the step is per shape, the partition lam:

* annihilator: ``wallach_product(n)`` is zero in Z[q], so the
  polynomial x * prod (x - [k]_{q0}) over k != n - 1 annihilates tau in
  every representation.  Its roots are distinct integers, so tau acts
  diagonalizably over Q with eigenvalues among the [k]_{q0}.
* contents: for the partitions lam of n, no two standard tableaux, of
  one shape or of two, share a content vector.
* dimension: sum over lam of (f^lam)^2 = n!, f^lam the number of
  tableaux of shape lam.
* relations: the seminormal matrices rho_lam(T_i) of `seminormal.Block`
  satisfy the quadratic, braid and far-commutation relations exactly,
  on integer columns with the denominators cleared.  So rho_lam is a
  representation of H_n(q0) over Q.
* jucys-murphy: the Jucys-Murphy elements L_k act diagonally in
  rho_lam, by [c_t(k)]_{q0} on the tableau t.  By the contents step
  their joint eigenvalues tell the tableaux apart, so the image of
  H_n(q0) holds every diagonal matrix unit.
* connected: the nonzero off-diagonal entries of the rho_lam(T_i) link
  all tableaux, so the image is all of M_{f^lam}(Q): rho_lam is
  absolutely irreducible.  By the contents step the rho_lam are
  pairwise non-isomorphic, so H_n(q0) maps onto the product of the
  End(V_lam), by the dimension step isomorphically, and the regular
  module is the sum of the V_lam, each f^lam times.  Then
  nullity_Q(M - [k] I) = sum over lam of f^lam nullity_Q(rho_lam(tau) - [k]).
* prime, sum: a rank modulo a prime p is at most the rank over Q, so
  each nullity_Q is at most the matching nullity_p.  rho_lam(tau) is
  reduced mod the largest prime p <= _CERT_PRIME that divides no
  denominator of the block and no difference of two eigenvalues.  If
  the nullities mod p of rho_lam(tau) - [k]_{q0}, k = 0..n, sum to f^lam,
  each equals its nullity over Q.

The blocks are at most 6 x 6 at n = 5, 35 x 35 at n = 7 and 90 x 90 at
n = 8.  `tau_matrix`, the matrix M itself, is the oracle of the tests
(one n! x n! elimination mod p per eigenvalue), not on the
multiplicity path.  `rank` (fraction-free Bareiss elimination over Z)
stays for the span ranks of the flag model and as the oracle of the
tests.  The elimination mod p, `_reduce`, is the one kernel of the
package: the literal flag layer (subspaces, flags, intersection
dimensions) and the pivot-profile lattice of the flag model at odd q
run on it too.  Their rows are mostly zeros, so it skips the zero
entries of each echelon row.  Only the F_2 lanes of the flag model
eliminate on their own, all flags of a set of cells at once.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

from .hecke import _regular, _tau_walk, wallach_product
from .polyring import q_int
from .report import CheckResult
from .seminormal import Block, partitions
from .symgroup import _require_n, enumerate_perms

__all__ = [
    "CertificateError",
    "rank",
    "rank_mod",
    "tau_matrix",
    "multiplicity",
    "verify_multiplicities",
]

# the largest prime of the multiplicity certificate: any prime keeps the
# proof sound, and one this large keeps the eigenvalues [k]_{q0}
# distinct mod p so that their nullities can add up to f^lam
_CERT_PRIME = 2**31 - 1
# eigenvalue work above this n needs allow_large: at n = 9 the
# annihilator alone runs over 9! basis elements
_LARGE_N = 8
# Miller-Rabin with the first thirteen primes as bases is exact below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); the first twelve are exact only below about 3.2e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


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


def _is_prime(p: int) -> bool:
    """Whether the integer p is prime, by deterministic Miller-Rabin.

    Exact below _MR_LIMIT (about 3.3e24); a larger p is refused with
    ValueError, not answered by chance.
    """
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: over {_MR_LIMIT}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _reduce(v: list[int], pivots: dict[int, Sequence[int]], p: int) -> int:
    """Reduce v, entries in [0, p), in place against echelon rows mod p.

    `pivots` maps a leading index i to the tail row[i:] of an echelon
    row with row[i] == 1.  The entries of v before i are already zero,
    and so are those of the row, so an update touches only the tail,
    and only where the tail is nonzero: chain matrices and flag bases
    are mostly zeros.  Returns the leading index of the remainder,
    len(v) when it is zero.
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
        for j, y in enumerate(tail, i):
            if y:
                v[j] = (v[j] - c * y) % p


def _add_row(pivots: dict[int, tuple[int, ...]], row: Sequence[int], p: int) -> int:
    """Add one row mod a prime p to the echelon rows `pivots`, in place.

    The row is reduced by _reduce; a nonzero remainder is scaled to a
    leading 1 and stored as its tail under its lead.  Returns that lead,
    or len(row) when the row is already in the span.
    """
    v = [x % p for x in row]
    i = _reduce(v, pivots, p)
    if i < len(v):
        tail = v[i:]
        if tail[0] != 1:
            inv = pow(tail[0], -1, p)
            tail = [(x * inv) % p for x in tail]
        pivots[i] = tuple(tail)
    return i


def _echelon(rows: Iterable[Sequence[int]], p: int) -> dict[int, tuple[int, ...]]:
    """Echelon rows of the span of `rows` mod a prime p, as _reduce keys them.

    One row per dimension of the span, so its length is the rank.
    """
    pivots: dict[int, tuple[int, ...]] = {}
    for row in rows:
        _add_row(pivots, row, p)
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


def _check_q0(q0: int) -> None:
    # 2.0, True and Fraction(2) are refused: the typed caches below must
    # not answer for them with the entries of 2 and 1
    if not isinstance(q0, int) or isinstance(q0, bool):
        raise TypeError(f"need an integer q0 >= 1, got {q0!r}")
    if q0 < 1:
        raise ValueError(f"need an integer q0 >= 1, got {q0}")


@functools.lru_cache(maxsize=None, typed=True)
def tau_matrix(n: int, q0: int) -> tuple[tuple[int, ...], ...]:
    """Dense matrix of left multiplication by tau at q = q0.

    Rows and columns follow enumerate_perms(n); entry (i, j) is the
    coefficient of T_{w_i} in tau * T_{w_j}, walked on ints at q0.  A
    q0 that is not an int, or is a bool, is refused.  The oracle of the
    multiplicity tests, not on the multiplicity path.
    """
    _check_q0(q0)
    size = len(enumerate_perms(n))
    times = _regular(n, q0)
    cols = [_tau_walk(n, {u: 1}, times) for u in range(size)]
    return tuple(tuple(col.get(u, 0) for col in cols) for u in range(size))


@functools.lru_cache(maxsize=None)
def _surviving_terms(n: int) -> int:
    # the annihilator in Z[q] holds for every q0 at once
    return len(wallach_product(n).terms)


def _block_prime(avoid: int) -> int | None:
    # the largest prime p <= _CERT_PRIME that does not divide `avoid`
    p = _CERT_PRIME
    while p >= 2:
        if avoid % p and _is_prime(p):
            return p
        p -= 1
    return None


@functools.lru_cache(maxsize=None, typed=True)
def _block_nullities(n: int, q0: int) -> tuple[int, ...]:
    """nullity(M - [k]_{q0} I) over Q for k = 0..n, from the irreducible blocks.

    The sum over lam of f^lam nullity(rho_lam(tau) - [k]_{q0}), proven
    step by step as in the module docstring.  The first step that fails
    raises CertificateError; its witness names the step and, for a step
    of one block, the shape lam.
    """
    _check_q0(q0)

    def fail(message: str, witness: dict) -> CertificateError:
        return CertificateError(f"{message} at n={n}, q0={q0}", witness)

    surviving = _surviving_terms(n)
    if surviving:
        raise fail("tau * prod(tau - [k]_q) is not zero",
                   {"step": "annihilator", "surviving_terms": surviving})
    blocks = [Block(shape, q0) for shape in partitions(n)]
    seen: set[tuple[int, ...]] = set()
    for b in blocks:
        vectors = set(b.contents)
        if len(vectors) != len(b.contents) or not seen.isdisjoint(vectors):
            raise fail(f"shape {b.shape} repeats a content vector",
                       {"shape": list(b.shape), "step": "contents"})
        seen |= vectors
    size = math.factorial(n)
    squares = sum(len(b.tableaux) ** 2 for b in blocks)
    if squares != size:
        raise fail(f"the blocks have {squares} matrix units, not {size}",
                   {"step": "dimension", "sum_of_squares": squares, "expected": size})
    eigenvalues = [q_int(k)(q0) for k in range(n + 1)]
    gaps = math.prod(b - a for i, a in enumerate(eigenvalues) for b in eigenvalues[i + 1 :])
    mults = [0] * (n + 1)
    for b in blocks:
        shape = list(b.shape)
        relation = b.relation_failure()
        if relation is not None:
            raise fail(f"shape {b.shape} breaks {relation}",
                       {"shape": shape, "step": "relations", "relation": relation})
        k = b.jucys_murphy_failure()
        if k is not None:
            raise fail(f"L_{k} is not diagonal by contents in shape {b.shape}",
                       {"shape": shape, "step": "jucys-murphy", "k": k})
        if not b.connected():
            raise fail(f"the tableaux of shape {b.shape} are not linked",
                       {"shape": shape, "step": "connected"})
        p = _block_prime(b.denominator * gaps)
        if p is None:
            raise fail(f"no prime up to {_CERT_PRIME} fits shape {b.shape}",
                       {"shape": shape, "step": "prime", "max_prime": _CERT_PRIME})
        m = b.tau_mod(p)
        f = len(m)
        nullities = []
        for c in eigenvalues:
            shifted = [row[:] for row in m]
            for i, row in enumerate(shifted):
                row[i] -= c
            # rows that tau_mod built from ints mod a prime it chose need
            # none of rank_mod's checks
            nullities.append(f - len(_echelon(shifted, p)))
        total = sum(nullities)
        if total != f:
            raise fail(f"nullities mod {p} sum to {total}, not {f}, in shape {b.shape}",
                       {"shape": shape, "step": "sum", "prime": p, "sum": total,
                        "expected_sum": f})
        for k, nu in enumerate(nullities):
            mults[k] += f * nu
    return tuple(mults)


def _check_size(n: int, allow_large: bool) -> None:
    _require_n(n)
    if n > _LARGE_N and not allow_large:
        raise ValueError(
            f"n={n} means the annihilator over {n}! = {math.factorial(n)} basis elements "
            "and an elimination mod p per eigenvalue on each seminormal block; "
            "pass --allow-large (allow_large=True in Python) to run it anyway"
        )


def multiplicity(n: int, k: int, q0: int, allow_large: bool = False) -> int:
    """Proven multiplicity of the eigenvalue [k]_{q0} of the tau action.

    Read from the block nullities at (n, q0), computed once for all k;
    raises CertificateError when the proof fails.  Above n = 8 the
    annihilator and the blocks grow past seconds, so it needs
    `allow_large`.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_size(n, allow_large)
    return _block_nullities(n, q0)[k]


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
    _check_size(n, allow_large)
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
