"""Convolution of GL-invariant functions on pairs of complete flags.

Everything here happens over a prime field F_q.  A complete flag in
F_q^n is a chain V_1 < V_2 < ... < V_{n-1} of subspaces with
dim V_i = i.  GL_n(F_q) acts diagonally on pairs of flags, and the
orbit of a pair (W, V) is labeled by a permutation: the relative
position.  Row i of the label records where the chain of W jumps
across the chain of V,

    w(i) = the unique j where d_{ij} = dim(W_i \\cap V_j)
           jumps in both i and j,

so that the pair (wE, E) built from the coordinate flag E and its
permuted copy has relative position exactly w.  Functions constant on
orbits are stored by label (:class:`OrbitFn`) and multiply by
convolution over a middle flag,

    (f * f')(W, V) = sum over flags M of f(W, M) f'(M, V),

evaluated once per orbit on a representative pair.  The distinguished
functions are f1, the indicator of the pairs that agree up to some
level g - 1 and then interleave, and its relatives f_t defined by
strictly increasing minimal-inclusion indices; the verify_* entry
points check the product rule f1 * f_t = [t]_q f_t + q^t f_{t+1}, the
telescoping factorization of f_t through products of (f1 - [k]_q f0),
the span and commutativity of the f_t, and the exact match between
convolution structure constants and Hecke algebra structure constants
at the same q.

A product reads only the y-slices of the structure tensor for y in the
support of its sparser factor.  Slice y counts the middle flags of one
Bruhat cell, {M : pos(M, E) = y}, which holds q^l(y) of the [n]_q!
flags, and no check reads every flag at once: the product rule, the
factorization and span read the slices of the n cycles of their sparse
factors, and compare_structure_constants reads those of 1, s_1, ...,
s_(n-1), from which every other structure constant follows.  Only the
cross-check check_orbit_representatives counts every slice, one cell at
a time.

Enumerating flags is exponential in n, so every entry point that needs
the flag variety takes a `budget` and refuses (with
:class:`BudgetExceeded`) before enumerating anything when its flag
count is over the budget.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .hecke import _basis_walk, _regular, tau
from .polyring import q_int
from .report import CheckResult
from .spectral import _add_row, _echelon, _is_prime, _reduce, rank
from .symgroup import Perm, _perm_index, _require_n, cycle_element, enumerate_perms

__all__ = [
    "BudgetExceeded",
    "FLAG_BUDGET",
    "Subspace",
    "Flag",
    "flag_count",
    "enumerate_flags",
    "relative_position",
    "representative_pair",
    "OrbitFn",
    "f1",
    "f_t",
    "in_x_t",
    "convolve",
    "verify_lemma3",
    "verify_factorization",
    "verify_span_commutativity",
    "compare_structure_constants",
    "check_orbit_representatives",
]

FLAG_BUDGET = 20000


class BudgetExceeded(ValueError):
    """Raised before enumerating a flag variety larger than the budget."""


def _require_field_size(q: int) -> None:
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be a prime, got {q!r}")


def _require_prime(q: int) -> None:
    _require_field_size(q)
    if not _is_prime(q):
        # TODO prime powers need a field abstraction; arithmetic mod q
        # only covers prime q
        raise ValueError(f"q must be prime (prime fields only), got {q}")


# ---------------------------------------------------------------------------
# pivot profiles: the fast route to a relative position
#
# Let C be the chain matrix of a middle flag M: row i is the i-th chain
# vector, so M_i is spanned by rows 1..i.  The lattice reads only the
# columns of each C, never the flag's subspaces.  For a set A of
# coordinates write E_A for their span, and let P(A) be the set of i at
# which dim(M_i cap E_A) goes up.  For the coordinate flag zE, the
# relative position x = pos(zE, M) has x(k) = the one element of P(A_k)
# missing from P(A_{k-1}), where A_k = {z(1), ..., z(k)}; this is the
# second-difference rule of relative_position read along one chain,
# and tests compare the two exhaustively.
#
# P(A) is the complement of the set Q(B), B the coordinates outside A,
# of the i at which the rank of rows 1..i of C restricted to the
# columns B goes up: dim(M_i cap E_A) + rank = i.  Q(B) is the set of
# leading pivots of the span of the columns of C in B, so it does not
# depend on the order of those columns, and Q(B) follows from Q(B
# minus its top column) by one step: reduce that column against the
# echelon rows of the columns before it, keyed by their leading pivots,
# and read off the new pivot.  _pivot_masks thus computes Q over the
# lattice of column subsets, 2^n - 2 steps, and _cell_slice reads
# pos(zE, M) for all n! orders z off chains of Q values, without
# inverting C or reducing any row order.
#
# _pivot_masks runs this lattice over the chain matrices of one cell and
# keeps only the pivot sets Q(b), as the subset-major buffers that
# _cell_slice reads; no chain matrix outlives it.  Over F_2 the flags of
# the cell run at once: _chain_lanes holds entry (i, j) of every chain
# matrix as one int, a lane, whose byte f is the entry of flag f, so one
# XOR or AND of two lanes steps every flag.  Other q stream the columns
# of _cell_columns through the lattice flag by flag, on the elimination
# kernel mod q of spectral (_add_row, _reduce), which the literal layer
# (Subspace, Flag, relative_position) runs on too.  That per-flag path
# is the lanes' oracle, in the tests and in check_orbit_representatives
# at q = 2; the lanes share no code with the kernel, and the tests check
# every pivot set of the per-flag path against a local rref that shares
# none either.


def _moved_columns(cols: Sequence[Sequence[int]], q: int) -> list[list[int]]:
    # the column list of C h^T, C the chain matrix with columns `cols`, h
    # upper unitriangular with ones on the diagonal and superdiagonal:
    # column i + column i + 1 mod q, the last column as it is.  hE = E, so
    # pos(hM, E) = pos(M, E) and h maps each cell onto itself, while
    # pos(zE, hM) = pos(h^-1 zE, M) reads orbit z at a second pair for
    # every z != 1 (h fixes zE only if z^-1 h z is upper triangular,
    # z^-1(i) < z^-1(i + 1) for every i, so z = 1)
    return [[(x + y) % q for x, y in zip(a, b)] for a, b in zip(cols, cols[1:])] + [list(cols[-1])]


def _subset_splits(n: int) -> list[tuple[int, int, int]]:
    # every proper nonempty column subset b, split as (b, top column,
    # rest); rest < b, so its stored columns and pivots are ready
    return [(b, b.bit_length() - 1, b & ~(1 << (b.bit_length() - 1)))
            for b in range(1, (1 << n) - 1)]


def _flag_masks(columns: Iterable[Sequence[Sequence[int]]], n: int, q: int) -> dict[int, bytes]:
    """The pivot sets of every chain matrix, reduced flag by flag.

    Byte b of a flag's pattern is the pivot set Q(b) of the column
    subset b, as a bit mask of rows (byte 0 is the empty set).  Each b
    below 2^(n-1) keeps its columns as the kernel's echelon rows, grown
    from its rest's by one _add_row call; a larger b, the rest of none,
    reads its new lead by one _reduce call.  A column with no new lead
    raises ArithmeticError.  Entries must lie in [0, q).  Flags
    with equal patterns add equal counts, so they are merged: for q > 2
    there are far fewer patterns than flags.  The patterns of one weight
    go to one buffer, subset-major: byte b * len(group) + p is Q(b) of
    pattern p.
    """
    full = (1 << n) - 1
    half = 1 << (n - 1)
    splits = _subset_splits(n)
    patterns: dict[bytes, int] = {}
    pivots = [0] * full
    stored: list[dict[int, tuple[int, ...]]] = [{}] * half
    for cols in columns:
        for b, top, rest in splits:
            if b < half:
                # b is the rest of a larger subset: keep its echelon rows
                stored[b] = below = dict(stored[rest])
                t = _add_row(below, cols[top], q)
            else:
                t = _reduce(list(cols[top]), stored[rest], q)
            if t == n:
                raise ArithmeticError("dependent columns have no pivot")
            pivots[b] = pivots[rest] | 1 << t
        pattern = bytes(pivots)
        patterns[pattern] = patterns.get(pattern, 0) + 1
    groups: dict[int, list[bytes]] = {}
    for pattern, weight in patterns.items():
        groups.setdefault(weight, []).append(pattern)
    out = {}
    for weight, group in groups.items():
        table = b"".join(group)
        out[weight] = b"".join(table[b::full] for b in range(full))
    return out


def _cell_layout(y: Perm) -> tuple[list[int], list[tuple[int, int]]]:
    """The chain basis layout of the flags M with pos(M, E) = y.

    Row k of the chain basis has a 1 at coordinate y(k), free entries
    at the coordinates below y(k) that no earlier row leads with, and
    zeros everywhere else.  Returns the 0-based tops of the rows and the
    free (coordinate, row) slots, the first slot the slowest digit of
    itertools.product.  Row k thus has #{i > k : y(i) < y(k)} free
    entries, and the cell q^l(y) flags.  Proof that pos(M, E) = y: the
    top coordinates of rows 1..k are y(1), ..., y(k), all distinct, so a
    combination of them has the top coordinate of its highest row with
    a nonzero coefficient, and lies in E_j exactly when it uses only
    rows with y(i) <= j.  So dim(M_k cap E_j) = #{i <= k : y(i) <= j},
    which jumps exactly at (k, y(k)).  Row k is the one vector of M_k
    with top coordinate y(k), a 1 there and zeros at the earlier tops,
    so each flag of the cell comes once.
    """
    tops = [x - 1 for x in y.image]
    slots = [(j, k) for k, top in enumerate(tops) for j in range(top) if j not in tops[:k]]
    return tops, slots


def _cell_columns(n: int, q: int, y: Perm) -> Iterator[list[list[int]]]:
    # the column lists of the chain matrices of the cell of y, the
    # values of its free slots in itertools.product order
    tops, slots = _cell_layout(y)
    cols = [[0] * n for _ in range(n)]
    for k, top in enumerate(tops):
        cols[top][k] = 1
    for values in itertools.product(range(q), repeat=len(slots)):
        for (j, k), v in zip(slots, values):
            cols[j][k] = v
        yield [c[:] for c in cols]


def _chain_lanes(n: int, y: Perm) -> tuple[list[list[int]], int]:
    """The chain matrices of the cell of y over F_2, as byte lanes.

    lanes[j][i] is entry i of column j of every chain matrix: its byte
    f is that entry of flag f of the cell, in _cell_columns order.  With
    L = l(y) each lane has 2^L bytes: all 0x01 at the tops, zero off the
    slots, and at free slot s the counter pattern (0^p 1^p) * 2^s,
    p = 2^(L - 1 - s).  Returns the lanes and their flag count, 2^L.
    """
    tops, slots = _cell_layout(y)
    size = 1 << len(slots)
    cell = {(top, k): b"\x01" * size for k, top in enumerate(tops)}
    for s, slot in enumerate(slots):
        p = size >> (s + 1)
        cell[slot] = (bytes(p) + b"\x01" * p) * (1 << s)
    lanes = [[int.from_bytes(cell.get((j, i), b""), "little") for i in range(n)] for j in range(n)]
    return lanes, size


def _lane_masks(lanes: Sequence[Sequence[int]], n: int, count: int) -> dict[int, bytes]:
    """The pivot sets of the `count` chain matrices in `lanes` over F_2, all at once.

    The same lattice as _flag_masks on lanes: s[i][j] is entry j of the
    stored column with pivot i, zero in the flags that have none.  Row
    by row, the flags still without a new pivot and with entry i set
    reduce by s[i]; those where entry i is still set have their pivot at
    i.  The pivot sets, one byte per flag, form a single buffer of
    weight 1, subset-major: byte b * count + f is Q(b) of flag f.
    """
    full = (1 << n) - 1
    half = 1 << (n - 1)
    ones = int.from_bytes(b"\x01" * count, "little")
    pivots = [0] * full
    stored: list[list[list[int]]] = [[[0] * n for _ in range(n)]] * half
    for b, top, rest in _subset_splits(n):
        below = stored[rest]
        keep = b < half
        s = list(below)
        r = list(lanes[top])
        pending = ones
        mask = pivots[rest]
        for i in range(n):
            c = r[i] & pending
            if not c:
                continue
            si = below[i]
            for j in range(i, n):
                r[j] ^= c & si[j]
            new = r[i] & pending
            if new:
                pending ^= new
                mask |= new << i
                if keep:
                    s[i] = [x | (new & y) for x, y in zip(si, r)]
        if pending:
            raise ArithmeticError("dependent columns have no pivot")
        pivots[b] = mask
        if keep:
            stored[b] = s
    return {1: b"".join(m.to_bytes(count, "little") for m in pivots)}


def _pivot_masks(n: int, q: int, y: Perm) -> dict[int, bytes]:
    """The pivot sets of the chain matrices of the cell of y, keyed by weight.

    F_2 runs on the byte lanes of the cell, other q on its column lists
    as _cell_columns writes them, so no list of flags is built.  The
    cell is checked where the sets are read, by _census.
    """
    if q == 2:
        lanes, count = _chain_lanes(n, y)
        return _lane_masks(lanes, n, count)
    return _flag_masks(_cell_columns(n, q, y), n, q)


# ---------------------------------------------------------------------------
# subspaces and flags


class Subspace:
    """A subspace of F_q^n held as an echelon basis.

    `pivots` maps the lead of each basis row to its tail from the lead
    on, with a leading 1, as the elimination kernel (_reduce, _echelon)
    keys them.  The basis is not canonical: two spanning sets of one
    space may give different tails.  Every echelon basis of a space has
    the same set of leads, so equality and hashing read that set, and
    equal lead sets with different tails are told apart by containment.
    """

    __slots__ = ("ambient", "q", "pivots")

    def __init__(self, vectors: Iterable[Sequence[int]], ambient: int, q: int) -> None:
        _require_prime(q)
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(f"vector of length {len(v)} in F_q^{ambient}")
        self.ambient = ambient
        self.q = q
        self.pivots: dict[int, tuple[int, ...]] = _echelon(vecs, q)

    @classmethod
    def _make(cls, ambient: int, q: int, pivots: dict[int, tuple[int, ...]]) -> "Subspace":
        s = object.__new__(cls)
        s.ambient, s.q, s.pivots = ambient, q, pivots
        return s

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The echelon basis as full rows, by increasing lead."""
        return tuple((0,) * i + self.pivots[i] for i in sorted(self.pivots))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains_vector(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient:
            raise ValueError(f"vector of length {len(v)} in F_q^{self.ambient}")
        w = [x % self.q for x in v]
        return _reduce(w, self.pivots, self.q) == len(w)

    def __le__(self, other: "Subspace") -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.ambient, self.q) != (other.ambient, other.q):
            raise ValueError("subspaces of different spaces")
        return all(other.contains_vector(r) for r in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.ambient, self.q) != (other.ambient, other.q) or (
            self.pivots.keys() != other.pivots.keys()
        ):
            return False
        # one lead set, so one dimension: equal tails or containment
        return self.pivots == other.pivots or self <= other

    def __hash__(self) -> int:
        return hash((self.ambient, self.q, frozenset(self.pivots)))

    def __repr__(self) -> str:
        return f"<Subspace dim {self.dim} of F_{self.q}^{self.ambient}>"


class Flag:
    """A complete flag in F_q^n: proper steps of dimensions 1..n-1.

    Built only by from_basis, standard, permuted and enumerate_flags,
    whose steps are nested by construction.
    """

    __slots__ = ("q", "steps", "n")

    def __init__(self) -> None:
        raise TypeError("build a Flag with from_basis, standard, permuted or enumerate_flags")

    @classmethod
    def _make(cls, q: int, n: int, steps: tuple[Subspace, ...]) -> "Flag":
        f = object.__new__(cls)
        f.q, f.steps, f.n = q, steps, n
        return f

    @classmethod
    def from_basis(cls, vectors: Iterable[Sequence[int]], q: int) -> "Flag":
        """The flag whose step i is the span of the first i vectors."""
        _require_prime(q)
        vecs = [tuple(v) for v in vectors]
        n = len(vecs)
        for v in vecs:
            if len(v) != n:
                raise ValueError(f"vector of length {len(v)} in a basis of F_q^{n}")
        return cls._make(q, n, _flag_steps(vecs, q))

    @classmethod
    def standard(cls, n: int, q: int) -> "Flag":
        """The coordinate flag E: step i spanned by e_1, ..., e_i."""
        return cls.permuted(Perm.identity(n), q)

    @classmethod
    def permuted(cls, w: Perm, q: int) -> "Flag":
        """The coordinate flag wE: step i spanned by e_{w(1)}, ..., e_{w(i)}."""
        return cls.from_basis([[int(j == x - 1) for j in range(w.n)] for x in w.image], q)

    def step(self, i: int) -> Subspace:
        """Step i for i in [0, n]: 0 is the zero space, n the whole space."""
        if not 0 <= i <= self.n:
            raise ValueError(f"step index {i} outside 0..{self.n}")
        if i == 0:
            return _end_steps(self.n, self.q)[0]
        if i == self.n:
            return _end_steps(self.n, self.q)[1]
        return self.steps[i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flag):
            return NotImplemented
        return (self.q, self.n, self.steps) == (other.q, other.n, other.steps)

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.steps))

    def __repr__(self) -> str:
        return f"<Flag in F_{self.q}^{self.n}>"


def _flag_steps(basis: Sequence[Sequence[int]], q: int) -> tuple[Subspace, ...]:
    """The proper steps span(b_1, ..., b_i), i < n, of a basis of F_q^n.

    Each vector takes one _add_row call, so step i holds the first i
    echelon rows and the steps are nested by construction.  Raises
    ValueError when a vector depends on the ones before it.
    """
    n = len(basis)
    pivots: dict[int, tuple[int, ...]] = {}
    steps = []
    for v in basis:
        if _add_row(pivots, v, q) == n:
            raise ValueError("vectors are linearly dependent")
        if len(pivots) < n:
            steps.append(Subspace._make(n, q, dict(pivots)))
    return tuple(steps)


@lru_cache(maxsize=None)
def _end_steps(n: int, q: int) -> tuple[Subspace, Subspace]:
    # the zero space and the whole space of F_q^n, one pair per (n, q):
    # relative_position asks every flag for them
    full = {i: (1,) + (0,) * (n - 1 - i) for i in range(n)}
    return Subspace._make(n, q, {}), Subspace._make(n, q, full)


def _q_factorial(n: int, q: int) -> int:
    return math.prod(q_int(k)(q) for k in range(1, n + 1))


def flag_count(n: int, q: int) -> int:
    """Number of complete flags in F_q^n: the q-factorial [1][2]...[n] at q."""
    _require_prime(q)
    _require_n(n)
    return _q_factorial(n, q)


def _check_budget(n: int, q: int, budget: int) -> int:
    """The flag count of F_q^n, n >= 1; BudgetExceeded when it is over `budget`.

    An oversized request is refused as over the budget before q is
    tested at all, so it gets that answer for every q, even one at or
    above 3.3e24 that the primality test refuses as undecidable.
    """
    _require_n(n)
    _require_field_size(q)
    total = _q_factorial(n, q)
    if total > budget:
        raise BudgetExceeded(
            f"F_{q}^{n} has {total} complete flags, over the budget of {budget}"
        )
    _require_prime(q)
    return total


def _check_tensor(n: int, q: int, budget: int) -> None:
    # the refusals that every flag verifier, convolve and the cross-check
    # share, before any orbit function or flag is built: the flag
    # budget, then the counting-field width of _key_field (n >= 9)
    _check_budget(n, q, budget)
    _key_field(n)


def _chain_bases(n: int, q: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The chain basis b_1, ..., b_n of every complete flag in F_q^n.

    Step i of the flag is spanned by b_1, ..., b_i.  Row b_k has a 1 at
    a coordinate p that no earlier row leads with, zeros at the earlier
    leading coordinates and at the unused coordinates before p, and any
    entries at the unused coordinates after p, so b_n is the remaining
    unit vector and each flag is produced exactly once.  Raises
    ArithmeticError at the end if the count is not flag_count(n, q).
    Only enumerate_flags reads it, so the cells stay checked by it.
    """
    rows: list[tuple[int, ...]] = []

    def grow(free: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not free:
            yield tuple(rows)
            return
        for ip, p in enumerate(free):
            later = free[ip + 1 :]
            rest = free[:ip] + later
            for tail in itertools.product(range(q), repeat=len(later)):
                v = [0] * n
                v[p] = 1
                for j, c in zip(later, tail):
                    v[j] = c
                rows.append(tuple(v))
                yield from grow(rest)
                rows.pop()

    count = 0
    for basis in grow(tuple(range(n))):
        count += 1
        yield basis
    if count != flag_count(n, q):
        raise ArithmeticError(f"enumerated {count} flags, expected {flag_count(n, q)}")


def enumerate_flags(n: int, q: int, budget: int = FLAG_BUDGET) -> tuple[Flag, ...]:
    """All complete flags in F_q^n, in a deterministic order.

    The predicted count is checked against `budget` before any
    enumeration starts; BudgetExceeded is raised when it would not fit.
    """
    _check_budget(n, q, budget)
    return tuple(Flag._make(q, n, _flag_steps(basis, q)) for basis in _chain_bases(n, q))


# ---------------------------------------------------------------------------
# relative position


def _intersection_dim(a: Subspace, b: Subspace) -> int:
    return a.dim + b.dim - len(_echelon(a.rows + b.rows, a.q))


def _check_pair(w_flag: Flag, v_flag: Flag) -> None:
    if (w_flag.q, w_flag.n) != (v_flag.q, v_flag.n):
        raise ValueError("flags live in different spaces")


def relative_position(w_flag: Flag, v_flag: Flag) -> Perm:
    """The permutation labeling the GL_n(F_q)-orbit of the ordered pair.

    Computed literally from the intersection dimensions
    d_{ij} = dim(W_i cap V_j): the label w sends i to the unique j with
    d_{ij} - d_{i-1,j} - d_{i,j-1} + d_{i-1,j-1} = 1.  Satisfies
    relative_position(wE, E) == w for the coordinate flag E, and
    swapping the arguments inverts the label.
    """
    _check_pair(w_flag, v_flag)
    n = w_flag.n
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        wi = w_flag.step(i)
        for j in range(1, n + 1):
            d[i][j] = _intersection_dim(wi, v_flag.step(j))
    image = []
    for i in range(1, n + 1):
        hits = [
            j
            for j in range(1, n + 1)
            if d[i][j] - d[i - 1][j] - d[i][j - 1] + d[i - 1][j - 1] == 1
        ]
        if len(hits) != 1:
            raise ArithmeticError(f"jump pattern of row {i} is not a permutation row")
        image.append(hits[0])
    return Perm(tuple(image))


def representative_pair(w: Perm, q: int) -> tuple[Flag, Flag]:
    """The standard representative (wE, E) of the orbit labeled w."""
    return Flag.permuted(w, q), Flag.standard(w.n, q)


# ---------------------------------------------------------------------------
# per-(n, q) structure tensor, one slice at a time


@lru_cache(maxsize=None)
def _inverses(n: int) -> list[int]:
    # the label index of w^-1 for the label index of every w
    index = _perm_index(n)
    return [index[w.inverse().image] for w in enumerate_perms(n)]


@lru_cache(maxsize=None)
def _label_chains(n: int) -> tuple[int, list[list[int]], list[int], list[bytes]]:
    # the bit width of a chain name, which shifts the y half of a key;
    # for every label z the chain B_1, ..., B_(n-1), B_k the coordinates
    # outside z(1), ..., z(k), with its name; and for _key_counter the
    # tables taking a pivot mask to byte k of its counting field
    full = (1 << n) - 1
    chains = [[full ^ m for m in itertools.accumulate(1 << (k - 1) for k in z.image)][:-1]
              for z in enumerate_perms(n)]
    size = _key_field(n)[1]
    fields = [_chain_name([m], n).to_bytes(size, sys.byteorder) for m in range(256)]
    planes = list(map(bytes, zip(*fields)))
    return n * (n - 1).bit_length(), chains, [_chain_name(c, n) for c in chains], planes


def _key_counter(n: int, groups: Mapping[int, bytes]) -> Callable[[Sequence[int]], Counter[int]]:
    """The per-z key count of _cell_slice, over the pivot sets `groups`.

    Returns keys_under(chain): for the chain of a label z, the Counter
    of the keys (name of y^-1 = pos(E, M)) << shift | (name of
    x = pos(zE, M)) over every pattern, times its weight.  The names of
    each subset are packed once, here, so a call is n big-int sums and
    one Counter update per weight.
    """
    fmt, size = _key_field(n)
    shift, chains, _, planes = _label_chains(n)
    full = (1 << n) - 1
    order = sys.byteorder
    # field p of subset b's packed column names Q(b) of pattern p;
    # every column is read into one int once, per weight
    packed = []
    for weight, masks in groups.items():
        span = len(masks) // full * size
        buf = bytearray(len(masks) * size)
        for k, plane in enumerate(planes):
            buf[k::size] = masks.translate(plane)
        column = [int.from_bytes(buf[b * span : (b + 1) * span], order) for b in range(full)]
        del buf
        packed.append((weight, span, column, sum(column[b] for b in chains[0]) << shift))

    def keys_under(chain: Sequence[int]) -> Counter[int]:
        keys: Counter[int] = Counter()
        for weight, span, column, y_column in packed:
            acc = y_column + sum(column[b] for b in chain)
            names_at = memoryview(acc.to_bytes(span, order)).cast(fmt)
            if weight == 1:
                keys.update(names_at)
            else:
                keys.update({key: c * weight for key, c in Counter(names_at).items()})
        return keys

    return keys_under


def _census(n: int, q: int, keys: Mapping[int, int], y: Perm) -> None:
    # the one cell check of the fast side, on the keys under the identity
    # chain: each names pos(E, M) = y^-1 twice, and a key's y half is the
    # same under every chain.  ArithmeticError unless they count q^l(y)
    # flags, all in the cell of y
    size = q ** y.length()
    count = sum(keys.values())
    if count != size:
        raise ArithmeticError(f"enumerated {count} flags, expected {size}")
    shift, _, names, _ = _label_chains(n)
    name = names[_perm_index(n)[y.inverse().image]]
    held = keys.get(name << shift | name, 0)
    if held != size:
        raise ArithmeticError(f"the cell of {y} holds {held} flags, expected {size}")


def _chain_name(sets: Iterable[int], n: int) -> int:
    # the sum of the sets, as bit masks of 0..n-1, as digit vectors: set
    # S adds 1 at bit j * w for each j in S, w = (n - 1).bit_length()
    w = (n - 1).bit_length()
    return sum(1 << j * w for s in sets for j in range(n) if s >> j & 1)


def _key_field(n: int) -> tuple[str, int]:
    """The memoryview format and byte size of one counting field at n.

    A field holds the names of two chains, 2 * n * w bits.  Past 64
    bits no native int holds it, so n >= 9 is refused.
    """
    bits = 2 * n * (n - 1).bit_length()
    if bits > 64:
        raise ValueError(f"a counting field at n = {n} needs {bits} bits, over 64")
    return ("I", 4) if bits <= 32 else ("Q", 8)


@lru_cache(maxsize=None)
def _slice(n: int, q: int, y: int) -> list[dict[int, int]]:
    # _cell_slice over the cell of y, kept for the products that reread it
    label = enumerate_perms(n)[y]
    return _cell_slice(n, q, y, _pivot_masks(n, q, label))


def _cell_slice(n: int, q: int, y: int, groups: Mapping[int, bytes]) -> list[dict[int, int]]:
    """The y-slice of the structure tensor, counted from one cell's pivot sets.

    Labels are indices into enumerate_perms(n).  Entry z maps x to
    count_z(x, y): the number of middle flags M with pos(zE, M) labeled
    x and pos(M, E) labeled y, (zE, E) the representative pair of orbit
    z.  That count is the structure constant of the convolution algebra,
    e_x * e_y = sum over z of count_z(x, y) e_z.  Only the flags of the
    cell pos(M, E) = y take part, so `groups` holds the pivot sets of
    its q^l(y) chain matrices, as _pivot_masks writes them.

    For the flag zE the label x = pos(zE, M) is read off the chain
    Q(B_1), ..., Q(B_{n-1}), B_k the coordinates outside z(1), ...,
    z(k), and the identity order gives pos(E, M), whose inverse is y.
    A chain is named by one int, the sum of its sets as digit vectors:
    set S adds 1 at bit j * w for each row j in S, w = (n - 1).bit_length().
    The digit of row j counts the sets that hold j, and a chain of sizes
    n - 1, ..., 1 has the digits 0..n-1 in some order, so the name is
    injective (the plain sum of the masks is not, for n >= 4).
    _key_counter packs the names at one subset, over all patterns of one
    weight, as one int of fixed-width fields with the y names in the
    upper half of each field, so the keys (y, x) of every pattern under
    one z are one sum of n big ints with no carry between fields, and
    one Counter.  A field needs 2 * n * w bits, so n >= 9 is refused by
    _key_field.  _census raises ArithmeticError unless the keys under
    the identity count q^l(y) flags, all in the cell of y, which checks
    the cell formula as it runs.  The caller checks the flag budget and
    the field width.
    """
    keys_under = _key_counter(n, groups)
    label = enumerate_perms(n)[y]
    shift, chains, names, _ = _label_chains(n)
    low = (1 << shift) - 1
    x_of = dict(zip(names, itertools.count()))
    out = []
    for z, chain in enumerate(chains):
        keys = keys_under(chain)
        if not z:
            _census(n, q, keys, label)
        out.append({x_of[key & low]: c for key, c in keys.items()})
    return out


def check_orbit_representatives(n: int, q: int, budget: int = FLAG_BUDGET) -> None:
    """Recount every slice of the structure tensor of F_q^n on second orbit representatives.

    Each cell of _cell_columns is moved by the h of _moved_columns,
    column i + column i + 1 mod q, which keeps it and reads orbit z at
    (h^-1 zE, E).  _flag_masks reduces every moved flag once at every
    q, and the slice counted from those pivot sets must equal the slice
    counted from the cell's own, by _pivot_masks, so at q = 2 the lanes
    meet their per-flag oracle.  The census of the moved slice proves
    that h kept every flag in its cell.  Otherwise ArithmeticError names
    the cell, n and q.  Both slices are counted afresh, not read from
    the cache of _slice, and dropped after their comparison.  The flag
    budget and the field width are checked before anything is
    enumerated.
    """
    _check_tensor(n, q, budget)
    for y, label in enumerate(enumerate_perms(n)):
        own = _cell_slice(n, q, y, _pivot_masks(n, q, label))
        moved = (_moved_columns(cols, q) for cols in _cell_columns(n, q, label))
        if _cell_slice(n, q, y, _flag_masks(moved, n, q)) != own:
            raise ArithmeticError(f"slice {label} at n = {n}, q = {q} "
                                  "differs from the structure tensor")


# ---------------------------------------------------------------------------
# orbit functions


class OrbitFn:
    """A GL-invariant integer function on flag pairs, stored by orbit label."""

    __slots__ = ("n", "q", "values")

    def __init__(
        self, n: int, q: int, values: Mapping[Perm, int] | Iterable[tuple[Perm, int]] = ()
    ) -> None:
        # repeated labels add up, as in HeckeElt; zero sums are dropped
        items = values.items() if isinstance(values, Mapping) else values
        vals: dict[Perm, int] = {}
        for w, c in items:
            if w.n != n:
                raise ValueError(f"label {w!r} does not live in S_{n}")
            if not isinstance(c, int):
                raise TypeError(f"integer values required, got {c!r}")
            vals[w] = vals.get(w, 0) + c
        self.n = n
        self.q = q
        self.values = {w: c for w, c in vals.items() if c}

    @classmethod
    def indicator(cls, w: Perm, q: int) -> "OrbitFn":
        return cls(w.n, q, {w: 1})

    def __getitem__(self, w: Perm) -> int:
        return self.values.get(w, 0)

    def support(self) -> list[Perm]:
        return sorted(self.values, key=lambda w: w.image)

    def is_zero(self) -> bool:
        return not self.values

    def _check(self, other: "OrbitFn") -> None:
        if (self.n, self.q) != (other.n, other.q):
            raise ValueError("orbit functions over different flag varieties")

    def __add__(self, other: "OrbitFn") -> "OrbitFn":
        if not isinstance(other, OrbitFn):
            return NotImplemented
        self._check(other)
        terms = itertools.chain(self.values.items(), other.values.items())
        return OrbitFn(self.n, self.q, terms)

    def __sub__(self, other: "OrbitFn") -> "OrbitFn":
        if not isinstance(other, OrbitFn):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, c: int) -> "OrbitFn":
        if not isinstance(c, int):
            return NotImplemented
        return OrbitFn(self.n, self.q, {w: v * c for w, v in self.values.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitFn):
            return NotImplemented
        return (self.n, self.q, self.values) == (other.n, other.q, other.values)

    def __str__(self) -> str:
        if not self.values:
            return "0"
        parts = []
        for w in self.support():
            c = self.values[w]
            basis = "e[" + " ".join(str(x) for x in w.image) + "]"
            parts.append(basis if c == 1 else f"{c}*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<OrbitFn n={self.n} q={self.q} with {len(self.values)} orbits>"


def _is_f1_pair(w_flag: Flag, v_flag: Flag) -> bool:
    # agree up to level g-1, then every step of W sits inside the next
    # step of V without equality, for some g
    n = w_flag.n
    for g in range(1, n + 1):
        if all(w_flag.step(r) == v_flag.step(r) for r in range(1, g)) and all(
            w_flag.step(r) != v_flag.step(r) and w_flag.step(r) <= v_flag.step(r + 1)
            for r in range(g, n)
        ):
            return True
    return False


def f1(n: int, q: int) -> OrbitFn:
    """The base orbit function: value 1 on the interleaving pairs.

    Its support is exactly the orbits of the cycles c_g = (g, g+1, ...,
    n), matching the support of tau.  Proof, on the representative pair
    (wE, E): W_r = V_r means w({1..r}) = {1..r}, and W_r <= V_{r+1}
    means w({1..r}) lies in {1..r+1}.  So the pair passes _is_f1_pair
    at g when w(r) = r for r < g and, for g <= r < n, w({1..r}) is
    {1..r+1} less one j <= r; these sets grow with r and hold
    {1..g-1}, so j = g each time, which is w = c_g.
    """
    _require_prime(q)
    _require_n(n)
    return OrbitFn(n, q, {cycle_element(g, n): 1 for g in range(1, n + 1)})


def in_x_t(w_flag: Flag, v_flag: Flag, t: int) -> bool:
    """Membership of the pair in the set X_t.

    The pair lies in X_t when the minimal inclusion indices
    m_r = min{ i : W_r <= V_i } are strictly increasing for
    r = 1, ..., n - t.  For t = n the condition is empty.
    """
    _check_pair(w_flag, v_flag)
    n = w_flag.n
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t}")
    prev = 0
    for r in range(1, n - t + 1):
        wr = w_flag.step(r)
        m = next(
            (i for i in range(max(prev, 1), n + 1) if wr <= v_flag.step(i)), None
        )
        if m is None or m == prev:
            return False
        prev = m
    return True


def f_t(n: int, q: int, t: int) -> OrbitFn:
    """The indicator of X_t as an orbit function; zero for t > n.

    (wE, E) lies in X_t exactly when w(1) < ... < w(n - t).  Proof:
    W_r <= V_i means w({1..r}) is inside {1..i}, so the minimal
    inclusion index of in_x_t is m_r = max(w(1), ..., w(r)), and it
    rises strictly at r exactly when w(r) exceeds every earlier value.
    """
    _require_prime(q)
    _require_n(n)
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if t > n:
        return OrbitFn(n, q)
    cut = n - t
    vals = {w: 1 for w in enumerate_perms(n) if list(w.image[:cut]) == sorted(w.image[:cut])}
    return OrbitFn(n, q, vals)


def _indexed(f: OrbitFn) -> list[tuple[int, int]]:
    index = _perm_index(f.n)
    return [(index[w.image], c) for w, c in f.values.items()]


def convolve(f: OrbitFn, g: OrbitFn, budget: int = FLAG_BUDGET) -> OrbitFn:
    """(f * g)(W, V) = sum over middle flags M of f(W, M) g(M, V).

    Orbit-invariant, so it is evaluated on one representative pair
    (zE, E) per orbit z: (f * g)(z) = sum over x, y of
    f(x) g(y) count_z(x, y).  Only middle flags in the cells
    pos(M, E) = y of supp g count, so the product reads the y-slices of
    supp g, each built over its cell of q^l(y) flags and cached.  When
    the cells of supp f hold fewer flags than those of supp g, it
    reads those of supp f instead, through the transpose identity
    count_z(x, y) = count_{z^-1}(y^-1, x^-1) of _cell_slice: the middle
    flags M counted at the pair (A, C) = (zE, E) for the labels (x, y)
    are exactly those counted at (C, A) for (y^-1, x^-1), since swapping
    a pair inverts its label, and (C, A) = (E, zE) lies in the orbit
    z^-1.  So f * g = T(T(g) * T(f)), T(h)(w) = h(w^-1), and l(w^-1) =
    l(w).  The choice depends only on the supports; the values are the
    same either way.  The budget and the field width are checked as for
    every flag check.
    """
    f._check(g)
    n, q = f.n, f.q
    _check_tensor(n, q, budget)
    perms = enumerate_perms(n)
    inverse = _inverses(n)
    left, right = _indexed(f), _indexed(g)

    def cells(h: list[tuple[int, int]]) -> int:
        return sum(q ** perms[w].length() for w, _ in h)

    turn = cells(right) > cells(left)
    if turn:
        left, right = ([(inverse[w], c) for w, c in h] for h in (right, left))
    values = [0] * len(perms)
    for x, a in left:
        values[x] = a
    acc = [0] * len(perms)
    for y, b in right:
        for z, counts in enumerate(_slice(n, q, y)):
            acc[z] += b * sum(map(operator.mul, map(values.__getitem__, counts), counts.values()))
    if turn:
        acc = [acc[z] for z in inverse]
    return OrbitFn(n, q, {w: c for w, c in zip(perms, acc) if c})


# ---------------------------------------------------------------------------
# verifications


def _first_mismatch(a: OrbitFn, b: OrbitFn) -> str:
    for w in sorted(set(a.values) | set(b.values), key=lambda p: p.image):
        if a[w] != b[w]:
            return f"orbit {w}: {a[w]} != {b[w]}"
    return "none"


def _row(head: Mapping[str, object], lhs: OrbitFn, rhs: OrbitFn) -> dict[str, object]:
    # the comparison row lhs == rhs; on failure its witness names the
    # first mismatched orbit
    row = {**head, "pass": lhs == rhs}
    if not row["pass"]:
        row["witness"] = _first_mismatch(lhs, rhs)
    return row


def verify_lemma3(
    n: int,
    q: int,
    t_values: Iterable[int] | None = None,
    budget: int = FLAG_BUDGET,
) -> CheckResult:
    """Check the convolution product rule f1 * f_t = [t]_q f_t + q^t f_{t+1}.

    By default t runs over [1, n+2], past the collapse point f_n =
    f_{n-1} and into the range where both sides vanish.  An empty
    list of t values is refused, and so is a t outside [1, n+2]: past
    it a row compares zero with zero, while [t]_q still costs a t-term
    polynomial.
    """
    _check_tensor(n, q, budget)
    ts = sorted(set(t_values)) if t_values is not None else list(range(1, n + 3))
    if not ts:
        raise ValueError("empty t list: a check of no t values proves nothing")
    if ts[0] < 1 or ts[-1] > n + 2:
        bad = ts[0] if ts[0] < 1 else ts[-1]
        raise ValueError(f"t values must be in [1, {n + 2}], got {bad}")
    base = f1(n, q)
    needed = sorted(set(ts) | {t + 1 for t in ts})
    fs = {t: f_t(n, q, t) for t in needed}
    rows = []
    for t in ts:
        lhs = convolve(base, fs[t], budget)
        rhs = q_int(t)(q) * fs[t] + (q ** t) * fs[t + 1]
        rows.append(_row({"t": t}, lhs, rhs))
    return CheckResult("lemma3", {"n": n, "q": q}, rows)


def verify_factorization(n: int, q: int, budget: int = FLAG_BUDGET) -> CheckResult:
    """Check the telescoping factorization and the full annihilation.

    For t in [1, n-1]:
        q^(t(t-1)/2) f_t == f1 * (f1 - [1]_q f0) * ... * (f1 - [t-1]_q f0)
    then the collapse f_{n-1} == f_n, and finally the full product with
    the factors (f1 - [k]_q f0) over k in [1, n] \\ {n-1} vanishes.
    """
    _check_tensor(n, q, budget)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    f0 = OrbitFn.indicator(Perm.identity(n), q)
    base = f1(n, q)
    rows = []
    prod = base
    for t in range(1, n):
        if t > 1:
            prod = convolve(prod, base - q_int(t - 1)(q) * f0, budget)
        ft = f_t(n, q, t)
        rows.append(_row({"t": t}, (q ** (t * (t - 1) // 2)) * ft, prod))
    # ft is f_(n-1) after the loop
    rows.append(_row({"check": "f_(n-1) == f_n"}, ft, f_t(n, q, n)))
    # continue the chain with the k = n factor (k = n-1 is skipped, the
    # same factor layout as the Hecke-side product)
    full = convolve(prod, base - q_int(n)(q) * f0, budget)
    rows.append(_row({"check": "full product == 0"}, full, OrbitFn(n, q)))
    return CheckResult("factorization", {"n": n, "q": q}, rows)


def verify_span_commutativity(n: int, q: int, budget: int = FLAG_BUDGET) -> CheckResult:
    """Check that {f_t} and the convolution powers of f1 span the same
    lattice of functions, with the triangular change of basis, and that
    all the f_t commute.

    The expansion f1^t = sum_s C[t][s] f_s is computed by the product
    rule recursion; its diagonal must be q^(t(t-1)/2), every expansion
    must reproduce the actual convolution power, the three integer
    matrices (f_t rows, power rows, both stacked) must share rank n,
    and f_s * f_t must equal f_t * f_s for all s, t in [0, n].

    The powers are n convolve calls with the sparse f1, which read the
    slices of its n cycles only.  Commutativity is a derived row,
    proved from the expansion and diagonal rows, t = 0..n.  C is lower
    triangular, and when the diagonal rows pass its diagonal
    q^(t(t-1)/2) is nonzero, so C is invertible over Q.  Row t = 0
    says f_0 = f1^0, the indicator of the diagonal orbit, which is the
    unit of convolution.  When every expansion row passes, each f_s is
    thus a Q-linear combination of the powers f1^t, a polynomial in f1.
    Convolution is associative and bilinear, so polynomials in one
    element commute, and f_s * f_t = f_t * f_s for all s, t.  The row
    passes exactly when those rows pass, and on failure it names the
    rows that failed.
    """
    _check_tensor(n, q, budget)
    fs = [f_t(n, q, t) for t in range(n + 1)]
    base = f1(n, q)
    rows = []

    powers = [OrbitFn.indicator(Perm.identity(n), q)]
    for _ in range(n):
        powers.append(convolve(base, powers[-1], budget))

    # C[t][s] over Z by the recursion C[t+1][s] = [s] C[t][s] + q^(s-1) C[t][s-1]
    coeffs: list[dict[int, int]] = [{0: 1}]
    for t in range(n):
        prev = coeffs[-1]
        nxt: dict[int, int] = {}
        # every s here is at most t <= n - 1, so s + 1 <= n
        for s, c in prev.items():
            v = q_int(s)(q) * c
            if v:
                nxt[s] = nxt.get(s, 0) + v
            nxt[s + 1] = nxt.get(s + 1, 0) + (q ** s) * c
        coeffs.append(nxt)

    for t in range(n + 1):
        expansion = OrbitFn(n, q)
        for s, c in coeffs[t].items():
            expansion = expansion + c * fs[s]
        rows.append(_row({"check": f"f1^{t} expansion"}, expansion, powers[t]))
        diag_ok = coeffs[t].get(t, 0) == q ** (t * (t - 1) // 2)
        rows.append({"check": f"diagonal C[{t}][{t}]", "pass": diag_ok})
    failed = [row["check"] for row in rows if not row["pass"]]

    perms = enumerate_perms(n)
    mat_f = [[f.values.get(w, 0) for w in perms] for f in fs]
    mat_p = [[p.values.get(w, 0) for w in perms] for p in powers]
    r_f, r_p, r_all = rank(mat_f), rank(mat_p), rank(mat_f + mat_p)
    rows.append(
        {"check": "span ranks", "rank_f": r_f, "rank_powers": r_p,
         "rank_union": r_all, "expected": n, "pass": r_f == r_p == r_all == n}
    )

    comm: dict[str, object] = {"check": "commutativity of all f_s, f_t", "pass": not failed}
    if failed:
        comm["witness"] = "not derived, failed rows: " + ", ".join(failed)
    rows.append(comm)
    return CheckResult("span", {"n": n, "q": q}, rows)


def _pair_name(perms: Sequence[Perm], slots: list[int]) -> str:
    # the first missed pair (x, y), by slot x * n! + y
    if not slots:
        return "none"
    xi, yi = divmod(min(slots), len(perms))
    return f"pair ({perms[xi]}, {perms[yi]})"


def _commuting_pairs(n: int, q: int) -> int:
    """The number of pairs (x, y) of labels with T_x T_y = T_y T_x at q.

    The Z[q]-linear map i: T_w -> T_{w^-1} is an anti-automorphism of
    H: the relations (T_i + 1)(T_i - q) = 0 and the braid relations read
    the same backwards, and the reverse of a reduced word of w is one of
    w^-1, so i(T_x T_y) = T_{y^-1} T_{x^-1}.  It permutes the basis, so
    it commutes with specializing at q, and T_y T_x = i(T_{x^-1}
    T_{y^-1}).  The walk from T_y gives T_x T_y for every x, and the
    walk from T_{y^-1} gives T_{x^-1} T_{y^-1}, so the two decide every
    pair at y and at y^-1: n! walks, each dropped after its pair of y,
    cover all n!^2 pairs.
    """
    inverse = _inverses(n)
    count = 0
    for y, y_inv in enumerate(inverse):
        if y_inv < y:
            continue
        walks = [_basis_walk(n, {y: 1}, q)]
        if y_inv != y:
            walks.append(_basis_walk(n, {y_inv: 1}, q))
        for walk, turned in zip(walks, reversed(walks)):
            for x, x_inv in enumerate(inverse):
                prod, swapped = walk(x), turned(x_inv)
                count += len(prod) == len(swapped) and all(
                    prod.get(inverse[z]) == c for z, c in swapped.items())
    return count


def compare_structure_constants(n: int, q: int, budget: int = FLAG_BUDGET) -> CheckResult:
    """Match convolution structure constants against the Hecke algebra at q.

    For every ordered pair (x, y) of orbit labels, e_x * e_y = sum over
    z of count_z(x, y) e_z is compared with the basis products T_x T_y
    and T_y T_x specialized at q.  One of the two operand orders must
    hold for all n!^2 pairs; which one holds is reported as
    "orientation" ("product" means convolve follows the T_x T_y order,
    "reversed" the opposite; when the algebra is commutative both hold
    and "product" is reported).  Additionally f1 must coincide with tau
    specialized at q.

    Only the generator rows are counted, as in Iwahori's identification
    of this convolution algebra with H: the slices of the cells of 1,
    s_1, ..., s_(n-1), which hold 1 + (n - 1) q flags, give e_x * e_y
    for every x at those y, the n * n! generator slots.  The rest
    follows.  Write phi(T_w) = e_w, extended linearly, and suppose the
    reversed rows hold: e_x * e_1 = e_x, and e_w * e_{s_i} =
    phi(T_i T_w) for every w and i, so phi(h) * e_{s_i} = phi(T_i h)
    for every h by linearity.  Induct on l(y).  For y = s_i y' with
    l(y') = l(y) - 1, the row at w = y' gives e_{y'} * e_{s_i} =
    phi(T_i T_{y'}) = e_y, and convolution is associative,

        ((f * g) * h)(A, C) = sum over M, N of f(A, N) g(N, M) h(M, C)
                            = (f * (g * h))(A, C),

    so e_x * e_y = (e_x * e_{y'}) * e_{s_i} = phi(T_{y'} T_x) * e_{s_i}
    = phi(T_i T_{y'} T_x) = phi(T_y T_x).  The product rows,
    e_w * e_{s_i} = phi(T_w T_i), give e_x * e_y = phi(T_x T_y) the
    same way, along right descents y = y' s_i.  So when the reversed
    rows hold, reversed_order_matches is n!^2, and
    product_order_matches counts the pairs with phi(T_x T_y) =
    phi(T_y T_x): those with T_x T_y = T_y T_x at q, a count on the
    Hecke side alone, by _commuting_pairs.  Symmetrically when the
    product rows hold.

    When neither order holds on the generator rows the row fails:
    "pairs" is the n * n! generator slots, the two counts are the
    matches among them, and the witness names the first missed slot
    (x, y), by x * n! + y, of each order.
    """
    _check_tensor(n, q, budget)
    perms = enumerate_perms(n)
    nperms = len(perms)
    index = _perm_index(n)
    times = _regular(n, q)
    product_misses: list[int] = []
    reversed_misses: list[int] = []
    # y = 1 at i = 0, then y = s_i; the slice and the walk key by label index
    for i in range(n):
        y = index[Perm.simple(i, n).image] if i else 0
        rows: list[dict[int, int]] = [{} for _ in range(nperms)]
        for z, counts in enumerate(_slice(n, q, y)):
            for x, c in counts.items():
                rows[x][z] = c
        walk = _basis_walk(n, {y: 1}, q)
        for x, row in enumerate(rows):
            # T_x T_y, and T_y T_x: T_i T_x, or T_x at the identity
            if row != walk(x):
                product_misses.append(x * nperms + y)
            turned = {u: c for u, c in times(i, {x: 1}).items() if c} if i else {x: 1}
            if row != turned:
                reversed_misses.append(x * nperms + y)

    if not product_misses:
        orientation = "product"
    elif not reversed_misses:
        orientation = "reversed"
    else:
        orientation = "inconsistent"
    if orientation == "inconsistent":
        pairs = n * nperms
        product_matches = pairs - len(product_misses)
        reversed_matches = pairs - len(reversed_misses)
    else:
        pairs = nperms * nperms
        commuting = _commuting_pairs(n, q)
        product_matches = pairs if orientation == "product" else commuting
        reversed_matches = commuting if orientation == "product" else pairs

    tensor_row: dict[str, object] = {
        "pairs": pairs,
        "product_order_matches": product_matches,
        "reversed_order_matches": reversed_matches,
        "orientation": orientation,
        "pass": orientation != "inconsistent",
    }
    if orientation == "inconsistent":
        tensor_row["witness"] = (
            f"product order first miss {_pair_name(perms, product_misses)}; "
            f"reversed order first miss {_pair_name(perms, reversed_misses)}"
        )
    tau_at_q = OrbitFn(n, q, tau(n).specialize(q))
    f1_row = _row({"check": "f1 == specialize(tau, q)"}, f1(n, q), tau_at_q)
    return CheckResult("structure-constants", {"n": n, "q": q}, [tensor_row, f1_row])
