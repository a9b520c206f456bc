"""The Iwahori-Hecke algebra of type A_{n-1} over Z[q], standard basis.

An element is a finite sum sum_w p_w(q) T_w over permutations w.  The
product is determined by T_u T_v = T_{uv} when lengths add together
with the quadratic relation (T_i + 1)(T_i - q) = 0 for the generators
T_i = T_{s_i}; concretely

    T_i T_w = T_{s_i w}                    if l(s_i w) > l(w),
    T_i T_w = q T_{s_i w} + (q - 1) T_w    otherwise.

The distinguished element here is tau, the sum over g in [1, n] of the
basis elements indexed by the cycles (g, g+1, ..., n); the g = n term
is the identity.  At q = 1 it specializes to the top-to-random shuffle
operator in Z[S_n].  ``wallach_product`` multiplies tau by the factors
(tau - [k]_q) for k in [1, n] with k = n - 1 skipped, and the result
vanishes identically.

The relation above lives in one generator step, T_i times a sparse
element, and the step takes q as a ring element: the Poly Q for Z[q],
or a plain int for the value at an integer q.  The walks key their
terms by label index, the position of w in enumerate_perms(n), and
read s_i w and the sign of l(s_i w) - l(w) off one table per generator
(``_rank_steps``); the public functions translate to Perm only at their
boundary.  Left multiplication by tau (n - 1 steps with a running sum)
and T_x b for every x (one step per x) are walks over that step.
``mul`` walks at Q and is the Z[q] oracle of the int walks.  The
spectrum's tau matrix and the structure-constant check walk at their
integer q.  ``wallach_product`` walks at q = 2^B
(Kronecker substitution) and decodes each coefficient as balanced
base-2^B digits, with B from a proven bound on the coefficients.

The q = 1 identity stays independent of the step.
``wallach_group_product`` keeps its running product as one int of n!
fixed-width residues in enumerate_perms(n) order and applies right
multiplication by the shuffle as n - 1 position swaps, each a list of
block moves over the indices.  ``group_mul`` is the general product in
Z[S_n] and the oracle of that walk.

>>> print(tau(3))
T[1 2 3] + T[1 3 2] + T[2 3 1]
>>> wallach_product(2).is_zero()
True
"""

from __future__ import annotations

import itertools
import math
import struct
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, TypeVar, Union

from .polyring import ONE, Poly, Q, ZERO, _coerce, q_int
from .symgroup import Perm, _perm_index, _require_n, _tuple_getter, cycle_element, enumerate_perms

__all__ = [
    "HeckeElt",
    "mul",
    "tau",
    "wallach_product",
    "group_mul",
    "wallach_group_product",
    "left_mult_matrix",
]

Scalar = Union[Poly, int]
# the coefficient ring of a walk: Poly for Z[q], int at an integer q
R = TypeVar("R", Poly, int)


class HeckeElt:
    """A Z[q]-linear combination of basis elements T_w, fixed n."""

    __slots__ = ("n", "terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[Perm, Scalar] | Iterable[tuple[Perm, Scalar]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Perm, Poly] = {}
        for w, c in items:
            if w.n != n:
                raise ValueError(f"basis index {w!r} does not live in S_{n}")
            p = _coerce(c)
            if p is None:
                raise TypeError(f"coefficient must be Poly or int, got {c!r}")
            p = acc.get(w, ZERO) + p
            if p:
                acc[w] = p
            else:
                acc.pop(w, None)
        self.n = n
        self.terms: dict[Perm, Poly] = acc

    @classmethod
    def _make(cls, n: int, terms: dict[Perm, Poly]) -> "HeckeElt":
        # trusted constructor: terms already in S_n, Poly and nonzero
        e = object.__new__(cls)
        e.n, e.terms = n, terms
        return e

    @classmethod
    def zero(cls, n: int) -> "HeckeElt":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "HeckeElt":
        return cls(n, {Perm.identity(n): ONE})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElt":
        return cls(w.n, {w: ONE})

    def support(self) -> list[Perm]:
        return sorted(self.terms, key=lambda w: w.image)

    def is_zero(self) -> bool:
        return not self.terms

    def _lift(self, other: object) -> "HeckeElt | None":
        if isinstance(other, HeckeElt):
            return other
        c = _coerce(other)
        if c is None:
            return None
        return HeckeElt(self.n, {Perm.identity(self.n): c})

    def __add__(self, other: object) -> "HeckeElt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {o.n}")
        return HeckeElt(self.n, itertools.chain(self.terms.items(), o.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "HeckeElt":
        return HeckeElt._make(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: object) -> "HeckeElt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "HeckeElt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "HeckeElt":
        if isinstance(other, HeckeElt):
            return mul(self, other)
        return self._scale(other)

    def __rmul__(self, other: object) -> "HeckeElt":
        # scalars commute; HeckeElt * HeckeElt never lands here
        return self._scale(other)

    def _scale(self, c: object) -> "HeckeElt":
        p = _coerce(c)
        if p is None:
            return NotImplemented
        if not p:
            return HeckeElt.zero(self.n)
        return HeckeElt._make(self.n, {w: coeff * p for w, coeff in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.n == o.n and self.terms == o.terms

    def specialize(self, q0: int) -> dict[Perm, int]:
        """Evaluate every coefficient at q = q0; a group-algebra element
        as a dict Perm -> int with zero values dropped."""
        out = {}
        for w, c in self.terms.items():
            v = c(q0)
            if v:
                out[w] = v
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in self.support():
            c = self.terms[w]
            basis = "T[" + " ".join(str(x) for x in w.image) + "]"
            if c == ONE:
                parts.append(basis)
            else:
                s = str(c)
                if " " in s or s.startswith("-"):
                    s = f"({s})"
                parts.append(f"{s}*{basis}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<HeckeElt n={self.n} with {len(self.terms)} terms>"


@lru_cache(maxsize=None)
def _rank_steps(n: int) -> tuple[list[int], ...]:
    """The rank step of each generator s_i on the indices of enumerate_perms(n).

    Table i - 1 holds d_i[u] with s_i w_u = w_{u + d_i[u]}, w_u the
    permutation of index u, and d_i[u] > 0 exactly when the length goes
    up.  With a and b the 0-based positions of i and i + 1 in w_u,
    d_i[u] = (n - 1 - a)! when a < b and -(n - 1 - b)! otherwise.

    Proof: u = sum over k of L_k (n - 1 - k)!, where the Lehmer code L_k
    counts the entries after position k that are smaller than w(k).
    s_i w swaps the values i and i + 1, and no value lies between them,
    so every L_k stays the same except the one at the earlier of the
    two positions: it gains one when i comes first (then
    l(s_i w) = l(w) + 1) and loses one when i + 1 comes first (then
    l(s_i w) = l(w) - 1).  Built on first use, once per n; n = 1 has no
    generators and no tables.
    """
    imgs = list(itertools.permutations(range(1, n + 1)))
    where = [[img.index(v) for img in imgs] for v in range(1, n + 1)]
    up = [math.factorial(n - 1 - a) for a in range(n)]
    down = [-d for d in up]
    return tuple(
        [up[a] if a < b else down[b] for a, b in zip(where[i - 1], where[i])]
        for i in range(1, n)
    )


@lru_cache(maxsize=None)
def _first_descents(n: int) -> list[tuple[list[int], int] | None]:
    """The first left descent of each label index, and the index it steps to.

    Entry u is (d_i, u + d_i[u]) for the least i with d_i[u] < 0, d_i
    the rank steps of s_i: the table of the first left descent i of w_u
    and the index of s_i w_u, which is smaller.  The identity, index 0,
    has no descent and holds None.  Built on first use, once per n.
    """
    table: list[tuple[list[int], int] | None] = [None] * math.factorial(n)
    # the later generators first, so the least descent is written last
    for step in reversed(_rank_steps(n)):
        for u, d in enumerate(step):
            if d < 0:
                table[u] = (step, u + d)
    return table


def _simple_times(step: Sequence[int], terms: Mapping[int, R], q: R) -> dict[int, R]:
    # T_i * sum c_u T_u for the rank steps `step` of s_i, keyed by label
    # index, over the ring of q (the Poly Q or an int); zero
    # coefficients are kept, callers drop them
    qm1 = q - 1
    out: dict[int, R] = {}
    get = out.get
    for u, c in terms.items():
        d = step[u]
        v = u + d
        old = get(v)
        if d > 0:
            # length goes up: plain basis element
            out[v] = c if old is None else old + c
        else:
            out[v] = q * c if old is None else old + q * c
            old = get(u)
            out[u] = qm1 * c if old is None else old + qm1 * c
    return out


def _indices(a: HeckeElt) -> dict[int, Poly]:
    index = _perm_index(a.n)
    return {index[w.image]: c for w, c in a.terms.items()}


def _elt(n: int, terms: Mapping[int, Poly]) -> HeckeElt:
    # the element with these index-keyed terms; zero terms dropped, and
    # the n! table of enumerate_perms(n) is read only for a nonzero term
    return HeckeElt._make(n, {enumerate_perms(n)[u]: c for u, c in terms.items() if c})


def _basis_walk(n: int, terms: Mapping[int, R], q: R) -> Callable[[int], dict[int, R]]:
    # x -> T_x * b for b = sum of `terms`, keyed by label index, over the
    # ring of q; zero terms dropped.  Each product is one generator step
    # from a shorter one, T_x b = T_i (T_{s_i x} b) for the first left
    # descent i of x, read off _first_descents, and is memoized, so
    # products share their common prefixes.  A descent is a negative
    # rank step, so s_i x precedes x and in enumerate_perms order every
    # call is one step.
    descents = _first_descents(n)
    memo: dict[int, dict[int, R]] = {0: dict(terms)}

    def walk(x: int) -> dict[int, R]:
        hit = memo.get(x)
        if hit is None:
            step, parent = descents[x]
            prod = _simple_times(step, walk(parent), q)
            memo[x] = hit = {u: c for u, c in prod.items() if c}
        return hit

    return walk


def _mul(n: int, a: Mapping[int, Poly], b: Mapping[int, Poly]) -> dict[int, Poly]:
    # a * b on index-keyed terms; zero coefficients are kept
    walk = _basis_walk(n, b, Q)
    acc: dict[int, Poly] = {}
    for w, p in a.items():
        for u, c in walk(w).items():
            acc[u] = acc.get(u, ZERO) + p * c
    return acc


def mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product in the algebra.

    The left factor is peeled one generator at a time: T_w * b is
    computed as T_i * (T_{s_i w} * b) for the first left descent i of
    w, with the partial products memoized so common prefixes are shared
    across the support of `a`.

    >>> s1 = HeckeElt.basis(Perm((2, 1)))
    >>> print(mul(s1, HeckeElt.unit(2)))
    T[2 1]
    >>> print(mul(s1, s1))
    q*T[1 2] + (-1 + q)*T[2 1]
    """
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    return _elt(a.n, _mul(a.n, _indices(a), _indices(b)))


def tau(n: int) -> HeckeElt:
    """Sum of T over the cycles (g, g+1, ..., n) for g in [1, n].

    At n = 2, tau = 1 + T_1 and tau^2 = [2]_q tau:

    >>> print(mul(tau(2), tau(2)))
    (1 + q)*T[1 2] + (1 + q)*T[2 1]
    """
    _require_n(n)
    return HeckeElt(n, [(cycle_element(g, n), ONE) for g in range(1, n + 1)])


def _tau_walk(n: int, terms: Mapping[int, R], q: R) -> dict[int, R]:
    # tau * x over the ring of q in n - 1 generator steps, keyed by
    # label index: T_{c_g} = T_g T_{c_{g+1}} as lengths add, so each
    # T_{c_g} x is one step from T_{c_{g+1}} x, starting at
    # T_{c_n} x = x, and tau * x is their running sum.  The result holds
    # every key of `terms` and keeps zero coefficients.
    steps = _rank_steps(n)
    acc = dict(terms)
    step = terms
    for g in range(n - 1, 0, -1):
        step = _simple_times(steps[g - 1], step, q)
        for u, c in step.items():
            old = acc.get(u)
            acc[u] = c if old is None else old + c
    return acc


def _retained_ks(n: int) -> list[int]:
    _require_n(n)
    return [k for k in range(1, n + 1) if k != n - 1]


def _factors(n: int, omit: int | None) -> list[int]:
    # the factors of the product in the order they are applied, less
    # `omit`: k stands for (tau - [k]_q), and 0 for the leading tau,
    # which is tau - [0]_q
    ks = _retained_ks(n)
    if omit is not None and omit != 0 and omit not in ks:
        raise ValueError(f"omit must be 0 or one of {ks}, got {omit}")
    return [k for k in (0, *ks) if k != omit]


def _kronecker_bits(n: int, omit: int | None) -> int:
    # B with every coefficient of wallach_product(n, omit) below 2^(B-1)
    # in absolute value; the bound is proven in wallach_product
    bound = 1 if omit == 0 else n
    for k in _retained_ks(n):
        if k != omit:
            bound *= (3**n - 1) // 2 + k
    return bound.bit_length() + 2


def _kronecker_decode(value: int, bits: int) -> Poly:
    # the Poly p with p(2^bits) = value and every |coefficient| below
    # 2^(bits-1): balanced base-2^bits digits, least significant first
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    coeffs = []
    while value:
        digit = ((value + half) & mask) - half
        coeffs.append(digit)
        value = (value - digit) >> bits
    return Poly(coeffs)


def wallach_product(n: int, omit: int | None = None) -> HeckeElt:
    """tau * prod over k in [1, n] \\ {n-1} of (tau - [k]_q).

    Every factor is a polynomial in tau, so the factors commute and each
    is applied to the running product x as tau * x - [k]_q x.
    `omit` skips one factor: omit=0 drops the leading tau, omit=k drops
    the (tau - [k]_q) factor.  Used by minimality checks; the full
    product is identically zero, every omitted variant is not.

    The walk runs on plain ints at q = 2^B (Kronecker substitution) and
    reads each coefficient back as balanced base-2^B digits.  Evaluation
    at 2^B is a ring homomorphism Z[q] -> Z, so the int walk is the
    exact image of the Z[q] walk; B only has to make the decoding
    unique, which holds when every coefficient c of the result has
    |c| < 2^(B-1).  Let N be the l1 norm over all coefficients of all
    terms.  One generator step gives N(T_i x) <= 3 N(x): a term either
    moves unchanged or splits into q c (norm N(c)) and (q - 1) c (norm
    at most 2 N(c)).  T_{c_g} is n - g steps, so
    N(tau x) <= (1 + 3 + ... + 3^(n-1)) N(x) = ((3^n - 1) / 2) N(x) and
    N((tau - [k]_q) x) <= ((3^n - 1) / 2 + k) N(x).  With N(tau) = n
    and N(1) = 1 the product of these factors bounds every coefficient,
    and B = bit_length(bound) + 2 leaves a factor of two to spare:
    B = 66 at n = 7 and 87 at n = 8.
    """
    factors = _factors(n, omit)
    bits = _kronecker_bits(n, omit)
    q = 1 << bits
    # the identity has index 0
    prod = {0: 1}
    for k in factors:
        qk = q_int(k)(q)
        shifted = _tau_walk(n, prod, q)
        for u, c in prod.items():
            shifted[u] -= qk * c
        prod = {u: c for u, c in shifted.items() if c}
    return _elt(n, {u: _kronecker_decode(c, bits) for u, c in prod.items()})


def group_mul(a: Mapping[Perm, int], b: Mapping[Perm, int]) -> dict[Perm, int]:
    """Product in the group algebra Z[S_n] of dicts Perm -> int.

    Each term v of the right factor composes the whole left factor
    through one getter, (u v)(i) = u(v(i)), and the sums collect on
    image tuples; Perm keys are built once, for the nonzero results.
    """
    ranks = {u.n for u in a} | {v.n for v in b}
    if len(ranks) > 1:
        raise ValueError(f"rank mismatch: {sorted(ranks)}")
    left = [(u.image, cu) for u, cu in a.items()]
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for v, cv in b.items():
        compose = _tuple_getter([x - 1 for x in v.image])
        for ui, cu in left:
            w = compose(ui)
            out[w] = get(w, 0) + cu * cv
    return {Perm._make(w): c for w, c in out.items() if c}


def _group_widths(n: int) -> int:
    # W for the q = 1 walk at n: every coefficient of
    # wallach_group_product(n, omit), for every omit, is below 2^(W-1)
    # in absolute value, and a 64-bit field holds every sum the walk
    # forms before its mask; both are proven in wallach_group_product
    ks = _retained_ks(n)
    bits = math.prod(n + k for k in (0, *ks)).bit_length() + 1
    # the largest k is n
    need = bits + (n + 1).bit_length()
    if need > 64:
        raise ValueError(f"the q = 1 walk needs {need}-bit fields at n = {n}; "
                         f"64 bits hold n <= 13")
    return bits


def _swap_moves(n: int, j: int) -> list[tuple[slice, slice]]:
    # (dst, src) slice pairs with dst[d] = src[s] for every pair taking
    # a vector z over enumerate_perms(n) to R_j z, (R_j z)(w) = z(w s_j):
    # the digit-pair map of wallach_group_product, one contiguous move
    # per run and period or one strided move per run offset, whichever
    # makes fewer moves
    m = n - j + 1
    run = math.factorial(m - 2)
    period = math.factorial(m)
    outer = math.factorial(n) // period
    blocks = []
    for a in range(m):
        for b in range(m - 1):
            a2, b2 = (b + 1, a) if a <= b else (b, a - 1)
            blocks.append(((a * (m - 1) + b) * run, (a2 * (m - 1) + b2) * run))
    if outer <= run:
        return [
            (slice(t + d, t + d + run), slice(t + s, t + s + run))
            for t in range(0, outer * period, period)
            for d, s in blocks
        ]
    return [
        (slice(d + i, None, period), slice(s + i, None, period))
        for d, s in blocks
        for i in range(run)
    ]


def wallach_group_product(n: int, omit: int | None = None) -> dict[Perm, int]:
    """The q = 1 product in Z[S_n]; an empty dict means zero.

    Same factor layout as :func:`wallach_product` with tau replaced by
    its q = 1 specialization, the shuffle sigma = sum over g of c_g, and
    [k]_q by the integer k.  The running product x is a vector over S_n
    in enumerate_perms(n) order, each factor is applied on the right as
    x -> x (sigma - k), and no permutation is built until the result.

    Horner form.  (x c_g)(w) = x(w c_g^-1), and c_g^-1 = s_{n-1} ... s_g
    since c_g = s_g ... s_{n-1}.  Let (R_j z)(w) = z(w s_j): w s_j swaps
    the entries at positions j and j + 1 of w.  Then (R_a R_b z)(w) =
    (R_b z)(w s_a) = z(w s_a s_b), so x c_g = R_{n-1} ... R_g x, and the
    sum over g = n, ..., 1 (c_n is the identity) nests as

        x sigma = x + R_{n-1}(x + R_{n-2}( ... (x + R_1 x))),

    n - 1 swaps per factor.

    A swap moves blocks.  The index of w is the sum over positions p of
    L_p (n - p)!, where the Lehmer digit L_p counts the entries after
    position p that are smaller than w(p).  w s_j swaps A = w(j) and
    B = w(j + 1); every other digit stays, as the entries after its
    position are the same set.  Let (a, b) = (L_j, L_{j+1}).  If A < B,
    then a <= b, as every later entry below A is below B, and the digits
    become (b + 1, a): B now also counts A, and A counts what it counted
    before.  If A > B, then a > b, and they become (b, a - 1).  So with
    m = n - j + 1, R_j permutes the m (m - 1) digit pairs; the pair
    (a, b) owns the run of (m - 2)! consecutive indices from
    (a (m - 1) + b) (m - 2)!, and the pattern repeats with period m!,
    one period per value of the leading digits.  ``_swap_moves`` lists
    these block moves, 1,264 of them over the n - 1 swaps at n = 8.

    Residues.  Let N be the sum of the absolute values of the
    coefficients.  sigma is a sum of n group elements, so
    N(x (sigma - k)) <= (n + k) N(x), and every coefficient of the
    result is at most the product over the factors of n + k in absolute
    value; that product with the leading tau as k = 0 bounds every omit,
    as each n + k >= 1.  The walk runs modulo 2^W, with W one bit more
    than the bit length of that bound (``_group_widths``; W = 30 at
    n = 8).  Reduction mod 2^W is a ring homomorphism, so the residue of
    each coefficient is exact, and it is read back in
    [-2^(W-1), 2^(W-1)).  The vector is one int of n! fields of 64
    bits, the coefficient of index u at bit 64 u.  Two vectors of
    residues add as ints, and a mask keeps the low W bits of each field;
    -k x is added as k (2^W - x), field by field.  A field then holds less than
    2^W + k 2^W < 2^(W + bit_length(k + 1)), so nothing spills into the
    next field while that is at most 64 bits.  k <= n, so this holds
    for every n <= 13; a larger n is refused before anything is
    allocated.

    >>> wallach_group_product(3) == {}
    True
    >>> wallach_group_product(3, omit=3) == dict.fromkeys(enumerate_perms(3), 1)
    True
    """
    factors = _factors(n, omit)
    bits = _group_widths(n)
    size = math.factorial(n)
    nbytes = size * 8
    ones = int.from_bytes((1).to_bytes(8, "little") * size, "little")
    mask = ones * ((1 << bits) - 1)
    top = ones << bits
    swaps = [_swap_moves(n, j) for j in range(1, n)]

    def swap(z: int, moves: list[tuple[slice, slice]]) -> int:
        src = memoryview(z.to_bytes(nbytes, "little")).cast("Q")
        out = bytearray(nbytes)
        dst = memoryview(out).cast("Q")
        for d, s in moves:
            dst[d] = src[s]
        return int.from_bytes(out, "little")

    # the identity leads the lexicographic order
    x = 1
    for k in factors:
        y = x
        for moves in swaps:
            y = (x + swap(y, moves)) & mask
        x = (y + k * (top - x)) & mask
    if not x:
        return {}
    half, full = 1 << (bits - 1), 1 << bits
    raw = x.to_bytes(nbytes, "little")
    # enumerate_perms(n) order, without caching n! Perm objects
    perms = itertools.permutations(range(1, n + 1))
    return {
        Perm._make(w): v - full if v >= half else v
        for w, (v,) in zip(perms, struct.iter_unpack("<Q", raw))
        if v
    }


def left_mult_matrix(a: HeckeElt) -> list[dict[int, Poly]]:
    """Columns of left multiplication by `a` on the standard basis.

    Column j holds a * T_{w_j} expanded in the basis as a sparse dict
    {row index: coefficient}; rows and columns are both indexed by the
    lexicographic order of enumerate_perms(a.n).
    """
    left = _indices(a)
    cols = []
    for j in range(math.factorial(a.n)):
        prod = _mul(a.n, left, {j: ONE})
        cols.append({u: c for u, c in prod.items() if c})
    return cols
