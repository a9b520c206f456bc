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

>>> print(tau(3))
T[1 2 3] + T[1 3 2] + T[2 3 1]
>>> wallach_product(2).is_zero()
True
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Union

from .polyring import ONE, Poly, Q, ZERO, q_int
from .symgroup import Perm, cycle_element, enumerate_perms

__all__ = [
    "HeckeElt",
    "simple_times_basis",
    "mul",
    "basis_times",
    "tau",
    "tau_times",
    "wallach_product",
    "specialize",
    "group_mul",
    "wallach_group_product",
    "left_mult_matrix",
]

Scalar = Union[Poly, int]
_Q_MINUS_1 = Q - 1


def _as_coeff(value: object) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly((value,))
    return None


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
            p = _as_coeff(c)
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
    def zero(cls, n: int) -> "HeckeElt":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "HeckeElt":
        return cls(n, {Perm.identity(n): ONE})

    @classmethod
    def basis(cls, w: Perm) -> "HeckeElt":
        return cls(w.n, {w: ONE})

    def coeff(self, w: Perm) -> Poly:
        return self.terms.get(w, ZERO)

    def support(self) -> list[Perm]:
        return sorted(self.terms, key=lambda w: w.image)

    def is_zero(self) -> bool:
        return not self.terms

    def _lift(self, other: object) -> "HeckeElt | None":
        if isinstance(other, HeckeElt):
            return other
        c = _as_coeff(other)
        if c is None:
            return None
        return HeckeElt(self.n, {Perm.identity(self.n): c})

    def __add__(self, other: object) -> "HeckeElt":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.n != self.n:
            raise ValueError(f"rank mismatch: {self.n} vs {o.n}")
        out = dict(self.terms)
        for w, c in o.terms.items():
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        e = object.__new__(HeckeElt)
        e.n, e.terms = self.n, out
        return e

    __radd__ = __add__

    def __neg__(self) -> "HeckeElt":
        e = object.__new__(HeckeElt)
        e.n = self.n
        e.terms = {w: -c for w, c in self.terms.items()}
        return e

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
        p = _as_coeff(c)
        if p is None:
            return NotImplemented
        if not p:
            return HeckeElt.zero(self.n)
        e = object.__new__(HeckeElt)
        e.n = self.n
        e.terms = {w: coeff * p for w, coeff in self.terms.items()}
        return e

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


def _simple_times(i: int, terms: Mapping[Perm, Poly]) -> dict[Perm, Poly]:
    # T_i * sum c_u T_u; zero coefficients are kept, callers drop them
    out: dict[Perm, Poly] = {}
    for u, c in terms.items():
        ui = u.image
        su = Perm._make(tuple(i + 1 if x == i else i if x == i + 1 else x for x in ui))
        if ui.index(i) < ui.index(i + 1):
            # length goes up: plain basis element
            out[su] = out.get(su, ZERO) + c
        else:
            out[su] = out.get(su, ZERO) + Q * c
            out[u] = out.get(u, ZERO) + _Q_MINUS_1 * c
    return out


def simple_times_basis(i: int, w: Perm) -> HeckeElt:
    """The product T_i * T_w expanded in the standard basis.

    >>> print(simple_times_basis(1, Perm.identity(2)))
    T[2 1]
    >>> print(simple_times_basis(1, Perm((2, 1))))
    q*T[1 2] + (-1 + q)*T[2 1]
    """
    if not 1 <= i < w.n:
        raise ValueError(f"generator index {i} outside 1..{w.n - 1}")
    return HeckeElt(w.n, _simple_times(i, {w: ONE}))


def _peel(
    img: tuple[int, ...], pick: Callable[[list[int]], int] = min
) -> tuple[int, tuple[int, ...]]:
    # a left descent i of the permutation w = img, chosen by `pick`, and
    # the image of s_i w
    n = len(img)
    pos = [0] * (n + 1)
    for idx, val in enumerate(img):
        pos[val] = idx
    i = pick([i for i in range(1, n) if pos[i] > pos[i + 1]])
    return i, tuple(i + 1 if x == i else i if x == i + 1 else x for x in img)


def mul(a: HeckeElt, b: HeckeElt, pick: Callable[[list[int]], int] = min) -> HeckeElt:
    """Product in the algebra.

    The left factor is peeled one generator at a time: T_w * b is
    computed as T_i * (T_{s_i w} * b) for a left descent i of w, with
    the partial products memoized so common prefixes are shared across
    the support of `a`.  `pick` chooses the descent and exists so tests
    can confirm the result does not depend on that choice.
    """
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    n = a.n
    memo: dict[tuple[int, ...], dict[Perm, Poly]] = {
        Perm.identity(n).image: dict(b.terms)
    }

    def t_times_b(img: tuple[int, ...]) -> dict[Perm, Poly]:
        hit = memo.get(img)
        if hit is not None:
            return hit
        i, shorter = _peel(img, pick)
        memo[img] = out = _simple_times(i, t_times_b(shorter))
        return out

    acc: dict[Perm, Poly] = {}
    for w, p in a.terms.items():
        for u, c in t_times_b(w.image).items():
            s = acc.get(u, ZERO) + p * c
            if s:
                acc[u] = s
            else:
                acc.pop(u, None)
    e = object.__new__(HeckeElt)
    e.n, e.terms = n, acc
    return e


def basis_times(b: HeckeElt) -> dict[Perm, HeckeElt]:
    """T_x * b for every x in S_n, keyed by x in lexicographic order.

    Each product is one generator step from a shorter one,
    T_x b = T_i (T_{s_i x} b) for a left descent i of x.  The walk may
    follow enumerate_perms order because s_i x precedes x there: its
    image swaps the values i + 1, i of x back into increasing order.

    >>> cols = basis_times(HeckeElt.unit(3))
    >>> all(cols[x] == HeckeElt.basis(x) for x in enumerate_perms(3))
    True
    """
    out: dict[Perm, HeckeElt] = {}
    for x in enumerate_perms(b.n):
        if out:
            i, shorter = _peel(x.image)
            step = _simple_times(i, out[Perm._make(shorter)].terms)
            terms = {u: c for u, c in step.items() if c}
        else:  # the identity comes first
            terms = dict(b.terms)
        e = out[x] = object.__new__(HeckeElt)
        e.n, e.terms = b.n, terms
    return out


def tau(n: int) -> HeckeElt:
    """Sum of T over the cycles (g, g+1, ..., n) for g in [1, n]."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return HeckeElt(n, [(cycle_element(g, n), ONE) for g in range(1, n + 1)])


def tau_times(a: HeckeElt) -> HeckeElt:
    """tau * a in n - 1 generator steps: T_{c_g} = T_g T_{c_{g+1}} as
    lengths add, so each T_{c_g} a is one step from T_{c_{g+1}} a,
    starting at T_{c_n} a = a, and tau * a is their running sum.

    >>> tau_times(HeckeElt.unit(3)) == tau(3)
    True
    """
    acc = dict(a.terms)
    step = a.terms
    for g in range(a.n - 1, 0, -1):
        step = _simple_times(g, step)
        for u, c in step.items():
            acc[u] = acc.get(u, ZERO) + c
    return HeckeElt(a.n, acc)


def _retained_ks(n: int) -> list[int]:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [k for k in range(1, n + 1) if k != n - 1]


def wallach_product(n: int, omit: int | None = None) -> HeckeElt:
    """tau * prod over k in [1, n] \\ {n-1} of (tau - [k]_q).

    Every factor is a polynomial in tau, so the factors commute and each
    is applied to the running product x as tau * x - [k]_q x.
    `omit` skips one factor: omit=0 drops the leading tau, omit=k drops
    the (tau - [k]_q) factor.  Used by minimality checks; the full
    product is identically zero, every omitted variant is not.
    """
    ks = _retained_ks(n)
    if omit is not None and omit != 0 and omit not in ks:
        raise ValueError(f"omit must be 0 or one of {ks}, got {omit}")
    prod = HeckeElt.unit(n) if omit == 0 else tau(n)
    for k in ks:
        if k != omit:
            prod = tau_times(prod) - q_int(k) * prod
    return prod


def specialize(a: HeckeElt, q0: int) -> dict[Perm, int]:
    """Module-level alias for :meth:`HeckeElt.specialize`."""
    return a.specialize(q0)


def group_mul(a: Mapping[Perm, int], b: Mapping[Perm, int]) -> dict[Perm, int]:
    """Product in the group algebra Z[S_n] of dicts Perm -> int."""
    out: dict[Perm, int] = {}
    for u, cu in a.items():
        ui = u.image
        for v, cv in b.items():
            w = Perm._make(tuple(ui[x - 1] for x in v.image))
            s = out.get(w, 0) + cu * cv
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def wallach_group_product(n: int, omit: int | None = None) -> dict[Perm, int]:
    """The q = 1 product in Z[S_n]; an empty dict means zero.

    Same factor layout as :func:`wallach_product` with tau replaced by
    its q = 1 specialization and [k]_q by the integer k.
    """
    ks = _retained_ks(n)
    if omit is not None and omit != 0 and omit not in ks:
        raise ValueError(f"omit must be 0 or one of {ks}, got {omit}")
    ident = Perm.identity(n)
    shuffle = {cycle_element(g, n): 1 for g in range(1, n + 1)}
    prod = dict(shuffle) if omit != 0 else {ident: 1}
    for k in ks:
        if k == omit:
            continue
        factor = dict(shuffle)
        c = factor.get(ident, 0) - k
        if c:
            factor[ident] = c
        else:
            factor.pop(ident, None)
        prod = group_mul(prod, factor)
    return prod


def left_mult_matrix(a: HeckeElt) -> list[dict[int, Poly]]:
    """Columns of left multiplication by `a` on the standard basis.

    Column j holds a * T_{w_j} expanded in the basis as a sparse dict
    {row index: coefficient}; rows and columns are both indexed by the
    lexicographic order of enumerate_perms(a.n).
    """
    perms = enumerate_perms(a.n)
    index = {w: i for i, w in enumerate(perms)}
    cols = []
    for w in perms:
        prod = mul(a, HeckeElt.basis(w))
        cols.append({index[u]: c for u, c in prod.terms.items()})
    return cols
