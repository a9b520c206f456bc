"""Permutations of {1, ..., n} in one-line notation.

A Perm stores the tuple (w(1), ..., w(n)).  Composition applies the
right factor first, (u * v)(i) = u(v(i)), so a product of adjacent
transpositions s_i = (i, i+1) written left to right acts like nested
function application.  Length is the inversion count, which equals the
length of any reduced word for w in the s_i.

>>> s1, s2 = Perm.simple(1, 3), Perm.simple(2, 3)
>>> print(s1 * s2)
(2 3 1)
>>> (s1 * s2).length()
2
>>> print(cycle_element(1, 4))
(2 3 4 1)
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Callable, Iterable, Sequence

__all__ = [
    "Perm",
    "cycle_element",
    "enumerate_perms",
]


class Perm:
    """A permutation of {1, ..., n}, immutable, hashable."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]) -> None:
        img = tuple(image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a permutation of 1..{len(img)}: {img!r}")
        self.image: tuple[int, ...] = img

    @classmethod
    def _make(cls, img: tuple[int, ...]) -> "Perm":
        # trusted constructor for hot paths; img must already be valid
        p = object.__new__(cls)
        p.image = img
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._make(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, i: int, n: int) -> "Perm":
        """The adjacent transposition s_i swapping i and i+1."""
        if not 1 <= i < n:
            raise ValueError(f"simple reflection needs 1 <= i < n, got i={i}, n={n}")
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        return cls._make(tuple(img))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise ValueError(f"point {i} outside 1..{len(self.image)}")
        return self.image[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        img = self.image
        return Perm._make(tuple(img[x - 1] for x in other.image))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.image)
        for i, x in enumerate(self.image, 1):
            inv[x - 1] = i
        return Perm._make(tuple(inv))

    def length(self) -> int:
        """Inversion count.

        >>> Perm((3, 1, 2)).length()
        2
        """
        img = self.image
        n = len(img)
        return sum(1 for i in range(n) for j in range(i + 1, n) if img[i] > img[j])

    def reduced_word(self, pick: Callable[[list[int]], int] = min) -> list[int]:
        """A reduced word [i_1, ..., i_l] with self == s_{i_1} * ... * s_{i_l}.

        At each step `pick` selects one of the current descent positions;
        every choice yields a word of the same minimal length.

        >>> Perm((3, 2, 1)).reduced_word()
        [1, 2, 1]
        >>> Perm((3, 2, 1)).reduced_word(pick=max)
        [2, 1, 2]
        """
        img = list(self.image)
        tail: list[int] = []
        while True:
            descents = [i for i in range(1, len(img)) if img[i - 1] > img[i]]
            if not descents:
                break
            i = pick(descents)
            img[i - 1], img[i] = img[i], img[i - 1]
            tail.append(i)
        return tail[::-1]

    def fixed_point_count(self) -> int:
        return sum(1 for i, x in enumerate(self.image, 1) if x == i)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.image, 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __str__(self) -> str:
        return "(" + " ".join(str(x) for x in self.image) + ")"

    def __repr__(self) -> str:
        return f"Perm({self.image!r})"


def cycle_element(g: int, n: int) -> Perm:
    """The product s_g s_{g+1} ... s_{n-1}: the cycle g -> g+1 -> ... -> n -> g.

    For g = n the product is empty and the identity is returned.

    >>> print(cycle_element(2, 4))
    (1 3 4 2)
    >>> cycle_element(4, 4).is_identity()
    True
    """
    if not 1 <= g <= n:
        raise ValueError(f"need 1 <= g <= n, got g={g}, n={n}")
    acc = Perm.identity(n)
    for i in range(g, n):
        acc = acc * Perm.simple(i, n)
    return acc


@functools.lru_cache(maxsize=None)
def enumerate_perms(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic one-line order (n! elements)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need a positive int, got {n!r}")
    return tuple(Perm._make(img) for img in itertools.permutations(range(1, n + 1)))


@functools.lru_cache(maxsize=None)
def _perm_index(n: int) -> dict[tuple[int, ...], int]:
    # the label index: the position of each image tuple in enumerate_perms(n)
    return {w.image: i for i, w in enumerate(enumerate_perms(n))}


def _require_n(n: int) -> None:
    # the one n >= 1 refusal of every check and constructor that takes n
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")


def _tuple_getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    # picks `indices` out of a sequence as a tuple; itemgetter returns a
    # bare item for one index and refuses none
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)
