"""Tests for permutations, composition order, words, cycles."""

import doctest
import itertools
import math
import random

import pytest

import qshuffle.symgroup as symgroup
from qshuffle.symgroup import Perm, cycle_element, enumerate_perms


def test_doctests():
    assert doctest.testmod(symgroup).failed == 0


def test_validation():
    with pytest.raises(ValueError):
        Perm((1, 3))
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    with pytest.raises(ValueError):
        Perm.simple(3, 3)


def test_composition_applies_right_factor_first():
    s1, s2 = Perm.simple(1, 3), Perm.simple(2, 3)
    assert (s1 * s2).image == (2, 3, 1)
    assert (s2 * s1).image == (3, 1, 2)
    u, v = Perm((2, 1, 3)), Perm((1, 3, 2))
    for i in (1, 2, 3):
        assert (u * v)(i) == u(v(i))


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        img = list(range(1, 7))
        rng.shuffle(img)
        w = Perm(img)
        assert (w * w.inverse()).is_identity()
        assert (w.inverse() * w).is_identity()
        assert w.inverse().inverse() == w
        assert w.length() == w.inverse().length()


def test_length_changes_by_one_under_simple_factors():
    for w in enumerate_perms(4):
        for i in (1, 2, 3):
            s = Perm.simple(i, 4)
            assert abs((s * w).length() - w.length()) == 1
            assert abs((w * s).length() - w.length()) == 1


def test_reduced_words_exhaustive():
    for n in (2, 3, 4):
        for w in enumerate_perms(n):
            for pick in (min, max):
                word = w.reduced_word(pick)
                assert len(word) == w.length()
                acc = Perm.identity(n)
                for i in word:
                    acc = acc * Perm.simple(i, n)
                assert acc == w


def test_reduced_word_random_picker():
    rng = random.Random(11)
    chooser = random.Random(12)
    for _ in range(30):
        img = list(range(1, 8))
        rng.shuffle(img)
        w = Perm(img)
        word = w.reduced_word(pick=chooser.choice)
        assert len(word) == w.length()
        acc = Perm.identity(7)
        for i in word:
            acc = acc * Perm.simple(i, 7)
        assert acc == w


def test_cycle_element_one_line_form():
    assert cycle_element(1, 3).image == (2, 3, 1)
    assert cycle_element(2, 4).image == (1, 3, 4, 2)
    assert cycle_element(4, 4).is_identity()
    for n in range(2, 7):
        for g in range(1, n + 1):
            c = cycle_element(g, n)
            assert c.length() == n - g
            assert c.image == tuple(range(1, g)) + tuple(range(g + 1, n + 1)) + (g,)
    with pytest.raises(ValueError):
        cycle_element(0, 3)


def test_enumerate_perms_order_and_count():
    ps = enumerate_perms(4)
    assert len(ps) == math.factorial(4)
    assert ps[0].is_identity()
    images = [w.image for w in ps]
    assert images == sorted(images)
    assert len(set(images)) == len(images)


def test_perm_index_follows_enumerate_perms():
    # the label index of the walks and the structure tensor: the position
    # of each image tuple in lexicographic order, which is the order of
    # enumerate_perms
    for n in range(1, 7):
        index = symgroup._perm_index(n)
        images = sorted(itertools.permutations(range(1, n + 1)))
        assert index == {img: u for u, img in enumerate(images)}, n
        assert [w.image for w in enumerate_perms(n)] == images, n


def test_no_permutation_fixes_exactly_n_minus_1_points():
    for n in range(2, 8):
        counts = [w.fixed_point_count() for w in enumerate_perms(n)]
        assert all(c != n - 1 for c in counts)
        assert counts.count(n) == 1  # only the identity fixes everything


def test_str_and_repr():
    w = Perm((2, 3, 1))
    assert str(w) == "(2 3 1)"
    assert repr(w) == "Perm((2, 3, 1))"
