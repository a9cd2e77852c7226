import itertools
import re

import numpy as np
import pytest

from alpvreal import (
    EPSILON,
    InvalidAlphabet,
    InvalidWord,
    index_to_word,
    word_count,
    word_from_str,
    word_to_index,
    word_to_str,
    words_up_to,
)
from alpvreal.words import _check_mode_array, check_word


def brute_enumeration(L, D):
    """Independent oracle: generate and sort by (length, symbols)."""
    out = []
    for k in range(L + 1):
        out.extend(itertools.product(range(1, D + 1), repeat=k))
    return sorted(out, key=lambda w: (len(w), w))


def test_word_count_values():
    assert word_count(0, 2) == 1
    assert word_count(1, 2) == 3
    assert word_count(2, 3) == 13
    assert word_count(3, 1) == 4
    assert word_count(5, 2) == len(brute_enumeration(5, 2))


def test_word_count_bad_alphabet():
    with pytest.raises(InvalidAlphabet):
        word_count(2, 0)


def test_index_to_word_examples():
    assert index_to_word(1, 2) == EPSILON
    assert index_to_word(6, 2) == (2, 1)
    # D=3 enumeration starts eps,1,2,3,11,...
    assert index_to_word(4, 3) == (3,)
    assert index_to_word(5, 3) == (1, 1)


def test_word_to_index_examples():
    assert word_to_index((1, 2), 2) == 5
    assert word_to_index(EPSILON, 3) == 1
    assert word_to_index((1, 1), 3) == 5


def test_word_to_index_rejects_bad_symbols():
    with pytest.raises(InvalidWord):
        word_to_index((0,), 2)
    with pytest.raises(InvalidWord):
        word_to_index((3,), 2)


@pytest.mark.parametrize("symbol", [float("inf"), -float("inf"), float("nan"), 1.5, None, "1"])
def test_check_word_rejects_symbols_that_are_not_integers(symbol):
    with pytest.raises(InvalidWord, match="outside alphabet 1..2"):
        check_word((1, symbol), 2)


@pytest.mark.parametrize(
    "modes",
    [(1, 3, 2), [3.0, 1.0], np.array([2, 2, 1]), np.array([1.0, 3.0]), np.array([1, 2], np.uint8),
     (True, 1), ()],
    ids=["tuple", "float-list", "int-array", "float-array", "uint8-array", "bool", "empty"],
)
def test_mode_array_is_the_checked_word(modes):
    idx = _check_mode_array(modes, 3)
    assert idx.dtype == np.intp and tuple(idx.tolist()) == check_word(modes, 3)


@pytest.mark.parametrize(
    "modes",
    [(1, 4, 0), (1, 2.5), [1, float("nan")], np.array([1.0, np.inf]), np.array([0, 1]),
     (1, "2"), ((1, 2), 3)],
    ids=["range", "fraction", "nan", "inf", "zero", "string", "nested"],
)
def test_mode_array_fails_as_check_word_does(modes):
    with pytest.raises(InvalidWord) as expected:
        check_word(modes, 3)
    with pytest.raises(InvalidWord, match=f"^{re.escape(str(expected.value))}$"):
        _check_mode_array(modes, 3)


def test_roundtrip_and_order_against_brute_force():
    for D in (1, 2, 3):
        expected = brute_enumeration(6, D)
        for i, w in enumerate(expected, start=1):
            assert index_to_word(i, D) == w
            assert word_to_index(w, D) == i
        assert words_up_to(6, D) == expected


def test_successor_property():
    # v_i comes strictly before v_i q for every symbol q
    for D in (2, 3):
        for i in range(1, word_count(4, D) + 1):
            w = index_to_word(i, D)
            for q in range(1, D + 1):
                assert word_to_index(w + (q,), D) > i


def test_prefix_closure():
    # the first N(L) words are exactly the words of length <= L
    for D in (1, 2, 3):
        for L in range(4):
            words = {index_to_word(i, D) for i in range(1, word_count(L, D) + 1)}
            assert words == set(brute_enumeration(L, D))


def test_serialization():
    assert word_to_str(EPSILON, 2) == "eps"
    assert word_to_str((2, 1), 2) == "21"
    assert word_from_str("eps", 2) == EPSILON
    assert word_from_str("21", 2) == (2, 1)
    # wide alphabets switch to space-separated integers
    assert word_to_str((10, 3), 12) == "10 3"
    assert word_from_str("10 3", 12) == (10, 3)
    with pytest.raises(InvalidWord):
        word_from_str("91", 2)
