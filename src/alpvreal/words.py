"""Length-then-lexicographic enumeration of words over the alphabet {1..D}.

Words are plain tuples of integer symbols; the empty word is ``()``.  The
enumeration is 1-based: position 1 is the empty word, shorter words come
first, and words of equal length are ordered by the usual integer order on
the leftmost differing symbol.  For D = 2 the sequence starts

    eps, 1, 2, 11, 12, 21, 22, 111, ...

This is the ordering that indexes Hankel block rows and columns, and the
order in which a level-by-level recursion emits the transfer products
A_v = A_{v_k} ... A_{v_1}; the closed-form index below also yields the
index array for the column shift v |-> v q of the realization algorithm.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidAlphabet, InvalidWord

Word = tuple
EPSILON: Word = ()


def check_alphabet(D: int) -> int:
    if int(D) != D or D < 1:
        raise InvalidAlphabet(f"alphabet size must be a positive integer, got {D}")
    return int(D)


def check_word(w, D: int) -> Word:
    """Validate symbols against 1..D and return the word as a tuple.

    A symbol is valid when it equals an integer in 1..D; NaN, an infinity
    and anything `int` refuses raise InvalidWord like any other symbol.
    """
    check_alphabet(D)
    out = []
    for q in w:
        try:
            qi = int(q)
        except (OverflowError, TypeError, ValueError):  # NaN, an infinity, not a number
            qi = 0  # outside 1..D
        if qi != q or not 1 <= qi <= D:
            raise InvalidWord(f"symbol {q!r} outside alphabet 1..{D}")
        out.append(qi)
    return tuple(out)


def _check_mode_array(modes, D: int) -> np.ndarray:
    """`check_word` of a mode word as one numpy test; returns its symbols as an intp array.

    A 1-d integer or float array whose entries are integral and lie in 1..D
    passes at once.  Anything else, and any word that fails the test, takes
    `check_word`'s loop, so InvalidWord names the first bad symbol just as
    there.  Meant for long words and for many words checked together; a
    short word is checked faster by `check_word` itself.
    """
    D = check_alphabet(D)
    try:
        a = np.asarray(modes)
    except (OverflowError, TypeError, ValueError):  # ragged or huge: the loop decides
        a = None
    if a is not None and a.ndim == 1 and a.dtype.kind in "iuf":
        # min and max propagate NaN, and an infinity fails the range
        in_range = not a.size or (a.min() >= 1 and a.max() <= D)
        if in_range and (a.dtype.kind != "f" or (a == a.round()).all()):
            return a.astype(np.intp)
    return np.array(check_word(modes, D), dtype=np.intp)


def word_count(L: int, D: int) -> int:
    """N(L) = number of words of length at most L, i.e. sum_{j=0..L} D^j."""
    check_alphabet(D)
    if L < 0:
        return 0
    if D == 1:
        return L + 1
    return (D ** (L + 1) - 1) // (D - 1)


def index_to_word(i: int, D: int) -> Word:
    """The word at 1-based position ``i`` of the enumeration."""
    check_alphabet(D)
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    k = 0
    while word_count(k, D) < i:
        k += 1
    offset = i - word_count(k - 1, D) - 1
    digits = []
    for _ in range(k):
        digits.append(offset % D + 1)
        offset //= D
    return tuple(reversed(digits))


def word_to_index(w, D: int) -> int:
    """Inverse of index_to_word, via the closed form.

    For w = q_1 ... q_k the position is
    N(k-1) + sum_i (q_i - 1) * D^(k-i) + 1, and 1 for the empty word.
    """
    w = check_word(w, D)
    k = len(w)
    offset = 0
    for q in w:
        offset = offset * D + (q - 1)
    return word_count(k - 1, D) + offset + 1


def shift_positions(L: int, D: int) -> np.ndarray:
    """(D, N(L)) array of 0-based positions N(|v|) + D offset(v) + q - 1 of v q, |v| <= L."""
    base = np.concatenate([word_count(k, D) + D * np.arange(D**k) for k in range(L + 1)])
    return base[None, :] + np.arange(D)[:, None]


def words_up_to(L: int, D: int) -> list:
    """All words of length <= L, in enumeration order."""
    check_alphabet(D)
    out = []
    for length in range(L + 1):
        out.extend(itertools.product(range(1, D + 1), repeat=length))
    return out


def word_to_str(w, D: int) -> str:
    """Text form: digit string for D <= 9, space-separated otherwise; eps for ()."""
    w = check_word(w, D)
    if not w:
        return "eps"
    if D <= 9:
        return "".join(str(q) for q in w)
    return " ".join(str(q) for q in w)


def labels_up_to(L: int, D: int) -> list:
    """word_to_str of every word of length <= L, in enumeration order."""
    check_alphabet(D)
    symbols, sep = [str(q) for q in range(1, D + 1)], "" if D <= 9 else " "
    levels = (itertools.product(symbols, repeat=k) for k in range(1, L + 1))
    return ["eps"] + [sep.join(v) for level in levels for v in level]


def word_from_str(s: str, D: int) -> Word:
    """Parse the textual form produced by word_to_str."""
    check_alphabet(D)
    s = s.strip()
    if s == "eps":
        return EPSILON
    if D <= 9:
        symbols = [int(ch) for ch in s]
    else:
        symbols = [int(part) for part in s.split()]
    return check_word(symbols, D)
