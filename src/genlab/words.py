"""Signed-letter words and free reduction.

A word is a tuple of nonzero integers.  Letter ``+i`` is the i-th generator
(1-based) and ``-i`` is its formal inverse.  The empty tuple is the identity.
Words are what configs and generating sets hold, where they are input; a
group element is its model's key (``normalize(word)``), a separate,
model-specific value, which ``key_word`` turns back into a word.  A free group's key is
its reduced word stored as bytes, so these helpers apply to words only.
"""

from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]


def invert(word: Sequence[int]) -> Word:
    """Formal inverse: reverse the word and negate every letter.

    >>> invert((1, 2, -1))
    (1, -2, -1)
    >>> invert(())
    ()
    """
    return tuple(-a for a in reversed(word))


def signed_letters(n: int) -> Word:
    """The signed letters of n generators in their fixed order: 1..n, then
    -1..-n.

    >>> signed_letters(2)
    (1, 2, -1, -2)
    >>> signed_letters(0)
    ()
    """
    return (*range(1, n + 1), *range(-1, -n - 1, -1))


def free_reduce(word: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    >>> free_reduce((1, -1))
    ()
    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    >>> free_reduce((1, 2, 3))
    (1, 2, 3)
    """
    out: list[int] = []
    for a in word:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    """Strip matching first/last inverse pairs off a reduced word.

    The result is the shortest word in the conjugacy class of the input;
    its length is the translation length in the standard free-group metric.

    >>> cyclic_reduce((1, 2, -1))
    (2,)
    >>> cyclic_reduce((1, 2))
    (1, 2)
    >>> cyclic_reduce(())
    ()
    """
    w = free_reduce(word)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(w[lo:hi])


def parse_word(text: str, labels: Sequence[str]) -> Word:
    """Parse a compact word string over single-character generator labels.

    Lowercase characters are generators, uppercase their inverses.  Spaces
    are ignored.  ``labels`` lists the lowercase generator characters in
    index order.

    >>> parse_word("abA", ("a", "b"))
    (1, 2, -1)
    >>> parse_word("", ("a", "b"))
    ()
    """
    index = {c: i + 1 for i, c in enumerate(labels)}
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        low = ch.lower()
        if low not in index:
            raise ValueError(f"unknown generator letter {ch!r} (alphabet {list(labels)})")
        letters.append(index[low] if ch.islower() else -index[low])
    return tuple(letters)


def format_word(word: Sequence[int], labels: Sequence[str]) -> str:
    """Inverse of :func:`parse_word`; the identity prints as ``"1"``.

    >>> format_word((1, 2, -1), ("a", "b"))
    'abA'
    """
    if not word:
        return "1"
    out = []
    for a in word:
        c = labels[abs(a) - 1]
        out.append(c if a > 0 else c.upper())
    return "".join(out)
