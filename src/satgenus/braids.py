"""Braid words and the braid families of the gap example.

A braid word on n strands is a finite sequence of nonzero letters, where
letter ``+i`` is the Artin generator sigma_i (1 <= i <= n-1) and ``-i`` its
inverse.  Words multiply left to right, and so do the induced strand
permutations: the first letter acts first.

Words longer than ``MAX_WORD_LENGTH`` letters are refused with ValueError
before their letters are built: the families check their closed-form
lengths, ``parse_braid`` its running letter count before each ``^e``.
Strand counts over ``perms.MAX_DEGREE`` are refused the same way, before a
strand permutation of that size is built.  An error names a number of 15
digits or more by its power of ten, and a word token by its first 20
characters.
"""

from __future__ import annotations

from . import _Record, _rough
from .perms import Permutation, check_size, cycle_count

MAX_WORD_LENGTH = 10**6


def _check_length(length: int, what: str) -> None:
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"{what} has {_rough(length)} letters, over the limit of {MAX_WORD_LENGTH}")


def _index_range(strands: int) -> str:
    """The end of an error for a generator index outside 1..strands-1."""
    if strands == 1:
        return ": a braid on 1 strand has no generators"
    return f" for {_rough(strands)} strands (valid: 1..{_rough(strands - 1)})"


class BraidWord(_Record):
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        check_size(self.strands, "strand count")
        letters, n = self.letters, self.strands
        # one pass in C over the whole word; a letter walk only names the culprit
        if letters and (0 in letters or min(letters) <= -n or max(letters) >= n):
            pos, letter = next((pos, x) for pos, x in enumerate(letters) if x == 0 or not -n < x < n)
            raise ValueError(f"letter {letter} at position {pos} is not a generator index{_index_range(n)}")

    def __len__(self) -> int:
        return len(self.letters)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated braid word.

    Each token is a nonzero integer, optionally followed by ``^e``; the token
    is then repeated |e| times with its sign multiplied by the sign of e, so
    ``1^-3`` means ``-1 -1 -1`` and ``2^0`` contributes nothing.  A strand
    count below one is refused before any token is read.
    """
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    letters: list[int] = []
    length = 0
    for pos, token in enumerate(text.split(), start=1):
        base_text, caret, exp_text = token.partition("^")
        try:
            base = int(base_text)
            exp = int(exp_text) if caret else 1
        except ValueError:
            raise ValueError(f"token {pos} ({token[:20]!r}): not an integer letter") from None
        if base == 0:
            raise ValueError(f"token {pos} ({token[:20]!r}): generator index must be nonzero")
        if abs(base) >= strands:
            raise ValueError(
                f"token {pos} ({token[:20]!r}): index {_rough(abs(base))} "
                f"out of range{_index_range(strands)}"
            )
        length += abs(exp)
        if length > MAX_WORD_LENGTH:
            raise ValueError(
                f"token {pos} ({token[:20]!r}): the word reaches {_rough(length)} letters, "
                f"over the limit of {MAX_WORD_LENGTH}"
            )
        letter = base if exp >= 0 else -base
        letters.extend([letter] * abs(exp))
    return BraidWord(strands, tuple(letters))


def braid_text(w: BraidWord) -> str:
    """Render a word back to the whitespace-separated letter format."""
    text = {letter: str(letter) for letter in set(w.letters)}
    return " ".join(map(text.__getitem__, w.letters))


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError(f"strand mismatch: {a.strands} vs {b.strands}")
    return BraidWord(a.strands, a.letters + b.letters)


def exponent_sum(w: BraidWord) -> int:
    """Signed letter count; a homomorphism to the integers."""
    return sum(1 if letter > 0 else -1 for letter in w.letters)


def half_twist(n: int) -> BraidWord:
    """The positive half twist on n strands.

    Built from the recursion "1 on fewer than two strands, otherwise
    sigma_1 ... sigma_{n-1} times the half twist on n-1 strands".  Its
    exponent sum is n(n-1)/2 and its square generates the center.
    """
    if n < 1:
        raise ValueError("a braid needs at least one strand")
    _check_length(n * (n - 1) // 2, f"the half twist on {_rough(n)} strands")
    return BraidWord(n, tuple(_half_twist_letters(n)))


def _half_twist_letters(n: int) -> list[int]:
    letters: list[int] = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return letters


def orevkov_k1(n: int) -> BraidWord:
    """Orevkov's quasipositive knot family: the full twist on n strands
    followed by sigma_{n-1} ... sigma_1.  Exponent sum n^2 - 1; the closure
    is a knot."""
    if n < 2:
        raise ValueError("the family starts at two strands")
    _check_length(n * n - 1, f"orevkov_k1({_rough(n)})")
    letters = _half_twist_letters(n) * 2
    letters.extend(range(n - 1, 0, -1))
    return BraidWord(n, tuple(letters))


def orevkov_k2(n: int, twists: int) -> BraidWord:
    """The 2-cabled companion of ``orevkov_k1(n)`` with ``twists`` negative
    kinks inserted: sigma_1^-twists c(sigma_{n-1}) ... c(sigma_1) times the
    full twist on 2n strands.  The closure is a knot exactly when ``twists``
    is odd."""
    if n < 2:
        raise ValueError("the family starts at two strands")
    if twists < 0:
        raise ValueError("the kink count must be non-negative")
    _check_length(
        twists + 4 * (n - 1) + 2 * n * (2 * n - 1), f"orevkov_k2({_rough(n)}, {_rough(twists)})"
    )
    letters: list[int] = [-1] * twists
    for j in range(n - 1, 0, -1):
        # the 2-cabled sigma_j: sigma_2j sigma_{2j-1} sigma_{2j+1} sigma_2j
        letters.extend((2 * j, 2 * j - 1, 2 * j + 1, 2 * j))
    letters.extend(_half_twist_letters(2 * n) * 2)
    return BraidWord(2 * n, tuple(letters))


def suggested_twist_count(n: int) -> int:
    """Largest odd kink count not exceeding ceil(8 n^2 / 3), the choice that
    keeps the gap family's genus ratio in its target window."""
    if n < 2:
        raise ValueError("the family starts at n = 2")
    cap = (8 * n * n + 2) // 3
    return cap if cap % 2 else cap - 1


def permutation_of(w: BraidWord) -> Permutation:
    """Strand permutation of the word, letters applied left to right.

    Both sigma_i and its inverse induce the transposition (i, i+1).
    """
    # the strand at each position; a strand's image is where it ends
    position = list(range(w.strands))
    for letter in w.letters:
        i = abs(letter) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    images = [0] * w.strands
    for end, strand in enumerate(position):
        images[strand] = end
    return Permutation(tuple(images))


def closure_component_count(w: BraidWord) -> int:
    """Number of link components of the braid closure: the cycle count of the
    strand permutation."""
    return cycle_count(permutation_of(w))
