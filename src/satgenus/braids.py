"""Braid words and band presentations.

A braid word on n strands is a finite sequence of nonzero letters, where
letter ``+i`` is the Artin generator sigma_i (1 <= i <= n-1) and ``-i`` its
inverse.  Words multiply left to right, and so do the induced strand
permutations: the first letter acts first.

Words longer than ``MAX_WORD_LENGTH`` letters are refused with ValueError
before their letters are built: the families check their closed-form
lengths, ``parse_braid`` its running letter count before each ``^e``.
Strand counts over ``perms.MAX_DEGREE`` are refused the same way, before a
strand permutation of that size is built.
"""

from __future__ import annotations

from . import _Record
from .perms import Permutation, check_size, cycle_count

__all__ = [
    "MAX_WORD_LENGTH",
    "BraidWord",
    "BandFactorization",
    "parse_braid",
    "braid_text",
    "concat",
    "inverse",
    "exponent_sum",
    "half_twist",
    "cable_generator",
    "orevkov_k1",
    "orevkov_k2",
    "permutation_of",
    "closure_component_count",
    "expand_bands",
]

MAX_WORD_LENGTH = 10**6


def _check_length(length: int, what: str) -> None:
    if length > MAX_WORD_LENGTH:
        raise ValueError(f"{what} has {length} letters, over the limit of {MAX_WORD_LENGTH}")


def _index_range(strands: int) -> str:
    """The end of an error for a generator index outside 1..strands-1."""
    if strands == 1:
        return ": a braid on 1 strand has no generators"
    return f" for {strands} strands (valid: 1..{strands - 1})"


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
            raise ValueError(f"token {pos} ({token!r}): not an integer letter") from None
        if base == 0:
            raise ValueError(f"token {pos} ({token!r}): generator index must be nonzero")
        if abs(base) >= strands:
            raise ValueError(
                f"token {pos} ({token!r}): index {abs(base)} out of range{_index_range(strands)}"
            )
        length += abs(exp)
        if length > MAX_WORD_LENGTH:
            raise ValueError(
                f"token {pos} ({token!r}): the word reaches {length} letters, "
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


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-letter for letter in reversed(w.letters)))


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
    _check_length(n * (n - 1) // 2, f"the half twist on {n} strands")
    return BraidWord(n, tuple(_half_twist_letters(n)))


def _half_twist_letters(n: int) -> list[int]:
    letters: list[int] = []
    for top in range(n - 1, 0, -1):
        letters.extend(range(1, top + 1))
    return letters


def cable_generator(j: int) -> BraidWord:
    """Image of sigma_j under the 2-cabling of the strands.

    The word is sigma_2j sigma_{2j-1} sigma_{2j+1} sigma_2j, returned on the
    minimal 2j+2 strands; reuse ``.letters`` to embed it in a wider group.
    """
    if j < 1:
        raise ValueError("generator index must be at least 1")
    return BraidWord(2 * j + 2, (2 * j, 2 * j - 1, 2 * j + 1, 2 * j))


def orevkov_k1(n: int) -> BraidWord:
    """Orevkov's quasipositive knot family: the full twist on n strands
    followed by sigma_{n-1} ... sigma_1.  Exponent sum n^2 - 1; the closure
    is a knot."""
    if n < 2:
        raise ValueError("the family starts at two strands")
    _check_length(n * n - 1, f"orevkov_k1({n})")
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
    _check_length(twists + 4 * (n - 1) + 2 * n * (2 * n - 1), f"orevkov_k2({n}, {twists})")
    letters: list[int] = [-1] * twists
    for j in range(n - 1, 0, -1):
        letters.extend(cable_generator(j).letters)
    letters.extend(_half_twist_letters(2 * n) * 2)
    return BraidWord(2 * n, tuple(letters))


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


class BandFactorization(_Record):
    """A quasipositive presentation: an ordered product of conjugated
    positive generators w^-1 sigma_k w, one per band."""

    strands: int
    bands: tuple[tuple[BraidWord, int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        check_size(self.strands, "strand count")
        for pos, (conjugator, index) in enumerate(self.bands):
            if conjugator.strands != self.strands:
                raise ValueError(
                    f"band {pos}: conjugator lives on {conjugator.strands} "
                    f"strands, expected {self.strands}"
                )
            if not 1 <= index < self.strands:
                raise ValueError(f"band {pos}: generator index {index} out of range")

    def __len__(self) -> int:
        return len(self.bands)


def expand_bands(f: BandFactorization) -> BraidWord:
    """Multiply the bands out to a single word, without free reduction.

    The exponent sum of the result is the band count.
    """
    letters: list[int] = []
    for conjugator, index in f.bands:
        letters.extend(inverse(conjugator).letters)
        letters.append(index)
        letters.extend(conjugator.letters)
    return BraidWord(f.strands, tuple(letters))
