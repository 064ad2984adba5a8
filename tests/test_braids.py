import pytest
from hypothesis import given, strategies as st

from satgenus import braids
from satgenus.braids import (
    BraidWord,
    braid_text,
    closure_component_count,
    concat,
    exponent_sum,
    half_twist,
    orevkov_k1,
    orevkov_k2,
    parse_braid,
    permutation_of,
)
from satgenus.perms import compose, cycles_str, identity
from satgenus.perms import inverse as perm_inverse

from _naive import naive_word_permutation


@st.composite
def words(draw, min_strands=2, max_strands=6, max_len=24):
    n = draw(st.integers(min_strands, max_strands))
    alphabet = [i for i in range(-(n - 1), n) if i != 0]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=max_len))
    return BraidWord(n, tuple(letters))


def test_word_validation():
    BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (-3,))
    # the first bad letter is named, wherever it stands
    with pytest.raises(ValueError) as err:
        BraidWord(3, (1, -2, 3, 0))
    assert str(err.value) == "letter 3 at position 2 is not a generator index for 3 strands (valid: 1..2)"
    with pytest.raises(ValueError, match=r"^letter 0 at position 1 "):
        BraidWord(3, (1, 0, 5))
    with pytest.raises(ValueError, match=r"^letter -3 at position 2 "):
        BraidWord(3, (2, -1, -3))


def test_parse_basic():
    assert parse_braid("1 -2 1", 3).letters == (1, -2, 1)
    assert parse_braid("", 4).letters == ()
    assert parse_braid("  2   1 ", 3).letters == (2, 1)


def test_parse_power_suffix():
    assert parse_braid("1^3", 2).letters == (1, 1, 1)
    assert parse_braid("1^-3", 2).letters == (-1, -1, -1)
    assert parse_braid("-2^2", 3).letters == (-2, -2)
    assert parse_braid("-2^-2", 3).letters == (2, 2)
    assert parse_braid("1^0 2", 3).letters == (2,)


def test_parse_errors_name_the_token():
    with pytest.raises(ValueError, match=r"token 2 \('0'\)"):
        parse_braid("1 0", 3)
    with pytest.raises(ValueError, match=r"token 1 \('5'\)"):
        parse_braid("5", 3)
    with pytest.raises(ValueError, match="token 3"):
        parse_braid("1 2 x", 3)
    with pytest.raises(ValueError, match="token 1"):
        parse_braid("1^x", 3)
    with pytest.raises(ValueError):
        parse_braid("1", 1)


@pytest.mark.parametrize("text", ["", "1", "2 -1", "0", "x"])
@pytest.mark.parametrize("strands", [0, -1])
def test_parse_checks_the_strand_count_before_the_word(text, strands):
    with pytest.raises(ValueError, match="^a braid needs at least one strand$"):
        parse_braid(text, strands)


def test_one_strand_errors_name_no_empty_range():
    with pytest.raises(ValueError) as parsed:
        parse_braid("1", 1)
    with pytest.raises(ValueError) as built:
        BraidWord(1, (-1,))
    assert str(parsed.value) == "token 1 ('1'): index 1 out of range: a braid on 1 strand has no generators"
    assert str(built.value) == "letter -1 at position 0 is not a generator index: a braid on 1 strand has no generators"
    with pytest.raises(ValueError, match=r"index 3 out of range for 3 strands \(valid: 1\.\.2\)$"):
        parse_braid("3", 3)


@given(words())
def test_text_round_trip(w):
    assert parse_braid(braid_text(w), w.strands) == w


def test_concat_strand_mismatch():
    with pytest.raises(ValueError):
        concat(BraidWord(2, (1,)), BraidWord(3, (1,)))


@given(words(), words())
def test_exponent_sum_additive(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple(l for l in b.letters if abs(l) < a.strands))
    assert exponent_sum(concat(a, b)) == exponent_sum(a) + exponent_sum(b)


def test_half_twist_words():
    with pytest.raises(ValueError, match="at least one strand"):
        half_twist(0)
    assert half_twist(1).letters == ()
    assert half_twist(2).letters == (1,)
    assert half_twist(3).letters == (1, 2, 1)
    assert half_twist(4).letters == (1, 2, 3, 1, 2, 1)


def test_half_twist_exponent_and_square():
    for n in range(2, 13):
        d = half_twist(n)
        assert exponent_sum(d) == n * (n - 1) // 2
        square = concat(d, d)
        assert permutation_of(square) == identity(n)
        assert closure_component_count(square) == n


def test_half_twist_permutation_reverses_strands():
    for n in range(2, 9):
        p = permutation_of(half_twist(n))
        assert [p.images[i - 1] + 1 for i in range(1, n + 1)] == list(range(n, 0, -1))


def test_word_length_cap_uses_the_closed_forms(monkeypatch):
    monkeypatch.setattr(braids, "MAX_WORD_LENGTH", 20)
    assert len(half_twist(6)) == 15
    with pytest.raises(ValueError, match="21 letters"):
        half_twist(7)
    assert len(orevkov_k1(4)) == 15
    with pytest.raises(ValueError, match="24 letters"):
        orevkov_k1(5)
    assert len(orevkov_k2(2, 4)) == 20
    with pytest.raises(ValueError, match="21 letters"):
        orevkov_k2(2, 5)
    assert len(parse_braid("1^12 -1^-8", 2)) == 20
    with pytest.raises(ValueError, match="token 3"):
        parse_braid("1^12 -1^-8 1", 2)


def test_cabled_generator_swaps_blocks():
    # the 2-cabled sigma_1 swaps the strand pairs {1, 2} and {3, 4}
    p = permutation_of(BraidWord(4, (2, 1, 3, 2)))
    assert cycles_str(p) == "(1 3)(2 4)"


def test_orevkov_k1():
    assert orevkov_k1(3).letters == (1, 2, 1, 1, 2, 1, 2, 1)
    for n in range(2, 11):
        w = orevkov_k1(n)
        assert w.strands == n
        assert exponent_sum(w) == n * n - 1
        assert closure_component_count(w) == 1
    with pytest.raises(ValueError):
        orevkov_k1(1)


def test_orevkov_k2_letters_frozen():
    # the kinks, the 2-cabled sigma_{n-1} ... sigma_1, then the full twist
    assert orevkov_k2(2, 1).letters == (
        -1, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1, 1, 2, 3, 1, 2, 1,
    )
    assert orevkov_k2(3, 5).letters == (
        -1, -1, -1, -1, -1, 4, 3, 5, 4, 2, 1, 3, 2,
        1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1,
        1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 2, 3, 1, 2, 1,
    )


def test_orevkov_k2():
    for n in range(2, 7):
        for twists in range(0, 8):
            w = orevkov_k2(n, twists)
            assert w.strands == 2 * n
            assert exponent_sum(w) == 2 * n * (2 * n - 1) + 4 * (n - 1) - twists
            # the closure is a knot for odd kink counts, a 2-component link otherwise
            assert closure_component_count(w) == (1 if twists % 2 else 2)
    with pytest.raises(ValueError):
        orevkov_k2(2, -1)


def test_permutation_letters_apply_left_to_right():
    w = parse_braid("1 2", 3)
    assert cycles_str(permutation_of(w)) == "(1 3 2)"
    assert permutation_of(w).images[0] + 1 == 3


def test_permutation_ignores_letter_signs():
    assert permutation_of(parse_braid("1 -2", 3)) == permutation_of(parse_braid("-1 2", 3))


def test_braid_relation_at_permutation_level():
    a = parse_braid("1 2 1", 3)
    b = parse_braid("2 1 2", 3)
    assert permutation_of(a) == permutation_of(b)


@given(words())
def test_permutation_matches_naive(w):
    assert permutation_of(w).images == naive_word_permutation(w.letters, w.strands)


@given(words(), words())
def test_permutation_is_a_homomorphism(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple(l for l in b.letters if abs(l) < a.strands))
    lhs = permutation_of(concat(a, b))
    assert lhs == compose(permutation_of(a), permutation_of(b))


@given(words())
def test_permutation_of_inverse(w):
    reversed_negated = BraidWord(w.strands, tuple(-letter for letter in reversed(w.letters)))
    assert permutation_of(reversed_negated) == perm_inverse(permutation_of(w))


def test_closure_components():
    assert closure_component_count(BraidWord(4)) == 4
    assert closure_component_count(parse_braid("1^3", 2)) == 1
    assert closure_component_count(parse_braid("1", 3)) == 2


@given(words())
def test_closure_components_full_iff_pure(w):
    count = closure_component_count(w)
    assert 1 <= count <= w.strands
    assert (count == w.strands) == (permutation_of(w) == identity(w.strands))
