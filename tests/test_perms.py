import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from satgenus.perms import (
    Permutation,
    commutator,
    compose,
    cycle_count,
    cycle_type,
    cycles_str,
    example1_pair,
    example2_pair,
    identity,
    inverse,
    is_even,
    is_transitive,
    orbits,
    ore_commutator_search,
    parse_cycles,
)

import satgenus
from satgenus import oracle, perms as perms_module

from _frobenius import partitions
from _naive import (
    naive_commutator,
    naive_compose,
    naive_cycles,
    naive_first_commutator_pair,
    naive_first_commutator_pairs,
    naive_orbits,
    naive_parse_cycles,
    union_find_orbits,
)


@st.composite
def perms(draw, min_degree=1, max_degree=7):
    n = draw(st.integers(min_degree, max_degree))
    return Permutation(tuple(draw(st.permutations(range(n)))))


@st.composite
def perm_pairs(draw, max_degree=7):
    n = draw(st.integers(1, max_degree))
    a = Permutation(tuple(draw(st.permutations(range(n)))))
    b = Permutation(tuple(draw(st.permutations(range(n)))))
    return a, b


def test_validation():
    with pytest.raises(ValueError, match="do not describe a bijection"):
        Permutation((0, 0))
    with pytest.raises(ValueError, match="do not describe a bijection"):
        Permutation((1, 2))
    with pytest.raises(ValueError, match="do not describe a bijection"):
        Permutation((0.5, 1))
    # entries equal to the points pass, whatever their type
    assert Permutation((1.0, 0)).degree == 2


def test_the_bijection_check_builds_no_second_list():
    # the sorted copy of a million images is 8 MB of pointers; comparing it
    # with list(range(n)) would add a million fresh ints, about 36 MB more
    images = tuple(reversed(range(10**6)))
    tracemalloc.start()
    try:
        Permutation(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_compose_is_left_to_right():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    # apply a first: 1 -> 2, then b: 2 -> 3
    assert compose(a, b).images[0] + 1 == 3
    assert cycles_str(compose(a, b)) == "(1 3 2)"
    with pytest.raises(ValueError):
        compose(a, identity(4))


@given(perm_pairs())
def test_compose_matches_naive(pair):
    a, b = pair
    assert compose(a, b).images == naive_compose(a.images, b.images)


@given(perm_pairs())
def test_commutator_matches_naive(pair):
    a, b = pair
    assert commutator(a, b).images == naive_commutator(a.images, b.images)


@given(perms())
def test_inverse_cancels(p):
    assert compose(p, inverse(p)) == identity(p.degree)
    assert compose(inverse(p), p) == identity(p.degree)


@given(perms())
def test_trivial_commutators(p):
    assert commutator(p, p) == identity(p.degree)
    assert commutator(p, identity(p.degree)) == identity(p.degree)


@given(perm_pairs())
def test_commutators_are_even(pair):
    assert is_even(commutator(*pair))


@given(perm_pairs(), perms())
def test_conjugate_of_commutator_is_commutator_of_conjugates(pair, c):
    a, b = pair
    if c.degree != a.degree:
        c = identity(a.degree)
    conj = lambda p: compose(compose(inverse(c), p), c)
    assert conj(commutator(a, b)) == commutator(conj(a), conj(b))


def test_cycles_and_type():
    p = parse_cycles("(1 2)(3 4 5)", 6)
    assert naive_cycles(p.images) == [(1, 2), (3, 4, 5), (6,)]
    assert cycle_type(p) == (3, 2, 1)
    assert cycle_count(p) == 3
    assert cycle_type(identity(4)) == (1, 1, 1, 1)


@given(perms())
def test_counts_and_types_agree_with_the_cycles(p):
    lengths = [len(c) for c in naive_cycles(p.images)]
    assert cycle_count(p) == len(lengths)
    assert cycle_type(p) == tuple(sorted(lengths, reverse=True))


def test_cycles_are_counted_without_building_them():
    # a million fixed points would take about 90 MB as cycle tuples; the
    # count walks a bytearray of seen flags
    p = identity(10**6)
    tracemalloc.start()
    try:
        assert cycle_count(p) == 10**6
        assert is_even(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@given(perm_pairs())
def test_parity_is_a_homomorphism(pair):
    a, b = pair
    assert is_even(compose(a, b)) == (is_even(a) == is_even(b))


def test_parity_examples():
    assert not is_even(parse_cycles("(1 2)", 2))
    assert is_even(parse_cycles("(1 2 3)", 3))
    assert is_even(identity(5))


def test_cycles_str():
    assert cycles_str(identity(5)) == "()"
    assert cycles_str(parse_cycles("(2 3)(4 5)", 6)) == "(2 3)(4 5)"
    # cycles are printed from their least point, ordered by least point
    assert cycles_str(parse_cycles("(5 4)(3 2)", 5)) == "(2 3)(4 5)"


@given(perms())
def test_cycle_notation_round_trip(p):
    assert parse_cycles(cycles_str(p), p.degree) == p


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 4)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 a)", 3)
    assert parse_cycles("", 3) == identity(3)
    assert parse_cycles("()", 3) == identity(3)


def test_parse_cycles_names_where_a_point_repeats():
    with pytest.raises(ValueError, match=r"point 2 appears in two cycles"):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError, match=r"point 1 appears twice in the cycle \(1 1\)"):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError, match=r"point 2 appears twice in the cycle \(3 2 1 2\)"):
        parse_cycles("(3 2 1 2)", 3)


def test_parse_cycles_names_a_long_group_by_its_first_20_characters():
    with pytest.raises(ValueError) as error:
        parse_cycles("(1 " + "x" * 5000 + " y)", 3)
    assert str(error.value) == "non-integer entry in cycle (1 xxxxxxxxxxxxxxxxxx...)"
    with pytest.raises(ValueError) as error:
        parse_cycles("(1 2 3 4 5 6 7 8 9 10 1)", 10)
    assert str(error.value) == "point 1 appears twice in the cycle (1 2 3 4 5 6 7 8 9 10...)"
    # 20 characters print in full
    with pytest.raises(ValueError) as error:
        parse_cycles("(10 1 2 3 4 5 6 7 8 1)", 10)
    assert str(error.value) == "point 1 appears twice in the cycle (10 1 2 3 4 5 6 7 8 1)"


def _parsed(parse, text):
    try:
        result = parse(text, 3)
    except ValueError as error:
        return str(error)
    return getattr(result, "images", result)


@given(st.text(alphabet="()0123 -x", max_size=30))
def test_one_pass_parse_matches_the_regex_route(text):
    assert _parsed(parse_cycles, text) == _parsed(naive_parse_cycles, text)


def test_orbits_without_generators():
    assert orbits([], degree=3) == [(1,), (2,), (3,)]
    assert not is_transitive([], degree=2)
    assert is_transitive([], degree=1)
    with pytest.raises(ValueError):
        orbits([])


def test_orbits_example():
    p = parse_cycles("(1 2)", 4)
    q = parse_cycles("(3 4)", 4)
    assert orbits([p, q]) == [(1, 2), (3, 4)]
    assert not is_transitive([p, q])
    assert is_transitive([parse_cycles("(1 2 3 4)", 4)])


@st.composite
def image_tuples(draw, max_degree=12, max_generators=3):
    n = draw(st.integers(0, max_degree))
    gens = draw(st.lists(st.permutations(range(n)), max_size=max_generators))
    return n, [tuple(g) for g in gens]


@given(image_tuples())
def test_orbit_walk_matches_the_union_find(case):
    n, gens = case
    assert satgenus._orbits(n, *gens) == union_find_orbits(n, *gens)


@given(st.lists(perms(min_degree=5, max_degree=5), max_size=4))
def test_orbits_match_naive(gens):
    got = orbits(gens, degree=5)
    expected = naive_orbits([g.images for g in gens], 5)
    assert [frozenset(x - 1 for x in orbit) for orbit in got] == expected


def test_example1_pairs():
    s1, s2 = example1_pair(1)
    assert cycles_str(s1) == "(2 3)"
    assert cycles_str(s2) == "(1 2)"
    assert cycles_str(commutator(s1, s2)) == "(1 3 2)"
    for m in range(1, 11):
        s1, s2 = example1_pair(m)
        assert s1.degree == 2 * m + 1
        assert compose(s1, s1) == identity(s1.degree)
        assert compose(s2, s2) == identity(s2.degree)
        assert cycle_type(commutator(s1, s2)) == (2 * m + 1,)
    with pytest.raises(ValueError):
        example1_pair(0)


@pytest.mark.parametrize("m", range(1, 31))
def test_example_pairs_match_their_cycle_notation(m):
    # the docstrings' products of swaps, read back through parse_cycles
    odd = example1_pair(m)
    assert odd == (parse_cycles("".join(f"({2 * i} {2 * i + 1})" for i in range(1, m + 1)), 2 * m + 1),
                   parse_cycles("".join(f"({2 * i - 1} {2 * i})" for i in range(1, m + 1)), 2 * m + 1))
    if m >= 2:
        even = example2_pair(m)
        assert even == (parse_cycles("".join(f"({2 * i} {2 * i + 1})" for i in range(1, m)), 2 * m),
                        parse_cycles("".join(f"({2 * i - 1} {2 * i})" for i in range(1, m + 1)), 2 * m))


def test_example2_pairs():
    s1, s2 = example2_pair(2)
    assert cycles_str(s1) == "(2 3)"
    assert cycles_str(s2) == "(1 2)(3 4)"
    assert cycles_str(commutator(s1, s2)) == "(1 4)(2 3)"
    for m in range(2, 11):
        s1, s2 = example2_pair(m)
        assert s1.degree == 2 * m
        assert cycle_type(commutator(s1, s2)) == (m, m)
        assert is_transitive([s1, s2])
    with pytest.raises(ValueError):
        example2_pair(1)


def test_cycle_text_is_only_read_from_outside():
    # the pairs are built from image tuples; nothing formats cycle text to parse it back
    import satgenus

    with pytest.raises(AttributeError):
        satgenus.from_cycles
    with pytest.raises(AttributeError):
        perms_module.from_cycles


def test_ore_search_s3_exhaustive():
    for images in itertools.permutations(range(3)):
        target = Permutation(images)
        witness = ore_commutator_search(target)
        if is_even(target):
            assert witness is not None
            a, b = witness
            assert commutator(a, b) == target
        else:
            assert witness is None


def test_ore_search_identity_witness():
    a, b = ore_commutator_search(identity(4))
    assert a == identity(4) and b == identity(4)


def test_ore_search_witness_is_lexicographically_first():
    target = parse_cycles("(1 2 3)", 3)
    a, b = ore_commutator_search(target)
    for x in itertools.permutations(range(3)):
        for y in itertools.permutations(range(3)):
            if naive_commutator(x, y) == target.images:
                assert (a.images, b.images) == (x, y)
                return


def test_ore_search_matches_naive_first_pairs():
    for n in range(1, 7):
        first = naive_first_commutator_pairs(n)
        for images in itertools.permutations(range(n)):
            target = Permutation(images)
            witness = ore_commutator_search(target)
            if is_even(target):
                a, b = witness
                assert (a.images, b.images) == first[images]
            else:
                assert witness is None


# one even permutation of each cycle type of S_7, each with its first pair
# in an early row so that the naive double loop stays quick
S7_EVEN_TARGETS = [
    "()",
    "(4 5)(6 7)",
    "(5 7 6)",
    "(1 2)(3 7 6)(4 5)",
    "(2 4 3)(5 6 7)",
    "(2 3)(4 7 6 5)",
    "(3 7 5 6 4)",
    "(1 7 4 5 6 3 2)",
]


def test_s7_targets_cover_every_even_cycle_type():
    types = {cycle_type(parse_cycles(text, 7)) for text in S7_EVEN_TARGETS}
    even = {
        cycle_type(Permutation(images))
        for images in itertools.permutations(range(7))
        if is_even(Permutation(images))
    }
    assert types == even and len(types) == len(S7_EVEN_TARGETS)


@pytest.mark.parametrize("text", S7_EVEN_TARGETS)
def test_ore_search_at_degree_seven_matches_naive_first_pair(text):
    target = parse_cycles(text, 7)
    a, b = ore_commutator_search(target)
    assert (a.images, b.images) == naive_first_commutator_pair(target.images)


def _even_targets(n):
    """One even permutation of each cycle type of S_n, its cycles laid out
    on consecutive points."""
    for shape in partitions(n):
        if (n - len(shape)) % 2 == 0:
            ends = itertools.accumulate(shape)
            # 0-indexed, each block end - size .. end - 1 is one cycle x -> x + 1
            yield Permutation(tuple(x + 1 if x + 1 < end else end - size
                                    for size, end in zip(shape, ends) for x in range(end - size, end)))


def test_ore_search_at_the_degree_ceiling():
    targets = list(_even_targets(8))
    assert len(targets) == 12
    for target in targets:
        a, b = ore_commutator_search(target)
        assert commutator(a, b) == target
    # its first pair lies in row 7 of 40320, so the naive double loop stays quick
    target = parse_cycles("(1 2)(3 4)(5 6)(7 8)", 8)
    a, b = ore_commutator_search(target)
    assert (a.images, b.images) == naive_first_commutator_pair(target.images)


def test_ore_search_builds_no_oracle_pairs(monkeypatch):
    built = []
    real = oracle._first_pairs
    monkeypatch.setattr(oracle, "_first_pairs", lambda n: built.append(n) or real(n))
    ore_commutator_search(parse_cycles("(1 2 3 4 5)", 5))
    assert built == []
    oracle.enumerate_covers(1, 5)
    assert built == [5]


def test_ore_search_holds_no_table_at_the_degree_ceiling():
    # S_8 as image tuples alone takes about 4 MB; the search walks it one
    # permutation at a time
    target = parse_cycles("(1 2)(3 4)(5 6)(7 8)", 8)
    tracemalloc.start()
    try:
        ore_commutator_search(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_search_limit_belongs_to_perms_alone():
    # the oracle has no degree ceiling: its budget alone sets its reach
    import satgenus

    assert perms_module.MAX_TABLE_DEGREE == 8
    assert not hasattr(satgenus, "MAX_TABLE_DEGREE")
    assert not hasattr(oracle, "MAX_TABLE_DEGREE")


def test_ore_search_degree_limit():
    assert perms_module.MAX_TABLE_DEGREE == 8
    assert ore_commutator_search(identity(8)) == (identity(8), identity(8))
    with pytest.raises(ValueError, match="exceeds the search limit 8"):
        ore_commutator_search(identity(9))
