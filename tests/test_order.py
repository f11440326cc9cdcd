import tracemalloc

import pytest
from hypothesis import given, strategies as st

from localix.errors import DomainError, StructureError
from localix.lattice import FinLattice
from localix.order import (
    FinPoset, MonotoneMap, _canon_sorted, canon_key, lower_sets_of, poset_isomorphic,
)

import oracles
from conftest import LABELS, posets_up_to, random_poset


def chain(n):
    return FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])


def test_transitive_closure():
    p = FinPoset("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")
    assert p.lt("a", "b") and not p.lt("a", "a")


def test_cycle_rejected():
    with pytest.raises(StructureError):
        FinPoset("ab", [("a", "b"), ("b", "a")])


def test_unknown_element_rejected():
    with pytest.raises(DomainError):
        FinPoset("ab", [("a", "z")])


def test_cover_pairs_drop_transitive_edges():
    p = FinPoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.cover_pairs()) == {("a", "b"), ("b", "c")}


def test_linear_extension_respects_order(rng):
    for _ in range(20):
        p = random_poset(rng, 6)
        order = p.linear_extension()
        pos = {x: i for i, x in enumerate(order)}
        for a in p.elements:
            for b in p.elements:
                if p.lt(a, b):
                    assert pos[a] < pos[b]


def test_chain_rows_stay_small():
    # a 1000-chain has 500,500 pairs; as closed rows it needs two int rows a point
    tracemalloc.start()
    try:
        chain(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_lower_sets_counts():
    assert len(lower_sets_of(chain(4))) == 5
    assert len(lower_sets_of(FinPoset(range(4)))) == 16


def test_lower_sets_are_lower(rng):
    p = random_poset(rng, 6)
    for s in lower_sets_of(p):
        for b in s:
            assert p.down(b) <= s


def test_subposet_and_relabel():
    p = chain(4)
    q = p.subposet([0, 2, 3])
    assert q.leq(0, 3) and len(q) == 3
    r = p.relabel(lambda x: x * 10)
    assert r.leq(0, 30)


def test_json_round_trip(rng):
    for _ in range(10):
        p = random_poset(rng, 5)
        assert FinPoset.from_json(p.to_json()) == p


def test_dot_output_mentions_covers():
    p = chain(3)
    dot = p.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(p.cover_pairs())


def test_dot_escapes_quotes_and_backslashes_in_labels():
    p = FinPoset(['a"b', "c\\d", "e"], [('a"b', "e")])
    dot = p.to_dot()
    assert '  n0 [label="a\\"b"];' in dot and '  n1 [label="c\\\\d"];' in dot
    assert dot == oracles.hasse_dot(p.elements, p.leq_pairs(), "poset")
    a = FinLattice(p, [frozenset(), frozenset(['a"b']), frozenset(p.elements)])
    assert '[label="{a\\"b}"];' in a.to_dot()
    assert a.to_dot() == oracles.hasse_dot(a.elements, oracles.element_order(a), "lattice")


@given(st.integers(0, 6), st.data())
def test_canon_sorted_lists_the_point_sets_in_canon_key_order(n, data):
    pts = sorted(data.draw(st.lists(LABELS, unique=True, min_size=n, max_size=n)), key=canon_key)
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True))

    def points(m):
        return frozenset(x for i, x in enumerate(pts) if m >> i & 1)

    assert list(map(points, _canon_sorted(masks, n))) == sorted(map(points, masks), key=canon_key)


@given(st.integers(0, 20), st.data())
def test_canon_sorted_matches_the_string_key_across_byte_boundaries(n, data):
    # the byte-reversed key crosses byte boundaries at 8 and 16 points
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    assert _canon_sorted(masks, n) == oracles.canon_sorted(masks, n)


def test_isomorphism_positive_negative():
    p = FinPoset("ab", [("a", "b")])
    q = FinPoset("xy", [("y", "x")])
    assert poset_isomorphic(p, q)
    assert not poset_isomorphic(p, FinPoset("xy"))


def test_isomorphism_looks_past_equal_profiles():
    # the same (down, up) counts, point for point, but not isomorphic
    p = FinPoset(range(6), [(0, 1), (0, 4), (2, 3), (2, 4), (2, 5), (3, 4)])
    q = FinPoset(range(6), [(0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (3, 5)])
    assert not poset_isomorphic(p, q) and not oracles.posets_isomorphic(p, q)
    assert poset_isomorphic(p, p.relabel(lambda x: 5 - x))


def test_enumeration_class_counts():
    counts = {}
    for p in posets_up_to(5):
        counts[len(p.elements)] = counts.get(len(p.elements), 0) + 1
    assert counts == {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def test_monotone_map_validated():
    p, q = chain(3), chain(2)
    MonotoneMap(p, q, {0: 0, 1: 0, 2: 1})
    with pytest.raises(StructureError):
        MonotoneMap(p, q, {0: 1, 1: 0, 2: 0})


def test_directedness_and_extremes():
    assert chain(3).is_directed()
    assert not FinPoset("ab").is_directed()
    assert chain(3).maximal() == (2,)
    assert chain(3).minimal() == (0,)


@st.composite
def relations(draw):
    """Up to 8 mixed-label points and random pairs, cycles and strays included."""
    pts = draw(st.lists(LABELS, unique=True, max_size=8))
    pairs = []
    if pts:
        pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=12))
    if draw(st.integers(0, 19)) == 19:
        pairs.append((draw(LABELS), pts[0] if pts else 0))
    return pts, pairs


@given(relations(), st.data())
def test_closure_matches_the_fixpoint(case, data):
    """The closed rows answer every query as the pair-set closure does."""
    pts, pairs = case
    try:
        rel = oracles.poset_leq(pts, pairs)
    except (DomainError, StructureError) as e:
        with pytest.raises(type(e)) as got:
            FinPoset(pts, pairs)
        if isinstance(e, DomainError):
            assert str(got.value) == str(e)
        return
    p = FinPoset(pts, pairs)
    elems = p.elements
    assert p.leq_pairs() == rel
    for a in elems:
        assert p.down(a) == {x for x in elems if (x, a) in rel}
        assert p.up(a) == {x for x in elems if (a, x) in rel}
        for b in elems:
            assert p.leq(a, b) == ((a, b) in rel)
            assert p.lt(a, b) == (a != b and (a, b) in rel)
    strict = {(a, b) for a, b in rel if a != b}
    assert p.cover_pairs() == oracles.cover_pairs(elems, rel)
    assert p.to_dot("p") == oracles.hasse_dot(elems, rel, "p")
    assert p.is_antichain() == (not strict)
    assert p.maximal() == tuple(a for a in elems if not any(x == a for x, _ in strict))
    assert p.minimal() == tuple(b for b in elems if not any(y == b for _, y in strict))
    assert p.is_directed() == all(
        any((a, c) in rel and (b, c) in rel for c in elems) for a in elems for b in elems
    )
    assert p.linear_extension() == oracles.linear_extension(elems, rel)
    keep = data.draw(st.sets(st.sampled_from(elems))) if elems else set()
    assert p.subposet(keep).leq_pairs() == {(a, b) for a, b in rel if a in keep and b in keep}
    tag = {x: ("r", i) for i, x in enumerate(reversed(elems))}
    assert p.relabel(tag.__getitem__).leq_pairs() == {(tag[a], tag[b]) for a, b in rel}
    assert oracles.loads(p.to_json())["pairs"] == tuple(sorted(strict, key=canon_key))
    assert lower_sets_of(p) == oracles.lower_sets(elems, rel)
    if len(elems) <= 6:
        perm = data.draw(st.permutations(elems))
        q = FinPoset(perm, [(perm[elems.index(a)], perm[elems.index(b)]) for a, b in pairs][1:])
        assert poset_isomorphic(p, q) == oracles.posets_isomorphic(p, q)


@pytest.mark.parametrize(
    "labels, back",
    [
        (["--5", "a"], ["--5", "a"]),  # not an int: used to raise from int()
        (["٣", "b"], ["٣", "b"]),  # an Arabic-Indic digit is not an ASCII int
        (["-3", "0", "12", "1a"], ["-3", "0", "12", "1a"]),  # digit strings stay strings
        ([-3, 0, 12], [-3, 0, 12]),
    ],
)
def test_json_reads_ints_only_from_ascii_digit_labels(labels, back):
    p = FinPoset(labels, [(labels[0], labels[1])])
    q = FinPoset.from_json(p.to_json())
    assert q == FinPoset(back, [(back[0], back[1])])
    assert FinPoset.from_json(q.to_json()) == q
