import pytest
from hypothesis import given, settings, strategies as st

from localix import congruence
from localix.congruence import (
    OrderCongruence,
    enumerate_order_congruences,
    gen_order_congruence,
    order_kernel,
    quotient,
)
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import ResourceBudgetError, StructureError
from localix.lattice import FinLattice, enumerate_homs, join_irreducibles, lower_sets, powerset_lattice
from localix.order import FinPoset

import oracles
from conftest import glued, glued_lattices, posets, posets_up_to, random_poset, small_lattices


def chain_lattice(n):
    return lower_sets(FinPoset(range(n - 1), [(i, i + 1) for i in range(n - 2)]))


def test_order_is_smallest_congruence():
    a = chain_lattice(3)
    c = gen_order_congruence(a, [])
    assert c.rel == frozenset(
        (x, y) for x in a.elements for y in a.elements if x <= y
    )


def test_invalid_congruence_rejected():
    a = chain_lattice(3)
    bot, mid, top = frozenset(), frozenset([0]), frozenset([0, 1])
    order = [(x, y) for x in a.elements for y in a.elements if x <= y]
    with pytest.raises(StructureError):
        # top ~ bot without mid ~ bot is not meet-stable
        OrderCongruence(a, order + [(top, bot)])
    with pytest.raises(StructureError):
        # a relation not containing the order at all
        OrderCongruence(a, [(x, x) for x in a.elements])
    # the generated closure of the same collapse is fine
    gen_order_congruence(a, [(top, bot)])


def _square_order():
    b = powerset_lattice("xy")
    return b, [(p, q) for p in b.elements for q in b.elements if p <= q]


def test_rejects_relation_missing_the_order():
    a = chain_lattice(3)
    with pytest.raises(StructureError) as err:
        OrderCongruence(a, [(x, x) for x in a.elements])
    assert str(err.value) == "congruence must contain the lattice order"


def test_rejects_intransitive_relation():
    a = chain_lattice(3)
    bot, mid, top = frozenset(), frozenset([0]), frozenset([0, 1])
    order = [(x, y) for x in a.elements for y in a.elements if x <= y]
    with pytest.raises(StructureError) as err:
        OrderCongruence(a, order + [(top, mid), (mid, bot)])
    assert str(err.value) == "congruence must be transitive"


def test_rejects_relation_that_is_not_meet_stable():
    # y <= x without y <= y /\ x = bottom
    b, order = _square_order()
    x, y, top = frozenset("x"), frozenset("y"), frozenset("xy")
    with pytest.raises(StructureError) as err:
        OrderCongruence(b, order + [(top, x), (y, x)])
    assert str(err.value) == "congruence must be meet-stable"


def test_rejects_relation_whose_joins_stop_being_joins():
    # x and y both collapse to bottom, but their join top does not
    b, order = _square_order()
    bot, x, y = frozenset(), frozenset("x"), frozenset("y")
    with pytest.raises(StructureError) as err:
        OrderCongruence(b, order + [(x, bot), (y, bot), (x, y), (y, x)])
    assert str(err.value) == "lattice joins must remain joins"


def test_congruence_count_is_power_of_irreducibles():
    for p in posets_up_to(4):
        a = lower_sets(p)
        cs = enumerate_order_congruences(a)
        assert len(cs) == 2 ** len(join_irreducibles(a))
        assert len(set(cs)) == len(cs)


def test_quotient_kernel_round_trip(rng):
    for _ in range(5):
        a = lower_sets(random_poset(rng, 4))
        for c in enumerate_order_congruences(a):
            lat, q = quotient(a, c)
            assert order_kernel(q) == c
            assert q.is_surjective()


def test_quotient_of_square_by_atom_collapse():
    b = powerset_lattice("xy")
    c = gen_order_congruence(b, [(frozenset("x"), frozenset())])
    lat, q = quotient(b, c)
    assert len(lat) == 2
    assert q(frozenset("x")) == lat.bot and q(frozenset("y")) == lat.top


def test_classes_partition(rng):
    a = lower_sets(random_poset(rng, 4))
    for c in enumerate_order_congruences(a):
        seen = set()
        for cls in c.classes():
            assert not (cls & seen)
            seen |= cls
        assert seen == set(a.elements)


def test_enumeration_checks_the_budget_first(monkeypatch):
    def no_rows(*args):
        raise AssertionError("enumeration built a congruence")

    monkeypatch.setattr(congruence, "_rows", no_rows)
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded: 256 > 64"):
        enumerate_order_congruences(powerset_lattice("wxyz"), DEFAULT_BUDGETS.bumped(elements=64))


def test_enumeration_checks_the_budget_before_listing_the_irreducibles(monkeypatch):
    def no_irreducibles(self):
        raise AssertionError("the join-irreducibles were listed")

    monkeypatch.setattr(FinLattice, "_irreducibles", no_irreducibles)
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded"):
        enumerate_order_congruences(chain_lattice(100))  # 2^99 congruences


def _collapsed(p, c):
    """The points whose principal down-set collapses onto its strict part."""
    def down(j, strict):
        return frozenset(x for x in p.elements if p.leq(x, j) and not (strict and x == j))

    return {j for j in p.elements if (down(j, False), down(j, True)) in c.rel}


def test_enumeration_order_follows_pair_reprs():
    # repr order puts frozenset({10}) before frozenset({9}); canon_key
    # would put 9 first.  Only int labels here: a frozenset mixing ints
    # and strings iterates, and so prints, in hash-seed order.
    for p in (FinPoset([9, 10]), FinPoset([9, 10], [(9, 10)])):
        cs = enumerate_order_congruences(lower_sets(p))
        assert [_collapsed(p, c) for c in cs] == [set(), {10}, {9}, {9, 10}]
    # with strings, the order is compared with the fixpoint search, which
    # sorts by the reprs themselves
    for p in (FinPoset([9, 10, "1", 1]), FinPoset([9, 10, "1", 1], [(9, 10), ("1", 1)])):
        a = lower_sets(p)
        got, want = enumerate_order_congruences(a), oracles.enumerate_order_congruences(a)
        assert [c.rel for c in got] == [c.rel for c in want]


class _Anonymous:
    """A label whose repr does not tell it apart from the others."""

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, _Anonymous) and other.k == self.k

    def __hash__(self):
        return hash(self.k)

    def __repr__(self):
        return "anon"


def test_enumeration_order_with_repeated_pair_reprs():
    # many pairs print alike, so several ranks repeat: the order is still
    # by size, then by the sorted pair reprs, whose ties may fall either way
    pts = [_Anonymous(k) for k in range(4)]
    for p in (FinPoset(pts), FinPoset(pts, [(pts[0], pts[1]), (pts[2], pts[1])])):
        a = lower_sets(p)
        got = enumerate_order_congruences(a)
        keys = [(len(c.rel), sorted(map(repr, c.rel))) for c in got]
        assert keys == sorted(keys)
        assert set(got) == set(oracles.enumerate_order_congruences(a))


# -- properties against the rule fixpoint ---------------------------------------


# neither is an element of any lattice drawn here
FOREIGN = (frozenset(["no such point"]), "no such element")


def _enumeration_matches(a):
    """The list, its order and each congruence's pairs, ``holds``,
    ``equivalent`` and ``classes``, against the fixpoint search read off
    its pair sets."""
    got, want = enumerate_order_congruences(a), oracles.enumerate_order_congruences(a)
    assert [c.rel for c in got] == [c.rel for c in want]
    probes = list(a.elements) + list(FOREIGN)
    for c, w in zip(got, want):
        rel = w.rel
        for x in probes:
            for y in probes:
                assert c.holds(x, y) == ((x, y) in rel)
                assert c.equivalent(x, y) == ((x, y) in rel and (y, x) in rel)
        assert c.classes() == oracles.congruence_classes(a, rel)


@settings(max_examples=150)
@given(posets(max_points=5))
def test_enumeration_matches_the_fixpoint_search(p):
    _enumeration_matches(lower_sets(p))


def test_enumeration_matches_the_fixpoint_search_on_glued_points():
    for p in posets_up_to(4):
        _enumeration_matches(glued(p))


@settings(max_examples=60)
@given(glued_lattices())
def test_enumeration_matches_the_fixpoint_search_on_glued_mixed_labels(a):
    _enumeration_matches(a)


def _generated_matches(a, data):
    elems = st.sampled_from(a.elements)
    pairs = data.draw(st.lists(st.tuples(elems, elems), max_size=4))
    assert gen_order_congruence(a, pairs) == oracles.gen_order_congruence(a, pairs)


@settings(max_examples=150)
@given(posets(max_points=5), st.data())
def test_generated_congruence_matches_the_fixpoint(p, data):
    _generated_matches(lower_sets(p), data)


@settings(max_examples=60)
@given(glued_lattices(), st.data())
def test_generated_congruence_matches_the_fixpoint_on_glued_points(a, data):
    _generated_matches(a, data)


# -- rows, with the pair sets built on first read ---------------------------------


def _no_pairs(*args):
    raise AssertionError("a pair set was built")


def test_enumeration_builds_no_pair_set_until_rel_is_read(monkeypatch):
    monkeypatch.setattr(congruence, "_rows_to_pairs", _no_pairs)
    a = lower_sets(FinPoset("abcd", [("a", "b"), ("c", "d")]))
    cs = enumerate_order_congruences(a)
    assert len(cs) == 16 and len(set(cs)) == 16
    bot, top = a.bot, a.top
    assert [c.holds(top, bot) for c in (cs[0], cs[-1])] == [False, True]
    assert [len(c.classes()) for c in (cs[0], cs[-1])] == [len(a), 1]
    comparable = sum(x <= y for x in a.elements for y in a.elements)
    assert repr(cs[0]) == f"OrderCongruence({comparable} pairs on 9 elements)"
    for c in cs[:4]:
        lat, q = quotient(a, c)  # checks the kernel on rows
        assert order_kernel(q) == c
    with pytest.raises(AssertionError, match="a pair set was built"):
        cs[1].rel


def test_enumeration_certifies_every_congruence(monkeypatch):
    seen = []
    real = congruence._certify
    monkeypatch.setattr(congruence, "_certify", lambda a, r, rules: seen.append(r) or real(a, r, rules))
    cs = enumerate_order_congruences(chain_lattice(4))
    assert len(cs) == 8 and sorted(seen) == sorted(list(c._rows) for c in cs)


def test_enumeration_refuses_a_relation_that_breaks_a_rule(monkeypatch):
    real = congruence._rows

    def spoiled(masks, s, above):
        r = real(masks, s, above)
        if s:
            r[-1] |= 1  # the top relates to the bottom
        return r

    monkeypatch.setattr(congruence, "_rows", spoiled)
    with pytest.raises(StructureError, match="congruence must be transitive"):
        enumerate_order_congruences(chain_lattice(3))


def test_holds_and_equivalent_are_false_off_the_lattice():
    a = chain_lattice(3)
    c = gen_order_congruence(a, [(a.top, a.bot)])
    for x in FOREIGN + (frozenset([0, 9]),):
        assert not c.holds(x, a.top) and not c.holds(a.bot, x)
        assert not c.equivalent(x, x)
    assert c.equivalent(a.top, a.bot) and c.classes() == [frozenset(a.elements)]


def _kernel_matches(a, b):
    for f in enumerate_homs(a, b):
        assert order_kernel(f).rel == oracles.order_kernel(f)


@settings(max_examples=60)
@given(posets(max_points=3), posets(max_points=3))
def test_order_kernel_matches_the_pair_definition(p, q):
    _kernel_matches(lower_sets(p), lower_sets(q))


@settings(max_examples=30)
@given(glued_lattices(max_points=3), posets(max_points=3))
def test_order_kernel_matches_the_pair_definition_on_glued_points(a, q):
    _kernel_matches(a, lower_sets(q))


def _quotients_match(a):
    for c in enumerate_order_congruences(a):
        lat, q = quotient(a, c)
        want_lat, want_q = oracles.quotient(a, c)
        assert lat == want_lat and lat.spectrum == want_lat.spectrum and lat.kind == want_lat.kind
        assert q.graph == want_q.graph


@settings(max_examples=60)
@given(small_lattices())
def test_quotient_is_the_realization_of_its_classes(a):
    _quotients_match(a)


@settings(max_examples=30)
@given(glued_lattices())
def test_quotient_is_the_realization_of_its_classes_on_glued_points(a):
    _quotients_match(a)
