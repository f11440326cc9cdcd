import pytest
from hypothesis import given, settings, strategies as st

from localix.congruence import (
    OrderCongruence,
    enumerate_order_congruences,
    gen_order_congruence,
    order_kernel,
    quotient,
)
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import ResourceBudgetError, StructureError
from localix.lattice import join_irreducibles, lower_sets, powerset_lattice
from localix.order import FinPoset

import oracles
from conftest import posets, posets_up_to, random_poset


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
    import localix.congruence as congruence

    def no_rows(*args):
        raise AssertionError("enumeration built a congruence")

    monkeypatch.setattr(congruence, "_rows", no_rows)
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded: 256 > 64"):
        enumerate_order_congruences(powerset_lattice("wxyz"), DEFAULT_BUDGETS.bumped(elements=64))


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


# -- properties against the rule fixpoint ---------------------------------------


@settings(max_examples=150)
@given(posets(max_points=5))
def test_enumeration_matches_the_fixpoint_search(p):
    a = lower_sets(p)
    got, want = enumerate_order_congruences(a), oracles.enumerate_order_congruences(a)
    assert [c.rel for c in got] == [c.rel for c in want]


@settings(max_examples=150)
@given(posets(max_points=5), st.data())
def test_generated_congruence_matches_the_fixpoint(p, data):
    a = lower_sets(p)
    elems = st.sampled_from(a.elements)
    pairs = data.draw(st.lists(st.tuples(elems, elems), max_size=4))
    assert gen_order_congruence(a, pairs) == oracles.gen_order_congruence(a, pairs)
