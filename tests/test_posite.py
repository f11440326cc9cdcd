import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from localix.budgets import DEFAULT_BUDGETS
from localix.errors import DomainError, ResourceBudgetError
from localix.lattice import lower_sets, powerset_lattice
from localix.order import FinPoset
from localix.posite import (
    PolyOrder,
    canonical_coverage,
    canonical_polyorder,
    cov_ideals,
    cov_ideals_from_generators,
    downtri,
    polyposet_coproduct,
    polyposet_entails,
    saturate_coverage,
    saturate_polyposet,
)

import oracles
from conftest import glued_lattices, posets, random_poset
from oracles import polyposet_oracle


def chain_lattice(n):
    return lower_sets(FinPoset(range(n - 1), [(i, i + 1) for i in range(n - 2)]))


def random_coverage_generators(rng, base, count):
    elems = list(base.elements)
    gens = []
    for _ in range(count):
        a = rng.choice(elems)
        cover = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
        gens.append((a, cover))
    return gens


def test_saturation_contains_reflexivity_and_generators():
    a = chain_lattice(3)
    mid = frozenset([0])
    c = saturate_coverage(a, [(a.top, [mid])])
    assert c.covers(a.top, [mid])
    for e in a.elements:
        assert c.covers(e, [e])
        assert c.covers(e, list(a.elements))  # supersets of a cover still cover


def test_canonical_coverage_is_join_covering():
    a = chain_lattice(3)
    c = canonical_coverage(a)
    for e in a.elements:
        for k in range(len(a) + 1):
            for cov in itertools.combinations(list(a.elements), k):
                assert c.covers(e, cov) == (e <= a.join_of(cov))


def test_downtri_of_top_in_canonical_coverage():
    a = chain_lattice(3)
    c = canonical_coverage(a)
    assert downtri(c, a.top) == frozenset(a.elements)
    assert downtri(c, a.bot) == frozenset({a.bot})


def test_ideals_of_empty_coverage_are_lower_sets():
    a = chain_lattice(3)
    c = saturate_coverage(a, [])
    lat, _ = cov_ideals(c)
    assert len(lat) == 4  # lower sets of a 3-chain of elements


def test_nullary_cover_forces_bottom():
    a = chain_lattice(3)
    c = saturate_coverage(a, [])
    lat, _ = cov_ideals(c, include_empty_join=True)
    assert len(lat) == 3  # every ideal now contains bottom


def test_coverage_ideals_are_not_closed_under_union():
    # so they are no ring of sets, and cov_ideals builds them on their
    # join-irreducible ideals: in the canonical coverage of 2^{a,b},
    # {a,b} is covered by {a} and {b}, so the union of their ideals is
    # not an ideal
    base = powerset_lattice("ab")
    c = canonical_coverage(base)
    lat, to_elem = cov_ideals(c)
    a, b = frozenset("a"), frozenset("b")
    down_a, down_b = frozenset([base.bot, a]), frozenset([base.bot, b])
    assert down_a in to_elem and down_b in to_elem
    assert c.covers(base.top, [a, b])
    assert down_a | down_b not in to_elem
    assert len(lat) == 4 and lat.kind == "boolean"


def test_generated_vs_saturated_ideals_agree(rng):
    for _ in range(40):
        base = lower_sets(random_poset(rng, rng.randint(1, 3)))
        gens = random_coverage_generators(rng, base, rng.randint(0, 3))
        sat = saturate_coverage(base, gens, DEFAULT_BUDGETS.bumped(carrier=8))
        for include_empty_join in (False, True):
            lat, to_elem = cov_ideals(sat, include_empty_join)
            plain = cov_ideals_from_generators(base, gens, include_empty_join)
            assert sorted(to_elem, key=sorted) == sorted(plain, key=sorted)


def _drawn_generators(base, data):
    elems = st.sampled_from(base.elements)
    return data.draw(st.lists(st.tuples(elems, st.lists(elems, max_size=2)), max_size=3))


def _saturation_matches(base, data):
    gens = _drawn_generators(base, data)
    budgets = DEFAULT_BUDGETS.bumped(carrier=8)
    got, want = saturate_coverage(base, gens, budgets), oracles.saturate_coverage(base, gens, budgets)
    assert got.pairs() == want.pairs()
    assert got._rel == want._rel


@settings(max_examples=100)
@given(posets(max_points=5), st.data())
def test_coverage_saturation_matches_the_rule_fixpoint(p, data):
    base = lower_sets(p)
    assume(len(base) <= 8)
    _saturation_matches(base, data)


@settings(max_examples=30)
@given(glued_lattices(max_points=3), st.data())
def test_coverage_saturation_matches_the_rule_fixpoint_on_glued_points(base, data):
    _saturation_matches(base, data)


def _ideals_match(base, data):
    c = saturate_coverage(base, _drawn_generators(base, data), DEFAULT_BUDGETS.bumped(carrier=8))
    for include_empty_join in (False, True):
        lat, to_elem = cov_ideals(c, include_empty_join)
        want_lat, want = oracles.cov_ideals(c, include_empty_join)
        assert lat == want_lat and lat.spectrum == want_lat.spectrum and lat.kind == want_lat.kind
        assert to_elem == want


@settings(max_examples=100)
@given(posets(max_points=5), st.data())
def test_cov_ideals_is_the_realization_of_the_ideal_order(p, data):
    base = lower_sets(p)
    assume(len(base) <= 8)
    _ideals_match(base, data)


@settings(max_examples=30)
@given(glued_lattices(max_points=3), st.data())
def test_cov_ideals_is_the_realization_of_the_ideal_order_on_glued_points(base, data):
    _ideals_match(base, data)


def test_coverage_saturation_on_empty_covers():
    # a nullary cover of the middle element forces everything below it
    # into every ideal, the empty one included
    a = chain_lattice(4)
    mid = frozenset([0, 1])
    gens = [(mid, [])]
    c = saturate_coverage(a, gens)
    assert c._rel == oracles.saturate_coverage(a, gens)._rel
    assert c.covers(frozenset([0]), []) and not c.covers(a.top, [])
    assert downtri(c, a.bot) == frozenset(e for e in a.elements if e <= mid)


def test_coverage_budget_enforced():
    base = lower_sets(random_poset(__import__("random").Random(0), 5))
    with pytest.raises(ResourceBudgetError):
        saturate_coverage(base, [], DEFAULT_BUDGETS.bumped(carrier=3))


def test_coverage_rejects_foreign_elements():
    a = chain_lattice(3)
    with pytest.raises(DomainError):
        saturate_coverage(a, [(frozenset(["zz"]), [])])


# -- polyposets ---------------------------------------------------------------


def test_polyposet_matches_oracle_exhaustively_small():
    carrier = ("a", "b", "c")
    gens = [(("a",), ("b",)), (("b", "c"), ())]
    p = saturate_polyposet(carrier, gens)
    subsets = [
        frozenset(s)
        for k in range(4)
        for s in itertools.combinations(carrier, k)
    ]
    for left in subsets:
        for right in subsets:
            assert polyposet_entails(p, left, right) == polyposet_oracle(
                p, left, right
            ), (left, right)


def test_polyposet_matches_oracle_random(rng):
    for _ in range(15):
        n = rng.randint(1, 4)
        carrier = tuple(f"p{i}" for i in range(n))
        gens = []
        for _ in range(rng.randint(0, 3)):
            l = tuple(x for x in carrier if rng.random() < 0.4)
            r = tuple(x for x in carrier if rng.random() < 0.4)
            gens.append((l, r))
        p = saturate_polyposet(carrier, gens)
        subsets = [
            frozenset(s)
            for k in range(n + 1)
            for s in itertools.combinations(carrier, k)
        ]
        for left in subsets:
            for right in subsets:
                assert polyposet_entails(p, left, right) == polyposet_oracle(
                    p, left, right
                )


def test_canonical_polyorder_restricts_to_order():
    p = canonical_polyorder("abc", [("a", "b"), ("b", "c")])
    assert p.holds(["a"], ["c"])
    assert not p.holds(["c"], ["a"])


def test_coproduct_is_saturated_and_componentwise(rng):
    p1 = canonical_polyorder("ab", [("a", "b")])
    p2 = canonical_polyorder("xy", [("x", "y")])
    cp = polyposet_coproduct([p1, p2])
    # re-saturating the coproduct relation changes nothing (rectangle rule)
    resat = saturate_polyposet(
        cp.carrier, cp.pairs(), DEFAULT_BUDGETS.bumped(carrier=8)
    )
    assert resat.rel == cp.rel
    assert cp.holds([(0, "a")], [(0, "b")])
    assert not cp.holds([(0, "a")], [(1, "y")])


def test_coproduct_checks_carrier_budget_before_pairing(monkeypatch):
    p1 = canonical_polyorder("abcd", [("a", "b")])
    p2 = canonical_polyorder("wxyz", [("x", "y")])

    def no_pairs(self, left, right):
        raise AssertionError("coproduct entered the pair loop")

    monkeypatch.setattr(PolyOrder, "holds", no_pairs)
    with pytest.raises(ResourceBudgetError, match="carrier budget exceeded: 8 > 6"):
        polyposet_coproduct([p1, p2])


def _componentwise(ps, cp, lm, rm) -> bool:
    """The coproduct's definition: some component affirms the restriction."""
    left = [cp.carrier[k] for k in range(len(cp.carrier)) if lm >> k & 1]
    right = [cp.carrier[k] for k in range(len(cp.carrier)) if rm >> k & 1]
    return any(
        p.holds([x for j, x in left if j == i], [x for j, x in right if j == i])
        for i, p in enumerate(ps)
    )


def _random_polyorder(rng, n):
    carrier = tuple(f"p{i}" for i in range(n))

    def side():
        return tuple(x for x in carrier if rng.random() < 0.4)

    return saturate_polyposet(carrier, [(side(), side()) for _ in range(rng.randint(0, 3))])


def test_coproduct_is_the_componentwise_relation():
    rng = random.Random(7)
    for _ in range(25):
        ps = [_random_polyorder(rng, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
        cp = polyposet_coproduct(ps)
        n = len(cp.carrier)
        want = {
            (lm, rm)
            for lm in range(1 << n)
            for rm in range(1 << n)
            if _componentwise(ps, cp, lm, rm)
        }
        assert cp.rel == want


# -- properties against the rule fixpoint ---------------------------------------

MASK_PAIRS = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=4)


def _check_saturation(n, gen):
    carrier = tuple(f"p{i}" for i in range(n))
    named = [
        ([carrier[i] for i in range(n) if l >> i & 1], [carrier[i] for i in range(n) if r >> i & 1])
        for l, r in gen
    ]
    p = saturate_polyposet(carrier, named)
    assert p.rel == oracles.saturate_masks(n, {(p.mask(l), p.mask(r)) for l, r in named})
    for lm in range(1 << n):
        for rm in range(1 << n):
            assert ((lm, rm) in p.rel) == polyposet_oracle(p, p.unmask(lm), p.unmask(rm))


@settings(max_examples=150)
@given(st.integers(0, 4), MASK_PAIRS)
def test_saturation_matches_the_rule_fixpoint(n, gen):
    full = (1 << n) - 1
    _check_saturation(n, [(l & full, r & full) for l, r in gen])


def test_saturation_matches_the_rule_fixpoint_on_five_points():
    rng = random.Random(11)

    def side():
        return rng.randrange(32) & rng.randrange(32)

    for _ in range(4):
        _check_saturation(5, [(side(), side()) for _ in range(rng.randint(1, 3))])
