import pytest
from hypothesis import given, settings

from localix import dissolution
from localix.budgets import DEFAULT_BUDGETS
from localix.congruence import enumerate_order_congruences
from localix.dissolution import Dissolution, dissolve, eta_principal, nA_congruence_bijection, neg
from localix.errors import DomainError, ResourceBudgetError, StructureError
from localix.lattice import (
    FinLattice,
    LatticeHom,
    join_irreducibles,
    lattice_isomorphic,
    lower_sets,
    powerset_lattice,
)
from localix.order import FinPoset

import oracles
from conftest import glued, glued_lattices, posets, posets_up_to, random_poset


def chain_lattice(n):
    return lower_sets(FinPoset(range(n - 1), [(i, i + 1) for i in range(n - 2)]))


def test_two_element_lattice_is_fixed():
    a = chain_lattice(2)
    d = dissolve(a)
    assert len(d.result) == 2
    assert d.result.kind == "boolean"


def test_three_chain_dissolves_to_four_boolean():
    a = chain_lattice(3)
    d = dissolve(a)
    assert len(d.result) == 4
    assert lattice_isomorphic(d.result, powerset_lattice("xy"))


def test_boolean_lattice_is_fixed_point():
    b = powerset_lattice("xy")
    d = dissolve(b)
    assert len(d.result) == len(b)
    assert lattice_isomorphic(d.result, b)


def test_size_is_two_to_the_irreducibles(rng):
    for p in posets_up_to(4):
        a = lower_sets(p)
        d = dissolve(a)
        assert len(d.result) == 2 ** len(join_irreducibles(a))
        assert d.result.kind == "boolean"


def test_unit_preserves_and_reflects_order(rng):
    for _ in range(5):
        a = lower_sets(random_poset(rng, 4))
        d = dissolve(a)
        for x in a.elements:
            for y in a.elements:
                assert (x <= y) == (d.unit(x) <= d.unit(y))


def test_unit_images_are_complemented(rng):
    a = lower_sets(random_poset(rng, 4))
    d = dissolve(a)
    for x in a.elements:
        d.result.complement(d.unit(x))  # raises if missing


def test_eta_principal_closed_form(rng):
    for p in posets_up_to(3):
        a = lower_sets(p)
        for x in a.elements:
            pairs = eta_principal(a, x)
            expected = frozenset(
                (b, neg(c)) for b in a.elements for c in a.elements if b <= x | c
            )
            assert pairs == expected


def test_eta_principal_rejects_foreign_element():
    a = chain_lattice(3)
    with pytest.raises(DomainError):
        eta_principal(a, frozenset(["zz"]))


def test_unit_pair_sets_match_eta(rng):
    a = lower_sets(random_poset(rng, 3))
    d = dissolve(a)
    for x in a.elements:
        assert d.repr[d.unit(x)] == eta_principal(a, x)


def test_congruence_bijection_round_trips(rng):
    for p in posets_up_to(3):
        a = lower_sets(p)
        d = dissolve(a)
        to_c, to_e = nA_congruence_bijection(a)
        seen = set()
        for e in d.result.elements:
            c = to_c(e)
            assert to_e(c) == e
            seen.add(c)
        assert len(seen) == len(d.result)
        for c in enumerate_order_congruences(a):
            assert to_c(to_e(c)) == c


def test_dissolution_is_idempotent_up_to_iso():
    a = chain_lattice(4)
    d = dissolve(a)
    dd = dissolve(d.result)
    assert lattice_isomorphic(dd.result, d.result)


def test_budget_is_checked_before_any_pair_set_is_built(monkeypatch):
    def no_pairs(ix, vecs):
        raise AssertionError("dissolve built a pair set")

    monkeypatch.setattr(dissolution, "_pair_sets", no_pairs)
    small = DEFAULT_BUDGETS.bumped(elements=64)
    # 16 result elements fit, 16 rows of 16 base elements do not
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded: 256 > 64"):
        dissolve(powerset_lattice("wxyz"), small)
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded: 2\\^7 > 64"):
        dissolve(powerset_lattice(range(7)), small)


def _no_irreducibles(self):
    raise AssertionError("the join-irreducibles were listed")


def test_budget_is_checked_before_the_irreducibles_are_listed(monkeypatch):
    monkeypatch.setattr(FinLattice, "_irreducibles", _no_irreducibles)
    with pytest.raises(ResourceBudgetError, match="elements budget exceeded"):
        dissolve(chain_lattice(100))  # 2^99 result elements


def test_default_budget_admits_six_atoms():
    d = dissolve(powerset_lattice(range(6)))  # 64 rows of 64: exactly the limit
    assert len(d.result) == 64


# -- properties against the pair-ideal fixpoint ---------------------------------


def _matches_the_fixpoint(a):
    d, want = dissolve(a), oracles.dissolve(a)
    assert d.result == want.result
    assert d.result.to_json() == want.result.to_json()
    assert d.unit.graph == want.unit.graph
    assert list(d.unit.graph) == list(want.unit.graph)
    assert list(d.repr.items()) == list(want.repr.items())


@settings(max_examples=150)
@given(posets(max_points=5))
def test_dissolve_matches_the_fixpoint(p):
    _matches_the_fixpoint(lower_sets(p))


def test_dissolve_matches_the_fixpoint_on_glued_points():
    for p in posets_up_to(4):
        a = glued(p)
        _matches_the_fixpoint(a)
        for x in a.elements:
            assert eta_principal(a, x) == oracles.eta_principal(a, x)


@settings(max_examples=60)
@given(glued_lattices())
def test_dissolve_matches_the_fixpoint_on_glued_mixed_labels(a):
    _matches_the_fixpoint(a)


@settings(max_examples=100)
@given(posets(max_points=5))
def test_eta_principal_matches_the_fixpoint(p):
    a = lower_sets(p)
    for x in a.elements:
        assert eta_principal(a, x) == oracles.eta_principal(a, x)


def _bijection_matches(a):
    to_c, to_e = nA_congruence_bijection(a)
    want_c, want_e = oracles.nA_congruence_bijection(a)
    for e in dissolve(a).result.elements:
        assert to_c(e) == want_c(e)
    for c in enumerate_order_congruences(a):
        assert to_e(c) == want_e(c)


@settings(max_examples=60)
@given(posets(max_points=5))
def test_congruence_bijection_matches_the_fixpoint(p):
    _bijection_matches(lower_sets(p))


@settings(max_examples=30)
@given(glued_lattices(max_points=3))
def test_congruence_bijection_matches_the_fixpoint_on_glued_points(a):
    _bijection_matches(a)


# -- the unit on masks, with the pair sets built on first read --------------------


def test_dissolve_builds_no_pair_set_until_repr_is_read(monkeypatch):
    def no_pairs(*args):
        raise AssertionError("a pair set was built")

    monkeypatch.setattr(dissolution, "_pair_sets", no_pairs)
    a = lower_sets(FinPoset("abcd", [("a", "b"), ("c", "d")]))
    d = dissolve(a)
    assert len(d.result) == 16 and d.result.kind == "boolean"
    assert d.unit.is_injective() and len({d.unit(x) for x in a.elements}) == len(a)
    with pytest.raises(AssertionError, match="a pair set was built"):
        d.repr


def test_dissolve_checks_its_unit_in_the_hom_core(monkeypatch):
    real = dissolution._new

    def spoiled(cls, *core):
        if cls is LatticeHom:  # swap the images of the two middle elements
            dom, cod, image = core
            image = list(image)
            image[1], image[2] = image[2], image[1]
            core = dom, cod, image
        return real(cls, *core)

    monkeypatch.setattr(dissolution, "_new", spoiled)
    with pytest.raises(StructureError, match="not preserved"):
        dissolve(chain_lattice(4))


def test_dissolution_checks_injectivity_and_complements_on_masks():
    a = chain_lattice(3)
    two = powerset_lattice("x")
    collapse = LatticeHom(a, two, {e: two.top if e == a.top else two.bot for e in a.elements})
    with pytest.raises(StructureError, match="unit must be injective"):
        Dissolution(a, two, collapse, {})
    with pytest.raises(StructureError, match=r"frozenset\(\{0\}\) has no complement"):
        Dissolution(a, a, LatticeHom.identity(a), {})
    with pytest.raises(DomainError, match="unit must go from the base to the result"):
        Dissolution(two, two, collapse, {})
