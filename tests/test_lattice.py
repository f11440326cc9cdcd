import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from localix import lattice
from localix.baire import FrameTopology, regular_opens
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import DomainError, PreconditionError, ResourceBudgetError, StructureError
from localix.lattice import (
    FinLattice,
    LatticeHom,
    birkhoff_embedding,
    borel_image,
    disjointify,
    enumerate_homs,
    filterquotient,
    ideal_completion,
    join_irreducibles,
    lattice_isomorphic,
    lower_sets,
    powerset_lattice,
    product_decompose,
)
from localix.order import FinPoset, _new, canon_key, lower_sets_of, poset_isomorphic

import oracles
from conftest import glued, glued_lattices, homs_from, posets, posets_up_to, random_poset, small_lattices


def chain_poset(n):
    return FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])


def test_lattice_laws_on_small_examples(rng):
    for _ in range(10):
        a = lower_sets(random_poset(rng, 5))
        elems = list(a.elements)
        for x in elems:
            for y in elems:
                assert a.meet(x, y) == x & y in a or True
                assert (x & y) in a and (x | y) in a
        assert a.bot == frozenset() and a.top == frozenset(a.spectrum.elements)


def test_family_must_be_closed():
    p = FinPoset("ab")
    with pytest.raises(StructureError):
        FinLattice(p, [frozenset(), frozenset("a"), frozenset("b")])


def test_boolean_kind_requires_complements():
    with pytest.raises(StructureError):
        FinLattice(chain_poset(2), [frozenset(), frozenset([0]), frozenset([0, 1])], "boolean")


def test_birkhoff_round_trip_exhaustive_small():
    for p in posets_up_to(4):
        a = lower_sets(p)
        assert poset_isomorphic(join_irreducibles(a), p)
        rep, iso = birkhoff_embedding(a)
        assert iso.is_injective() and iso.is_surjective()
        assert lattice_isomorphic(a, rep)


@settings(max_examples=200)
@given(small_lattices(max_points=5))
def test_birkhoff_embedding_is_the_lower_sets_of_the_irreducibles(a):
    # the representation built from the image is the one listed afresh
    rep, iso = birkhoff_embedding(a)
    assert rep == lower_sets(join_irreducibles(a))
    assert iso.graph == {x: frozenset(j for j in rep.spectrum.elements if j <= x) for x in a.elements}


def test_join_irreducibles_of_powerset_are_atoms():
    b = powerset_lattice("abc")
    jp = join_irreducibles(b)
    assert jp.is_antichain() and len(jp) == 3


def test_lattice_from_abstract_detects_nonlattice():
    # the 2x2 "bowtie" of incomparable pairs has no meets
    items = ["a", "b"]
    with pytest.raises(StructureError):
        oracles.leq_rows_lattice(items, lambda x, y: x == y)


def test_hom_validation():
    a = lower_sets(chain_poset(2))
    b = powerset_lattice("x")
    with pytest.raises(StructureError):
        LatticeHom(a, b, {e: b.bot for e in a.elements})  # top not preserved


def test_enumerate_homs_counts():
    two = lower_sets(chain_poset(1))  # the 2-element lattice
    b3 = powerset_lattice("abc")
    # homs B_3 -> 2 are the prime filters: one per atom
    assert len(enumerate_homs(b3, two)) == 3
    # homs 2 -> any lattice: exactly one
    assert len(enumerate_homs(two, b3)) == 1


def test_enumerate_homs_are_homs(rng):
    a = lower_sets(random_poset(rng, 3))
    b = lower_sets(random_poset(rng, 3))
    for h in enumerate_homs(a, b):
        for x in a.elements:
            for y in a.elements:
                assert h(x & y) == h(x) & h(y)
                assert h(x | y) == h(x) | h(y)


def test_borel_image_adjunction():
    b2 = powerset_lattice("pq")
    b1 = powerset_lattice("u")
    h = LatticeHom(
        b1, b2, {frozenset(): frozenset(), frozenset("u"): frozenset("pq")}
    )
    for b in b2.elements:
        m = borel_image(h, b)
        for c in b1.elements:
            assert (b <= h(c)) == (m <= c)


def test_borel_image_rejects_foreign_element():
    a = lower_sets(chain_poset(2))
    b = powerset_lattice("pq")
    h = LatticeHom(
        a,
        b,
        {
            frozenset(): frozenset(),
            frozenset([0]): frozenset("p"),
            frozenset([0, 1]): frozenset("pq"),
        },
    )
    # least cover of a set not in the image still exists (meet-closed candidates)
    assert borel_image(h, frozenset("q")) == a.top
    with pytest.raises(DomainError):
        borel_image(h, frozenset("zz"))


@settings(max_examples=150)
@given(small_lattices(), st.data())
def test_adjoints_are_the_scans_and_satisfy_the_galois_laws(a, data):
    f = data.draw(homs_from(a))
    for b in f.cod.elements:
        m = f.cod._mask_of(b)
        lower = f.dom._element(lattice._lower_adjoint(f, m))
        upper = f.dom._element(lattice._upper_adjoint(f, m))
        assert lower == borel_image(f, b) == oracles.borel_image(f, b)
        assert upper == oracles.greatest_below(f, b)
        for c in f.dom.elements:
            assert (b <= f(c)) == (lower <= c)
            assert (f(c) <= b) == (c <= upper)


def test_disjointify():
    b = powerset_lattice("abc")
    cover = [frozenset("ab"), frozenset("bc"), frozenset("c")]
    parts = disjointify(b, cover)
    assert parts == [frozenset("ab"), frozenset("c"), frozenset()]
    for i, p in enumerate(parts):
        for q in parts[i + 1 :]:
            assert not (p & q)


def test_filterquotient_is_hom():
    a = powerset_lattice("abc")
    down, q = filterquotient(a, frozenset("ab"))
    assert len(down) == 4 and down.kind == "boolean"
    for x in a.elements:
        for y in a.elements:
            assert q(x | y) == q(x) | q(y) and q(x & y) == q(x) & q(y)


def test_product_decompose_round_trip():
    a = powerset_lattice("abcd")
    factors, reassemble = product_decompose(
        a, [frozenset("ab"), frozenset("cd")]
    )
    for combo in itertools.product(*[f.elements for f, _ in factors]):
        x = reassemble(combo)
        assert x in a
    with pytest.raises(PreconditionError):
        product_decompose(a, [frozenset("ab"), frozenset("bc")])


def test_ideal_completion_is_identity_at_finite_scale(rng):
    # a chain and a Boolean lattice besides the random ones: both kinds
    inputs = [lower_sets(random_poset(rng, 4)) for _ in range(5)]
    for a in inputs + [lower_sets(chain_poset(4)), powerset_lattice("abc")]:
        lat, unit = ideal_completion(a)
        assert len(lat) == len(a)
        want_lat, want_graph = oracles.ideal_completion(a)
        assert lat == want_lat
        assert unit.graph == want_graph


def test_ideal_completion_builds_only_principal_ideals(monkeypatch):
    # all down-sets of its 64-element poset would number 7,828,354
    def no_enumeration(p, budgets):
        raise AssertionError("ideal_completion enumerated down-sets")

    monkeypatch.setattr(lattice, "_lower_set_masks", no_enumeration)
    a = powerset_lattice(range(6))
    lat, unit = ideal_completion(a)
    assert len(lat) == 64 and unit.is_surjective()


def test_json_round_trip(rng):
    a = lower_sets(random_poset(rng, 4))
    assert FinLattice.from_json(a.to_json()) == a


def test_dot_has_cover_edges_only():
    a = powerset_lattice("ab")
    dot = a.to_dot()
    assert dot.count("->") == 4  # Hasse diagram of the square


def test_dot_keeps_the_covers_of_glued_points():
    # a and b are glued, so {a,b} covers {} although neither {a} nor {b}
    # is an element: a cover is not always one point more
    a = FinLattice(FinPoset("abc"), [frozenset(), frozenset("ab"), frozenset("abc")])
    dot = a.to_dot()
    assert "  n0 -> n1;\n  n1 -> n2;\n}" in dot
    assert dot == oracles.hasse_dot(a.elements, oracles.element_order(a), "lattice")


@pytest.mark.parametrize(
    "spectrum, family, kind, message",
    [
        (FinPoset("ab"), ["", "a", "ab", "c"], "distributive", "is not a subset of the spectrum"),
        (chain_poset(2), [[], [1], [0, 1]], "distributive", "not a lower set: misses 0 <= 1"),
        (FinPoset("ab"), ["a", "ab"], "distributive", "must contain the empty and full set"),
        (FinPoset("ab"), ["", "a"], "distributive", "must contain the empty and full set"),
        # closed under intersection, not under union: a | b is missing
        (FinPoset("abc"), ["", "a", "b", "abc"], "distributive", "not closed"),
        # closed under union, not under intersection: ab & bc is missing
        (FinPoset("abc"), ["", "ab", "bc", "abc"], "distributive", "not closed"),
        (chain_poset(2), [[], [0], [0, 1]], "boolean", "requires an antichain spectrum"),
        (FinPoset("ab"), ["", "a", "ab"], "boolean", "no complement for frozenset"),
    ],
)
def test_lattice_rejects_each_condition(spectrum, family, kind, message):
    with pytest.raises(StructureError, match=message):
        FinLattice(spectrum, [frozenset(e) for e in family], kind)


def _two_point_maps():
    b2 = powerset_lattice("ab")
    two = powerset_lattice("x")
    a, b, x = frozenset("a"), frozenset("b"), frozenset("x")
    joins_only = {b2.bot: two.bot, a: x, b: x, b2.top: x}
    meets_only = {b2.bot: two.bot, a: two.bot, b: two.bot, b2.top: x}
    return b2, two, joins_only, meets_only


def test_hom_rejects_map_preserving_joins_only():
    b2, two, f, _ = _two_point_maps()
    assert all(f[p | q] == f[p] | f[q] for p in b2.elements for q in b2.elements)
    with pytest.raises(StructureError, match="meet not preserved"):
        LatticeHom(b2, two, f)


def test_hom_rejects_map_preserving_meets_only():
    b2, two, _, f = _two_point_maps()
    assert all(f[p & q] == f[p] & f[q] for p in b2.elements for q in b2.elements)
    with pytest.raises(StructureError, match="join not preserved"):
        LatticeHom(b2, two, f)


# -- properties against the pairwise oracles ----------------------------------

@st.composite
def families(draw, max_points=5):
    """A poset and a family of its subsets, often but not always a lattice."""
    p = draw(posets(max_points))
    pts = list(p.elements)
    lows = lower_sets_of(p)
    keep = draw(st.lists(st.booleans(), min_size=len(lows), max_size=len(lows)))
    fam = {low for low, k in zip(lows, keep) if k}
    if pts:
        fam |= set(draw(st.lists(st.frozensets(st.sampled_from(pts)), max_size=2)))
    if draw(st.booleans()):
        grown = True
        while grown:
            new = {x & y for x in fam for y in fam} | {x | y for x in fam for y in fam}
            grown = not new <= fam
            fam |= new
    # each of these is a rare defect; 0 is the value hypothesis tries most
    if draw(st.integers(0, 19)) == 19:
        fam.add(frozenset(["out"]))
    if draw(st.integers(0, 9)) < 9:
        fam.add(frozenset())
    if draw(st.integers(0, 9)) < 9:
        fam.add(frozenset(pts))
    return p, sorted(fam, key=canon_key), draw(st.sampled_from(["distributive", "boolean"]))


def _outcome(f, *args):
    try:
        return f(*args)
    except (DomainError, StructureError) as e:
        return type(e)


@settings(max_examples=400)
@given(families())
def test_lattice_accepts_what_the_pairwise_oracle_accepts(case):
    p, fam, kind = case
    want = _outcome(oracles.lattice_elements, p, fam, kind)
    got = _outcome(FinLattice, p, fam, kind)
    if isinstance(got, FinLattice):
        assert got.elements == want == tuple(sorted(fam, key=canon_key))
        assert join_irreducibles(got) == oracles.join_irreducibles(got)
    else:
        assert got == want


@settings(max_examples=200)
@given(families())
def test_covers_meet_irreducibles_and_atoms_match_the_pairwise_oracles(case):
    # the count accepts; the old cover pass, now the oracle, re-checks closure
    got = _outcome(FinLattice, *case)
    assume(isinstance(got, FinLattice))
    assert got._covers == oracles.lattice_cover_rows(got)
    assert set(map(got._element, got._meet_irreducibles())) == oracles.meet_irreducibles(got)
    assert got.atoms() == oracles.atoms(got)


def test_least_is_read_across_chunks_of_columns():
    # a chain has more elements than one chunk, and the least element of
    # each upper point lies in a later chunk
    n = 2 * lattice._CHUNK + 5
    a = lower_sets(chain_poset(n))
    assert a._least == tuple((2 << x) - 1 for x in range(n))
    assert len(a) == n + 1 and a.atoms() == (frozenset([0]),)


def test_lower_sets_birkhoff_and_homs_build_no_cover_rows(monkeypatch):
    def no_covers(self):
        raise AssertionError("cover rows built")

    monkeypatch.setattr(FinLattice, "_cover_rows", no_covers)
    p = FinPoset("abcd", [("a", "c"), ("b", "c")])
    a, b = lower_sets(p), lower_sets(chain_poset(3))
    rep, unit = birkhoff_embedding(a)
    assert lattice_isomorphic(a, rep) and unit.is_surjective()
    assert len(enumerate_homs(a, b)) == len(oracles.enumerate_homs(a, b))
    assert a.atoms() == (frozenset("a"), frozenset("b"), frozenset("d"))
    with pytest.raises(AssertionError, match="cover rows built"):
        a.to_dot()


def _built(a: FinLattice) -> tuple:
    """Everything the constructor's core leaves behind, orders included."""
    return (
        a.spectrum, a.elements, a.kind, list(a._mask.items()), list(a._at.items()), a._least,
        a._covers, hash(a),
    )


@settings(max_examples=150)
@given(posets(), st.sampled_from(["lower sets", "glued", "powerset"]))
def test_mask_core_equals_the_public_constructor(p, shape):
    # lower_sets and powerset_lattice take the core; glued() the public path
    a = {"lower sets": lower_sets, "glued": glued, "powerset": powerset_lattice}[shape](
        p if shape != "powerset" else p.elements
    )
    public = FinLattice(a.spectrum, reversed(a.elements), a.kind)
    core = _new(FinLattice, a.spectrum, reversed(list(a._at)), a.kind)
    assert _built(core) == _built(public) == _built(a)
    assert core == public
    # the poset core, from join_irreducibles, against the public one
    jp = join_irreducibles(a)
    again = FinPoset(reversed(jp.elements), jp.leq_pairs())
    assert (jp.elements, jp._up, jp._down, jp._index, hash(jp)) == (
        again.elements, again._up, again._down, again._index, hash(again)
    )
    assert list(jp._index) == list(again._index)


@given(small_lattices(), small_lattices(), st.data())
def test_hom_accepts_what_the_pairwise_oracle_accepts(a, b, data):
    # glued spectra too, where the points and the join-irreducibles differ
    homs = enumerate_homs(a, b)
    if homs and data.draw(st.booleans()):
        graph = dict(data.draw(st.sampled_from(homs)).graph)
        if data.draw(st.booleans()):
            graph[data.draw(st.sampled_from(a.elements))] = data.draw(st.sampled_from(b.elements))
    else:
        graph = {x: data.draw(st.sampled_from(b.elements)) for x in a.elements}
        graph[a.bot], graph[a.top] = b.bot, b.top
    want = _outcome(oracles.check_hom, a, b, graph)
    got = _outcome(LatticeHom, a, b, graph)
    assert (None if isinstance(got, LatticeHom) else got) == want


def _weights(keep: list, targets: list) -> list:
    """The weights of ``lattice._moved`` that send the kept points, in
    order, to the bits ``targets`` and drop the rest."""
    moves = iter(targets)
    return [1 << next(moves) if k else 0 for k in keep]


@pytest.mark.parametrize("n", range(4))
def test_moved_matches_the_weight_sum_on_every_partial_permutation(n):
    # every subset of points kept, 0 and 1 of them included, in every order
    for keep in itertools.product((False, True), repeat=n):
        for targets in itertools.permutations(range(sum(keep))):
            weight = _weights(keep, targets)
            masks = range(1 << n)
            assert lattice._moved(masks, weight) == oracles.moved(masks, weight)


@given(st.integers(0, 20), st.data())
def test_moved_matches_the_weight_sum(n, data):
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    weight = _weights(keep, data.draw(st.permutations(range(sum(keep)))))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    assert lattice._moved(masks, weight) == oracles.moved(masks, weight)


@settings(max_examples=40)
@given(st.integers(0, 300), st.randoms(use_true_random=False))
def test_transposed_matches_the_bit_by_bit_transpose(n, rng):
    # past 128 rows the transpose is read a chunk of rows at a time
    rows = [rng.getrandbits(n) if n else 0 for _ in range(n)]
    want = [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]
    assert lattice._transposed(rows, n) == want


@st.composite
def lattices(draw, max_points=3):
    """A lattice from ``families``, or the lower sets of its poset when the
    family is rejected: spectra need not be the join-irreducibles."""
    p, fam, kind = draw(families(max_points))
    try:
        return FinLattice(p, fam, kind)
    except (DomainError, StructureError):
        return lower_sets(p)


@settings(max_examples=200)
@given(lattices(), lattices())
def test_enumerate_homs_matches_the_search(a, b):
    want = [h.graph for h in oracles.enumerate_homs(a, b)]
    assert [h.graph for h in enumerate_homs(a, b)] == want


@settings(max_examples=100)
@given(glued_lattices(max_points=3), lattices(), st.booleans())
def test_enumerate_homs_matches_the_search_on_glued_points(a, b, swap):
    if swap:
        a, b = b, a
    want = [h.graph for h in oracles.enumerate_homs(a, b)]
    assert [h.graph for h in enumerate_homs(a, b)] == want


def _irreducibles_in_order(a):
    """The elements of ``_irreducibles``, which dissolve numbers its points by."""
    return [a._element(j) for j in a._irreducibles()]


def test_irreducible_masks_list_the_join_irreducibles_in_order():
    for p in posets_up_to(5):
        for a in (lower_sets(p), glued(p)):
            want = list(oracles.join_irreducibles(a).elements)
            assert _irreducibles_in_order(a) == list(join_irreducibles(a).elements) == want


@settings(max_examples=200)
@given(st.one_of(posets(max_points=5).map(lower_sets), glued_lattices(max_points=5), lattices(5)))
def test_irreducible_masks_follow_canon_key_on_mixed_labels(a):
    assert _irreducibles_in_order(a) == list(oracles.join_irreducibles(a).elements)


@st.composite
def abstract_orders(draw):
    """Items and a partial order: a family of sets under inclusion or reverse
    inclusion, often not a lattice; the same family closed under union and
    intersection; or the regular opens of that closure, whose join is not
    union."""
    fam = set(draw(st.lists(st.frozensets(st.integers(0, 3)), min_size=1, max_size=8)))
    shape = draw(st.sampled_from(["family", "closed", "regular"]))
    if shape == "family":
        return fam, draw(st.sampled_from([frozenset.__le__, frozenset.__ge__]))
    grown = True
    while grown:
        new = {x & y for x in fam for y in fam} | {x | y for x in fam for y in fam}
        grown = not new <= fam
        fam |= new
    if shape == "closed":
        return fam, frozenset.__le__
    return regular_opens(FrameTopology(frozenset().union(*fam), fam)), frozenset.__le__


@settings(max_examples=300)
@given(abstract_orders())
def test_lattice_from_abstract_matches_the_glb_lub_oracle(case):
    items, leq = case
    want = _outcome(oracles.lattice_from_abstract, items, leq)
    got = _outcome(oracles.leq_rows_lattice, items, leq)
    if isinstance(want, tuple):
        assert isinstance(got, tuple)
        assert got[0] == want[0] and got[0].spectrum == want[0].spectrum
        assert got[1] == want[1]
    else:
        assert got == want


@settings(max_examples=200)
@given(lattices(max_points=5))
def test_dot_matches_the_cubic_cover_oracle(a):
    order = oracles.element_order(a)
    assert a.to_dot("l") == oracles.hasse_dot(a.elements, order, "l")
    assert a.element_poset().leq_pairs() == order
    covers = oracles.cover_pairs(a.elements, order)
    assert a.atoms() == tuple(y for x, y in covers if x == a.bot)


# -- frozensets on demand ------------------------------------------------------

@st.composite
def any_lattices(draw):
    """Lower sets, glued points, powersets, and families over mixed labels."""
    shape = draw(st.sampled_from(["lower sets", "glued", "powerset", "family"]))
    if shape == "family":
        return draw(lattices(4))
    p = draw(posets(4))
    return {"lower sets": lower_sets, "glued": glued, "powerset": powerset_lattice}[shape](
        p if shape != "powerset" else p.elements
    )


def _fresh(a: FinLattice) -> FinLattice:
    """A copy of ``a`` made by the mask core, with nothing built on demand yet."""
    b = _new(FinLattice, a.spectrum, a._at, a.kind)
    assert b._elements is None
    return b


@settings(max_examples=200)
@given(any_lattices())
def test_lazy_elements_and_json_match_the_eager_oracles(a):
    want = oracles.eager_elements(a)
    first = _fresh(a)
    assert first.elements == want
    assert list(first._mask.items()) == list(zip(want, a._at))
    assert all(_fresh(a)._element(m) == e for e, m in zip(want, a._at))
    text = _fresh(a).to_json()
    assert text == oracles.lattice_to_json(a)
    back, want_back = FinLattice.from_json(text), oracles.lattice_from_json(text)
    assert back == want_back and back.spectrum == want_back.spectrum
    assert back.elements == want_back.elements


@settings(max_examples=150)
@given(any_lattices())
def test_membership_encodes_and_memoizes_only_elements(a):
    b, want = _fresh(a), oracles.eager_elements(a)
    others = {e | {x} for e in want for x in a.spectrum.elements} - set(want)
    others |= {frozenset({"not a point"}), frozenset(a.spectrum.elements) | {"not a point"}}
    for _ in range(2):  # the second round answers members from the memo
        assert [b._mask_of(frozenset(e)) for e in want] == list(a._at)
        assert all(e in b for e in want) and not any(e in b for e in others)
    assert b._seen == dict(zip(want, a._at)) and b._elements is None
    assert (0,) not in b and frozenset() in b
    with pytest.raises(TypeError):
        set() in b


@settings(max_examples=150)
@given(any_lattices(), any_lattices(), st.data())
def test_hom_core_matches_the_public_constructor(a, b, data):
    homs = enumerate_homs(a, b)[:8] + [birkhoff_embedding(a)[1], LatticeHom.identity(b)]
    for h in homs:
        public = LatticeHom(h.dom, h.cod, h.graph)
        assert public._image == h._image and public.graph == h.graph
        assert oracles.hom_on_graph(h.dom, h.cod, h.graph) is None
        assert h.compose(LatticeHom.identity(h.dom)).graph == h.graph
        assert public.is_injective() == (len(set(h.graph.values())) == len(h.graph))
        assert public.is_surjective() == (set(h.graph.values()) == set(h.cod.elements))
    h = data.draw(st.sampled_from(homs))
    dom, cod = h.dom, h.cod
    image = list(h._image)
    k = data.draw(st.integers(0, len(image) - 1))
    full = (1 << len(cod.spectrum)) - 1
    image[k] = data.draw(st.one_of(st.sampled_from(list(cod._at)), st.integers(0, full)))
    graph = {e: cod.spectrum._set(v) for e, v in zip(dom.elements, image)}
    core, public, want = (
        _error(_new, LatticeHom, dom, cod, image),
        _error(LatticeHom, dom, cod, graph),
        _error(oracles.hom_on_graph, dom, cod, graph),
    )
    assert core == public == want
    if core is None:
        assert _new(LatticeHom, dom, cod, image).graph == graph


def _error(f, *args):
    """The type and text of the error ``f(*args)`` raises, or None."""
    try:
        f(*args)
    except (DomainError, StructureError) as e:
        return type(e), str(e)



def test_kernel_calls_build_no_element_frozensets(monkeypatch):
    def eager(points, masks):
        raise AssertionError("element frozensets built")

    monkeypatch.setattr(lattice, "_frozensets", eager)
    p = FinPoset(range(6), [(0, 2), (1, 2), (2, 3), (2, 4)])
    a, b = lower_sets(p), powerset_lattice("xyz")
    copy = lower_sets(p.relabel(lambda x: f"r{x}"))
    assert len(a) == 16 and repr(a) == "FinLattice(16 elements, kind=distributive)"
    assert len(join_irreducibles(a)) == 6
    rep, unit = birkhoff_embedding(a)
    assert unit.is_injective() and unit.is_surjective() and len(rep) == len(a)
    assert lattice_isomorphic(a, copy) and not lattice_isomorphic(a, b)
    homs = enumerate_homs(lower_sets(chain_poset(2)), b)
    assert len(homs) == 8 and sum(h.is_injective() for h in homs) == 6
    assert FinLattice.from_json(a.to_json()) == a and FinLattice.from_json(b.to_json()) == b
    assert FinPoset.from_json(p.to_json()) == p
    assert frozenset({0, 1, 2}) in a and frozenset({2}) not in a and "x" not in a
    assert a._element(0b111) == frozenset({0, 1, 2})
    assert unit.compose(LatticeHom.identity(a)).is_surjective()


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(kind="modular"),
        lambda d: d["elements"][2].append("zz"),
        lambda d: d["elements"][-1].append({"set": ["q"]}),
        lambda d: d["elements"].pop(1),
        lambda d: d["elements"].remove([]),
        lambda d: d.update(kind="boolean"),
        lambda d: d["elements"].append(["b"]),
        lambda d: d["elements"][1].append(["a", 0]),
    ],
)
def test_from_json_raises_what_the_frozenset_decoder_raises(edit):
    data = json.loads(lower_sets(FinPoset("abc", [("a", "b")])).to_json())
    edit(data)
    text = json.dumps(data)
    want = _error(oracles.lattice_from_json, text)
    assert want is not None and _error(FinLattice.from_json, text) == want


def test_powerset_checks_the_elements_budget_before_listing(monkeypatch):
    assert len(powerset_lattice(range(12), DEFAULT_BUDGETS)) == 4096  # exactly the limit

    def no_lattice(*args):
        raise AssertionError("the powerset was listed")

    monkeypatch.setattr(lattice, "FinPoset", no_lattice)
    monkeypatch.setattr(lattice, "_new", no_lattice)
    with pytest.raises(ResourceBudgetError, match=r"elements budget exceeded: 2\^40 > 4096"):
        powerset_lattice(range(40), DEFAULT_BUDGETS)
    with pytest.raises(ResourceBudgetError, match=r"elements budget exceeded: 2\^13 > 4096"):
        powerset_lattice(range(13), DEFAULT_BUDGETS)
