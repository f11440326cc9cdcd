import itertools

import pytest
from hypothesis import given, settings, strategies as st

from localix import lattice, presented
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import (
    DomainError,
    LocalixError,
    PreconditionError,
    ResourceBudgetError,
    StructureError,
)
from localix.lattice import (
    LatticeHom,
    borel_image,
    enumerate_homs,
    lattice_isomorphic,
    lower_sets,
    powerset_lattice,
)
from localix.order import FinPoset, canon_key
from localix.presented import (
    Presentation,
    TOP,
    bilax_pushout,
    check_assignment,
    cocomma_dl,
    coproduct_dl,
    direct_image,
    extend_hom,
    join,
    meet,
    neg,
    preimage_hom,
    presentation_of_lattice,
    pushout_ba,
    pushout_points,
    realize,
    spec,
    var,
)

import oracles
from conftest import APEX_BUDGETS, BILAX_LEGS, homs_from, posets, random_poset, small_lattices

BOT = ("bot",)


def two():
    return lower_sets(FinPoset([0]))


def test_free_distributive_sizes():
    one, _ = realize(Presentation(("x",), ()))
    assert len(one) == 3
    free2, _ = realize(Presentation(("x", "y"), ()))
    assert len(free2) == 6


def test_free_boolean_sizes():
    b1, _ = realize(Presentation(("x",), (), "boolean"))
    assert len(b1) == 4
    b2, _ = realize(Presentation(("x", "y"), (), "boolean"))
    assert len(b2) == 16


def test_spec_respects_relations():
    p = Presentation(("a", "b"), ((meet(var("a"), var("b")), BOT),))
    model = spec(p)
    assert len(model.points) == 3  # 00, 01, 10
    lat, gen_img = realize(p)
    assert gen_img["a"] & gen_img["b"] == lat.bot


def test_universal_property_on_random_triples(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        gens = tuple(f"g{i}" for i in range(n))
        rels = []
        if rng.random() < 0.5 and n >= 2:
            rels.append((var(gens[0]), var(gens[1])))
        p = Presentation(gens, tuple(rels))
        realized = realize(p)
        target = lower_sets(random_poset(rng, 3))
        assign = {g: rng.choice(list(target.elements)) for g in gens}
        if not check_assignment(p, assign, target):
            with pytest.raises(PreconditionError):
                extend_hom(p, realized, assign, target)
            continue
        h = extend_hom(p, realized, assign, target)
        lat, gen_img = realized
        for g in gens:
            assert h(gen_img[g]) == assign[g]
        # uniqueness: any hom agreeing on the generators is h
        for h2 in enumerate_homs(lat, target):
            if all(h2(gen_img[g]) == assign[g] for g in gens):
                assert all(h2(x) == h(x) for x in lat.elements)


def test_presentation_of_lattice_round_trip(rng):
    for _ in range(5):
        a = lower_sets(random_poset(rng, 4))
        p, irr_of_gen = presentation_of_lattice(a, "g")
        lat, _ = realize(p)
        assert lattice_isomorphic(lat, a)


def test_coproduct_injections_jointly_generate():
    a = lower_sets(FinPoset(range(2), [(0, 1)]))  # 3-chain
    d, inl, inr = coproduct_dl(a, a)
    gens = {inl(x) for x in a.elements} | {inr(x) for x in a.elements}
    family = set(gens)
    changed = True
    while changed:
        changed = False
        for x in list(family):
            for y in list(family):
                for z in (x & y, x | y):
                    if z not in family:
                        family.add(z)
                        changed = True
    assert family == set(d.elements)


def test_pushout_of_booleans_is_spectra_pullback():
    b = powerset_lattice("pq")
    t = two()
    f = LatticeHom(t, b, {t.bot: b.bot, t.top: b.top})
    d, inl, inr = pushout_ba(f, f)
    assert len(d) == 2 ** 4  # 2x2 atom pairs
    pts, i1, i2 = pushout_points(f, f)
    assert len(pts) == 4


@settings(max_examples=150)
@given(st.integers(1, 3), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_spectra_pullback_matches_the_trace_scans(n, sizes, data):
    a = powerset_lattice(range(n))
    homs = [
        data.draw(st.sampled_from(enumerate_homs(a, powerset_lattice([f"q{i}{k}" for k in range(m)]))))
        for i, m in enumerate(sizes)
    ]
    want = sorted(oracles.pushout_tuples(homs), key=canon_key)
    assert sorted(presented._pullback(homs), key=canon_key) == want
    f, g = homs[0], homs[-1]
    assert pushout_points(f, g)[0] == oracles.pushout_points(f, g)


def test_pushout_points_build_no_cover_rows_and_no_element_tuple(monkeypatch):
    a = powerset_lattice(range(2))
    f, g = (enumerate_homs(a, powerset_lattice([f"q{i}{k}" for k in range(3)]))[-1] for i in (0, 1))
    want = oracles.pushout_points(f, g)

    def built(*args):
        raise AssertionError("cover rows or element tuple built")

    for lat in (a, f.cod, g.cod):
        object.__setattr__(lat, "_elements", None)
    monkeypatch.setattr(lattice.FinLattice, "_cover_rows", built)
    monkeypatch.setattr(lattice, "_frozensets", built)
    assert pushout_points(f, g)[0] == want


def test_pushout_checks_the_elements_budget_before_its_powerset():
    b = powerset_lattice("pq")
    t = two()
    f = LatticeHom(t, b, {t.bot: b.bot, t.top: b.top})
    with pytest.raises(ResourceBudgetError, match=r"elements budget exceeded: 2\^4 > 8"):
        pushout_ba(f, f, DEFAULT_BUDGETS.bumped(elements=8))


def test_spec_checks_its_point_limit_before_listing(monkeypatch):
    p = Presentation(("a", "b", "c"), ((var("a"), var("b")),))  # a <= b: 6 points
    monkeypatch.setattr(presented, "_SPEC_POINTS", 6)
    assert len(spec(p).points) == 6
    monkeypatch.setattr(presented, "_SPEC_POINTS", 5)
    assert len(spec(p, DEFAULT_BUDGETS.bumped(unsafe=True)).points) == 6

    def no_points(*args, **kwargs):
        raise AssertionError("the points were listed")

    monkeypatch.setattr(presented.itertools, "product", no_points)
    with pytest.raises(ResourceBudgetError, match="spec points exceeded: 6 > 5"):
        spec(p)


def test_pushout_requires_boolean():
    a = lower_sets(FinPoset(range(2), [(0, 1)]))
    h = LatticeHom.identity(a)
    with pytest.raises(PreconditionError):
        pushout_ba(h, h)


def test_cocomma_of_identities_on_two_is_two():
    t = two()
    h = LatticeHom.identity(t)
    d, inl, inr = cocomma_dl(h, h)
    assert len(d) == 2
    assert inl(t.top) == d.top and inr(t.bot) == d.bot


def test_cocomma_lax_square(rng):
    a = lower_sets(random_poset(rng, 2))
    b = lower_sets(random_poset(rng, 3))
    for f in enumerate_homs(a, b)[:3]:
        d, inl, inr = cocomma_dl(f, f)
        for x in a.elements:
            # lax direction: inl f(x) <= inr f(x)
            assert inl(f(x)) <= inr(f(x))


def test_bilax_pushout_clauses():
    t = two()
    h = LatticeHom.identity(t)
    apex, center, inls, outs = bilax_pushout([h], [h])
    for x in t.elements:
        assert inls[0](x) <= center(x) <= outs[0](x)


def _lands_on_generators(hom, gen_img: dict, irr: dict) -> bool:
    return all(hom(j) == gen_img[g] for g, j in irr.items())


@settings(max_examples=100)
@given(small_lattices(), st.data())
def test_cocomma_relations_at_the_irreducibles_present_the_same_lattice(a, data):
    f, g = data.draw(homs_from(a)), data.draw(homs_from(a))
    d, inl, inr = cocomma_dl(f, g)
    pres, irr_b, irr_c = oracles.cocomma_presentation(f, g)
    lat, gen_img = realize(pres)
    assert d == lat
    assert _lands_on_generators(inl, gen_img, irr_b) and _lands_on_generators(inr, gen_img, irr_c)


@settings(max_examples=60)
@given(small_lattices(), BILAX_LEGS, st.data())
def test_bilax_relations_at_the_irreducibles_present_the_same_lattice(a, legs, data):
    fs = [data.draw(homs_from(a)) for _ in range(legs[0])]
    gs = [data.draw(homs_from(a)) for _ in range(legs[1])]
    apex, center, inls, outs = bilax_pushout(fs, gs, APEX_BUDGETS)
    pres, irr_a, irrs = oracles.bilax_presentation(fs, gs)
    lat, gen_img = realize(pres, APEX_BUDGETS)
    assert apex == lat
    assert _lands_on_generators(center, gen_img, irr_a)
    assert all(_lands_on_generators(h, gen_img, irr) for h, irr in zip(inls + outs, irrs))


def test_strong_amalgamation_on_injective_instances(rng):
    t = two()
    b = powerset_lattice("pq")
    f = LatticeHom(t, b, {t.bot: b.bot, t.top: b.top})
    d, inl, inr = pushout_ba(f, f)
    assert inl.is_injective() and inr.is_injective()
    # element-level pullback: inl(x) <= inr(y) forces x <= f(a) <= ... via shared domain
    for x in b.elements:
        for y in b.elements:
            if inl(x) <= inr(y):
                mids = [a for a in t.elements if x <= f(a) and f(a) <= y]
                assert mids, (x, y)


def test_beck_chevalley_on_pullback_squares(rng):
    for _ in range(30):
        nx, ny, nz = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{i}" for i in range(ny)]
        zs = [f"z{i}" for i in range(nz)]
        f = {x: rng.choice(zs) for x in xs}
        g = {y: rng.choice(zs) for y in ys}
        pb = [(x, y) for x in xs for y in ys if f[x] == g[y]]
        p = {xy: xy[0] for xy in pb}  # projection to X
        q = {xy: xy[1] for xy in pb}  # projection to Y
        hf = preimage_hom(f, xs, zs)
        hq = preimage_hom(q, pb, ys)
        for bits in itertools.product((0, 1), repeat=nx):
            bset = frozenset(x for x, bit in zip(xs, bits) if bit)
            lhs = frozenset(y for y in ys if g[y] in borel_image(hf, bset))
            rhs = borel_image(hq, frozenset(t for t in pb if p[t] in bset))
            assert lhs == rhs


def test_direct_image_matches_borel_image(rng):
    xs, zs = ["a", "b", "c"], ["u", "v"]
    f = {x: rng.choice(zs) for x in xs}
    h = preimage_hom(f, xs, zs)
    for bits in itertools.product((0, 1), repeat=3):
        b = frozenset(x for x, bit in zip(xs, bits) if bit)
        assert borel_image(h, b) == direct_image(f, b)


def test_presentation_validation():
    with pytest.raises(DomainError):
        Presentation(("x", "x"), ())
    with pytest.raises(DomainError):
        Presentation(("x",), ((var("y"), BOT),))
    with pytest.raises(StructureError):
        Presentation(("x",), ((("not", var("x")), BOT),))  # negation needs boolean


def test_presentation_json_round_trip():
    p = Presentation(("a", "b"), ((meet(var("a"), var("b")), BOT),), "boolean")
    assert Presentation.from_json(p.to_json()) == p


@pytest.mark.parametrize("kind", ["distributive", "boolean"])
def test_realize_stops_at_the_elements_budget(monkeypatch, kind):
    # five free generators present 7581 (distributive) or 2**32 (boolean)
    # elements; twelve have 4096 spectrum points, whose poset would hold
    # 16M pairs.  The budget of 4096 must stop the enumeration while it
    # grows, before the spectrum poset is built.
    def no_poset(*args):
        raise AssertionError("the spectrum poset was built")

    monkeypatch.setattr(presented, "FinPoset", no_poset)
    for n in (5, 12):
        with pytest.raises(ResourceBudgetError):
            realize(Presentation(tuple(f"g{i}" for i in range(n)), (), kind))


# -- properties against the generation closures -------------------------------


@st.composite
def presentations(draw, max_gens=4):
    """Random relations over nested terms with top, bottom and, in Boolean
    presentations, complements.  There may be no generators, the last
    generators may occur in no relation, and relations may repeat."""
    gens = tuple(f"g{i}" for i in range(draw(st.integers(0, max_gens))))
    kind = draw(st.sampled_from(["distributive", "boolean"]))
    used = gens[: draw(st.integers(0, len(gens)))]
    leaves = st.sampled_from([var(g) for g in used] + [TOP, BOT])

    def extend(terms):
        ops = [st.lists(terms, max_size=3).map(lambda ts: meet(*ts)),
               st.lists(terms, max_size=3).map(lambda ts: join(*ts))]
        if kind == "boolean":
            ops.append(terms.map(neg))
        return st.one_of(ops)

    terms = st.recursive(leaves, extend, max_leaves=5)
    rels = draw(st.lists(st.tuples(terms, terms), max_size=3))
    if rels:
        rels += draw(st.lists(st.sampled_from(rels), max_size=2))
    return Presentation(gens, tuple(rels), kind)


def _outcome(f, *args):
    try:
        return f(*args)
    except (DomainError, PreconditionError, ResourceBudgetError, StructureError) as e:
        return type(e)


@settings(max_examples=300)
@given(presentations(max_gens=6))
def test_spec_matches_the_valuation_walk(p):
    assert spec(p).points == oracles.spec(p)


@settings(max_examples=150)
@given(presentations())
def test_realize_matches_the_generation_closure(p):
    got, want = _outcome(realize, p), _outcome(oracles.realize, p)
    if isinstance(want, tuple):
        assert got == want and got[0].elements == want[0].elements
    else:
        assert got == want


@settings(max_examples=150)
@given(presentations(max_gens=3), posets(max_points=3), st.data())
def test_extend_hom_matches_the_generation_closure(p, q, data):
    target = powerset_lattice(q.elements) if data.draw(st.booleans()) else lower_sets(q)
    realized = realize(p)
    assign = {g: data.draw(st.sampled_from(target.elements)) for g in p.gens}
    got = _outcome(extend_hom, p, realized, assign, target)
    want = _outcome(oracles.extend_hom, p, realized, assign, target)
    if isinstance(want, LatticeHom):
        assert got.graph == want.graph
    else:
        assert got == want


# -- the one term reader and the point-mask evaluator -------------------------

_RAW_LEAVES = st.one_of(
    st.sampled_from(["g0", "g1", "h"]).map(var), st.sampled_from([TOP, BOT]), st.just(("xor",))
)
raw_terms = st.recursive(
    _RAW_LEAVES,
    lambda ts: st.one_of(
        st.lists(ts, max_size=3).map(lambda xs: meet(*xs)),
        st.lists(ts, max_size=3).map(lambda xs: join(*xs)),
        ts.map(neg),
        st.lists(ts, max_size=2).map(lambda xs: ("xor", *xs)),
    ),
    max_leaves=8,
)


def _raised(f, *args):
    try:
        return f(*args)
    except (DomainError, StructureError) as e:
        return type(e), str(e)


@settings(max_examples=300)
@given(raw_terms, st.sampled_from([None, frozenset({"g0", "g1"})]), st.booleans())
def test_term_is_the_old_checker_then_the_old_converter(t, gens, boolean):
    # without gens any generator is known; h is unknown to the frozenset
    known = frozenset({"g0", "g1", "h"}) if gens is None else gens
    want = _raised(oracles._check_term, t, known, boolean)
    if want is None:
        want = oracles._to_sequent_term(t)
    assert _raised(presented._term, t, gens, boolean) == want


@settings(max_examples=300)
@given(presentations(max_gens=3), posets(max_points=3), st.data())
def test_check_assignment_is_the_lattice_evaluation(p, q, data):
    target = powerset_lattice(q.elements) if data.draw(st.booleans()) else lower_sets(q)
    assign = {g: data.draw(st.sampled_from(target.elements)) for g in p.gens}
    got = check_assignment(p, assign, target)
    want = _outcome(oracles.check_assignment, p, assign, target)
    if want is StructureError:
        # a complement the target lacks: the powerset of its points decides
        # the relations, and no hom into the target extends the assignment
        assert p.kind == "boolean" and target.kind == "distributive"
        with pytest.raises(LocalixError):
            extend_hom(p, realize(p), assign, target)
    else:
        assert got is want


def test_a_boolean_presentation_into_a_distributive_target_uses_the_points():
    # the middle of the 3-chain has no complement, so the lattice
    # evaluation stops; in the powerset of the points a | !a is all of
    # them, and still no hom into the chain sends the free atom to it
    chain = lower_sets(FinPoset(range(2), [(0, 1)]))
    p = Presentation(("a",), ((TOP, join(var("a"), neg(var("a")))),), "boolean")
    assign = {"a": frozenset({0})}
    with pytest.raises(StructureError, match="no complement"):
        oracles.check_assignment(p, assign, chain)
    assert check_assignment(p, assign, chain)
    with pytest.raises(StructureError, match="not preserved"):
        extend_hom(p, realize(p), assign, chain)
