import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from localix import dsl, interp, sequent
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import (
    DomainError,
    NotSeparableError,
    PreconditionError,
    ResourceBudgetError,
)
from localix.interp import (
    bilax_separators,
    cocomma_interpolant,
    interpolate_sequent,
    maehara_interpolant,
    novikov_separate,
    pushout_separators,
)
from localix.lattice import LatticeHom, enumerate_homs, lower_sets, powerset_lattice
from localix.order import FinPoset
from localix.sequent import (
    BOT,
    Derivation,
    Sequent,
    eval_term,
    join_t,
    meet_t,
    neg,
    nvar,
    prove,
    term_key,
    term_vars,
    var,
)

import oracles
from conftest import APEX_BUDGETS, BILAX_LEGS, homs_from, posets, small_lattices
from test_cli import invoke


def two():
    return lower_sets(FinPoset([0]))


def test_identity_sequent_interpolates_to_the_variable():
    s = Sequent(frozenset([var("x")]), frozenset([var("x")]))
    i, _ = interpolate_sequent(s, {"x"}, {"x"})
    assert i is var("x")


def test_interpolation_re_proves_under_the_callers_budgets():
    gens = "abcdefgh"
    s = Sequent(
        frozenset([meet_t(var(g) for g in gens)]),
        frozenset([join_t([var("a"), var("h")])]),
    )
    wide = DEFAULT_BUDGETS.bumped(sequent_gens=8)
    i, _ = interpolate_sequent(s, set(gens), {"a", "h"}, wide)
    assert i is var("a")
    with pytest.raises(ResourceBudgetError):
        interpolate_sequent(s, set(gens), {"a", "h"})


def test_shared_middle_variable():
    # p /\ q |- q \/ r with left {p,q}, right {q,r}: interpolant is q
    s = Sequent(
        frozenset([meet_t([var("p"), var("q")])]),
        frozenset([join_t([var("q"), var("r")])]),
    )
    i, _ = interpolate_sequent(s, {"p", "q"}, {"q", "r"})
    assert term_vars(i) <= {"q"}
    for bit in (0, 1):
        v = {"p": 1, "q": bit, "r": 0}
        assert eval_term(i, v) == bool(bit)


def test_disjoint_vocabulary_gives_constant():
    # p /\ !p |- r: falsum on the left yields the empty join
    s = Sequent(
        frozenset([meet_t([var("p"), nvar("p")])]), frozenset([var("r")])
    )
    i, _ = interpolate_sequent(s, {"p"}, {"r"})
    assert i is BOT


def test_underivable_sequent_rejected():
    s = Sequent(frozenset([var("p")]), frozenset([var("r")]))
    with pytest.raises(PreconditionError):
        interpolate_sequent(s, {"p"}, {"r"})


def test_unsplittable_term_rejected():
    s = Sequent(
        frozenset([meet_t([var("p"), var("r")])]), frozenset([var("p")])
    )
    with pytest.raises(PreconditionError):
        interpolate_sequent(s, {"p"}, {"r"})


def test_unsplittable_terms_are_reported_in_term_order():
    p, q, r = var("p"), var("q"), var("r")
    left = [meet_t([p, r]), meet_t([p, q, r]), meet_t([q, r])]
    s = Sequent(frozenset(left), frozenset([p]))
    first = min(map(neg, left), key=term_key)
    with pytest.raises(PreconditionError, match=re.escape(f"term {first!r} uses generators")):
        interpolate_sequent(s, {"p", "q"}, {"r"})


def test_maehara_obligations_reprove(rng):
    gens_l, shared, gens_r = ["p"], ["q"], ["r"]
    left, right = set(gens_l + shared), set(shared + gens_r)
    for _ in range(40):
        lt = [rng.choice([var, nvar])(rng.choice(gens_l + shared)) for _ in range(2)]
        rt = [rng.choice([var, nvar])(rng.choice(shared + gens_r)) for _ in range(2)]
        s = Sequent(frozenset([meet_t(lt)]), frozenset([join_t(rt)]))
        if not prove(s).derivable:
            continue
        i, d = interpolate_sequent(s, left, right)
        assert term_vars(i) <= left & right
        assert prove(Sequent(s.left, frozenset([i]))).derivable
        assert prove(Sequent(frozenset([i]), s.right)).derivable


# -- extraction on split sequents ----------------------------------------------

GENS = "abcdef"
# the oracle search re-proves the obligations; an interpolant may be
# deeper than the sequent it came from
DEEP = DEFAULT_BUDGETS.bumped(sequent_depth=64)


def _term(data, gens, depth, polar, pool=()):
    """A term of depth at most ``depth`` over ``gens``; literals on a
    generator in ``polar`` are positive, and a term of ``pool`` may
    stand for a subterm."""
    roll = data.draw(st.integers(0, 9))
    if pool and roll == 0:
        return data.draw(st.sampled_from(pool))
    if depth == 1 or roll < 4:
        g = data.draw(st.sampled_from(gens))
        return var(g) if g in polar or data.draw(st.booleans()) else nvar(g)
    mk = data.draw(st.sampled_from([meet_t, join_t]))
    return mk(_term(data, gens, depth - 1, polar, pool) for _ in range(data.draw(st.integers(2, 3))))


def _split_sequent(data, polarized: bool):
    """A depth-3 sequent over six generators with a random block split:
    the antecedent over the left block, the succedent over the right.
    Unless ``polarized``, a term over the shared generators may occur
    negated in the antecedent and as is in the succedent, so the
    one-sided sequent holds it on both sides.  With ``polarized``,
    shared generators occur only positively, so the negated antecedent
    and the succedent share no subterm."""
    left = data.draw(st.sets(st.sampled_from(GENS), min_size=1).map(sorted))
    right = data.draw(st.sets(st.sampled_from(GENS), min_size=1).map(sorted))
    shared = sorted(set(left) & set(right))
    polar = frozenset(shared) if polarized else frozenset()
    pool = ()
    if shared and not polarized:
        pool = (_term(data, shared, 2, polar),)
    lhs = [_term(data, left, 3, polar, tuple(map(neg, pool))) for _ in range(data.draw(st.integers(1, 2)))]
    rhs = [_term(data, right, 3, polar, pool) for _ in range(data.draw(st.integers(1, 2)))]
    return Sequent(frozenset(lhs), frozenset(rhs)), frozenset(left), frozenset(right)


def _subterms(t, out):
    out.add(t)
    for c in t.children:
        _subterms(c, out)
    return out


@settings(max_examples=200)
@given(st.data())
def test_every_derivable_split_sequent_interpolates(data):
    s, left, right = _split_sequent(data, polarized=False)
    if not prove(s).derivable:
        with pytest.raises(PreconditionError):
            interpolate_sequent(s, left, right)
        return
    i, _ = interpolate_sequent(s, left, right)
    assert term_vars(i) <= left & right
    assert oracles.prove(Sequent(s.left, frozenset([i])), budgets=DEEP).derivable
    assert oracles.prove(Sequent(frozenset([i]), s.right), budgets=DEEP).derivable
    # any validated derivation will do: the oracle search's, with every
    # root term in the left part when it fits there
    d = oracles.prove(s).derivation
    j = maehara_interpolant(d, left, right)
    lpart = frozenset(t for t in d.sequent if term_vars(t) <= left)
    assert term_vars(j) <= left & right
    assert oracles.prove(lpart | {j}, budgets=DEEP).derivable
    assert oracles.prove((d.sequent - lpart) | {neg(j)}, budgets=DEEP).derivable


@settings(max_examples=150)
@given(st.data())
def test_memoized_extraction_is_the_tree_walk(data):
    s, left, right = _split_sequent(data, polarized=True)
    lhs = set().union(*(_subterms(neg(t), set()) for t in s.left))
    rhs = set().union(*(_subterms(t, set()) for t in s.right))
    assert not lhs & rhs
    if not prove(s).derivable:
        return
    i, d = interpolate_sequent(s, left, right)
    blocks = {**{neg(t): "L" for t in s.left}, **{t: "R" for t in s.right}}
    assert i is oracles.maehara_tree(d, blocks)


def _no_second_pass(*args, **kwargs):
    raise AssertionError("the sequent was collected or tabulated a second time")


@settings(max_examples=100)
@given(st.data())
def test_interpolate_sequent_reads_the_pass_prove_made(data):
    s, left, right = _split_sequent(data, polarized=True)
    if not prove(s).derivable:
        return
    with pytest.MonkeyPatch.context() as mp:
        # interp imports no _collect; patched anyway, so that an import of
        # it brought back cannot start a second pass unseen
        mp.setattr(interp, "_collect", _no_second_pass, raising=False)
        mp.setattr(interp, "_tables", _no_second_pass)
        i, d = interpolate_sequent(s, left, right)
    # the polarized split pins each antecedent term left, each succedent right
    blocks = {**{neg(t): "L" for t in s.left}, **{t: "R" for t in s.right}}
    assert i is maehara_interpolant(d, left, right, blocks)


def test_term_reached_from_both_blocks_interpolates():
    # a conjunct added on one branch used to keep its block on the
    # sibling branch, where the succedent adds the same literal; the
    # interpolant \/{\/{},/\{d,e,/\{}}} is also flattened as it is built
    code, out = invoke([
        "interp", "--left", "a,c,d,e,f", "--right", "b,c,d,e",
        "{d & (!e | f) & (!c & a & e)} |- {!d & c & (!c | b), (!d | e) & (b | d) & (!b | b | d)}",
    ])
    assert code == 0, out
    assert "interpolant: /\\{d,e}\n" in out
    d, e, f, a, c, b = map(var, "defacb")
    s = Sequent(
        frozenset([meet_t([d, join_t([nvar("e"), f]), meet_t([nvar("c"), a, e])])]),
        frozenset([
            meet_t([nvar("d"), c, join_t([nvar("c"), b])]),
            meet_t([join_t([nvar("d"), e]), join_t([b, d]), join_t([nvar("b"), b, d])]),
        ]),
    )
    i, _ = interpolate_sequent(s, set("acdef"), set("bcde"))
    assert i is meet_t([d, e])
    assert oracles.prove(Sequent(s.left, frozenset([i]))).derivable
    assert oracles.prove(Sequent(frozenset([i]), s.right)).derivable


@settings(max_examples=150)
@given(st.data())
def test_printed_obligations_are_the_certified_split(data):
    s, left, right = _split_sequent(data, polarized=False)
    if not prove(s).derivable:
        return
    i, _, lpart, rpart = interp._interpolate(s, left, right, DEFAULT_BUDGETS)
    lob, rob = dsl._obligations(s, i, lpart, rpart)
    assert lob.one_sided() == lpart | {i} and rob.one_sided() == rpart | {neg(i)}
    assert oracles.prove(lob, budgets=DEEP).derivable
    assert oracles.prove(rob, budgets=DEEP).derivable


def test_interp_prints_the_split_it_certified():
    # p | !p fits only the left block, so the interpolant is the left unit
    # and both obligations are read off the left part; the record once
    # printed the false {} |- {\/{}}
    code, out = invoke(["interp", "--left", "p", "--right", "q", "{} |- {p | !p}"])
    assert code == 0, out
    assert "  interpolant: \\/{}\n" in out
    assert "  obligations: {} |- {\\/{},\\/{!p,p}}, {\\/{}} |- {}\n" in out
    # an antecedent that fits only the right block goes left of the
    # turnstile in the right part's obligation (once the false {/\{}} |- {p})
    code, out = invoke(["interp", "--left", "p", "--right", "p,q", "{q & p} |- {p}"])
    assert code == 0, out
    assert "  obligations: {} |- {/\\{}}, {/\\{},/\\{p,q}} |- {p}\n" in out


def test_interpolant_deeper_than_the_depth_budget_is_certified():
    # the interpolant's obligations were once re-proved under the
    # caller's sequent_depth budget, which this input's exceeded
    b, c, e, f, a, d = map(var, "bcefad")
    s = Sequent(
        frozenset([e, meet_t([b, join_t([c, f])])]),
        frozenset([join_t([a, meet_t([c, e]), meet_t([d, f])]), meet_t([f, meet_t([b])])]),
    )
    i, _ = interpolate_sequent(s, "bcef", "abcdef", DEFAULT_BUDGETS)
    assert term_vars(i) <= set("bcef")
    assert oracles.prove(Sequent(s.left, frozenset([i])), budgets=DEEP).derivable
    assert oracles.prove(Sequent(frozenset([i]), s.right), budgets=DEEP).derivable


def test_maehara_keeps_pinned_blocks():
    p, q = var("p"), var("q")
    d = prove(Sequent(frozenset([p]), frozenset([join_t([p, q])]))).derivation
    # |- !p, \/{p,q}: with the join pinned right the interpolant is p,
    # with both terms left it is the left unit
    assert maehara_interpolant(d, {"p", "q"}, {"p", "q"}, {join_t([p, q]): "R"}) is p
    assert maehara_interpolant(d, {"p", "q"}, {"p", "q"}) is BOT
    with pytest.raises(PreconditionError, match="does not fit its assigned block"):
        maehara_interpolant(d, {"p", "q"}, {"p"}, {join_t([p, q]): "R"})


def test_maehara_checks_the_generator_budget_before_any_table(monkeypatch):
    gens = "abcdefgh"
    s = Sequent(frozenset([meet_t(var(g) for g in gens)]), frozenset([var("a")]))
    d = prove(s, budgets=DEFAULT_BUDGETS.bumped(sequent_gens=8)).derivation

    def fail(*a, **k):
        raise AssertionError("work began before the budget check")

    monkeypatch.setattr(interp, "_tables", fail)
    monkeypatch.setattr(sequent, "_tables", fail)
    monkeypatch.setattr(Derivation, "validate", fail)
    with pytest.raises(ResourceBudgetError):
        maehara_interpolant(d, set(gens), {"a"})


# -- algebraic separators -----------------------------------------------------


def unit_hom(b):
    t = two()
    return LatticeHom(t, b, {t.bot: b.bot, t.top: b.top})


def test_pushout_separators_spectral_witness():
    t = two()
    b = powerset_lattice("pq")
    f = unit_hom(b)
    seps = pushout_separators(t, [f, f], [frozenset("p"), frozenset("q")], t.top)
    m = t.top
    for x, h, bx in zip(seps, [f, f], [frozenset("p"), frozenset("q")]):
        m &= x
        assert bx <= h(x)
    assert m <= t.top


def test_pushout_separators_hypothesis_checked():
    b = powerset_lattice("p")
    f = LatticeHom.identity(b)
    with pytest.raises(PreconditionError):
        # p /\ p = p is not below bot in the pushout
        pushout_separators(b, [f, f], [frozenset("p"), frozenset("p")], b.bot)


def test_pushout_separators_random_instances(rng):
    a = powerset_lattice("uv")
    b = powerset_lattice("pq")
    graph = {
        a.bot: b.bot,
        frozenset("u"): frozenset("p"),
        frozenset("v"): frozenset("q"),
        a.top: b.top,
    }
    f = LatticeHom(a, b, graph)
    for _ in range(40):
        bs = [frozenset(x for x in "pq" if rng.random() < 0.5) for _ in range(2)]
        target = frozenset(x for x in "uv" if rng.random() < 0.6)
        try:
            seps = pushout_separators(a, [f, f], bs, target)
        except PreconditionError:
            continue
        m = a.top
        for x in seps:
            m &= x
        assert m <= target
        for bx, x in zip(bs, seps):
            assert bx <= f(x)


@settings(max_examples=150)
@given(st.data())
def test_spectral_witness_separates_whenever_a_separator_exists(data):
    src = [f"p{i}" for i in range(data.draw(st.integers(1, 3)))]
    a = powerset_lattice(src)
    homs, bs = [], []
    for i in range(data.draw(st.integers(1, 2))):
        cod = [f"q{i}{k}" for k in range(data.draw(st.integers(1, 3)))]
        b = powerset_lattice(cod)
        sigma = {q: data.draw(st.sampled_from(src)) for q in cod}
        homs.append(LatticeHom(a, b, {s: frozenset(q for q in cod if sigma[q] in s) for s in a.elements}))
        bs.append(data.draw(st.sampled_from(b.elements)))
    target = data.draw(st.sampled_from(a.elements))
    found = oracles.pushout_separators(a, homs, bs, target)
    if found is None:
        with pytest.raises(PreconditionError):
            pushout_separators(a, homs, bs, target)
        return
    seps = pushout_separators(a, homs, bs, target)
    assert a.meet_of(seps) <= target
    assert all(b <= h(x) for h, b, x in zip(homs, bs, seps))
    assert seps == [oracles.borel_image(h, b) for h, b in zip(homs, bs)]


def test_pushout_separators_reject_a_foreign_element():
    t, b = two(), powerset_lattice("pq")
    with pytest.raises(DomainError, match="is not in its stated lattice"):
        pushout_separators(t, [unit_hom(b)], [frozenset({"zz"})], t.top)


def test_pushout_separators_require_boolean():
    a = lower_sets(FinPoset(range(2), [(0, 1)]))
    h = LatticeHom.identity(a)
    with pytest.raises(DomainError):
        pushout_separators(a, [h], [a.top], a.top)


def test_cocomma_interpolant_identity_case():
    t = two()
    h = LatticeHom.identity(t)
    x = cocomma_interpolant(h, h, t.top, t.bot, t.top, t.top)
    assert t.bot <= x  # any element works; clauses re-checked below
    assert t.top <= h(x) | t.bot
    assert t.top & h(x) <= t.top


def test_cocomma_interpolant_hypothesis_checked():
    t = two()
    h = LatticeHom.identity(t)
    with pytest.raises(PreconditionError):
        cocomma_interpolant(h, h, t.top, t.bot, t.top, t.bot)


def test_cocomma_interpolant_clauses(rng):
    a = lower_sets(FinPoset(range(2), [(0, 1)]))
    h = LatticeHom.identity(a)
    elems = list(a.elements)
    for _ in range(30):
        b, b2, c, c2 = (rng.choice(elems) for _ in range(4))
        try:
            x = cocomma_interpolant(h, h, b, b2, c, c2)
        except PreconditionError:
            assert not (b & c <= b2 | c2)
            continue
        assert b <= h(x) | b2
        assert c & h(x) <= c2


@settings(max_examples=150)
@given(posets(max_points=3), posets(max_points=3), posets(max_points=3), st.data())
def test_cocomma_closed_form_is_the_scan(p, q, r, data):
    a, b, c = lower_sets(p), lower_sets(q), lower_sets(r)
    fs, gs = enumerate_homs(a, b), enumerate_homs(a, c)
    assume(fs and gs)
    f, g = data.draw(st.sampled_from(fs)), data.draw(st.sampled_from(gs))
    bx, b2 = (data.draw(st.sampled_from(b.elements)) for _ in range(2))
    cx, c2 = (data.draw(st.sampled_from(c.elements)) for _ in range(2))
    found = oracles.cocomma_interpolant(f, g, bx, b2, cx, c2)
    if found is None:
        with pytest.raises(PreconditionError):
            cocomma_interpolant(f, g, bx, b2, cx, c2)
    else:
        assert cocomma_interpolant(f, g, bx, b2, cx, c2) == found == oracles.cocomma_least(f, bx, b2)


def test_bilax_separators_clauses():
    t = two()
    h = LatticeHom.identity(t)
    als, ars = bilax_separators([h], [h], [t.bot], [t.top])
    assert als[0] <= ars[0]
    assert t.bot <= h(als[0])
    assert h(ars[0]) <= t.top


def test_bilax_separators_hypothesis_checked():
    t = two()
    h = LatticeHom.identity(t)
    with pytest.raises(PreconditionError):
        bilax_separators([h], [h], [t.top], [t.bot])


@settings(max_examples=100)
@given(small_lattices(), BILAX_LEGS, st.data())
def test_bilax_separators_are_the_extremal_scans(a, legs, data):
    nf, ng = legs
    fs = [data.draw(homs_from(a)) for _ in range(nf)]
    gs = [data.draw(homs_from(a)) for _ in range(ng)]
    bs = [data.draw(st.sampled_from(f.cod.elements)) for f in fs]
    cs = [data.draw(st.sampled_from(g.cod.elements)) for g in gs]
    als, ars = oracles.bilax_separators(fs, gs, bs, cs)
    # separators exist exactly when the extremal ones separate
    if not a.meet_of(als) <= a.join_of(ars):
        with pytest.raises(PreconditionError):
            bilax_separators(fs, gs, bs, cs, APEX_BUDGETS)
    else:
        assert bilax_separators(fs, gs, bs, cs, APEX_BUDGETS) == (als, ars)


def test_novikov_separation():
    space = frozenset("xyz")
    m1 = ({"a": "x", "b": "y"}, frozenset("ab"))
    m2 = ({"c": "z"}, frozenset("c"))
    seps = novikov_separate([m1, m2], space)
    assert seps == [frozenset("xy"), frozenset("z")]
    common = space
    for s in seps:
        common &= s
    assert not common


def test_novikov_witness_on_overlap():
    space = frozenset("xy")
    m1 = ({"a": "x"}, frozenset("a"))
    m2 = ({"b": "x", "c": "y"}, frozenset("bc"))
    with pytest.raises(NotSeparableError) as ei:
        novikov_separate([m1, m2], space)
    x, pre = ei.value.witness
    assert x == "x" and pre == ("a", "b")


def test_novikov_validation():
    with pytest.raises(DomainError):
        novikov_separate([], frozenset("x"))
    with pytest.raises(DomainError):
        novikov_separate([({"a": "z"}, frozenset("a"))], frozenset("x"))
