import pytest
from hypothesis import given, settings, strategies as st

from localix.budgets import DEFAULT_BUDGETS
from localix.errors import (
    DomainError,
    NotSeparableError,
    PreconditionError,
    ResourceBudgetError,
)
from localix.interp import (
    InterpolationProblem,
    bilax_separators,
    cocomma_interpolant,
    interpolate_sequent,
    maehara_interpolant,
    novikov_separate,
    pushout_separators,
)
from localix.lattice import LatticeHom, lower_sets, powerset_lattice
from localix.order import FinPoset
from localix.sequent import (
    BOT,
    Sequent,
    eval_term,
    join_t,
    meet_t,
    nvar,
    prove,
    term_vars,
    var,
)

import oracles


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


def test_problem_validation():
    with pytest.raises(DomainError):
        InterpolationProblem()


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
