import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from localix.budgets import DEFAULT_BUDGETS
from localix.errors import DomainError, ResourceBudgetError, StructureError
from localix.sequent import (
    BOT,
    TOP,
    Derivation,
    Sequent,
    Term,
    cut_check,
    eval_term,
    join_t,
    meet_t,
    neg,
    nvar,
    prove,
    term_key,
    term_leq,
    term_to_str,
    term_vars,
    var,
)


def random_term(rng, gens, depth):
    if depth == 0 or rng.random() < 0.35:
        g = rng.choice(gens)
        return var(g) if rng.random() < 0.5 else nvar(g)
    kids = [random_term(rng, gens, depth - 1) for _ in range(rng.randint(0, 3))]
    return meet_t(kids) if rng.random() < 0.5 else join_t(kids)


def truth_table_valid(seq, gens):
    for bits in itertools.product((0, 1), repeat=len(gens)):
        v = dict(zip(gens, bits))
        if all(eval_term(t, v) for t in seq.left) and not any(
            eval_term(t, v) for t in seq.right
        ):
            return False
    return True


def test_interning_gives_identity():
    assert var("x") is var("x")
    assert meet_t([var("x"), var("y")]) is meet_t([var("y"), var("x")])
    assert TOP is meet_t([])


def test_neg_is_involutive(rng):
    for _ in range(50):
        t = random_term(rng, ["a", "b"], 3)
        assert neg(neg(t)) is t


def test_eval_and_rendering():
    t = join_t([meet_t([var("a"), nvar("b")]), var("c")])
    assert eval_term(t, {"a": 1, "b": 0, "c": 0})
    assert not eval_term(t, {"a": 0, "b": 0, "c": 0})
    assert term_to_str(t) == "\\/{c,/\\{!b,a}}"
    assert term_vars(t) == {"a", "b", "c"}
    with pytest.raises(DomainError):
        eval_term(var("z"), {})


def test_axioms_and_constants():
    assert prove(Sequent(frozenset([var("x")]), frozenset([var("x")]))).derivable
    assert prove(frozenset([TOP])).derivable  # empty meet is provable outright
    assert not prove(frozenset([BOT])).derivable
    assert prove(Sequent(frozenset([BOT]), frozenset())).derivable


def test_distributivity_is_derivable():
    # /\{a, \/B} |- \/{ /\{a,b} : b in B } for small B
    for k in range(4):
        bs = [var(f"b{i}") for i in range(k)]
        lhs = meet_t([var("a"), join_t(bs)])
        rhs = join_t([meet_t([var("a"), b]) for b in bs])
        assert prove(Sequent(frozenset([lhs]), frozenset([rhs]))).derivable


def test_weakening_preserved():
    s = Sequent(frozenset([var("x")]), frozenset([var("x"), var("y")]))
    assert prove(s).derivable


def test_provability_matches_truth_tables(rng):
    gens = ["a", "b", "c"]
    for _ in range(300):
        left = frozenset(random_term(rng, gens, 2) for _ in range(rng.randint(0, 2)))
        right = frozenset(random_term(rng, gens, 2) for _ in range(rng.randint(0, 2)))
        s = Sequent(left, right)
        res = prove(s)
        assert res.derivable == truth_table_valid(s, gens), str(s)
        if res.derivable:
            res.derivation.validate()
        else:
            v = res.countermodel
            assert all(eval_term(t, v) for t in left)
            assert not any(eval_term(t, v) for t in right)


def test_finitary_equals_infinitary(rng):
    gens = ["a", "b"]
    for _ in range(100):
        s = frozenset(random_term(rng, gens, 2) for _ in range(rng.randint(1, 3)))
        assert prove(s, "finitary").derivable == prove(s, "infinitary").derivable


def test_infinitary_derivation_validates():
    s = frozenset([join_t([var("a"), nvar("a")])])
    res = prove(s, "infinitary")
    assert res.derivable and res.derivation.rule == "joinR-inf"
    res.derivation.validate()


def test_cut_adds_nothing(rng):
    gens = ["a", "b"]
    for _ in range(100):
        a = frozenset(random_term(rng, gens, 2) for _ in range(rng.randint(0, 2)))
        t = random_term(rng, gens, 2)
        assert cut_check(a, t)


def test_term_leq_preorder():
    a, b = var("a"), var("b")
    assert term_leq(meet_t([a, b]), a)
    assert term_leq(a, join_t([a, b]))
    assert not term_leq(a, b)
    assert term_leq(BOT, a) and term_leq(a, TOP)


def test_derivation_validation_rejects_bad_trees():
    a = frozenset([var("x")])
    with pytest.raises(StructureError):
        Derivation(a, "axiom", None, ()).validate()  # no complementary pair
    good = frozenset([var("x"), nvar("x")])
    leaf = Derivation(good, "axiom", None, ())
    with pytest.raises(StructureError):
        Derivation(good, "meetR", var("x"), (leaf,)).validate()  # not a meet
    with pytest.raises(StructureError):
        Derivation(good, "nonsense", var("x"), ()).validate()


def test_budgets_enforced():
    wide = frozenset(var(f"g{i}") for i in range(20))
    with pytest.raises(ResourceBudgetError):
        prove(wide, budgets=DEFAULT_BUDGETS)
    deep = var("x")
    for _ in range(20):
        deep = meet_t([deep])
    with pytest.raises(ResourceBudgetError):
        prove(frozenset([deep]))
    # the deepest term is reported, whatever the set order
    with pytest.raises(ResourceBudgetError, match="sequent_depth budget exceeded: 22 > 5"):
        prove(frozenset([meet_t([deep]), join_t([var("y")]), deep]))
    with pytest.raises(DomainError):
        prove(frozenset([var("x")]), calculus="classical")


def test_sequent_rejects_non_terms():
    with pytest.raises(DomainError):
        Sequent(frozenset(["x"]), frozenset())


# -- properties against the reference implementations in ``oracles`` ---------

MIXED_GENS = ["a", "b", "c", 0, 1, 2]
GENS = st.sampled_from(MIXED_GENS)


def terms(depth: int):
    leaf = st.one_of(st.builds(var, GENS), st.builds(nvar, GENS), st.sampled_from([TOP, BOT]))
    if depth == 1:
        return leaf
    kids = st.lists(terms(depth - 1), max_size=3)
    return st.one_of(leaf, st.builds(meet_t, kids), st.builds(join_t, kids))


def literals(t) -> int:
    return 1 if t.kind in ("pos", "neg") else sum(map(literals, t.children))


sides = st.frozensets(terms(3), max_size=2)


def bench_like_term(rng, depth):
    """A term of depth at most ``depth``; compound nodes have 2-3 children.

    Unlike ``random_term``'s 0-3 children, this reaches sequents of 8-12
    literals often enough for the refutation and replay paths to matter.
    """
    if depth == 1 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.05:
            return rng.choice([TOP, BOT])
        return (nvar if r < 0.3 else var)(rng.choice(MIXED_GENS))
    kids = [bench_like_term(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return (meet_t if rng.random() < 0.5 else join_t)(kids)


@st.composite
def sequents(draw, max_literals=12):
    """Random depth-3 sequents; the literal cap keeps the reference search fast."""
    rng = draw(st.randoms(use_true_random=False))
    while True:
        s = Sequent(
            frozenset(bench_like_term(rng, 3) for _ in range(rng.randint(1, 2))),
            frozenset(bench_like_term(rng, 3) for _ in range(rng.randint(1, 2))),
        )
        if sum(map(literals, s.left | s.right)) <= max_literals:
            return s


def rendered(t) -> str:
    if t.kind == "pos":
        return str(t.gen)
    if t.kind == "neg":
        return f"!{t.gen}"
    body = ",".join(rendered(c) for c in sorted(t.children, key=oracles.term_key))
    return ("/\\{" if t.kind == "meet" else "\\/{") + body + "}"


@given(terms(4))
def test_cached_key_is_the_recursive_key(t):
    assert term_key(t) == oracles.term_key(t)
    assert term_to_str(t) == rendered(t)


@given(sides, sides)
def test_sequent_rendering_orders_by_the_key(left, right):
    def side(ts):
        return "{" + ",".join(rendered(t) for t in sorted(ts, key=oracles.term_key)) + "}"

    assert str(Sequent(left, right)) == f"{side(left)} |- {side(right)}"


@settings(max_examples=300)
@given(sequents())
def test_prove_matches_the_reference_search(s):
    for calculus in ("finitary", "infinitary"):
        assert prove(s, calculus) == oracles.prove(s, calculus)


def test_large_refutation_is_decided_without_search():
    a, b, c, d, e, f = map(var, "abcdef")
    s = Sequent(
        frozenset([
            join_t([nvar("b"), join_t([nvar("e"), c, f])]),
            meet_t([meet_t([a, c]), meet_t([b, e]), meet_t([a, b, e])]),
        ]),
        frozenset([
            join_t([meet_t([c, f]), meet_t([d, e])]),
            join_t([join_t([d, f]), meet_t([b, d]), meet_t([nvar("d"), nvar("e"), b])]),
        ]),
    )
    assert str(s) == (
        "{\\/{!b,\\/{!e,c,f}},/\\{/\\{a,c},/\\{b,e},/\\{a,b,e}}} |- "
        "{\\/{/\\{c,f},/\\{d,e}},\\/{\\/{d,f},/\\{b,d},/\\{!d,!e,b}}}"
    )
    res = prove(s)
    assert not res.derivable
    v = res.countermodel
    assert v == {"a": True, "b": True, "c": True, "d": False, "e": True, "f": False}
    assert all(eval_term(t, v) for t in s.left)
    assert not any(eval_term(t, v) for t in s.right)


# -- identity hashing, the cached dual, one check per derivation node --------


def structural_neg(t):
    """The negation rebuilt from the constructors, without ``dual``."""
    if t.kind in ("pos", "neg"):
        return Term("neg" if t.kind == "pos" else "pos", t.gen)
    return (join_t if t.kind == "meet" else meet_t)(structural_neg(c) for c in t.children)


def test_terms_hash_and_compare_by_identity():
    assert "__hash__" not in vars(Term) and "__eq__" not in vars(Term)
    t = meet_t([var("a"), nvar("b")])
    assert hash(t) == object.__hash__(t)
    assert TOP.dual is BOT and BOT.dual is TOP


@given(terms(4))
def test_dual_is_the_cached_negation(t):
    if t.dual is not None:
        assert t.dual.dual is t
        assert t.dual is structural_neg(t)
    n = neg(t)
    assert n is structural_neg(t)
    assert t.dual is n and n.dual is t
    assert neg(n) is t


def test_literal_is_linked_to_its_opposite_when_both_exist():
    p = var(("fresh", 1))
    assert p.dual is None  # its opposite has never been built
    q = nvar(("fresh", 1))
    assert p.dual is q and q.dual is p


def dnf_tautology(n: int):
    gens = [f"g{i}" for i in range(n)]
    return join_t(
        meet_t((var if bit else nvar)(g) for g, bit in zip(gens, bits))
        for bits in itertools.product((0, 1), repeat=n)
    )


def test_validate_checks_each_distinct_node_once(monkeypatch):
    calls = []  # ids only: a failing assert must not print a whole derivation
    check = Derivation._check

    def counted(node):
        calls.append(id(node))
        check(node)

    monkeypatch.setattr(Derivation, "_check", counted)
    res = prove(frozenset([dnf_tautology(7)]), budgets=DEFAULT_BUDGETS.bumped(unsafe=True))
    assert res.derivable
    # prove validates its derivation: 704 distinct nodes, 96,029 as a tree
    assert (len(calls), len(set(calls))) == (704, 704)


def tree_walk_error(d):
    """The first error of a walk over the whole tree, in pre-order."""
    try:
        d._check()
    except StructureError as e:
        return str(e)
    for c in d.children:
        err = tree_walk_error(c)
        if err:
            return err
    return None


def replaced(d, swap: dict):
    """The derivation with the nodes keyed in ``swap`` (by id) replaced,
    keeping every other node shared as it was."""
    memo: dict = {}

    def go(node):
        if id(node) in swap:
            return swap[id(node)]
        if id(node) not in memo:
            memo[id(node)] = Derivation(
                node.sequent, node.rule, node.principal, tuple(go(c) for c in node.children)
            )
        return memo[id(node)]

    return go(d)


def test_corrupted_shared_node_raises_the_tree_walk_error():
    d = prove(frozenset([dnf_tautology(3)])).derivation
    parents: dict = {}
    nodes: dict = {}
    stack = [d]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for c in node.children:
            parents.setdefault(id(c), set()).add(id(node))
            stack.append(c)
    shared = [nodes[k] for k, ps in parents.items() if len(ps) > 1]
    assert shared
    for node in shared:
        first = min(node.sequent, key=term_key)
        bad = Derivation(node.sequent, "bogus", first, ())
        broken = replaced(d, {id(node): bad})
        with pytest.raises(StructureError, match="unknown rule 'bogus'"):
            broken.validate()
    # two corruptions: the one first in pre-order is reported, as before
    for x, y in itertools.combinations(shared[:6], 2):
        swap = {
            id(x): Derivation(x.sequent, "axiom", None, (x,)),
            id(y): Derivation(y.sequent, "bogus", min(y.sequent, key=term_key), ()),
        }
        broken = replaced(d, swap)
        with pytest.raises(StructureError) as err:
            broken.validate()
        assert str(err.value) == tree_walk_error(broken)
