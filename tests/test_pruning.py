import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from localix import pruning
from localix.budgets import DEFAULT_BUDGETS
from localix.dsl import parse, run
from localix.errors import DomainError, StructureError, UnstabilizedError
from localix.order import FinPoset, _encode, _sorted, canon_key
from localix.pruning import (
    CoDiagram,
    Relation,
    canonical_prune,
    cycle_core,
    limit_image,
    prune_sequence,
    rank,
)

import oracles
from conftest import LABELS, random_relation_pairs
from oracles import desc_diagram, inverse_limit, prune_record, rank_oracle


def rel(carrier, pairs):
    return Relation.make(carrier, pairs)


# -- relations and ranks ------------------------------------------------------


def test_relation_validation_and_json():
    with pytest.raises(DomainError):
        Relation.make("ab", [("a", "z")])
    r = rel("ab", [("a", "b")])
    assert r.predecessors("b") == frozenset("a")
    assert Relation.from_json(r.to_json()) == r


def test_rank_worked_examples():
    assert rank(rel([], [])) == (0, frozenset())
    assert rank(rel([0], [])) == (1, frozenset())
    # strict chain 0 <- 1 <- 2: rank 3
    assert rank(rel(range(3), [(1, 0), (2, 1)])) == (3, frozenset())
    # a self-loop is ill-founded with core {0}
    v, core = rank(rel([0, 1], [(0, 0), (0, 1)]))
    assert v == "ill-founded" and core == frozenset([0, 1])
    # 1 sits above the cycle, 2 is clean
    v, core = rank(rel([0, 1, 2], [(0, 0), (0, 1)]))
    assert v == "ill-founded" and core == frozenset([0, 1])


def test_rank_oracle_worked_examples():
    assert rank_oracle(rel([], [])) == 0
    assert rank_oracle(rel(range(3), [(1, 0), (2, 1)])) == 3
    assert rank_oracle(rel([0], [(0, 0)])) == "ill-founded"


def test_rank_matches_oracle_exhaustively_small():
    for n in (1, 2, 3):
        carrier = list(range(n))
        all_pairs = [(a, b) for a in carrier for b in carrier]
        for bits in itertools.product((0, 1), repeat=len(all_pairs)):
            r = rel(carrier, [p for p, bit in zip(all_pairs, bits) if bit])
            v, core = rank(r)
            assert v == rank_oracle(r), r
            if v == "ill-founded":
                assert core == cycle_core(r) == oracles.cycle_core(r)
            else:
                assert not oracles.cycle_core(r)


def test_rank_matches_oracle_random(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        r = rel(range(n), random_relation_pairs(rng, n, rng.uniform(0.05, 0.35)))
        v, core = rank(r)
        assert v == rank_oracle(r)
        if v == "ill-founded":
            assert core == cycle_core(r) == oracles.cycle_core(r)


@st.composite
def relations(draw, max_points=5):
    pts = draw(st.lists(LABELS, unique=True, max_size=max_points))
    edges = draw(st.lists(st.booleans(), min_size=len(pts) ** 2, max_size=len(pts) ** 2))
    return rel(pts, [p for p, e in zip(itertools.product(pts, pts), edges) if e])


@settings(max_examples=150)
@given(relations())
def test_prune_record_matches_the_pruning_of_the_chain_diagram(r):
    # every field of the counted record, dot included, against the
    # stage-by-stage pruning of the whole descending-chain diagram
    want = prune_record(r)
    unsafe = DEFAULT_BUDGETS.bumped(unsafe=True)
    got = run(parse("prune R;"), unsafe, named={"R": ("relation", r)}).records[0]
    assert {k: got[k] for k in want} == want
    v, core = rank(r)
    assert v == want["verdict"]
    assert [str(x) for x in sorted(core, key=canon_key)] == want["core"]
    # the diagram budget refuses exactly the stabilized stages above it
    stabilized = sum(want["stage_sizes"][-1]) if r.carrier else 0
    rec = run(parse("prune R;"), named={"R": ("relation", r)}).records[0]
    assert (rec.get("error") == "budget") == (stabilized > DEFAULT_BUDGETS.diagram)



def test_diagram_prune_record_prunes_the_sequence_once(monkeypatch):
    # the sequence stabilizes at stage 2: two prunes and the one that
    # repeats the levels; the limit image is certified on those stages
    calls = []

    def counted(d):
        calls.append(d)
        return canonical_prune(d)

    monkeypatch.setattr(pruning, "canonical_prune", counted)
    script = parse("diagram D { [u, v], [w, x], [y] : w -> u, x -> v, y -> w };\nprune D;")
    (rec,) = run(script).records
    assert len(calls) == 3
    rec.pop("timing_ms")
    assert rec == {
        "schema": 1, "kind": "prune", "ok": True, "source": "D", "verdict": "stabilized",
        "stabilized_at": 2, "stage_sizes": [[2, 2, 1], [2, 1, 1], [1, 1, 1]], "limit_image": ["u"],
        "dot": 'digraph pruned {\n  rankdir=TB;\n  "1" [label="1: {u}"];\n  "2" [label="2: {w}"];\n'
        '  "3" [label="3: {y}"];\n  "3" -> "2";\n  "2" -> "1";\n}\n',
    }

def test_descents_worked_examples():
    # 2 -> 1 -> 0 descends two steps from 0; 3 sits on a loop
    preds, ext = pruning._descents(rel(range(4), [(1, 0), (2, 1), (3, 3)]))
    assert preds == [[1], [2], [], [3]]
    assert ext == [2, 1, 0, 4]
    assert pruning._descents(rel([], [])) == ([], [])


# -- diagrams -----------------------------------------------------------------


def square_diagram():
    idx = FinPoset("abct", [("a", "b"), ("a", "c"), ("b", "t"), ("c", "t")])
    succ = [("a", "b"), ("a", "c"), ("b", "t"), ("c", "t")]
    levels = {"a": {0, 1}, "b": {0, 1}, "c": {0, 1}, "t": {0}}
    ident = {0: 0, 1: 1}
    maps = {
        ("b", "a"): ident,
        ("c", "a"): ident,
        ("t", "b"): {0: 0},
        ("t", "c"): {0: 0},
        ("t", "a"): {0: 0},
    }
    return CoDiagram(idx, succ, levels, maps)


def test_codiagram_constructor_rejections():
    idx = FinPoset("ab", [("a", "b")])
    lv = {"a": {0}, "b": {0}}
    f = {("b", "a"): {0: 0}}
    with pytest.raises(StructureError):
        CoDiagram(idx, [], lv, f)  # succ does not generate the order
    with pytest.raises(StructureError):
        CoDiagram(idx, [("a", "b")], lv, {})  # missing map
    with pytest.raises(StructureError):
        CoDiagram(idx, [("a", "b")], {"a": set(), "b": {0}}, f)  # image escapes
    with pytest.raises(DomainError):
        CoDiagram(idx, [("a", "b")], lv, f, kind="mystery")
    two = FinPoset("ab")
    with pytest.raises(StructureError):
        CoDiagram(two, [], {"a": {0}, "b": {0}}, {})  # not directed
    with pytest.raises(StructureError):
        # projections must commute with the maps
        CoDiagram(idx, [("a", "b")], lv, f, base=({0, 1}, {"a": {0: 0}, "b": {0: 1}}))


def test_succ_condition_enforced_and_repairable():
    elems = "ajklt"
    pairs = [("a", "j"), ("j", "l"), ("l", "t"), ("a", "k"), ("k", "t")]
    idx = FinPoset(elems, pairs)
    levels = {e: {0} for e in elems}
    one = {0: 0}
    succ = list(pairs)
    maps = {
        (j, i): one for j in elems for i in elems if idx.lt(i, j)
    }
    with pytest.raises(StructureError):
        # j >= a succ k but j has no successor above k
        CoDiagram(idx, succ, levels, maps)
    CoDiagram(idx, succ + [("j", "t")], levels, maps)  # repaired


def test_functoriality_enforced():
    idx = FinPoset("abc", [("a", "b"), ("b", "c")])
    lv = {"a": {0, 1}, "b": {0, 1}, "c": {0}}
    maps = {
        ("b", "a"): {0: 0, 1: 1},
        ("c", "b"): {0: 0},
        ("c", "a"): {0: 1},  # disagrees with the composite
    }
    with pytest.raises(StructureError):
        CoDiagram(idx, [("a", "b"), ("b", "c")], lv, maps)


def test_two_paths_of_steps_must_agree():
    # no composite is supplied: t -> b -> a and t -> c -> a send 0 apart
    idx = FinPoset("abct", [("a", "b"), ("a", "c"), ("b", "t"), ("c", "t")])
    levels = {"a": {0, 1}, "b": {0}, "c": {0}, "t": {0}}
    steps = {("b", "a"): {0: 0}, ("c", "a"): {0: 1}, ("t", "b"): {0: 0}, ("t", "c"): {0: 0}}
    with pytest.raises(StructureError, match="not functorial"):
        CoDiagram(idx, list(idx.cover_pairs()), levels, steps)
    steps["c", "a"] = {0: 0}
    assert CoDiagram(idx, list(idx.cover_pairs()), levels, steps).composite("t", "a") == {0: 0}


def test_json_round_trip():
    d = square_diagram()
    assert CoDiagram.from_json(d.to_json()) == d
    r = rel(range(3), [(1, 0), (2, 1)])
    c = desc_diagram(r, 3, with_base=True)
    assert CoDiagram.from_json(c.to_json()) == c


def test_dot_output_mentions_every_index():
    d = square_diagram()
    dot = d.to_dot()
    for i in "abct":
        assert f'"{i}"' in dot


# -- pruning ------------------------------------------------------------------


def test_prune_drops_unsupported_points():
    idx = FinPoset("ab", [("a", "b")])
    d = CoDiagram(
        idx, [("a", "b")], {"a": {0, 1}, "b": {0}}, {("b", "a"): {0: 0}}
    )
    p = canonical_prune(d)
    assert p.levels["a"] == frozenset([0])
    stages, stab = prune_sequence(d)
    assert stab == 1 and stages[0] is d


def test_prune_preserves_inverse_limit(rng):
    for _ in range(30):
        n = rng.randint(2, 4)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        idx = FinPoset(range(n), [(i, i + 1) for i in range(n - 1)])
        levels = {i: set(range(sizes[i])) for i in range(n)}
        step = [
            {x: rng.randrange(sizes[i]) for x in levels[i + 1]}
            for i in range(n - 1)
        ]
        maps = {}
        for hi in range(1, n):
            for lo in range(hi):
                f = {x: x for x in levels[hi]}
                for k in range(hi - 1, lo - 1, -1):
                    f = {x: step[k][v] for x, v in f.items()}
                maps[(hi, lo)] = f
        d = CoDiagram(idx, [(i, i + 1) for i in range(n - 1)], levels, maps)
        before = inverse_limit(d)
        stages, stab = prune_sequence(d)
        assert stab != "unstabilized"
        after = inverse_limit(stages[-1])
        assert before == after
        # stabilized levels are exactly the projection images of the threads
        for i in range(n):
            assert stages[-1].levels[i] == frozenset(t[i] for t in before)


def test_limit_image_requires_base():
    with pytest.raises(DomainError):
        limit_image(square_diagram())


def test_limit_image_matches_direct_threads():
    r = rel(range(3), [(1, 0), (2, 1)])
    idx = FinPoset("ab", [("a", "b")])
    d = CoDiagram(
        idx,
        [("a", "b")],
        {"a": {0, 1}, "b": {1}},
        {("b", "a"): {1: 1}},
        base=({0, 1}, {"a": {0: 0, 1: 1}, "b": {1: 1}}),
    )
    assert limit_image(d) == frozenset([1])


@st.composite
def square_diagrams(draw):
    """A finite diagram over the square a < b, c < t with a base at a:
    each point above a is labelled by the points it maps to."""
    sizes = st.integers(0, 3)
    bottom = range(draw(sizes))
    side = {
        i: [(i, k, draw(st.sampled_from(bottom))) for k in range(draw(sizes))] if bottom else []
        for i in "bc"
    }
    top = []
    for k in range(draw(sizes)):
        if side["b"] and side["c"]:
            u = draw(st.sampled_from(side["b"]))
            vs = [v for v in side["c"] if v[2] == u[2]]
            if vs:
                top.append(("t", k, u, draw(st.sampled_from(vs))))
    idx = FinPoset("abct", [("a", "b"), ("a", "c"), ("b", "t"), ("c", "t")])
    down = {"a": {x: x for x in bottom}, "b": {u: u[2] for u in side["b"]},
            "c": {v: v[2] for v in side["c"]}, "t": {w: w[2][2] for w in top}}
    maps = {
        ("b", "a"): down["b"],
        ("c", "a"): down["c"],
        ("t", "b"): {w: w[2] for w in top},
        ("t", "c"): {w: w[3] for w in top},
        ("t", "a"): down["t"],
    }
    levels = {"a": set(bottom), "b": set(side["b"]), "c": set(side["c"]), "t": set(top)}
    return CoDiagram(idx, list(idx.cover_pairs()), levels, maps, base=(set(bottom), down))


@settings(max_examples=100)
@given(square_diagrams())
def test_limit_image_is_the_projection_of_the_threads_off_chains(d):
    assert limit_image(d) == frozenset(t["a"] for t in inverse_limit(d))


def test_limit_image_certificate_catches_a_pruning_that_keeps_too_much(monkeypatch):
    idx = FinPoset("ab", [("a", "b")])
    d = CoDiagram(
        idx, [("a", "b")], {"a": {0, 1}, "b": {0}}, {("b", "a"): {0: 0}},
        base=({0, 1}, {"a": {0: 0, 1: 1}, "b": {0: 0}}),
    )
    assert limit_image(d) == frozenset([0])
    monkeypatch.setattr(pruning, "canonical_prune", lambda d: d)
    with pytest.raises(StructureError, match="top level"):
        limit_image(d)


def test_limit_image_on_descending_chains():
    # well-founded chain: only the tail survives to the truncation depth
    r = rel(range(5), [(i + 1, i) for i in range(4)])
    with pytest.raises(UnstabilizedError):
        limit_image(desc_diagram(r, 3, with_base=True))
    deep = desc_diagram(r, 6, with_base=True)
    assert deep.complete
    assert limit_image(deep) == frozenset()
    # a cycle feeds arbitrarily long chains through 0 and 1
    r2 = rel([0, 1], [(0, 0), (0, 1)])
    assert limit_image(desc_diagram(r2, 3, with_base=True)) == frozenset([0, 1])


def test_chain_completeness_flag():
    r = rel(range(3), [(1, 0), (2, 1)])
    assert not desc_diagram(r, 2).complete
    assert desc_diagram(r, 4).complete  # depth exceeds the carrier
    # top level already empty: complete regardless of depth
    assert desc_diagram(rel([0], []), 3).complete


def test_inverse_limit_rejects_truncated_chains():
    r = rel(range(2), [(1, 0)])
    with pytest.raises(DomainError):
        inverse_limit(desc_diagram(r, 2))


def test_prune_on_a_relation_runs_one_descent_pass(monkeypatch):
    calls = []
    real = pruning._descents
    monkeypatch.setattr(pruning, "_descents", lambda r: calls.append(r) or real(r))
    (rec,) = run(parse("relation R { 0, 1, 2 : 1 -> 0, 2 -> 1 };\nprune R;")).records
    assert rec["verdict"] == 3 and len(calls) == 1


# -- the step maps against the all-pairs check --------------------------------


def test_a_diagram_stores_its_step_maps_and_composes_on_read():
    d = square_diagram()
    assert set(d.maps) == {(j, i) for i, j in d.succ}
    assert d.composite("t", "a") == {0: 0} and d.composite("b", "b") == {0: 0, 1: 1}
    assert sorted(d.succs_of("a")) == ["b", "c"] and d.succs_of("t") == []
    with pytest.raises(DomainError):
        d.composite("b", "c")
    chain = CoDiagram.chain([[0], [1], [2]], [{1: 0}, {2: 1}])
    assert chain.maps == {(2, 1): {1: 0}, (3, 2): {2: 1}}
    assert chain.composite(3, 1) == {2: 0}


_AJKLT = [("a", "j"), ("j", "l"), ("l", "t"), ("a", "k"), ("k", "t")]
INDICES = [
    ("0", []),
    ("01", [("0", "1")]),
    ("012", [("0", "1"), ("1", "2")]),
    ("0123", [("0", "1"), ("1", "2"), ("2", "3")]),
    ("abct", [("a", "b"), ("a", "c"), ("b", "t"), ("c", "t")]),
    ("ajklt", _AJKLT),  # fails the succ condition at j
    ("ajklt", _AJKLT + [("j", "t")]),
]


@st.composite
def supplied_diagrams(draw):
    """A diagram over one of INDICES, with a map for every comparable pair
    and, sometimes, a base.  Points are partial threads, restricted to the
    indices below their level, so the maps are functorial until some
    values are corrupted, composites and steps alike."""
    elems, succ = draw(st.sampled_from(INDICES))
    idx = FinPoset(elems, succ)
    values = st.lists(st.integers(0, 1), min_size=len(elems), max_size=len(elems))
    seeds = draw(st.lists(st.tuples(st.sampled_from(idx.elements), values), max_size=4))

    def below(t, i):
        return tuple((k, v) for k, v in t if idx.leq(k, i))

    levels = {i: set() for i in idx.elements}
    for top, vals in seeds:
        for i in idx.down(top):
            levels[i].add(below(tuple(zip(idx.elements, vals)), i))
    maps = {
        (j, i): {x: below(x, i) for x in levels[j]}
        for j in idx.elements for i in idx.elements if idx.lt(i, j)
    }
    base = None
    if draw(st.booleans()):
        (bottom,) = idx.minimal()
        p0 = {x: draw(st.integers(0, 1)) for x in levels[bottom]}
        base = ({0, 1}, {i: {x: p0[below(x, bottom)] for x in levels[i]} for i in idx.elements})
    steps = sorted(((j, i) for i, j in succ), key=canon_key)
    for _ in range(draw(st.integers(0, 2)) if maps else 0):
        j, i = draw(st.sampled_from(draw(st.sampled_from([steps, sorted(maps, key=canon_key)]))))
        if levels[j]:
            x = draw(st.sampled_from(sorted(levels[j], key=canon_key)))
            maps[j, i][x] = draw(st.sampled_from(sorted(levels[i], key=canon_key)))
    if base is not None and draw(st.booleans()):
        i = draw(st.sampled_from(idx.elements))
        if levels[i]:
            base[1][i][draw(st.sampled_from(sorted(levels[i], key=canon_key)))] = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["finite", "truncated_chain"]))
    return idx, succ, levels, maps, base, kind


def _agrees_with_the_all_pairs_check(idx, succ, levels, maps, base, kind):
    args = idx, succ, levels, maps, base, kind
    try:
        want_levels, full, want_base = oracles.all_pairs_diagram(*args)
    except (DomainError, StructureError) as e:
        with pytest.raises(type(e)):
            CoDiagram(*args)
        return
    d = CoDiagram(*args)
    assert d.levels == want_levels and d.base == want_base
    assert d.maps == {(j, i): full[j, i] for i, j in d.succ}
    assert {(j, i): d.composite(j, i) for j, i in full} == full
    # to_json writes every composite, as the all-pairs table did
    table = [(j, i, _sorted(full[j, i].items())) for j, i in _sorted(full) if i != j]
    assert json.loads(d.to_json())["maps"] == _encode(table)
    assert CoDiagram.from_json(d.to_json()) == d


@settings(max_examples=300)
@given(supplied_diagrams())
def test_step_maps_accept_exactly_what_the_all_pairs_check_accepts(args):
    idx, succ, levels, maps, base, kind = args
    _agrees_with_the_all_pairs_check(*args)
    # the steps alone: refused unless every path of steps composes alike
    steps = {(j, i): maps[j, i] for i, j in succ}
    table = oracles.path_composites(idx, succ, steps)
    if table is None:
        with pytest.raises(StructureError):
            CoDiagram(idx, succ, levels, steps, base, kind)
    else:
        _agrees_with_the_all_pairs_check(idx, succ, levels, table, base, kind)


@settings(max_examples=100)
@given(st.data())
def test_chain_composes_what_the_all_pairs_chain_stored(data):
    sizes = data.draw(st.lists(st.integers(1, 3), max_size=5))
    levels = [list(range(n)) for n in sizes]
    maps = [
        {x: data.draw(st.integers(0, sizes[k] - 1)) for x in levels[k + 1]}
        for k in range(len(sizes) - 1)
    ]
    d = CoDiagram.chain(levels, maps)
    full = oracles.chain_composites(levels, maps)
    assert len(d.maps) == max(len(sizes) - 1, 0)
    assert {(j, i): d.composite(j, i) for j, i in full} == full
