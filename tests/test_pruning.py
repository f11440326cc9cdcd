import itertools

import pytest

from localix.errors import DomainError, StructureError, UnstabilizedError
from localix.order import FinPoset
from localix.pruning import (
    CoDiagram,
    Relation,
    canonical_prune,
    cycle_core,
    desc_diagram,
    inverse_limit,
    limit_image,
    prune_sequence,
    rank,
)

from conftest import random_relation_pairs
from oracles import rank_oracle


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
                assert core == cycle_core(r)
            else:
                assert not cycle_core(r)


def test_rank_matches_oracle_random(rng):
    for _ in range(200):
        n = rng.randint(1, 6)
        r = rel(range(n), random_relation_pairs(rng, n, rng.uniform(0.05, 0.35)))
        v, core = rank(r)
        assert v == rank_oracle(r)
        if v == "ill-founded":
            assert core == cycle_core(r)


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
