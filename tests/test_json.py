"""JSON round trips: every serializable structure comes back equal, over
labels that nest str, int, bool, tuple and frozenset values, including
strings that look like other values."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from localix.lattice import FinLattice, lower_sets, powerset_lattice
from localix.order import FinPoset
from localix.presented import Presentation
from localix.pruning import CoDiagram, Relation

from conftest import glued

GOLDEN = pathlib.Path(__file__).parent / "golden"

# strings shaped like ints, sets, tuples and lists of labels
TRICKY = ["1", "-3", "{b}", "(c)", "a,b", "", "[]", '{"set": []}']

SCALARS = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.text("ab1-{}(),", max_size=3),
    st.sampled_from(TRICKY),
)
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)


def labels(min_size=0, max_size=4):
    return st.lists(NESTED, unique=True, min_size=min_size, max_size=max_size)


@st.composite
def nested_posets(draw, max_points=4):
    pts = draw(labels(max_size=max_points))
    n = len(pts)
    up = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return FinPoset(pts, [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if up[i * n + j]])


@st.composite
def nested_lattices(draw):
    p = draw(nested_posets(3))
    build = draw(st.sampled_from([lower_sets, glued, lambda p: powerset_lattice(p.elements)]))
    return build(p)


@st.composite
def nested_presentations(draw):
    gens = tuple(draw(labels(min_size=1, max_size=3)))
    kind = draw(st.sampled_from(["distributive", "boolean"]))
    ops = ["meet", "join"] + (["not"] if kind == "boolean" else [])
    terms = st.recursive(
        st.one_of(st.sampled_from(gens).map(lambda g: ("var", g)), st.sampled_from([("top",), ("bot",)])),
        lambda inner: st.builds(lambda op, ts: (op,) + tuple(ts[:1] if op == "not" else ts),
                                st.sampled_from(ops), st.lists(inner, min_size=1, max_size=3)),
        max_leaves=5,
    )
    return Presentation(gens, tuple(draw(st.lists(st.tuples(terms, terms), max_size=3))), kind)


@st.composite
def nested_relations(draw):
    pts = draw(labels(max_size=4))
    edges = draw(st.lists(st.booleans(), min_size=len(pts) ** 2, max_size=len(pts) ** 2))
    pairs = [(a, b) for (a, b), e in zip(((a, b) for a in pts for b in pts), edges) if e]
    return Relation.make(pts, pairs)


@st.composite
def nested_diagrams(draw):
    """A chain of two or three nested index labels, with a map down each
    step, their composite and, sometimes, projections to a base."""
    idx = draw(labels(min_size=2, max_size=3))
    levels = [draw(labels(min_size=1, max_size=3)) for _ in idx]
    down = [{x: draw(st.sampled_from(levels[k - 1])) for x in levels[k]} for k in range(1, len(idx))]
    maps = {}
    for hi in range(1, len(idx)):
        f = {x: x for x in levels[hi]}
        for lo in range(hi - 1, -1, -1):
            f = {x: down[lo][v] for x, v in f.items()}
            maps[idx[hi], idx[lo]] = f
    base = None
    if draw(st.booleans()):
        y = draw(labels(min_size=1, max_size=2))
        p0 = {x: draw(st.sampled_from(y)) for x in levels[0]}
        ps = {idx[0]: p0}
        ps.update({idx[hi]: {x: p0[v] for x, v in maps[idx[hi], idx[0]].items()} for hi in range(1, len(idx))})
        base = (frozenset(y), ps)
    succ = list(zip(idx, idx[1:]))
    index = FinPoset(idx, succ)
    return CoDiagram(index, succ, dict(zip(idx, levels)), maps, base, "finite", draw(st.booleans()))


STRUCTURES = [
    (FinPoset, nested_posets()),
    (FinLattice, nested_lattices()),
    (Presentation, nested_presentations()),
    (Relation, nested_relations()),
    (CoDiagram, nested_diagrams()),
]


@pytest.mark.parametrize("cls, structures", STRUCTURES, ids=[c.__name__ for c, _ in STRUCTURES])
@settings(max_examples=150)
@given(data=st.data())
def test_every_structure_round_trips_exactly(cls, structures, data):
    x = data.draw(structures)
    text = x.to_json()
    back = cls.from_json(text)
    assert back == x and back.to_json() == text


def round_trip(x):
    return type(x).from_json(x.to_json())


def test_labels_shaped_like_values_come_back_as_strings():
    p = FinPoset(["1", "a", "{b}", "(c)"], [("1", "a")])
    assert round_trip(p) == p and round_trip(p).elements == ("(c)", "1", "a", "{b}")


def test_a_comma_inside_a_set_label_does_not_split_it():
    p = FinPoset([frozenset({"a,b"}), "c"])
    assert round_trip(p) == p


def test_relation_with_tuple_points_decodes():
    r = Relation.make([(0, "a"), (1, "b")], [((0, "a"), (1, "b"))])
    assert round_trip(r) == r


def test_relation_keeps_its_carrier_order():
    r = Relation(("b", "a"), frozenset({("a", "b")}))
    assert round_trip(r) == r


def test_relation_with_mixed_points_encodes():
    r = Relation.make([0, "a"], [(0, "a"), ("a", 0)])
    assert json.loads(r.to_json())["pairs"] == [[0, "a"], ["a", 0]]
    assert round_trip(r) == r


def _chain_diagram(idx, levels):
    """The identity-like chain on ``idx`` with one map down each step."""
    lo, hi = idx
    f = {x: min(levels[0], key=repr) for x in levels[1]}
    return CoDiagram(FinPoset(idx, [(lo, hi)]), [(lo, hi)], dict(zip(idx, levels)), {(hi, lo): f})


def test_diagram_with_tuple_index_labels_decodes():
    d = _chain_diagram([("i", 0), ("i", 1)], [{0, 1}, {2}])
    assert round_trip(d) == d


def test_diagram_with_frozenset_level_values_encodes():
    d = _chain_diagram([0, 1], [{frozenset({"a"}), frozenset()}, {frozenset({"b", "c"})}])
    assert round_trip(d) == d


def test_golden_diagram_reads_with_its_reflexive_pairs():
    text = (GOLDEN / "diagram.json").read_text()
    d = CoDiagram.from_json(text)
    pairs = {tuple(p) for p in json.loads(text)["index"]["pairs"]}
    assert d.index.leq_pairs() == pairs and any(a == b for a, b in pairs)
    assert round_trip(d) == d


def test_a_label_json_cannot_hold_raises_on_writing():
    with pytest.raises(TypeError, match="bytes"):
        FinPoset([b"x"]).to_json()


def test_text_without_pairs_raises_instead_of_decoding_other_labels():
    with pytest.raises(KeyError):
        FinPoset.from_json('{"elements": ["1", "a"], "leq": [["1", "a"]]}')
    old = '{"elements": [[], ["1"]], "kind": "boolean", "spectrum": {"elements": ["1"], "leq": []}}'
    with pytest.raises(KeyError):
        FinLattice.from_json(old)
