import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from localix import baire, lattice
from localix.baire import (
    FrameTopology,
    baire_decompose,
    boundary,
    closure,
    comgr,
    interior,
    is_dense,
    is_meager,
    regular_opens,
    regularize,
    sigma2_family,
)
from localix.errors import DomainError, StructureError
from localix.lattice import lattice_isomorphic, powerset_lattice


def sierpinski():
    return FrameTopology("pq", [frozenset("p")])


def random_topology(rng, n):
    pts = [f"x{i}" for i in range(n)]
    fam = {frozenset(), frozenset(pts)}
    for _ in range(rng.randint(0, n + 1)):
        fam.add(frozenset(p for p in pts if rng.random() < 0.5))
    return FrameTopology(pts, oracles.closed(fam))


@st.composite
def topologies(draw, max_points=5):
    """Random opens on up to ``max_points`` points, closed under & and |;
    points that no open separates are glued."""
    n = draw(st.integers(1, max_points))
    pts = [f"x{i}" for i in range(n)]
    masks = draw(st.lists(st.integers(0, 2**n - 1), max_size=n + 1))
    fam = {frozenset(p for i, p in enumerate(pts) if m >> i & 1) for m in masks}
    return FrameTopology(pts, oracles.closed(fam | {frozenset(), frozenset(pts)}))


def all_topologies(points):
    """Every topology on the given points, by brute force."""
    pts = frozenset(points)
    proper = [frozenset(s) for k in range(len(points) + 1)
              for s in itertools.combinations(sorted(pts), k)]
    out = []
    for keep in itertools.product((0, 1), repeat=len(proper)):
        fam = {s for s, bit in zip(proper, keep) if bit} | {frozenset(), pts}
        if all(a & b in fam and a | b in fam for a in fam for b in fam):
            out.append(FrameTopology(points, fam))
    return out


def test_validation():
    with pytest.raises(StructureError):
        FrameTopology("pqr", [frozenset("p"), frozenset("q")])  # no union
    with pytest.raises(DomainError):
        FrameTopology("pq", [frozenset("z")])


def test_neighbourhoods_and_glued_points_match_the_opens():
    for t in all_topologies("pqr"):
        for r in t.reps:
            want = frozenset(t.reps).intersection(*[o for o in t.opens if r in o])
            assert t.min_nbhd[r] == want
        for p in t.points:
            q = t.rep_of[p]
            assert q == min((x for x in t.points if t.rep_of[x] == q), key=str)
    with pytest.raises(StructureError):
        FrameTopology("pqr", [frozenset("pq"), frozenset("qr")])  # no intersection


def test_indistinguishable_points_collapse():
    t = FrameTopology("pq", [])  # indiscrete: p and q share all neighborhoods
    assert len(t.reps) == 1
    assert t.rep_of["q"] == t.rep_of["p"]


def test_sierpinski_operators():
    t = sierpinski()
    p, q = frozenset("p"), frozenset("q")
    assert interior(t, q) == frozenset()
    assert closure(t, p) == t.top()
    assert boundary(t, p) == q
    assert regularize(t, p) == t.top()  # p is dense
    assert regular_opens(t) == [frozenset(), t.top()]


def test_sierpinski_comgr():
    t = sierpinski()
    core, lat = comgr(t)
    assert core == frozenset("p")  # the open point is comeager
    assert len(lat) == 2
    assert is_meager(t, frozenset("q"))
    assert not is_meager(t, frozenset("p"))


def test_discrete_space_has_full_core(rng):
    pts = "abc"
    t = FrameTopology(pts, [frozenset(s) for k in range(4)
                            for s in itertools.combinations(pts, k)])
    core, lat = comgr(t)
    assert core == t.top()
    assert lattice_isomorphic(lat, powerset_lattice(pts))


def test_comgr_is_dense_and_least_among_regular(rng):
    for t in all_topologies("pq") + [random_topology(rng, 4) for _ in range(20)]:
        core, _ = comgr(t)
        assert is_dense(t, core)
        # core is the meet of the dense opens
        meet = t.top()
        for u in t.opens:
            if is_dense(t, u):
                meet &= u
        assert core == meet
        # and it is the smallest dense element of the ambient
        for k in range(len(t.reps) + 1):
            for s in itertools.combinations(t.reps, k):
                if is_dense(t, frozenset(s)):
                    assert core <= frozenset(s) | core  # trivially
                    if frozenset(s) < core:
                        raise AssertionError(s)


def test_regular_opens_form_boolean_algebra(rng):
    for _ in range(10):
        t = random_topology(rng, 4)
        regs = set(regular_opens(t))
        for u in regs:
            for v in regs:
                assert regularize(t, u | v) in regs
                assert u & v in regs
            # complement in the regular-open algebra
            c = interior(t, t.top() - u)
            assert regularize(t, c) == c and c in regs


def test_closure_interior_laws(rng):
    for _ in range(10):
        t = random_topology(rng, 4)
        subsets = [frozenset(s) for k in range(len(t.reps) + 1)
                   for s in itertools.combinations(t.reps, k)]
        for b in subsets:
            assert interior(t, b) <= b <= closure(t, b)
            assert interior(t, interior(t, b)) == interior(t, b)
            assert closure(t, closure(t, b)) == closure(t, b)
            assert t.is_open(interior(t, b))


def test_baire_decompose_witness(rng):
    for t in all_topologies("pq") + [random_topology(rng, 4) for _ in range(20)]:
        core, _ = comgr(t)
        for k in range(len(t.reps) + 1):
            for s in itertools.combinations(t.reps, k):
                b = frozenset(s)
                u, m = baire_decompose(t, b)
                assert t.is_open(u)
                assert m == (b ^ u)
                assert is_meager(t, m)


@settings(max_examples=150)
@given(topologies())
def test_sigma2_family_matches_the_fixpoint(t):
    assert sigma2_family(t) == oracles.sigma2_family(t)


@settings(max_examples=150)
@given(topologies())
def test_closed_forms_match_the_scans_over_the_opens(t):
    core = oracles.comeager_core(t)
    assert baire._core(t) == core
    for k in range(len(t.reps) + 1):
        for s in itertools.combinations(t.reps, k):
            b = frozenset(s)
            assert interior(t, b) == oracles.interior(t, b)
            assert baire_decompose(t, b) == oracles.baire_decompose(t, b)
            assert is_meager(t, b) == (not b & core)


@settings(max_examples=200)
@given(topologies(max_points=6))
def test_regular_open_algebra_matches_the_abstract_realization(t):
    core, lat = comgr(t)
    assert lat == oracles.regular_algebra(t)
    assert baire._comgr(t)[1] == regular_opens(t)


@settings(max_examples=200)
@given(topologies(max_points=6))
def test_opens_lattice_matches_the_abstract_realization(t):
    lat, image = t.opens_lattice()
    want_lat, want_image = oracles.opens_lattice(t)
    assert lat == want_lat
    assert lat.spectrum.elements == want_lat.spectrum.elements
    assert image == want_image
    for k in range(len(t.reps) + 1):
        for s in itertools.combinations(t.reps, k):
            b = frozenset(s)
            assert t.is_open(b) == any(o == b for o in t.opens)


def test_regular_open_algebra_reads_no_order_pairs(monkeypatch):
    def scan(*args):
        raise AssertionError("the regular opens were compared pairwise")

    monkeypatch.setattr(lattice, "lattice_from_abstract", scan)
    pts = [f"x{i}" for i in range(10)]
    subsets = itertools.product((0, 1), repeat=len(pts))
    t = FrameTopology(pts, [frozenset(itertools.compress(pts, b)) for b in subsets])
    core, lat = comgr(t)  # discrete: 1024 regular opens
    assert core == t.top() and len(lat) == 1024 and lat.kind == "boolean"


def test_sigma2_family_is_full_powerset_small(rng):
    # on a T0 space of <= 3 points the opens and closeds generate everything
    t = sierpinski()
    assert sigma2_family(t) == frozenset(
        frozenset(s) for k in range(3) for s in itertools.combinations(t.reps, k)
    )


def test_foreign_element_rejected():
    t = sierpinski()
    with pytest.raises(DomainError):
        interior(t, frozenset("z"))
