"""Shared enumeration helpers: all small posets up to isomorphism,
seeded random structure generators, and the hypothesis poset,
glued-lattice and hom strategies used across the suites."""

from __future__ import annotations

import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from localix.budgets import DEFAULT_BUDGETS
from localix.lattice import FinLattice, enumerate_homs, lower_sets
from localix.order import FinPoset, lower_sets_of, poset_isomorphic

# Property tests replay the same examples on every run and keep no example
# database; hypothesis's remaining cache goes to the temporary directory,
# not the checkout.  The host's speed varies too much for a per-example
# deadline.
settings.register_profile("localix", derandomize=True, deadline=None, database=None)
settings.load_profile("localix")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "localix-hypothesis")


@lru_cache(maxsize=None)
def posets_up_to(n: int) -> tuple:
    """All posets with at most ``n`` elements, one per isomorphism class.

    Elements are added in label order as maxima, so every class shows
    up with the identity as a linear extension; classes are then
    deduplicated by invariant buckets plus isomorphism search.
    """
    all_posets: list[FinPoset] = []
    for size in range(n + 1):
        partial: list[frozenset] = [frozenset()]
        for k in range(size):
            grown = []
            for rel in partial:
                p = FinPoset(range(k), rel)
                for low in lower_sets_of(p):
                    grown.append(
                        rel | frozenset((x, k) for x in low)
                    )
            partial = grown
        seen: dict = {}
        for rel in set(partial):
            p = FinPoset(range(size), rel)
            sig = _poset_signature(p)
            bucket = seen.setdefault(sig, [])
            if not any(poset_isomorphic(p, q) for q in bucket):
                bucket.append(p)
        all_posets.extend(p for bucket in seen.values() for p in bucket)
    return tuple(all_posets)


# mixed label types, so that orders that depend on canon_key get exercised
LABELS = st.one_of(
    st.integers(-3, 9),
    st.text("abc", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.text("xy", max_size=1)),
    st.frozensets(st.integers(0, 3), max_size=2),
)


@st.composite
def posets(draw, max_points=5):
    pts = draw(st.lists(LABELS, unique=True, max_size=max_points))
    up = draw(st.lists(st.booleans(), min_size=len(pts) ** 2, max_size=len(pts) ** 2))
    n = len(pts)
    return FinPoset(pts, [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n) if up[i * n + j]])


def glued(p: FinPoset) -> FinLattice:
    """The lower sets of ``p`` on a spectrum that doubles each point x into
    two incomparable copies (x, 0) and (x, 1) with the strict order of
    ``p``: every element holds both copies or neither, so the copies are
    glued (one join-irreducible, two points), and point masks and
    join-irreducible masks no longer agree up to relabelling."""
    pts = [(x, i) for x in p.elements for i in (0, 1)]
    strict = [((x, i), (y, k)) for x, y in p.leq_pairs() if x != y for i in (0, 1) for k in (0, 1)]
    family = [frozenset((x, i) for x in low for i in (0, 1)) for low in lower_sets_of(p)]
    return FinLattice(FinPoset(pts, strict), family)


@st.composite
def glued_lattices(draw, max_points=4):
    return glued(draw(posets(max_points)))


def small_lattices(max_points=3):
    """The lower sets of a poset of at most ``max_points`` points, glued or not."""
    return st.builds(lambda p, g: glued(p) if g else lower_sets(p), posets(max_points), st.booleans())


@st.composite
def homs_from(draw, a: FinLattice, max_points=3):
    """A hom out of ``a`` into one of the ``small_lattices``; a trivial
    ``a`` has homs into trivial lattices only, and other draws are
    rejected."""
    homs = enumerate_homs(a, draw(small_lattices(max_points)))
    assume(homs)
    return draw(st.sampled_from(homs))


# bilax legs into small_lattices, as (left, right) counts: one or two, for
# two-leg apexes over 3-point posets reach about 10^4 elements, past the
# default elements budget
BILAX_LEGS = st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
APEX_BUDGETS = DEFAULT_BUDGETS.bumped(elements=1 << 16)


def _poset_signature(p: FinPoset) -> tuple:
    downs = sorted(sum(p.leq(a, b) for a in p.elements) for b in p.elements)
    ups = sorted(sum(p.leq(b, a) for a in p.elements) for b in p.elements)
    return (len(p.elements), tuple(downs), tuple(ups))


def random_poset(rng: random.Random, n: int) -> FinPoset:
    """A random poset on ``n`` labels: random edges upward, then closure."""
    rel = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    return FinPoset(range(n), rel)


def random_relation_pairs(rng: random.Random, n: int, p: float) -> list:
    return [(a, b) for a in range(n) for b in range(n) if rng.random() < p]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
