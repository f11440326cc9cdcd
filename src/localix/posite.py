"""Coverages on finite meet-lattices and distributive polyposets.

A coverage relates elements to finite subsets ("a is covered by C");
its saturation is the least relation closed under reflexivity, both
transitivities, and meet-stability.  Cover-ideals of the saturation
form the presented frame at finite scale, and the saturation is read
off them: a is covered by C exactly when a lies in the least down-set
that contains C and is closed under the meet-stabilized generators
(Johnstone, *Stone Spaces*, II.2.11).  Polyposets relate finite
subsets to finite subsets and present lattices with both meets and
joins; their saturation is Boolean entailment from the generators,
read off the generators' models.  For both, the rule fixpoint that
reaches the same relation is the test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Iterable

from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import DomainError, StructureError
from .lattice import FinLattice, _bits, lattice_from_abstract
from .order import _canon_sorted, _lower_masks, canon_key

__all__ = [
    "Coverage",
    "saturate_coverage",
    "canonical_coverage",
    "cov_ideals",
    "downtri",
    "cov_ideals_from_generators",
    "PolyOrder",
    "saturate_polyposet",
    "canonical_polyorder",
    "polyposet_entails",
    "polyposet_coproduct",
]


def _position(base: FinLattice, c: frozenset) -> int:
    """The position of ``c`` in ``base.elements``, encoding ``c`` once."""
    m = base._mask_of(c)
    if m is None:
        raise DomainError(f"{c!r} not in the coverage base")
    return base._at[m]


def _positions(base: FinLattice, subset: Iterable[frozenset]) -> int:
    """The mask of the positions of ``subset`` in ``base.elements``."""
    m = 0
    for c in subset:
        m |= 1 << _position(base, c)
    return m


def _down(base: FinLattice) -> list[int]:
    """Per element position, the mask of the positions below it."""
    masks = base._at
    return [sum(1 << j for j, mj in enumerate(masks) if not mj & ~mi) for mi in masks]


class Coverage:
    """A saturated cover relation, stored in full over all subsets."""

    __slots__ = ("base", "generators", "_rel")

    def __init__(self, base: FinLattice, generators, rel: list[set]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_rel", rel)  # per element: set of cover masks

    def __setattr__(self, *a):
        raise AttributeError("Coverage is immutable")

    def covers(self, a: frozenset, c: Iterable[frozenset]) -> bool:
        return _positions(self.base, c) in self._rel[_position(self.base, a)]

    def pairs(self) -> list[tuple[frozenset, frozenset]]:
        elems = self.base.elements
        out = [
            (e, frozenset(elems[c] for c in _bits(m)))
            for e, ms in zip(elems, self._rel)
            for m in ms
        ]
        out.sort(key=canon_key)
        return out

    def __repr__(self) -> str:
        return f"Coverage({sum(len(s) for s in self._rel)} pairs on {len(self.base)} elements)"


def _gen_masks(base: FinLattice, gen: Iterable[tuple[frozenset, Iterable[frozenset]]]) -> set:
    pairs = set()
    for a, c in gen:
        pairs.add((_position(base, a), _positions(base, c)))
    return pairs


def _ideal_closure(base: FinLattice, down: list[int], gen_pairs: set[tuple[int, int]]):
    """The closure of down-set masks under the meet-stabilized generators.

    Stabilizing turns a generator "b covered by C" into "a covered by
    a /\\ C" for every a <= b.  The returned ``close(d)`` is the least
    down-set containing the down-set ``d`` that holds a whenever it
    holds the cover of such a generator; the down-sets it fixes are the
    cover-ideals.
    """
    masks, at = list(base._at), base._at
    rules = set()
    for b, cm in gen_pairs:
        for a in _bits(down[b]):
            meets = 0  # the positions of a /\ c for c in C
            for c in _bits(cm):
                meets |= 1 << at[masks[a] & masks[c]]
            rules.add((down[a], meets))

    def close(d: int) -> int:
        grown = True
        while grown:
            grown = False
            for da, cm in rules:
                if da & ~d and not cm & ~d:
                    d |= da
                    grown = True
        return d

    return close


def saturate_coverage(
    base: FinLattice,
    gen: Iterable[tuple[frozenset, Iterable[frozenset]]],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Coverage:
    """Least coverage containing ``gen``.

    a is covered by C exactly when a lies in the least cover-ideal
    containing C: one closure of the down-set of C per subset C.
    """
    check_budget(budgets, "carrier", len(base))
    n = len(base)
    down = _down(base)
    close = _ideal_closure(base, down, _gen_masks(base, gen))
    rel: list[set] = [set() for _ in range(n)]
    start = [0] * (1 << n)  # per subset mask, its down-set
    ideal: dict[int, int] = {}
    for cm in range(1 << n):
        if cm:
            low = cm & -cm
            start[cm] = start[cm ^ low] | down[low.bit_length() - 1]
        d = ideal.get(start[cm])
        if d is None:
            d = ideal[start[cm]] = close(start[cm])
        for a in _bits(d):
            rel[a].add(cm)
    return Coverage(base, tuple(sorted(((a, frozenset(c)) for a, c in gen), key=canon_key)), rel)


def canonical_coverage(base: FinLattice, budgets: Budgets = DEFAULT_BUDGETS) -> Coverage:
    """The coverage ``a covered by C  iff  a <= join(C)`` (separated)."""
    check_budget(budgets, "carrier", len(base))
    elems = base.elements
    n = len(elems)
    rel: list[set] = [set() for _ in range(n)]
    for cm in range(1 << n):
        j = base.bot.union(*(elems[c] for c in _bits(cm)))
        for a in range(n):
            if elems[a] <= j:
                rel[a].add(cm)
    return Coverage(base, (), rel)


def _ideals_against(
    base: FinLattice, pair_test, include_empty_join: bool
) -> list[frozenset]:
    """The lower sets of the element order, as position masks, that pass ``pair_test``."""
    # positions list the elements by size, a linear extension of inclusion
    steps = ((1 << i, d ^ 1 << i) for i, d in enumerate(_down(base)))
    return [
        frozenset(base.elements[i] for i in _bits(d))
        for d in _canon_sorted(_lower_masks(steps, None), len(base))
        if (d & 1 or not include_empty_join) and pair_test(d)
    ]


def cov_ideals(
    c: Coverage, include_empty_join: bool = False
) -> tuple[FinLattice, dict]:
    """The lattice of cover-ideals ordered by inclusion.

    An ideal is a lower set D with: a covered by C, C a subset of D,
    implies a in D.  With ``include_empty_join`` only the ideals that
    contain bottom are kept: the ideals of ``c`` with the nullary cover
    of bottom added.
    Returns the lattice together with the ideal -> element map.
    """
    def closed(dm: int) -> bool:
        for a in range(len(c.base)):
            if dm >> a & 1:
                continue
            for cm in c._rel[a]:
                if cm & ~dm == 0:
                    return False
        return True

    ideals = _ideals_against(c.base, closed, include_empty_join)
    lat, to_elem = lattice_from_abstract(ideals, lambda i, j: i <= j)
    return lat, to_elem


def cov_ideals_from_generators(
    base: FinLattice,
    gen: Iterable[tuple[frozenset, Iterable[frozenset]]],
    include_empty_join: bool = False,
) -> list[frozenset]:
    """Ideals computed against the meet-stabilized generators alone.

    Closure under the generators suffices to characterize the ideals of
    the full saturation; the agreement is a test surface, not assumed.
    """
    pairs = _gen_masks(base, gen)
    if include_empty_join:
        pairs.add((base._pos(base.bot), 0))
    close = _ideal_closure(base, _down(base), pairs)

    def closed(dm: int) -> bool:
        return close(dm) == dm

    return _ideals_against(base, closed, False)


def downtri(c: Coverage, a: frozenset) -> frozenset:
    """The least cover-ideal containing ``a``: everything covered by {a}."""
    am = 1 << _position(c.base, a)
    return frozenset(e for e, ms in zip(c.base.elements, c._rel) if am in ms)


# -- polyposets ---------------------------------------------------------------


class PolyOrder:
    """A saturated relation between finite subsets of a carrier."""

    __slots__ = ("carrier", "generators", "rel", "_index")

    def __init__(self, carrier: tuple, generators, rel: set[tuple[int, int]]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "rel", frozenset(rel))
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(carrier)})

    def __setattr__(self, *a):
        raise AttributeError("PolyOrder is immutable")

    def mask(self, subset: Iterable) -> int:
        m = 0
        for x in subset:
            if x not in self._index:
                raise DomainError(f"{x!r} not in the carrier")
            m |= 1 << self._index[x]
        return m

    def unmask(self, m: int) -> frozenset:
        return frozenset(self.carrier[i] for i in range(len(self.carrier)) if m >> i & 1)

    def holds(self, left: Iterable, right: Iterable) -> bool:
        return (self.mask(left), self.mask(right)) in self.rel

    def pairs(self) -> list[tuple[frozenset, frozenset]]:
        out = [(self.unmask(l), self.unmask(r)) for l, r in self.rel]
        out.sort(key=canon_key)
        return out

    def __repr__(self) -> str:
        return f"PolyOrder({len(self.rel)} pairs on {len(self.carrier)} points)"


def _entailed(n: int, gen: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The pairs (L, R) of masks over ``n`` points that every model of
    ``gen`` satisfies.

    A model is a set v of points with no generator (l, r) having l in v
    and r outside it; it refutes (L, R) when L lies in v and R outside.
    Walking the submasks of v and of its complement removes those pairs,
    at most 4^n steps over all models.
    """
    full = (1 << n) - 1
    refuted = set()
    for v in range(full + 1):
        if any(not gl & ~v and not gr & v for gl, gr in gen):
            continue
        w = full ^ v
        l = v
        while True:
            r = w
            while True:
                refuted.add((l, r))
                if not r:
                    break
                r = (r - 1) & w
            if not l:
                break
            l = (l - 1) & v
    return {(l, r) for l in range(full + 1) for r in range(full + 1)} - refuted


def saturate_polyposet(
    carrier: Iterable, gen: Iterable[tuple], budgets: Budgets = DEFAULT_BUDGETS
) -> PolyOrder:
    """Least polyorder containing ``gen``.

    This is the least relation closed under monotonicity, reflexivity
    and the two one-sided transitivity forms (equivalent to the
    two-sided rule), and it equals Boolean entailment from the
    generators, which is computed here on their models.
    """
    carrier = tuple(sorted(set(carrier), key=canon_key))
    check_budget(budgets, "carrier", len(carrier))
    index = {x: i for i, x in enumerate(carrier)}
    gm = set()
    gens = []
    for left, right in gen:
        l = r = 0
        for x in left:
            if x not in index:
                raise DomainError(f"{x!r} not in the carrier")
            l |= 1 << index[x]
        for x in right:
            if x not in index:
                raise DomainError(f"{x!r} not in the carrier")
            r |= 1 << index[x]
        gm.add((l, r))
        gens.append((frozenset(left), frozenset(right)))
    rel = _entailed(len(carrier), gm)
    return PolyOrder(carrier, tuple(sorted(gens, key=canon_key)), rel)


def canonical_polyorder(
    carrier: Iterable, leq_pairs: Iterable[tuple], budgets: Budgets = DEFAULT_BUDGETS
) -> PolyOrder:
    """Saturation of singleton generators from an order relation."""
    return saturate_polyposet(
        carrier, [((a,), (b,)) for a, b in leq_pairs], budgets
    )


def polyposet_entails(p: PolyOrder, left: Iterable, right: Iterable) -> bool:
    """Membership in the saturated relation.

    The independent oracle (``tests/oracles.py``) is Boolean entailment
    of ``meet(left) <= join(right)`` under the generator relations; the
    saturation theorem says the two agree.
    """
    return p.holds(left, right)


def polyposet_coproduct(ps: list[PolyOrder], budgets: Budgets = DEFAULT_BUDGETS) -> PolyOrder:
    """Disjoint-union polyorder: a pair holds iff some component affirms
    its restriction to that component's carrier.

    The models of a disjoint union are the products of the components'
    models, so this is the saturation of the tagged union of the
    generators.  It has 4^n candidate pairs on the joint carrier of
    ``n`` points, so the saturation checks ``n`` against the
    ``carrier`` budget first.
    """
    gens = []
    carrier = []
    for i, p in enumerate(ps):
        carrier += [(i, x) for x in p.carrier]
        for l, r in p.generators:
            gens.append(
                (frozenset((i, x) for x in l), frozenset((i, x) for x in r))
            )
    return saturate_polyposet(carrier, gens, budgets)
