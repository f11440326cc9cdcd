"""Order-congruences on finite distributive lattices.

An order-congruence is a preorder refining the lattice order that is
meet-stable and for which lattice joins remain joins.  The closure
engine stores a relation as one int mask per row, over the element
positions of the lattice's shared index, so that exhaustive
enumeration stays tractable on lattices with a few dozen elements.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable

from .errors import DomainError, StructureError
from .lattice import FinLattice, LatticeHom, _bits, _index, _Index, lattice_from_abstract

__all__ = [
    "OrderCongruence",
    "gen_order_congruence",
    "order_kernel",
    "quotient",
    "enumerate_order_congruences",
]


def _compose(r: list[int]) -> list[int]:
    """One transitivity step: row i gains the rows of its entries."""
    out = []
    for ri in r:
        m = ri
        while m:  # _bits, inlined: the hottest loop of the enumeration
            low = m & -m
            ri |= r[low.bit_length() - 1]
            m ^= low
        out.append(ri)
    return out


def _row_rule(ix: _Index, r: list[int]) -> list[int]:
    """Meet rule: each row gains the up-set of the meet of the row, the
    intersection of the up-sets of the irreducibles that contain the row.
    For a transitive relation containing the order this is meet-stability.
    """
    ups = [ix.leq[ix.pos[j]] for j in ix.irr]
    full = (1 << len(r)) - 1
    return [ri | reduce(and_, (u for u in ups if not ri & ~u), full) for ri in r]


def _column_rule(ix: _Index, r: list[int]) -> list[int]:
    """Join rule: each column gains the down-set of the join of the column.

    The join of column c lies above irreducible k when c is in the union
    ``cols[k]`` of the rows above k.  For a transitive relation containing
    the order this is join-closure of every column.
    """
    full = (1 << len(r)) - 1
    cols = [reduce(or_, (r[a] for a in _bits(ix.leq[ix.pos[j]])), 0) for j in ix.irr]
    return [
        ra | reduce(and_, (cols[k] for k in _bits(ma)), full)
        for ma, ra in zip(ix.mask, r)
    ]


def _close(ix: _Index, rel: list[int]) -> list[int]:
    """Least order-congruence (as rows of position masks) containing ``rel``.

    Fixpoint of: contains leq; transitive; meet-stable; the set of
    elements below any fixed right-hand side is join-closed.
    """
    r = [ri | li for ri, li in zip(rel, ix.leq)]
    while True:
        nxt = _column_rule(ix, _row_rule(ix, _compose(r)))
        if nxt == r:
            return r
        r = nxt


def _rows_to_pairs(ix: _Index, r: list[int]) -> frozenset:
    elems = ix.elems
    return frozenset((elems[i], elems[j]) for i, ri in enumerate(r) for j in _bits(ri))


def _pairs_to_rows(ix: _Index, pairs: Iterable[tuple]) -> list[int]:
    r = [0] * len(ix.elems)
    for a, b in pairs:
        if a not in ix.pos or b not in ix.pos:
            raise DomainError(f"pair ({a!r}, {b!r}) mentions a non-element")
        r[ix.pos[a]] |= 1 << ix.pos[b]
    return r


class OrderCongruence:
    """A validated order-congruence, stored as its full pair set."""

    __slots__ = ("base", "rel")

    def __init__(self, base: FinLattice, rel: Iterable[tuple]):
        ix = _index(base)
        r = _pairs_to_rows(ix, rel)
        # one step of each closure rule, in order; a valid relation is
        # fixed by all four
        if [ri | li for ri, li in zip(r, ix.leq)] != r:
            raise StructureError("congruence must contain the lattice order")
        if _compose(r) != r:
            raise StructureError("congruence must be transitive")
        if _row_rule(ix, r) != r:
            raise StructureError("congruence must be meet-stable")
        if _column_rule(ix, r) != r:
            raise StructureError("lattice joins must remain joins")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rel", _rows_to_pairs(ix, r))

    def __setattr__(self, *a):
        raise AttributeError("OrderCongruence is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderCongruence)
            and self.base == other.base
            and self.rel == other.rel
        )

    def __hash__(self) -> int:
        return hash((self.base, self.rel))

    def __repr__(self) -> str:
        return f"OrderCongruence({len(self.rel)} pairs on {len(self.base)} elements)"

    def holds(self, a, b) -> bool:
        return (a, b) in self.rel

    def equivalent(self, a, b) -> bool:
        return (a, b) in self.rel and (b, a) in self.rel

    def classes(self) -> list[frozenset]:
        seen: set = set()
        out = []
        for x in self.base.elements:
            if x in seen:
                continue
            cls = frozenset(y for y in self.base.elements if self.equivalent(x, y))
            seen |= cls
            out.append(cls)
        return out


def gen_order_congruence(a: FinLattice, pairs: Iterable[tuple]) -> OrderCongruence:
    """Least order-congruence on ``a`` containing the given pairs."""
    ix = _index(a)
    r = _close(ix, _pairs_to_rows(ix, pairs))
    return OrderCongruence(a, _rows_to_pairs(ix, r))


def order_kernel(f: LatticeHom) -> OrderCongruence:
    """The pairs ``(a, b)`` with ``f(a) <= f(b)``."""
    return OrderCongruence(
        f.dom,
        [(a, b) for a in f.dom.elements for b in f.dom.elements if f(a) <= f(b)],
    )


def quotient(a: FinLattice, c: OrderCongruence) -> tuple[FinLattice, LatticeHom]:
    """Quotient lattice and projection; the projection's kernel is ``c``."""
    if c.base != a:
        raise DomainError("congruence is not on this lattice")
    classes = c.classes()
    cls_of = {}
    for cls in classes:
        for x in cls:
            cls_of[x] = cls

    def cleq(p, q):
        return c.holds(next(iter(p)), next(iter(q)))

    lat, to_elem = lattice_from_abstract(classes, cleq)
    q = LatticeHom(a, lat, {x: to_elem[cls_of[x]] for x in a.elements})
    if order_kernel(q).rel != c.rel:
        raise StructureError("projection kernel mismatch")
    return lat, q


def enumerate_order_congruences(a: FinLattice) -> list[OrderCongruence]:
    """All order-congruences on ``a``.

    Search: any congruence is a join of single-step ones, and a
    collapsed pair forces the collapse of each covering step between
    the two elements, so closures of cover collapses generate
    everything.  Breadth-first join closure over that generating set.
    """
    ix = _index(a)
    n = len(ix.elems)
    bottom = tuple(_close(ix, [0] * n))
    steps = []
    for low, high in a.element_poset().cover_pairs():
        hi, lo = ix.pos[high], ix.pos[low]
        g = [0] * n
        g[hi] = 1 << lo
        steps.append((hi, 1 << lo, _close(ix, g)))
    seen = {bottom}
    queue = [bottom]
    while queue:
        cur = queue.pop()
        for hi, lo_bit, theta in steps:
            if cur[hi] & lo_bit:
                continue
            nxt = tuple(_close(ix, [c | t for c, t in zip(cur, theta)]))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    out = [OrderCongruence(a, _rows_to_pairs(ix, r)) for r in seen]
    out.sort(key=lambda c: (len(c.rel), sorted(map(repr, c.rel))))
    return out
