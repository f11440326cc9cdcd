"""Order-congruences on finite distributive lattices.

An order-congruence is a preorder refining the lattice order that is
meet-stable and for which lattice joins remain joins.  On the shared
index, where an element is its mask of join-irreducibles J, they are
exactly the relations "a minus b lies inside S", one for each subset S
of J (Birkhoff duality; Davey & Priestley, *Introduction to Lattices
and Order*, ch. 5).  Relations are built from that closed form as one
int mask per row, over the element positions of the index, and every
relation, enumerated or passed to the constructor, is re-checked on
its rows with one step of each closure rule; the rule fixpoint itself
is the test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterable

from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
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
        while m:  # _bits, inlined: this check runs on every congruence built
            low = m & -m
            ri |= r[low.bit_length() - 1]
            m ^= low
        out.append(ri)
    return out


def _rule_rows(ix: _Index) -> tuple[list[int], list[int]]:
    """The lattice's constants for the two rules below: the position and
    the up-row of each irreducible, in ``ix.irr`` order.  Built once per
    check or enumeration."""
    at = [ix.pos[j] for j in ix.irr]
    return at, [ix.leq[p] for p in at]


def _row_rule(r: list[int], ups: list[int]) -> list[int]:
    """Meet rule: each row gains the up-set of the meet of the row, the
    intersection of the up-sets ``ups`` of the irreducibles that contain
    the row.  For a transitive relation containing the order this is
    meet-stability.
    """
    full = (1 << len(r)) - 1
    return [ri | reduce(and_, (u for u in ups if not ri & ~u), full) for ri in r]


def _column_rule(ix: _Index, r: list[int], cols: list[int]) -> list[int]:
    """Join rule: each column gains the down-set of the join of the column.

    The join of column c lies above irreducible k when c is in ``cols[k]``,
    the union of the rows above k: row k itself once the relation is
    transitive and contains the order, where this is join-closure.
    """
    full = (1 << len(r)) - 1
    return [
        ra | reduce(and_, (cols[k] for k in _bits(ma)), full)
        for ma, ra in zip(ix.mask, r)
    ]


def _check_subsets(budgets: Budgets, ix: _Index) -> None:
    """One structure per subset of J, each with a row per element: check
    both counts against the ``elements`` budget."""
    check_budget(budgets, "elements", 2 ** len(ix.irr))
    check_budget(budgets, "elements", len(ix.elems) << len(ix.irr))


def _rows(ix: _Index, s: int, above: dict) -> list[int]:
    """The order-congruence of ``s`` as rows: i relates to j when
    mask[i] minus mask[j] lies in ``s``.  ``above`` caches, per mask t,
    the positions whose mask contains t."""
    mask = ix.mask
    out = []
    for mi in mask:
        t = mi & ~s
        r = above.get(t)
        if r is None:
            r = above[t] = sum(1 << j for j, mj in enumerate(mask) if not t & ~mj)
        out.append(r)
    return out


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


def _certify(ix: _Index, r: list[int], rules: tuple) -> None:
    """One step of each closure rule, in order; a valid relation is fixed
    by all four.  ``rules`` is ``_rule_rows(ix)``."""
    at, ups = rules
    if [ri | li for ri, li in zip(r, ix.leq)] != r:
        raise StructureError("congruence must contain the lattice order")
    if _compose(r) != r:
        raise StructureError("congruence must be transitive")
    if _row_rule(r, ups) != r:
        raise StructureError("congruence must be meet-stable")
    if _column_rule(ix, r, [r[p] for p in at]) != r:
        raise StructureError("lattice joins must remain joins")


class OrderCongruence:
    """A validated order-congruence, stored as its full pair set."""

    __slots__ = ("base", "rel")

    def __init__(self, base: FinLattice, rel: Iterable[tuple]):
        ix = _index(base)
        self._certified(base, ix, _pairs_to_rows(ix, rel), _rule_rows(ix))

    @classmethod
    def _of_rows(
        cls, base: FinLattice, ix: _Index, r: list[int], rules: tuple
    ) -> "OrderCongruence":
        c = object.__new__(cls)
        c._certified(base, ix, r, rules)
        return c

    def _certified(self, base: FinLattice, ix: _Index, r: list[int], rules: tuple) -> None:
        _certify(ix, r, rules)
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
    """Least order-congruence on ``a`` containing the given pairs: the one
    whose S joins the differences a minus b of the pairs."""
    ix = _index(a)
    mask = ix.mask
    s = 0
    for mi, ri in zip(mask, _pairs_to_rows(ix, pairs)):
        for j in _bits(ri):
            s |= mi & ~mask[j]
    return OrderCongruence._of_rows(a, ix, _rows(ix, s, {}), _rule_rows(ix))


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


def enumerate_order_congruences(
    a: FinLattice, budgets: Budgets = DEFAULT_BUDGETS
) -> list[OrderCongruence]:
    """All order-congruences on ``a``: one per subset S of J.

    There are 2^|J| of them with one row per element of ``a``; both
    counts are checked against the ``elements`` budget first.  They are
    sorted by size, then by the sorted reprs of their pairs, compared
    through the dense rank of each pair's repr among all n^2 pairs.
    """
    ix = _index(a)
    _check_subsets(budgets, ix)
    pairs = [(x, y) for x in ix.elems for y in ix.elems]
    reprs = list(map(repr, pairs))
    dense = {t: k for k, t in enumerate(sorted(set(reprs)))}
    rank = {p: dense[t] for p, t in zip(pairs, reprs)}.__getitem__
    above: dict[int, int] = {}
    rules = _rule_rows(ix)
    out = [
        OrderCongruence._of_rows(a, ix, _rows(ix, s, above), rules)
        for s in range(1 << len(ix.irr))
    ]
    out.sort(key=lambda c: (len(c.rel), sorted(map(rank, c.rel))))
    return out
