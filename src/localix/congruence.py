"""Order-congruences on finite distributive lattices.

An order-congruence is a preorder refining the lattice order that is
meet-stable and for which lattice joins remain joins.  They are exactly
the relations "a minus b lies inside S", one for each set S of
join-irreducibles J (Birkhoff duality; Davey & Priestley, *Introduction
to Lattices and Order*, ch. 5).  On the lattice's point masks S is the
mask of the points x whose least element ``_least[x]`` lies in S, so a
relates to b when the points of a outside b all lie in that mask.
Relations are built from that closed form as one int mask per row, over
the element positions, and every relation, enumerated or passed to the
constructor, is re-checked on its rows with one step of each closure
rule; the rule fixpoint itself is the test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Iterable

from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import DomainError, StructureError
from .lattice import FinLattice, LatticeHom, _bits, lattice_from_abstract

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


def _rule_rows(a: FinLattice) -> tuple[list[int], list[int], list[int]]:
    """The lattice's constants for the rules below: the order as rows (the
    least congruence, S empty), and per spectrum point x the position and
    the up-row of ``_least[x]``.  Built once per check or enumeration."""
    order = _rows(list(a._at), 0, {})
    at = [a._at[j] for j in a._least]
    return order, at, [order[p] for p in at]


def _row_rule(r: list[int], ups: list[int]) -> list[int]:
    """Meet rule: each row gains the up-set of the meet of the row, the
    intersection of the up-sets ``ups`` of the irreducibles that contain
    the row.  For a transitive relation containing the order this is
    meet-stability.
    """
    full = (1 << len(r)) - 1
    return [ri | reduce(and_, (u for u in ups if not ri & ~u), full) for ri in r]


def _column_rule(masks: Iterable[int], r: list[int], cols: list[int]) -> list[int]:
    """Join rule: each column gains the down-set of the join of the column.

    Bit k of ``masks[a]`` says irreducible k lies below element a
    (``_certify`` passes point masks: bit k is a point, standing for the
    irreducible ``_least[k]``).  The join of column c lies above
    irreducible k when c is in ``cols[k]``, the union of the rows above
    k: row k itself once the relation is transitive and contains the
    order, where this is join-closure.
    """
    full = (1 << len(r)) - 1
    return [ra | reduce(and_, (cols[k] for k in _bits(ma)), full) for ma, ra in zip(masks, r)]


def _check_subsets(budgets: Budgets, a: FinLattice) -> None:
    """One structure per subset of J, each with a row per element: check
    both counts against the ``elements`` budget, before J is listed."""
    nj = len(set(a._least))
    check_budget(budgets, "elements", 2 ** nj)
    check_budget(budgets, "elements", len(a) << nj)


def _subsets(a: FinLattice, irr: list[int]) -> list[int]:
    """Every subset S of the irreducibles ``irr`` as a point mask: entry s
    holds the points x with ``_least[x] == irr[k]`` for some bit k of s."""
    out = [0]
    for j in irr:
        glued = sum(1 << x for x, k in enumerate(a._least) if k == j)
        out += [s | glued for s in out]
    return out


def _rows(masks: list[int], s: int, above: dict) -> list[int]:
    """The order-congruence of the point mask ``s`` as rows: i relates to
    j when the points of masks[i] outside masks[j] lie in ``s``.
    ``above`` caches, per mask t, the positions whose mask contains t."""
    out = []
    for mi in masks:
        t = mi & ~s
        r = above.get(t)
        if r is None:
            r = above[t] = sum(1 << j for j, mj in enumerate(masks) if not t & ~mj)
        out.append(r)
    return out


def _rows_to_pairs(a: FinLattice, r: list[int]) -> frozenset:
    elems = a.elements
    return frozenset((elems[i], elems[j]) for i, ri in enumerate(r) for j in _bits(ri))


def _pairs_to_rows(a: FinLattice, pairs: Iterable[tuple]) -> list[int]:
    r = [0] * len(a)
    for x, y in pairs:
        mx, my = a._mask_of(x), a._mask_of(y)
        if mx is None or my is None:
            raise DomainError(f"pair ({x!r}, {y!r}) mentions a non-element")
        r[a._at[mx]] |= 1 << a._at[my]
    return r


def _certify(a: FinLattice, r: list[int], rules: tuple) -> None:
    """One step of each closure rule, in order; a valid relation is fixed
    by all four.  ``rules`` is ``_rule_rows(a)``."""
    order, at, ups = rules
    if [ri | li for ri, li in zip(r, order)] != r:
        raise StructureError("congruence must contain the lattice order")
    if _compose(r) != r:
        raise StructureError("congruence must be transitive")
    if _row_rule(r, ups) != r:
        raise StructureError("congruence must be meet-stable")
    if _column_rule(a._at, r, [r[p] for p in at]) != r:
        raise StructureError("lattice joins must remain joins")


class OrderCongruence:
    """A validated order-congruence, stored as its full pair set."""

    __slots__ = ("base", "rel")

    def __init__(self, base: FinLattice, rel: Iterable[tuple]):
        self._certified(base, _pairs_to_rows(base, rel), _rule_rows(base))

    @classmethod
    def _of_rows(cls, base: FinLattice, r: list[int], rules: tuple) -> "OrderCongruence":
        c = object.__new__(cls)
        c._certified(base, r, rules)
        return c

    def _certified(self, base: FinLattice, r: list[int], rules: tuple) -> None:
        _certify(base, r, rules)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "rel", _rows_to_pairs(base, r))

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
    masks = list(a._at)
    s = 0
    for mi, ri in zip(masks, _pairs_to_rows(a, pairs)):
        for j in _bits(ri):
            s |= mi & ~masks[j]
    return OrderCongruence._of_rows(a, _rows(masks, s, {}), _rule_rows(a))


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
    _check_subsets(budgets, a)
    pairs = [(x, y) for x in a.elements for y in a.elements]
    reprs = list(map(repr, pairs))
    dense = {t: k for k, t in enumerate(sorted(set(reprs)))}
    rank = {p: dense[t] for p, t in zip(pairs, reprs)}.__getitem__
    masks = list(a._at)
    above: dict[int, int] = {}
    rules = _rule_rows(a)
    out = [
        OrderCongruence._of_rows(a, _rows(masks, s, above), rules)
        for s in _subsets(a, a._irreducibles())
    ]
    out.sort(key=lambda c: (len(c.rel), sorted(map(rank, c.rel))))
    return out
