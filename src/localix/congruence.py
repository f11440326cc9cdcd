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
A congruence keeps those rows: equality, hashing, ``holds``,
``equivalent``, ``classes`` and the enumeration order read them, and
the pair set ``rel`` is built on first read, as ``FinLattice.elements``
is.  ``quotient`` reads S off the rows and builds the quotient on the
join-irreducibles outside S, through the ``FinLattice`` core.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_
from typing import Iterable

from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import DomainError, StructureError
from .lattice import FinLattice, LatticeHom, _glued, _lattice_on
from .order import _bits, _bits_set, _new

__all__ = [
    "OrderCongruence",
    "gen_order_congruence",
    "order_kernel",
    "quotient",
    "enumerate_order_congruences",
]


def _compose(r: list[int]) -> list[int]:
    """One transitivity step: row i gains the rows of its entries.  Equal
    rows gain the same, so each distinct row is composed once."""
    out, done = [], {}
    for ri in r:
        v = done.get(ri)
        if v is None:
            m = v = ri
            while m:  # _bits, inlined: this check runs on every congruence built
                low = m & -m
                v |= r[low.bit_length() - 1]
                m ^= low
            done[ri] = v
        out.append(v)
    return out


def _rule_rows(a: FinLattice) -> tuple:
    """The lattice's constants for the rules below: the order as rows (the
    least congruence, S empty); per join-irreducible k, its position and
    its up-row; per element the irreducibles k below it, as a tuple; and
    the meet rule's memo.  Built once per check or enumeration."""
    masks = list(a._at)
    order = _rows(masks, 0, {})
    irr = a._irreducibles()
    at = [a._at[j] for j in irr]
    below = [tuple(k for k, j in enumerate(irr) if not j & ~m) for m in masks]
    return order, at, [order[p] for p in at], below, {}


def _row_rule(r: list[int], ups: list[int], memo: dict | None = None) -> list[int]:
    """Meet rule: each row gains the up-set of the meet of the row, the
    intersection of the up-sets ``ups`` of the irreducibles that contain
    the row.  For a transitive relation containing the order this is
    meet-stability.  What a row gains depends on the row alone, so
    ``memo`` may carry it from one call to the next on the same ``ups``.
    """
    full = (1 << len(r)) - 1
    memo = {} if memo is None else memo
    out = []
    for ri in r:
        v = memo.get(ri)
        if v is None:
            v = memo[ri] = ri | reduce(and_, (u for u in ups if not ri & ~u), full)
        out.append(v)
    return out


def _column_rule(below: Iterable[Iterable[int]], r: list[int], cols: list[int]) -> list[int]:
    """Join rule: each column gains the down-set of the join of the column.

    ``below[a]`` lists the irreducibles k below element a.  The join of
    column c lies above irreducible k when c is in ``cols[k]``, the
    union of the rows above k: row k itself once the relation is
    transitive and contains the order, where this is join-closure.
    """
    full = (1 << len(r)) - 1
    col = cols.__getitem__
    return [ra | reduce(and_, map(col, ks), full) for ks, ra in zip(below, r)]


def _check_subsets(budgets: Budgets, a: FinLattice) -> None:
    """One structure per subset of J, each with a row per element: check
    both counts against the ``elements`` budget, before J is listed.
    Past the limit's bit length 2^|J| exceeds it anyway, so the first
    count is capped there and shown as a power, never in digits."""
    nj = len(set(a._least))
    check_budget(budgets, "elements", 1 << min(nj, budgets.elements.bit_length()), f"2^{nj}")
    check_budget(budgets, "elements", len(a) << nj)


def _subsets(a: FinLattice, irr: list[int]) -> list[int]:
    """Every subset S of the irreducibles ``irr`` as a point mask: entry s
    holds the points x with ``_least[x] == irr[k]`` for some bit k of s."""
    out, glued = [0], _glued(a._least)
    for j in irr:
        out += [s | glued[j] for s in out]
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
    order, at, ups, below, meets = rules
    if [ri | li for ri, li in zip(r, order)] != r:
        raise StructureError("congruence must contain the lattice order")
    if _compose(r) != r:
        raise StructureError("congruence must be transitive")
    if _row_rule(r, ups, meets) != r:
        raise StructureError("congruence must be meet-stable")
    if _column_rule(below, r, [r[p] for p in at]) != r:
        raise StructureError("lattice joins must remain joins")


class OrderCongruence:
    """A validated order-congruence, stored as its rows: bit j of row i
    says element i relates to element j, in ``base.elements`` order."""

    __slots__ = ("base", "_rows", "_rel")

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
        object.__setattr__(self, "_rows", tuple(r))
        object.__setattr__(self, "_rel", None)

    def __setattr__(self, *a):
        raise AttributeError("OrderCongruence is immutable")

    @property
    def rel(self) -> frozenset:
        """The related pairs of elements; built on first read."""
        if self._rel is None:
            object.__setattr__(self, "_rel", _rows_to_pairs(self.base, self._rows))
        return self._rel

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderCongruence)
            and self.base == other.base
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.base, self._rows))

    def __repr__(self) -> str:
        pairs = sum(r.bit_count() for r in self._rows)
        return f"OrderCongruence({pairs} pairs on {len(self.base)} elements)"

    def _position(self, x):
        m = self.base._mask_of(x)
        return None if m is None else self.base._at[m]

    def holds(self, a, b) -> bool:
        i, j = self._position(a), self._position(b)
        return i is not None and j is not None and self._rows[i] >> j & 1 == 1

    def equivalent(self, a, b) -> bool:
        i, j = self._position(a), self._position(b)
        if i is None or j is None:
            return False
        return self._rows[i] >> j & 1 == 1 and self._rows[j] >> i & 1 == 1

    def classes(self) -> list[frozenset]:
        """The equivalence classes, in ``base.elements`` order of their
        first members: in a preorder, i and j are equivalent exactly when
        their rows are equal."""
        members: dict[int, int] = {}
        for i, ri in enumerate(self._rows):
            members[ri] = members.get(ri, 0) | 1 << i
        elems = self.base.elements
        return [frozenset(compress(elems, _bits_set(m))) for m in members.values()]


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
    """The pairs ``(a, b)`` with ``f(a) <= f(b)``: row i holds the
    positions j whose image contains the image of i."""
    return OrderCongruence._of_rows(f.dom, _rows(list(f._image), 0, {}), _rule_rows(f.dom))


def quotient(a: FinLattice, c: OrderCongruence) -> tuple[FinLattice, LatticeHom]:
    """Quotient lattice and projection; the projection's kernel is ``c``.

    ``c`` is the relation of a set S of join-irreducibles; j lies in S
    when it relates to its lower cover, j minus its glued points.  The
    quotient is built on the rest, each labelled by its class
    (``lattice._lattice_on``), and the kernel is checked on rows."""
    if c.base != a:
        raise DomainError("congruence is not on this lattice")
    at, rows = a._at, c._rows
    kept = [(j, g) for j, g in _glued(a._least).items() if not rows[at[j]] >> at[j ^ g] & 1]
    by_row = dict(zip(dict.fromkeys(rows), c.classes()))  # both in order of first members
    labels = [by_row[rows[at[j]]] for j, _ in kept]
    points = [(g & -g).bit_length() - 1 for _, g in kept]
    lat, image = _lattice_on(labels, [j for j, _ in kept], points, list(at), len(a._least))
    q = _new(LatticeHom, a, lat, image)
    if order_kernel(q)._rows != c._rows:
        raise StructureError("projection kernel mismatch")
    return lat, q


def enumerate_order_congruences(
    a: FinLattice, budgets: Budgets = DEFAULT_BUDGETS
) -> list[OrderCongruence]:
    """All order-congruences on ``a``: one per subset S of J.

    There are 2^|J| of them with one row per element of ``a``; both
    counts are checked against the ``elements`` budget first.  They are
    sorted by size, then by the sorted reprs of their pairs.  No pair set
    is built: the pair of elements i and j is the digit of weight
    ``base ** (n^2 - 1 - rank)``, where ``rank`` is the dense rank of its
    repr among all n^2 pairs and ``base`` exceeds how often one repr
    occurs (2 when the reprs are distinct).  Among relations of one
    size, the sorted rank lists compare as the digit sums do in reverse:
    the smallest rank whose count differs decides, and the relation with
    more of it comes first.  Row i's share of a sum is memoized per row
    value.
    """
    _check_subsets(budgets, a)
    elem_reprs = list(map(repr, a.elements))
    reprs = [f"({x}, {y})" for x in elem_reprs for y in elem_reprs]  # repr((x, y))
    ranked = sorted(set(reprs))
    base = 2 if len(ranked) == len(reprs) else len(reprs) + 1
    weight = {t: base ** k for k, t in enumerate(reversed(ranked))}
    n = len(a)
    weights = [[weight[t] for t in reprs[i : i + n]] for i in range(0, n * n, n)]
    masks = list(a._at)
    above: dict[int, int] = {}
    rules = _rule_rows(a)
    out = [
        OrderCongruence._of_rows(a, _rows(masks, s, above), rules)
        for s in _subsets(a, a._irreducibles())
    ]
    shares: dict[tuple[int, int], int] = {}

    def key(c: OrderCongruence) -> tuple[int, int]:
        total = 0
        for i, ri in enumerate(c._rows):
            v = shares.get((i, ri))
            if v is None:
                v = shares[i, ri] = sum(compress(weights[i], _bits_set(ri)))
            total += v
        return sum(map(int.bit_count, c._rows)), -total

    out.sort(key=key)
    return out
