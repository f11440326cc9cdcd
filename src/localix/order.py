"""Finite posets, monotone maps, and lower-set enumeration.

Conventions
-----------
Poset elements may be any hashable values (strings, ints, tuples,
frozensets).  A deterministic total tie-break order on mixed element
types is provided by :func:`canon_key`; every enumeration in the
package lists elements in that order, which is what makes serialized
output byte-stable across runs.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Hashable, Iterable, Iterator

from .budgets import Budgets, check_budget
from .errors import DomainError, StructureError

__all__ = [
    "canon_key",
    "FinPoset",
    "MonotoneMap",
    "lower_sets_of",
    "poset_isomorphic",
]


def canon_key(x: Any):
    """Total order key covering the element types used in this package."""
    if isinstance(x, bool):
        return (1, str(x))
    if isinstance(x, int):
        return (2, "", x)
    if isinstance(x, str):
        return (3, x)
    if isinstance(x, tuple):
        return (4, tuple(canon_key(e) for e in x))
    if isinstance(x, frozenset):
        return (5, len(x), tuple(sorted(canon_key(e) for e in x)))
    if isinstance(x, bytes):
        return (6, x)
    return (9, type(x).__name__, repr(x))


def _sorted(xs: Iterable[Hashable]) -> tuple:
    return tuple(sorted(xs, key=canon_key))


class FinPoset:
    """An immutable finite poset.

    ``leq`` is stored as the full reflexive-transitive relation; the
    constructor closes the given pairs (Warshall, on one int row per
    element) and rejects antisymmetry violations.
    """

    __slots__ = ("elements", "_leq", "_index", "_hash")

    def __init__(self, elements: Iterable[Hashable], leq_pairs: Iterable[tuple] = ()):
        elems = _sorted(set(elements))
        pos = {e: i for i, e in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]  # bit j of up[i]: elems[i] <= elems[j]
        for a, b in leq_pairs:
            if a not in pos or b not in pos:
                raise DomainError(f"leq pair ({a!r}, {b!r}) mentions a non-element")
            up[pos[a]] |= 1 << pos[b]
        for k in range(len(up)):  # Warshall: close through elems[k]
            bit, uk = 1 << k, up[k]
            for i, ui in enumerate(up):
                if ui & bit:
                    up[i] = ui | uk
        first: dict[int, int] = {}
        for i, ui in enumerate(up):  # two points share a closed row iff they form a cycle
            j = first.setdefault(ui, i)
            if j != i:
                a, b = elems[j], elems[i]
                raise StructureError(f"antisymmetry fails: {a!r} <= {b!r} <= {a!r}")
        rel = frozenset((a, elems[j]) for a, ui in zip(elems, up) for j in _bits(ui))
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_leq", rel)
        object.__setattr__(self, "_index", pos)
        object.__setattr__(self, "_hash", hash((elems, rel)))

    def __setattr__(self, *a):
        raise AttributeError("FinPoset is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinPoset)
            and self.elements == other.elements
            and self._leq == other._leq
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinPoset({len(self.elements)} elements, {len(self.cover_pairs())} covers)"

    def leq(self, a, b) -> bool:
        if a not in self._index or b not in self._index:
            raise DomainError(f"{a!r} or {b!r} not in poset")
        return (a, b) in self._leq

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def leq_pairs(self) -> frozenset:
        return self._leq

    def down(self, a) -> frozenset:
        """Principal lower set of ``a``."""
        return frozenset(x for x in self.elements if self.leq(x, a))

    def up(self, a) -> frozenset:
        return frozenset(x for x in self.elements if self.leq(a, x))

    def cover_pairs(self) -> tuple:
        """Hasse edges (a, b) with b covering a."""
        out = []
        for a in self.elements:
            for b in self.elements:
                if not self.lt(a, b):
                    continue
                if any(self.lt(a, c) and self.lt(c, b) for c in self.elements):
                    continue
                out.append((a, b))
        return tuple(out)

    def is_antichain(self) -> bool:
        return all(a == b or not self.leq(a, b) for a in self.elements for b in self.elements)

    def maximal(self) -> tuple:
        return tuple(a for a in self.elements if not any(self.lt(a, b) for b in self.elements))

    def minimal(self) -> tuple:
        return tuple(a for a in self.elements if not any(self.lt(b, a) for b in self.elements))

    def is_directed(self) -> bool:
        """Every pair of elements has an upper bound."""
        return all(
            any(self.leq(a, c) and self.leq(b, c) for c in self.elements)
            for a in self.elements
            for b in self.elements
        )

    def linear_extension(self) -> tuple:
        """A canonical linear extension (stable within canon_key order)."""
        remaining = list(self.elements)
        out = []
        placed: set = set()
        while remaining:
            for x in remaining:
                if all(y in placed for y in self.down(x) if y != x):
                    out.append(x)
                    placed.add(x)
                    remaining.remove(x)
                    break
            else:  # pragma: no cover - unreachable for a valid poset
                raise StructureError("cycle detected in linear extension")
        return tuple(out)

    def subposet(self, keep: Iterable[Hashable]) -> "FinPoset":
        keep = set(keep)
        for x in keep:
            if x not in self._index:
                raise DomainError(f"{x!r} not in poset")
        return FinPoset(keep, [(a, b) for (a, b) in self._leq if a in keep and b in keep])

    def relabel(self, f: Callable[[Hashable], Hashable]) -> "FinPoset":
        labels = {x: f(x) for x in self.elements}
        if len(set(labels.values())) != len(labels):
            raise StructureError("relabeling is not injective")
        return FinPoset(labels.values(), [(labels[a], labels[b]) for a, b in self._leq])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": [_label(e) for e in self.elements],
                "leq": sorted(
                    [[_label(a), _label(b)] for a, b in self._leq if a != b]
                ),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FinPoset":
        data = json.loads(text)
        elems = [_unlabel(e) for e in data["elements"]]
        pairs = [(_unlabel(a), _unlabel(b)) for a, b in data["leq"]]
        return FinPoset(elems, pairs)

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram in DOT form: covering edges only, bottom-up."""
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        ids = {e: f"n{i}" for i, e in enumerate(self.elements)}
        for e in self.elements:
            lines.append(f'  {ids[e]} [label="{_label(e)}"];')
        for a, b in self.cover_pairs():
            lines.append(f"  {ids[a]} -> {ids[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _label(e) -> str:
    if isinstance(e, str):
        return e
    if isinstance(e, frozenset):
        return "{" + ",".join(_label(x) for x in _sorted(e)) + "}"
    if isinstance(e, tuple):
        return "(" + ",".join(_label(x) for x in e) + ")"
    return repr(e)


def _unlabel(s: str):
    # JSON round-trips use string labels; nested structure is re-parsed
    # only for the flat cases the package serializes.
    if not isinstance(s, str):
        return s
    if s.startswith("{") and s.endswith("}"):
        inner = s[1:-1]
        return frozenset(_unlabel(p) for p in _split_top(inner)) if inner else frozenset()
    if s.startswith("(") and s.endswith(")"):
        inner = s[1:-1]
        return tuple(_unlabel(p) for p in _split_top(inner))
    if s.lstrip("-").isdigit():
        return int(s)
    return s


def _split_top(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "{(":
            depth += 1
        elif ch in "})":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


class MonotoneMap:
    """A validated monotone map between finite posets."""

    __slots__ = ("dom", "cod", "graph")

    def __init__(self, dom: FinPoset, cod: FinPoset, graph: dict):
        if set(graph) != set(dom.elements):
            raise DomainError("graph domain does not match poset elements")
        for v in graph.values():
            if v not in cod:
                raise DomainError(f"image {v!r} not in codomain")
        for a in dom.elements:
            for b in dom.elements:
                if dom.leq(a, b) and not cod.leq(graph[a], graph[b]):
                    raise StructureError(f"not monotone at ({a!r}, {b!r})")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "graph", dict(graph))

    def __setattr__(self, *a):
        raise AttributeError("MonotoneMap is immutable")

    def __call__(self, x):
        try:
            return self.graph[x]
        except KeyError:
            raise DomainError(f"{x!r} not in domain") from None


def _bits(m: int):
    """Positions of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _canon_mask_key(n: int) -> Callable[[int], tuple]:
    """Sort key on masks over ``n`` points in ``canon_key`` order that lists
    their point sets in ``canon_key`` order: by size, then by bit positions
    (in the reversed bit string the lowest differing one is the most significant)."""
    width = f"0{n}b"
    return lambda m: (m.bit_count(), -int(format(m, width)[::-1], 2))


def _lower_masks(steps: Iterable[tuple[int, int]], budgets: Budgets | None) -> list[int]:
    """The masks of all lower sets of a poset, grown one point at a time.

    ``steps`` yields each point's bit with the mask of the points strictly
    below it, along a linear extension: a point joins a lower set once
    everything strictly below it is present.  The list only grows, so
    the ``elements`` budget is checked after each point.
    """
    downs = [0]
    for bit, below in steps:
        downs += [d | bit for d in downs if not below & ~d]
        if budgets is not None:
            check_budget(budgets, "elements", len(downs))
    return downs


def lower_sets_of(p: FinPoset, budgets: Budgets | None = None) -> list[frozenset]:
    """All lower (downward-closed) subsets of ``p``, canonically ordered.

    With ``budgets``, their number is checked against the ``elements``
    budget while they are enumerated.
    """
    pos, elems = p._index, p.elements
    below = [0] * len(elems)
    for a, b in p._leq:
        if a != b:
            below[pos[b]] |= 1 << pos[a]
    # a point has fewer points below it than anything above it
    order = sorted(range(len(elems)), key=lambda i: below[i].bit_count())
    masks = _lower_masks(((1 << i, below[i]) for i in order), budgets)
    masks.sort(key=_canon_mask_key(len(elems)))
    return [frozenset(elems[i] for i in _bits(m)) for m in masks]


def poset_isomorphic(p: FinPoset, q: FinPoset) -> bool:
    """Backtracking isomorphism test with degree-profile pruning."""
    if len(p) != len(q):
        return False

    def profile(poset: FinPoset, x):
        return (len(poset.down(x)), len(poset.up(x)))

    pprof = {x: profile(p, x) for x in p.elements}
    qprof = {y: profile(q, y) for y in q.elements}
    if sorted(pprof.values()) != sorted(qprof.values()):
        return False

    order = sorted(p.elements, key=lambda x: (pprof[x], canon_key(x)))

    def extend(i: int, assign: dict) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in q.elements:
            if y in assign.values() or qprof[y] != pprof[x]:
                continue
            ok = True
            for x2, y2 in assign.items():
                if p.leq(x, x2) != q.leq(y, y2) or p.leq(x2, x) != q.leq(y2, y):
                    ok = False
                    break
            if ok:
                assign[x] = y
                if extend(i + 1, assign):
                    return True
                del assign[x]
        return False

    return extend(0, {})
