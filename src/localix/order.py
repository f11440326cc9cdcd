"""Finite posets, monotone maps, and lower-set enumeration.

Conventions
-----------
Poset elements may be any hashable values (strings, ints, tuples,
frozensets).  A deterministic total tie-break order on mixed element
types is provided by :func:`canon_key`; every enumeration in the
package lists elements in that order, which is what makes serialized
output byte-stable across runs.

Serialization.  ``_encode`` and ``_decode`` are the package's one JSON
value codec: str, int, bool and None are JSON scalars, a tuple is an
array and a frozenset is ``{"set": [...]}``.  Every ``to_json`` and
``from_json`` (posets, lattices, presentations, relations, diagrams)
goes through it, so labels round-trip exactly, and a poset is always
``{"elements": [...], "pairs": [[a, b], ...]}`` (``_poset_data``).
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import repeat
from operator import itemgetter, or_
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
    """An immutable finite poset, stored as closed int rows.

    Bit j of ``_up[i]`` says ``elements[i] <= elements[j]``, and ``_down``
    is its transpose.  The constructor closes the given pairs on the rows
    (``_close``) and rejects antisymmetry violations; every query reads
    the rows.  The Hasse covers of a point are its strict up-row minus the
    strict up-rows of the points in it.
    """

    __slots__ = ("elements", "_up", "_down", "_index", "_hash")

    def __init__(self, elements: Iterable[Hashable], leq_pairs: Iterable[tuple] = ()):
        elems = _sorted(set(elements))
        pos = {e: i for i, e in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]
        down = list(up)
        for a, b in leq_pairs:
            if a not in pos or b not in pos:
                raise DomainError(f"leq pair ({a!r}, {b!r}) mentions a non-element")
            i, j = pos[a], pos[b]
            up[i] |= 1 << j
            down[j] |= 1 << i
        _close(up, reversed(range(len(up))))  # canon order often extends the order
        first: dict[int, int] = {}
        for i, ui in enumerate(up):  # two points share a closed row iff they form a cycle
            j = first.setdefault(ui, i)
            if j != i:
                a, b = elems[j], elems[i]
                raise StructureError(f"antisymmetry fails: {a!r} <= {b!r} <= {a!r}")
        _close(down, sorted(range(len(up)), key=lambda i: -up[i].bit_count()))
        self._fill(elems, up, down)

    def _fill(self, elems: tuple, up: Iterable[int], down: Iterable[int]) -> None:
        """The constructor's core: ``elems`` in ``canon_key`` order, their closed rows."""
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elems)})
        object.__setattr__(self, "_hash", hash((elems, self._up)))

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
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinPoset({len(self.elements)} elements, {len(self.cover_pairs())} covers)"

    def _pos(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"{x!r} not in poset") from None

    def _set(self, m: int) -> frozenset:
        return frozenset(self.elements[j] for j in _bits(m))

    def leq(self, a, b) -> bool:
        if a not in self._index or b not in self._index:
            raise DomainError(f"{a!r} or {b!r} not in poset")
        return bool(self._up[self._index[a]] >> self._index[b] & 1)

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def leq_pairs(self) -> frozenset:
        return frozenset(_pairs(self.elements, self._up))

    def down(self, a) -> frozenset:
        """Principal lower set of ``a``."""
        return self._set(self._down[self._pos(a)])

    def up(self, a) -> frozenset:
        return self._set(self._up[self._pos(a)])

    def _strict(self) -> list[int]:
        return [u ^ 1 << i for i, u in enumerate(self._up)]

    def _cover_rows(self) -> list[int]:
        """Row i masks the points covering ``elements[i]``."""
        strict = self._strict()
        return [s & ~reduce(or_, (strict[j] for j in _bits(s)), 0) for s in strict]

    def cover_pairs(self) -> tuple:
        """Hasse edges (a, b) with b covering a."""
        return tuple(_pairs(self.elements, self._cover_rows()))

    def is_antichain(self) -> bool:
        return not any(self._strict())

    def maximal(self) -> tuple:
        return tuple(a for a, s in zip(self.elements, self._strict()) if not s)

    def minimal(self) -> tuple:
        return tuple(a for i, (a, d) in enumerate(zip(self.elements, self._down)) if d == 1 << i)

    def is_directed(self) -> bool:
        """Every pair of elements has an upper bound: there is a top, or no element."""
        return not self.elements or (1 << len(self.elements)) - 1 in self._down

    def linear_extension(self) -> tuple:
        """A canonical linear extension: next comes the first point whose lower set is placed."""
        out, placed = [], 0
        for _ in self.elements:
            i = next(i for i, d in enumerate(self._down) if d & ~placed == 1 << i)
            out.append(self.elements[i])
            placed |= 1 << i
        return tuple(out)

    def subposet(self, keep: Iterable[Hashable]) -> "FinPoset":
        keep = set(keep)
        mask = sum(1 << self._pos(x) for x in keep)
        rows = [u & mask if mask >> i & 1 else 0 for i, u in enumerate(self._up)]
        return FinPoset(keep, _pairs(self.elements, rows))

    def relabel(self, f: Callable[[Hashable], Hashable]) -> "FinPoset":
        labels = [f(x) for x in self.elements]
        if len(set(labels)) != len(labels):
            raise StructureError("relabeling is not injective")
        return FinPoset(labels, _pairs(labels, self._cover_rows()))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(_poset_data(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FinPoset":
        return _poset_from_data(json.loads(text))

    def to_dot(self, name: str = "poset") -> str:
        """Hasse diagram in DOT form: covering edges only, bottom-up."""
        return _dot(name, self.elements, self._cover_rows())


def _pairs(labels, rows: Iterable[int]) -> Iterator[tuple]:
    """``(labels[i], labels[j])`` for each bit j of each ``rows[i]``, in row order."""
    return ((labels[i], labels[j]) for i, r in enumerate(rows) for j in _bits(r))


def _close(rows: list[int], order: Iterable[int]) -> None:
    """Close reflexive int rows (bit j of ``rows[i]``: an edge i -> j) in
    place, row by row in ``order``.  A row walks the rows it reaches and
    takes one closed earlier whole, so if every edge points to an earlier
    row this is one step per edge, and at worst a walk per row."""
    done = 0
    for i in order:
        row = rows[i]
        seen = 1 << i
        todo = row & ~seen
        while todo:
            low = todo & -todo
            rj = rows[low.bit_length() - 1]
            row |= rj
            seen |= rj if done & low else low
            todo = row & ~seen
        rows[i] = row
        done |= 1 << i


def _dot(name: str, elements: Iterable[Hashable], covers: Iterable[int]) -> str:
    """Hasse diagram in DOT form, bottom-up: node ``n{i}`` is the i-th
    element, with an edge to each position in its cover row."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{_escaped(_label(e))}"];' for i, e in enumerate(elements)]
    lines += [f"  n{i} -> n{j};" for i, c in enumerate(covers) for j in _bits(c)]
    return "\n".join(lines + ["}"]) + "\n"


def _label(e) -> str:
    """A DOT node label: the string itself, sets in braces and tuples in parentheses."""
    if isinstance(e, str):
        return e
    if isinstance(e, frozenset):
        return "{" + ",".join(_label(x) for x in _sorted(e)) + "}"
    if isinstance(e, tuple):
        return "(" + ",".join(_label(x) for x in e) + ")"
    return repr(e)


def _escaped(label: str) -> str:
    """``label`` as the inside of a quoted DOT string: backslashes and
    double quotes escaped."""
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _encode(x):
    """The JSON value of a label: a tuple (or list) is an array, a
    frozenset is ``{"set": [...]}`` in ``canon_key`` order, and anything
    else is left to ``json``, which writes str, int, bool and None as
    scalars and raises TypeError on a value it cannot hold."""
    if isinstance(x, (tuple, list)):
        return list(map(_encode, x))
    if isinstance(x, frozenset):
        return {"set": list(map(_encode, _sorted(x)))}
    return x


# the JSON types of the encoder's arrays and sets
_COMPOUND = frozenset((list, dict))


def _decode(v):
    """The inverse of ``_encode``: arrays come back as tuples.  A label is
    hashable, so no label is itself an array or object, and only the
    encoder's arrays and sets need telling apart."""
    if isinstance(v, list):
        if _COMPOUND.isdisjoint(map(type, v)):  # an array of scalars, in one pass
            return tuple(v)
        return tuple(map(_decode, v))
    if isinstance(v, dict):
        return frozenset(map(_decode, v["set"]))
    return v


def _poset_data(p: FinPoset) -> dict:
    """The JSON shape of a poset: encoded elements and its strict pairs, in
    ``canon_key`` order."""
    labels = list(map(_encode, p.elements))
    return {"elements": labels, "pairs": list(_pairs(labels, p._strict()))}


def _poset_from_data(data: dict) -> FinPoset:
    """The poset of a ``_poset_data`` shape; any pairs generating the order will do."""
    return FinPoset(_decode(data["elements"]), _decode(data["pairs"]))


class MonotoneMap:
    """A validated monotone map between finite posets."""

    __slots__ = ("dom", "cod", "graph")

    def __init__(self, dom: FinPoset, cod: FinPoset, graph: dict):
        if set(graph) != set(dom.elements):
            raise DomainError("graph domain does not match poset elements")
        for v in graph.values():
            if v not in cod:
                raise DomainError(f"image {v!r} not in codomain")
        for a, b in _pairs(dom.elements, dom._up):
            if not cod.leq(graph[a], graph[b]):
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


def _bits_set(m: int) -> Iterable[bool]:
    """Whether bit i of ``m`` is set, for i = 0, 1, ..., without a shift per bit."""
    return map("1".__eq__, reversed(f"{m:b}"))


def _new(cls: type, *core):
    """An instance of ``cls`` made by its constructor's core ``_fill(*core)``."""
    obj = object.__new__(cls)
    obj._fill(*core)
    return obj


_REVERSED = itemgetter(slice(None, None, -1))
# each byte's complement with its bits in reverse order
_BYTE_KEYS = bytes(int(_REVERSED(f"{255 ^ b:08b}"), 2) for b in range(256))
# a bit string's "0" and "1" as bytes 0 and 1, true or false for ``compress``
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _canon_sorted(masks: Iterable[int], n: int) -> list[int]:
    """The masks over ``n`` points in ``canon_key`` order, sorted so that
    their point sets are in ``canon_key`` order: by size, then by bit
    positions.  Two sets of one size first differ at the lowest bit of
    their symmetric difference, and the one holding it comes first: it
    is the one whose complement, read as a bit string from bit 0 down,
    is the smaller number.  That string is the mask's bytes,
    little-endian, each byte complemented and its bits reversed by a
    256-byte table, and bytes of one length compare as those numbers.  So
    the masks are sorted by it and then by size, both stable sorts.  The
    keys come from C-level maps, with no Python call per mask."""
    width = (n + 7) // 8
    masks = list(masks)
    keys = map(int.to_bytes, masks, repeat(width), repeat("little"))
    masks.sort(key=dict(zip(masks, map(bytes.translate, keys, repeat(_BYTE_KEYS)))).__getitem__)
    masks.sort(key=int.bit_count)
    return masks


def _selectors(masks: Iterable[int], n: int) -> Iterator[bytes]:
    """Each mask over ``n`` points as bytes whose first ``n`` are 1 at the
    set bits and 0 elsewhere: a selector for ``compress`` on ``n`` labels,
    made by C-level maps.  It is ``bin`` of the mask with bit n set,
    reversed, so "1b0" trails the n bits and ``compress`` never reaches it."""
    rows = map(_REVERSED, map(bin, map((1 << n).__or__, masks)))
    return map(bytes.translate, map(str.encode, rows), repeat(_BIT_BYTES))


def _lower_masks(
    steps: Iterable[tuple[int, int]], budgets: Budgets | None, cap: int | None = None
) -> list[int]:
    """The masks of all lower sets of a poset, grown one point at a time.

    ``steps`` yields each point's bit (or the mask of a class of points
    that come together) with the mask of the points strictly below it,
    along a linear extension: a point joins a lower set once everything
    strictly below it is present.  The list only grows, so the
    ``elements`` budget is checked after each point, and with ``cap`` the
    listing stops at the first point that takes it past ``cap``.
    """
    downs = [0]
    for bit, below in steps:
        downs += [d | bit for d in downs if below & d == below]
        if budgets is not None:
            check_budget(budgets, "elements", len(downs))
        if cap is not None and len(downs) > cap:
            break
    return downs


def _lower_set_masks(p: FinPoset, budgets: Budgets | None) -> list[int]:
    """The point masks of the lower sets of ``p``, unordered (``_lower_masks``)."""
    # a point has fewer points below it than anything above it
    order = sorted(range(len(p)), key=lambda i: p._down[i].bit_count())
    return _lower_masks(((1 << i, p._down[i] ^ 1 << i) for i in order), budgets)


def lower_sets_of(p: FinPoset, budgets: Budgets | None = None) -> list[frozenset]:
    """All lower (downward-closed) subsets of ``p``, canonically ordered.

    With ``budgets``, their number is checked against the ``elements``
    budget while they are enumerated.
    """
    return [p._set(m) for m in _canon_sorted(_lower_set_masks(p, budgets), len(p))]


def poset_isomorphic(p: FinPoset, q: FinPoset) -> bool:
    """Backtracking isomorphism test with degree-profile pruning."""
    pprof, qprof = (
        [(d.bit_count(), u.bit_count()) for d, u in zip(x._down, x._up)] for x in (p, q)
    )
    if sorted(pprof) != sorted(qprof):
        return False
    order = sorted(range(len(p)), key=lambda i: pprof[i])  # canon_key order within a profile

    def extend(k: int, assign: dict) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in range(len(q)):
            if j in assign.values() or qprof[j] != pprof[i]:
                continue
            if all(
                (p._up[i] >> i2 & 1) == (q._up[j] >> j2 & 1)
                and (p._up[i2] >> i & 1) == (q._up[j2] >> j & 1)
                for i2, j2 in assign.items()
            ):
                assign[i] = j
                if extend(k + 1, assign):
                    return True
                del assign[i]
        return False

    return extend(0, {})
