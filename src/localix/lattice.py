"""Finite distributive lattices in set representation, with homs.

A :class:`FinLattice` carries a spectrum poset and a family of subsets
of the spectrum: each element is a lower set (in the spectrum order),
the family is closed under intersection and union, and contains the
empty and the full set.  Order is inclusion, meet is intersection,
join is union.  Boolean lattices additionally have an antichain
spectrum and a complement-closed element family.

Validation.  The constructor's core, ``_fill``, takes the elements as
int masks over the spectrum points (bit i is ``spectrum.elements[i]``);
the public constructor only encodes its frozensets, and producers that
hold masks call the core through ``order._new``.  With ``n`` elements
and ``p`` spectrum points:

* element order: ``canon_key``, which on masks over the ``canon_key``
  ordered points is (size, bit positions); ``order._canon_sorted`` builds
  these keys by C-level maps, with no Python call per mask;
* ``least[x]``, the intersection of the elements containing ``x``, and
  the number of those elements, read off columns by ``_column_meets``
  with the elements as both values and keys: a fixed chunk of elements
  at a time is written as one byte string, a byte per bit, in which
  point x's column (which of the chunk's elements hold x) is every p-th
  byte; ``least[x]`` is the ``and`` of the chunk's elements that the
  column selects, and the count its number of ones.  O(n·p) in C, and
  no n·p table is held.  An element holds x iff it lies above
  ``least[x]``, so the count is the size of the principal filter of
  ``least[x]``, kept per join-irreducible in ``_above``;
* lower sets: each ``least[x]`` holds the points below x, O(p);
* closure under intersection and union, certified by a count.  The
  relation "y in least[x]" is a preorder: ``least[x]`` is an element
  holding y, so it contains ``least[y]``.  Each element m is the union
  of the ``least[x]`` over its points, since ``least[x]`` is the true
  intersection and m is one of the sets intersected; so every element is
  a down-set of the preorder.  The down-sets are closed under both
  operations, and a family closed under intersection and union, with
  the empty and the full set, holds each ``least[x]`` and so every
  down-set: the family is closed iff it is all the down-sets, iff there
  are exactly n of them (Birkhoff; Davey & Priestley, *Introduction to
  Lattices and Order*, ch. 5).  They are listed along the distinct
  ``least[x]`` by size (``order._lower_masks``, points with the same
  ``least[x]``, glued, joining together), O(n·|J|) with J the distinct
  ``least[x]``, and the listing stops as soon as it holds more than n;
* Boolean kind: an antichain spectrum and ``full ^ m`` in the family.

A :class:`LatticeHom` has the same split: its core ``_fill`` takes the
image of each domain element as a codomain mask, in ``elements`` order,
and the public constructor encodes a graph of frozensets.  It is
certified by its dual map of points (Birkhoff; Davey & Priestley, ch.
5).  A map ``f`` keeping bottom and top is a hom iff, for every codomain
point y, the pullback ``{a | y in f(a)}`` is a prime filter, which in a
finite distributive lattice is the principal filter of a
join-irreducible.  ``_column_meets``, with the domain's masks as values
and the image masks as keys, gives each pullback's meet c_y and its
size, and ``f`` passes iff every c_y is a join-irreducible with as many
elements above it (``_above``) as the pullback holds.  Every member of
the pullback lies above c_y, so equal counts make it all of the filter.
Conversely, if each pullback is the filter above a join-irreducible
c_y, then ``f(a)`` is the set of y with ``c_y <= a``, which keeps meets,
and keeps joins because a join-irreducible of a distributive lattice is
join-prime.  O(n·q) in C with q codomain points, and no pair of domain
elements is visited.  Only a map that fails is scanned, to name the
first element at which it breaks a formula: join-irreducibles are
join-prime and meet-irreducibles (M, the largest elements missing a
point) are meet-prime, so ``f`` keeps binary joins and meets iff
``f(a)`` is the union of ``f(j)`` over ``j <= a`` in J and the
intersection of ``f(m)`` over ``m >= a`` in M, and a map that fails the
count breaks one of them at some a (``_broken_formula``, O(n·(|J|+|M|))
in Python).

Encoding.  A lattice is its point masks: ``_at`` sends each element's
mask to its position (its keys are the masks in ``elements`` order), and
``_least[x]`` is the mask of the least element containing point x.  The
join-irreducibles J are the distinct ``_least``, the keys of
``_above``; ``_irreducibles`` lists them in ``join_irreducibles`` order,
and ``_on_irreducibles`` moves element masks onto that numbering, which
gives ``join_irreducibles`` its down rows and ``birkhoff_embedding`` its
image.  Points with the same ``_least`` are glued, and a subset S of J
is the mask of the points x with ``_least[x]`` in S.  The
meet-irreducibles are read off ``_least`` too: per class of glued
points, the points whose ``_least`` misses it, the largest element
missing the class; and the atoms are the classes whose ``_least`` holds
nothing else.  The Hasse covers of an element m, the
``m | j`` for each j in J whose points outside m are all glued, are
built on first read (``_covers``) and read only by ``to_dot`` and
``element_poset``.  The frozensets are built only when read: the
``elements`` tuple on first read, a hom's ``graph`` likewise, and
``_element(m)`` makes one frozenset without building the rest;
``__contains__`` encodes its argument instead and memoizes the masks of
the members it has seen, so the lattice operations on elements a caller
holds cost one dict probe each.  So ``lower_sets``,
``join_irreducibles`` (whose poset holds the |J| irreducible
frozensets), ``birkhoff_embedding`` (which builds its representation
from the image masks), ``atoms``, ``lattice_isomorphic``,
``enumerate_homs``, ``LatticeHom.compose``,
``is_injective``/``is_surjective`` and the JSON codec build none of
the n element frozensets, and none of them builds the covers.  Readers
of the masks: a hom's two adjoints,
``_lower_adjoint`` (the least a with b <= f(a), the meet of the
meet-irreducibles m with b <= f(m)) and ``_upper_adjoint`` (the greatest
a with f(a) <= c, the join of the join-irreducibles j with f(j) <= c),
read its image masks, and serve ``borel_image``, the spectra pullback
of ``presented.pushout_points`` and every separator of ``interp``;
``_hull`` joins ``_least`` over a set of points for the cocomma
interpolant; ``presented.extend_hom`` reads J off ``_least``; ``congruence`` builds
its rows and ``posite`` its meets from ``_at``, and ``posite``
enumerates the lower sets of the element order as position masks;
``dissolution`` numbers J by
``_irreducibles`` to name the points of 2^J; ``baire`` reads glued
points off ``_least`` and keeps its opens, moved onto representatives,
as a lattice; ``lattice_from_abstract`` (so ``cov_ideals`` and
``quotient``) re-indexes its item masks onto the spectrum's positions
and calls the core.  The engines keep masks too: an
``OrderCongruence`` keeps one row mask per element and builds its pair
set ``rel`` on first read, and ``dissolve`` builds its unit through the
``LatticeHom`` core and its pair sets only when ``repr`` is read.  Still
on frozensets: ``to_dot``, ``element_poset``, the lattice
operations (``meet``, ``join``, ``leq``, ``complement``), a hom's
``__call__``, ``filterquotient``, ``product_decompose``, the items and
map ``lattice_from_abstract`` returns, and the engines that list
elements (coverages, DSL records).

JSON.  ``to_json`` writes the spectrum in the poset shape of
``order._poset_data`` and each element as the list of its points,
encoded by ``order._encode``, in spectrum order, picked from the labels
by the mask's byte selector (``order._selectors``); ``from_json``
decodes them (``order._decode`` takes an array of scalar labels in one
pass), encodes each element as a mask (``_point_masks``, shared with the
public constructor and so raising its errors) and calls the core.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce
from itertools import compress, repeat
from operator import add, and_, eq, itemgetter, or_
from typing import Callable, Hashable, Iterable

from .budgets import Budgets, check_budget
from .errors import DomainError, NoImageError, PreconditionError, StructureError
from .order import (
    _BIT_BYTES, FinPoset, _bits, _canon_sorted, _decode, _dot, _lower_masks, _lower_set_masks,
    _new, _pairs, _poset_data, _poset_from_data, _selectors, canon_key, poset_isomorphic,
)

__all__ = [
    "FinLattice",
    "LatticeHom",
    "lower_sets",
    "join_irreducibles",
    "birkhoff_embedding",
    "lattice_from_abstract",
    "powerset_lattice",
    "lattice_isomorphic",
    "enumerate_homs",
    "borel_image",
    "disjointify",
    "filterquotient",
    "product_decompose",
    "ideal_completion",
]


_KINDS = ("distributive", "boolean")
# keys per chunk of ``_column_meets`` and rows per chunk of
# ``_transposed``, so that a chunk's bit strings stay small however wide
# they are
_CHUNK = 128


def _kind(kind: str) -> str:
    if kind not in _KINDS:
        raise DomainError(f"unknown lattice kind {kind!r}")
    return kind


def _point_masks(spectrum: FinPoset, family) -> list[int]:
    """The point masks of the point sets in ``family`` (a collection), or
    the error for the first set, in ``canon_key`` order, that is not a
    subset of the spectrum."""
    bit = {x: 1 << i for i, x in enumerate(spectrum.elements)}
    try:
        return [reduce(or_, map(bit.__getitem__, e), 0) for e in family]
    except KeyError:
        sets = map(frozenset, family)
        e = min((e for e in sets if not all(map(bit.__contains__, e))), key=canon_key)
        raise StructureError(f"element {e!r} is not a subset of the spectrum") from None


def _glued(least: Iterable[int]) -> dict[int, int]:
    """Each join-irreducible (a distinct ``least[x]``) with the mask of its
    glued points, the x with that ``least[x]``, in order of first point."""
    glued = dict.fromkeys(least, 0)
    for x, j in enumerate(least):
        glued[j] |= 1 << x
    return glued


def _frozensets(points: tuple, masks: Iterable[int]) -> tuple:
    """The point sets of ``masks``, one frozenset each."""
    return tuple(map(frozenset, map(compress, repeat(points), _selectors(masks, len(points)))))


def _moved(masks: Iterable[int], weight: list[int]) -> list[int]:
    """Each mask with its bit i replaced by ``weight[i]``: a single bit
    moves the point to a new position, and 0 drops it.

    The masks must be over the n = ``len(weight)`` points, and the
    nonzero weights distinct single bits landing on 0..k-1, with k of them
    (a KeyError otherwise).  Then bit t of a result is the
    bit of the mask whose weight is ``1 << t``, and one ``itemgetter``
    picks the result's bit string out of the mask's, highest bit first.
    A mask's string is ``bin`` of it with bit n set, "0b1" and then its n
    bits, so index 0 is a "0" to lead with, and the pick is a tuple even
    for k = 0 or 1."""
    n = len(weight)
    src = {w.bit_length() - 1: i for i, w in enumerate(weight) if w}
    pick = itemgetter(0, 0, *(n + 2 - src[t] for t in reversed(range(len(src)))))
    rows = map("".join, map(pick, map(bin, map((1 << n).__or__, masks))))
    return list(map(int, rows, repeat(2)))


def _column_meets(values: list[int], keys: list[int], width: int, top: int) -> tuple[list, list]:
    """For each bit y < ``width`` of the ``keys``, the ``and`` of ``top``
    and of the ``values`` whose key holds y, and the number of those keys.

    Read off columns: a chunk of keys at a time is written as one byte
    string, a byte per bit, of ``bin`` of each key with bit ``width`` set
    ("0b1" and then its bits), so bit y's column (which of the chunk's
    keys hold y) is every (``width`` + 3)-th byte.  The column selects
    the chunk's values to ``and``, and its count of ones is the chunk's
    share of the count.  O(len(keys)·width) in C, and no table of that
    size is held.  ``FinLattice._fill`` reads ``least`` off the elements
    keyed by themselves, and ``LatticeHom._fill`` the pullback of each
    codomain point off the domain keyed by the image (module docstring).
    """
    meets, counts = [top] * width, [0] * width
    pad, stride = 1 << width, width + 3
    starts = range(stride - 1, 2, -1)  # bit y is byte stride - 1 - y of a row
    for k in range(0, len(keys), _CHUNK):
        rows = "".join(map(bin, map(pad.__or__, keys[k : k + _CHUNK]))).encode().translate(_BIT_BYTES)
        columns = list(map(rows.__getitem__, map(slice, starts, repeat(None), repeat(stride))))
        chosen = map(compress, repeat(values[k : k + _CHUNK]), columns)
        meets = list(map(reduce, repeat(and_), chosen, meets))
        counts = list(map(add, counts, map(bytes.count, columns, repeat(b"\1"))))
    return meets, counts


def _transposed(rows: list[int], n: int) -> list[int]:
    """The transpose of the n × n bit matrix ``rows``: bit i of row j is
    bit j of ``rows[i]``.  A chunk of rows at a time, the columns of their
    bit strings are read by ``zip``, with no Python call per bit; a row's
    string is ``bin`` of it with bit n set, "0b1" and then its n bits."""
    out, pad = [0] * n, 1 << n
    for k in range(0, len(rows), _CHUNK):
        # the columns of bits 0, 1, ..., n - 1, past the strings' "0b1"
        columns = list(zip(*map(bin, map(pad.__or__, rows[k : k + _CHUNK]))))[:2:-1]
        chunk = map(int, map("".join, map(reversed, columns)), repeat(2))
        out = list(map(or_, out, map(int.__lshift__, chunk, repeat(k))))
    return out


class FinLattice:
    """Immutable finite distributive (or Boolean) lattice of sets."""

    __slots__ = ("spectrum", "kind", "_at", "_least", "_above", "_hasse", "_hash", "_elements", "_seen")

    def __init__(self, spectrum: FinPoset, elements: Iterable[frozenset], kind: str = "distributive"):
        kind = _kind(kind)
        self._fill(spectrum, _point_masks(spectrum, {frozenset(e) for e in elements}), kind)

    def _fill(self, spectrum: FinPoset, masks: Iterable[int], kind: str) -> None:
        """The constructor's core, on the elements' point masks (module docstring)."""
        n = len(spectrum.elements)
        full = (1 << n) - 1
        ordered = _canon_sorted(set(masks), n)
        at = dict(zip(ordered, itertools.count()))
        if 0 not in at or full not in at:
            raise StructureError("element family must contain the empty and full set")
        pts = spectrum.elements
        # least[x] holds x, so the elements holding x are those above least[x]
        least, above = _column_meets(ordered, ordered, n, full)
        down = spectrum._down
        if any(d & ~j for d, j in zip(down, least)):  # the first element that is no lower set
            m, x = next((m, x) for m in ordered for x in _bits(m) if down[x] & ~m)
            y = pts[next(_bits(down[x] & ~m))]
            e = spectrum._set(m)
            raise StructureError(f"element {e!r} is not a lower set: misses {y!r} <= {pts[x]!r}")
        # every element is a down-set of the preorder "y in least[x]"; the
        # family is closed iff it holds them all, iff there are as many
        by_size = sorted(_glued(least).items(), key=lambda jg: jg[0].bit_count())
        downs = _lower_masks(((g, j ^ g) for j, g in by_size), None, len(at))
        if len(downs) != len(at):
            raise StructureError("family not closed under intersection/union")
        if kind == "boolean":
            if not spectrum.is_antichain():
                raise StructureError("boolean lattice requires an antichain spectrum")
            for m in ordered:
                if full ^ m not in at:
                    raise StructureError(f"no complement for {spectrum._set(m)!r}")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_least", tuple(least))
        object.__setattr__(self, "_above", dict(zip(least, above)))
        object.__setattr__(self, "_hasse", None)
        object.__setattr__(self, "_hash", hash((spectrum, tuple(ordered), kind)))
        object.__setattr__(self, "_elements", None)
        object.__setattr__(self, "_seen", {})

    def __setattr__(self, *a):
        raise AttributeError("FinLattice is immutable")

    @property
    def elements(self) -> tuple:
        """The elements as frozensets of points, in ``canon_key`` order; built on first read."""
        if self._elements is None:
            object.__setattr__(self, "_elements", _frozensets(self.spectrum.elements, self._at))
        return self._elements

    @property
    def _mask(self) -> dict:
        """Each element's point mask, in ``elements`` order (a fresh dict)."""
        return dict(zip(self.elements, self._at))

    def _mask_of(self, e):
        """The point mask of ``e``, or None when ``e`` is not an element.

        Members are memoized, so asking again for the same element (as
        the lattice operations do) costs one dict probe, not O(|e|)."""
        m = self._seen.get(e)  # an unhashable e raises here
        if m is not None or not isinstance(e, frozenset):
            return m
        index, m = self.spectrum._index, 0
        for x in e:
            i = index.get(x)
            if i is None:
                return None
            m |= 1 << i
        if m not in self._at:
            return None
        self._seen[e] = m
        return m

    def __len__(self) -> int:
        return len(self._at)

    def __contains__(self, e) -> bool:
        return self._mask_of(e) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinLattice)
            and self.kind == other.kind
            and self.spectrum == other.spectrum
            and self._at.keys() == other._at.keys()
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinLattice({len(self._at)} elements, kind={self.kind})"

    # -- lattice operations ------------------------------------------------

    @property
    def bot(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return frozenset(self.spectrum.elements)

    def _check(self, *xs):
        for x in xs:
            if x not in self:
                raise DomainError(f"{x!r} is not an element of this lattice")

    def leq(self, a: frozenset, b: frozenset) -> bool:
        self._check(a, b)
        return a <= b

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        self._check(a, b)
        return a & b

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        self._check(a, b)
        return a | b

    def complement(self, a: frozenset) -> frozenset:
        """The unique complement, when one exists in the family."""
        self._check(a)
        c = self.top - a
        if c not in self:
            raise StructureError(f"{a!r} has no complement in this lattice")
        return c

    def join_of(self, xs: Iterable[frozenset]) -> frozenset:
        out = frozenset()
        for x in xs:
            self._check(x)
            out |= x
        return out

    def meet_of(self, xs: Iterable[frozenset]) -> frozenset:
        out = self.top
        for x in xs:
            self._check(x)
            out &= x
        return out

    def _pos(self, e: frozenset) -> int:
        """The position of element ``e`` in ``elements``."""
        return self._at[self._mask_of(e)]

    def _element(self, m: int) -> frozenset:
        """The element with point mask ``m``, without building ``elements``."""
        self._at[m]  # a KeyError when m is no element
        return self.spectrum._set(m)

    def _irreducibles(self) -> list[int]:
        """The masks of the join-irreducibles, the distinct ``_least``, in
        ``join_irreducibles(self).elements`` order."""
        return _canon_sorted(self._above, len(self._least))

    def _on_irreducibles(self, irr: list[int], masks: Iterable[int]) -> list[int]:
        """Each element mask as the set of join-irreducibles below it, bit
        i for ``irr[i]`` (``irr`` is ``_irreducibles()``): j <= m iff m
        holds a point whose least element is j, and the first such point
        takes j's bit."""
        bit = {j: 1 << i for i, j in enumerate(irr)}
        return _moved(masks, [bit.pop(j, 0) for j in self._least])

    def _hull(self, pts: Iterable) -> frozenset:
        """The least element containing the points ``pts``, the join of
        their ``_least``."""
        index, m = self.spectrum._index, 0
        for x in pts:
            m |= self._least[index[x]]
        return self._element(m)

    def _meet_irreducibles(self) -> list[int]:
        """The masks of the meet-irreducibles: per class of glued points,
        the points whose least element misses it (the largest element
        missing the class)."""
        glued = _glued(self._least)
        return [sum(h for j, h in glued.items() if not j & g) for g in glued.values()]

    def _cover_rows(self) -> tuple:
        """Row k masks the positions of the elements covering the k-th
        element m: the ``m | j`` for each join-irreducible j whose points
        outside m are all glued (module docstring)."""
        at, full = self._at, (1 << len(self._least)) - 1
        strict = [(j, j ^ g) for j, g in _glued(self._least).items()]
        rows = []
        for m in at:
            row, out = 0, full ^ m
            for j, below in strict:
                if j & out and not below & out:  # j's points are minimal outside m
                    row |= 1 << at[m | j]
            rows.append(row)
        return tuple(rows)

    @property
    def _covers(self) -> tuple:
        """The Hasse cover rows, by position; built on first read."""
        if self._hasse is None:
            object.__setattr__(self, "_hasse", self._cover_rows())
        return self._hasse

    def atoms(self) -> tuple:
        """The elements covering bottom, in ``elements`` order: the
        join-irreducibles with nothing strictly below them."""
        atoms = [j for j, g in _glued(self._least).items() if j == g]
        return tuple(map(self._element, sorted(atoms, key=self._at.__getitem__)))

    def element_poset(self) -> FinPoset:
        return FinPoset(self.elements, _pairs(self.elements, self._covers))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        spectrum = _poset_data(self.spectrum)
        labels = spectrum["elements"]
        points = map(compress, repeat(labels), _selectors(self._at, len(labels)))
        return json.dumps(
            {
                "kind": self.kind,
                "spectrum": spectrum,
                "elements": list(map(list, points)),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FinLattice":
        data = json.loads(text)
        spectrum = _poset_from_data(data["spectrum"])
        kind = _kind(data["kind"])
        return _new(FinLattice, spectrum, _point_masks(spectrum, _decode(data["elements"])), kind)

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram in DOT form, as ``FinPoset.to_dot`` draws ``element_poset()``."""
        return _dot(name, self.elements, self._covers)


class LatticeHom:
    """A bounded lattice homomorphism, validated on construction."""

    __slots__ = ("dom", "cod", "_image", "_graph")

    def __init__(self, dom: FinLattice, cod: FinLattice, graph: dict):
        if set(graph) != set(dom.elements):
            raise DomainError("graph must be defined on exactly the domain elements")
        code = {v: cod._mask_of(v) for v in graph.values()}
        for v, m in code.items():
            if m is None:
                raise DomainError(f"image {v!r} not in codomain")
        self._fill(dom, cod, [code[graph[e]] for e in dom.elements])
        object.__setattr__(self, "_graph", dict(graph))

    def _fill(self, dom: FinLattice, cod: FinLattice, image: Iterable[int]) -> None:
        """The constructor's core: ``image`` lists the codomain masks of the
        domain elements, in ``dom.elements`` order (module docstring)."""
        image = tuple(image)
        if len(image) != len(dom):
            raise DomainError("graph must be defined on exactly the domain elements")
        for v in image:
            if v not in cod._at:
                raise DomainError(f"image {cod.spectrum._set(v)!r} not in codomain")
        q = len(cod.spectrum)
        if image[0] or image[-1] != (1 << q) - 1:  # the bottom and top of dom come first and last
            raise StructureError("homomorphism must preserve bottom and top")
        # each codomain point y pulls back to {a | y in f(a)}, of meet c_y:
        # f is a hom iff each c_y is join-irreducible with as many elements
        # above it as the pullback has (module docstring)
        meets, counts = _column_meets(list(dom._at), image, q, (1 << len(dom.spectrum)) - 1)
        if not all(map(eq, map(dom._above.get, meets), counts)):
            raise _broken_formula(dom, image, q)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "_image", image)
        object.__setattr__(self, "_graph", None)

    def __setattr__(self, *a):
        raise AttributeError("LatticeHom is immutable")

    @property
    def graph(self) -> dict:
        """Each domain element's image, as frozensets; built on first read."""
        if self._graph is None:
            els, at = self.cod.elements, self.cod._at
            graph = {e: els[at[v]] for e, v in zip(self.dom.elements, self._image)}
            object.__setattr__(self, "_graph", graph)
        return self._graph

    def __call__(self, x: frozenset) -> frozenset:
        try:
            return self.graph[x]
        except KeyError:
            raise DomainError(f"{x!r} not in domain") from None

    def compose(self, other: "LatticeHom") -> "LatticeHom":
        """self after other."""
        if other.cod != self.dom:
            raise DomainError("composition mismatch")
        at = self.dom._at
        return _new(LatticeHom, other.dom, self.cod, [self._image[at[v]] for v in other._image])

    def is_injective(self) -> bool:
        return len(set(self._image)) == len(self._image)

    def is_surjective(self) -> bool:
        return set(self._image) == self.cod._at.keys()

    @staticmethod
    def identity(a: FinLattice) -> "LatticeHom":
        return _new(LatticeHom, a, a, a._at)


def _broken_formula(dom: FinLattice, image: tuple, q: int) -> StructureError:
    """The error naming the first domain element a, in ``elements`` order,
    at which a map with the given ``image`` masks over ``q`` codomain
    points, keeping bottom and top, breaks the meet or the join formula:
    f(a) must be the intersection of f(m) over the meet-irreducibles
    m >= a and the union of f(j) over the join-irreducibles j <= a.  Only
    called on a map that fails the pullback count, which breaks one of
    them (module docstring)."""
    img = dict(zip(dom._at, image))
    joins = {j: img[j] for j in dom._least}.items()
    meets = [(m, img[m]) for m in dom._meet_irreducibles()]
    for a, fa in img.items():
        v = (1 << q) - 1
        for m, fm in meets:
            if not a & ~m:
                v &= fm
        if v != fa:
            return StructureError(f"meet not preserved at {dom._element(a)!r}")
        v = 0
        for j, fj in joins:
            if not j & ~a:
                v |= fj
        if v != fa:
            return StructureError(f"join not preserved at {dom._element(a)!r}")


# -- constructions ----------------------------------------------------------


def lower_sets(p: FinPoset, budgets: Budgets | None = None) -> FinLattice:
    """The lattice of all lower sets of ``p`` (Boolean iff ``p`` is an antichain).

    With ``budgets``, the number of lower sets is checked against the
    ``elements`` budget while they are enumerated.
    """
    kind = "boolean" if p.is_antichain() else "distributive"
    return _new(FinLattice, p, _lower_set_masks(p, budgets), kind)


def join_irreducibles(a: FinLattice) -> FinPoset:
    """The poset of join-irreducible elements of ``a``.

    An element is join-irreducible when it differs from the join of
    everything strictly below it (so bottom is excluded).  These are the
    least elements containing each spectrum point.  Their down rows are
    the irreducibles themselves moved onto their numbering
    (``FinLattice._on_irreducibles``), and the up rows the transpose.
    """
    irr, pts = a._irreducibles(), a.spectrum.elements
    down = a._on_irreducibles(irr, irr)
    sets = map(frozenset, map(compress, repeat(pts), _selectors(irr, len(pts))))
    return _new(FinPoset, tuple(sets), _transposed(down, len(irr)), down)


def birkhoff_embedding(a: FinLattice) -> tuple[FinLattice, LatticeHom]:
    """The canonical representation of ``a`` on its join-irreducibles.

    Returns the lattice of lower sets of the irreducible poset together
    with the map ``b -> {j irreducible | j <= b}``, and verifies that
    the map is an isomorphism (it is, for any distributive lattice).  The
    lattice is built from the image: it holds each principal ``{j' <= j}``,
    the image of j, so the core's count certifies it is every lower set.
    """
    jp = join_irreducibles(a)
    image = a._on_irreducibles(a._irreducibles(), a._at)
    if len(set(image)) != len(a):
        raise StructureError("lattice is not distributive: set representation fails")
    rep = _new(FinLattice, jp, image, "boolean" if jp.is_antichain() else "distributive")
    return rep, _new(LatticeHom, a, rep, image)


def lattice_from_abstract(
    items: Iterable[Hashable],
    leq: Callable[[Hashable, Hashable], bool],
) -> tuple[FinLattice, dict]:
    """Realize an abstract finite lattice given by a leq predicate.

    ``leq`` is read once per pair of items, into one int row per item.
    The join-irreducibles, the items with exactly one lower cover,
    become the spectrum, and each item maps to the set of irreducibles
    below it.  The items form a distributive lattice exactly when that
    map is an order embedding onto a family closed under intersection
    and union (Birkhoff; Davey & Priestley, *Introduction to Lattices
    and Order*, ch. 5): the embedding is checked here and the closure by
    ``FinLattice``, and both raise StructureError otherwise.  Returns
    the lattice and the item->element map.
    """
    items = list(dict.fromkeys(items))
    if not items:
        raise StructureError("empty carrier is not a lattice")
    up = [sum(1 << k for k, y in enumerate(items) if leq(x, y)) for x in items]
    down = [sum(1 << i for i, u in enumerate(up) if u >> k & 1) for k in range(len(items))]
    # k has one lower cover when its strict down-set has a greatest item
    downs = set(down)
    irr = sum(1 << k for k, d in enumerate(down) if d ^ 1 << k in downs)
    masks = [d & irr for d in down]
    if len(set(masks)) != len(items):
        raise StructureError("not a distributive lattice: representation collapses items")
    for u, m in zip(up, masks):
        if u != sum(1 << k for k, m2 in enumerate(masks) if not m & ~m2):
            raise StructureError("not a distributive lattice: order is not inclusion")
    js = [items[j] for j in _bits(irr)]
    spectrum = FinPoset(js, [(items[j], items[k]) for j in _bits(irr) for k in _bits(up[j] & irr)])
    # the masks over item positions, re-indexed onto the spectrum's positions
    weight = [0] * len(items)
    for j in _bits(irr):
        weight[j] = 1 << spectrum._index[items[j]]
    masks = _moved(masks, weight)
    # the spectrum is J, so the lattice is Boolean iff J is an antichain
    kind = "boolean" if spectrum.is_antichain() else "distributive"
    lat = _new(FinLattice, spectrum, masks, kind)
    els, at = lat.elements, lat._at
    return lat, {x: els[at[m]] for x, m in zip(items, masks)}


def powerset_lattice(points: Iterable[Hashable], budgets: Budgets | None = None) -> FinLattice:
    """The Boolean lattice of all subsets of ``points``.

    With ``budgets``, ``points`` is a collection without repeats (a
    ``range`` of any length will do), and its 2^n elements are checked
    against the ``elements`` budget before the points are read.
    """
    if budgets is not None:  # past the limit's bit length the power exceeds it anyway
        n = len(points)
        check_budget(budgets, "elements", 1 << min(n, budgets.elements.bit_length()), f"2^{n}")
    spectrum = FinPoset(points)
    return _new(FinLattice, spectrum, range(1 << len(spectrum)), "boolean")


def lattice_isomorphic(a: FinLattice, b: FinLattice) -> bool:
    """Isomorphism of finite distributive lattices via their irreducible posets."""
    if len(a) != len(b):
        return False
    return poset_isomorphic(join_irreducibles(a), join_irreducibles(b))


def _hom_from_irreducibles(a: FinLattice, b: FinLattice, irr_img: dict) -> LatticeHom:
    """The hom ``a -> b`` sending x to the join of ``irr_img[j]`` over the keys j <= x.

    Keys are join-irreducibles of ``a``, values elements of ``b``; the
    result is validated by the ``LatticeHom`` core.
    """
    return _hom_on_masks(a, b, [(a._mask_of(j), b._mask_of(v)) for j, v in irr_img.items()])


def _hom_on_masks(a: FinLattice, b: FinLattice, imgs: list[tuple[int, int]]) -> LatticeHom:
    """``_hom_from_irreducibles`` on masks: ``imgs`` pairs the mask of a
    join-irreducible of ``a`` with the mask of its image in ``b``."""
    image = []
    for m in a._at:
        v = 0
        for j, fj in imgs:
            if not j & ~m:
                v |= fj
        image.append(v)
    return _new(LatticeHom, a, b, image)


def enumerate_homs(a: FinLattice, b: FinLattice) -> list[LatticeHom]:
    """All bounded lattice homs ``a -> b``.

    By Birkhoff duality they are the monotone maps phi from J(b) to
    J(a), the join-irreducibles, with f(x) the join of the q in J(b)
    whose phi(q) is below x (Davey & Priestley, *Introduction to
    Lattices and Order*, ch. 5).  The maps are built along J(b), which
    is listed by size and so is a linear extension: each q takes a
    common upper bound of the images of the irreducibles below it.  The
    homs are ordered by the positions in ``b.elements`` of f(j), for j
    over J(a) in order.
    """
    ja, jb = a._irreducibles(), b._irreducibles()
    up_a = [sum(1 << i for i, j2 in enumerate(ja) if not j & ~j2) for j in ja]
    phis = [[]]
    for k, q in enumerate(jb):
        below = [l for l in range(k) if not jb[l] & ~q]
        grown = []
        for phi in phis:
            cand = (1 << len(ja)) - 1
            for l in below:
                cand &= up_a[phi[l]]
            grown += [phi + [i] for i in _bits(cand)]
        phis = grown
    homs = []
    for phi in phis:
        img = [0] * len(ja)
        for q, i in zip(jb, phi):
            img[i] |= q
        homs.append(_hom_on_masks(a, b, list(zip(ja, img))))
    pos = [a._at[j] for j in ja]
    homs.sort(key=lambda h: [b._at[h._image[p]] for p in pos])
    return homs


# -- derived operations ------------------------------------------------------


def _lower_adjoint(f: LatticeHom, b: int) -> int:
    """The least domain mask a with ``b <= f(a)``, for a codomain mask ``b``.

    Those a form a filter (``f`` keeps top and meets), and every element
    is the meet of the meet-irreducibles above it, so the least one is
    the meet of the meet-irreducibles m with ``b <= f(m)``.  Certified:
    ``b <= f(a)``.
    """
    at, image = f.dom._at, f._image
    a = (1 << len(f.dom.spectrum)) - 1
    for m in f.dom._meet_irreducibles():
        if not b & ~image[at[m]]:
            a &= m
    if b & ~image[at[a]]:
        raise NoImageError(f"no least cover for {f.cod.spectrum._set(b)!r} along f")
    return a


def _upper_adjoint(f: LatticeHom, c: int) -> int:
    """The greatest domain mask a with ``f(a) <= c``, for a codomain mask ``c``.

    Dually, those a form an ideal and every element is the join of the
    join-irreducibles below it, so the greatest one is the join of the
    join-irreducibles j with ``f(j) <= c``.  Certified: ``f(a) <= c``.
    """
    at, image = f.dom._at, f._image
    a = 0
    for j in f.dom._above:
        if not image[at[j]] & ~c:
            a |= j
    if image[at[a]] & ~c:
        raise NoImageError(f"no greatest element below {f.cod.spectrum._set(c)!r} along f")
    return a


def borel_image(f: LatticeHom, b: frozenset) -> frozenset:
    """Least ``c`` in the domain of ``f`` with ``b <= f(c)``.

    It is the lower adjoint of ``f`` at ``b``, so ``b <= f(c)  iff
    borel_image(f, b) <= c``; the scan of the domain for it is the test
    oracle (``tests/oracles.py``).
    """
    m = f.cod._mask_of(b)
    if m is None:
        raise DomainError(f"{b!r} not in the codomain of f")
    return f.dom._element(_lower_adjoint(f, m))


def disjointify(a: FinLattice, cover: list[frozenset]) -> list[frozenset]:
    """Turn a finite cover into a disjoint refinement, in input order.

    ``d_i = c_i /\\ not(c_0 \\/ ... \\/ c_{i-1})``; requires the running
    partial joins to be complemented in ``a``.
    """
    for c in cover:
        if c not in a:
            raise DomainError(f"{c!r} not an element")
    out = []
    sofar = a.bot
    for c in cover:
        neg = a.top - sofar
        if neg not in a:
            raise StructureError("partial join has no complement; cannot disjointify")
        out.append(c & neg)
        sofar |= c
    return out


def filterquotient(a: FinLattice, d: frozenset) -> tuple[FinLattice, LatticeHom]:
    """Quotient by the principal filter at ``d``: the lattice below ``d``.

    Returns the lattice ``{x | x <= d}`` (with top ``d``) and the
    quotient map ``x -> x /\\ d``.
    """
    if d not in a:
        raise DomainError(f"{d!r} not an element")
    sub_spec = a.spectrum.subposet(d)
    elems = [x for x in a.elements if x <= d]
    eset = set(elems)
    kind = (
        "boolean"
        if sub_spec.is_antichain() and all((d - x) in eset for x in elems)
        else "distributive"
    )
    down = FinLattice(sub_spec, elems, kind)
    q = LatticeHom(a, down, {x: x & d for x in a.elements})
    return down, q


def product_decompose(
    a: FinLattice, partition: list[frozenset]
) -> tuple[list[tuple[FinLattice, LatticeHom]], Callable]:
    """Split ``a`` along a finite partition of its top.

    Returns the factor filterquotients and a reassembly function
    sending a tuple of factor elements back to their join in ``a``;
    the decomposition is verified to be a bijection.
    """
    join = a.bot
    for i, d in enumerate(partition):
        if d not in a:
            raise DomainError(f"{d!r} not an element")
        for e in partition[i + 1 :]:
            if d & e != a.bot:
                raise PreconditionError("partition", f"{d!r} and {e!r} overlap")
        join |= d
    if join != a.top:
        raise PreconditionError("partition", "pieces do not join to top")
    factors = [filterquotient(a, d) for d in partition]

    def reassemble(parts: tuple) -> frozenset:
        if len(parts) != len(partition):
            raise DomainError("wrong arity for reassembly")
        out = frozenset()
        for (fac, _), x in zip(factors, parts):
            if x not in fac:
                raise DomainError(f"{x!r} not in its factor")
            out |= x
        if out not in a:
            raise StructureError("reassembled element missing; decomposition failed")
        return out

    # bijectivity check
    seen = set()
    for combo in itertools.product(*[fac.elements for fac, _ in factors]):
        seen.add(reassemble(combo))
    if seen != set(a.elements):
        raise StructureError("decomposition is not bijective")
    return factors, reassemble


def ideal_completion(a: FinLattice) -> tuple[FinLattice, LatticeHom]:
    """Lattice of ideals (lower, join-closed, containing bottom) of ``a``.

    At finite scale every ideal is principal (it is the down-set of its
    join), and ``down(x)`` holds ``down(j)`` iff ``j <= x``: the ideals
    are ``birkhoff_embedding(a)`` with each point j relabelled
    ``down(j)``, and the unit ``x -> down(x)`` is the embedding.
    """
    rep, unit = birkhoff_embedding(a)
    down = {j: frozenset(y for y in a.elements if y <= j) for j in rep.spectrum.elements}
    spectrum = rep.spectrum.relabel(down.__getitem__)
    image = _moved(unit._image, [1 << spectrum._index[d] for d in down.values()])
    lat = _new(FinLattice, spectrum, image, rep.kind)
    return lat, _new(LatticeHom, a, lat, image)
