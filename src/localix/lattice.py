"""Finite distributive lattices in set representation, with homs.

A :class:`FinLattice` carries a spectrum poset and a family of subsets
of the spectrum: each element is a lower set (in the spectrum order),
the family is closed under intersection and union, and contains the
empty and the full set.  Order is inclusion, meet is intersection,
join is union.  Boolean lattices additionally have an antichain
spectrum and a complement-closed element family.

Validation.  The constructor encodes each element once as an int mask
over the spectrum points (bit i is ``spectrum.elements[i]``) and checks
everything on the masks; the public API stays frozenset-valued.  With
``n`` elements and ``p`` spectrum points:

* lower sets: no point of an element has a point below it outside the
  element, O(n·p);
* closure under intersection and union: ``least[x]``, the intersection
  of the elements containing ``x``, contains ``x`` and lies inside every
  element that does, so each element is the union of its ``least[x]``.
  The family is closed exactly when ``m | least[x]`` is an element for
  every element ``m`` and point ``x`` (given the empty and full set); it
  is then the lattice of down-sets of the preorder "y in least[x]"
  (Birkhoff; Davey & Priestley, *Introduction to Lattices and Order*,
  ch. 5).  O(n·|J|), with J the distinct ``least[x]``, which are the
  join-irreducibles;
* Boolean kind: an antichain spectrum and ``full ^ m`` in the family;
* element order: ``canon_key``, which on masks over the ``canon_key``
  ordered points is (size, bit positions), O(n log n) comparisons.

Hasse covers (for ``to_dot``, ``atoms`` and ``element_poset``) are read
off the same masks in O(n·|J|).  Every b above m holds ``m | least[x]``
for a point x of b outside m, and ``m | least[y]`` lies inside it iff y
does, so the covers of m are the ``m | least[x]`` for the x outside m
whose ``least[x]`` holds, outside m, only points x' glued to x
(``least[x'] == least[x]``: no element separates them).  A cover may
thus add several points at once.

A :class:`LatticeHom` is checked on the same masks in O(n·(|J|+|M|)),
not on all n² pairs: in a distributive lattice join-irreducibles are
join-prime and meet-irreducibles (M, the largest elements missing a
point) are meet-prime, so ``f`` preserves binary joins and meets iff
``f(a)`` is the union of ``f(j)`` over ``j <= a`` in J and the
intersection of ``f(m)`` over ``m >= a`` in M.

Encoding.  These masks are the only integer view of a lattice.
``_mask`` sends each element to its point mask, ``_at`` sends a point
mask back to the element's position in ``elements``, and ``_least[x]``
is the mask of the least element containing point x.  The
join-irreducibles J are the distinct ``_least``; ``_irreducibles`` lists
them in ``join_irreducibles`` order.  Points with the same ``_least``
are glued, and a subset S of J is the mask of the points x with
``_least[x]`` in S.  Readers: ``LatticeHom``, ``enumerate_homs``,
``join_irreducibles`` and ``presented.extend_hom`` read J off
``_least``; ``congruence`` builds its rows and ``posite`` its position
masks and meets from ``_mask`` and ``_at``; ``dissolution`` numbers J
by ``_irreducibles`` to name the points of 2^J; ``baire`` reads least
neighbourhoods and glued points off ``_least``.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Hashable, Iterable

from .budgets import Budgets
from .errors import DomainError, NoImageError, PreconditionError, StructureError
from .order import (
    FinPoset, _bits, _canon_mask_key, _dot, _pairs, canon_key, lower_sets_of, poset_isomorphic,
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


class FinLattice:
    """Immutable finite distributive (or Boolean) lattice of sets."""

    __slots__ = ("spectrum", "elements", "kind", "_mask", "_at", "_least", "_hash")

    def __init__(
        self,
        spectrum: FinPoset,
        elements: Iterable[frozenset],
        kind: str = "distributive",
    ):
        if kind not in ("distributive", "boolean"):
            raise DomainError(f"unknown lattice kind {kind!r}")
        family = {frozenset(e) for e in elements}
        pts = spectrum.elements
        if frozenset() not in family or frozenset(pts) not in family:
            raise StructureError("element family must contain the empty and full set")
        pos = spectrum._index
        bit = {x: 1 << i for x, i in pos.items()}
        down = dict(zip(pts, spectrum._down))
        full = (1 << len(pts)) - 1
        least = [full] * len(pts)
        mask_of = {}
        bad = []
        for e in family:
            try:
                m = sum(map(bit.__getitem__, e))
            except KeyError:
                bad.append(e)
                continue
            for x in e:
                if down[x] & ~m:
                    bad.append(e)
                    break
                least[pos[x]] &= m
            mask_of[e] = m
        if bad:
            _reject_element(spectrum, min(bad, key=canon_key), mask_of, down)
        # closed under & and | iff closed under m | least[x] (module docstring)
        masks = set(mask_of.values())
        joins = set(least)
        for m in masks:
            for j in joins:
                if m | j not in masks:
                    raise StructureError("family not closed under intersection/union")
        key = _canon_mask_key(len(pts))
        ordered = sorted(mask_of.items(), key=lambda em: key(em[1]))
        if kind == "boolean":
            if not spectrum.is_antichain():
                raise StructureError("boolean lattice requires an antichain spectrum")
            for e, m in ordered:
                if full ^ m not in masks:
                    raise StructureError(f"no complement for {e!r}")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "elements", tuple(e for e, _ in ordered))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_mask", dict(ordered))
        object.__setattr__(self, "_at", {m: i for i, (_, m) in enumerate(ordered)})
        object.__setattr__(self, "_least", tuple(least))
        object.__setattr__(self, "_hash", hash((spectrum, frozenset(family), kind)))

    def __setattr__(self, *a):
        raise AttributeError("FinLattice is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self._mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinLattice)
            and self.kind == other.kind
            and self.spectrum == other.spectrum
            and self._mask.keys() == other._mask.keys()
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinLattice({len(self.elements)} elements, kind={self.kind})"

    # -- lattice operations ------------------------------------------------

    @property
    def bot(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return frozenset(self.spectrum.elements)

    def _check(self, *xs):
        for x in xs:
            if x not in self._mask:
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
        if c not in self._mask:
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
        return self._at[self._mask[e]]

    def _element(self, m: int) -> frozenset:
        """The element with point mask ``m``."""
        return self.elements[self._at[m]]

    def _irreducibles(self) -> list[int]:
        """The masks of the join-irreducibles, the distinct ``_least``, in
        ``join_irreducibles(self).elements`` order."""
        return sorted(set(self._least), key=_canon_mask_key(len(self._least)))

    def atoms(self) -> tuple:
        return tuple(self.elements[k] for k in _bits(self._cover_rows()[0]))

    def _cover_rows(self) -> list[int]:
        """Row i masks the positions of the elements covering ``elements[i]``
        (module docstring)."""
        at, least = self._at, self._least
        # each join-irreducible j, less the points glued to j
        strict = [(j, j & ~sum(1 << x for x, k in enumerate(least) if k == j)) for j in set(least)]
        return [
            sum(1 << at[m | j] for j, below in strict if j & ~m and not below & ~m) for m in at
        ]

    def element_poset(self) -> FinPoset:
        return FinPoset(self.elements, _pairs(self.elements, self._cover_rows()))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        from .order import _label

        return json.dumps(
            {
                "kind": self.kind,
                "spectrum": json.loads(self.spectrum.to_json()),
                "elements": [sorted(_label(x) for x in e) for e in self.elements],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FinLattice":
        from .order import _unlabel

        data = json.loads(text)
        spectrum = FinPoset.from_json(json.dumps(data["spectrum"]))
        elems = [frozenset(_unlabel(x) for x in e) for e in data["elements"]]
        return FinLattice(spectrum, elems, data["kind"])

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram in DOT form, as ``FinPoset.to_dot`` draws ``element_poset()``."""
        return _dot(name, self.elements, self._cover_rows())


def _reject_element(spectrum: FinPoset, e: frozenset, mask_of: dict, down: dict):
    """Raise the error for ``e``, a member that is not a lower set of the spectrum."""
    if e not in mask_of:
        raise StructureError(f"element {e!r} is not a subset of the spectrum")
    for x in e:
        missing = down[x] & ~mask_of[e]
        if missing:
            y = spectrum.elements[(missing & -missing).bit_length() - 1]
            raise StructureError(f"element {e!r} is not a lower set: misses {y!r} <= {x!r}")


class LatticeHom:
    """A bounded lattice homomorphism, validated on construction."""

    __slots__ = ("dom", "cod", "graph")

    def __init__(self, dom: FinLattice, cod: FinLattice, graph: dict):
        if set(graph) != set(dom.elements):
            raise DomainError("graph must be defined on exactly the domain elements")
        for v in graph.values():
            if v not in cod:
                raise DomainError(f"image {v!r} not in codomain")
        if graph[dom.bot] != cod.bot or graph[dom.top] != cod.top:
            raise StructureError("homomorphism must preserve bottom and top")
        # f(a) must be the union of f(j) over join-irreducibles j <= a and
        # the intersection of f(m) over meet-irreducibles m >= a (module
        # docstring); m = full ^ up[x] is the largest element missing x.
        dmask, cmask = dom._mask, cod._mask
        image = {m: cmask[graph[e]] for e, m in dmask.items()}
        n = len(dom.spectrum.elements)
        up = [0] * n
        for x, j in enumerate(dom._least):
            for y in _bits(j):
                up[y] |= 1 << x
        full = (1 << n) - 1
        joins = {j: image[j] for j in dom._least}.items()
        meets = {full ^ u: image[full ^ u] for u in up}.items()
        ctop = cmask[cod.top]
        for e, a in dmask.items():
            fa = image[a]
            v = ctop
            for m, fm in meets:
                if not a & ~m:
                    v &= fm
            if v != fa:
                raise StructureError(f"meet not preserved at {e!r}")
            v = 0
            for j, fj in joins:
                if not j & ~a:
                    v |= fj
            if v != fa:
                raise StructureError(f"join not preserved at {e!r}")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "graph", dict(graph))

    def __setattr__(self, *a):
        raise AttributeError("LatticeHom is immutable")

    def __call__(self, x: frozenset) -> frozenset:
        try:
            return self.graph[x]
        except KeyError:
            raise DomainError(f"{x!r} not in domain") from None

    def compose(self, other: "LatticeHom") -> "LatticeHom":
        """self after other."""
        if other.cod != self.dom:
            raise DomainError("composition mismatch")
        return LatticeHom(other.dom, self.cod, {a: self(other(a)) for a in other.dom.elements})

    def is_injective(self) -> bool:
        return len(set(self.graph.values())) == len(self.graph)

    def is_surjective(self) -> bool:
        return set(self.graph.values()) == set(self.cod.elements)

    @staticmethod
    def identity(a: FinLattice) -> "LatticeHom":
        return LatticeHom(a, a, {x: x for x in a.elements})


# -- constructions ----------------------------------------------------------


def lower_sets(p: FinPoset, budgets: Budgets | None = None) -> FinLattice:
    """The lattice of all lower sets of ``p`` (Boolean iff ``p`` is an antichain).

    With ``budgets``, the number of lower sets is checked against the
    ``elements`` budget while they are enumerated.
    """
    kind = "boolean" if p.is_antichain() else "distributive"
    return FinLattice(p, lower_sets_of(p, budgets), kind)


def join_irreducibles(a: FinLattice) -> FinPoset:
    """The poset of join-irreducible elements of ``a``.

    An element is join-irreducible when it differs from the join of
    everything strictly below it (so bottom is excluded).  These are the
    least elements containing each spectrum point.
    """
    irr = [(j, a._element(j)) for j in a._irreducibles()]
    return FinPoset([e for _, e in irr], [(e, f) for j, e in irr for k, f in irr if not j & ~k])


def birkhoff_embedding(a: FinLattice) -> tuple[FinLattice, LatticeHom]:
    """The canonical representation of ``a`` on its join-irreducibles.

    Returns the lattice of lower sets of the irreducible poset together
    with the map ``b -> {j irreducible | j <= b}``, and verifies that
    the map is an isomorphism (it is, for any distributive lattice).
    """
    jp = join_irreducibles(a)
    rep = lower_sets(jp)
    graph = {b: frozenset(j for j in jp.elements if j <= b) for b in a.elements}
    if len(set(graph.values())) != len(a.elements) or set(graph.values()) != set(rep.elements):
        raise StructureError("lattice is not distributive: set representation fails")
    return rep, LatticeHom(a, rep, graph)


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
    to_elem = {x: frozenset(items[j] for j in _bits(m)) for x, m in zip(items, masks)}
    family = set(to_elem.values())
    full = frozenset(js)
    kind = "boolean" if spectrum.is_antichain() and all(full - e in family for e in family) else "distributive"
    return FinLattice(spectrum, family, kind), to_elem


def powerset_lattice(points: Iterable[Hashable]) -> FinLattice:
    pts = list(dict.fromkeys(points))
    subsets = [frozenset()]
    for p in pts:
        subsets += [s | {p} for s in subsets]
    return FinLattice(FinPoset(pts), subsets, "boolean")


def lattice_isomorphic(a: FinLattice, b: FinLattice) -> bool:
    """Isomorphism of finite distributive lattices via their irreducible posets."""
    if len(a) != len(b):
        return False
    return poset_isomorphic(join_irreducibles(a), join_irreducibles(b))


def _hom_from_irreducibles(a: FinLattice, b: FinLattice, irr_img: dict) -> LatticeHom:
    """The hom ``a -> b`` sending x to the join of ``irr_img[j]`` over the keys j <= x.

    Keys are join-irreducibles of ``a``, values elements of ``b``; the
    result is validated by ``LatticeHom``.
    """
    imgs = [(a._mask[j], b._mask[v]) for j, v in irr_img.items()]
    graph = {}
    for e, m in zip(a.elements, a._mask.values()):
        v = 0
        for j, fj in imgs:
            if not j & ~m:
                v |= fj
        graph[e] = b._element(v)
    return LatticeHom(a, b, graph)


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
    irr = [a._element(j) for j in ja]
    homs = []
    for phi in phis:
        img = [0] * len(ja)
        for q, i in zip(jb, phi):
            img[i] |= q
        homs.append(_hom_from_irreducibles(a, b, {j: b._element(v) for j, v in zip(irr, img)}))
    homs.sort(key=lambda h: [b._pos(h.graph[j]) for j in irr])
    return homs


# -- derived operations ------------------------------------------------------


def borel_image(f: LatticeHom, b: frozenset) -> frozenset:
    """Least ``c`` in the domain of ``f`` with ``b <= f(c)``.

    Satisfies the adjunction ``b <= f(c)  iff  borel_image(f, b) <= c``.
    At finite scale the candidate set is meet-closed and nonempty, so
    the minimum exists; the error path guards malformed inputs.
    """
    if b not in f.cod:
        raise DomainError(f"{b!r} not in the codomain of f")
    candidates = [c for c in f.dom.elements if b <= f(c)]
    m = f.dom.top
    for c in candidates:
        m &= c
    if m not in f.dom or not b <= f(m):
        raise NoImageError(f"no least cover for {b!r} along f")
    return m


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
    join), so the ideals are the down-sets ``down(x)``; the unit
    ``x -> down(x)`` is asserted to be an isomorphism.
    """
    elems = a.elements
    down = {x: frozenset(y for y in elems if y <= x) for x in elems}
    lat, to_elem = lattice_from_abstract(down.values(), lambda i, j: i <= j)
    unit_graph = {x: to_elem[d] for x, d in down.items()}
    unit = LatticeHom(a, lat, unit_graph)
    if not (unit.is_injective() and unit.is_surjective()):
        raise StructureError("ideal completion is not an isomorphism at finite scale")
    return lat, unit
