"""Free complementation of a finite distributive lattice.

``dissolve`` adjoins a complement for every element: the result is the
ideal lattice of a cover structure on pairs (a, neg b), read as the
differences "a minus b".  Ideals are saturated lower sets of pairs,
closed under joins in the first coordinate, meets in the second, the
order pairs a <= b, and a mixing rule; every column {a | (a, neg b)}
of an ideal is then a principal lower set, so an ideal is stored as
the vector of its column heads, each a mask over the join-irreducibles
of the lattice's shared index.  The construction never consults the
powerset oracle; agreement with the free Boolean extension is test
surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruence import OrderCongruence
from .errors import DomainError, StructureError
from .lattice import FinLattice, LatticeHom, _index, _Index
from .order import FinPoset

__all__ = ["Dissolution", "dissolve", "eta_principal", "nA_congruence_bijection"]


def neg(b):
    """Tag for elements of the order-reversed copy."""
    return ("neg", b)


def _close(ix: _Index, heads: list[int]) -> list[int]:
    """Least ideal whose column heads dominate ``heads``.

    Heads are masks over the join-irreducibles, one per negated element
    b.  Rules on the head vector A: A_b >= b; A monotone and
    meet-preserving in b; and the mixing rule A_b >= A_d /\\ c for every
    d, where c is the largest element with c /\\ d <= A_b.
    """
    mask = ix.mask
    down = [mask[ix.pos[j]] for j in ix.irr]  # principal down-masks of J
    meet, join = ix.meet, ix.join
    largest: dict[int, int] = {}  # x -> mask of the largest c missing x
    a = [h | m for h, m in zip(heads, mask)]
    n = len(a)
    while True:
        before = a[:]
        # A_{d /\ d'} >= A_d /\ A_{d'} and A_{d \/ d'} >= A_d \/ A_{d'};
        # with A_b >= b these are exactly the lower-set and coordinate
        # closure rules.  Both operations commute, so pairs i < j suffice.
        for i in range(n):
            ai, mi, ji = a[i], meet[i], join[i]
            for j in range(i + 1, n):
                aj = a[j]
                a[mi[j]] |= ai & aj
                a[ji[j]] |= ai | aj
        # mixing: c has as mask the irreducibles whose down-mask misses
        # d minus A_b
        for b in range(n):
            ab = a[b]
            for d in range(n):
                ad = a[d]
                if not ad & ~ab:
                    continue
                x = mask[d] & ~ab
                c = largest.get(x)
                if c is None:
                    c = largest[x] = sum(
                        1 << k for k, dk in enumerate(down) if not dk & x
                    )
                ab |= ad & c
            a[b] = ab
        if a == before:
            return a


def _heads_to_pairs(ix: _Index, heads: list[int]) -> frozenset:
    elems, mask = ix.elems, ix.mask
    return frozenset(
        (elems[c], neg(elems[b]))
        for b, h in enumerate(heads)
        for c, m in enumerate(mask)
        if not m & ~h
    )


@dataclass(frozen=True)
class Dissolution:
    """A lattice, its free complementation, the unit, and the pair sets."""

    base: FinLattice
    result: FinLattice
    unit: LatticeHom
    repr: dict = field(compare=False)

    def __post_init__(self):
        if len({self.unit(x) for x in self.base.elements}) != len(self.base):
            raise StructureError("unit must be injective")
        for x in self.base.elements:
            self.result.complement(self.unit(x))  # raises if missing


def dissolve(a: FinLattice) -> Dissolution:
    """Freely adjoin complements: the pair-ideal lattice of ``a``.

    Ideals are enumerated as the join closure of the principal ideals
    of single pairs, starting from the least ideal.
    """
    ix = _index(a)
    if len(ix.irr) > 62:  # the point numbering below packs each head in 8 bytes
        raise StructureError("lattice too large to dissolve")
    mask = ix.mask
    n = len(mask)
    bottom = tuple(_close(ix, mask))
    principals = set()
    for i in range(n):
        for j in range(n):
            if not mask[i] & ~mask[j]:
                continue  # pair below the order diagonal: least ideal
            g = list(bottom)
            g[j] |= mask[i]
            principals.add(tuple(_close(ix, g)))
    seen = {bottom}
    queue = [bottom]
    while queue:
        cur = queue.pop()
        for g in principals:
            if any(h & ~c for h, c in zip(g, cur)):
                nxt = tuple(_close(ix, [h | c for h, c in zip(g, cur)]))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    # this order numbers the points of the result, which reports show:
    # head sum, then the heads as 8-byte little-endian words
    vecs = sorted(
        seen, key=lambda v: (sum(v), b"".join(h.to_bytes(8, "little") for h in v))
    )
    # build the ideal lattice directly on integer labels: ideals are
    # ordered by pointwise mask inclusion, and an ideal is
    # join-irreducible when it exceeds the join of everything below it
    def vleq(u, v):
        return not any(h & ~k for h, k in zip(u, v))

    below = [[j for j, u in enumerate(vecs) if i != j and vleq(u, v)] for i, v in enumerate(vecs)]
    irr = []
    for i, v in enumerate(vecs):
        if not below[i]:
            continue
        acc = [0] * n
        for j in below[i]:
            acc = [h | k for h, k in zip(acc, vecs[j])]
        if tuple(_close(ix, acc)) != v:
            irr.append(i)
    elems = {i: frozenset(j for j in irr if vleq(vecs[j], vecs[i])) for i in range(len(vecs))}
    if len(set(elems.values())) != len(vecs):
        raise StructureError("ideal lattice is not distributive")
    spectrum = FinPoset(irr, [(i, j) for i in irr for j in irr if vleq(vecs[i], vecs[j])])
    family = set(elems.values())
    full = frozenset(irr)
    kind = (
        "boolean"
        if spectrum.is_antichain() and all(full - e in family for e in family)
        else "distributive"
    )
    result = FinLattice(spectrum, family, kind)
    by_vec = {v: i for i, v in enumerate(vecs)}
    repr_map = {elems[i]: _heads_to_pairs(ix, v) for i, v in enumerate(vecs)}
    unit_graph = {}
    for x in a.elements:
        g = list(bottom)
        g[ix.pos[a.bot]] |= mask[ix.pos[x]]
        unit_graph[x] = elems[by_vec[tuple(_close(ix, g))]]
    unit = LatticeHom(a, result, unit_graph)
    return Dissolution(a, result, unit, repr_map)


def eta_principal(a: FinLattice, x) -> frozenset:
    """The pair set of the unit image of ``x``.

    Computed as the fixpoint closure of {(x, neg bottom)} and asserted
    equal to the closed form {(b, neg c) | b <= x \\/ c}.
    """
    if x not in a.elements:
        raise DomainError(f"{x!r} not in the lattice")
    ix = _index(a)
    g = list(ix.mask)
    g[ix.pos[a.bot]] |= ix.mask[ix.pos[x]]
    closed = _heads_to_pairs(ix, _close(ix, g))
    direct = frozenset(
        (b, neg(c)) for b in a.elements for c in a.elements if b <= x | c
    )
    if closed != direct:
        raise StructureError("principal closure disagrees with its closed form")
    return closed


def nA_congruence_bijection(a: FinLattice):
    """Mutually inverse maps between the complementation lattice and the
    order-congruences of ``a``.

    An element maps to the congruence relating a to b when the pair
    (a, neg b) lies in its pair set; a congruence maps back to the join
    of the pairs it relates.  Round-trip identities are verified by the
    test suite, orientation fixed as stated here.
    """
    d = dissolve(a)
    ix = _index(a)
    by_pairs = {v: k for k, v in d.repr.items()}

    def to_congruence(element) -> OrderCongruence:
        if element not in d.repr:
            raise DomainError(f"{element!r} not in the dissolution result")
        pairs = d.repr[element]
        return OrderCongruence(a, [(p, q[1]) for p, q in pairs])

    def to_element(c: OrderCongruence):
        if c.base != a:
            raise DomainError("congruence is not on this lattice")
        g = list(ix.mask)
        for p, q in c.rel:
            g[ix.pos[q]] |= ix.mask[ix.pos[p]]
        return by_pairs[_heads_to_pairs(ix, _close(ix, g))]

    return to_congruence, to_element
