"""Finite topologies, closure/interior, Comgr, and Baire decompositions.

A FrameTopology is built from a point set and a family of opens closed
under union and intersection, checked as a ``FinLattice`` over the
discrete points.  Points with the same least neighbourhood (the
lattice's ``_least``) are collapsed to a representative, so the ambient
Boolean algebra is the powerset of the spectrum of the opens lattice and
every open is join-irreducibly generated by a minimal neighborhood.  All
category-style notions (dense, meager, comeager) live in that ambient,
whose elements are frozensets of representatives; it is never built.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError, StructureError
from .lattice import FinLattice, lattice_from_abstract
from .order import FinPoset, _bits, _new, canon_key

__all__ = [
    "FrameTopology",
    "interior",
    "closure",
    "boundary",
    "regularize",
    "regular_opens",
    "comgr",
    "is_dense",
    "is_meager",
    "baire_decompose",
    "sigma2_family",
]


class FrameTopology:
    """A finite point-set topology, reduced to its spectrum.

    ``points`` may contain topologically indistinguishable points;
    each class is collapsed to its canonically least member, so the
    stored opens form a sublattice of the powerset of the class
    representatives with exactly one join-irreducible per point.
    """

    __slots__ = ("points", "reps", "rep_of", "opens", "min_nbhd")

    def __init__(self, points: Iterable, opens: Iterable[frozenset]):
        spectrum = FinPoset(points)
        pts = spectrum.elements
        full = frozenset(pts)
        fam = {frozenset(o) for o in opens}
        for o in fam:
            if not o <= full:
                raise DomainError(f"open {o!r} is not a subset of the points")
        # raises StructureError unless the opens are closed under & and |
        lat = FinLattice(spectrum, fam | {frozenset(), full})
        # glued points share their least neighbourhood; the first is the rep
        first: dict[int, object] = {}
        rep_of = {p: first.setdefault(nb, p) for p, nb in zip(pts, lat._least)}
        reps = tuple(first.values())
        keep = sum(1 << spectrum._index[r] for r in reps)
        red = {spectrum._set(m & keep) for m in lat._at}
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "rep_of", rep_of)
        object.__setattr__(self, "opens", tuple(sorted(red, key=canon_key)))
        object.__setattr__(
            self, "min_nbhd", {r: spectrum._set(nb).intersection(reps) for nb, r in first.items()}
        )

    def __setattr__(self, *a):
        raise AttributeError("FrameTopology is immutable")

    def __repr__(self) -> str:
        return f"FrameTopology({len(self.reps)} points, {len(self.opens)} opens)"

    def top(self) -> frozenset:
        return frozenset(self.reps)

    def is_open(self, b: frozenset) -> bool:
        self.check(b)
        return b in set(self.opens)

    def check(self, b: frozenset) -> None:
        if not b <= frozenset(self.reps):
            raise DomainError(f"{b!r} is not an ambient element")

    def opens_lattice(self) -> tuple[FinLattice, dict]:
        """The opens as an abstract distributive lattice."""
        return lattice_from_abstract(list(self.opens), lambda u, v: u <= v)


def interior(t: FrameTopology, b: frozenset) -> frozenset:
    """Largest open below ``b``: the upper adjoint of the inclusion of the
    opens.  An open holds the least neighbourhood of each of its points,
    so it is the union of the least neighbourhoods inside ``b``."""
    t.check(b)
    out = frozenset()
    for x in b:
        if t.min_nbhd[x] <= b:
            out |= t.min_nbhd[x]
    return out


def closure(t: FrameTopology, b: frozenset) -> frozenset:
    """Least closed set (complement of an open) above ``b``."""
    t.check(b)
    return t.top() - interior(t, t.top() - b)


def boundary(t: FrameTopology, b: frozenset) -> frozenset:
    return closure(t, b) - interior(t, b)


def regularize(t: FrameTopology, u: frozenset) -> frozenset:
    """Interior of the closure; idempotent on opens."""
    return interior(t, closure(t, u))


def regular_opens(t: FrameTopology) -> list[frozenset]:
    return [u for u in t.opens if regularize(t, u) == u]


def _core(t: FrameTopology) -> frozenset:
    """The comeager core: the meet over all opens U of (closure(U)
    implies U), implication taken in the ambient Boolean algebra.

    A point x is in closure(U) iff U meets x's least neighbourhood, so
    the core holds x iff x's least neighbourhood is {x}: another point y
    in it has a least neighbourhood U meeting it, and after the T0
    collapse U misses x.
    """
    return frozenset(x for x in t.reps if len(t.min_nbhd[x]) == 1)


def comgr(t: FrameTopology) -> tuple[frozenset, FinLattice]:
    """The comeager core (``_core``) and the regular-open algebra."""
    core, _, lat = _comgr(t)
    return core, lat


def _comgr(t: FrameTopology) -> tuple[frozenset, list[frozenset], FinLattice]:
    """``comgr`` with the regular opens.

    The core points are the open points, and they are dense, so each
    regular open is the regularization of its core points: the regular
    opens form the Boolean algebra on the atoms ``regularize({x})``, x
    in the core, and each is the mask of its core points over the
    atoms.  Certified by 2^|core| distinct masks, and by ``FinLattice``.
    """
    regs, core = regular_opens(t), _core(t)
    atom = {x: regularize(t, frozenset({x})) for x in core}
    spectrum = FinPoset(atom.values())
    bit = {x: 1 << spectrum._index[a] for x, a in atom.items()}
    masks = {sum(bit[x] for x in u & core) for u in regs}
    if not len(regs) == len(masks) == 1 << len(core):
        raise StructureError(f"{len(regs)} regular opens, not 2^{len(core)}")
    return core, regs, _new(FinLattice, spectrum, masks, "boolean")


def is_dense(t: FrameTopology, b: frozenset) -> bool:
    return closure(t, b) == t.top()


def is_meager(t: FrameTopology, b: frozenset) -> bool:
    """Meager: disjoint from the comeager core."""
    t.check(b)
    return not (b & _core(t))


def baire_decompose(t: FrameTopology, b: frozenset) -> tuple[frozenset, frozenset]:
    """An open differing from ``b`` by a meager set.

    The opens u with b ^ u meager are those that agree with ``b`` on
    the comeager core, a family closed under intersection; its least
    member, the first in canonical order, is b's part in the core,
    whose points are open.  Certified open; what is left, b minus the
    core, is meager.
    """
    t.check(b)
    u = b & _core(t)
    if interior(t, u) != u:
        raise StructureError("no open differs from the element by a meager set")
    return u, b ^ u


def sigma2_family(t: FrameTopology) -> frozenset:
    """Sublattice of the ambient generated by opens and their complements.

    It is every subset of the points: each point x is the atom
    U_x minus the union of U_y over the other y in U_x, with U_x its
    least open (after the T0 collapse no such U_y holds x), and the atoms
    join to every subset.  The atoms are checked on masks over the points.
    """
    idx = {x: i for i, x in enumerate(t.reps)}
    nbhd = [sum(1 << idx[y] for y in t.min_nbhd[x]) for x in t.reps]
    for i, u in enumerate(nbhd):
        others = 0
        for j in _bits(u & ~(1 << i)):
            others |= nbhd[j]
        if u & ~others != 1 << i:
            raise StructureError(f"point {t.reps[i]!r} is not an atom of the opens and closeds")
    subsets = [frozenset()]
    for x in t.reps:
        subsets += [s | {x} for s in subsets]
    return frozenset(subsets)
