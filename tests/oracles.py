"""Reference implementations that the library's fast paths are tested against.

Each oracle follows the definition directly, with frozenset pairs and no
masks, so that it shares no logic with the code under test.
"""

from __future__ import annotations

from localix.errors import DomainError, StructureError
from localix.order import FinPoset, canon_key


def lattice_elements(spectrum: FinPoset, elements, kind: str = "distributive") -> tuple:
    """The checks ``FinLattice`` makes, pair by pair; returns its ``elements``.

    Raises what ``FinLattice`` raises on the same input.
    """
    if kind not in ("distributive", "boolean"):
        raise DomainError(f"unknown lattice kind {kind!r}")
    elems = tuple(sorted({frozenset(e) for e in elements}, key=canon_key))
    eset = frozenset(elems)
    full = frozenset(spectrum.elements)
    if frozenset() not in eset or full not in eset:
        raise StructureError("element family must contain the empty and full set")
    for e in elems:
        if not e <= full:
            raise StructureError(f"element {e!r} is not a subset of the spectrum")
        for x in e:
            for y in spectrum.elements:
                if spectrum.leq(y, x) and y not in e:
                    raise StructureError(
                        f"element {e!r} is not a lower set: misses {y!r} <= {x!r}"
                    )
    for a in elems:
        for b in elems:
            if (a & b) not in eset or (a | b) not in eset:
                raise StructureError("family not closed under intersection/union")
    if kind == "boolean":
        if not spectrum.is_antichain():
            raise StructureError("boolean lattice requires an antichain spectrum")
        for a in elems:
            if (full - a) not in eset:
                raise StructureError(f"no complement for {a!r}")
    return elems


def check_hom(dom, cod, graph: dict) -> None:
    """The checks ``LatticeHom`` makes, with every pair of domain elements."""
    if set(graph) != set(dom.elements):
        raise DomainError("graph must be defined on exactly the domain elements")
    for v in graph.values():
        if v not in cod:
            raise DomainError(f"image {v!r} not in codomain")
    if graph[dom.bot] != cod.bot or graph[dom.top] != cod.top:
        raise StructureError("homomorphism must preserve bottom and top")
    for a in dom.elements:
        for b in dom.elements:
            if graph[a & b] != graph[a] & graph[b]:
                raise StructureError(f"meet not preserved at ({a!r}, {b!r})")
            if graph[a | b] != graph[a] | graph[b]:
                raise StructureError(f"join not preserved at ({a!r}, {b!r})")


def join_irreducibles(a) -> FinPoset:
    """Elements that differ from the join of everything strictly below them."""
    irr = []
    for e in a.elements:
        below = frozenset().union(*[x for x in a.elements if x < e])
        if e and e != below:
            irr.append(e)
    return FinPoset(irr, [(x, y) for x in irr for y in irr if x <= y])
