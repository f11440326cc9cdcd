"""Free complementation of a finite distributive lattice.

``dissolve`` adjoins a complement for every element.  Its result is
read on pairs (a, neg b), the differences "a minus b".  It is the
Boolean lattice 2^J on the join-irreducibles J (Birkhoff duality; Davey
& Priestley, *Introduction to Lattices and Order*, ch. 5): the element
for S, a subset of J, holds the pairs with a minus b inside S.  Its pair
set is stored as the vector of column heads, each the set of
irreducibles (bit k for the k-th of ``FinLattice._irreducibles``) that
lie inside a point mask.  The head of neg b is the largest a with a <=
b \\/ S: the irreducibles inside the points of b and of S (as a point
mask, ``congruence._subsets``).  The unit sends x to the S of the
irreducibles inside x.  ``dissolve`` keeps the head vectors and builds
the pair sets, the ``repr`` dict, only when it is read; the unit is
built on masks, as are the result lattice's elements.

The rule-based fixpoint that builds the same pair ideals by closure is
the test oracle (``tests/oracles.py``).  Every call still re-checks the
result lattice, the unit as a lattice hom (the ``LatticeHom`` core),
and, on the masks, that the unit is injective and that the complement
of each unit image is an element.
"""

from __future__ import annotations

from .budgets import DEFAULT_BUDGETS, Budgets
from .congruence import OrderCongruence, _check_subsets, _subsets
from .errors import DomainError, StructureError
from .lattice import FinLattice, LatticeHom, _moved, _new, powerset_lattice

__all__ = ["Dissolution", "dissolve", "eta_principal", "nA_congruence_bijection"]


def neg(b):
    """Tag for elements of the order-reversed copy."""
    return ("neg", b)


def _pair_sets(a: FinLattice, codes: list[int], vecs: list[list[int]]):
    """The pair set of each head vector: the pairs (c, neg b) with c
    below the head of neg b; ``codes[i]`` is the irreducibles inside
    ``a.elements[i]``."""
    negs = [neg(e) for e in a.elements]
    under: dict[int, list] = {}  # head -> the elements below it
    for v in vecs:
        pairs = []
        for nb, h in zip(negs, v):
            u = under.get(h)
            if u is None:
                u = under[h] = [e for e, code in zip(a.elements, codes) if not code & ~h]
            pairs += [(c, nb) for c in u]
        yield frozenset(pairs)


class Dissolution:
    """A lattice, its free complementation, the unit, and the pair sets.

    ``repr`` maps each result element to its pair set.  ``dissolve``
    keeps the head vectors instead and builds that dict on first read.
    """

    __slots__ = ("base", "result", "unit", "_repr", "_heads")

    def __init__(self, base: FinLattice, result: FinLattice, unit: LatticeHom, repr: dict):
        self._fill(base, result, unit, repr, None)

    def _fill(self, base: FinLattice, result: FinLattice, unit: LatticeHom, repr, heads) -> None:
        """The constructor's core: ``heads`` is None when ``repr`` is given,
        else ``(keys, codes, vecs)`` as ``_pair_sets`` reads them, with the
        result element masks ``keys`` in ``repr`` order."""
        if unit.dom != base or unit.cod != result:
            raise DomainError("unit must go from the base to the result")
        if not unit.is_injective():
            raise StructureError("unit must be injective")
        full = (1 << len(result.spectrum)) - 1
        for m in unit._image:
            if full ^ m not in result._at:
                raise StructureError(f"{result._element(m)!r} has no complement in this lattice")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_repr", repr)
        object.__setattr__(self, "_heads", heads)

    def __setattr__(self, *a):
        raise AttributeError("Dissolution is immutable")

    @property
    def repr(self) -> dict:
        """Each result element's pair set, in head order; built on first read."""
        if self._repr is None:
            keys, codes, vecs = self._heads
            els, at = self.result.elements, self.result._at
            pairs = _pair_sets(self.base, codes, vecs)
            object.__setattr__(self, "_repr", {els[at[m]]: p for m, p in zip(keys, pairs)})
        return self._repr

    def __eq__(self, other) -> bool:
        return isinstance(other, Dissolution) and (self.base, self.result, self.unit) == (
            other.base, other.result, other.unit
        )

    def __hash__(self) -> int:
        return hash((self.base, self.result, self.unit))

    def __repr__(self) -> str:
        return f"Dissolution(base={self.base!r}, result={self.result!r})"


def dissolve(a: FinLattice, budgets: Budgets = DEFAULT_BUDGETS) -> Dissolution:
    """Freely adjoin complements: the Boolean lattice on the irreducibles of ``a``.

    The result has 2^|J| elements, and each pair set has one column per
    element of ``a``; both counts are checked against the ``elements``
    budget before anything is built.  The unit is built on masks and
    checked by the ``LatticeHom`` core; the pair sets wait for a read of
    ``repr``.
    """
    _check_subsets(budgets, a)
    irr = a._irreducibles()
    nj = len(irr)
    if nj > 62:  # the point numbering below packs each head in 8 bytes
        raise StructureError("lattice too large to dissolve")
    masks = list(a._at)
    inside: dict[int, int] = {}  # point mask t -> the irreducibles inside t

    def head(t: int) -> int:
        h = inside.get(t)
        if h is None:
            h = inside[t] = sum(1 << k for k, j in enumerate(irr) if not j & ~t)
        return h

    heads = [[head(m | s) for m in masks] for s in _subsets(a, irr)]
    # this order numbers the points of the result, which reports show:
    # head sum, then the heads as 8-byte little-endian words
    order = sorted(
        range(1 << nj),
        key=lambda s: (sum(heads[s]), b"".join(h.to_bytes(8, "little") for h in heads[s])),
    )
    label = {s: i for i, s in enumerate(order)}
    result = powerset_lattice([label[1 << k] for k in range(nj)], budgets)
    # irreducible k is the point label[1 << k] of the result
    weight = [1 << result.spectrum._index[label[1 << k]] for k in range(nj)]
    codes = [head(m) for m in masks]
    unit = _new(LatticeHom, a, result, _moved(codes, weight))
    vecs = [heads[s] for s in order]
    return _new(Dissolution, a, result, unit, None, (_moved(order, weight), codes, vecs))


def eta_principal(a: FinLattice, x) -> frozenset:
    """The pair set of the unit image of ``x``: {(b, neg c) | b <= x \\/ c}."""
    if x not in a.elements:
        raise DomainError(f"{x!r} not in the lattice")
    return frozenset((b, neg(c)) for c in a.elements for b in a.elements if b <= x | c)


def nA_congruence_bijection(a: FinLattice):
    """Mutually inverse maps between the complementation lattice and the
    order-congruences of ``a``.

    An element maps to the congruence relating a to b when the pair
    (a, neg b) lies in its pair set; a congruence maps back to the join
    of the differences unit(p) minus unit(q) over the pairs it relates.
    Round-trip identities are verified by the test suite, orientation
    fixed as stated here.
    """
    d = dissolve(a)

    def to_congruence(element) -> OrderCongruence:
        if element not in d.repr:
            raise DomainError(f"{element!r} not in the dissolution result")
        pairs = d.repr[element]
        return OrderCongruence(a, [(p, q[1]) for p, q in pairs])

    def to_element(c: OrderCongruence):
        if c.base != a:
            raise DomainError("congruence is not on this lattice")
        return d.result.join_of(d.unit(p) - d.unit(q) for p, q in c.rel)

    return to_congruence, to_element
