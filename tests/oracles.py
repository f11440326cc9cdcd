"""Reference implementations that the library's fast paths are tested against.

Each oracle follows the definition directly, with frozenset pairs and no
masks, so that it shares no logic with the code under test.
"""

from __future__ import annotations

import itertools

from localix.budgets import DEFAULT_BUDGETS, Budgets, check_budget
from localix.errors import DomainError, StructureError
from localix.lattice import lattice_from_abstract
from localix.order import FinPoset, canon_key, lower_sets_of
from localix.sequent import (
    Derivation,
    ProofResult,
    Sequent,
    Term,
    eval_term,
    term_vars,
)


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


def term_key(t: Term):
    """The sort key of a term, recomputed from its children every time."""
    if t.kind in ("pos", "neg"):
        return (0, t.kind, canon_key(t.gen))
    return (1, t.kind, len(t.children), tuple(sorted(term_key(c) for c in t.children)))


def prove(s, calculus: str = "finitary", budgets: Budgets = DEFAULT_BUDGETS) -> ProofResult:
    """Complete memoized backward search, and a countermodel by enumeration.

    A repeated sequent along a branch cannot occur in any minimal
    derivation (premises only grow), so cyclic branches are failures and
    both verdicts memoize soundly.
    """
    if calculus not in ("finitary", "infinitary"):
        raise DomainError(f"unknown calculus {calculus!r}")
    a0 = s.one_sided() if isinstance(s, Sequent) else frozenset(s)
    gens = frozenset()
    for t in a0:
        gens |= term_vars(t)
        check_budget(budgets, "sequent_depth", t.depth)
    check_budget(budgets, "sequent_gens", len(gens))
    memo: dict = {}
    in_progress: set = set()

    def search(a: frozenset):
        if a in memo:
            return memo[a]
        if a in in_progress:
            return False
        for t in a:
            if t.kind == "pos" and Term("neg", t.gen) in a:
                d = Derivation(a, "axiom", None, ())
                memo[a] = d
                return d
        in_progress.add(a)
        found = False
        for p in sorted(a, key=term_key):
            if p.kind == "meet":
                subs = []
                for b in sorted(p.children, key=term_key):
                    sub = search(a | {b})
                    if not sub:
                        break
                    subs.append(sub)
                else:
                    found = Derivation(a, "meetR", p, tuple(subs))
                    break
            elif p.kind == "join" and p.children:
                if calculus == "finitary":
                    for b in sorted(p.children, key=term_key):
                        sub = search(a | {b})
                        if sub:
                            found = Derivation(a, "joinR", p, (sub,))
                            break
                    if found:
                        break
                else:
                    sub = search(a | p.children)
                    if sub:
                        found = Derivation(a, "joinR-inf", p, (sub,))
                        break
        in_progress.discard(a)
        memo[a] = found
        return found

    d = search(a0)
    if d:
        d.validate()
        return ProofResult(True, d, None)
    order = sorted(gens, key=canon_key)
    for bits in itertools.product((False, True), repeat=len(order)):
        v = dict(zip(order, bits))
        if not any(eval_term(t, v) for t in a0):
            return ProofResult(False, None, v)
    raise StructureError("refuted sequent admits no countermodel")


def ideal_completion(a) -> tuple:
    """Ideals (nonempty, lower, join-closed) found among all down-sets.

    Returns what ``lattice.ideal_completion`` returns: the realized
    lattice of ideals and the unit graph x -> the ideal below x.
    """
    ideals = [
        d
        for d in lower_sets_of(a.element_poset())
        if d and all((x | y) in d for x in d for y in d)
    ]
    lat, to_elem = lattice_from_abstract(ideals, lambda i, j: i <= j)
    graph = {x: to_elem[frozenset(y for y in a.elements if y <= x)] for x in a.elements}
    return lat, graph
