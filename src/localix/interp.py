"""Interpolants and separators.

Maehara-style extraction over the one-sided calculus, Boolean pushout
separators via spectra, cocomma and bilax-pushout interpolation by
guaranteed exhaustive/extremal search, and spatial Novikov separation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .budgets import DEFAULT_BUDGETS, Budgets
from .errors import (
    DomainError,
    NotSeparableError,
    PreconditionError,
    StructureError,
)
from .lattice import FinLattice, LatticeHom
from .order import canon_key
from .presented import bilax_pushout, cocomma_dl
from .sequent import (
    BOT,
    TOP,
    Derivation,
    Term,
    join_t,
    meet_t,
    neg,
    prove,
    term_key,
    term_vars,
)

__all__ = [
    "InterpolationProblem",
    "maehara_interpolant",
    "interpolate_sequent",
    "pushout_separators",
    "cocomma_interpolant",
    "bilax_separators",
    "novikov_separate",
]


@dataclass(frozen=True)
class InterpolationProblem:
    """Either a derivation with a generator split, or algebraic data."""

    derivation: Optional[Derivation] = None
    left: frozenset = frozenset()
    right: frozenset = frozenset()
    homs: tuple = ()
    elements: tuple = ()
    target: object = None

    def __post_init__(self):
        if self.derivation is None and not self.homs:
            raise DomainError("problem needs a derivation or algebraic homs")
        if self.homs and any(h.dom != self.homs[0].dom for h in self.homs):
            raise DomainError("algebraic homs must share a source")


def _assign_blocks(terms, left, right, blocks, prefer="L"):
    order = ("L", "R") if prefer == "L" else ("R", "L")
    sides = {"L": left, "R": right}
    for t in terms:
        if t in blocks:
            if not term_vars(t) <= sides[blocks[t]]:
                raise PreconditionError(
                    "split", f"term {t!r} does not fit its assigned block"
                )
            continue
        vs = term_vars(t)
        for side in order:
            if vs <= sides[side]:
                blocks[t] = side
                break
        else:
            raise PreconditionError(
                "split", f"term {t!r} uses generators from both blocks"
            )


def maehara_interpolant(
    d: Derivation,
    left: Iterable,
    right: Iterable,
    blocks: Optional[dict] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Term:
    """Interpolant extraction by induction over a cut-free derivation.

    Each term of the root sequent is assigned to the block covering its
    generators (left preferred); rule premises inherit the principal's
    block.  The two obligations are re-proved under ``budgets`` and the
    shared-generator condition is asserted before returning.
    """
    d.validate()
    left, right = frozenset(left), frozenset(right)

    def go(node: Derivation, blocks: dict) -> Term:
        a = node.sequent
        if node.rule == "axiom":
            for t in sorted(a, key=term_key):
                if t.kind != "pos":
                    continue
                nt = Term("neg", t.gen)
                if nt not in a:
                    continue
                bl, bn = blocks[t], blocks[nt]
                if bl == "L" and bn == "L":
                    return BOT
                if bl == "R" and bn == "R":
                    return TOP
                return nt if bl == "L" else t
            raise StructureError("axiom node lacks a literal pair")
        side = blocks[node.principal]
        child_blocks = dict(blocks)
        for c in node.children:
            for t in c.sequent - a:
                child_blocks.setdefault(t, side)
        parts = [go(c, child_blocks) for c in node.children]
        if node.rule == "meetR":
            return join_t(parts) if side == "L" else meet_t(parts)
        return parts[0]  # joinR variants pass the premise interpolant up

    blocks = dict(blocks) if blocks else {}
    _assign_blocks(d.sequent, left, right, blocks)
    i = go(d, blocks)
    if not term_vars(i) <= left & right:
        raise StructureError("interpolant escapes the shared generators")
    a_l = frozenset(t for t in d.sequent if blocks[t] == "L")
    a_r = d.sequent - a_l
    if not prove(a_l | {i}, budgets=budgets).derivable:
        raise StructureError("left interpolation obligation failed to re-prove")
    if not prove(a_r | {neg(i)}, budgets=budgets).derivable:
        raise StructureError("right interpolation obligation failed to re-prove")
    return i


def interpolate_sequent(
    s, left: Iterable, right: Iterable, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[Term, Derivation]:
    """Prove a two-sided sequent and interpolate it.

    Antecedent terms default into the left block and succedent terms
    into the right block, so shared-vocabulary terms interpolate the
    way the turnstile reads.
    """
    left, right = frozenset(left), frozenset(right)
    result = prove(s, budgets=budgets)
    if not result.derivable:
        raise PreconditionError("derivable", f"{s} is not derivable")
    blocks: dict = {}
    _assign_blocks((neg(t) for t in s.left), left, right, blocks, prefer="L")
    _assign_blocks(s.right, left, right, blocks, prefer="R")
    i = maehara_interpolant(result.derivation, left, right, blocks, budgets)
    return i, result.derivation


# -- Boolean pushout separation ----------------------------------------------


def _atom_trace(h: LatticeHom, q) -> Optional[object]:
    """The atom of the domain that an atom of the codomain restricts to."""
    for p in h.dom.atoms():
        if q <= h(p):
            return p
    return None


def _pushout_tuples(homs: list[LatticeHom]) -> list[tuple]:
    """Spectra pullback: codomain-atom tuples over a common domain atom."""
    a = homs[0].dom
    for h in homs:
        if h.dom != a:
            raise DomainError("separator homs must share a source")
        if h.dom.kind != "boolean" or h.cod.kind != "boolean":
            raise DomainError("pushout separation requires Boolean lattices")
    out = []
    for qs in itertools.product(*[h.cod.atoms() for h in homs]):
        traces = [_atom_trace(h, q) for h, q in zip(homs, qs)]
        if len(set(traces)) == 1 and traces[0] is not None:
            out.append((traces[0], qs))
    return out


def pushout_separators(
    a: FinLattice,
    homs: list[LatticeHom],
    bs: list[frozenset],
    target: frozenset,
) -> list[frozenset]:
    """Elements a_i with meet(a_i) <= target and b_i <= f_i(a_i).

    The hypothesis — the meet of the b_i lies below the target inside
    the pushout — is checked first on the spectra pullback.  The answer
    is the spectral witness: a_i is the join of the atoms traced by the
    atoms under b_i, the least a with b_i <= f_i(a).  Under the
    hypothesis the Boolean interpolation theorem makes it a separator;
    it is re-checked before it is returned.  The exhaustive search over
    tuples from ``a`` is the test oracle (``tests/oracles.py``).
    """
    if len(homs) != len(bs) or not homs:
        raise DomainError("one element per hom required")
    if target not in a:
        raise DomainError("target must be an element of the shared source")
    pts = _pushout_tuples(homs)
    for p, qs in pts:
        if all(q <= b for q, b in zip(qs, bs)) and not p <= target:
            raise PreconditionError(
                "hypothesis", "meet of the b_i is not below the target in the pushout"
            )
    spectral = []
    for h, b in zip(homs, bs):
        traced = [_atom_trace(h, q) for q in h.cod.atoms() if q <= b]
        x = a.bot
        for p in traced:
            if p is not None:
                x |= p
        spectral.append(x)
    if a.meet_of(spectral) <= target and all(b <= h(x) for h, b, x in zip(homs, bs, spectral)):
        return spectral
    raise StructureError("no separator tuple exists despite the hypothesis")


def cocomma_interpolant(
    f: LatticeHom,
    g: LatticeHom,
    b: frozenset,
    b2: frozenset,
    c: frozenset,
    c2: frozenset,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> frozenset:
    """The element a with b <= f(a) \\/ b2 and c /\\ g(a) <= c2.

    The hypothesis b /\\ c <= b2 \\/ c2 is checked inside the cocomma of
    ``f`` and ``g``; existence is then guaranteed, so the exhaustive
    scan failing is a structural error, not a result.
    """
    for x, lat in ((b, f.cod), (b2, f.cod), (c, g.cod), (c2, g.cod)):
        if x not in lat:
            raise DomainError(f"{x!r} is not in its stated lattice")
    d, inl, inr = cocomma_dl(f, g, budgets)
    if not d.leq(d.meet(inl(b), inr(c)), d.join(inl(b2), inr(c2))):
        raise PreconditionError(
            "hypothesis", "b /\\ c <= b2 \\/ c2 fails in the cocomma"
        )
    for x in sorted(f.dom.elements, key=canon_key):
        if b <= f(x) | b2 and c & g(x) <= c2:
            return x
    raise StructureError("no interpolant exists despite the hypothesis")


def bilax_separators(
    fs: list[LatticeHom],
    gs: list[LatticeHom],
    bs: list[frozenset],
    cs: list[frozenset],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[list[frozenset], list[frozenset]]:
    """Families a_i, a_j with meet(a_i) <= join(a_j), b_i <= f_i(a_i),
    and g_j(a_j) <= c_j, given the mixed inequality in the bilax apex.

    Witnesses are extremal: each a_i is the least element pushed above
    b_i, each a_j the greatest pulled below c_j; since those choices
    only ease the middle inequality, the greedy pick is complete.
    """
    if len(fs) != len(bs) or len(gs) != len(cs) or not (fs or gs):
        raise DomainError("one element per hom required")
    apex, _, inls, outs = bilax_pushout(fs, gs, budgets)
    lhs = apex.top
    for h, b in zip(inls, bs):
        lhs &= h(b)
    rhs = apex.bot
    for h, c in zip(outs, cs):
        rhs |= h(c)
    if not lhs <= rhs:
        raise PreconditionError(
            "hypothesis", "the mixed inequality fails in the bilax pushout"
        )
    a = (fs or gs)[0].dom
    als = []
    for f, b in zip(fs, bs):
        x = a.top
        for y in a.elements:
            if b <= f(y):
                x &= y
        als.append(x)
    ars = []
    for g, c in zip(gs, cs):
        x = a.bot
        for y in a.elements:
            if g(y) <= c:
                x |= y
        ars.append(x)
    m = a.top
    for x in als:
        m &= x
    j = a.bot
    for x in ars:
        j |= x
    if not m <= j:
        raise StructureError("extremal separators fail despite the hypothesis")
    for f, b, x in zip(fs, bs, als):
        if not b <= f(x):
            raise StructureError("separator fails its pushforward clause")
    for g, c, x in zip(gs, cs, ars):
        if not g(x) <= c:
            raise StructureError("separator fails its pullback clause")
    return als, ars


def novikov_separate(
    maps: list[tuple[dict, frozenset]], space: frozenset
) -> list[frozenset]:
    """Supersets of the images with empty intersection.

    Each map is (graph, domain).  The fiber product over the space is
    empty exactly when the images have empty intersection; at finite
    scale the images themselves separate.
    """
    if not maps:
        raise DomainError("at least one map required")
    images = []
    for graph, dom in maps:
        if set(graph) != set(dom):
            raise DomainError("map graph must cover its domain")
        for v in graph.values():
            if v not in space:
                raise DomainError(f"image value {v!r} escapes the space")
        images.append(frozenset(graph.values()))
    common = space
    for im in images:
        common &= im
    if common:
        x = min(common, key=canon_key)
        witness = tuple(
            min((y for y, v in graph.items() if v == x), key=canon_key)
            for graph, _ in maps
        )
        raise NotSeparableError(witness=(x, witness))
    return images
