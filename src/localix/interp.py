"""Interpolants and separators.

Maehara-style extraction over the one-sided calculus, Boolean pushout
separators via spectra, cocomma and bilax-pushout interpolation, and
spatial Novikov separation.  The algebraic witnesses are extremal, so
each is an adjoint of a hom: the least a with b <= f(a) (the lower
adjoint, ``lattice.borel_image``) or the greatest a with f(a) <= c (the
upper adjoint).  Every witness is re-checked before it is returned.
Sequent interpolants are read off a derivation of split sequents, once
per distinct node, and their two obligations are certified on truth
tables.  ``interpolate_sequent`` extracts from the derivation ``prove``
has just validated and does not validate it again;
``maehara_interpolant``, which takes any derivation, does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import (
    DomainError,
    NotSeparableError,
    PreconditionError,
    StructureError,
)
from .lattice import FinLattice, LatticeHom, _upper_adjoint, borel_image
from .order import canon_key
from .presented import _pullback, bilax_pushout, cocomma_dl
from .sequent import (
    BOT,
    TOP,
    Derivation,
    Term,
    _collect,
    _tables,
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


def _split(groups, left: frozenset, right: frozenset) -> tuple[frozenset, frozenset]:
    """The left and right parts of a split sequent.

    ``groups`` pairs terms with the blocks they may go to, in order of
    preference ("LR", "RL", or one pinned block).  Each term goes to the
    first of its blocks that covers its generators; a term listed twice
    can end up in both parts.  A term that fits none of its blocks is
    reported, the first in ``term_key`` order, so the message does not
    depend on set order.
    """
    sides = {"L": left, "R": right}
    parts: dict[str, set] = {"L": set(), "R": set()}
    bad = []
    for terms, order in groups:
        for t in terms:
            vs = term_vars(t)
            for side in order:
                if vs <= sides[side]:
                    parts[side].add(t)
                    break
            else:
                why = "uses generators from both blocks"
                if len(order) == 1:
                    why = "does not fit its assigned block"
                bad.append((t, why))
    if bad:
        t, why = min(bad, key=lambda tw: term_key(tw[0]))
        raise PreconditionError("split", f"term {t!r} {why}")
    return frozenset(parts["L"]), frozenset(parts["R"])


def maehara_interpolant(
    d: Derivation,
    left: Iterable,
    right: Iterable,
    blocks: Optional[dict] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Term:
    """Interpolant extraction by induction over a cut-free derivation.

    ``blocks`` may pin terms of the root sequent to "L" or "R"; every
    other term goes to the block covering its generators (left
    preferred).  The generator count is checked against ``budgets``
    first, then the derivation is validated; the two obligations are
    certified on truth tables and the shared-generator condition is
    asserted before returning.
    """
    left, right = frozenset(left), frozenset(right)
    gens = frozenset().union(*map(term_vars, d.sequent))
    check_budget(budgets, "sequent_gens", len(gens))
    d.validate()
    pinned = blocks or {}
    groups = [((t,), pinned[t]) for t in d.sequent if t in pinned]
    groups.append(([t for t in d.sequent if t not in pinned], "LR"))
    return _extract(d, left, right, *_split(groups, left, right))


def _flat(kind: str, parts: Iterable[Term]) -> Term:
    """The meet or join of ``parts``, flattened: children of the same
    kind are merged (so units vanish) and a single child stands alone."""
    kids: set = set()
    for p in parts:
        if p.kind == kind:
            kids |= p.children
        else:
            kids.add(p)
    if len(kids) == 1:
        return kids.pop()
    return Term(kind, None, frozenset(kids))


def _extract(
    d: Derivation, left: frozenset, right: frozenset, lpart: frozenset, rpart: frozenset
) -> Term:
    """The interpolant of the validated ``d`` for the split ``lpart ; rpart``.

    Nodes carry split sequents: a term sits in the left part, the right
    part or both, and a premise's new terms join the principal's part
    (Maehara; Troelstra & Schwichtenberg, *Basic Proof Theory*, 4.4).  A
    principal in both parts is read as a left one.  Parts are int masks
    over the root's subterms, and each distinct (node, left part, right
    part) is extracted once.  The result is certified: its generators
    are shared, and |- lpart, I and |- rpart, not I hold on truth tables
    over the root's generators.
    """
    subterms: dict[Term, None] = {}
    for t in d.sequent:
        _collect(t, subterms)
    bit = {t: 1 << r for r, t in enumerate(subterms)}
    # complementary pairs, in term_key order of their positive literal
    pos = sorted((t for t in subterms if t.kind == "pos" and t.dual in bit), key=term_key)
    pairs = [(bit[t] | bit[t.dual], bit[t], t) for t in pos]
    masks: dict[int, int] = {}
    memo: dict[tuple, Term] = {}

    def go(node: Derivation, lm: int, rm: int) -> Term:
        key = (id(node), lm, rm)
        i = memo.get(key)
        if i is not None:
            return i
        m = lm | rm
        if node.rule == "axiom":
            for pm, pb, t in pairs:
                if m & pm == pm:
                    if lm & pm == pm:
                        i = BOT
                    elif rm & pm == pm:
                        i = TOP
                    else:  # one literal in each part: the left one's dual
                        i = t.dual if lm & pb else t
                    break
            else:
                raise StructureError("axiom node lacks a literal pair")
        else:
            on_left = bool(lm & bit[node.principal])
            parts = []
            for c in node.children:
                cm = masks.get(id(c))
                if cm is None:
                    cm = masks[id(c)] = sum(map(bit.__getitem__, c.sequent))
                new = cm & ~m
                parts.append(go(c, lm | new, rm) if on_left else go(c, lm, rm | new))
            if node.rule == "meetR":
                i = _flat("join" if on_left else "meet", parts)
            else:  # joinR variants pass the premise interpolant up
                i = parts[0]
        memo[key] = i
        return i

    i = go(d, sum(map(bit.__getitem__, lpart)), sum(map(bit.__getitem__, rpart)))
    if not term_vars(i) <= left & right:
        raise StructureError("interpolant escapes the shared generators")
    table, _, full = _tables(d.sequent | {i})
    lt = rt = 0
    for t in lpart:
        lt |= table[t]
    for t in rpart:
        rt |= table[t]
    if lt | table[i] != full:
        raise StructureError("left interpolation obligation fails on its truth table")
    if rt | (full ^ table[i]) != full:
        raise StructureError("right interpolation obligation fails on its truth table")
    return i


def interpolate_sequent(
    s, left: Iterable, right: Iterable, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[Term, Derivation]:
    """Prove a two-sided sequent and interpolate it.

    Antecedent terms (negated) prefer the left block and succedent terms
    the right block, so shared-vocabulary terms interpolate the way the
    turnstile reads; a term on both sides of the one-sided sequent sits
    in both parts when it fits both.  ``prove`` has just checked the
    budgets and validated the derivation, so extraction does neither
    again; both obligations are certified on truth tables.
    """
    return _interpolate(s, left, right, budgets)[:2]


def _interpolate(s, left: Iterable, right: Iterable, budgets: Budgets) -> tuple:
    """``interpolate_sequent`` plus the split it certified, the parts
    with |- lpart, I and |- rpart, not I."""
    left, right = frozenset(left), frozenset(right)
    result = prove(s, budgets=budgets)
    if not result.derivable:
        raise PreconditionError("derivable", f"{s} is not derivable")
    lpart, rpart = _split([([neg(t) for t in s.left], "LR"), (s.right, "RL")], left, right)
    return _extract(result.derivation, left, right, lpart, rpart), result.derivation, lpart, rpart


# -- Boolean pushout separation ----------------------------------------------


def pushout_separators(
    a: FinLattice,
    homs: list[LatticeHom],
    bs: list[frozenset],
    target: frozenset,
) -> list[frozenset]:
    """Elements a_i with meet(a_i) <= target and b_i <= f_i(a_i).

    The hypothesis — the meet of the b_i lies below the target inside
    the pushout — is checked first on the spectra pullback.  The answer
    is the spectral witness: a_i is ``borel_image(f_i, b_i)``, the least
    a with b_i <= f_i(a), the join of the atoms traced by the atoms
    under b_i.  Under the hypothesis the Boolean interpolation theorem
    makes it a separator; it is re-checked before it is returned.  The
    exhaustive search over tuples from ``a`` is the test oracle
    (``tests/oracles.py``).
    """
    if len(homs) != len(bs) or not homs:
        raise DomainError("one element per hom required")
    if target not in a:
        raise DomainError("target must be an element of the shared source")
    for h in homs:
        if h.dom != homs[0].dom:
            raise DomainError("separator homs must share a source")
        if h.dom.kind != "boolean" or h.cod.kind != "boolean":
            raise DomainError("pushout separation requires Boolean lattices")
    for h, b in zip(homs, bs):
        if b not in h.cod:
            raise DomainError(f"{b!r} is not in its stated lattice")
    for p, qs in _pullback(homs):
        if all(q <= b for q, b in zip(qs, bs)) and not p <= target:
            raise PreconditionError(
                "hypothesis", "meet of the b_i is not below the target in the pushout"
            )
    spectral = [borel_image(h, b) for h, b in zip(homs, bs)]
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
    """The least element a with b <= f(a) \\/ b2 and c /\\ g(a) <= c2.

    The hypothesis b /\\ c <= b2 \\/ c2 is checked inside the cocomma of
    ``f`` and ``g``.  The first clause holds exactly when f(a) holds
    each point x of b outside b2, that is when f(a) contains the least
    element ``least[x]`` holding x; so its least solution x0 is the lower
    adjoint (``borel_image``) of ``f`` at the join of those ``least[x]``.  The second clause
    is closed downward, so an interpolant exists exactly when x0
    satisfies it, which the hypothesis guarantees; x0 failing is a
    structural error, not a result.  The scan of the domain for the
    first solution in ``canon_key`` order, which is x0, is the test
    oracle (``tests/oracles.py``).
    """
    for x, lat in ((b, f.cod), (b2, f.cod), (c, g.cod), (c2, g.cod)):
        if x not in lat:
            raise DomainError(f"{x!r} is not in its stated lattice")
    d, inl, inr = cocomma_dl(f, g, budgets)
    if not d.leq(d.meet(inl(b), inr(c)), d.join(inl(b2), inr(c2))):
        raise PreconditionError(
            "hypothesis", "b /\\ c <= b2 \\/ c2 fails in the cocomma"
        )
    x = borel_image(f, f.cod._hull(b - b2))
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
    b_i, the lower adjoint of f_i at b_i, and each a_j the greatest
    pulled below c_j, the upper adjoint of g_j at c_j; since those
    choices only ease the middle inequality, the greedy pick is
    complete.  The scans of the domain for them are the test oracle
    (``tests/oracles.py``).
    """
    if len(fs) != len(bs) or len(gs) != len(cs) or not (fs or gs):
        raise DomainError("one element per hom required")
    apex, _, inls, outs = bilax_pushout(fs, gs, budgets)
    lhs = apex.meet_of(h(b) for h, b in zip(inls, bs))
    if not lhs <= apex.join_of(h(c) for h, c in zip(outs, cs)):
        raise PreconditionError(
            "hypothesis", "the mixed inequality fails in the bilax pushout"
        )
    a = (fs or gs)[0].dom
    als = [borel_image(f, b) for f, b in zip(fs, bs)]
    ars = [a._element(_upper_adjoint(g, g.cod._mask_of(c))) for g, c in zip(gs, cs)]
    if not a.meet_of(als) <= a.join_of(ars):
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
