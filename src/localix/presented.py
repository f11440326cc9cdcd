"""Presented lattices: 2-valuation spectra, realization, colimits.

A presentation lists generators and inequations between lattice terms,
nested tuples kept as syntax; they mean the truth tables of ``sequent``.
Its spectrum, the 2-valuations satisfying every relation l <= r, is one
2^n-bit int: the AND of not T(l) or T(r).  Realizing a presentation
embeds it into the powerset of its spectrum.  At finite scale this
embedding is faithful, which is what makes the spectrum a usable
decision procedure and a system-wide oracle for the colimit
constructions below.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable

from . import sequent as sq
from ._record import Record
from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import DomainError, NoImageError, PreconditionError, ResourceBudgetError, StructureError
from .lattice import (
    FinLattice,
    LatticeHom,
    _hom_from_irreducibles,
    _hom_on_masks,
    _lower_adjoint,
    join_irreducibles,
    powerset_lattice,
)
from .order import FinPoset, _bits_set, _decode, _encode, _lower_masks, _new, _pairs, canon_key

__all__ = [
    "TOP",
    "BOT",
    "var",
    "neg",
    "meet",
    "join",
    "eval_term_in",
    "Presentation",
    "SpecModel",
    "spec",
    "realize",
    "presentation_of_lattice",
    "term_of_element",
    "check_assignment",
    "extend_hom",
    "coproduct_dl",
    "pushout_points",
    "pushout_ba",
    "cocomma_dl",
    "bilax_pushout",
    "preimage_hom",
    "direct_image",
    "image_along",
]

# Lattice terms are nested tuples: ("top",), ("bot",), ("var", g),
# ("not", t), ("meet", t1, ..., tk), ("join", t1, ..., tk): syntax only.

TOP = ("top",)
BOT = ("bot",)


def var(name: str) -> tuple:
    return ("var", name)


def neg(t: tuple) -> tuple:
    return ("not", t)


def meet(*ts: tuple) -> tuple:
    return ("meet", *ts)


def join(*ts: tuple) -> tuple:
    return ("join", *ts)


def _to_sequent_term(t: tuple) -> sq.Term:
    """The meaning of a tuple term: a prenex term, ``not`` by ``sequent.neg``."""
    op = t[0]
    if op == "var":
        return sq.var(t[1])
    if op == "top":
        return sq.TOP
    if op == "bot":
        return sq.BOT
    if op == "not":
        return sq.neg(_to_sequent_term(t[1]))
    mk = sq.meet_t if op == "meet" else sq.join_t
    return mk(_to_sequent_term(s) for s in t[1:])


def eval_term_in(t: tuple, assign: dict, target: FinLattice) -> frozenset:
    """Evaluate a term in a target lattice under a generator assignment."""
    op = t[0]
    if op == "var":
        return assign[t[1]]
    if op == "top":
        return target.top
    if op == "bot":
        return target.bot
    if op == "not":
        return target.complement(eval_term_in(t[1], assign, target))
    out = target.top if op == "meet" else target.bot
    for s in t[1:]:
        v = eval_term_in(s, assign, target)
        out = out & v if op == "meet" else out | v
    return out


def _check_term(t: tuple, gens: frozenset, boolean: bool) -> None:
    op = t[0]
    if op == "var":
        if t[1] not in gens:
            raise DomainError(f"unknown generator {t[1]!r}")
        return
    if op in ("top", "bot"):
        return
    if op == "not":
        if not boolean:
            raise StructureError("complement only allowed in boolean presentations")
        _check_term(t[1], gens, boolean)
        return
    if op in ("meet", "join"):
        for s in t[1:]:
            _check_term(s, gens, boolean)
        return
    raise DomainError(f"unknown term operator {op!r}")


class Presentation(Record):
    """Generators plus inequations ``lhs <= rhs`` between terms."""

    __slots__ = ("gens", "rels", "kind")

    def __init__(self, gens: tuple, rels: tuple, kind: str = "distributive"):
        super().__init__(gens, rels, kind)
        if kind not in ("distributive", "boolean"):
            raise DomainError(f"unknown presentation kind {kind!r}")
        if len(set(gens)) != len(gens):
            raise DomainError("duplicate generator names")
        gset = frozenset(gens)
        for lhs, rhs in rels:
            _check_term(lhs, gset, kind == "boolean")
            _check_term(rhs, gset, kind == "boolean")

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "gens": _encode(self.gens), "rels": _encode(self.rels)},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Presentation":
        data = json.loads(text)
        return Presentation(_decode(data["gens"]), _decode(data["rels"]), data["kind"])


class SpecModel(Record):
    """All satisfying 2-valuations of a presentation, in lexicographic order."""

    __slots__ = ("presentation", "points")  # each point is a tuple of bools aligned with gens


def _models(p: Presentation, budgets: Budgets) -> int:
    """The spectrum of ``p`` as one 2^n-bit int: bit i is the i-th
    valuation in ``itertools.product`` order over ``p.gens``, as in
    ``sequent._gen_masks``.  A few tables are alive at a time."""
    n = len(p.gens)
    check_budget(budgets, "gens", n)
    full = (1 << (1 << n)) - 1
    masks = dict(zip(p.gens, sq._gen_masks(n)))
    models = full
    for l, r in p.rels:
        lt = sq._table(_to_sequent_term(l), masks, full)
        models &= ~lt | sq._table(_to_sequent_term(r), masks, full)
    return models


# spec lists at most this many points unless budgets are unsafe: 2^16,
# above the 17,711 of 20 generators with a relation per adjacent pair
_SPEC_POINTS = 1 << 16


def spec(p: Presentation, budgets: Budgets = DEFAULT_BUDGETS) -> SpecModel:
    """Every 2-valuation of the generators satisfying the relations.

    Their number, the spectrum's bit count, is checked against
    ``_SPEC_POINTS`` before any point is listed.
    """
    models = _models(p, budgets)
    count = models.bit_count()
    if count > _SPEC_POINTS and not budgets.unsafe:
        raise ResourceBudgetError(
            f"spec points exceeded: {count} > {_SPEC_POINTS} "
            f"(pass unsafe=True to proceed)"
        )
    points = itertools.product((False, True), repeat=len(p.gens))
    return SpecModel(p, tuple(itertools.compress(points, _bits_set(models))))


def realize(
    p: Presentation, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[FinLattice, dict]:
    """The lattice presented by ``p``, as subsets of its spectrum.

    Returns the lattice and the map from generator names to elements.
    For distributive presentations the spectrum carries the reverse
    valuation order, under which every generated element is a lower
    set, and the generated lattice is all of its lower sets: a lower
    set is the union over its points of the meet of the generators true
    there.  Boolean spectra are discrete, so there it is all subsets.
    The ``elements`` budget is checked before any point is listed, on
    2^|points| (Boolean) or |points| + 1 (the empty and the principal
    lower sets), then after each point as the lower sets are enumerated
    on masks, fewest true generators last, before the spectrum poset is
    built.
    """
    models = _models(p, budgets)
    boolean = p.kind == "boolean"
    npts = models.bit_count()
    if boolean:  # past the limit's bit length the power exceeds it anyway
        shown = 1 << min(npts, budgets.elements.bit_length())
        check_budget(budgets, "elements", shown, f"2^{npts}")
    else:
        check_budget(budgets, "elements", npts + 1)
    # each point's valuation as its index, generator k at bit n-1-k
    n = len(p.gens)
    vals = list(itertools.compress(range(1 << n), _bits_set(models)))
    gen_img = {
        g: frozenset(i for i, v in enumerate(vals) if v >> (n - 1 - k) & 1)
        for k, g in enumerate(p.gens)
    }

    def below(i: int) -> int:
        # reverse valuation order: smaller points satisfy more generators
        if boolean:
            return 0
        return sum(1 << k for k, v in enumerate(vals) if k != i and not vals[i] & ~v)

    order = sorted(range(npts), key=lambda i: -vals[i].bit_count())
    masks = _lower_masks(((1 << i, below(i)) for i in order), budgets)
    pairs = [] if boolean else [
        (i, j) for i, v in enumerate(vals) for j, w in enumerate(vals) if not w & ~v
    ]
    lat = _new(FinLattice, FinPoset(range(npts), pairs), masks, p.kind)
    return lat, gen_img


def presentation_of_lattice(
    a: FinLattice, prefix: str = "g"
) -> tuple[Presentation, dict]:
    """Present ``a`` by its join-irreducibles.

    Relations: generator order mirrors the irreducible order, each
    binary meet of irreducibles is the join of the irreducibles below
    both, and top is the join of all generators.  Boolean lattices keep
    kind boolean (their irreducibles are atoms, so the meet relations
    make distinct generators disjoint).
    """
    jp = join_irreducibles(a)
    js = list(jp.elements)
    names = {j: f"{prefix}{i}" for i, j in enumerate(js)}
    rels = [(var(names[x]), var(names[y])) for x, y in _pairs(js, jp._strict())]
    for i, x in enumerate(js):
        for y in js[i + 1 :]:
            lows = [r for r in js if r <= x and r <= y]
            rels.append(
                (meet(var(names[x]), var(names[y])), join(*[var(names[r]) for r in lows]))
            )
    rels.append((TOP, join(*[var(names[j]) for j in js])))
    pres = Presentation(tuple(names[j] for j in js), tuple(rels), a.kind)
    return pres, {names[j]: j for j in js}


def term_of_element(a: FinLattice, x: frozenset, gen_of_irr: dict) -> tuple:
    """Express a lattice element as a join of irreducible generators."""
    if x not in a:
        raise DomainError(f"{x!r} not an element")
    parts = [var(g) for g, j in gen_of_irr.items() if j <= x]
    return join(*sorted(parts, key=canon_key))


def check_assignment(p: Presentation, assign: dict, target: FinLattice) -> bool:
    """Does a generator assignment into ``target`` satisfy all relations?"""
    if set(assign) != set(p.gens):
        raise DomainError("assignment must cover exactly the generators")
    for v in assign.values():
        if v not in target:
            raise DomainError(f"{v!r} not in target")
    return all(
        eval_term_in(l, assign, target) <= eval_term_in(r, assign, target)
        for l, r in p.rels
    )


def extend_hom(
    p: Presentation,
    realized: tuple[FinLattice, dict],
    assign: dict,
    target: FinLattice,
) -> LatticeHom:
    """The unique hom out of the realized lattice extending ``assign``.

    Each join-irreducible q of ``target`` is join-prime, so once the
    assignment satisfies the relations, g -> (q <= assign[g]) is a
    spectrum point p(q), found by its valuation in ``gen_img``; the hom
    sends e to the join of the q with p(q) in e.  It is validated by
    ``LatticeHom`` and must send each generator to its assigned value.
    """
    lat, gen_img = realized
    if not check_assignment(p, assign, target):
        raise PreconditionError("relations", "assignment does not satisfy the relations")
    # the least element containing each point, by the point's valuation
    least_of = {
        tuple(x in gen_img[g] for g in p.gens): j for x, j in zip(lat.spectrum.elements, lat._least)
    }
    assigned = [target._mask_of(assign[g]) for g in p.gens]
    irr_img: dict[int, int] = {}
    for q in target._irreducibles():
        val = tuple(not q & ~m for m in assigned)
        if val not in least_of:
            raise StructureError("assignment does not extend to a hom")
        j = least_of[val]
        irr_img[j] = irr_img.get(j, 0) | q
    h = _hom_on_masks(lat, target, list(irr_img.items()))
    if any(h(gen_img[g]) != assign[g] for g in p.gens):
        raise StructureError("assignment does not extend to a hom")
    return h


def _coprojection(src: FinLattice, realized: tuple[FinLattice, dict], irr: dict) -> LatticeHom:
    """The hom from ``src`` into a realized presentation that sends each
    join-irreducible of ``src`` to the element of the generator naming it."""
    lat, gen_img = realized
    return _hom_from_irreducibles(src, lat, {j: gen_img[g] for g, j in irr.items()})


def coproduct_dl(
    a: FinLattice, b: FinLattice, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[FinLattice, LatticeHom, LatticeHom]:
    """Coproduct of distributive lattices by presentation merge."""
    pa, irr_a = presentation_of_lattice(a, "l")
    pb, irr_b = presentation_of_lattice(b, "r")
    merged = Presentation(pa.gens + pb.gens, pa.rels + pb.rels, "distributive")
    realized = realize(merged, budgets)
    return realized[0], _coprojection(a, realized, irr_a), _coprojection(b, realized, irr_b)


def _pullback(homs: list[LatticeHom]) -> list[tuple]:
    """The spectra pullback of Boolean homs out of one source.

    Its points are the pairs (p, qs) of an atom p of the source and a
    tuple qs of codomain atoms, one per hom, each traced to p.  An atom q
    of the codomain of h traces to the least element a with q <= h(a),
    the lower adjoint of h at q, which between Boolean lattices is an
    atom; the points over p are the product of the fibres over p.
    """
    a = homs[0].dom
    fibres = {a._mask_of(p): [[] for _ in homs] for p in a.atoms()}
    for i, h in enumerate(homs):
        for q in h.cod.atoms():
            over = fibres.get(_lower_adjoint(h, h.cod._mask_of(q)))
            if over is None:
                raise StructureError("valuation does not come from an atom")
            over[i].append(q)
    return [(a._element(p), qs) for p, over in fibres.items() for qs in itertools.product(*over)]


def pushout_points(
    f: LatticeHom, g: LatticeHom
) -> tuple[list, Callable, Callable]:
    """Spectra pullback for a Boolean pushout square.

    Returns the pullback points (pairs of atoms of the codomains of
    ``f`` and ``g`` inducing the same point of the shared domain) and
    the two coprojections as maps from elements to point sets.
    """
    if f.dom != g.dom:
        raise DomainError("pushout requires a shared domain")
    for h in (f, g):
        if h.dom.kind != "boolean" or h.cod.kind != "boolean":
            raise PreconditionError("boolean", "pushout is for Boolean lattices")
    points = sorted((qs for _, qs in _pullback([f, g])), key=canon_key)

    def i1(x: frozenset) -> frozenset:
        return frozenset(p for p in points if p[0] <= x)

    def i2(y: frozenset) -> frozenset:
        return frozenset(p for p in points if p[1] <= y)

    return points, i1, i2


def pushout_ba(
    f: LatticeHom, g: LatticeHom, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[FinLattice, LatticeHom, LatticeHom]:
    """Pushout of Boolean lattices: powerset of the spectra pullback."""
    points, i1, i2 = pushout_points(f, g)
    d = powerset_lattice(points, budgets)
    inl = LatticeHom(f.cod, d, {x: i1(x) for x in f.cod.elements})
    inr = LatticeHom(g.cod, d, {y: i2(y) for y in g.cod.elements})
    if any(inl(f(x)) != inr(g(x)) for x in f.dom.elements):
        raise StructureError("pushout square does not commute")
    return d, inl, inr


def cocomma_dl(
    f: LatticeHom, g: LatticeHom, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[FinLattice, LatticeHom, LatticeHom]:
    """Lax pushout of distributive lattices along a shared domain.

    Presented by the two codomains with the cross relations
    ``inl(f(x)) <= inr(g(x))``, stated for the join-irreducibles ``x`` of
    the shared domain: both sides are homs in ``x``, so the relation at
    every other ``x``, a join of irreducibles, follows.  Laxity is
    re-checked on every element.
    """
    if f.dom != g.dom:
        raise DomainError("cocomma requires a shared domain")
    pb, irr_b = presentation_of_lattice(f.cod, "l")
    pc, irr_c = presentation_of_lattice(g.cod, "r")
    cross = tuple(
        (term_of_element(f.cod, f(x), irr_b), term_of_element(g.cod, g(x), irr_c))
        for x in map(f.dom._element, f.dom._irreducibles())
    )
    merged = Presentation(pb.gens + pc.gens, pb.rels + pc.rels + cross, "distributive")
    realized = realize(merged, budgets)
    inl, inr = _coprojection(f.cod, realized, irr_b), _coprojection(g.cod, realized, irr_c)
    if any(not inl(f(x)) <= inr(g(x)) for x in f.dom.elements):
        raise StructureError("cocomma laxity failed")
    return realized[0], inl, inr


def bilax_pushout(
    fs: list[LatticeHom],
    gs: list[LatticeHom],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[FinLattice, LatticeHom, list[LatticeHom], list[LatticeHom]]:
    """N-ary two-sided lax pushout over a shared domain.

    Generated by the shared domain and all codomains, subject to
    ``in_i(f_i(x)) <= center(x)`` and ``center(x) <= out_j(g_j(x))``,
    stated for the join-irreducibles ``x`` of the domain, as in
    ``cocomma_dl``.  Returns the apex, the center hom, and both
    coprojection families.
    """
    if not fs and not gs:
        raise DomainError("at least one leg required")
    doms = {h.dom for h in fs} | {h.dom for h in gs}
    if len(doms) != 1:
        raise DomainError("all legs must share one domain")
    a = next(iter(doms))
    pa, irr_a = presentation_of_lattice(a, "a")
    gens, rels, irrs = list(pa.gens), list(pa.rels), []
    js = list(map(a._element, a._irreducibles()))
    for tag, homs in (("b", fs), ("c", gs)):
        for i, h in enumerate(homs):
            pres, irr = presentation_of_lattice(h.cod, f"{tag}{i}_")
            gens += pres.gens
            rels += pres.rels
            irrs.append(irr)
            for x in js:
                leg, center = term_of_element(h.cod, h(x), irr), term_of_element(a, x, irr_a)
                rels.append((leg, center) if tag == "b" else (center, leg))
    realized = realize(Presentation(tuple(gens), tuple(rels), "distributive"), budgets)
    legs = [_coprojection(h.cod, realized, irr) for h, irr in zip([*fs, *gs], irrs)]
    return realized[0], _coprojection(a, realized, irr_a), legs[: len(fs)], legs[len(fs) :]


# -- finite-set plumbing used by image/pullback checks ------------------------


def preimage_hom(fun: dict, dom_pts: Iterable, cod_pts: Iterable) -> LatticeHom:
    """Preimage along a finite function, as a hom of powerset lattices.

    ``fun`` maps dom points to cod points; the hom goes from the
    powerset of the codomain to the powerset of the domain.
    """
    px, py = powerset_lattice(dom_pts), powerset_lattice(cod_pts)
    for x in px.spectrum.elements:
        if fun.get(x) not in py.spectrum.elements:
            raise DomainError(f"function undefined or out of range at {x!r}")
    return LatticeHom(
        py, px, {s: frozenset(x for x in px.spectrum.elements if fun[x] in s) for s in py.elements}
    )


def direct_image(fun: dict, s: frozenset) -> frozenset:
    return frozenset(fun[x] for x in s)


def image_along(fun: dict, cod_pts: Iterable, b: frozenset) -> frozenset:
    """``borel_image(preimage_hom(fun, list(fun), cod_pts), b)`` in O(|fun|).

    Direct image is left adjoint to preimage (b <= f^-1(c) iff f[b] <= c),
    so the least cover is ``direct_image(fun, b)`` and no powerset is
    built.  Raises what the powerset path raises, in the same order; the
    result is certified: b <= f^-1(f[b]), and each point of f[b] is hit
    from b, so no smaller c covers b.
    """
    cod = frozenset(cod_pts)
    for x in sorted(fun, key=canon_key):
        if fun[x] not in cod:
            raise DomainError(f"function undefined or out of range at {x!r}")
    if not b.issubset(fun):
        raise DomainError(f"{b!r} not in the codomain of f")
    img = direct_image(fun, b)
    pre = {x for x, y in fun.items() if y in img}
    if not b <= pre or {y for x, y in fun.items() if x in b} != img:
        raise NoImageError(f"no least cover for {b!r} along f")
    return img
