"""Reference implementations that the library's fast paths are tested against.

Most oracles follow the definition directly, with frozenset pairs and no
masks, so that they share no logic with the code under test: the poset
closure and the queries read off it (Hasse covers and their DOT, linear
extension, lower sets, isomorphism), the glb/lub realization of abstract lattices, the hom search,
the spectrum of a presentation one valuation at a time on its tuple
terms, the generation closures of ``realize`` and ``extend_hom``, the recursive
well-founded rank, the ``prune`` record of a relation by canonical pruning
of its whole descending-chain diagram, truth-table polyorder entailment, Maehara extraction
by a walk of the derivation tree and the separator search in Boolean
pushouts.  The rule fixpoints for dissolution,
order-congruences and coverages work on a ``Table`` of the lattice,
built from frozenset operations on its elements, not from the masks the
library keeps; they share with the library only the one-step congruence
rules that it keeps as its runtime check.  The polyorder fixpoint works
on masks over the carrier.  A lattice's element frozensets, its JSON
encoding and decoding, and the hom check are rebuilt from frozensets:
the library keeps masks and builds frozensets only when they are read.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce
from operator import or_

from localix.budgets import DEFAULT_BUDGETS, Budgets, check_budget
from localix.congruence import OrderCongruence, _column_rule, _compose, _row_rule
from localix.dissolution import Dissolution, neg
from localix.errors import DomainError, PreconditionError, StructureError
from localix.lattice import FinLattice, LatticeHom, _bits
from localix.order import FinPoset, _label, _unlabel, canon_key, lower_sets_of
from localix.posite import Coverage, PolyOrder
from localix.presented import check_assignment
from localix.pruning import Relation, desc_diagram, prune_sequence
from localix.sequent import (
    BOT,
    TOP,
    Derivation,
    ProofResult,
    Sequent,
    Term,
    eval_term,
    term_vars,
)


def poset_leq(elements, leq_pairs) -> frozenset:
    """The relation ``FinPoset`` stores, by the naive transitive-closure
    fixpoint; raises what ``FinPoset`` raises on the same input."""
    elems = sorted(set(elements), key=canon_key)
    eset = set(elems)
    rel = {(e, e) for e in elems}
    for a, b in leq_pairs:
        if a not in eset or b not in eset:
            raise DomainError(f"leq pair ({a!r}, {b!r}) mentions a non-element")
        rel.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    for a, b in rel:
        if a != b and (b, a) in rel:
            raise StructureError(f"antisymmetry fails: {a!r} <= {b!r} <= {a!r}")
    return frozenset(rel)


def cover_pairs(elements, rel) -> tuple:
    """Hasse edges (a, b) of the order ``rel`` (a set of pairs) on
    ``elements``: a < b with nothing strictly between, in ``canon_key``
    order, by the cubic definition that ``FinPoset.cover_pairs`` replaced."""
    elems = sorted(elements, key=canon_key)

    def lt(a, b):
        return a != b and (a, b) in rel

    return tuple(
        (a, b)
        for a in elems
        for b in elems
        if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in elems)
    )


def linear_extension(elements, rel) -> tuple:
    """The linear extension ``FinPoset.linear_extension`` promises: next
    comes the first point, in ``canon_key`` order, whose predecessors are
    all placed."""
    remaining = sorted(elements, key=canon_key)
    out: list = []
    while remaining:
        x = next(x for x in remaining if all(y in out for y in remaining + out if (y, x) in rel and y != x))
        out.append(x)
        remaining.remove(x)
    return tuple(out)


def lower_sets(elements, rel) -> list:
    """Every down-closed subset of ``elements`` under ``rel``, by testing
    all subsets, in ``canon_key`` order."""
    elems = list(elements)
    subsets = (
        frozenset(c) for k in range(len(elems) + 1) for c in itertools.combinations(elems, k)
    )
    return sorted(
        (s for s in subsets if all(x in s for x, y in rel if y in s)), key=canon_key
    )


def posets_isomorphic(p: FinPoset, q: FinPoset) -> bool:
    """Whether some bijection carries the pairs of ``p`` onto those of ``q``."""
    rel_p, rel_q = p.leq_pairs(), q.leq_pairs()
    return len(p) == len(q) and any(
        {(f[a], f[b]) for a, b in rel_p} == rel_q
        for f in (dict(zip(p.elements, perm)) for perm in itertools.permutations(q.elements))
    )


def element_order(a: FinLattice) -> frozenset:
    """The inclusion order of ``a``'s elements, by n^2 subset tests."""
    return frozenset((x, y) for x in a.elements for y in a.elements if x <= y)


def hasse_dot(elements, rel, name: str) -> str:
    """What ``FinPoset.to_dot`` and ``FinLattice.to_dot`` draw for the
    order ``rel`` on ``elements``, from the cubic cover pairs."""
    elems = sorted(elements, key=canon_key)
    ids = {e: f"n{i}" for i, e in enumerate(elems)}
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  {ids[e]} [label="{_label(e)}"];' for e in elems]
    lines += [f"  {ids[x]} -> {ids[y]};" for x, y in cover_pairs(elems, rel)]
    return "\n".join(lines + ["}"]) + "\n"


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


def eager_elements(a: FinLattice) -> tuple:
    """The frozensets ``FinLattice.elements`` lists, built from every point
    mask at once (as the constructor did before it built them on demand)
    and ordered by ``canon_key`` on the sets themselves."""
    pts, n = a.spectrum.elements, len(a.spectrum)
    sets = [frozenset(pts[i] for i in range(n) if m >> i & 1) for m in a._at]
    return tuple(sorted(sets, key=canon_key))


def lattice_to_json(a: FinLattice) -> str:
    """``FinLattice.to_json`` from the frozensets and the spectrum's pairs."""
    p = a.spectrum
    spectrum = {
        "elements": [_label(x) for x in p.elements],
        "leq": sorted([_label(x), _label(y)] for x, y in p.leq_pairs() if x != y),
    }
    elements = [sorted(_label(x) for x in e) for e in eager_elements(a)]
    return json.dumps({"kind": a.kind, "spectrum": spectrum, "elements": elements}, sort_keys=True)


def lattice_from_json(text: str) -> FinLattice:
    """``FinLattice.from_json`` through frozensets and the public constructor."""
    data = json.loads(text)
    spectrum = FinPoset.from_json(json.dumps(data["spectrum"]))
    elems = [frozenset(_unlabel(x) for x in e) for e in data["elements"]]
    return FinLattice(spectrum, elems, data["kind"])


def hom_on_graph(dom: FinLattice, cod: FinLattice, graph: dict) -> None:
    """The checks ``LatticeHom`` makes, read off the graph's frozensets: the
    join- and meet-irreducible certificate of the module docstring of
    ``localix.lattice``, element by element."""
    if set(graph) != set(dom.elements):
        raise DomainError("graph must be defined on exactly the domain elements")
    for v in graph.values():
        if v not in cod:
            raise DomainError(f"image {v!r} not in codomain")
    if graph[dom.bot] != cod.bot or graph[dom.top] != cod.top:
        raise StructureError("homomorphism must preserve bottom and top")
    elems = dom.elements
    joins = [j for j in elems if j and j != frozenset().union(*[x for x in elems if x < j])]
    meets = [m for m in elems if sum(1 for x in elems if m < x and not any(m < y < x for y in elems)) == 1]
    for e in elems:
        if graph[e] != cod.top.intersection(*[graph[m] for m in meets if e <= m]):
            raise StructureError(f"meet not preserved at {e!r}")
        if graph[e] != frozenset().union(*[graph[j] for j in joins if j <= e]):
            raise StructureError(f"join not preserved at {e!r}")


def join_irreducibles(a) -> FinPoset:
    """Elements that differ from the join of everything strictly below them."""
    irr = []
    for e in a.elements:
        below = frozenset().union(*[x for x in a.elements if x < e])
        if e and e != below:
            irr.append(e)
    return FinPoset(irr, [(x, y) for x in irr for y in irr if x <= y])


def lattice_from_abstract(items, leq) -> tuple:
    """Realize an abstract lattice by finding every meet and join with a
    scan of all items; returns what ``lattice.lattice_from_abstract``
    returns and raises StructureError where it does."""
    items = list(dict.fromkeys(items))

    def glb(x, y):
        lows = [z for z in items if leq(z, x) and leq(z, y)]
        for m in lows:
            if all(leq(z, m) for z in lows):
                return m
        raise StructureError(f"no meet for ({x!r}, {y!r})")

    def lub(x, y):
        ups = [z for z in items if leq(x, z) and leq(y, z)]
        for m in ups:
            if all(leq(m, z) for z in ups):
                return m
        raise StructureError(f"no join for ({x!r}, {y!r})")

    irr = []
    for e in items:
        strictly_below = [x for x in items if leq(x, e) and x != e]
        if not strictly_below:
            continue  # bottom
        j = strictly_below[0]
        for x in strictly_below[1:]:
            j = lub(j, x)
        if j != e:
            irr.append(e)
    if not items:
        raise StructureError("empty carrier is not a lattice")
    to_elem = {x: frozenset(j for j in irr if leq(j, x)) for x in items}
    if len(set(to_elem.values())) != len(items):
        raise StructureError("not a distributive lattice: representation collapses items")
    for x in items:
        for y in items:
            if to_elem[glb(x, y)] != to_elem[x] & to_elem[y]:
                raise StructureError("not distributive: meet is not intersection")
            if to_elem[lub(x, y)] != to_elem[x] | to_elem[y]:
                raise StructureError("not distributive: join is not union")
    spectrum = FinPoset(irr, [(x, y) for x in irr for y in irr if leq(x, y)])
    family = set(to_elem.values())
    full = frozenset(irr)
    boolean = spectrum.is_antichain() and all(full - e in family for e in family)
    return FinLattice(spectrum, family, "boolean" if boolean else "distributive"), to_elem


def enumerate_homs(a, b) -> list:
    """Every hom ``a -> b``, by trying each element of ``b`` as the image
    of each join-irreducible of ``a`` in turn, in that order."""
    jp = join_irreducibles(a)
    js = list(jp.elements)
    out = []

    def extend(i: int, assign: dict):
        if i == len(js):
            # meet condition: e_j /\ e_k must equal the join of e_r over
            # irreducibles r below both j and k
            for j in js:
                for k in js:
                    lows = [r for r in js if r <= j and r <= k]
                    rhs = frozenset().union(*[assign[r] for r in lows])
                    if assign[j] & assign[k] != rhs:
                        return
            if frozenset().union(*assign.values()) != b.top:
                return
            graph = {x: frozenset().union(*[assign[j] for j in js if j <= x]) for x in a.elements}
            try:
                out.append(LatticeHom(a, b, graph))
            except StructureError:
                pass
            return
        j = js[i]
        for v in b.elements:
            ok = all(
                (not jp.leq(js[k], j) or assign[js[k]] <= v)
                and (not jp.leq(j, js[k]) or v <= assign[js[k]])
                for k in range(i)
            )
            if ok:
                assign[j] = v
                extend(i + 1, assign)
                del assign[j]

    extend(0, {})
    return out


def eval_tuple_term(t: tuple, val: dict) -> bool:
    """A presentation's tuple term under a 2-valuation; the empty meet is
    true, the empty join false."""
    op = t[0]
    if op == "var":
        return val[t[1]]
    if op == "top":
        return True
    if op == "bot":
        return False
    if op == "not":
        return not eval_tuple_term(t[1], val)
    if op == "meet":
        return all(eval_tuple_term(s, val) for s in t[1:])
    if op == "join":
        return any(eval_tuple_term(s, val) for s in t[1:])
    raise DomainError(f"unknown term operator {op!r}")


def spec(p, budgets: Budgets = DEFAULT_BUDGETS) -> tuple:
    """The points of the spectrum, each valuation of the generators in
    ``itertools.product`` order tested against every relation."""
    check_budget(budgets, "gens", len(p.gens))
    points = []
    for bits in itertools.product((False, True), repeat=len(p.gens)):
        val = dict(zip(p.gens, bits))
        if all(not eval_tuple_term(l, val) or eval_tuple_term(r, val) for l, r in p.rels):
            points.append(bits)
    return tuple(points)


def realize(p, budgets: Budgets = DEFAULT_BUDGETS) -> tuple:
    """The presented lattice as the closure of the generators' point sets
    under pairwise intersection and union (and complement, when Boolean),
    with the ``elements`` budget checked on every new element."""
    pts = spec(p, budgets)
    full = frozenset(range(len(pts)))
    gen_img = {
        g: frozenset(i for i, bits in enumerate(pts) if bits[k])
        for k, g in enumerate(p.gens)
    }
    family = {frozenset(), full} | set(gen_img.values())
    if p.kind == "boolean":
        family |= {full - e for e in gen_img.values()}
    changed = True
    while changed:
        changed = False
        items = list(family)
        for i, x in enumerate(items):
            for y in items[i + 1 :]:
                for z in (x & y, x | y):
                    if z not in family:
                        family.add(z)
                        check_budget(budgets, "elements", len(family))
                        changed = True
        if p.kind == "boolean":
            for x in list(family):
                if full - x not in family:
                    family.add(full - x)
                    check_budget(budgets, "elements", len(family))
                    changed = True
    check_budget(budgets, "elements", len(family))
    pairs = []
    if p.kind == "distributive":
        # reverse valuation order: smaller points satisfy more generators
        pairs = [
            (i, j)
            for i in range(len(pts))
            for j in range(len(pts))
            if all(x >= y for x, y in zip(pts[i], pts[j]))
        ]
    return FinLattice(FinPoset(range(len(pts)), pairs), family, p.kind), gen_img


def extend_hom(p, realized, assign: dict, target):
    """The hom extending ``assign``, by closing the (element, image) pairs
    of the generators under intersection, union and complement."""
    lat, gen_img = realized
    if not check_assignment(p, assign, target):
        raise PreconditionError("relations", "assignment does not satisfy the relations")
    images = {lat.bot: target.bot, lat.top: target.top}
    for g in p.gens:
        e = gen_img[g]
        if e in images and images[e] != assign[g]:
            raise StructureError("assignment does not extend to a hom")
        images[e] = assign[g]
    changed = True
    while changed:
        changed = False
        items = list(images.items())
        for i, (e1, v1) in enumerate(items):
            for e2, v2 in items[i:]:
                for e, v in ((e1 & e2, v1 & v2), (e1 | e2, v1 | v2)):
                    if e in images:
                        if images[e] != v:
                            raise StructureError("assignment does not extend to a hom")
                    else:
                        images[e] = v
                        changed = True
        if p.kind == "boolean":
            for e, v in list(images.items()):
                ce, cv = lat.top - e, target.complement(v)
                if ce in images:
                    if images[ce] != cv:
                        raise StructureError("assignment does not extend to a hom")
                else:
                    images[ce] = cv
                    changed = True
    if set(images) != set(lat.elements):
        raise StructureError("generators do not generate the realized lattice")
    return LatticeHom(lat, target, images)


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


def flatten(t: Term) -> Term:
    """``t`` with same-kind children merged and one-child nodes replaced
    by their child, rebuilt bottom-up."""
    if t.kind in ("pos", "neg"):
        return t
    kids = set()
    for c in map(flatten, t.children):
        kids |= c.children if c.kind == t.kind else {c}
    return next(iter(kids)) if len(kids) == 1 else Term(t.kind, None, frozenset(kids))


def maehara_tree(d: Derivation, blocks: dict) -> Term:
    """Maehara extraction walking ``d`` as a tree, one block per term.

    ``blocks`` maps each term of the root sequent to "L" or "R"; a
    premise's new terms take the principal's block, each premise with
    its own copy of the blocks.  An axiom on literals of one block gives
    that block's unit, otherwise the left literal's negation; a meet
    rule joins (left) or meets (right) its premises' interpolants.  The
    result is flattened afterwards.
    """

    def go(node: Derivation, blocks: dict) -> Term:
        a = node.sequent
        if node.rule == "axiom":
            for t in sorted(a, key=term_key):
                if t.kind == "pos" and Term("neg", t.gen) in a:
                    nt = Term("neg", t.gen)
                    if blocks[t] == blocks[nt]:
                        return BOT if blocks[t] == "L" else TOP
                    return nt if blocks[t] == "L" else t
            raise StructureError("axiom node lacks a literal pair")
        side = blocks[node.principal]
        parts = [go(c, {**blocks, **{t: side for t in c.sequent - a}}) for c in node.children]
        if node.rule == "meetR":
            return Term("join" if side == "L" else "meet", None, frozenset(parts))
        return parts[0]

    return flatten(go(d, blocks))


def ideal_completion(a) -> tuple:
    """Ideals (nonempty, lower, join-closed) found among all down-sets.

    Returns what ``lattice.ideal_completion`` returns: the realized
    lattice of ideals and the unit graph x -> the ideal below x.
    """
    ideals = [
        d
        for d in lower_sets_of(FinPoset(a.elements, element_order(a)))
        if d and all((x | y) in d for x in d for y in d)
    ]
    lat, to_elem = lattice_from_abstract(ideals, lambda i, j: i <= j)
    graph = {x: to_elem[frozenset(y for y in a.elements if y <= x)] for x in a.elements}
    return lat, graph


# -- the rule fixpoints behind the dissolution, congruence, coverage and
# polyorder closed forms -----------------------------------------------------


class Table:
    """A lattice read off its frozenset elements: positions, the
    join-irreducibles (in ``join_irreducibles`` order), each element as
    the mask of the irreducibles below it (bit k for ``irr[k]``), and
    meet, join and order as position tables (``leq[i]`` masks the
    positions above i)."""

    def __init__(self, a: FinLattice):
        self.elems = elems = a.elements
        self.pos = pos = {e: i for i, e in enumerate(elems)}
        self.irr = irr = join_irreducibles(a).elements
        self.mask = [sum(1 << k for k, j in enumerate(irr) if j <= e) for e in elems]
        self.meet = [[pos[x & y] for y in elems] for x in elems]
        self.join = [[pos[x | y] for y in elems] for x in elems]
        self.leq = [sum(1 << j for j, y in enumerate(elems) if x <= y) for x in elems]

    def positions(self, subset) -> int:
        m = 0
        for c in subset:
            if c not in self.pos:
                raise DomainError(f"{c!r} not in the coverage base")
            m |= 1 << self.pos[c]
        return m

    def rows(self, pairs) -> list[int]:
        r = [0] * len(self.elems)
        for x, y in pairs:
            if x not in self.pos or y not in self.pos:
                raise DomainError(f"pair ({x!r}, {y!r}) mentions a non-element")
            r[self.pos[x]] |= 1 << self.pos[y]
        return r

    def pairs(self, r: list[int]) -> frozenset:
        elems = self.elems
        return frozenset((elems[i], elems[j]) for i, ri in enumerate(r) for j in _bits(ri))


def _heads_to_pairs(ix: Table, heads: list[int]) -> frozenset:
    elems, mask = ix.elems, ix.mask
    return frozenset(
        (elems[c], neg(elems[b]))
        for b, h in enumerate(heads)
        for c, m in enumerate(mask)
        if not m & ~h
    )


def dissolution_close(ix: Table, heads: list[int]) -> list[int]:
    """Least pair ideal whose column heads dominate ``heads``.

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


def dissolve(a: FinLattice) -> Dissolution:
    """The pair-ideal lattice of ``a``, as the join closure of the
    principal ideals of single pairs, starting from the least ideal."""
    ix = Table(a)
    if len(ix.irr) > 62:  # the point numbering below packs each head in 8 bytes
        raise StructureError("lattice too large to dissolve")
    mask = ix.mask
    n = len(mask)
    bottom = tuple(dissolution_close(ix, mask))
    principals = set()
    for i in range(n):
        for j in range(n):
            if not mask[i] & ~mask[j]:
                continue  # pair below the order diagonal: least ideal
            g = list(bottom)
            g[j] |= mask[i]
            principals.add(tuple(dissolution_close(ix, g)))
    seen = {bottom}
    queue = [bottom]
    while queue:
        cur = queue.pop()
        for g in principals:
            if any(h & ~c for h, c in zip(g, cur)):
                nxt = tuple(dissolution_close(ix, [h | c for h, c in zip(g, cur)]))
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
        if tuple(dissolution_close(ix, acc)) != v:
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
        unit_graph[x] = elems[by_vec[tuple(dissolution_close(ix, g))]]
    unit = LatticeHom(a, result, unit_graph)
    return Dissolution(a, result, unit, repr_map)


def eta_principal(a: FinLattice, x) -> frozenset:
    """The fixpoint closure of {(x, neg bottom)}."""
    ix = Table(a)
    g = list(ix.mask)
    g[ix.pos[a.bot]] |= ix.mask[ix.pos[x]]
    return _heads_to_pairs(ix, dissolution_close(ix, g))


def nA_congruence_bijection(a: FinLattice):
    """The element -> congruence map, and its inverse by closing the
    congruence's pairs into a pair ideal."""
    d = dissolve(a)
    ix = Table(a)
    by_pairs = {v: k for k, v in d.repr.items()}

    def to_congruence(element) -> OrderCongruence:
        return OrderCongruence(a, [(p, q[1]) for p, q in d.repr[element]])

    def to_element(c: OrderCongruence):
        g = list(ix.mask)
        for p, q in c.rel:
            g[ix.pos[q]] |= ix.mask[ix.pos[p]]
        return by_pairs[_heads_to_pairs(ix, dissolution_close(ix, g))]

    return to_congruence, to_element


def congruence_close(ix: Table, rel: list[int]) -> list[int]:
    """Least order-congruence (as rows of position masks) containing ``rel``.

    Fixpoint of: contains leq; transitive; meet-stable; the set of
    elements below any fixed right-hand side is join-closed.
    """
    ups = [ix.leq[ix.pos[j]] for j in ix.irr]
    r = [ri | li for ri, li in zip(rel, ix.leq)]
    while True:
        r2 = _row_rule(_compose(r), ups)
        # before the fixpoint a row need not hold the rows above it
        cols = [reduce(or_, (r2[a] for a in _bits(u)), 0) for u in ups]
        nxt = _column_rule(ix.mask, r2, cols)
        if nxt == r:
            return r
        r = nxt


def gen_order_congruence(a: FinLattice, pairs) -> OrderCongruence:
    """Least order-congruence on ``a`` containing the given pairs."""
    ix = Table(a)
    return OrderCongruence(a, ix.pairs(congruence_close(ix, ix.rows(pairs))))


def enumerate_order_congruences(a: FinLattice) -> list[OrderCongruence]:
    """All order-congruences on ``a``.

    Search: any congruence is a join of single-step ones, and a
    collapsed pair forces the collapse of each covering step between
    the two elements, so closures of cover collapses generate
    everything.  Breadth-first join closure over that generating set.
    """
    ix = Table(a)
    n = len(ix.elems)
    bottom = tuple(congruence_close(ix, [0] * n))
    steps = []
    for low, high in cover_pairs(a.elements, element_order(a)):
        hi, lo = ix.pos[high], ix.pos[low]
        g = [0] * n
        g[hi] = 1 << lo
        steps.append((hi, 1 << lo, congruence_close(ix, g)))
    seen = {bottom}
    queue = [bottom]
    while queue:
        cur = queue.pop()
        for hi, lo_bit, theta in steps:
            if cur[hi] & lo_bit:
                continue
            nxt = tuple(congruence_close(ix, [c | t for c, t in zip(cur, theta)]))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    out = [OrderCongruence(a, ix.pairs(r)) for r in seen]
    out.sort(key=lambda c: (len(c.rel), sorted(map(repr, c.rel))))
    return out


def saturate_masks(n: int, gen: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Least polyorder on masks over ``n`` points containing ``gen``:
    closure under reflexivity, monotonicity and the two one-sided
    transitivity forms."""
    full = (1 << n) - 1
    rel = set(gen)
    # reflexivity
    for i in range(n):
        rel.add((1 << i, 1 << i))
    subsets = list(range(full + 1))
    changed = True
    while changed:
        changed = False
        # monotonicity: grow both sides
        for l, r in list(rel):
            for i in range(n):
                for pair in ((l | 1 << i, r), (l, r | 1 << i)):
                    if pair not in rel:
                        rel.add(pair)
                        changed = True
        # one-sided transitivity, left form: B u C covered, and B covered
        # by {c} u E for each c in C, gives B covered by E
        for b in subsets:
            for e in subsets:
                if (b, e) in rel:
                    continue
                for c in subsets:
                    if (b | c, e) not in rel:
                        continue
                    if all(
                        (b, (1 << i) | e) in rel
                        for i in range(n)
                        if c >> i & 1
                    ):
                        rel.add((b, e))
                        changed = True
                        break
                else:
                    # right form: B covered by D u E, and B u {d} covered
                    # by E for each d in D
                    for d in subsets:
                        if (b, d | e) not in rel:
                            continue
                        if all(
                            (b | (1 << i), e) in rel
                            for i in range(n)
                            if d >> i & 1
                        ):
                            rel.add((b, e))
                            changed = True
                            break
    return rel


def polyposet_oracle(p: PolyOrder, left, right) -> bool:
    """Truth-table entailment over all valuations satisfying the generators."""
    n = len(p.carrier)
    lm, rm = p.mask(left), p.mask(right)
    gens = [(p.mask(l), p.mask(r)) for l, r in p.generators]
    for bits in itertools.product((0, 1), repeat=n):
        v = 0
        for i, b in enumerate(bits):
            if b:
                v |= 1 << i
        if any((gl & ~v == 0) and (gr & v == 0) for gl, gr in gens):
            continue
        if (lm & ~v == 0) and (rm & v == 0):
            return False
    return True


def _below(ix: Table) -> list[list[int]]:
    """Per element position, the positions below it."""
    n = len(ix.elems)
    return [[j for j in range(n) if ix.leq[j] >> i & 1] for i in range(n)]


def _meet_mask(idx: Table, a: int, cm: int) -> int:
    """The mask of the meets of ``a`` with the members of mask ``cm``."""
    m = 0
    for c in _bits(cm):
        m |= 1 << idx.meet[a][c]
    return m


def _meet_stabilize(idx: Table, gen_pairs: set[tuple[int, int]]) -> set:
    """Close generators under: a <= b covered by C forces a covered by a /\\ C."""
    out = set(gen_pairs)
    below = _below(idx)
    for i, cm in gen_pairs:
        for a in below[i]:
            out.add((a, _meet_mask(idx, a, cm)))
    return out


def saturate_coverage(
    base: FinLattice, gen, budgets: Budgets = DEFAULT_BUDGETS
) -> Coverage:
    """Least coverage containing ``gen``; fixpoint over the closure rules:
    reflexivity, left- and right-transitivity and meet-stability."""
    check_budget(budgets, "carrier", len(base))
    idx = Table(base)
    n = len(idx.elems)
    below = _below(idx)
    gen_pairs = set()
    for a, c in gen:
        if a not in idx.pos:
            raise DomainError(f"{a!r} not in the coverage base")
        gen_pairs.add((idx.pos[a], idx.positions(c)))
    gen_pairs = _meet_stabilize(idx, gen_pairs)
    rel: list[set] = [set() for _ in range(n)]
    for i, cm in gen_pairs:
        rel[i].add(cm)
    # reflexivity over every subset
    for cm in range(1 << n):
        for c in _bits(cm):
            rel[c].add(cm)
    changed = True
    while changed:
        changed = False
        # left-transitivity and meet-stability
        for b in range(n):
            for cm in list(rel[b]):
                for a in below[b]:
                    if cm not in rel[a]:
                        rel[a].add(cm)
                        changed = True
                    m = _meet_mask(idx, a, cm)
                    if m not in rel[a]:
                        rel[a].add(m)
                        changed = True
        # right-transitivity: a covered by C, every c in C covered by D
        for dm in range(1 << n):
            ok = 0  # elements covered by D
            for c in range(n):
                if dm in rel[c]:
                    ok |= 1 << c
            for a in range(n):
                for cm in list(rel[a]):
                    if cm & ~ok == 0 and dm not in rel[a]:
                        rel[a].add(dm)
                        changed = True
    return Coverage(base, tuple(sorted(((a, frozenset(c)) for a, c in gen), key=canon_key)), rel)


# -- searches behind the pruning rank and pushout separation ------------------


def rank_oracle(r: Relation) -> object:
    """Recursive well-founded rank, or "ill-founded" (independent of
    the pruning machinery)."""
    memo: dict = {}

    def rk(x, stack):
        if x in memo:
            return memo[x]
        if x in stack:
            return None  # cycle
        stack = stack | {x}
        best = 0
        for y in r.predecessors(x):
            s = rk(y, stack)
            if s is None:
                return None
            best = max(best, s + 1)
        memo[x] = best
        return best

    if not r.carrier:
        return 0
    best = 0
    for x in r.carrier:
        s = rk(x, frozenset())
        if s is None:
            return "ill-founded"
        best = max(best, s)
    return best + 1


def prune_record(r: Relation) -> dict:
    """The fields of the DSL's ``prune`` record on a relation, by pruning
    the descending-chain diagram to depth |r| + 1 stage by stage: the
    rank is the stage at which the length-1 chains run out, and the
    stabilized length-1 chains are the core and the limit image."""
    if not r.carrier:
        return dict(verdict=0, core=[], stage_sizes=[], base_images=[], limit_image=[], dot=None)
    stages, _ = prune_sequence(desc_diagram(r, len(r.carrier) + 1, with_base=True))
    last = frozenset(c[0] for c in stages[-1].levels[1])
    verdict = next((a for a, st in enumerate(stages) if not st.levels[1]), "ill-founded")
    core = [str(x) for x in sorted(last, key=canon_key)]
    return dict(
        verdict=verdict,
        core=core,
        stage_sizes=[[len(st.levels[i]) for i in st.index.elements] for st in stages],
        base_images=[
            sorted((str(c[0]) for c in st.levels[1]), key=canon_key) for st in stages
        ],
        limit_image=core,
        dot=stages[-1].to_dot("pruned"),
    )


def pushout_separators(a: FinLattice, homs, bs, target):
    """The first tuple over ``a`` (in ``canon_key`` order) whose meet lies
    below ``target`` with b_i <= f_i(a_i), by exhaustive search over all
    |a|^k tuples; None if there is none."""
    for cand in itertools.product(sorted(a.elements, key=canon_key), repeat=len(homs)):
        m = a.top
        for x in cand:
            m &= x
        if m <= target and all(b <= h(x) for h, b, x in zip(homs, bs, cand)):
            return list(cand)
    return None


def cocomma_interpolant(f: LatticeHom, g: LatticeHom, b, b2, c, c2):
    """The first element x of the domain (in ``canon_key`` order) with
    b <= f(x) \\/ b2 and c /\\ g(x) <= c2, by a scan of the domain; None
    if there is none."""
    for x in sorted(f.dom.elements, key=canon_key):
        if b <= f(x) | b2 and c & g(x) <= c2:
            return x
    return None
