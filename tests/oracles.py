"""Reference implementations that the library's fast paths are tested against.

Most oracles follow the definition directly, with frozenset pairs and no
masks, so that they share no logic with the code under test: the poset
closure and the queries read off it (Hasse covers and their DOT, linear
extension, lower sets, isomorphism), a lattice's meet-irreducibles and
atoms read off its pairwise element order, its Hasse cover rows by the
cover pass its constructor once ran to certify closure, the glb/lub
realization of abstract lattices and its leq-rows form
(``leq_rows_lattice``), through which ``quotient`` and ``cov_ideals``
realize a congruence's classes and the cover-ideals from their order,
the hom search,
a tuple term's check and its ``sequent.Term`` in two separate walks,
its value in a lattice by the lattice's own operations
(``eval_term_in``), the spectrum of a presentation one valuation at a
time on its tuple terms, the generation closures of ``realize`` and
``extend_hom``, the recursive
well-founded rank and the cycle core by transitive closure, derivation
equality as a comparison of trees, the
regular-open algebra realized from its order pair by pair, the sublattice generated by a topology's opens and
closeds, the ``prune`` record of a relation by canonical pruning
of its whole descending-chain diagram, truth-table polyorder entailment, Maehara extraction
by a walk of the derivation tree and the separator search in Boolean
pushouts.  A hom's two adjoints (the least a with b <= f(a), the
greatest a with f(a) <= c) are scans of its domain, and so are the
witnesses built from them: atom traces and the spectra pullback over
all tuples of atoms, the least cocomma clause solution and the extremal
bilax separators.  The cocomma and bilax presentations state a cross
relation per element of the domain, not per join-irreducible.  A
topology's interior, comeager core and Baire decomposition are scans of
its opens.  The rule fixpoints for dissolution,
order-congruences and coverages work on a ``Table`` of the lattice,
built from frozenset operations on its elements, not from the masks the
library keeps; they share with the library only the one-step congruence
rules that it keeps as its runtime check.  A congruence's classes and a
hom's order kernel are read off pair sets, where the library reads rows.  The polyorder fixpoint works
on masks over the carrier.  A lattice's element frozensets, its JSON
encoding and decoding, and the hom check are rebuilt from frozensets:
the library keeps masks and builds frozensets only when they are read.
The JSON oracles share no codec with the library: labels are written
by ``json_value`` and read back by a ``json.loads`` object hook.  The
mask codecs keep their earlier per-mask forms: the canon sort by a key
read off each complement's reversed bit string, and the moved masks as
sums of the weights of their set bits.  The value records
(``Budgets``, ``Presentation``, ``Relation``, ``Sequent``) keep their
earlier forms as frozen dataclasses, named alike so that they print
alike.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce
from operator import or_

from localix import presented, sequent as sq
from localix.budgets import DEFAULT_BUDGETS, Budgets, check_budget
from localix.congruence import OrderCongruence, _column_rule, _compose, _row_rule
from localix.dissolution import Dissolution, neg
from localix.errors import DomainError, NoImageError, PreconditionError, StructureError
from localix.lattice import FinLattice, LatticeHom, _bits, _moved
from localix.order import FinPoset, _bits_set, _label, _new, canon_key, lower_sets_of
from localix.posite import Coverage, PolyOrder
from localix.presented import Presentation, join, presentation_of_lattice, var
from localix.pruning import CoDiagram, Relation, prune_sequence
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
    order ``rel`` on ``elements``, from the cubic cover pairs, with each
    backslash and double quote of a label escaped."""
    elems = sorted(elements, key=canon_key)
    ids = {e: f"n{i}" for i, e in enumerate(elems)}
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for e in elems:
        label = "".join("\\" + c if c in '\\"' else c for c in _label(e))
        lines.append(f'  {ids[e]} [label="{label}"];')
    lines += [f"  {ids[x]} -> {ids[y]};" for x, y in cover_pairs(elems, rel)]
    return "\n".join(lines + ["}"]) + "\n"


def lattice_cover_rows(a: FinLattice) -> tuple:
    """The Hasse cover rows ``FinLattice._covers`` holds, by the cover pass
    the constructor once ran to certify closure: for each element m and
    each distinct ``least[x]`` j whose points outside m are all glued to
    x, ``m | j`` must be an element, and it covers m.  Raises the
    constructor's closure error otherwise."""
    at, least = a._at, a._least
    full = (1 << len(least)) - 1
    glued = dict.fromkeys(least, 0)
    for x, j in enumerate(least):
        glued[j] |= 1 << x
    strict = [(j, j & ~g) for j, g in glued.items()]
    covers = []
    for m in at:
        row, out = 0, full ^ m
        for j, below in strict:
            if j & out and not below & out:  # j's points are minimal outside m
                if m | j not in at:
                    raise StructureError("family not closed under intersection/union")
                row |= 1 << at[m | j]
        covers.append(row)
    return tuple(covers)


def _upper_covers(a: FinLattice) -> dict:
    """Each element's upper covers in the pairwise element order."""
    ups: dict = {x: set() for x in a.elements}
    for x, y in cover_pairs(a.elements, element_order(a)):
        ups[x].add(y)
    return ups


def meet_irreducibles(a: FinLattice) -> frozenset:
    """The elements with exactly one upper cover."""
    return frozenset(x for x, ups in _upper_covers(a).items() if len(ups) == 1)


def atoms(a: FinLattice) -> tuple:
    """The elements covering bottom, in ``canon_key`` order."""
    return tuple(sorted(_upper_covers(a)[a.bot], key=canon_key))


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


def canon_sorted(masks, n: int) -> list[int]:
    """The masks over ``n`` points in ``canon_key`` order of their point
    sets, keyed by size and then by the complement's bit string, read
    from bit 0 down as a binary number."""
    full = (1 << n) - 1
    return sorted(masks, key=lambda m: (m.bit_count(), int(format(full ^ m, f"0{n}b")[::-1], 2)))


def moved(masks, weight: list[int]) -> list[int]:
    """Each mask with its bit i replaced by ``weight[i]``: the sum of the
    weights of its set bits."""
    return [sum(itertools.compress(weight, _bits_set(m))) for m in masks]


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


def json_value(x):
    """A label as JSON holds it: tuples as arrays, frozensets as
    ``{"set": [...]}`` in ``canon_key`` order, scalars as they are."""
    if isinstance(x, tuple):
        return [json_value(e) for e in x]
    if isinstance(x, frozenset):
        return {"set": [json_value(e) for e in sorted(x, key=canon_key)]}
    return x


def _tuples(v):
    """Parsed JSON with every array, also inside objects, turned into a tuple."""
    if isinstance(v, list):
        return tuple(map(_tuples, v))
    if isinstance(v, dict):
        return {k: _tuples(x) for k, x in v.items()}
    return v


def _set_object(pairs: list):
    """A ``json.loads`` object hook: ``{"set": [...]}`` is a frozenset (its
    members were parsed first), any other object a dict."""
    d = dict(pairs)
    return frozenset(_tuples(d["set"])) if d.keys() == {"set"} else d


def loads(text: str):
    """Parsed JSON read back as labels: sets as frozensets, arrays as tuples."""
    return _tuples(json.loads(text, object_pairs_hook=_set_object))


def lattice_to_json(a: FinLattice) -> str:
    """``FinLattice.to_json`` from the frozensets and the spectrum's pairs."""
    p = a.spectrum
    spectrum = {
        "elements": [json_value(x) for x in p.elements],
        "pairs": [json_value(xy) for xy in sorted(p.leq_pairs(), key=canon_key) if xy[0] != xy[1]],
    }
    elements = [[json_value(x) for x in sorted(e, key=canon_key)] for e in eager_elements(a)]
    return json.dumps({"kind": a.kind, "spectrum": spectrum, "elements": elements}, sort_keys=True)


def lattice_from_json(text: str) -> FinLattice:
    """``FinLattice.from_json`` through frozensets and the public constructors."""
    data = loads(text)
    spectrum = FinPoset(data["spectrum"]["elements"], data["spectrum"]["pairs"])
    elems = [frozenset(e) for e in data["elements"]]
    return FinLattice(spectrum, elems, data["kind"])


def hom_on_graph(dom: FinLattice, cod: FinLattice, graph: dict) -> None:
    """The errors ``LatticeHom`` raises, read off the graph's frozensets: a
    map that is no hom is named by the first element at which it breaks
    the join- or meet-irreducible formula of the module docstring of
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
    scan of all items; returns what ``leq_rows_lattice`` returns and
    raises StructureError where it does."""
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


def leq_rows_lattice(items, leq) -> tuple:
    """Realize an abstract finite lattice given by a leq predicate.

    ``leq`` is read once per pair of items, into one int row per item.
    The join-irreducibles, the items with exactly one lower cover,
    become the spectrum, and each item maps to the set of irreducibles
    below it.  The items form a distributive lattice exactly when that
    map is an order embedding onto a family closed under intersection
    and union (Birkhoff; Davey & Priestley, *Introduction to Lattices
    and Order*, ch. 5): the embedding is checked here and the closure by
    ``FinLattice``, and both raise StructureError otherwise.  Returns
    the lattice and the item->element map.  The oracle of the library's
    quotients and cover-ideals, which are built on their join-irreducibles.
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
    # the masks over item positions, re-indexed onto the spectrum's positions
    weight = [0] * len(items)
    for j in _bits(irr):
        weight[j] = 1 << spectrum._index[items[j]]
    masks = _moved(masks, weight)
    # the spectrum is J, so the lattice is Boolean iff J is an antichain
    kind = "boolean" if spectrum.is_antichain() else "distributive"
    lat = _new(FinLattice, spectrum, masks, kind)
    els, at = lat.elements, lat._at
    return lat, {x: els[at[m]] for x, m in zip(items, masks)}


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


def _check_term(t: tuple, gens: frozenset, boolean: bool) -> None:
    """Raise what ``presented._term`` raises on ``t``, in a walk that
    builds nothing."""
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


def _to_sequent_term(t: tuple) -> Term:
    """The ``sequent.Term`` that ``presented._term`` reads off a checked
    term, in a walk that checks nothing: ``not`` by ``sequent.neg``."""
    op = t[0]
    if op == "var":
        return sq.var(t[1])
    if op == "top":
        return TOP
    if op == "bot":
        return BOT
    if op == "not":
        return sq.neg(_to_sequent_term(t[1]))
    mk = sq.meet_t if op == "meet" else sq.join_t
    return mk(_to_sequent_term(s) for s in t[1:])


def eval_term_in(t: tuple, assign: dict, target: FinLattice) -> frozenset:
    """A tuple term's value in ``target`` under a generator assignment,
    by the target's own operations; raises ``StructureError`` where a
    complement it needs is missing."""
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


def check_assignment(p, assign: dict, target: FinLattice) -> bool:
    """Each relation l <= r compared as ``eval_term_in`` values."""
    if set(assign) != set(p.gens):
        raise DomainError("assignment must cover exactly the generators")
    for v in assign.values():
        if v not in target:
            raise DomainError(f"{v!r} not in target")
    return all(
        eval_term_in(l, assign, target) <= eval_term_in(r, assign, target)
        for l, r in p.rels
    )


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
    # the library's precondition, so that both refuse the same assignments
    if not presented.check_assignment(p, assign, target):
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


def adds_one_disjunct(a: frozenset, q: frozenset, disjuncts: frozenset) -> bool:
    """The joinR premise test, one set built per disjunct: q is a plus
    one disjunct (possibly one a already holds)."""
    return any(q == a | {b} for b in disjuncts)


def flatten(t: Term) -> Term:
    """``t`` with same-kind children merged and one-child nodes replaced
    by their child, rebuilt bottom-up."""
    if t.kind in ("pos", "neg"):
        return t
    kids = set()
    for c in map(flatten, t.children):
        kids |= c.children if c.kind == t.kind else {c}
    return next(iter(kids)) if len(kids) == 1 else Term(t.kind, None, frozenset(kids))


def derivations_equal(x: Derivation, y: Derivation) -> bool:
    """Equality of two derivations as trees, field by field: what the
    ``Record`` comparison of their field tuples computes."""
    return (
        type(x) is type(y)
        and x.sequent == y.sequent
        and x.rule == y.rule
        and x.principal == y.principal
        and len(x.children) == len(y.children)
        and all(map(derivations_equal, x.children, y.children))
    )


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
    below = [list(_bits(m)) for m in ix.mask]
    r = [ri | li for ri, li in zip(rel, ix.leq)]
    while True:
        r2 = _row_rule(_compose(r), ups)
        # before the fixpoint a row need not hold the rows above it
        cols = [reduce(or_, (r2[a] for a in _bits(u)), 0) for u in ups]
        nxt = _column_rule(below, r2, cols)
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


def congruence_classes(a: FinLattice, rel: frozenset) -> list[frozenset]:
    """The equivalence classes of a congruence read off its pair set, in
    ``a.elements`` order of their first members."""
    seen: set = set()
    out = []
    for x in a.elements:
        if x in seen:
            continue
        cls = frozenset(y for y in a.elements if (x, y) in rel and (y, x) in rel)
        seen |= cls
        out.append(cls)
    return out


def order_kernel(f: LatticeHom) -> frozenset:
    """The pairs ``(a, b)`` of domain elements with ``f(a) <= f(b)``."""
    return frozenset((a, b) for a in f.dom.elements for b in f.dom.elements if f(a) <= f(b))


def quotient(a: FinLattice, c: OrderCongruence) -> tuple:
    """The quotient lattice and projection, the classes of ``c`` realized
    from their order by ``leq_rows_lattice``: one class lies below
    another when a member of the first relates to a member of the second."""
    classes = congruence_classes(a, c.rel)
    cls_of = {x: cls for cls in classes for x in cls}
    rel = c.rel
    lat, to_elem = leq_rows_lattice(classes, lambda p, q: (next(iter(p)), next(iter(q))) in rel)
    return lat, LatticeHom(a, lat, {x: to_elem[cls_of[x]] for x in a.elements})


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


def cov_ideals(c: Coverage, include_empty_join: bool = False) -> tuple:
    """The cover-ideals of ``c``, found among all lower sets of the element
    order, realized from inclusion by ``leq_rows_lattice``; with
    ``include_empty_join``, only those holding bottom."""
    base = c.base
    pairs = c.pairs()
    ideals = [
        d
        for d in lower_sets_of(FinPoset(base.elements, element_order(base)))
        if (base.bot in d or not include_empty_join) and all(a in d for a, cs in pairs if cs <= d)
    ]
    return leq_rows_lattice(ideals, frozenset.__le__)


def closed(fam: set) -> set:
    """``fam`` closed under & and |, by the naive fixpoint (in place)."""
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                for c in (a & b, a | b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return fam


def sigma2_family(t) -> frozenset:
    """The sublattice of the ambient that a ``FrameTopology``'s opens and
    their complements generate."""
    return frozenset(closed(set(t.opens) | {t.top() - o for o in t.opens}))


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


def cycle_core(r: Relation) -> frozenset:
    """The points from which a predecessor path reaches an ``r``-cycle, by
    the transitive closure of the predecessor relation."""
    below = {x: r.predecessors(x) for x in r.carrier}  # one or more steps down
    changed = True
    while changed:
        changed = False
        for x in r.carrier:
            grown = below[x].union(*(below[y] for y in below[x]))
            if grown != below[x]:
                below[x], changed = grown, True
    return frozenset(x for x in r.carrier if any(y in below[y] for y in below[x] | {x}))


def all_pairs_diagram(index: FinPoset, succ, levels: dict, maps: dict, base=None, kind: str = "finite"):
    """The diagram check that stores and certifies a map for every pair of
    comparable indices: the levels, the full map table (identities
    included) and the base, or the first StructureError or DomainError.
    Every pair i < j needs a map, functoriality is checked on every
    triple i < j < k below a non-empty level k, and the base commutes
    with every map of the table."""
    if kind not in ("finite", "truncated_chain"):
        raise DomainError(f"unknown diagram kind {kind!r}")
    succ = frozenset(tuple(s) for s in succ)
    for i, j in succ:
        if not index.lt(i, j):
            raise StructureError(f"succ pair ({i!r}, {j!r}) must go strictly up")
    if FinPoset(index.elements, succ) != index:
        raise StructureError("succ relation does not generate the index order")
    if not index.is_directed():
        raise StructureError("index must be directed")
    if kind == "finite":
        for i, k in succ:
            for j in index.elements:
                if not index.leq(i, j) or index.leq(k, j):
                    continue
                if not any((j, l) in succ and index.leq(k, l) for l in index.elements):
                    raise StructureError(f"succ condition fails at j={j!r} >= {i!r} succ {k!r}")
    levels = {i: frozenset(levels[i]) for i in index.elements}
    full_maps = {(i, i): {x: x for x in levels[i]} for i in index.elements}
    for (j, i), f in maps.items():
        if not index.lt(i, j):
            raise DomainError(f"map ({j!r} -> {i!r}) must go strictly down")
        if set(f) != set(levels[j]):
            raise StructureError(f"map {j!r}->{i!r} domain mismatch")
        for v in f.values():
            if v not in levels[i]:
                raise StructureError(f"map {j!r}->{i!r} image escapes the level")
        full_maps[(j, i)] = dict(f)
    for j in index.elements:
        for i in index.elements:
            if index.lt(i, j) and (j, i) not in full_maps:
                raise StructureError(f"missing map {j!r} -> {i!r}")
    for k in [k for k in index.elements if levels[k]]:
        for j in index.elements:
            for i in index.elements:
                if index.lt(i, j) and index.lt(j, k):
                    f, g, h = full_maps[(k, j)], full_maps[(j, i)], full_maps[(k, i)]
                    for x in levels[k]:
                        if g[f[x]] != h[x]:
                            raise StructureError(f"maps {k!r}->{j!r}->{i!r} are not functorial")
    if base is not None:
        y, ps = base
        y = frozenset(y)
        ps = {i: dict(ps[i]) for i in index.elements}
        for i in index.elements:
            if set(ps[i]) != set(levels[i]):
                raise StructureError(f"projection at {i!r} domain mismatch")
            for v in ps[i].values():
                if v not in y:
                    raise StructureError("projection escapes the base")
        for (j, i), f in full_maps.items():
            for x in levels[j]:
                if ps[i][f[x]] != ps[j][x]:
                    raise StructureError("projections do not commute with the maps")
        base = (y, ps)
    return levels, full_maps, base


def path_composites(index: FinPoset, succ, steps: dict):
    """For each pair i < j, the map from level j down to level i that the
    ``steps`` (keyed (j, i) for each ``succ`` pair (i, j)) compose to along
    every path of steps from j to i; None if two paths compose to
    different maps."""
    below = {}
    for i, j in succ:
        below.setdefault(j, []).append(i)

    def paths(j, i):
        if j == i:
            yield [j]
        for k in below.get(j, ()):
            if index.leq(i, k):
                yield from ([j] + p for p in paths(k, i))

    out = {}
    for j in index.elements:
        for i in index.elements:
            if index.lt(i, j):
                found = set()
                for p in paths(j, i):
                    f = dict(steps[p[0], p[1]])
                    for hi, lo in zip(p[1:], p[2:]):
                        f = {x: steps[hi, lo][v] for x, v in f.items()}
                    found.add(tuple(sorted(f.items(), key=canon_key)))
                if len(found) > 1:
                    return None
                out[j, i] = dict(found.pop())
    return out


def chain_composites(levels: list, maps: list) -> dict:
    """Every composite of a chain whose levels[k] sits at index k + 1 and
    whose maps[k] sends level k + 1 down to level k, keyed (hi, lo)."""
    full = {}
    for hi in range(2, len(levels) + 1):
        f = {x: x for x in levels[hi - 1]}
        for lo in range(hi - 1, 0, -1):
            f = {x: maps[lo - 1][v] for x, v in f.items()}
            full[(hi, lo)] = f
    return full


def desc_diagram(r: Relation, depth: int, with_base: bool = False) -> CoDiagram:
    """Chain diagram of descending sequences of ``r``.

    Level k holds the chains (x_0, ..., x_{k-1}) with each later entry
    related to its predecessor; maps drop the last coordinate.  With a
    base, level 0 (the empty chain) is omitted and chains project to
    their first coordinate.
    """
    if depth < 1:
        raise DomainError("depth must be at least 1")
    levels = [[()], [(x,) for x in r.carrier]]
    while len(levels) <= depth:
        prev = levels[-1]
        levels.append([c + (y,) for c in prev for y in r.predecessors(c[-1])])
    maps = [{c: c[:-1] for c in levels[k + 1]} for k in range(depth)]
    complete = depth >= len(r.carrier) + 1 or not levels[depth]
    if with_base:
        base = (
            frozenset(r.carrier),
            [{c: c[0] for c in levels[k]} for k in range(1, depth + 1)],
        )
        return CoDiagram.chain(levels[1:], maps[1:], base, complete)
    return CoDiagram.chain(levels, maps, None, complete)


def inverse_limit(d: CoDiagram) -> list[dict]:
    """All compatible threads of a finite-index diagram, by trying every
    combination of points against the map of every comparable pair."""
    if d.kind != "finite":
        raise DomainError("direct limits are computed for finite indices only")
    order = list(d.index.elements)
    maps = {(j, i): d.composite(j, i) for j in order for i in order if d.index.lt(i, j)}
    threads = []
    for combo in itertools.product(*[sorted(d.levels[i], key=canon_key) for i in order]):
        t = dict(zip(order, combo))
        if all(f[t[j]] == t[i] for (j, i), f in maps.items()):
            threads.append(t)
    return threads


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


def borel_image(f: LatticeHom, b):
    """The least c in the domain of ``f`` with b <= f(c), the meet of
    the candidates over a scan of the domain; raises what
    ``lattice.borel_image`` raises."""
    if b not in f.cod:
        raise DomainError(f"{b!r} not in the codomain of f")
    m = f.dom.top
    for c in f.dom.elements:
        if b <= f(c):
            m &= c
    if m not in f.dom or not b <= f(m):
        raise NoImageError(f"no least cover for {b!r} along f")
    return m


def greatest_below(f: LatticeHom, c):
    """The greatest a in the domain of ``f`` with f(a) <= c, the join of
    the candidates over a scan of the domain."""
    m = f.dom.bot
    for a in f.dom.elements:
        if f(a) <= c:
            m |= a
    if m not in f.dom or not f(m) <= c:
        raise StructureError(f"no greatest element below {c!r} along f")
    return m


def point_of(a: FinLattice, hom_values):
    """The atom of a Boolean lattice carrying a 2-valued hom, the meet of
    the elements it sends to true."""
    m = a.top
    for x in a.elements:
        if hom_values(x):
            m &= x
    if m not in a or not hom_values(m):
        raise StructureError("valuation does not come from an atom")
    return m


def pushout_points(f: LatticeHom, g: LatticeHom) -> list:
    """The points of ``presented.pushout_points``: the pairs of codomain
    atoms whose ``point_of`` traces agree, over all pairs."""

    def trace(h, atom):
        return point_of(h.dom, lambda x: atom <= h(x))

    pairs = itertools.product(f.cod.atoms(), g.cod.atoms())
    return sorted(((q, r) for q, r in pairs if trace(f, q) == trace(g, r)), key=canon_key)


def atom_trace(h: LatticeHom, q):
    """The first atom of the domain whose image holds the codomain atom
    ``q``; None if there is none."""
    for p in h.dom.atoms():
        if q <= h(p):
            return p
    return None


def pushout_tuples(homs) -> list:
    """The spectra pullback of Boolean homs out of one source: every
    tuple of codomain atoms whose ``atom_trace`` agree, with the trace,
    over all tuples of atoms."""
    out = []
    for qs in itertools.product(*[h.cod.atoms() for h in homs]):
        traces = [atom_trace(h, q) for h, q in zip(homs, qs)]
        if len(set(traces)) == 1 and traces[0] is not None:
            out.append((traces[0], qs))
    return out


def cocomma_least(f: LatticeHom, b, b2):
    """The least x with b <= f(x) \\/ b2, the meet of the candidates
    over a scan of the domain."""
    x = f.dom.top
    for y in f.dom.elements:
        if b <= f(y) | b2:
            x &= y
    return x


def bilax_separators(fs, gs, bs, cs) -> tuple:
    """The extremal bilax witnesses by scans of the domain: the least a
    with b_i <= f_i(a) and the greatest a with g_j(a) <= c_j."""
    return (
        [borel_image(f, b) for f, b in zip(fs, bs)],
        [greatest_below(g, c) for g, c in zip(gs, cs)],
    )


def _join_term(irr: dict, x) -> tuple:
    """The join of the generators naming the irreducibles below ``x``."""
    return join(*[var(g) for g, j in irr.items() if j <= x])


def cocomma_presentation(f: LatticeHom, g: LatticeHom) -> tuple:
    """The presentation of ``cocomma_dl`` with a cross relation
    inl(f(x)) <= inr(g(x)) for every element x of the domain, and the
    generator maps of the two codomains."""
    pb, irr_b = presentation_of_lattice(f.cod, "l")
    pc, irr_c = presentation_of_lattice(g.cod, "r")
    cross = tuple((_join_term(irr_b, f(x)), _join_term(irr_c, g(x))) for x in f.dom.elements)
    return Presentation(pb.gens + pc.gens, pb.rels + pc.rels + cross, "distributive"), irr_b, irr_c


def bilax_presentation(fs, gs) -> tuple:
    """The presentation of ``bilax_pushout`` with its two families of
    cross relations stated for every element of the domain, the
    generator map of the domain and those of the codomains, legs of
    ``fs`` first."""
    a = (list(fs) + list(gs))[0].dom
    pa, irr_a = presentation_of_lattice(a, "a")
    gens, rels, irrs = list(pa.gens), list(pa.rels), []
    for tag, homs in (("b", fs), ("c", gs)):
        for i, h in enumerate(homs):
            pres, irr = presentation_of_lattice(h.cod, f"{tag}{i}_")
            gens += pres.gens
            rels += pres.rels
            irrs.append(irr)
    for h, irr in zip(fs, irrs):
        rels += [(_join_term(irr, h(x)), _join_term(irr_a, x)) for x in a.elements]
    for h, irr in zip(gs, irrs[len(fs):]):
        rels += [(_join_term(irr_a, x), _join_term(irr, h(x))) for x in a.elements]
    return Presentation(tuple(gens), tuple(rels), "distributive"), irr_a, irrs


@dataclass(frozen=True)
class BudgetsTwin:
    __qualname__ = "Budgets"

    gens: int = 20
    carrier: int = 6
    elements: int = 4096
    sequent_gens: int = 6
    sequent_depth: int = 5
    diagram: int = 64
    unsafe: bool = False


@dataclass(frozen=True)
class PresentationTwin:
    __qualname__ = "Presentation"

    gens: tuple
    rels: tuple
    kind: str = "distributive"

    def __post_init__(self):
        if self.kind not in ("distributive", "boolean"):
            raise DomainError(f"unknown presentation kind {self.kind!r}")
        if len(set(self.gens)) != len(self.gens):
            raise DomainError("duplicate generator names")
        gset = frozenset(self.gens)
        for lhs, rhs in self.rels:
            _check_term(lhs, gset, self.kind == "boolean")
            _check_term(rhs, gset, self.kind == "boolean")


@dataclass(frozen=True)
class RelationTwin:
    __qualname__ = "Relation"

    carrier: tuple
    pairs: frozenset

    def __post_init__(self):
        cs = set(self.carrier)
        for a, b in self.pairs:
            if a not in cs or b not in cs:
                raise DomainError(f"pair ({a!r}, {b!r}) escapes the carrier")


@dataclass(frozen=True)
class SequentTwin:
    __qualname__ = "Sequent"

    left: frozenset
    right: frozenset

    def __post_init__(self):
        for t in self.left | self.right:
            if not isinstance(t, Term):
                raise DomainError("sequent sides must contain terms")


def interior(t, b):
    """The largest open below ``b``, the union of the opens inside it."""
    out = frozenset()
    for o in t.opens:
        if o <= b:
            out |= o
    return out


def comeager_core(t):
    """The meet over all opens U of (closure(U) implies U); the
    complement of closure(U) is the ``interior`` of the complement."""
    core = top = t.top()
    for u in t.opens:
        core &= interior(t, top - u) | u
    return core


def opens_lattice(t) -> tuple:
    """The opens of ``t`` as an abstract lattice under inclusion, and each
    open's element, realized by ``leq_rows_lattice``, which reads the
    order pair by pair."""
    return leq_rows_lattice(list(t.opens), frozenset.__le__)


def regular_algebra(t) -> FinLattice:
    """The regular opens of ``t`` as an abstract lattice under inclusion,
    realized by ``leq_rows_lattice``, which reads the order pair by pair."""
    regs = [u for u in t.opens if interior(t, t.top() - interior(t, t.top() - u)) == u]
    return leq_rows_lattice(regs, frozenset.__le__)[0]


def baire_decompose(t, b) -> tuple:
    """The first open in canonical order whose symmetric difference with
    ``b`` misses ``comeager_core``, with that difference."""
    core = comeager_core(t)
    for u in sorted(t.opens, key=canon_key):
        if not (b ^ u) & core:
            return u, b ^ u
    return None
