"""Brute-force oracles for the benchmark, written without localix.

Each function recomputes a fact about a workload input from first
principles (subset enumeration, truth tables, counting maps), so a
benchmark output is checked against a computation made apart from the
program, never against a stored copy of its output.

Plain data conventions, shared with ``inputs.py`` and ``worker.py``:

* a poset is ``{"elements": [...], "pairs": [[a, b], ...]}`` with
  int or str labels; ``pairs`` lists some ``a <= b`` facts;
* a sequent term is ``["pos", g]``, ``["neg", g]``, ``["meet", [..]]``
  or ``["join", [..]]``;
* a presentation term is ``["var", g]``, ``["top"]``, ``["bot"]``,
  ``["not", t]``, ``["meet", t, ...]`` or ``["join", t, ...]``.

``python3 bench/oracles.py`` checks the oracles against known values.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache


def canon(labels) -> list:
    """Labels in a fixed order that mixes ints and strs safely."""
    return sorted(labels, key=lambda x: (type(x).__name__, x))


# -- posets -------------------------------------------------------------------


def leq_closure(elements, pairs) -> frozenset:
    """The reflexive-transitive closure of ``pairs`` as a set of pairs."""
    rel = {(e, e) for e in elements} | {tuple(p) for p in pairs}
    while True:
        extra = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not extra:
            return frozenset(rel)
        rel |= extra


def down_sets(elements, leq) -> list[frozenset]:
    """Every down-closed subset, by checking all subsets."""
    elements = list(elements)
    out = []
    for bits in itertools.product((False, True), repeat=len(elements)):
        s = frozenset(e for e, b in zip(elements, bits) if b)
        if all(x in s for x in elements for y in s if (x, y) in leq):
            out.append(s)
    return out


def count_down_sets(elements, leq) -> int:
    """Number of down-sets, by splitting on whether a point is included.

    A down-set either misses ``x`` (then it misses all of up(x)) or
    contains it (then it contains all of down(x)); both halves are
    down-sets of the remaining subposet.
    """
    leq = frozenset(leq)

    @lru_cache(maxsize=None)
    def count(rest: frozenset) -> int:
        if not rest:
            return 1
        x = min(rest, key=repr)
        up = {y for y in rest if (x, y) in leq}
        down = {y for y in rest if (y, x) in leq}
        return count(rest - up) + count(rest - down)

    return count(frozenset(elements))


def poset_down_sets(poset: dict) -> list[frozenset]:
    leq = leq_closure(poset["elements"], poset["pairs"])
    return down_sets(poset["elements"], leq)


def poset_count_down_sets(poset: dict) -> int:
    leq = leq_closure(poset["elements"], poset["pairs"])
    return count_down_sets(poset["elements"], leq)


def principal_down_sets(poset: dict) -> list[frozenset]:
    leq = leq_closure(poset["elements"], poset["pairs"])
    return [frozenset(y for y in poset["elements"] if (y, x) in leq) for x in poset["elements"]]


def is_antichain(poset: dict) -> bool:
    leq = leq_closure(poset["elements"], poset["pairs"])
    return all(a == b for a, b in leq)


def join_irreducible_count(family) -> int:
    """Members of a union-closed family that are not the union of the
    members strictly below them (the empty set never counts)."""
    family = list(family)
    n = 0
    for e in family:
        below = frozenset().union(*[x for x in family if x < e])
        if e and below != e:
            n += 1
    return n


def count_monotone_maps(dom: dict, cod: dict) -> int:
    """Number of order-preserving maps ``dom -> cod``, by trying all maps."""
    dl = leq_closure(dom["elements"], dom["pairs"])
    cl = leq_closure(cod["elements"], cod["pairs"])
    de = list(dom["elements"])
    n = 0
    for img in itertools.product(cod["elements"], repeat=len(de)):
        f = dict(zip(de, img))
        if all((f[a], f[b]) in cl for a, b in dl):
            n += 1
    return n


# -- coverages and polyorders ------------------------------------------------


def cover_ideal_count(family, generators) -> int:
    """Down-sets of the element poset closed under the meet-stabilized
    generators: ``(a, C)`` forces ``x covered by {x & c}`` for all x <= a."""
    family = list(family)
    stab = []
    for a, cs in generators:
        for x in family:
            if x <= a:
                stab.append((x, frozenset(x & c for c in cs)))
    n = 0
    for bits in itertools.product((False, True), repeat=len(family)):
        d = {e for e, b in zip(family, bits) if b}
        if not all(x in d for y in d for x in family if x <= y):
            continue
        if all(x in d or not cs <= d for x, cs in stab):
            n += 1
    return n


def polyorder_table(carrier, generators) -> set:
    """All pairs (L, R) of carrier subsets, as bitmasks over ``carrier``,
    with meet(L) <= join(R) in every 2-valuation satisfying the generators."""
    index = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)

    def mask(xs):
        return sum(1 << index[x] for x in xs)

    gens = [(mask(l), mask(r)) for l, r in generators]
    models = [
        v for v in range(1 << n)
        if not any(gl & ~v == 0 and gr & v == 0 for gl, gr in gens)
    ]
    return {
        (lm, rm)
        for lm in range(1 << n)
        for rm in range(1 << n)
        if not any(lm & ~v == 0 and rm & v == 0 for v in models)
    }


# -- terms --------------------------------------------------------------------


def seq_eval(t, v: dict) -> bool:
    kind = t[0]
    if kind == "pos":
        return v[t[1]]
    if kind == "neg":
        return not v[t[1]]
    if kind == "meet":
        return all(seq_eval(c, v) for c in t[1])
    return any(seq_eval(c, v) for c in t[1])


def seq_vars(t) -> set:
    if t[0] in ("pos", "neg"):
        return {t[1]}
    return set().union(*[seq_vars(c) for c in t[1]])


def seq_valid(left, right) -> bool:
    """Truth table: every valuation making all of ``left`` true makes
    some term of ``right`` true."""
    gens = sorted(set().union(*[seq_vars(t) for t in list(left) + list(right)]))
    for bits in itertools.product((False, True), repeat=len(gens)):
        v = dict(zip(gens, bits))
        if all(seq_eval(t, v) for t in left) and not any(seq_eval(t, v) for t in right):
            return False
    return True


def pres_eval(t, v: dict) -> bool:
    op = t[0]
    if op == "var":
        return v[t[1]]
    if op == "top":
        return True
    if op == "bot":
        return False
    if op == "not":
        return not pres_eval(t[1], v)
    if op == "meet":
        return all(pres_eval(s, v) for s in t[1:])
    return any(pres_eval(s, v) for s in t[1:])


def spec_points(gens, rels) -> list[tuple]:
    """Satisfying 2-valuations in lexicographic order, False before True."""
    out = []
    for bits in itertools.product((False, True), repeat=len(gens)):
        v = dict(zip(gens, bits))
        if all(not pres_eval(l, v) or pres_eval(r, v) for l, r in rels):
            out.append(bits)
    return out


def presented_size(gens, rels, kind: str = "distributive") -> int:
    """Size of the presented lattice: the down-sets of the spectrum under
    reverse pointwise order, or every subset of a Boolean spectrum."""
    pts = spec_points(gens, rels)
    if kind == "boolean":
        return 2 ** len(pts)
    idx = range(len(pts))
    leq = {(i, j) for i in idx for j in idx if all(x >= y for x, y in zip(pts[i], pts[j]))}
    return count_down_sets(idx, leq)


# -- self-check ----------------------------------------------------------------


def self_check() -> list[str]:
    """Compare the oracles with known values; returns the failures."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got!r}, want {want!r}")

    for n in range(1, 6):
        anti = {"elements": list(range(n)), "pairs": []}
        expect(f"down-sets of the {n}-antichain", poset_count_down_sets(anti), 2 ** n)
        expect(f"listed down-sets of the {n}-antichain", len(poset_down_sets(anti)), 2 ** n)
    chain5 = {"elements": list(range(5)), "pairs": [[i, i + 1] for i in range(4)]}
    expect("down-sets of the 5-chain", poset_count_down_sets(chain5), 6)
    expect("irreducibles of the 5-chain", join_irreducible_count(poset_down_sets(chain5)), 5)
    expect("free distributive lattice on 3 generators", presented_size("abc", []), 20)
    expect("free distributive lattice on 4 generators", presented_size("abcd", []), 168)
    expect("free Boolean algebra on 2 generators", presented_size("ab", [], "boolean"), 16)
    chain3 = {"elements": ["x", "y", "z"], "pairs": [["x", "y"], ["y", "z"]]}
    anti2 = {"elements": ["p", "q"], "pairs": []}
    expect("monotone maps 2-antichain -> 3-chain", count_monotone_maps(anti2, chain3), 9)
    expect("monotone maps 3-chain -> 2-antichain", count_monotone_maps(chain3, anti2), 2)
    a, b = ["pos", "a"], ["pos", "b"]
    expect("a & b |- a", seq_valid([["meet", [a, b]]], [a]), True)
    expect("a |- b", seq_valid([a], [b]), False)
    expect("|- a | !a", seq_valid([], [["join", [a, ["neg", "a"]]]]), True)
    expect("polyorder reflexivity", (1, 1) in polyorder_table(["p"], []), True)
    # on a free carrier, L |- R holds exactly when L and R meet: 4^2 - 3^2
    expect("polyorder pairs on a free 2-point carrier", len(polyorder_table(["p", "q"], [])), 7)
    chain3_sets = [frozenset(), frozenset({0}), frozenset({0, 1})]
    expect("cover ideals with no generators", cover_ideal_count(chain3_sets, []), 4)
    return bad


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print("FAIL", line)
    print("oracle self-check:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
