"""Codirected diagrams, canonical pruning, ranks, and limit images.

A CoDiagram assigns finite levels to a directed index poset with
backward maps from higher to lower indices.  Canonical pruning
replaces each level by the intersection of the images from its
immediate successors; iterating detects well-foundedness (descending
chain diagrams of a relation) and computes inverse-limit images.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DomainError, StructureError, UnstabilizedError
from .order import FinPoset, canon_key

__all__ = [
    "Relation",
    "CoDiagram",
    "canonical_prune",
    "prune_sequence",
    "desc_diagram",
    "rank",
    "cycle_core",
    "limit_image",
    "inverse_limit",
]


@dataclass(frozen=True)
class Relation:
    carrier: tuple
    pairs: frozenset

    def __post_init__(self):
        cs = set(self.carrier)
        for a, b in self.pairs:
            if a not in cs or b not in cs:
                raise DomainError(f"pair ({a!r}, {b!r}) escapes the carrier")

    @staticmethod
    def make(carrier: Iterable, pairs: Iterable[tuple]) -> "Relation":
        return Relation(
            tuple(sorted(set(carrier), key=canon_key)),
            frozenset(tuple(p) for p in pairs),
        )

    def predecessors(self, x) -> frozenset:
        return frozenset(a for a, b in self.pairs if b == x)

    def to_json(self) -> str:
        return json.dumps(
            {"carrier": list(self.carrier), "pairs": sorted(map(list, self.pairs))},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Relation":
        data = json.loads(text)
        return Relation.make(data["carrier"], [tuple(p) for p in data["pairs"]])


class CoDiagram:
    """Finite levels over a directed index with backward maps.

    ``succ`` lists the generating steps i -> j (i below j); for the
    ``finite`` kind the confluence condition "j >= i, i succ k implies
    some l with j succ l >= k" is enforced, for depth-truncated chains
    it necessarily fails at the top and is waived.  ``base`` is an
    optional commuting family of projections to a common set.
    """

    __slots__ = ("index", "succ", "levels", "maps", "base", "kind", "complete")

    def __init__(
        self,
        index: FinPoset,
        succ: Iterable[tuple],
        levels: dict,
        maps: dict,
        base: Optional[tuple] = None,
        kind: str = "finite",
        complete: bool = True,
    ):
        if kind not in ("finite", "truncated_chain"):
            raise DomainError(f"unknown diagram kind {kind!r}")
        succ = frozenset(tuple(s) for s in succ)
        for i, j in succ:
            if not index.lt(i, j):
                raise StructureError(f"succ pair ({i!r}, {j!r}) must go strictly up")
        # succ must generate the order
        reach = {(i, i) for i in index.elements}
        changed = True
        while changed:
            changed = False
            for a, b in list(reach):
                for b2, c in succ:
                    if b2 == b and (a, c) not in reach:
                        reach.add((a, c))
                        changed = True
        if reach != set(index.leq_pairs()):
            raise StructureError("succ relation does not generate the index order")
        if not index.is_directed():
            raise StructureError("index must be directed")
        if kind == "finite":
            # when j >= k the restriction factors through f_jk, so only
            # incomparable-upward j need a successor above k
            for i, k in succ:
                for j in index.elements:
                    if not index.leq(i, j) or index.leq(k, j):
                        continue
                    if not any(
                        (j, l) in succ and index.leq(k, l) for l in index.elements
                    ):
                        raise StructureError(
                            f"succ condition fails at j={j!r} >= {i!r} succ {k!r}"
                        )
        levels = {i: frozenset(levels[i]) for i in index.elements}
        full_maps = {}
        for i in index.elements:
            full_maps[(i, i)] = {x: x for x in levels[i]}
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
        for k in index.elements:
            for j in index.elements:
                for i in index.elements:
                    if index.lt(i, j) and index.lt(j, k):
                        f, g, h = full_maps[(k, j)], full_maps[(j, i)], full_maps[(k, i)]
                        for x in levels[k]:
                            if g[f[x]] != h[x]:
                                raise StructureError(
                                    f"maps {k!r}->{j!r}->{i!r} are not functorial"
                                )
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
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "maps", full_maps)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "complete", complete)

    def __setattr__(self, *a):
        raise AttributeError("CoDiagram is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoDiagram)
            and self.index == other.index
            and self.succ == other.succ
            and self.levels == other.levels
            and self.maps == other.maps
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.index, self.succ, tuple(sorted(self.levels.items(), key=canon_key))))

    def __repr__(self) -> str:
        sizes = [len(self.levels[i]) for i in self.index.elements]
        return f"CoDiagram({len(self.index)} indices, level sizes {sizes})"

    def total_size(self) -> int:
        return sum(len(v) for v in self.levels.values())

    def succs_of(self, i) -> list:
        return [j for (k, j) in self.succ if k == i]

    def to_dot(self, name: str = "diagram") -> str:
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        for i in self.index.elements:
            label = "{" + ",".join(str(x) for x in sorted(self.levels[i], key=canon_key)) + "}"
            lines.append(f'  "{i}" [label="{i}: {label}"];')
        for i, j in self.succ:
            lines.append(f'  "{j}" -> "{i}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        data = {
            "kind": self.kind,
            "complete": self.complete,
            "index": {
                "elements": list(self.index.elements),
                "pairs": sorted(map(list, self.index.leq_pairs())),
            },
            "succ": sorted(map(list, self.succ)),
            "levels": [
                [i, sorted(self.levels[i], key=canon_key)] for i in self.index.elements
            ],
            "maps": [
                [j, i, sorted(f.items(), key=canon_key)]
                for (j, i), f in sorted(self.maps.items(), key=canon_key)
                if i != j
            ],
            "base": None
            if self.base is None
            else [
                sorted(self.base[0], key=canon_key),
                [
                    [i, sorted(self.base[1][i].items(), key=canon_key)]
                    for i in self.index.elements
                ],
            ],
        }
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CoDiagram":
        data = json.loads(text)

        def fz(v):  # JSON has no tuples; stored tuples come back as lists
            return tuple(fz(x) for x in v) if isinstance(v, list) else v

        idx = FinPoset(data["index"]["elements"], [tuple(p) for p in data["index"]["pairs"]])
        levels = {i: frozenset(fz(x) for x in lv) for i, lv in data["levels"]}
        maps = {
            (j, i): {fz(x): fz(v) for x, v in f} for j, i, f in data["maps"]
        }
        base = None
        if data["base"] is not None:
            y, ps = data["base"]
            base = (
                frozenset(fz(x) for x in y),
                {i: {fz(x): fz(v) for x, v in f} for i, f in ps},
            )
        return CoDiagram(
            idx,
            [tuple(p) for p in data["succ"]],
            levels,
            maps,
            base,
            data["kind"],
            data["complete"],
        )

    @staticmethod
    def chain(levels: list, maps: list, base=None, complete: bool = False) -> "CoDiagram":
        """Depth-truncated chain: levels[k] sits at index k+1, maps[k]
        sends level k+1 down to level k."""
        n = len(levels)
        idx = FinPoset(range(1, n + 1), [(k, k + 1) for k in range(1, n)])
        succ = [(k, k + 1) for k in range(1, n)]
        full = {}
        for hi in range(2, n + 1):
            for lo in range(1, hi):
                f = {x: x for x in levels[hi - 1]}
                for step in range(hi - 1, lo - 1, -1):
                    f = {x: maps[step - 1][v] for x, v in f.items()}
                full[(hi, lo)] = f
        b = None
        if base is not None:
            y, ps = base
            b = (y, {k + 1: ps[k] for k in range(n)})
        return CoDiagram(
            idx,
            succ,
            {k + 1: levels[k] for k in range(n)},
            full,
            b,
            kind="truncated_chain",
            complete=complete,
        )


def canonical_prune(d: CoDiagram) -> CoDiagram:
    """Levelwise replacement by the meet of successor images."""
    new_levels = {}
    for i in d.index.elements:
        cur = d.levels[i]
        for j in d.succs_of(i):
            cur = cur & frozenset(d.maps[(j, i)][x] for x in d.levels[j])
        new_levels[i] = cur
    new_maps = {}
    for (j, i), f in d.maps.items():
        if i == j:
            continue
        g = {x: f[x] for x in new_levels[j]}
        for v in g.values():
            if v not in new_levels[i]:
                raise StructureError("restricted map escapes the pruned level")
        new_maps[(j, i)] = g
    base = None
    if d.base is not None:
        y, ps = d.base
        base = (y, {i: {x: ps[i][x] for x in new_levels[i]} for i in d.index.elements})
    return CoDiagram(
        d.index, d.succ, new_levels, new_maps, base, d.kind, d.complete
    )


def prune_sequence(
    d: CoDiagram, max_stages: Optional[int] = None
) -> tuple[list[CoDiagram], object]:
    """Iterate canonical pruning to its fixpoint.

    Returns all stages (the original first) and the stabilization
    index, or the string "unstabilized" when the stage cap is hit
    first; the default cap always suffices (total size decreases).
    """
    if max_stages is None:
        max_stages = d.total_size() + 1
    stages = [d]
    for _ in range(max_stages):
        nxt = canonical_prune(stages[-1])
        if nxt.levels == stages[-1].levels:
            return stages, len(stages) - 1
        stages.append(nxt)
    nxt = canonical_prune(stages[-1])
    if nxt.levels == stages[-1].levels:
        return stages, len(stages) - 1
    return stages, "unstabilized"


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
        levels.append(
            [c + (y,) for c in prev for y in r.predecessors(c[-1])]
        )
    maps = [{c: c[:-1] for c in levels[k + 1]} for k in range(depth)]
    complete = depth >= len(r.carrier) + 1 or not levels[depth]
    if with_base:
        base = (
            frozenset(r.carrier),
            [{c: c[0] for c in levels[k]} for k in range(1, depth + 1)],
        )
        return CoDiagram.chain(levels[1:], maps[1:], base, complete)
    return CoDiagram.chain(levels, maps, None, complete)


def cycle_core(r: Relation) -> frozenset:
    """Points from which a predecessor path reaches an ``r``-cycle."""
    on_cycle = set()
    for x in r.carrier:
        seen = {x}
        frontier = set(r.predecessors(x))
        while frontier:
            if x in frontier:
                on_cycle.add(x)
                break
            nxt = set()
            for y in frontier:
                if y not in seen:
                    seen.add(y)
                    nxt |= r.predecessors(y)
            frontier = nxt
    core = set(on_cycle)
    changed = True
    while changed:
        changed = False
        for x in r.carrier:
            if x not in core and r.predecessors(x) & core:
                core.add(x)
                changed = True
    return frozenset(core)


def rank(r: Relation) -> tuple[object, frozenset]:
    """Pruning-based rank of a relation.

    Runs the pruning sequence on the descending-chain diagram; the
    stage at which the first level empties is the rank, and a nonempty
    fixpoint means ill-foundedness, returning the stabilized first
    level (the cycle-fed core).
    """
    if not r.carrier:
        return 0, frozenset()
    depth = len(r.carrier) + 1
    d = desc_diagram(r, depth)
    stages, _ = prune_sequence(d)
    for alpha, stage in enumerate(stages):
        if not stage.levels[2]:  # index 2 holds the length-1 chains
            return alpha, frozenset()
    core = frozenset(c[0] for c in stages[-1].levels[2])
    return "ill-founded", core


def inverse_limit(d: CoDiagram) -> list[dict]:
    """All compatible threads of a finite-index diagram."""
    if d.kind != "finite":
        raise DomainError("direct limits are computed for finite indices only")
    import itertools

    order = list(d.index.elements)
    threads = []
    for combo in itertools.product(*[sorted(d.levels[i], key=canon_key) for i in order]):
        t = dict(zip(order, combo))
        if all(
            d.maps[(j, i)][t[j]] == t[i]
            for j in order
            for i in order
            if d.index.lt(i, j)
        ):
            threads.append(t)
    return threads


def limit_image(d: CoDiagram) -> frozenset:
    """Image in the base of the inverse limit, via pruning.

    For finite indices the direct limit is computed as a cross-check;
    truncated chains must carry the completeness flag.
    """
    if d.base is None:
        raise DomainError("limit_image needs a diagram with a base")
    if d.kind == "truncated_chain" and not d.complete:
        raise UnstabilizedError(
            "truncation too shallow for a stable limit; rebuild with greater depth"
        )
    stages, _ = prune_sequence(d)
    stab = stages[-1]
    y, ps = stab.base
    i0 = stab.index.minimal()[0]
    out = frozenset(ps[i0][x] for x in stab.levels[i0])
    for i in stab.index.elements:
        if frozenset(ps[i][x] for x in stab.levels[i]) != out:
            raise StructureError("stabilized projections disagree across levels")
    if d.kind == "finite":
        direct = frozenset(d.base[1][i0][t[i0]] for t in inverse_limit(d))
        if direct != out:
            raise StructureError("pruned image disagrees with the direct limit")
    return out
