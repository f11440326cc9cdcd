"""Codirected diagrams, canonical pruning, ranks, and limit images.

A CoDiagram assigns finite levels to a directed index poset with
backward maps from higher to lower indices.  Canonical pruning
replaces each level by the intersection of the images from its
immediate successors; it is iterated only for declared diagrams.  A
relation's rank and pruning are read off its descent lengths instead.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Iterable, Optional

from ._record import Record
from .budgets import Budgets, check_budget
from .errors import DomainError, StructureError, UnstabilizedError
from .order import FinPoset, _bits, _decode, _encode, _escaped, _sorted, canon_key
from .order import _poset_data, _poset_from_data

__all__ = [
    "Relation",
    "CoDiagram",
    "canonical_prune",
    "prune_sequence",
    "rank",
    "cycle_core",
    "limit_image",
]


class Relation(Record):
    __slots__ = ("carrier", "pairs")

    def __init__(self, carrier: tuple, pairs: frozenset):
        super().__init__(carrier, pairs)
        cs = set(carrier)
        for a, b in pairs:
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
            {"carrier": _encode(self.carrier), "pairs": _encode(_sorted(self.pairs))},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Relation":
        data = json.loads(text)
        return Relation(_decode(data["carrier"]), frozenset(_decode(data["pairs"])))


class CoDiagram:
    """Finite levels over a directed index with backward maps.

    ``succ`` lists the generating steps i -> j (i below j), and ``maps``
    holds one map per step, level j down to level i under the key (j, i);
    ``composite`` composes them along the steps, and every path of steps
    between two indices composes to the same map.  For the ``finite``
    kind the confluence condition "j >= i, i succ k implies some l with
    j succ l >= k" is enforced, for depth-truncated chains it necessarily
    fails at the top and is waived.  ``base`` is an optional commuting
    family of projections to a common set.
    """

    __slots__ = ("index", "succ", "levels", "maps", "base", "kind", "complete", "_succs", "_preds")

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
        """``maps`` holds a map for each ``succ`` step and may hold
        composites too (``to_json`` writes them); a composite is checked
        against the composed steps and not stored."""
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
        succs = {i: [] for i in index.elements}
        preds = {i: [] for i in index.elements}
        for i, j in succ:
            succs[i].append(j)
            preds[j].append(i)
        if kind == "finite":
            _check_confluence(index, succ, succs)
        levels = {i: frozenset(levels[i]) for i in index.elements}
        for (j, i), f in maps.items():
            if not index.lt(i, j):
                raise DomainError(f"map ({j!r} -> {i!r}) must go strictly down")
            if set(f) != set(levels[j]):
                raise StructureError(f"map {j!r}->{i!r} domain mismatch")
            for v in f.values():
                if v not in levels[i]:
                    raise StructureError(f"map {j!r}->{i!r} image escapes the level")
        steps = {}
        for i, j in succ:
            if (j, i) not in maps:
                raise StructureError(f"missing map {j!r} -> {i!r}")
            steps[j, i] = dict(maps[j, i])
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "maps", steps)
        object.__setattr__(self, "_succs", succs)
        object.__setattr__(self, "_preds", preds)
        supplied = {k: [] for k in index.elements}
        for (j, i), f in maps.items():
            supplied[j].append((i, f))
        for k in [k for k in index.elements if levels[k]]:  # an empty top composes nothing
            down = self._down(k)
            for i, f in supplied[k]:
                if f != down[i]:
                    raise StructureError(f"map {k!r}->{i!r} is not the composite of the succ maps")
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
            for (j, i), f in steps.items():
                for x in levels[j]:
                    if ps[i][f[x]] != ps[j][x]:
                        raise StructureError("projections do not commute with the maps")
            base = (y, ps)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "complete", complete)

    def _down(self, k) -> dict:
        """The map from level ``k`` down to each index below it, composed
        along the succ steps; a second path to an index must give the same
        map, which certifies functoriality for every point of level ``k``."""
        out = {k: {x: x for x in self.levels[k]}}
        todo = [k]
        for j in todo:  # every step below k is tried once, against the first path's map
            for i in self._preds[j]:
                f = self.maps[j, i]
                g = {x: f[v] for x, v in out[j].items()}
                if i not in out:
                    out[i] = g
                    todo.append(i)
                elif out[i] != g:
                    raise StructureError(f"maps {k!r}->{j!r}->{i!r} are not functorial")
        return out

    def composite(self, j, i) -> dict:
        """The map from level ``j`` down to level ``i`` (i <= j)."""
        if not self.index.leq(i, j):
            raise DomainError(f"no map {j!r} -> {i!r}: {i!r} is not below {j!r}")
        return self._down(j)[i]

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
        return list(self._succs[i])

    def to_dot(self, name: str = "diagram") -> str:
        lines = [f"digraph {name} {{", "  rankdir=TB;"]
        for i in self.index.elements:
            label = "{" + ",".join(str(x) for x in sorted(self.levels[i], key=canon_key)) + "}"
            lines.append(f'  "{_escaped(str(i))}" [label="{_escaped(f"{i}: {label}")}"];')
        for i, j in self.succ:
            lines.append(f'  "{_escaped(str(j))}" -> "{_escaped(str(i))}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The diagram in the package's JSON shapes (``order._encode``): the
        index as a poset, maps and base projections as sorted pair lists.
        The maps are written for every pair of indices i < j, composed."""
        levels = [(i, _sorted(self.levels[i])) for i in self.index.elements]
        table = {(j, i): f for j in self.index.elements for i, f in self._down(j).items() if i != j}
        maps = [(j, i, _sorted(table[j, i].items())) for j, i in _sorted(table)]
        base = None if self.base is None else (
            _sorted(self.base[0]),
            [(i, _sorted(self.base[1][i].items())) for i in self.index.elements],
        )
        data = {
            "kind": self.kind,
            "complete": self.complete,
            "index": _poset_data(self.index),
            "succ": _encode(_sorted(self.succ)),
            "levels": _encode(levels),
            "maps": _encode(maps),
            "base": _encode(base),
        }
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CoDiagram":
        data = json.loads(text)
        return CoDiagram._from_data(data, _decode(data["levels"]))

    @staticmethod
    def _from_data(data: dict, levels) -> "CoDiagram":
        """The diagram of parsed ``to_json`` text, its levels decoded apart
        so that a caller can size them before the diagram is validated."""
        base = _decode(data["base"])
        return CoDiagram(
            _poset_from_data(data["index"]),
            _decode(data["succ"]),
            dict(levels),
            {(j, i): dict(f) for j, i, f in _decode(data["maps"])},
            None if base is None else (base[0], dict(base[1])),
            data["kind"],
            data["complete"],
        )

    @staticmethod
    def chain(levels: list, maps: list, base=None, complete: bool = False) -> "CoDiagram":
        """Depth-truncated chain: levels[k] sits at index k+1, maps[k]
        sends level k+1 down to level k."""
        n = len(levels)
        succ = [(k, k + 1) for k in range(1, n)]
        b = None
        if base is not None:
            y, ps = base
            b = (y, {k + 1: ps[k] for k in range(n)})
        return CoDiagram(
            FinPoset(range(1, n + 1), succ),
            succ,
            {k + 1: levels[k] for k in range(n)},
            {(k + 1, k): maps[k - 1] for k in range(1, n)},
            b,
            kind="truncated_chain",
            complete=complete,
        )


def _check_confluence(index: FinPoset, succ: frozenset, succs: dict) -> None:
    """The condition "j >= i, i succ k implies some l with j succ l >= k",
    read on the index rows: when j >= k the restriction factors through
    f_jk, so only the j in up(i) outside up(k) need a successor in up(k)."""
    pos, up = index._index, index._up
    above = {j: sum(1 << pos[l] for l in ls) for j, ls in succs.items()}
    for i, k in succ:
        for b in _bits(up[pos[i]] & ~up[pos[k]]):
            j = index.elements[b]
            if not above[j] & up[pos[k]]:
                raise StructureError(f"succ condition fails at j={j!r} >= {i!r} succ {k!r}")


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


def prune_sequence(d: CoDiagram) -> tuple[list[CoDiagram], int]:
    """Prune until the levels repeat (they only shrink): all stages, the
    original first, and the stabilization index."""
    stages = [d]
    while True:
        nxt = canonical_prune(stages[-1])
        if nxt.levels == stages[-1].levels:
            return stages, len(stages) - 1
        stages.append(nxt)


def cycle_core(r: Relation) -> frozenset:
    """Points from which a predecessor path reaches an ``r``-cycle: the
    core of ``rank``, the points whose descents never end."""
    return rank(r)[1]


def _descents(r: Relation) -> tuple[list[list[int]], list[int]]:
    """Predecessor lists and descent lengths by carrier position: ext[x] is
    the last k with x in E_k, where E_0 is the carrier and E_{k+1} the points
    with a predecessor in E_k.  ext[x] == |r| means that x reaches a cycle."""
    pos = {x: i for i, x in enumerate(r.carrier)}
    preds = [[] for _ in r.carrier]
    for a, b in r.pairs:
        preds[pos[b]].append(pos[a])
    ext, live = [0] * len(preds), set(range(len(preds)))
    for k in range(1, len(preds) + 1):
        live = {x for x in live if not live.isdisjoint(preds[x])}
        for x in live:
            ext[x] = k
    return preds, ext


def rank(r: Relation) -> tuple[object, frozenset]:
    """The stage at which pruning the descending-chain diagram empties its
    length-1 chains, max ext + 1; or "ill-founded" with the points that
    reach a cycle and so are never pruned (the cycle-fed core)."""
    return _ranked(r, _descents(r)[1])


def _ranked(r: Relation, ext: list[int]) -> tuple[object, frozenset]:
    """``rank(r)`` read off the descent lengths ``ext`` of ``r``."""
    core = frozenset(x for x, e in zip(r.carrier, ext) if e == len(ext))
    return ("ill-founded", core) if core else (max(ext, default=-1) + 1, core)


def _prune_chains(r: Relation, budgets: Budgets) -> tuple:
    """``rank(r)``, then the level sizes and base image of each stage of
    pruning the descending-chain diagram of ``r`` until it repeats, and its
    last stage, listed once ``diagram`` admits its size; all read off one
    ``_descents`` pass.  Its level k = 1, ..., |r| + 1 holds the chains
    (x_0, ..., x_{k-1}) with each entry related to the one before, its
    maps drop the last entry and its base takes the first.  Stage a keeps,
    at level k, the chains ending at an x with ext[x] >= min(a, |r| + 1 - k)."""
    preds, ext = _descents(r)
    n = len(ext)
    ranked = _ranked(r, ext)
    if not n:
        return ranked, [], [], None
    suffix, count = [], [1] * n  # suffix[k][t]: length-(k+1) chains ending at ext >= t
    for _ in range(n + 1):
        by_ext = [0] * (n + 1)
        for x, c in enumerate(count):
            by_ext[ext[x]] += c
        suffix.append(list(accumulate(reversed(by_ext)))[::-1])
        nxt = [0] * n
        for x, ps in enumerate(preds):
            for y in ps:
                nxt[y] += count[x]
        count = nxt
    sizes = [[suffix[k][min(a, n - k)] for k in range(n + 1)] for a in range(n + 2)]
    sizes = sizes[: next(a for a in range(n + 1) if sizes[a + 1] == sizes[a]) + 1]
    images = [frozenset(x for x, e in zip(r.carrier, ext) if e >= a) for a in range(len(sizes))]
    check_budget(budgets, "diagram", sum(sizes[-1]))
    levels = [[(x,) for x in range(n) if ext[x] == n]]
    for k in range(1, n + 1):
        levels.append([c + (y,) for c in levels[-1] for y in preds[c[-1]] if ext[y] >= n - k])
    levels = [[tuple(r.carrier[i] for i in c) for c in lv] for lv in levels]
    maps = [{c: c[:-1] for c in lv} for lv in levels[1:]]
    base = (frozenset(r.carrier), [{c: c[0] for c in lv} for lv in levels])
    return ranked, sizes, images, CoDiagram.chain(levels, maps, base, complete=True)


def limit_image(d: CoDiagram) -> frozenset:
    """Image in the base of the inverse limit.

    A thread is fixed by its value at the top t of the directed index,
    so the image is the base image of level t; the certificate is that
    every level of the pruned fixpoint projects onto it.  Truncated
    chains must carry the completeness flag.
    """
    return _limit_image(d)


def _limit_image(d: CoDiagram, stab: Optional[CoDiagram] = None) -> frozenset:
    """``limit_image(d)``, certified on ``stab``, the stabilized stage of ``d``, if given."""
    if d.base is None:
        raise DomainError("limit_image needs a diagram with a base")
    if d.kind == "truncated_chain" and not d.complete:
        raise UnstabilizedError(
            "truncation too shallow for a stable limit; rebuild with greater depth"
        )
    stab = prune_sequence(d)[0][-1] if stab is None else stab
    out = frozenset(d.base[1][t][x] for t in d.index.maximal() for x in d.levels[t])
    for i in stab.index.elements:
        if frozenset(stab.base[1][i][x] for x in stab.levels[i]) != out:
            raise StructureError(f"pruned level {i!r} disagrees with the image of the top level")
    return out
