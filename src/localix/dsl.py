"""Script language: declarations of finite structures plus queries.

One grammar covers every object kind: presentations (``gens``/``rel``),
posets, lattices, coverages, topologies, relations, chain diagrams,
and the queries dispatching to the engine modules.  Parsing is
recursive descent over a hand-rolled token stream; every statement
renders back to canonical text that re-parses to an equal script.

Formula syntax: ``!`` binds tightest, then ``&``, then ``|``; ``0`` and
``1`` are the empty join and meet; sequents are ``{A, ...} |- {B, ...}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import presented as pr
from . import sequent as sq
from .baire import FrameTopology, baire_decompose, comgr, regular_opens
from .budgets import Budgets, DEFAULT_BUDGETS, check_budget
from .dissolution import dissolve
from .errors import (
    DomainError,
    LocalixError,
    NotSeparableError,
    ParseError,
    PreconditionError,
    ResourceBudgetError,
)
from .interp import _interpolate
from .lattice import FinLattice, borel_image, lower_sets, powerset_lattice
from .order import FinPoset, canon_key
from .posite import Coverage, cov_ideals, saturate_coverage
from .presented import Presentation, preimage_hom, realize, spec
from .pruning import CoDiagram, Relation, _limit_image, _prune_chains, prune_sequence, rank

__all__ = ["Script", "Report", "parse", "run", "render"]

SCHEMA_VERSION = 1

_SYMBOLS = ("<=", "<|", "|-", "->", "{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "!", "&", "|")


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "num", "sym", "eof"
    value: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    out = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        for s in _SYMBOLS:
            if source.startswith(s, i):
                out.append(_Token("sym", s, line, col))
                i, col = i + len(s), col + len(s)
                break
        else:
            if c.isdigit():
                j = i
                while j < n and source[j].isdigit():
                    j += 1
                out.append(_Token("num", source[i:j], line, col))
                col, i = col + (j - i), j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                out.append(_Token("name", source[i:j], line, col))
                col, i = col + (j - i), j
            else:
                raise ParseError(line, col, c, ("a token",))
    out.append(_Token("eof", "", line, col))
    return out


# -- statements ----------------------------------------------------------------


def _render_term(t: tuple, prec: int = 0) -> str:
    op = t[0]
    if op == "var":
        return t[1]
    if op == "top":
        return "1"
    if op == "bot":
        return "0"
    if op == "not":
        return "!" + _render_term(t[1], 3)
    here = 2 if op == "meet" else 1
    sym = " & " if op == "meet" else " | "
    body = sym.join(_render_term(s, here) for s in t[1:])
    # a child with its parent's operator is bracketed: it would re-parse flat
    return f"({body})" if prec >= here else body


def _render_set(s: frozenset) -> str:
    return "{" + ", ".join(str(x) for x in sorted(s, key=canon_key)) + "}"


def _render_sequent(seq: tuple) -> str:
    left, right = seq
    def side(ts):
        return "{" + ", ".join(_render_term(t) for t in ts) + "}"
    return f"{side(left)} |- {side(right)}"


@dataclass(frozen=True)
class GensDecl:
    names: tuple
    boolean: bool = False

    def render(self) -> str:
        kw = "boolgens" if self.boolean else "gens"
        return f"{kw} {' '.join(self.names)};"


@dataclass(frozen=True)
class RelDecl:
    lhs: tuple
    op: str  # "<=" or "="
    rhs: tuple

    def render(self) -> str:
        return f"rel {_render_term(self.lhs)} {self.op} {_render_term(self.rhs)};"


@dataclass(frozen=True)
class PosetDecl:
    name: str
    elems: tuple
    pairs: tuple

    def render(self) -> str:
        body = ", ".join(map(str, self.elems))
        if self.pairs:
            body += " : " + ", ".join(f"{a} <= {b}" for a, b in self.pairs)
        return f"poset {self.name} {{ {body} }};"


@dataclass(frozen=True)
class LatticeDecl:
    name: str
    expr: tuple  # ("chain", n) | ("bool", n) | ("downsets", name) | ("opens", name)

    def render(self) -> str:
        return f"lattice {self.name} = {self.expr[0]} {self.expr[1]};"


@dataclass(frozen=True)
class RelationDecl:
    name: str
    elems: tuple
    edges: tuple

    def render(self) -> str:
        body = ", ".join(str(e) for e in self.elems)
        if self.edges:
            body += " : " + ", ".join(f"{a} -> {b}" for a, b in self.edges)
        return f"relation {self.name} {{ {body} }};"


@dataclass(frozen=True)
class TopologyDecl:
    name: str
    points: tuple
    opens: tuple  # of frozensets

    def render(self) -> str:
        body = ", ".join(str(p) for p in self.points)
        body += " : " + ", ".join(_render_set(o) for o in self.opens)
        return f"topology {self.name} {{ {body} }};"


@dataclass(frozen=True)
class CoverageDecl:
    name: str
    base: str
    pairs: tuple  # of (frozenset, tuple-of-frozensets)

    def render(self) -> str:
        parts = [
            f"{_render_set(a)} <| [" + ", ".join(_render_set(c) for c in cs) + "]"
            for a, cs in self.pairs
        ]
        return f"coverage {self.name} on {self.base} {{ {', '.join(parts)} }};"


@dataclass(frozen=True)
class DiagramDecl:
    name: str
    levels: tuple  # of tuples of labels
    edges: tuple  # of (src, dst) with src one level above dst

    def render(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in lv) + "]" for lv in self.levels)
        if self.edges:
            body += " : " + ", ".join(f"{a} -> {b}" for a, b in self.edges)
        return f"diagram {self.name} {{ {body} }};"


@dataclass(frozen=True)
class ProveQuery:
    sequent: tuple  # (left terms, right terms), presented-style tuples

    def render(self) -> str:
        return f"prove {_render_sequent(self.sequent)};"


@dataclass(frozen=True)
class InterpQuery:
    left: tuple
    right: tuple
    sequent: tuple

    def render(self) -> str:
        l = "{" + ", ".join(self.left) + "}"
        r = "{" + ", ".join(self.right) + "}"
        return f"interp {l} {r} {_render_sequent(self.sequent)};"


@dataclass(frozen=True)
class DissolveQuery:
    name: str

    def render(self) -> str:
        return f"dissolve {self.name};"


@dataclass(frozen=True)
class BaireQuery:
    name: str
    element: Optional[frozenset]

    def render(self) -> str:
        if self.element is None:
            return f"baire {self.name};"
        return f"baire {self.name} {_render_set(self.element)};"


@dataclass(frozen=True)
class PruneQuery:
    name: str

    def render(self) -> str:
        return f"prune {self.name};"


@dataclass(frozen=True)
class SpecQuery:
    def render(self) -> str:
        return "spec;"


@dataclass(frozen=True)
class RealizeQuery:
    def render(self) -> str:
        return "realize;"


@dataclass(frozen=True)
class IdealsQuery:
    name: str

    def render(self) -> str:
        return f"ideals {self.name};"


@dataclass(frozen=True)
class ImageQuery:
    fun: tuple  # of (dom point, cod point)
    cod: tuple
    subset: frozenset

    def render(self) -> str:
        f = "{" + ", ".join(f"{a} -> {b}" for a, b in self.fun) + "}"
        c = "{" + ", ".join(str(x) for x in self.cod) + "}"
        return f"image {f} in {c} of {_render_set(self.subset)};"


@dataclass(frozen=True)
class Script:
    statements: tuple

    def render(self) -> str:
        return "\n".join(s.render() for s in self.statements) + ("\n" if self.statements else "")


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, expected: tuple) -> None:
        t = self.peek()
        found = t.value if t.kind != "eof" else "end of input"
        raise ParseError(t.line, t.col, found, expected)

    def expect(self, value: str) -> _Token:
        t = self.peek()
        if t.kind == "sym" and t.value == value:
            return self.next()
        self.fail((f"'{value}'",))

    def accept(self, value: str) -> bool:
        t = self.peek()
        if t.kind == "sym" and t.value == value:
            self.next()
            return True
        return False

    def name(self) -> str:
        t = self.peek()
        if t.kind != "name":
            self.fail(("a name",))
        return self.next().value

    def label(self):
        """A name or a number (numbers become ints)."""
        t = self.peek()
        if t.kind == "name":
            return self.next().value
        if t.kind == "num":
            return int(self.next().value)
        self.fail(("a name", "a number"))

    def num(self) -> int:
        t = self.peek()
        if t.kind != "num":
            self.fail(("a number",))
        return int(self.next().value)

    # formulas ------------------------------------------------------------

    def term(self) -> tuple:
        parts = [self.term_and()]
        while self.accept("|"):
            parts.append(self.term_and())
        return parts[0] if len(parts) == 1 else ("join", *parts)

    def term_and(self) -> tuple:
        parts = [self.term_unary()]
        while self.accept("&"):
            parts.append(self.term_unary())
        return parts[0] if len(parts) == 1 else ("meet", *parts)

    def term_unary(self) -> tuple:
        t = self.peek()
        if t.kind == "sym" and t.value == "!":
            self.next()
            return ("not", self.term_unary())
        if t.kind == "sym" and t.value == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.kind == "num" and t.value in ("0", "1"):
            self.next()
            return ("bot",) if t.value == "0" else ("top",)
        if t.kind == "name":
            return ("var", self.next().value)
        self.fail(("a formula",))

    def term_list(self) -> tuple:
        """Brace-delimited, comma-separated, possibly empty list of formulas."""
        self.expect("{")
        out = []
        if not self.accept("}"):
            out.append(self.term())
            while self.accept(","):
                out.append(self.term())
            self.expect("}")
        return tuple(out)

    def sequent(self) -> tuple:
        left = self.term_list()
        self.expect("|-")
        right = self.term_list()
        return (left, right)

    # shared small pieces ---------------------------------------------------

    def label_set(self) -> frozenset:
        self.expect("{")
        out = []
        if not self.accept("}"):
            out.append(self.label())
            while self.accept(","):
                out.append(self.label())
            self.expect("}")
        return frozenset(out)

    def name_list_braced(self) -> tuple:
        self.expect("{")
        out = []
        if not self.accept("}"):
            out.append(self.name())
            while self.accept(","):
                out.append(self.name())
            self.expect("}")
        return tuple(out)

    # statements ------------------------------------------------------------

    def script(self) -> Script:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Script(tuple(stmts))

    def statement(self):
        t = self.peek()
        if t.kind != "name":
            self.fail(("a statement keyword",))
        kw = t.value
        handler = getattr(self, f"stmt_{kw}", None)
        if handler is None:
            self.fail(
                (
                    "gens", "boolgens", "rel", "poset", "lattice", "relation",
                    "topology", "coverage", "diagram", "prove", "interp",
                    "dissolve", "baire", "prune", "spec", "realize", "ideals",
                    "image",
                )
            )
        self.next()
        stmt = handler()
        self.expect(";")
        return stmt

    def stmt_gens(self, boolean: bool = False):
        names = [self.name()]
        while self.peek().kind == "name":
            names.append(self.name())
        return GensDecl(tuple(names), boolean)

    def stmt_boolgens(self):
        return self.stmt_gens(boolean=True)

    def stmt_rel(self):
        lhs = self.term()
        t = self.peek()
        if t.kind == "sym" and t.value in ("<=", "="):
            op = self.next().value
        else:
            self.fail(("'<='", "'='"))
        rhs = self.term()
        return RelDecl(lhs, op, rhs)

    def stmt_poset(self):
        name = self.name()
        self.expect("{")
        elems = [self.label()]
        while self.accept(","):
            elems.append(self.label())
        pairs = []
        if self.accept(":"):
            while True:
                a = self.label()
                self.expect("<=")
                b = self.label()
                pairs.append((a, b))
                if not self.accept(","):
                    break
        self.expect("}")
        return PosetDecl(name, tuple(elems), tuple(pairs))

    def stmt_lattice(self):
        name = self.name()
        self.expect("=")
        kind = self.name()
        if kind in ("chain", "bool"):
            return LatticeDecl(name, (kind, self.num()))
        if kind in ("downsets", "opens"):
            return LatticeDecl(name, (kind, self.name()))
        self.fail(("chain", "bool", "downsets", "opens"))

    def stmt_relation(self):
        name = self.name()
        self.expect("{")
        elems = []
        if not (self.peek().kind == "sym" and self.peek().value in (":", "}")):
            elems.append(self.label())
            while self.accept(","):
                elems.append(self.label())
        edges = []
        if self.accept(":"):
            while True:
                a = self.label()
                self.expect("->")
                b = self.label()
                edges.append((a, b))
                if not self.accept(","):
                    break
        self.expect("}")
        return RelationDecl(name, tuple(elems), tuple(edges))

    def stmt_topology(self):
        name = self.name()
        self.expect("{")
        points = [self.label()]
        while self.accept(","):
            points.append(self.label())
        self.expect(":")
        opens = [self.label_set()]
        while self.accept(","):
            opens.append(self.label_set())
        self.expect("}")
        return TopologyDecl(name, tuple(points), tuple(opens))

    def stmt_coverage(self):
        name = self.name()
        kw = self.name()
        if kw != "on":
            self.fail(("'on'",))
        base = self.name()
        self.expect("{")
        pairs = []
        if not self.accept("}"):
            while True:
                a = self.label_set()
                self.expect("<|")
                self.expect("[")
                covers = []
                if not self.accept("]"):
                    covers.append(self.label_set())
                    while self.accept(","):
                        covers.append(self.label_set())
                    self.expect("]")
                pairs.append((a, tuple(covers)))
                if not self.accept(","):
                    break
            self.expect("}")
        return CoverageDecl(name, base, tuple(pairs))

    def stmt_diagram(self):
        name = self.name()
        self.expect("{")
        levels = []
        while True:
            self.expect("[")
            lv = []
            if not self.accept("]"):
                lv.append(self.label())
                while self.accept(","):
                    lv.append(self.label())
                self.expect("]")
            levels.append(tuple(lv))
            if not self.accept(","):
                break
        edges = []
        if self.accept(":"):
            while True:
                a = self.label()
                self.expect("->")
                b = self.label()
                edges.append((a, b))
                if not self.accept(","):
                    break
        self.expect("}")
        return DiagramDecl(name, tuple(levels), tuple(edges))

    def stmt_prove(self):
        return ProveQuery(self.sequent())

    def stmt_interp(self):
        left = self.name_list_braced()
        right = self.name_list_braced()
        return InterpQuery(left, right, self.sequent())

    def stmt_dissolve(self):
        return DissolveQuery(self.name())

    def stmt_baire(self):
        name = self.name()
        elem = None
        if self.peek().kind == "sym" and self.peek().value == "{":
            elem = self.label_set()
        return BaireQuery(name, elem)

    def stmt_prune(self):
        return PruneQuery(self.name())

    def stmt_spec(self):
        return SpecQuery()

    def stmt_realize(self):
        return RealizeQuery()

    def stmt_ideals(self):
        return IdealsQuery(self.name())

    def stmt_image(self):
        self.expect("{")
        fun = []
        if not self.accept("}"):
            while True:
                a = self.label()
                self.expect("->")
                b = self.label()
                fun.append((a, b))
                if not self.accept(","):
                    break
            self.expect("}")
        kw = self.name()
        if kw != "in":
            self.fail(("'in'",))
        self.expect("{")
        cod = [self.label()]
        while self.accept(","):
            cod.append(self.label())
        self.expect("}")
        kw = self.name()
        if kw != "of":
            self.fail(("'of'",))
        subset = self.label_set()
        return ImageQuery(tuple(fun), tuple(cod), subset)


def parse(source: str) -> Script:
    return _Parser(source).script()


# -- execution -------------------------------------------------------------


@dataclass
class Report:
    records: list = field(default_factory=list)
    exit_code: int = 0

    def add(self, kind: str, ok: bool = True, **fields) -> dict:
        rec = {"schema": SCHEMA_VERSION, "kind": kind, "ok": ok, "timing_ms": None}
        rec.update(fields)
        self.records.append(rec)
        return rec


def _to_sequent(seq: tuple) -> sq.Sequent:
    return sq.Sequent(*(frozenset(map(pr._to_sequent_term, side)) for side in seq))


def _obligations(seq: sq.Sequent, i: sq.Term, lpart: frozenset, rpart: frozenset) -> list:
    """|- lpart, I and |- rpart, not I in two-sided form: an antecedent
    goes left of the turnstile in the part that holds its negation."""
    def two_sided(part: frozenset) -> tuple:
        return frozenset(t for t in seq.left if sq.neg(t) in part), seq.right & part

    (ll, lr), (rl, rr) = two_sided(lpart), two_sided(rpart)
    return [sq.Sequent(ll, lr | {i}), sq.Sequent(rl | {i}, rr)]


def _elem_str(x: frozenset) -> str:
    return "{" + ",".join(str(p) for p in sorted(x, key=canon_key)) + "}"


class _Runner:
    def __init__(self, budgets: Budgets, report: Report):
        self.budgets = budgets
        self.report = report
        self.named: dict = {}
        self.gens: Optional[GensDecl] = None
        self.rels: list = []

    def lookup(self, name: str, want: str):
        if name not in self.named:
            raise DomainError(f"name {name!r} is not declared")
        kind, val = self.named[name]
        if kind != want:
            raise DomainError(f"{name!r} is a {kind}, not a {want}")
        return val

    def bind(self, name: str, kind: str, val) -> None:
        if name in self.named:
            raise DomainError(f"name {name!r} is already declared")
        self.named[name] = (kind, val)

    def presentation(self) -> Presentation:
        if self.gens is None:
            raise DomainError("no generators declared (use 'gens' or 'boolgens')")
        kind = "boolean" if self.gens.boolean else "distributive"
        return Presentation(self.gens.names, tuple(self.rels), kind)

    # one method per statement class name -----------------------------------

    def run_GensDecl(self, s: GensDecl):
        if self.gens is not None:
            raise DomainError("generators already declared")
        self.gens = s

    def run_RelDecl(self, s: RelDecl):
        if not self.rels:  # validate eagerly: the generators once, then each relation
            self.presentation()
        for t in (s.lhs, s.rhs):
            pr._check_term(t, frozenset(self.gens.names), self.gens.boolean)
        self.rels.append((s.lhs, s.rhs))
        if s.op == "=":
            self.rels.append((s.rhs, s.lhs))

    def run_PosetDecl(self, s: PosetDecl):
        self.bind(s.name, "poset", FinPoset(s.elems, s.pairs))

    def run_LatticeDecl(self, s: LatticeDecl):
        op, arg = s.expr
        if op == "chain":
            if arg < 1:
                raise DomainError("chain length must be at least 1")
            check_budget(self.budgets, "elements", arg)
            lat = lower_sets(FinPoset(range(arg - 1), [(i, i + 1) for i in range(arg - 2)]))
        elif op == "bool":
            # 2**arg elements; past the limit's bit length the power exceeds
            # the limit anyway, so a huge arg is never raised to it
            limit = self.budgets.elements
            check_budget(self.budgets, "elements", 1 << min(arg, limit.bit_length()), f"2^{arg}")
            lat = powerset_lattice(range(arg))
        elif op == "downsets":
            lat = lower_sets(self.lookup(arg, "poset"), self.budgets)
        else:  # opens
            top = self.lookup(arg, "topology")
            lat = top.opens_lattice()[0]
        self.bind(s.name, "lattice", lat)

    def run_RelationDecl(self, s: RelationDecl):
        self.bind(s.name, "relation", Relation.make(s.elems, s.edges))

    def run_TopologyDecl(self, s: TopologyDecl):
        self.bind(s.name, "topology", FrameTopology(s.points, s.opens))

    def run_CoverageDecl(self, s: CoverageDecl):
        base = self.lookup(s.base, "lattice")
        gens = [(a, list(cs)) for a, cs in s.pairs]
        self.bind(s.name, "coverage", saturate_coverage(base, gens, self.budgets))

    def run_DiagramDecl(self, s: DiagramDecl):
        check_budget(self.budgets, "diagram", sum(map(len, s.levels)))
        seen: dict = {}
        for k, lv in enumerate(s.levels):
            for x in lv:
                if x in seen:
                    raise DomainError(f"diagram label {x!r} appears in two levels")
                seen[x] = k
        maps = [dict() for _ in range(len(s.levels) - 1)]
        for a, b in s.edges:
            if a not in seen or b not in seen:
                raise DomainError(f"diagram edge ({a!r}, {b!r}) uses undeclared labels")
            if seen[a] != seen[b] + 1:
                raise DomainError(
                    f"edge {a!r} -> {b!r} must go one level down"
                )
            maps[seen[b]][a] = b
        for k in range(len(s.levels) - 1):
            for x in s.levels[k + 1]:
                if x not in maps[k]:
                    raise DomainError(f"diagram label {x!r} has no outgoing edge")
        base = None
        if len(s.levels) > 1:
            y = frozenset(s.levels[0])
            ps = []
            for k in range(len(s.levels)):
                f = {x: x for x in s.levels[k]}
                for step in range(k, 0, -1):
                    f = {x: maps[step - 1][v] for x, v in f.items()}
                ps.append(f)
            base = (y, ps)
        self.bind(
            s.name,
            "diagram",
            CoDiagram.chain([list(lv) for lv in s.levels], maps, base, complete=True),
        )

    def run_ProveQuery(self, s: ProveQuery):
        seq = _to_sequent(s.sequent)
        res = sq.prove(seq, budgets=self.budgets)
        left_origin = frozenset(sq.neg(t) for t in seq.left)
        self.report.add(
            "prove",
            ok=res.derivable,
            sequent=str(seq),
            derivable=res.derivable,
            derivation=res.derivation.pretty(left_origin) if res.derivable else None,
            countermodel=(
                {str(k): v for k, v in sorted(res.countermodel.items(), key=lambda kv: canon_key(kv[0]))}
                if res.countermodel is not None
                else None
            ),
        )

    def run_InterpQuery(self, s: InterpQuery):
        seq = _to_sequent(s.sequent)
        try:
            i, _, lpart, rpart = _interpolate(seq, s.left, s.right, self.budgets)
        except PreconditionError as e:
            self.report.add(
                "interp", ok=False, sequent=str(seq), error="precondition",
                clause=e.clause, detail=str(e),
            )
            return
        shared = sorted(frozenset(s.left) & frozenset(s.right), key=canon_key)
        self.report.add(
            "interp",
            sequent=str(seq),
            interpolant=sq.term_to_str(i),
            shared_generators=[str(g) for g in shared],
            obligations=[str(o) for o in _obligations(seq, i, lpart, rpart)],
        )

    def run_DissolveQuery(self, s: DissolveQuery):
        lat = self.lookup(s.name, "lattice")
        d = dissolve(lat, self.budgets)
        self.report.add(
            "dissolve",
            base=s.name,
            base_size=len(lat),
            base_irreducibles=len(lat._irreducibles()),
            result_size=len(d.result),
            result_kind=d.result.kind,
            unit={_elem_str(x): _elem_str(d.unit(x)) for x in sorted(lat.elements, key=canon_key)},
            dot=d.result.to_dot("dissolved"),
        )

    def run_BaireQuery(self, s: BaireQuery):
        t = self.lookup(s.name, "topology")
        core, reg = comgr(t)
        rec = dict(
            topology=s.name,
            points=[str(p) for p in t.reps],
            opens=[_elem_str(o) for o in t.opens],
            comgr=_elem_str(core),
            regular_opens=[_elem_str(u) for u in regular_opens(t)],
            regular_kind=reg.kind,
        )
        if s.element is not None:
            u, m = baire_decompose(t, s.element)
            rec.update(element=_elem_str(s.element), open_part=_elem_str(u), meager_part=_elem_str(m))
        self.report.add("baire", **rec)

    def run_PruneQuery(self, s: PruneQuery):
        kind, val = self.named.get(s.name, (None, None))
        if kind == "relation":
            verdict, core = rank(val)
            sizes, images, pruned = _prune_chains(val, self.budgets)
            core = [str(x) for x in sorted(core, key=canon_key)]
            self.report.add(
                "prune",
                source=s.name,
                verdict=verdict,
                core=core,
                stage_sizes=sizes,
                base_images=[sorted(map(str, im), key=canon_key) for im in images],
                limit_image=core,
                dot=pruned.to_dot("pruned") if pruned is not None else None,
            )
        elif kind == "diagram":
            check_budget(self.budgets, "diagram", val.total_size())
            stages, stab = prune_sequence(val)
            img = _limit_image(val, stages[-1]) if val.base is not None else None
            self.report.add(
                "prune",
                source=s.name,
                verdict="stabilized",
                stabilized_at=stab,
                stage_sizes=[
                    [len(st.levels[i]) for i in st.index.elements] for st in stages
                ],
                limit_image=(
                    [str(x) for x in sorted(img, key=canon_key)] if img is not None else None
                ),
                dot=stages[-1].to_dot("pruned"),
            )
        else:
            raise DomainError(f"{s.name!r} is not a relation or diagram")

    def run_SpecQuery(self, s: SpecQuery):
        model = spec(self.presentation(), self.budgets)
        self.report.add(
            "spec",
            gens=list(model.presentation.gens),
            points=["".join("1" if b else "0" for b in pt) for pt in model.points],
        )

    def run_RealizeQuery(self, s: RealizeQuery):
        p = self.presentation()
        lat, gen_img = realize(p, self.budgets)
        self.report.add(
            "realize",
            size=len(lat),
            lattice_kind=lat.kind,
            gens={g: _elem_str(gen_img[g]) for g in p.gens},
            dot=lat.to_dot("realized"),
        )

    def run_IdealsQuery(self, s: IdealsQuery):
        cov = self.lookup(s.name, "coverage")
        lat, of_ideal = cov_ideals(cov)
        self.report.add(
            "ideals",
            coverage=s.name,
            count=len(lat),
            lattice_kind=lat.kind,
            dot=lat.to_dot("ideals"),
        )

    def run_ImageQuery(self, s: ImageQuery):
        fun = dict(s.fun)
        h = preimage_hom(fun, list(fun), s.cod)
        img = borel_image(h, s.subset)
        self.report.add(
            "image",
            subset=_elem_str(s.subset),
            image=_elem_str(img),
        )


def run(
    script: Script, budgets: Budgets = DEFAULT_BUDGETS, named: Optional[dict] = None
) -> Report:
    """Execute statements in order, collecting one record per query.

    Budget violations become error records with exit code 2; other
    deliberate errors become input-error records (also exit 2); a
    refutation or failed precondition leaves a not-ok record behind
    (exit 1 under --strict, decided by the caller).
    """
    report = Report()
    runner = _Runner(budgets, report)
    if named:
        runner.named.update(named)
    for stmt in script.statements:
        handler = getattr(runner, f"run_{type(stmt).__name__}")
        try:
            handler(stmt)
        except ResourceBudgetError as e:
            report.add("error", ok=False, error="budget", detail=str(e))
            report.exit_code = 2
            break
        except NotSeparableError as e:
            report.add("error", ok=False, error="not-separable", detail=str(e))
        except LocalixError as e:
            report.add("error", ok=False, error="input", detail=str(e))
            report.exit_code = 2
            break
    return report


# -- rendering ---------------------------------------------------------------


def _render_text(report: Report) -> str:
    lines = []
    for rec in report.records:
        kind = rec["kind"]
        lines.append(f"== {kind} {'ok' if rec['ok'] else 'FAIL'}")
        for key in sorted(rec):
            if key in ("schema", "kind", "ok", "timing_ms", "dot", "derivation"):
                continue
            val = rec[key]
            if isinstance(val, list):
                val = ", ".join(str(v) for v in val) if all(
                    not isinstance(v, list) for v in val
                ) else "; ".join(str(v) for v in val)
            elif isinstance(val, dict):
                val = ", ".join(f"{k} -> {v}" for k, v in sorted(val.items()))
            lines.append(f"  {key}: {val}")
        if rec.get("derivation"):
            lines.append("  derivation:")
            lines.extend("    " + ln for ln in rec["derivation"].splitlines())
    return "\n".join(lines) + ("\n" if lines else "")


def _render_json(report: Report) -> str:
    return json.dumps(
        {"schema": SCHEMA_VERSION, "records": report.records},
        sort_keys=True,
        indent=2,
    ) + "\n"


def _render_dot(report: Report) -> str:
    graphs = [rec["dot"] for rec in report.records if rec.get("dot")]
    if not graphs:
        raise DomainError("no graph-shaped result to render as dot")
    return "".join(graphs)


def render(report: Report, fmt: str = "text") -> str:
    if fmt == "text":
        return _render_text(report)
    if fmt == "json":
        return _render_json(report)
    if fmt == "dot":
        return _render_dot(report)
    raise DomainError(f"unknown format {fmt!r}")
