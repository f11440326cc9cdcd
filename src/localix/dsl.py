"""Script language: declarations of finite structures plus queries.

One grammar covers every object kind: presentations (``gens``/``rel``),
posets, lattices, coverages, topologies, relations, chain diagrams,
and the queries dispatching to the engine modules.  Parsing is
recursive descent over a hand-rolled token stream; every statement
renders back to canonical text that re-parses to an equal script.

Each statement kind is one class: a ``Record`` (``_record``) with its
fields in ``__slots__``, plus its keywords, ``parse``, ``render`` and
``run``.  Defining the class enters its keywords in ``_TABLE``, which
maps each keyword to its class in declaration order: the parser
dispatches on it and lists its keys when a statement starts with an
unknown name.  The first keyword
names the statement: ``render`` writes it, ``run`` uses it as the kind
of the record it adds, and a declaration binds its name as that kind.

Formula syntax: ``!`` binds tightest, then ``&``, then ``|``; ``0`` and
``1`` are the empty join and meet; ``/\\{A, ...}`` and ``\\/{A, ...}``
are the meet and join of a list, as sequents print them; sequents are
``{A, ...} |- {B, ...}``.  A formula parses to a presentation's tuple
term; in a sequent ``presented._term`` reads each one into a
``sequent.Term`` as it is parsed, so ``prove`` and ``interp`` hold a
``sequent.Sequent`` and render it as records print it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import Optional

from . import presented as pr
from . import sequent as sq
from ._record import Record
from .baire import FrameTopology, _comgr, baire_decompose
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
from .lattice import lower_sets, powerset_lattice
from .order import FinPoset, canon_key
from .posite import cov_ideals, saturate_coverage
from .presented import Presentation, image_along, realize, spec
from .pruning import CoDiagram, Relation, _limit_image, _prune_chains, prune_sequence

__all__ = ["Script", "Report", "parse", "run", "render"]

SCHEMA_VERSION = 1

_MEET, _JOIN = "/\\{", "\\/{"  # list forms of meet and join, as sequents print them
_SYMBOLS = (
    _MEET, _JOIN, "<=", "<|", "|-", "->", "{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "!", "&",
    "|",
)


_Token = namedtuple("_Token", "kind value line col")  # kind: "name", "num", "sym" or "eof"


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
            if c.isdecimal():  # what int() reads; "²" is a digit but not decimal
                kind, more = "num", str.isdecimal
            elif c.isalpha() or c == "_":
                kind, more = "name", lambda ch: ch.isalnum() or ch == "_"
            else:
                raise ParseError(line, col, c, ("a token",))
            j = i + 1
            while j < n and more(source[j]):
                j += 1
            out.append(_Token(kind, source[i:j], line, col))
            col, i = col + (j - i), j
    out.append(_Token("eof", "", line, col))
    return out


# -- parser --------------------------------------------------------------------


_WANTED = {"name": "a name", "num": "a number"}


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

    def at(self, *values: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.value in values

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.next()
            return True
        return False

    def expect(self, value: str) -> None:
        if not self.accept(value):
            self.fail((f"'{value}'",))

    def read(self, *kinds: str):
        """The next token's value if its kind is one of ``kinds``; numbers become ints."""
        t = self.peek()
        if t.kind not in kinds:
            self.fail(tuple(_WANTED[k] for k in kinds))
        self.next()
        return int(t.value) if t.kind == "num" else t.value

    def name(self) -> str:
        return self.read("name")

    def word(self, w: str) -> None:
        """The name ``w``; another name is reported at the token after it."""
        if self.name() != w:
            self.fail((f"'{w}'",))

    def label(self):
        return self.read("name", "num")

    def num(self) -> int:
        return self.read("num")

    # lists -----------------------------------------------------------------

    def listed(self, item) -> tuple:
        """One or more ``item()``, comma-separated."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return tuple(out)

    def braced(self, item, open: str = "{", close: str = "}") -> tuple:
        """``open``, a possibly empty ``listed`` run of ``item()``, ``close``."""
        self.expect(open)
        if self.accept(close):
            return ()
        out = self.listed(item)
        self.expect(close)
        return out

    def pair(self, sym: str) -> tuple:
        a = self.label()
        self.expect(sym)
        return a, self.label()

    def block(self, items, sym: str) -> tuple:
        """``{ items : a sym b, ... }`` as ``(items(), pairs)``; no ``:``, no pairs."""
        self.expect("{")
        out = (items(), self.listed(lambda: self.pair(sym)) if self.accept(":") else ())
        self.expect("}")
        return out

    def label_set(self) -> frozenset:
        return frozenset(self.braced(self.label))

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
        if self.accept("!"):
            return ("not", self.term_unary())
        if self.accept("("):
            inner = self.term()
            self.expect(")")
            return inner
        if self.at(_MEET, _JOIN):
            # a one-element list stays a node: sequents print a one-child meet that way
            parts = self.braced(self.term, t.value)
            if parts:
                return ("meet" if t.value == _MEET else "join", *parts)
            return ("top",) if t.value == _MEET else ("bot",)
        if t.kind == "num" and t.value in ("0", "1"):
            self.next()
            return ("bot",) if t.value == "0" else ("top",)
        if t.kind == "name":
            return ("var", self.next().value)
        self.fail(("a formula",))

    def sequent(self) -> sq.Sequent:
        left = frozenset(map(pr._term, self.braced(self.term)))
        self.expect("|-")
        return sq.Sequent(left, frozenset(map(pr._term, self.braced(self.term))))

    # statements ------------------------------------------------------------

    def statement(self):
        t = self.peek()
        if t.kind != "name":
            self.fail(("a statement keyword",))
        cls = _TABLE.get(t.value)
        if cls is None:
            self.fail(tuple(_TABLE))
        self.next()
        stmt = cls.parse(self, t.value)
        self.expect(";")
        return stmt


def parse(source: str) -> Script:
    p = _Parser(source)
    stmts = []
    while p.peek().kind != "eof":
        stmts.append(p.statement())
    return Script(tuple(stmts))


# -- rendering of syntax --------------------------------------------------------


def _commas(items) -> str:
    return ", ".join(map(str, items))


def _tail(pairs: tuple, sym: str) -> str:
    return " : " + _commas(f"{a} {sym} {b}" for a, b in pairs) if pairs else ""


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
    if len(t) == 2:  # a one-child node has no infix form
        return (_MEET if op == "meet" else _JOIN) + _render_term(t[1]) + "}"
    here = 2 if op == "meet" else 1
    sym = " & " if op == "meet" else " | "
    body = sym.join(_render_term(s, here) for s in t[1:])
    # a child with its parent's operator is bracketed: it would re-parse flat
    return f"({body})" if prec >= here else body


def _render_set(s: frozenset) -> str:
    return "{" + _commas(sorted(s, key=canon_key)) + "}"


# -- statements ----------------------------------------------------------------

_TABLE: dict = {}  # keyword -> statement class, in declaration order


class _Node(Record):
    """A syntax node; a statement class also names its ``keywords`` and
    provides ``parse(p, keyword)``, ``render()`` and ``run(runner)``."""

    __slots__ = ()
    keywords: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.keyword = cls.keywords[0] if cls.keywords else None
        _TABLE.update(dict.fromkeys(cls.keywords, cls))


class GensDecl(_Node):
    keywords = ("gens", "boolgens")
    __slots__ = ("names", "boolean")

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        names = [p.name()]
        while p.peek().kind == "name":
            names.append(p.name())
        return cls(tuple(names), kw == cls.keywords[1])

    def render(self) -> str:
        return f"{self.keywords[self.boolean]} {' '.join(self.names)};"

    def run(self, r: _Runner) -> None:
        if r.gens is not None:
            raise DomainError("generators already declared")
        r.gens = self


class RelDecl(_Node):
    keywords = ("rel",)
    __slots__ = ("lhs", "op", "rhs")  # op is "<=" or "="

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        lhs = p.term()
        if not p.at("<=", "="):
            p.fail(("'<='", "'='"))
        return cls(lhs, p.next().value, p.term())

    def render(self) -> str:
        return f"{self.keyword} {_render_term(self.lhs)} {self.op} {_render_term(self.rhs)};"

    def run(self, r: _Runner) -> None:
        if not r.rels:  # validate eagerly: the generators once, then each relation
            r.presentation()
        for t in (self.lhs, self.rhs):
            pr._term(t, frozenset(r.gens.names), r.gens.boolean)
        r.rels.append((self.lhs, self.rhs))
        if self.op == "=":
            r.rels.append((self.rhs, self.lhs))


class PosetDecl(_Node):
    keywords = ("poset",)
    __slots__ = ("name", "elems", "pairs")

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.name(), *p.block(lambda: p.listed(p.label), "<="))

    def render(self) -> str:
        return f"{self.keyword} {self.name} {{ {_commas(self.elems)}{_tail(self.pairs, '<=')} }};"

    def run(self, r: _Runner) -> None:
        r.bind(self, FinPoset(self.elems, self.pairs))


class LatticeDecl(_Node):
    keywords = ("lattice",)
    __slots__ = ("name", "expr")  # ("chain", n) | ("bool", n) | ("downsets", name) | ("opens", name)

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        name = p.name()
        p.expect("=")
        kind = p.name()
        if kind in ("chain", "bool"):
            return cls(name, (kind, p.num()))
        if kind in ("downsets", "opens"):
            return cls(name, (kind, p.name()))
        p.fail(("chain", "bool", "downsets", "opens"))

    def render(self) -> str:
        return f"{self.keyword} {self.name} = {self.expr[0]} {self.expr[1]};"

    def run(self, r: _Runner) -> None:
        op, arg = self.expr
        if op == "chain":
            if arg < 1:
                raise DomainError("chain length must be at least 1")
            check_budget(r.budgets, "elements", arg)
            lat = lower_sets(FinPoset(range(arg - 1), [(i, i + 1) for i in range(arg - 2)]))
        elif op == "bool":
            lat = powerset_lattice(range(arg), r.budgets)
        elif op == "downsets":
            lat = lower_sets(r.lookup(arg, PosetDecl), r.budgets)
        else:  # opens
            lat = r.lookup(arg, TopologyDecl).opens_lattice()[0]
        r.bind(self, lat)


class RelationDecl(_Node):
    keywords = ("relation",)
    __slots__ = ("name", "elems", "edges")

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.name(), *p.block(lambda: () if p.at(":", "}") else p.listed(p.label), "->"))

    def render(self) -> str:
        return f"{self.keyword} {self.name} {{ {_commas(self.elems)}{_tail(self.edges, '->')} }};"

    def run(self, r: _Runner) -> None:
        r.bind(self, Relation.make(self.elems, self.edges))


class TopologyDecl(_Node):
    keywords = ("topology",)
    __slots__ = ("name", "points", "opens")  # opens: a tuple of frozensets

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        name = p.name()
        p.expect("{")
        points = p.listed(p.label)
        p.expect(":")
        opens = p.listed(p.label_set)
        p.expect("}")
        return cls(name, points, opens)

    def render(self) -> str:
        opens = _commas(map(_render_set, self.opens))
        return f"{self.keyword} {self.name} {{ {_commas(self.points)} : {opens} }};"

    def run(self, r: _Runner) -> None:
        r.bind(self, FrameTopology(self.points, self.opens))


class CoverageDecl(_Node):
    keywords = ("coverage",)
    __slots__ = ("name", "base", "pairs")  # pairs: (frozenset, tuple of frozensets)

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        name = p.name()
        p.word("on")
        base = p.name()

        def pair():
            a = p.label_set()
            p.expect("<|")
            return a, p.braced(p.label_set, "[", "]")

        return cls(name, base, p.braced(pair))

    def render(self) -> str:
        parts = _commas(f"{_render_set(a)} <| [{_commas(map(_render_set, cs))}]" for a, cs in self.pairs)
        return f"{self.keyword} {self.name} on {self.base} {{ {parts} }};"

    def run(self, r: _Runner) -> None:
        base = r.lookup(self.base, LatticeDecl)
        gens = [(a, list(cs)) for a, cs in self.pairs]
        r.bind(self, saturate_coverage(base, gens, r.budgets))


class DiagramDecl(_Node):
    keywords = ("diagram",)
    __slots__ = ("name", "levels", "edges")  # edges go from a level to the one before it

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.name(), *p.block(lambda: p.listed(lambda: p.braced(p.label, "[", "]")), "->"))

    def render(self) -> str:
        levels = _commas(f"[{_commas(lv)}]" for lv in self.levels)
        return f"{self.keyword} {self.name} {{ {levels}{_tail(self.edges, '->')} }};"

    def run(self, r: _Runner) -> None:
        check_budget(r.budgets, "diagram", sum(map(len, self.levels)))
        seen: dict = {}
        for k, lv in enumerate(self.levels):
            for x in lv:
                if x in seen:
                    raise DomainError(f"diagram label {x!r} appears in two levels")
                seen[x] = k
        maps = [dict() for _ in range(len(self.levels) - 1)]
        for a, b in self.edges:
            if a not in seen or b not in seen:
                raise DomainError(f"diagram edge ({a!r}, {b!r}) uses undeclared labels")
            if seen[a] != seen[b] + 1:
                raise DomainError(
                    f"edge {a!r} -> {b!r} must go one level down"
                )
            maps[seen[b]][a] = b
        for k in range(len(self.levels) - 1):
            for x in self.levels[k + 1]:
                if x not in maps[k]:
                    raise DomainError(f"diagram label {x!r} has no outgoing edge")
        base = None
        if len(self.levels) > 1:  # each level's composite map down to level 0
            ps = [{x: x for x in self.levels[0]}]
            for k, lv in enumerate(self.levels[1:]):
                ps.append({x: ps[k][maps[k][x]] for x in lv})
            base = (frozenset(self.levels[0]), ps)
        r.bind(self, CoDiagram.chain([list(lv) for lv in self.levels], maps, base, complete=True))


class ProveQuery(_Node):
    keywords = ("prove",)
    __slots__ = ("sequent",)

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.sequent())

    def render(self) -> str:
        return f"{self.keyword} {self.sequent};"

    def run(self, r: _Runner) -> None:
        res = sq.prove(self.sequent, budgets=r.budgets)
        left_origin = frozenset(sq.neg(t) for t in self.sequent.left)
        r.report.add(
            self.keyword,
            ok=res.derivable,
            sequent=str(self.sequent),
            derivable=res.derivable,
            derivation=res.derivation.pretty(left_origin) if res.derivable else None,
            countermodel=(
                {str(k): v for k, v in sorted(res.countermodel.items(), key=lambda kv: canon_key(kv[0]))}
                if res.countermodel is not None
                else None
            ),
        )


class InterpQuery(_Node):
    keywords = ("interp",)
    __slots__ = ("left", "right", "sequent")

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.braced(p.name), p.braced(p.name), p.sequent())

    def render(self) -> str:
        blocks = f"{{{_commas(self.left)}}} {{{_commas(self.right)}}}"
        return f"{self.keyword} {blocks} {self.sequent};"

    def run(self, r: _Runner) -> None:
        try:
            i, _, lpart, rpart = _interpolate(self.sequent, self.left, self.right, r.budgets)
        except PreconditionError as e:
            r.report.add(
                self.keyword, ok=False, sequent=str(self.sequent), error="precondition",
                clause=e.clause, detail=str(e),
            )
            return
        shared = sorted(frozenset(self.left) & frozenset(self.right), key=canon_key)
        r.report.add(
            self.keyword,
            sequent=str(self.sequent),
            interpolant=sq.term_to_str(i),
            shared_generators=[str(g) for g in shared],
            obligations=[str(o) for o in _obligations(self.sequent, i, lpart, rpart)],
        )


class _OnName(_Node):
    """A query on one declared name."""

    __slots__ = ("name",)

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.name())

    def render(self) -> str:
        return f"{self.keyword} {self.name};"


class DissolveQuery(_OnName):
    keywords = ("dissolve",)
    __slots__ = ()

    def run(self, r: _Runner) -> None:
        lat = r.lookup(self.name, LatticeDecl)
        d = dissolve(lat, r.budgets)
        r.report.add(
            self.keyword,
            base=self.name,
            base_size=len(lat),
            base_irreducibles=len(lat._irreducibles()),
            result_size=len(d.result),
            result_kind=d.result.kind,
            unit={_elem_str(x): _elem_str(d.unit(x)) for x in sorted(lat.elements, key=canon_key)},
            dot=d.result.to_dot("dissolved"),
        )


class BaireQuery(_Node):
    keywords = ("baire",)
    __slots__ = ("name", "element")  # element: a frozenset or None

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls(p.name(), p.label_set() if p.at("{") else None)

    def render(self) -> str:
        elem = "" if self.element is None else " " + _render_set(self.element)
        return f"{self.keyword} {self.name}{elem};"

    def run(self, r: _Runner) -> None:
        t = r.lookup(self.name, TopologyDecl)
        core, regs, reg = _comgr(t)
        rec = dict(
            topology=self.name,
            points=[str(p) for p in t.reps],
            opens=[_elem_str(o) for o in t.opens],
            comgr=_elem_str(core),
            regular_opens=[_elem_str(u) for u in regs],
            regular_kind=reg.kind,
        )
        if self.element is not None:
            u, m = baire_decompose(t, self.element)
            rec.update(element=_elem_str(self.element), open_part=_elem_str(u), meager_part=_elem_str(m))
        r.report.add(self.keyword, **rec)


class PruneQuery(_OnName):
    keywords = ("prune",)
    __slots__ = ()

    def run(self, r: _Runner) -> None:
        kind, val = r.named.get(self.name, (None, None))
        if kind == RelationDecl.keyword:
            (verdict, core), sizes, images, pruned = _prune_chains(val, r.budgets)
            core = [str(x) for x in sorted(core, key=canon_key)]
            rec = dict(
                verdict=verdict,
                core=core,
                stage_sizes=sizes,
                base_images=[sorted(map(str, im), key=canon_key) for im in images],
                limit_image=core,
                dot=pruned.to_dot("pruned") if pruned is not None else None,
            )
        elif kind == DiagramDecl.keyword:
            check_budget(r.budgets, "diagram", val.total_size())
            stages, stab = prune_sequence(val)
            img = _limit_image(val, stages[-1]) if val.base is not None else None
            rec = dict(
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
            raise DomainError(f"{self.name!r} is not a relation or diagram")
        r.report.add(self.keyword, source=self.name, **rec)


class _Bare(_Node):
    """A query on the declared presentation: its keyword alone."""

    __slots__ = ()

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        return cls()

    def render(self) -> str:
        return f"{self.keyword};"


class SpecQuery(_Bare):
    keywords = ("spec",)
    __slots__ = ()

    def run(self, r: _Runner) -> None:
        model = spec(r.presentation(), r.budgets)
        r.report.add(
            self.keyword,
            gens=list(model.presentation.gens),
            points=["".join("1" if b else "0" for b in pt) for pt in model.points],
        )


class RealizeQuery(_Bare):
    keywords = ("realize",)
    __slots__ = ()

    def run(self, r: _Runner) -> None:
        p = r.presentation()
        lat, gen_img = realize(p, r.budgets)
        r.report.add(
            self.keyword,
            size=len(lat),
            lattice_kind=lat.kind,
            gens={g: _elem_str(gen_img[g]) for g in p.gens},
            dot=lat.to_dot("realized"),
        )


class IdealsQuery(_OnName):
    keywords = ("ideals",)
    __slots__ = ()

    def run(self, r: _Runner) -> None:
        lat, _ = cov_ideals(r.lookup(self.name, CoverageDecl))
        r.report.add(
            self.keyword,
            coverage=self.name,
            count=len(lat),
            lattice_kind=lat.kind,
            dot=lat.to_dot("ideals"),
        )


class ImageQuery(_Node):
    keywords = ("image",)
    __slots__ = ("fun", "cod", "subset")  # fun: (dom point, cod point) pairs

    @classmethod
    def parse(cls, p: _Parser, kw: str):
        fun = p.braced(lambda: p.pair("->"))
        p.word("in")
        p.expect("{")
        cod = p.listed(p.label)
        p.expect("}")
        p.word("of")
        return cls(fun, cod, p.label_set())

    def render(self) -> str:
        fun = _commas(f"{a} -> {b}" for a, b in self.fun)
        return f"{self.keyword} {{{fun}}} in {{{_commas(self.cod)}}} of {_render_set(self.subset)};"

    def run(self, r: _Runner) -> None:
        img = image_along(dict(self.fun), self.cod, self.subset)
        r.report.add(self.keyword, subset=_elem_str(self.subset), image=_elem_str(img))


class Script(_Node):
    __slots__ = ("statements",)

    def render(self) -> str:
        return "\n".join(s.render() for s in self.statements) + ("\n" if self.statements else "")


# -- execution -------------------------------------------------------------


class Report:
    """The records of a run, in order, and its exit code."""

    __slots__ = ("records", "exit_code")

    def __init__(self, records: Optional[list] = None, exit_code: int = 0):
        self.records = [] if records is None else records
        self.exit_code = exit_code

    def add(self, kind: str, ok: bool = True, **fields) -> dict:
        rec = {"schema": SCHEMA_VERSION, "kind": kind, "ok": ok, "timing_ms": None}
        rec.update(fields)
        self.records.append(rec)
        return rec


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
    """The state statements run against: budgets, report, names, presentation."""

    def __init__(self, budgets: Budgets, report: Report):
        self.budgets = budgets
        self.report = report
        self.named: dict = {}
        self.gens: Optional[GensDecl] = None
        self.rels: list = []

    def lookup(self, name: str, decl: type):
        """The object ``name`` was declared as by a ``decl`` statement."""
        if name not in self.named:
            raise DomainError(f"name {name!r} is not declared")
        kind, val = self.named[name]
        if kind != decl.keyword:
            raise DomainError(f"{name!r} is a {kind}, not a {decl.keyword}")
        return val

    def bind(self, decl: _Node, val) -> None:
        if decl.name in self.named:
            raise DomainError(f"name {decl.name!r} is already declared")
        self.named[decl.name] = (decl.keyword, val)

    def presentation(self) -> Presentation:
        if self.gens is None:
            raise DomainError("no generators declared (use 'gens' or 'boolgens')")
        kind = "boolean" if self.gens.boolean else "distributive"
        return Presentation(self.gens.names, tuple(self.rels), kind)


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
        try:
            stmt.run(runner)
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
    renderer = {"text": _render_text, "json": _render_json, "dot": _render_dot}.get(fmt)
    if renderer is None:
        raise DomainError(f"unknown format {fmt!r}")
    return renderer(report)
