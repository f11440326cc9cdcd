"""Prenex Boolean terms and the one-sided cut-free sequent calculus.

Terms are negation-normal: literals over generators, and set-valued
meet/join nodes.  They are interned, so equal terms are one object and
compare and hash by identity; each caches its negation in ``dual``.
A two-sided sequent A |- B is decided through its one-sided form
|- notA, B.  With n generators a term's meaning is its truth table, one
int of 2^n bits (bit i is the i-th valuation in ``itertools.product``
order), and the one-sided sequent is valid iff the OR of its tables is
all ones.  The subterms are collected and tabulated once per call, in
one post-order pass (``_tables``).  A valid sequent's cut-free
derivation is then built top-down without backtracking, on int masks
over the ranks of those subterms in ``term_key`` order; a refuted one
gets the first falsifying valuation as its countermodel.
``Derivation.validate`` re-checks each distinct node of the derivation
once.  Interpolation (``interp``) reads the tables ``_prove`` has just
built instead of tabulating the sequent again.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from ._record import Record
from .budgets import DEFAULT_BUDGETS, Budgets, check_budget
from .errors import DomainError, StructureError
from .order import canon_key

__all__ = [
    "Term",
    "var",
    "nvar",
    "meet_t",
    "join_t",
    "TOP",
    "BOT",
    "neg",
    "term_key",
    "term_vars",
    "term_depth",
    "term_to_str",
    "Sequent",
    "Derivation",
    "ProofResult",
    "prove",
    "eval_term",
    "term_leq",
    "cut_check",
]


class Term:
    """A prenex term: ``kind`` is pos/neg/meet/join.

    Structurally equal terms are interned, a generator by its value and
    its type, so 1 and True stay two generators; equality is identity and
    terms keep object's identity hash and equality; child sets
    deduplicate for free.  No output depends on the resulting set
    order: everything shown is sorted by ``term_key``.  ``sort_key`` (see
    ``term_key``) is computed once, when the term is first built.
    ``dual`` is the negation once it has been interned, else None: a
    literal is linked to its opposite when the second of the two is
    built, a compound term by ``neg``, always in both directions.
    ``_str``, the printed form, is set by the first ``term_to_str``.
    """

    __slots__ = ("kind", "gen", "children", "depth", "sort_key", "dual", "_str")
    _interned: dict = {}

    def __new__(cls, kind: str, gen=None, children: frozenset = frozenset()):
        # a literal has no children; it is keyed by its generator's type too
        key = (kind, gen, children) if gen is None else (kind, gen, type(gen))
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = super().__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "children", children)
        dual = None
        if kind in ("pos", "neg"):
            depth, sort_key = 1, (0, kind, canon_key(gen))
            dual = cls._interned.get(("neg" if kind == "pos" else "pos", *key[1:]))
            if dual is not None:
                object.__setattr__(dual, "dual", self)
        else:
            depth = 1 + max((c.depth for c in children), default=0)
            sort_key = (1, kind, len(children), tuple(sorted(c.sort_key for c in children)))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "sort_key", sort_key)
        object.__setattr__(self, "dual", dual)
        cls._interned[key] = self
        return self

    def __setattr__(self, *a):
        raise AttributeError("Term is immutable")

    def __repr__(self) -> str:
        return term_to_str(self)


def var(x) -> Term:
    return Term("pos", x)


def nvar(x) -> Term:
    return Term("neg", x)


def meet_t(children: Iterable[Term]) -> Term:
    return Term("meet", None, frozenset(children))


def join_t(children: Iterable[Term]) -> Term:
    return Term("join", None, frozenset(children))


TOP = meet_t([])
BOT = join_t([])


def neg(t: Term) -> Term:
    """The involution swapping pos/neg literals and meet/join nodes.

    Read off ``t.dual``; the first call on a term interns the negation
    and links the two.
    """
    d = t.dual
    if d is None:
        if t.kind == "pos":
            d = Term("neg", t.gen)
        elif t.kind == "neg":
            d = Term("pos", t.gen)
        elif t.kind == "meet":
            d = join_t(neg(c) for c in t.children)
        else:
            d = meet_t(neg(c) for c in t.children)
        object.__setattr__(t, "dual", d)
        object.__setattr__(d, "dual", t)
    return d


def term_key(t: Term):
    """Deterministic total order on terms, for canonical display.

    Literals ``(0, kind, canon_key(gen))`` come first, then compound terms
    ``(1, kind, arity, sorted child keys)``; cached on the term.
    """
    return t.sort_key


_by_key = attrgetter("sort_key")  # ``term_key`` with no Python frame, for the hot sorts


def term_vars(t: Term) -> frozenset:
    if t.kind in ("pos", "neg"):
        return frozenset([t.gen])
    out = frozenset()
    for c in t.children:
        out |= term_vars(c)
    return out


def term_depth(t: Term) -> int:
    return t.depth


def term_to_str(t: Term) -> str:
    """The printed form of ``t``, rendered once and kept on the term."""
    try:
        return t._str
    except AttributeError:
        pass
    if t.kind == "pos":
        out = str(t.gen)
    elif t.kind == "neg":
        out = f"!{t.gen}"
    else:
        body = ",".join(term_to_str(c) for c in sorted(t.children, key=term_key))
        out = ("/\\{" if t.kind == "meet" else "\\/{") + body + "}"
    object.__setattr__(t, "_str", out)
    return out


def eval_term(t: Term, v: Mapping) -> bool:
    """Standard evaluation; empty meet is true, empty join is false."""
    if t.kind in ("pos", "neg"):
        if t.gen not in v:
            raise DomainError(f"valuation does not assign generator {t.gen!r}")
        return bool(v[t.gen]) if t.kind == "pos" else not v[t.gen]
    if t.kind == "meet":
        return all(eval_term(c, v) for c in t.children)
    return any(eval_term(c, v) for c in t.children)


class Sequent(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: frozenset, right: frozenset):
        object.__setattr__(self, "left", left)  # as ``Derivation`` does
        object.__setattr__(self, "right", right)
        for t in left | right:
            if not isinstance(t, Term):
                raise DomainError("sequent sides must contain terms")

    def one_sided(self) -> frozenset:
        return frozenset(neg(t) for t in self.left) | self.right

    def __str__(self) -> str:
        def side(s):
            return "{" + ",".join(term_to_str(t) for t in sorted(s, key=term_key)) + "}"

        return f"{side(self.left)} |- {side(self.right)}"


_REPR_WIDTH = 200  # characters of the root sequent a ``Derivation`` repr shows
_root = attrgetter("sequent", "rule", "principal")  # a ``Derivation`` node's own fields


class Derivation(Record):
    """A one-sided derivation, a DAG when equal sub-sequents share a node.

    ``validate`` re-checks every distinct node (by identity) once, in
    pre-order, so the first error it raises is the one a walk of the
    whole tree would raise first.  The ``repr`` is DAG-sized too: the
    rule, the count of distinct nodes and the root sequent; so are
    ``==``, which compares each pair of nodes once, and ``hash``, which
    reads the root alone.
    """

    __slots__ = ("sequent", "rule", "principal", "children")

    def __init__(self, sequent: frozenset, rule: str, principal: Optional[Term], children: tuple):
        # field by field, faster than ``Record.__init__``: one per ``_replay`` node
        object.__setattr__(self, "sequent", sequent)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "principal", principal)
        object.__setattr__(self, "children", children)

    def __eq__(self, other) -> bool:
        # each pair of nodes once, where ``Record``'s field tuples would
        # compare a shared node once per path to it
        seen, stack = set(), [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is not y and (id(x), id(y)) not in seen:
                seen.add((id(x), id(y)))
                if type(x) is not type(y) or _root(x) != _root(y) or len(x.children) != len(y.children):
                    return False
                stack.extend(zip(x.children, y.children))
        return True

    def __hash__(self) -> int:
        return hash(_root(self))  # equal derivations have equal roots

    def _distinct(self):
        """The distinct nodes, by identity, in pre-order."""
        seen, stack = set(), [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                yield node
                stack.extend(reversed(node.children))

    def __repr__(self) -> str:
        body = ",".join(term_to_str(t) for t in sorted(self.sequent, key=_by_key))
        if len(body) > _REPR_WIDTH:
            body = body[:_REPR_WIDTH] + "..."
        return f"Derivation({self.rule}, {sum(1 for _ in self._distinct())} nodes, |- {{{body}}})"

    def validate(self) -> None:
        for node in self._distinct():
            node._check()

    def _check(self) -> None:
        """The rule at this node, given its premises' sequents."""
        a = self.sequent
        if self.rule == "axiom":
            if self.children:
                raise StructureError("axiom must be a leaf")
            if not any(t.kind == "pos" and t.dual in a for t in a):
                raise StructureError("axiom leaf lacks a complementary literal pair")
            return
        p = self.principal
        if p is None or p not in a:
            raise StructureError("principal term must occur in the sequent")
        premises = tuple(c.sequent for c in self.children)
        if self.rule == "meetR":
            if p.kind != "meet":
                raise StructureError("meetR principal must be a meet")
            want = tuple(a | {b} for b in sorted(p.children, key=_by_key))
            if premises != want:
                raise StructureError("meetR premises must add each conjunct")
        elif self.rule == "joinR":
            if p.kind != "join":
                raise StructureError("joinR principal must be a join")
            # premises == (a | {b},) for a disjunct b, with no set built per
            # disjunct: q adds one disjunct to a, or q is a and a holds one
            q = premises[0] if len(premises) == 1 else None
            added = len(q) - len(a) if q is not None and a <= q else -1
            if not (
                added == 1 and not (q - a).isdisjoint(p.children)
                or added == 0 and not a.isdisjoint(p.children)
            ):
                raise StructureError("joinR premise must add one disjunct")
        elif self.rule == "joinR-inf":
            if p.kind != "join":
                raise StructureError("joinR-inf principal must be a join")
            if premises != (a | p.children,):
                raise StructureError("joinR-inf premise must add all disjuncts")
        else:
            raise StructureError(f"unknown rule {self.rule!r}")

    def pretty(self, left_origin: frozenset = frozenset(), indent: int = 0) -> str:
        """The derivation as an indented tree, one line per tree node in
        pre-order.  A node shared by several parents prints once per
        occurrence, but its line is rendered once per distinct node."""
        names = {"meetR": "/\\R", "joinR": "\\/R", "joinR-inf": "\\/R", "axiom": "ax"}
        swapped = {"/\\R": "\\/L", "\\/R": "/\\L"}
        rendered: dict[int, str] = {}
        lines = []
        stack = [(self, indent)]
        while stack:
            node, depth = stack.pop()
            line = rendered.get(id(node))
            if line is None:
                rule = names[node.rule]
                if node.principal is not None and node.principal in left_origin:
                    rule = swapped[rule]
                body = ",".join(term_to_str(t) for t in sorted(node.sequent, key=term_key))
                line = rendered[id(node)] = f"|- {{{body}}}   [{rule}]"
            lines.append("  " * depth + line)
            stack.extend((c, depth + 1) for c in reversed(node.children))
        return "\n".join(lines)


class ProofResult(Record):
    __slots__ = ("derivable", "derivation", "countermodel")

    def __init__(self, derivable: bool, derivation: Optional[Derivation], countermodel: Optional[dict]):
        object.__setattr__(self, "derivable", derivable)  # as ``Derivation`` does
        object.__setattr__(self, "derivation", derivation)
        object.__setattr__(self, "countermodel", countermodel)


def _as_one_sided(s) -> frozenset:
    if isinstance(s, Sequent):
        return s.one_sided()
    return frozenset(s)


def prove(
    s, calculus: str = "finitary", budgets: Budgets = DEFAULT_BUDGETS
) -> ProofResult:
    """Decide a sequent by truth tables, then replay its derivation.

    Accepts a two-sided ``Sequent`` or a set of terms read as the
    one-sided right side.  The budgets are checked before any table is
    built.  A refuted sequent gets the first falsifying valuation (in
    ``itertools.product`` order over the generators in ``canon_key``
    order); each is re-checked, the derivation by ``validate`` and the
    countermodel by evaluation.
    """
    return _prove(s, calculus, budgets)[0]


def _prove(s, calculus: str, budgets: Budgets) -> tuple[ProofResult, tuple]:
    """``prove``'s result and the subterm pass it read, as ``_tables``
    returns it: the tables, the generator masks and the all-ones table."""
    if calculus not in ("finitary", "infinitary"):
        raise DomainError(f"unknown calculus {calculus!r}")
    a0 = _as_one_sided(s)
    check_budget(budgets, "sequent_depth", max((t.depth for t in a0), default=0))
    tables = _tables(a0, budgets)
    table, masks, full = tables
    n = len(masks)
    union = 0
    for t in a0:
        union |= table[t]
    if union != full:
        i = ((union + 1) & ~union).bit_length() - 1  # the lowest zero bit
        v = {g: bool(i >> (n - 1 - j) & 1) for j, g in enumerate(masks)}
        if any(eval_term(t, v) for t in a0):
            raise StructureError("countermodel does not falsify the sequent")
        return ProofResult(False, None, v), tables
    d = _replay(a0, table, calculus)
    d.validate()
    return ProofResult(True, d, None), tables


def _tables(terms: Iterable[Term], budgets: Optional[Budgets] = None) -> tuple[dict, dict, int]:
    """The truth table of every subterm of ``terms``: the one subterm pass
    that ``prove``, its replay and interpolation read.

    Returns the tables keyed by subterm, children before their parents,
    the generators' tables keyed by generator in ``canon_key`` order, and
    the all-ones table.  With ``budgets`` the generator count is checked
    before any table is built.  Generators equal in value but not in
    type, as 1 and True are, are refused: they would share one table.
    The tables are filled in that post-order, each from its children's
    entries, as ``_table`` folds them.
    """
    subterms: dict[Term, None] = {}
    for t in terms:
        _collect(t, subterms)
    keys = {t.sort_key[2]: t.gen for t in subterms if t.kind in ("pos", "neg")}
    gens = [keys[k] for k in sorted(keys)]  # in canon_key order
    if budgets is not None:
        check_budget(budgets, "sequent_gens", len(gens))
    n = len(gens)
    full = (1 << (1 << n)) - 1
    masks = dict(zip(gens, _gen_masks(n)))
    if len(masks) < n:  # two generators equal in value, as 1 and True are
        raise DomainError(f"sequent generators equal in value but not in type among {gens!r}")
    table: dict[Term, int] = {}
    for t in subterms:
        kind = t.kind
        if kind == "pos":
            table[t] = masks[t.gen]
        elif kind == "neg":
            table[t] = full ^ masks[t.gen]
        elif kind == "meet":
            m = full
            for c in t.children:
                m &= table[c]
            table[t] = m
        else:
            m = 0
            for c in t.children:
                m |= table[c]
            table[t] = m
    return table, masks, full


def _table(t: Term, masks: Mapping, full: int, known: Mapping = {}) -> int:
    """The truth table of ``t`` from the generators' tables ``masks``; a
    child's table is read from ``known`` or else folded recursively, so
    with nothing known one table per level of ``t`` is alive at a time."""
    if t.kind == "pos":
        return masks[t.gen]
    if t.kind == "neg":
        return full ^ masks[t.gen]
    meet = t.kind == "meet"
    m = full if meet else 0
    for c in t.children:
        ct = known.get(c)
        ct = _table(c, masks, full, known) if ct is None else ct
        m = m & ct if meet else m | ct
    return m


def _collect(t: Term, out: dict) -> None:
    """Add the distinct subterms of ``t`` to ``out``, children first."""
    if t not in out:
        for c in t.children:
            _collect(c, out)
        out[t] = None


@lru_cache(maxsize=8)
def _gen_masks(n: int) -> tuple:
    """The truth tables of n generators over the 2^n valuations.

    Valuation i gives generator j the bit n-1-j of i, so the first
    generator varies slowest, as in ``itertools.product``.  The table of
    bit k repeats, with period 2^(k+1), 2^k zeros followed by 2^k ones;
    it is copied by doubling, in time linear in its length.
    """
    out = []
    for j in range(n):
        half = 1 << (n - 1 - j)
        m, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << n:
            m |= m << width
            width *= 2
        out.append(m)
    return tuple(out)


def _replay(a0: frozenset, subterms: Iterable[Term], calculus: str) -> Derivation:
    """The derivation of the valid one-sided sequent ``a0``.

    Every sequent reached is a superset of ``a0``, hence valid too.  At
    each node the principal is the first term, in ``term_key`` order,
    whose rule adds a new term to every premise (a meet none of whose
    conjuncts is present, a join with a disjunct not yet present); the
    finitary join adds the first such disjunct.  Such a term exists in
    every valid sequent that is not an axiom: otherwise the literals
    ``pos x`` in it, set false, and the rest, set true, would falsify
    it.  Premises only grow, so the replay ends.

    Every term reached is a subterm of ``a0``, so the search runs on int
    masks over the subterms' ranks in ``term_key`` order: the principal
    is the lowest rank whose rule adds a term, the finitary join adds
    the lowest absent child.  Equal sub-sequents (equal masks) share
    one node.
    """
    order = sorted(subterms, key=_by_key)
    rank = {t: i for i, t in enumerate(order)}
    kids = [0] * len(order)
    compound = meets = 0
    pairs = []  # the mask of each complementary literal pair
    for i, t in enumerate(order):
        if t.kind == "pos":
            if t.dual in rank:
                pairs.append(1 << i | 1 << rank[t.dual])
        elif t.kind != "neg":
            compound |= 1 << i
            if t.kind == "meet":
                meets |= 1 << i
            for c in t.children:
                kids[i] |= 1 << rank[c]
    finitary = calculus == "finitary"
    built: dict[int, Derivation] = {}

    def build(m: int, a: frozenset) -> Derivation:
        for pm in pairs:
            if m & pm == pm:
                d = built[m] = Derivation(a, "axiom", None, ())
                return d
        rest = m & compound
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            ch = kids[i]
            if low & meets:
                if ch & m:
                    continue
                subs = []
                while ch:  # the empty meet has no premise
                    b = ch & -ch
                    ch ^= b
                    subs.append(built.get(m | b) or build(m | b, a | {order[b.bit_length() - 1]}))
                d = Derivation(a, "meetR", order[i], tuple(subs))
                break
            new = ch & ~m
            if new:
                p = order[i]
                if finitary:
                    b = new & -new
                    m2, a2, rule = m | b, a | {order[b.bit_length() - 1]}, "joinR"
                else:
                    m2, a2, rule = m | ch, a | p.children, "joinR-inf"
                d = Derivation(a, rule, p, (built.get(m2) or build(m2, a2),))
                break
        else:
            raise StructureError("valid sequent has no rule that adds a term")
        built[m] = d
        return d

    return build(sum(1 << rank[t] for t in a0), a0)


def term_leq(a: Term, b: Term, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """The term-model preorder: {a} |- {b} is derivable."""
    return prove(Sequent(frozenset([a]), frozenset([b])), budgets=budgets).derivable


def cut_check(a: Iterable[Term], t: Term, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Cut adds nothing: if |- A,t and |- A,not t, then |- A cut-free.

    Vacuously true when either premise is underivable.
    """
    a = frozenset(a)
    if not prove(a | {t}, budgets=budgets).derivable:
        return True
    if not prove(a | {neg(t)}, budgets=budgets).derivable:
        return True
    return prove(a, budgets=budgets).derivable
