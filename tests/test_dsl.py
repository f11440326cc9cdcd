import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from localix import dsl, lattice, presented, pruning
from localix.budgets import DEFAULT_BUDGETS
from localix.dsl import Report, Script, parse, render, run
from localix.errors import DomainError, ParseError
from localix.pruning import Relation

import oracles

FULL_SCRIPT = """\
# declarations of every object kind
gens a b;
rel a & b <= a;
rel a = a;
poset P { x, y, z : x <= y, x <= z };
lattice L = downsets P;
lattice C3 = chain 3;
lattice B2 = bool 2;
topology T { p, q : {p} };
lattice O = opens T;
relation R { 0, 1, 2 : 1 -> 0, 2 -> 1 };
coverage Cov on C3 { {0} <| [{0}] };
diagram D { [u, v], [w] : w -> u };
prove {a & b} |- {a};
prove {a} |- {b};
interp {a} {a, b} {a} |- {a | b};
dissolve C3;
baire T {q};
prune R;
prune D;
spec;
realize;
ideals Cov;
image {s -> p, t -> q} in {p, q} of {s};
"""


def test_round_trip_is_stable():
    s1 = parse(FULL_SCRIPT)
    text = s1.render()
    s2 = parse(text)
    assert s2 == s1
    assert s2.render() == text  # rendering is idempotent


@pytest.mark.parametrize(
    "source",
    ["gens a b c;\nrel (a | b) | c <= a;\n", "gens a b c;\nrel a & (b & c) = !(a | (b | c));\n"],
)
def test_round_trip_keeps_nested_operators_of_one_kind(source):
    s = parse(source)
    assert parse(s.render()) == s


# -- generated scripts: every statement kind, nested bracketed formulas -------

_NAMES = st.sampled_from(["a", "b", "x1", "_q", "in", "on", "of", "P"])
_LABELS = st.one_of(_NAMES, st.integers(0, 120).map(str), st.just("007"))


def _listed(items, min_size=0, sep=", "):
    return st.lists(items, min_size=min_size, max_size=3).map(sep.join)


def _formula_step(inner):
    return st.one_of(
        inner.map(lambda f: f"!{f}"),
        inner.map(lambda f: f"({f})"),
        st.tuples(inner, st.sampled_from([" & ", " | ", "&", "|"]), inner).map("".join),
        st.tuples(st.sampled_from(["/\\{", "\\/{"]), _listed(inner)).map(lambda t: t[0] + t[1] + "}"),
    )


_FORMULAS = st.recursive(st.one_of(_NAMES, st.sampled_from(["0", "1"])), _formula_step, max_leaves=8)
_SETS = _listed(_LABELS).map(lambda b: "{" + b + "}")
_ARROWS = _listed(st.tuples(_LABELS, _LABELS).map(" -> ".join))
_SEQUENT = st.tuples(_listed(_FORMULAS), _listed(_FORMULAS)).map(lambda lr: "{%s} |- {%s}" % lr)


def _after_colon(pairs):
    return pairs.map(lambda p: f" : {p}" if p else "")


# the text after the keyword, for each keyword of the statement table
_BODIES = {
    "gens": _listed(_NAMES, 1, " "),
    "boolgens": _listed(_NAMES, 1, " "),
    "rel": st.tuples(_FORMULAS, st.sampled_from(["<=", "="]), _FORMULAS).map(" ".join),
    "poset": st.tuples(
        _NAMES, _listed(_LABELS, 1), _after_colon(_listed(st.tuples(_LABELS, _LABELS).map(" <= ".join)))
    ).map(lambda t: "%s { %s%s }" % t),
    "lattice": st.tuples(_NAMES, st.one_of(
        st.tuples(st.sampled_from(["chain", "bool"]), st.integers(0, 9).map(str)),
        st.tuples(st.sampled_from(["downsets", "opens"]), _NAMES),
    ).map(" ".join)).map(lambda t: "%s = %s" % t),
    "relation": st.tuples(_NAMES, _listed(_LABELS), _after_colon(_ARROWS)).map(
        lambda t: "%s { %s%s }" % t
    ),
    "topology": st.tuples(_NAMES, _listed(_LABELS, 1), _listed(_SETS, 1)).map(
        lambda t: "%s { %s : %s }" % t
    ),
    "coverage": st.tuples(
        _NAMES, _NAMES, _listed(st.tuples(_SETS, _listed(_SETS)).map(lambda p: "%s <| [%s]" % p))
    ).map(lambda t: "%s on %s { %s }" % t),
    "diagram": st.tuples(
        _NAMES, _listed(_listed(_LABELS).map(lambda b: f"[{b}]"), 1), _after_colon(_ARROWS)
    ).map(lambda t: "%s { %s%s }" % t),
    "prove": _SEQUENT,
    "interp": st.tuples(_listed(_NAMES), _listed(_NAMES), _SEQUENT).map(lambda t: "{%s} {%s} %s" % t),
    "dissolve": _NAMES,
    "baire": st.tuples(_NAMES, st.one_of(st.just(""), _SETS.map(lambda e: " " + e))).map("".join),
    "prune": _NAMES,
    "spec": st.just(""),
    "realize": st.just(""),
    "ideals": _NAMES,
    "image": st.tuples(_ARROWS, _listed(_LABELS, 1), _SETS).map(lambda t: "{%s} in {%s} of %s" % t),
}
_STATEMENTS = st.one_of(
    *(body.map(lambda b, kw=kw: f"{kw} {b}".rstrip()) for kw, body in _BODIES.items())
)


def test_generated_statements_cover_the_statement_table():
    # a new statement kind cannot skip the round-trip property below
    assert list(_BODIES) == list(dsl._TABLE)


@settings(max_examples=300)
@given(st.lists(_STATEMENTS, max_size=6))
def test_generated_scripts_round_trip(statements):
    source = "".join(f"{s};\n" for s in statements)
    script = parse(source)
    text = script.render()
    assert parse(text) == script
    assert parse(text).render() == text
    # a sequent as records print it parses back to the same sequent
    for stmt in script.statements:
        if isinstance(stmt, (dsl.ProveQuery, dsl.InterpQuery)):
            seq = dsl._to_sequent(stmt.sequent)
            (again,) = parse(f"prove {seq};").statements
            assert dsl._to_sequent(again.sequent) == seq


def test_list_formulas_as_sequents_print_them():
    # the sequent line of `localix prove '{x & y} |- {x}'` is a prove statement again
    (stmt,) = parse("prove {/\\{x,y}} |- {x};").statements
    assert stmt == parse("prove {x & y} |- {x};").statements[0]
    (rel,) = parse("rel /\\{} <= \\/{a, /\\{b}, !c};").statements
    assert rel.lhs == ("top",)
    assert rel.rhs == ("join", ("var", "a"), ("meet", ("var", "b")), ("not", ("var", "c")))
    assert rel.render() == "rel 1 <= a | /\\{b} | !c;"
    assert parse("rel \\/{} <= a;").statements[0].lhs == ("bot",)
    assert str(dsl._to_sequent(parse("prove {a & a} |- {};").statements[0].sequent)) == "{/\\{a}} |- {}"


def test_unknown_keyword_lists_the_statement_table_in_order():
    with pytest.raises(ParseError) as ei:
        parse("frobnicate;")
    assert ei.value.expected == (
        "gens", "boolgens", "rel", "poset", "lattice", "relation", "topology", "coverage",
        "diagram", "prove", "interp", "dissolve", "baire", "prune", "spec", "realize",
        "ideals", "image",
    )


def test_formula_precedence():
    s = parse("gens a b c;\nrel !a & b | c <= 1;\n")
    rel = s.statements[1]
    assert rel.lhs == ("join", ("meet", ("not", ("var", "a")), ("var", "b")), ("var", "c"))
    assert rel.rhs == ("top",)
    # parenthesized grouping overrides
    s2 = parse("gens a b c;\nrel !(a & (b | c)) <= 0;\n")
    assert s2.statements[1].lhs == (
        "not", ("meet", ("var", "a"), ("join", ("var", "b"), ("var", "c")))
    )


def test_comments_and_numeric_labels():
    s = parse("relation R { 0, 1 : 1 -> 0 }; # trailing comment\n")
    r = s.statements[0]
    assert r.elems == (0, 1) and r.edges == ((1, 0),)


@pytest.mark.parametrize(
    "source,line,col,found",
    [
        ("rel a & <= 0;", 1, 9, "<="),
        ("prove {x |- {};", 1, 10, "|-"),
        ("poset P { };", 1, 11, "}"),
        ("lattice L = chain x;", 1, 19, "x"),
        ("gens 1;", 1, 6, "1"),
        ("frobnicate;", 1, 1, "frobnicate"),
        ("prove {x} |- {x}", 1, 17, "end of input"),
        ("lattice L = chain \u00b2;", 1, 19, "\u00b2"),
    ],
)
def test_parse_error_positions(source, line, col, found):
    with pytest.raises(ParseError) as ei:
        parse(source)
    e = ei.value
    assert (e.line, e.col, e.found) == (line, col, found)
    assert e.expected  # always names what it wanted


def test_report_records_and_exit_codes():
    report = run(parse(FULL_SCRIPT))
    kinds = [r["kind"] for r in report.records]
    assert kinds == [
        "prove", "prove", "interp", "dissolve", "baire", "prune", "prune",
        "spec", "realize", "ideals", "image",
    ]
    assert report.exit_code == 0
    by_kind = {}
    for r in report.records:
        by_kind.setdefault(r["kind"], []).append(r)
    good, bad = by_kind["prove"]
    assert good["ok"] and good["derivation"]
    assert not bad["ok"] and bad["countermodel"] == {"a": True, "b": False}
    assert by_kind["dissolve"][0]["result_size"] == 4
    assert by_kind["baire"][0]["comgr"] == "{p}"
    rel_rec, diag_rec = by_kind["prune"]
    assert rel_rec["verdict"] == 3 and rel_rec["core"] == []
    assert diag_rec["verdict"] == "stabilized"
    assert by_kind["realize"][0]["size"] == 6  # two free generators
    assert by_kind["image"][0]["image"] == "{p}"


_POINTS = st.sampled_from(["s", "t", "p", "q", 0, 1, 2])


@settings(max_examples=200)
@given(
    st.lists(st.tuples(_POINTS, _POINTS), max_size=5),
    st.lists(_POINTS, min_size=1, max_size=3),
    st.lists(_POINTS, max_size=3),
)
def test_image_record_matches_the_powerset_path(fun, cod, subset):
    # the record, or the input error and its text, of the least cover
    # found by a scan of the preimage hom's powerset domain
    arrows, cod, subset = (", ".join(map(str, xs)) for xs in ([f"{a} -> {b}" for a, b in fun], cod, subset))
    source = f"image {{{arrows}}} in {{{cod}}} of {{{subset}}};"
    script = parse(source)
    (stmt,) = script.statements
    (rec,) = run(script).records
    f = dict(stmt.fun)
    try:
        image = oracles.borel_image(presented.preimage_hom(f, list(f), stmt.cod), stmt.subset)
        want = {"kind": "image", "ok": True, "subset": dsl._elem_str(stmt.subset)}
        want["image"] = dsl._elem_str(image)
    except DomainError as e:
        want = {"kind": "error", "ok": False, "error": "input", "detail": str(e)}
    assert {k: rec.get(k) for k in want} == want


def test_name_errors_become_input_records():
    report = run(parse("dissolve L;"))
    assert report.exit_code == 2
    assert report.records[-1]["kind"] == "error"
    assert report.records[-1]["error"] == "input"
    report = run(parse("poset P { x };\nposet P { y };"))
    assert report.exit_code == 2  # duplicate binding


def test_budget_violation_stops_the_run():
    wide = "gens " + " ".join(f"g{i}" for i in range(25)) + ";\nrealize;\nspec;\n"
    report = run(parse(wide))
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "budget"
    assert len(report.records) == 1  # nothing after the violation


def test_bool_lattice_checks_its_size_before_building(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("the powerset was built")

    # the check is powerset_lattice's own: neither its points nor its
    # elements may be built
    monkeypatch.setattr(lattice, "FinPoset", no_lattice)
    monkeypatch.setattr(lattice, "_new", no_lattice)
    for n, shown in ((14, "2^14 > 4096"), (10**12, f"2^{10**12} > 4096")):
        report = run(parse(f"lattice B = bool {n};"))
        assert report.exit_code == 2
        assert report.records[-1]["error"] == "budget"
        assert f"elements budget exceeded: {shown}" in report.records[-1]["detail"]


def test_chain_lattice_checks_its_size_before_building(monkeypatch):
    def no_chain(*args):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(dsl, "FinPoset", no_chain)
    monkeypatch.setattr(dsl, "lower_sets", no_chain)
    report = run(parse("lattice C = chain 5000;"))
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "budget"
    assert "elements budget exceeded: 5000 > 4096" in report.records[-1]["detail"]


def test_downsets_check_their_count_while_enumerating(monkeypatch):
    # a 13-point antichain has 8192 down-sets
    def no_lattice(*args):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(lattice, "FinLattice", no_lattice)
    pts = ", ".join("abcdefghijklm")
    report = run(parse(f"poset P {{ {pts} }};\nlattice L = downsets P;"))
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "budget"
    assert "elements budget exceeded: 8192 > 4096" in report.records[-1]["detail"]


@pytest.mark.parametrize("source, detail", [
    ("rel a <= b;", "no generators declared (use 'gens' or 'boolgens')"),
    ("gens a a;\nrel a <= a;", "duplicate generator names"),
    ("gens a b;\nrel a <= b;\nrel a = c;", "unknown generator 'c'"),
    ("gens a b;\nrel a <= b;\nrel c & a <= !d;", "unknown generator 'c'"),
    ("gens a b;\nrel a <= b;\nrel a <= !b;", "complement only allowed in boolean presentations"),
], ids=["no-gens", "duplicate-gens", "unknown-in-equation", "unknown-first", "complement"])
def test_relations_are_validated_as_they_are_declared(source, detail):
    report = run(parse(source + "\nspec;"))
    assert report.exit_code == 2
    assert [r["kind"] for r in report.records] == ["error"]
    assert report.records[0]["detail"] == detail


def test_each_relation_is_checked_once_and_realize_builds_one_presentation(monkeypatch):
    # every term here is a generator, so one check per term: the 2 * 40
    # terms as declared, and once more when realize builds the presentation
    calls = []
    check = presented._check_term
    monkeypatch.setattr(presented, "_check_term", lambda t, *a: calls.append(t) or check(t, *a))
    report = run(parse("gens a b;\n" + "rel a <= b;\n" * 40 + "realize;"))
    assert report.exit_code == 0
    assert len(calls) == 2 * 40 * 2


def test_diagram_validation():
    report = run(parse("diagram D { [a], [b] };"))  # b has no outgoing edge
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "input"
    assert "outgoing edge" in report.records[-1]["detail"]


def test_preloaded_named_objects():
    r = Relation.make(range(2), [(1, 0)])
    d = oracles.desc_diagram(r, 3, with_base=True)
    report = run(parse("prune D;"), named={"D": ("diagram", d)})
    assert report.records[0]["kind"] == "prune"
    assert report.records[0]["verdict"] == "stabilized"


def test_relation_prune_reads_the_golden_record_off_counts(monkeypatch):
    # the golden relation R and its record from full.lx, with the chain
    # diagram's builder, pruning iteration and limit all patched to raise
    golden = pathlib.Path(__file__).parent / "golden"
    decl = next(
        line for line in (golden / "full.lx").read_text().splitlines()
        if line.startswith("relation R ")
    )
    records = json.loads((golden / "run_full_json.out").read_text())["records"]
    want = next(r for r in records if r["kind"] == "prune" and r["source"] == "R")

    def boom(*args, **kwargs):
        raise AssertionError("the descending-chain diagram was pruned in full")

    for name in ("prune_sequence", "limit_image"):
        monkeypatch.setattr(pruning, name, boom)
        monkeypatch.setattr(dsl, name, boom, raising=False)
    report = run(parse(decl + "\nprune R;"))
    assert json.loads(render(report, "json"))["records"] == [want]


def test_diagram_budget_is_checked_on_declared_and_preloaded_diagrams(monkeypatch):
    small = DEFAULT_BUDGETS.bumped(diagram=2)
    report = run(parse("diagram D { [u, v], [w] : w -> u };"), small)
    assert report.exit_code == 2
    assert report.records[-1]["detail"].startswith("diagram budget exceeded: 3 > 2")
    d = oracles.desc_diagram(Relation.make(range(2), [(1, 0)]), 3, with_base=True)
    monkeypatch.setattr(dsl, "prune_sequence", lambda *a: pytest.fail("pruned first"))
    report = run(parse("prune D;"), small, named={"D": ("diagram", d)})
    assert report.exit_code == 2
    assert report.records[-1]["error"] == "budget"


def test_render_formats():
    report = run(parse("prove {} |- {1};"))
    text = render(report, "text")
    assert text.startswith("== prove ok")
    data = json.loads(render(report, "json"))
    assert data["schema"] == 1 and data["records"][0]["derivable"]
    with pytest.raises(DomainError):
        render(report, "dot")  # no graph-shaped record
    with pytest.raises(DomainError):
        render(report, "yaml")


def test_dot_render_extracts_graphs():
    report = run(parse("lattice L = chain 3;\ndissolve L;"))
    dot = render(report, "dot")
    assert dot.startswith("digraph dissolved")


def test_empty_script():
    assert parse("") == Script(())
    assert render(run(parse("")), "text") == ""
