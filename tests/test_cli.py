import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from localix.cli import main
from localix.lattice import FinLattice
from localix.order import FinPoset

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (pathlib.Path(__file__).parents[1] / "src/localix/schemas/report.schema.json").read_text()
)
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def invoke(argv, stdin_text=None):
    buf = io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old
    return code, buf.getvalue()


@pytest.mark.parametrize(
    "case", MANIFEST["cases"], ids=[c["name"] for c in MANIFEST["cases"]]
)
def test_golden(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    stdin_text = None
    if "stdin" in case:
        stdin_text = (GOLDEN / case["stdin"]).read_text()
    code, out = invoke(case["argv"], stdin_text)
    assert code == case["exit"]
    expected = (GOLDEN / (case["name"] + ".out")).read_text()
    assert out == expected
    if "json" in case["argv"]:
        jsonschema.validate(json.loads(out), SCHEMA)


def test_all_subcommands_have_golden_coverage():
    commands = {
        "run", "prove", "interp", "dissolve", "baire", "prune", "spec",
        "image", "selftest",
    }
    seen = set()
    for case in MANIFEST["cases"]:
        seen.add(next(a for a in case["argv"] if a in commands))
    assert seen == commands


def test_parse_error_reports_position():
    code, out = invoke(["prove", "{x |- {x}"])
    assert code == 2
    assert out == "parse error at line 1, col 10: found '|-', expected '}'\n"


def test_missing_file_is_input_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = invoke(["run", "no_such_file.lx"])
    assert code == 2
    assert out.startswith("input error:")


def test_dot_without_graph_is_usage_error():
    code, out = invoke(["--format", "dot", "prove", "{x} |- {x}"])
    assert code == 2
    assert out.startswith("usage error:")


def test_strict_flag_changes_exit_only():
    lax_code, lax_out = invoke(["prove", "{x} |- {y}"])
    strict_code, strict_out = invoke(["--strict", "prove", "{x} |- {y}"])
    assert (lax_code, strict_code) == (0, 1)
    assert lax_out == strict_out


def test_selftest_is_seed_deterministic():
    a = invoke(["--format", "json", "--seed", "3", "selftest"])
    b = invoke(["--format", "json", "--seed", "3", "selftest"])
    c = invoke(["--format", "json", "--seed", "4", "selftest"])
    assert a == b
    assert a != c
    data = json.loads(a[1])
    assert data["records"][0]["kind"] == "selftest"
    assert all(r["ok"] for r in data["records"])


def test_budget_flags_lift_limits(monkeypatch):
    code, out = invoke(
        ["--budget-carrier", "3", "prune", "--carrier", "0,1,2,3", "--edges", ""]
    )
    assert code == 0  # prune does not consume the carrier budget
    wide = "lattice L = bool 3;\ncoverage C on L { };\nideals C;"
    code, _ = invoke(["run", "-"], stdin_text=wide)
    assert code == 2  # 8-element base exceeds the default carrier budget
    code, out = invoke(["--budget-carrier", "8", "run", "-"], stdin_text=wide)
    assert code == 0
    monkeypatch.setenv("LOCALIX_BUDGETS", "carrier=8")
    code, _ = invoke(["run", "-"], stdin_text=wide)
    assert code == 0


@pytest.mark.parametrize("raw", ["gens=x", "bogus=3", "gens"])
def test_malformed_budget_environment_is_an_input_error(raw, monkeypatch):
    monkeypatch.setenv("LOCALIX_BUDGETS", raw)
    code, out = invoke(["prove", "{x} |- {x}"])
    assert code == 2
    assert out.startswith("input error: ") and "LOCALIX_BUDGETS" in out


def test_unsafe_budgets_reach_the_interpolation_re_proofs():
    code, out = invoke([
        "--unsafe-budgets", "interp", "--left", "a,b,c,d,e,f,g,h", "--right", "a,h",
        "{a & b & c & d & e & f & g & h} |- {a | h}",
    ])
    assert code == 0
    assert "  interpolant: a\n" in out


def test_every_json_golden_validates():
    count = 0
    for case in MANIFEST["cases"]:
        if "json" not in case["argv"]:
            continue
        data = json.loads((GOLDEN / (case["name"] + ".out")).read_text())
        jsonschema.validate(data, SCHEMA)
        count += 1
    assert count >= 5


def test_manifest_has_twenty_cases():
    assert len(MANIFEST["cases"]) == 20
    assert len({c["name"] for c in MANIFEST["cases"]}) == 20


def test_dissolve_past_the_elements_budget_exits_at_once():
    # 512 result elements with 512 pair-set columns each
    code, out = invoke(["run", "-"], stdin_text="lattice B = bool 9;\ndissolve B;")
    assert code == 2
    assert "elements budget exceeded: 262144 > 4096" in out


def test_unsafe_budgets_still_dissolve_seven_atoms():
    code, out = invoke(["--unsafe-budgets", "dissolve", "--bool", "7"])
    assert code == 0
    assert "  result_size: 128\n" in out


def test_realize_draws_covers_without_the_element_poset(monkeypatch):
    # 887 elements; the record carries the DOT of the lattice in every format
    def refuse(*args):
        raise AssertionError("the DOT of a lattice needs no element poset")

    monkeypatch.setattr(FinPoset, "cover_pairs", refuse)
    monkeypatch.setattr(FinLattice, "element_poset", refuse)
    for fmt in ("text", "json", "dot"):
        code, out = invoke(["--format", fmt, "run", "-"], "gens a b c d e;\nrel a <= b;\nrealize;\n")
        assert code == 0, out
        assert "size: 887" in out if fmt == "text" else out.count(" -> ") > 887


# The proof goldens, and the script goldens that prove and interpolate.
SET_ORDER_CASES = ["prove_ok", "prove_counter_json", "interp", "run_full_text", "run_full_json"]
SET_ORDER_RUNNER = """
import contextlib, io, json, sys
from localix.sequent import join_t, meet_t, nvar, var
decoys = [meet_t([var(("decoy", i)), nvar(("decoy", i + 1))]) for i in range(int(sys.argv[1]))]
decoys += [join_t([t, var(i)]) for i, t in enumerate(decoys)]
from localix.cli import main
outs = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    outs.append([code, buf.getvalue()])
print(json.dumps(outs))
"""


def test_proof_output_does_not_depend_on_set_order():
    # Terms hash by identity, so set order follows memory addresses: two
    # fresh interpreters with different hash seeds, one of which interns
    # 1,500 decoy terms first, must print the goldens byte for byte.
    cases = [c for c in MANIFEST["cases"] if c["name"] in SET_ORDER_CASES]
    assert len(cases) == len(SET_ORDER_CASES)
    src = str(pathlib.Path(__file__).parents[1] / "src")
    argvs = json.dumps([c["argv"] for c in cases])
    for seed, decoys in (("1", 0), ("2718", 300)):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", SET_ORDER_RUNNER, str(decoys), argvs],
            cwd=GOLDEN, env=env, capture_output=True, text=True, check=True,
        )
        for case, (code, text) in zip(cases, json.loads(out.stdout)):
            assert code == case["exit"]
            assert text == (GOLDEN / (case["name"] + ".out")).read_text(), case["name"]


@pytest.mark.parametrize(
    "text", ['{"levels": [[1]]}', "[1, 2]", "levels: 1"], ids=["unpaired level", "list", "not json"]
)
def test_prune_reports_malformed_diagram_json_as_input_error(text, tmp_path):
    path = tmp_path / "diagram.json"
    path.write_text(text)
    code, out = invoke(["prune", "--diagram", str(path)])
    assert code == 2
    assert out.startswith("input error: malformed diagram JSON: ")


def test_prune_diagram_parses_the_file_once(monkeypatch):
    loads, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(text) or loads(text, **kw))
    monkeypatch.chdir(GOLDEN)
    code, out = invoke(["prune", "--diagram", "diagram.json"])
    assert code == 0 and len(calls) == 1


def test_prune_diagram_dot_escapes_quotes_and_backslashes(tmp_path):
    # the labels a"b and c\ inside a quoted DOT string, and an index label
    # holding a quote as a node name
    data = {
        "kind": "finite",
        "complete": True,
        "index": {"elements": ['i"0', "i1"], "pairs": [['i"0', "i1"]]},
        "succ": [['i"0', "i1"]],
        "levels": [['i"0', ['a"b', "e"]], ["i1", ["c\\"]]],
        "maps": [["i1", 'i"0', [["c\\", 'a"b']]]],
        "base": None,
    }
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(data))
    code, out = invoke(["--format", "dot", "prune", "--diagram", str(path)])
    assert code == 0
    assert out == (
        'digraph pruned {\n  rankdir=TB;\n  "i\\"0" [label="i\\"0: {a\\"b}"];\n'
        '  "i1" [label="i1: {c\\\\}"];\n  "i1" -> "i\\"0";\n}\n'
    )
