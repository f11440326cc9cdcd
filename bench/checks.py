"""Compare worker outputs with the oracles; each check returns problems.

An empty list means every output agreed with the benchmark's own
computation.  Operations the worker reported as failed are not checked
here: ``correct`` speaks of the operations that did not fail.
"""

from __future__ import annotations

import json
import os

import oracles as orc


def check_kernel(ops: list, outs: list) -> list[str]:
    bad = []
    for k, (op, out) in enumerate(zip(ops, outs)):
        if not out["roundtrip"]:
            if not op.get("shaped"):
                bad.append(f"kernel op {k}: JSON round trip changed the object")
            continue
        if op["kind"] == "powerset":
            n = len(op["points"])
            want = {"size": 2 ** n, "kind": "boolean",
                    "ji": sorted(([p] for p in op["points"]), key=repr)}
        else:
            p = op["poset"]
            want = {
                "size": orc.poset_count_down_sets(p),
                "kind": "boolean" if orc.is_antichain(p) else "distributive",
                "ji": sorted((orc.canon(s) for s in orc.principal_down_sets(p)), key=repr),
            }
        want.update(rep_size=want["size"], unit_bijective=True, iso=True,
                    homs=orc.count_monotone_maps(op["homs"][1], op["homs"][0]))
        for key, val in want.items():
            if out[key] != val:
                bad.append(f"kernel op {k}: {key} = {out[key]!r}, expected {val!r}")
    return bad


def check_engines(ops: list, outs: list) -> list[str]:
    bad = []
    for k, (op, out) in enumerate(zip(ops, outs)):
        family = orc.poset_down_sets(op["poset"])
        free = 2 ** orc.join_irreducible_count(family)
        pp, pr = op["polyposet"], op["presentation"]
        want = {
            "dissolve_size": free,
            "dissolve_kind": "boolean",
            "congruences": free,
            "polyorder": sorted(list(p) for p in orc.polyorder_table(pp["carrier"], pp["gens"])),
            "realize_size": orc.presented_size(pr["gens"], pr["rels"], pr["kind"]),
        }
        if op["coverage"] is not None:
            gens = [(frozenset(a), [frozenset(c) for c in cs]) for a, cs in op["coverage"]]
            want["ideals"] = orc.cover_ideal_count(family, gens)
        for key, val in want.items():
            if out[key] != val:
                bad.append(f"engines op {k}: {key} = {out[key]!r}, expected {val!r}")
    return bad


def check_proof(ops: list, outs: list) -> list[str]:
    bad = []
    for k, (op, out) in enumerate(zip(ops, outs)):
        for j, (s, r) in enumerate(zip(op["sequents"], out["results"])):
            where = f"proof op {k} sequent {j}"
            left, right = s["left"], s["right"]
            if r["derivable"] != orc.seq_valid(left, right):
                bad.append(f"{where}: derivable = {r['derivable']}, truth table disagrees")
                continue
            if not r["derivable"]:
                v = r["countermodel"]
                if not (all(orc.seq_eval(t, v) for t in left) and not any(orc.seq_eval(t, v) for t in right)):
                    bad.append(f"{where}: countermodel does not falsify the sequent")
                continue
            i = r["interpolant"]
            shared = set().union(*map(orc.seq_vars, left)) & set().union(*map(orc.seq_vars, right))
            if not orc.seq_vars(i) <= shared:
                bad.append(f"{where}: interpolant uses generators outside {sorted(shared)}")
            elif not (orc.seq_valid(left, [i]) and orc.seq_valid([i], right)):
                bad.append(f"{where}: an interpolation obligation is not valid")
    return bad


# -- cli ----------------------------------------------------------------------


def _text_records(text: str) -> list[dict]:
    """Records of the text rendering: '== kind ok' and '  key: value' lines."""
    recs = []
    for line in text.splitlines():
        if line.startswith("== "):
            kind, status = line[3:].rsplit(" ", 1)
            recs.append({"kind": kind, "ok": status == "ok"})
        elif line.startswith("  ") and not line.startswith("    ") and ": " in line and recs:
            key, val = line[2:].split(": ", 1)
            recs[-1][key] = val
    return recs


def _text_value(key: str, val: str):
    if key == "derivable":
        return val == "True"
    if key == "points":
        return [p for p in val.split(", ") if p]
    if key == "shared_generators":
        return [g for g in val.split(", ") if g]
    return int(val)


def _dot_graphs(text: str) -> int:
    """Number of well-formed 'digraph name { ... }' blocks."""
    n, depth = 0, 0
    for line in text.splitlines():
        if line.startswith("digraph ") and line.endswith("{"):
            if depth:
                return -1
            depth = 1
        elif line == "}":
            if not depth:
                return -1
            depth, n = 0, n + 1
    return -1 if depth else n


def schema_validator(src_dir: str):
    import jsonschema

    with open(os.path.join(src_dir, "localix", "schemas", "report.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def check_cli_output(op: dict, out: dict, validator) -> list[str]:
    where = f"cli {' '.join(op['argv'])}"
    if out["code"] != 0:
        return [f"{where}: exit code {out['code']}: {out['stderr'][-300:]}"]
    text = out["stdout"]
    if op["format"] == "dot":
        got = _dot_graphs(text)
        return [] if got == op["graphs"] else [f"{where}: {got} DOT graphs, expected {op['graphs']}"]
    if op["format"] == "json":
        doc = json.loads(text)
        errors = [e.message for e in validator.iter_errors(doc)]
        if errors:
            return [f"{where}: schema: {errors[0]}"]
        records = doc["records"]
    else:
        records = _text_records(text)
    facts = op["facts"]
    if [r["kind"] for r in records] != [f["kind"] for f in facts]:
        return [f"{where}: record kinds {[r['kind'] for r in records]}"]
    bad = []
    for r, f in zip(records, facts):
        if not r["ok"] and r["kind"] != "prove":
            bad.append(f"{where}: {r['kind']} record not ok")
        for key, want in f.items():
            if key == "kind":
                continue
            got = r.get(key)
            if op["format"] == "text" and isinstance(got, str):
                got = _text_value(key, got)
            if key == "base_irreducibles":
                size = r["result_size"]
                if op["format"] == "text":
                    size = int(size)
                if size != 2 ** want:
                    bad.append(f"{where}: dissolve result_size {size} != 2^{want}")
            if got != want:
                bad.append(f"{where}: {r['kind']} {key} = {got!r}, expected {want!r}")
    return bad


def check_cli(ops: list, outs: list, src_dir: str) -> list[str]:
    validator = schema_validator(src_dir)
    bad = []
    for out in outs:
        bad += check_cli_output(ops[out["op"]], out, validator)
    return bad
