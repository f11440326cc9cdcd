"""Run one workload in a fresh process and write its raw results.

Usage (from ``run.py``; PYTHONPATH must point at the checkout's src):

    python3 bench/worker.py WORKLOAD INPUTS.json OUT.json SECONDS MIN_ROUNDS TRACE

In-process workloads (kernel, engines, proof) first run one untimed
round whose outputs the parent checks with its oracles; the timed
rounds follow, and each timed output must equal the untimed one.  The
cli workload starts one ``localix`` process per operation and returns
every output.  Only the call into the program is timed; a full garbage
collection, output extraction and cache resets happen between
operations, outside the timed region, and so do the calibration runs
(``calibration.py``): one before each timed operation and one after the
last, so each operation lies between two.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time

import spans
from calibration import calibrate
from oracles import canon, seq_vars

HERE = os.path.dirname(os.path.abspath(__file__))


# -- kernel -------------------------------------------------------------------


def _poset(order, p: dict, rename=None):
    f = rename or (lambda x: x)
    return order.FinPoset([f(e) for e in p["elements"]], [(f(a), f(b)) for a, b in p["pairs"]])


def kernel_compute(op: dict, L):
    order, lattice = L.order, L.lattice
    rename = lambda x: f"r{x}"  # noqa: E731
    if op["kind"] == "powerset":
        lat = lattice.powerset_lattice(op["points"])
        copy = lattice.powerset_lattice([rename(x) for x in op["points"]])
        poset = lat.spectrum
    else:
        poset = _poset(order, op["poset"])
        lat = lattice.lower_sets(poset)
        copy = lattice.lower_sets(_poset(order, op["poset"], rename))
    ji = lattice.join_irreducibles(lat)
    rep, unit = lattice.birkhoff_embedding(lat)
    iso = lattice.lattice_isomorphic(lat, copy)
    a, b = op["homs"]
    homs = lattice.enumerate_homs(lattice.lower_sets(_poset(order, a)), lattice.lower_sets(_poset(order, b)))
    poset_back = order.FinPoset.from_json(poset.to_json())
    lat_back = lattice.FinLattice.from_json(lat.to_json())
    return poset, lat, ji, rep, unit, iso, homs, poset_back, lat_back


def kernel_extract(res, op: dict) -> tuple[dict, bool]:
    poset, lat, ji, rep, unit, iso, homs, poset_back, lat_back = res
    rt = poset_back == poset and lat_back == lat
    return {
        "size": len(lat),
        "kind": lat.kind,
        "ji": sorted((canon(e) for e in ji.elements), key=repr),
        "rep_size": len(rep),
        "unit_bijective": unit.is_injective() and unit.is_surjective(),
        "iso": iso,
        "homs": len(homs),
        "roundtrip": rt,
    }, not rt


# -- engines ------------------------------------------------------------------


def engines_compute(op: dict, L):
    order, lattice, posite, presented = L.order, L.lattice, L.posite, L.presented
    lat = lattice.lower_sets(_poset(order, op["poset"]))
    diss = L.dissolution.dissolve(lat)
    congs = L.congruence.enumerate_order_congruences(lat)
    ideals = None
    if op["coverage"] is not None:
        gens = [(frozenset(a), [frozenset(c) for c in cs]) for a, cs in op["coverage"]]
        ideals, _ = posite.cov_ideals(posite.saturate_coverage(lat, gens))
    pp = op["polyposet"]
    poly = posite.saturate_polyposet(pp["carrier"], [(tuple(l), tuple(r)) for l, r in pp["gens"]])
    pr = op["presentation"]
    pres = presented.Presentation(
        tuple(pr["gens"]), tuple((_pres_term(l), _pres_term(r)) for l, r in pr["rels"]), pr["kind"]
    )
    realized, _ = presented.realize(pres)
    return diss, congs, ideals, poly, realized


def _pres_term(t) -> tuple:
    return tuple(_pres_term(s) if isinstance(s, list) else s for s in t)


def engines_extract(res, op: dict) -> tuple[dict, bool]:
    diss, congs, ideals, poly, realized = res
    carrier = op["polyposet"]["carrier"]
    n = len(carrier)
    subset = lambda m: [carrier[i] for i in range(n) if m >> i & 1]  # noqa: E731
    holds = sorted(
        [lm, rm] for lm in range(1 << n) for rm in range(1 << n) if poly.holds(subset(lm), subset(rm))
    )
    return {
        "dissolve_size": len(diss.result),
        "dissolve_kind": diss.result.kind,
        "congruences": len(congs),
        "ideals": None if ideals is None else len(ideals),
        "polyorder": holds,
        "realize_size": len(realized),
        "realize_kind": realized.kind,
    }, False


ENGINE_CACHES = (("dissolution", "_ENGINES"), ("congruence", "_TABLE_CACHE"))


def engines_reset(L) -> None:
    """Per-lattice caches live for one operation only."""
    for mod, attr in ENGINE_CACHES:
        cache = getattr(getattr(L, mod), attr, None)
        if cache is not None:
            cache.clear()


# -- proof --------------------------------------------------------------------


def _seq_term(sq, t):
    if t[0] == "pos":
        return sq.var(t[1])
    if t[0] == "neg":
        return sq.nvar(t[1])
    mk = sq.meet_t if t[0] == "meet" else sq.join_t
    return mk(_seq_term(sq, c) for c in t[1])


def proof_compute(op: dict, L):
    sq, interp = L.sequent, L.interp
    out = []
    for s in op["sequents"]:
        seq = sq.Sequent(
            frozenset(_seq_term(sq, t) for t in s["left"]),
            frozenset(_seq_term(sq, t) for t in s["right"]),
        )
        res = sq.prove(seq)
        interpolant = None
        if res.derivable:
            lv = set().union(*map(seq_vars, s["left"]))
            rv = set().union(*map(seq_vars, s["right"]))
            interpolant, _ = interp.interpolate_sequent(seq, lv, rv)
        out.append((res, interpolant))
    return out


def _plain_term(t) -> list:
    if t.kind in ("pos", "neg"):
        return [t.kind, t.gen]
    return [t.kind, sorted((_plain_term(c) for c in t.children), key=repr)]


def proof_extract(res, op: dict) -> tuple[dict, bool]:
    return {
        "results": [
            {
                "derivable": r.derivable,
                "countermodel": r.countermodel,
                "interpolant": None if i is None else _plain_term(i),
            }
            for r, i in res
        ]
    }, False


# -- in-process runs ------------------------------------------------------------


class Localix:
    """The traced modules, looked up after tracing is installed."""

    def __init__(self):
        import importlib

        for name in ("order", "lattice", "congruence", "dissolution", "posite",
                     "presented", "sequent", "interp"):
            setattr(self, name, importlib.import_module(f"localix.{name}"))


IN_PROCESS = {
    "kernel": (kernel_compute, kernel_extract, None),
    "engines": (engines_compute, engines_extract, engines_reset),
    "proof": (proof_compute, proof_extract, None),
}


def run_in_process(workload: str, ops: list, seconds: float, min_rounds: int, spans_path) -> dict:
    """Time whole rounds of ``ops``; trace them when ``spans_path`` is set."""
    compute, extract, reset = IN_PROCESS[workload]
    L = Localix()
    tracer = None

    def one(op):
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter()
        res = compute(op, L)
        dt = time.perf_counter() - t0
        out, failed = extract(res, op)
        del res
        if tracer is not None:
            spans.count_caches(tracer)
        if reset is not None:
            reset(L)
        return dt, cal, out, failed

    first = [one(op)[2] for op in ops]
    if spans_path is not None:
        tracer = spans.install()
    lat, cals, failed, mismatches = [], [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(lat) < min_rounds * len(ops):
        for k, op in enumerate(ops):
            dt, cal, out, bad = one(op)
            lat.append(dt * 1000)
            cals.append(cal)
            failed += bad
            mismatches += out != first[k]
    gc.collect()
    cals.append(calibrate())
    result = {
        "outputs": first,
        "latencies_ms": lat,
        "calibration_ms": cals,
        "failed": failed,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    return result


# -- cli ----------------------------------------------------------------------


def run_cli(ops: list, workdir: str, seconds: float, min_rounds: int, trace_dir) -> dict:
    for op in ops:
        if "script" in op:
            name, text = op["script"]
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def argv_of(k: int, op: dict) -> list:
        if trace_dir is None:
            return [sys.executable, "-m", "localix.cli", *op["argv"]]
        return [sys.executable, os.path.join(HERE, "traced_cli.py"),
                os.path.join(trace_dir, f"cli{k}.json"), *op["argv"]]

    def one(k: int, op: dict):
        cal = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(argv_of(k, op), cwd=workdir, capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t0, cal, proc

    one(0, ops[0])  # warm the file cache; not timed
    lat, cals, outputs, failed = [], [], [], 0
    traces: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(lat) < min_rounds * len(ops):
        for k, op in enumerate(ops):
            dt, cal, proc = one(k, op)
            lat.append(dt * 1000)
            cals.append(cal)
            failed += proc.returncode != 0
            outputs.append({"op": k, "code": proc.returncode, "stdout": proc.stdout,
                            "stderr": proc.stderr[-2000:]})
            if trace_dir is not None:
                with open(os.path.join(trace_dir, f"cli{k}.json"), encoding="utf-8") as fh:
                    traces.append(json.load(fh))
    cals.append(calibrate())
    return {
        "outputs": outputs,
        "latencies_ms": lat,
        "calibration_ms": cals,
        "failed": failed,
        "mismatches": 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cli_traces": traces,
    }


def main(argv: list) -> int:
    workload, inputs_path, out_path, seconds, min_rounds, trace = argv
    seconds, min_rounds, trace = float(seconds), int(min_rounds), trace == "1"
    with open(inputs_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    workdir = os.path.dirname(os.path.abspath(out_path))
    if workload == "cli":
        result = run_cli(ops, workdir, seconds, min_rounds, workdir if trace else None)
    else:
        spans_path = os.path.join(workdir, "spans.tsv") if trace else None
        result = run_in_process(workload, ops, seconds, min_rounds, spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
