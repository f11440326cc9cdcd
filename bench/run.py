"""Benchmark for localix: one command, four workloads, one JSON line.

    python3 bench/run.py --workload kernel|engines|proof|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.
The seeded inputs are generated here (``inputs.py``), a fresh worker
process runs them (``worker.py``), and the outputs are checked here
against the oracles (``checks.py``, ``oracles.py``), which never import
localix.  The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the worker wraps the package's public functions and the
metrics are per-layer.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402

MIN_SAMPLES = 100  # timed operations a run: ten lie beyond the p90
SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170  # the whole run, set-up included
OUT_DIR = ".bench_out"
WORKER_HASH_SEED = "0"  # set iteration order steers closure loops

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import localix; "
    "print(time.perf_counter() - t)"
)

# per-layer metric -> how it is read from the span summary
SELF_MS = [
    "order.FinPoset", "order.lower_sets_of",
    "lattice.FinLattice", "lattice.LatticeHom", "lattice.join_irreducibles",
    "lattice.enumerate_homs", "lattice.json",
    "dissolution.dissolve",
    "congruence.enumerate_order_congruences", "congruence.OrderCongruence",
    "posite.saturate_coverage", "posite.cov_ideals", "posite.saturate_polyposet",
    "presented.spec", "presented.realize",
    "sequent.prove", "interp.interpolate_sequent",
    "dsl.parse", "dsl.run", "dsl.render",
]
CALLS = ["lattice.FinLattice", "dissolution.dissolve", "sequent.prove"]
MODULE_SELF_MS = ["baire", "pruning"]
COUNTS = ["lattice.elements_built", "dissolution.engines_cached", "congruence.tables_cached",
          "sequent.interned_terms"]


def setup_seconds(env: dict) -> float:
    """``import localix`` in fresh interpreters: the median, in reference
    seconds, each sample scaled by the calibration runs around it."""
    seconds, cal = [], [calibration.calibrate()]
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        seconds.append(float(out.stdout))
        cal.append(calibration.calibrate())
    return statistics.median(calibration.to_reference(t, (cal[i] + cal[i + 1]) / 2)
                             for i, t in enumerate(seconds))


def import_breakdown(env: dict) -> tuple[float, float]:
    """Cumulative import reference ms of localix and of numpy, from -X importtime."""
    cal = calibration.calibrate()
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import localix"], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    cum = {}
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
        if parts[2] in ("localix", "numpy") and parts[1].isdigit():
            cum[parts[2]] = calibration.to_reference(int(parts[1]) / 1000, cal)
    return cum.get("localix", 0.0), cum.get("numpy", 0.0)


def layer_metrics(summaries: list[dict], ops: int, scale: float) -> dict:
    """Per-operation means of the span summaries of one run; times are
    multiplied by ``scale``."""
    total = {"self_ms": {}, "calls": {}, "module_self_ms": {}, "counts": {}}
    for s in summaries:
        for part, acc in total.items():
            for k, v in s.get(part, {}).items():
                acc[k] = acc.get(k, 0) + v
    m = {}
    for key in SELF_MS:
        m[f"{key}.self_ms"] = (total["self_ms"].get(key, 0.0) * scale / ops, "ms")
    for key in CALLS:
        m[f"{key}.calls"] = (total["calls"].get(key, 0) / ops, "count")
    for mod in MODULE_SELF_MS:
        m[f"{mod}.self_ms"] = (total["module_self_ms"].get(mod, 0.0) * scale / ops, "ms")
    for key in COUNTS:
        m[key] = (total["counts"].get(key, 0) / ops, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "localix", "__init__.py")):
        print(f"error: no localix package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    broken = oracles.self_check()
    if broken:
        print("error: benchmark oracles disagree with known values:", *broken, sep="\n  ", file=sys.stderr)
        return 3

    work = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=WORKER_HASH_SEED)

    ops = inputs.WORKLOADS[args.workload](args.seed)
    in_path, out_path = os.path.join(work, "inputs.json"), os.path.join(work, "result.json")
    with open(in_path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)

    metrics: dict = {}
    if args.trace:
        samples = [import_breakdown(env) for _ in range(IMPORTTIME_SAMPLES)]
        metrics["cli.import_ms"] = (statistics.median(s[0] for s in samples), "ms")
        metrics["cli.import_numpy_ms"] = (statistics.median(s[1] for s in samples), "ms")
    else:
        setup_s = setup_seconds(env)

    # The worker leads a process group of its own, so that a worker
    # stopped at the deadline takes its localix processes with it.
    budget = DEADLINE_S - (time.perf_counter() - started)
    min_rounds = math.ceil(MIN_SAMPLES / len(ops))
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, in_path, out_path,
         str(args.seconds), str(min_rounds), str(args.trace)],
        env=env, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: worker still running after {DEADLINE_S} s", file=sys.stderr)
            return 4
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}\n{err[-3000:]}", file=sys.stderr)
        return 4
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)

    if args.workload == "cli":
        problems = checks.check_cli(ops, res["outputs"], src)
    else:
        check = {"kernel": checks.check_kernel, "engines": checks.check_engines,
                 "proof": checks.check_proof}[args.workload]
        problems = check(ops, res["outputs"])
    if res["mismatches"]:
        problems.append(f"{res['mismatches']} timed outputs differ from the checked round")
    for p in problems[:20]:
        print("check failed:", p, file=sys.stderr)

    # times in reference ms, one per timed operation, each scaled by the
    # mean of the calibration runs just before and just after it
    cal = res["calibration_ms"]
    ref = [calibration.to_reference(t, (cal[i] + cal[i + 1]) / 2) for i, t in enumerate(res["latencies_ms"])]
    attempted, failed = len(ref), res["failed"]
    ops_per_s = (attempted - failed) / (sum(ref) / 1000)
    if args.trace:
        summaries = res["cli_traces"] if args.workload == "cli" else [res["trace"]]
        host_ms = statistics.median(res["calibration_ms"])
        metrics.update(layer_metrics(summaries, attempted, calibration.to_reference(1.0, host_ms)))
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        metrics["host.calibration_ms"] = (host_ms, "ms")
    else:
        metrics.update({
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(ref), "ms"),
            "latency_p90_ms": (statistics.quantiles(ref, n=10)[-1], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
        })
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
