"""rankprobe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stage_ladder --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics from
a traced run.  Full records (every sample, spans, provenance) go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.

A plain run spawns fresh workload processes one after another: a few
that only import the library (set-up samples), then ``WORKERS`` that each
run one cold experiment and then warm ones.  The warm phase lasts
``--seconds`` in total and has at least ``MIN_WARM`` experiments, so the
tail percentile always has ten samples beyond it.  Each run also spawns
the workload's CLI twin once and checks its stdout hash.  Everything is
closed-loop with one client: one single-threaded process at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clock

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("stage_ladder", "publish_drain", "encode_roundtrip", "entropy_triangulate")
IMPORT_SAMPLES = 3  # import-only spawns; the workers add one set-up sample each
WORKERS = 3  # fresh processes per plain run, one cold sample each
MIN_WARM = 15  # warm samples per plain run; a tail percentile needs ten beyond it
MIN_PAIRS = 3  # untraced/traced pairs per traced run
TIMEOUT_S = 20.0  # one experiment
TWIN_TIMEOUT_S = 30.0
IMPORT_TIMEOUT_S = 10.0
RUN_BUDGET_S = 150.0  # workers get what is left of it, so a run ends within 180 s

# sha256 of each CLI twin's stdout at seed 0, frozen from the seed commit.
TWIN_SHA256 = {
    "stage_ladder": "54011c8c9c2a085118653d791f7d57594da8268aeda9c2e9b4b719e80e63f9ac",
    "publish_drain": "fcbab375cfb3eba3621a9b05fbcfe250988265f97c1417a31413c422f2d878bd",
    "encode_roundtrip": "698ba03a8e5e4f705a51b8aa78d8018aaa7f79b8010005828fc010d1d9c1f8ae",
    "entropy_triangulate": "4496ca6c60ca71ac70e1395dfcfb67f1fee17e11fcd7f1be198f8b8d0e1f8999",
}
TWIN_ARGS = {
    "stage_ladder": ["tradeoff", "--n", "1048576", "--t", "4"],
    "publish_drain": ["eliminate", "--n", "65536", "--structure", "recursive", "--t", "4"],
    "encode_roundtrip": ["encode", "--n", "65536", "--k", "16"],
    "entropy_triangulate": ["entropy", "--n", "18", "--k", "4", "--delta", "2"],
}

END_TO_END = {
    "setup_s": "s",
    "cold_experiment_s": "s",
    "experiment_p50_s": "s",
    "experiment_tail_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "1",
}

# name -> (unit, how, argument).  "sum": median over traced warm
# experiments of the span's total time in one experiment.  "call": median
# duration of one call.  "cold": the span's time in the cold experiment.
# "count": the measurement at the run's seed.  "peak": tracemalloc peak.
# "cli": the CLI twin's time.  "overhead": median of traced over untraced per pair.
PER_LAYER = {
    "bits.random_s": ("s/call", "call", "bits.random"),
    "bits.rpl1_s": ("s", "sum", "bits.rpl1"),
    "structures.build_s": ("s/call", "call", "structures.build"),
    "structures.stats.t1_s": ("s", "sum", "structures.stats.t1"),
    "structures.stats.t2_s": ("s", "sum", "structures.stats.t2"),
    "structures.stats.t3_s": ("s", "sum", "structures.stats.t3"),
    "structures.stats.t4_s": ("s", "sum", "structures.stats.t4"),
    "structures.rank_us": ("us/call", "call", "structures.rank"),
    "model.footprint_s": ("s", "sum", "model.footprint"),
    "model.replay_s": ("s", "sum", "model.replay"),
    "model.charged_probes": ("count", "count", "model.charged_probes"),
    "model.footprint_cells": ("count", "count", "model.footprint_cells"),
    "elimination.run_s": ("s", "sum", "elimination.run"),
    "elimination.rounds": ("count", "count", "elimination.rounds"),
    "elimination.published_cells": ("count", "count", "elimination.published_cells"),
    "encoding.choose_offset_s": ("s", "sum", "encoding.choose_offset"),
    "encoding.encode_s": ("s", "sum", "encoding.encode"),
    "encoding.encode_cold_s": ("s", "cold", "encoding.encode"),
    "encoding.decode_s": ("s", "sum", "encoding.decode"),
    "encoding.rpe1_s": ("s", "sum", "encoding.rpe1"),
    "encoding.record_bits": ("count", "count", "encoding.record_bits"),
    "entropy.analytic_s": ("s", "sum", "entropy.analytic"),
    "entropy.enumerate_s": ("s", "sum", "entropy.enumerate"),
    "entropy.montecarlo_s": ("s", "sum", "entropy.montecarlo"),
    "entropy.enumerate_peak_mib": ("MiB", "peak", "entropy.enumerate"),
    "entropy.montecarlo_peak_mib": ("MiB", "peak", "entropy.montecarlo"),
    "cli.wall_s": ("s", "cli", None),
    "trace.overhead_ratio": ("1", "overhead", None),
}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(argv, timeout):
    """Run worker.py to completion.  Returns (set-up wall seconds or None,
    the worker's JSON result or None, peak RSS in MiB).  The child is
    reaped with wait4, so the RSS is that process's own, not a maximum
    over every child so far."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        setup = time.perf_counter() - start if proc.stdout.readline() == b"ready\n" else None
        tail = proc.stdout.read().decode().strip().splitlines()
    finally:
        killer.cancel()
        killer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = json.loads(tail[-1]) if proc.returncode == 0 and tail else None
    return setup, result, usage.ru_maxrss / 1024.0


def run_twin(workload):
    """Spawn the workload's CLI twin at seed 0: (reference seconds, stdout
    sha256, hash ok)."""
    cal = clock.calibrate()
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rankprobe.cli", *TWIN_ARGS[workload], "--seed", "0"],
            capture_output=True,
            env=child_env(),
            cwd=ROOT,
            timeout=TWIN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return clock.reference_seconds(time.perf_counter() - start, cal, workload), None, False
    wall = clock.reference_seconds(time.perf_counter() - start, cal, workload)
    digest = hashlib.sha256(done.stdout).hexdigest()
    return wall, digest, done.returncode == 0 and digest == TWIN_SHA256[workload]


def reference_s(workload, record, wall=None):
    """`wall` (by default the record's own) in reference seconds, using
    the calibrations just before and just after the record's experiment."""
    cal = (record["cal_before"] + record.get("cal_after", record["cal_before"])) / 2
    return clock.reference_seconds(record["wall"] if wall is None else wall, cal, workload)


def tail_of(samples):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  With fewer than 11 samples no
    percentile qualifies and the maximum is returned as p100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def provenance(workload, seed, trace):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rankprobe").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def plain_run(workload, seed, seconds, deadline):
    """Set-up samples from every spawn; one cold and several warm
    experiments from each of WORKERS fresh processes."""
    run = {"setup_s": [], "cold_s": [], "warm_s": [], "peak_rss_mib": [], "records": [], "numpy": None}
    for _ in range(IMPORT_SAMPLES):
        run["setup_s"].append(spawn_worker(["--mode", "import"], IMPORT_TIMEOUT_S)[0])
    for j in range(WORKERS):
        budget = (deadline - time.perf_counter()) / (WORKERS - j)
        index = seed + len(run["records"])
        argv = [
            "--mode", "plain", "--workload", workload, "--seed", str(index),
            "--warm-seconds", str(seconds / WORKERS),
            "--min-warm", str(math.ceil(MIN_WARM / WORKERS)),
            "--max-seconds", str(max(1.0, budget - TIMEOUT_S - 5)), "--timeout", str(TIMEOUT_S),
        ]
        setup, result, peak = spawn_worker(argv, max(5.0, budget))
        run["setup_s"].append(setup)
        run["peak_rss_mib"].append(peak)
        if result is None:
            run["records"].append({"seed": index, "ok": False, "wall": None, "error": "workload process died"})
            continue
        run["numpy"] = result["numpy"]
        run["cold_s"].append(reference_s(workload, result["cold"]))
        run["warm_s"].extend(reference_s(workload, r) for r in result["warm"])
        run["records"].extend([result["cold"], *result["warm"]])
    return run


def traced_run(workload, seed, seconds, deadline):
    budget = deadline - time.perf_counter()
    argv = [
        "--mode", "traced", "--workload", workload, "--seed", str(seed),
        "--warm-seconds", str(seconds), "--min-warm", str(MIN_PAIRS),
        "--max-seconds", str(max(1.0, budget - 3 * TIMEOUT_S - 5)), "--timeout", str(TIMEOUT_S),
    ]
    return spawn_worker(argv, max(5.0, budget))[1]


def per_layer_metrics(workload, result, twin_s):
    """Per-layer values from the spans of a traced run, in reference
    seconds: each span is scaled by its experiment's calibration."""
    cold = result["cold"]
    traced = [p["traced"] for p in result["warm"]]
    by_seed = {r["seed"]: r for r in [cold, *traced]}
    durations = {}  # (name, experiment) -> [reference seconds per call]
    for name, start, end, _, experiment, _ in result["spans"]:
        if end is not None:
            durations.setdefault((name, experiment), []).append(reference_s(workload, by_seed[experiment], end - start))

    metrics = {}
    for metric, (unit, how, arg) in PER_LAYER.items():
        if how == "sum":
            value = statistics.median(sum(durations.get((arg, r["seed"]), [])) for r in traced)
        elif how == "call":
            calls = [d for r in traced for d in durations.get((arg, r["seed"]), [])]
            value = statistics.median(calls) * (1e6 if unit.startswith("us") else 1.0) if calls else 0.0
        elif how == "cold":
            value = sum(durations.get((arg, cold["seed"]), []))
        elif how == "count":
            value = cold["counts"].get(arg, 0)
        elif how == "peak":
            value = result.get("peaks", {}).get(arg, 0) / 2**20
        elif how == "cli":
            value = twin_s
        else:  # "overhead": each pair ran back to back on one seed
            value = statistics.median(
                reference_s(workload, p["traced"]) / reference_s(workload, p["untraced"]) for p in result["warm"]
            )
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rankprobe" / "__init__.py").is_file():
        print(f"error: no rankprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    prov = provenance(args.workload, args.seed, args.trace)
    spawn_worker(["--mode", "import"], IMPORT_TIMEOUT_S)  # writes bytecode caches; untimed
    twin_s, twin_digest, twin_ok = run_twin(args.workload)
    report = {"provenance": prov, "twin": {"seconds": twin_s, "sha256": twin_digest, "ok": twin_ok}}
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, deadline)
        if result is None or not result["warm"]:
            print("error: the traced workload process failed", file=sys.stderr)
            return 1
        records = [result["cold"], *(r for p in result["warm"] for r in (p["untraced"], p["traced"]))]
        records += [result["peak_run"]] if "peak_run" in result else []
        mismatched = [p["traced"]["seed"] for p in result["warm"] if p["traced"]["counts"] != p["untraced"]["counts"]]
        metrics = per_layer_metrics(args.workload, result, twin_s)
        prov["numpy"] = result["numpy"]
        report.update(spans=result["spans"], count_mismatch_seeds=mismatched)
    else:
        run = plain_run(args.workload, args.seed, args.seconds, deadline)
        records, mismatched = run.pop("records"), []
        prov["numpy"] = run.pop("numpy")
        if not run["warm_s"] or not run["cold_s"] or None in run["setup_s"]:
            print("error: a workload process failed before measuring", file=sys.stderr)
            return 1
        tail, pct, n = tail_of(run["warm_s"])
        ok = sum(r["ok"] for r in records)
        values = {
            "setup_s": statistics.median(run["setup_s"]),
            "cold_experiment_s": statistics.median(run["cold_s"]),
            "experiment_p50_s": statistics.median(run["warm_s"]),
            "experiment_tail_s": tail,
            "peak_rss_mib": max(run["peak_rss_mib"]),
            "ok_ratio": ok / len(records),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        report.update(tail={"percentile": pct, "samples": n}, samples=run)
        print(f"experiment_tail_s is p{pct:.1f} of {n} warm experiments")

    failures = [f"seed {r['seed']}: {r['error']}" for r in records if not r["ok"]]
    if not twin_ok:
        failures.append(f"CLI twin stdout sha256 {twin_digest} != {TWIN_SHA256[args.workload]}")
    failures += [f"seed {s}: counts differ between traced and untraced runs" for s in mismatched]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    report.update(records=records, failures=failures, metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    for line in failures:
        print(f"FAIL {line}")
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
