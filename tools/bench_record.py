"""Record the performance trajectory: perfbench medians plus tier-1 time.

    python3 tools/bench_record.py --out BENCH_6.json
    python3 tools/bench_record.py --out BENCH_6.json --baseline ../parent

Run from the root of a checkout.  For every workload and every seed from
6000 to 6009, it runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0

and keeps each run's six end-to-end metrics.  With ``--baseline DIR`` (a
checkout of the parent commit) every seed is run on both trees, the
order alternating from seed to seed, and each metric also gets the count
of pairs the change wins (``change_wins``) and, in ``pair_ratios``, the
change/baseline ratio of every seed pair with the median and quartiles
of those ratios.  Host drift moves both runs of a pair alike, so the
ratios, unlike medians taken from two records, can be chained from one
record to the next.  Each workload also runs with ``--trace 1`` on the
seeds of ``TRACED_SEEDS``, the trees alternating, and the record keeps
those runs' per-layer metrics with their medians.  A run that passes its
time limit is recorded as a timeout, and one whose checks fail as
incorrect; neither is dropped, and neither enters the medians.  Then
every CLI example of the README (each line of it that starts with
``rankprobe``) and every perfbench CLI twin (``TWIN_ARGS`` in
``perfbench/run.py``, at seed 0) runs ``CLI_REPEATS`` times per tree as
the ``rankprobe.cli`` module (``PEAK_REPORTER``) in a scratch directory,
the trees alternating.  Each run keeps its wall time, the peak RSS of
that child alone (the ``VmHWM`` the child reads from its own
``/proc/self/status`` at exit and writes to a pipe: on Linux ``wait4``'s
``ru_maxrss`` starts from the RSS of the process that forked it), its
minor page faults (from its own ``wait4`` rusage), its exit status and a
digest of its stdout; a run that passes ``CLI_TIMEOUT_S`` is killed and
recorded as a timeout.  Then each command of ``SCALE_ARGS`` (runs past
the README's sizes) runs ``SCALE_REPEATS`` times per tree in the same
loop, with the child's address space capped at ``SCALE_LIMIT_AS`` so
that a blow-up ends in ``MemoryError`` (exit 3) rather than in the OOM
killer; the record keeps every scale run and, per row, the summary a
README row gets (median, min and max, and the stdout digests).  Then
each tree's own ``tools/fuzz.py`` runs once with ``FUZZ_ARGS``, the
change first, and the record keeps its JSON under the
tree's ``fuzz``: cases, refusals, failures and seconds per family and
the first failure, with the exit status; a run that exits nonzero is
kept as it is.  Last, the tier-1 suite runs four times in the order
change, baseline, baseline, change (twice on the one tree without
``--baseline``), so host drift over the runs falls on both trees alike.
Every run is kept with its wall time and pytest's ten slowest test
durations; per tree the record holds the median wall time and, for each
test among any run's ten slowest, its median over the runs that list it,
so a record shows where the suite spends its time.  The JSON written
holds, per tree, the median and quartiles of every metric, perfbench's
provenance (host, Python and numpy, git commit, source digest) plus a
digest of ``perfbench/`` itself, and ``src_lines``, the line count of
``src/rankprobe/*.py`` (what ``wc -l src/rankprobe/*.py`` totals), and
``src_dirty``: whether ``git status --porcelain -- src`` lists anything,
so a tree measured before committing says so (its provenance commit is
then the one it started from), or null outside a git checkout.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

WORKLOADS = ("stage_ladder", "publish_drain", "encode_roundtrip", "entropy_triangulate")
METRICS = ("setup_s", "cold_experiment_s", "experiment_p50_s", "experiment_tail_s", "peak_rss_mib", "ok_ratio")
HIGHER_IS_BETTER = {"ok_ratio"}
SEEDS = tuple(range(6000, 6010))
TRACED_SEEDS = SEEDS[:3]  # the per-layer (--trace 1) runs
SECONDS = 10  # the run length of the benchmark itself
RUN_TIMEOUT_S = 400  # perfbench ends a run within 180 s; this catches a hang
TIER1_TIMEOUT_S = 1800
TIER1_ORDER = ("change", "baseline", "baseline", "change")
CLI_REPEATS = 5
CLI_TIMEOUT_S = 120
# runs past the README sizes, SCALE_REPEATS times per tree, each child under one address-space limit
SCALE_ARGS = ("encode --n 1048576 --k 16", "encode --n 1048576 --k 4", "encode --n 1048576 --k 65536",
              "encode --n 4194304 --k 1024 --structure naive", "encode --n 4194304 --k 16",
              "entropy --n 1048576 --k 1", "entropy --n 1073741824 --k 2",
              "eliminate --n 1048576 --structure recursive --t 4",
              "query --n 1048577 --structure naive --w 1 --k 1048577",
              "query --n 1048577 --structure naive --w 1 --k 1048577 --format json")
SCALE_REPEATS = 3
SCALE_LIMIT_AS = 2 << 30  # a blow-up ends in MemoryError (exit 3), not the OOM killer
# `python -c PEAK_REPORTER FD ARGS...` runs `python -m rankprobe.cli ARGS...`
# and at exit writes the process's own peak RSS (VmHWM, in KiB) to FD
PEAK_REPORTER = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    with open("/proc/self/status") as fh:
        os.write(fd, next(line for line in fh if line.startswith("VmHWM:")).split()[1].encode())
atexit.register(report)
runpy.run_module("rankprobe.cli", run_name="__main__", alter_sys=True)
"""
FUZZ_ARGS = ("--seconds", "20", "--seed", "11")
FUZZ_TIMEOUT_S = 300
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=10"]


def run_perfbench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run: its metrics, or why there are none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "status": "timeout", "wall_s": time.perf_counter() - start}
    run = {"seed": seed, "wall_s": time.perf_counter() - start}
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        return {**run, "status": f"exit {done.returncode}", "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    record = json.loads((root / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        **run,
        "status": "ok" if result["correct"] else "incorrect",
        "failures": record["failures"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "provenance": record["provenance"],
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list) -> dict:
    good = [r for r in runs if r["status"] == "ok"]
    out = {"runs": len(runs), "ok": len(good), "timeouts": sum(r["status"] == "timeout" for r in runs)}
    for name in METRICS:
        values = [r["metrics"][name] for r in good]
        if values:
            out[name] = quartiles(values)
    return out


def summarize_layers(runs: list) -> dict:
    """The median of every per-layer metric over the traced runs that passed."""
    good = [r for r in runs if r["status"] == "ok"]
    names = good[0]["metrics"] if good else {}
    return {"runs": runs, "median": {name: statistics.median(r["metrics"][name] for r in good) for name in names}}


def ok_pairs(change: list, base: list) -> list:
    """The (change, baseline) run pairs of one seed where both runs passed."""
    return [(c, b) for c, b in zip(change, base) if c["status"] == b["status"] == "ok"]


def change_wins(pairs: list) -> dict:
    """Per metric, the pairs where the change reads better."""
    wins = {}
    for name in METRICS:
        sign = -1 if name in HIGHER_IS_BETTER else 1
        won = sum(sign * (c["metrics"][name] - b["metrics"][name]) < 0 for c, b in pairs)
        wins[name] = f"{won}/{len(pairs)}"
    return wins


def pair_ratios(pairs: list) -> dict:
    """Per metric, the change/baseline ratio of every pair by seed, with
    the ratios' median and quartiles (a zero baseline gives no ratio)."""
    out = {}
    for name in METRICS:
        ratios = {c["seed"]: c["metrics"][name] / b["metrics"][name] for c, b in pairs if b["metrics"][name]}
        if ratios:
            out[name] = {"by_seed": ratios, **quartiles(list(ratios.values()))}
    return out


def cli_commands(root: Path) -> dict:
    """Label -> CLI arguments: the README's examples, then perfbench's twins
    (read from perfbench/run.py without importing it)."""
    readme = (root / "README.md").read_text()
    commands = {line: shlex.split(line)[1:] for line in re.findall(r"^rankprobe .*$", readme, re.M)}
    for node in ast.parse((root / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TWIN_ARGS" for t in node.targets):
            for workload, args in ast.literal_eval(node.value).items():
                commands[f"twin {workload}"] = [*args, "--seed", "0"]
    return commands


def time_cli(root: Path, args: list, cwd: Path, limit_as: int | None = None) -> dict:
    """One CLI run: wall time, the child's own peak RSS (None when it
    wrote none) and minor page faults, exit status and stdout digest, or
    a timeout.  `limit_as` caps the child's address space
    (``RLIMIT_AS``, set in the child alone)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    fired = threading.Event()

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))

    read_end, write_end = os.pipe()
    with tempfile.TemporaryFile() as out, os.fdopen(read_end, "rb") as peak:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen([sys.executable, "-c", PEAK_REPORTER, str(write_end), *args], stdout=out,
                                    stderr=subprocess.DEVNULL, cwd=cwd, env=env, pass_fds=(write_end,),
                                    preexec_fn=limit if limit_as else None)
        finally:
            os.close(write_end)
        killer = threading.Timer(CLI_TIMEOUT_S, lambda: (fired.set(), os.kill(proc.pid, signal.SIGKILL)))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if fired.is_set():
            return {"status": "timeout", "wall_s": wall}
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
        hwm = peak.read()
    return {"status": "ok" if code == 0 else f"exit {code}", "wall_s": wall,
            "peak_rss_mib": int(hwm) / 1024.0 if hwm else None, "minor_faults": usage.ru_minflt,
            "stdout_sha256": digest}


def repeat_cli(trees: dict, commands: dict, cwd: Path, repeats: int, what: str, limit_as: int | None = None) -> dict:
    """`repeats` rounds of ``time_cli`` over every command and tree, the
    tree order alternating from round to round: per tree, each command's
    runs."""
    runs = {tree: {label: [] for label in commands} for tree in trees}
    for i in range(repeats):
        for label, args in commands.items():
            for tree in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                run = time_cli(trees[tree], args, cwd, limit_as)
                runs[tree][label].append(run)
                print(f"{tree} {what} {label!r} {run['status']} wall={run['wall_s']:.3f}", flush=True)
    return runs


def summarize_cli(runs: list) -> dict:
    good = [r for r in runs if r["status"] == "ok"]
    out = {"runs": len(runs), "ok": len(good), "timeouts": sum(r["status"] == "timeout" for r in runs),
           "stdout_sha256": sorted({r["stdout_sha256"] for r in runs if "stdout_sha256" in r})}
    for name in ("wall_s", "peak_rss_mib", "minor_faults"):
        values = [r[name] for r in good if r[name] is not None]
        if values:
            out[name] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    return out


def time_tier1(root: Path) -> dict:
    """One tier-1 run: its wall time, pass counts and slowest tests."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run(TIER1, cwd=root, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "wall_s": time.perf_counter() - start}
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error|errors)", tail)}
    slowest = [{"s": float(s), "phase": phase, "test": test}
               for s, phase, test in re.findall(r"^([\d.]+)s (call|setup|teardown) +(\S.*?)\s*$", done.stdout, re.M)]
    return {"status": f"exit {done.returncode}", "wall_s": time.perf_counter() - start, "summary": tail,
            "slowest": slowest, **counts}


def run_fuzz(root: Path) -> dict:
    """One run of the tree's own fuzz: its JSON report and exit status,
    or why there is no report."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "tools/fuzz.py", *FUZZ_ARGS], cwd=root, capture_output=True,
                              text=True, timeout=FUZZ_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "wall_s": time.perf_counter() - start}
    run = {"status": f"exit {done.returncode}", "wall_s": time.perf_counter() - start}
    try:
        return {**run, **json.loads(done.stdout)}
    except ValueError:
        return {**run, "stderr": done.stderr[-2000:]}


def summarize_tier1(runs: list) -> dict:
    """Median wall time of the runs that finished, and each slowest test's
    median duration over the runs that list it, slowest first."""
    done = [r for r in runs if r["status"] != "timeout"]
    durations = {}
    for r in done:
        for t in r["slowest"]:
            durations.setdefault((t["test"], t["phase"]), []).append(t["s"])
    slowest = [{"test": test, "phase": phase, "median_s": statistics.median(s), "listed": len(s)}
               for (test, phase), s in durations.items()]
    return {"runs": runs, "timeouts": len(runs) - len(done),
            "wall_s": statistics.median(r["wall_s"] for r in done) if done else None,
            "slowest": sorted(slowest, key=lambda t: -t["median_s"])}


def perfbench_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_lines(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "rankprobe").glob("*.py"))


def src_dirty(root: Path) -> bool | None:
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_6.json")
    ap.add_argument("--baseline", help="checkout of the parent commit to pair every run with")
    args = ap.parse_args(argv)

    trees = {"change": Path.cwd()}
    if args.baseline:
        trees["baseline"] = Path(args.baseline).resolve()
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "trees": {},
    }
    runs = {tree: {w: [] for w in WORKLOADS} for tree in trees}
    for w in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for tree in order:
                run = run_perfbench(trees[tree], w, seed)
                runs[tree][w].append(run)
                p50 = run.get("metrics", {}).get("experiment_p50_s")
                print(f"{tree} {w} seed={seed} {run['status']} p50={p50}", flush=True)
    traced = {tree: {w: [] for w in WORKLOADS} for tree in trees}
    for w in WORKLOADS:
        for i, seed in enumerate(TRACED_SEEDS):
            for tree in list(trees) if i % 2 == 0 else list(trees)[::-1]:
                run = run_perfbench(trees[tree], w, seed, trace=1)
                run.pop("provenance", None)
                traced[tree][w].append(run)
                print(f"{tree} {w} seed={seed} trace=1 {run['status']}", flush=True)
    for tree, root in trees.items():
        first = next((r for rs in runs[tree].values() for r in rs if "provenance" in r), {})
        prov = {k: v for k, v in first.get("provenance", {}).items() if k not in ("workload", "seed", "trace")}
        report["trees"][tree] = {
            "provenance": {**prov, "perfbench_sha256": perfbench_digest(root)},
            "src_lines": src_lines(root),
            "src_dirty": src_dirty(root),
            "workloads": {w: summarize(rs) for w, rs in runs[tree].items()},
            "layers": {w: summarize_layers(rs) for w, rs in traced[tree].items()},
            "runs": runs[tree],
        }
        for rs in runs[tree].values():
            for r in rs:
                r.pop("provenance", None)
    if args.baseline:
        pairs = {w: ok_pairs(runs["change"][w], runs["baseline"][w]) for w in WORKLOADS}
        report["change_wins"] = {w: change_wins(pairs[w]) for w in WORKLOADS}
        report["pair_ratios"] = {w: pair_ratios(pairs[w]) for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as scratch:
        cli_runs = repeat_cli(trees, cli_commands(trees["change"]), Path(scratch), CLI_REPEATS, "cli")
        scale_runs = repeat_cli(trees, {line: line.split() for line in SCALE_ARGS}, Path(scratch), SCALE_REPEATS,
                                "scale", SCALE_LIMIT_AS)
    fuzz_runs = {}
    for tree in trees:
        fuzz_runs[tree] = run = run_fuzz(trees[tree])
        failures = sum(f["failures"] for f in run.get("families", {}).values())
        print(f"{tree} fuzz {run['status']} failures={failures}", flush=True)
    tier1_runs = {tree: [] for tree in trees}
    for tree in [t for t in TIER1_ORDER if t in trees]:
        run = time_tier1(trees[tree])
        tier1_runs[tree].append(run)
        print(f"{tree} tier-1 {run['status']} wall={run['wall_s']:.1f} {run.get('summary', '')}", flush=True)
    for tree in trees:
        report["trees"][tree]["cli"] = {label: summarize_cli(rs) for label, rs in cli_runs[tree].items()}
        report["trees"][tree]["scale"] = {"limit_as_bytes": SCALE_LIMIT_AS, "runs": scale_runs[tree],
                                          "rows": {line: summarize_cli(rs) for line, rs in scale_runs[tree].items()}}
        report["trees"][tree]["fuzz"] = fuzz_runs[tree]
        report["trees"][tree]["tier1"] = summarize_tier1(tier1_runs[tree])
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
