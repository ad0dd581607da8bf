"""One workload process: import the library, then run experiments.

The first line written to stdout is ``ready``, right after ``import
rankprobe`` returns, so the parent can time set-up from the spawn.  The
last line is one JSON object with every experiment's record.  Experiment
i runs with seed ``seed + i``; each is followed, outside its timing, by
the workload's checks.

Modes:

* ``plain``: the first experiment (module caches still empty) is the
  cold one; warm experiments follow until both ``--warm-seconds`` have
  passed and ``--min-warm`` have run, or ``--max-seconds`` is reached.
* ``traced``: a traced cold experiment, then pairs of one untraced and
  one traced experiment on the same seed, in alternating order; then,
  for workloads with peak spans, one experiment that records
  ``tracemalloc`` peaks.
* ``import``: stop after ``ready``.
"""

import sys

import rankprobe  # noqa: F401  (the set-up being timed)

sys.stdout.write("ready\n")
sys.stdout.flush()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import clock  # noqa: E402
import workloads  # noqa: E402


class ExperimentTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ExperimentTimeout()


def run_one(wl, seed, tracer, timeout):
    """Run and check one experiment; never raises."""
    gc.collect()
    record = {"seed": seed, "ok": False, "wall": None, "counts": {}, "error": None, "cal_before": clock.calibrate()}
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        out = wl.run(seed, tracer)
    except ExperimentTimeout:
        record["error"] = f"timeout after {timeout} s"
        return record
    except Exception as e:  # a failing experiment is recorded, not fatal
        record["error"] = f"{type(e).__name__}: {e}"
        return record
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        record["wall"] = time.perf_counter() - start
    try:
        failures = wl.check(seed, out)
        record["counts"] = wl.counts(out)
    except Exception as e:  # malformed output fails the check
        failures = [f"check raised {type(e).__name__}: {e}"]
    record["ok"] = not failures
    record["error"] = "; ".join(failures) or None
    record["cal_after"] = clock.calibrate()
    return record


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "traced", "import"), required=True)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warm-seconds", type=float, default=0.0)
    ap.add_argument("--min-warm", type=int, default=0)
    ap.add_argument("--max-seconds", type=float, default=60.0)
    ap.add_argument("--timeout", type=float, default=20.0)
    args = ap.parse_args()
    if args.mode == "import":
        return
    signal.signal(signal.SIGALRM, _on_alarm)
    clock.calibrate()  # the first loops in a process run slow; not a sample
    wl = workloads.WORKLOADS[args.workload]
    result = {"numpy": np.__version__, "cold": None, "warm": []}
    began = time.perf_counter()
    seed = args.seed

    if args.mode == "plain":
        result["cold"] = run_one(wl, seed, workloads.NULL_TRACER, args.timeout)
        warm_start = time.perf_counter()
        while time.perf_counter() - began < args.max_seconds and (
            time.perf_counter() - warm_start < args.warm_seconds or len(result["warm"]) < args.min_warm
        ):
            seed += 1
            result["warm"].append(run_one(wl, seed, workloads.NULL_TRACER, args.timeout))
    else:
        tracer = workloads.Tracer()
        tracer.experiment = seed
        result["cold"] = run_one(wl, seed, tracer, args.timeout)
        pairs = []
        warm_start = time.perf_counter()
        while time.perf_counter() - began < args.max_seconds and (
            time.perf_counter() - warm_start < args.warm_seconds or len(pairs) < args.min_warm
        ):
            seed += 1
            tracer.experiment = seed
            traced_first = len(pairs) % 2 == 1
            first = run_one(wl, seed, tracer if traced_first else workloads.NULL_TRACER, args.timeout)
            second = run_one(wl, seed, workloads.NULL_TRACER if traced_first else tracer, args.timeout)
            pairs.append((second, first) if traced_first else (first, second))
        result["warm"] = [{"untraced": u, "traced": t} for u, t in pairs]
        result["spans"] = tracer.spans
        if wl.peak_spans:
            peaks = workloads.Tracer(wl.peak_spans)
            peaks.experiment = args.seed
            result["peak_run"] = run_one(wl, args.seed, peaks, args.timeout)
            result["peaks"] = {s[0]: s[5] for s in peaks.spans if s[5] is not None}

    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
