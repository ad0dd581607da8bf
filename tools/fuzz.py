"""Seeded, time-budgeted differential fuzz of the query routes.

    python3 tools/fuzz.py --seconds 30 --seed 1

Run from anywhere; it imports the ``rankprobe`` of the checkout it sits
in, and its oracles, the query-generator driver ``run_query`` and the
full-grid offset scan ``choose_offset_full_grid``, from that checkout's
``tests/oracles.py``.  Cases cycle through three families
until the time budget is spent:

* ``sets``: a random layout (naive, two-level or staged, w in 7, 32, 64,
  65 and 96) with random published cells, and a query set of about
  ``model.PLAN_MIN_QUERIES`` queries, so both routes of a set pass come
  up.  ``simulate_set``, ``build_footprint`` and
  ``replay_from_footprint`` must give what ``run_query`` gives query by
  query, with each cell an earlier query fetched dropped.
  ``detached_pass`` over the distinct queries must keep exactly the
  queries a greedy scan over ``run_query`` address sets keeps, with the
  answers and cells a set pass over them gives.
* ``rank``: ``rank`` on a random layout at a random position, 0 and n
  included, against ``run_query`` (the whole trace) and
  ``BitArray.rank``.
* ``offset``: ``choose_offset`` on a random layout with a random share
  (0, 0.1 or 0.5) of its cells published, at a random k, against the
  full-grid scan ``choose_offset_full_grid``.

Case i of a run draws everything from ``numpy.random.default_rng([seed,
i])``, so ``case_seed`` names it.  Prints one JSON object: the count of
cases and failures per family, and the first failing case with its seed
and what went wrong (null when none failed).  Exits 1 when a case
failed.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rankprobe import model  # noqa: E402
from rankprobe.bits import BitArray  # noqa: E402
from rankprobe.encoding import choose_offset  # noqa: E402
from rankprobe.model import build_footprint, detached_pass, replay_from_footprint, simulate_set  # noqa: E402
from rankprobe.structures import build_naive, build_recursive, build_two_level, max_stage, rank  # noqa: E402
from oracles import choose_offset_full_grid, run_query  # noqa: E402

WIDTHS = (7, 32, 64, 65, 96)


def random_layout(rng):
    """A built layout over a random array, published at random, and a
    description of it; geometries a builder refuses are drawn again."""
    while True:
        n = int(rng.integers(1, 3000))
        w = int(rng.choice(WIDTHS))
        kind = str(rng.choice(["naive", "two_level", "recursive"]))
        array = BitArray.random(n, rng)
        desc = {"kind": kind, "n": n, "w": w}
        try:
            if kind == "naive":
                layout = build_naive(array, w)
            elif kind == "two_level":
                block = w * int(rng.integers(1, 5))
                desc["superblock"], desc["block"] = block * int(rng.integers(2, 9)), block
                layout = build_two_level(array, desc["superblock"], block, w)
            else:
                desc["t"] = int(rng.integers(1, max_stage(n) + 1))
                layout = build_recursive(array, desc["t"], w)
        except ValueError:  # a counter wider than the cell, or a block not of whole cells
            continue
        break
    if rng.random() < 0.5:
        layout.publish_redundancy()
        desc["bootstrapped"] = True
    if rng.random() < 0.5:
        cells = rng.integers(0, layout.memory.cell_count, size=int(rng.integers(0, 30)))
        layout.published.publish_cells(layout.memory, cells if rng.random() < 0.5 else cells.tolist())
        desc["published"] = sorted(set(cells.tolist()))
    return array, layout, desc


def driver_pass(layout, queries):
    """Each query's trace in increasing order, every cell an earlier one
    fetched dropped: the oracle of a set pass."""
    answers, fetched = {}, {}
    for q in sorted(set(queries)):
        trace = run_query(layout.step, q, layout.memory, layout.published)
        answers[q] = trace.answer
        for a, c in trace.steps:
            fetched.setdefault(a, c)
    return answers, fetched


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def sets_case(rng, case: dict) -> None:
    array, layout, case["layout"] = random_layout(rng)
    n, c = layout.n, model.PLAN_MIN_QUERIES
    size = int(rng.integers(max(1, c - 8), c + 9)) if rng.random() < 0.8 else int(rng.integers(1, 3 * c))
    queries = rng.integers(0, n, size=size)
    if rng.random() < 0.5:
        queries = np.unique(queries)
    queries = queries if rng.random() < 0.5 else queries.tolist()
    case["queries"] = np.asarray(queries).tolist()
    want_answers, want = driver_pass(layout, case["queries"])
    check(want_answers == {q: array.rank(q + 1) for q in want_answers}, "driver answers differ from BitArray.rank")

    args = (layout.memory, layout.published)
    foot = build_footprint(layout.step, queries, *args)
    check(foot.bits == tuple(want.values()), "build_footprint differs from the driver")
    for name, (answers, fetched) in (
        ("simulate_set", simulate_set(layout.step, queries, *args)),
        ("replay_from_footprint", replay_from_footprint(layout.step, queries, foot, layout.published)),
    ):
        check(list(answers.items()) == list(want_answers.items()), f"{name} answers differ from the driver")
        check(list(fetched.items()) == list(want.items()), f"{name} cells differ from the driver")

    kept, used = [], set()
    for q in want_answers:
        addrs = set(run_query(layout.step, q, *args).addresses)
        if not addrs & used:
            kept.append(q)
            used |= addrs
    answers, cells = detached_pass(layout.step, list(want_answers), *args)
    check(list(answers) == kept, "detached_pass keeps other queries than the greedy scan")
    kept_answers, kept_cells = simulate_set(layout.step, kept, *args)
    check(list(answers.items()) == list(kept_answers.items()), "detached_pass answers differ from a set pass")
    check(list(cells.items()) == list(kept_cells.items()), "detached_pass cells differ from a set pass")


def rank_case(rng, case: dict) -> None:
    array, layout, case["layout"] = random_layout(rng)
    n = layout.n
    k = case["k"] = int(rng.choice([0, n, int(rng.integers(0, n + 1))]))
    trace = rank(layout, k)
    check(trace.answer == array.rank(k), "rank differs from BitArray.rank")
    if k:
        check(trace == run_query(layout.step, k - 1, layout.memory, layout.published), "rank differs from run_query")
    else:
        check(trace.steps == (), "rank(0) charged probes")


def offset_case(rng, case: dict) -> None:
    _, layout, case["layout"] = random_layout(rng)
    n = layout.n
    share = case["share"] = float(rng.choice([0.0, 0.1, 0.5]))
    cells = np.flatnonzero(rng.random(layout.memory.cell_count) < share)
    layout.published.publish_cells(layout.memory, cells)
    if n < 2:
        return  # no k leaves a nonzero offset
    # k anywhere up to n // 2, or the k of a random block size
    k = case["k"] = int(rng.integers(1, n // 2 + 1) if rng.random() < 0.5 else n // rng.integers(2, n + 1))
    check(choose_offset(layout, k) == choose_offset_full_grid(layout, k), "choose_offset differs from the full grid")


FAMILIES = {"sets": sets_case, "rank": rank_case, "offset": offset_case}


def fuzz(seconds: float, seed: int) -> dict:
    counts = {name: {"cases": 0, "failures": 0} for name in FAMILIES}
    first = None
    deadline = time.monotonic() + seconds
    i = 0
    while time.monotonic() < deadline:
        name = list(FAMILIES)[i % len(FAMILIES)]
        case = {"family": name, "case_seed": [seed, i]}
        counts[name]["cases"] += 1
        try:
            FAMILIES[name](np.random.default_rng([seed, i]), case)
        except Exception as e:  # any failure of the code under test is a finding
            counts[name]["failures"] += 1
            if first is None:
                case["error"] = f"{type(e).__name__}: {e}"
                case["where"] = traceback.format_exc(limit=-1).strip().splitlines()[-3:]
                first = case
        i += 1
    return {"seed": seed, "seconds": seconds, "families": counts, "first_failure": first}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=10.0, help="time budget (default 10)")
    ap.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    args = ap.parse_args(argv)
    report = fuzz(args.seconds, args.seed)
    print(json.dumps(report, indent=1))
    return 1 if report["first_failure"] else 0


if __name__ == "__main__":
    sys.exit(main())
