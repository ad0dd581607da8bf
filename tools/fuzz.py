"""Seeded, time-budgeted differential fuzz of the query routes.

    python3 tools/fuzz.py --seconds 30 --seed 1

Run from anywhere; it imports the ``rankprobe`` of the checkout it sits
in, and its oracles from that checkout's ``tests/oracles.py``: the
query-generator driver ``run_query``, the set pass ``driver_pass`` and
the greedy scan ``greedy_scan`` over it, the popcount rank
``popcount_rank`` and the full-grid offset scan
``choose_offset_full_grid``.  Six families share the time budget: each
next case goes to the family that has spent the least time so far.

* ``sets``: a random layout (naive, two-level or staged, w in 7, 32, 64,
  65 and 96) with random published cells, and a query set of 0 to 60
  queries, empty sets and single queries included.  ``simulate_set``,
  ``build_footprint`` and
  ``replay_from_footprint`` must give what ``driver_pass`` gives, and
  the answers ``popcount_rank`` gives.  ``detached_pass`` over the
  distinct queries must keep exactly the queries ``greedy_scan`` keeps,
  with the answers and cells a set pass over them gives.  The three set
  passes then run the same queries twice more, held to ``driver_pass``
  each time: after a few more cells are published, and on a layout of
  the same geometry over another array.
* ``rank``: ``rank`` on a random layout at a random position, 0 and n
  included, against ``run_query`` (the whole trace, its hash and its
  addresses) and ``popcount_rank``.  Its widths add w = 1, at which a
  naive scan of up to 3,000 cells crosses the reader's popcount run.
* ``offset``: ``choose_offset`` on a random layout with a random share
  (0, 0.1 or 0.5) of its cells published, at a random k, against the
  full-grid scan ``choose_offset_full_grid``.
* ``encode``: ``encode`` on a random layout, after ``run_elimination``
  (which first publishes the redundancy) half the time, at a random k in
  [1, n // 2] and the offset ``choose_offset`` gives or a random one.
  ``decode`` of the record, through its ``RPE1`` bytes, must give back
  the array; the footprints must hold the cells ``driver_pass`` of the
  reference set and ``greedy_scan`` of the detached set charge, in
  probe order, and component 6 every other cell in address order.  A
  ``RefusalError`` with one of the two messages of a ledger a record
  cannot carry is counted as a refusal, not a failure.
* ``rpe1``: the ``RPE1`` bytes of ``encode`` on a random layout at w in
  7, 64, 65 and 96, at a random k, mutated in one field drawn first:
  a component's length header or payload (padding bits included) or
  the offset trailer, with one random bit of it flipped, or, where
  component 1 holds (address, content) pairs and addresses of
  ``address_bits`` bits can name a cell past the layout, one pair's
  address set to such a cell: a pair whose cell no query of the
  reference set or of the offset-d set reads, where there is one, so
  that no replay refuses the mutant before the address is checked.  The
  report counts mutants per field.
  The mutant must be rejected with ``CorruptEncoding`` or be canonical: the
  decoded array, with the cells the mutant's own ledger publishes read
  from it, must encode to exactly the mutant's bytes.  Refusals count as
  in ``encode``.
* ``cli``: ``cli.main`` in process on a random argv for one of the
  seven subcommands, with the flags each takes read from the CLI's own
  table (``cli.COMMANDS``): each flag missing or given a valid or an
  invalid value (n at most 2^12), now and then a flag of ``cli.FLAGS``
  the subcommand lacks or an unknown one, and
  ``--out`` into a temporary directory, a missing one or the directory
  itself.  The exit code must be 0, 2, 3, 4, 5, 6 or 7 with no exception
  escaping; a library failure must print exactly one stderr line,
  starting ``error:`` or ``refused:`` (argparse usage errors keep its own
  lines and exit 2); and the same argv run again must give byte-identical
  stdout and output file.

Case i of a run draws everything from ``numpy.random.default_rng([seed,
i])``, so ``case_seed`` names it.  Prints one JSON object: the count of
cases, refusals and failures and the seconds spent per family, and the
first failing case with its seed and what went wrong (null when none
failed).  Exits 1 when a case failed.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rankprobe import cli  # noqa: E402
from rankprobe.bits import BitArray, BitString  # noqa: E402
from rankprobe.elimination import run_elimination  # noqa: E402
from rankprobe.encoding import COMPONENTS, RPE1_MAGIC, EncodingRecord, _bootstrap_prefix, choose_offset, decode, encode  # noqa: E402
from rankprobe.errors import CorruptEncoding, RefusalError  # noqa: E402
from rankprobe.model import ProbeTrace, PublishedBits, address_bits  # noqa: E402
from rankprobe.structures import (  # noqa: E402
    ProbePlan,
    block_queries,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    detached_pass,
    layout_from_params,
    max_stage,
    rank,
    replay_from_footprint,
    simulate_set,
)
from oracles import choose_offset_full_grid, driver_pass, greedy_scan, popcount_rank, run_query  # noqa: E402

WIDTHS = (7, 32, 64, 65, 96)
REFUSALS = (  # the ledgers a record cannot carry, as encode words them
    re.compile(r"published ledger \d+ bits, serialized \d+: a record cannot carry it"),
    re.compile(r"a \d+-bit ledger of pairs reads as a bootstrap prefix: a record cannot carry it"),
)


def random_layout(rng, widths=WIDTHS):
    """A built layout over a random array, published at random, and a
    description of it; geometries a builder refuses are drawn again."""
    while True:
        n = int(rng.integers(1, 3000))
        w = int(rng.choice(widths))
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


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_set_passes(array, layout, queries, what: str) -> dict:
    """``simulate_set``, ``build_footprint`` and ``replay_from_footprint``
    of `queries` on `layout` against ``driver_pass`` and
    ``popcount_rank``; returns the driver's answers."""
    want_answers, want = driver_pass(layout, np.asarray(queries).tolist())
    check(want_answers == {q: popcount_rank(array, q + 1) for q in want_answers}, "driver answers differ from popcount_rank")
    args = (layout.memory, layout.published)
    foot = build_footprint(layout.step, queries, *args)
    check(foot.bits == tuple(want.values()), f"build_footprint differs from the driver{what}")
    for name, (answers, fetched) in (
        ("simulate_set", simulate_set(layout.step, queries, *args)),
        ("replay_from_footprint", replay_from_footprint(layout.step, queries, foot, layout.published)),
    ):
        check(list(answers.items()) == list(want_answers.items()), f"{name} answers differ from the driver{what}")
        check(list(fetched.items()) == list(want.items()), f"{name} cells differ from the driver{what}")
    return want_answers


def sets_case(rng, case: dict) -> None:
    array, layout, case["layout"] = random_layout(rng)
    n = layout.n
    queries = rng.integers(0, n, size=int(rng.integers(0, 61)))
    if rng.random() < 0.5:
        queries = np.unique(queries)
    queries = queries if rng.random() < 0.5 else queries.tolist()
    case["queries"] = np.asarray(queries).tolist()
    want_answers = check_set_passes(array, layout, queries, "")

    args = (layout.memory, layout.published)
    kept = greedy_scan(layout, want_answers)[0]
    answers, cells = detached_pass(layout.step, list(want_answers), *args)
    check(list(answers) == kept, "detached_pass keeps other queries than the greedy scan")
    kept_answers, kept_cells = simulate_set(layout.step, kept, *args)
    check(list(answers.items()) == list(kept_answers.items()), "detached_pass answers differ from a set pass")
    check(list(cells.items()) == list(kept_cells.items()), "detached_pass cells differ from a set pass")

    # The same queries again, after more cells are published and on
    # another array of the same geometry: a set pass may reuse what it
    # computed from the params and the queries, never the ledger or the data.
    more = case["published_more"] = rng.integers(0, layout.memory.cell_count, size=int(rng.integers(1, 6))).tolist()
    layout.published.publish_cells(layout.memory, more)
    check_set_passes(array, layout, queries, " after more cells were published")
    other = BitArray.random(n, rng)
    check_set_passes(other, layout_from_params(other, layout.params), queries, " on another array")


def rank_case(rng, case: dict) -> None:
    array, layout, case["layout"] = random_layout(rng, (1, *WIDTHS))
    n = layout.n
    k = case["k"] = int(rng.choice([0, n, int(rng.integers(0, n + 1))]))
    trace = rank(layout, k)
    check(trace.answer == popcount_rank(array, k), "rank differs from popcount_rank")
    want = run_query(layout.step, k - 1, layout.memory, layout.published) if k else ProbeTrace(-1, (), 0)
    check(trace == want, "rank differs from run_query")
    check(hash(trace) == hash(want), "rank hashes unlike run_query")
    check(trace.addresses == want.addresses, "rank addresses differ from run_query")


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


def encode_case(rng, case: dict) -> str | None:
    array, layout, case["layout"] = random_layout(rng)
    n, w = layout.n, layout.memory.word_bits
    if rng.random() < 0.5:
        run_elimination(layout)
        case["eliminated"] = True
    if n < 2:
        return None  # no k leaves a nonzero offset
    k = case["k"] = int(rng.integers(1, n // 2 + 1))
    d = case["d"] = choose_offset(layout, k) if rng.random() < 0.5 else int(rng.integers(1, n // k))
    record = encode_or_refuse(layout, k, d)
    if record is None:
        return "refused"
    back = decode(EncodingRecord.from_rpe1(record.to_rpe1()), layout.params, k)
    check(back == array, "decode does not give back the array")
    ref = driver_pass(layout, block_queries(n, k).tolist())[1]
    det = greedy_scan(layout, block_queries(n, k, d).tolist())[1]
    rest = np.ones(layout.memory.cell_count, dtype=bool)  # every cell neither set charged, in address order
    rest[[*ref, *det]] = False
    rest = layout.memory.image[rest]
    for name, cells in (("foot_reference", ref.values()), ("foot_detached", det.values()), ("remaining", rest)):
        want = BitString()
        want.append_cells(list(cells), w)
        check(getattr(record, name) == want, f"{name} is not the cells the driver gives")
    return None


def encode_or_refuse(layout, k: int, d: int | None):
    """``encode`` of the layout, or None for a ledger a record cannot carry."""
    try:
        return encode(layout, k, d)
    except RefusalError as e:
        check(any(r.fullmatch(str(e)) for r in REFUSALS), f"refused with another message: {e}")
        return None


def rpe1_fields(record) -> dict:
    """The bits of each field of a record's ``RPE1`` bytes, past the
    magic: each component's length header and payload, its padding bits
    included, then the offset trailer."""
    fields, at = {}, 8 * len(RPE1_MAGIC)
    for name, comp in zip(COMPONENTS, record.components):
        fields[f"{name}.length"] = range(at, at + 64)
        fields[f"{name}.payload"] = range(at + 64, at + 64 + 8 * -(-comp.length // 8))
        at = fields[f"{name}.payload"].stop
    fields["offset"] = range(at, at + 64)
    return fields


def set_bits(blob: bytearray, at: int, count: int, value: int) -> None:
    """Write `value` into the `count` bits of `blob` from bit `at` on, LSB first."""
    lo, hi = at // 8, -(-(at + count) // 8)
    shift = at - 8 * lo
    word = int.from_bytes(blob[lo:hi], "little") & ~(((1 << count) - 1) << shift) | value << shift
    blob[lo:hi] = word.to_bytes(hi - lo, "little")


def rpe1_case(rng, case: dict) -> str | None:
    _, layout, case["layout"] = random_layout(rng, (7, 64, 65, 96))
    n = layout.n
    if n < 2:
        return None  # no k leaves a nonzero offset
    k = case["k"] = int(rng.integers(1, n // 2 + 1))
    record = encode_or_refuse(layout, k, None)
    if record is None:
        return "refused"
    blob = bytearray(record.to_rpe1())
    params = layout.params
    cell_count, shift = params["cell_count"], address_bits(params["cell_count"])
    pair_bits = shift + params["word_bits"]
    fields = rpe1_fields(record)
    prefix = _bootstrap_prefix(params, record.published.length)
    pair_count = (record.published.length - prefix) // pair_bits
    names = [name for name, bits in fields.items() if bits]
    if pair_count and cell_count < 1 << shift:  # an address can name a cell past the layout
        names.append("published.address")
    field = case["field"] = str(rng.choice(names))
    if field == "published.address":
        # move a pair whose cell no query of the reference set or of the
        # offset-d set reads, where there is one: the replays then read as
        # they did, and the address check alone stands between the mutant
        # and the rebuilt ledger
        addresses = [p & ((1 << shift) - 1) for p in record.published.read_cells(prefix, pair_count, pair_bits)]
        queries = np.concatenate((block_queries(n, k), block_queries(n, k, record.offset)))
        read = ProbePlan(params, queries).cells(np.zeros(cell_count, dtype=bool))
        unread = [i for i, a in enumerate(addresses) if not read[a]]
        case["unread"] = bool(unread)
        pair = case["pair"] = int(rng.choice(unread)) if unread else int(rng.integers(0, pair_count))
        address = case["address"] = int(rng.integers(cell_count, 1 << shift))
        set_bits(blob, fields["published.payload"].start + prefix + pair * pair_bits, shift, address)
    else:
        bit = case["bit"] = fields[field][int(rng.integers(0, len(fields[field])))]
        blob[bit // 8] ^= 1 << (bit % 8)
    try:
        mutant = EncodingRecord.from_rpe1(bytes(blob))
        array = decode(mutant, layout.params, k)
    except CorruptEncoding:
        return None
    # the ledger the mutant names: the redundancy region when its length
    # admits a bootstrap prefix, then the address in each pair's low bits
    ledger = mutant.published
    prefix = _bootstrap_prefix(params, ledger.length)
    pairs = ledger.read_cells(prefix, (ledger.length - prefix) // pair_bits, pair_bits)
    named = [*(range(params["raw_cells"], params["cell_count"]) if prefix else ()), *(p & ((1 << shift) - 1) for p in pairs)]
    again = layout_from_params(array, params)
    again.published = PublishedBits(ledger.length, {a: again.memory.read(a) for a in named}, bool(prefix))
    check(encode(again, k, mutant.offset).to_rpe1() == bytes(blob), "a mutated record decodes but is not canonical")
    return None


CLI_EXITS = (0, 2, 3, 4, 5, 6, 7)


def cli_value(rng, flag: str, n: int, tmp: str) -> str:
    """A value for `flag`: valid most of the time, else one the CLI or
    the library must turn away.  An ``--out`` path always lies in `tmp`."""
    if flag == "out":
        return str(rng.choice([f"{tmp}/report.out", f"{tmp}/missing/report.out", tmp]))
    if rng.random() < 0.1:
        return str(rng.choice(["x", "1.5", "", "-1", "0"]))
    if flag == "n":
        return str(n)
    if flag == "k":  # anywhere, or a block count of whole blocks
        return str(int(rng.integers(-1, n + 2)) if rng.random() < 0.5 else n >> int(rng.integers(1, 8)))
    if flag == "delta":
        return str(int(rng.integers(-1, 40)))
    if flag == "t":
        return str(int(rng.integers(0, 7)))
    if flag == "w":
        return str(rng.choice([1, 7, 8, 32, 64, 65, 96]))
    if flag == "seed":
        return str(int(rng.integers(0, 4)))
    if flag == "structure":
        return str(rng.choice(["naive", "two_level", "recursive"]))
    return str(rng.choice(["csv", "json"]))


def run_cli(argv: list) -> tuple:
    """``cli.main(argv)`` in process: (exit code, stdout, stderr), the
    code None where argparse turned the argv away."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse turned the argv away
            check(e.code == 2, f"argparse exited with {e.code}")
            return None, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def cli_case(rng, case: dict) -> None:
    cmd = str(rng.choice(list(cli.COMMANDS)))
    n = int(rng.integers(1, 65) if rng.random() < 0.5 else rng.integers(1, 4097))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [cmd]
        flags = list(cli.COMMANDS[cmd][2])  # the flags the CLI's table gives this subcommand
        if rng.random() < 0.1:  # a flag this subcommand does not take
            flags.append(str(rng.choice([*(f for f in cli.FLAGS if f not in flags), "bogus"])))
        for flag in flags:
            if rng.random() < (0.9 if flag in ("n", "k") else 0.6):
                argv += [f"--{flag}", cli_value(rng, flag, n, tmp)]
        case["argv"] = [a.replace(tmp, "TMP") for a in argv]
        out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        runs = []
        for _ in range(2):
            code, stdout, stderr = run_cli(argv)
            written = out_file.read_bytes() if out_file and out_file.is_file() else None
            runs.append((stdout, written))
            if code is None:  # argparse's own usage lines
                check(stderr.startswith("usage:"), "argparse exit without its usage lines")
                continue
            check(code in CLI_EXITS, f"exit code {code}")
            if code:
                lines = stderr.splitlines()
                check(len(lines) == 1 and lines[0].startswith(("error:", "refused:")) and stderr.endswith("\n"),
                      f"exit {code} with stderr {stderr!r}")
        check(runs[0] == runs[1], "the same argv gave other output the second time")


FAMILIES = {"sets": sets_case, "rank": rank_case, "offset": offset_case, "encode": encode_case, "rpe1": rpe1_case,
            "cli": cli_case}


def fuzz(seconds: float, seed: int) -> dict:
    counts = {name: {"cases": 0, "refusals": 0, "failures": 0, "seconds": 0.0} for name in FAMILIES}
    first = None
    deadline = time.monotonic() + seconds
    i = 0
    while (start := time.monotonic()) < deadline:
        name = min(FAMILIES, key=lambda f: counts[f]["seconds"])  # ties go to the first listed
        case = {"family": name, "case_seed": [seed, i]}
        counts[name]["cases"] += 1
        try:
            if FAMILIES[name](np.random.default_rng([seed, i]), case) == "refused":
                counts[name]["refusals"] += 1
        except Exception as e:  # any failure of the code under test is a finding
            counts[name]["failures"] += 1
            if first is None:
                case["error"] = f"{type(e).__name__}: {e}"
                case["where"] = traceback.format_exc(limit=-1).strip().splitlines()[-3:]
                first = case
        if "field" in case:  # an rpe1 mutant, counted by the field it mutates
            counts[name].setdefault("fields", Counter())[case["field"]] += 1
        counts[name]["seconds"] += time.monotonic() - start
        i += 1
    for c in counts.values():
        c["seconds"] = round(c["seconds"], 3)
        if "fields" in c:
            c["fields"] = dict(sorted(c["fields"].items()))
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
