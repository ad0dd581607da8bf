"""Command-line front end.

One binary, seven subcommands: build, query, stats, entropy, encode,
eliminate, tradeoff, each a row of one table, ``COMMANDS`` (handler,
help line, flags).  Everything is seeded and deterministic: the same
invocation produces byte-identical output, and the seed is recorded in
the output header.  Exit codes: 0 success, 2 usage error, 3 refusal
(the computation was out of honest range), 4 simulation fault (a probe
outside memory, or a rank query over its probe budget), 5 corrupt
footprint, 6 corrupt encoding record, 7 an output file could not be
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import asdict, fields
from itertools import chain, islice

import numpy as np

from .bits import BitArray
from .encoding import COMPONENTS, decode, encode
from .entropy import ENUM_LIMIT, LabConfig, analytic_deficit, brute_force_deficit
from .elimination import EliminationRow, run_elimination
from .errors import CorruptEncoding, LabError
from .structures import (
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    rank,
    structure_stats,
)


FLAGS = {  # each flag's argparse spec, the flag being `--name`
    "n": {"type": int, "required": True, "help": "array length in bits"},
    "k": {"type": int, "help": "block count (or rank position for query)"},
    "delta": {"type": int, "help": "offset inside each block"},
    "t": {"type": int, "default": 2, "help": "recursion stage"},
    "w": {"type": int, "default": 64, "help": "cell width in bits"},
    "seed": {"type": int, "default": 0, "help": "array RNG seed"},
    "structure": {"choices": ("naive", "two_level", "recursive"), "default": "two_level"},
    "out": {"help": "write output to this file"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
}


def _flags(names, **own):
    """The specs of the space-separated flag `names`, then the subcommand's `own` specs, in --help order."""
    return {**{name: FLAGS[name] for name in names.split()}, **own}


def _build_layout(args, array):
    if args.structure == "naive":
        return build_naive(array, args.w)
    if args.structure == "recursive":
        return build_recursive(array, args.t, args.w)
    return build_two_level(array, word_bits=args.w)


def _array(args):
    return BitArray.random(args.n, np.random.default_rng(args.seed))


def _rounded(value, digits):
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _rounded(v, digits) for key, v in value.items()}
    if isinstance(value, list) and any(issubclass(t, (float, dict, list)) for t in set(map(type, value))):
        return [_rounded(v, digits) for v in value]
    return value  # a list of no float, dict or list as it is


CHUNK = 1 << 14  # CSV list values, or JSON encoder pieces, joined and written at a time


def _field(value, digits):
    """A CSV field, as the strings to write: a float to `digits` places,
    and a list or an iterator of values space-joined, CHUNK at a time."""
    if isinstance(value, float):
        yield f"{value:.{digits}f}"
    elif isinstance(value, (list, Iterator)):
        values, sep = iter(value), ""
        while chunk := list(islice(values, CHUNK)):
            yield sep + " ".join(map(str, chunk))
            sep = " "
    else:
        yield str(value)


def _csv(columns, rows, head, digits):
    """The CSV text, piece by piece: `head`, the column line, and `columns`
    read from each mapping in `rows`."""
    yield head + "\n" + ",".join(columns)
    for row in rows:
        for i, c in enumerate(columns):
            yield "," if i else "\n"
            yield from _field(row[c], digits)
    yield "\n"


def _emit(args, obj, columns, rows, head=None, digits=6):
    """Render one report, to `--out` when given and to stdout otherwise.

    JSON is `obj` plus the command and seed, every float rounded to
    `digits` places.  CSV is a comment line (`head`, or the command and
    seed), the column line, and `columns` read from each mapping in
    `rows`: floats to `digits` places, lists and iterators space-joined.
    Either is written as it is rendered, CHUNK pieces or list values at a
    time, so a long list never stands whole as one string."""
    if args.format == "json":
        report = {"command": args.cmd, "seed": args.seed, **obj}
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(_rounded(report, digits))
        pieces = chain(iter(lambda: "".join(islice(chunks, CHUNK)), ""), "\n")
    else:
        pieces = _csv(columns, rows, head or f"# rankprobe {args.cmd} seed={args.seed}", digits)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)


def _cmd_build(args):
    array = _array(args)
    layout = _build_layout(args, array)
    if args.out:
        array.write_rpl1(args.out)
    obj = {
        "structure": layout.kind,
        "n": layout.n,
        "word_bits": layout.memory.word_bits,
        "cells": layout.memory.cell_count,
        "redundancy_bits": layout.redundancy_bits,
        "worst_probes": layout.worst_probes,
        "array_file": args.out or None,
    }
    args.out = None  # the array file is the payload; summary to stdout
    _emit(args, obj, ("structure", "n", "word_bits", "cells", "redundancy_bits", "worst_probes"), [obj])


def _cmd_query(args):
    if args.k is None:
        raise ValueError("query needs --k (the rank position)")
    tr = rank(_build_layout(args, _array(args)), args.k)
    addresses = chain((a for a, _ in tr.head), tr.span)  # the scan stays a range
    obj = {"position": args.k, "answer": tr.answer, "probes": tr.probes}
    del tr  # its scan (a view that alone keeps the layout's image alive; a list past w = 64) goes before the report is built
    obj["addresses"] = list(addresses) if args.format == "json" else addresses
    _emit(args, obj, ("position", "answer", "probes", "addresses"), [obj])


def _cmd_stats(args):
    layout = _build_layout(args, _array(args))
    obj = {"structure": layout.kind, "n": layout.n, **asdict(structure_stats(layout, seed=args.seed))}
    _emit(args, obj, ("structure", "n", "redundancy_bits", "worst_probes", "avg_probes"), [obj])


ENTROPIES = ("reference_entropy", "offset_entropy", "joint_entropy", "deficit")


def _cmd_entropy(args):
    if args.k is None:
        raise ValueError("entropy needs --k (the block count)")
    n, k = args.n, args.k
    bs = n // k if k else 0
    d = args.delta if args.delta is not None else max(1, bs // 2)
    reports = {"analytic": analytic_deficit(n, k, d)}
    if n <= ENUM_LIMIT:
        reports["brute_force"] = brute_force_deficit(n, k, d)
    obj = {"n": n, "k": k, "delta": d}
    for route, rep in reports.items():
        obj[route] = {name: getattr(rep, name) for name in ENTROPIES}
    obj["analytic"]["per_block"] = list(reports["analytic"].per_block_deficits)
    rows = [{"route": route, **obj, **obj[route]} for route in reports]
    _emit(args, obj, ("route", "n", "k", "delta", *ENTROPIES), rows, digits=9)


def _cmd_encode(args):
    if args.k is None:
        raise ValueError("encode needs --k (the block count)")
    array = _array(args)
    layout = _build_layout(args, array)
    rec = encode(layout, args.k, args.delta)
    back = decode(rec, layout.params, args.k)
    if back != array:
        raise CorruptEncoding("decode failed to invert encode")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(rec.to_rpe1())
    obj = {
        "n": layout.n,
        "k": args.k,
        "offset": rec.offset,
        "sizes": dict(zip(COMPONENTS, rec.sizes)),
        "total_bits": rec.total_bits,
        "decode_identity": "ok",
        "record_file": args.out or None,
    }
    args.out = None  # record already written; summary goes to stdout
    entries = [*obj["sizes"].items(), ("total", rec.total_bits), ("offset", rec.offset), ("decode_identity", "ok")]
    _emit(args, obj, ("component", "bits"), [{"component": c, "bits": b} for c, b in entries])


def _cmd_eliminate(args):
    layout = _build_layout(args, _array(args))
    traj = run_elimination(layout, LabConfig(rng_seed=args.seed))
    rows = [asdict(r) for r in traj.rows]
    obj = {
        "structure": traj.structure,
        "n": traj.n,
        "gamma": traj.gamma,
        "status": traj.status,
        "rows": rows,
    }
    head = f"# structure={traj.structure} n={traj.n} gamma={traj.gamma} seed={traj.seed} status={traj.status}"
    _emit(args, obj, [f.name for f in fields(EliminationRow)], rows, head)


def _cmd_tradeoff(args):
    if args.t is not None and args.t < 1:
        raise ValueError("stage must be >= 1")
    array = _array(args)
    top = max_stage(args.n) if args.t is None else min(args.t, max_stage(args.n))
    stages = [
        {"stage": t, **asdict(structure_stats(build_recursive(array, t, args.w), seed=args.seed))}
        for t in range(1, top + 1)
    ]
    columns = ("stage", "redundancy_bits", "worst_probes", "avg_probes")
    _emit(args, {"n": args.n, "stages": stages}, columns, stages)


COMMANDS = {  # subcommand: (handler, help line, the flags it takes), in --help order
    "build": (_cmd_build, "build a structure over a seeded random array", _flags("n t w seed structure out format")),
    "query": (_cmd_query, "answer one rank query, with its probe trace", _flags("n k t w seed structure out format")),
    "stats": (_cmd_stats, "redundancy and probe statistics", _flags("n t w seed structure out format")),
    "entropy": (_cmd_entropy, "answer-correlation deficit report", _flags("n k delta seed out format")),
    "encode": (_cmd_encode, "encode the array through its structure",
               _flags("n k delta t w seed structure out format")),
    "eliminate": (_cmd_eliminate, "run the probe-elimination rounds", _flags("n t w seed structure out format")),
    "tradeoff": (_cmd_tradeoff, "redundancy vs probes across stages",
                 _flags("n w seed out format", t={"type": int, "help": "deepest stage (default: all)"})),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rankprobe", description="Desk-scale laboratory for the "
                                     "redundancy/probe-count trade-off of succinct rank structures.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (fn, help_line, flags) in COMMANDS.items():
        sp = sub.add_parser(cmd, help=help_line)
        for name, spec in flags.items():
            sp.add_argument(f"--{name}", **spec)
        sp.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except LabError as e:
        print(e.cli_line(), file=sys.stderr)
        return e.exit_code
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a size past what this host can hold is refused too
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # the CLI reads no files: this is an output write
        print(f"error: cannot write {e.filename or 'output'}: {e.strerror or e}", file=sys.stderr)
        return 7
    return 0


if __name__ == "__main__":
    sys.exit(main())
