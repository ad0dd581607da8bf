"""Command-line front end.

One binary, seven subcommands: build, query, stats, entropy, encode,
eliminate, tradeoff.  Everything is seeded and deterministic: the same
invocation produces byte-identical output, and the seed is recorded in
the output header.  Exit codes: 0 success, 2 usage error, 3 refusal
(the computation was out of honest range), 4 simulation fault (a query
misbehaved or overran its probe budget), 5 corrupt footprint, 6 corrupt
encoding record, 7 an output file could not be written.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bits import BitArray
from .encoding import COMPONENTS, decode, encode
from .entropy import ENUM_LIMIT, LabConfig, analytic_deficit, brute_force_deficit
from .elimination import run_elimination
from .errors import CorruptEncoding, LabError
from .structures import (
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    rank,
    structure_stats,
)


def _add_flags(sp, *names):
    if "n" in names:
        sp.add_argument("--n", type=int, required=True, help="array length in bits")
    if "k" in names:
        sp.add_argument("--k", type=int, help="block count (or rank position for query)")
    if "delta" in names:
        sp.add_argument("--delta", type=int, help="offset inside each block")
    if "t" in names:
        sp.add_argument("--t", type=int, default=2, help="recursion stage")
    if "w" in names:
        sp.add_argument("--w", type=int, default=64, help="cell width in bits")
    if "seed" in names:
        sp.add_argument("--seed", type=int, default=0, help="array RNG seed")
    if "structure" in names:
        sp.add_argument(
            "--structure",
            choices=("naive", "two_level", "recursive"),
            default="two_level",
        )
    if "out" in names:
        sp.add_argument("--out", help="write output to this file")
    if "format" in names:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_layout(args, array):
    if args.structure == "naive":
        return build_naive(array, args.w)
    if args.structure == "recursive":
        return build_recursive(array, args.t, args.w)
    return build_two_level(array, word_bits=args.w)


def _array(args):
    return BitArray.random(args.n, np.random.default_rng(args.seed))


def _emit(args, lines_csv, obj_json):
    if args.format == "json":
        text = json.dumps(obj_json, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(lines_csv) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args):
    array = _array(args)
    layout = _build_layout(args, array)
    if args.out:
        array.write_rpl1(args.out)
    header = f"# rankprobe build seed={args.seed}"
    rows = [
        header,
        "structure,n,word_bits,cells,redundancy_bits,worst_probes",
        f"{layout.kind},{layout.n},{layout.memory.word_bits},"
        f"{layout.memory.cell_count},{layout.redundancy_bits},{layout.worst_probes}",
    ]
    obj = {
        "command": "build",
        "seed": args.seed,
        "structure": layout.kind,
        "n": layout.n,
        "word_bits": layout.memory.word_bits,
        "cells": layout.memory.cell_count,
        "redundancy_bits": layout.redundancy_bits,
        "worst_probes": layout.worst_probes,
        "array_file": args.out or None,
    }
    args.out = None  # the array file is the payload; summary to stdout
    _emit(args, rows, obj)
    return None


def _cmd_query(args):
    if args.k is None:
        raise ValueError("query needs --k (the rank position)")
    array = _array(args)
    layout = _build_layout(args, array)
    tr = rank(layout, args.k)
    rows = [
        f"# rankprobe query seed={args.seed}",
        "position,answer,probes,addresses",
        f"{args.k},{tr.answer},{len(tr.steps)},{' '.join(str(a) for a in tr.addresses)}",
    ]
    obj = {
        "command": "query",
        "seed": args.seed,
        "position": args.k,
        "answer": tr.answer,
        "probes": len(tr.steps),
        "addresses": list(tr.addresses),
    }
    _emit(args, rows, obj)
    return None


def _cmd_stats(args):
    array = _array(args)
    layout = _build_layout(args, array)
    st = structure_stats(layout, seed=args.seed)
    rows = [
        f"# rankprobe stats seed={args.seed}",
        "structure,n,redundancy_bits,worst_probes,avg_probes",
        f"{layout.kind},{layout.n},{st.redundancy_bits},{st.worst_probes},{st.avg_probes:.6f}",
    ]
    obj = {
        "command": "stats",
        "seed": args.seed,
        "structure": layout.kind,
        "n": layout.n,
        "redundancy_bits": st.redundancy_bits,
        "worst_probes": st.worst_probes,
        "avg_probes": round(st.avg_probes, 6),
    }
    _emit(args, rows, obj)
    return None


def _cmd_entropy(args):
    if args.k is None:
        raise ValueError("entropy needs --k (the block count)")
    n, k = args.n, args.k
    bs = n // k if k else 0
    d = args.delta if args.delta is not None else max(1, bs // 2)
    rep = analytic_deficit(n, k, d)
    rows = [
        f"# rankprobe entropy seed={args.seed}",
        "route,n,k,delta,reference_entropy,offset_entropy,joint_entropy,deficit",
        f"analytic,{n},{k},{d},{rep.reference_entropy:.9f},{rep.offset_entropy:.9f},"
        f"{rep.joint_entropy:.9f},{rep.deficit:.9f}",
    ]
    obj = {
        "command": "entropy",
        "seed": args.seed,
        "n": n,
        "k": k,
        "delta": d,
        "analytic": {
            "reference_entropy": round(rep.reference_entropy, 9),
            "offset_entropy": round(rep.offset_entropy, 9),
            "joint_entropy": round(rep.joint_entropy, 9),
            "deficit": round(rep.deficit, 9),
            "per_block": [round(x, 9) for x in rep.per_block_deficits],
        },
    }
    if n <= ENUM_LIMIT:
        bf = brute_force_deficit(n, k, d)
        rows.append(
            f"brute_force,{n},{k},{d},{bf.reference_entropy:.9f},{bf.offset_entropy:.9f},"
            f"{bf.joint_entropy:.9f},{bf.deficit:.9f}"
        )
        obj["brute_force"] = {
            "reference_entropy": round(bf.reference_entropy, 9),
            "offset_entropy": round(bf.offset_entropy, 9),
            "joint_entropy": round(bf.joint_entropy, 9),
            "deficit": round(bf.deficit, 9),
        }
    _emit(args, rows, obj)
    return None


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
    rows = [
        f"# rankprobe encode seed={args.seed}",
        "component,bits",
        *[f"{name},{size}" for name, size in zip(COMPONENTS, rec.sizes)],
        f"total,{rec.total_bits}",
        f"offset,{rec.offset}",
        "decode_identity,ok",
    ]
    obj = {
        "command": "encode",
        "seed": args.seed,
        "n": layout.n,
        "k": args.k,
        "offset": rec.offset,
        "sizes": dict(zip(COMPONENTS, rec.sizes)),
        "total_bits": rec.total_bits,
        "decode_identity": "ok",
        "record_file": args.out or None,
    }
    if args.out:
        args.out = None  # record already written; summary goes to stdout
    _emit(args, rows, obj)
    return None


def _cmd_eliminate(args):
    array = _array(args)
    layout = _build_layout(args, array)
    config = LabConfig(rng_seed=args.seed)
    traj = run_elimination(layout, config)
    obj = {
        "command": "eliminate",
        "seed": args.seed,
        "structure": traj.structure,
        "n": traj.n,
        "gamma": traj.gamma,
        "status": traj.status,
        "rows": [
            {
                "round": r.round,
                "published_bits": r.published_bits,
                "block_count": r.block_count,
                "overlap_prob": round(r.overlap_prob, 6),
                "avg_probes_before": round(r.avg_probes_before, 6),
                "avg_probes_after": round(r.avg_probes_after, 6),
                "published_cells": r.published_cells,
            }
            for r in traj.rows
        ],
    }
    _emit(args, traj.to_csv().splitlines(), obj)
    return None


def _cmd_tradeoff(args):
    if args.t is not None and args.t < 1:
        raise ValueError("stage must be >= 1")
    array = _array(args)
    top = max_stage(args.n) if args.t is None else min(args.t, max_stage(args.n))
    rows = [
        f"# rankprobe tradeoff seed={args.seed}",
        "stage,redundancy_bits,worst_probes,avg_probes",
    ]
    entries = []
    for t in range(1, top + 1):
        layout = build_recursive(array, t, args.w)
        st = structure_stats(layout, seed=args.seed)
        rows.append(f"{t},{st.redundancy_bits},{st.worst_probes},{st.avg_probes:.6f}")
        entries.append(
            {
                "stage": t,
                "redundancy_bits": st.redundancy_bits,
                "worst_probes": st.worst_probes,
                "avg_probes": round(st.avg_probes, 6),
            }
        )
    obj = {"command": "tradeoff", "seed": args.seed, "n": args.n, "stages": entries}
    _emit(args, rows, obj)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rankprobe",
        description="Desk-scale laboratory for the redundancy/probe-count "
        "trade-off of succinct rank structures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("build", help="build a structure over a seeded random array")
    _add_flags(sp, "n", "t", "w", "seed", "structure", "out", "format")
    sp.set_defaults(fn=_cmd_build)

    sp = sub.add_parser("query", help="answer one rank query, with its probe trace")
    _add_flags(sp, "n", "k", "t", "w", "seed", "structure", "out", "format")
    sp.set_defaults(fn=_cmd_query)

    sp = sub.add_parser("stats", help="redundancy and probe statistics")
    _add_flags(sp, "n", "t", "w", "seed", "structure", "out", "format")
    sp.set_defaults(fn=_cmd_stats)

    sp = sub.add_parser("entropy", help="answer-correlation deficit report")
    _add_flags(sp, "n", "k", "delta", "seed", "out", "format")
    sp.set_defaults(fn=_cmd_entropy)

    sp = sub.add_parser("encode", help="encode the array through its structure")
    _add_flags(sp, "n", "k", "delta", "t", "w", "seed", "structure", "out", "format")
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("eliminate", help="run the probe-elimination rounds")
    _add_flags(sp, "n", "t", "w", "seed", "structure", "out", "format")
    sp.set_defaults(fn=_cmd_eliminate)

    sp = sub.add_parser("tradeoff", help="redundancy vs probes across stages")
    _add_flags(sp, "n", "w", "seed", "out", "format")
    sp.add_argument("--t", type=int, default=None, help="deepest stage (default: all)")
    sp.set_defaults(fn=_cmd_tradeoff)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except LabError as e:
        print(e.cli_line(), file=sys.stderr)
        return e.exit_code
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the CLI reads no files: this is an output write
        print(f"error: cannot write {e.filename or 'output'}: {e.strerror or e}", file=sys.stderr)
        return 7
    return 0


if __name__ == "__main__":
    sys.exit(main())
