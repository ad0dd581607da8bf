"""Self-tests of the benchmark: determinism, checks that catch corrupted
outputs, tracing, and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs():
    return {name: wl.run(SEED, workloads.NULL_TRACER) for name, wl in workloads.WORKLOADS.items()}


def test_same_seed_same_inputs_and_counts(outputs):
    for name, wl in workloads.WORKLOADS.items():
        again = wl.run(SEED, workloads.NULL_TRACER)
        first = outputs[name]
        if "words" in first:
            assert first["words"].tobytes() == again["words"].tobytes(), name
        assert wl.counts(first) == wl.counts(again), name
    other = workloads.WORKLOADS["encode_roundtrip"].run(SEED + 1, workloads.NULL_TRACER)
    assert other["words"].tobytes() != outputs["encode_roundtrip"]["words"].tobytes()


def test_checks_pass_on_real_outputs(outputs):
    for name, wl in workloads.WORKLOADS.items():
        assert wl.check(SEED, outputs[name]) == [], name


def _flip_bit(words):
    words = words.copy()
    words[5] ^= np.uint64(1 << 17)
    return words


def _set(path, value):
    def corrupt(out):
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return corrupt


def _bump_row(field, delta):
    def corrupt(out):
        row = list(out["rows"][0])
        row[field] += delta
        out["rows"][0] = tuple(row)

    return corrupt


CORRUPTIONS = {
    "stage_ladder": {
        "input bit": _set(["words"], _flip_bit),
        "avg_probes": _set(["stages", 3, "avg_probes"], lambda v: v + 1 / 4096),
        "worst_probes": _set(["stages", 1, "worst_probes"], lambda v: v + 1),
        "redundancy": _set(["stages", 0, "redundancy_bits"], lambda v: v - 64),
        "spot rank": _set(["stages", 2, "spot_answers", 7], lambda v: v + 1),
        "missing stage": lambda out: out["stages"].pop(),
    },
    "publish_drain": {
        "input bit": _set(["words"], _flip_bit),
        "published cells": _bump_row(6, 1),
        "avg_probes_after": _bump_row(5, 1 / 4096),
        "overlap": _bump_row(3, 1 / 4096),
        "status": _set(["status"], "saturated"),
        "ledger": _set(["published_length"], lambda v: v + 1),
    },
    "encode_roundtrip": {
        "decoded bit": _set(["decoded_words"], _flip_bit),
        ".rpl1 byte": _set(["rpl1"], lambda b: b[:-1] + bytes([b[-1] ^ 1])),
        ".rpl1 read-back": _set(["rpl1_words"], _flip_bit),
        ".rpe1 re-serialization": _set(["rpe1_again"], lambda b: b + b"\0"),
        "answer bits": _set(["sizes"], lambda s: (s[0], s[1], s[2] + 1, *s[3:])),
        "total": _set(["total_bits"], lambda v: v + 1),
        "offset": _set(["offset"], 510),
        "replay answer": lambda out: out["replays"][4][2].__setitem__(0, out["replays"][4][2][0] + 1),
        "footprint cells": _set(["replays", 9], lambda r: (r[0] + 1, r[1] + 64, r[2])),
    },
    "entropy_triangulate": {
        "analytic": _set(["analytic"], lambda v: v + 1e-11),
        "brute force": _set(["brute_force"], lambda v: v + 1e-8),
        "monte carlo": _set(["montecarlo"], lambda m: (m[0] + 0.31, m[1] + 0.31, m[2] + 0.31)),
        "interval": _set(["montecarlo"], lambda m: (m[0], m[0] + 0.01, m[2])),
    },
}


@pytest.mark.parametrize(
    "workload,corruption",
    [(w, c) for w, cs in CORRUPTIONS.items() for c in cs],
)
def test_check_fails_on_corrupted_output(outputs, workload, corruption):
    out = copy.deepcopy(outputs[workload])
    CORRUPTIONS[workload][corruption](out)
    assert workloads.WORKLOADS[workload].check(SEED, out), corruption


def test_traced_counts_equal_untraced(outputs):
    wl = workloads.WORKLOADS["publish_drain"]
    tracer = workloads.Tracer()
    tracer.experiment = SEED
    traced = wl.run(SEED, tracer)
    assert wl.counts(traced) == wl.counts(outputs["publish_drain"])
    names = [s[0] for s in tracer.spans]
    assert names == ["bits.random", "structures.build", "elimination.run"]
    assert all(s[3] is None and s[4] == SEED and s[2] >= s[1] for s in tracer.spans)


def test_spans_nest_and_record_peaks():
    tracer = workloads.Tracer(peak_spans=("inner",))
    with tracer.span("outer"):
        with tracer.span("inner"):
            block = np.ones(1 << 20)
    del block
    outer, inner = tracer.spans
    assert inner[3] == 0 and outer[3] is None
    assert inner[5] >= 8 << 20 and outer[5] is None


def test_tail_rule():
    assert run.tail_of(list(range(20))) == (9, 50.0, 20)
    assert run.tail_of(list(range(100, 0, -1))) == (90, 90.0, 100)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in run.PER_LAYER.items()}
    assert set(run.TWIN_ARGS) == set(run.TWIN_SHA256) == set(clock.EXPONENT) == set(run.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stage_ladder", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
