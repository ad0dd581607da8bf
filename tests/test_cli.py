import hashlib
import json
import resource
import subprocess
import sys

import numpy as np
import pytest

from rankprobe.bits import BitArray
from rankprobe import cli
from rankprobe.cli import main
from rankprobe.elimination import run_elimination
from rankprobe.encoding import EncodingRecord, decode
from rankprobe.entropy import LabConfig, binom_entropy_estimate
from rankprobe.errors import CorruptEncoding, CorruptFootprint, RefusalError, SimulationFault
from rankprobe.model import ProbeTrace
from rankprobe.structures import build_recursive, build_two_level, max_stage
from oracles import popcount_rank


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of stdout (csv, json) for the README examples at small n
STDOUT_PINS = {
    ("build", "--n", "4096", "--structure", "recursive", "--t", "3"): (
        "327c5e91b23af5b5a4e85ce5e30c33cdf159f3d962c194ef75f3d7fc38627d2c",
        "5d9ce6bba546ebc58b3d6d0e545928e68cc60fe5f388cfcf98e030b562e04766",
    ),
    ("query", "--n", "4096", "--k", "2048", "--structure", "two_level"): (
        "96cb07be14946465ba462c1a0d81d0fd3087af70190c4500c6e0529be917bf06",
        "a32c115a8ddb3342edb045b6a35cb23a41285b2c56147aab83889db817677a65",
    ),
    ("stats", "--n", "4096", "--structure", "recursive", "--t", "2"): (
        "48aa2ff2b30a306eb9583bb1e1f6644478412765550b03be16452d3279b6b152",
        "5bfc05aef337635ff413ec0ff3e916b543eb08bd986d8b5895616882738280ef",
    ),
    ("entropy", "--n", "16", "--k", "4", "--delta", "2"): (
        "9ab564032ff5e03949fe40fd8f358d7e201a35182b4d2896e39cd120024e1a49",
        "47304bdd2dddab70e35707a3c4cfcf0dae4f7621d23460ed753ffcaa40a75abc",
    ),
    ("encode", "--n", "4096", "--k", "4", "--delta", "512"): (
        "42227ee43221bbd3ade0b7bd29ec7a7313bca5d73548eda95a216109039073f2",
        "aafc9c53d5fc24f54216f4377e0286eb383a9ed143484cff8ba9e1c265706c93",
    ),
    ("eliminate", "--n", "64", "--structure", "naive"): (
        "a616068caf8841659124fb8032d03caa5af1e47d27b5c8dd88fd8b9f910926a3",
        "fb3d6ab0df728b557a7faaafdf6720003981d27ba417da51db42758aebb1106b",
    ),
    ("tradeoff", "--n", "4096"): (
        "4dfa0e82dad94920d417204f5636bfc1c69b41987244e67ecd1ba1af4e541a74",
        "010aef722e1a507cce173f729b041b4f87ff3c67ca18fb2b95624153c9e09a23",
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", list(STDOUT_PINS), ids=lambda argv: argv[0])
def test_stdout_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[argv][fmt == "json"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", list(STDOUT_PINS), ids=lambda argv: argv[0])
def test_out_file(tmp_path, capsys, argv, fmt):
    # a report goes to the file instead of stdout; build and encode write
    # their payload there and keep the summary on stdout, naming the file
    path = tmp_path / "out"
    _, want, _ = run_cli(capsys, *argv, "--format", fmt)
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
    assert code == 0 and err == ""
    if argv[0] not in ("build", "encode"):
        assert out == "" and path.read_bytes() == want.encode()
        return
    array = BitArray.random(4096, np.random.default_rng(0))
    if argv[0] == "build":
        assert BitArray.from_rpl1(path.read_bytes()) == array
    else:
        rec = EncodingRecord.from_rpe1(path.read_bytes())
        assert decode(rec, build_two_level(array).params, 4) == array
    if fmt == "csv":
        assert out == want
    else:
        key = "array_file" if argv[0] == "build" else "record_file"
        assert json.loads(want)[key] is None
        assert json.loads(out) == {**json.loads(want), key: str(path)}


def test_build_csv(capsys):
    code, out, err = run_cli(capsys, "build", "--n", "4096", "--seed", "3")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "# rankprobe build seed=3"
    assert lines[1] == "structure,n,word_bits,cells,redundancy_bits,worst_probes"
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(3)))
    assert lines[2] == (
        f"two_level,4096,64,{layout.memory.cell_count},"
        f"{layout.redundancy_bits},{layout.worst_probes}"
    )


def test_build_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "build", "--n", "512", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "build", "--n", "512", "--format", "json")
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["command"] == "build" and obj["seed"] == 0
    assert obj["n"] == 512 and obj["redundancy_bits"] >= 0


def test_build_writes_array_file(tmp_path, capsys):
    path = tmp_path / "arr.rpl1"
    code, out, _ = run_cli(capsys, "build", "--n", "300", "--seed", "7", "--out", str(path))
    assert code == 0
    assert "structure," in out  # summary still lands on stdout
    back = BitArray.from_rpl1(path.read_bytes())
    assert back == BitArray.random(300, np.random.default_rng(7))


def test_query_matches_oracle(capsys):
    array = BitArray.random(2048, np.random.default_rng(5))
    want = popcount_rank(array, 777)
    code, out, _ = run_cli(
        capsys, "query", "--n", "2048", "--k", "777", "--seed", "5",
        "--structure", "recursive", "--t", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "position,answer,probes,addresses"
    fields = lines[2].split(",")
    assert fields[0] == "777" and int(fields[1]) == want
    assert int(fields[2]) >= 1


def test_query_out_of_range(capsys):
    code, _, err = run_cli(capsys, "query", "--n", "64", "--k", "65")
    assert code == 2 and err.startswith("error:")


def test_probe_budget_overrun_exits_4(capsys, monkeypatch):
    build = cli._build_layout

    def overrunning(args, array):
        layout = build(args, array)

        def step(query, known, source):
            return ProbeTrace(query, tuple((a, source.read(a)) for a in range(layout.worst_probes + 1)), 0)

        step.params = layout.params
        layout.step = step
        return layout

    monkeypatch.setattr(cli, "_build_layout", overrunning)
    code, out, err = run_cli(capsys, "query", "--n", "4096", "--k", "100")
    assert code == 4 and out == ""
    assert err.startswith("error: SimulationFault") and err.count("\n") == 1


@pytest.mark.parametrize(
    "error,code,line",
    [
        (RefusalError("sample too small"), 3, "refused: sample too small\n"),
        (SimulationFault("bad address"), 4, "error: SimulationFault: bad address\n"),
        (CorruptFootprint("exhausted"), 5, "error: CorruptFootprint: exhausted\n"),
        (CorruptEncoding("bad magic"), 6, "error: CorruptEncoding: bad magic\n"),
    ],
)
def test_lab_errors_map_to_exit_codes(capsys, monkeypatch, error, code, line):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "structure_stats", fail)
    assert run_cli(capsys, "stats", "--n", "64") == (code, "", line)


def test_failed_decode_identity_exits_6(capsys, monkeypatch):
    monkeypatch.setattr(cli, "decode", lambda rec, params, k: BitArray(params["n"]))
    code, out, err = run_cli(capsys, "encode", "--n", "512", "--k", "4", "--seed", "1")
    assert code == 6 and out == ""
    assert err.startswith("error: CorruptEncoding") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--n", "64", "--w", "0"), "error: cell width must be positive"),
        (("--n", "64", "--w", "-3"), "error: cell width must be positive"),
        (("--n", "64", "--w", "-3", "--structure", "naive"), "error: cell width must be positive"),
        (("--n", "0",), "error: probe statistics need n >= 1"),
    ],
)
def test_stats_bad_size_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "stats", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("tradeoff", "--n", "4096", "--t", "0"), "error: stage must be >= 1"),
        (("eliminate", "--n", "0"), "error: probe elimination needs n >= 1"),
        (("query", "--n", "64"), "error: query needs --k (the rank position)"),
        (("entropy", "--n", "16"), "error: entropy needs --k (the block count)"),
        (("encode", "--n", "4096"), "error: encode needs --k (the block count)"),
    ],
    ids=["tradeoff-t0", "eliminate-n0", "query-no-k", "entropy-no-k", "encode-no-k"],
)
def test_empty_run_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--k", "0"), "error: block count 0 outside [1, 4096]"),
        (("--k", "5000"), "error: block count 5000 outside [1, 4096]"),
        (("--k", "4", "--delta", "0"), "error: offset 0 holds the reference queries, not a detached set"),
        (("--k", "4", "--delta", "1024"), "error: offset 1024 outside [0, 1024)"),
    ],
    ids=["k0", "k5000", "delta0", "delta1024"],
)
def test_encode_bad_blocks_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "encode", "--n", "4096", *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--n", "64"),
        ("encode", "--n", "512", "--k", "4"),
        ("eliminate", "--n", "64", "--structure", "naive"),
    ],
)
def test_output_into_missing_directory_exits_7(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.bin"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 7 and out == ""
    assert err.startswith(f"error: cannot write {path}:") and err.count("\n") == 1
    assert not path.parent.exists()


def test_stats_fields(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "4096", "--structure", "naive")
    assert code == 0
    lines = out.strip().split("\n")
    row = lines[2].split(",")
    assert row[0] == "naive"
    assert float(row[4]) <= float(row[3])


def test_entropy_both_routes_small(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "16", "--k", "4", "--delta", "2")
    assert code == 0
    lines = out.strip().split("\n")
    routes = [line.split(",")[0] for line in lines[2:]]
    assert routes == ["analytic", "brute_force"]
    a_def = float(lines[2].split(",")[-1])
    b_def = float(lines[3].split(",")[-1])
    assert a_def == pytest.approx(3.714473436, abs=1e-6)
    assert a_def == pytest.approx(b_def, abs=1e-8)


def test_entropy_analytic_only_large(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--n", "65536", "--k", "16", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert "brute_force" not in obj
    assert obj["delta"] == 2048  # default: half the block
    assert obj["analytic"]["deficit"] > 0


@pytest.mark.parametrize("n, k", [(1 << 20, 1), (1 << 30, 2)])
def test_entropy_closed_form_at_scale(capsys, n, k):
    # past the exact seed's range the closed form costs the terms it sums;
    # the binomial entropies agree with 0.5 lg(pi e m / 2) to O(1/m^2)
    code, out, _ = run_cli(capsys, "entropy", "--n", str(n), "--k", str(k), "--format", "json")
    assert code == 0
    got = json.loads(out)["analytic"]
    bs = n // k
    d = bs // 2
    want = {
        "reference_entropy": k * binom_entropy_estimate(bs),
        "offset_entropy": binom_entropy_estimate(d) + (k - 1) * binom_entropy_estimate(bs),
        "joint_entropy": k * (binom_entropy_estimate(d) + binom_entropy_estimate(bs - d)),
    }
    for name, value in want.items():
        assert got[name] == pytest.approx(value, abs=1e-9)


def test_encode_summary_and_record(tmp_path, capsys):
    path = tmp_path / "rec.rpe1"
    code, out, _ = run_cli(
        capsys, "encode", "--n", "4096", "--k", "4", "--delta", "512",
        "--seed", "11", "--out", str(path),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert "decode_identity,ok" in lines
    comp = {f.split(",")[0]: int(f.split(",")[1]) for f in lines[2:8]}
    total = int([f for f in lines if f.startswith("total,")][0].split(",")[1])
    assert sum(comp.values()) == total
    rec = EncodingRecord.from_rpe1(path.read_bytes())
    assert rec.offset == 512
    array = BitArray.random(4096, np.random.default_rng(11))
    layout = build_two_level(array)
    assert decode(rec, layout.params, 4) == array


def test_eliminate_csv(capsys):
    code, out, _ = run_cli(capsys, "eliminate", "--n", "64", "--structure", "naive")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# structure=naive n=64 gamma=4.0 seed=0 status=drained")
    assert len(lines) == 3
    assert lines[2].startswith("0,1,4,")


def test_eliminate_json_and_out(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "eliminate", "--n", "64", "--structure", "naive", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "drained" and len(obj["rows"]) == 1
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "eliminate", "--n", "64", "--structure", "naive", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().startswith("# structure=naive")


def test_eliminate_csv_shape(capsys, monkeypatch):
    a = BitArray.random(1 << 12, np.random.default_rng(7))
    layout = build_two_level(a, superblock=1024, block=128)
    traj = run_elimination(layout, config=LabConfig(saturation_fraction=1.0, final_full_round=True))
    monkeypatch.setattr(cli, "run_elimination", lambda *args: traj)
    code, out, _ = run_cli(capsys, "eliminate", "--n", "4096")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# structure=two_level n=4096 gamma=4.0 seed=0 status=")
    assert lines[1] == "round,published_bits,block_count,overlap_prob,avg_probes_before,avg_probes_after,published_cells"
    assert len(lines) == 2 + len(traj.rows)
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == str(layout.redundancy_bits)
    assert "." in first[3] and "." in first[4]


def test_tradeoff_all_stages(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--n", "4096")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2 + max_stage(4096)
    array = BitArray.random(4096, np.random.default_rng(0))
    for t, line in enumerate(lines[2:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == t
        assert int(fields[1]) == build_recursive(array, t).redundancy_bits
    rs = [int(line.split(",")[1]) for line in lines[2:]]
    # the tail can stall at this small n; never grows though
    assert all(a >= b for a, b in zip(rs, rs[1:]))


def test_tradeoff_stage_cap(capsys):
    code, out, _ = run_cli(capsys, "tradeoff", "--n", "4096", "--t", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4


def test_bad_structure_choice(capsys):
    with pytest.raises(SystemExit):
        main(["build", "--n", "64", "--structure", "fancy"])


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "rankprobe.cli", "build", "--n", "256", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "build"


def test_out_of_memory_exits_3():
    # a 2^36-bit array is an 8 GiB draw; under a 2 GiB address-space
    # limit, set in the child alone, numpy raises MemoryError
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "rankprobe.cli", "build", "--n", "68719476736"],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_tradeoff_out_of_memory_exits_3():
    # tradeoff at 2^32 bits first asks for a 512 MiB array.  Importing
    # rankprobe took 144 MiB of address space (136 MiB failed; Linux,
    # Python 3.11, numpy 2.4), so a 256 MiB limit, set in the child alone,
    # fails that first allocation within a quarter second instead of after
    # a 1 GiB climb.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "rankprobe.cli", "tradeoff", "--n", "4294967296"],
        capture_output=True,
        text=True,
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory:") and proc.stderr.count("\n") == 1
