import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittingqkd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_states_payload(capsys, config):
    code, out = run_cli(capsys, "states")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 40
    first = payload[0]
    assert first["card"] == "S1"
    assert first["block"] == [0, 0]
    assert len(first["vector"]) == 4
    assert all(len(pair) == 2 for pair in first["vector"])
    cards = [rec["card"] for rec in payload]
    assert cards == [s.card.label for s in config.states]


def test_bases_payload(capsys):
    code, out = run_cli(capsys, "bases")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 40
    assert payload[0] == {
        "id": 0,
        "tag": "rank-tetrad",
        "members": ["S1", "H1", "D1", "C1"],
    }
    tags = [rec["tag"] for rec in payload]
    assert tags.count("rank-tetrad") == 10
    assert tags.count("mixed-suit") == 18
    assert tags.count("mono-suit") == 12


def test_outputs_are_byte_stable(capsys):
    outputs = []
    for _ in range(2):
        _, out = run_cli(capsys, "states")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out = run_cli(
            capsys, "simulate", "--protocol", "naive", "--rounds", "500", "--seed", "4"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_joint_diagonal(capsys):
    code, out = run_cli(capsys, "joint", "--alice", "6", "--bob", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["eve"] is None
    for i in range(4):
        for j in range(4):
            assert payload["matrix"][i][j] == ("1/4" if i == j else "0/1")


def test_joint_with_eve(capsys):
    code, out = run_cli(capsys, "joint", "--alice", "1", "--bob", "1", "--eve", "0")
    assert code == 0
    payload = json.loads(out)
    # exact 2/3 mismatch on a rank tetrad: diagonal entries sum to 1/3
    assert payload["matrix"][0][0] == "1/12"


def test_joint_rejects_out_of_range(capsys):
    # The range rule and its message are configuration.check_int's.
    for argv, bound in (
        ("joint --alice 40 --bob 0", "in 0..39, got 40"),
        ("simulate --protocol naive --rounds 10 --eve 41", "in 0..39, got 41"),
        ("simulate --protocol naive --rounds 0", ">= 1, got 0"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        captured = capsys.readouterr()
        assert err.value.code == 2, argv
        assert captured.out == "", argv
        assert f"must be an int {bound}" in captured.err, argv


def test_simulate_summary_fields(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "key-agreement",
        "--rounds",
        "2000",
        "--seed",
        "11",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["protocol"] == "key-agreement"
    assert payload["rounds"] == 2000
    assert payload["mismatches"] == 0
    assert set(payload["extras"]) == {"sameStateRate", "distinctOrthogonalRate"}
    assert payload["keyBitsHex"]


def test_simulate_policy_and_eve(capsys):
    code, out = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "naive",
        "--rounds",
        "1000",
        "--seed",
        "12",
        "--policy",
        "agreed",
        "--eve",
        "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sifted"] == 1000  # agreed policy with equal seeds
    assert payload["eve"] == 0


@pytest.mark.parametrize("protocol", ["two-step", "key-agreement"])
def test_simulate_eve_runs_for_every_protocol(capsys, tmp_path, protocol):
    path = tmp_path / "rounds.csv"
    code, out = run_cli(
        capsys, "simulate", "--protocol", protocol, "--rounds", "4000", "--seed", "13",
        "--eve", "15", "--transcript", str(path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eve"] == 15
    assert payload["mismatches"] > 0
    assert len(path.read_text().splitlines()) == 4001


def test_simulate_transcript_csv(tmp_path, capsys):
    path = tmp_path / "rounds.csv"
    code, _ = run_cli(
        capsys,
        "simulate",
        "--protocol",
        "naive",
        "--rounds",
        "50",
        "--seed",
        "3",
        "--transcript",
        str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("round,")
    assert len(lines) == 51


def test_classical_scan_output(tmp_path, capsys):
    dump = tmp_path / "max.json"
    code, out = run_cli(capsys, "classical-scan", "--dump-max", str(dump))
    assert code == 0
    payload = json.loads(out)
    assert payload["maxCorrect"] == 34
    assert payload["countAtMax"] == 720
    assert payload["existsPerfect"] is False
    assert sum(payload["histogram"]) == 4**10
    maximizers = json.loads(dump.read_text())
    assert len(maximizers) == 720
    assert all(len(m) == 10 for m in maximizers)


def test_verify_quick_passes(capsys):
    code, out = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 11


def test_group_command(capsys):
    code, out = run_cli(capsys, "group")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "rawOrder": 51840,
        "orderModPm1": 25920,
        "projectiveOrder": 25920,
        "orbitSize": 40,
    }


USAGE_ERRORS = (
    "nonsense",
    "",
    "simulate --protocol naive --rounds 10 --bogus",
    "joint --alice 40 --bob 0",
    "joint --alice 0 --bob -1",
    "joint --alice 0 --bob 0 --eve 50",
    "joint --alice x --bob 0",
    "simulate --protocol naive --rounds 10 --eve 41",
    "simulate --protocol naive --rounds 0",
    "simulate --protocol naive --rounds 10 --seed -7",
    "simulate --protocol naive --rounds 10 --policy correlated:abc",
    "simulate --protocol naive --rounds 10 --policy correlated:3",
    "simulate --protocol naive --rounds 10 --policy correlated:1/0",
    "simulate --protocol naive --rounds 10 --policy correlated:1e-10000000",
    "simulate --protocol naive --rounds 10 --policy sometimes",
    "group --max-elements 10",
    "classical-scan --threads 4",
)


def test_usage_error_exit_code(capsys, tmp_path):
    # A usage error is caught before --transcript creates its file.
    transcript = tmp_path / "transcript.csv"
    late_errors = tuple(
        f"simulate --protocol {p} --rounds {n} --eve {e} --transcript {transcript}"
        for p, n, e in (("two-step", 0, 0), ("key-agreement", 5, 40), ("naive", 5, "x"))
    )
    for argv in USAGE_ERRORS + late_errors:
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "error:" in captured.err, argv
    assert not transcript.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "naive", "--rounds", "10", "--transcript"],
        ["classical-scan", "--dump-max"],
    ],
)
def test_unwritable_output_fails_before_the_run(capsys, tmp_path, argv):
    path = tmp_path / "missing-dir" / "out"
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}")
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--protocol", "naive", "--rounds", "10", "--transcript", "/dev/full"],
        ["classical-scan", "--dump-max", "/dev/full"],
    ],
)
def test_failed_output_write_exits_1_without_traceback(capsys, argv):
    # /dev/full opens, then every write fails with ENOSPC.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def _src_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wittingqkd", "bases"],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["id"] == 0


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wittingqkd", "states"],
            env=_src_env(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("how", ["-O", "PYTHONOPTIMIZE"])
def test_verify_refuses_to_run_without_its_asserts(how):
    # -O strips assert statements, so every check would pass unexamined.
    flags, env = (["-O"], _src_env()) if how == "-O" else ([], dict(_src_env(), PYTHONOPTIMIZE="1"))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "wittingqkd", "verify", "--quick"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "-O" in proc.stderr


def test_sessions_never_import_numpy_random(tmp_path):
    # numpy.random adds several MB of resident memory; the samplers read
    # random.Random streams only.
    script = f"""
import contextlib, io, sys
from wittingqkd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for extra in (["naive", "--eve", "4"], ["two-step"],
                  ["key-agreement", "--transcript", {str(tmp_path / "rounds.csv")!r}]):
        argv = ["simulate", "--rounds", "3000", "--policy", "correlated:9/10", "--protocol"]
        assert main(argv + extra) == 0
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
