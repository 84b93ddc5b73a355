"""Tests of the benchmark itself: its output checks, its tracer and its inputs.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import signal
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import stability  # noqa: E402
import tracing  # noqa: E402
from worker import SpeedSampler, _run_op  # noqa: E402

from wittingqkd import WittingConfiguration, cli  # noqa: E402
from wittingqkd.measurement import intercept_resend_distribution  # noqa: E402


@pytest.fixture(scope="module")
def config():
    return WittingConfiguration()


@pytest.fixture(scope="module")
def eve_rates(config):
    return checks.eve_mismatch_rates(config)


def _op(argv):
    return _run_op(cli.main, argv, None)


def _simulate(*extra):
    return ["simulate", "--protocol", "naive", "--rounds", "4000", "--seed", "11", *extra]


def _verify_stdout(status=None, drop=None):
    status = status or {}
    names = [n for n in checks.VERIFY_CHECK_IDS if n != drop]
    lines = [f"{status.get(n, 'PASS')} {n}: detail" for n in names]
    passed = sum(1 for n in names if status.get(n, "PASS") == "PASS")
    return "\n".join(lines + [f"{passed}/{len(names)} checks passed"]) + "\n"


def test_correct_outputs_pass(tmp_path, eve_rates):
    transcript = tmp_path / "rounds.csv"
    argvs = [
        _simulate(),
        _simulate("--eve", "0"),
        _simulate("--eve", "33"),
        ["simulate", "--protocol", "two-step", "--rounds", "8000", "--seed", "12"],
        ["simulate", "--protocol", "key-agreement", "--rounds", "4000", "--seed", "13",
         "--policy", "correlated:9/10", "--transcript", str(transcript)],
        ["simulate", "--protocol", "key-agreement", "--rounds", "4000", "--seed", "14"],
    ]
    for argv in argvs:
        assert checks.check_op(_op(argv), eve_rates) == [], argv
    assert checks.check_verify(_verify_stdout()) == []


def test_injected_mismatch_is_counted_as_failed(tmp_path, eve_rates):
    good, bad = _op(_simulate()), _op(_simulate())
    out = json.loads(bad["stdout"])
    out["matched"] -= 1
    out["mismatches"] += 1
    bad["stdout"] = json.dumps(out)
    result = {"ops": [good, bad, dict(good, rc=1)]}
    bench = run.Run("simulate-long", 1, eve_rates, tmp_path)
    bench.check(0, result)
    assert bench.failed == 2
    assert bench.records[0]["problems"] == []
    assert any("mismatches without an attacker" in p for p in bench.records[1]["problems"])
    assert bench.records[2]["problems"][0].startswith("exit code 1")


def test_corrupted_outputs_fail(tmp_path, eve_rates):
    transcript = tmp_path / "rounds.csv"
    op = _op(["simulate", "--protocol", "key-agreement", "--rounds", "4000", "--seed", "5",
              "--transcript", str(transcript)])
    lines = transcript.read_text().splitlines(keepends=True)
    transcript.write_text("".join(lines[:-1]))
    assert any("transcript has" in p for p in checks.check_op(op, eve_rates))

    op = _op(_simulate())
    out = json.loads(op["stdout"])
    out["sifted"] = out["matched"] = 4000
    out["keyBitsHex"] = "00" * 1000
    op["stdout"] = json.dumps(out)
    assert any("sigma" in p for p in checks.check_op(op, eve_rates))

    assert checks.check_verify(_verify_stdout({"classical-scan": "FAIL"}))
    assert checks.check_verify(_verify_stdout(drop="symmetry-group"))
    assert checks.check_op({"argv": ["verify"], "rc": None, "error": "boom", "stdout": "",
                            "stderr": ""}, eve_rates)


def test_eve_expectation_matches_the_program(config, eve_rates):
    for eve in (0, 3, 15, 30):
        rates = [intercept_resend_distribution(config, b, b, eve).mismatch_probability()
                 for b in range(40)]
        assert sum(rates) / 40 == eve_rates[eve]


def test_missing_wrapper_targets_are_tolerated(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("wittingqkd.no_such_module", "f", "gone.module"),
        ("wittingqkd.protocol", "no_such_function", "gone.function"),
    ))
    monkeypatch.setattr(tracing, "COUNTERS", tracing.COUNTERS + (
        ("wittingqkd.eisenstein", "NoSuchClass", "__init__", "gone.counter"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.install_counters()
    try:
        assert "wittingqkd.no_such_module.f" in tracer.missing
        assert "wittingqkd.protocol.no_such_function" in tracer.missing
        assert "wittingqkd.eisenstein.NoSuchClass.__init__" in tracer.missing
        assert "protocol.naive.session" in tracer.installed
        assert "gone.function" not in tracer.installed
        assert "gone.counter" not in tracer.counters
        assert "eisenstein.objects" in tracer.counters
    finally:
        tracer.uninstall()
    assert not tracer.wrap_checks(types.SimpleNamespace(CHECKS=(("x", 3, False),)))
    assert not tracer.wrap_checks(types.SimpleNamespace())


def test_traced_calls_keep_results_and_nest():
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer.wrap(module, "inner", "inner", "m.inner")
    tracer.wrap(module, "outer", "outer", "m.outer")
    tracer.op = 7
    assert module.outer(1) == 4
    inner, outer = (next(s for s in tracer.spans if s["name"] == n) for n in ("inner", "outer"))
    assert inner["parent"] == outer["id"] and inner["op"] == 7
    totals = tracing.span_totals(tracer.spans)
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"])
    tracer.uninstall()
    assert module.outer(1) == 4 and len(tracer.spans) == 2


def test_inputs_depend_only_on_the_seed(tmp_path):
    for make in run.WORKLOADS.values():
        assert make(5, 2, tmp_path) == make(5, 2, tmp_path)
    assert run.eve_sweep_ops(5, 0, tmp_path) != run.eve_sweep_ops(6, 0, tmp_path)
    eves = [int(op[-1]) for op in run.eve_sweep_ops(5, 0, tmp_path)]
    for ids in run.EVE_CLASSES.values():
        assert sum(e in ids for e in eves) == run.EVE_PER_CLASS


def test_speed_sampling_leaves_output_unchanged():
    argv = _simulate("--eve", "5")
    plain = _op(argv)
    with SpeedSampler(0.002) as sampler:
        sampled = _run_op(cli.main, argv, sampler)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampled["stdout"] == plain["stdout"]
    assert sampler.samples and sampler.speed > 0


def test_two_sets_that_differ_either_way_are_flagged(tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}

    def summary(value):
        return {"eve-sweep": {"1": {"metrics": {"wall_s": {"value": value, "unit": "s"}}}}}

    assert stability.compare(spec, summary(10.0), summary(9.0), tmp_path, tmp_path)
    assert not stability.compare(spec, summary(13.0), summary(10.0), tmp_path, tmp_path)
    assert not stability.compare(spec, summary(7.0), summary(10.0), tmp_path, tmp_path)
