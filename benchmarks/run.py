"""wittingqkd benchmark: CLI workloads, end-to-end metrics, a traced per-module run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload simulate-long --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Each workload is a list of CLI operations, run through
``wittingqkd.cli.main(argv)`` in a fresh single-threaded worker process:
a closed loop with one client, operations back to back.  The operation list
is repeated, with fresh per-operation seeds derived from ``--seed``, for
``--seconds``; timings are medians over the repetitions.  Every
operation's output is checked (``checks.py``) and its stdout digest recorded.

The end-to-end times ``wall_s`` and ``setup_s`` are scaled to full host
speed: each worker samples the host's speed while it runs
(``worker.SpeedSampler``), because on a host shared with other tenants raw
times of the same code drift by 30% and more.  The raw medians and the
sampled speed are printed and written to the result file as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced, then replays the first repetition twice: once with the
program's functions wrapped in spans and once with its call counters
(``tracing.py``), and reports per-module metrics and the tracing overhead
(traced minus untraced ``wall_s``, both scaled).  Spans are raw times.  The
last stdout line is a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result with
an environment header, digests and problems goes to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracing import span_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PROBES_PER_REP = 2  # set-up-only workers before each repetition
SETUP_SAMPLES = 24  # set-up samples per run at least, topped up after the last repetition
WORKER_TIMEOUT_S = 170
N_MARKINGS = 4**10

# simulate-long: the README's three simulate lines, scaled down.  Naive and
# key-agreement rounds are weighted so that the protocol round loops
# outweigh building the exact tables (two-step tables alone cost ~1.5 s).
NAIVE_ROUNDS = 400_000
TWO_STEP_ROUNDS = 10_000
KEY_AGREEMENT_ROUNDS = 150_000
KEY_AGREEMENT_POLICY = "correlated:9/10"

# eve-sweep: intercept-resend sessions over every class of Eve tetrad.
EVE_CLASSES = {"rank": range(0, 10), "mixed-suit": range(10, 28), "mono-suit": range(28, 40)}
EVE_PER_CLASS = 3
EVE_ROUNDS = 4_000

PROTOCOLS = ("naive", "two-step", "key-agreement")


def derive_seed(*parts) -> int:
    """Non-negative 31-bit seed from the workload seed and an operation's position."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def simulate_long_ops(seed: int, rep: int, tmp: Path) -> list[list[str]]:
    def sim(i, protocol, rounds, *extra):
        s = derive_seed("simulate-long", seed, rep, i)
        return ["simulate", "--protocol", protocol, "--rounds", str(rounds), "--seed", str(s), *extra]

    transcript = str(tmp / f"key-agreement-{rep}.csv")
    return [
        sim(0, "naive", NAIVE_ROUNDS),
        sim(1, "two-step", TWO_STEP_ROUNDS),
        sim(2, "key-agreement", KEY_AGREEMENT_ROUNDS,
            "--policy", KEY_AGREEMENT_POLICY, "--transcript", transcript),
    ]


def eve_sweep_ops(seed: int, rep: int, tmp: Path) -> list[list[str]]:
    rng = random.Random(derive_seed("eve-sweep", seed, rep, "tetrads"))
    eves = [e for ids in EVE_CLASSES.values() for e in rng.sample(ids, EVE_PER_CLASS)]
    return [
        ["simulate", "--protocol", "naive", "--rounds", str(EVE_ROUNDS),
         "--seed", str(derive_seed("eve-sweep", seed, rep, i)), "--eve", str(e)]
        for i, e in enumerate(eves)
    ]


def verify_full_ops(seed: int, rep: int, tmp: Path) -> list[list[str]]:
    return [["verify"]]


WORKLOADS = {
    "simulate-long": simulate_long_ops,
    "eve-sweep": eve_sweep_ops,
    "verify-full": verify_full_ops,
}


def run_worker(ops: list[list[str]], trace: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    job = json.dumps({"src": str(SRC), "ops": ops, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        input=job, capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Run:
    """One benchmark run of one workload: workers, checks, digests and metrics."""

    def __init__(self, workload: str, seed: int, eve_rates, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.eve_rates = eve_rates
        self.tmp = tmp
        self.records: list[dict] = []  # one per checked operation
        self.setups: list[dict] = []  # set-up times and speeds, one per worker
        self.workers: list[dict] = []  # untraced repetitions
        self.traced: dict | None = None  # the replay with spans
        self.counted: dict | None = None  # the replay with call counters

    def check(self, rep: int, result: dict, traced: bool = False) -> None:
        for i, op in enumerate(result["ops"]):
            problems = checks.check_op(op, self.eve_rates)
            transcript = checks.flag(op["argv"], "--transcript")
            op["transcript_bytes"] = 0
            if transcript is not None and os.path.exists(transcript):
                op["transcript_bytes"] = os.path.getsize(transcript)
                os.remove(transcript)
            self.records.append({
                "rep": rep, "op": i, "traced": traced, "argv": op["argv"],
                "seconds": op["seconds"],
                "digest": hashlib.sha256(op["stdout"].encode()).hexdigest(),
                "problems": problems,
            })

    def measure(self, seconds: float) -> None:
        run_worker([])  # warm-up: compiles bytecode, fills the file cache
        # Set-up probes are spread between the repetitions, so that set-up
        # and the workload are sampled over the same stretch of time.
        start = time.perf_counter()
        rep = 0
        while rep == 0 or (time.perf_counter() - start) * (rep + 1) / rep <= seconds:
            for _ in range(PROBES_PER_REP):
                self.setups.append(run_worker([]))
            result = run_worker(WORKLOADS[self.workload](self.seed, rep, self.tmp))
            self.setups.append(result)
            self.check(rep, result)
            self.workers.append(result)
            rep += 1
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(run_worker([]))

    def measure_traced(self) -> None:
        ops = WORKLOADS[self.workload](self.seed, 0, self.tmp)
        self.traced = run_worker(ops, trace="spans")
        self.check(0, self.traced, traced=True)
        self.counted = run_worker(ops, trace="counts")
        self.check(0, self.counted, traced=True)
        untraced = {r["op"]: r["digest"] for r in self.records if r["rep"] == 0 and not r["traced"]}
        for r in self.records:
            if r["traced"] and r["digest"] != untraced[r["op"]]:
                r["problems"].append("traced replay printed different output")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Times are scaled to full host speed by each worker's sampled speed."""
        return {
            "wall_s": (statistics.median(w["wall_s"] * w["speed"] for w in self.workers), "s"),
            "setup_s": (statistics.median(w["setup_s"] * w["setup_speed"] for w in self.setups),
                        "s"),
            "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in self.workers), "MB"),
        }

    def raw_times(self) -> dict[str, tuple[float, str]]:
        """The same times as measured, before scaling to full host speed."""
        return {
            "raw_wall_s": (statistics.median(w["wall_s"] for w in self.workers), "s"),
            "raw_setup_s": (statistics.median(w["setup_s"] for w in self.setups), "s"),
            "host_speed": (statistics.median(w["speed"] for w in self.workers), "ratio"),
        }

    def rounds_per_s(self) -> float:
        """Simulated rounds over time inside simulate operations (median per repetition)."""
        rates = []
        for w in self.workers:
            sims = [op for op in w["ops"] if op["argv"][0] == "simulate"]
            seconds = sum(op["seconds"] for op in sims)
            if seconds:
                rates.append(sum(int(checks.flag(op["argv"], "--rounds")) for op in sims) / seconds)
        return statistics.median(rates) if rates else 0.0

    def idle_layers(self) -> list[str]:
        """Wrapped layers the traced replay never entered; their metrics read 0."""
        entered = span_totals(self.traced["trace"]["spans"])
        idle = [name for name in self.traced["trace"]["installed"] if name not in entered]
        idle += [name for name, calls in self.counted["trace"]["counters"].items() if not calls]
        return sorted(idle)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric whose target exists, also for layers this
        workload never enters (see ``idle_layers``): a trace-1 result carries
        every per-layer metric.  ``protocol.naive.mismatch_ratio`` reads 0
        on runs without Eve."""
        trace = self.traced["trace"]
        totals = span_totals(trace["spans"])
        installed = set(trace["installed"])
        ops = self.traced["ops"]
        m: dict[str, tuple[float, str]] = {}

        def total(name, key="s"):
            return totals.get(name, {}).get(key, 0)

        builds = [s["end"] - s["start"] for s in trace["spans"] if s["name"] == "configuration.build"]
        m["configuration.build_s"] = (statistics.median([self.traced["build_s"], *builds]), "s")
        for counter, value in self.counted["trace"]["counters"].items():
            m[counter] = (value, "count")

        tables = []
        for key in ("joint", "intercept_resend", "two_step_branches"):
            name = f"measurement.{key}"
            if name in installed:
                m[f"{name}.calls"] = (total(name, "calls"), "count")
                m[f"{name}.s"] = (total(name), "s")
                tables.append(total(name))
        if tables:
            m["measurement.tables_s"] = (sum(tables), "s")

        for p in PROTOCOLS:
            sims = [json.loads(op["stdout"]) for op in ops
                    if op["rc"] == 0 and op["argv"][0] == "simulate"
                    and checks.flag(op["argv"], "--protocol") == p]
            rounds = sum(o["rounds"] for o in sims)
            sifted = sum(o["sifted"] for o in sims)
            name = f"protocol.{p}.session"
            if name in installed:
                loop_s = total(name, "self_s")
                m[f"protocol.{p}.session_s"] = (total(name), "s")
                m[f"protocol.{p}.loop_s"] = (loop_s, "s")
                m[f"protocol.{p}.loop_rounds_per_s"] = (rounds / loop_s if loop_s else 0.0, "1/s")
            m[f"protocol.{p}.sift_ratio"] = (sifted / rounds if rounds else 0.0, "ratio")
            if p == "naive":
                attacked = [o for o in sims if o["eve"] is not None]
                att_sifted = sum(o["sifted"] for o in attacked)
                mismatches = sum(o["mismatches"] for o in attacked)
                m["protocol.naive.mismatch_ratio"] = (
                    mismatches / att_sifted if att_sifted else 0.0, "ratio")
        if "protocol.csv_rows" in installed:
            m["protocol.csv_rows_s"] = (total("protocol.csv_rows"), "s")

        if "symmetry.closure" in installed:
            closure_s = total("symmetry.closure")
            sizes = [s["size"] for s in trace["spans"] if "size" in s]
            elements = sizes[-1] if sizes else 0
            m["symmetry.closure_s"] = (closure_s, "s")
            m["symmetry.elements"] = (elements, "count")
            m["symmetry.elements_per_s"] = (elements / closure_s if closure_s else 0.0, "1/s")
        if "marking.scan" in installed:
            scan_s = total("marking.scan")
            m["marking.scan_s"] = (scan_s, "s")
            m["marking.markings_per_s"] = (
                N_MARKINGS * total("marking.scan", "calls") / scan_s if scan_s else 0.0, "1/s")
        for check_id in checks.VERIFY_CHECK_IDS:
            if f"verify.{check_id}" in installed:
                m[f"verify.{check_id}.s"] = (total(f"verify.{check_id}", "self_s"), "s")

        m["cli.self_s"] = (total("cli.main", "self_s"), "s")
        m["cli.transcript_bytes"] = (sum(op["transcript_bytes"] for op in ops), "bytes")
        m["cli.rounds_per_s"] = (self.rounds_per_s(), "1/s")
        traced_wall = self.traced["wall_s"] * self.traced["speed"]
        m["trace.overhead_s"] = (traced_wall - self.end_to_end()["wall_s"][0], "s")
        return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 eve_rates) -> dict:
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, eve_rates, tmp)
    if trace:
        run.measure(seconds / 2)
        run.measure_traced()
    else:
        run.measure(seconds)
    end_to_end = run.end_to_end()
    metrics = run.per_layer() if trace else end_to_end

    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    span_file = None
    if trace:
        span_file = out_dir / f"{stem}.spans.jsonl"
        with open(span_file, "w") as fh:
            for span in run.traced["trace"]["spans"]:
                fh.write(json.dumps(span) + "\n")
    attempted = len(run.records)
    header = {
        "git_sha": git_sha(),
        "python": run.workers[0]["python"],
        "numpy": run.workers[0]["numpy"],
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "span_file": os.path.relpath(span_file, ROOT) if span_file else None,
    }
    result = {
        "header": header,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failure_ratio": run.failed / attempted,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in run.raw_times().items()},
        "missing_targets": (run.traced["trace"]["missing"] + run.counted["trace"]["missing"]
                            if trace else []),
        "layers_not_entered": run.idle_layers() if trace else [],
        "operations": run.records,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"# {workload}  seed={seed}  trace={int(trace)}  sha={header['git_sha'][:12]}  "
          f"python={header['python']}  numpy={header['numpy']}  cpus={header['cpu_count']}")
    for name, (value, unit) in (end_to_end | run.raw_times() | metrics).items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failure_ratio':40s} {result['failure_ratio']:14.6g} ratio "
          f"({run.failed}/{attempted} operations)")
    for r in run.records:
        for problem in r["problems"]:
            print(f"  FAILED rep {r['rep']} op {r['op']} {' '.join(r['argv'])}: {problem}")
    if trace and result["missing_targets"]:
        print(f"  missing trace targets: {', '.join(result['missing_targets'])}")
    if result["layers_not_entered"]:
        print(f"  layers not entered (metrics read 0): {', '.join(result['layers_not_entered'])}")
    return {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for result and span files")
    args = parser.parse_args(argv)

    if not (SRC / "wittingqkd" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'wittingqkd'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from wittingqkd import WittingConfiguration

    eve_rates = checks.eve_mismatch_rates(WittingConfiguration())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.out.resolve(),
                                 eve_rates)
                 for w in workloads}
    if len(summaries) == 1:
        final = summaries[args.workload]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
