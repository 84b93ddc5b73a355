"""Run-to-run stability of the benchmark, and agreement between two sets of runs.

Usage (from the repository root)::

    python3 benchmarks/stability.py --out .bench_out/set-a --seeds 1-10
    python3 benchmarks/stability.py --out .bench_out/set-b --seeds 1-10 --compare .bench_out/set-a

Runs ``run.py`` once per workload and seed, with ``run_seconds`` from
BENCHMARK.json, and prints for each end-to-end metric the median of its
values and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
A spread is flagged when it exceeds a third of the metric's bound.  With
``--compare`` it also flags medians that differ from the other set's, in
either direction, by more than the bound, and operation digests that differ
between runs of the same workload and seed.  Any flag makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def collect(spec: dict, workloads: list[str], seeds: list[int], out: Path) -> dict:
    summary: dict = {}
    for workload in workloads:
        for seed in seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0", "--out", str(out)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            final = json.loads(proc.stdout.strip().splitlines()[-1])
            final["elapsed_s"] = elapsed
            summary.setdefault(workload, {})[str(seed)] = final
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={final['correct']}, "
                  f"failed {final['failed']}/{final['attempted']}", flush=True)
    return summary


def spreads(spec: dict, summary: dict) -> bool:
    ok = True
    for workload, runs in summary.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs.values()]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= metric["bound"] / 3 else "  SPREAD ABOVE bound/3"
            ok &= not flag
            print(f"{workload:14s} {metric['name']:12s} median {median:10.5g} {metric['unit']:3s} "
                  f"spread {spread:6.3f} (bound {metric['bound']}){flag}")
        longest = max(r["elapsed_s"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        print(f"{workload:14s} longest run {longest:.1f} s, failed operations {failed}")
        ok &= failed == 0
    return ok


def compare(spec: dict, summary: dict, other: dict, out: Path, other_dir: Path) -> bool:
    ok = True
    for workload, runs in summary.items():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            new = statistics.median(r["metrics"][name]["value"] for r in runs.values())
            old = statistics.median(r["metrics"][name]["value"]
                                    for r in other[workload].values())
            change = (new - old) / old
            flag = "" if abs(change) <= metric["bound"] else "  DIFFERS BY MORE THAN BOUND"
            ok &= not flag
            print(f"{workload:14s} {name:12s} {old:10.5g} -> {new:10.5g}  change {change:+.3f}{flag}")
    compared = differing = 0
    for path in sorted(out.glob("*-trace*.json")):
        twin = other_dir / path.name
        if not twin.exists():
            continue
        ours = {(r["rep"], r["op"], r["traced"]): r["digest"]
                for r in json.loads(path.read_text())["operations"]}
        theirs = {(r["rep"], r["op"], r["traced"]): r["digest"]
                  for r in json.loads(twin.read_text())["operations"]}
        for key in ours.keys() & theirs.keys():
            compared += 1
            if ours[key] != theirs[key]:
                differing += 1
                print(f"digest differs: {path.name} rep {key[0]} op {key[1]}")
    print(f"operation digests compared {compared}, differing {differing}")
    return ok and differing == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--compare", type=Path, default=None, help="an earlier --out directory")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("a spread needs at least two seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    args.out.mkdir(parents=True, exist_ok=True)
    summary = collect(spec, workloads, seeds, args.out)
    (args.out / "summary.json").write_text(json.dumps(summary, indent=1))
    ok = spreads(spec, summary)
    if args.compare is not None:
        other = json.loads((args.compare / "summary.json").read_text())
        ok &= compare(spec, summary, other, args.out, args.compare)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
