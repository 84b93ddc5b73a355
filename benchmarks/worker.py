"""One benchmark worker: a fresh process that runs CLI operations and reports.

Reads a job as JSON on stdin::

    {"src": "<dir holding wittingqkd>", "ops": [[argv...], ...], "trace": null}

times set-up (importing ``wittingqkd`` and its CLI module, then building
``WittingConfiguration()``: what every CLI invocation pays), then runs each
operation through ``wittingqkd.cli.main(argv)`` back to back with its output
captured, and writes one JSON object to stdout.  With ``"trace": "spans"``
the program's functions are wrapped (see ``tracing.py``) after set-up and
the spans are returned too; ``"counts"`` installs the call counters instead.
An empty op list measures set-up only.  Except in the counting replay, the
worker also samples the host's speed during set-up and during the operations
(``SpeedSampler``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

SAMPLE_ROUNDS = 3_000  # one speed sample: a fixed loop of about 0.3 ms
REFERENCE_SAMPLE_S = 2.7e-4  # its time on an uncontended core of a 2-vCPU Xeon VM
SETUP_PERIOD_S = 0.005  # sampling period during set-up (about 0.15 s)
RUN_PERIOD_S = 0.02  # sampling period while operations run


class SpeedSampler:
    """Samples the host's speed while the program runs, independent of the program.

    On a host whose cores are shared with other tenants, a vCPU flips
    between a fast and a slow state (about 1.5-1.9x apart) within seconds,
    and the share of time spent slow drifts over minutes, so raw times of
    the same code drift by 30% and more.  While active, a timer interrupts
    the program every ``period_s`` of wall time and times a fixed
    pure-Python loop.  ``REFERENCE_SAMPLE_S / sample`` is the host's speed
    at that moment as a share of full speed, and the samples are spread
    evenly in time, so ``net_s * speed`` is the time the same work would
    have taken at full speed.  The loop allocates no containers, touches no
    random state and takes about 1.5% of the run, which ``net_s`` excludes.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(SAMPLE_ROUNDS):
            total += (i * 2654435761) % 97
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def sampled_s(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        """Mean share of full speed over the active time; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return sum(REFERENCE_SAMPLE_S / s for s in self.samples) / len(self.samples)


def _run_op(main, argv: list[str], sampler: SpeedSampler | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    sampled_before = sampler.sampled_s if sampler else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if sampler:
        seconds -= sampler.sampled_s - sampled_before
    return {
        "argv": argv,
        "rc": rc,
        "error": error,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def _peak_rss_mb() -> float:
    """This process's peak resident set.  Linux carries the spawning parent's
    high-water mark into ``ru_maxrss`` across exec, so read the per-process
    VmHWM where /proc has it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    job = json.load(sys.stdin)

    # The counting replay is not timed; spans include the samples' ~1.5%.
    sample = job["trace"] != "counts"
    with SpeedSampler(SETUP_PERIOD_S) if sample else contextlib.nullcontext() as setup_sampler:
        t0 = time.perf_counter()
        import wittingqkd
        import wittingqkd.cli as cli

        t1 = time.perf_counter()
        wittingqkd.WittingConfiguration()
        t2 = time.perf_counter()

    src = os.path.realpath(job["src"])
    module_file = os.path.realpath(wittingqkd.__file__)
    if os.path.commonpath([src, module_file]) != src:
        print(f"wittingqkd imported from {module_file}, not {src}", file=sys.stderr)
        return 1

    tracer = None
    run = cli.main
    if job["trace"] is not None:
        from tracing import Tracer

        tracer = Tracer()
    if job["trace"] == "spans":
        tracer.install()

        def run(argv):
            return tracer.call("cli.main", cli.main, argv)

    elif job["trace"] == "counts":
        tracer.install_counters()

    ops = []
    with SpeedSampler(RUN_PERIOD_S) if sample else contextlib.nullcontext() as sampler:
        loop_start = time.perf_counter()
        for op_id, argv in enumerate(job["ops"]):
            if tracer is not None:
                tracer.op = op_id
            ops.append(_run_op(run, argv, sampler))
        wall_s = time.perf_counter() - loop_start - (sampler.sampled_s if sampler else 0.0)
    if tracer is not None:
        tracer.uninstall()

    numpy = sys.modules.get("numpy")
    result = {
        "setup_s": t2 - t0 - (setup_sampler.sampled_s if setup_sampler else 0.0),
        "setup_speed": setup_sampler.speed if setup_sampler else 1.0,
        "build_s": t2 - t1,
        "wall_s": wall_s,
        "speed": sampler.speed if sampler else 1.0,
        "ops": ops,
        "peak_rss_mb": _peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "trace": None
        if tracer is None
        else {"spans": tracer.spans, "counters": tracer.counters, "missing": tracer.missing,
              "installed": sorted(tracer.installed)},
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
