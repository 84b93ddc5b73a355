"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

The tracer replaces program functions with timing wrappers at the names
their callers look up (``wittingqkd.cli.run_session``, not the defining
module), so nothing in the program is edited.  Each wrapped call records one
span: id, name, start, end, parent span and operation id.  Spans stay in
memory until the worker ends.

A target that no longer exists is recorded in ``Tracer.missing`` and
skipped; the metrics it would feed are then left out, so refactors of the
program do not crash the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  Where a function is imported into several
# modules, each lookup site is wrapped under the same span name.
TARGETS = (
    ("wittingqkd.cli", "WittingConfiguration", "configuration.build"),
    ("wittingqkd.verify", "WittingConfiguration", "configuration.build"),
    ("wittingqkd.cli", "run_session", "protocol.run_session"),
    ("wittingqkd.protocol", "run_naive_session", "protocol.naive.session"),
    ("wittingqkd.protocol", "run_two_step_session", "protocol.two-step.session"),
    ("wittingqkd.protocol", "run_key_agreement", "protocol.key-agreement.session"),
    ("wittingqkd.protocol", "joint_distribution", "measurement.joint"),
    ("wittingqkd.protocol", "intercept_resend_distribution", "measurement.intercept_resend"),
    ("wittingqkd.protocol", "two_step_joint_branches", "measurement.two_step_branches"),
    ("wittingqkd.verify", "joint_distribution", "measurement.joint"),
    ("wittingqkd.verify", "two_step_joint_branches", "measurement.two_step_branches"),
    ("wittingqkd.cli", "transcript_csv_rows", "protocol.csv_rows"),
    ("wittingqkd.cli", "run_checks", "verify.run_checks"),
    ("wittingqkd.verify", "generate_group", "symmetry.closure"),
    ("wittingqkd.verify", "exhaustive_scan", "marking.scan"),
)

# (module, class, method, counter name): calls counted, not spanned.
COUNTERS = (("wittingqkd.eisenstein", "Eisenstein", "__post_init__", "eisenstein.objects"),)

# Span names whose wrapper stores len(result); the closure's element count.
SIZED = {"symmetry.closure"}


class Tracer:
    """Records spans for wrapped calls and restores the originals on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if name in SIZED:
            try:
                span["size"] = len(result)
            except TypeError:
                pass
        return result

    def wrap(self, owner, attr: str, name: str, label: str) -> bool:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(label)
            return False
        self._replace(owner, attr, original, self._bound(name, original))
        self.installed.add(name)
        return True

    def count(self, owner, attr: str, counter: str, label: str) -> bool:
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(label)
            return False
        counts = self.counters
        counts[counter] = 0

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, original, wrapper)
        return True

    def wrap_checks(self, verify) -> bool:
        """Wrap each function in ``verify.CHECKS`` as span ``verify.<check-id>``."""
        checks = getattr(verify, "CHECKS", None)
        try:
            wrapped = []
            for name, fn, *rest in checks:
                if not callable(fn):
                    raise TypeError(name)
                wrapped.append((name, self._bound(f"verify.{name}", fn), *rest))
        except (TypeError, ValueError):
            self.missing.append("wittingqkd.verify.CHECKS")
            return False
        self._replace(verify, "CHECKS", checks, tuple(wrapped))
        self.installed.update(f"verify.{entry[0]}" for entry in wrapped)
        return True

    def _bound(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every span target of the program that still exists."""
        for module_name, attr, name in TARGETS:
            module = _import(module_name)
            label = f"{module_name}.{attr}"
            if module is None:
                self.missing.append(label)
            else:
                self.wrap(module, attr, name, label)
        verify = _import("wittingqkd.verify")
        if verify is None:
            self.missing.append("wittingqkd.verify.CHECKS")
        else:
            self.wrap_checks(verify)

    def install_counters(self) -> None:
        """Install the call counters.  They belong in a pass of their own:
        the counted calls are so many and so cheap that the counting wrapper
        would inflate the spans around them."""
        for module_name, cls_name, method, counter in COUNTERS:
            owner = getattr(_import(module_name), cls_name, None)
            label = f"{module_name}.{cls_name}.{method}"
            if owner is None:
                self.missing.append(label)
            else:
                self.count(owner, method, counter, label)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time.

    A span's self time is its duration minus the durations of its direct
    children; with one thread, children never overlap each other.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time[span["id"]]
    return totals
