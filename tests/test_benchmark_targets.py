"""The benchmark's per-layer view must keep finding the program's functions.

``benchmarks/tracing.py`` wraps functions at the names their callers look
them up by, and skips a name that no longer resolves, so a rename in the
program silently turns a per-layer metric off.  These tests catch that.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402


def _resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module(module), attr, None))


def test_every_span_keeps_a_lookup_site():
    spans = {name for _, _, name in tracing.TARGETS}
    live = {name for module, attr, name in tracing.TARGETS if _resolves(module, attr)}
    assert live == spans, sorted(spans - live)


# Targets known not to resolve, left for the next change to the benchmark.
KNOWN_STALE = {"wittingqkd.protocol.two_step_joint_branches"}


def test_every_target_resolves_but_the_known_stale():
    missing = {
        f"{module}.{attr}" for module, attr, _ in tracing.TARGETS if not _resolves(module, attr)
    }
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)


def test_every_counter_target_resolves():
    for module, cls, method, counter in tracing.COUNTERS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method, None)), counter
