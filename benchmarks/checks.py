"""Output checks for benchmark operations, against exact expected values.

Nothing here uses ``wittingqkd.measurement``: expected rates are exact
counting arguments, and Eve's expected mismatch rate comes from the 40x40
transition table ``WittingConfiguration.transition_prob``.  Key bytes are
not pinned, so a deliberate change of the random streams does not fail a
check; sampled counts are tested against their exact expectation instead.

Sampled counts pass within ``Z_LIMIT`` standard deviations.  An eve-sweep
run evaluates about 80 such checks, and the benchmark is run hundreds of
times; at 3 sigma about one eve-sweep run in six would report a spurious
failure, at 5 sigma about one in twenty thousand.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

Z_LIMIT = 5.0

# The verify suite's checks; each must be present and PASS.
VERIFY_CHECK_IDS = (
    "configuration-counts",
    "transition-spectrum",
    "basis-structure",
    "mub-embedding",
    "conjugate-coordination",
    "column-shifts",
    "pair-bases",
    "deferred-measurement",
    "joint-two-step",
    "toffoli-gate",
    "announcement-leakage",
    "symmetry-group",
    "classical-scan",
)

NAIVE_SIFT = Fraction(1, 40)  # both parties pick the same of 40 tetrads
TWO_STEP_SAME_STATE_AND_BASIS = Fraction(1, 160)  # and the same of 4 states in it
KEY_AGREEMENT_SIFT = Fraction(13, 40)  # 1 equal + 12 orthogonal of 40 partners


def eve_mismatch_rates(config) -> list[Fraction]:
    """Expected sifted mismatch rate of the naive protocol for each Eve tetrad.

    With T the transition table and tetrad members b_i, e_k, the sifted
    outcome pair (i, j) in shared tetrad b has probability
    sum_k T(b_i, e_k) T(e_k, b_j) / 4, so a sifted round matches with
    probability sum_i sum_k T(b_i, e_k)^2 / 4.  Uniform choices make the
    shared tetrad uniform over the 40.
    """
    index = {s.card: s.index for s in config.states}
    t = [[config.transition_prob(s, u) for u in config.states] for s in config.states]
    members = [[index[c] for c in basis.members] for basis in config.bases]
    rates = []
    for eve in members:
        match = sum(t[bi][ek] ** 2 for bm in members for bi in bm for ek in eve)
        rates.append(1 - match / (4 * len(members)))
    return rates


def policy_sift_rate(policy: str) -> Fraction | None:
    """Key-agreement sift rate: a shared pick sifts always, else 13/40."""
    if policy == "uniform":
        return KEY_AGREEMENT_SIFT
    if policy.startswith("correlated:"):
        w = Fraction(policy.split(":", 1)[1])
        return w * w + (1 - w * w) * KEY_AGREEMENT_SIFT
    return None


def flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def binomial_z(count: int, n: int, p: Fraction) -> float:
    """z-score of ``count`` successes in ``n`` trials of probability ``p``."""
    if p in (0, 1):
        return 0.0 if count == n * p else math.inf
    return float(count - n * p) / math.sqrt(float(n * p * (1 - p)))


def _rate_problem(label: str, count: int, n: int, p: Fraction) -> list[str]:
    z = binomial_z(count, n, p)
    if abs(z) <= Z_LIMIT:
        return []
    return [f"{label}: {count}/{n} is {z:+.2f} sigma from {p}"]


def check_simulate(argv: list[str], out: dict, eve_rates: list[Fraction]) -> list[str]:
    problems: list[str] = []
    protocol = flag(argv, "--protocol")
    rounds = int(flag(argv, "--rounds"))
    eve = flag(argv, "--eve")
    policy = flag(argv, "--policy", "uniform")
    sifted, matched, mismatches = out["sifted"], out["matched"], out["mismatches"]
    if out["rounds"] != rounds:
        problems.append(f"rounds {out['rounds']} != {rounds}")
    if sifted != matched + mismatches:
        problems.append(f"sifted {sifted} != matched {matched} + mismatches {mismatches}")
    if len(out["keyBitsHex"]) != 2 * math.ceil(sifted / 4):
        problems.append(f"key of {len(out['keyBitsHex'])} hex digits for {sifted} sifted rounds")

    if eve is None and mismatches != 0:
        problems.append(f"{mismatches} mismatches without an attacker")
    if eve is not None:
        problems += _rate_problem("eve mismatches", mismatches, sifted, eve_rates[int(eve)])

    if protocol in ("naive", "two-step"):
        problems += _rate_problem("sifted", sifted, rounds, NAIVE_SIFT)
    if protocol == "two-step":
        both = Fraction(out["extras"]["sameStateAndBasisRate"]) * rounds
        problems += _rate_problem(
            "same state and basis", int(both), rounds, TWO_STEP_SAME_STATE_AND_BASIS
        )
    if protocol == "key-agreement":
        expected = policy_sift_rate(policy)
        if expected is None:
            problems.append(f"no expected sift rate for policy {policy!r}")
        else:
            problems += _rate_problem("sifted", sifted, rounds, expected)
    return problems


def check_transcript(path: str, out: dict) -> list[str]:
    """The CSV has rounds+1 rows and its columns agree with the JSON counts."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    problems = []
    if len(body) != out["rounds"]:
        problems.append(f"transcript has {len(body)} rounds, JSON {out['rounds']}")
    for column, key in (("sifted", "sifted"), ("matched", "matched")):
        total = sum(int(row[header.index(column)]) for row in body)
        if total != out[key]:
            problems.append(f"transcript {column} column sums to {total}, JSON {out[key]}")
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    status = {}
    for line in lines[:-1]:
        word, _, rest = line.partition(" ")
        status[rest.split(":", 1)[0]] = word
    problems = [f"check {name}: {word}" for name, word in status.items() if word != "PASS"]
    problems += [f"check {name} missing" for name in VERIFY_CHECK_IDS if name not in status]
    total = len(status)
    if not lines or lines[-1] != f"{total}/{total} checks passed":
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    return problems


def check_op(op: dict, eve_rates: list[Fraction]) -> list[str]:
    """Problems with one worker operation result; empty when it is correct."""
    argv = op["argv"]
    if op["error"] is not None:
        return [f"exception {op['error']}"]
    if op["rc"] != 0:
        return [f"exit code {op['rc']}: {op['stderr'].strip()[-200:]}"]
    try:
        if argv[0] == "verify":
            return check_verify(op["stdout"])
        if argv[0] == "simulate":
            out = json.loads(op["stdout"])
            problems = check_simulate(argv, out, eve_rates)
            transcript = flag(argv, "--transcript")
            if transcript is not None:
                problems += check_transcript(transcript, out)
            return problems
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"no check for command {argv[0]!r}"]
