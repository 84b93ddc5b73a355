"""Two-party sessions of the three protocols, run by one vectorised round engine.

A session is a sequence of independent rounds.  Per round each party makes
its choices and announces a tetrad (naive, two-step) or a state (key
agreement); rounds sift on equal tetrads or on a common tetrad of the two
states, and outcomes are drawn from the exact joint distribution of the
entangled pair.  Bob always measures the conjugated copies of the announced
tetrad, so without an attacker every sifted round matches.

The engine runs blocks of ``BLOCK_ROUNDS`` rounds as numpy arrays.  A
protocol is data (:class:`_Protocol`): its choice draws, its announcement
kind, which fixes the sift rule, and the integer count tables it reads,
built once per session by :func:`~wittingqkd.measurement.outcome_counts`.
Every outcome law is a row of integer counts over a denominator: 9·|<s|t>|²
products over 36, or over 324 with an intercept-resend attacker, in every
protocol alike.  The
session spells each row out as a table of ``den`` outcome pairs, each pair
listed as many times as its count, so one uniform draw below the
denominator, read in that table, samples it exactly.  A sifted two-step or
key-agreement round needs only one draw from the shared tetrad's joint: the
two-step branches
(:func:`~wittingqkd.measurement.two_step_joint_branches`) partition that
joint by outcome pair, so the branch is a function of the pair.

Choice policies: ``uniform`` (independent), ``agreed`` (both parties replay
one shared pseudo-random stream, so equal seeds mean identical choices),
``correlated`` (take the shared stream with probability ``weight``, else an
independent draw), and ``fixed`` (a forced choice, used for exhaustive
per-tetrad checks; the two-step protocol, which draws twice, refuses it).

Seed derivation (stream version 3).  Every stream is a ``random.Random``
seeded with ``4 * seed + stream``, which is injective for int seeds >= 0
(other seeds raise ``ValueError``):

* stream 0, shared: from the policy seed alone, so parties with equal
  seeds stay in lockstep;
* streams 1 and 2, Alice's and Bob's own: from the policy seed and the
  party index, for own choices and the correlated coin;
* stream 3, outcomes: from the session seed.

Draws are read in bulk as 64-bit words (``getrandbits``).  Each accepted
word gives k values below ``bound``: its base-``bound`` digits, least
significant first.  A word is rejected when it is at or above
⌊2^64/bound^k⌋·bound^k, so every digit is exactly uniform; a
call draws whole words and drops the digits past the count it needs.  k
depends on ``bound`` alone: among the k <= 63 with ``bound**k < 2**64`` it
maximises the expected digits per word, k·⌊2^64/bound^k⌋·bound^k/2^64,
ties going to the smaller k (31, 12, 11, 7 for the bounds 4, 40, 36, 324;
63 for bound 1; 1 from 2^32 up, which draws as version 2 did).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

import numpy as np

from .configuration import WittingConfiguration, check_int

# The benchmark's tracer looks the per-pair laws up here.
from .measurement import intercept_resend_distribution, joint_distribution  # noqa: F401
from .measurement import outcome_counts

DEFAULT_SEED = 20240
BLOCK_ROUNDS = 1 << 16
MAX_WEIGHT_DENOMINATOR = 1 << 63  # exclusive: a coin is one 64-bit draw

_SHARED, _OUTCOMES = 0, 3  # party p's own stream is 1 + p
# A weight is p/q or a plain decimal; the length bound keeps parsing cheap.
_WEIGHT = re.compile(r"\d+/\d+|\d*\.?\d+")
_WEIGHT_MAX_CHARS = 40


@dataclass(frozen=True)
class PartyPolicy:
    mode: str = "uniform"  # uniform | agreed | correlated | fixed
    seed: int = DEFAULT_SEED
    weight: Fraction = Fraction(0)  # correlated mode only
    choice: int | None = None  # fixed mode only

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "agreed", "correlated", "fixed"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.mode == "fixed":
            check_int("fixed choice", self.choice, 0)
        elif self.choice is not None:
            raise ValueError(f"a {self.mode} policy takes no choice")
        # Random(-s) would alias Random(s), and Random(6.0) is Random(6).
        check_int("seed", self.seed, 0)
        if not isinstance(self.weight, (int, Fraction)) or isinstance(self.weight, bool):
            raise ValueError(f"correlation weight must be an int or Fraction, got {self.weight!r}")
        if self.weight != 0 and self.mode != "correlated":
            raise ValueError(f"a {self.mode} policy takes no weight")
        if not 0 <= self.weight <= 1:
            raise ValueError("correlation weight must lie in [0, 1]")
        if self.weight.denominator >= MAX_WEIGHT_DENOMINATOR:
            raise ValueError("correlation weight denominator must be below 2^63")

    @classmethod
    def parse(cls, text: str, seed: int) -> "PartyPolicy":
        if text == "uniform":
            return cls("uniform", seed)
        if text == "agreed":
            return cls("agreed", seed)
        if text.startswith("correlated:"):
            spec = text.split(":", 1)[1]
            if len(spec) > _WEIGHT_MAX_CHARS or not _WEIGHT.fullmatch(spec):
                raise ValueError("correlation weight must be p/q or a plain decimal")
            try:
                weight = Fraction(spec)
            except ZeroDivisionError:
                raise ValueError("correlation weight has a zero denominator") from None
            return cls("correlated", seed, weight=weight)
        raise ValueError(f"unknown policy {text!r}")


def _stream(seed: int, stream: int) -> Random:
    return Random(4 * seed + stream)


def _digits_per_word(bound: int) -> int:
    """How many base-``bound`` digits each accepted 64-bit word gives: the k
    of the module docstring, computed exactly.  The cap 63 is what ends the
    search for bound 1, whose words are all accepted."""
    best = best_k = 0
    power = bound
    for k in range(1, 64):
        if power >> 64:
            break
        kept = k * ((1 << 64) // power * power)
        if kept > best:
            best, best_k = kept, k
        power *= bound
    return best_k


def _uniform(rng: Random, bound: int, n: int) -> np.ndarray:
    """``n`` exact uniform draws below ``bound`` (at most 2^63) from ``rng``,
    by the digit rule of the module docstring, in the narrowest unsigned
    dtype that holds ``bound - 1``."""
    k = _digits_per_word(bound)
    span = bound**k
    limit = (1 << 64) // span * span  # words at or above ``limit`` are rejected
    need = -(-n // k)
    words = np.empty(0, np.uint64)
    while len(words) < need:
        more = need - len(words)
        fresh = np.frombuffer(rng.getrandbits(64 * more).to_bytes(8 * more, "little"), "<u8")
        if limit < 1 << 64:
            fresh = fresh[fresh < np.uint64(limit)]
        words = np.concatenate((words, fresh))
    digits = np.empty((need, k), np.min_scalar_type(bound - 1))
    base = np.uint64(bound)
    for j in range(k):
        # Floor division by a numpy scalar runs as a multiply (libdivide);
        # ``%`` and ``np.divmod`` divide every element, about 6x slower.
        quotient = words // base
        digits[:, j] = words - quotient * base
        words = quotient
    return digits.ravel()[:n]


class _Party:
    """One party's choice streams; each draw covers a whole block of rounds."""

    def __init__(self, policy: PartyPolicy, index: int):
        self.policy = policy
        self.shared = _stream(policy.seed, _SHARED)
        self.own = _stream(policy.seed, 1 + index)

    def draw(self, bound: int, n: int) -> np.ndarray:
        policy = self.policy
        if policy.mode == "fixed":
            check_int("fixed choice", policy.choice, 0, bound - 1)
            return np.full(n, policy.choice, np.min_scalar_type(bound - 1))
        if policy.mode == "agreed":
            return _uniform(self.shared, bound, n)
        own = _uniform(self.own, bound, n)
        if policy.mode == "uniform":
            return own
        shared = _uniform(self.shared, bound, n)
        coin = _uniform(self.own, policy.weight.denominator, n) < policy.weight.numerator
        return np.where(coin, shared, own)


@dataclass(frozen=True)
class _Protocol:
    """A protocol as data.

    ``picks_state``: each party first draws one of the 40 states.
    ``announces``: "basis" -- each party measures its own tetrad (drawn
    directly, or among the four holding its state) every round, and rounds
    sift on equal tetrads; "state" -- the parties measure only when their
    states share a tetrad (``config.common_tetrad``), and those rounds sift.
    ``extras`` maps the counts (same state, sifted, same state and sifted)
    to the protocol's extra rates.
    """

    name: str
    picks_state: bool
    announces: str
    extras: Callable[[int, int, int], dict[str, int]] = lambda same, sifted, both: {}


_NAIVE = _Protocol("naive", picks_state=False, announces="basis")
_TWO_STEP = _Protocol(
    "two-step",
    picks_state=True,
    announces="basis",
    extras=lambda same, sifted, both: {
        "sameStateRate": same,
        "sameBasisRate": sifted,
        "sameStateAndBasisRate": both,
    },
)
_KEY_AGREEMENT = _Protocol(
    "key-agreement",
    picks_state=True,
    announces="state",
    extras=lambda same, sifted, both: {
        "sameStateRate": both,
        "distinctOrthogonalRate": sifted - both,
    },
)


class RoundBlock(NamedTuple):
    """One block of rounds; outcome -1 marks a round nobody measured.

    Choices are ``uint8`` and outcomes ``int8``, one byte per round each;
    ``sifted`` and ``matched`` are ``bool``.
    """

    start: int
    alice_choice: tuple[np.ndarray, ...]  # (state,), (state, tetrad) or (tetrad,)
    bob_choice: tuple[np.ndarray, ...]
    alice_outcome: np.ndarray
    bob_outcome: np.ndarray
    sifted: np.ndarray
    matched: np.ndarray


@dataclass
class SessionTranscript:
    protocol: str
    rounds: int
    seed: int
    eve_basis: int | None
    n_sifted: int = 0
    n_matched: int = 0
    key_bits: bytes = b""
    extras: dict[str, Fraction] = field(default_factory=dict)

    @property
    def n_mismatched(self) -> int:
        return self.n_sifted - self.n_matched

    @property
    def sift_rate(self) -> Fraction:
        return Fraction(self.n_sifted, self.rounds) if self.rounds else Fraction(0)

    @property
    def match_rate_within_sifted(self) -> Fraction | None:
        if self.n_sifted == 0:
            return None
        return Fraction(self.n_matched, self.n_sifted)

    def to_json_dict(self) -> dict:
        match = self.match_rate_within_sifted
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "seed": self.seed,
            "eve": self.eve_basis,
            "sifted": self.n_sifted,
            "siftRate": _frac_str(self.sift_rate),
            "siftRateFloat": float(self.sift_rate),
            "matched": self.n_matched,
            "matchRate": _frac_str(match) if match is not None else None,
            "mismatches": self.n_mismatched,
            "keyBitsHex": self.key_bits.hex(),
            "extras": {k: _frac_str(v) for k, v in sorted(self.extras.items())},
        }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pack_key(outcomes: np.ndarray) -> bytes:
    """Outcome indices, 2 bits each, first in the high bits, zero-padded at the end."""
    quads = np.zeros(-(-len(outcomes) // 4) * 4, np.uint8)
    quads[: len(outcomes)] = outcomes
    quads = quads.reshape(-1, 4)
    return (quads[:, 0] << 6 | quads[:, 1] << 4 | quads[:, 2] << 2 | quads[:, 3]).tobytes()


def _run(
    config: WittingConfiguration,
    protocol: _Protocol,
    rounds: int,
    policies: tuple[PartyPolicy, PartyPolicy],
    seed: int,
    eve_basis: int | None,
    on_block: Callable[[RoundBlock], None] | None,
) -> SessionTranscript:
    """The round engine: every protocol, block by block."""
    check_int("rounds", rounds, 1)
    check_int("seed", seed, 0)
    counts, den = outcome_counts(config, eve_basis)
    tetrads, _, d, _ = counts.shape
    if d != 4:
        raise ValueError(f"{d} outcomes per tetrad, not 4")
    # Entry (a·tetrads + b)·den + u is the first outcome pair k = 4·i + j
    # whose cumulative count in counts[a, b] exceeds u.
    outcome_of = np.repeat(
        np.tile(np.arange(d * d, dtype=np.uint8), tetrads * tetrads), counts.ravel()
    )
    outcome_of.flags.writeable = False
    del counts
    states, per_state = config.tetrads_of_state.shape

    parties = [_Party(policy, index) for index, policy in enumerate(policies)]
    outcome_rng = _stream(seed, _OUTCOMES)
    key = bytearray()
    carry = np.empty(0, np.uint8)  # the last 0-3 sifted outcomes, not yet packed
    n_sifted = n_matched = same = both = 0
    for start in range(0, rounds, BLOCK_ROUNDS):
        n = min(BLOCK_ROUNDS, rounds - start)
        choices = []
        for party in parties:
            state = party.draw(states, n) if protocol.picks_state else None
            if protocol.announces == "state":
                choices.append((state,))
            elif state is None:
                choices.append((party.draw(tetrads, n),))
            else:
                pick = party.draw(per_state, n)
                choices.append((state, config.tetrads_of_state.ravel()[state * per_state + pick]))
        alice, bob = choices
        if protocol.announces == "state":
            shared = config.common_tetrad.ravel()[alice[0] * np.uint16(states) + bob[0]]
            sifted = shared >= 0
            measured = sifted
            a_tetrad = b_tetrad = shared[sifted]  # the shared tetrad's own joint
        else:
            sifted = alice[-1] == bob[-1]
            measured = slice(None)
            a_tetrad, b_tetrad = alice[-1], bob[-1]
        draw = _uniform(outcome_rng, den, len(a_tetrad))
        index = np.multiply(a_tetrad, tetrads, dtype=np.int32)  # not 8-byte intp
        index += b_tetrad
        index *= den
        index += draw
        flat = outcome_of[index]
        del draw, index  # freed before on_block
        a_out, b_out = np.full(n, -1, np.int8), np.full(n, -1, np.int8)
        a_out[measured], b_out[measured] = flat >> 2, flat & 3
        matched = sifted & (a_out == b_out)
        n_sifted += int(sifted.sum())
        n_matched += int(matched.sum())
        pending = np.concatenate((carry, a_out[sifted].view(np.uint8)))
        whole = len(pending) - len(pending) % 4
        key += _pack_key(pending[:whole])
        carry = pending[whole:]
        if protocol.picks_state:
            equal = alice[0] == bob[0]
            same += int(equal.sum())
            both += int((equal & sifted).sum())
        if on_block is not None:
            on_block(RoundBlock(start, alice, bob, a_out, b_out, sifted, matched))

    key += _pack_key(carry)
    extras = protocol.extras(same, n_sifted, both)
    return SessionTranscript(
        protocol.name, rounds, seed, eve_basis, n_sifted, n_matched,
        key_bits=bytes(key),
        extras={k: Fraction(v, rounds) for k, v in extras.items()},
    )


def run_naive_session(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    on_block: Callable[[RoundBlock], None] | None = None,
) -> SessionTranscript:
    """Both parties draw one of the 40 tetrads; rounds sift on equality.

    ``eve_basis``, if given, is the tetrad of an intercept-resend attacker on
    Bob's channel; ``on_block`` receives each :class:`RoundBlock` as it is run.
    """
    return _run(config, _NAIVE, rounds, (policy_a, policy_b), seed, eve_basis, on_block)


def run_two_step_session(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    on_block: Callable[[RoundBlock], None] | None = None,
) -> SessionTranscript:
    """Each party picks a state, queries it, then one of its four tetrads.

    Sifting is on tetrad equality only: even when the step-1 states differ,
    a shared tetrad still yields identical outcomes.  The queries commute
    with the final tetrad projectors, so every round's outcome law is the
    one-step joint of the two tetrads, with ``eve_basis`` as in
    :func:`run_naive_session`.  A fixed policy is refused: its one choice
    cannot serve as both the state and the tetrad among its four.
    """
    if "fixed" in (policy_a.mode, policy_b.mode):
        raise ValueError("the two-step protocol takes no fixed policy")
    return _run(config, _TWO_STEP, rounds, (policy_a, policy_b), seed, eve_basis, on_block)


def run_key_agreement(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    on_block: Callable[[RoundBlock], None] | None = None,
) -> SessionTranscript:
    """Parties pick states, exchange their identities, then measure in the
    shared tetrad when one exists (13/40 of the time under uniform picks);
    ``eve_basis`` is as in :func:`run_naive_session`."""
    return _run(config, _KEY_AGREEMENT, rounds, (policy_a, policy_b), seed, eve_basis, on_block)


def run_session(
    config: WittingConfiguration,
    protocol: str,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    on_block: Callable[[RoundBlock], None] | None = None,
) -> SessionTranscript:
    """Run the named protocol's session, under ``eve_basis`` if given; the
    session function is looked up per call, so a wrapper on its name is seen."""
    if protocol == "naive":
        run = run_naive_session
    elif protocol == "two-step":
        run = run_two_step_session
    elif protocol == "key-agreement":
        run = run_key_agreement
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return run(config, rounds, policy_a, policy_b, eve_basis, seed, on_block)


def announcement_leakage_free(config: WittingConfiguration) -> bool:
    """Exact check that announcements alone pin down no key information.

    Conditioned on any sifted announcement transcript, each party's outcome
    is uniform on 0..3: true for every tetrad (naive and two-step announce
    tetrads) and for every sifted state pair (key agreement announces
    states).  Both parties measure a sifted round in one tetrad, the common
    tetrad of a sifted state pair included, so each row and column of every
    tetrad's own block of :func:`outcome_counts` sums to ``den/4``.
    """
    counts, den = outcome_counts(config)
    own = counts[np.diag_indices(len(config.bases))]  # (tetrads, 4, 4)
    return bool((np.stack((own.sum(axis=1), own.sum(axis=2))) == den // 4).all())


TRANSCRIPT_HEADER = "round,alice_choice,bob_choice,alice_outcome,bob_outcome,sifted,matched\r\n"
TRANSCRIPT_SLICE_ROWS = 4096


@functools.lru_cache(maxsize=4)
def _cells(sizes: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only cell table of :func:`transcript_csv_rows`, and where its parts end."""
    outcomes = ["", "0", "1", "2", "3"]  # indexed by outcome + 1
    parts = [
        [str(i) for i in range(1000)] + [f"{i:03d}" for i in range(1000)],
        *(["," + ";".join(map(str, c)) for c in itertools.product(*map(range, s))] for s in sizes),
        [f",{a},{b},{s},{m}\r\n" for a in outcomes for b in outcomes for s in "01" for m in "01"],
    ]
    table = np.array(sum(parts, []), dtype=object)
    table.flags.writeable = False
    return table, tuple(itertools.accumulate(map(len, parts)))


def transcript_csv_rows(block: RoundBlock, write: Callable[[str], object]) -> None:
    """Write the CSV rows of one block of rounds, one slice of text at a time.

    The header comes first in the first block; every other slice holds at
    most ``TRANSCRIPT_SLICE_ROWS`` rows and goes to ``write`` as soon as it
    is joined, so only one slice's cells, index arrays and text are alive
    at a time.  A choice of several values is joined with ";"; an outcome
    nobody measured is empty; lines end in CRLF, as ``csv.writer`` writes
    them.  A row is five cells taken from one table of strings, so no
    string is made per round: the round number's thousands, built per
    block, then its last three digits, the two choices, and the outcomes
    with the sift flags, built once per choice size by :func:`_cells`.
    """
    n = len(block.sifted)
    first = block.start // 1000
    high = [str(k) if k else "" for k in range(first, (block.start + n - 1) // 1000 + 1)]
    choices = (block.alice_choice, block.bob_choice)
    sizes = tuple(tuple(int(column.max()) + 1 for column in choice) for choice in choices)
    cached, ends = _cells(sizes)
    table = np.concatenate((cached, high))
    # Columns 2-4 are mixed-radix codes; outcome -1 is code 0, hence the 24.
    codes = [*zip(choices, sizes, ends), (block[3:], (5, 5, 2, 2), ends[2] + 24)]
    index = np.empty((min(n, TRANSCRIPT_SLICE_ROWS), 5), np.intp)
    cells = np.empty(index.shape, dtype=object)
    if block.start == 0:
        write(TRANSCRIPT_HEADER)
    for lo in range(0, n, TRANSCRIPT_SLICE_ROWS):
        part = slice(lo, min(n, lo + TRANSCRIPT_SLICE_ROWS))
        rows, out = index[: part.stop - lo], cells[: part.stop - lo]
        number = np.arange(block.start + lo, block.start + part.stop)
        thousands = number // 1000
        rows[:, 0] = thousands + (ends[3] - first)
        rows[:, 1] = number - 1000 * thousands + 1000 * (thousands > 0)
        for j, (values, bounds, offset) in enumerate(codes, 2):
            code = np.zeros(len(rows), np.int32)  # contiguous, unlike rows[:, j]
            for value, bound in zip(values, bounds):
                code *= bound
                code += value[part]
            rows[:, j] = code + offset
        # Every index is in range, and mode "raise" would buffer ``out``.
        table.take(rows, out=out, mode="clip")
        write("".join(out.ravel().tolist()))
