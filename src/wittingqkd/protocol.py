"""Two-party session orchestration over an in-process classical channel.

Three protocol variants share the same skeleton: per round each party makes
choices, announcements cross the (logged) classical channel, rounds are
sifted on a coordination condition, and outcomes are sampled from the exact
joint distributions of the measurement engine.  Bob always measures the
conjugated copies of the announced tetrad, so without an attacker every
sifted round matches.

Choice policies: ``uniform`` (independent), ``agreed`` (both parties replay
one shared pseudo-random stream, so equal seeds mean identical choices),
``correlated`` (take the shared stream with probability ``weight``, else an
independent draw), and ``fixed`` (a forced tetrad, used for exhaustive
per-tetrad checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .configuration import Card, WittingConfiguration
from .measurement import (
    CumulativeSampler,
    JointDistribution,
    TwoStepSampler,
    intercept_resend_distribution,
    joint_distribution,
    probe_branches,
)

DEFAULT_SEED = 20240


class AgreementError(AssertionError):
    """Sifted outcomes disagreed in a session that has no attacker."""


@dataclass(frozen=True)
class PartyPolicy:
    mode: str = "uniform"  # uniform | agreed | correlated | fixed
    seed: int = DEFAULT_SEED
    weight: Fraction = Fraction(0)  # correlated mode only
    choice: int | None = None  # fixed mode only

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "agreed", "correlated", "fixed"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.mode == "fixed" and self.choice is None:
            raise ValueError("fixed policy needs a choice")
        if not 0 <= self.weight <= 1:
            raise ValueError("correlation weight must lie in [0, 1]")

    @classmethod
    def parse(cls, text: str, seed: int) -> "PartyPolicy":
        if text == "uniform":
            return cls("uniform", seed)
        if text == "agreed":
            return cls("agreed", seed)
        if text.startswith("correlated:"):
            try:
                weight = Fraction(text.split(":", 1)[1])
            except ZeroDivisionError:
                raise ValueError("correlation weight has a zero denominator") from None
            return cls("correlated", seed, weight=weight)
        raise ValueError(f"unknown policy {text!r}")


class _ChoiceStream:
    """Per-party source of choices honouring the policy's coordination mode.

    The shared stream is seeded by the policy seed alone (so two parties
    with equal seeds stay in lockstep) and is advanced every round whether
    or not its value is used; private streams mix in the party index.
    """

    def __init__(self, policy: PartyPolicy, party: int):
        self.policy = policy
        self.shared = Random(policy.seed)
        self.own = Random(policy.seed * 1_000_003 + 2 * party + 1)
        self.weight_num = policy.weight.numerator
        self.weight_den = policy.weight.denominator

    def draw(self, n_options: int) -> int:
        shared = self.shared.randrange(n_options)
        own = self.own.randrange(n_options)
        mode = self.policy.mode
        if mode == "agreed":
            return shared
        if mode == "uniform":
            return own
        if mode == "fixed":
            assert self.policy.choice is not None
            return self.policy.choice
        # correlated: exact-rational coin from the private stream
        coin = self.own.randrange(self.weight_den) < self.weight_num
        return shared if coin else own


@dataclass(frozen=True)
class ChannelMessage:
    round_index: int
    sender: str  # "alice" | "bob"
    kind: str  # "basis" | "state"
    payload: int


@dataclass(frozen=True)
class RoundRecord:
    index: int
    alice_choice: tuple[int, ...]
    bob_choice: tuple[int, ...]
    announcements: tuple[ChannelMessage, ...]
    alice_outcome: int | None
    bob_outcome: int | None
    sifted: bool
    matched: bool


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
    round_records: list[RoundRecord] | None = None
    messages: list[ChannelMessage] | None = None

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


class _KeyAccumulator:
    """Packs outcome indices (2 bits each) into bytes, zero-padded at the end."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.current = 0
        self.filled = 0

    def push(self, outcome: int) -> None:
        self.current = (self.current << 2) | outcome
        self.filled += 2
        if self.filled == 8:
            self.buffer.append(self.current)
            self.current = 0
            self.filled = 0

    def finish(self) -> bytes:
        if self.filled:
            self.buffer.append(self.current << (8 - self.filled))
        return bytes(self.buffer)


def run_naive_session(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    keep_rounds: bool = False,
) -> SessionTranscript:
    """Both parties draw one of the 40 tetrads; rounds sift on equality."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    alice = _ChoiceStream(policy_a, 0)
    bob = _ChoiceStream(policy_b, 1)
    outcome_rng = Random(seed * 1_000_003 + 17)
    samplers: dict[tuple[int, int], CumulativeSampler] = {}

    transcript = SessionTranscript("naive", rounds, seed, eve_basis)
    records: list[RoundRecord] | None = [] if keep_rounds else None
    messages: list[ChannelMessage] | None = [] if keep_rounds else None
    key = _KeyAccumulator()

    for i in range(rounds):
        ba = alice.draw(40)
        bb = bob.draw(40)
        pair = (ba, bb)
        sampler = samplers.get(pair)
        if sampler is None:
            if eve_basis is None:
                dist = joint_distribution(config, ba, bb)
            else:
                dist = intercept_resend_distribution(config, ba, bb, eve_basis)
            sampler = CumulativeSampler(dist.flattened())
            samplers[pair] = sampler
        a_out, b_out = divmod(sampler.sample(outcome_rng), 4)
        sifted = ba == bb
        matched = sifted and a_out == b_out
        if sifted:
            transcript.n_sifted += 1
            key.push(a_out)
            if matched:
                transcript.n_matched += 1
        if records is not None:
            announce = (
                ChannelMessage(i, "alice", "basis", ba),
                ChannelMessage(i, "bob", "basis", bb),
            )
            messages.extend(announce)  # type: ignore[union-attr]
            records.append(
                RoundRecord(i, (ba,), (bb,), announce, a_out, b_out, sifted, matched)
            )
    transcript.key_bits = key.finish()
    transcript.round_records = records
    transcript.messages = messages
    return transcript


def _state_and_basis(
    config: WittingConfiguration, stream: _ChoiceStream
) -> tuple[Card, int]:
    state_idx = stream.draw(40)
    card = config.states[state_idx].card
    basis_pick = stream.draw(4)
    return card, config.bases_of(card)[basis_pick]


class _TwoStepOutcomeCache:
    """Lazy cache of exact samplers for the states/tetrads actually visited."""

    def __init__(self, config: WittingConfiguration):
        self.config = config
        self.two_step: dict[tuple[Card, Card, int], TwoStepSampler] = {}
        self.one_step: dict[tuple[int, int], CumulativeSampler] = {}

    def sample_sifted(
        self, rng: Random, probe_a: Card, probe_b: Card, basis: int
    ) -> tuple[int, int]:
        key = (probe_a, probe_b, basis)
        sampler = self.two_step.get(key)
        if sampler is None:
            joint = joint_distribution(self.config, basis, basis)
            members = self.config.bases[basis].members
            sampler = TwoStepSampler(
                probe_branches(joint, members.index(probe_a), members.index(probe_b))
            )
            self.two_step[key] = sampler
        return sampler.sample(rng)

    def sample_unsifted(self, rng: Random, ba: int, bb: int) -> tuple[int, int]:
        # Query projectors commute with the final tetrad projectors, so the
        # composed distribution equals the one-step joint; sampling from it
        # is exact (the equality itself is tested exhaustively).
        sampler = self.one_step.get((ba, bb))
        if sampler is None:
            sampler = CumulativeSampler(
                joint_distribution(self.config, ba, bb).flattened()
            )
            self.one_step[(ba, bb)] = sampler
        return divmod(sampler.sample(rng), 4)


def run_two_step_session(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    seed: int = DEFAULT_SEED,
    keep_rounds: bool = False,
) -> SessionTranscript:
    """Each party picks a state, queries it, then one of its four tetrads.

    Sifting is on tetrad equality only: even when the step-1 states differ,
    a shared tetrad still yields identical outcomes.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    alice = _ChoiceStream(policy_a, 0)
    bob = _ChoiceStream(policy_b, 1)
    outcome_rng = Random(seed * 1_000_003 + 29)
    cache = _TwoStepOutcomeCache(config)

    transcript = SessionTranscript("two-step", rounds, seed, None)
    records: list[RoundRecord] | None = [] if keep_rounds else None
    messages: list[ChannelMessage] | None = [] if keep_rounds else None
    key = _KeyAccumulator()
    same_state = same_basis = same_both = 0

    for i in range(rounds):
        card_a, ba = _state_and_basis(config, alice)
        card_b, bb = _state_and_basis(config, bob)
        sifted = ba == bb
        if card_a == card_b:
            same_state += 1
            if sifted:
                same_both += 1
        if sifted:
            same_basis += 1
            a_out, b_out = cache.sample_sifted(outcome_rng, card_a, card_b, ba)
        else:
            a_out, b_out = cache.sample_unsifted(outcome_rng, ba, bb)
        matched = sifted and a_out == b_out
        if sifted:
            transcript.n_sifted += 1
            key.push(a_out)
            if matched:
                transcript.n_matched += 1
        if records is not None:
            announce = (
                ChannelMessage(i, "alice", "basis", ba),
                ChannelMessage(i, "bob", "basis", bb),
            )
            messages.extend(announce)  # type: ignore[union-attr]
            records.append(
                RoundRecord(
                    i,
                    (config.state_of(card_a).index, ba),
                    (config.state_of(card_b).index, bb),
                    announce,
                    a_out,
                    b_out,
                    sifted,
                    matched,
                )
            )
    transcript.key_bits = key.finish()
    transcript.extras = {
        "sameStateRate": Fraction(same_state, rounds),
        "sameBasisRate": Fraction(same_basis, rounds),
        "sameStateAndBasisRate": Fraction(same_both, rounds),
    }
    transcript.round_records = records
    transcript.messages = messages
    return transcript


def run_key_agreement(
    config: WittingConfiguration,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    seed: int = DEFAULT_SEED,
    keep_rounds: bool = False,
) -> SessionTranscript:
    """Parties pick states, exchange their identities, then measure in the
    shared tetrad when one exists (13/40 of the time under uniform picks)."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    alice = _ChoiceStream(policy_a, 0)
    bob = _ChoiceStream(policy_b, 1)
    outcome_rng = Random(seed * 1_000_003 + 43)
    cache = _TwoStepOutcomeCache(config)

    transcript = SessionTranscript("key-agreement", rounds, seed, None)
    records: list[RoundRecord] | None = [] if keep_rounds else None
    messages: list[ChannelMessage] | None = [] if keep_rounds else None
    key = _KeyAccumulator()
    same_state = distinct_orthogonal = 0

    for i in range(rounds):
        card_a = config.states[alice.draw(40)].card
        card_b = config.states[bob.draw(40)].card
        common = config.common_basis(card_a, card_b)
        sifted = common is not None
        a_out = b_out = None
        if sifted:
            if card_a == card_b:
                same_state += 1
            else:
                distinct_orthogonal += 1
            a_out, b_out = cache.sample_sifted(outcome_rng, card_a, card_b, common)
        matched = sifted and a_out == b_out
        if sifted:
            transcript.n_sifted += 1
            key.push(a_out)  # type: ignore[arg-type]
            if matched:
                transcript.n_matched += 1
        if records is not None:
            announce = (
                ChannelMessage(i, "alice", "state", config.state_of(card_a).index),
                ChannelMessage(i, "bob", "state", config.state_of(card_b).index),
            )
            messages.extend(announce)  # type: ignore[union-attr]
            records.append(
                RoundRecord(
                    i,
                    (config.state_of(card_a).index,),
                    (config.state_of(card_b).index,),
                    announce,
                    a_out,
                    b_out,
                    sifted,
                    matched,
                )
            )
    transcript.key_bits = key.finish()
    transcript.extras = {
        "sameStateRate": Fraction(same_state, rounds),
        "distinctOrthogonalRate": Fraction(distinct_orthogonal, rounds),
    }
    transcript.round_records = records
    transcript.messages = messages
    return transcript


def run_session(
    config: WittingConfiguration,
    protocol: str,
    rounds: int,
    policy_a: PartyPolicy,
    policy_b: PartyPolicy,
    eve_basis: int | None = None,
    seed: int = DEFAULT_SEED,
    keep_rounds: bool = False,
) -> SessionTranscript:
    if protocol == "naive":
        return run_naive_session(
            config, rounds, policy_a, policy_b, eve_basis, seed, keep_rounds
        )
    if eve_basis is not None:
        raise ValueError("an attacker is only modelled for the naive protocol")
    if protocol == "two-step":
        return run_two_step_session(config, rounds, policy_a, policy_b, seed, keep_rounds)
    if protocol == "key-agreement":
        return run_key_agreement(config, rounds, policy_a, policy_b, seed, keep_rounds)
    raise ValueError(f"unknown protocol {protocol!r}")


def agreement_report(
    config: WittingConfiguration,
    rounds: int,
    seed: int = DEFAULT_SEED,
    eve_basis: int | None = None,
) -> dict[str, dict[str, int]]:
    """Run every variant and count sifted-round mismatches.

    Without an attacker any mismatch raises :class:`AgreementError`; with
    one, the (naive-protocol) mismatches are simply reported.  ``rounds``
    may be 0, in which case the check passes vacuously.
    """
    report: dict[str, dict[str, int]] = {}
    if rounds == 0:
        return report
    pa = PartyPolicy("uniform", seed)
    pb = PartyPolicy("uniform", seed + 1)
    sessions = {
        "naive": run_naive_session(config, rounds, pa, pb, eve_basis, seed),
        "two-step": run_two_step_session(config, rounds, pa, pb, seed),
        "key-agreement": run_key_agreement(config, rounds, pa, pb, seed),
    }
    for name, transcript in sessions.items():
        mismatches = transcript.n_mismatched
        if eve_basis is None and mismatches:
            raise AgreementError(
                f"{name}: {mismatches} mismatches in {transcript.n_sifted} sifted rounds"
            )
        report[name] = {
            "sifted": transcript.n_sifted,
            "mismatches": mismatches,
        }
    return report


def announcement_leakage_free(config: WittingConfiguration) -> bool:
    """Exact check that announcements alone pin down no key information.

    Conditioned on any sifted announcement transcript, each party's outcome
    is uniform on 0..3: true for every tetrad (naive and two-step announce
    tetrads) and for every sifted state pair (key agreement announces
    states).
    """
    quarter = (Fraction(1, 4),) * 4
    for basis in config.bases:
        dist = joint_distribution(config, basis.id, basis.id)
        if dist.row_marginals() != quarter or dist.col_marginals() != quarter:
            return False
    for a in config.states:
        for b in config.states:
            common = config.common_basis(a.card, b.card)
            if common is None:
                continue
            dist = joint_distribution(config, common, common)
            if dist.row_marginals() != quarter:
                return False
    return True


def transcript_csv_rows(transcript: SessionTranscript) -> list[list]:
    """Per-round rows for the CSV dump (requires keep_rounds=True)."""
    if transcript.round_records is None:
        raise ValueError("session was run without keep_rounds")
    rows: list[list] = [
        [
            "round",
            "alice_choice",
            "bob_choice",
            "alice_outcome",
            "bob_outcome",
            "sifted",
            "matched",
        ]
    ]
    for r in transcript.round_records:
        rows.append(
            [
                r.index,
                ";".join(map(str, r.alice_choice)),
                ";".join(map(str, r.bob_choice)),
                "" if r.alice_outcome is None else r.alice_outcome,
                "" if r.bob_outcome is None else r.bob_outcome,
                int(r.sifted),
                int(r.matched),
            ]
        )
    return rows
