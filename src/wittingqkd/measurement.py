"""Exact Born-rule computations for the two-ququart entangled pair.

The shared state is the maximally entangled pair (|00> + |11> + |22> + |33>)/2.
Rewriting it over any orthonormal basis {x_k} pairs each |x_k> on one side
with the componentwise-conjugated |x_k*> on the other, so when Bob measures
the conjugated copy of Alice's tetrad the outcome indices agree with
certainty.  Every probability is an integer weight over an integer
denominator; the per-pair joints give theirs as exact ``Fraction`` values.
One private function gives the channel as a 40×40 integer table of Alice's
states against Bob's: the transition table, or its product through an
intercept-resend attacker's tetrad.  :func:`outcome_counts` gathers every
tetrad pair from it, and all three protocols sample those counts;
:func:`joint_distribution` and :func:`intercept_resend_distribution` gather
one pair alone.  The rest
(delayed queries, two-step measurement, ``JointState``) is the Z[w] vector
reference that ``verify`` and the tests check the table against: one query
projector and one Born rule over a tetrad, shared by the single ququart and
the pair, on (a, b) int pairs through :func:`~wittingqkd.eisenstein.pair_inner`,
without numpy, taking and returning integer (weights, den) pairs; one
integer recomposition mixes a two-step measurement's branches back.  Its
vectors are unnormalised with an explicit power-of-sqrt(3) scale, so no
irrational number ever appears.  Each sub-result is computed once per
configuration, so per ``verify`` run: a table of the tetrads' vectors and
bounded caches of the queries (128) and of Alice's split (16).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .eisenstein import MAGNITUDE_BOUND, pair_inner
from .configuration import Card, ProjectiveState, WittingConfiguration, check_int

Pairs = tuple[tuple[int, int], ...]  # a Z[w] vector, each a + b*w as (a, b)
Counts = tuple[tuple[int, ...], int]  # (weights, den): probabilities weight / den


@dataclass(frozen=True)
class JointDistribution:
    """Exact 4x4 outcome distribution (Alice outcome x Bob outcome)."""

    p: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        # Summed over one common denominator, in ints rather than Fractions.
        entries = [x for row in self.p for x in row]
        den = math.lcm(*(x.denominator for x in entries))
        num = sum(x.numerator * (den // x.denominator) for x in entries)
        if num != den:
            raise ValueError(f"joint distribution sums to {Fraction(num, den)}, not 1")

    def mismatch_probability(self) -> Fraction:
        return sum(
            (self.p[a][b] for a in range(4) for b in range(4) if a != b),
            Fraction(0),
        )

    def is_quarter_diagonal(self) -> bool:
        q = Fraction(1, 4)
        return all(
            self.p[a][b] == (q if a == b else 0)
            for a in range(4)
            for b in range(4)
        )

    def as_strings(self) -> list[list[str]]:
        return [
            [f"{x.numerator}/{x.denominator}" for x in row] for row in self.p
        ]


def _check_tetrad(config: WittingConfiguration, tetrad: object) -> None:
    check_int("tetrad id", tetrad, 0, len(config.bases) - 1)


def _state_table(config: WittingConfiguration, eve_basis: int | None) -> tuple[np.ndarray, int]:
    """Counts of Alice's 40 states (rows) against Bob's (columns), over ``den``:
    T = 9·|<s|t>|² over 36, or T[:, e] @ T[e, :] over 324 (9·9·4) with an
    intercept-resend attacker on tetrad e."""
    t = config.transition_array
    if eve_basis is None:
        return t, 36
    _check_tetrad(config, eve_basis)
    eve = config.basis_states[eve_basis]
    return t[:, eve] @ t[eve, :], 324


def outcome_counts(
    config: WittingConfiguration, eve_basis: int | None = None
) -> tuple[np.ndarray, int]:
    """Integer outcome counts of every (Alice tetrad, Bob tetrad) pair.

    Returns ``(counts, den)``: ``counts[a, b, i, j] / den`` is the
    probability of outcomes (i, j) when Alice measures tetrad a and Bob the
    conjugated copies of tetrad b.  Without an attacker it is
    T(a_i, b_j) / 36 with T = 9·|<s|t>|²; with an intercept-resend attacker
    on tetrad e it is sum_k T(a_i, e_k) T(e_k, b_j) / 324, for every protocol.
    """
    table, den = _state_table(config, eve_basis)
    members = np.array(config.basis_states)  # (tetrads, d) state indices
    return table[members[:, None, :, None], members[None, :, None, :]], den


def _block(
    config: WittingConfiguration, alice_basis: int, bob_basis: int, eve_basis: int | None
) -> JointDistribution:
    """Block ``[alice_basis, bob_basis]`` of :func:`outcome_counts`, computed alone."""
    _check_tetrad(config, alice_basis)
    _check_tetrad(config, bob_basis)
    table, den = _state_table(config, eve_basis)
    members = config.basis_states
    rows = table[np.ix_(members[alice_basis], members[bob_basis])].tolist()
    return JointDistribution(tuple(tuple(Fraction(n, den) for n in row) for row in rows))


def joint_distribution(
    config: WittingConfiguration, alice_basis: int, bob_basis: int
) -> JointDistribution:
    """Exact outcome distribution when both sides measure the entangled pair.

    The amplitude for outcomes (a, b) is half the plain (bilinear) dot
    product of the two measured vectors, so P(a, b) = |<a|b>|^2 / 4; with
    Bob conjugate-coordinated to Alice's own tetrad this is (1/4) I exactly.
    Block ``[alice_basis, bob_basis]`` of :func:`outcome_counts`.
    """
    return _block(config, alice_basis, bob_basis, None)


def intercept_resend_distribution(
    config: WittingConfiguration, alice_basis: int, bob_basis: int, eve_basis: int
) -> JointDistribution:
    """Outcome distribution with an intercept-resend attacker on Bob's channel.

    Eve measures Bob's particle in her own conjugate-coordinated tetrad and
    forwards the eigenstate she observed; Bob then measures the resent state
    in his conjugate-coordinated tetrad: P(a, b) = sum_e P(a, e) |<e|b>|^2.
    Block ``[alice_basis, bob_basis]`` of ``outcome_counts(config, eve_basis)``.
    """
    return _block(config, alice_basis, bob_basis, eve_basis)


# -- the Z[w] reference: one projector, one Born rule ---------------------------


@dataclass(frozen=True)
class QuquartState:
    """A (possibly unnormalised) 4-vector amps / sqrt(3)**scale over Z[w], amps as (a, b) pairs."""

    amps: Pairs
    scale: int = 0

    @classmethod
    def from_state(cls, state: ProjectiveState) -> "QuquartState":
        return cls(state.pairs, 1)  # scaled vectors have norm^2 3


@functools.lru_cache(maxsize=1)
def _tetrads(config: WittingConfiguration) -> tuple[tuple[tuple[Pairs, ...], ...], ...]:
    """Each tetrad's member vectors in announcement order, then their conjugates."""
    plain = tuple(tuple(config.states[i].pairs for i in m) for m in config.basis_states)
    # conj(a + bw) = (a - b) - bw
    return plain, tuple(tuple(tuple((a - b, -b) for a, b in v) for v in t) for t in plain)


def _tetrad(config: WittingConfiguration, basis: int, conj: bool = False) -> tuple[Pairs, ...]:
    """One tetrad of :func:`_tetrads`, checked first."""
    _check_tetrad(config, basis)
    return _tetrads(config)[1 if conj else 0][basis]


def _probe(config: WittingConfiguration, probe: Card, basis: int) -> int:
    """The probe's position in the tetrad, which must hold it."""
    _check_tetrad(config, basis)
    if probe not in config.bases[basis].members:
        raise ValueError(f"{probe.label} is not a member of tetrad {basis}")
    return config.bases[basis].members.index(probe)


def _split(v: Pairs, amps: Pairs) -> tuple[tuple[int, int], Pairs, Pairs]:
    """c = <v|amps> and the branches (3P amps, 3(1 - P) amps) = (c v, 3 amps - c v)
    of the query projector P = v v^dag / 3, two more factors of sqrt(3) in scale
    than ``amps``.  Each component of 3 amps, c v and 3 amps - c v is held to
    ``MAGNITUDE_BOUND``, as the boxed products and difference would be."""
    p, q = c = pair_inner(v, amps)
    yes = tuple((p * a - q * b, p * b + q * a - q * b) for a, b in v)
    no = tuple((3 * x - a, 3 * y - b) for (x, y), (a, b) in zip(amps, yes))
    for (x, y), (a, b), (m, n) in zip(amps, yes, no):
        if max(3 * abs(x), 3 * abs(y), abs(a), abs(b), abs(m), abs(n)) > MAGNITUDE_BOUND:
            raise OverflowError("query branch exceeds 2**20")
    return c, yes, no


def _born(products: Iterable[tuple[int, int]], den: int) -> Counts:
    """Born weights |<v|amps>|^2 of the inner products ``products``, over ``den``:
    each measured vector has squared norm 3, so ``den`` is the squared norm of
    the amplitudes times 3 per side measured, 0 only for the zero state."""
    if den == 0:
        raise ValueError("cannot measure the zero state")
    return tuple([a * a - a * b + b * b for a, b in products]), den


def _sq(amps: Pairs) -> int:
    return sum([a * a - a * b + b * b for a, b in amps])


def _mix(parts: Iterable[tuple[int, int, Counts | None]], size: int) -> Counts:
    """The distributions w / d of the parts (n, t, (w, d)) mixed with weights
    n / t (a part of weight 0 has no counts), as ``size`` integer weights over
    one denominator: a/b + c/d = (ad + cb)/bd, every t and d > 0."""
    acc, den = [0] * size, 1
    for n, t, counts in parts:
        if counts is not None:
            w, d = counts
            acc = [x * t * d + n * y * den for x, y in zip(acc, w, strict=True)]
            den *= t * d
    return tuple(acc), den


@dataclass(frozen=True)
class DelayedQueryResult:
    """Outcome of asking "is the system in this state?" without destroying it:
    the (yes, no) weights over their denominator, and the unnormalised
    post-states (None for a branch of probability zero)."""

    query: Counts
    post_yes: QuquartState | None
    post_no: QuquartState | None


def delayed_query(state: QuquartState, probe: ProjectiveState) -> DelayedQueryResult:
    """Apply the query projector for a configuration state to ``state``."""
    c, yes, no = _split(probe.pairs, state.amps)
    (w,), den = _born((c,), 3 * _sq(state.amps))
    weights = (w, den - w)
    posts = (QuquartState(a, state.scale + 2) if n else None for a, n in zip((yes, no), weights))
    return DelayedQueryResult((weights, den), *posts)


@functools.lru_cache(maxsize=128)
def _query(
    config: WittingConfiguration, state: QuquartState, probe: ProjectiveState
) -> DelayedQueryResult:
    """:func:`delayed_query`, per configuration."""
    return delayed_query(state, probe)


def _measure(vectors: tuple[Pairs, ...], amps: Pairs) -> Counts:
    """Born weights of measuring ``amps`` in the given vectors, over their denominator."""
    return _born([pair_inner(v, amps) for v in vectors], 3 * _sq(amps))


def one_step_counts(config: WittingConfiguration, basis: int, state: QuquartState) -> Counts:
    """Born weights of a direct tetrad measurement on ``state``, over their denominator."""
    return _measure(_tetrad(config, basis), state.amps)


@dataclass(frozen=True)
class TwoStepBreakdown(DelayedQueryResult):
    """The query's outcome and the tetrad's Born weights over their denominator
    in each branch (None in a branch of weight 0), and their recomposition."""

    branches: tuple[Counts | None, Counts | None]

    def composed_counts(self) -> Counts:
        """The branches' tetrad weights mixed by the query's, over one denominator."""
        weights, den = self.query
        return _mix(((n, den, c) for n, c in zip(weights, self.branches)), 4)


def two_step_distribution(
    config: WittingConfiguration,
    probe: Card,
    basis: int,
    state: QuquartState,
) -> TwoStepBreakdown:
    """Query a state first, then finish the measurement in a tetrad holding it.

    Both branches are measured in the tetrad.  Because the query projector
    is one of the tetrad's own projectors, the yes branch lands on the probe
    with certainty and the composition reproduces the direct measurement
    distribution exactly.
    """
    _probe(config, probe, basis)
    vectors = _tetrad(config, basis)
    q = _query(config, state, config.state_of(probe))
    posts = (q.post_yes, q.post_no)
    branches = tuple(p and _measure(vectors, p.amps) for p in posts)
    return TwoStepBreakdown(q.query, *posts, branches)


@dataclass(frozen=True)
class JointState:
    """Unnormalised two-ququart state sum_jk amps[j][k] |j>|k> / sqrt(3)**scale."""

    amps: tuple[Pairs, ...]
    scale: int = 0

    @classmethod
    def entangled_pair(cls) -> "JointState":
        return cls(tuple(tuple((int(j == k), 0) for k in range(4)) for j in range(4)))

    @property
    def weight(self) -> int:  # squared norm times 3**scale
        return sum(map(_sq, self.amps))

    def _split(self, v: Pairs, side: str) -> tuple["JointState", "JointState"]:
        # Query one side: Bob's projector acts on each row, Alice's on each column.
        rows = tuple(zip(*self.amps)) if side == "alice" else self.amps
        _, yes, no = zip(*(_split(v, row) for row in rows))
        if side == "alice":
            yes, no = tuple(zip(*yes)), tuple(zip(*no))
        return JointState(yes, self.scale + 2), JointState(no, self.scale + 2)

    def measurement_counts(
        self, alice_vectors: tuple[Pairs, ...], bob_vectors: tuple[Pairs, ...]
    ) -> Counts:
        """Exact conditional joint in the given product tetrads, as 16 weights
        over one denominator, Alice's outcome major.

        Contracting one of Bob's vectors into the pair leaves Alice's
        unnormalised conditional state, which she measures by the Born rule.
        """
        cond = [[pair_inner(vb, row) for row in self.amps] for vb in bob_vectors]
        products = (pair_inner(va, c) for va in alice_vectors for c in cond)
        return _born(products, 9 * self.weight)


@functools.lru_cache(maxsize=16)
def _alice_split(config: WittingConfiguration, probe: Pairs) -> tuple[JointState, JointState]:
    """Alice's query on the entangled pair, per configuration."""
    return JointState.entangled_pair()._split(probe, "alice")


@dataclass(frozen=True)
class TwoStepBranch:
    """One yes/no branch: probability ``weight / total`` and, unless that is
    0, the conditional joint as :meth:`JointState.measurement_counts`."""

    label: str  # "yy", "yn", "ny", "nn"
    weight: int
    total: int
    counts: Counts | None


def two_step_joint_branches(
    config: WittingConfiguration,
    alice_probe: Card,
    alice_basis: int,
    bob_probe: Card,
    bob_basis: int,
) -> tuple[TwoStepBranch, ...]:
    """Exact branch structure of both parties measuring the pair in two steps.

    Alice queries her probe then completes her tetrad; Bob does the same
    with conjugated states.  The four (yes/no x yes/no) branches recompose
    exactly to the one-step joint distribution, whatever the probes are.
    This builds every branch state over Z[w] and weighs its squared norm.
    In one shared tetrad the outcome pair fixes the branch, so the round
    engine sifts a two-step round with one draw from the one-step joint.
    """
    av, bv = _tetrad(config, alice_basis), _tetrad(config, bob_basis, True)
    pa, pb = av[_probe(config, alice_probe, alice_basis)], bv[_probe(config, bob_probe, bob_basis)]
    start = JointState.entangled_pair()
    branches = []
    for alice_branch, a_state in zip("yn", _alice_split(config, pa)):
        for bob_branch, state in zip("yn", a_state._split(pb, "bob")):
            total = start.weight * 3 ** (state.scale - start.scale)
            counts = state.measurement_counts(av, bv) if state.weight else None
            branches.append(TwoStepBranch(alice_branch + bob_branch, state.weight, total, counts))
    if sum(b.weight for b in branches) != total:
        raise AssertionError("branch probabilities do not sum to 1")
    return tuple(branches)


def compose_branch_counts(branches: tuple[TwoStepBranch, ...]) -> Counts:
    """The branches' conditional joints mixed by their probabilities: 16
    weights, Alice's outcome major, over one denominator."""
    return _mix(((b.weight, b.total, b.counts) for b in branches), 16)


# -- the query gate on qubits ----------------------------------------------------


def toffoli_report() -> dict:
    """Check the query gate at probe |3>: on two qubits plus ancilla it is Toffoli.

    The gate flips the ancilla exactly on the probe's component.  On the
    basis |ququart j, ancilla a>, indexed 2j + a, it is the permutation
    (j, a) -> 2j + (a xor [j = probe]); for probe |3> = |11> that swaps
    |110> and |111>, i.e. the Toffoli gate.  Returns a small report of exact
    permutation identities.
    """

    def query_gate(probe: int) -> list[int]:  # entry i is the image of index i
        return [2 * j + (a ^ (j == probe)) for j in range(4) for a in (0, 1)]

    t3 = query_gate(3)
    # Toffoli on qubits (q1, q0, ancilla) with j = 2*q1 + q0: flips the
    # ancilla exactly when q1 = q0 = 1, i.e. swaps indices 6 and 7.
    toffoli = [0, 1, 2, 3, 4, 5, 7, 6]
    return {
        "is_toffoli": t3 == toffoli,
        "involutive": [t3[i] for i in t3] == list(range(8)),
        "probe0_differs": query_gate(0) != toffoli,
    }
