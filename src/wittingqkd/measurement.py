"""Exact Born-rule computations for the two-ququart entangled pair.

The shared state is the maximally entangled pair (|00> + |11> + |22> + |33>)/2.
Rewriting it over any orthonormal basis {x_k} pairs each |x_k> on one side
with the componentwise-conjugated |x_k*> on the other, so when Bob measures
the conjugated copy of Alice's tetrad the outcome indices agree with
certainty.  All probabilities here are exact ``Fraction`` values.
One private formula reads the configuration's integer transition table:
:func:`outcome_counts` applies it to every tetrad pair, and the round
engine samples those counts; :func:`joint_distribution` and
:func:`intercept_resend_distribution` apply it to one pair alone.  The
rest (delayed queries, two-step measurement, ``JointState``) is the boxed
Z[w] vector reference that ``verify`` and the tests check the table
against: one query projector and one Born rule over a tetrad, shared by
the single ququart and the pair.  Its vectors are kept
unnormalised with an explicit power-of-sqrt(3) scale so no irrational
number ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eisenstein import ONE, ZERO
from .configuration import (
    Card,
    ProjectiveState,
    Vector,
    WittingConfiguration,
    check_int,
    scaled_inner,
)


@dataclass(frozen=True)
class QuquartState:
    """A (possibly unnormalised) 4-vector amps / sqrt(3)**scale over Z[w]."""

    amps: Vector
    scale: int = 0

    @property
    def norm_sq(self) -> Fraction:
        return Fraction(_sq(self.amps), 3**self.scale)

    @classmethod
    def from_state(cls, state: ProjectiveState) -> "QuquartState":
        return cls(state.vector, 1)  # scaled vectors have norm^2 3


@dataclass(frozen=True)
class JointDistribution:
    """Exact 4x4 outcome distribution (Alice outcome x Bob outcome)."""

    p: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        total = sum(x for row in self.p for x in row)
        if total != 1:
            raise ValueError(f"joint distribution sums to {total}, not 1")

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


def basis_vectors(
    config: WittingConfiguration, basis: int, conjugated: bool = False
) -> tuple[Vector, ...]:
    """Member vectors of a tetrad, in announcement order.

    With ``conjugated`` the componentwise conjugates are returned: the
    states Bob actually measures.  (Each conjugate is again a configuration
    state, with the same suit and the conjugation-partner rank.)
    """
    _check_tetrad(config, basis)
    vecs = tuple(config.state_of(c).vector for c in config.bases[basis].members)
    if conjugated:
        vecs = tuple(tuple(x.conj() for x in v) for v in vecs)
    return vecs


def _check_tetrad(config: WittingConfiguration, tetrad: object) -> None:
    check_int("tetrad id", tetrad, 0, len(config.bases) - 1)


def _counts(
    config: WittingConfiguration,
    alice: np.ndarray | tuple[int, ...],
    bob: np.ndarray | tuple[int, ...],
    eve_basis: int | None,
) -> tuple[np.ndarray, int]:
    """Counts of Alice's states (rows) against Bob's (columns), over ``den``.

    T(s, t) over 36 without an attacker, with T = 9·|<s|t>|²; with an
    intercept-resend attacker on tetrad e, sum_k T(s, e_k) T(e_k, t) over
    324 (9·9·4).
    """
    t = config.transition_array
    if eve_basis is None:
        return t[np.ix_(alice, bob)], 36
    _check_tetrad(config, eve_basis)
    eve = config.basis_states[eve_basis]
    return t[np.ix_(alice, eve)] @ t[np.ix_(eve, bob)], 324


def outcome_counts(
    config: WittingConfiguration, eve_basis: int | None = None
) -> tuple[np.ndarray, int]:
    """Integer outcome counts of every (Alice tetrad, Bob tetrad) pair.

    Returns ``(counts, den)``: ``counts[a, b, i, j] / den`` is the
    probability of outcomes (i, j) when Alice measures tetrad a and Bob the
    conjugated copies of tetrad b.  Without an attacker it is
    T(a_i, b_j) / 36 with T = 9·|<s|t>|²; with an intercept-resend attacker
    on tetrad e it is sum_k T(a_i, e_k) T(e_k, b_j) / 324.
    """
    members = np.array(config.basis_states)  # (tetrads, d) state indices
    tetrads, d = members.shape
    flat = members.reshape(-1)
    counts, den = _counts(config, flat, flat, eve_basis)
    return counts.reshape(tetrads, d, tetrads, d).transpose(0, 2, 1, 3), den


def _block(
    config: WittingConfiguration, alice_basis: int, bob_basis: int, eve_basis: int | None
) -> JointDistribution:
    """Block ``[alice_basis, bob_basis]`` of :func:`outcome_counts`, computed alone."""
    _check_tetrad(config, alice_basis)
    _check_tetrad(config, bob_basis)
    members = config.basis_states
    counts, den = _counts(config, members[alice_basis], members[bob_basis], eve_basis)
    rows = counts.tolist()
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


def _split(v: Vector, amps: Vector) -> tuple[Vector, Vector]:
    """Both branches of the query projector P = v v^dag / 3, times 3.

    One inner product gives (3P amps, 3(1 - P) amps); each branch carries
    two more factors of sqrt(3) in its scale than ``amps``.
    """
    c = scaled_inner(v, amps)
    yes = tuple(c * x for x in v)
    return yes, tuple(x * 3 - y for x, y in zip(amps, yes))


def _born(vectors: tuple[Vector, ...], amps: Vector, den: int) -> tuple[Fraction, ...]:
    """Born probabilities |<v|amps>|^2 / den, one per measured vector.

    Each vector has squared norm 3, so ``den`` is the squared norm of the
    measured amplitudes times 3 per side measured; only the zero state has
    ``den`` 0.
    """
    if den == 0:
        raise ValueError("cannot measure the zero state")
    return tuple(Fraction(scaled_inner(v, amps).norm_sq(), den) for v in vectors)


def _sq(amps: Vector) -> int:
    return sum(x.norm_sq() for x in amps)


def _probe_state(config: WittingConfiguration, probe: Card, basis: int) -> ProjectiveState:
    _check_tetrad(config, basis)
    if probe not in config.bases[basis].members:
        raise ValueError(f"{probe.label} is not a member of tetrad {basis}")
    return config.state_of(probe)


@dataclass(frozen=True)
class DelayedQueryResult:
    """Outcome of asking "is the system in this state?" without destroying it.

    Post-measurement branch states are unnormalised; their exact squared
    norms are available on the states themselves.  A branch of probability
    zero carries no post-state.
    """

    p_yes: Fraction
    post_yes: QuquartState | None
    post_no: QuquartState | None


def delayed_query(state: QuquartState, probe: ProjectiveState) -> DelayedQueryResult:
    """Apply the query projector for a configuration state to ``state``."""
    (p_yes,) = _born((probe.vector,), state.amps, 3 * _sq(state.amps))
    yes, no = (QuquartState(a, state.scale + 2) for a in _split(probe.vector, state.amps))
    return DelayedQueryResult(
        p_yes, yes if p_yes != 0 else None, no if p_yes != 1 else None
    )


def one_step_distribution(
    config: WittingConfiguration, basis: int, state: QuquartState
) -> tuple[Fraction, ...]:
    """Born distribution of a direct tetrad measurement on ``state``."""
    return _born(basis_vectors(config, basis), state.amps, 3 * _sq(state.amps))


@dataclass(frozen=True)
class TwoStepBreakdown:
    """Branch probabilities of query-then-measure, and their recomposition."""

    p_yes: Fraction
    dist_yes: tuple[Fraction, ...] | None
    dist_no: tuple[Fraction, ...] | None

    def composed(self) -> tuple[Fraction, ...]:
        total = [Fraction(0)] * 4
        for p, dist in ((self.p_yes, self.dist_yes), (1 - self.p_yes, self.dist_no)):
            if dist is not None:
                total = [t + p * x for t, x in zip(total, dist)]
        return tuple(total)


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
    q = delayed_query(state, _probe_state(config, probe, basis))
    dist_yes, dist_no = (
        None if post is None else one_step_distribution(config, basis, post)
        for post in (q.post_yes, q.post_no)
    )
    return TwoStepBreakdown(q.p_yes, dist_yes, dist_no)


# -- the entangled pair under two-step measurement -----------------------------


@dataclass(frozen=True)
class JointState:
    """Unnormalised two-ququart state sum_jk amps[j][k] |j>|k> / sqrt(3)**scale."""

    amps: tuple[Vector, ...]
    scale: int = 0

    @classmethod
    def entangled_pair(cls) -> "JointState":
        return cls(tuple(tuple(ONE if j == k else ZERO for k in range(4)) for j in range(4)))

    @property
    def norm_sq(self) -> Fraction:
        return Fraction(sum(_sq(row) for row in self.amps), 3**self.scale)

    def _split(self, v: Vector, side: str) -> tuple["JointState", "JointState"]:
        # Query one side: Bob's projector acts on each row, Alice's on each column.
        rows = tuple(zip(*self.amps)) if side == "alice" else self.amps
        yes, no = zip(*(_split(v, row) for row in rows))
        if side == "alice":
            yes, no = tuple(zip(*yes)), tuple(zip(*no))
        return JointState(yes, self.scale + 2), JointState(no, self.scale + 2)

    def measurement_distribution(
        self, alice_vectors: tuple[Vector, ...], bob_vectors: tuple[Vector, ...]
    ) -> JointDistribution:
        """Exact conditional joint distribution in the given product tetrads.

        Contracting one of Bob's vectors into the pair leaves Alice's
        unnormalised conditional state, which she measures by the Born rule.
        """
        den = 9 * sum(_sq(row) for row in self.amps)
        columns = [
            _born(alice_vectors, tuple(scaled_inner(vb, row) for row in self.amps), den)
            for vb in bob_vectors
        ]
        return JointDistribution(tuple(zip(*columns)))


@dataclass(frozen=True)
class TwoStepBranch:
    label: str  # "yy", "yn", "ny", "nn"
    probability: Fraction
    conditional: JointDistribution | None  # None only for zero-probability branches


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
    This builds every branch state over Z[w].  In one shared tetrad the
    outcome pair fixes the branch, so the round engine sifts a two-step
    round with one draw from the one-step joint.
    """
    pa = _probe_state(config, alice_probe, alice_basis).vector
    pb = tuple(x.conj() for x in _probe_state(config, bob_probe, bob_basis).vector)
    av = basis_vectors(config, alice_basis)
    bv = basis_vectors(config, bob_basis, conjugated=True)

    start = JointState.entangled_pair()
    branches = []
    for alice_branch, a_state in zip("yn", start._split(pa, "alice")):
        for bob_branch, state in zip("yn", a_state._split(pb, "bob")):
            prob = state.norm_sq / start.norm_sq
            cond = state.measurement_distribution(av, bv) if prob != 0 else None
            branches.append(TwoStepBranch(alice_branch + bob_branch, prob, cond))
    if sum(b.probability for b in branches) != 1:
        raise AssertionError("branch probabilities do not sum to 1")
    return tuple(branches)


def compose_branches(branches: tuple[TwoStepBranch, ...]) -> JointDistribution:
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for branch in branches:
        if branch.conditional is None:
            continue
        for a in range(4):
            for b in range(4):
                rows[a][b] += branch.probability * branch.conditional.p[a][b]
    return JointDistribution(tuple(tuple(row) for row in rows))


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
