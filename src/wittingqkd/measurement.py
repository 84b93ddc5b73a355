"""Exact Born-rule computations for the two-ququart entangled pair.

The shared state is the maximally entangled pair (|00> + |11> + |22> + |33>)/2.
Rewriting it over any orthonormal basis {x_k} pairs each |x_k> on one side
with the componentwise-conjugated |x_k*> on the other, so when Bob measures
the conjugated copy of Alice's tetrad the outcome indices agree with
certainty.  All probabilities here are exact ``Fraction`` values.
:func:`outcome_counts` is the one reader of the configuration's integer
transition table, and the round engine samples its counts;
:func:`joint_distribution` and :func:`intercept_resend_distribution` are
views of one block of it.  The rest (delayed queries, two-step measurement,
``JointState``) is the Z[w] vector reference that ``verify`` and the tests
check the table against.  Its vectors are kept unnormalised with an
explicit power-of-sqrt(3) scale so no irrational number ever appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .eisenstein import Eisenstein, ZERO
from .configuration import (
    Card,
    ProjectiveState,
    Vector,
    WittingConfiguration,
    scaled_inner,
)


@dataclass(frozen=True)
class QuquartState:
    """A (possibly unnormalised) 4-vector amps / sqrt(3)**scale over Z[w]."""

    amps: Vector
    scale: int = 0

    @property
    def norm_sq(self) -> Fraction:
        return Fraction(sum(x.norm_sq() for x in self.amps), 3**self.scale)

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
    last = len(config.bases) - 1
    if not isinstance(tetrad, int) or isinstance(tetrad, bool) or not 0 <= tetrad <= last:
        raise ValueError(f"tetrad id must be an int in 0..{last}, got {tetrad!r}")


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
    t = config.transition_array
    members = np.array(config.basis_states)  # (40, 4) state indices
    if eve_basis is None:
        return t[members[:, None, :, None], members[None, :, None, :]], 36
    _check_tetrad(config, eve_basis)
    flat, eve = members.reshape(-1), members[eve_basis]
    counts = t[flat][:, eve] @ t[eve][:, flat]  # (160, 160) over 9·9·4
    return counts.reshape(40, 4, 40, 4).transpose(0, 2, 1, 3), 324


def _block(
    config: WittingConfiguration, alice_basis: int, bob_basis: int, eve_basis: int | None
) -> JointDistribution:
    _check_tetrad(config, alice_basis)
    _check_tetrad(config, bob_basis)
    counts, den = outcome_counts(config, eve_basis)
    rows = counts[alice_basis, bob_basis].tolist()
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


# -- delayed queries and two-step measurement ----------------------------------


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
    v = probe.vector
    c = scaled_inner(v, state.amps)  # sqrt(3)^(scale+1) times <probe|state>
    norm = state.norm_sq
    if norm == 0:
        raise ValueError("cannot query the zero state")
    p_yes = Fraction(c.norm_sq(), 3 ** (state.scale + 1)) / norm
    post_yes = post_no = None
    if p_yes != 0:
        post_yes = QuquartState(tuple(c * x for x in v), state.scale + 2)
    if p_yes != 1:
        post_no = QuquartState(
            tuple(x * 3 - c * y for x, y in zip(state.amps, v)),
            state.scale + 2,
        )
    return DelayedQueryResult(p_yes, post_yes, post_no)


def one_step_distribution(
    config: WittingConfiguration, basis: int, state: QuquartState
) -> tuple[Fraction, ...]:
    """Born distribution of a direct tetrad measurement on ``state``."""
    norm = state.norm_sq
    out = []
    for v in basis_vectors(config, basis):
        c = scaled_inner(v, state.amps)
        out.append(Fraction(c.norm_sq(), 3 ** (state.scale + 1)) / norm)
    return tuple(out)


@dataclass(frozen=True)
class TwoStepBreakdown:
    """Branch probabilities of query-then-measure, and their recomposition."""

    probe_position: int
    p_yes: Fraction
    dist_yes: tuple[Fraction, ...] | None
    dist_no: tuple[Fraction, ...] | None

    def composed(self) -> tuple[Fraction, ...]:
        total = [Fraction(0)] * 4
        if self.dist_yes is not None:
            for k in range(4):
                total[k] += self.p_yes * self.dist_yes[k]
        if self.dist_no is not None:
            for k in range(4):
                total[k] += (1 - self.p_yes) * self.dist_no[k]
        return tuple(total)


def two_step_distribution(
    config: WittingConfiguration,
    probe: Card,
    basis: int,
    state: QuquartState,
) -> TwoStepBreakdown:
    """Query a state first, then finish the measurement in a tetrad holding it.

    Because the query projector is one of the tetrad's own projectors, the
    composition reproduces the direct measurement distribution exactly.
    """
    _check_tetrad(config, basis)
    b = config.bases[basis]
    if probe not in b.members:
        raise ValueError(f"{probe.label} is not a member of tetrad {b.id}")
    position = b.members.index(probe)
    q = delayed_query(state, config.state_of(probe))
    dist_yes = None
    if q.post_yes is not None:
        dist_yes = tuple(
            Fraction(1) if k == position else Fraction(0) for k in range(4)
        )
    dist_no = (
        one_step_distribution(config, basis, q.post_no)
        if q.post_no is not None
        else None
    )
    return TwoStepBreakdown(position, q.p_yes, dist_yes, dist_no)


# -- the entangled pair under two-step measurement -----------------------------


@dataclass(frozen=True)
class JointState:
    """Unnormalised two-ququart state sum_jk amps[j][k] |j>|k> / sqrt(3)**scale."""

    amps: tuple[Vector, ...]
    scale: int = 0

    @classmethod
    def entangled_pair(cls) -> "JointState":
        one = Eisenstein(1, 0)
        rows = tuple(
            tuple(one if j == k else ZERO for k in range(4)) for j in range(4)
        )
        return cls(rows, 0)

    @property
    def norm_sq(self) -> Fraction:
        return Fraction(
            sum(x.norm_sq() for row in self.amps for x in row), 3**self.scale
        )

    def _project(self, v: Vector, side: str, complement: bool) -> "JointState":
        # Projector v v^dag / 3 applied to one side; complement is 1 - that.
        new = [[ZERO] * 4 for _ in range(4)]
        if side == "alice":
            coef = [scaled_inner(v, col) for col in zip(*self.amps)]
            for j in range(4):
                for k in range(4):
                    new[j][k] = v[j] * coef[k]
        else:
            coef = [scaled_inner(v, row) for row in self.amps]
            for j in range(4):
                for k in range(4):
                    new[j][k] = coef[j] * v[k]
        if complement:
            for j in range(4):
                for k in range(4):
                    new[j][k] = self.amps[j][k] * 3 - new[j][k]
        return JointState(tuple(tuple(row) for row in new), self.scale + 2)

    def measurement_distribution(
        self, alice_vectors: tuple[Vector, ...], bob_vectors: tuple[Vector, ...]
    ) -> JointDistribution:
        """Exact conditional joint distribution in the given product tetrads."""
        norm = self.norm_sq
        if norm == 0:
            raise ValueError("cannot measure a zero branch")
        rows = []
        for va in alice_vectors:
            row = []
            for vb in bob_vectors:
                amp = ZERO
                for j in range(4):
                    cj = va[j].conj()
                    if cj.is_zero():
                        continue
                    for k in range(4):
                        x = self.amps[j][k]
                        if not x.is_zero():
                            amp = amp + cj * vb[k].conj() * x
                row.append(
                    Fraction(amp.norm_sq(), 3 ** (self.scale + 2)) / norm
                )
            rows.append(tuple(row))
        return JointDistribution(tuple(rows))


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
    _check_tetrad(config, alice_basis)
    _check_tetrad(config, bob_basis)
    ab, bb = config.bases[alice_basis], config.bases[bob_basis]
    if alice_probe not in ab.members:
        raise ValueError(f"{alice_probe.label} not in tetrad {ab.id}")
    if bob_probe not in bb.members:
        raise ValueError(f"{bob_probe.label} not in tetrad {bb.id}")
    av = basis_vectors(config, alice_basis)
    bv = basis_vectors(config, bob_basis, conjugated=True)
    pa = config.state_of(alice_probe).vector
    pb = tuple(x.conj() for x in config.state_of(bob_probe).vector)

    start = JointState.entangled_pair()
    total = start.norm_sq
    branches = []
    for alice_branch, alice_no in (("y", False), ("n", True)):
        a_state = start._project(pa, "alice", alice_no)
        for bob_branch, bob_no in (("y", False), ("n", True)):
            state = a_state._project(pb, "bob", bob_no)
            prob = state.norm_sq / total
            cond = (
                state.measurement_distribution(av, bv) if prob != 0 else None
            )
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

    The gate flips the ancilla exactly on the probe's component; for probe
    |3> = |11> that is the permutation swapping |110> and |111>, i.e. the
    Toffoli gate.  Returns a small report of exact matrix identities.
    """

    def query_gate(probe_index: int) -> list[list[int]]:
        # basis order |ququart j, ancilla a> -> index 2j + a
        gate = [[0] * 8 for _ in range(8)]
        for j in range(4):
            for anc in (0, 1):
                source = 2 * j + anc
                target = 2 * j + (anc ^ 1 if j == probe_index else anc)
                gate[target][source] = 1
        return gate

    t3 = query_gate(3)
    # Toffoli on qubits (q1, q0, ancilla) with j = 2*q1 + q0: flips the
    # ancilla exactly when q1 = q0 = 1, i.e. swaps indices 6 and 7.
    toffoli = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    toffoli[6][6] = toffoli[7][7] = 0
    toffoli[6][7] = toffoli[7][6] = 1
    square = [
        [sum(t3[i][k] * t3[k][j] for k in range(8)) for j in range(8)]
        for i in range(8)
    ]
    identity = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    return {
        "is_toffoli": t3 == toffoli,
        "involutive": square == identity,
        "probe0_differs": query_gate(0) != toffoli,
    }
