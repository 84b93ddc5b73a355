import itertools
from fractions import Fraction
from random import Random

import pytest

from wittingqkd.configuration import Card, scaled_inner
from wittingqkd.eisenstein import MAGNITUDE_BOUND, ZERO
from wittingqkd.measurement import (
    JointDistribution,
    JointState,
    QuquartState,
    TwoStepBranch,
    basis_vectors,
    compose_branch_counts,
    compose_branches,
    delayed_query,
    intercept_resend_distribution,
    joint_distribution,
    one_step_distribution,
    outcome_counts,
    toffoli_report,
    two_step_distribution,
    two_step_joint_branches,
)

QUARTER = Fraction(1, 4)


# -- joint distributions -----------------------------------------------------


def test_computational_basis_is_quarter_diagonal(config):
    dist = joint_distribution(config, 0, 0)
    assert dist.is_quarter_diagonal()
    # real vectors: conjugation changes nothing
    assert JointDistribution(_vector_joint(config, 0, 0, bob_conjugated=False)).is_quarter_diagonal()


def test_conjugate_coordination_all_forty(config):
    for basis in config.bases:
        assert joint_distribution(config, basis.id, basis.id).is_quarter_diagonal()


def test_unconjugated_complex_basis_breaks_coordination(config):
    # basis 2 (rank-3 tetrad) has complex members; skipping conjugation must
    # destroy the perfect correlation.
    unconjugated = _vector_joint(config, 2, 2, bob_conjugated=False)
    assert not JointDistribution(unconjugated).is_quarter_diagonal()


def test_mismatched_bases_uniform_marginals(config):
    shared_entry = Fraction(1, 4)
    small_entry = Fraction(1, 12)
    quarter = (QUARTER,) * 4
    for a, b in itertools.combinations(range(40), 2):
        dist = joint_distribution(config, a, b)
        assert tuple(map(sum, dist.p)) == quarter
        assert tuple(map(sum, zip(*dist.p))) == quarter
        values = {x for row in dist.p for x in row}
        members_a = set(config.bases[a].members)
        members_b = set(config.bases[b].members)
        if members_a & members_b:
            # two distinct tetrads share at most one state; its outcome pair
            # carries probability 1/4
            assert values <= {Fraction(0), small_entry, shared_entry}
            assert shared_entry in values
        else:
            assert values <= {Fraction(0), small_entry}


def test_shared_member_count(config):
    sharing = sum(
        1
        for a, b in itertools.combinations(range(40), 2)
        if set(config.bases[a].members) & set(config.bases[b].members)
    )
    # 40 states, each in 4 tetrads: C(4,2) sharing pairs per state
    assert sharing == 240


# -- intercept-resend ----------------------------------------------------------


def test_eve_invisible_when_everything_computational(config):
    assert intercept_resend_distribution(config, 0, 0, 0).is_quarter_diagonal()


def test_eve_on_computational_vs_rank_tetrads(config):
    for rank_basis in range(1, 10):
        dist = intercept_resend_distribution(config, rank_basis, rank_basis, 0)
        assert dist.mismatch_probability() == Fraction(2, 3)


def test_eve_matching_alice_basis_is_invisible(config):
    for basis_id in (0, 1, 17, 33):
        dist = intercept_resend_distribution(config, basis_id, basis_id, basis_id)
        assert dist.mismatch_probability() == 0
        assert dist.is_quarter_diagonal()


def test_eve_detectability_on_all_conjugate_pairs(config):
    # any non-computational tetrad leaks mismatches when Eve measures
    # computationally
    for basis_id in range(1, 40):
        dist = intercept_resend_distribution(config, basis_id, basis_id, 0)
        assert dist.mismatch_probability() > 0


def test_eve_average_mismatch_by_class(config):
    # exact per-class values: 2/3 when no member is an axis state, 1/2 for
    # mono-suit tetrads (which contain their suit's ace)
    for basis in config.bases:
        dist = intercept_resend_distribution(config, basis.id, basis.id, 0)
        if basis.id == 0:
            expected = Fraction(0)
        elif basis.tag == "mono-suit":
            expected = Fraction(1, 2)
        else:
            expected = Fraction(2, 3)
        assert dist.mismatch_probability() == expected


# -- the transition table against the Z[w] vector reference ----------------------


def _plain_dot(s, t):
    acc = ZERO
    for x, y in zip(s, t):
        acc = acc + x * y
    return acc


def _vector_joint(config, a, b, bob_conjugated=True):
    # amplitude of outcome pair (i, j): half the bilinear product of the vectors
    bv = basis_vectors(config, b, conjugated=bob_conjugated)
    return tuple(
        tuple(Fraction(_plain_dot(x, y).norm_sq(), 36) for y in bv)
        for x in basis_vectors(config, a)
    )


def _vector_intercept_resend(config, a, b, e):
    bv = basis_vectors(config, b, conjugated=True)
    ev = basis_vectors(config, e, conjugated=True)
    p1 = [[_plain_dot(x, z).norm_sq() for z in ev] for x in basis_vectors(config, a)]
    p2 = [[scaled_inner(y, z).norm_sq() for y in bv] for z in ev]
    return tuple(
        tuple(Fraction(sum(p1[i][k] * p2[k][j] for k in range(4)), 324) for j in range(4))
        for i in range(4)
    )


def _fractions(block, den):
    return tuple(tuple(Fraction(n, den) for n in row) for row in block.tolist())


def test_joint_table_matches_vector_reference(config):
    counts, den = outcome_counts(config)
    for a, b in itertools.product(range(40), repeat=2):
        assert _fractions(counts[a, b], den) == _vector_joint(config, a, b), (a, b)


def test_intercept_resend_table_matches_vector_reference(config):
    # every Eve on the diagonal a == b; every (a, b) under three Eves
    for e in range(40):
        counts, den = outcome_counts(config, e)
        if e in (0, 10, 28):
            pairs = itertools.product(range(40), repeat=2)
        else:
            pairs = zip(range(40), range(40))
        for a, b in pairs:
            assert _fractions(counts[a, b], den) == _vector_intercept_resend(
                config, a, b, e
            ), (a, b, e)


def test_probe_branches_match_joint_state_reference(config):
    # The Z[w] joint-state reference of query-then-measure, for every
    # same-tetrad probe pair, recomposes the shared tetrad's joint exactly.
    pairs = 0
    for basis in config.bases:
        joint = joint_distribution(config, basis.id, basis.id)
        for pa, pb in itertools.product(basis.members, repeat=2):
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            assert compose_branches(branches).p == joint.p, (basis.id, pa, pb)
            pairs += 1
    assert pairs == 640


# -- delayed queries -----------------------------------------------------------


def test_delayed_query_probabilities(config):
    s2 = config.state_of(Card("S", 2))
    same = delayed_query(QuquartState.from_state(s2), s2)
    assert same.p_yes == 1 and same.post_no is None

    h2 = config.state_of(Card("H", 2))  # orthogonal to S2 (rank-2 tetrad)
    ortho = delayed_query(QuquartState.from_state(h2), s2)
    assert ortho.p_yes == 0 and ortho.post_yes is None

    d3 = config.state_of(Card("D", 3))  # non-orthogonal to S2
    other = delayed_query(QuquartState.from_state(d3), s2)
    assert other.p_yes == Fraction(1, 3)
    assert other.post_yes is not None and other.post_no is not None
    assert other.post_yes.norm_sq + other.post_no.norm_sq == 1


def test_delayed_query_norms_split_the_state(config):
    probe = config.state_of(Card("C", 7))
    for state in config.states[::3]:
        q = delayed_query(QuquartState.from_state(state), probe)
        total = Fraction(0)
        if q.post_yes is not None:
            total += q.post_yes.norm_sq
        if q.post_no is not None:
            total += q.post_no.norm_sq
        assert total == 1
        if q.post_yes is not None:
            assert q.post_yes.norm_sq == q.p_yes


@pytest.mark.parametrize("rank, p_yes", [(1, 0), (2, Fraction(1, 3))])
@pytest.mark.parametrize("component", [MAGNITUDE_BOUND // 3, MAGNITUDE_BOUND // 3 + 1])
def test_query_branches_are_held_to_the_magnitude_bound(config, rank, p_yes, component):
    # amps = component |1>.  Orthogonal to S1 the no branch is 3 amps; against
    # S2 both branches stay within 2 * component, but the boxed 3 * x that the
    # no branch is taken from leaves the bound all the same.
    state = QuquartState(((0, 0), (component, 0), (0, 0), (0, 0)))
    probe = config.state_of(Card("S", rank))
    if 3 * component > MAGNITUDE_BOUND:
        with pytest.raises(OverflowError):
            delayed_query(state, probe)
    else:
        assert delayed_query(state, probe).p_yes == p_yes


# -- two-step measurement --------------------------------------------------------


def test_two_step_requires_probe_in_basis(config):
    state = QuquartState.from_state(config.states[0])
    with pytest.raises(ValueError):
        two_step_distribution(config, Card("S", 1), 1, state)


# Each call gets a probe from the tetrad the bad id would alias to (-1 is
# tetrad 39, True tetrad 1), so only the id check can reject it.
_REFERENCE_CALLS = {
    "basis_vectors": lambda config, t, probe, state: basis_vectors(config, t),
    "one_step_distribution":
        lambda config, t, probe, state: one_step_distribution(config, t, state),
    "two_step_distribution":
        lambda config, t, probe, state: two_step_distribution(config, probe, t, state),
    # tetrad 0 holds S1
    "two_step_joint_branches:alice":
        lambda config, t, probe, state: two_step_joint_branches(
            config, probe, t, Card("S", 1), 0
        ),
    "two_step_joint_branches:bob":
        lambda config, t, probe, state: two_step_joint_branches(
            config, Card("S", 1), 0, probe, t
        ),
}


@pytest.mark.parametrize("tetrad", [-1, 40, True, 2.0])
@pytest.mark.parametrize("call", sorted(_REFERENCE_CALLS))
def test_reference_rejects_bad_tetrad_ids(config, call, tetrad):
    probe = config.bases[int(tetrad) % 40].members[0]
    state = QuquartState.from_state(config.states[0])
    with pytest.raises(ValueError, match="tetrad id"):
        _REFERENCE_CALLS[call](config, tetrad, probe, state)


_ZERO_STATE_CALLS = {
    "one_step_distribution": lambda config, zero: one_step_distribution(config, 0, zero),
    "delayed_query": lambda config, zero: delayed_query(zero, config.states[0]),
    "two_step_distribution":
        lambda config, zero: two_step_distribution(config, Card("S", 1), 0, zero),
    "JointState.measurement_distribution":
        lambda config, zero: JointState((zero.amps,) * 4).measurement_distribution(
            basis_vectors(config, 0), basis_vectors(config, 0, conjugated=True)
        ),
}


@pytest.mark.parametrize("call", sorted(_ZERO_STATE_CALLS))
def test_reference_rejects_the_zero_state(config, call):
    zero = QuquartState((ZERO,) * 4)
    with pytest.raises(ValueError, match="cannot measure the zero state"):
        _ZERO_STATE_CALLS[call](config, zero)


def test_two_step_recomposes_exactly_for_all_160_pairs(config):
    inputs = [
        QuquartState.from_state(config.states[i]) for i in (0, 13, 26, 39)
    ]
    pairs = 0
    for state in config.states:
        for basis_id in config.bases_of(state.card):
            for phi in inputs:
                breakdown = two_step_distribution(config, state.card, basis_id, phi)
                assert breakdown.composed() == one_step_distribution(
                    config, basis_id, phi
                )
                # the yes branch, measured in the tetrad, lands on the probe
                position = config.bases[basis_id].members.index(state.card)
                if breakdown.p_yes == 0:
                    assert breakdown.dist_yes is None
                else:
                    assert breakdown.dist_yes == tuple(int(k == position) for k in range(4))
            pairs += 1
    assert pairs == 160


def test_joint_branches_compose_to_one_step(config):
    rng = Random(3)
    for _ in range(12):
        ba = config.bases[rng.randrange(40)]
        bb = config.bases[rng.randrange(40)]
        pa = ba.members[rng.randrange(4)]
        pb = bb.members[rng.randrange(4)]
        branches = two_step_joint_branches(config, pa, ba.id, pb, bb.id)
        assert compose_branches(branches).p == joint_distribution(
            config, ba.id, bb.id
        ).p


def test_joint_branches_same_basis_give_quarter_identity(config):
    basis = config.bases[4]
    for pa in basis.members:
        for pb in basis.members:
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            assert compose_branches(branches).is_quarter_diagonal()


# -- the query gate ----------------------------------------------------------------


def test_toffoli_report():
    report = toffoli_report()
    assert report == {
        "is_toffoli": True,
        "involutive": True,
        "probe0_differs": True,
    }


def test_fraction_views_read_the_integer_recomposition(config):
    """composed() and compose_branches give the one integer recomposition,
    weights over one denominator, as Fractions."""
    state = QuquartState.from_state(config.states[17])
    for card in config.bases[5].members:
        breakdown = two_step_distribution(config, card, 5, state)
        weights, den = breakdown.composed_counts()
        assert breakdown.composed() == tuple(Fraction(n, den) for n in weights)
        assert breakdown.composed() == one_step_distribution(config, 5, state)
    members = config.bases[7].members
    branches = two_step_joint_branches(config, members[0], 7, members[1], 7)
    weights, den = compose_branch_counts(branches)
    rows = [weights[i : i + 4] for i in range(0, 16, 4)]
    assert compose_branches(branches).p == tuple(
        tuple(Fraction(n, den) for n in row) for row in rows
    )


def test_recomposition_rejects_a_branch_of_another_length():
    """A branch with 12 weights is an error, not mixed into a 12-entry prefix."""
    full = TwoStepBranch("yy", 1, 2, ((1,) * 16, 16))
    short = TwoStepBranch("nn", 1, 2, ((1,) * 12, 12))
    with pytest.raises(ValueError):
        compose_branch_counts((full, short))
