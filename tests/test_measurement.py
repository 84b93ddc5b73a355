import itertools
from fractions import Fraction
from random import Random

import pytest

from wittingqkd import measurement
from wittingqkd.configuration import Card, WittingConfiguration
from wittingqkd.eisenstein import MAGNITUDE_BOUND, ZERO, Eisenstein
from wittingqkd.measurement import (
    JointDistribution,
    JointState,
    QuquartState,
    TwoStepBranch,
    compose_branch_counts,
    delayed_query,
    intercept_resend_distribution,
    joint_distribution,
    one_step_counts,
    outcome_counts,
    toffoli_report,
    two_step_distribution,
    two_step_joint_branches,
)
from wittingqkd.verify import _check_deferred_measurement, _check_joint_two_step

QUARTER = Fraction(1, 4)


# -- joint distributions -----------------------------------------------------


def test_computational_basis_is_quarter_diagonal(config):
    dist = joint_distribution(config, 0, 0)
    assert dist.is_quarter_diagonal()
    # real vectors: conjugation changes nothing
    assert JointDistribution(_vector_joint(config, 0, 0, bob_conjugated=False)).is_quarter_diagonal()


def _table(*entries):
    """A 4x4 table holding ``entries`` first and zeros after them."""
    flat = [*entries] + [Fraction(0)] * (16 - len(entries))
    return tuple(tuple(flat[i : i + 4]) for i in range(0, 16, 4))


@pytest.mark.parametrize(
    "entries, total",
    [
        ((Fraction(35, 36),), "35/36"),
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)), "13/12"),
        ((), "0"),
        ((Fraction(2),), "2"),
    ],
)
def test_joint_distribution_refuses_a_table_not_summing_to_one(entries, total):
    with pytest.raises(ValueError, match=f"^joint distribution sums to {total}, not 1$"):
        JointDistribution(_table(*entries))


def test_joint_distribution_sums_over_mixed_denominators():
    # 1/2 + 1/3 + 1/7 + 1/42 = 1 over the common denominator 42, on the diagonal.
    diagonal = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 42))
    p = tuple(tuple(x if i == j else Fraction(0) for j in range(4)) for i, x in enumerate(diagonal))
    assert JointDistribution(p).mismatch_probability() == 0


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
    for x, y in zip(s, t, strict=True):
        acc = acc + x * y
    return acc


def _conj(v):
    return tuple(x.conj() for x in v)


def _boxed_tetrad(config, t, conjugated=False):
    # boxed member vectors in announcement order, read off the cards
    vectors = [config.state_of(card).vector for card in config.bases[t].members]
    return [_conj(v) for v in vectors] if conjugated else vectors


def _vector_joint(config, a, b, bob_conjugated=True):
    # amplitude of outcome pair (i, j): half the bilinear product of the vectors
    bv = _boxed_tetrad(config, b, conjugated=bob_conjugated)
    return tuple(
        tuple(Fraction(_plain_dot(x, y).norm_sq(), 36) for y in bv)
        for x in _boxed_tetrad(config, a)
    )


def _alice_eve_leg(config, a, e):
    """9 |<a_i|e_k>|^2 as plain products with Eve's conjugated copies, [i][k]."""
    ev = _boxed_tetrad(config, e, conjugated=True)
    return [[_plain_dot(x, z).norm_sq() for z in ev] for x in _boxed_tetrad(config, a)]


def _eve_bob_leg(config, b, e):
    """9 |<e_k|b_j>|^2 between Eve's resent states and Bob's, [k][j]."""
    bv = _boxed_tetrad(config, b, conjugated=True)
    ev = _boxed_tetrad(config, e, conjugated=True)
    bh = [_conj(y) for y in bv]  # <y|z> is the plain product of conj(y) and z
    return [[_plain_dot(y, z).norm_sq() for y in bh] for z in ev]


def _vector_intercept_resend(p1, p2):
    """The joint over 324 from the two legs, summed over Eve's outcome k."""
    return tuple(
        tuple(Fraction(sum(p1[i][k] * p2[k][j] for k in range(4)), 324) for j in range(4))
        for i in range(4)
    )


def _fractions(block, den):
    return tuple(tuple(Fraction(n, den) for n in row) for row in block.tolist())


def _cross_equal(p, q):
    """Weights a over b equal weights c over d entry by entry: ad = cb."""
    (a, b), (c, d) = p, q
    return len(a) == len(c) and all(x * d == y * b for x, y in zip(a, c))


def _block(counts, den, a, b):
    return counts[a, b].ravel().tolist(), den


QUARTER_DIAGONAL = ([int(x == y) for x in range(4) for y in range(4)], 4)


def test_joint_table_matches_vector_reference(config):
    counts, den = outcome_counts(config)
    for a, b in itertools.product(range(40), repeat=2):
        assert _fractions(counts[a, b], den) == _vector_joint(config, a, b), (a, b)


def test_intercept_resend_table_matches_vector_reference(config):
    # every Eve on the diagonal a == b; every (a, b) under three Eves.  The
    # Alice-Eve leg depends on (a, e) only and the Eve-Bob leg on (b, e)
    # only, so each is computed once per Eve.
    for e in range(40):
        counts, den = outcome_counts(config, e)
        alice = [_alice_eve_leg(config, a, e) for a in range(40)]
        bob = [_eve_bob_leg(config, b, e) for b in range(40)]
        if e in (0, 10, 28):
            pairs = itertools.product(range(40), repeat=2)
        else:
            pairs = zip(range(40), range(40))
        for a, b in pairs:
            assert _fractions(counts[a, b], den) == _vector_intercept_resend(
                alice[a], bob[b]
            ), (a, b, e)


def test_probe_branches_match_joint_state_reference(config):
    # The Z[w] joint-state reference of query-then-measure, for every
    # same-tetrad probe pair, recomposes the shared tetrad's joint exactly.
    counts, den = outcome_counts(config)
    pairs = 0
    for basis in config.bases:
        joint = _block(counts, den, basis.id, basis.id)
        for pa, pb in itertools.product(basis.members, repeat=2):
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            assert _cross_equal(compose_branch_counts(branches), joint), (basis.id, pa, pb)
            pairs += 1
    assert pairs == 640


# -- delayed queries -----------------------------------------------------------


def _weight(state):
    """Squared norm of a post-state times 3**scale, from boxed amplitudes."""
    return sum(Eisenstein(*x).norm_sq() for x in state.amps)


def test_delayed_query_probabilities(config):
    s2 = config.state_of(Card("S", 2))
    same = delayed_query(QuquartState.from_state(s2), s2)
    (yes, no), den = same.query
    assert yes == den and no == 0 and same.post_no is None

    h2 = config.state_of(Card("H", 2))  # orthogonal to S2 (rank-2 tetrad)
    ortho = delayed_query(QuquartState.from_state(h2), s2)
    (yes, no), den = ortho.query
    assert yes == 0 and no == den and ortho.post_yes is None

    d3 = config.state_of(Card("D", 3))  # non-orthogonal to S2
    other = delayed_query(QuquartState.from_state(d3), s2)
    (yes, no), den = other.query
    assert 3 * yes == den and yes + no == den
    assert other.post_yes is not None and other.post_no is not None
    assert other.post_yes.scale == other.post_no.scale
    assert _weight(other.post_yes) + _weight(other.post_no) == 3**other.post_yes.scale


def test_delayed_query_norms_split_the_state(config):
    probe = config.state_of(Card("C", 7))
    for state in config.states[::3]:
        q = delayed_query(QuquartState.from_state(state), probe)
        posts = [p for p in (q.post_yes, q.post_no) if p is not None]
        # each post-state is scaled by two more factors of sqrt(3) than the input
        assert {p.scale for p in posts} == {3}
        assert sum(map(_weight, posts)) == 3**3
        if q.post_yes is not None:
            (yes, _), den = q.query
            assert _weight(q.post_yes) * den == yes * 3**3


@pytest.mark.parametrize("rank, yes_in_thirds", [(1, 0), (2, 1)])
@pytest.mark.parametrize("component", [MAGNITUDE_BOUND // 3, MAGNITUDE_BOUND // 3 + 1])
def test_query_branches_are_held_to_the_magnitude_bound(config, rank, yes_in_thirds, component):
    # amps = component |1>.  Orthogonal to S1 the no branch is 3 amps; against
    # S2 both branches stay within 2 * component, but the boxed 3 * x that the
    # no branch is taken from leaves the bound all the same.
    state = QuquartState(((0, 0), (component, 0), (0, 0), (0, 0)))
    probe = config.state_of(Card("S", rank))
    if 3 * component > MAGNITUDE_BOUND:
        with pytest.raises(OverflowError):
            delayed_query(state, probe)
    else:
        (yes, _), den = delayed_query(state, probe).query
        assert 3 * yes == yes_in_thirds * den


# -- two-step measurement --------------------------------------------------------


def test_two_step_requires_probe_in_basis(config):
    state = QuquartState.from_state(config.states[0])
    with pytest.raises(ValueError):
        two_step_distribution(config, Card("S", 1), 1, state)


# Each call gets a probe from the tetrad the bad id would alias to (-1 is
# tetrad 39, True tetrad 1), so only the id check can reject it.
_REFERENCE_CALLS = {
    "one_step_counts": lambda config, t, probe, state: one_step_counts(config, t, state),
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


def test_warm_caches_keep_the_tetrad_id_checks(config):
    """The shared tetrad table and the query cache are filled by valid ids
    first; the same bad ids are refused afterwards, whatever ran before."""
    state = QuquartState.from_state(config.states[0])
    for call in _REFERENCE_CALLS.values():
        for t in (1, 2, 39):
            call(config, t, config.bases[t].members[0], state)
    for call in _REFERENCE_CALLS.values():
        for tetrad in (True, 2.0, -1, 40):
            probe = config.bases[int(tetrad) % 40].members[0]
            with pytest.raises(ValueError, match="tetrad id"):
                call(config, tetrad, probe, state)


def test_verify_shares_each_reference_sub_result(config):
    """deferred-measurement makes one query per (input, card), 2 x 40, and
    builds the tetrad table once; joint-two-step splits the pair once per
    Alice probe.  A new configuration, as each ``verify`` run builds, shares
    nothing with the last."""
    caches = (measurement._tetrads, measurement._query, measurement._alice_split)
    for cache in caches:
        cache.cache_clear()
    for fresh, configs in ((config, 1), (config, 1), (WittingConfiguration(), 2)):
        _check_deferred_measurement(fresh)
        _check_joint_two_step(fresh)
        misses = [cache.cache_info().misses for cache in caches]
        assert misses == [configs * n for n in (1, 80, 4)], misses
    assert measurement._query.cache_info().hits == 240 * 2 + 320


def test_a_query_past_the_bound_raises_on_every_call(config):
    """An exception is never cached: each repeated call recomputes and raises."""
    state = QuquartState(((0, 0), (MAGNITUDE_BOUND // 3 + 1, 0), (0, 0), (0, 0)))
    size = measurement._query.cache_info().currsize
    for _ in range(3):
        with pytest.raises(OverflowError, match="query branch exceeds"):
            two_step_distribution(config, Card("S", 2), config.bases_of(Card("S", 2))[0], state)
    assert measurement._query.cache_info().currsize == size


def _pairs_tetrad(config, t, conjugated=False):
    return [tuple(x.key() for x in v) for v in _boxed_tetrad(config, t, conjugated)]


def _measure_pair(config, amps):
    # the pair with every row amps, measured in tetrad 0 and its conjugates
    state = JointState((amps,) * 4)
    return state.measurement_counts(_pairs_tetrad(config, 0), _pairs_tetrad(config, 0, True))


_ZERO_STATE_CALLS = {
    "one_step_counts": lambda config, zero: one_step_counts(config, 0, zero),
    "delayed_query": lambda config, zero: delayed_query(zero, config.states[0]),
    "two_step_distribution":
        lambda config, zero: two_step_distribution(config, Card("S", 1), 0, zero),
    "JointState.measurement_counts": lambda config, zero: _measure_pair(config, zero.amps),
}


@pytest.mark.parametrize("call", sorted(_ZERO_STATE_CALLS))
def test_reference_rejects_the_zero_state(config, call):
    zero = QuquartState(((0, 0),) * 4)
    with pytest.raises(ValueError, match="cannot measure the zero state"):
        _ZERO_STATE_CALLS[call](config, zero)


_LENGTH_CALLS = {
    "one_step_counts": lambda config, amps: one_step_counts(config, 0, QuquartState(amps)),
    "delayed_query": lambda config, amps: delayed_query(QuquartState(amps), config.states[0]),
    "JointState.measurement_counts": _measure_pair,
}


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("call", sorted(_LENGTH_CALLS))
def test_reference_rejects_a_vector_of_another_length(config, call, size):
    """A 3- or 5-component vector is an error, not measured as if padded or cut."""
    amps = ((1, 0),) + ((0, 0),) * (size - 1)
    with pytest.raises(ValueError, match=r"zip\(\) argument"):
        _LENGTH_CALLS[call](config, amps)


def test_two_step_recomposes_exactly_for_all_160_pairs(config):
    inputs = [
        QuquartState.from_state(config.states[i]) for i in (0, 13, 26, 39)
    ]
    pairs = 0
    for state in config.states:
        for basis_id in config.bases_of(state.card):
            for phi in inputs:
                breakdown = two_step_distribution(config, state.card, basis_id, phi)
                assert _cross_equal(
                    breakdown.composed_counts(), one_step_counts(config, basis_id, phi)
                )
                # the yes branch, measured in the tetrad, lands on the probe
                position = config.bases[basis_id].members.index(state.card)
                if breakdown.query[0][0] == 0:
                    assert breakdown.branches[0] is None
                else:
                    certain = ([int(k == position) for k in range(4)], 1)
                    assert _cross_equal(breakdown.branches[0], certain)
            pairs += 1
    assert pairs == 160


def test_joint_branches_compose_to_one_step(config):
    counts, den = outcome_counts(config)
    rng = Random(3)
    for _ in range(12):
        ba = config.bases[rng.randrange(40)]
        bb = config.bases[rng.randrange(40)]
        pa = ba.members[rng.randrange(4)]
        pb = bb.members[rng.randrange(4)]
        branches = two_step_joint_branches(config, pa, ba.id, pb, bb.id)
        assert _cross_equal(compose_branch_counts(branches), _block(counts, den, ba.id, bb.id))


def test_joint_branches_same_basis_give_quarter_identity(config):
    basis = config.bases[4]
    for pa in basis.members:
        for pb in basis.members:
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            assert _cross_equal(compose_branch_counts(branches), QUARTER_DIAGONAL)


# -- the query gate ----------------------------------------------------------------


def test_toffoli_report():
    report = toffoli_report()
    assert report == {
        "is_toffoli": True,
        "involutive": True,
        "probe0_differs": True,
    }


def test_recomposition_rejects_a_branch_of_another_length():
    """A branch with 12 weights is an error, not mixed into a 12-entry prefix."""
    full = TwoStepBranch("yy", 1, 2, ((1,) * 16, 16))
    short = TwoStepBranch("nn", 1, 2, ((1,) * 12, 12))
    with pytest.raises(ValueError):
        compose_branch_counts((full, short))
