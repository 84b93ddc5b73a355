"""Acceptance suite: every headline quantitative claim, at its stated tolerance.

Each criterion is one test that prints an ``ACCEPTANCE n PASS/FAIL`` line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
Exact claims are asserted with exact rationals; statistical claims use a
3-sigma binomial tolerance at the stated round counts and fixed seeds.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

from wittingqkd.configuration import Card
from wittingqkd.marking import ALL_SPADES, MAX_SCORE_EXAMPLE, N_MARKINGS, score_marking
from wittingqkd.measurement import (
    QuquartState,
    intercept_resend_distribution,
    joint_distribution,
    one_step_counts,
    two_step_distribution,
)
from wittingqkd.protocol import (
    PartyPolicy,
    run_key_agreement,
    run_naive_session,
    run_two_step_session,
)
from wittingqkd.symmetry import orbit_of_first_basis_state


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def three_sigma(p: float, n: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / n)


def test_criterion_01_configuration_counts(config):
    with criterion(1, "40 states, 240 vertices, 12-regular graph, 40 tetrads, 4 per state, < 1 s"):
        t0 = time.perf_counter()
        from wittingqkd import WittingConfiguration

        fresh = WittingConfiguration()
        assert len(fresh.states) == 40
        assert len(fresh.expand_vertices()) == 240
        assert all(len(a) == 12 for a in fresh.adjacency)
        assert len(fresh.bases) == 40
        assert all(len(fresh.bases_of(s.card)) == 4 for s in fresh.states)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_transition_spectrum(config):
    with criterion(2, "all 780 pairs have |<a|b>|^2 in {0, 1/3} exactly; diagonal 1"):
        third = Fraction(1, 3)
        pairs = 0
        for s, t in itertools.combinations(config.states, 2):
            assert config.transition_prob(s, t) in (0, third)
            pairs += 1
        assert pairs == 780
        assert all(config.transition_prob(s, s) == 1 for s in config.states)


def test_criterion_03_basis_structure(config):
    with criterion(3, "10 rank tetrads, 28 one-per-suit tetrads total, 12 mono-suit"):
        tags = [b.tag for b in config.bases]
        assert tags.count("rank-tetrad") == 10
        assert tags.count("mono-suit") == 12
        one_per_suit = sum(
            1 for b in config.bases if len({c.suit for c in b.members}) == 4
        )
        assert one_per_suit == 28


def test_criterion_04_mub_embedding(config):
    with criterion(4, "each zero-coordinate slice: 4 triads, cross-triad probability exactly 1/3"):
        third = Fraction(1, 3)
        for k in range(4):
            triads = config.mub_triads(k)
            assert len(triads) == 4
            for t1, t2 in itertools.combinations(triads, 2):
                for a in t1:
                    for b in t2:
                        assert config.transition_prob(a, b) == third


def test_criterion_05_symmetry_group(config, group):
    with criterion(5, "closure terminates; orders 51840 / 25920 (mod +-1 and mod units); orbit 40; < 60 s"):
        t0 = time.perf_counter()
        from wittingqkd.symmetry import generate_group

        fresh = generate_group(config)
        elapsed = time.perf_counter() - t0
        orders = {
            fresh.raw_order,
            fresh.order_mod_pm1,
            fresh.projective_order,
        }
        assert fresh.raw_order == 51840
        assert 25920 in orders
        assert fresh.order_mod_pm1 == 25920 and fresh.projective_order == 25920
        assert len(orbit_of_first_basis_state(config, fresh)) == 40
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_conjugate_coordination(config):
    with criterion(6, "joint distribution exactly (1/4)I for all 40 conjugate-coordinated tetrads"):
        for basis in config.bases:
            assert joint_distribution(config, basis.id, basis.id).is_quarter_diagonal()


def test_criterion_07_classical_scan(config):
    with criterion(7, "no perfect marking; max 34 at 720; mean in [0.56,0.58]; tails under 4% / 0.07%; < 2 min"):
        t0 = time.perf_counter()
        from wittingqkd.marking import exhaustive_scan

        result = exhaustive_scan(config)
        elapsed = time.perf_counter() - t0
        assert result.exists_perfect is False
        assert result.max_correct == 34
        assert result.count_at_max == 720
        assert Fraction(56, 100) <= result.mean_correct_fraction <= Fraction(58, 100)
        assert result.frac_above_28 < Fraction(4, 100)
        assert Fraction(720, N_MARKINGS) < Fraction(7, 10000)
        assert result.frac_at_max == Fraction(720, N_MARKINGS)
        assert score_marking(config, ALL_SPADES).correct == 28
        example = score_marking(config, MAX_SCORE_EXAMPLE)
        assert (example.correct, example.double_marked, example.unmarked) == (34, 3, 3)
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_08_protocol_rates(config):
    with criterion(8, "sift rates: naive 1/40 @ 1e5; two-step 1/40 & 1/160 @ 1e6; key agreement 13/40 (1/40 + 12/40) @ 1e6; 3 sigma"):
        pa = PartyPolicy("uniform", 1001)
        pb = PartyPolicy("uniform", 2002)

        t0 = time.perf_counter()
        naive = run_naive_session(config, 100_000, pa, pb, seed=41)
        t_naive = time.perf_counter() - t0
        assert abs(float(naive.sift_rate) - 1 / 40) <= three_sigma(1 / 40, 100_000)
        assert t_naive < 60.0, f"naive took {t_naive:.1f}s"

        t0 = time.perf_counter()
        two_step = run_two_step_session(config, 1_000_000, pa, pb, seed=42)
        t_two = time.perf_counter() - t0
        assert abs(
            float(two_step.extras["sameBasisRate"]) - 1 / 40
        ) <= three_sigma(1 / 40, 1_000_000)
        assert abs(
            float(two_step.extras["sameStateAndBasisRate"]) - 1 / 160
        ) <= three_sigma(1 / 160, 1_000_000)
        assert t_two < 60.0, f"two-step took {t_two:.1f}s"

        t0 = time.perf_counter()
        agreement = run_key_agreement(config, 1_000_000, pa, pb, seed=43)
        t_ka = time.perf_counter() - t0
        assert abs(float(agreement.sift_rate) - 13 / 40) <= three_sigma(13 / 40, 1_000_000)
        assert abs(
            float(agreement.extras["sameStateRate"]) - 1 / 40
        ) <= three_sigma(1 / 40, 1_000_000)
        assert abs(
            float(agreement.extras["distinctOrthogonalRate"]) - 12 / 40
        ) <= three_sigma(12 / 40, 1_000_000)
        assert t_ka < 60.0, f"key agreement took {t_ka:.1f}s"


def test_criterion_09_correlation_and_eve_detection(config):
    with criterion(9, "forced-tetrad rounds always match for all 40 tetrads; computational Eve: exact 2/3 mismatch on rank tetrads, confirmed by sampling"):
        # exhaustive: every tetrad, forced choices, no attacker, zero mismatches
        for basis_id in range(40):
            policy = PartyPolicy("fixed", choice=basis_id)
            tr = run_naive_session(config, 250, policy, policy, seed=500 + basis_id)
            assert tr.n_sifted == 250
            assert tr.n_mismatched == 0

        # exact 2/3 on every non-computational rank tetrad, then by sampling
        n = 20_000
        for rank_basis in range(1, 10):
            dist = intercept_resend_distribution(config, rank_basis, rank_basis, 0)
            assert dist.mismatch_probability() == Fraction(2, 3)
            policy = PartyPolicy("fixed", choice=rank_basis)
            tr = run_naive_session(
                config, n, policy, policy, eve_basis=0, seed=700 + rank_basis
            )
            rate = tr.n_mismatched / n
            assert abs(rate - 2 / 3) <= three_sigma(2 / 3, n)


def test_criterion_10_deferred_measurement(config):
    with criterion(10, "two-step branch probabilities recompose exactly to one-step for all 160 (state, tetrad) pairs"):
        inputs = [QuquartState.from_state(config.states[i]) for i in (0, 11, 22, 33)]
        pairs = 0
        for state in config.states:
            for basis_id in config.bases_of(state.card):
                for phi in inputs:
                    breakdown = two_step_distribution(
                        config, state.card, basis_id, phi
                    )
                    # weights a over b equal c over d exactly when ad = cb
                    (a, b), (c, d) = breakdown.composed_counts(), one_step_counts(
                        config, basis_id, phi
                    )
                    assert len(a) == len(c) == 4
                    assert all(x * d == y * b for x, y in zip(a, c))
                pairs += 1
        assert pairs == 160
