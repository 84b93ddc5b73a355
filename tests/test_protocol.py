import math
from fractions import Fraction

import pytest

from wittingqkd.protocol import (
    AgreementError,
    DEFAULT_SEED,
    PartyPolicy,
    agreement_report,
    announcement_leakage_free,
    run_key_agreement,
    run_naive_session,
    run_session,
    run_two_step_session,
    transcript_csv_rows,
)


def three_sigma(p: float, n: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / n)


UA = PartyPolicy("uniform", 101)
UB = PartyPolicy("uniform", 202)


# -- naive protocol -----------------------------------------------------------


def test_naive_sift_rate(config):
    n = 100_000
    tr = run_naive_session(config, n, UA, UB, seed=9)
    assert abs(float(tr.sift_rate) - 1 / 40) <= three_sigma(1 / 40, n)


def test_naive_no_eve_always_matches(config):
    tr = run_naive_session(config, 50_000, UA, UB, seed=10)
    assert tr.n_matched == tr.n_sifted
    assert tr.match_rate_within_sifted == 1


def test_agreed_policy_sifts_every_round(config):
    policy = PartyPolicy("agreed", 77)
    tr = run_naive_session(config, 2_000, policy, policy, seed=1)
    assert tr.sift_rate == 1
    assert tr.n_matched == 2_000


def test_agreed_policy_needs_equal_seeds(config):
    tr = run_naive_session(
        config, 2_000, PartyPolicy("agreed", 1), PartyPolicy("agreed", 2), seed=1
    )
    assert tr.sift_rate < 1


def test_correlated_policy_boosts_sifting(config):
    w = Fraction(9, 10)
    pa = PartyPolicy("correlated", 55, weight=w)
    pb = PartyPolicy("correlated", 55, weight=w)
    n = 40_000
    tr = run_naive_session(config, n, pa, pb, seed=2)
    expected = float(w * w + (1 - w * w) / 40)
    assert abs(float(tr.sift_rate) - expected) <= three_sigma(expected, n)
    assert tr.n_matched == tr.n_sifted


def test_fixed_policy_forces_basis(config):
    for basis_id in (0, 7, 31):
        pa = PartyPolicy("fixed", choice=basis_id)
        pb = PartyPolicy("fixed", choice=basis_id)
        tr = run_naive_session(config, 500, pa, pb, seed=3)
        assert tr.sift_rate == 1
        assert tr.n_matched == 500


def test_eve_generates_mismatches(config):
    tr = run_naive_session(config, 60_000, UA, UB, eve_basis=0, seed=4)
    assert tr.n_mismatched > 0
    # exact expected mismatch within sifted rounds: average over the 40
    # tetrads of (0, 2/3, 2/3, 1/2) by class = 3/5
    rate = tr.n_mismatched / tr.n_sifted
    assert abs(rate - 0.6) <= 3 * math.sqrt(0.6 * 0.4 / tr.n_sifted)


def test_eve_mismatch_on_forced_rank_tetrad(config):
    pa = PartyPolicy("fixed", choice=2)
    pb = PartyPolicy("fixed", choice=2)
    n = 30_000
    tr = run_naive_session(config, n, pa, pb, eve_basis=0, seed=5)
    rate = tr.n_mismatched / n
    assert abs(rate - 2 / 3) <= three_sigma(2 / 3, n)


# -- two-step protocol ---------------------------------------------------------


def test_two_step_rates(config):
    n = 200_000
    tr = run_two_step_session(config, n, UA, UB, seed=6)
    same_basis = float(tr.extras["sameBasisRate"])
    both = float(tr.extras["sameStateAndBasisRate"])
    same_state = float(tr.extras["sameStateRate"])
    assert abs(same_basis - 1 / 40) <= three_sigma(1 / 40, n)
    assert abs(both - 1 / 160) <= three_sigma(1 / 160, n)
    assert abs(same_state - 1 / 40) <= three_sigma(1 / 40, n)
    assert tr.sift_rate == tr.extras["sameBasisRate"]


def test_two_step_all_sifted_rounds_match(config):
    tr = run_two_step_session(config, 100_000, UA, UB, seed=7)
    assert tr.n_matched == tr.n_sifted > 0


# -- key agreement ---------------------------------------------------------------


def test_key_agreement_rates(config):
    n = 200_000
    tr = run_key_agreement(config, n, UA, UB, seed=8)
    assert abs(float(tr.sift_rate) - 13 / 40) <= three_sigma(13 / 40, n)
    assert abs(float(tr.extras["sameStateRate"]) - 1 / 40) <= three_sigma(1 / 40, n)
    assert abs(
        float(tr.extras["distinctOrthogonalRate"]) - 12 / 40
    ) <= three_sigma(12 / 40, n)
    assert tr.extras["sameStateRate"] + tr.extras["distinctOrthogonalRate"] == tr.sift_rate
    assert tr.n_matched == tr.n_sifted


# -- transcripts and determinism ---------------------------------------------------


def test_sessions_are_deterministic(config):
    a = run_naive_session(config, 5_000, UA, UB, seed=77, keep_rounds=True)
    b = run_naive_session(config, 5_000, UA, UB, seed=77, keep_rounds=True)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.round_records == b.round_records
    assert a.messages == b.messages
    c = run_naive_session(config, 5_000, UA, UB, seed=78)
    assert c.key_bits != a.key_bits


def test_keep_rounds_does_not_change_outcomes(config):
    a = run_two_step_session(config, 3_000, UA, UB, seed=12, keep_rounds=True)
    b = run_two_step_session(config, 3_000, UA, UB, seed=12, keep_rounds=False)
    assert a.key_bits == b.key_bits
    assert a.n_sifted == b.n_sifted
    assert b.round_records is None


def test_round_records_consistency(config):
    tr = run_key_agreement(config, 4_000, UA, UB, seed=13, keep_rounds=True)
    assert tr.round_records is not None
    sifted = 0
    for r in tr.round_records:
        assert r.matched <= r.sifted  # matched implies sifted
        if r.sifted:
            sifted += 1
            assert r.alice_outcome is not None
        else:
            assert r.alice_outcome is None  # no completed measurement
    assert sifted == tr.n_sifted


def test_key_bits_come_from_sifted_rounds(config):
    tr = run_naive_session(config, 3_000, UA, UB, seed=14, keep_rounds=True)
    outcomes = [r.alice_outcome for r in tr.round_records if r.sifted]
    bits = "".join(format(o, "02b") for o in outcomes)
    bits += "0" * (-len(bits) % 8)
    assert tr.key_bits == bytes(
        int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)
    )


def test_csv_rows(config):
    tr = run_naive_session(config, 50, UA, UB, seed=15, keep_rounds=True)
    rows = transcript_csv_rows(tr)
    assert rows[0][0] == "round"
    assert len(rows) == 51
    with pytest.raises(ValueError):
        transcript_csv_rows(run_naive_session(config, 50, UA, UB, seed=15))


def test_channel_messages_logged(config):
    tr = run_key_agreement(config, 10, UA, UB, seed=16, keep_rounds=True)
    assert len(tr.messages) == 20
    assert {m.kind for m in tr.messages} == {"state"}
    tr2 = run_naive_session(config, 10, UA, UB, seed=16, keep_rounds=True)
    assert {m.kind for m in tr2.messages} == {"basis"}


# -- agreement check and leakage ----------------------------------------------------


def test_agreement_report_clean(config):
    report = agreement_report(config, 3_000, seed=20)
    assert set(report) == {"naive", "two-step", "key-agreement"}
    assert all(v["mismatches"] == 0 for v in report.values())


def test_agreement_report_vacuous_on_zero_rounds(config):
    assert agreement_report(config, 0) == {}


def test_agreement_report_detects_eve(config):
    report = agreement_report(config, 6_000, seed=21, eve_basis=0)
    assert report["naive"]["mismatches"] > 0


def test_agreement_error_raised_on_forged_mismatch(config, monkeypatch):
    # sanity-check the failure path by corrupting the naive sampler
    import wittingqkd.protocol as protocol_mod

    real = protocol_mod.run_naive_session

    def corrupted(*args, **kwargs):
        tr = real(*args, **kwargs)
        tr.n_matched = max(0, tr.n_matched - 1)
        return tr

    monkeypatch.setattr(protocol_mod, "run_naive_session", corrupted)
    with pytest.raises(AgreementError):
        protocol_mod.agreement_report(config, 2_000, seed=22)


def test_announcements_leak_nothing(config):
    assert announcement_leakage_free(config)


# -- dispatch ------------------------------------------------------------------------


def test_run_session_dispatch(config):
    tr = run_session(config, "naive", 100, UA, UB, seed=30)
    assert tr.protocol == "naive"
    with pytest.raises(ValueError):
        run_session(config, "two-step", 100, UA, UB, eve_basis=0, seed=30)
    with pytest.raises(ValueError):
        run_session(config, "key-agreement", 100, UA, UB, eve_basis=0, seed=30)
    with pytest.raises(ValueError):
        run_session(config, "telepathy", 100, UA, UB, seed=30)


def test_policy_validation():
    with pytest.raises(ValueError):
        PartyPolicy("fixed")
    with pytest.raises(ValueError):
        PartyPolicy("nonsense")
    with pytest.raises(ValueError):
        PartyPolicy("correlated", weight=Fraction(3, 2))
    assert PartyPolicy.parse("correlated:0.8", 5).weight == Fraction(4, 5)
    assert PartyPolicy.parse("agreed", 5).mode == "agreed"
    with pytest.raises(ValueError):
        PartyPolicy.parse("unknown", 5)
    assert PartyPolicy().seed == DEFAULT_SEED


@pytest.mark.parametrize(
    "text",
    ["correlated:1/0", "correlated:0/0", "correlated:abc", "correlated:",
     "correlated:3", "correlated:-1/2", "correlated:1/2/3", "sometimes"],
)
def test_policy_parse_rejects_malformed_weight_with_value_error(text):
    with pytest.raises(ValueError):
        PartyPolicy.parse(text, 5)
