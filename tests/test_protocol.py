import csv
import hashlib
import io
import itertools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import wittingqkd.protocol as protocol_mod
from wittingqkd import WittingConfiguration
from wittingqkd.cli import main
from wittingqkd.eisenstein import Eisenstein
from wittingqkd.measurement import (
    compose_branch_counts,
    intercept_resend_distribution,
    joint_distribution,
    outcome_counts,
    two_step_joint_branches,
)
from wittingqkd.protocol import (
    BLOCK_ROUNDS,
    DEFAULT_SEED,
    TRANSCRIPT_HEADER,
    TRANSCRIPT_SLICE_ROWS,
    PartyPolicy,
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


def _choices(run, config, rounds, policy, seed):
    blocks = []
    tr = run(config, rounds, policy, policy, seed=seed, on_block=blocks.append)
    return tr, [np.concatenate([b.alice_choice[0] for b in blocks]),
                np.concatenate([b.bob_choice[0] for b in blocks])]


def test_weight_one_replays_agreed_choices_across_blocks(config):
    # Weight 1 tosses a coin of bound 1, which always takes the shared stream.
    rounds = BLOCK_ROUNDS + 100
    tr, choices = _choices(run_key_agreement, config, rounds, PartyPolicy.parse("correlated:1", 23), 5)
    _, agreed = _choices(run_key_agreement, config, rounds, PartyPolicy("agreed", 23), 5)
    for own, shared in zip(choices, agreed):
        assert (own == shared).all()
    assert tr.n_sifted == tr.n_matched == rounds


def test_weight_zero_never_takes_the_shared_stream(config):
    rounds = BLOCK_ROUNDS + 100
    tr, choices = _choices(run_naive_session, config, rounds, PartyPolicy.parse("correlated:0", 23), 5)
    _, uniform = _choices(run_naive_session, config, BLOCK_ROUNDS, PartyPolicy("uniform", 23), 5)
    _, agreed = _choices(run_naive_session, config, rounds, PartyPolicy("agreed", 23), 5)
    for own, first, shared in zip(choices, uniform, agreed):
        # each block draws the own choices first, then the shared ones and the coins
        assert (own[:BLOCK_ROUNDS] == first).all()
        assert (own != shared).mean() > 0.9
    assert tr.n_matched == tr.n_sifted < rounds / 20


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


def run_with_csv(run, *args, **kwargs):
    """Run a session writing its CSV transcript block by block, as the CLI does."""
    out = io.StringIO()
    tr = run(*args, on_block=lambda block: transcript_csv_rows(block, out.write), **kwargs)
    return tr, out.getvalue()


def csv_records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_sessions_are_deterministic(config):
    a, text_a = run_with_csv(run_naive_session, config, 5_000, UA, UB, seed=77)
    b, text_b = run_with_csv(run_naive_session, config, 5_000, UA, UB, seed=77)
    assert a.to_json_dict() == b.to_json_dict()
    assert text_a == text_b
    c = run_naive_session(config, 5_000, UA, UB, seed=78)
    assert c.key_bits != a.key_bits


def test_keep_rounds_does_not_change_outcomes(config):
    a, text = run_with_csv(run_two_step_session, config, 3_000, UA, UB, seed=12)
    b = run_two_step_session(config, 3_000, UA, UB, seed=12)
    assert a.key_bits == b.key_bits
    assert a.n_sifted == b.n_sifted
    assert sum(int(r["sifted"]) for r in csv_records(text)) == b.n_sifted


def test_round_records_consistency(config):
    tr, text = run_with_csv(run_key_agreement, config, 4_000, UA, UB, seed=13)
    records = csv_records(text)
    assert [int(r["round"]) for r in records] == list(range(4_000))
    sifted = 0
    for r in records:
        assert int(r["matched"]) <= int(r["sifted"])  # matched implies sifted
        if r["sifted"] == "1":
            sifted += 1
            assert r["alice_outcome"] != ""
        else:
            assert r["alice_outcome"] == ""  # no completed measurement
    assert sifted == tr.n_sifted


def test_key_bits_come_from_sifted_rounds(config):
    tr, text = run_with_csv(run_naive_session, config, 3_000, UA, UB, seed=14)
    outcomes = [int(r["alice_outcome"]) for r in csv_records(text) if r["sifted"] == "1"]
    bits = "".join(format(o, "02b") for o in outcomes)
    bits += "0" * (-len(bits) % 8)
    assert tr.key_bits == bytes(
        int(bits[i : i + 8], 2) for i in range(0, len(bits), 8)
    )


def test_key_bits_pack_across_blocks(config):
    # Blocks whose sifted count is not a multiple of 4 carry their last
    # outcomes into the next block's bytes; the key is as if packed at once.
    blocks = []
    tr = run_key_agreement(config, 3 * BLOCK_ROUNDS + 5, UA, UB, seed=21, on_block=blocks.append)
    sifted = [block.alice_outcome[block.sifted] for block in blocks]
    assert len(blocks) == 4 and any(len(part) % 4 for part in sifted[:-1])
    bits = "".join(format(int(o), "02b") for part in sifted for o in part)
    bits += "0" * (-len(bits) % 8)
    assert tr.key_bits == bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def test_csv_rows(config):
    blocks = []
    rounds = 2 * TRANSCRIPT_SLICE_ROWS + 50
    run_naive_session(config, rounds, UA, UB, seed=15, on_block=blocks.append)
    assert len(blocks) == 1
    slices = []
    transcript_csv_rows(blocks[0], slices.append)
    assert slices[0] == TRANSCRIPT_HEADER
    assert [s.count("\n") for s in slices[1:]] == [TRANSCRIPT_SLICE_ROWS] * 2 + [50]
    text = "".join(slices)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "round"
    assert len(rows) == rounds + 1
    # The text is what csv.writer writes for the same rows.
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    assert out.getvalue() == text


def _csv_writer_text(block) -> str:
    """The block's rows as ``csv.writer`` writes them, one row at a time."""
    out = io.StringIO()
    writer = csv.writer(out)
    if block.start == 0:
        writer.writerow(TRANSCRIPT_HEADER.strip().split(","))
    for i in range(len(block.sifted)):
        sides = (block.alice_choice, block.bob_choice)
        choices = [";".join(str(int(c[i])) for c in side) for side in sides]
        outcomes = [int(o[i]) if o[i] >= 0 else "" for o in block[3:5]]  # Alice's, Bob's
        flags = [int(block.sifted[i]), int(block.matched[i])]
        writer.writerow([block.start + i, *choices, *outcomes, *flags])
    return out.getvalue()


def test_transcript_cells_match_csv_writer_row_by_row():
    # Every tail code (outcomes -1..3 each, sifted, matched) on int8
    # outcomes; the first block crosses thousands inside its slices, the
    # second starts partway through a thousand (8292) and crosses 10000.
    codes = list(itertools.product(range(-1, 4), range(-1, 4), (False, True), (False, True)))
    assert len(codes) == 100
    rng = np.random.default_rng(26)
    first = 2 * TRANSCRIPT_SLICE_ROWS + 100  # 8292
    for start, n in ((0, first), (first, 2_000)):
        picked = np.array([codes[(start + i) % 100] for i in range(n)], np.int8)
        block = protocol_mod.RoundBlock(
            start,
            (rng.integers(0, 40, n, np.uint8), rng.integers(0, 4, n, np.uint8)),
            (rng.integers(0, 40, n, np.uint8),),
            picked[:, 0], picked[:, 1], picked[:, 2].astype(bool), picked[:, 3].astype(bool),
        )
        out = io.StringIO()
        transcript_csv_rows(block, out.write)
        got = out.getvalue().splitlines(keepends=True)
        assert got == _csv_writer_text(block).splitlines(keepends=True)


def _block(start, alice_choice, bob_choice, seed):
    """A block of random outcomes and flags (not a session's) for these choices."""
    rng = np.random.default_rng(seed)
    n = len(alice_choice[0])
    outcomes = rng.integers(-1, 4, (2, n)).astype(np.int8)
    flags = rng.integers(0, 2, (2, n)).astype(bool)
    return protocol_mod.RoundBlock(start, alice_choice, bob_choice, *outcomes, *flags)


def test_transcript_cells_for_choices_short_of_their_bound():
    # The cell table is sized by each column's largest value, so a block
    # whose states stop at 4, or whose tetrads stop at 20, reads a smaller
    # table than a full block; its rows are still csv.writer's.
    rng = np.random.default_rng(33)
    n = 3 * 1000 + 17

    def column(high):
        return rng.integers(0, high, n, np.uint8)

    blocks = [
        _block(0, (column(5),), (column(5),), 1),  # key agreement, states 0-4
        _block(BLOCK_ROUNDS, (column(40), column(21)), (column(40), column(21)), 2),
        _block(2 * BLOCK_ROUNDS, (column(1),), (column(40),), 3),  # one value only
    ]
    for block in blocks:
        out = io.StringIO()
        transcript_csv_rows(block, out.write)
        got = out.getvalue().splitlines(keepends=True)
        assert got == _csv_writer_text(block).splitlines(keepends=True)


def test_cell_table_cache_stays_bounded():
    cache = protocol_mod._cells
    cache.cache_clear()
    for size in range(1, 11):  # ten distinct size signatures
        choice = (np.arange(size, dtype=np.uint8),)
        block = _block(0, choice, choice, size)
        transcript_csv_rows(block, io.StringIO().write)
    info = cache.cache_info()
    assert info.misses == 10 and info.currsize == info.maxsize == 4, info
    # A repeated signature reads the cached table and builds nothing.
    transcript_csv_rows(block, io.StringIO().write)
    assert cache.cache_info().hits == info.hits + 1


def test_channel_messages_logged(config):
    # Key agreement announces states and sifts on a common tetrad; the naive
    # protocol announces tetrads and sifts on equality.
    _, text = run_with_csv(run_key_agreement, config, 10, UA, UB, seed=16)
    records = csv_records(text)
    assert len(records) == 10
    for r in records:
        a, b = (int(r[k]) for k in ("alice_choice", "bob_choice"))
        assert r["sifted"] == str(int(config.common_tetrad[a, b] >= 0))
    _, text = run_with_csv(run_naive_session, config, 10, UA, UB, seed=16)
    for r in csv_records(text):
        assert 0 <= int(r["alice_choice"]) < 40
        assert r["sifted"] == str(int(r["alice_choice"] == r["bob_choice"]))


@pytest.mark.parametrize(
    "run, kwargs",
    [(run_naive_session, {"eve_basis": 0}), (run_two_step_session, {}), (run_key_agreement, {})],
)
def test_csv_column_sums_across_block_boundary(config, run, kwargs):
    rounds = BLOCK_ROUNDS + 1
    tr, text = run_with_csv(run, config, rounds, UA, UB, seed=17, **kwargs)
    records = csv_records(text)
    assert [int(r["round"]) for r in records] == list(range(rounds))
    assert sum(int(r["sifted"]) for r in records) == tr.n_sifted
    assert sum(int(r["matched"]) for r in records) == tr.n_matched


@pytest.mark.parametrize("run", [run_naive_session, run_two_step_session, run_key_agreement])
def test_one_round_sessions(config, run):
    for seed in range(20):
        tr, text = run_with_csv(run, config, 1, UA, UB, seed=seed)
        assert tr.rounds == 1 and len(csv_records(text)) == 1
        assert tr.n_matched == tr.n_sifted
        assert len(tr.key_bits) == tr.n_sifted


def test_key_agreement_without_common_tetrad_sifts_nothing(config):
    t = config.transition_array
    a, b = next((i, j) for i in range(40) for j in range(40) if t[i, j] == 3)
    pa, pb = PartyPolicy("fixed", choice=a), PartyPolicy("fixed", choice=b)
    tr, text = run_with_csv(run_key_agreement, config, BLOCK_ROUNDS + 3, pa, pb, seed=18)
    assert tr.n_sifted == tr.n_matched == 0
    assert tr.key_bits == b""
    assert tr.extras == {"sameStateRate": 0, "distinctOrthogonalRate": 0}
    assert {r["sifted"] for r in csv_records(text)} == {"0"}


def _peak_bytes(config, rounds: int, path, protocol="key-agreement", eve_basis=None,
                transcript=True) -> int:
    tracemalloc.start()
    try:
        with open(path, "w", newline="") as fh:
            run_session(
                config, protocol, rounds, UA, UB, eve_basis, seed=19,
                on_block=(lambda block: transcript_csv_rows(block, fh.write))
                if transcript else None,
            )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transcript_memory_is_flat_in_rounds(config, tmp_path):
    rounds = 2 * BLOCK_ROUNDS
    small = _peak_bytes(config, rounds, tmp_path / "small.csv")
    large = _peak_bytes(config, 10 * rounds, tmp_path / "large.csv")
    assert large <= 1.2 * small, (small, large)


def test_key_memory_is_flat_in_rounds(config, tmp_path):
    # Each block's sifted outcomes are packed as the block ends, so a session
    # holds its packed key, a quarter byte per sifted round, and no more.
    rounds = 2 * BLOCK_ROUNDS
    small = _peak_bytes(config, rounds, tmp_path / "small.csv", transcript=False)
    large = _peak_bytes(config, 10 * rounds, tmp_path / "large.csv", transcript=False)
    assert large <= 1.2 * small, (small, large)


@pytest.mark.parametrize(
    "protocol, eve_basis",
    [("naive", None), ("naive", 5), ("two-step", None), ("two-step", 5),
     ("key-agreement", None), ("key-agreement", 5)],
)
@pytest.mark.parametrize("transcript, limit_mb", [(True, 2.5), (False, 1.5)])
def test_block_working_set_is_pinned(config, tmp_path, protocol, eve_basis, transcript, limit_mb):
    # Per-round arrays are one byte wide (draws, choices, outcomes), the
    # outcome read's index four, and the transcript's index arrays and text
    # live one slice at a time: 1.3-2.3 MB with a transcript and 0.7-1.5 MB
    # without, from a fresh process.  The limits sit below what 8-byte
    # arrays and block-wide index arrays take (7.9-9.5 MB and 2.4-3.6 MB)
    # and, with a transcript, below a block's whole text (2.6-3.5 MB).
    path = tmp_path / "rounds.csv"
    peak = _peak_bytes(config, BLOCK_ROUNDS, path, protocol, eve_basis, transcript)
    assert peak < limit_mb * 1e6, peak


# Transcript digests of fixed command lines, beside the key-agreement one
# in test_golden.py: two-step writes its (state;tetrad) choice cells, and
# runs under Eve write mismatched rounds.  The 70000-round runs cross a
# block boundary, so they pin the outcome reads past block 0; key agreement
# reads outcomes only on its sifted rounds.
TRANSCRIPT_CSV_SHA256 = {
    "simulate --protocol naive --rounds 70000 --seed 3 --eve 28 --transcript":
        "d8bf859e4568acfa138f9d8da5a369c4ce8dafae478c3d74748738f1cca7af67",
    "simulate --protocol key-agreement --rounds 70000 --seed 3 --policy correlated:9/10"
    " --transcript":
        "48b515cb37f0b8e0573b912602e6521ee0bc9cb974d34e2949ef8c679f3c9afa",
    "simulate --protocol two-step --rounds 20000 --seed 7 --transcript":
        "b494610060cf581639382cd792559e2072e124d98a12ef3b859ca082d3799649",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 15 --transcript":
        "3434cfd880788f681d58c4f3c543b34a4962495fc6932c382b03b02d81899072",
    "simulate --protocol two-step --rounds 20000 --seed 7 --eve 15 --transcript":
        "497b78afce6a12ee751de7f8da7d91e4a52e85155f03455e5fde86499f1ccc39",
    "simulate --protocol key-agreement --rounds 20000 --seed 7 --eve 15 --transcript":
        "ad251afa1d1182577d40b84ea1352a9dc3c089a3566c4182e96d2bb73a65fb9f",
}
# Stdout digests of the runs above that test_golden.py does not pin.
STDOUT_SHA256 = {
    "simulate --protocol naive --rounds 70000 --seed 3 --eve 28 --transcript":
        "20fab2d74298c7d61990f48805fdd68c5ccc7502e19169d5e431035b719af382",
    "simulate --protocol key-agreement --rounds 70000 --seed 3 --policy correlated:9/10"
    " --transcript":
        "bef77d72f28968af744ca07cfd7eb36b42c0bb2d3e1635059165063462fad7ff",
    "simulate --protocol two-step --rounds 20000 --seed 7 --eve 15 --transcript":
        "9ebeb0f7f2949022976c2be2c9d68418fed51bd2c4ca043d9501045017b576a4",
    "simulate --protocol key-agreement --rounds 20000 --seed 7 --eve 15 --transcript":
        "3550ce4b32e6f65fd437d4a4878bdd15782f4fc91f4fb63a6711cc8227578823",
}


@pytest.mark.parametrize("line", sorted(TRANSCRIPT_CSV_SHA256))
def test_transcript_csv_digest(capsys, tmp_path, line):
    path = tmp_path / "rounds.csv"
    assert main(line.split() + [str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRANSCRIPT_CSV_SHA256[line]
    if line in STDOUT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[line]


# -- exact count tables ------------------------------------------------------------


def test_outcome_counts_equal_joint_distribution(config):
    # joint_distribution and intercept_resend_distribution compute their
    # block alone; each of the 1600 must equal that block of the whole table.
    counts, den = outcome_counts(config)
    assert den == 36
    for a in range(40):
        for b in range(40):
            dist = joint_distribution(config, a, b)
            assert [[Fraction(int(x), den) for x in row] for row in counts[a, b]] == [
                list(row) for row in dist.p
            ]


@pytest.mark.parametrize("eve", [0, 10, 28, 3, 15, 33])  # twice rank, mixed-suit, mono-suit
def test_outcome_counts_equal_intercept_resend_distribution(config, eve):
    counts, den = outcome_counts(config, eve)
    assert den == 324
    for a in range(40):
        for b in range(40):
            dist = intercept_resend_distribution(config, a, b, eve)
            assert [[Fraction(int(x), den) for x in row] for row in counts[a, b]] == [
                list(row) for row in dist.p
            ]


def _sifted_eve_mismatch(config, protocol: str, eve: int) -> Fraction:
    """Exact mismatch within sifted rounds under uniform policies: naive and
    two-step sift every tetrad equally often, key agreement each shared
    tetrad as often as ``common_tetrad`` names it."""
    counts, den = outcome_counts(config, eve)
    own = counts[np.diag_indices(40)]  # (tetrads, 4, 4)
    mismatched = (own.sum(axis=(1, 2)) - np.trace(own, axis1=1, axis2=2)).tolist()
    if protocol == "key-agreement":
        shared = config.common_tetrad[config.common_tetrad >= 0]
        weights = np.bincount(shared, minlength=40).tolist()
    else:
        weights = [1] * 40
    return sum(Fraction(w * m, den) for w, m in zip(weights, mismatched)) / sum(weights)


def test_every_fixed_eve_mismatches_three_fifths_in_every_protocol(config):
    for protocol in ("naive", "two-step", "key-agreement"):
        for eve in range(40):
            assert _sifted_eve_mismatch(config, protocol, eve) == Fraction(3, 5), (protocol, eve)


@pytest.mark.parametrize("eve", [0, 15, 33])  # rank, mixed-suit, mono-suit
@pytest.mark.parametrize("protocol", ["naive", "two-step", "key-agreement"])
def test_sampled_eve_mismatch_within_three_sigma(config, protocol, eve):
    tr = run_session(config, protocol, 100_000, UA, UB, eve_basis=eve, seed=50 + eve)
    assert tr.n_sifted > 2000
    assert abs(tr.n_mismatched / tr.n_sifted - 3 / 5) <= three_sigma(3 / 5, tr.n_sifted)


def test_uniform_eve_is_white_noise_at_one_fifth(config):
    # Summed over the 40 Eve tetrads, the counts are 72·T + 648 over
    # 40·324: (1/5)·T/36 + (4/5)·(1/16), the Werner table at v = 1/5.
    members = np.array(config.basis_states)
    index = (members[:, None, :, None], members[None, :, None, :])
    total = sum(outcome_counts(config, e)[0] for e in range(40))
    assert (total == (72 * config.transition_array + 648)[index]).all()


def test_probe_branches_partition_the_shared_joint(config):
    # A sifted round draws its outcome pair from the shared tetrad's block of
    # the engine's table in one step: the pair fixes the branch, and each Z[w]
    # branch weighs what the block puts on its label's outcomes.  Every
    # probability is an integer weight over a denominator, compared by
    # cross-multiplying: a/b = c/d exactly when ad = cb.
    counts, den = outcome_counts(config)
    pairs = 0
    outcomes = list(itertools.product(range(4), repeat=2))  # Alice's outcome major
    for basis in config.bases:
        block = counts[basis.id, basis.id].ravel().tolist()
        for (i, pa), (j, pb) in itertools.product(enumerate(basis.members), repeat=2):
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            labels = ["yn"[x != i] + "yn"[y != j] for x, y in outcomes]
            mass = {}
            for label, n in zip(labels, block):
                mass[label] = mass.get(label, 0) + n
            weights, d = compose_branch_counts(branches)
            assert len(weights) == 16
            assert all(w * den == n * d for w, n in zip(weights, block))
            for branch in branches:
                assert branch.weight * den == mass[branch.label] * branch.total, (basis.id, i, j)
                if branch.counts is None:
                    continue
                cond, cden = branch.counts
                for label, n in zip(labels, cond):
                    if n:
                        assert branch.label == label
                # weighted by its probability, a branch is the block masked
                # to its label's outcome pairs
                masked = [n if label == branch.label else 0 for label, n in zip(labels, block)]
                assert len(cond) == 16
                assert all(
                    branch.weight * n * den == m * branch.total * cden
                    for n, m in zip(cond, masked)
                ), (basis.id, i, j, branch.label)
            pairs += 1
    assert pairs == 640


# -- the outcome sampler ------------------------------------------------------------


def _sampler_cases(config):
    """All 40 diagonal pairs, one pair sharing one state and one sharing none,
    each without Eve and under one Eve tetrad of each class."""
    members = [set(m) for m in config.basis_states]
    pairs = [(t, t) for t in range(40)]
    for shared in (1, 0):
        pairs.append(next(
            (a, b) for a in range(40) for b in range(40) if len(members[a] & members[b]) == shared
        ))
    eves = [None] + [
        next(b.id for b in config.bases if b.tag == tag)
        for tag in ("rank-tetrad", "mixed-suit", "mono-suit")
    ]
    return [(a, b, eve) for a, b in pairs for eve in eves]


@pytest.fixture
def counting_draws(monkeypatch):
    """Outcome draws 0, 1, ..., so a session of ``den`` rounds draws each value once."""
    monkeypatch.setattr(protocol_mod, "_uniform", lambda rng, bound, n: np.arange(n) % bound)


def _forced_histogram(run, config, rounds, a, b, **kwargs):
    blocks = []
    pa, pb = PartyPolicy("fixed", choice=a), PartyPolicy("fixed", choice=b)
    run(config, rounds, pa, pb, on_block=blocks.append, **kwargs)
    (block,) = blocks
    measured = block.alice_outcome >= 0
    histogram = np.zeros((4, 4), np.int64)
    np.add.at(histogram, (block.alice_outcome[measured], block.bob_outcome[measured]), 1)
    return histogram


def test_every_draw_value_reads_its_outcome_count(config, counting_draws):
    for a, b, eve in _sampler_cases(config):
        counts, den = outcome_counts(config, eve)
        histogram = _forced_histogram(run_naive_session, config, den, a, b, eve_basis=eve)
        assert (histogram == counts[a, b]).all(), (a, b, eve)


def test_key_agreement_draws_read_the_shared_tetrads_own_block(config, counting_draws):
    counts, den = outcome_counts(config)
    for t, members in enumerate(config.basis_states):
        histogram = _forced_histogram(run_key_agreement, config, den, *members[:2])
        assert (histogram == counts[t, t]).all(), t


# -- the batched uniform draw ------------------------------------------------------


class ChosenWords:
    """A stand-in for ``random.Random`` whose ``getrandbits`` hands out chosen
    64-bit words, in order, as ``_uniform`` reads them (first word lowest)."""

    def __init__(self, words):
        self.words = list(words)
        self.used = 0

    def getrandbits(self, bits):
        assert bits % 64 == 0
        count = bits // 64
        chunk = self.words[self.used : self.used + count]
        assert len(chunk) == count, "ran out of chosen words"
        self.used += count
        return sum(word << (64 * i) for i, word in enumerate(chunk))


def _digits(word, bound, k):
    return [word // bound**j % bound for j in range(k)]


DIGITS_PER_WORD = {1: 63, 2: 63, 4: 31, 10: 18, 36: 11, 40: 12, 324: 7,
                   2**32 - 1: 2, 2**32: 1, 2**63 - 1: 1}


@pytest.mark.parametrize("bound", sorted(DIGITS_PER_WORD))
def test_digits_per_word_table(bound):
    assert protocol_mod._digits_per_word(bound) == DIGITS_PER_WORD[bound]


def test_digits_per_word_maximises_expected_digits():
    # k * accepted / 2^64 over the k with bound^k < 2^64, ties to the smaller k
    for bound in range(2, 2000):
        ks = [k for k in range(1, 64) if bound**k < 2**64]
        kept = [k * (2**64 // bound**k * bound**k) for k in ks]
        assert protocol_mod._digits_per_word(bound) == ks[kept.index(max(kept))], bound


@pytest.mark.parametrize("bound", [3, 10, 36, 40, 324, 2**32 - 1, 2**32 + 1, 2**63 - 1])
def test_rejection_threshold_and_digit_order(bound):
    k = protocol_mod._digits_per_word(bound)
    limit = 2**64 // bound**k * bound**k
    assert limit < 2**64
    # the word at the threshold is rejected, the one below it is accepted
    rng = ChosenWords([limit, limit - 1, limit + 1, 2**64 - 1, 5])
    draws = protocol_mod._uniform(rng, bound, k).tolist()
    assert draws == _digits(limit - 1, bound, k)
    assert rng.used == 2
    # digits come out least significant first
    word = sum((j * 7 + 1) % bound * bound**j for j in range(k))
    rng = ChosenWords([word])
    assert protocol_mod._uniform(rng, bound, k).tolist() == [(j * 7 + 1) % bound for j in range(k)]


def test_draws_fill_whole_words_and_drop_the_rest():
    k = DIGITS_PER_WORD[40]
    words = [sum((w + j) % 40 * 40**j for j in range(k)) for w in range(3)]
    rng = ChosenWords(words)
    draws = protocol_mod._uniform(rng, 40, k + 1).tolist()
    assert draws == _digits(words[0], 40, k) + _digits(words[1], 40, 1)
    assert rng.used == 2
    # the next call starts on a fresh word
    assert protocol_mod._uniform(rng, 40, 1).tolist() == _digits(words[2], 40, 1)


@pytest.mark.parametrize("bound", [2**32 + 1, 2**40 + 3, 2**63 - 1])
def test_one_digit_words_draw_as_stream_version_2(bound):
    # Version 2: one value per word, the word modulo bound, after rejecting
    # the top 2^64 mod bound words.
    words = [Random(bound).getrandbits(64) for _ in range(200)]
    words[5] = 2**64 - 2**64 % bound  # rejected
    words[6] = words[5] - 1  # accepted
    accepted = [w for w in words if w < 2**64 - 2**64 % bound]
    rng = ChosenWords(words)
    assert protocol_mod._uniform(rng, bound, len(accepted)).tolist() == [w % bound for w in accepted]
    assert rng.used == len(words)


@pytest.mark.parametrize("bound", [2, 4, 2**32])
def test_power_of_two_bounds_reject_no_word(bound):
    k = protocol_mod._digits_per_word(bound)
    rng = ChosenWords([2**64 - 1])
    assert protocol_mod._uniform(rng, bound, k).tolist() == [bound - 1] * k


def test_bound_one_draws_words_and_ends():
    rng = ChosenWords([2**64 - 1, 0, 12345])
    draws = protocol_mod._uniform(rng, 1, 64)
    assert draws.tolist() == [0] * 64
    assert rng.used == 2


NARROW_BOUNDS = [1, 4, 36, 40, 256, 257, 324, 2**16, 2**16 + 1, 2**32, 2**63 - 1]


def _narrowest_unsigned(bound):
    unsigned = (np.uint8, np.uint16, np.uint32, np.uint64)
    return next(t for t in unsigned if np.iinfo(t).max >= bound - 1)


@pytest.mark.parametrize("bound", NARROW_BOUNDS)
def test_draws_come_in_the_narrowest_dtype_with_version_3_values(bound):
    k = protocol_mod._digits_per_word(bound)
    limit = 2**64 // bound**k * bound**k
    words = [Random(bound).getrandbits(64) for _ in range(40)] + [bound**k - 1]
    if limit < 2**64:
        words[3] = limit  # rejected
    accepted = [w for w in words if w < limit]
    expected = [d for w in accepted for d in _digits(w, bound, k)][: k * len(accepted) - k // 2]
    rng = ChosenWords(words)
    draws = protocol_mod._uniform(rng, bound, len(expected))
    assert draws.dtype == _narrowest_unsigned(bound)
    assert draws.tolist() == expected
    assert rng.used == len(words)


@pytest.mark.parametrize("bound", [4, 40, 2**16, 2**16 + 1])
def test_fixed_draws_come_in_the_narrowest_dtype(bound):
    party = protocol_mod._Party(PartyPolicy("fixed", choice=bound - 1), 0)
    draws = party.draw(bound, 5)
    assert draws.dtype == _narrowest_unsigned(bound)
    assert draws.tolist() == [bound - 1] * 5


@pytest.mark.parametrize(
    "weight",
    [Fraction(255, 256), Fraction(256, 257), Fraction(65535, 65536), Fraction(65536, 65537)],
)
def test_correlated_coin_on_narrow_draws_compares_as_python_ints(weight):
    num, den = weight.numerator, weight.denominator
    k, k40 = protocol_mod._digits_per_word(den), protocol_mod._digits_per_word(40)
    n = 2 * k
    coins = [(num - 1, num, den - 1, 0, num - 2)[j % 5] for j in range(n)]
    own, shared = [j % 20 for j in range(n)], [20 + j * 3 % 20 for j in range(n)]

    def words(digits, bound, per_word):
        return [sum(d * bound**j for j, d in enumerate(digits[i : i + per_word]))
                for i in range(0, len(digits), per_word)]

    party = protocol_mod._Party(PartyPolicy("correlated", 1, weight=weight), 0)
    party.own = ChosenWords(words(own, 40, k40) + words(coins, den, k))
    party.shared = ChosenWords(words(shared, 40, k40))
    expected = [s if c < num else o for o, s, c in zip(own, shared, coins)]
    assert party.draw(40, n).tolist() == expected
    assert {c < num for c in coins} == {True, False}


# -- tetrad ids ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 40, True, 2.0])
def test_bad_tetrad_ids_are_rejected(config, bad):
    for args in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError):
            joint_distribution(config, *args)
    for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
        with pytest.raises(ValueError):
            intercept_resend_distribution(config, *args)
    for protocol in ("naive", "two-step", "key-agreement"):
        with pytest.raises(ValueError):
            run_session(config, protocol, 10, UA, UB, eve_basis=bad, seed=31)


# -- leakage ------------------------------------------------------------------------


def test_announcements_leak_nothing(config):
    assert announcement_leakage_free(config)


@pytest.mark.parametrize("to", [(1, 0), (0, 1)], ids=["other-row", "other-column"])
def test_leakage_check_catches_a_skewed_own_block(config, monkeypatch, to):
    counts, den = outcome_counts(config)
    counts = counts.copy()
    counts[5, 5, 0, 0] -= 1  # one count of tetrad 5's own joint moves elsewhere
    counts[5, 5][to] += 1
    monkeypatch.setattr(protocol_mod, "outcome_counts", lambda *args: (counts, den))
    assert not announcement_leakage_free(config)


# -- dispatch ------------------------------------------------------------------------


def test_run_session_dispatch(config):
    tr = run_session(config, "naive", 100, UA, UB, seed=30)
    assert tr.protocol == "naive"
    for protocol in ("two-step", "key-agreement"):
        tr = run_session(config, protocol, 100, UA, UB, eve_basis=0, seed=30)
        assert tr.protocol == protocol
        assert tr.to_json_dict()["eve"] == 0
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
     "correlated:3", "correlated:-1/2", "correlated:1/2/3", "sometimes",
     "correlated:1e-3", "correlated:0x1p-1", "correlated: 0.5", "correlated:0." + "0" * 40 + "1",
     "correlated:1/" + "9" * 19],
)
def test_policy_parse_rejects_malformed_weight_with_value_error(text):
    with pytest.raises(ValueError):
        PartyPolicy.parse(text, 5)


def test_policy_parse_rejects_exponents_before_building_a_fraction(monkeypatch):
    built = []

    class Spy(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    with monkeypatch.context() as patch:
        patch.setattr(protocol_mod, "Fraction", Spy)
        with pytest.raises(ValueError):
            PartyPolicy.parse("correlated:1e-10000000", 5)
        assert PartyPolicy.parse("correlated:1/8", 5).weight == Fraction(1, 8)
    assert built == [("1/8",)]
    assert PartyPolicy.parse("correlated:0.9", 5).weight == Fraction(9, 10)
    assert PartyPolicy.parse("correlated:9/10", 5).weight == Fraction(9, 10)


def test_policy_weight_bounds():
    assert PartyPolicy("correlated", weight=Fraction(1, 2**63 - 1)).weight.denominator == 2**63 - 1
    with pytest.raises(ValueError):
        PartyPolicy("correlated", weight=Fraction(1, 2**63))
    with pytest.raises(ValueError):
        PartyPolicy("correlated", weight=0.5)
    assert PartyPolicy("correlated", weight=1).weight == 1


@pytest.mark.parametrize(
    "mode, fields",
    [("uniform", {"choice": 7}), ("agreed", {"choice": 0}),
     ("correlated", {"weight": Fraction(1, 2), "choice": 3}),
     ("agreed", {"weight": Fraction(1, 2)}), ("uniform", {"weight": 1}),
     ("fixed", {"choice": 2, "weight": Fraction(1, 4)}),
     ("correlated", {"weight": True}), ("correlated", {"weight": False})],
)
def test_policy_rejects_fields_its_mode_ignores(mode, fields):
    with pytest.raises(ValueError):
        PartyPolicy(mode, **fields)


@pytest.mark.parametrize("run", [run_two_step_session, run_session])
@pytest.mark.parametrize("fixed_party", [0, 1])
def test_two_step_refuses_a_fixed_policy_before_any_draw(config, monkeypatch, run, fixed_party):
    # Its one choice would have to serve as both the state and the tetrad
    # among the state's four.
    draws = []
    monkeypatch.setattr(protocol_mod._Party, "draw", lambda *args: draws.append(args))
    policies = [UA, UB]
    policies[fixed_party] = PartyPolicy("fixed", choice=2)
    args = (config, "two-step") if run is run_session else (config,)
    with pytest.raises(ValueError, match="fixed policy"):
        run(*args, 100, *policies, seed=3)
    assert draws == []


def test_policy_rejects_negative_seed():
    with pytest.raises(ValueError):
        PartyPolicy("uniform", -7)


def test_run_session_rejects_negative_seed(config):
    with pytest.raises(ValueError):
        run_session(config, "naive", 10, UA, UB, seed=-7)


@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("name", ["seed", "policy_seed", "choice", "rounds"])
def test_non_int_seeds_choices_and_rounds_raise_value_error(config, name, value):
    # Policy seed 1.5 derives Random(4 * 1.5) == Random(6), policy seed 1's
    # Bob stream, and choice 2.7 would run tetrad 2: only ints, not bools.
    args = {"seed": 1, "policy_seed": 1, "choice": 2, "rounds": 10, name: value}
    with pytest.raises(ValueError):
        policy = PartyPolicy("fixed", args["policy_seed"], choice=args["choice"])
        run_session(config, "naive", args["rounds"], policy, policy, seed=args["seed"])


# -- the round engine stays on integer arrays ------------------------------------


def test_round_engine_builds_no_eisenstein_objects(monkeypatch):
    # Boxed Z[w] arithmetic belongs to the configuration build and the
    # references; once the configuration exists, the outcome law and every
    # protocol's round loop, transcript included, run on integer arrays.
    config = WittingConfiguration()
    built = []
    original = Eisenstein.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Eisenstein, "__post_init__", counted)
    outcome_counts(config)
    outcome_counts(config, 0)
    out = io.StringIO()
    for protocol in ("naive", "two-step", "key-agreement"):
        run_session(
            config, protocol, BLOCK_ROUNDS + 1, UA, UB, seed=41,
            on_block=lambda block: transcript_csv_rows(block, out.write),
        )
    assert out.tell() > 0
    assert len(built) == 0
    Eisenstein(1, 2)  # the counter sees a boxed value
    assert len(built) == 1
