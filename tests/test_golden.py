"""Golden output digests: fixed command lines must reproduce these bytes.

Each digest is the sha256 of everything ``wittingqkd.cli.main`` prints to
stdout for the command line (and, for the key-agreement run and the
``classical-scan --dump-max`` run, of the file it writes).  A change to the exact kernel, the samplers or the
random streams that alters any probability, draw or formatting shows here.
The digests change only with a deliberate stream-version bump recorded in
CHANGES.md.  The simulate digests pin stream version 3: each accepted 64-bit
word gives k base-b digits, least significant first, where k maximises the
expected digits per word over the k <= 63 with b^k < 2^64 (smaller k on a
tie), and a word at or above ⌊2^64/b^k⌋·b^k is rejected.
"""

import hashlib

import pytest

from wittingqkd.cli import main

STDOUT_SHA256 = {
    "simulate --protocol naive --rounds 20000 --seed 7":
        "8b18a270f382f38aa15435a28d2f5501aa3756afda315698e7ec45b55ac60737",
    # one Eve tetrad of each class: rank, mixed-suit, mono-suit
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 3":
        "a170210d566bd492696b3d2bc055a68cf88b1c58a5cc0b853298d4148dbe65f9",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 15":
        "f28e1db873aff124388aec428c4ee995792794a34dda3d7eb45e4a768f845a5b",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 33":
        "aca7045903cdb4b1c6732825744f7d4887f981c87179008ed0b01417ea6d873a",
    "simulate --protocol two-step --rounds 20000 --seed 7":
        "f179b36bd61f6efb639b09d65cb0095503d33eb55afacec807050c3e7f85de21",
    "simulate --protocol two-step --rounds 20000 --seed 7 --policy agreed":
        "7252f3ec6085a501df40802fa79db9b6aad577219ae950567ca08e29d1e5bd3a",
    "joint --alice 5 --bob 12":
        "cc84ae4c6d9638490aca9b42043ddb9595e79a79aeeb03ff5dc96a7228b2ee0c",
    "joint --alice 2 --bob 30 --eve 17":
        "e1fd2ba7c0a057db80b3e294a92b611ff8572e2899cb2a5d876e2a4b7cb63652",
    "verify --quick":
        "f13c52104f0c6d36bab3d2496bc131a3a561871232b4b1ec4269b0b05cd4d267",
    "verify":
        "09d88708025f8fbb04eeb2381315a4c2264687d2227c964c84f4aa4e7dba7c36",
    "classical-scan":
        "e576b3d6d989705ac6a225807473c2e3f078660afe8e3d9e9ddb7b1b23211249",
    "group":
        "a0620c92a72bba9552f77a6385381d51f35173e2b444e1908bc6863a34b3d03b",
    "states":
        "3ce1a7f4c14a06f54c785bfc560e10825d1cdb01cbcfddbeb705717673672d8f",
    "bases":
        "979e75924e77f87176cdb993c131f1db89340d4c93af9d0a9715e266b2830fd0",
}

KEY_AGREEMENT_LINE = (
    "simulate --protocol key-agreement --rounds 20000 --seed 7"
    " --policy correlated:9/10 --transcript"
)
KEY_AGREEMENT_STDOUT_SHA256 = (
    "1340c7227c0a3d9170a02971c1888dd7937db8481d8a7a36429be137acb1d947"
)
KEY_AGREEMENT_CSV_SHA256 = (
    "f24aab27517c8338bde160eb97dca56871595e6c9cb6e1f8a44c0da0eb71decc"
)

# the JSON list of all 720 maximizing markings, in marking-index order
DUMP_MAX_SHA256 = (
    "9c9b08ddcee0eab3d30c9cb3b527c1807a569df99d7469211547cb860b196e29"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("line", sorted(STDOUT_SHA256))
def test_stdout_digest(capsys, line):
    assert main(line.split()) == 0
    assert _sha256(capsys.readouterr().out.encode()) == STDOUT_SHA256[line]


def test_key_agreement_transcript_digest(capsys, tmp_path):
    path = tmp_path / "rounds.csv"
    assert main(KEY_AGREEMENT_LINE.split() + [str(path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == KEY_AGREEMENT_STDOUT_SHA256
    assert _sha256(path.read_bytes()) == KEY_AGREEMENT_CSV_SHA256


def test_classical_scan_dump_max_digest(capsys, tmp_path):
    path = tmp_path / "maximizers.json"
    assert main(["classical-scan", "--dump-max", str(path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == STDOUT_SHA256["classical-scan"]
    assert _sha256(path.read_bytes()) == DUMP_MAX_SHA256
