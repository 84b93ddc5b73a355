"""Golden output digests: fixed command lines must reproduce these bytes.

Each digest is the sha256 of everything ``wittingqkd.cli.main`` prints to
stdout for the command line (and, for the key-agreement run and the
``classical-scan --dump-max`` run, of the file it writes).  A change to the exact kernel, the samplers or the
random streams that alters any probability, draw or formatting shows here.
The digests change only with a deliberate stream-version bump recorded in
CHANGES.md.
"""

import hashlib

import pytest

from wittingqkd.cli import main

STDOUT_SHA256 = {
    "simulate --protocol naive --rounds 20000 --seed 7":
        "b7212fc7f400ade5406e292340fbe8e8a3a35c5f1ec8dad60dc032af0f8761df",
    # one Eve tetrad of each class: rank, mixed-suit, mono-suit
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 3":
        "4d376cf66d0186a75abe4e219aee4d122ca1b531453c2967015a565d3c5fad4b",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 15":
        "d19f8fc4a2200d6367b8b3167c6c264de8195b4541cacb64923c5a0b3c453822",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 33":
        "825164d4a4d78d06aa83660d123f8e5ce12bcfa2a895f232cbc8627b8811c331",
    "simulate --protocol two-step --rounds 20000 --seed 7":
        "87b1ed3519b00059c7d92d238c679e964b0a410e81b170b2be9f50246701a28a",
    "simulate --protocol two-step --rounds 20000 --seed 7 --policy agreed":
        "81909ea5b49df6ec9b7f55ec74811d70a4810989382e0b147acdec1456d7828b",
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
    "0682e14e3573f75d2ce01d959061ed403fe402c3f6e34df20302812c4ca65c08"
)
KEY_AGREEMENT_CSV_SHA256 = (
    "1e624d43e7c9117930ada32462f15c393957d51f98488de9ea7d377b88e4ba3b"
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
