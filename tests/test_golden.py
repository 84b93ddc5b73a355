"""Golden output digests: fixed command lines must reproduce these bytes.

Each digest is the sha256 of everything ``wittingqkd.cli.main`` prints to
stdout for the command line (and, for the key-agreement run, of the CSV
transcript it writes).  A change to the exact kernel, the samplers or the
random streams that alters any probability, draw or formatting shows here.
The digests change only with a deliberate stream-version bump recorded in
CHANGES.md.
"""

import hashlib

import pytest

from wittingqkd.cli import main

STDOUT_SHA256 = {
    "simulate --protocol naive --rounds 20000 --seed 7":
        "8a697fcee66ca418ec40cc3810222e4c1abaf00be55617afcd44e16ac22d334b",
    # one Eve tetrad of each class: rank, mixed-suit, mono-suit
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 3":
        "845c46aced551544c81e60668c15ea2c2a42c2edbaa6819cc2106a2720858cff",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 15":
        "457b102dcccf03685c7ec503afb3ea358a889f14295232a9581e6d2e123d7f27",
    "simulate --protocol naive --rounds 20000 --seed 7 --eve 33":
        "1b4be6dd13135dfe6367ec26ff7a0fa51795b6dd5049f52f1404dbd281e345a9",
    "simulate --protocol two-step --rounds 20000 --seed 7":
        "8081fb4650e922873677efdbb4441dcf18f867f4a9f3ba0fc6033a81f9eb5bcf",
    "simulate --protocol two-step --rounds 20000 --seed 7 --policy agreed":
        "d700ab2c5aeef65b989377b5f2890dfcf3bedb929666cdd6536768c89c5ea368",
    "joint --alice 5 --bob 12":
        "cc84ae4c6d9638490aca9b42043ddb9595e79a79aeeb03ff5dc96a7228b2ee0c",
    "joint --alice 2 --bob 30 --eve 17":
        "e1fd2ba7c0a057db80b3e294a92b611ff8572e2899cb2a5d876e2a4b7cb63652",
    "verify --quick":
        "f13c52104f0c6d36bab3d2496bc131a3a561871232b4b1ec4269b0b05cd4d267",
}

KEY_AGREEMENT_LINE = (
    "simulate --protocol key-agreement --rounds 20000 --seed 7"
    " --policy correlated:9/10 --transcript"
)
KEY_AGREEMENT_STDOUT_SHA256 = (
    "d37dbd56de02f48c1655b01090903dddb98d28275d9a36d74227eb13849f5486"
)
KEY_AGREEMENT_CSV_SHA256 = (
    "9f449d015902c309e7ead9b4549ab43083968cb04e300463aca9c5ea4fc63e26"
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
