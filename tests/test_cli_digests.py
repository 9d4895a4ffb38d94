"""Every command's stdout, byte for byte, and its exit code, pinned by
SHA-256 on the reference system, on n=12 k=4 BC3 HE r=0.88 and on both
sweeps over n = 3..8; and the tiesets stdout on the benchmark's
tieset-scan systems and on n=24 k=6 BC3, all at r = 0.8.  The CLI runs in
process; the whole set takes under a second.

The figure scripts' descriptive tables are the commands' own tables: the
pmf CSV is ``sntf-pmf --m-max 30`` and the failure-time CSV is ``ttf``
with z_max 12 and z_steps 240, both on the reference system."""

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from ckngb.cli import main

ROOT = Path(__file__).resolve().parents[1]

REFERENCE = {"n": 4, "k": 2, "r": 0.7, "bc": "BC3", "shock": {"preset": "ER"}}
N12 = {"n": 12, "k": 4, "r": 0.88, "bc": "BC3", "shock": {"preset": "HE"}}
SWEEP = {
    "n": [3, 4, 5, 6, 7, 8],
    "k": [2, 3, 4, 5, 6, 7],
    "r": [0.5, 0.9],
    "bc": ["BC1", "BC2", "BC3"],
    "shock": {"preset": ["ER", "EXP", "HE"]},
}

SINGLE_COMMANDS = {
    "tiesets": ["tiesets"],
    "sntf-pmf": ["sntf-pmf"],
    "sntf-pmf-matrix": ["sntf-pmf", "--matrix"],
    "sntf-moments": ["sntf-moments"],
    "ttf": ["ttf"],
    "simulate-sntf": ["simulate", "--target", "sntf", "--reps", "2000"],
    "simulate-ttf": ["simulate", "--target", "ttf", "--reps", "2000"],
    "validate": ["validate", "--reps", "2000"],
}

# (system, command) -> (exit code, SHA-256 of stdout), recorded before the
# header of each table was taken from its rows
DIGESTS = {
    ("reference", "tiesets"): (0, "1d696f14a4b4c77b2a8c900a6a7dabee691122f59370d446d62b7982a9f2d7d1"),
    ("reference", "sntf-pmf"): (0, "abc078667262033d107fd8a6e279432ed2517f7412f4d4244bc25950ced019e5"),
    ("reference", "sntf-pmf-matrix"): (0, "abc078667262033d107fd8a6e279432ed2517f7412f4d4244bc25950ced019e5"),
    ("reference", "sntf-moments"): (0, "6f0957f1fd1712342a1c88accd98e3d84f3c68f9baa4c3f3f0a9cc2b819a2f5c"),
    ("reference", "ttf"): (0, "c1f662266271a6d1298eeb5c7f57f34025eeb513bf90ba2cfe4869cc1ff6821f"),
    ("reference", "simulate-sntf"): (0, "a2ac9c622970de482441b512b93bccf8c775b09b4ce0c491e3936f16e38214d5"),
    ("reference", "simulate-ttf"): (0, "797ecbc3f7cefe898934f8ecae59ee2788c5c4507bcab47456a681baed70814f"),
    ("reference", "validate"): (0, "9473117fb22f57012389f6d639e9b2cf6681ad890978db6b5517ca3c26e3a8e8"),
    ("n12", "tiesets"): (0, "6ce5ff700b1548fb2c5786253eb34f47cdcf336283518fc07b362194673ace91"),
    ("n12", "sntf-pmf"): (0, "528420b03466446d0515ea0984fc7856f98768cc39e7839bb76657f95479053f"),
    ("n12", "sntf-pmf-matrix"): (0, "528420b03466446d0515ea0984fc7856f98768cc39e7839bb76657f95479053f"),
    ("n12", "sntf-moments"): (0, "b31046b90155c8e232f8dabd63282b1cfc64173f207251428994063eface118c"),
    ("n12", "ttf"): (0, "9a4d81a90743e0285f25b7313f8b71d4c9c33cd5e215a5864b47e00989581716"),
    ("n12", "simulate-sntf"): (0, "e5815e1ed6dd20cc75b303941881e1baeb975c2a6e162823a3a0e5fe878e0922"),
    ("n12", "simulate-ttf"): (0, "e183f79b9e2d4fab43a0f9f75d58d32b8f4587ce6f3d402371e52933f473c356"),
    ("n12", "validate"): (0, "9d929fbf5214e4ab50c327e98039d3b2c6dfbec8f228d84207c88c9747b4f303"),
    ("sweep", "sweep-msntf"): (0, "f2ef9e0c26656596c8b2732acae7076b166091a1e263d8c876ff19f25d551817"),
    ("sweep", "sweep-scv"): (0, "016980b55382e00dec583cab7af2443d0e6435b9d768308df8e0ec2565d22397"),
}

CASES = [
    (name, doc, label, argv)
    for name, doc in (("reference", REFERENCE), ("n12", N12))
    for label, argv in SINGLE_COMMANDS.items()
] + [("sweep", SWEEP, command, [command]) for command in ("sweep-msntf", "sweep-scv")]


# (n, k, bc) -> SHA-256 of the tiesets stdout at r = 0.8, recorded before
# the tie-sets were returned as masks; the n = 20 and 22 rows before each
# line was joined from one label table
TIESET_DIGESTS = {
    (16, 3, "BC2"): "71f1acb982453d416f971658a824435e84d57a2e089e31e851e7a0b93937ac6e",
    (16, 3, "BC3"): "71f1acb982453d416f971658a824435e84d57a2e089e31e851e7a0b93937ac6e",
    (16, 5, "BC2"): "4894261502d67748ccb29e56aee58428730b02aced4d9dd8a0d9177b64694c10",
    (16, 5, "BC3"): "4894261502d67748ccb29e56aee58428730b02aced4d9dd8a0d9177b64694c10",
    (16, 7, "BC2"): "b9997a38249f9688f239341de9cc8ebd48138d07b791d35b793b8d222020d6ad",
    (16, 7, "BC3"): "b9997a38249f9688f239341de9cc8ebd48138d07b791d35b793b8d222020d6ad",
    (18, 4, "BC2"): "56c2eaa30cb953b2305663af57559b1a871ccaed7c084ee080bd752f64bffc88",
    (18, 4, "BC3"): "1964b324d4991b53419761c8e7b4fb554f2a394d6e05f568401502cc6e24fc34",
    (20, 6, "BC2"): "90046c5d23b83c14a211911ead1ca90f30954ff69b515f2aa4b384befcf8ca76",
    (20, 6, "BC3"): "aea9ac9dac3f1e6fef8d15eea309a44d97085c5405756b12099a90a207f1383c",
    (22, 6, "BC2"): "cf1b35f359e99d1a6875ab54c85b6c8774e0056096a0af0c750d1495b01b43c2",
    (22, 6, "BC3"): "cf1b35f359e99d1a6875ab54c85b6c8774e0056096a0af0c750d1495b01b43c2",
    (24, 6, "BC3"): "f228b258c9b8ac63f79967139b5226b878bf3d300b6ae335b16d1cb997842aef",
}


def run(argv, doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([*argv, "--config", str(config)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "name,doc,label,argv", CASES, ids=[f"{name}-{label}" for name, _, label, _ in CASES]
)
def test_stdout_pinned(name, doc, label, argv, tmp_path, capsys):
    code, out = run(argv, doc, tmp_path, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[name, label]


@pytest.mark.parametrize("n,k,bc", TIESET_DIGESTS, ids=[f"n{n}-k{k}-{bc}" for n, k, bc in TIESET_DIGESTS])
def test_tiesets_pinned(n, k, bc, tmp_path, capsys):
    doc = {"n": n, "k": k, "r": 0.8, "bc": bc}
    code, out = run(["tiesets"], doc, tmp_path, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, TIESET_DIGESTS[n, k, bc])


def test_descriptive_tables_are_the_command_tables(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["descriptive_case.py", str(tmp_path / "results")])
    runpy.run_path(str(ROOT / "scripts" / "descriptive_case.py"))["main"]()
    results = tmp_path / "results"
    assert run(["sntf-pmf", "--m-max", "30"], REFERENCE, tmp_path, capsys) == (
        0, (results / "descriptive_sntf_pmf.csv").read_text()
    )
    ttf_csv = tmp_path / "ttf.csv"
    doc = dict(REFERENCE, z_max=12, z_steps=240)
    assert run(["ttf", "--out", str(ttf_csv)], doc, tmp_path, capsys)[0] == 0
    assert ttf_csv.read_text() == (results / "descriptive_ttf_pdf.csv").read_text()
