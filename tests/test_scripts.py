"""The figure scripts write the same CSVs, byte for byte, as the release
that recorded these digests.

scv_heatmap.py's digest was re-recorded when sweep-scv took MTTF and SCV
from the random-sum identity: three rows moved, BC1-3 ER n=12 k=11
r=0.9, SCV 0.641214768241 -> 0.64121476824.  The exact value,
0.64121476824050004, sits 4e-17 above a rounding tie in the 12th
significant digit; the compound route was off by +5.4e-16 relative, the
identity is off by -1.5e-16."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import ckngb.ttf as ttf

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the CSVs each script writes with its default grid
SCRIPT_DIGESTS = [
    ("scv_heatmap.py", "scv_heatmap.csv",
     "db18608b8cda017e5c2cc2c0a5d7798c151d1c24d97c24fa97cce9fbbd72e087"),
    ("msntf_surfaces.py", "msntf_surfaces.csv",
     "676e00435c13d70f55f506f01238680c7224d36dd4761356262dbed2df111fe6"),
]


def _run_script(script, outdir):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), str(outdir)],
        env=env, check=True, capture_output=True, timeout=120,
    )


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("script,csv,digest", SCRIPT_DIGESTS, ids=[s for s, _, _ in SCRIPT_DIGESTS])
def test_script_csv_pinned(script, csv, digest, tmp_path):
    _run_script(script, tmp_path)
    assert _digest(tmp_path / csv) == digest


# SHA-256 of the CSVs descriptive_case.py writes
DESCRIPTIVE_DIGESTS = {
    "descriptive_chain.csv": "400c4ddfc20700db97fa47b10807aaa65b93e6bf08930b955ffd928b572ed9ef",
    "descriptive_sntf_pmf.csv": "bb744ea4acb0b7bf22eea480b473557ea98e4c8c0e338bd822e8bbf7e810dc19",
    "descriptive_ttf_pdf.csv": "0827c8b15487e14ce1f56c726ae1da5c58525276e362121b5a06d7d5224a9c5a",
}


def test_descriptive_case_csvs_pinned(tmp_path):
    _run_script("descriptive_case.py", tmp_path)
    assert {name: _digest(tmp_path / name) for name in DESCRIPTIVE_DIGESTS} == DESCRIPTIVE_DIGESTS


def test_descriptive_case_moments_in_one_pass(tmp_path, monkeypatch, capsys):
    """descriptive_case.py reads E[Z^p], p = 1..4, and the SCV off one
    ``failure_time_moments`` call, the shock-count and inter-shock moments
    with no block solve, and prints the same bytes as the release that
    recorded this digest."""
    calls = []
    solve = ttf._solve_neg_generator

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(ttf, "_solve_neg_generator", counted)
    monkeypatch.setattr(sys, "argv", ["descriptive_case.py", str(tmp_path)])
    runpy.run_path(str(ROOT / "scripts" / "descriptive_case.py"))["main"]()
    assert calls == []
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == (
        "28ab25a362ab70390d44204d26f9502ce2e41f49c609057eb0097e738f08ae30"
    )
