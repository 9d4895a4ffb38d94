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
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of the CSVs each script writes with its default grid
SCRIPT_DIGESTS = [
    ("scv_heatmap.py", "scv_heatmap.csv",
     "db18608b8cda017e5c2cc2c0a5d7798c151d1c24d97c24fa97cce9fbbd72e087"),
    ("msntf_surfaces.py", "msntf_surfaces.csv",
     "676e00435c13d70f55f506f01238680c7224d36dd4761356262dbed2df111fe6"),
]


@pytest.mark.parametrize("script,csv,digest", SCRIPT_DIGESTS, ids=[s for s, _, _ in SCRIPT_DIGESTS])
def test_script_csv_pinned(script, csv, digest, tmp_path):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), str(tmp_path)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == digest
