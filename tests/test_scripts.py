"""The figure scripts write the same CSVs, byte for byte, as the release
that recorded these digests."""

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
     "c3de5d049b7a651c5914d89de4421a986d2f84bed1bcd9330326e6c450c92e13"),
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
