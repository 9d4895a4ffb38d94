"""The README's library example runs against the package as it is, and the
package exports exactly the names the README documents."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import ckngb

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = {
    "BalanceCondition", "SystemConfig",
    "CapacityExceeded", "CknGBError", "ConfigError", "InvariantViolation", "NoTieSets",
    "NonConvergence", "OddNUnsupported", "SingularSystem",
    "CountChain", "StateChain", "build_consolidated", "build_count_chain", "build_state_chain",
    "SimulationResult", "simulate_sntf", "simulate_ttf",
    "factorial_moment", "mean_closed", "pmf_direct", "pmf_survival_series",
    "raw_moment_series", "survival_direct",
    "count_profile", "enumerate_min_tiesets", "system_reliability_exact",
    "system_reliability_product",
    "CompoundPhaseType", "ContinuousPhaseType", "compound_ph", "failure_time_moments",
    "pdf_grid", "ph_from_preset", "ph_mean_scv", "raw_moment",
}


def library_example():
    """The python block under the README's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_the_documented_mean():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", library_example()],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.splitlines()[0].startswith("7.5811")


def test_package_exports():
    names = {
        name for name, value in vars(ckngb).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == EXPORTS
    assert len(EXPORTS) == 36
