import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

from ckngb.system import BalanceCondition, SystemConfig
from ckngb.ttf import ph_from_preset
from helpers import clear_package_caches


@pytest.fixture
def reference_config() -> SystemConfig:
    """2-out-of-4 system, r = 0.7, BC3, Erlang-2 inter-shock times."""
    return SystemConfig(4, 2, 0.7, BalanceCondition.BC3, ph_from_preset("ER"))


@pytest.fixture
def fresh_caches():
    """Every package cache empty before and after the test: a test that
    patches a function a cached table is built from takes this fixture."""
    clear_package_caches()
    yield
    clear_package_caches()
