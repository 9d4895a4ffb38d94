"""Test helpers that are not reference routes (those live in oracles.py)."""

import sys

import numpy as np

from ckngb.tiesets import _bits, _structure

PACKAGE = "ckngb"


def package_caches() -> dict:
    """Every functools.lru_cache of the loaded ckngb modules, by qualified
    name, found as perfbench/tracing.py's ``find_caches`` finds them."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", "").startswith(PACKAGE)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def clear_package_caches() -> None:
    """Empty every package cache, so no table built while a test patched a
    package function outlives that test."""
    for cache in package_caches().values():
        cache.cache_clear()


def plane_table(n, k, bc):
    """The closure plane of k read at every one of the 2**n masks through
    the package's plane-bit reader, as a bool table."""
    return _bits(_structure(n, k, bc)[1], np.arange(1 << n)) == 1
