"""Every package cache earns its state: some command re-reads it."""

import json

import ckngb.cli as cli
from helpers import package_caches


def test_every_cache_is_hit_by_a_command(tmp_path, capsys, fresh_caches):
    """tiesets, sntf-pmf and validate, each from cold caches, on the
    reference system: every package lru_cache is hit at least once, so a
    cache that no command re-reads fails here."""
    config = tmp_path / "reference.json"
    config.write_text(json.dumps({"n": 4, "k": 2, "r": 0.7, "bc": "BC3", "shock": {"preset": "ER"}}))
    caches = package_caches()
    hits = dict.fromkeys(caches, 0)
    for command in ("tiesets", "sntf-pmf", "validate"):
        for cache in caches.values():
            cache.cache_clear()
        assert cli.main([command, "--config", str(config)]) == 0
        for name, cache in caches.items():
            hits[name] += cache.cache_info().hits
    capsys.readouterr()
    assert hits and [name for name, count in hits.items() if count == 0] == []
