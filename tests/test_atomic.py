"""The one atomic-replace writer and the two ledgers that use it.

A writer that raises mid-write must leave the old file intact and no
``.tmp`` file behind, whichever layer it writes for.
"""

from __future__ import annotations

import threading

import pytest

from repro.atomic import atomic_write
from repro.obs import RunRecord, RunRegistry
from repro.pipeline import ArtifactCache, stable_digest
from repro.telemetry import Telemetry


def _leftovers(directory):
    return [p.name for p in directory.iterdir() if p.suffix == ".tmp"]


class TestAtomicWrite:
    def test_replaces_on_clean_exit(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old", encoding="utf-8")
        with atomic_write(target) as handle:
            handle.write("new")
            assert target.read_text(encoding="utf-8") == "old"
        assert target.read_text(encoding="utf-8") == "new"
        assert _leftovers(tmp_path) == []

    def test_raise_mid_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "state.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(target, "wb") as handle:
                handle.write(b"half of the new")
                raise RuntimeError("boom")
        assert target.read_bytes() == b"old"
        assert _leftovers(tmp_path) == []

    def test_raise_before_first_write_creates_nothing(self, tmp_path):
        target = tmp_path / "absent.json"
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(target):
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []


class TestLedgersUseIt:
    def test_unpicklable_cache_value_keeps_old_artifact(self, tmp_path):
        key = stable_digest("artifact")
        ArtifactCache(tmp_path).store(key, "old")
        with pytest.raises(TypeError):
            ArtifactCache(tmp_path).store(key, threading.Lock())
        assert _leftovers(tmp_path) == []
        assert ArtifactCache(tmp_path).load(key) == "old"

    def test_cache_counts_the_bytes_it_wrote(self, tmp_path):
        telemetry = Telemetry()
        cache = ArtifactCache(tmp_path, telemetry=telemetry)
        cache.store(stable_digest("sized"), list(range(1000)))
        (artifact,) = tmp_path.glob("*.pkl")
        written = telemetry.metrics.snapshot()["cache.bytes_written"]
        assert written["value"] == artifact.stat().st_size

    def test_registry_gc_failure_keeps_old_ledger(self, tmp_path, monkeypatch):
        registry = RunRegistry(tmp_path)
        for n in range(3):
            registry.record(_record(f"r{n}"))
        before = registry.path.read_bytes()
        # Mixed key types fail json.dumps' sort_keys on the last kept
        # line, after the first one reached the temp file.
        runs = registry.runs() + [_record("bad", meta={1: "x", "a": "y"})]
        monkeypatch.setattr(registry, "runs", lambda: runs)
        with pytest.raises(TypeError):
            registry.gc(keep=2)
        assert registry.path.read_bytes() == before
        assert _leftovers(tmp_path) == []


def _record(run_id, **overrides):
    return RunRecord(
        run_id=run_id, kind="test", created_utc="2026-01-01T00:00:00Z",
        **overrides,
    )
