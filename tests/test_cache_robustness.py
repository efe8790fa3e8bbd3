"""Tests for disk-cache safety: sharded entries, atomic writes, quarantine,
and concurrent-writer merge semantics."""

from __future__ import annotations

import json

import pytest

import repro.harness.runner as runner_mod
from repro.harness.runner import (
    CacheEntryError,
    _result_from_dict,
    cached_run,
    peek_cached,
    set_run_executor,
)
from repro.sim.engine import SimulationParams, run_workload

PARAMS = SimulationParams(accesses_per_core=120, seed=9)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Route the disk cache into a temp dir and reset all module state."""
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    monkeypatch.setattr(runner_mod, "_disk_loaded", False)
    monkeypatch.setattr(runner_mod, "_disk_store", {})
    runner_mod._memory_cache.clear()
    yield cache_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)


def _counting_executor(counter):
    def executor(workload, config, params=None, **kwargs):
        counter.append(1)
        return run_workload(workload, config, params, **kwargs)

    return executor


def _shard_dir(cache_path):
    return cache_path.parent / ".sim_cache.d"


def _entry_files(cache_path):
    d = _shard_dir(cache_path)
    return sorted(d.glob("*.json")) if d.is_dir() else []


def _fresh_process(monkeypatch):
    """Drop in-memory state as a newly exec'd process would see it."""
    runner_mod._memory_cache.clear()
    monkeypatch.setattr(runner_mod, "_disk_loaded", False)
    monkeypatch.setattr(runner_mod, "_disk_store", {})


class TestShardedSave:
    def test_each_entry_is_its_own_complete_json_file(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        files = _entry_files(isolated_cache)
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert set(payload) == {"key", "result"}
        # and a second distinct run adds a second file, clobbering nothing
        cached_run("sphinx", "tsi", scale=65536, params=PARAMS)
        assert len(_entry_files(isolated_cache)) == 2

    def test_no_temp_files_left_behind(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        leftovers = list(isolated_cache.parent.glob("*.tmp"))
        leftovers += list(_shard_dir(isolated_cache).glob("*.tmp"))
        assert leftovers == []

    def test_second_process_reads_back(self, isolated_cache, monkeypatch):
        counter = []
        set_run_executor(_counting_executor(counter))
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert counter == [1]
        _fresh_process(monkeypatch)
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert counter == [1]  # served from disk, not re-simulated

    def test_store_write_read_roundtrip(self, isolated_cache):
        from repro.exec.cache import ShardedResultCache

        result = {"cycles": 12.5, "ipc": [0.25, 0.5], "name": "sphinx"}
        runner_mod._store().write("key-a", result)
        # a second store object on the same directory (another process)
        reader = ShardedResultCache(_shard_dir(isolated_cache))
        assert reader.read("key-a") == result
        assert reader.read_all() == {"key-a": result}
        assert reader.read("key-b") is None

    def test_entry_written_by_concurrent_process_is_found(
        self, isolated_cache, monkeypatch
    ):
        # Process A loaded (empty) disk state; process B then finished a
        # run.  A's next lookup must find B's shard instead of
        # re-simulating.
        runner_mod._load_disk()
        assert runner_mod._disk_store == {}
        result = run_workload(
            "sphinx", runner_mod.resolve_config("base", 65536), PARAMS
        )
        key = runner_mod._key("sphinx", "base", 65536, PARAMS)
        disk_key = json.dumps(key)
        runner_mod._store().write(disk_key, runner_mod._result_to_dict(result))
        counter = []
        set_run_executor(_counting_executor(counter))
        assert cached_run("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == []  # no re-simulation


class TestConcurrentWriters:
    def test_two_writers_merge_instead_of_clobbering(self, isolated_cache):
        # Regression for the monolithic-cache race: two processes that
        # each rewrote the whole store would last-writer-wins drop each
        # other's entries.  Sharded entries must merge.
        store_a = runner_mod._store()
        store_b = runner_mod._store()
        for i in range(5):
            store_a.write(f"writer-a-{i}", {"workload": "a", "i": i})
            store_b.write(f"writer-b-{i}", {"workload": "b", "i": i})
        merged = runner_mod._store().read_all()
        assert len(merged) == 10
        assert merged["writer-a-3"] == {"workload": "a", "i": 3}
        assert merged["writer-b-4"] == {"workload": "b", "i": 4}

    def test_same_key_writers_leave_one_complete_entry(self, isolated_cache):
        store = runner_mod._store()
        for i in range(5):
            store.write("shared-key", {"attempt": i})
        assert store.read("shared-key") == {"attempt": 4}
        assert len(_entry_files(isolated_cache)) == 1


class TestCorruptFileRecovery:
    def test_recovered_cache_works_after_quarantine(self, isolated_cache, monkeypatch):
        # a garbage file left at the pre-sharding cache path is ignored
        isolated_cache.write_text("garbage")
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        # the sharded cache must be healthy
        counter = []
        set_run_executor(_counting_executor(counter))
        _fresh_process(monkeypatch)
        assert cached_run("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == []

    def test_torn_entry_file_is_quarantined_not_trusted(
        self, isolated_cache, monkeypatch
    ):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        (entry_file,) = _entry_files(isolated_cache)
        entry_file.write_text('{"key": "tor')  # simulated torn write
        counter = []
        set_run_executor(_counting_executor(counter))
        _fresh_process(monkeypatch)
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.workload == "sphinx"
        assert counter == [1]  # re-simulated
        quarantined = list(_shard_dir(isolated_cache).glob("*.corrupt"))
        assert quarantined  # evidence kept

    def test_shard_holding_another_key_is_quarantined_and_missed(
        self, isolated_cache
    ):
        store = runner_mod._store()
        store.write("key-a", {"cycles": 1.0})
        # a shard whose payload names a different key (hash collision or
        # a foreign file under the right name) must not be served
        store.entry_path("key-b").write_text(
            json.dumps({"key": "key-a", "result": {"cycles": 1.0}})
        )
        assert store.read("key-b") is None
        evidence = store.entry_path("key-b").with_suffix(".json.corrupt")
        assert evidence.exists()
        assert not store.entry_path("key-b").exists()
        assert store.read("key-a") == {"cycles": 1.0}

    def test_non_object_shard_is_quarantined_and_missed(self, isolated_cache):
        store = runner_mod._store()
        store.write("key-a", {"cycles": 1.0})
        # parseable JSON that is not a {"key", "result"} object
        store.entry_path("key-a").write_text(json.dumps(["key-a", 1.0]))
        assert store.read("key-a") is None
        assert store.entry_path("key-a").with_suffix(".json.corrupt").exists()
        assert not store.entry_path("key-a").exists()

    def test_torn_shard_is_quarantined_by_preload_and_others_kept(
        self, isolated_cache
    ):
        store = runner_mod._store()
        store.write("key-a", {"cycles": 1.0})
        store.write("key-b", {"cycles": 2.0})
        store.entry_path("key-b").write_text('{"key": "key-b", "res')
        assert store.read_all() == {"key-a": {"cycles": 1.0}}
        evidence = store.entry_path("key-b").with_suffix(".json.corrupt")
        assert evidence.read_text() == '{"key": "key-b", "res'
        assert store.read("key-b") is None
        assert store.read("key-a") == {"cycles": 1.0}


class TestSchemaDrift:
    def test_unknown_field_raises_cache_entry_error(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict({"workload": "x", "from_the_future": 1})

    def test_missing_required_field_raises(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict({"workload": "x"})

    def test_non_dict_entry_raises(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict([1, 2, 3])

    def test_drifted_entry_quarantined_and_resimulated(
        self, isolated_cache, monkeypatch
    ):
        bad = {"workload": "sphinx", "field_from_old_version": 42}
        key = runner_mod._key("sphinx", "base", 65536, PARAMS)
        disk_key = json.dumps(key)
        runner_mod._store().write(disk_key, bad)
        (shard,) = _entry_files(isolated_cache)
        counter = []
        set_run_executor(_counting_executor(counter))
        _fresh_process(monkeypatch)
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.workload == "sphinx"
        assert counter == [1]  # drifted entry was NOT trusted
        # the shard store's own quarantine kept the evidence beside it
        evidence = shard.with_name(shard.name + ".corrupt")
        assert json.loads(evidence.read_text()) == {
            "key": disk_key, "result": bad,
        }
        # no readable shard, and no later process, sees the bad entry
        assert bad not in runner_mod._store().read_all().values()
        assert runner_mod._store().read(disk_key) != bad
        _fresh_process(monkeypatch)
        assert cached_run("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == [1]  # the re-simulated entry is served

    def test_roundtrip_still_works(self, isolated_cache):
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        restored = _result_from_dict(runner_mod._result_to_dict(result))
        assert restored == result


class TestPeekAndSeed:
    def test_peek_never_simulates(self, isolated_cache):
        counter = []
        set_run_executor(_counting_executor(counter))
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None
        assert counter == []
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == [1]

    def test_seed_cache_persists_for_fresh_process(
        self, isolated_cache, monkeypatch
    ):
        result = run_workload(
            "sphinx", runner_mod.resolve_config("base", 65536), PARAMS
        )
        runner_mod.seed_cache("sphinx", "base", result, scale=65536, params=PARAMS)
        _fresh_process(monkeypatch)
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) == result


class TestFaultAwareKeys:
    def test_fault_free_key_has_no_resilience_suffix(self):
        key = runner_mod._key("w", "c", 1, SimulationParams())
        faulty = runner_mod._key(
            "w", "c", 1, SimulationParams(fault_rate=3e13)
        )
        assert len(faulty) == len(key) + 2
        assert key == faulty[: len(key)]

    def test_distinct_rates_get_distinct_keys(self):
        a = runner_mod._key("w", "c", 1, SimulationParams(fault_rate=3e12))
        b = runner_mod._key("w", "c", 1, SimulationParams(fault_rate=3e13))
        c = runner_mod._key(
            "w", "c", 1, SimulationParams(fault_rate=3e13, ecc="none")
        )
        assert len({a, b, c}) == 3


class TestWriteErrorAccounting:
    """Shard write failures are counted, logged once, and breakered —
    never silently swallowed (the old `except OSError: pass`)."""

    @pytest.fixture(autouse=True)
    def fresh_health(self):
        from repro.exec.cache import reset_cache_health

        reset_cache_health()
        yield
        reset_cache_health()

    def _failing_store(self, tmp_path, monkeypatch):
        from repro.exec.cache import ShardedResultCache

        store = ShardedResultCache(tmp_path / "store.d")
        monkeypatch.setattr(
            type(store), "write",
            lambda self, key, result: (_ for _ in ()).throw(
                OSError(28, "no space left on device")
            ),
        )
        return store

    def test_safe_write_counts_errors_and_reports_false(
        self, tmp_path, monkeypatch
    ):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        assert store.safe_write("k", {"v": 1}) is False
        assert cache_health().write_errors == 1

    def test_breaker_opens_after_threshold_and_skips_writes(
        self, tmp_path, monkeypatch
    ):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        for _ in range(3):
            store.safe_write("k", {"v": 1})
        health = cache_health()
        assert health.is_open(store.entry_path("k"))
        # breaker open: the write method is no longer even attempted
        assert store.safe_write("k", {"v": 1}) is False
        assert health.write_errors == 3
        assert health.skipped_writes == 1

    def test_breaker_is_per_shard(self, tmp_path, monkeypatch):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        for _ in range(3):
            store.safe_write("poisoned", {"v": 1})
        assert cache_health().is_open(store.entry_path("poisoned"))
        assert not cache_health().is_open(store.entry_path("healthy"))

    def test_path_logged_once_per_shard(self, tmp_path, monkeypatch, caplog):
        import logging

        store = self._failing_store(tmp_path, monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            store.safe_write("k", {"v": 1})
            store.safe_write("k", {"v": 1})
        write_failed = [
            r for r in caplog.records if "write failed" in r.getMessage()
        ]
        assert len(write_failed) == 1

    def test_success_resets_the_consecutive_count(self, tmp_path):
        from repro.exec.cache import ShardedResultCache, cache_health

        store = ShardedResultCache(tmp_path / "store.d")
        real_write = type(store).write
        # two failures, one success, two failures: never reaches 3 in a row
        health = cache_health()
        path = store.entry_path("k")
        health.record_error(path, OSError(28, "boom"))
        health.record_error(path, OSError(28, "boom"))
        assert store.safe_write("k", {"v": 1}) is True
        health.record_error(path, OSError(28, "boom"))
        health.record_error(path, OSError(28, "boom"))
        assert not health.is_open(path)
        assert real_write is type(store).write  # store untouched

    def test_runner_save_entry_survives_failing_disk(
        self, isolated_cache, monkeypatch
    ):
        from repro.exec import cache as cache_mod

        monkeypatch.setattr(
            cache_mod.ShardedResultCache, "write",
            lambda self, key, result: (_ for _ in ()).throw(
                OSError(28, "no space left on device")
            ),
        )
        counter = []
        set_run_executor(_counting_executor(counter))
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.cycles > 0  # the campaign result is unaffected
        assert cache_mod.cache_health().write_errors >= 1


class TestCacheStats:
    """`cache.stats()` / `runner.cache_stats()` — the cache-info surface."""

    def test_torn_utf8_shard_is_a_miss_not_a_crash(
        self, isolated_cache, monkeypatch
    ):
        """Regression: a shard torn mid-UTF-8 sequence raises
        UnicodeDecodeError (a ValueError, *not* a JSONDecodeError) from
        read_text(); peek_cached must treat it as a quarantined miss."""
        from repro.exec.cache import reset_cache_health

        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        (entry_file,) = _entry_files(isolated_cache)
        entry_file.write_bytes(b'{"key": "\xff\xfe torn mid-sequence')
        _fresh_process(monkeypatch)
        reset_cache_health()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None
        quarantined = list(_shard_dir(isolated_cache).glob("*.corrupt"))
        assert len(quarantined) == 1
        from repro.exec.cache import cache_health

        assert cache_health().quarantined == 1
        assert cache_health().misses >= 1

    def test_store_stats_shape(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        stats = runner_mod._store().stats()
        assert stats["shards"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined_files"] == 0
        for counter in ("hits", "misses", "quarantined", "write_errors",
                        "skipped_writes", "open_breakers"):
            assert counter in stats

    def test_hit_and_miss_counters_move(self, isolated_cache, monkeypatch):
        from repro.exec.cache import cache_health, reset_cache_health

        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        _fresh_process(monkeypatch)
        # skip the bulk read_all() preload so lookups take the per-shard
        # read() path (the one the hit/miss counters instrument)
        monkeypatch.setattr(runner_mod, "_disk_loaded", True)
        reset_cache_health()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS)
        assert cache_health().hits == 1
        assert peek_cached("sphinx", "tsi", scale=65536, params=PARAMS) is None
        assert cache_health().misses == 1

    def test_runner_cache_stats_merges_layers(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        stats = runner_mod.cache_stats()
        assert stats["shards"] == 1
        assert stats["disk_cache_enabled"] is True
        assert stats["memory_entries"] == 1
