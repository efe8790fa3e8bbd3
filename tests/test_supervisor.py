"""Supervisor tests: crashes rebuild the pool, hangs are watchdog-killed,
poison jobs are quarantined, corrupt results are invalidated and retried,
and recovered campaigns stay bit-identical to undisturbed ones."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import signal

import pytest

import repro.harness.runner as runner_mod
from repro.chaos import ChaosPolicy
from repro.chaos import controller
from repro.exec import (
    ShutdownFlag,
    SupervisorPolicy,
    graceful_signals,
    last_report,
    make_job,
    run_jobs,
    validate_result,
)
from repro.harness.runner import resolve_config, set_run_executor
from repro.sim.engine import SimulationParams, run_workload

TINY = SimulationParams(accesses_per_core=120, seed=9)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    monkeypatch.setattr(runner_mod, "_disk_loaded", False)
    monkeypatch.setattr(runner_mod, "_disk_store", {})
    runner_mod._memory_cache.clear()
    yield cache_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)
    controller.deactivate()


def _jobs(n=3):
    pairs = [
        ("sphinx", "base"), ("sphinx", "dice"), ("mcf", "base"),
        ("mcf", "dice"), ("lbm", "base"),
    ]
    return [make_job(wl, cfg, params=TINY) for wl, cfg in pairs[:n]]


def _inherit_then_init():
    import os
    import socket

    from repro.exec.supervisor import _worker_init

    with graceful_signals(ShutdownFlag()):
        ours, _theirs = socket.socketpair()
        ours.setblocking(False)
        signal.set_wakeup_fd(ours.fileno())
        _worker_init()
        ok = (
            signal.set_wakeup_fd(-1) == -1
            and signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            and signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        )
        os._exit(0 if ok else 1)


def _forced(tmp_path, fault, job, **kw):
    """A policy that injects ``fault`` once, on ``job``'s first attempt."""
    return ChaosPolicy(
        rate=0.0,
        forced=((fault, job.job_id),),
        ledger_path=str(tmp_path / "ledger.jsonl"),
        **kw,
    )


class TestValidateResult:
    def _good(self):
        return run_workload("sphinx", resolve_config("base", 4096), TINY)

    def test_real_result_passes(self):
        assert validate_result(self._good()) is None

    def test_non_result_fails(self):
        assert validate_result({"cycles": 1}) is not None
        assert validate_result(None) is not None

    def test_poisoned_cycles_fail(self):
        bad = dataclasses.replace(self._good(), cycles=-1.0)
        assert "cycles" in validate_result(bad)

    def test_nan_energy_fails(self):
        bad = dataclasses.replace(self._good(), energy_nj=math.nan)
        assert "energy_nj" in validate_result(bad)

    def test_hit_rate_outside_unit_interval_fails(self):
        bad = dataclasses.replace(self._good(), l4_hit_rate=1.5)
        assert "l4_hit_rate" in validate_result(bad)

    def test_negative_ipc_fails(self):
        bad = dataclasses.replace(self._good(), per_core_ipc=[0.5, -0.1])
        assert "per_core_ipc" in validate_result(bad)


class TestCrashRecovery:
    @pytest.mark.parametrize("workers", [2])
    def test_forced_crash_is_retried_and_campaign_completes(
        self, isolated_cache, tmp_path, workers
    ):
        jobs = _jobs(4)
        chaos = _forced(tmp_path, "crash", jobs[1])
        outcomes = run_jobs(jobs, max_workers=workers, chaos=chaos)
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        report = last_report()
        assert report.crash_incidents >= 1
        assert report.pool_rebuilds >= 1
        assert not report.quarantined
        crashed = outcomes[1]
        assert crashed.attempts == 2  # attempt 1 died, attempt 2 finished
        assert report.chaos_injected.get("crash") == 1

    def test_recovered_results_match_undisturbed_run(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        chaos = _forced(tmp_path, "crash", jobs[0])
        chaotic = run_jobs(jobs, max_workers=2, chaos=chaos)
        runner_mod.clear_cache(disk=True)
        plain = run_jobs(jobs, max_workers=2)
        for a, b in zip(chaotic, plain):
            assert a.result == b.result

    def test_persistent_crasher_is_quarantined_but_drains_the_rest(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        # rate 1.0 on the crash class alone: the worker dies on *every*
        # attempt of every job — quarantine is the only way to drain
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("crash",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        supervisor = SupervisorPolicy(max_attempts=2)
        outcomes = run_jobs(
            jobs, max_workers=2, chaos=chaos, supervisor=supervisor
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.source == "quarantined" for o in outcomes)
        assert all("quarantined after 2" in o.error for o in outcomes)
        report = last_report()
        assert sorted(report.quarantined) == sorted(
            j.describe() for j in jobs
        )


class TestWatchdog:
    def test_hung_worker_is_killed_and_job_retried(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        chaos = _forced(tmp_path, "hang", jobs[2], hang_seconds=60.0)
        outcomes = run_jobs(
            jobs,
            max_workers=2,
            chaos=chaos,
            supervisor=SupervisorPolicy(deadline=1.5),
        )
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        report = last_report()
        assert report.watchdog_kills >= 1
        assert outcomes[2].attempts == 2

    def test_deadline_is_enforced_at_one_worker(
        self, isolated_cache, tmp_path
    ):
        # a deadline needs a process it can kill, so even one worker runs
        # on the supervised pool rather than in-process
        jobs = _jobs(1)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("hang",),
            max_faulty_attempts=99,
            hang_seconds=60.0,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        outcomes = run_jobs(
            jobs,
            max_workers=1,
            chaos=chaos,
            supervisor=SupervisorPolicy(deadline=1.5, max_attempts=2),
        )
        assert outcomes[0].source == "quarantined"
        assert "deadline" in outcomes[0].error
        report = last_report()
        assert report.watchdog_kills >= 1
        assert report.quarantined == [jobs[0].describe()]

    def test_charged_rebuilds_do_not_spend_the_rebuild_budget(
        self, isolated_cache, tmp_path
    ):
        # every job hangs once; at one worker each watchdog kill is a pool
        # rebuild, but one charged to the hung job, so three of them must
        # not exhaust a budget of two and fail the jobs still queued
        jobs = _jobs(3)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("hang",),
            max_faulty_attempts=1,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        outcomes = run_jobs(
            jobs,
            max_workers=1,
            chaos=chaos,
            supervisor=SupervisorPolicy(deadline=1.0, max_pool_rebuilds=2),
        )
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        assert [o.attempts for o in outcomes] == [2] * len(jobs)
        assert last_report().watchdog_kills == len(jobs)

    def test_watchdog_kill_lands_under_graceful_signals(
        self, isolated_cache, tmp_path
    ):
        # a forked worker must not keep the campaign's SIGTERM latch: the
        # supervisor's SIGTERM has to stop a hung worker, not be ignored
        before = {p.pid for p in multiprocessing.active_children()}
        jobs = _jobs(1)
        chaos = _forced(tmp_path, "hang", jobs[0], hang_seconds=30.0)
        with graceful_signals(ShutdownFlag()):
            outcomes = run_jobs(
                jobs, max_workers=1, chaos=chaos,
                supervisor=SupervisorPolicy(deadline=1.0),
            )
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert not [
            p for p in multiprocessing.active_children()
            if p.pid not in before
        ]

    def test_worker_signal_handling_is_reset(self):
        # run in a child that first installs what a worker inherits from
        # `cli all` (the graceful latch) and from `cli serve` (a wakeup fd)
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_inherit_then_init)
        child.start()
        child.join(30)
        assert child.exitcode == 0

    def test_no_deadline_means_no_watchdog(self, isolated_cache):
        outcomes = run_jobs(_jobs(2), max_workers=2)
        assert last_report().watchdog_kills == 0
        assert all(o.ok for o in outcomes)


class TestCorruptResults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_payload_is_invalidated_and_retried(
        self, isolated_cache, tmp_path, workers
    ):
        jobs = _jobs(2)
        chaos = _forced(tmp_path, "corrupt", jobs[0])
        outcomes = run_jobs(jobs, max_workers=workers, chaos=chaos)
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].attempts == 2
        assert last_report().corrupt_results >= 1
        # the poisoned value must not have survived anywhere: a cold
        # re-read of the store serves the clean retry result
        runner_mod.drop_memory_state()
        again = run_jobs(jobs, max_workers=1)
        assert again[0].source == "cache"
        assert again[0].result == outcomes[0].result
        assert validate_result(again[0].result) is None

    def test_serial_persistent_corruption_quarantines(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(1)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("corrupt",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        outcomes = run_jobs(
            jobs,
            max_workers=1,
            chaos=chaos,
            supervisor=SupervisorPolicy(max_attempts=2),
        )
        assert outcomes[0].source == "quarantined"
        assert "corrupt" in outcomes[0].error


class TestGracefulShutdown:
    def test_pre_tripped_flag_runs_nothing(self, isolated_cache):
        flag = ShutdownFlag()
        flag.trip(signal.SIGTERM)
        outcomes = run_jobs(_jobs(3), max_workers=2, shutdown=flag)
        assert outcomes == []  # nothing ran, nothing failed
        assert last_report().interrupted

    def test_serial_checks_between_jobs(self, isolated_cache):
        flag = ShutdownFlag()
        flag.trip(signal.SIGINT)
        outcomes = run_jobs(_jobs(2), max_workers=1, shutdown=flag)
        assert outcomes == []
        assert last_report().interrupted

    def test_graceful_signals_latch_and_restore(self):
        flag = ShutdownFlag()
        previous = signal.getsignal(signal.SIGTERM)
        with graceful_signals(flag):
            signal.raise_signal(signal.SIGTERM)
            assert flag.requested
            assert flag.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_second_signal_escalates(self):
        flag = ShutdownFlag()
        with graceful_signals(flag):
            signal.raise_signal(signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)


class TestOutcomeBookkeeping:
    def test_attempts_default_to_one_on_clean_runs(self, isolated_cache):
        outcomes = run_jobs(_jobs(2), max_workers=2)
        assert all(o.attempts == 1 for o in outcomes)
        assert last_report().describe() == "no incidents"

    def test_quarantine_emits_metric(self, isolated_cache, tmp_path):
        jobs = _jobs(2)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("crash",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        run_jobs(
            jobs, max_workers=2, chaos=chaos,
            supervisor=SupervisorPolicy(max_attempts=2),
        )
        report = last_report()
        assert len(report.quarantined) == 2
        assert report.chaos_injected.get("crash", 0) >= 2
