"""Supervision for the worker pool: deadlines, crash recovery, quarantine.

The PR 2 scheduler assumed workers either finish or raise.  Real fleets
do worse: processes die (``BrokenProcessPool``), wedge forever, return
garbage, and the disk under the result cache tears or fills.  This
module wraps the pool in a supervisor that converts every one of those
into a bounded, observable incident:

* **watchdog deadlines** — workers append a start marker (PID, attempt)
  to a shared ledger the moment they pick a job up; the supervisor polls
  it and terminates the pool when a job overstays ``deadline`` seconds;
* **crash recovery** — a broken pool is rebuilt and its in-flight jobs
  requeued, with the incident counted against each job that had actually
  started (conservative attribution: co-flight innocents are retried at
  worst, never lost);
* **poison-job quarantine** — a job whose attempts keep dying is
  quarantined after ``max_attempts``: the campaign drains and the exit
  report names it, instead of the whole run aborting;
* **payload validation** — results are sanity-checked (finite cycles,
  rates in [0, 1]) in the worker *and* the parent; a corrupt payload is
  invalidated from the cache and the job requeued;
* **graceful shutdown** — SIGTERM/SIGINT stop new submissions, give
  running jobs a grace window to finish (each persists its own cache
  shard), and leave the campaign resumable bit-identically.

Every incident emits an ``exec.supervisor.*`` metric and a structured
event on the campaign's ``*.exec.jsonl`` trace.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.chaos import ledger as ledger_mod
from repro.chaos import controller as chaos_controller
from repro.chaos.policy import ChaosPolicy
from repro.exec.job import Job
from repro.harness import runner as runner_mod
from repro.obs import telemetry
from repro.sim.metrics import SimResult


class CorruptResultError(Exception):
    """A job's result payload failed validation (and was invalidated)."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for pool supervision.

    ``deadline`` is the per-job wall-clock budget the watchdog enforces
    (None disables it).  ``max_attempts`` counts *started* submissions of
    one job before it is quarantined.  ``max_pool_rebuilds`` bounds
    crash/hang recovery for the whole campaign.  ``grace`` is how long a
    graceful shutdown waits for in-flight jobs before terminating them.
    """

    deadline: Optional[float] = None
    max_attempts: int = 3
    max_pool_rebuilds: int = 20
    tick: float = 0.25
    grace: float = 10.0


DEFAULT_SUPERVISOR = SupervisorPolicy()

# How long pool teardown waits for a broken pool's own reaper thread.
_REAP_TIMEOUT_S = 5.0


@dataclass
class SupervisionReport:
    """What the supervisor saw and did during one ``run_jobs`` call."""

    pool_rebuilds: int = 0
    crash_incidents: int = 0
    watchdog_kills: int = 0
    requeues: int = 0
    corrupt_results: int = 0
    quarantined: List[str] = field(default_factory=list)
    interrupted: bool = False
    chaos_injected: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        bits = []
        if self.crash_incidents:
            bits.append(f"{self.crash_incidents} crash(es)")
        if self.watchdog_kills:
            bits.append(f"{self.watchdog_kills} watchdog kill(s)")
        if self.corrupt_results:
            bits.append(f"{self.corrupt_results} corrupt result(s)")
        if self.pool_rebuilds:
            bits.append(f"{self.pool_rebuilds} pool rebuild(s)")
        if self.requeues:
            bits.append(f"{self.requeues} requeue(s)")
        if self.quarantined:
            bits.append(f"{len(self.quarantined)} quarantined")
        if self.interrupted:
            bits.append("interrupted")
        return ", ".join(bits) if bits else "no incidents"


# ---------------------------------------------------------------------------
# graceful shutdown


class ShutdownFlag:
    """Latched by the signal handler, polled by the supervisor loop."""

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self.count = 0

    def trip(self, signum: int) -> None:
        self.signum = signum
        self.count += 1

    @property
    def requested(self) -> bool:
        return self.signum is not None


@contextmanager
def graceful_signals(
    flag: ShutdownFlag,
    signums: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
):
    """Route SIGINT/SIGTERM into ``flag`` for the duration of a campaign.

    The first signal requests a graceful stop (drain in-flight jobs,
    checkpoint, exit); a second one falls back to ``KeyboardInterrupt``
    for users who really mean *now*.  Outside the main thread (where
    signal handlers cannot be installed) this degrades to a no-op.
    """

    def _handler(signum, _frame):
        flag.trip(signum)
        if flag.count >= 2:
            raise KeyboardInterrupt

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:  # not the main thread
        previous = {}
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


# ---------------------------------------------------------------------------
# result validation


def validate_result(result) -> Optional[str]:
    """Why ``result`` is not a sane :class:`SimResult`, or None if it is.

    This is the detection side of the ``exec.corrupt`` failure class:
    cheap structural invariants every real simulation satisfies, strict
    enough to catch garbled payloads (chaos-injected or otherwise)
    before they poison a table or the result cache.
    """
    if not isinstance(result, SimResult):
        return f"payload is {type(result).__name__}, not SimResult"
    for name in ("cycles", "energy_nj"):
        value = getattr(result, name)
        if (
            not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            return f"{name}={value!r} is not a finite non-negative number"
    if result.cycles <= 0:
        return f"cycles={result.cycles!r} is not positive"
    if not isinstance(result.instructions, int) or result.instructions < 0:
        return f"instructions={result.instructions!r} is negative"
    for name in ("l3_hit_rate", "l4_hit_rate"):
        rate = getattr(result, name)
        if (
            not isinstance(rate, (int, float))
            or not math.isfinite(rate)
            or not 0.0 <= rate <= 1.0
        ):
            return f"{name}={rate!r} is outside [0, 1]"
    ipcs = result.per_core_ipc
    if not isinstance(ipcs, (list, tuple)) or not ipcs:
        return f"per_core_ipc={ipcs!r} is not a non-empty list"
    for ipc in ipcs:
        if (
            not isinstance(ipc, (int, float))
            or not math.isfinite(ipc)
            or ipc < 0
        ):
            return f"per_core_ipc contains {ipc!r}"
    return None


# ---------------------------------------------------------------------------
# worker-side entry points (top level: picklable under spawn)


def _worker_init(policy, chaos_policy: Optional[ChaosPolicy] = None) -> None:
    """Install the retry policy and (if any) the chaos seams in a worker."""
    if policy is not None:
        from repro.harness.campaign import install_retry_executor

        install_retry_executor(policy)
    if chaos_policy is not None:
        chaos_controller.configure(chaos_policy)
        chaos_controller.install_executor_chaos()


def _supervised_execute(
    job: Job, attempt: int, marker_path: Optional[str]
) -> SimResult:
    """Run one job under supervision bookkeeping.

    The start marker is what gives the parent watchdog a job-accurate
    clock (queue time excluded) and gives crash attribution its ground
    truth: whatever started and never finished was in the blast radius.
    """
    if marker_path:
        ledger_mod.append_jsonl(
            marker_path,
            {"job_id": job.job_id, "attempt": attempt, "pid": os.getpid()},
        )
    with chaos_controller.job_site(job.job_id, attempt):
        # restore the job's distributed-trace coordinates as this
        # worker's ambient context (no-op for an untraced job)
        with telemetry.activate(job.trace):
            result = job.execute()
    problem = validate_result(result)
    if problem is not None:
        # The poisoned value reached the cache inside job.execute();
        # scrub it here, where we still know it is poisoned.
        runner_mod.invalidate(
            job.workload, job.config_name, scale=job.scale, params=job.params
        )
        raise CorruptResultError(f"{job.describe()}: {problem}")
    return result


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _terminate_pool(
    pool: ProcessPoolExecutor, processes: Dict[int, object]
) -> Dict[int, Optional[int]]:
    """Forcibly stop a pool whose workers cannot be trusted to return.

    Returns ``{pid: exitcode}`` for the pool's workers.  Exit codes are
    the crash-attribution evidence: a worker that died *on its own*
    (segfault, ``os._exit``, OOM kill) keeps its own exit code, while
    innocents terminated here (or by the pool's own broken-state cleanup)
    show ``-SIGTERM`` — so the supervisor can penalize only the job whose
    worker actually crashed.

    ``processes`` is the pool's worker table, captured when the pool was
    built (``shutdown`` drops the pool's own reference to it).  A broken
    pool's manager thread reaps its workers concurrently with this
    function; a ``waitpid`` racing it sees ``ECHILD`` and reads exit code
    None, which would make the culprit look innocent.  So the exit codes
    are read only after that thread has finished storing them.
    """
    workers = list(processes.values())
    for process in workers:
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead processes etc.
            pass
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        manager.join(_REAP_TIMEOUT_S)
    exit_codes: Dict[int, Optional[int]] = {}
    for process in workers:
        try:
            process.join(2.0)
            exit_codes[process.pid] = process.exitcode
        except Exception:  # noqa: BLE001
            pass
    return exit_codes


def _died_on_its_own(code: Optional[int]) -> bool:
    """Whether a worker exit code indicates a self-inflicted death (the
    crash culprit) rather than a clean exit or a supervisor SIGTERM."""
    return code is not None and code not in (0, -signal.SIGTERM)


# ---------------------------------------------------------------------------
# the supervised pool loop


def supervise_pool(
    jobs: Sequence[Job],
    pending: Sequence[int],
    tracker,
    workers: int,
    *,
    retry_policy=None,
    supervisor: SupervisorPolicy = DEFAULT_SUPERVISOR,
    chaos: Optional[ChaosPolicy] = None,
    shutdown: Optional[ShutdownFlag] = None,
    record: Callable,
) -> SupervisionReport:
    """Run ``pending`` on a supervised pool; outcomes go through ``record``.

    ``record(index, result, error, source, attempts)`` is the scheduler's
    callback that builds the :class:`~repro.exec.scheduler.JobOutcome`,
    seeds the result cache, and updates progress.  Jobs left unrecorded
    on interruption simply stay pending — the result cache already holds
    every completed job, so the next invocation resumes exactly there.
    """
    report = SupervisionReport()
    registry = tracker.registry
    c_rebuilds = registry.counter("exec.supervisor.pool_rebuilds")
    c_watchdog = registry.counter("exec.supervisor.watchdog_kills")
    c_requeue = registry.counter("exec.supervisor.requeues")
    c_quarantined = registry.counter("exec.supervisor.quarantined")
    c_corrupt = registry.counter("exec.supervisor.corrupt_results")
    tracer = tracker.tracer

    def event(name: str, **fields) -> None:
        if tracer.enabled:
            tracer.instant(name, "exec", tracker._now_us(), **fields)

    marker_dir = tempfile.mkdtemp(prefix=".exec_supervise.")
    marker_path = os.path.join(marker_dir, "started.jsonl")
    marker_offset = 0
    by_id = {jobs[i].job_id: i for i in pending}
    attempts: Dict[int, int] = {i: 0 for i in pending}
    started_attempt: Dict[int, int] = {}
    started_at: Dict[int, float] = {}
    started_pid: Dict[int, int] = {}
    last_reason: Dict[int, str] = {}
    queue = deque(pending)
    grace_deadline: Optional[float] = None

    def fail_or_requeue(i: int, reason: str, kind: str) -> None:
        """One attributed failed attempt: retry the job or quarantine it."""
        last_reason[i] = reason
        if attempts[i] >= supervisor.max_attempts:
            label = jobs[i].describe()
            report.quarantined.append(label)
            c_quarantined.inc()
            event(
                "supervisor.quarantine",
                job=label, attempts=attempts[i], reason=kind,
            )
            record(
                i, None,
                f"quarantined after {attempts[i]} failed attempt(s); "
                f"last failure: {reason}",
                "quarantined", attempts[i],
            )
        else:
            queue.append(i)
            report.requeues += 1
            c_requeue.inc()
            event(
                "supervisor.requeue",
                job=jobs[i].describe(), attempt=attempts[i], reason=kind,
            )

    def refresh_markers(now: float) -> None:
        nonlocal marker_offset
        marker_offset, markers = ledger_mod.read_jsonl(
            marker_path, marker_offset
        )
        for marker in markers:
            i = by_id.get(marker.get("job_id"))
            if i is not None:
                started_attempt[i] = int(marker.get("attempt", 0))
                started_at[i] = now
                started_pid[i] = int(marker.get("pid", 0))

    try:
        while queue:
            if shutdown is not None and shutdown.requested:
                report.interrupted = True
                break
            if report.pool_rebuilds > supervisor.max_pool_rebuilds:
                while queue:
                    i = queue.popleft()
                    record(
                        i, None,
                        f"supervisor: pool rebuild budget "
                        f"({supervisor.max_pool_rebuilds}) exhausted; "
                        f"last failure: {last_reason.get(i, 'unknown')}",
                        "failed", attempts[i],
                    )
                break
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(queue)),
                mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(retry_policy, chaos),
            )
            # the live worker table: filled on first submit, kept by
            # reference for crash attribution after the pool is gone
            processes = pool._processes
            futures: Dict[object, int] = {}
            broke = False
            broken_idx: List[int] = []
            hung: Set[int] = set()
            worker_exit: Dict[int, Optional[int]] = {}
            try:
                while queue and not broke:
                    i = queue.popleft()
                    attempts[i] += 1
                    try:
                        future = pool.submit(
                            _supervised_execute, jobs[i], attempts[i],
                            marker_path,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        attempts[i] -= 1
                        queue.appendleft(i)
                        broke = True
                        break
                    futures[future] = i
                while futures:
                    if shutdown is not None and shutdown.requested:
                        if grace_deadline is None:
                            report.interrupted = True
                            grace_deadline = (
                                time.monotonic() + supervisor.grace
                            )
                            for future in list(futures):
                                if future.cancel():
                                    i = futures.pop(future)
                                    attempts[i] -= 1  # never actually ran
                            event(
                                "supervisor.interrupted",
                                signum=shutdown.signum,
                                draining=len(futures),
                            )
                        if time.monotonic() > grace_deadline:
                            break
                    done, _ = wait(
                        list(futures),
                        timeout=supervisor.tick,
                        return_when=FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    refresh_markers(now)
                    for future in done:
                        i = futures.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken_idx.append(i)
                            broke = True
                            break  # the pool is dead; so is everything in it
                        except CorruptResultError as exc:
                            report.corrupt_results += 1
                            c_corrupt.inc()
                            event(
                                "supervisor.corrupt_result",
                                job=jobs[i].describe(), attempt=attempts[i],
                            )
                            fail_or_requeue(i, str(exc), "corrupt")
                        except Exception as exc:  # noqa: BLE001 - drain
                            record(
                                i, None, _describe_error(exc), "failed",
                                attempts[i],
                            )
                        else:
                            problem = validate_result(result)
                            if problem is not None:
                                # Parent-side belt and braces: a worker
                                # whose validation was itself corrupted
                                # still cannot poison the campaign.
                                runner_mod.invalidate(
                                    jobs[i].workload, jobs[i].config_name,
                                    scale=jobs[i].scale,
                                    params=jobs[i].params,
                                )
                                report.corrupt_results += 1
                                c_corrupt.inc()
                                fail_or_requeue(
                                    i, f"corrupt result: {problem}",
                                    "corrupt",
                                )
                            else:
                                record(
                                    i, result, None, "run", attempts[i]
                                )
                    tracker.running = len(futures)
                    if broke:
                        break
                    if supervisor.deadline is not None:
                        for future, i in list(futures.items()):
                            if (
                                started_attempt.get(i) == attempts[i]
                                and now - started_at.get(i, now)
                                > supervisor.deadline
                            ):
                                hung.add(i)
                        if hung:
                            break
            finally:
                if broke or hung or futures:
                    worker_exit = _terminate_pool(pool, processes)
                else:
                    pool.shutdown(wait=True)

            unfinished = broken_idx + list(futures.values())
            if broke or hung:
                report.pool_rebuilds += 1
                c_rebuilds.inc()
                if broke:
                    report.crash_incidents += 1
                event(
                    "supervisor.pool_rebuild",
                    reason="watchdog" if hung else "broken_pool",
                    unfinished=len(unfinished),
                )
                refresh_markers(time.monotonic())
                for i in unfinished:
                    if started_attempt.get(i) != attempts[i]:
                        # Never started this attempt: requeue, no penalty.
                        attempts[i] -= 1
                        queue.append(i)
                        continue
                    if i in hung:
                        report.watchdog_kills += 1
                        c_watchdog.inc()
                        event(
                            "supervisor.watchdog_kill",
                            job=jobs[i].describe(),
                            deadline=supervisor.deadline,
                        )
                        fail_or_requeue(
                            i,
                            f"exceeded the {supervisor.deadline:g}s "
                            f"deadline (watchdog kill)",
                            "hang",
                        )
                        continue
                    code = worker_exit.get(started_pid.get(i, -1))
                    if _died_on_its_own(code):
                        fail_or_requeue(
                            i,
                            f"worker process crashed (exit code {code})",
                            "crash",
                        )
                    else:
                        # Started, but its worker was terminated by the
                        # cleanup, not by its own death: an innocent
                        # co-flight of the crash.  Requeue, no penalty.
                        attempts[i] -= 1
                        queue.append(i)
                        report.requeues += 1
                        c_requeue.inc()
                        event(
                            "supervisor.requeue",
                            job=jobs[i].describe(),
                            attempt=attempts[i] + 1,
                            reason="collateral",
                        )
            elif report.interrupted:
                break
        tracker.running = 0
    finally:
        shutil.rmtree(marker_dir, ignore_errors=True)
    return report


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
