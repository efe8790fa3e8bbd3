"""Supervision for the worker pool: deadlines, crash recovery, quarantine.

The PR 2 scheduler assumed workers either finish or raise.  Real fleets
do worse: processes die (``BrokenProcessPool``), wedge forever, return
garbage, and the disk under the result cache tears or fills.  This
module wraps the pool in a supervisor that converts every one of those
into a bounded, observable incident.  Its loop pulls jobs from a source
(a fixed batch for ``run_jobs``, the per-client queues for the campaign
daemon) and keeps one pool across them:

* **watchdog deadlines** — workers append a start marker (PID, attempt)
  to a shared ledger the moment they pick a job up; the supervisor polls
  it and terminates the pool when a job overstays ``deadline`` seconds;
* **crash recovery** — a broken pool is rebuilt and its in-flight jobs
  requeued; only the job whose worker died on its own (by its exit code)
  is charged an attempt, co-flight innocents are requeued for free;
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

import itertools
import math
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

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
    one job before it is quarantined.  ``max_pool_rebuilds`` bounds a
    streak of pool rebuilds that charged no job an attempt (a rebuild
    that charges one is already bounded by that job's ``max_attempts``;
    a recorded job ends the streak).  ``grace`` is how long a graceful
    shutdown waits for in-flight jobs before terminating them.
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
    """What the supervisor saw and did during one supervised loop (one
    ``run_jobs`` call, or a daemon's lifetime)."""

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


def _worker_init(chaos_policy: Optional[ChaosPolicy] = None) -> None:
    """Reset a worker's signal handling; install the chaos seams.

    A forked worker inherits its parent's handlers: the CLI's graceful
    SIGTERM latch, which would make the supervisor's SIGTERM a no-op, and
    the daemon's asyncio wakeup fd, through which a SIGTERM sent to the
    worker would reach the daemon's own loop and drain it.  So SIGTERM
    kills a worker again, and SIGINT (a terminal's Ctrl-C reaches the
    whole process group) is ignored: the parent handles it, and stops
    its workers itself.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if chaos_policy is not None:
        chaos_controller.configure(chaos_policy)
        chaos_controller.install_executor_chaos()


def _supervised_execute(
    job: Job, attempt: int, marker_path: Optional[str], ticket: int = 0
) -> SimResult:
    """Run one job under supervision bookkeeping: the one worker entry
    point, for ``run_jobs`` and the campaign daemon alike.

    The start marker is what gives the parent watchdog a job-accurate
    clock (queue time excluded) and gives crash attribution its ground
    truth: whatever started and never finished was in the blast radius.

    A worker may outlive many jobs (the daemon keeps one pool for its
    whole life), so a copy of this cell in the worker's own memory may be
    one another process has since invalidated: it is dropped first, and
    the job goes to the shard store (or simulates).
    """
    if marker_path:
        ledger_mod.append_jsonl(
            marker_path,
            {
                "ticket": ticket, "job_id": job.job_id, "attempt": attempt,
                "pid": os.getpid(),
            },
        )
    runner_mod.forget(
        job.workload, job.config_name, scale=job.scale, params=job.params
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


class ListSource:
    """A fixed batch of ``(key, job)`` items, the source ``run_jobs`` feeds.

    Closed from the start: nothing is ever added, so the pool loop
    returns once every item has been pulled and recorded.
    """

    closed = True

    def __init__(self, items: Iterable[Tuple[object, Job]]) -> None:
        self._items = deque(items)

    def pull(self, timeout: float) -> Optional[Tuple[object, Job]]:
        return self._items.popleft() if self._items else None


def incident_counters(registry, prefix: str = "exec") -> Dict[str, object]:
    """The supervisor's ``<prefix>.supervisor.*`` incident counters.

    Created by the caller, so a registry another thread renders never
    grows while it is iterated.
    """
    return {
        name: registry.counter(f"{prefix}.supervisor.{name}")
        for name in (
            "pool_rebuilds", "watchdog_kills", "requeues", "quarantined",
            "corrupt_results",
        )
    }


@dataclass
class _Ticket:
    """The supervisor's bookkeeping for one pulled job, dropped once the
    job is recorded."""

    serial: int
    key: object
    job: Job
    attempts: int = 0  # submissions made (uncharged ones are given back)
    started_attempt: int = 0  # per the worker's start marker
    started_at: float = 0.0
    started_pid: int = 0
    last_reason: str = "unknown"


def supervise_pool(
    source,
    tracker,
    workers: int,
    *,
    record: Callable,
    counters: Dict[str, object],
    supervisor: SupervisorPolicy = DEFAULT_SUPERVISOR,
    chaos: Optional[ChaosPolicy] = None,
    shutdown: Optional[ShutdownFlag] = None,
) -> SupervisionReport:
    """Run the jobs ``source`` yields on one supervised pool.

    ``source.pull(timeout)`` returns the next ``(key, job)``, waiting up
    to ``timeout`` seconds for one, or None; ``source.closed`` is true
    once nothing more will be added.  At most ``workers`` jobs are
    submitted at a time, to one pool that is kept across jobs and rebuilt
    only after a crash or a watchdog kill.  The loop returns when the
    source is closed and no job is running, or, once ``shutdown`` trips,
    when the running jobs have finished or the grace window has ended
    (its workers are then terminated).

    ``record(key, result, error, source, attempts)`` receives each job's
    outcome exactly once; jobs left unrecorded on interruption simply
    never ran to completion — the result cache already holds every
    completed job, so the next invocation resumes exactly there.
    ``tracker`` takes incident events (``tracker.event(name, **fields)``)
    and the number of running jobs (``tracker.running``); ``counters``
    are the :func:`incident_counters` to bump.
    """
    report = SupervisionReport()
    event = tracker.event
    marker_dir = tempfile.mkdtemp(prefix=".exec_supervise.")
    marker_path = os.path.join(marker_dir, "started.jsonl")
    marker_offset = 0
    serials = itertools.count(1)
    live: Dict[int, _Ticket] = {}  # pulled and not yet recorded
    retry: Deque[_Ticket] = deque()  # requeued; served before new pulls
    futures: Dict[Future, _Ticket] = {}
    pool: Optional[ProcessPoolExecutor] = None
    processes: Dict[int, object] = {}
    # Rebuilds that charged some job an attempt are bounded by that job's
    # max_attempts; only a streak of rebuilds that charged nobody (and
    # completed nothing) can loop forever, so only that streak is budgeted.
    unpaid_rebuilds = 0
    grace_deadline: Optional[float] = None

    def finish(t: _Ticket, result, error, how: str) -> None:
        nonlocal unpaid_rebuilds
        unpaid_rebuilds = 0
        live.pop(t.serial, None)
        record(t.key, result, error, how, t.attempts)

    def fail_or_requeue(t: _Ticket, reason: str, kind: str) -> None:
        """One attributed failed attempt: retry the job or quarantine it."""
        t.last_reason = reason
        if t.attempts >= supervisor.max_attempts:
            label = t.job.describe()
            report.quarantined.append(label)
            counters["quarantined"].inc()
            event(
                "supervisor.quarantine",
                job=label, attempts=t.attempts, reason=kind,
            )
            finish(
                t, None,
                f"quarantined after {t.attempts} failed attempt(s); "
                f"last failure: {reason}",
                "quarantined",
            )
        else:
            retry.append(t)
            report.requeues += 1
            counters["requeues"].inc()
            event(
                "supervisor.requeue",
                job=t.job.describe(), attempt=t.attempts, reason=kind,
            )

    def refresh_markers(now: float) -> None:
        nonlocal marker_offset
        marker_offset, markers = ledger_mod.read_jsonl(
            marker_path, marker_offset
        )
        for marker in markers:
            t = live.get(marker.get("ticket"))
            if t is not None:
                t.started_attempt = int(marker.get("attempt", 0))
                t.started_at = now
                t.started_pid = int(marker.get("pid", 0))

    def next_ticket(timeout: float) -> Optional[_Ticket]:
        if retry:
            return retry.popleft()
        item = source.pull(timeout)
        if item is None:
            return None
        t = _Ticket(next(serials), *item)
        live[t.serial] = t
        return t

    try:
        while True:
            stopping = shutdown is not None and shutdown.requested
            if stopping and grace_deadline is None:
                report.interrupted = True
                grace_deadline = time.monotonic() + supervisor.grace
                for future in list(futures):
                    if future.cancel():
                        futures.pop(future).attempts -= 1  # never ran
                event(
                    "supervisor.interrupted",
                    signum=shutdown.signum, draining=len(futures),
                )
            broke = False
            while not stopping and len(futures) < workers:
                # idle: wait a tick for work; busy: take only what is ready
                t = next_ticket(0.0 if futures else supervisor.tick)
                if t is None:
                    break
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=_mp_context(),
                        initializer=_worker_init,
                        initargs=(chaos,),
                    )
                    # the live worker table: filled on first submit, kept
                    # by reference for crash attribution after the pool
                    processes = pool._processes
                t.attempts += 1
                try:
                    future = pool.submit(
                        _supervised_execute, t.job, t.attempts, marker_path,
                        t.serial,
                    )
                except (BrokenProcessPool, RuntimeError):
                    t.attempts -= 1
                    retry.appendleft(t)
                    broke = True
                    break
                futures[future] = t
            tracker.running = len(futures)
            if not futures and not broke:
                if stopping or (source.closed and not retry):
                    break
                continue

            broken: List[_Ticket] = []
            hung: Set[int] = set()
            if not broke:
                if stopping and time.monotonic() > grace_deadline:
                    break  # the finally clause terminates the stragglers
                done, _ = wait(
                    list(futures),
                    timeout=supervisor.tick,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                refresh_markers(now)
                for future in done:
                    t = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken.append(t)  # the pool is dead; attribute below
                        broke = True
                    except CorruptResultError as exc:
                        report.corrupt_results += 1
                        counters["corrupt_results"].inc()
                        event(
                            "supervisor.corrupt_result",
                            job=t.job.describe(), attempt=t.attempts,
                        )
                        fail_or_requeue(t, str(exc), "corrupt")
                    except Exception as exc:  # noqa: BLE001 - drain
                        finish(t, None, _describe_error(exc), "failed")
                    else:
                        problem = validate_result(result)
                        if problem is None:
                            finish(t, result, None, "run")
                            continue
                        # Parent-side belt and braces: a worker whose
                        # validation was itself corrupted still cannot
                        # poison the campaign.
                        runner_mod.invalidate(
                            t.job.workload, t.job.config_name,
                            scale=t.job.scale, params=t.job.params,
                        )
                        report.corrupt_results += 1
                        counters["corrupt_results"].inc()
                        fail_or_requeue(
                            t, f"corrupt result: {problem}", "corrupt"
                        )
                tracker.running = len(futures)
                if not broke and supervisor.deadline is not None:
                    hung = {
                        t.serial
                        for t in futures.values()
                        if t.started_attempt == t.attempts
                        and now - t.started_at > supervisor.deadline
                    }
                if not (broke or hung):
                    continue

            # A crash or a watchdog kill: the pool goes, and every job it
            # held is attributed by its start marker and worker exit code.
            worker_exit = _terminate_pool(pool, processes)
            pool = None
            unfinished = broken + list(futures.values())
            futures.clear()
            tracker.running = 0
            report.pool_rebuilds += 1
            counters["pool_rebuilds"].inc()
            if broke:
                report.crash_incidents += 1
            event(
                "supervisor.pool_rebuild",
                reason="watchdog" if hung else "broken_pool",
                unfinished=len(unfinished),
            )
            refresh_markers(time.monotonic())
            charged = False
            for t in unfinished:
                if t.started_attempt != t.attempts:
                    # Never started this attempt: requeue, no penalty.
                    t.attempts -= 1
                    retry.append(t)
                    continue
                if t.serial in hung:
                    report.watchdog_kills += 1
                    counters["watchdog_kills"].inc()
                    event(
                        "supervisor.watchdog_kill",
                        job=t.job.describe(), deadline=supervisor.deadline,
                    )
                    charged = True
                    fail_or_requeue(
                        t,
                        f"exceeded the {supervisor.deadline:g}s "
                        f"deadline (watchdog kill)",
                        "hang",
                    )
                    continue
                code = worker_exit.get(t.started_pid)
                if _died_on_its_own(code):
                    charged = True
                    fail_or_requeue(
                        t, f"worker process crashed (exit code {code})",
                        "crash",
                    )
                else:
                    # Started, but its worker was terminated by the
                    # cleanup, not by its own death: an innocent
                    # co-flight of the crash.  Requeue, no penalty.
                    t.attempts -= 1
                    retry.append(t)
                    report.requeues += 1
                    counters["requeues"].inc()
                    event(
                        "supervisor.requeue",
                        job=t.job.describe(), attempt=t.attempts + 1,
                        reason="collateral",
                    )
            if charged:
                unpaid_rebuilds = 0
                continue
            unpaid_rebuilds += 1
            if unpaid_rebuilds > supervisor.max_pool_rebuilds:
                # The pool keeps dying with no job to blame: fail what is
                # waiting now rather than rebuild forever.
                stranded = list(retry)
                retry.clear()
                while True:
                    t = next_ticket(0.0)
                    if t is None:
                        break
                    stranded.append(t)
                for t in stranded:
                    finish(
                        t, None,
                        f"supervisor: pool rebuild budget "
                        f"({supervisor.max_pool_rebuilds}) exhausted; "
                        f"last failure: {t.last_reason}",
                        "failed",
                    )
    finally:
        if pool is not None:
            if futures:
                _terminate_pool(pool, processes)
            else:
                pool.shutdown(wait=True)
        tracker.running = 0
        shutil.rmtree(marker_dir, ignore_errors=True)
    return report


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
