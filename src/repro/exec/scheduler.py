"""Multiprocess worker-pool scheduler for simulation jobs.

``run_jobs`` shards a planned job list across ``N`` worker processes
(``--jobs N`` / ``REPRO_JOBS``, defaulting to the machine's core count)
and merges the outcomes back **in plan order**, so parallel campaigns are
bit-identical to serial ones: every job is a deterministic function of
its cache key, and only the completion *order* — which nothing downstream
observes — varies between runs.

Resilience is per job, not per campaign: each worker applies the
campaign layer's :class:`~repro.harness.campaign.RetryPolicy`
(per-attempt timeout, exponential-backoff retries) around its own
simulation, and every finished job persists through the sharded result
cache immediately, so a killed campaign resumes at the granularity of
single (workload, config) pairs.  A failing job never aborts the pool:
the scheduler drains the remaining jobs and reports every failure, so
one bad configuration costs one table, not the whole campaign.

The pool path runs under :mod:`repro.exec.supervisor`: per-job
wall-clock deadlines with watchdog cancellation, ``BrokenProcessPool``
recovery (rebuild the pool, requeue the in-flight jobs), poison-job
quarantine after repeated failed attempts, corrupt-payload detection
with cache invalidation, and SIGTERM/SIGINT graceful drain.  Incidents
surface as ``exec.supervisor.*`` metrics and events; the
:class:`~repro.exec.supervisor.SupervisionReport` of the last run is
available via :func:`last_report`.

Worker processes are forked where available (POSIX), which lets them
inherit the parent's in-memory cache, installed executors, and
monkeypatched test state; ``spawn`` is the fallback elsewhere.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from pathlib import Path

from repro import obs
from repro.obs import telemetry
from repro.chaos import class_counts
from repro.chaos import controller as chaos_controller
from repro.chaos.policy import ChaosPolicy
from repro.exec.cache import cache_health
from repro.exec.job import Job
from repro.exec.progress import ProgressSnapshot
from repro.exec.supervisor import (
    DEFAULT_SUPERVISOR,
    ShutdownFlag,
    SupervisionReport,
    SupervisorPolicy,
    _mp_context,
    _worker_init,
    supervise_pool,
    validate_result,
)
from repro.harness import runner as runner_mod
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.metrics import SimResult


def resolve_jobs(value: Optional[int] = None) -> int:
    """Worker count: explicit value, else ``REPRO_JOBS``, else CPU count."""
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


@dataclass
class JobOutcome:
    """What happened to one job: its result, or why it has none."""

    job: Job
    result: Optional[SimResult]
    error: Optional[str] = None
    source: str = "run"  # "cache" | "run" | "failed" | "quarantined"
    attempts: int = 1  # submissions the supervisor made for this job

    @property
    def ok(self) -> bool:
        return self.error is None


# -- worker-side entry points (top level: picklable under spawn) -------------


def _execute_job(job: Job) -> SimResult:
    """Run one job through the shared result cache (persists its entry).

    A job carrying a :class:`~repro.obs.telemetry.TraceContext` runs
    with it as the ambient context, so the worker's sim tracer stamps
    its place in the distributed trace into the trace-file meta.
    """
    if job.trace is None:
        return job.execute()
    with telemetry.activate(job.trace):
        return job.execute()


def _run_config_item(item) -> SimResult:
    workload, config, params = item
    return run_workload(workload, config, params)


# -- progress accounting -----------------------------------------------------


class _Tracker:
    """Progress accounting over a campaign-scoped metrics registry.

    The registry (``exec.jobs.*`` counters, ``exec.job.wall_ms``
    histogram) is the single source for the done/cached/failed counts,
    the live cache-hit percentage, and the per-job p50 wall clock the
    progress line shows; the optional exec tracer records the job
    lifecycle (queued → running/retry → done) into ``*.exec.jsonl``.
    """

    def __init__(
        self,
        total: int,
        cached: int,
        callback: Optional[Callable[[ProgressSnapshot], None]],
        tracer=None,
    ) -> None:
        self.total = total
        self.running = 0
        self.callback = callback
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        self.registry = obs.MetricsRegistry()
        self._done = self.registry.counter("exec.jobs.done")
        self._cached = self.registry.counter("exec.jobs.cached")
        self._failed = self.registry.counter("exec.jobs.failed")
        self._retried = self.registry.counter("exec.jobs.retried")
        self._wall_ms = self.registry.histogram("exec.job.wall_ms")
        self._done.inc(cached)
        self._cached.inc(cached)
        self._start = time.monotonic()

    @property
    def done(self) -> int:
        return self._done.value

    @property
    def cached(self) -> int:
        return self._cached.value

    @property
    def failed(self) -> int:
        return self._failed.value

    def _now_us(self) -> int:
        return int((time.monotonic() - self._start) * 1e6)

    def _eta(self) -> Optional[float]:
        executed = self.done + self.failed - self.cached
        remaining = self.total - self.done - self.failed
        if executed <= 0 or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        elapsed = time.monotonic() - self._start
        return elapsed / executed * remaining

    def snapshot(self, label: str = "") -> ProgressSnapshot:
        """The current heartbeat (shared by the progress callback and the
        campaign service's NDJSON stream — one struct, two renderers)."""
        finished = self.done + self.failed
        elapsed = time.monotonic() - self._start
        executed = finished - self.cached
        return ProgressSnapshot(
            done=self.done,
            running=self.running,
            failed=self.failed,
            total=self.total,
            cached=self.cached,
            eta_seconds=self._eta(),
            label=label,
            cache_hit_pct=(
                100.0 * self.cached / finished if finished else None
            ),
            p50_wall_ms=(
                float(self._wall_ms.percentile(50))
                if self._wall_ms.total
                else None
            ),
            p95_wall_ms=(
                float(self._wall_ms.percentile(95))
                if self._wall_ms.total
                else None
            ),
            ops_per_sec=(
                executed / elapsed if executed > 0 and elapsed > 0 else None
            ),
            elapsed_s=elapsed,
        )

    def emit(self, label: str = "") -> None:
        if self.callback is None:
            return
        self.callback(self.snapshot(label))

    def step(self, outcome: JobOutcome) -> None:
        label = outcome.job.describe()
        if outcome.ok:
            self._done.inc()
        else:
            self._failed.inc()
        manifest = getattr(outcome.result, "manifest", None) or {}
        if outcome.ok and outcome.source == "run":
            elapsed = manifest.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                self._wall_ms.record(max(0, int(elapsed * 1000)))
            if isinstance(manifest.get("attempts"), int) and manifest["attempts"] > 1:
                self._retried.inc(manifest["attempts"] - 1)
        if self.tracer.enabled:
            ts = self._now_us()
            if not outcome.ok:
                name = (
                    "job.quarantined"
                    if outcome.source == "quarantined"
                    else "job.failed"
                )
                self.tracer.instant(
                    name, "exec", ts, job=label, error=outcome.error
                )
            elif outcome.source == "cache":
                self.tracer.instant("job.cached", "exec", ts, job=label)
            else:
                elapsed = manifest.get("elapsed_s")
                dur = (
                    max(1, int(elapsed * 1e6))
                    if isinstance(elapsed, (int, float))
                    else 1
                )
                attempts = manifest.get("attempts")
                if isinstance(attempts, int) and attempts > 1:
                    self.tracer.instant(
                        "job.retried", "exec", max(0, ts - dur),
                        job=label, attempts=attempts,
                    )
                self.tracer.span(
                    "job.done", "exec", max(0, ts - dur), dur, job=label,
                    source=outcome.source,
                )
        self.emit(label)


# -- the scheduler -----------------------------------------------------------


_LAST_REPORT: Optional[SupervisionReport] = None


def last_report() -> Optional[SupervisionReport]:
    """The :class:`SupervisionReport` of the most recent ``run_jobs``."""
    return _LAST_REPORT


def run_jobs(
    jobs: Sequence[Job],
    *,
    max_workers: Optional[int] = None,
    policy=None,
    progress: Optional[Callable[[ProgressSnapshot], None]] = None,
    supervisor: Optional[SupervisorPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    shutdown: Optional[ShutdownFlag] = None,
) -> List[JobOutcome]:
    """Execute ``jobs``, in parallel when ``max_workers > 1``.

    Returns one :class:`JobOutcome` per input job **in input order**,
    regardless of completion order.  Jobs already satisfied by the result
    cache are served without touching the pool.  Failed jobs (after the
    policy's retries) yield ``error`` outcomes while the rest of the pool
    drains normally; jobs that keep killing their workers are quarantined
    per ``supervisor``.  When ``shutdown`` trips mid-campaign the drain
    stops gracefully and unfinished jobs are simply omitted from the
    outcome list (their cache entries were never written, so a rerun
    resumes them).  ``chaos`` arms deterministic fault injection — see
    :mod:`repro.chaos`.
    """
    global _LAST_REPORT
    jobs = list(jobs)
    supervisor = supervisor if supervisor is not None else DEFAULT_SUPERVISOR
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

    # Serve cache hits in the parent: free, and it keeps resumed campaigns
    # from paying any pool overhead for work that is already done.
    pending: List[int] = []
    for i, job in enumerate(jobs):
        hit = job.peek()
        if hit is not None:
            outcomes[i] = JobOutcome(job, hit, source="cache")
        else:
            pending.append(i)

    tracker = _Tracker(
        len(jobs),
        cached=len(jobs) - len(pending),
        callback=progress,
        tracer=_exec_tracer(),
    )
    if tracker.tracer.enabled:
        # Join (or mint) a distributed trace: campaigns submitted through
        # the service arrive with an ambient context; standalone traced
        # campaigns become their own root.  Pending jobs each get a child
        # context — attached *after* identity-based dedupe/cache peeking,
        # and compare=False, so telemetry never changes what runs.
        root = telemetry.current() or telemetry.TraceContext.new()
        tracker.tracer.meta.update(root.to_meta())
        for i in pending:
            jobs[i] = dataclasses.replace(jobs[i], trace=root.child())
        for i, job in enumerate(jobs):
            if outcomes[i] is not None:
                tracker.tracer.instant(
                    "job.cached", "exec", 0, job=job.describe(),
                    trace_id=root.trace_id,
                )
            else:
                tracker.tracer.instant(
                    "job.queued", "exec", 0, job=job.describe(),
                    trace_id=root.trace_id, span_id=job.trace.span_id,
                    parent_id=job.trace.parent_id,
                )
    workers = min(resolve_jobs(max_workers), max(1, len(pending)))

    report = SupervisionReport()
    try:
        if not pending:
            tracker.emit()
        elif workers <= 1:
            report = _run_serial(
                jobs, pending, outcomes, policy, tracker,
                supervisor=supervisor, chaos=chaos, shutdown=shutdown,
            )
        else:
            report = _run_pool(
                jobs, pending, outcomes, policy, tracker, workers,
                supervisor=supervisor, chaos=chaos, shutdown=shutdown,
            )
    finally:
        _publish_health(tracker, report, chaos)
        _LAST_REPORT = report
        tracker.tracer.close()
    return [outcome for outcome in outcomes if outcome is not None]


def _publish_health(tracker, report, chaos) -> None:
    """Export cache health and chaos-injection totals on the run registry."""
    health = cache_health()
    if health.write_errors:
        tracker.registry.counter("exec.cache.write_error").set(
            health.write_errors
        )
    if health.open_breakers:
        tracker.registry.gauge("exec.cache.breakers_open").set(
            len(health.open_breakers)
        )
    if chaos is not None and report is not None:
        report.chaos_injected = class_counts(chaos.ledger_path)
        for fault, count in sorted(report.chaos_injected.items()):
            tracker.registry.counter(
                "exec.chaos.injected", fault=fault
            ).set(count)


def _exec_tracer():
    """The job-lifecycle tracer (``<trace>.exec.jsonl``), or the shared
    null when ``--trace`` / ``REPRO_TRACE`` is not configured.

    Exec events use microseconds of wall clock since campaign start as
    ``ts`` — Chrome's native unit — so the lifecycle renders on a real
    timeline next to the per-run simulated-cycle traces.
    """
    trace_path, every = obs.trace_settings()
    if trace_path is None:
        return obs.NULL_TRACER
    base = Path(trace_path)
    suffix = base.suffix if base.suffix else ".jsonl"
    path = base.with_name(f"{base.stem}.exec{suffix}")
    return obs.Tracer(
        path, every=every, meta={"scope": "exec"},
        max_bytes=obs.trace_max_bytes(),
    )


def _record(outcomes, i, job, result, error, source=None, attempts=1) -> JobOutcome:
    if error is None:
        runner_mod.seed_cache(
            job.workload, job.config_name, result, scale=job.scale, params=job.params
        )
        outcome = JobOutcome(job, result, source=source or "run", attempts=attempts)
    else:
        outcome = JobOutcome(
            job, None, error=error, source=source or "failed", attempts=attempts
        )
    outcomes[i] = outcome
    return outcome


def _run_serial(
    jobs, pending, outcomes, policy, tracker,
    *, supervisor=DEFAULT_SUPERVISOR, chaos=None, shutdown=None,
) -> SupervisionReport:
    """In-process execution (``--jobs 1``): the reference serial semantics.

    The supervisor's process-level recoveries do not apply here (there
    is no worker to crash), but result validation, corrupt-payload
    invalidation/retry, quarantine, and graceful shutdown all do — so
    ``--jobs 1`` and ``--jobs N`` campaigns make identical promises.
    """
    from repro.harness.campaign import make_resilient_executor

    report = SupervisionReport()
    registry = tracker.registry
    previous = runner_mod._run_executor
    if policy is not None:
        runner_mod.set_run_executor(make_resilient_executor(policy, base=previous))
    if chaos is not None:
        chaos_controller.configure(chaos)
        chaos_controller.install_executor_chaos()
    try:
        for i in pending:
            if shutdown is not None and shutdown.requested:
                report.interrupted = True
                break
            tracker.running = 1
            attempt = 0
            while True:
                attempt += 1
                try:
                    with chaos_controller.job_site(jobs[i].job_id, attempt):
                        result = _execute_job(jobs[i])
                except Exception as exc:  # noqa: BLE001 - any failure is an outcome
                    tracker.step(
                        _record(
                            outcomes, i, jobs[i], None, _describe_error(exc),
                            attempts=attempt,
                        )
                    )
                    break
                problem = validate_result(result)
                if problem is None:
                    tracker.step(
                        _record(outcomes, i, jobs[i], result, None, attempts=attempt)
                    )
                    break
                runner_mod.invalidate(
                    jobs[i].workload, jobs[i].config_name,
                    scale=jobs[i].scale, params=jobs[i].params,
                )
                report.corrupt_results += 1
                registry.counter("exec.supervisor.corrupt_results").inc()
                if attempt >= supervisor.max_attempts:
                    label = jobs[i].describe()
                    report.quarantined.append(label)
                    registry.counter("exec.supervisor.quarantined").inc()
                    tracker.step(
                        _record(
                            outcomes, i, jobs[i], None,
                            f"quarantined after {attempt} failed attempt(s); "
                            f"last failure: corrupt result: {problem}",
                            source="quarantined", attempts=attempt,
                        )
                    )
                    break
                report.requeues += 1
                registry.counter("exec.supervisor.requeues").inc()
            tracker.running = 0
    finally:
        if chaos is not None:
            chaos_controller.uninstall_executor_chaos()
            chaos_controller.deactivate()
        if policy is not None or chaos is not None:
            runner_mod.set_run_executor(previous)
    return report


def _run_pool(
    jobs, pending, outcomes, policy, tracker, workers,
    *, supervisor=DEFAULT_SUPERVISOR, chaos=None, shutdown=None,
) -> SupervisionReport:
    """Pool execution, supervised: crashes, hangs, and poison jobs are
    incidents to recover from, not campaign-enders."""

    def record(i, result, error, source, attempts):
        outcome = _record(
            outcomes, i, jobs[i], result, error, source=source, attempts=attempts
        )
        tracker.step(outcome)
        return outcome

    return supervise_pool(
        jobs, pending, tracker, workers,
        retry_policy=policy, supervisor=supervisor, chaos=chaos,
        shutdown=shutdown, record=record,
    )


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


# -- ad-hoc parallel map for sweeps ------------------------------------------


def run_configs(
    workload: str,
    configs: Sequence,
    params: Optional[SimulationParams],
    *,
    max_workers: Optional[int] = None,
) -> List[SimResult]:
    """Simulate ``workload`` under each explicit :class:`SystemConfig`.

    The parallel backend for :mod:`repro.harness.sweeps`, where configs are
    ad-hoc field overrides with no stable name (hence no cache entry).
    Results come back in config order; errors propagate (a sweep without
    one of its points is not a sweep).
    """
    configs = list(configs)
    workers = min(resolve_jobs(max_workers), max(1, len(configs)))
    items = [(workload, config, params) for config in configs]
    if workers <= 1 or len(configs) <= 1:
        return [_run_config_item(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context()) as pool:
        return list(pool.map(_run_config_item, items))
