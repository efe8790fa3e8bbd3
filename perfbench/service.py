"""service-fig10: ``cli serve --port 0 --jobs 2`` on a private cache, driven
by one ``ServiceClient`` in a closed loop.

Set-up is timed from spawning a daemon to its first ``/healthz`` answer,
over several daemons.  The last of them runs the cold
``run_campaign(experiments=["fig10"], accesses=300)`` on an empty cache,
then takes a fixed number of warm resubmissions, with a
short-lived daemon spawned for another set-up sample every
``SETUP_EVERY_WARM`` of them.  The run's length is set by that work
(about 25 s on a calm 2-vCPU host), not by ``--seconds``.  Host-speed
reference work runs on a thread during the daemon spawns and the cold
campaign, and between the warm resubmissions, when this process is busy
as the client (see ``hostspeed``); every time is reported in calm-host
seconds.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from cells import (
    cell_accesses,
    fig10_paper_error,
    job_p50_s,
    job_seconds,
    mean_seconds,
    num_cores,
    throughputs,
)
from common import (
    JOBS,
    BenchError,
    HostNoise,
    check_result,
    child_env,
    peak_rss_mb,
    percentile,
    samples_beyond,
    sim_digest,
    workdir,
)
from outcome import Outcome

EXPERIMENT = "fig10"
ACCESSES_PER_CORE = 300
SETUP_SAMPLES = 3
# A fixed count, not a time budget: the daemon keeps every campaign it
# served (about 0.4 MB each here), so peak RSS depends on how many ran.
# 200 leaves 10 samples beyond the 95th percentile.
WARM_RESUBMISSIONS = 200
SETUP_EVERY_WARM = 40
TRACED_WARM = 50
ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")
COUNTERS = {
    "service.jobs_executed": "service.jobs.executed",
    "service.jobs_cached": "service.jobs.cached",
    "service.jobs_deduped": "service.jobs.deduped",
    "service.jobs_failed": "service.jobs.failed",
    "service.jobs_retried": "service.jobs.retried",
    "service.pool_rebuilds": "service.supervisor.pool_rebuilds",
    "service.http_errors": "service.http.errors",
    "service.rejected": "service.backpressure.rejected",
    "service.store_promoted": "service.store.promoted",
}


class Daemon:
    """One ``cli serve`` subprocess on an ephemeral port."""

    def __init__(self, wd: Path) -> None:
        from repro.service.client import ServiceClient, ServiceError

        wd.mkdir()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness.cli", "serve",
                "--port", "0", "--jobs", str(JOBS),
                "--checkpoint", str(wd / "checkpoint.json"),
            ],
            cwd=wd, env=child_env(wd), stderr=subprocess.PIPE, text=True,
        )
        self._announced = threading.Event()
        self.address = None
        self._pump = threading.Thread(target=self._read_stderr, daemon=True)
        self._pump.start()
        try:
            if not self._announced.wait(60) or self.address is None:
                raise BenchError("the daemon never announced its port")
            self.client = ServiceClient(*self.address, timeout=170.0)
            while True:
                try:
                    self.client.healthz()
                    break
                except (OSError, ServiceError):
                    if time.perf_counter() - started > 60:
                        raise BenchError("the daemon never became healthy")
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            match = ANNOUNCE.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._announced.set()
        self._announced.set()

    def stop(self) -> None:
        """SIGTERM, wait for the drain, reap every process it started."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=10)
        self.proc.stderr.close()


def _submit_kwargs(seed: int) -> Dict[str, object]:
    return {
        "experiments": [EXPERIMENT], "accesses": ACCESSES_PER_CORE,
        "seed": seed, "client": "perfbench",
    }


def _cells(doc) -> Dict[tuple, dict]:
    return {
        (r["workload"], r["config_name"]): r
        for r in doc["results"].values() if r is not None
    }


def _cold(daemon: Daemon, seed: int, outcome: Outcome):
    started = time.perf_counter()
    doc = daemon.client.run_campaign(**_submit_kwargs(seed))
    wall = time.perf_counter() - started
    final = doc.get("final") or {}
    jobs = int(doc["submitted"].get("jobs", 0))
    results = _cells(doc)
    for job_id, result in doc["results"].items():
        problems = (
            ["no result"] if result is None
            else check_result(result, num_cores(result["config_name"]))
        )
        outcome.record(f"job {job_id}", problems)
    if final.get("status") != "completed" or final.get("failed") or len(results) != jobs:
        outcome.record("cold campaign", [f"ended {final}"])
    return wall, doc, results


def _warm(daemon: Daemon, seed: int, cold_doc, outcome: Outcome) -> float:
    started = time.perf_counter()
    doc = daemon.client.run_campaign(**_submit_kwargs(seed))
    wall = time.perf_counter() - started
    submitted = doc["submitted"]
    problems = []
    if not submitted.get("cached") == submitted.get("jobs") == len(cold_doc["results"]):
        problems.append(f"not all cached: {submitted}")
    if doc["results"] != cold_doc["results"]:
        problems.append("results differ from the cold submission")
    outcome.record("warm resubmission", problems)
    return wall


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.harness import runner

    outcome = Outcome("service-fig10")
    noise = HostNoise()
    with workdir("service") as wd:
        runner.set_cache_path(wd / "sim_cache.json")
        if trace:
            daemon = Daemon(wd / "daemon")
            try:
                _traced(daemon, seed, outcome)
            finally:
                daemon.stop()
        else:
            _untraced(wd, seed, outcome, noise.speed)
    outcome.peak_rss_mb = peak_rss_mb(children=True)
    outcome.host = noise.snapshot()
    return outcome


def _untraced(wd: Path, seed: int, outcome: Outcome, speed) -> None:
    """Several daemons are timed from spawn to health.  The last of them
    runs the cold campaign on its empty cache, then serves the warm
    resubmissions."""
    from repro.sim.engine import SimulationParams

    setup = {"cold": [], "warm": []}
    daemon = None
    speed.enter("cold")
    try:
        with speed.background():
            for index in range(SETUP_SAMPLES):
                if daemon is not None:
                    daemon.stop()
                daemon = Daemon(wd / f"daemon{index}")
                setup["cold"].append(daemon.ready_s)
            cold_wall, cold_doc, results = _cold(daemon, seed, outcome)
        speed.enter("warm")
        warm = []
        for index in range(WARM_RESUBMISSIONS):
            warm.append(_warm(daemon, seed, cold_doc, outcome))
            speed.timed(warm[-1])
            if index % SETUP_EVERY_WARM == SETUP_EVERY_WARM - 1:
                probe = Daemon(wd / f"probe{index}")
                probe.stop()
                setup["warm"].append(probe.ready_s)
                speed.timed(probe.ready_s)
    finally:
        if daemon is not None:
            daemon.stop()
    slowdown = {phase: speed.slowdown(phase) for phase in setup}
    warm = [w / slowdown["warm"] for w in warm]
    setup = [t / slowdown[phase] for phase, times in setup.items() for t in times]

    params = SimulationParams(accesses_per_core=ACCESSES_PER_CORE, seed=seed)
    err_pct, _summary = fig10_paper_error(results, params)
    outcome.digest = sim_digest(results.values())
    outcome.metrics.update(
        throughputs(
            mean_seconds([job_seconds(results)], slowdown["cold"]),
            cell_accesses(results, ACCESSES_PER_CORE),
        )
    )
    outcome.metrics.update(
        setup_s=median(setup),
        cold_s=cold_wall / slowdown["cold"],
        warm_p50_ms=median(warm) * 1000.0,
        warm_p95_ms=percentile(warm, 95) * 1000.0,
        warm_ops_per_s=len(warm) / sum(warm),
    )
    outcome.notes.update(
        fig10_paper_err_pct=err_pct,
        warm_samples=len(warm),
        warm_p95_samples_beyond=samples_beyond(len(warm), 95),
        setup_samples=len(setup),
        jobs=len(results),
        accesses_per_core=ACCESSES_PER_CORE,
    )


class _CallTimer:
    """Times the client's public calls from outside; restores them on exit."""

    METHODS = ("submit", "events", "results")

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {m: [] for m in self.METHODS}
        self._saved = []

    def __enter__(self) -> "_CallTimer":
        from repro.service.client import ServiceClient

        for name in self.METHODS:
            original = ServiceClient.__dict__[name]
            self._saved.append((ServiceClient, name, original))
            setattr(ServiceClient, name, self._timed(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)

    def _timed(self, name, original):
        samples = self.samples[name]
        if name == "events":

            def timed_events(*args, **kwargs):
                started = time.perf_counter()
                yield from original(*args, **kwargs)
                samples.append(time.perf_counter() - started)

            return timed_events

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - started)

        return timed


def _counters(daemon: Daemon) -> Dict[str, float]:
    counters = daemon.client.metrics().get("counters", {})
    return {name: float(counters.get(key, 0)) for name, key in COUNTERS.items()}


def _traced(daemon: Daemon, seed: int, outcome: Outcome) -> None:
    before = _counters(daemon)
    with _CallTimer() as timer:
        cold_wall, cold_doc, results = _cold(daemon, seed, outcome)
        cold_submit = timer.samples["submit"][0]
        for samples in timer.samples.values():
            samples.clear()
        for _ in range(TRACED_WARM):
            _warm(daemon, seed, cold_doc, outcome)
    after = _counters(daemon)
    outcome.digest = sim_digest(results.values())
    m = outcome.metrics
    for name in COUNTERS:
        m[name] = after[name] - before[name]
    for name, samples in timer.samples.items():
        m[f"service.{name}_ms"] = median(samples) * 1000.0
    m["service.cold_submit_ms"] = cold_submit * 1000.0
    m["service.job_wall_p50_ms"] = job_p50_s(results) * 1000.0
    outcome.notes.update(cold_wall_s=cold_wall, warm_samples=TRACED_WARM)
