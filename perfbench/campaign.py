"""campaign-fig10: ``cli fig10 --accesses 300 --jobs 2`` against a private,
empty result cache, then back-to-back warm reruns on the filled cache.

Cold passes repeat, each on its own empty cache, while they fit in half the
run's time; warm reruns fill the rest.  Start-up samples
(``cli list``) are taken after every cold pass and between warm reruns.
Host-speed reference work runs on a thread while the cold passes run, and
between the warm reruns (see ``hostspeed``); every time is reported in
calm-host seconds.  Every cold job is
checked for plausibility and every pass must give the same digest; every
warm rerun must serve 130/130 jobs from the cache and print exactly what
the first cold pass printed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

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
SETUP_SAMPLES = 5  # in the traced run
SETUP_PER_COLD = 2
SETUP_EVERY_WARM = 3  # warm reruns between start-up samples
COLD_SHARE = 0.5
MIN_WARM = 20
PLAN_SAMPLES = 20
SUMMARY = re.compile(
    r"jobs: (\d+) total · (\d+) from cache · (\d+) run · (\d+) failed"
)
INCIDENTS = {
    "retried": re.compile(r"(\d+) requeue\(s\)"),
    "pool_rebuilds": re.compile(r"(\d+) pool rebuild\(s\)"),
}


def cli(args: List[str], cwd: Path) -> Tuple[float, subprocess.CompletedProcess]:
    """Run the CLI in ``cwd`` with the cache kept there; (wall s, process)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *args],
        cwd=cwd, env=child_env(cwd), capture_output=True, text=True,
        timeout=170,
    )
    return time.perf_counter() - started, proc


def measure_startup(wd: Path, samples: int) -> List[float]:
    """Wall seconds of ``cli list``: the CLI's start-up cost."""
    times = []
    for _ in range(samples):
        seconds, proc = cli(["list"], wd)
        if proc.returncode != 0 or EXPERIMENT not in proc.stdout:
            raise BenchError(f"cli list failed: {proc.stderr.strip()[-500:]}")
        times.append(seconds)
    return times


def summary_counts(stderr: str) -> Dict[str, int]:
    """The job counts the CLI prints at the end of a campaign."""
    found = SUMMARY.findall(stderr)
    if not found:
        raise BenchError(f"no job summary from the CLI: {stderr.strip()[-500:]}")
    total, cached, run, failed = map(int, found[-1])
    counts = {"total": total, "cached": cached, "run": run, "failed": failed}
    for name, pattern in INCIDENTS.items():
        counts[name] = sum(int(n) for n in pattern.findall(stderr))
    return counts


def read_results(cache_dir: Path) -> Dict[Tuple[str, str], dict]:
    """Every result the campaign left in its sharded store, by cell."""
    from repro.exec.cache import ShardedResultCache

    entries = ShardedResultCache(cache_dir / "sim_cache.d").read_all()
    return {tuple(json.loads(key)[1:3]): value for key, value in entries.items()}


def planned_cells(params) -> List[Tuple[str, str]]:
    from repro.exec import build_plan

    return [(j.workload, j.config_name) for j in build_plan([EXPERIMENT], params).jobs]


def _cold_args(seed: int) -> List[str]:
    return [
        EXPERIMENT, "--accesses", str(ACCESSES_PER_CORE), "--jobs", str(JOBS),
        "--seed", str(seed),
    ]


def cold_pass(wd: Path, seed: int, cells, outcome: Outcome):
    """One cold campaign; (wall s, process, results by cell)."""
    wd.mkdir()
    seconds, proc = cli(_cold_args(seed), wd)
    if proc.returncode != 0:
        raise BenchError(f"cold fig10 exited {proc.returncode}: {proc.stderr[-500:]}")
    counts = summary_counts(proc.stderr)
    results = read_results(wd)
    for cell in cells:
        problems = []
        if cell not in results:
            problems.append("no result in the cache")
        else:
            problems = check_result(results[cell], num_cores(cell[1]))
        outcome.record(f"{cell[0]} x {cell[1]}", problems)
    if counts["total"] != len(cells) or counts["failed"] or counts["cached"]:
        outcome.record("cold job summary", [f"unexpected counts {counts}"])
    return seconds, proc, results


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.harness import runner
    from repro.sim.engine import SimulationParams

    outcome = Outcome("campaign-fig10")
    noise = HostNoise()
    with workdir("campaign") as wd:
        runner.set_cache_path(wd / "sim_cache.json")
        params = SimulationParams(accesses_per_core=ACCESSES_PER_CORE, seed=seed)
        cells = planned_cells(params)
        accesses = cell_accesses(cells, ACCESSES_PER_CORE)
        if trace:
            _traced(wd, seed, params, cells, outcome)
        else:
            _untraced(wd, seed, seconds, params, cells, accesses, outcome, noise.speed)
    outcome.peak_rss_mb = peak_rss_mb(children=True)
    outcome.host = noise.snapshot()
    return outcome


def _untraced(
    wd, seed, seconds, params, cells, accesses, outcome: Outcome, speed
) -> None:
    started = time.perf_counter()
    setup = {"cold": [], "warm": []}

    speed.enter("cold")
    colds, passes, first = [], [], None
    pass_wall = 0.0  # the last cold pass with its start-up samples
    with speed.background():
        setup["cold"] += measure_startup(wd, 1)
        while not colds or (
            time.perf_counter() - started + pass_wall <= COLD_SHARE * seconds
        ):
            pass_started = time.perf_counter()
            cold_dir = wd / f"cold{len(colds)}"
            wall, proc, results = cold_pass(cold_dir, seed, cells, outcome)
            colds.append(wall)
            setup["cold"] += measure_startup(wd, SETUP_PER_COLD)
            pass_wall = time.perf_counter() - pass_started
            passes.append(job_seconds(results))
            digest = sim_digest(results.values())
            if first is None:
                first = (cold_dir, proc.stdout, digest, results)
            elif digest != first[2]:
                outcome.record("cold pass repeat", ["digest differs from the first pass"])
    cache_dir, cold_stdout, digest, results = first

    speed.enter("warm")
    warm = []
    while len(warm) < MIN_WARM or time.perf_counter() - started < seconds:
        wall, proc = cli(_cold_args(seed), cache_dir)
        warm.append(wall)
        speed.timed(wall)
        if len(warm) % SETUP_EVERY_WARM == 0:
            setup["warm"] += measure_startup(wd, 1)
            speed.timed(setup["warm"][-1])
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}")
        else:
            counts = summary_counts(proc.stderr)
            if not counts["cached"] == counts["total"] == len(cells):
                problems.append(f"not all from cache: {counts}")
            if proc.stdout != cold_stdout:
                problems.append("printed results differ from the cold pass")
        outcome.record("warm rerun", problems)

    slowdown = {phase: speed.slowdown(phase) for phase in setup}
    warm = [w / slowdown["warm"] for w in warm]
    setup = [t / slowdown[phase] for phase, times in setup.items() for t in times]
    err_pct, _summary = fig10_paper_error(results, params)
    outcome.digest = digest
    outcome.metrics.update(
        throughputs(mean_seconds(passes, slowdown["cold"]), accesses)
    )
    outcome.metrics.update(
        setup_s=median(setup),
        cold_s=median(colds) / slowdown["cold"],
        warm_p50_ms=median(warm) * 1000.0,
        warm_p95_ms=percentile(warm, 95) * 1000.0,
        warm_ops_per_s=len(warm) / sum(warm),
    )
    outcome.notes.update(
        fig10_paper_err_pct=err_pct,
        cold_passes=len(colds),
        warm_samples=len(warm),
        warm_p95_samples_beyond=samples_beyond(len(warm), 95),
        setup_samples=len(setup),
        jobs=len(cells),
        accesses_per_core=ACCESSES_PER_CORE,
    )


def _traced(wd, seed, params, cells, outcome: Outcome) -> None:
    """Start-up, planning, one cold pass, then the same cells in-process."""
    from repro.exec import build_plan
    from repro.exec.cache import ShardedResultCache
    from repro.harness.runner import make_config
    from repro.sim.engine import run_workload

    startup = measure_startup(wd, SETUP_SAMPLES)
    build_plan([EXPERIMENT], params)  # first call pays the lazy imports
    plan_times = []
    for _ in range(PLAN_SAMPLES):
        started = time.perf_counter()
        build_plan([EXPERIMENT], params)
        plan_times.append(time.perf_counter() - started)

    cache_dir = wd / "cold0"
    cold_wall, proc, results = cold_pass(cache_dir, seed, cells, outcome)
    counts = summary_counts(proc.stderr)
    store = ShardedResultCache(cache_dir / "sim_cache.d").stats()

    configs = {design: make_config(design) for _, design in cells}
    in_process, sim_seconds = {}, 0.0
    for workload, design in cells:
        started = time.perf_counter()
        in_process[(workload, design)] = run_workload(workload, configs[design], params)
        sim_seconds += time.perf_counter() - started
    cli_digest = sim_digest(results.values())
    outcome.record(
        "CLI results equal in-process results",
        [] if sim_digest(in_process.values()) == cli_digest else ["digests differ"],
    )
    outcome.digest = cli_digest

    outcome.metrics.update({
        "harness.startup_s": median(startup),
        "exec.plan_s": median(plan_times),
        "exec.jobs": counts["total"],
        "exec.jobs_cached": counts["cached"],
        "exec.jobs_failed": counts["failed"],
        "exec.jobs_retried": counts["retried"],
        "exec.pool_rebuilds": counts["pool_rebuilds"],
        "exec.job_p50_s": job_p50_s(results),
        "exec.sim_share": sim_seconds / (JOBS * cold_wall),
        "exec.cache_shards": store["shards"],
        "exec.cache_bytes": store["bytes"],
    })
    outcome.notes.update(cold_wall_s=cold_wall, in_process_sim_s=sim_seconds)
