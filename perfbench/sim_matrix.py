"""sim-matrix: serial in-process ``run_workload`` calls over four workloads
and three designs at one fixed trace length.

A cold pass simulates every cell.  Passes repeat while another fits in the
run's time (at least two, so every cell is checked for exact repeats).
The first pass's results go into a private sharded result store.  Warm
passes read the same cells back through ``cached_run`` after dropping the
in-process cache state, as a fresh process would; they run between the
cells of the later cold passes, so that they sample the host over the
whole run as the cold cells do, not during one short stretch of it.
Host-speed reference work runs after every timed operation (see
``hostspeed``); every time is reported in calm-host seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from statistics import fmean, median
from typing import Dict

from cells import cell_accesses, mean_seconds, throughputs
from common import (
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

WORKLOADS = ("mcf", "lbm", "gcc", "bc_twi")
DESIGNS = ("base", "dice", "scc")
ACCESSES_PER_CORE = 1000
MIN_PASSES = 2
WARM_PER_CELL = 100  # 1200 warm passes per later cold pass
SETUP_EVERY = 3  # cells between set-up samples: 4 a pass, over the whole run

READY = "ready"
SETUP_PROGRAM = (
    "from repro.sim.engine import SimulationParams, run_workload\n"
    "from repro.harness.runner import make_config\n"
    f"configs = [make_config(d) for d in {DESIGNS!r}]\n"
    f"print({READY!r}, flush=True)\n"
)


def measure_setup(env: Dict[str, str], speed) -> float:
    """Seconds from spawning a fresh interpreter until it has imported the
    simulator and built the designs' configurations."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROGRAM],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    seconds = time.perf_counter() - started
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line != READY:
        raise BenchError("the simulator failed to import")
    speed.timed(seconds)
    return seconds


class Matrix:
    """The cells, their configurations and the sizes of their traces."""

    def __init__(self, seed: int) -> None:
        from repro.harness.runner import make_config
        from repro.sim.engine import SimulationParams

        self.params = SimulationParams(
            accesses_per_core=ACCESSES_PER_CORE, seed=seed
        )
        self.configs = {d: make_config(d) for d in DESIGNS}
        self.cells = [(w, d) for w in WORKLOADS for d in DESIGNS]
        self.accesses = cell_accesses(self.cells, ACCESSES_PER_CORE)

    def simulate(self, cell, runner=None):
        """One cell; ``runner(group, fn, *args)`` may wrap the call."""
        from repro.sim.engine import run_workload

        workload, design = cell
        args = (workload, self.configs[design], self.params)
        if runner is None:
            return run_workload(*args)
        group = "base" if not self.configs[design].l4.compressed else "compressed"
        return runner(group, run_workload, *args)

    def run_pass(self, runner=None, after_cell=None):
        """Simulate every cell once; (results, per-cell wall seconds).
        ``after_cell(seconds)``, if given, runs untimed after each cell."""
        results, seconds = {}, {}
        for cell in self.cells:
            started = time.perf_counter()
            results[cell] = self.simulate(cell, runner)
            seconds[cell] = time.perf_counter() - started
            if after_cell is not None:
                after_cell(seconds[cell])
        return results, seconds

    def check(self, results, outcome: Outcome, reference=None) -> None:
        """Count every cell as one operation and record its problems."""
        for cell, result in results.items():
            problems = check_result(result, self.configs[cell[1]].core.num_cores)
            if reference is not None and result != reference[cell]:
                problems.append("statistics differ from the first pass")
            outcome.record(f"{cell[0]} x {cell[1]}", problems)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.harness import runner

    outcome = Outcome("sim-matrix")
    noise = HostNoise()
    with workdir("sim-matrix") as wd:
        runner.set_cache_path(wd / "sim_cache.json")
        if trace:
            _traced(seed, outcome)
        else:
            _untraced(seed, seconds, wd, outcome, noise.speed)
    outcome.peak_rss_mb = peak_rss_mb(children=False)
    outcome.host = noise.snapshot()
    return outcome


def _untraced(seed, seconds, wd, outcome: Outcome, speed) -> None:
    from repro.harness import runner

    started = time.perf_counter()
    env = child_env(wd)
    setup = [measure_setup(env, speed)]
    matrix = Matrix(seed)
    passes, reference, warm = [], None, []
    cells_done = 0

    def after_cell(cell_seconds):
        nonlocal cells_done
        speed.timed(cell_seconds)
        cells_done += 1
        if cells_done % SETUP_EVERY == 0:
            setup.append(measure_setup(env, speed))
        if reference is None:
            return
        for _ in range(WARM_PER_CELL):
            runner.drop_memory_state()
            op_started = time.perf_counter()
            served = {
                (w, d): runner.cached_run(w, d, params=matrix.params)
                for w, d in matrix.cells
            }
            warm.append(time.perf_counter() - op_started)
            speed.timed(warm[-1])
            outcome.record(
                "warm pass",
                [] if served == reference else ["warm results differ from cold"],
            )

    pass_wall = 0.0  # the last pass with its warm passes and reference work
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started + pass_wall <= seconds
    ):
        pass_started = time.perf_counter()
        results, cell_seconds = matrix.run_pass(after_cell=after_cell)
        pass_wall = time.perf_counter() - pass_started
        passes.append(cell_seconds)
        matrix.check(results, outcome, reference)
        if reference is None:
            reference = results
            for (workload, design), result in reference.items():
                runner.seed_cache(workload, design, result, params=matrix.params)
    slowdown = speed.slowdown()
    walls = [sum(p.values()) / slowdown for p in passes]
    warm = [w / slowdown for w in warm]

    outcome.digest = sim_digest(reference.values())
    outcome.metrics.update(throughputs(mean_seconds(passes, slowdown), matrix.accesses))
    outcome.metrics.update(
        setup_s=median(setup) / slowdown,
        cold_s=median(walls),
        warm_p50_ms=median(warm) * 1000.0,
        warm_p95_ms=percentile(warm, 95) * 1000.0,
        warm_ops_per_s=len(warm) / sum(warm),
    )
    outcome.notes.update(
        cold_passes=len(walls),
        warm_samples=len(warm),
        warm_p95_samples_beyond=samples_beyond(len(warm), 95),
        setup_samples=len(setup),
        accesses_per_core=ACCESSES_PER_CORE,
        cells=len(matrix.cells),
    )


def _traced(seed, outcome: Outcome) -> None:
    """One untraced pass, then the same cells with layer spans installed."""
    from layers import GROUPS, LAYERS, LayerTracer

    matrix = Matrix(seed)
    plain, plain_seconds = matrix.run_pass()
    matrix.check(plain, outcome)
    tracer = LayerTracer()
    with tracer.installed():
        traced, traced_seconds = matrix.run_pass(tracer.run)
    matrix.check(traced, outcome, reference=plain)

    plain_wall = sum(plain_seconds.values())
    traced_wall = sum(traced_seconds.values())
    span_wall = tracer.total_seconds()
    outcome.record(
        "layer self-times add up to the traced wall",
        []
        if abs(span_wall - traced_wall) <= 0.01 * traced_wall
        else [f"spans {span_wall:.3f}s vs wall {traced_wall:.3f}s"],
    )
    plain_digest, traced_digest = sim_digest(plain.values()), sim_digest(traced.values())
    outcome.record(
        "digest with tracing on equals digest with tracing off",
        [] if plain_digest == traced_digest else ["digests differ"],
    )
    outcome.digest = plain_digest

    m = outcome.metrics
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_seconds(layer)
        for group in GROUPS:
            m[f"{layer}.self_s.{group}"] = tracer.self_seconds(layer, group)
        if layer != "sim":
            m[f"{layer}.calls"] = tracer.calls(layer)
    records = list(plain.values())
    compressed = [c for c in matrix.cells if matrix.configs[c[1]].l4.compressed]
    dice = [r for r in records if r.cip_accuracy is not None]
    total_accesses = sum(matrix.accesses.values())
    m.update({
        "compression.calls_per_access": tracer.calls("compression")
        / sum(matrix.accesses[c] for c in compressed),
        "core.cip_accuracy": fmean(r.cip_accuracy for r in dice),
        "dramcache.l4_hit_rate": fmean(r.l4_hit_rate for r in records),
        "dramcache.mapi_accuracy": fmean(r.mapi_accuracy for r in records),
        "dram.l4_bytes_per_access": sum(r.l4_bytes for r in records)
        / sum(r.l4_accesses for r in records),
        "dram.mem_bytes_per_access": sum(r.mem_bytes for r in records)
        / sum(r.mem_accesses for r in records),
        "cache.l3_hit_rate": fmean(r.l3_hit_rate for r in records),
        "sim.host_us_per_access": plain_wall / total_accesses * 1e6,
        "trace.overhead_pct": (traced_wall / plain_wall - 1.0) * 100.0,
    })
    outcome.notes.update(
        untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
        accesses_per_core=ACCESSES_PER_CORE, cells=len(matrix.cells),
    )
