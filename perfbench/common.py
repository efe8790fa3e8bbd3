"""Shared pieces of the benchmark: paths, private work directories, the
host-noise record, order statistics, output checks, the simulated-statistics
digest and the result line.

Nothing here imports the simulator at module load, so ``run.py`` can report
a missing source tree before touching it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

from hostspeed import HostSpeed, steal_ticks

ROOT = Path(__file__).resolve().parents[1]
"""The checkout the benchmark runs in (the directory holding ``src/``)."""

SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
"""Private caches, checkpoints and temp files live here, never elsewhere."""

BENCH_FILE = ROOT / "BENCHMARK.json"
JOBS = 2
"""Simulation workers for every subprocess workload (the box has 2 vCPUs)."""


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot produce a trustworthy result."""


def require_source() -> None:
    """Put ``src/`` on the import path, or fail before measuring anything."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def clean_environ() -> Dict[str, str]:
    """This process's environment minus every ``REPRO_*`` knob, so tracing,
    chaos, fault injection and cache overrides all sit at their defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


@contextlib.contextmanager
def workdir(tag: str) -> Iterator[Path]:
    """A fresh directory under ``.perfbench_work/``, removed afterwards."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a CLI or daemon subprocess with a private cache."""
    env = clean_environ()
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_PATH"] = str(cache_dir / "sim_cache.json")
    env["TMPDIR"] = str(cache_dir)
    return env


# -- host noise ---------------------------------------------------------------


class HostNoise:
    """Wall and CPU seconds (self and children), steal ticks, load average,
    and the host slowdown that ``speed`` measured.

    Host drift on a shared 2-vCPU box can halve throughput for minutes
    while simulated results stay bit-identical; this record makes such
    drift visible beside every run's figures, and ``speed`` is what the
    timed figures are divided by.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self._wall = time.perf_counter()
        self._times = os.times()
        self._steal = steal_ticks()

    def snapshot(self) -> Dict[str, object]:
        now = os.times()
        steal = steal_ticks()
        record: Dict[str, object] = {
            "wall_s": time.perf_counter() - self._wall,
            "cpu_self_s": (now.user - self._times.user)
            + (now.system - self._times.system),
            "cpu_children_s": (now.children_user - self._times.children_user)
            + (now.children_system - self._times.children_system),
            "steal_ticks": (
                steal - self._steal
                if steal is not None and self._steal is not None
                else None
            ),
            "loadavg_1m": os.getloadavg()[0],
        }
        record.update(self.speed.record())
        return record


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of its waited-for descendants."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


# -- simulated results --------------------------------------------------------


def result_record(result: object) -> Dict[str, object]:
    """A SimResult (or its JSON dict) as canonical JSON-ready data, without
    the host-time provenance manifest."""
    if not isinstance(result, Mapping):
        import dataclasses

        result = dataclasses.asdict(result)
    record = {k: v for k, v in result.items() if k != "manifest"}
    return json.loads(json.dumps(record))  # tuples -> lists, exact floats


def sim_digest(results: Iterable[object]) -> str:
    """sha256 over every simulated statistic of a set of results.

    Order-independent: records are sorted by their canonical text, so the
    same cells reached through the CLI, the daemon or in-process calls
    hash alike.
    """
    texts = sorted(
        json.dumps(result_record(r), sort_keys=True) for r in results
    )
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _is_rate(value: object) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_result(result: object, num_cores: int) -> List[str]:
    """Plausibility problems of one simulated result (empty when sound).

    Every core must close its measurement window (the engine records a
    core's IPC only once it reached its access quota), rates must be
    fractions, IPC finite, and every device access moves at least a line.
    """
    r = result_record(result)
    problems = []
    ipcs = r.get("per_core_ipc") or []
    if len(ipcs) != num_cores or not all(
        isinstance(x, (int, float)) and math.isfinite(x) and x > 0 for x in ipcs
    ):
        problems.append(f"per-core IPC {ipcs!r}: a core missed its quota")
    cycles, insts = r.get("cycles"), r.get("instructions")
    if not (isinstance(cycles, (int, float)) and cycles > 0 and insts):
        problems.append("empty measurement window")
    elif not math.isfinite(insts / cycles):
        problems.append("IPC is not finite")
    for name in (
        "l3_hit_rate", "l4_hit_rate", "cip_accuracy", "cip_write_accuracy",
        "mapi_accuracy",
    ):
        value = r.get(name)
        if value is not None and not _is_rate(value):
            problems.append(f"{name}={value!r} outside [0, 1]")
    for kind in ("l4", "mem"):
        accesses, nbytes = r.get(f"{kind}_accesses"), r.get(f"{kind}_bytes")
        if not (isinstance(accesses, int) and isinstance(nbytes, int)):
            problems.append(f"{kind} counters missing")
        elif nbytes < 64 * accesses:
            problems.append(f"{kind}_bytes {nbytes} < 64 x {accesses} accesses")
    return problems


# -- output -------------------------------------------------------------------


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json asks a run to report."""
    spec = json.loads(BENCH_FILE.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def registry_units() -> Dict[str, str]:
    """Name -> unit of every metric ``metrics.json`` describes, gated or not."""
    path = Path(__file__).resolve().parent / "metrics.json"
    registry = json.loads(path.read_text())
    units = {}
    for section in ("end_to_end", "per_layer", "reported_not_gated"):
        for name, entry in registry[section].items():
            units[name] = entry.get("unit", "")
    return units


def print_result(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, float],
    trace: bool,
) -> None:
    """Print the one-line JSON result; every declared metric, nothing else."""
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(f"metrics mismatch: missing {missing}, extra {extra}")
    for name, value in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(line), flush=True)


def report(label: str, rows: Sequence[tuple]) -> None:
    """Print a human-readable block of ``(name, value, unit)`` rows."""
    print(f"== {label}")
    for name, value, unit in rows:
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        print(f"  {name:40s} {text:>18s} {unit}")
    sys.stdout.flush()
