"""Cell bookkeeping shared by the workloads: simulated accesses per cell,
design classes, per-design throughput and the fig10 paper error."""

from __future__ import annotations

from statistics import median
from typing import Dict, Iterable, List, Mapping, Tuple

from common import BenchError, percentile

Cell = Tuple[str, str]  # (workload, design)


def requested_accesses(workload: str, num_cores: int, accesses_per_core: int) -> int:
    """L3 accesses a cell must simulate: the sum of its per-core quotas.

    Mirrors the engine's instruction-matched quota rule (a mix's low
    intensity cores serve proportionally fewer accesses).
    """
    from repro.workloads.registry import get_profile, is_mix, mix_members

    names = mix_members(workload) if is_mix(workload) else [workload] * num_cores
    apki = [get_profile(name).l3_apki for name in names]
    top = max(apki)
    return sum(max(64, int(accesses_per_core * a / top)) for a in apki)


def num_cores(design: str) -> int:
    from repro.harness.runner import make_config

    return make_config(design).core.num_cores


def is_compressed(design: str) -> bool:
    from repro.harness.runner import make_config

    return make_config(design).l4.compressed


def cell_accesses(cells: Iterable[Cell], accesses_per_core: int) -> Dict[Cell, int]:
    return {
        (w, d): requested_accesses(w, num_cores(d), accesses_per_core)
        for w, d in cells
    }


def throughputs(
    seconds: Mapping[Cell, float], accesses: Mapping[Cell, int]
) -> Dict[str, float]:
    """Accesses per host second over the uncompressed and compressed cells,
    and of the 5th-percentile cell (nearest rank: the slowest of 12 cells,
    the 7th slowest of 130, which keeps one disturbed job out of it)."""
    groups: Dict[bool, List[Cell]] = {False: [], True: []}
    for cell in seconds:
        groups[is_compressed(cell[1])].append(cell)

    def rate(cells: Iterable[Cell]) -> float:
        cells = list(cells)
        return sum(accesses[c] for c in cells) / sum(seconds[c] for c in cells)

    return {
        "sim_base_accesses_per_s": rate(groups[False]),
        "sim_compressed_accesses_per_s": rate(groups[True]),
        "sim_p5_cell_accesses_per_s": percentile(
            [accesses[c] / seconds[c] for c in seconds], 5
        ),
    }


def mean_seconds(
    passes: List[Mapping[Cell, float]], slowdown: float = 1.0
) -> Dict[Cell, float]:
    """Each cell's mean host seconds over the passes, in calm-host seconds
    (divided by the host ``slowdown`` measured over the same passes)."""
    return {
        cell: sum(p[cell] for p in passes) / len(passes) / slowdown
        for cell in passes[0]
    }


def fig10_paper_error(results: Mapping[Cell, object], params) -> Tuple[float, Dict[str, float]]:
    """Mean |sim - paper| / paper (in %) over the fig10 paper targets.

    The cells are handed to the harness's in-memory result cache, then the
    fig10 experiment renders its summary from them, as the CLI does.
    """
    from repro.harness import experiments, runner
    from repro.obs.fidelity import PAPER_TARGETS

    for (workload, design), result in results.items():
        runner.seed_cache(workload, design, to_sim_result(result), params=params)
    _headers, _rows, summary = experiments.fig10_dice(params)
    targets = PAPER_TARGETS["fig10"]
    errors = {
        key: abs(summary[key] - target) / target * 100.0
        for key, target in targets.items()
    }
    return sum(errors.values()) / len(errors), summary


def to_sim_result(result: object):
    """A SimResult from itself or from its JSON dict."""
    from repro.sim.metrics import SimResult

    if not isinstance(result, Mapping):
        return result
    fields = dict(result)
    if fields.get("index_distribution") is not None:
        fields["index_distribution"] = tuple(fields["index_distribution"])
    return SimResult(**fields)


def job_seconds(results: Mapping[Cell, Mapping]) -> Dict[Cell, float]:
    """Host seconds each cell took in its worker (from its manifest)."""
    seconds = {
        cell: float((r.get("manifest") or {}).get("elapsed_s") or 0.0)
        for cell, r in results.items()
    }
    if not seconds or min(seconds.values()) <= 0.0:
        raise BenchError("a result carries no host time in its manifest")
    return seconds


def job_p50_s(results: Mapping[Cell, Mapping]) -> float:
    return median(list(job_seconds(results).values()))
