"""Benchmark entry point for the DICE simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-matrix --seed 7 --seconds 30 --trace 0

Workloads: ``sim-matrix`` (in-process simulator speed), ``campaign-fig10``
(the fig10 campaign through the CLI) and ``service-fig10`` (the same
campaign through the daemon).  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` is the separate traced run
that gives the per-layer metrics.  Both print a human-readable report, the
simulated-statistics digest and the host-noise record, then, as the last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every metric BENCHMARK.json declares for that mode).

Exit status: 0 with a result line; 1 on an unexpected error and 2 when the
benchmark cannot run (no source tree, bad arguments), both without one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("sim-matrix", "campaign-fig10", "service-fig10")

# The workload-specific names some end-to-end figures are also printed
# under, as (printed name, metric, scale, unit); see metrics.json.
ALIASES = {
    "sim-matrix": [
        # the 5th percentile of 12 cells is the slowest one
        ("sim_slowest_cell_accesses_per_s", "sim_p5_cell_accesses_per_s", 1.0, "acc/s"),
    ],
    "campaign-fig10": [
        ("campaign_cold_s", "cold_s", 1.0, "s"),
        ("campaign_warm_p50_s", "warm_p50_ms", 0.001, "s"),
    ],
    "service-fig10": [
        ("service_cold_s", "cold_s", 1.0, "s"),
        ("service_warm_p50_ms", "warm_p50_ms", 1.0, "ms"),
        ("service_warm_p95_ms", "warm_p95_ms", 1.0, "ms"),
        ("service_warm_ops_per_s", "warm_ops_per_s", 1.0, "campaigns/s"),
    ],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool):
    common.require_source()
    os.environ.clear()
    os.environ.update(common.clean_environ())
    if workload == "sim-matrix":
        import sim_matrix as module
    elif workload == "campaign-fig10":
        import campaign as module
    else:
        import service as module
    return module.run(seed, seconds, trace)


def render(outcome, args) -> dict:
    """Print the human-readable report; return the metrics to emit."""
    trace = bool(args.trace)
    declared = common.declared_metrics(trace)
    measured = dict(outcome.metrics)
    if trace:
        # layers off this workload's path did no work here
        metrics = {name: float(measured.get(name, 0.0)) for name in declared}
    else:
        measured["peak_rss_mb"] = outcome.peak_rss_mb
        metrics = {name: measured[name] for name in declared}
    mode = "traced" if trace else "untraced"
    rows = [(name, metrics[name], declared[name]) for name in declared]
    if not trace:
        units = common.registry_units()
        rows += [
            (f"{name} (not gated)", value, units[name])
            for name, value in measured.items() if name not in declared
        ]
        rows.append(("failed_ratio", outcome.failed_ratio, "fraction"))
        for alias, name, scale, unit in ALIASES[outcome.workload]:
            rows.append((alias, measured[name] * scale, unit))
    rows += [(k, v, "") for k, v in outcome.notes.items()]
    common.report(f"{outcome.workload} seed={args.seed} {mode}", rows)
    common.report("host noise", [(k, v, "") for k, v in outcome.host.items()])
    print(f"sim_digest {outcome.digest}")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    print("host " + json.dumps(outcome.host, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = render(outcome, args)
        common.print_result(
            correct=outcome.failed == 0 and outcome.digest is not None,
            attempted=outcome.attempted,
            failed=outcome.failed,
            metrics=metrics,
            trace=bool(args.trace),
        )
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - the boundary: report, exit non-zero
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
