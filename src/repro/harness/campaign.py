"""Campaign execution: parallel prefetch and per-experiment flight data.

A figure-regeneration campaign (``cli all``) is hours of simulation at
paper fidelity.  Every simulation runs first, on the parallel execution
engine (:mod:`repro.exec`), and persists to the result cache the moment
it finishes, so a killed campaign resumes at the granularity of single
*(workload, config)* pairs; the tables then render from the cache in
seconds.

* :func:`prefetch_experiments` plans the simulations a set of
  experiments needs, runs them under the supervisor's one time and retry
  budget (:class:`~repro.exec.supervisor.SupervisorPolicy`), and leaves
  every result cached so the serial table rendering that follows is
  instant;
* :func:`write_flight_data` records how long each experiment's rendering
  took, for ``report --flight``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

FLIGHT_VERSION = 1

DEFAULT_FLIGHT_DATA = Path(".campaign_flight.json")


# ---------------------------------------------------------------------------
# parallel prefetch


def prefetch_experiments(
    keys: Sequence[str],
    params,
    *,
    jobs: Optional[int] = None,
    stream=None,
    supervisor=None,
    chaos=None,
    shutdown=None,
    repetitions: int = 1,
):
    """Fan out every simulation the given experiments need, ahead of time.

    Plans the (deduped) job list, runs it on the multiprocess scheduler,
    and returns ``(outcomes, failures)`` — ``failures`` being the outcomes
    of jobs that raised or that the supervisor quarantined.  Successful
    results land in the (sharded, concurrency-safe) result cache, so the
    experiments' own serial loops replay from memory and their output is
    bit-identical to a fully serial run.  Progress (done/running/failed +
    ETA) goes to ``stream`` (default stderr).

    ``supervisor``, ``chaos``, and ``shutdown`` thread straight through to
    :func:`repro.exec.run_jobs` — the deadline and attempt budget, fault
    injection, and graceful-drain respectively.  When ``shutdown`` trips,
    the returned outcome list simply omits the jobs that never ran.

    ``repetitions`` expands every planned job once per repetition at a
    derived per-rep seed (see :func:`repro.exec.job.derive_rep_seed`);
    the default of 1 plans exactly what it always did.
    """
    import sys

    from repro.exec import ProgressPrinter, build_plan, run_jobs

    plan = build_plan(keys, params, repetitions)
    if not plan.jobs:
        return [], []
    printer = ProgressPrinter(stream if stream is not None else sys.stderr)
    outcomes = run_jobs(
        plan.jobs, max_workers=jobs, progress=printer,
        supervisor=supervisor, chaos=chaos, shutdown=shutdown,
    )
    printer.finish()
    failures = [outcome for outcome in outcomes if not outcome.ok]
    return outcomes, failures


# ---------------------------------------------------------------------------
# flight data


def write_flight_data(
    timings: Dict[str, float],
    *,
    repetitions: int = 1,
    path: Path = DEFAULT_FLIGHT_DATA,
) -> Path:
    """Persist per-experiment wall timings (atomically): the campaign
    section of ``report --flight``.

    ``timings`` maps each rendered experiment to its seconds, in campaign
    order.  A step carries ``repetitions`` only for a repetition
    campaign, so single-rep payloads keep their pre-statistics shape.
    """
    steps: List[Dict[str, object]] = []
    for name, seconds in timings.items():
        step: Dict[str, object] = {"name": name, "seconds": round(seconds, 6)}
        if repetitions > 1:
            step["repetitions"] = repetitions
        steps.append(step)
    payload = {
        "version": FLIGHT_VERSION,
        "steps": steps,
        "total_seconds": round(sum(s["seconds"] for s in steps), 6),
    }
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or Path(".")
    )
    with os.fdopen(fd, "w") as handle:
        handle.write(json.dumps(payload, indent=1))
    os.replace(tmp_name, path)
    return path
