#!/usr/bin/env python
"""CI smoke for the campaign service — the acceptance path, end to end.

Drives a real ``cli serve`` daemon through its whole lifecycle:

1. daemon up on an ephemeral port (announced on stderr, parsed here);
2. submit the smoke campaign (fig13) and stream its NDJSON events;
3. resubmit it — the second pass must be **100% cache-hit**, answered
   synchronously without touching the worker pool;
4. ``GET /healthz`` and ``GET /metrics`` sanity checks, including the
   Prometheus text exposition (validated with ``scripts/promlint.py``,
   and for counter monotonicity across two scrapes);
5. submit a fresh (uncached) campaign, SIGTERM the daemon mid-flight —
   it must exit 0 leaving a resumable checkpoint;
6. restart the daemon — it resumes the drained campaign by itself and
   completes it bit-identically from the shared cache;
7. telemetry: a traced daemon + ``cli submit --trace`` yield per-process
   trace files that ``cli trace stitch`` merges into one chrome trace —
   client span ancestral to daemon and to >= 2 distinct worker pids —
   and ``cli slo check`` exits 0 healthy / 6 with a tightened objective;
8. chaos: a daemon armed with ``REPRO_CHAOS`` (crashes, hangs, torn and
   failed shard writes, corrupt payloads) on its own cache finishes the
   same campaign with results bit-identical to the clean daemon's, and
   its chaos ledger shows at least one worker crash survived.

Exit 0 means every step held.  Set ``REPRO_SMOKE_ARTIFACTS`` to a
directory to keep the stitched trace and Prometheus scrapes for upload.
Usage::

    PYTHONPATH=src REPRO_ACCESSES=300 python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import promlint  # noqa: E402

from repro.service.client import ServiceClient  # noqa: E402

ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")


class Daemon:
    """One ``cli serve`` subprocess with its announce line parsed."""

    def __init__(self, workdir: str, env: dict, extra_args=()) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness.cli", "serve",
                "--port", "0", "--jobs", "2",
                "--checkpoint", os.path.join(workdir, "ckpt.json"),
                *extra_args,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address = None
        announced = threading.Event()

        def pump():
            for line in self.proc.stderr:
                sys.stderr.write(f"  [daemon] {line}")
                match = ANNOUNCE.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    announced.set()
            announced.set()  # EOF without announce: fail fast below

        threading.Thread(target=pump, daemon=True).start()
        if not announced.wait(60) or self.address is None:
            raise SystemExit("error: daemon never announced its port")
        self.client = ServiceClient(*self.address, timeout=300.0)

    def terminate_and_wait(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120)


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"error: service-smoke failed: {what}")
    print(f"service-smoke: ok — {what}")


def _keep_artifact(name: str, content) -> None:
    """Copy an interesting output into $REPRO_SMOKE_ARTIFACTS, if set."""
    outdir = os.environ.get("REPRO_SMOKE_ARTIFACTS")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    dest = os.path.join(outdir, name)
    if isinstance(content, str) and os.path.isfile(content):
        shutil.copyfile(content, dest)
    else:
        with open(dest, "w") as handle:
            handle.write(content)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-service-smoke.")
    env = dict(os.environ)
    env.setdefault("REPRO_ACCESSES", "300")
    env["REPRO_CACHE_PATH"] = os.path.join(workdir, ".sim_cache.json")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    try:
        print("service-smoke: phase 1/5 — daemon up, cold + warm campaign")
        daemon = Daemon(workdir, env)

        events = []
        cold = daemon.client.run_campaign(
            experiments=["fig13"], client="smoke", on_event=events.append
        )
        final = cold["final"]
        check(final.get("status") == "completed", "cold campaign completed")
        check(final.get("failed") == 0, "cold campaign had no failures")
        kinds = {e.get("event") for e in events}
        check(
            {"campaign", "job", "progress", "done"} <= kinds,
            "NDJSON stream carried campaign/job/progress/done events",
        )

        warm = daemon.client.submit(experiments=["fig13"], client="smoke")
        check(
            warm.get("status") == "completed"
            and warm.get("queued") == 0
            and warm.get("cached") == warm.get("jobs"),
            f"warm resubmission 100% cache-hit "
            f"({warm.get('cached')}/{warm.get('jobs')} jobs, pool untouched)",
        )

        health = daemon.client.healthz()
        check(health.get("status") == "ok", "healthz answers ok")
        check(
            health.get("cache", {}).get("shards", 0) > 0,
            "healthz surfaces result-cache stats",
        )
        metrics = daemon.client.metrics()
        counters = metrics.get("counters", {})
        check(
            counters.get("service.jobs.executed", 0) > 0
            and counters.get("service.jobs.cached", 0) > 0,
            "metrics count executed and cached jobs",
        )
        scrape_a = daemon.client.metrics_text()
        problems = promlint.lint(scrape_a)
        check(
            not problems and "# TYPE" in scrape_a,
            f"Prometheus exposition passes promlint ({problems or 'clean'})",
        )
        history = daemon.client.history()
        check(
            len(history.get("samples", [])) > 0,
            "metrics history ring holds samples",
        )
        slo_doc = daemon.client.slo()
        check(
            isinstance(slo_doc.get("results"), list) and slo_doc["results"],
            "GET /slo judges the built-in objectives",
        )

        print("service-smoke: phase 2/5 — SIGTERM drain mid-campaign")
        fresh = daemon.client.submit(
            experiments=["fig13"], client="smoke", seed=11
        )
        scrape_b = daemon.client.metrics_text()
        regressions = promlint.lint(scrape_b) + promlint.check_monotonic(
            scrape_a, scrape_b
        )
        check(
            not regressions,
            f"counters stay monotonic across scrapes "
            f"({regressions or 'clean'})",
        )
        _keep_artifact("metrics_before.txt", scrape_a)
        _keep_artifact("metrics_after.txt", scrape_b)
        campaign_id = str(fresh["id"])
        code = daemon.terminate_and_wait()
        check(code == 0, f"SIGTERM drain exited 0 (got {code})")
        checkpoint = os.path.join(workdir, "ckpt.json")
        check(
            os.path.isfile(checkpoint),
            "drain left a resumable checkpoint",
        )
        payload = json.loads(open(checkpoint).read())
        check(
            any(c.get("id") == campaign_id for c in payload["campaigns"]),
            "checkpoint records the drained campaign",
        )

        print("service-smoke: phase 3/5 — restart resumes the checkpoint")
        daemon = Daemon(workdir, env)
        counters = daemon.client.metrics().get("counters", {})
        check(
            counters.get("service.campaigns.resumed", 0) == 1,
            "restarted daemon resumed the drained campaign",
        )
        deadline = time.monotonic() + 240
        status = None
        while time.monotonic() < deadline:
            status = daemon.client.campaign(campaign_id).get("status")
            if status == "completed":
                break
            time.sleep(0.5)
        check(status == "completed", "resumed campaign completed")
        resumed = daemon.client.results(campaign_id)
        check(
            all(v is not None for v in resumed["results"].values()),
            f"all {len(resumed['results'])} resumed results present",
        )
        # bit-identity: a warm resubmission returns the same payloads
        warm = daemon.client.run_campaign(
            experiments=["fig13"], client="verifier", seed=11
        )
        check(
            warm["results"] == resumed["results"],
            "resumed results bit-identical to a warm resubmission",
        )
        code = daemon.terminate_and_wait()
        check(code == 0, f"final drain exited 0 (got {code})")
        check(
            not os.path.exists(checkpoint),
            "a cleanly finished daemon leaves no checkpoint",
        )

        print("service-smoke: phase 4/5 — cross-process tracing + SLOs")
        trace_base = os.path.join(workdir, "svc.jsonl")
        client_trace = os.path.join(workdir, "client.jsonl")
        daemon = Daemon(workdir, env, extra_args=["--trace", trace_base])
        host, port = daemon.address
        code = subprocess.call(
            [
                sys.executable, "-m", "repro.harness.cli", "submit", "fig13",
                "--host", host, "--port", str(port), "--seed", "23",
                "--trace", client_trace,
            ],
            env=env,
        )
        check(code == 0, f"traced `cli submit` exited 0 (got {code})")
        # warm resubmission gives the dedupe-rate SLO its numerator and
        # the warm-submit histogram its samples
        daemon.client.submit(experiments=["fig13"], client="smoke", seed=23)
        code = subprocess.call(
            [
                sys.executable, "-m", "repro.harness.cli", "slo", "check",
                "--host", host, "--port", str(port),
            ],
            env=env,
        )
        check(code == 0, f"`cli slo check` exits 0 when healthy (got {code})")
        code = subprocess.call(
            [
                sys.executable, "-m", "repro.harness.cli", "slo", "check",
                "--host", host, "--port", str(port),
                "--slo",
                "impossible: p99(service.submit.wall_us{kind=cold}) <= 1",
            ],
            env=env,
        )
        check(
            code == 6,
            f"`cli slo check` exits 6 on a tightened objective (got {code})",
        )
        code = daemon.terminate_and_wait()
        check(code == 0, f"traced daemon drained 0 (got {code})")

        trace_files = [client_trace] + sorted(
            os.path.join(workdir, name)
            for name in os.listdir(workdir)
            if name.startswith("svc") and name.endswith(".jsonl")
        )
        stitched_out = os.path.join(workdir, "stitched.chrome.json")
        stitch = subprocess.run(
            [
                sys.executable, "-m", "repro.harness.cli", "trace", "stitch",
                *trace_files, "--out", stitched_out, "--json",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        check(
            stitch.returncode == 0,
            f"`cli trace stitch` exited 0 (got {stitch.returncode}: "
            f"{stitch.stderr.strip()})",
        )
        table = json.loads(stitch.stdout)
        client_meta = json.loads(open(client_trace).readline())["meta"]
        check(
            table["trace_id"] == client_meta["trace_id"],
            "stitched trace carries the client-minted trace id",
        )
        by_scope = {}
        for record in table["files"]:
            by_scope.setdefault(
                "client" if record["scope"] == "client"
                else "daemon" if record["scope"] == "daemon"
                else "worker",
                [],
            ).append(record)
        check(
            len(by_scope.get("client", [])) == 1
            and len(by_scope.get("daemon", [])) == 1,
            "stitch joined the client and daemon trace files",
        )
        worker_pids = {r["pid"] for r in by_scope.get("worker", [])}
        check(
            len(worker_pids) >= 2,
            f"worker spans came from >= 2 distinct pids ({worker_pids})",
        )
        root = client_meta["span_id"]
        strays = [
            r["path"]
            for r in table["files"]
            if r.get("root_span") != root
        ]
        check(
            not strays,
            f"every file's spans resolve to the client root span ({root})",
        )
        _keep_artifact("stitched.chrome.json", stitched_out)

        check(
            not os.path.exists(os.path.join(workdir, ".sim_cache.cas")),
            "the daemons kept one result store (no .sim_cache.cas/)",
        )

        print("service-smoke: phase 5/5 — the same campaign under chaos")
        chaos_dir = os.path.join(workdir, "chaos")
        os.makedirs(chaos_dir)
        ledger = os.path.join(chaos_dir, "ledger.jsonl")
        chaos_env = dict(env)
        chaos_env["REPRO_CACHE_PATH"] = os.path.join(
            chaos_dir, ".sim_cache.json"
        )
        # seed 11 crashes two of fig13's 26 cells on their first attempt
        chaos_env["REPRO_CHAOS"] = f"seed=11,rate=0.2,hang=1,ledger={ledger}"
        daemon = Daemon(chaos_dir, chaos_env)
        chaotic = daemon.client.run_campaign(
            experiments=["fig13"], client="chaos"
        )
        code = daemon.terminate_and_wait()
        check(
            chaotic["final"].get("status") == "completed",
            "chaotic campaign completed",
        )

        def simulated(results):
            # the manifest records run provenance (wall clock, host)
            return {
                job_id: {k: v for k, v in payload.items() if k != "manifest"}
                for job_id, payload in results.items()
            }

        check(
            simulated(chaotic["results"]) == simulated(cold["results"]),
            "chaotic results bit-identical to the clean daemon's",
        )
        faults = {}
        with open(ledger) as handle:
            for line in handle:
                fault = json.loads(line)["fault"]
                faults[fault] = faults.get(fault, 0) + 1
        check(
            faults.get("crash", 0) >= 1,
            f"the chaos ledger shows worker crashes survived ({faults})",
        )
        check(code == 0, f"chaotic daemon drained 0 (got {code})")

        print("service-smoke: OK — daemon lifecycle held end to end")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
