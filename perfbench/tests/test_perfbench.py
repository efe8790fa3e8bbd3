"""Self-tests of the benchmark: span hygiene, output checks, the digest,
the contract of BENCHMARK.json, and agreement of the three stacks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time

import pytest

import campaign
import cells
import common
import hostspeed
import layers
import service
from outcome import Outcome

TINY = 96  # accesses per core: every cell runs in well under a second


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    from repro.harness import runner

    monkeypatch.setenv("REPRO_CACHE_PATH", str(tmp_path / "sim_cache.json"))
    original = runner._CACHE_PATH
    runner.set_cache_path(tmp_path / "sim_cache.json")
    yield tmp_path
    runner.set_cache_path(original)


def _simulate(workload, design, seed=7, accesses=TINY):
    from repro.harness.runner import make_config
    from repro.sim.engine import SimulationParams, run_workload

    params = SimulationParams(accesses_per_core=accesses, seed=seed)
    return run_workload(workload, make_config(design), params)


# -- span hygiene ---------------------------------------------------------------


def installed_methods():
    """The layer attributes currently on the classes."""
    import importlib

    found = {}
    for targets in layers.LAYER_METHODS.values():
        for module_name, class_name, methods in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                found[(class_name, method)] = cls.__dict__[method]
    return found


def test_spans_are_installed_only_inside_the_block():
    before = installed_methods()
    tracer = layers.LayerTracer()
    with tracer.installed():
        during = installed_methods()
        assert all(during[key] is not before[key] for key in before)
    assert all(installed_methods()[k] is v for k, v in before.items())


def test_spans_are_restored_after_an_error():
    before = installed_methods()
    with pytest.raises(ZeroDivisionError):
        with layers.LayerTracer().installed():
            1 / 0
    assert all(installed_methods()[k] is v for k, v in before.items())


def test_layer_self_times_add_up_to_the_traced_wall():
    from repro.harness.runner import make_config
    from repro.sim.engine import SimulationParams, run_workload

    params = SimulationParams(accesses_per_core=TINY, seed=7)
    tracer = layers.LayerTracer()
    wall = 0.0
    with tracer.installed():
        for design, group in (("base", "base"), ("dice", "compressed")):
            started = time.perf_counter()
            tracer.run(group, run_workload, "mcf", make_config(design), params)
            wall += time.perf_counter() - started
    assert tracer.total_seconds() == pytest.approx(wall, rel=0.01)
    for layer in layers.LAYERS:
        assert tracer.self_seconds(layer) > 0.0, layer
    # base cells never reach the codecs or the compressed-cache designs
    assert tracer.calls("compression", "base") == 0
    assert tracer.calls("core", "base") == 0
    assert tracer.calls("compression", "compressed") > 0


def test_digest_with_tracing_equals_digest_without():
    plain = [_simulate("lbm", d) for d in ("base", "dice", "scc")]
    tracer = layers.LayerTracer()
    with tracer.installed():
        traced = [
            tracer.run("base", _simulate, "lbm", d) for d in ("base", "dice", "scc")
        ]
    assert common.sim_digest(traced) == common.sim_digest(plain)


# -- output checks and the digest ----------------------------------------------


def test_a_sound_result_passes_and_broken_ones_fail():
    result = _simulate("gcc", "dice")
    assert common.check_result(result, num_cores=8) == []
    record = common.result_record(result)
    for field, value in (
        ("l4_hit_rate", 1.5),
        ("per_core_ipc", record["per_core_ipc"][:-1]),
        ("mem_bytes", 63 * record["mem_accesses"]),
    ):
        broken = dict(record, **{field: value})
        assert common.check_result(broken, num_cores=8), field


def test_digest_ignores_the_manifest_and_order_but_not_statistics():
    a, b = _simulate("mcf", "base"), _simulate("mcf", "dice")
    again = _simulate("mcf", "base")
    assert a.manifest != again.manifest  # host time differs run to run
    assert common.sim_digest([a, b]) == common.sim_digest([b, again])
    changed = dict(common.result_record(a), cycles=a.cycles + 1)
    assert common.sim_digest([changed, b]) != common.sim_digest([a, b])


def test_percentile_and_samples_beyond():
    samples = list(range(1, 201))
    assert common.percentile(samples, 95) == 190
    assert common.samples_beyond(200, 95) == 10


def test_host_noise_record_has_every_field():
    noise = common.HostNoise()
    noise.speed.enter("cold")
    noise.speed.slowdown("cold")
    record = noise.snapshot()
    assert set(record) == {
        "wall_s", "cpu_self_s", "cpu_children_s", "steal_ticks", "loadavg_1m",
        "slowdown_cold", "steal_share_cold", "reference_calls_cold",
    }
    assert record["slowdown_cold"] > 0
    assert 0.0 <= record["steal_share_cold"] < 1.0
    assert record["reference_calls_cold"] == hostspeed.MIN_SAMPLES


def test_host_speed_pays_its_share_of_the_timed_seconds():
    speed = hostspeed.HostSpeed(share=0.5)
    started = time.perf_counter()
    speed.timed(0.2)  # owes 0.1 s of reference work, paid in whole calls
    paid = time.perf_counter() - started
    calls = len(speed.samples["run"])
    assert paid >= 0.1 and calls >= 1
    speed.timed(0.0)  # the last call overpaid: nothing more is owed
    assert len(speed.samples["run"]) == calls
    assert hostspeed.reference_work() == hostspeed.reference_work()


def test_host_speed_samples_in_the_background_and_stops():
    speed = hostspeed.HostSpeed(background_share=0.5)
    speed.enter("cold")
    with speed.background():
        time.sleep(0.5)
    calls = len(speed.samples["cold"])
    assert calls >= 2
    assert not any(t.name == "hostspeed" for t in threading.enumerate())
    speed.enter("warm")  # tops "cold" up to MIN_SAMPLES first
    assert len(speed.samples["cold"]) == max(calls, hostspeed.MIN_SAMPLES)
    assert speed.slowdown("cold") > 0


def test_outcome_counts_failed_operations():
    outcome = Outcome("x")
    outcome.record("ok", [])
    outcome.record("bad", ["wrong", "also wrong"])
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.failed_ratio == 0.5


# -- the three stacks agree ------------------------------------------------------


def test_cli_daemon_and_in_process_agree_bit_for_bit(tmp_path, private_cache):
    from repro.sim.engine import SimulationParams

    picked = [("mcf", "base"), ("lbm", "dice"), ("mix1", "tsi"), ("bc_twi", "bai")]
    seconds, proc = campaign.cli(
        ["fig10", "--accesses", str(TINY), "--jobs", "2", "--seed", "5"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    from_cli = campaign.read_results(tmp_path)
    assert len(from_cli) == 130

    daemon = service.Daemon(tmp_path / "daemon")
    try:
        doc = daemon.client.run_campaign(
            jobs=[{"workload": w, "config": d} for w, d in picked],
            accesses=TINY, seed=5,
        )
    finally:
        daemon.stop()
    from_daemon = service._cells(doc)
    assert sorted(from_daemon) == sorted(picked)

    in_process = {c: _simulate(*c, seed=5) for c in picked}
    for cell in picked:
        digests = {
            common.sim_digest([source[cell]])
            for source in (from_cli, from_daemon, in_process)
        }
        assert len(digests) == 1, cell
    err, summary = cells.fig10_paper_error(
        from_cli, SimulationParams(accesses_per_core=TINY, seed=5)
    )
    assert 0.0 < err < 100.0 and "dice/ALL26" in summary


# -- the benchmark's contract ----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads(common.BENCH_FILE.read_text())


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload, each well inside its share of the budget
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 15) < 3420


def test_metrics_registry_describes_every_metric():
    spec = _spec()
    registry = json.loads((common.ROOT / "perfbench" / "metrics.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(registry["workloads"])
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[section]}
        assert set(registry[section]) == set(declared), section
        for name, entry in registry[section].items():
            assert entry["unit"] == declared[name]["unit"], name
            assert entry["better"] == declared[name]["better"], name
            assert entry["layer"] and entry["definition"], name
            for move in entry["moves"]:
                assert (
                    move["metric"] in registry["end_to_end"]
                    or move["metric"] in registry["reported_not_gated"]
                ), name
                assert move["workload"] in registry["workloads"], name


def test_the_benchmark_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(common.BENCH_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        common.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sim-matrix",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
