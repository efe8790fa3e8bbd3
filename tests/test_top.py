"""``cli top`` dashboard rendering tests (pure, canned payloads)."""

from __future__ import annotations

from repro.exec.progress import format_duration
from repro.obs.top import hit_rate, render_dashboard, sparkline

HEALTH = {
    "status": "ok",
    "uptime_s": 125.0,
    "workers": 2,
    "inflight": 1,
    "queue_depth": 3,
    "max_queue": 64,
    "clients": {"smoke": 3},
    "cache": {"hits": 10, "misses": 10, "shards": 4},
    "slo": {
        "ok": True,
        "results": [
            {"name": "queue_depth", "ok": True, "failed": False,
             "value": 3.0, "burn_rate": 0.0},
            {"name": "warm_submit_p99_us", "ok": None, "failed": False,
             "value": None, "burn_rate": None},
        ],
    },
}

METRICS = {
    "counters": {
        "service.jobs.total": 20,
        "service.jobs.executed": 15,
        "service.jobs.cached": 4,
        "service.jobs.deduped": 1,
        "service.jobs.failed": 0,
    }
}

HISTORY = {
    "samples": [
        {"gauges": {"service.queue.depth": float(d)}}
        for d in (0, 2, 5, 3, 1)
    ]
}


class TestSparkline:
    def test_scales_to_window_and_keeps_newest(self):
        strip = sparkline([0, 1, 2, 3], width=2)
        assert len(strip) == 2
        assert strip[-1] == "█"  # the max of the visible window

    def test_flat_series_renders_low(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_is_empty(self):
        assert sparkline([]) == ""


class TestHitRate:
    def test_fraction_and_none_on_zero_denominator(self):
        assert hit_rate(1, 4) == 0.25
        assert hit_rate(0, 0) is None
        assert hit_rate(None, None) is None


class TestFormatDuration:
    def test_clock_styles(self):
        assert format_duration(None) == "--:--"
        assert format_duration(42) == "0:42"
        assert format_duration(125) == "2:05"
        assert format_duration(3725) == "1:02:05"


class TestRenderDashboard:
    def test_full_frame(self):
        frame = render_dashboard(HEALTH, METRICS, HISTORY)
        assert "repro daemon · ok · up 2:05 · 2 workers (50% busy)" in frame
        assert "queue    3/64 queued · 1 inflight" in frame
        assert "client smoke" in frame
        assert "20 total · 15 executed · 4 cached" in frame
        assert "dedupe 25%" in frame
        assert "cache    10 hits · 10 misses · hit rate 50%" in frame
        assert "4 shards" in frame
        assert "cas " not in frame
        assert "slo      OK" in frame
        assert "✓ ok" in frame
        assert "· no data" in frame
        # the queue sparkline rides on the queue line
        queue_line = next(
            l for l in frame.splitlines() if l.startswith("queue")
        )
        assert any(ch in queue_line for ch in "▁▂▃▄▅▆▇█")

    def test_degenerate_payloads_do_not_crash(self):
        frame = render_dashboard({}, {}, None)
        assert "repro daemon" in frame
        assert "0 total" in frame

    def test_failing_slo_is_marked(self):
        health = dict(HEALTH)
        health["slo"] = {
            "ok": False,
            "results": [
                {"name": "queue_depth", "ok": False, "failed": True,
                 "value": 300.0, "burn_rate": 2.0},
            ],
        }
        frame = render_dashboard(health, METRICS)
        assert "slo      FAILING" in frame
        assert "✗ FAIL" in frame
        assert "burn 2.00" in frame
