"""Make the benchmark modules and the simulator source importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

common.require_source()
