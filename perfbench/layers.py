"""Outside-in spans around the simulator's layers.

Each layer is timed around calls into its public methods.  The wrappers are
installed on the classes only inside :meth:`LayerTracer.installed` and the
original attributes are put back on exit, so untraced runs execute the
program exactly as shipped.  Spans are aggregated in memory as they close:
per (design group, layer) the self time (span time minus the time of the
spans it encloses) and the call count.  The ``sim`` layer is the root span
the caller opens around each ``run_workload`` call, so its self time is the
remainder of the traced wall time and all layers together sum to it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Tuple

# layer -> (module, class, methods).  Generator methods are timed per item.
LAYER_METHODS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "workloads": [
        ("repro.workloads.base", "TraceGenerator", ("chunks", "line_data")),
    ],
    "compression": [
        ("repro.compression.base", "Compressor", ("compressed_size",)),
    ],
    "dram": [
        ("repro.dram.device", "DRAMDevice", ("access",)),
        ("repro.dram.mainmemory", "MainMemory", ("read", "write")),
    ],
    "cache": [
        (
            "repro.cache.hierarchy", "OnChipHierarchy",
            ("lookup", "write", "install", "install_bonus"),
        ),
    ],
    "dramcache": [
        ("repro.dramcache.alloy", "AlloyCache", ("read", "install")),
        ("repro.dramcache.scc", "SCCDRAMCache", ("read", "install")),
        ("repro.dramcache.mapi", "MAPIPredictor", ("predict_miss", "update")),
    ],
    "core": [
        (
            "repro.core.compressed_cache", "CompressedDRAMCache",
            ("read", "install"),
        ),
        ("repro.core.dice", "DICECache", ("read", "install", "choose_index")),
        ("repro.core.cip", "CacheIndexPredictor", ("predict_bai",)),
    ],
}
ROOT_LAYER = "sim"
LAYERS = (ROOT_LAYER,) + tuple(LAYER_METHODS)
GROUPS = ("base", "compressed")


class _TimedIterator:
    """An iterator whose every item is drawn by ``timed_next(items)``."""

    __slots__ = ("_items", "_timed_next")

    def __init__(self, items: Iterator, timed_next: Callable) -> None:
        self._items = items
        self._timed_next = timed_next

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._timed_next(self._items)


class LayerTracer:
    """Self time and call counts per design group and layer."""

    def __init__(self) -> None:
        self.totals: Dict[str, Dict[str, List[float]]] = {
            group: {layer: [0.0, 0] for layer in LAYERS} for group in GROUPS
        }
        self._current = self.totals[GROUPS[0]]
        self._stack: List[List[float]] = []  # one [child seconds] per open span
        self._active = False

    def _wrap(self, layer: str, fn: Callable, generator: bool = False) -> Callable:
        """``fn`` inside a span of ``layer``; a generator is timed per item."""
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                cell = tracer._current[layer]
                cell[0] += elapsed - frame[0]
                cell[1] += 1

        if not generator:
            return functools.wraps(fn)(timed)

        def timed_items(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), tracer._wrap(layer, next))

        return functools.wraps(fn)(timed_items)

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer method for the duration of the block."""
        import inspect

        if self._active:
            raise RuntimeError("layer spans are already installed")
        saved = []
        try:
            for layer, targets in LAYER_METHODS.items():
                for module_name, class_name, methods in targets:
                    cls = getattr(importlib.import_module(module_name), class_name)
                    for method in methods:
                        original = cls.__dict__[method]
                        saved.append((cls, method, original))
                        generator = inspect.isgeneratorfunction(original)
                        setattr(cls, method, self._wrap(layer, original, generator))
            self._active = True
            yield self
        finally:
            for cls, method, original in reversed(saved):
                setattr(cls, method, original)
            self._active = False

    def run(self, group: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a root ``sim`` span charged to design ``group``."""
        self._current = self.totals[group]
        return self._wrap(ROOT_LAYER, fn)(*args, **kwargs)

    def self_seconds(self, layer: str, group: str = "") -> float:
        groups = [group] if group else list(GROUPS)
        return sum(self.totals[g][layer][0] for g in groups)

    def calls(self, layer: str, group: str = "") -> int:
        groups = [group] if group else list(GROUPS)
        return int(sum(self.totals[g][layer][1] for g in groups))

    def total_seconds(self) -> float:
        """Sum of every layer's self time: the traced wall of the root spans."""
        return sum(self.self_seconds(layer) for layer in LAYERS)

