"""Sim-as-a-service: the persistent campaign daemon and its client.

One long-lived :class:`~repro.service.daemon.SimService` process owns
the worker pool; any number of clients submit campaigns over HTTP and
stream NDJSON progress back.  Results live in the one sharded result
store (``.sim_cache.d/``, see :mod:`repro.exec.cache`) that the CLI and
its workers also use.  The pieces:

* :mod:`repro.service.http` — minimal HTTP/1.1 over asyncio streams
* :mod:`repro.service.state` — campaign records and drain checkpoints
* :mod:`repro.service.daemon` — the daemon itself
* :mod:`repro.service.client` — blocking client used by ``cli submit``
"""

from repro.service.daemon import ServiceConfig, SimService, run_service
from repro.service.state import DEFAULT_CHECKPOINT

__all__ = [
    "DEFAULT_CHECKPOINT",
    "ServiceConfig",
    "SimService",
    "run_service",
]
