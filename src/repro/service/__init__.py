"""Warm experiment-serving layer: cache tiers, coalescing, transport.

The batch engine (:mod:`repro.experiments.engine`) answers "reproduce
the evaluation once, fast"; this package answers "keep answering".  An
:class:`ExperimentService` holds warm per-worker Labs behind a two-tier
(memory LRU over content-addressed disk) cache with single-flight
request coalescing; :mod:`repro.service.http` exposes it over JSON/HTTP
for ``repro serve`` and ``repro query``.
"""

from repro.lazy import lazy_exports

# Loaded on first use: the client side (``repro query``) imports
# ``repro.service.client`` and must not pull in the serving core.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.cache": ("LruCache",),
    "repro.service.core": ("ExperimentService", "Served", "ServiceConfig"),
    "repro.service.http": ("make_server", "result_digest"),
    "repro.service.wire": ("DEFAULT_PORT",),
})

__all__ = [
    "DEFAULT_PORT",
    "ExperimentService",
    "LruCache",
    "Served",
    "ServiceConfig",
    "make_server",
    "result_digest",
]
