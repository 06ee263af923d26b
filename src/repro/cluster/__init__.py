"""Sharded experiment serving: one address, N warm shards.

``repro serve`` made one node answer repeat traffic at memory speed;
this package makes the serving tier horizontal.  A front
:class:`~repro.cluster.router.Router` consistent-hashes the engine's
sha256 cache keys onto shard workers (each a full
:class:`~repro.service.core.ExperimentService`), health-checks and
routes around dead shards, answers hot keys itself from the replies it
holds, with coherent invalidation, and propagates per-shard admission
control (bounded queues, 503 + ``Retry-After`` shedding) as client
back-pressure.  ``repro cluster`` runs it from the CLI;
``benchmarks/bench_serve.py`` records the cluster-vs-single-node
scaling curve.
"""

from repro.cluster.admission import AdmissionGate, AdmissionPolicy
from repro.cluster.ring import HashRing
from repro.cluster.router import Router, RouterConfig, ShardInfo, make_router_server
from repro.cluster.shard import make_shard_server, run_shard, shard_names
from repro.cluster.supervisor import ClusterConfig, LocalCluster, SpawnedCluster

__all__ = [
    "AdmissionGate",
    "AdmissionPolicy",
    "ClusterConfig",
    "HashRing",
    "LocalCluster",
    "Router",
    "RouterConfig",
    "ShardInfo",
    "SpawnedCluster",
    "make_router_server",
    "make_shard_server",
    "run_shard",
    "shard_names",
]
