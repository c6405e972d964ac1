"""Concurrent multi-session serving layer.

The paper's integration server is a middle tier that many client
applications call at once.  This package adds that serving story on top
of the single-caller :class:`~repro.core.server.IntegrationServer`:

* :class:`~repro.serving.server.ConcurrentIntegrationServer` — accepts
  N client sessions on a bounded worker pool with admission control and
  backpressure;
* :class:`~repro.serving.session.ClientSession` — one client's view:
  an isolated virtual clock and trace recorder, a per-call log, and
  statement-level fault containment;
* :mod:`~repro.serving.workload` — seeded, reproducible multi-client
  workloads (mixed architectures, read/DML mix) for the concurrency
  benchmark and the stress/parity suites;
* :class:`~repro.serving.router.ShardedIntegrationServer` — the
  scale-out mode: sessions consistent-hashed onto N OS worker
  processes (:mod:`~repro.serving.shard`), each building isolated
  per-session shards, framed over the wire protocol of
  :mod:`~repro.serving.wire` with crash detection and respawn.
"""

from repro.serving.hashring import ConsistentHashRing
from repro.serving.router import ShardedIntegrationServer
from repro.serving.server import (
    AdmissionController,
    ConcurrentIntegrationServer,
    ServerSpec,
    SessionManager,
    WorkloadRunResult,
    build_server,
)
from repro.serving.session import CallRecord, ClientSession
from repro.serving.workload import (
    SessionScript,
    WorkloadCall,
    make_workload,
    supported_functions,
)

__all__ = [
    "AdmissionController",
    "CallRecord",
    "ClientSession",
    "ConcurrentIntegrationServer",
    "ConsistentHashRing",
    "SessionManager",
    "ServerSpec",
    "SessionScript",
    "ShardedIntegrationServer",
    "WorkloadCall",
    "WorkloadRunResult",
    "build_server",
    "make_workload",
    "supported_functions",
]
