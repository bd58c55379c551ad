"""Distributed sharded fault grading over the HTTP service protocol.

The unit of work is the shard of :mod:`repro.gates.shards`: any
partition of the universe into shards grades and merges to verdicts,
detection times, coverage checkpoints and a MISR signature that are
bit-identical to one single-node run.  This package is one of the
shard's transports (the process pool of :mod:`repro.parallel.gatework`
and the service's ``grade-shard`` job are the others):

* :mod:`~repro.cluster.coordinator` — dispatches shards to a fleet of
  ``repro serve`` workers, retries failures with capped backoff,
  re-dispatches stragglers, grafts worker trace payloads into one span
  tree and appends a ``cluster-sweep`` ledger record;
* :mod:`~repro.cluster.loadtest` — replays job traffic against a
  serve/cluster endpoint and reports p50/p90/p99 latency, throughput
  and 429 rates with ``--check`` thresholds.
"""

from .coordinator import ClusterCoordinator, ClusterReport, run_cluster_sweep
from .loadtest import LoadtestReport, run_loadtest

__all__ = [
    "ClusterCoordinator",
    "ClusterReport",
    "LoadtestReport",
    "run_cluster_sweep",
    "run_loadtest",
]
