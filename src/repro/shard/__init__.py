"""Conservative spatially-decomposed parallel simulation.

Partitions the sensor field into contiguous column strips — one worker
process per strip — and runs the existing :class:`~repro.sim.engine.
Simulator` / :class:`~repro.sim.radio.Channel` / :class:`~repro.sim.
state.NodeStateStore` stack unchanged inside each worker.  Only radio
events whose source sits within one ``comm_range`` of a strip boundary
cross processes: receptions bound for another shard ship as timestamped
messages over multiprocessing pipes, alive flips of boundary-band nodes
refresh the neighbors' halo mirrors, and a conservative null-message
window protocol (lookahead = the airtime of the smallest frame) keeps
every worker's event order identical to the single-process schedule —
a sharded run replays bit-identically, which the digest-equality tests
and the merged conservation ledger (:mod:`repro.obs.merge`) assert.

Entry points: :class:`~repro.shard.runner.ShardWorkload` describes the
deployment + traffic, ``run_sharded(workload, shards=N)``
(:func:`~repro.shard.runner.run_sharded`) executes it on ``N`` workers
(the default ``shards=1`` is the plain single-process path).

Fault tolerance: the coordinator supervises its gang through
:class:`~repro.shard.supervise.WorkerGang` (deadline-bounded receives,
structured :class:`~repro.exceptions.ShardWorkerError`, total teardown)
and, after a worker death or deadline expiry, respawns the gang and
reruns the workload from scratch — deterministically: every worker
forks from the same coordinator state and every draw derives from the
seed, so the rerun's digest and per-node RNG states equal the
uninterrupted run's.
"""

from repro.shard.plan import ShardPlan, conservative_lookahead
from repro.shard.runner import ShardRunResult, ShardWorkload, run_digest, run_sharded
from repro.shard.supervise import HarnessChaos, SupervisionConfig, WorkerGang

__all__ = [
    "ShardPlan",
    "conservative_lookahead",
    "ShardRunResult",
    "ShardWorkload",
    "run_digest",
    "run_sharded",
    "HarnessChaos",
    "SupervisionConfig",
    "WorkerGang",
]
