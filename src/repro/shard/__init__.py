"""Conservative spatially-decomposed parallel simulation.

Partitions the sensor field into contiguous column strips — one worker
process per strip — and runs the existing :class:`~repro.sim.engine.
Simulator` / :class:`~repro.sim.radio.Channel` / :class:`~repro.sim.
state.NodeStateStore` stack unchanged inside each worker.  Only radio
receptions cross processes: those bound for another shard ship as
timestamped messages over multiprocessing pipes, and a conservative
null-message window protocol (lookahead = the airtime of the smallest
frame) keeps every worker's event order identical to the single-process
schedule — a sharded run replays bit-identically, which the
digest-equality tests and the merged conservation ledger
(:mod:`repro.obs.merge`) assert.  Sharded runs are mains-powered, so no
node's liveness changes and nothing else needs mirroring.

Entry points: :class:`~repro.shard.runner.ShardWorkload` describes the
deployment + traffic, ``run_sharded(workload, shards=N)``
(:func:`~repro.shard.runner.run_sharded`) executes it on ``N`` workers
(the default ``shards=1`` is the plain single-process path).

Fault tolerance: every worker reply is bounded by a fixed deadline, a
dead worker reads as EOF on its pipe at once, and any failure surfaces
as a structured :class:`~repro.exceptions.ShardWorkerError` with the
whole gang torn down.  After a worker death or deadline expiry the
coordinator respawns the gang and reruns the workload from scratch —
deterministically: every worker forks from the same coordinator state
and every draw derives from the seed, so the rerun's digest and
per-node RNG states equal the uninterrupted run's.
"""

from repro.shard.plan import ShardPlan, conservative_lookahead
from repro.shard.runner import ShardRunResult, ShardWorkload, run_digest, run_sharded

__all__ = [
    "ShardPlan",
    "conservative_lookahead",
    "ShardRunResult",
    "ShardWorkload",
    "run_digest",
    "run_sharded",
]
