"""Parallel execution of independent replications.

The paper averages 60 independent evolutionary runs — an embarrassingly
parallel workload.  :func:`repro.parallel.shard.sharded_map` is the one
process-pool mapper: it runs any indexed task set (for experiments, one
stack of replications per task, cut by :func:`plan_shards`) and returns
the results in index order, bit-identical to a serial run because every
replication derives its own random stream from ``(master_seed, index)``.
"""

from repro.parallel.progress import ProgressPrinter
from repro.parallel.shard import Shard, plan_shards, sharded_map

__all__ = [
    "ProgressPrinter",
    "Shard",
    "plan_shards",
    "sharded_map",
]
