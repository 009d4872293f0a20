"""functions.workercache: per-worker-process state for stateless tasks."""

import os

from candidategeneration_ray.functions.workercache import worker_cached


def test_bound_evicts_oldest_first():
    made = []

    def get(key):
        return worker_cached("test-bound", key,
                             lambda: made.append(key) or key, bound=2)

    for key in "abaca":
        assert get(key) == key
    # a, b made; a hit; c evicts a; a evicts b
    assert made == ["a", "b", "c", "a"]


def test_value_survives_across_tasks(ray_session):
    """Every task a worker process runs after the first gets the value
    that first task made (a dict named inside the map closure would be
    shipped as a fresh copy with each task and never hit)."""
    import numpy as np
    import ray.data

    def _tag(batch):
        value = worker_cached("test-tasks", "key", lambda: [os.getpid()],
                              bound=1)
        n = len(batch["id"])
        return {"pid": np.full(n, os.getpid()), "obj": np.full(n, id(value))}

    out = ray.data.range(8, override_num_blocks=8).map_batches(
        _tag, batch_format="numpy", concurrency=1).to_pandas()
    per_pid = out.groupby("pid")
    assert per_pid.size().max() >= 2          # a process ran several tasks
    assert (per_pid["obj"].nunique() == 1).all()
