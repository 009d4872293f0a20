"""Per-worker-process caches for stateless Ray Data tasks.

A map task that needs heavy state (a posting emitter over the broadcast
stats, a query engine over the broadcast index) builds it once per
worker process and reuses it in every later task that process runs, as
an actor pool would, but without the pool's cold start: worker
processes are already warm and Ray reuses them across tasks. Keyed on
a content version, the state also outlives the call that made it: the
query engines serve every later call on an unchanged index. The driver
keeps its run_queries broadcast here too.

The caches live in THIS module's globals and must be reached through
`worker_cached`, a module-level function that cloudpickle ships by
reference. A module-level dict named inside a map closure is pickled
by value with the closure, so every task would get a fresh empty copy
and the cache would never hit across tasks.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

_CACHES: dict[str, dict] = {}


def worker_cached(name: str, key: Hashable, make: Callable[[], Any],
                  bound: int) -> Any:
    """The value cached under `key` in this process's cache `name`, made
    by `make()` on a miss. A cache holds at most `bound` values; the
    oldest go first, before `make()` runs, so a miss never holds
    `bound + 1` values at once. Key on a content version: a digest of
    everything the value is made from (pipelines.query.serving_version)
    or ray.put refs (an object id names one immutable value). Never key
    on paths alone, whose files can be rewritten, or on `id()` of plain
    objects, which Python reuses."""
    cache = _CACHES.setdefault(name, {})
    value = cache.get(key)
    if value is None:
        while len(cache) >= bound:
            cache.pop(next(iter(cache)))
        value = cache[key] = make()
    return value
