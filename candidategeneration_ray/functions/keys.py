"""Key routing and checked pair packing — the one place that decides
where a key goes.

`bucket_of` is the int64-key bucket hash of the whole repo: the index
build persists its value in every segment's `bucket` column and
`IndexReader(buckets=...)` reads by it, so its values are part of the
on-disk format. Every fold that routes rows by an integer key calls it;
a fold keyed on two fields combines them into one uint64 first.
`str_bucket_of` is its string-key twin (the per-conversation and
per-term folds of the stats scan).

`pack_pair`/`unpack_pair` pack two non-negative ids below 2^31 into
one int64 as `(a << 32) | b` — the reference's pair-key layout
(WWW.java:432-434) — and raise instead of colliding when an id is out
of range.
"""

from __future__ import annotations

import numpy as np

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_ID_LIMIT = 1 << 31


def bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic int64-key → bucket hash (splitmix-style multiply)."""
    h = keys.astype(np.uint64) * _HASH_MULT
    h ^= h >> np.uint64(29)
    return (h % np.uint64(num_buckets)).astype(np.int32)


def str_bucket_of(names, num_buckets: int) -> np.ndarray:
    """String-key → bucket (pandas' stable 64-bit object hash)."""
    import pandas as pd

    h = pd.util.hash_array(np.asarray(names, dtype=object))
    return (h % np.uint64(num_buckets)).astype(np.int32)


def pack_pair(a, b) -> np.ndarray:
    """Pack id arrays into int64 keys `(a << 32) | b`; raises
    ValueError when any id is negative or >= 2^31 (the packing would
    otherwise merge distinct pairs or flip the key's sign)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for x in (a, b):
        if x.size and (int(x.min()) < 0 or int(x.max()) >= _ID_LIMIT):
            raise ValueError("packed pair key needs ids in [0, 2^31)")
    return (a << np.int64(32)) | b


def unpack_pair(keys) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pack_pair: int64 (a, b) arrays."""
    k = np.asarray(keys, dtype=np.int64)
    return k >> np.int64(32), k & np.int64(0xFFFFFFFF)
