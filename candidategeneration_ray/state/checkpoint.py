"""Per-partition checkpoint manifests for resumable builds.

Ray-native replacement for the reference's file-existence phase guards
and FINISH markers (WWW.java:367-369, WWWMain.java:78-86,106-110):
every completed phase/partition directory carries a `MANIFEST.json`
written atomically (tmp + rename) recording lineage (inputs, and
their size and mtime via file_lineage), key counts and a config tag.
On resume, a partition whose manifest exists and matches its inputs
is skipped.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil


MANIFEST = "MANIFEST.json"


def write_manifest(dir_path: str, payload: dict) -> None:
    os.makedirs(dir_path, exist_ok=True)
    tmp = os.path.join(dir_path, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True, default=str)
    os.replace(tmp, os.path.join(dir_path, MANIFEST))


def read_manifest(dir_path: str) -> dict | None:
    path = os.path.join(dir_path, MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def file_lineage(paths: list[str]) -> list[dict]:
    """Content record of input files for a manifest: path, size and
    mtime_ns of each, sorted by path (size and mtime None for a path
    that is not a local file). Equal records mean the inputs were not
    rewritten in between, which path names alone cannot tell."""
    out = []
    for p in sorted(paths):
        try:
            st = os.stat(p)
            size, mtime = st.st_size, st.st_mtime_ns
        except OSError:
            size = mtime = None
        out.append({"path": p, "size": size, "mtime_ns": mtime})
    return out


def is_complete(dir_path: str, inputs: list[str] | None = None) -> bool:
    """True iff the partition finished AND (when given) its recorded
    input lineage matches `inputs`."""
    m = read_manifest(dir_path)
    if m is None:
        return False
    if inputs is not None and m.get("inputs") != sorted(inputs):
        return False
    return True


def clear_partial(dir_path: str) -> None:
    """Remove a partition dir that has no manifest (partial write)."""
    if os.path.isdir(dir_path) and read_manifest(dir_path) is None:
        shutil.rmtree(dir_path)


def clear_stale(dir_path: str) -> None:
    """Remove a partition dir whether or not it has a manifest — used
    when the manifest exists but its lineage/config no longer matches
    (a plain clear_partial would leave stale output files behind,
    which a reader of the directory would then serve)."""
    if os.path.isdir(dir_path):
        shutil.rmtree(dir_path)


def content_hash(*arrays) -> str:
    """Stable content hash over numpy arrays / bytes for manifests."""
    h = hashlib.sha256()
    for a in arrays:
        if hasattr(a, "tobytes"):
            h.update(a.tobytes())
        else:
            h.update(bytes(a))
    return h.hexdigest()[:16]
