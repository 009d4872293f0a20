"""Per-partition checkpoint manifests for resumable builds.

Ray-native replacement for the reference's file-existence phase guards
and FINISH markers (WWW.java:367-369, WWWMain.java:78-86,106-110):
every completed phase/partition directory carries a `MANIFEST.json`
written atomically (tmp + rename) recording lineage (inputs, and
their size and mtime via file_lineage), key counts and a config tag.
On resume, a partition whose manifest exists and matches its inputs
is skipped.

The same rule governs the `gen-NNNN` generations of the three LSMs
(text, IVF, positional): complete iff the manifest exists. Compaction
folds every live generation, so a compacted base records one integer,
the highest generation folded (`folded_through`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil


MANIFEST = "MANIFEST.json"
_GEN_DIR = re.compile(r"gen-(\d+)")


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


def generation_number(path: str) -> int:
    """N of a `gen-NNNN` dir, or of a file named `gen-NNNN-...`."""
    return int(os.path.basename(path).split("-")[1])


def _all_generations(root: str) -> list[tuple[int, str]]:
    """(number, path) of every `gen-NNNN` dir under `root`, complete or
    not, in ascending number order."""
    if not os.path.isdir(root):
        return []
    return sorted(
        (int(m.group(1)), os.path.join(root, d)) for d in os.listdir(root)
        if (m := _GEN_DIR.fullmatch(d))
        and os.path.isdir(os.path.join(root, d)))


def generation_dirs(root: str, through: int = 0) -> list[str]:
    """The complete generation dirs under `root` numbered above
    `through`, ascending."""
    return [p for n, p in _all_generations(root)
            if n > through and read_manifest(p) is not None]


def next_generation_dir(root: str, through: int = 0) -> str:
    """A fresh generation dir under `root`: numbered past `through`
    and past every generation dir on disk, torn ones included."""
    n = max([through] + [n for n, _ in _all_generations(root)]) + 1
    return os.path.join(root, f"gen-{n:04d}")


def clear_torn_generations(root: str, through: int = 0) -> None:
    """Remove the generation dirs under `root` that serve nothing: each
    one without a manifest (an ingest cut off before its commit) and
    each one numbered at or below `through` (already folded; left by a
    crash between a compaction's commit and its cleanup)."""
    for n, p in _all_generations(root):
        if n <= through:
            shutil.rmtree(p)
        else:
            clear_partial(p)


def folded_through(record: dict | None, where: str) -> int:
    """The generation high-water mark in a compacted base's commit
    record (0 when nothing was folded yet). A record that lists folded
    generations by name comes from an older layout and raises."""
    record = record or {}
    if "folded" in record:
        raise ValueError(
            f"{where} lists folded generations by name, a layout this "
            "version does not read — rebuild the index")
    return int(record.get("through", 0))


def content_hash(*arrays) -> str:
    """Stable content hash over numpy arrays / bytes for manifests."""
    h = hashlib.sha256()
    for a in arrays:
        if hasattr(a, "tobytes"):
            h.update(a.tobytes())
        else:
            h.update(bytes(a))
    return h.hexdigest()[:16]
