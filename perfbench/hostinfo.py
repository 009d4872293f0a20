"""Host facts stamped into every result, plus the process-tree RSS
sampler and the hypervisor steal counter."""

from __future__ import annotations

import contextlib
import os
import threading
import time


def affinity_cpus() -> int:
    """CPUs this process may run on. `nproc` is not used: it honours
    OMP_NUM_THREADS, which containers often pin to 1."""
    return len(os.sched_getaffinity(0))


def steal_s() -> float:
    """Cumulative hypervisor steal over all CPUs, in CPU-seconds
    (/proc/stat, 8th value of the `cpu` line, in clock ticks)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_commit(root: str) -> str:
    """Commit of the checkout at `root` read from its own .git, or
    "unknown" when the checkout is not a git repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def versions() -> dict:
    import numpy
    import pyarrow
    import ray

    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__}


def _processes() -> dict[int, tuple[int, int]]:
    """{pid: (parent pid, RSS bytes)} for every process in /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # the process exited while we looked
        # comm may hold spaces; the fields after its closing paren do not
        rest = stat[stat.rindex(")") + 2:].split()
        out[int(name)] = (int(rest[1]), int(rest[21]) * page)
    return out


def tree_pids(root_pid: int, procs=None) -> set[int]:
    """Descendant pids of `root_pid` (not including it). Ray's GCS,
    raylet and workers descend from the driver when Ray starts locally."""
    procs = _processes() if procs is None else procs
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in procs.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = set(), [root_pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in out:
                out.add(child)
                stack.append(child)
    return out


def _tree_rss_bytes(root_pid: int) -> int:
    """RSS of `root_pid` and all its descendants."""
    procs = _processes()
    return sum(procs[p][1] for p in tree_pids(root_pid, procs) | {root_pid}
               if p in procs)


class RssSampler:
    """Background thread sampling the driver's process-tree RSS every
    `interval` seconds. Walking /proc holds the interpreter lock in
    bursts, so timed query passes run inside `quiet()`, which samples
    once on entry and once on exit and not in between."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[tuple[float, int]] = []  # (time.time(), bytes)
        self._stop = threading.Event()
        self._quiet = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.samples.append((time.time(), _tree_rss_bytes(os.getpid())))

    def _run(self):
        while not self._stop.is_set():
            with self._quiet:
                self._sample()
            self._stop.wait(self.interval)

    @contextlib.contextmanager
    def quiet(self):
        with self._quiet:
            self._sample()
            try:
                yield
            finally:
                self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)

    def peak_since(self, t: float) -> float:
        """Largest sample taken at or after time.time() `t`, in MB."""
        with self._quiet:
            self._sample()
        return max(b for ts, b in self.samples if ts >= t) / 1e6
