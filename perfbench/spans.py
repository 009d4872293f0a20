"""In-memory spans recorded around calls into the engine's layers.

The tracer patches public functions and methods of the engine from the
outside (module or class attributes) and restores them afterwards; the
package itself is not edited. Each span records its name, start, end
and the span that was open when it began (its parent). Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent))
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        if not self._open or self._open[-1] != sid:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open.pop()
        return span

    @property
    def current(self) -> Span | None:
        return self.spans[self._open[-1]] if self._open else None

    def wrap(self, owner, attr: str, name: str, after=None):
        """Replace `owner.attr` by a wrapper that records a span named
        `name` around each call. `after(span, args, kwargs, result)`
        runs once the span is closed. Wrapping the same attribute twice
        is refused so no call is counted twice."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if getattr(original, "__perfbench_wrapped__", False):
            raise RuntimeError(f"{name} is already traced")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.end(sid)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__perfbench_wrapped__ = True
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval that its direct children cover (overlapping children are
    counted once)."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(kids.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
