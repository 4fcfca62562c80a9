"""Span recording around calls into a layer's public functions.

The spans live here, in the benchmark, not in the program: a traced run
wraps the public methods it calls (``dispatch_many``, ``drain``,
``drain_until``, ``pump_control``) and brackets its own loop stages, and
keeps every span in memory until the run ends.  A span is
``(name, start_ns, end_ns, parent, n)``; ``parent`` is the index of the
span that caused it (-1 at top level) and ``n`` the frames it moved.

Self time of a span is its duration minus what its children cover.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer"]

_clock = time.perf_counter_ns


_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name_id", "sid")

    def __init__(self, tracer: "Tracer", name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.sid = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, 0)
        return False


class Tracer:
    """In-memory span store; ``enabled`` can be flipped between windows
    so one run yields traced and untraced windows side by side."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # Columns, one entry per span.
        self.name_ids: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.n: List[int] = []
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_ids.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.n.append(0)
        self._stack.append(sid)
        self.start.append(_clock())
        return sid

    def _close(self, sid: int, n: int) -> None:
        self.end[sid] = _clock()
        self.n[sid] = n
        self._stack.pop()

    def span(self, name: str):
        """Context manager for the benchmark's own loop stages."""
        if not self.enabled:
            return _NULL
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """Wrap a layer's public callable; ``count(result)`` gives the
        frames the call moved (default: ``len`` of a sized result, or the
        result itself when it is an int)."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            moved = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    moved = count(result)
                elif isinstance(result, int):
                    moved = result
                elif hasattr(result, "__len__"):
                    moved = len(result)
                return result
            finally:
                self._close(sid, moved)

        return traced

    # -- summaries -------------------------------------------------------------
    def self_times(self) -> List[int]:
        """Self time (ns) per span."""
        self_ns = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= self.end[sid] - self.start[sid]
        return self_ns

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, frames moved, self ns — and the same
        split by whether the call moved anything (``busy``) or not
        (``empty``), which is how polling shows up as idle time."""
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "n": 0, "self_ns": 0, "busy_self_ns": 0,
                   "empty_self_ns": 0, "top_ns": 0}
            for name in self.names}
        for sid, self_ns in enumerate(self.self_times()):
            row = out[self.names[self.name_ids[sid]]]
            row["calls"] += 1
            row["n"] += self.n[sid]
            row["self_ns"] += self_ns
            row["busy_self_ns" if self.n[sid] else "empty_self_ns"] += self_ns
            if self.parent[sid] < 0:
                row["top_ns"] += self.end[sid] - self.start[sid]
        return out

    def dump(self, limit: int = 200_000) -> Dict[str, object]:
        """JSON-ready columns (first ``limit`` spans; totals cover all)."""
        t0 = self.start[0] if self.start else 0
        return {
            "names": self.names,
            "spans": len(self.start),
            "truncated_to": min(limit, len(self.start)),
            "name_id": self.name_ids[:limit],
            "start_ns": [s - t0 for s in self.start[:limit]],
            "dur_ns": [e - s for s, e in
                       zip(self.start[:limit], self.end[:limit])],
            "parent": self.parent[:limit],
            "n": self.n[:limit],
            "totals": self.totals(),
        }
