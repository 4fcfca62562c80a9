"""Frame-level latency spans: where did this frame spend its time?

A *span* attributes one frame's end-to-end gateway latency to four
phases, the same decomposition in both backends:

========== ==========================================================
phase      meaning
========== ==========================================================
dispatch   capture/classify/balance until the frame is in a VRI queue
ring_wait  queued in the VRI's incoming ring before the VRI pops it
service    the VRI's pop + route + process + push
drain      queued in the outgoing ring until LVRM transmits it
========== ==========================================================

plus ``total`` (= capture to transmit).  Phases feed one histogram
family, ``frame_latency_seconds{phase=...}``, over the fine-grained
:data:`~repro.obs.quantiles.LATENCY_BUCKETS`, so p50/p95/p99 with
per-phase attribution read straight out of any registry — merged
cluster-wide views included.

Clock domains (the tracer's rule applies): the DES stamps ``sim.now``
and records **every** frame exactly; the runtime backend stamps
``time.monotonic()`` — CLOCK_MONOTONIC is system-wide on Linux, so
stamps are comparable across the monitor and worker processes — and
samples 1-in-N via a *slot-header probe*: the monitor prepends
:func:`encode_in_probe` to a sampled frame's ring record, the worker
recognizes the magic, adds its own stamps with :func:`encode_out_probe`,
and the monitor closes the span at drain.  Unsampled frames carry no
header and pay only a 4-byte magic comparison per record.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.quantiles import LATENCY_BUCKETS
from repro.obs.registry import Registry, default_registry
from repro.obs.trace import TRACER

__all__ = ["FrameSpan", "SpanRecorder", "PHASES",
           "encode_in_probe", "decode_in_probe",
           "encode_out_probe", "decode_out_probe",
           "PROBE_MAGIC", "PROBE_MAGIC_BYTES",
           "IN_PROBE_BYTES", "OUT_PROBE_BYTES"]

#: Phase names, in pipeline order (``total`` is derived, not listed).
PHASES = ("dispatch", "ring_wait", "service", "drain")

#: Leading magic of a probed ring record ("LVSP"): chosen to be an
#: impossible Ethernet frame prefix (destination MAC starting 0x4c 0x56
#: 0x53 0x50 is a valid unicast OUI, but the monitor only wraps frames
#: it chose to sample, and the worker strips before parsing, so the
#: magic never reaches a codec).
PROBE_MAGIC = 0x4C565350

#: The magic's on-wire prefix — hot loops compare ``record[:4]`` against
#: this before paying for a full decode, so unsampled records cost one
#: bytes comparison.
PROBE_MAGIC_BYTES = struct.pack("<I", PROBE_MAGIC)

#: monitor -> worker: magic, t_start (capture), t_push (enqueue done).
_IN_PROBE = struct.Struct("<Idd")
#: worker -> monitor: magic, t_start, t_push, t_pop, t_done.
_OUT_PROBE = struct.Struct("<Idddd")

IN_PROBE_BYTES = _IN_PROBE.size
OUT_PROBE_BYTES = _OUT_PROBE.size


def encode_in_probe(t_start: float, t_push: float, frame: bytes) -> bytes:
    """Wrap a sampled frame for the monitor->worker data ring."""
    return _IN_PROBE.pack(PROBE_MAGIC, t_start, t_push) + frame


def decode_in_probe(record: bytes) -> Tuple[Optional[Tuple[float, float]], bytes]:
    """``((t_start, t_push), frame)`` for a probed record, else
    ``(None, record)`` unchanged."""
    if len(record) >= _IN_PROBE.size:
        magic, t_start, t_push = _IN_PROBE.unpack_from(record)
        if magic == PROBE_MAGIC:
            return (t_start, t_push), record[_IN_PROBE.size:]
    return None, record


def encode_out_probe(t_start: float, t_push: float, t_pop: float,
                     t_done: float, record: bytes) -> bytes:
    """Wrap a routed record for the worker->monitor data ring."""
    return _OUT_PROBE.pack(PROBE_MAGIC, t_start, t_push, t_pop,
                           t_done) + record


def decode_out_probe(record: bytes) -> Tuple[Optional[Tuple[float, float, float, float]], bytes]:
    """``((t_start, t_push, t_pop, t_done), record)`` for a probed
    record, else ``(None, record)`` unchanged."""
    if len(record) >= _OUT_PROBE.size:
        head = _OUT_PROBE.unpack_from(record)
        if head[0] == PROBE_MAGIC:
            return head[1:], record[_OUT_PROBE.size:]
    return None, record


class FrameSpan:
    """One completed frame span (all durations in seconds)."""

    __slots__ = ("ts", "dispatch", "ring_wait", "service", "drain",
                 "total", "vri_id", "vr")

    def __init__(self, ts: float, dispatch: float, ring_wait: float,
                 service: float, drain: float,
                 vri_id: Optional[int] = None, vr: str = ""):
        self.ts = ts
        self.dispatch = dispatch
        self.ring_wait = ring_wait
        self.service = service
        self.drain = drain
        self.total = dispatch + ring_wait + service + drain
        self.vri_id = vri_id
        self.vr = vr

    def phases(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in PHASES}

    def to_dict(self) -> Dict:
        d = {"ts": self.ts, "total": self.total, **self.phases()}
        if self.vri_id is not None:
            d["vri_id"] = self.vri_id
        if self.vr:
            d["vr"] = self.vr
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FrameSpan total={self.total * 1e6:.1f}us "
                f"vri={self.vri_id} "
                + " ".join(f"{k}={v * 1e6:.1f}us"
                           for k, v in self.phases().items()) + ">")


class SpanRecorder:
    """Collects frame spans into histograms + a bounded recent window.

    * ``sample_every`` — record 1-in-N frames (1 = every frame, the DES
      default; 0 disables entirely and :meth:`should_sample` costs one
      compare).  Sampling is decided at *dispatch* so every recorded
      span is complete end-to-end.
    * ``clock`` — the emitting clock (``sim.clock()`` or
      ``time.monotonic``); only used to timestamp completed spans.
    * Histograms are registered lazily per ``phase`` label under
      ``frame_latency_seconds`` with the given extra labels, so two
      recorders (two monitors) in one process stay distinct.
    """

    METRIC = "frame_latency_seconds"

    def __init__(self, registry: Optional[Registry] = None,
                 sample_every: int = 1,
                 clock: Optional[Callable[[], float]] = None,
                 backend: str = "des", keep: int = 256,
                 labels: Optional[Dict[str, str]] = None):
        if sample_every < 0:
            raise ValueError(f"sample_every cannot be negative: {sample_every}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1: {keep}")
        self.registry = registry if registry is not None else default_registry()
        self.sample_every = sample_every
        self.clock = clock
        self.backend = backend
        self.labels = dict(labels or {})
        self.labels.setdefault("backend", backend)
        self.recent: Deque[FrameSpan] = deque(maxlen=keep)
        self.recorded = 0
        self._tick = 0
        self._hists: Dict[str, object] = {}
        #: The five ``frame_latency_seconds`` histograms :meth:`record`
        #: feeds, in PHASES-then-total order (resolved on first use).
        self._phase_hists: Optional[Tuple] = None

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    def should_sample(self) -> bool:
        """Decide at dispatch time whether this frame carries a span."""
        if self.sample_every <= 0:
            return False
        self._tick += 1
        if self._tick >= self.sample_every:
            self._tick = 0
            return True
        return False

    def sample_index(self, n: int) -> Optional[int]:
        """Batched :meth:`should_sample`: advance the 1-in-N cursor by
        ``n`` frames and return the index of the frame to probe, or
        ``None``.  At most one probe per batch — when a batch spans
        several sampling periods the extras are skipped, which keeps the
        effective rate *at most* 1-in-N (never above)."""
        if self.sample_every <= 0 or n <= 0:
            return None
        tick = self._tick + n
        if tick < self.sample_every:
            self._tick = tick
            return None
        idx = self.sample_every - self._tick - 1
        self._tick = tick % self.sample_every
        return idx

    def _hist(self, phase: str):
        hist = self._hists.get(phase)
        if hist is None:
            hist = self.registry.histogram(
                self.METRIC,
                "sampled per-frame gateway latency by phase",
                buckets=LATENCY_BUCKETS, phase=phase, **self.labels)
            self._hists[phase] = hist
        return hist

    def record(self, span: FrameSpan) -> None:
        hists = self._phase_hists
        if hists is None:
            # Resolved on the first span, in PHASES-then-total order
            # (registration stays lazy: no span, no histogram family).
            hists = self._phase_hists = tuple(
                self._hist(phase) for phase in PHASES + ("total",))
        durations = (span.dispatch, span.ring_wait, span.service,
                     span.drain, span.total)
        for hist, dur in zip(hists, durations):
            # hist.observe(max(0.0, dur)), spelled out (five per span,
            # and the DES records every frame): negatives and -0.0
            # read 0.0.
            if not dur > 0.0:
                dur = 0.0
            hist.counts[bisect_left(hist.buckets, dur)] += 1
            hist.sum += dur
            hist.count += 1
        self.recent.append(span)
        self.recorded += 1
        if TRACER.enabled:
            TRACER.complete("frame.span", ts=span.ts - span.total,
                            dur=span.total, cat="span",
                            track=f"vri{span.vri_id}" if span.vri_id else "lvrm",
                            **{k: round(v, 9)
                               for k, v in span.phases().items()})

    def record_stamps(self, t_start: float, t_push: float, t_pop: float,
                      t_done: float, t_drained: float,
                      vri_id: Optional[int] = None, vr: str = "") -> FrameSpan:
        """Build and record a span from the five pipeline timestamps."""
        span = FrameSpan(t_drained, t_push - t_start, t_pop - t_push,
                         t_done - t_pop, t_drained - t_done, vri_id, vr)
        self.record(span)
        return span

    # -- read paths ---------------------------------------------------------
    def percentiles(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"p50": ..., "p95": ..., "p99": ...}}`` so far."""
        out: Dict[str, Dict[str, float]] = {}
        for phase in PHASES + ("total",):
            hist = self._hists.get(phase)
            if hist is not None and hist.count:
                out[phase] = hist.percentiles()
        return out

    def jsonl(self) -> str:
        """Recent spans, oldest first, one JSON object per line (the
        ``/spans`` admin route)."""
        lines = [json.dumps(s.to_dict(), sort_keys=True)
                 for s in self.recent]
        return "\n".join(lines) + ("\n" if lines else "")
