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
import threading
import weakref
from array import array
from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

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


#: Deferred spans are folded at least this often, which bounds the
#: stamp buffer (and the floats it keeps alive) whoever reads or not.
_FOLD_SPANS = 1024


def _span_of(stamps: Tuple) -> FrameSpan:
    """The :class:`FrameSpan` of ``(t_start, t_push, t_pop, t_done,
    t_drained, vri_id, vr)``, as :meth:`SpanRecorder.record_stamps`
    builds it."""
    t_start, t_push, t_pop, t_done, t_drained, vri_id, vr = stamps
    return FrameSpan(t_drained, t_push - t_start, t_pop - t_push,
                     t_done - t_pop, t_drained - t_done, vri_id, vr)


class _SpanFold:
    """The deferred writer of one label set's five phase histograms.

    :meth:`SpanRecorder.record_stamps` appends each span's five stamps
    to the flat list :attr:`stamps`; :meth:`fold` turns them into
    histogram updates in one vectorised pass, exactly as folding each
    span on arrival would leave them:

    * ``bisect_left`` is ``np.searchsorted(..., side="left")``, and the
      per-bucket increments one ``np.bincount``;
    * a duration that is not ``> 0.0`` (negative, ``-0.0``, NaN) is
      observed as ``0.0``;
    * ``sum`` is ``np.add.accumulate`` seeded with the running sum, so
      the float is added left to right, bit for bit (``np.sum`` would
      add pairwise).

    A fold may run on another thread than the appends (a registry read
    from a scrape thread, a collector's finalizer): folds hold
    :attr:`lock`, and each takes only the whole spans buffered when it
    starts off the front of the list, so a span appended meanwhile
    waits for the next fold, and none is folded twice.  The lock is
    re-entrant because a fold allocates, so the cyclic collector may
    run the owner's finalizer (another fold of this writer) inside it.

    The registry finds this object by its histograms
    (:meth:`Registry.deferred`) and holds it weakly; the recorders
    using it hold it, and the owner folds it when it goes.  It refers
    to nothing but the histograms.
    """

    __slots__ = ("hists", "bounds", "stamps", "folded", "owned", "lock",
                 "__weakref__")

    def __init__(self, hists: Tuple):
        self.hists = hists
        self.bounds = tuple(np.asarray(h.buckets, dtype=float)
                            for h in hists)
        self.stamps: List[float] = []
        #: Spans folded so far (all from the owning recorder).
        self.folded = 0
        #: Whether a recorder defers into this writer (the first DES
        #: one on the label set does).
        self.owned = False
        self.lock = threading.RLock()

    def recorded(self) -> int:
        """Spans appended so far, folded or not."""
        with self.lock:
            return self.folded + len(self.stamps) // 5

    def fold(self) -> None:
        with self.lock:
            stamps = self.stamps
            if not stamps:
                return
            # One append adds a whole span (a single list extend), and
            # the copy runs without a thread switch: ``chunk`` holds
            # whole spans, and the delete keeps any appended since.
            chunk = array("d", stamps)
            del stamps[:len(chunk)]
            self._fold(chunk)

    def _fold(self, chunk: array) -> None:
        n = len(chunk) // 5
        times = np.frombuffer(chunk).reshape(n, 5).T
        durations = np.empty((5, n))
        with np.errstate(invalid="ignore", over="ignore"):
            # Python floats make inf - inf a NaN silently; so do these.
            np.subtract(times[1:], times[:-1], out=durations[:4])
            np.add(durations[0], durations[1], out=durations[4])
            durations[4] += durations[2]
            durations[4] += durations[3]
        durations[~(durations > 0.0)] = 0.0
        for hist, bounds, row in zip(self.hists, self.bounds, durations):
            counts = hist.counts
            binned = np.bincount(np.searchsorted(bounds, row, side="left"),
                                 minlength=len(counts))
            for i in np.flatnonzero(binned).tolist():
                counts[i] += int(binned[i])
            hist.sum = float(np.add.accumulate(
                np.concatenate(((hist.sum,), row)))[-1])
            hist.count += n
        self.folded += n


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
    * On the DES backend (``backend="des"``) spans fold into the
      histograms on read (see :class:`_SpanFold`): :meth:`record_stamps`
      only appends, and every read — this class's :meth:`percentiles`
      and :meth:`jsonl`, and the registry's (snapshot, merge, export,
      :class:`~repro.obs.slo.SloWatchdog` evaluation) — folds first.
      Its :class:`FrameSpan` objects are built when :attr:`recent` is
      read, for the window only.  With the tracer on, for a second
      recorder on the same label set, and on any other backend (whose
      spans are sampled 1-in-N, so there is little to batch), each span
      is folded on arrival instead.
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
        #: The recent window: FrameSpans, and the raw stamp tuples of
        #: deferred spans until :attr:`recent` builds their FrameSpans.
        self._recent: Deque = deque(maxlen=keep)
        #: Spans this recorder folded on arrival (the deferred ones are
        #: counted by its writer).
        self._eager = 0
        self._tick = 0
        self._hists: Dict[str, object] = {}
        #: The five ``frame_latency_seconds`` histograms, in
        #: PHASES-then-total order, and their deferred writer (resolved
        #: on first use: no span, no histogram family).
        self._phase_hists: Optional[Tuple] = None
        self._writer: Optional[_SpanFold] = None
        #: ``_writer`` when this recorder owns it (defers), else None:
        #: only a DES recorder defers.
        self._deferring: Optional[_SpanFold] = None

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

    def _resolve(self) -> Tuple:
        """Register the five histograms and find their writer.  The
        first DES recorder on a label set owns the writer and defers;
        any other one folds it before each of its own (eager) spans, so
        spans sharing a histogram still add up in arrival order."""
        hists = self._phase_hists = tuple(
            self._hist(phase) for phase in PHASES + ("total",))
        writer = self._writer = self.registry.deferred(
            (self.METRIC,) + tuple(id(h) for h in hists),
            lambda: _SpanFold(hists))
        if self.backend == "des" and not writer.owned:
            writer.owned = True
            self._deferring = writer
            # Spans still buffered when this recorder goes are folded
            # then, for the registry's readers, which outlive it.
            weakref.finalize(self, writer.fold).atexit = False
        return hists

    def record(self, span: FrameSpan) -> None:
        """Fold one span into the histograms now (the eager path)."""
        hists = self._phase_hists
        if hists is None:
            hists = self._resolve()
        writer = self._writer
        if writer.stamps:
            # Earlier spans first: the sums add in arrival order.
            writer.fold()
        durations = (span.dispatch, span.ring_wait, span.service,
                     span.drain, span.total)
        for hist, dur in zip(hists, durations):
            # hist.observe(max(0.0, dur)), spelled out: negatives, -0.0
            # and NaN read 0.0.
            if not dur > 0.0:
                dur = 0.0
            hist.counts[bisect_left(hist.buckets, dur)] += 1
            hist.sum += dur
            hist.count += 1
        self._recent.append(span)
        self._eager += 1
        if TRACER.enabled:
            TRACER.complete("frame.span", ts=span.ts - span.total,
                            dur=span.total, cat="span",
                            track=f"vri{span.vri_id}" if span.vri_id else "lvrm",
                            **{k: round(v, 9)
                               for k, v in span.phases().items()})

    def record_stamps(self, t_start: float, t_push: float, t_pop: float,
                      t_done: float, t_drained: float,
                      vri_id: Optional[int] = None, vr: str = "") -> None:
        """Record a span from the five pipeline timestamps.  It is
        appended to the writer's buffer and folded on the next read (or
        when the buffer fills); with the tracer on, it is folded now."""
        writer = self._deferring
        if writer is None or TRACER.enabled:
            self.record(FrameSpan(t_drained, t_push - t_start,
                                  t_pop - t_push, t_done - t_pop,
                                  t_drained - t_done, vri_id, vr))
            return
        stamps = writer.stamps
        stamps += (t_start, t_push, t_pop, t_done, t_drained)
        self._recent.append(
            (t_start, t_push, t_pop, t_done, t_drained, vri_id, vr))
        if len(stamps) >= _FOLD_SPANS * 5:
            writer.fold()

    # -- read paths ---------------------------------------------------------
    @property
    def recent(self) -> Deque[FrameSpan]:
        """The last ``keep`` spans, oldest first (a copy: safe to read
        while spans are recorded on another thread)."""
        window = tuple(self._recent)
        return deque((_span_of(span) if type(span) is tuple else span
                      for span in window), maxlen=self._recent.maxlen)

    @property
    def recorded(self) -> int:
        """Spans recorded so far."""
        writer = self._deferring
        if writer is None:
            return self._eager
        return self._eager + writer.recorded()

    def percentiles(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"p50": ..., "p95": ..., "p99": ...}}`` so far."""
        if self._writer is not None:
            self._writer.fold()
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
