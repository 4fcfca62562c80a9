"""The monitor's inline dispatch/drain stage.

:class:`DispatchPipeline` is the monitor's classify → overload-admit →
balance → stage → descriptor-push pipeline plus the matching drain side.
:class:`repro.runtime.monitor.RuntimeLvrm`, the paper's single monitor
process, holds one and delegates its data plane to it.

The constructor takes what the pipeline reads: the live worker handles
(the monitor's own ``vris`` list, which it keeps editing in place), a
:mod:`repro.core.balancing` balancer (``RoundRobin`` or
``JoinShortestQueue``, asked once per burst), the worker data-ring
depth, the admission controller (or None), the span recorder, the arena
producer (or None on the copy plane) and the monitor's ``obs_id``
label.  It creates its own instruments, drain batcher and record-mode
pending ``ring.push`` counts.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.balancing import LoadBalancer
from repro.errors import RuntimeBackendError
from repro.ipc.desc import FLAG_PROBE, PROBE_HEADROOM
from repro.ipc.wait import AimdBatcher
from repro.obs.registry import default_registry
from repro.obs.spans import PROBE_MAGIC_BYTES, SpanRecorder, \
    decode_out_probe, encode_in_probe
from repro.obs.trace import TRACER as _TRACE
from repro.runtime.api import VriSideApi

__all__ = ["DispatchPipeline"]

#: Descriptor word-1 fields: the probe flag bit, and the output
#: interface half-word at bits 32..47.
_PROBE_BITS = np.uint64(FLAG_PROBE << 48)
_SHIFT32 = np.uint64(32)
_MASK16 = np.uint64(0xFFFF)


class DispatchPipeline:
    """The monitor's dispatch/drain stage over a list of worker handles.

    Each handle has ``vri_id``, ``data_in``, ``data_out``,
    ``dispatched``, ``drained`` and ``load_estimate()``.
    """

    def __init__(self, vris: List, balancer: LoadBalancer,
                 ring_capacity: int, overload, spans: SpanRecorder,
                 arena_prod, obs_id: str) -> None:
        self.vris = vris
        self.balancer = balancer
        self.ring_capacity = ring_capacity
        self.overload = overload
        self.spans = spans
        self.arena_prod = arena_prod
        self.arena = None if arena_prod is None else arena_prod.arena
        # Record mode: dispatch coalesces its ring.push trace events here
        # (vri_id -> records) instead of paying a Tracer emit per ring
        # transaction; see :meth:`flush_trace`.
        self._push_pending: Dict[int, int] = {}
        registry = default_registry()
        self._c_dispatched = registry.counter(
            "lvrm_dispatched_total",
            "frames the monitor balanced onto a worker ring", rt=obs_id)
        if arena_prod is not None:
            self._c_arena_alloc = registry.counter(
                "arena_alloc_total", "arena chunk allocations served",
                rt=obs_id)
            self._c_arena_exhausted = registry.counter(
                "arena_exhausted_total",
                "dispatch attempts refused because the arena ran dry",
                rt=obs_id)
        self._h_batch = registry.histogram(
            "ring_batch_size", "records moved per ring transaction",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            rt=obs_id, side="dispatch")
        self._h_batch_drain = registry.histogram(
            "ring_batch_size", "records moved per ring transaction",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            rt=obs_id, side="drain")
        #: Probe records whose stamp block failed to decode (the
        #: ``spans`` plane of the monitor's sequence-gap family).
        self._c_seq_gap_spans = registry.counter(
            "trace_seq_gap_total",
            "lost or out-of-order sequenced records, by plane",
            rt=obs_id, plane="spans")
        #: Drain-side adaptive burst: bounds how many records one ring
        #: transaction moves, growing under load so the shared-index
        #: synchronization amortizes, decaying when idle.  The ceiling
        #: scales with ring depth (256 at the default 1024) so deep
        #: rings keep amortizing instead of capping at 256.
        self._drain_batcher = AimdBatcher(
            hi=max(256, min(1024, ring_capacity // 8)))

    # -- data plane ------------------------------------------------------------
    def _overload_occupancy(self) -> float:
        """Admission-control load signal: the fullest worker data ring,
        normalized to [0, 1]."""
        return max(self.occupancies().values(), default=0.0)

    def occupancies(self) -> Dict[int, float]:
        """Per-VRI data-ring fill fractions (surfaced on ``/overload``)."""
        cap = self.ring_capacity
        if not cap:
            return {}
        return {v.vri_id: len(v.data_in) / cap for v in self.vris}

    def flush_trace(self) -> None:
        """Emit the coalesced ``ring.push`` trace events (record mode).

        Dispatch only bumps a pending per-VRI count — a dict update, not
        a Tracer emit, keeping record-mode overhead inside its e2e
        budget even when callers dispatch frame by frame.  This flushes
        the counts as one batched event per VRI, and must run before any
        event that *observes* ring occupancy in the replay twin: ring
        pops, stranded-arena reclaims, and the final summary.
        Single-threaded monitor, so the deferral never reorders across a
        pop of the same records.
        """
        pend = self._push_pending
        if not pend:
            return
        now = time.monotonic()
        for vri_id, n in pend.items():
            _TRACE.instant("ring.push", ts=now, cat="replay",
                           track="lvrm", vri=vri_id, n=n)
        pend.clear()

    def _trace_shed(self, shed_before: List[int]) -> None:
        """Record per-class shed deltas since ``shed_before`` as
        ``frame.shed`` trace events (record mode only — the replayer
        recomputes per-class counters from these)."""
        ctl = self.overload
        names = ctl.classifier.classes
        now = time.monotonic()
        for c, before in enumerate(shed_before):
            delta = ctl.shed[c] - before
            if delta:
                _TRACE.instant("frame.shed", ts=now, cat="replay",
                               track="lvrm", cls=names[c], n=delta)

    def dispatch_many(self, frames: List[bytes]) -> int:
        """Balance a burst of frames with one ring transaction per worker.

        The balancing decision runs at batch granularity (one pick per
        burst, asking the balancer again only for frames the first
        choice could not absorb) — the runtime twin of what the thesis
        calls amortizing the "balance" step.  Returns how many frames
        were accepted.
        """
        if not self.vris:
            raise RuntimeBackendError("monitor is stopped")
        if self.overload is not None:
            # Admission is decided per-block *before* staging so the
            # vectorized kernels (numpy/cffi write_block) still see one
            # contiguous burst — just a smaller one.
            self.overload.maybe_update(time.monotonic(),
                                       self._overload_occupancy)
            shed_before = (list(self.overload.shed) if _TRACE.enabled
                           else None)
            frames = self.overload.admit_block(frames)
            if shed_before is not None:
                self._trace_shed(shed_before)
            if not frames:
                return 0
        if self.arena is not None:
            return self._dispatch_arena_many(frames)
        probe_at = self.spans.sample_index(len(frames))
        if probe_at is not None:
            now = time.monotonic()
            frames = list(frames)
            frames[probe_at] = encode_in_probe(now, now, frames[probe_at])
        return self._push(frames)

    def _push(self, burst) -> int:
        """Push ``burst`` — frames, or a staged descriptor block on the
        arena plane — across the worker rings, one transaction per
        worker tried; returns how many records the rings took."""
        desc = self.arena is not None
        n_burst = len(burst)
        vris = self.vris
        choose = self.balancer.choose
        sent = 0
        rest = burst
        # At worst every worker's ring is tried once.
        for _ in range(len(vris)):
            if sent >= n_burst:
                break
            vri = choose(None, vris, 0.0)
            ring = vri.data_in
            n = (ring.try_push_desc_block(rest) if desc
                 else ring.try_push_many(rest))
            if n:
                vri.dispatched += n
                sent += n
                rest = burst[sent:]
                if _TRACE.enabled:
                    pend = self._push_pending
                    pend[vri.vri_id] = pend.get(vri.vri_id, 0) + n
        if sent:
            self._c_dispatched.inc(sent)
            self._h_batch.observe(sent)
        return sent

    def _dispatch_arena_many(self, frames: List[bytes]) -> int:
        """Arena-mode burst dispatch: each payload staged once, the
        burst's descriptors pushed with one ring transaction per worker
        tried.  Frames that find neither a chunk nor ring space are
        rejected (their chunks freed), mirroring the copy path's
        partial-accept contract."""
        prod = self.arena_prod
        n_frames = len(frames)
        probe_at = self.spans.sample_index(n_frames)
        # Fused staging: one call writes the burst and returns its
        # descriptor block (no per-frame packing).  A sampled burst
        # reserves stamp headroom in every chunk; only the probed frame
        # gets its stamps and its flag.
        block = prod.write_block(
            frames, headroom=0 if probe_at is None else PROBE_HEADROOM,
            stamp=time.monotonic_ns())
        staged = len(block)
        if probe_at is not None and probe_at < staged:
            now = time.monotonic()
            self.arena.write_stamps(int(block[probe_at, 0]),
                                    int(block[probe_at, 1]) & 0xFFFFFFFF,
                                    0, now, now)
            block[probe_at, 1] |= _PROBE_BITS
        if staged < n_frames:
            # Arena dry: staging stopped — descriptors later in the
            # burst would only deepen the shortage.
            self._c_arena_exhausted.inc(n_frames - staged)
            if not staged:
                return 0
        sent = self._push(block)
        if sent < staged:
            # Every ring full: give the staged chunks back.
            prod.free_local_many(block[sent:, 0])
        if sent:
            self._c_arena_alloc.inc(sent)
        return sent

    def drain(self) -> List[Tuple[int, int, bytes]]:
        """Collect all available outputs: ``(vri_id, out_iface, frame)``.

        Each worker's outgoing ring is popped in adaptive bursts until
        it reads empty.
        """
        out: List[Tuple[int, int, bytes]] = []
        desc = self.arena is not None
        take = self._take_block if desc else self._take_records
        batcher = self._drain_batcher
        for vri in self.vris:
            ring = vri.data_out
            pop = ring.try_pop_desc_block if desc else ring.try_pop_many
            vri_id = vri.vri_id
            while True:
                popped = pop(batcher.size)
                got = 0 if popped is None else len(popped)
                batcher.update(got)
                if not got:
                    break
                self._h_batch_drain.observe(got)
                vri.drained += got
                if _TRACE.enabled:
                    # Covering pushes must hit the trace before the pop.
                    if self._push_pending:
                        self.flush_trace()
                    _TRACE.instant("ring.pop", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   vri=vri_id, n=got)
                take(vri_id, popped, out)
        return out

    def _take_records(self, vri_id: int, records: List[bytes],
                      out: List[Tuple[int, int, bytes]]) -> None:
        """Copy plane: split each popped record into ``(iface, frame)``,
        closing the latency span of any probed one."""
        split = VriSideApi.split_output
        magic = PROBE_MAGIC_BYTES
        for record in records:
            if record[:4] == magic:
                # A probed record closes its latency span here.
                stamps, record = decode_out_probe(record)
                if stamps is not None:
                    self.spans.record_stamps(
                        *stamps, time.monotonic(), vri_id=vri_id)
                    if _TRACE.enabled:
                        _TRACE.instant(
                            "span.close", ts=time.monotonic(),
                            cat="replay", track="lvrm", vri=vri_id)
                else:
                    # Magic matched but the stamp block did not
                    # decode: a lost/garbled probe sequence.
                    self._c_seq_gap_spans.inc()
            iface, frame = split(record)
            out.append((vri_id, iface, frame))

    def _take_block(self, vri_id: int, block: np.ndarray,
                    out: List[Tuple[int, int, bytes]]) -> None:
        """Arena plane: copy each frame out of its chunk exactly once
        (the caller owns the result, so this copy is the round trip's
        second and last), then free the chunks straight onto the
        owner's free list."""
        arena = self.arena
        word1 = block[:, 1]
        # Probes only exist when dispatch samples spans; with sampling
        # off the per-block flag scan is pure overhead.
        if self.spans.sample_every and (word1 & _PROBE_BITS).any():
            # Probed chunks carry all four span stamps in their
            # headroom; close those spans before freeing.
            now = time.monotonic()
            for row in np.flatnonzero(word1 & _PROBE_BITS).tolist():
                off = int(block[row, 0])
                length = int(word1[row]) & 0xFFFFFFFF
                self.spans.record_stamps(*arena.read_stamps(off, length),
                                         now, vri_id=vri_id)
                if _TRACE.enabled:
                    _TRACE.instant("span.close", ts=now, cat="replay",
                                   track="lvrm", vri=vri_id)
        payloads = arena.read_block(block)
        ifaces = ((word1 >> _SHIFT32) & _MASK16).tolist()
        out.extend(zip(itertools.repeat(vri_id), ifaces, payloads))
        self.arena_prod.free_local_many(block[:, 0])
