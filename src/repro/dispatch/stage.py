"""The monitor's inline dispatch/drain stage.

:class:`DispatchPipeline` is the monitor's classify → overload-admit →
balance → stage → descriptor-push pipeline plus the matching drain side.
:class:`repro.runtime.monitor.RuntimeLvrm`, the paper's single monitor
process, is its only host.

The mixin is attribute-driven rather than constructor-driven: the host
supplies the state the pipeline reads, nothing more.

Required host attributes
------------------------
``vris``                 list of handles with ``vri_id``, ``data_in``,
                         ``data_out``, ``dispatched``, ``drained``
``balancer``/``_rr``     ``"rr"`` or ``"jsq"`` + the rotation cursor
``ring_capacity``        worker data-ring depth (occupancy normalizer)
``overload``             ``AdmissionController`` or None
``spans``                ``SpanRecorder``
``arena``/``_arena_prod``  ``FrameArena`` + the monitor's producer,
                         or None on the copy plane
``_push_pending``        record-mode coalesced ``ring.push`` counts
``_drain_batcher``       AIMD drain burst sizer
``_c_dispatched``, ``_c_arena_alloc``, ``_c_arena_exhausted``,
``_h_batch``, ``_h_batch_drain``, ``_c_seq_gap_spans``,
``_c_wait_sleeps``/``_wait``/``_wait_sleeps_seen``  instruments
``pump_control()``       idle-path control pump (used by drain_until)
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeBackendError
from repro.ipc.desc import FLAG_PROBE, PROBE_HEADROOM, pack_desc_block
from repro.obs.spans import PROBE_MAGIC_BYTES, decode_out_probe, \
    encode_in_probe
from repro.obs.trace import TRACER as _TRACE
from repro.runtime.api import VriSideApi

__all__ = ["DispatchPipeline"]


class DispatchPipeline:
    """The monitor's dispatch/drain stage."""

    # -- data plane ------------------------------------------------------------
    def _pick(self):
        if self.balancer == "jsq":
            return min(self.vris, key=lambda v: len(v.data_in))
        vri = self.vris[self._rr % len(self.vris)]
        self._rr += 1
        return vri

    def _overload_occupancy(self) -> float:
        """Admission-control load signal: max data-ring fill across the
        workers, normalized to [0, 1]."""
        if not self.vris:
            return 0.0
        depth = max(len(v.data_in) for v in self.vris)
        return depth / self.ring_capacity if self.ring_capacity else 0.0

    def occupancies(self) -> Dict[int, float]:
        """Per-VRI data-ring fill fractions (surfaced on ``/overload``)."""
        cap = self.ring_capacity
        if not cap:
            return {}
        return {v.vri_id: len(v.data_in) / cap for v in self.vris}

    def dispatch(self, frame: bytes, t_capture: float = 0.0) -> bool:
        """Balance one raw frame to a worker; False when its ring is full.

        ``t_capture`` (monotonic) marks when the frame entered the
        gateway; defaults to now, making the dispatch phase ~0 for
        callers that hand frames straight in.
        """
        if not self.vris:
            raise RuntimeBackendError("monitor is stopped")
        if self.overload is not None:
            self.overload.maybe_update(time.monotonic(),
                                       self._overload_occupancy)
            shed_before = (list(self.overload.shed) if _TRACE.enabled
                           else None)
            admitted = self.overload.admit_raw(frame)
            if shed_before is not None:
                self._trace_shed(shed_before)
            if not admitted:
                # Shed reads as "not accepted", same as backpressure —
                # callers already handle a False dispatch.
                return False
        vri = self._pick()
        if self.arena is not None:
            probe = bool(self.spans.sample_every
                         and self.spans.should_sample())
            return self._dispatch_arena_one(vri, frame, t_capture, probe)
        if self.spans.sample_every and self.spans.should_sample():
            now = time.monotonic()
            frame = encode_in_probe(t_capture or now, now, frame)
        ok = vri.data_in.try_push(frame)
        if ok:
            vri.dispatched += 1
            self._c_dispatched.inc()
            if _TRACE.enabled:
                self._push_pending[vri.vri_id] = (
                    self._push_pending.get(vri.vri_id, 0) + 1)
        return ok

    def flush_trace(self) -> None:
        """Emit the coalesced ``ring.push`` trace events (record mode).

        The scalar dispatch path only bumps a pending per-VRI count —
        a dict update, not a Tracer emit, keeping record-mode overhead
        inside its e2e budget.  This flushes the counts as one batched
        event per VRI, and must run before any event that *observes*
        ring occupancy in the replay twin: ring pops, stranded-arena
        reclaims, and the final summary.  Single-threaded monitor, so
        the deferral never reorders across a pop of the same records.
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

    def _dispatch_arena_one(self, vri, frame: bytes,
                            t_capture: float, probe: bool) -> bool:
        """Arena mode: stage the payload once into its chunk, push a
        24-byte descriptor.  An exhausted arena reads as backpressure
        (False), same as a full ring."""
        prod = self._arena_prod
        got = prod.write(frame, headroom=PROBE_HEADROOM if probe else 0)
        if got is None:
            self._c_arena_exhausted.inc()
            return False
        off, length = got
        flags = 0
        if probe:
            now = time.monotonic()
            self.arena.write_stamps(off, length, 0, t_capture or now, now)
            flags = FLAG_PROBE
        ok = vri.data_in.try_push_desc_many(
            ((off, length, 0, flags, time.monotonic_ns()),)) == 1
        if ok:
            vri.dispatched += 1
            self._c_dispatched.inc()
            self._c_arena_alloc.inc()
            if _TRACE.enabled:
                self._push_pending[vri.vri_id] = (
                    self._push_pending.get(vri.vri_id, 0) + 1)
        else:
            prod.free_local(off)
        return ok

    def dispatch_many(self, frames: List[bytes]) -> int:
        """Balance a burst of frames with one ring transaction per worker.

        The balancing decision runs at batch granularity (one pick per
        burst, rotating to the next worker only for frames the first
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
        sent = 0
        remaining = frames
        # At worst every worker's ring is tried once.
        for _ in range(len(self.vris)):
            if not remaining:
                break
            vri = self._pick()
            n = vri.data_in.try_push_many(remaining)
            if n:
                vri.dispatched += n
                sent += n
                remaining = remaining[n:]
                if _TRACE.enabled:
                    _TRACE.instant("ring.push", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   vri=vri.vri_id, n=n)
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
        prod = self._arena_prod
        arena = self.arena
        n_frames = len(frames)
        probe_at = self.spans.sample_index(n_frames)
        stamp = time.monotonic_ns()
        probe_row: Optional[int] = None
        if probe_at is None:
            # Fused staging: one call writes the burst and returns its
            # descriptor block (no per-frame packing).
            block = prod.write_block(frames, stamp=stamp)
            staged = len(block)
            if staged < n_frames:
                self._c_arena_exhausted.inc(n_frames - staged)
                if not staged:
                    return 0
            return self._push_desc_block(block, staged)
        else:
            # The sampled frame alone needs stamp headroom, so it stages
            # through the scalar path between two bulk writes.
            offs, lens = prod.write_many(frames[:probe_at])
            if len(offs) == probe_at:
                got = prod.write(frames[probe_at], headroom=PROBE_HEADROOM)
                if got is not None:
                    off, length = got
                    now = time.monotonic()
                    arena.write_stamps(off, length, 0, now, now)
                    probe_row = len(offs)
                    offs.append(off)
                    lens.append(length)
                    tail_offs, tail_lens = prod.write_many(
                        frames[probe_at + 1:])
                    offs.extend(tail_offs)
                    lens.extend(tail_lens)
        staged = len(offs)
        if staged < n_frames:
            # Arena dry: staging stopped — descriptors later in the
            # burst would only deepen the shortage.
            self._c_arena_exhausted.inc(n_frames - staged)
            if not staged:
                return 0
        block = pack_desc_block(offs, lens, stamp=stamp)
        if probe_row is not None:
            block[probe_row, 1] |= np.uint64(FLAG_PROBE << 48)
        return self._push_desc_block(block, staged)

    def _push_desc_block(self, block, staged: int) -> int:
        """Push a staged descriptor block across worker rings (one
        transaction per worker tried), freeing any unsent tail."""
        sent = 0
        for _ in range(len(self.vris)):
            if sent >= staged:
                break
            vri = self._pick()
            n = vri.data_in.try_push_desc_block(block[sent:])
            if n:
                vri.dispatched += n
                sent += n
                if _TRACE.enabled:
                    _TRACE.instant("ring.push", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   vri=vri.vri_id, n=n)
        if sent < staged:
            # Every ring full: give the staged chunks back.
            self._arena_prod.free_local_many(block[sent:, 0])
        if sent:
            self._c_dispatched.inc(sent)
            self._c_arena_alloc.inc(sent)
            self._h_batch.observe(sent)
        return sent

    def drain(self) -> List[Tuple[int, int, bytes]]:
        """Collect all available outputs: ``(vri_id, out_iface, frame)``."""
        if self.arena is not None:
            return self._drain_arena()
        out: List[Tuple[int, int, bytes]] = []
        split = VriSideApi.split_output
        magic = PROBE_MAGIC_BYTES
        batcher = self._drain_batcher
        for vri in self.vris:
            while True:
                records = vri.data_out.try_pop_many(batcher.size)
                got = len(records)
                batcher.update(got)
                if not got:
                    break
                self._h_batch_drain.observe(got)
                vri.drained += got
                vri_id = vri.vri_id
                if _TRACE.enabled:
                    # Covering pushes must hit the trace before the pop.
                    if self._push_pending:
                        self.flush_trace()
                    _TRACE.instant("ring.pop", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   vri=vri_id, n=got)
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
        return out

    def _drain_arena(self) -> List[Tuple[int, int, bytes]]:
        """Arena-mode drain: pop descriptors, copy each frame out of its
        chunk exactly once (the caller owns the result, so this copy is
        the round trip's second and last), then free the chunk straight
        onto the owner's free list."""
        out: List[Tuple[int, int, bytes]] = []
        arena = self.arena
        read_block = arena.read_block
        free_many = self._arena_prod.free_local_many
        record_stamps = self.spans.record_stamps
        batcher = self._drain_batcher
        probe_bits = np.uint64(FLAG_PROBE << 48)
        shift32 = np.uint64(32)
        mask16 = np.uint64(0xFFFF)
        # Probes only exist when dispatch samples spans; with sampling
        # off the per-block flag scan is pure overhead.
        check_probes = bool(self.spans.sample_every)
        for vri in self.vris:
            while True:
                block = vri.data_out.try_pop_desc_block(batcher.size)
                got = 0 if block is None else len(block)
                batcher.update(got)
                if not got:
                    break
                self._h_batch_drain.observe(got)
                vri.drained += got
                vri_id = vri.vri_id
                if _TRACE.enabled:
                    # Covering pushes must hit the trace before the pop.
                    if self._push_pending:
                        self.flush_trace()
                    _TRACE.instant("ring.pop", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   vri=vri_id, n=got)
                word1 = block[:, 1]
                if check_probes and (word1 & probe_bits).any():
                    # Probed chunks carry all four span stamps in their
                    # headroom; close those spans before freeing.
                    now = time.monotonic()
                    for row in np.flatnonzero(
                            word1 & probe_bits).tolist():
                        off = int(block[row, 0])
                        length = int(word1[row]) & 0xFFFFFFFF
                        record_stamps(*arena.read_stamps(off, length),
                                      now, vri_id=vri_id)
                        if _TRACE.enabled:
                            _TRACE.instant("span.close", ts=now,
                                           cat="replay", track="lvrm",
                                           vri=vri_id)
                payloads = read_block(block)
                ifaces = ((word1 >> shift32) & mask16).tolist()
                out.extend(zip(itertools.repeat(vri_id), ifaces, payloads))
                free_many(block[:, 0])
        return out

    def drain_until(self, n_expected: int, timeout: float = 10.0
                    ) -> List[Tuple[int, int, bytes]]:
        """Drain until ``n_expected`` outputs arrive or timeout expires.

        Idle waits follow the configured wait strategy (spin / yield /
        escalating sleep); actual sleeps feed ``wait_sleeps_total``.
        """
        collected: List[Tuple[int, int, bytes]] = []
        deadline = time.monotonic() + timeout
        policy = self._wait
        while len(collected) < n_expected and time.monotonic() < deadline:
            batch = self.drain()
            if batch:
                collected.extend(batch)
                policy.reset()
            else:
                self.pump_control()
                policy.idle()
        taken = policy.sleeps - self._wait_sleeps_seen
        if taken:
            self._c_wait_sleeps.inc(taken)
            self._wait_sleeps_seen = policy.sleeps
        return collected
