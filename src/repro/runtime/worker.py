"""The VRI worker process entry point.

Runs inside a child OS process spawned by
:class:`~repro.runtime.monitor.RuntimeLvrm`.  The worker:

1. pins itself to its assigned CPU core (``os.sched_setaffinity``) when
   the host exposes that core;
2. attaches to its four shared-memory rings by name (the identifiers
   arrive in the worker's arguments, like the thesis' ``shmget()`` ids);
3. loops over :meth:`WorkerLoop.step` with control-before-data
   priority: a control event first, else one adaptive burst of data
   frames routed by the burst kernel and echoed back on the outgoing
   ring tagged with the chosen interface;
4. exits on a STOP control event (the cooperative sibling of the
   monitor's ``kill()`` hard path, which the monitor also implements).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import struct

import numpy as np

from repro.ipc.desc import FLAG_PROBE
from repro.ipc.messages import (ControlEvent, KIND_HEARTBEAT, KIND_PING,
                                KIND_RESTART, KIND_STATS, KIND_STOP,
                                encode_stats_chunks)
from repro.ipc.wait import AimdBatcher, WaitPolicy
from repro.kernels import make_kernel
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Registry
from repro.obs.spans import PROBE_MAGIC_BYTES, decode_in_probe, encode_out_probe
from repro.routing.mapfile import parse_map_lines
from repro.runtime.api import VriSideApi

__all__ = ["WorkerArgs", "WorkerLoop", "STOPPED", "vri_worker_main"]

#: Data-burst AIMD bounds: bursts grow toward ``_BURST_HI`` under load
#: (amortizing ring synchronization) and decay to ``_BURST_LO`` when
#: idle, which also bounds how long control events wait behind data
#: (control is still checked every pass).
_BURST_LO = 8
_BURST_HI = 256


@dataclass(frozen=True)
class WorkerArgs:
    """Everything a worker needs, picklable for spawn-style start."""

    vri_id: int
    core_id: Optional[int]
    data_in: str
    data_out: str
    ctrl_in: str
    ctrl_out: str
    map_lines: Tuple[str, ...]
    #: Stop after this many seconds even without a STOP event (a safety
    #: net so an orphaned worker cannot outlive a crashed test runner).
    max_lifetime: float = 60.0
    #: Measure and report the service rate upstream (thesis §3.6, the
    #: input to dynamic thresholds).
    report_service_rate: bool = False
    #: Send a KIND_HEARTBEAT control event this often (seconds); 0
    #: disables.  The supervisor's liveness signal: heartbeats ride the
    #: control ring, so a worker that still emits them is by definition
    #: draining control — i.e. alive and scheduling.
    heartbeat_interval: float = 0.0
    #: Ship a snapshot of the worker-local metrics registry upstream
    #: this often (seconds) as chunked KIND_STATS events; 0 disables.
    #: Strictly best-effort and strictly behind heartbeats: the due
    #: heartbeat always goes first, and the snapshot is abandoned the
    #: moment the control ring fills (the next one carries cumulative
    #: state, so nothing is lost but freshness).
    stats_interval: float = 0.0
    #: Shared-memory name of the frame arena (zero-copy data plane);
    #: None selects the legacy copy plane.  With an arena, the data
    #: rings carry 24-byte descriptors and this worker routes frames
    #: straight out of the shared segment.
    arena: Optional[str] = None
    #: Index of this worker's SPSC reclaim ring in the arena (its
    #: private channel for handing dropped frames' chunks back).
    arena_reclaim: int = 0
    #: Which burst kernel routes the data bursts: ``scalar`` | ``numpy``
    #: | ``cffi`` (:mod:`repro.kernels`; ``cffi`` auto-degrades to numpy
    #: without a compiler).
    kernel: str = "scalar"
    #: Arm the kernel's RFC 1812 forwarding rewrite (TTL decrement +
    #: incremental checksum, TTL-expiry drops) on both data planes:
    #: in-place in the arena buffer, or into private frame copies on
    #: the legacy copy plane.
    kernel_rewrite: bool = False
    #: Whether the monitor may inject latency probes (span sampling on).
    #: When False the per-burst probe scans are skipped — probes only
    #: originate upstream, so the worker cannot miss one.
    probe_frames: bool = True


def _pin(core_id: Optional[int]) -> None:
    if core_id is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        available = os.sched_getaffinity(0)
        if core_id in available:
            os.sched_setaffinity(0, {core_id})
    except OSError:
        # Containers routinely forbid affinity changes; the worker still
        # functions, just unpinned.
        pass


#: What :meth:`WorkerLoop.step` returns once a STOP control event arrived.
STOPPED = -1

#: The worker-local counter families, in registration order: the key
#: :attr:`WorkerLoop.counters` holds each under, its name, its help.
_COUNTERS = (
    ("frames", "vri_frames_total",
     "frames the VRI popped from its incoming ring"),
    ("forwarded", "vri_forwarded_total",
     "frames the VRI routed and handed back"),
    ("no_route", "vri_dropped_no_route_total",
     "frames dropped because LPM found no route"),
    ("stats_sent", "vri_stats_snapshots_total",
     "registry snapshots shipped upstream"),
    ("stats_abandoned", "vri_stats_abandoned_total",
     "snapshots abandoned mid-send because the control ring filled"),
    ("overflow", "vri_dropped_overflow_total",
     "routed frames dropped because the outgoing ring was full"),
    ("wait_sleeps", "wait_sleeps_total",
     "idle sleeps taken by the worker's wait policy"),
    ("lpm_hits", "lpm_cache_hit_total",
     "cached-LPM lookups answered from the route table's result cache"),
    ("lpm_misses", "lpm_cache_miss_total",
     "cached-LPM lookups that had to walk the trie"),
)


class WorkerLoop:
    """One worker's state and its loop body, :meth:`step`.

    The constructor attaches to the four rings (and the arena) by name,
    builds the burst kernel and the worker-local registry, and arms the
    heartbeat and stats timers.  :func:`vri_worker_main` is a loop
    around :meth:`step`; a test can build one in-process over rings it
    owns and drive it step by step.
    """

    def __init__(self, args: WorkerArgs, recorder: FlightRecorder) -> None:
        self.args = args
        self.recorder = recorder
        self.routes, _arp = parse_map_lines(args.map_lines)
        # The burst hot path lives behind the swappable kernel interface;
        # the scalar kernel keeps the memoized per-frame reference path.
        kernel = make_kernel(args.kernel, self.routes,
                             rewrite_ttl=args.kernel_rewrite)
        recorder.note("worker.kernel", ts=time.monotonic(), vri=args.vri_id,
                      kind=kernel.describe())
        self.api = api = VriSideApi(
            args.vri_id, args.data_in, args.data_out, args.ctrl_in,
            args.ctrl_out, report_service_rate=args.report_service_rate,
            report_every=64, arena_name=args.arena,
            arena_reclaim=args.arena_reclaim)
        # Worker-local telemetry: a *fresh* registry (never the process-wide
        # default — a forked child would inherit the monitor's instruments),
        # using the same family names as the DES VriRuntime so the merged
        # cluster view and a DES run expose identical metric names.
        self.registry = registry = Registry()
        vri_label = str(args.vri_id)
        self.counters = c = {key: registry.counter(name, doc, vri=vri_label)
                             for key, name, doc in _COUNTERS}
        self._h_batch = registry.histogram(
            "ring_batch_size", "records moved per ring transaction",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            vri=vri_label, side="worker")
        self._policy = WaitPolicy()
        self._sleeps_seen = 0
        self._lpm_hits_seen = self._lpm_misses_seen = 0
        # Burst ceiling scales with ring depth (256 at the default 1024):
        # deeper rings exist to amortize hand-offs further, so the batcher
        # must be allowed to follow them up.
        self._batcher = AimdBatcher(
            _BURST_LO, max(_BURST_HI, min(1024, api.data_in.capacity // 8)))
        # One data burst on this worker's plane, counters bound once.
        probe_frames = args.probe_frames
        if api.arena is not None:
            def serve(burst: int) -> int:
                return _serve_arena(api, kernel, burst, c["frames"],
                                    c["forwarded"], c["no_route"],
                                    c["overflow"], probe_frames=probe_frames)
        else:
            def serve(burst: int) -> int:
                return _serve_copy(api, kernel, burst, c["frames"],
                                   c["forwarded"], c["no_route"],
                                   probe_frames=probe_frames)
        self._serve = serve
        self._stats_gen = 0
        # Largest KIND_STATS payload one control slot carries.
        self._stats_budget = (api.ctrl_out.max_record
                              - ControlEvent(KIND_STATS, args.vri_id, 0).size)
        now = time.monotonic()
        self._next_heartbeat = (now + args.heartbeat_interval
                                if args.heartbeat_interval > 0
                                else float("inf"))
        self._next_stats = (now + args.stats_interval
                            if args.stats_interval > 0 else float("inf"))

    def step(self) -> int:
        """One pass, control before data: due heartbeat and stats, then
        either one control event or one adaptive data burst.

        Returns the frames served (0 on an idle or control pass), or
        :data:`STOPPED` once a STOP event arrived.
        """
        now = time.monotonic()
        if now >= self._next_heartbeat:
            # Liveness beacon to the monitor (dst 0 = LVRM).
            self.api.send_control(ControlEvent(
                KIND_HEARTBEAT, self.args.vri_id, 0, struct.pack("<d", now)))
            self._next_heartbeat = now + self.args.heartbeat_interval
        if now >= self._next_stats:
            self._send_stats(now)
        event = self.api.recv_control()
        if event is not None:
            return self._on_control(event)
        # Control stayed first; now drain an adaptive burst of data
        # frames in one ring transaction each way.
        batcher = self._batcher
        got = self._serve(batcher.size)
        batcher.update(got)
        policy = self._policy
        if got:
            self._h_batch.observe(got)
            policy.reset()
            return got
        policy.idle()
        if policy.sleeps != self._sleeps_seen:
            self.counters["wait_sleeps"].inc(policy.sleeps - self._sleeps_seen)
            self._sleeps_seen = policy.sleeps
        return 0

    def _send_stats(self, now: float) -> None:
        """Ship a registry snapshot chunk by chunk, abandoning it on the
        first full control slot.  Telemetry rides strictly behind the
        heartbeat, which :meth:`step` pushes first when both are due."""
        # Sync the LPM cache counters by delta first — the table keeps
        # bare attributes so the hot path never touches an instrument
        # (same trick as wait sleeps).
        hits = getattr(self.routes, "cache_hits", 0)
        misses = getattr(self.routes, "cache_misses", 0)
        self.counters["lpm_hits"].inc(hits - self._lpm_hits_seen)
        self.counters["lpm_misses"].inc(misses - self._lpm_misses_seen)
        self._lpm_hits_seen, self._lpm_misses_seen = hits, misses
        self._stats_gen += 1
        vri_id = self.args.vri_id
        for chunk in encode_stats_chunks(self.registry.snapshot(),
                                         self._stats_gen, self._stats_budget):
            if not self.api.send_control(ControlEvent(
                    KIND_STATS, vri_id, 0, chunk)):
                self.counters["stats_abandoned"].inc()
                break
        else:
            self.counters["stats_sent"].inc()
        self._next_stats = now + self.args.stats_interval

    def _on_control(self, event: ControlEvent) -> int:
        vri_id = self.args.vri_id
        self.recorder.note("worker.ctrl", ts=time.monotonic(), vri=vri_id,
                           kind=event.kind, src=event.src_vri)
        if event.kind == KIND_STOP:
            return STOPPED
        if event.kind == KIND_RESTART:
            # Informational: which restart attempt we are.
            (attempt,) = struct.unpack("<I", event.payload)
            self.recorder.note("worker.restarted", ts=time.monotonic(),
                               vri=vri_id, attempt=attempt)
        elif event.kind == KIND_PING:
            # Bounce pings back to the requested VRI through LVRM.
            self.api.send_control(ControlEvent(
                KIND_PING, vri_id, event.src_vri, event.payload))
        return 0

    def close(self) -> None:
        self.api.close()


def vri_worker_main(args: WorkerArgs) -> None:
    """Child-process main: a loop around :meth:`WorkerLoop.step`.

    Keeps a local flight recorder of lifecycle and control events (never
    per-frame).  If anything escapes the loop, the recorder dumps the
    last events to stderr before the exception propagates — the only
    post-mortem a crashed child can leave behind.
    """
    recorder = FlightRecorder(128)
    recorder.note("worker.start", ts=time.monotonic(), vri=args.vri_id,
                  core=args.core_id, pid=os.getpid())
    _pin(args.core_id)
    loop = WorkerLoop(args, recorder)
    step = loop.step
    deadline = time.monotonic() + args.max_lifetime
    try:
        with recorder.on_error(reason=f"vri{args.vri_id} worker crashed"):
            while time.monotonic() < deadline:
                if step() == STOPPED:
                    return
            recorder.note("worker.lifetime_expired", ts=time.monotonic(),
                          vri=args.vri_id)
    finally:
        loop.close()


def _out_headroom(ring) -> int:
    """Free slots the worker can *prove* on its outgoing ring.

    The worker is the ring's only producer, so its tail is exact and a
    stale consumer index can only under-state the free space — popping
    no more than this many frames guarantees the echo push never
    overflows.  Without the clamp a worker that outruns the monitor for
    one scheduler timeslice (easy on a single-core host now the kernels
    route several bursts per slice) fills ``data_out`` and silently
    loses the overflow."""
    return ring.capacity - len(ring)


def _serve_copy(api: VriSideApi, kernel, burst: int,
                c_frames, c_forwarded, c_no_route,
                probe_frames: bool = True) -> int:
    """One legacy-plane burst: borrow the incoming records as zero-copy
    ring views (no ``.tobytes()`` on pop), route the whole burst through
    the kernel, and build the outgoing records — whose construction is
    the one copy — before the borrowed slots are released.  Returns how
    many frames were popped.
    """
    burst = min(burst, _out_headroom(api.data_out))
    if burst <= 0:
        return 0
    frames = api.from_lvrm_many_into(burst)
    if not frames:
        return 0
    t_pop = time.monotonic()
    c_frames.inc(len(frames))
    # Unwrap latency probes first so the kernel sees plain frames; the
    # kernel then routes probe and non-probe frames in one batch.
    stamps: List[Optional[Tuple[float, float]]] = [None] * len(frames)
    plain = list(frames)
    if probe_frames:
        for i, raw in enumerate(frames):
            if raw[:4] == PROBE_MAGIC_BYTES:
                # A sampled frame carries a latency probe: strip the
                # monitor's stamps, add ours around service.
                probe_stamps, frame = decode_in_probe(raw)
                stamps[i] = probe_stamps
                plain[i] = frame
    if kernel.rewrite_ttl:
        # Forwarding mode: surviving frames come back as private
        # rewritten copies (TTL-1, RFC 1624 checksum); drops keep the
        # borrowed view, which is fine — they are never repacked.
        ifaces, plain = kernel.route_frames_rewrite(plain)
    else:
        ifaces = kernel.route_frames(plain)
    records = []
    for frame, iface, probe in zip(plain, ifaces, stamps):
        if iface is None:
            c_no_route.inc()
            continue
        record = api.pack_output(iface, frame)
        if probe is not None:
            record = encode_out_probe(probe[0], probe[1], t_pop,
                                      time.monotonic(), record)
        records.append(record)
    # Every record now owns its bytes; the borrowed views can die.
    api.release_input()
    if records:
        c_forwarded.inc(api.push_records(records))
    return len(frames)


def _serve_arena(api: VriSideApi, kernel, burst: int,
                 c_frames, c_forwarded, c_no_route, c_overflow,
                 probe_frames: bool = True) -> int:
    """One arena-plane burst: pop descriptors and hand the whole block
    to the burst kernel — parse, LPM, and (if armed) header rewrite run
    over the shared segment in one batched pass, copying zero bytes —
    then echo the surviving descriptors back with the output interface
    filled in.  Dropped frames' chunks go home through this worker's
    reclaim ring.  Returns how many descriptors were popped."""
    burst = min(burst, _out_headroom(api.data_out))
    if burst <= 0:
        return 0
    block = api.from_lvrm_desc_block(burst)
    if block is None:
        return 0
    t_pop = time.monotonic()
    n = len(block)
    c_frames.inc(n)
    arena = api.arena
    word1 = block[:, 1]
    offsets = np.ascontiguousarray(block[:, 0])
    lengths = np.ascontiguousarray(word1 & np.uint64(0xFFFFFFFF))
    ifaces = kernel.route_block(arena.buffer, offsets, lengths)
    keep = ifaces >= 0
    n_keep = int(keep.sum())
    if n_keep < n:
        c_no_route.inc(n - n_keep)
        for off in offsets[~keep].tolist():
            api.free_frame(off)
    if probe_frames:
        probes = (word1 >> np.uint64(48)) & np.uint64(FLAG_PROBE)
        if probes.any():
            # Consumer half of the latency span, stamped into the probed
            # chunk's headroom next to the producer's pair.
            t_done = time.monotonic()
            for i in np.flatnonzero(keep & (probes != 0)).tolist():
                arena.write_stamps(int(offsets[i]), int(lengths[i]), 1,
                                   t_pop, t_done)
    if n_keep:
        if n_keep == n:
            out, out_ifaces = block, ifaces
        else:
            out, out_ifaces = block[keep], ifaces[keep]
        # Fill word 1's iface half-word (bits 32..47) for the whole run.
        kernel.fill_ifaces(out, out_ifaces)
        pushed = api.to_lvrm_desc_block(out)
        c_forwarded.inc(pushed)
        if pushed < len(out):
            # Outgoing ring full: the monitor will never see these —
            # free their chunks rather than leak them.
            dropped = out[pushed:, 0].tolist()
            c_overflow.inc(len(dropped))
            for off in dropped:
                api.free_frame(off)
    return n
