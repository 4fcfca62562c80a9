"""The real-process LVRM monitor.

Owns the shared-memory segments, spawns VRI worker processes, balances
frames across them, drains their output, relays control events, and
tears everything down — the runtime twin of the DES
:class:`~repro.core.lvrm.Lvrm`, restricted to one VR (enough to prove
the mechanism; the DES handles the multi-VR experiments).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import struct
import time
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.balancing import make_balancer
from repro.core.vr import DEFAULT_MAP_LINES
from repro.dispatch.stage import DispatchPipeline
from repro.errors import (ArenaError, ConfigError, KernelError,
                          RuntimeBackendError)
from repro.kernels import resolve_kernel_kind
from repro.ipc.arena import FrameArena, arena_bytes_needed

from repro.ipc.desc import DESC_SLOT
from repro.ipc.messages import (ControlEvent, KIND_HEARTBEAT,
                                KIND_SERVICE_RATE, KIND_STATS, KIND_STOP,
                                StatsAssembler, decode_event, encode_event)
from repro.ipc.ring import SpscRing, ring_bytes_needed
from repro.ipc.shm import SharedSegment
from repro.ipc.wait import WaitPolicy
from repro.obs.admin import AdminServer, AdminState
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import Gauge, default_registry
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TRACER as _TRACE
from repro.runtime.worker import WorkerArgs, vri_worker_main

__all__ = ["RuntimeLvrm", "RuntimeVriHandle"]

_DATA_SLOT = 2048   # fits a max-size Ethernet frame + the iface header
_CTRL_SLOT = 512

_RING_TAGS = ("data_in", "data_out", "ctrl_in", "ctrl_out")
_rt_ids = itertools.count(1)


@dataclass
class RuntimeVriHandle:
    """LVRM-side view of one live worker."""

    vri_id: int
    core_id: Optional[int]
    process: mp.process.BaseProcess
    segments: List[SharedSegment]
    data_in: SpscRing    # LVRM pushes here (worker's incoming)
    data_out: SpscRing   # LVRM pops here (worker's outgoing)
    ctrl_in: SpscRing
    ctrl_out: SpscRing
    dispatched: int = 0
    drained: int = 0
    reported_rate: float = 0.0
    #: ``time.monotonic()`` of the last heartbeat absorbed from this
    #: worker (seeded with the spawn time so a fresh worker is never
    #: instantly declared hung).  Meaningful only when the monitor runs
    #: with ``heartbeat_interval > 0``.
    last_heartbeat: float = 0.0
    #: Pull gauges bound to this worker's rings: one occupancy HWM per
    #: ring, then the data_in fill ratio.
    gauges: Tuple[Gauge, ...] = ()

    def rings(self) -> Tuple[SpscRing, ...]:
        return (self.data_in, self.data_out, self.ctrl_in, self.ctrl_out)

    def load_estimate(self) -> int:
        """The balancers' load signal (``core.balancing.VriLike``): the
        worker's incoming data-ring depth."""
        return len(self.data_in)


class RuntimeLvrm:
    """Spawn, feed, drain, and stop real VRI workers.

    The RX→classify→admit→steer pipeline itself is a
    :class:`~repro.dispatch.stage.DispatchPipeline` this monitor holds
    (:attr:`pipeline`); this class owns the workers, their rings and the
    control plane.
    """

    #: Every worker ring is Lamport's SPSC ring (:class:`SpscRing`), the
    #: paper's one IPC queue; ``/topology`` reports it.
    ring_impl = "lamport"

    def __init__(self, n_vris: int = 1, ring_capacity: int = 1024,
                 map_lines: Tuple[str, ...] = DEFAULT_MAP_LINES,
                 cores: Optional[List[int]] = None,
                 balancer: str = "rr",
                 worker_lifetime: float = 60.0,
                 report_service_rate: bool = False,
                 heartbeat_interval: float = 0.0,
                 stats_interval: float = 0.0,
                 span_sample_every: int = 0,
                 data_plane: str = "copy",
                 kernel: Optional[str] = None,
                 kernel_rewrite: bool = False,
                 overload_policy: str = "none",
                 overload_opts: Optional[Dict] = None):
        if n_vris < 1:
            raise RuntimeBackendError("need at least one VRI")
        if balancer not in ("rr", "jsq"):
            raise RuntimeBackendError(f"unknown runtime balancer {balancer!r}")
        if heartbeat_interval < 0:
            raise RuntimeBackendError("heartbeat_interval cannot be negative")
        if stats_interval < 0:
            raise RuntimeBackendError("stats_interval cannot be negative")
        if span_sample_every < 0:
            raise RuntimeBackendError("span_sample_every cannot be negative")
        if data_plane not in ("copy", "arena"):
            raise RuntimeBackendError(
                f"data_plane must be 'copy' or 'arena', got {data_plane!r}")
        try:
            kernel = resolve_kernel_kind(kernel)
        except KernelError as exc:
            raise RuntimeBackendError(str(exc)) from exc
        self.balancer = balancer
        #: Which burst kernel the workers run (``scalar``/``numpy``/
        #: ``cffi``); resolved here so forked children inherit one
        #: compiled ringops library instead of racing to build it.
        self.kernel = kernel
        #: Arm the kernels' RFC 1812 forwarding rewrite (TTL decrement +
        #: RFC 1624 checksum update, TTL-expiry drops) on both data
        #: planes: the arena plane rewrites headers in the shared
        #: buffer, the copy plane rewrites into private frame copies
        #: (``route_frames_rewrite``) since ring records are borrowed
        #: views.  Off by default: the echo contract — drained frames
        #: byte-identical to dispatched ones — is what the test suite
        #: and the DES twin assume.
        self.kernel_rewrite = bool(kernel_rewrite)
        #: ``copy`` stages frames through ring slots (legacy); ``arena``
        #: carries 24-byte descriptors into the shared frame arena.
        self.data_plane = data_plane
        self.report_service_rate = report_service_rate
        #: Workers send a KIND_HEARTBEAT control event this often
        #: (0 = disabled); :meth:`pump_control` absorbs them into each
        #: handle's ``last_heartbeat``, the supervisor's liveness input.
        self.heartbeat_interval = heartbeat_interval
        #: Workers ship chunked registry snapshots (KIND_STATS) this
        #: often (0 = disabled); :meth:`pump_control` reassembles and
        #: merges them into the monitor's registry labeled by vri_id.
        self.stats_interval = stats_interval
        self.respawned = 0
        #: Distinguishes metrics of multiple monitors in one process.
        self.obs_id = str(next(_rt_ids))
        #: Always-on lifecycle post-mortem buffer (spawn / retire / kill
        #: events only — never per-frame, so the data plane pays nothing).
        self.recorder = FlightRecorder(256)
        if kernel == "cffi":
            # Warm the compiled backend before forking so every worker
            # inherits one loaded library (or one degrade decision)
            # instead of racing the compiler per child.
            from repro.kernels.ringops import ringops_unavailable_reason
            reason = ringops_unavailable_reason()
            if reason is not None:
                self.recorder.note("monitor.kernel_degraded",
                                   ts=time.monotonic(), requested="cffi",
                                   substitute="numpy", reason=reason)
        #: Frame-latency spans, wall-clock, 1-in-N sampled via ring-record
        #: probes (0 = off: dispatch pays one compare, drain one slice).
        self.spans = SpanRecorder(
            default_registry(), sample_every=span_sample_every,
            clock=time.monotonic, backend="runtime",
            labels={"rt": self.obs_id})
        self._stats_assembler = StatsAssembler()
        #: Lost/out-of-order sequence detection, one counter family with
        #: a ``plane`` label: ``ctrl`` (control-event seq stamps),
        #: ``stats`` (telemetry snapshot generations), ``spans`` (probe
        #: records whose stamp block failed to decode; the pipeline's
        #: drain counts those).  Counted, never silently skipped.
        registry = default_registry()
        self._c_seq_gap_ctrl = registry.counter(
            "trace_seq_gap_total",
            "lost or out-of-order sequenced records, by plane",
            rt=self.obs_id, plane="ctrl")
        self._c_seq_gap_stats = registry.counter(
            "trace_seq_gap_total",
            "lost or out-of-order sequenced records, by plane",
            rt=self.obs_id, plane="stats")
        self._stats_assembler.gap_hook = self._c_seq_gap_stats.inc
        # vri_id -> last control seq stamp absorbed (reset on respawn:
        # a fresh worker restarts its stamp counter at 1).
        self._ctrl_last_seq: Dict[int, int] = {}
        # Monitor-side control stamping, one lane per destination.
        self._ctrl_send_seq: Dict[int, int] = {}
        #: Arena chunks freed by :meth:`_reclaim_stranded` at failovers
        #: (summed into replay summaries; 0 on the copy plane).
        self.stranded_reclaimed = 0
        self._c_merged = default_registry().counter(
            "telemetry_snapshots_merged_total",
            "worker registry snapshots merged into the cluster view",
            rt=self.obs_id)
        #: Admission stage fronting dispatch (None for policy "none";
        #: see repro.overload and docs/OVERLOAD.md).  Shares the DES
        #: controller implementation — same classifier, same AIMD, same
        #: deterministic stride sampler — over real ring occupancy.
        try:
            from repro.overload import build_controller
            self.overload = build_controller(
                overload_policy, overload_opts, default_registry(),
                scope_labels={"rt": self.obs_id})
        except ConfigError as exc:
            raise RuntimeBackendError(str(exc)) from exc
        #: Set by an attached Supervisor; /healthz reads its slot states.
        self.supervisor = None
        self._admin: Optional[AdminServer] = None
        #: Per-worker summary captured at retirement, while the rings are
        #: still attached: dispatch/drain counts and occupancy HWMs.
        self.teardown_stats: List[Dict[str, object]] = []
        self.map_lines = tuple(map_lines)
        self.ring_capacity = ring_capacity
        self.worker_lifetime = worker_lifetime
        #: Zero-copy plane state: one shared arena segment owned here,
        #: workers attach by name.  Reclaim rings are indexed by vri_id
        #: (each worker frees through its own SPSC ring), with slack so
        #: the supervisor can add replacement workers.
        self.arena: Optional[FrameArena] = None
        self._arena_segment: Optional[SharedSegment] = None
        self._arena_prod = None
        if data_plane == "arena":
            # Worst case every data slot of every worker holds a live
            # frame of one size class, plus bursts in flight.
            cpc = 2 * ring_capacity * n_vris + 512
            self._arena_n_reclaim = n_vris + 9
            self._arena_segment = SharedSegment.create(arena_bytes_needed(
                chunks_per_class=cpc, n_reclaim=self._arena_n_reclaim))
            self.arena = FrameArena(self._arena_segment.buf,
                                    chunks_per_class=cpc,
                                    n_reclaim=self._arena_n_reclaim)
            self._arena_prod = self.arena.producer()
            self._g_arena_inuse = registry.gauge(
                "arena_inuse_bytes",
                "bytes of live frame chunks in the shared arena",
                rt=self.obs_id)
            self._g_arena_inuse.set_fn(self.arena.inuse_bytes)
        self._c_wait_sleeps = default_registry().counter(
            "wait_sleeps_total",
            "idle sleeps taken by the monitor's drain wait policy",
            rt=self.obs_id)
        self._wait = WaitPolicy()
        self._wait_sleeps_seen = 0
        # fork avoids re-importing __main__ (which breaks REPL/stdin use)
        # and is safe here: the parent holds no threads or locks the
        # workers could inherit mid-flight.
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = mp.get_context("spawn")
        #: The live workers, edited in place (the pipeline holds this
        #: very list).
        self.vris: List[RuntimeVriHandle] = []
        self.pipeline = DispatchPipeline(
            self.vris, make_balancer(balancer), ring_capacity,
            self.overload, self.spans, self._arena_prod, self.obs_id)
        available = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
        try:
            for i in range(n_vris):
                core = (cores[i] if cores is not None and i < len(cores)
                        else available[i % len(available)])
                self.vris.append(self._spawn(i + 1, core))
        except BaseException:
            # A later spawn failed: without this, the earlier workers'
            # segments (and the arena segment) would outlive the
            # constructor in /dev/shm (the caller never gets a handle
            # to stop()).
            for vri in self.vris:
                if vri.process.is_alive():
                    vri.process.kill()
                    vri.process.join(1.0)
                self._release(vri)
            self.vris.clear()
            self._release_arena()
            raise

    # -- lifecycle ------------------------------------------------------------------
    def _spawn(self, vri_id: int, core_id: Optional[int]) -> RuntimeVriHandle:
        segs, rings = [], []
        arena_mode = self.data_plane == "arena"
        # Descriptor rings carry fixed 24-byte slots; the payload lives
        # in the arena, so the 2 KiB frame slot disappears.
        data_slot = DESC_SLOT if arena_mode else _DATA_SLOT
        try:
            for slot in (data_slot, data_slot, _CTRL_SLOT, _CTRL_SLOT):
                segment = SharedSegment.create(
                    ring_bytes_needed(self.ring_capacity, slot))
                segs.append(segment)
                rings.append(SpscRing(segment.buf, self.ring_capacity, slot,
                                      create=True))
            args = WorkerArgs(
                vri_id=vri_id, core_id=core_id,
                data_in=segs[0].name, data_out=segs[1].name,
                ctrl_in=segs[2].name, ctrl_out=segs[3].name,
                map_lines=self.map_lines, max_lifetime=self.worker_lifetime,
                report_service_rate=self.report_service_rate,
                heartbeat_interval=self.heartbeat_interval,
                stats_interval=self.stats_interval,
                arena=(self._arena_segment.name if arena_mode else None),
                arena_reclaim=(vri_id if arena_mode else 0),
                kernel=self.kernel,
                kernel_rewrite=self.kernel_rewrite,
                probe_frames=bool(self.spans.sample_every))
            process = self._ctx.Process(target=vri_worker_main, args=(args,),
                                        daemon=True)
            process.start()
        except BaseException:
            # The worker never came up (fork failure, ring allocation
            # error): this side owns the segments, so unlink them now —
            # no child will, and the handle is never returned to anyone
            # who could.
            for ring in rings:
                ring.close()
            for segment in segs:
                segment.close()
            raise
        registry = default_registry()
        gauges = []
        for ring, tag in zip(rings, _RING_TAGS):
            # Pull-mode gauge over the ring's bare hwm attribute: the
            # data plane never touches the registry.  A respawn rebinds
            # the same gauge to the replacement ring.
            gauge = registry.gauge(
                "ring_occupancy_hwm",
                "highest occupancy a runtime shm ring reached (LVRM side)",
                rt=self.obs_id, vri=str(vri_id), ring=tag)
            gauge.set_fn(lambda r=ring: r.hwm)
            gauges.append(gauge)
        # Per-VRI *live* data-ring fill (not just the max across
        # workers).
        gauge = registry.gauge(
            "ring_occupancy_ratio",
            "current data-ring fill of one worker, normalized to capacity",
            rt=self.obs_id, vri=str(vri_id))
        capacity = self.ring_capacity
        gauge.set_fn(lambda r=rings[0]: len(r) / capacity)
        gauges.append(gauge)
        self.recorder.note("worker.spawn", ts=time.monotonic(),
                           vri=vri_id, core=core_id, pid=process.pid)
        if _TRACE.enabled:
            _TRACE.instant("worker.spawn", ts=time.monotonic(),
                           cat="runtime", track="lvrm", vri=vri_id,
                           pid=process.pid)
        return RuntimeVriHandle(vri_id, core_id, process, segs,
                                data_in=rings[0], data_out=rings[1],
                                ctrl_in=rings[2], ctrl_out=rings[3],
                                last_heartbeat=time.monotonic(),
                                gauges=tuple(gauges))

    def _retire(self, vri: RuntimeVriHandle, reason: str) -> None:
        """Capture final ring stats, then release rings and segments.

        Runs while the rings are still attached: a last
        ``probe_occupancy()`` folds any stranded records into the HWM
        (LVRM is the consumer of the ``*_out`` rings, so their
        producer-side exact HWM lives in the worker process — the probe
        is the best view this side has).
        """
        hwm: Dict[str, int] = {}
        for ring, tag in zip(vri.rings(), _RING_TAGS):
            ring.probe_occupancy()
            hwm[tag] = ring.hwm
        if reason != "stop":
            # Failure path: whatever still sits in the data rings died
            # with the worker.  Counting it on the registry is what lets
            # the SLO watchdog's drop_rate rule see a kill as a breach
            # (same family the DES failover path uses).
            stranded = len(vri.data_in) + len(vri.data_out)
            if stranded:
                default_registry().counter(
                    "vri_dropped_fault_total",
                    "frames stranded in a failed worker's rings at "
                    "failover", rt=self.obs_id,
                    vri=str(vri.vri_id)).inc(stranded)
        if self.arena is not None:
            self._reclaim_stranded(vri)
        # A replacement worker restarts its control stamps at 1.
        self._ctrl_last_seq.pop(vri.vri_id, None)
        self.teardown_stats.append({
            "vri_id": vri.vri_id, "reason": reason,
            "dispatched": vri.dispatched, "drained": vri.drained,
            "ring_hwm": hwm})
        self.recorder.note("worker.retire", ts=time.monotonic(),
                           vri=vri.vri_id, reason=reason,
                           dispatched=vri.dispatched, drained=vri.drained,
                           **{f"hwm_{k}": v for k, v in hwm.items()})
        if _TRACE.enabled:
            _TRACE.instant("worker.retire", ts=time.monotonic(),
                           cat="runtime", track="lvrm", vri=vri.vri_id,
                           reason=reason, **{f"hwm_{k}": v
                                             for k, v in hwm.items()})
        self._release(vri)

    def _reclaim_stranded(self, vri: RuntimeVriHandle) -> None:
        """Arena mode: free the chunks of descriptors stranded in a
        retiring worker's data rings, so failovers do not bleed arena
        capacity.

        ``data_out`` is drainable because this side is its consumer;
        ``data_in`` is too, because both Lamport indices live in shared
        memory, so the dead worker's consumer cursor is readable here.
        """
        free = self._arena_prod.free_local
        freed = 0
        try:
            for desc in vri.data_out.try_pop_desc_many():
                free(desc[0])
                freed += 1
            for desc in vri.data_in.try_pop_desc_many():
                free(desc[0])
                freed += 1
        except ArenaError:
            # A torn descriptor (worker died mid-publish on a non-atomic
            # path) must not take the monitor down with it.
            pass
        if freed:
            self.stranded_reclaimed += freed
            if _TRACE.enabled:
                self.pipeline.flush_trace()
                _TRACE.instant("arena.reclaim", ts=time.monotonic(),
                               cat="replay", track="lvrm",
                               vri=vri.vri_id, n=freed)
        # Chunks freed by workers through their reclaim rings come home
        # here too, so a retired worker leaves no pending frees behind.
        self._arena_prod._refill()

    def _release_arena(self) -> None:
        if self.arena is not None:
            self._g_arena_inuse.freeze(0.0)
            self.arena.close()
            self.arena = None
            self._arena_prod = None
        if self._arena_segment is not None:
            self._arena_segment.close()
            self._arena_segment = None

    @staticmethod
    def _release(vri: RuntimeVriHandle) -> None:
        """Close rings and unlink this side's (owned) shm segments.

        The registry outlives the worker, so its gauges let go of the
        rings first: each HWM keeps its final value, the fill reads 0.
        """
        *hwms, fill = vri.gauges
        for gauge in hwms:
            gauge.freeze()
        fill.freeze(0.0)
        for ring in vri.rings():
            ring.close()
        for segment in vri.segments:
            segment.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Cooperative stop, escalating to ``kill()`` like the thesis."""
        for vri in self.vris:
            vri.ctrl_in.try_push(encode_event(
                ControlEvent(KIND_STOP, 0, vri.vri_id)))
        deadline = time.monotonic() + timeout
        for vri in self.vris:
            vri.process.join(max(0.0, deadline - time.monotonic()))
            if vri.process.is_alive():
                vri.process.kill()
                vri.process.join(1.0)
                self.recorder.note("worker.kill", ts=time.monotonic(),
                                   vri=vri.vri_id)
        for vri in self.vris:
            self._retire(vri, "stop")
        self.vris.clear()
        self._release_arena()
        self.stop_admin()

    def __enter__(self) -> "RuntimeLvrm":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- data plane ------------------------------------------------------------------
    def dispatch(self, frame: bytes) -> bool:
        """Balance one raw frame to a worker — a burst of one; False
        when it was refused (shed, arena dry or ring full)."""
        return self.pipeline.dispatch_many([frame]) == 1

    def dispatch_many(self, frames: List[bytes]) -> int:
        """Balance a burst (one pick per burst); returns how many frames
        were accepted."""
        return self.pipeline.dispatch_many(frames)

    def drain(self) -> List[Tuple[int, int, bytes]]:
        """Collect all available outputs: ``(vri_id, out_iface, frame)``."""
        return self.pipeline.drain()

    def occupancies(self) -> Dict[int, float]:
        """Per-VRI data-ring fill fractions (surfaced on ``/overload``)."""
        return self.pipeline.occupancies()

    def flush_trace(self) -> None:
        """Emit the coalesced ``ring.push`` trace events (record mode)."""
        self.pipeline.flush_trace()

    def drain_until(self, n_expected: int, timeout: float = 10.0
                    ) -> List[Tuple[int, int, bytes]]:
        """Drain until ``n_expected`` outputs arrive or timeout expires.

        Idle passes pump the control plane and then wait by the data
        plane's one :class:`~repro.ipc.wait.WaitPolicy` schedule; actual
        sleeps feed ``wait_sleeps_total``.  ``drain`` and
        ``pump_control`` are looked up on the instance on every pass, so
        wrappers set there see each call.
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

    # -- health ------------------------------------------------------------------------
    def dead_workers(self) -> List[RuntimeVriHandle]:
        """Workers whose process has exited (crash or lifetime expiry)."""
        return [v for v in self.vris if not v.process.is_alive()]

    def respawn_dead(self) -> int:
        """Replace dead workers in place: fresh process, fresh rings.

        The thesis' monitor owns the instances; a crashed VRI is just a
        destroy-then-create.  Frames stranded in a dead worker's rings
        are lost, exactly like the DES `destroy_vri` drain.  The dead
        handle leaves :attr:`vris` before its replacement is spawned, so
        a spawn that raises leaves the pool one worker short, never
        holding a closed handle.
        """
        replaced = 0
        for idx, vri in enumerate(list(self.vris)):
            if vri.process.is_alive():
                continue
            vri.process.join(0.1)
            del self.vris[idx]
            self._retire(vri, "respawn")
            self.vris.insert(idx, self._spawn(vri.vri_id, vri.core_id))
            self.respawned += 1
            replaced += 1
        return replaced

    def remove_worker(self, vri: RuntimeVriHandle,
                      reason: str = "failover") -> None:
        """Take one worker out of service: kill if needed, retire, drop.

        The supervisor's failover primitive — unlike :meth:`respawn_dead`
        the slot is *not* refilled here; the supervisor decides whether
        (and when, under backoff) to call :meth:`add_worker`.
        """
        if vri not in self.vris:
            raise RuntimeBackendError(
                f"no such worker handle: vri {vri.vri_id}")
        if vri.process.is_alive():
            vri.process.kill()
        vri.process.join(1.0)
        self.vris.remove(vri)
        self._retire(vri, reason)

    def add_worker(self, vri_id: int,
                   core_id: Optional[int] = None) -> RuntimeVriHandle:
        """Spawn a worker into the pool (the supervisor's restart half)."""
        if any(v.vri_id == vri_id for v in self.vris):
            raise RuntimeBackendError(f"vri {vri_id} already exists")
        if self.arena is not None and not 1 <= vri_id < self._arena_n_reclaim:
            raise RuntimeBackendError(
                f"vri_id {vri_id} outside the arena's reclaim-ring range "
                f"[1, {self._arena_n_reclaim})")
        handle = self._spawn(vri_id, core_id)
        self.vris.append(handle)
        self.respawned += 1
        return handle

    # -- control plane -------------------------------------------------------------------
    def pump_control(self) -> List[ControlEvent]:
        """Relay inter-VRI control events; absorb service-rate reports."""
        absorbed: List[ControlEvent] = []
        by_id: Dict[int, RuntimeVriHandle] = {v.vri_id: v for v in self.vris}
        for vri in self.vris:
            while True:
                record = vri.ctrl_out.try_pop()
                if record is None:
                    break
                event = decode_event(record)
                if event.seq:
                    last = self._ctrl_last_seq.get(vri.vri_id)
                    if last is not None:
                        expected = (last % 0xFFFF) + 1
                        if event.seq != expected:
                            # Stamps are dense per sender, so any jump
                            # is that many lost/reordered events.
                            self._c_seq_gap_ctrl.inc(
                                (event.seq - expected) % 0xFFFF)
                    self._ctrl_last_seq[vri.vri_id] = event.seq
                if _TRACE.enabled:
                    _TRACE.instant("ctrl.recv", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   kind=event.kind, src=event.src_vri,
                                   dst=event.dst_vri, seq=event.seq)
                if event.kind == KIND_SERVICE_RATE:
                    (rate,) = struct.unpack("<d", event.payload)
                    vri.reported_rate = rate
                    absorbed.append(event)
                    continue
                if event.kind == KIND_HEARTBEAT:
                    # Liveness beacon: receipt time, not the payload's
                    # send time — a beacon stuck in a wedged ring must
                    # not count as fresh when it finally drains.
                    vri.last_heartbeat = time.monotonic()
                    absorbed.append(event)
                    continue
                if event.kind == KIND_STATS:
                    # Telemetry plane: reassemble the chunked registry
                    # snapshot and fold it into the cluster-wide view,
                    # scoped by the sending worker's id.
                    snapshot = self._stats_assembler.feed(
                        event.src_vri, event.payload)
                    if snapshot is not None:
                        default_registry().merge(
                            snapshot, extra_labels={
                                "rt": self.obs_id,
                                "vri_id": str(event.src_vri)})
                        self._c_merged.inc()
                    absorbed.append(event)
                    continue
                dst = by_id.get(event.dst_vri)
                if dst is not None:
                    dst.ctrl_in.try_push(record)
                absorbed.append(event)
        return absorbed

    def send_control(self, event: ControlEvent) -> bool:
        """Inject a control event towards ``event.dst_vri``."""
        for vri in self.vris:
            if vri.vri_id == event.dst_vri:
                if event.seq == 0:
                    seq = (self._ctrl_send_seq.get(event.dst_vri, 0)
                           % 0xFFFF) + 1
                    self._ctrl_send_seq[event.dst_vri] = seq
                    event = dataclasses.replace(event, seq=seq)
                ok = vri.ctrl_in.try_push(encode_event(event))
                if ok and _TRACE.enabled:
                    _TRACE.instant("ctrl.send", ts=time.monotonic(),
                                   cat="replay", track="lvrm",
                                   kind=event.kind, src=event.src_vri,
                                   dst=event.dst_vri, seq=event.seq)
                return ok
        raise RuntimeBackendError(f"no such VRI: {event.dst_vri}")

    # -- the admin plane ---------------------------------------------------------------
    def heartbeat_ages(self) -> Dict[int, float]:
        """Seconds since each live worker's last absorbed heartbeat."""
        now = time.monotonic()
        return {v.vri_id: now - v.last_heartbeat for v in self.vris}

    def slot_states(self) -> Dict[str, str]:
        """Per-slot health for ``/healthz``: the attached supervisor's
        state machine when one is driving, else raw process liveness."""
        if self.supervisor is not None:
            return {f"vri{slot}": state.upper()
                    for slot, state in self.supervisor.state.items()}
        return {f"vri{v.vri_id}":
                ("RUNNING" if v.process.is_alive() else "DEAD")
                for v in self.vris}

    def topology(self) -> Dict:
        """The VR → VRI → core map ``/topology`` serves (runtime
        monitors host a single VR)."""
        return {"backend": "runtime", "rt": self.obs_id,
                "balancer": self.balancer, "ring_impl": self.ring_impl,
                "vrs": {"vr0": [
                    {"vri": v.vri_id, "core": v.core_id,
                     "pid": v.process.pid, "alive": v.process.is_alive()}
                    for v in self.vris]}}

    def _slo_state(self) -> Dict:
        """The attached supervisor's watchdog view (empty when no
        supervisor or no rules are driving this monitor)."""
        sup = self.supervisor
        if sup is None or getattr(sup, "watchdog", None) is None:
            return {}
        return sup.watchdog.state()

    @staticmethod
    def _replay_state() -> Dict:
        """The live trace recorder's view, resolved at request time so
        the route tracks recorder attach/detach."""
        recorder = _TRACE.replay
        if recorder is None:
            return {}
        return recorder.state()

    def _overload_view(self) -> Dict:
        """What ``/overload`` serves: the admission state with the
        per-VRI occupancy map the shedding decisions read."""
        if self.overload is None:
            return {}
        state = self.overload.state()
        state["occupancy"] = {str(k): round(v, 4)
                              for k, v in self.occupancies().items()}
        return state

    def admin_state(self) -> AdminState:
        """A poll-based admin view over this monitor (no sockets)."""
        return AdminState(default_registry(),
                          health_fn=self.slot_states,
                          topology_fn=self.topology,
                          spans_fn=self.spans.jsonl,
                          overload_fn=(self._overload_view
                                       if self.overload is not None
                                       else None),
                          slo_fn=self._slo_state,
                          replay_fn=self._replay_state)

    def start_admin(self, port: int = 0,
                    host: str = "127.0.0.1") -> AdminServer:
        """Opt-in: serve the admin view over loopback HTTP (daemon
        thread); idempotent, stopped automatically by :meth:`stop`."""
        if self._admin is None:
            self._admin = AdminServer(self.admin_state(),
                                      port=port, host=host).start()
        return self._admin

    def stop_admin(self) -> None:
        if self._admin is not None:
            self._admin.stop()
            self._admin = None
