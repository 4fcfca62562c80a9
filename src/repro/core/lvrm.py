"""LVRM itself: the centralized user-space monitor process.

The main loop reproduces the workflow of thesis §2.1, one action of each
kind per iteration (the single-threaded LVRM process interleaves its
duties):

1. relay pending inter-VRI *control* events (priority over data);
2. drain one processed frame from a VRI's outgoing data queue and
   transmit it through the socket adapter;
3. capture one raw frame, classify it by source IP to a VR, run the VR
   monitor's allocation pass when due (the "upon receipt of a packet
   after 1 s or more" trigger), and dispatch the frame to a VRI under
   the VR's balancing scheme.

Every step charges its calibrated cost on LVRM's core, so LVRM's finite
dispatch capacity — the effect Experiments 1a/1c measure — emerges from
the simulation rather than being asserted.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.allocation import CoreAllocator, DynamicFixedThresholds
from repro.core.balancing import make_balancer
from repro.core.vr import VrSpec
from repro.core.vr_monitor import VrMonitor
from repro.core.vri import VriRuntime
from repro.core.vri_monitor import VriMonitor
from repro.errors import AllocationError, ConfigError
from repro.hardware.affinity import AffinityMode, AffinityPolicy
from repro.hardware.costs import CostModel, DEFAULT_COSTS
from repro.hardware.machine import Machine
from repro.net.capture import CaptureBackend, _NicBackend
from repro.ipc.messages import ControlEvent, KIND_RESTART
from repro.net.frame import Frame
from repro.obs.recorder import RECORDER
from repro.obs.registry import default_registry
from repro.obs.slo import SloWatchdog, parse_rules
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TRACER as _TRACE
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timeline import Timeline

__all__ = ["Lvrm", "LvrmConfig", "LvrmStats"]

#: Distinguishes the obs label sets of LVRM instances in one process.
_lvrm_ids = itertools.count(1)


@dataclass(frozen=True)
class LvrmConfig:
    """Tunable knobs of the monitor (all thesis-named)."""

    #: Core the LVRM process is bound to.
    lvrm_core: int = 0
    #: Minimum spacing of allocation passes (the paper's 1 second).
    allocation_period: float = 1.0
    #: Balancing scheme: ``jsq`` | ``rr`` | ``random``.
    balancer: str = "jsq"
    #: Flow-based (5-tuple-pinned) vs frame-based balancing.
    flow_based: bool = False
    #: Affinity mode for VRI placement.
    affinity: AffinityMode = AffinityMode.SIBLING_FIRST
    #: IPC data/control queue capacity (frames/events).
    queue_capacity: int = 512
    #: Record per-frame forwarding latency samples.
    record_latency: bool = True
    #: Run the supervision loop (crash/hang detection + restarts).  Off
    #: by default: the paper's experiments assume healthy instances, and
    #: an idle supervisor would still add periodic events to every run.
    supervise: bool = False
    #: How often the supervisor sweeps for dead/wedged VRIs.
    supervision_period: float = 0.05
    #: A VRI with queued input that has made no progress for this long
    #: is declared hung (then killed and failed over).
    heartbeat_timeout: float = 0.25
    #: First restart delay; doubles per restart already used by the VR,
    #: capped at ``restart_backoff_max`` (bounded exponential backoff).
    restart_backoff: float = 0.02
    restart_backoff_max: float = 0.5
    #: Restarts each VR is entitled to.  Once spent, further failures
    #: degrade the VR to fewer instances instead of churning forever.
    restart_budget: int = 3
    #: Record frame-level latency spans (dispatch / ring-wait / service
    #: / drain attribution into ``frame_latency_seconds{phase=...}``).
    record_spans: bool = True
    #: Span sampling stride: 1 records every frame (sim time is free of
    #: observer effects, so exact is the DES default); N records 1-in-N.
    span_sample_every: int = 1
    #: Declarative SLO rules the supervision loop evaluates each sweep
    #: (JSON string, dicts, or SloRule objects — see repro.obs.slo).
    #: Only swept while ``supervise`` is on, like the liveness checks.
    slo_rules: tuple = ()
    #: Directory for flight-recorder post-mortem dumps when a VRI fails
    #: over; None disables dumping.
    postmortem_dir: Optional[str] = None
    #: Data-plane mode: ``copy`` (frames staged through ring slots, the
    #: paper's baseline) or ``arena`` (zero-copy shared-memory frame
    #: arena + 24-byte descriptor rings; see docs/PERFORMANCE.md).  In
    #: the DES this swaps the IPC cost model to
    #: :meth:`~repro.hardware.costs.CostModel.arena_variant`; in the
    #: runtime backend it selects the real arena.
    data_plane: str = "copy"
    #: Idle-wait behaviour of the runtime poll loops: ``spin`` |
    #: ``yield`` | ``sleep`` (see :class:`repro.ipc.wait.WaitPolicy`).
    #: The DES ignores it (simulated queues never busy-wait).
    wait_strategy: str = "sleep"
    #: Burst kernel of the data-plane hot path: ``scalar`` | ``numpy``
    #: | ``cffi`` (``None`` = session default, which honors the
    #: ``REPRO_KERNEL`` env var; see :mod:`repro.kernels`).  In the DES
    #: this swaps the VR service cost to
    #: :meth:`~repro.hardware.costs.CostModel.kernel_variant`; in the
    #: runtime backend it selects the real kernel in every worker.
    kernel: Optional[str] = None
    #: Overload policy fronting monitor dispatch: ``none`` (legacy
    #: path, no admission stage) | ``tail-drop`` | ``priority-shed`` |
    #: ``adaptive-sample``.  See :mod:`repro.overload` and
    #: docs/OVERLOAD.md.
    overload_policy: str = "none"
    #: Optional :class:`repro.overload.OverloadConfig` overrides (dict
    #: or JSON string): AIMD band, steps, floor, classifier rules.
    overload_opts: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.allocation_period <= 0:
            raise ConfigError("allocation_period must be positive")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.balancer not in ("jsq", "rr", "random"):
            raise ConfigError(f"unknown balancer {self.balancer!r}")
        if self.supervision_period <= 0:
            raise ConfigError("supervision_period must be positive")
        if self.heartbeat_timeout <= 0:
            raise ConfigError("heartbeat_timeout must be positive")
        if self.restart_backoff <= 0 or self.restart_backoff_max <= 0:
            raise ConfigError("restart backoffs must be positive")
        if self.restart_budget < 0:
            raise ConfigError("restart_budget cannot be negative")
        if self.span_sample_every < 1:
            raise ConfigError("span_sample_every must be >= 1")
        if self.data_plane not in ("copy", "arena"):
            raise ConfigError(
                f"data_plane must be 'copy' or 'arena', got "
                f"{self.data_plane!r}")
        from repro.ipc.wait import WAIT_STRATEGIES
        if self.wait_strategy not in WAIT_STRATEGIES:
            raise ConfigError(
                f"wait_strategy must be one of {WAIT_STRATEGIES}, got "
                f"{self.wait_strategy!r}")
        from repro.errors import KernelError
        from repro.kernels import resolve_kernel_kind
        try:
            resolved = resolve_kernel_kind(self.kernel)
        except KernelError as exc:
            raise ConfigError(str(exc)) from exc
        if self.kernel is None:
            # Pin the env-resolved default so the frozen config reports
            # the kernel that actually runs.
            object.__setattr__(self, "kernel", resolved)
        from repro.overload import OverloadConfig, POLICIES
        if self.overload_policy not in POLICIES:
            raise ConfigError(
                f"unknown overload policy {self.overload_policy!r} "
                f"(choose from {POLICIES})")
        if self.overload_opts is not None:
            # Validate eagerly so a bad band/classifier fails at config
            # time, not mid-run.
            OverloadConfig.from_spec(
                {**self.overload_opts, "policy": self.overload_policy}
                if "policy" not in self.overload_opts
                else self.overload_opts)


@dataclass(frozen=True)
class VriSnapshot:
    """Point-in-time view of one VRI (operator introspection)."""

    vri_id: int
    vr_name: str
    core_id: int
    cross_socket: bool
    queue_depth: int
    load_estimate: float
    service_rate: float
    processed: int
    dropped_no_route: int
    dropped_out_full: int


@dataclass(frozen=True)
class VrSnapshot:
    """Point-in-time view of one hosted VR."""

    name: str
    n_vris: int
    arrival_rate: float
    service_rate: float
    dispatched: int
    dropped_queue_full: int
    vris: tuple


class LvrmStats:
    """Counters and samples the experiments read out.

    The drop counters live on the :mod:`repro.obs` registry (labeled by
    LVRM instance so concurrent gateways in one process stay distinct);
    ``dropped_no_vr`` / ``dropped_queue_full`` are read-through views of
    them, so existing tests and experiment reports keep working.
    """

    def __init__(self, obs_labels: Optional[Dict[str, str]] = None):
        self.captured = 0
        self.forwarded = 0
        self.dropped_tx = 0
        self.ctrl_relayed = 0
        #: Per-frame input-to-output latency through the gateway.
        self.latency = Timeline("gw-latency")
        self.forwarded_by_vr: Dict[str, int] = {}
        labels = dict(obs_labels) if obs_labels else {
            "lvrm": str(next(_lvrm_ids))}
        reg = default_registry()
        # Registry-backed (the SLO drop_rate denominator); the
        # ``dispatched`` property below is its read-through view.
        self.c_dispatched = reg.counter(
            "lvrm_dispatched_total",
            "frames the monitor balanced onto a VRI queue",
            **labels)
        self.drop_no_vr = reg.counter(
            "lvrm_dropped_no_vr_total",
            "frames dropped at capture: no hosted VR owns the source IP",
            **labels)
        self.drop_queue_full = reg.counter(
            "lvrm_dropped_queue_full_total",
            "frames dropped at dispatch: chosen VRI's data queue full",
            **labels)
        # Supervision ledger (see docs/RELIABILITY.md): failures seen,
        # restarts performed, failures absorbed without replacement, and
        # flow pins moved off dead instances.
        self.failovers = reg.counter(
            "supervisor_failovers_total",
            "VRI failures (crash or hang) the supervisor failed over",
            **labels)
        self.restarts = reg.counter(
            "supervisor_restarts_total",
            "VRI replacements the supervisor spawned after a failure",
            **labels)
        self.degraded = reg.counter(
            "supervisor_degraded_total",
            "failures absorbed without a replacement (restart budget "
            "exhausted or no core available)",
            **labels)
        self.flows_reassigned = reg.counter(
            "supervisor_flows_reassigned_total",
            "flow-table pins moved off dead VRIs at failover",
            **labels)

    @property
    def dispatched(self) -> int:
        return self.c_dispatched.value

    @property
    def dropped_no_vr(self) -> int:
        return self.drop_no_vr.value

    @property
    def dropped_queue_full(self) -> int:
        return self.drop_queue_full.value


class Lvrm:
    """The load-aware virtual router monitor (DES backend)."""

    def __init__(self, sim: Simulator, machine: Machine,
                 capture: CaptureBackend,
                 costs: CostModel = DEFAULT_COSTS,
                 config: LvrmConfig = LvrmConfig(),
                 rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.machine = machine
        self.capture = capture
        #: With the arena data plane, every data-queue hop (dispatch,
        #: VRI pop/push, drain) moves a 24-byte descriptor instead of
        #: the payload: swap the cost model *before* any VriMonitor is
        #: built so the whole pipeline charges descriptor costs.  The
        #: payload's one staging copy is charged at dispatch
        #: (``_capture_one``) using the original per-byte cost.
        self._arena_plane = config.data_plane == "arena"
        self._staging_per_byte = costs.ipc_per_byte
        #: The burst kernel reprices VR service (parse+LPM batched away)
        #: before the arena swap reprices the ring hops — the two knobs
        #: compose exactly like the runtime's kernel= and data_plane=.
        costs = costs.kernel_variant(config.kernel)
        self.costs = costs.arena_variant() if self._arena_plane else costs
        self.config = config
        self.rng = rng or RngRegistry()
        #: Obs label set shared by this instance's registry entries.
        self.obs_labels = {"lvrm": str(next(_lvrm_ids))}
        self.stats = LvrmStats(obs_labels=self.obs_labels)
        #: Frame-latency spans, sim-time, exact when sample_every=1.
        self.spans = SpanRecorder(
            default_registry(),
            sample_every=(config.span_sample_every if config.record_spans
                          else 0),
            clock=sim.clock(), backend="des",
            labels=dict(self.obs_labels))
        #: Quality objectives swept by the supervision loop (empty
        #: rules = no watchdog, zero cost).
        self.watchdog = (SloWatchdog(parse_rules(config.slo_rules),
                                     default_registry(), clock=sim.clock(),
                                     track="slo",
                                     scope_labels=dict(self.obs_labels),
                                     dump_dir=config.postmortem_dir)
                         if config.slo_rules else None)
        #: Admission stage fronting dispatch (None for policy "none" —
        #: the legacy path pays nothing; see repro.overload).
        from repro.overload import build_controller
        self.overload = build_controller(config.overload_policy,
                                         config.overload_opts,
                                         default_registry(),
                                         scope_labels=dict(self.obs_labels))
        self._postmortems = 0
        machine.topology.validate_core(config.lvrm_core)
        self.core = machine.core(config.lvrm_core)
        self.affinity = AffinityPolicy(machine.topology, costs,
                                       config.lvrm_core, config.affinity)
        self.vr_monitor = VrMonitor(sim, machine, costs, self.affinity,
                                    config.lvrm_core,
                                    period=config.allocation_period,
                                    obs_labels=self.obs_labels)
        self._vri_monitors: List[VriMonitor] = []
        #: :meth:`all_vris` result, rebuilt after any VRI list changes
        #: (each VriMonitor reports its creates and removals).
        self._vris: Optional[Tuple[VriRuntime, ...]] = None
        #: What an idle park arms (see :meth:`_arm_wakes`): the NICs of a
        #: NIC-fronting capture, else a push-based capture's
        #: ``set_notify`` hook (repro.cluster's VIP capture), else nothing.
        self._nics = capture.nics if isinstance(capture, _NicBackend) \
            else None
        self._set_notify = None if self._nics is not None \
            else getattr(capture, "set_notify", None)
        #: Fires when a memory-trace run has fully drained.
        self.done = sim.event()
        #: Experiment hooks called as ``fn(frame, now)`` on each transmit.
        self.on_forward: List[Callable[[Frame, float], None]] = []
        self._wake: Optional[Callable[[], None]] = None
        self._out_rr = 0
        self._process = None
        self._supervisor = None
        #: Monotonic count of debounced VRI deaths (the DES analog of
        #: ``repro.runtime.supervisor.Supervisor.death_epoch``): the
        #: cluster failure detector counts a death only when this
        #: advances, never by re-observing a corpse this instance's own
        #: supervision loop already failed over.
        self.death_epoch = 0
        #: Sim time at which the whole instance was killed
        #: (:meth:`fail_instance`), or None while it is up.
        self.failed_at: Optional[float] = None
        #: Per-VR count of restarts already performed (backoff doubles
        #: with this; at ``restart_budget`` the VR degrades instead).
        self._restarts_used: Dict[str, int] = {}
        #: Failed VRIs awaiting respawn: (vr_name, placement, not_before).
        self._pending_respawns: List[tuple] = []
        #: Injected control-plane delay (repro.faults): the next
        #: ``_ctrl_delay_count`` relayed events each cost an extra
        #: ``_ctrl_delay`` seconds on LVRM's core.
        self._ctrl_delay = 0.0
        self._ctrl_delay_count = 0

    # -- VR hosting -----------------------------------------------------------------
    def add_vr(self, spec: VrSpec,
               allocator: Optional[CoreAllocator] = None,
               memory_budget=None) -> VriMonitor:
        """Host a VR.  Default allocator: dynamic with fixed thresholds at
        60 Kfps per VRI (the Experiment 2c configuration).  An optional
        :class:`~repro.core.memory.MemoryBudget` caps the VR's resident
        footprint (the setrlimit extension of thesis §3.2)."""
        if allocator is None:
            allocator = DynamicFixedThresholds(60_000.0)
        balancer = make_balancer(self.config.balancer,
                                 rng=self.rng.stream(f"balance.{spec.name}"),
                                 flow_based=self.config.flow_based)
        monitor = VriMonitor(
            self.sim, spec, self.machine, self.costs, balancer,
            lvrm_core_id=self.config.lvrm_core,
            queue_capacity=self.config.queue_capacity,
            rng_registry=self.rng, on_output=self._notify,
            memory_budget=memory_budget, obs_labels=self.obs_labels,
            on_vris_changed=self._vris_changed)
        self._vri_monitors.append(monitor)
        self._vris_changed()
        self.vr_monitor.add_vr(monitor, allocator)
        self.stats.forwarded_by_vr[spec.name] = 0
        return monitor

    def start(self) -> None:
        """Spawn initial VRIs and launch the main loop (and, when
        ``config.supervise`` is set, the supervision loop)."""
        if self._process is not None:
            raise ConfigError("LVRM already started")
        self._process = self.sim.process(self._run())
        if self.config.supervise:
            self._supervisor = self.sim.process(self._supervise())

    # -- introspection ----------------------------------------------------------------
    def all_vris(self) -> Tuple[VriRuntime, ...]:
        """Every live VRI, VR by VR in hosting order, each VR's in
        creation order.  Cached between VRI list changes; the main loop
        reads it several times per iteration."""
        vris = self._vris
        if vris is None:
            vris = self._vris = tuple(
                v for m in self._vri_monitors for v in m.vris)
        return vris

    def _vris_changed(self) -> None:
        self._vris = None

    def find_vri(self, vri_id: int) -> Optional[VriRuntime]:
        for vri in self.all_vris():
            if vri.vri_id == vri_id:
                return vri
        return None

    @property
    def instance_alive(self) -> bool:
        """False once the whole monitor was taken down
        (:meth:`fail_instance`) — the cluster-level liveness signal."""
        return self.failed_at is None

    def fail_instance(self, reason: str = "crash") -> None:
        """Kill the entire monitor instance (cluster chaos hook).

        Models losing the whole LVRM process: every VRI dies with it,
        the main and supervision loops stop, and nothing inside the
        instance ever reacts — in-flight frames strand where they are.
        Recovery is the *cluster's* job (repro.cluster promotes the
        standby); this instance stays a corpse.
        """
        if self.failed_at is not None:
            return
        self.failed_at = self.sim.now
        self.death_epoch += 1
        for vri in self.all_vris():
            if vri.alive:
                vri.fail(reason)
        for proc in (self._process, self._supervisor):
            if proc is not None and proc.is_alive:
                proc.interrupt(reason)
        self._pending_respawns.clear()
        RECORDER.note("cluster.instance_failed", ts=self.sim.now,
                      reason=reason, **self.obs_labels)

    def snapshot(self) -> Dict[str, VrSnapshot]:
        """Structured point-in-time state of every hosted VR and VRI.

        The monitoring view an operator (or the examples) reads without
        poking at internals: per-VR rates and drop counters, per-VRI
        core bindings, queue depths, and load/service estimates.
        """
        out: Dict[str, VrSnapshot] = {}
        for monitor in self._vri_monitors:
            vris = tuple(
                VriSnapshot(
                    vri_id=v.vri_id, vr_name=v.vr_name,
                    core_id=v.core.core_id, cross_socket=v.cross_socket,
                    queue_depth=v.channels.data_in.data_count,
                    load_estimate=v.load_estimate(),
                    service_rate=v.lvrm_adapter.service_rate(),
                    processed=v.processed,
                    dropped_no_route=v.dropped_no_route,
                    dropped_out_full=v.dropped_out_full)
                for v in monitor.vris)
            out[monitor.spec.name] = VrSnapshot(
                name=monitor.spec.name, n_vris=len(monitor.vris),
                arrival_rate=monitor.arrival.rate(
                    self.sim.now, idle_timeout=self.config.allocation_period),
                service_rate=monitor.service_rate(),
                dispatched=monitor.dispatched,
                dropped_queue_full=monitor.dropped_queue_full,
                vris=vris)
        return out

    def classify(self, src_ip: int) -> Optional[VriMonitor]:
        """Source-IP inspection: which hosted VR owns this frame."""
        for monitor in self._vri_monitors:
            if monitor.spec.owns(src_ip):
                return monitor
        return None

    # -- the admin plane (poll-based DES twin of the runtime's HTTP one) --------------
    def slot_states(self) -> Dict[str, str]:
        """Per-slot health keyed by live spawn order (vri_ids are
        process-global and would differ between identical runs)."""
        return {f"vri{i}": ("RUNNING" if v.alive else "DEAD")
                for i, v in enumerate(self.all_vris())}

    def topology(self) -> Dict:
        """The VR → VRI → core map the ``/topology`` route serves."""
        return {"backend": "des", **self.obs_labels,
                "balancer": self.config.balancer,
                "vrs": {m.spec.name: [
                    {"vri": v.vri_id, "core": v.core.core_id,
                     "alive": v.alive}
                    for v in m.vris]
                    for m in self._vri_monitors}}

    def admin_state(self):
        """An :class:`~repro.obs.admin.AdminState` over this monitor.

        The DES never opens sockets (it would break determinism and
        serve stale sim-time anyway); callers poll ``handle(path)``
        directly and get byte-identical payloads to the runtime's HTTP
        routes.
        """
        from repro.obs.admin import AdminState

        return AdminState(default_registry(),
                          health_fn=self.slot_states,
                          topology_fn=self.topology,
                          spans_fn=self.spans.jsonl,
                          overload_fn=(self._overload_view
                                       if self.overload is not None
                                       else None),
                          slo_fn=(self.watchdog.state
                                  if self.watchdog is not None else None))

    def _overload_view(self) -> Dict:
        """The ``/overload`` body: controller state plus the per-VRI
        occupancy map the shedding signal reads."""
        view = self.overload.state()
        view["occupancy"] = {str(k): round(v, 4)
                             for k, v in self.occupancies().items()}
        return view

    # -- wake plumbing -----------------------------------------------------------------
    def _notify(self) -> None:
        if self._wake is not None:
            wake, self._wake = self._wake, None
            wake()

    def _arm_wakes(self, wake_cb: Callable[[], None]) -> None:
        # VRI output needs no arming of its own: a VRI calls
        # ``on_output`` (= :meth:`_notify`) right after every push to
        # its outgoing data or control queue, and nothing else pushes
        # there.  The queues are empty whenever the loop parks (it
        # scanned them with no yield since), so only the capture side
        # can already hold work.
        self._wake = wake_cb
        nics = self._nics
        if nics is not None:
            backlog = False
            for nic in nics:
                nic.notify = wake_cb
                if nic.rx_ring.items:
                    backlog = True
            if backlog:
                # A frame slipped in before arming: don't sleep on it.
                wake_cb()
        elif self._set_notify is not None:
            # Push-based backends (repro.cluster's VIP capture) expose
            # the same notify contract as a NIC queue, duck-typed so the
            # capture layer needn't know about this loop.
            self._set_notify(wake_cb)
            if self.capture.backlog() > 0:
                wake_cb()

    def _disarm_wakes(self) -> None:
        self._wake = None
        nics = self._nics
        if nics is not None:
            for nic in nics:
                nic.notify = None
        elif self._set_notify is not None:
            self._set_notify(None)

    # -- drain detection (memory-trace runs) ----------------------------------------------
    def _fully_drained(self) -> bool:
        if not self.capture.exhausted:
            return False
        for vri in self.all_vris():
            if vri.channels.pending_input() or not vri.channels.data_out.is_empty \
                    or not vri.channels.ctrl_out.is_empty:
                return False
        # Every dispatched frame must be accounted for: completed by a
        # live VRI (including fault discards — a corrupted slot and a
        # record that vanished from the ring both "complete" the frame
        # from the dispatcher's view), stranded when a VRI died, or
        # banked in ``retired_completed`` when its VRI retired.
        completed = sum(v.processed + v.dropped_no_route + v.dropped_out_full
                        + v.dropped_corrupt
                        + v.channels.data_in.fault_dropped
                        for v in self.all_vris())
        pending = self.stats.dispatched - completed \
            - sum(m.dropped_on_destroy + m.dropped_on_failure
                  + m.retired_completed for m in self._vri_monitors)
        return pending <= 0

    # -- fault hooks (repro.faults) --------------------------------------------------------
    def inject_ctrl_delay(self, delay: float, count: int = 1) -> None:
        """Delay the next ``count`` relayed control events by ``delay``
        seconds each (models a wedged control path; the priority *order*
        of the relay is unchanged, only its cost)."""
        if delay < 0:
            raise ValueError(f"negative control delay: {delay!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        self._ctrl_delay = delay
        self._ctrl_delay_count = count

    # -- loop steps ----------------------------------------------------------------------
    # The main loop finds the work (a control event, a captured frame, an
    # outgoing frame) and enters one of these generators only when there
    # is some: an empty poll costs no generator.
    def _relay_control(self, vri: VriRuntime, event: ControlEvent):
        """Relay one control event popped from ``vri`` (priority path)."""
        pop_cost = self.costs.ipc_ctrl_cost(event.size, vri.cross_socket)
        dst = self.find_vri(event.dst_vri)
        push_cost = 0.0
        if dst is not None:
            push_cost = self.costs.ipc_ctrl_cost(event.size,
                                                 dst.cross_socket)
        if self._ctrl_delay_count > 0:
            # Injected control-plane latency (repro.faults).
            self._ctrl_delay_count -= 1
            pop_cost += self._ctrl_delay
        yield from self.core.execute(pop_cost + push_cost, owner=self,
                                     time_class="us")
        if dst is not None:
            dst.channels.ctrl_in.try_push(event)
            self.stats.ctrl_relayed += 1
            if _TRACE.enabled:
                _TRACE.instant("ctrl.relay", ts=self.sim.now, cat="ctrl",
                               track="lvrm", src=event.src_vri,
                               dst=event.dst_vri, kind=event.kind)

    def _transmit_one(self, vri: VriRuntime, frame: Frame):
        """Transmit one frame popped from ``vri``'s outgoing data queue."""
        # One execute per frame: the queue pop is charged together
        # with the transmit under the tx CPU class (the pop is tiny;
        # keeping event count low matters for multi-million-frame
        # runs — see the HPC guide's per-event-overhead advice).
        pop_cost = self.costs.ipc_data_cost(frame.size, vri.cross_socket)
        tx_cost = self.capture.tx_cost(frame)
        yield from self.core.execute(pop_cost + tx_cost, owner=self,
                                     time_class=self.capture.tx_time_class)
        now = self.sim.now
        if self.capture.transmit(frame):
            self.stats.forwarded += 1
            self.stats.forwarded_by_vr[vri.vr_name] = \
                self.stats.forwarded_by_vr.get(vri.vr_name, 0) + 1
            if self.config.record_latency:
                self.stats.latency.record(now, now - frame.t_created)
            if frame.span is not None and len(frame.span) == 4:
                # All four stamps present: close the latency span
                # (partial stamps mean the frame was dropped along
                # the way and attribution would be meaningless).
                self.spans.record_stamps(*frame.span, now,
                                         vri_id=vri.vri_id, vr=vri.vr_name)
            if _TRACE.enabled:
                _TRACE.instant("frame.tx", ts=now, cat="frame",
                               track="lvrm", vr=vri.vr_name,
                               vri=vri.vri_id)
            for hook in self.on_forward:
                hook(frame, now)
        else:
            self.stats.dropped_tx += 1
            if _TRACE.enabled:
                _TRACE.instant("frame.drop", ts=now,
                               cat="frame", track="lvrm", reason="tx",
                               vri=vri.vri_id)

    def _capture_one(self, frame: Frame):
        """Classify, (maybe) allocate, balance, dispatch one captured
        frame."""
        rx_cost = self.capture.rx_cost(frame)
        yield from self.core.execute(rx_cost, owner=self,
                                     time_class=self.capture.rx_time_class)
        self.stats.captured += 1

        # Figure 3.2: allocation is triggered by packet receipt, rate-
        # limited to one pass per period.
        if self.vr_monitor.due(self.sim.now):
            yield from self.vr_monitor.allocate_pass()

        monitor = self.classify(frame.src_ip)
        if monitor is None or not monitor.vris:
            yield from self.core.execute(self.costs.classify_cost,
                                         owner=self, time_class="us")
            self.stats.drop_no_vr.inc()
            if _TRACE.enabled:
                _TRACE.instant("frame.drop", ts=self.sim.now, cat="frame",
                               track="lvrm", reason="no_vr",
                               src_ip=frame.src_ip)
            return
        if self.overload is not None:
            # Admission fronts the monitor: a shed frame pays only the
            # classify cost (the stage reuses the 5-tuple read) and
            # never reaches record_arrival, so the allocator's arrival
            # estimate tracks *admitted* load — the load it must serve.
            self.overload.maybe_update(self.sim.now, self._occupancy)
            if not self.overload.admit_frame(frame):
                yield from self.core.execute(self.costs.classify_cost,
                                             owner=self, time_class="us")
                if _TRACE.enabled:
                    _TRACE.instant("frame.shed", ts=self.sim.now,
                                   cat="frame", track="lvrm",
                                   src_ip=frame.src_ip)
                return
        monitor.record_arrival(self.sim.now)
        vri = monitor.pick(frame, self.sim.now)
        # Classify + balance + enqueue charged as one execution (the
        # decisions are pure reads; merging keeps per-frame event count
        # low without changing ordering).
        dispatch_cost = (self.costs.classify_cost + monitor.dispatch_cost()
                         + self.costs.ipc_data_cost(frame.size,
                                                    vri.cross_socket)
                         + vri.producer_penalty)
        if self._arena_plane:
            # The zero-copy plane's one payload copy: stage the frame
            # into its arena chunk (alloc + per-byte write) at dispatch;
            # every later hop is descriptor-priced via arena_variant().
            dispatch_cost += (self.costs.arena_alloc_cost
                              + self._staging_per_byte * frame.size)
        yield from self.core.execute(dispatch_cost, owner=self,
                                     time_class="us")
        if self.spans.sample_every and self.spans.should_sample():
            # Open a latency span: creation is t_start, the enqueue in
            # deliver() stamps t_push, the VRI stamps service, transmit
            # closes it.  A dropped frame leaves a partial stamp that
            # simply never records.
            frame.span = (frame.t_created,)
        # Deliberately no ``vri.alive`` check: the producer pushes into
        # shared memory and cannot know the consumer died.  Frames sent
        # to a corpse strand in its ring until the supervisor's failover
        # drains them as losses (vri_dropped_fault_total).
        if monitor.deliver(frame, vri, self.sim.now):
            self.stats.c_dispatched.inc()
        else:
            self.stats.drop_queue_full.inc()

    def _occupancy(self) -> float:
        """Admission-control load signal: max data-ring fill across the
        live VRIs, in [0, 1] (the same per-ring ``data_count`` the JSQ
        estimator reads)."""
        cap = self.config.queue_capacity
        depth = 0
        for vri in self.all_vris():
            d = vri.channels.data_in.data_count
            if d > depth:
                depth = d
        return depth / cap if cap else 0.0

    def occupancies(self) -> Dict[int, float]:
        """Per-VRI data-ring fill ratios keyed by vri_id (`/overload`
        surfaces this map; the admission controller consumes its max via
        :meth:`_occupancy`)."""
        cap = self.config.queue_capacity
        if not cap:
            return {}
        return {vri.vri_id: vri.channels.data_in.data_count / cap
                for vri in self.all_vris()}

    # -- supervision (docs/RELIABILITY.md) -------------------------------------------------
    def _postmortem(self, vri_id: int, reason: str) -> Optional[str]:
        """Dump the flight recorder to a post-mortem file, best effort.

        Returns the path written, or ``None`` when post-mortems are off
        (no ``postmortem_dir``) or the write failed — a full disk must
        never block failover.  The file name carries a per-instance
        counter rather than a timestamp so repeated identical runs
        produce identical file sets.
        """
        directory = self.config.postmortem_dir
        if not directory:
            return None
        self._postmortems += 1
        lvrm = self.obs_labels.get("lvrm", "0")
        path = os.path.join(
            directory,
            f"postmortem-lvrm{lvrm}-vri{vri_id}-{reason}-"
            f"{self._postmortems}.txt")
        try:
            os.makedirs(directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                RECORDER.dump(fh, reason=f"vri{vri_id} {reason}")
        except OSError:
            return None
        return path

    def _check_liveness(self) -> None:
        """One supervision sweep: find crashed and hung VRIs, fail them
        over, and queue replacements (within budget, under backoff)."""
        cfg = self.config
        now = self.sim.now
        for monitor in self._vri_monitors:
            for vri in list(monitor.vris):
                # Crash detection debounces by one sweep: the corpse
                # must be at least a full supervision period old before
                # the failover fires.  A sweep that lands in the same
                # instant as the death (the canned t=2.0 kill does, with
                # period 0.05) must NOT act on it — a real polling
                # monitor confirms a missed check-in on its *next* pass,
                # and that detection window is where a crash's frame
                # losses come from.
                crashed = (not vri.alive
                           and (vri.t_died is None
                                or now - vri.t_died
                                >= cfg.supervision_period))
                # Hang detection is *behavioral*: queued input but no
                # progress for longer than the heartbeat timeout.  An
                # idle VRI (empty queues) is never declared hung, and
                # the injected ``hung`` flag is deliberately NOT read —
                # the supervisor only sees what a real monitor would.
                hung = (vri.alive and vri.queue_len > 0
                        and now - vri.last_progress > cfg.heartbeat_timeout)
                if not (crashed or hung):
                    continue
                name = monitor.spec.name
                reason = vri.failed or ("hang" if hung else "crash")
                placement = vri.placement
                reassigned = monitor.handle_failure(vri)
                self.stats.failovers.inc()
                self.death_epoch += 1
                self.stats.flows_reassigned.inc(reassigned)
                entry = self.vr_monitor.entries.get(name)
                if entry is not None:
                    entry.cores_series.record(now, len(monitor.vris))
                note = {"vr": name, "vri": vri.vri_id, "reason": reason,
                        "flows_reassigned": reassigned,
                        "survivors": len(monitor.vris)}
                postmortem = self._postmortem(vri.vri_id, reason)
                if postmortem is not None:
                    note["postmortem"] = postmortem
                RECORDER.note("supervisor.failover", ts=now, **note)
                used = self._restarts_used.get(name, 0)
                if used >= cfg.restart_budget:
                    # Budget exhausted: degrade to fewer instances
                    # rather than churn forever.
                    self.stats.degraded.inc()
                    RECORDER.note("supervisor.degraded", ts=now, vr=name,
                                  vri=vri.vri_id,
                                  restarts_used=used,
                                  survivors=len(monitor.vris))
                    continue
                self._restarts_used[name] = used + 1
                backoff = min(cfg.restart_backoff * (2 ** used),
                              cfg.restart_backoff_max)
                self._pending_respawns.append(
                    (name, placement, now + backoff, used + 1))
                RECORDER.note("supervisor.schedule_restart", ts=now,
                              vr=name, vri=vri.vri_id, attempt=used + 1,
                              backoff=backoff)

    def _respawn_due(self):
        """Generator: perform every queued respawn whose backoff expired."""
        now = self.sim.now
        due = [p for p in self._pending_respawns if p[2] <= now]
        if not due:
            return
        self._pending_respawns = [p for p in self._pending_respawns
                                  if p[2] > now]
        for name, placement, _t, attempt in due:
            entry = self.vr_monitor.entries.get(name)
            if entry is None:
                continue
            monitor = entry.monitor
            occupied = self.vr_monitor.occupied_cores()
            if (placement is None or placement.core_id in occupied
                    or placement.core_id == self.config.lvrm_core):
                # The dead VRI's core was re-used in the meantime (or
                # was never recorded): place afresh.
                try:
                    placement = self.affinity.place(occupied)
                except AllocationError:
                    self.stats.degraded.inc()
                    RECORDER.note("supervisor.degraded", ts=self.sim.now,
                                  vr=name, reason="no_core",
                                  attempt=attempt)
                    continue
            # The replacement costs what any VRI creation costs: a
            # vfork() + setup charged on LVRM's core.
            yield from self.core.execute(self.costs.vfork_cost,
                                         owner=self, time_class="sy")
            try:
                vri = monitor.create_vri(placement)
            except AllocationError:
                self.stats.degraded.inc()
                RECORDER.note("supervisor.degraded", ts=self.sim.now,
                              vr=name, reason="create_failed",
                              attempt=attempt)
                continue
            self.stats.restarts.inc()
            entry.cores_series.record(self.sim.now, len(monitor.vris))
            # Tell the fresh instance which attempt it is (rides the
            # control queue: handled before any data frame).
            vri.channels.ctrl_in.try_push(ControlEvent(
                kind=KIND_RESTART, src_vri=0, dst_vri=vri.vri_id,
                payload=struct.pack("<I", attempt),
                t_sent=self.sim.now))
            RECORDER.note("supervisor.restart", ts=self.sim.now, vr=name,
                          vri=vri.vri_id, core=placement.core_id,
                          attempt=attempt)
            if _TRACE.enabled:
                _TRACE.instant("supervisor.restart", ts=self.sim.now,
                               cat="alloc", track="lvrm", vr=name,
                               vri=vri.vri_id, core=placement.core_id,
                               attempt=attempt)
            # The main loop may be parked on its idle wake with the new
            # VRI's queues unarmed; nudge it so output drains promptly.
            self._notify()

    def _supervise(self):
        """The supervision process: a periodic sweep, independent of the
        data path (the real monitor's timer thread).  See
        docs/RELIABILITY.md for the full state machine."""
        period = self.config.supervision_period
        while True:
            yield self.sim.sleep(period)
            self._check_liveness()
            yield from self._respawn_due()
            if self.watchdog is not None:
                # SLO sweep rides the supervision clock.  Heartbeat age
                # is time since last observed progress, but only while
                # input is queued — an idle VRI is quiet, not stale
                # (same behavioral rule as hang detection above).
                ages = {v.vri_id: (self.sim.now - v.last_progress
                                   if v.queue_len > 0 else 0.0)
                        for v in self.all_vris() if v.alive}
                breaches = self.watchdog.evaluate(now=self.sim.now,
                                                  heartbeat_ages=ages)
                if self.overload is not None:
                    # Latency breaches tighten low-priority admission
                    # *before* queues overflow into supervisor-visible
                    # drops (docs/OVERLOAD.md).
                    self.overload.note_slo(any(
                        b.get("kind") == "p99_latency_ms"
                        for b in breaches))

    # -- the main loop --------------------------------------------------------------------
    def _run(self):
        # Spawn each VR's initial VRIs (allocation charged on our core).
        for monitor in self._vri_monitors:
            yield from self.vr_monitor.start_vr(monitor.spec.name)

        # The queue scans below test a SimIpcQueue's deque (``_items``)
        # before popping: they run for every VRI on every iteration,
        # where a pop call per empty queue is a measurable share of the
        # whole simulation.
        capture = self.capture
        while True:
            # 1. Relay one control event: priority over data.
            relayed = False
            for vri in self.all_vris():
                ctrl_out = vri.channels.ctrl_out
                if ctrl_out._items:
                    yield from self._relay_control(vri, ctrl_out.try_pop())
                    relayed = True
                    break
            if relayed:
                continue

            # 2. Capture one frame, then (interleaved) transmit one.
            frame = capture.poll()
            progress = frame is not None
            if progress:
                yield from self._capture_one(frame)
            # Re-read: an allocation pass inside the capture may have
            # created or destroyed VRIs.
            vris = self.all_vris()
            n = len(vris)
            out_rr = self._out_rr
            for offset in range(n):
                vri = vris[(out_rr + offset) % n]
                data_out = vri.channels.data_out
                if data_out._items:
                    self._out_rr = (out_rr + offset + 1) % n
                    yield from self._transmit_one(vri, data_out.try_pop())
                    progress = True
                    break
            if progress:
                continue

            if not self.done.triggered and self._fully_drained():
                # Signal trace completion, but keep serving: VRIs may
                # still exchange control events after the data dries up.
                self.done.succeed(self.stats)

            # Idle: sleep until a NIC or queue produces work.
            wake = self.sim.event()
            fired = [False]

            def _wake() -> None:
                if not fired[0]:
                    fired[0] = True
                    wake.succeed()

            self._arm_wakes(_wake)
            if capture.exhausted:
                if not self.done.triggered:
                    # Input is gone but frames are still in flight: poll
                    # periodically for the drain condition.
                    self.sim.call_in(20e-6, _wake)
            else:
                delay = capture.next_available_delay()
                if delay is not None:
                    # Paced trace source: wake when its next frame is due.
                    self.sim.call_in(max(delay, 1e-9), _wake)
            yield wake
            self._disarm_wakes()
