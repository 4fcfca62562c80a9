"""The VRI monitor (thesis §3.3): per-VR VRI lifecycle + load balancing.

One monitor per hosted VR.  It creates VRI adapters (queues in shared
memory, core binding, ``vfork()``) and destroys them (``kill()``,
teardown) on the VR monitor's orders, and dispatches each frame to a VRI
under the configured balancing scheme.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.core.balancing import LoadBalancer
from repro.core.estimation import EwmaArrivalRate
from repro.core.vr import VrSpec
from repro.core.vri import OutputTally, VriRuntime
from repro.errors import AllocationError
from repro.hardware.affinity import Placement
from repro.ipc.queues import VriChannels
from repro.ipc.sim_queue import SimIpcQueue
from repro.obs.registry import default_registry
from repro.obs.trace import TRACER as _TRACE
from repro.sim.engine import Simulator

__all__ = ["VriMonitor"]

_vri_ids = itertools.count(1)
#: Fallback label source for monitors constructed without ``obs_labels``
#: (direct construction in tests): keeps each monitor's counters distinct.
_mon_ids = itertools.count(1)


class VriMonitor:
    """Coordinates the VRIs of one VR."""

    def __init__(self, sim: Simulator, spec: VrSpec, machine, costs,
                 balancer: LoadBalancer, lvrm_core_id: int,
                 queue_capacity: int, rng_registry,
                 on_output: Callable[[], None],
                 memory_budget=None,
                 obs_labels: Optional[Dict[str, str]] = None,
                 on_vris_changed: Optional[Callable[[], None]] = None,
                 tally: Optional[OutputTally] = None):
        self.sim = sim
        self.spec = spec
        self.machine = machine
        self.costs = costs
        self.balancer = balancer
        #: The scheme's bare decision when its ``pick`` is the shared
        #: wrapper (empty check + trace event): untraced, :meth:`pick`
        #: checks for VRIs itself and calls this directly.
        self._choose = (balancer.choose
                        if type(balancer).pick is LoadBalancer.pick else None)
        self.lvrm_core_id = lvrm_core_id
        self.queue_capacity = queue_capacity
        self.rng_registry = rng_registry
        self._on_output = on_output
        #: Optional per-VR memory limit (the setrlimit extension of
        #: thesis §3.2); when set, VRI creation charges it and creation
        #: beyond the budget fails like core exhaustion does.
        self.memory_budget = memory_budget
        self.vris: List[VriRuntime] = []
        #: Called after every change to :attr:`vris` (the owning Lvrm
        #: caches the concatenation of its monitors' lists).
        self._on_vris_changed = on_vris_changed
        #: The monitor process's output tally, shared by every VRI this
        #: monitor spawns (None: each VRI keeps its own).
        self._tally = tally
        #: Monotone count of VRIs this monitor has ever spawned; names
        #: the per-VRI RNG streams.  Deliberately *local* (unlike the
        #: global vri_id): repeated identical experiments in the same
        #: process must draw identical jitter.
        self._spawn_seq = 0
        #: Arrival-rate estimate for this VR (the VR monitor's input).
        self.arrival = EwmaArrivalRate()
        self.arrival.trace_name = f"vr.{spec.name}.arrival"
        self.dispatched = 0
        self.dropped_on_destroy = 0
        #: Frames stranded in the queues of VRIs that *failed* (crash or
        #: hang), as opposed to orderly destruction.
        self.dropped_on_failure = 0
        #: Lifetime completions (processed + per-VRI drops) of VRIs that
        #: no longer exist.  Without this, destroying or failing a VRI
        #: would silently subtract its history from the drain ledger and
        #: :meth:`Lvrm._fully_drained` could never balance again.
        self.retired_completed = 0
        #: How many times this VR's instances have failed / been failed
        #: over (the supervisor's ledger).
        self.failures = 0
        # The queue-full drop counter lives on the obs registry; the
        # ``dropped_queue_full`` property is its read-through view.
        labels = dict(obs_labels) if obs_labels else {
            "mon": str(next(_mon_ids))}
        #: Instance scope (without the ``vr`` key) handed down to each
        #: VRI's counters so the whole run shares one selector label.
        self.obs_scope = dict(labels)
        labels["vr"] = spec.name
        self._c_queue_full = default_registry().counter(
            "vr_dropped_queue_full_total",
            "frames dropped at dispatch: chosen VRI's data queue full",
            **labels)
        self._c_fault_dropped = default_registry().counter(
            "vri_dropped_fault_total",
            "frames stranded in a failed VRI's queues at failover",
            **labels)

    # -- VRI lifecycle (Figure 3.2's create/destroy VRI adapter) ---------------
    def create_vri(self, placement: Placement) -> VriRuntime:
        """Create queues, put them in shared memory, bind the VRI to the
        placement's core, add it to the VRI list."""
        if len(self.vris) >= self.spec.max_vris:
            raise AllocationError(
                f"VR {self.spec.name}: already at max_vris={self.spec.max_vris}")
        vri_id = next(_vri_ids)
        if self.memory_budget is not None:
            self.memory_budget.charge_vri(
                vri_id, self.queue_capacity,
                n_routes=len(self.spec.map_lines))
        mk = lambda tag: SimIpcQueue(self.sim, self.queue_capacity,
                                     name=f"{self.spec.name}/vri{vri_id}/{tag}")
        channels = VriChannels(vri_id, data_in=mk("din"), data_out=mk("dout"),
                               ctrl_in=mk("cin"), ctrl_out=mk("cout"))
        core = self.machine.core(placement.core_id)
        cross = self.machine.cross_socket(placement.core_id,
                                          self.lvrm_core_id)
        if placement.kernel_managed:
            # Kernel-scheduled VRIs migrate across sockets: model the
            # average IPC path as cross-socket regardless of the core
            # the kernel happened to pick first.
            cross = True
        self._spawn_seq += 1
        vri = VriRuntime(
            sim=self.sim, vri_id=vri_id, vr_name=self.spec.name, core=core,
            channels=channels, router=self.spec.build_router(),
            costs=self.costs, cross_socket=cross,
            per_frame_penalty=placement.per_frame_penalty,
            rng=self.rng_registry.stream(
                f"{self.spec.name}.vri{self._spawn_seq}.jitter"),
            on_output=self._on_output,
            obs_labels=self.obs_scope, tally=self._tally)
        if placement.kernel_managed:
            vri.producer_penalty = self.costs.kernel_sched_penalty
        vri.placement = placement
        self.vris.append(vri)
        if self._on_vris_changed is not None:
            self._on_vris_changed()
        if _TRACE.enabled:
            _TRACE.instant("core.allocate", ts=self.sim.now, cat="alloc",
                           track="lvrm", vr=self.spec.name, vri=vri_id,
                           core=placement.core_id, n_vris=len(self.vris))
        return vri

    def destroy_vri(self, vri: Optional[VriRuntime] = None) -> VriRuntime:
        """Kill a VRI, destroy its queues, remove it from the list.

        Default victim: the VRI whose core LVRM values least — remote
        sockets go first, so surviving siblings keep the cheap IPC path.
        """
        if not self.vris:
            raise AllocationError(f"VR {self.spec.name}: no VRI to destroy")
        if vri is None:
            order = self.machine.topology.allocation_order(self.lvrm_core_id)
            rank = {core_id: i for i, core_id in enumerate(order)}
            vri = max(self.vris,
                      key=lambda v: rank.get(v.core.core_id, -1))
        if vri not in self.vris:
            raise AllocationError("VRI does not belong to this monitor")
        vri.kill()
        self.dropped_on_destroy += vri.drain_losses()
        self._forget(vri)
        if _TRACE.enabled:
            _TRACE.instant("core.deallocate", ts=self.sim.now, cat="alloc",
                           track="lvrm", vr=self.spec.name, vri=vri.vri_id,
                           core=vri.core.core_id, n_vris=len(self.vris))
        return vri

    def _forget(self, vri: VriRuntime) -> int:
        """Shared teardown ledger for destroy and failure paths.

        Removes the VRI from the live list, banks its lifetime
        completions (so drain detection keeps balancing), unpins its
        flows, and refunds its memory.  Returns how many flow-table
        entries were unpinned (0 for frame-based balancing).
        """
        self.vris.remove(vri)
        if self._on_vris_changed is not None:
            self._on_vris_changed()
        # data_in fault drops only: an outgoing-slot drop is already in
        # ``processed`` (the VRI's push "succeeded" before it vanished).
        self.retired_completed += (vri.processed + vri.dropped_no_route
                                   + vri.dropped_out_full
                                   + vri.dropped_corrupt
                                   + vri.channels.data_in.fault_dropped)
        reassigned = self.balancer.forget_vri(vri.vri_id) or 0
        if self.memory_budget is not None:
            self.memory_budget.refund_vri(vri.vri_id)
        return reassigned

    # -- failure handling (the supervisor's entry points) -----------------------
    def handle_failure(self, vri: VriRuntime) -> int:
        """Take a crashed or hung VRI out of service.

        The instance is already dead (crash) or about to be killed
        (hang); either way its in-flight frames are drained as losses —
        "frames in flight may drop" — while its *flows* are unpinned so
        the next frame of each one re-balances onto a survivor (or onto
        the replacement, once the supervisor respawns it).  Returns the
        number of flow-table entries reassigned this way.
        """
        if vri not in self.vris:
            raise AllocationError("VRI does not belong to this monitor")
        if vri.alive:
            # Hung, not dead: the supervisor escalates to kill(), the
            # same hard path the thesis' monitor reserves for itself.
            vri.kill()
        self.failures += 1
        stranded = vri.drain_losses()
        self.dropped_on_failure += stranded
        # On the obs registry too: the SLO watchdog's drop_rate rule
        # sums this family, which is what makes a kill *observable* as
        # a budget breach rather than only as a supervisor ledger entry.
        self._c_fault_dropped.inc(stranded)
        reassigned = self._forget(vri)
        if _TRACE.enabled:
            _TRACE.instant("core.failover", ts=self.sim.now, cat="alloc",
                           track="lvrm", vr=self.spec.name, vri=vri.vri_id,
                           core=vri.core.core_id, reason=vri.failed or "hang",
                           flows_reassigned=reassigned,
                           n_vris=len(self.vris))
        return reassigned

    def occupied_cores(self) -> set:
        return {v.core.core_id for v in self.vris}

    # -- data plane --------------------------------------------------------------
    def record_arrival(self, now: float) -> None:
        self.arrival.observe(now)

    def dispatch_cost(self) -> float:
        """LVRM CPU cost of the balancing decision for one frame."""
        return self.balancer.decision_cost(self.costs, len(self.vris))

    def pick(self, frame, now: float) -> VriRuntime:
        vris = self.vris
        if not vris:
            raise AllocationError(f"VR {self.spec.name}: no live VRI")
        choose = self._choose
        if choose is not None and not _TRACE.enabled:
            return choose(frame, vris, now)
        return self.balancer.pick(frame, vris, now)

    def deliver(self, frame, vri: VriRuntime, now: float) -> bool:
        """Push the frame into the chosen VRI's incoming data queue and
        feed the load estimator (the VRI adapter's duty)."""
        data_in = vri.channels.data_in
        accepted = data_in.try_push(frame)
        vri.adapter.observe_dispatch(now, len(data_in._items), accepted)
        if accepted:
            self.dispatched += 1
            if frame.span is not None:
                # Sampled frame: the dispatch phase ends here.
                frame.span += (now,)
            if _TRACE.enabled:
                _TRACE.instant("frame.enqueue", ts=now, cat="frame",
                               track="lvrm", vr=self.spec.name,
                               vri=vri.vri_id,
                               qlen=vri.channels.data_in.data_count)
        else:
            self._c_queue_full.inc()
            if _TRACE.enabled:
                _TRACE.instant("frame.drop", ts=now, cat="frame",
                               track="lvrm", reason="queue_full",
                               vr=self.spec.name, vri=vri.vri_id)
        return accepted

    @property
    def dropped_queue_full(self) -> int:
        """Read-through view of the obs-registry drop counter."""
        return self._c_queue_full.value

    # -- aggregate telemetry for the VR monitor --------------------------------------
    def service_rate(self) -> float:
        """Aggregate measured service rate over live VRIs (frames/s)."""
        return sum(v.lvrm_adapter.service_rate() for v in self.vris)

    def total_processed(self) -> int:
        return sum(v.processed for v in self.vris)
