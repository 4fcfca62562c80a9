"""A running VR instance (thesis §3.7), as a DES process.

The VRI loop reproduces the paper's consumer discipline: any pending
control event is handled before any data frame (control queues have
priority, §2.1).  Per data frame the VRI pays the IPC pop, runs its
router model (plus the experiment's dummy load and a small lognormal
service jitter), stamps the output interface, and pushes to its outgoing
data queue.  When both incoming queues are empty the process sleeps on a
wake hook — the DES stand-in for the real busy-poll.

Destruction is ``kill()``: the monitor interrupts the process and counts
whatever was left in the queues as dropped.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.lvrm_adapter import LvrmAdapter
from repro.core.router_types import RouterModel
from repro.core.vri_adapter import VriAdapter
from repro.hardware.machine import Core
from repro.ipc.messages import ControlEvent
from repro.ipc.queues import VriChannels
from repro.ipc.sim_queue import Corrupted
from repro.obs.registry import default_registry
from repro.obs.trace import TRACER as _TRACE
from repro.sim.engine import Simulator
from repro.sim.process import Interrupt

__all__ = ["VriRuntime", "OutputTally"]

#: Service-jitter multipliers drawn per RNG call (see
#: :meth:`VriRuntime._service_multiplier`).
_JITTER_BATCH = 256


class OutputTally:
    """How many VRIs hold output: non-empty outgoing control / data
    queues, counted over every VRI of one monitor.

    A VRI bumps a count when its push fills an empty outgoing queue;
    the monitor drops it when its pop empties one (and
    :meth:`VriRuntime.drain_losses` when a teardown does).  Nothing else
    pushes to or pops from those queues, so the monitor's main loop
    asks "is there output anywhere?" with one read instead of a scan.
    """

    __slots__ = ("ctrl", "data")

    def __init__(self) -> None:
        self.ctrl = 0
        self.data = 0


class VriRuntime:
    """One live VRI: core binding, queues, router, estimators, process."""

    def __init__(self, sim: Simulator, vri_id: int, vr_name: str,
                 core: Core, channels: VriChannels, router: RouterModel,
                 costs, cross_socket: bool, per_frame_penalty: float,
                 rng: np.random.Generator,
                 on_output: Callable[[], None],
                 service_jitter: Optional[float] = None,
                 obs_labels: Optional[Dict[str, str]] = None,
                 tally: Optional[OutputTally] = None):
        self.sim = sim
        self.vri_id = vri_id
        self.vr_name = vr_name
        self.core = core
        self.channels = channels
        self.router = router
        self.costs = costs
        self.cross_socket = cross_socket
        self.per_frame_penalty = per_frame_penalty
        self._rng = rng
        self._on_output = on_output
        #: The owning monitor's output count (a private one when the VRI
        #: is built standalone).
        self.tally = tally if tally is not None else OutputTally()
        self._jitter = (costs.service_jitter if service_jitter is None
                        else service_jitter)
        #: Service-jitter multipliers drawn ahead, next one last.
        self._jitter_draws: list = []
        self.adapter = VriAdapter(vri_id)
        self.lvrm_adapter = LvrmAdapter(vri_id)
        #: Extra cost charged to *LVRM* per dispatched frame (kernel-
        #: managed placements thrash the producer-side cache lines too).
        self.producer_penalty = 0.0
        #: Experiment hook: called with each control event received.
        self.control_handler: Optional[Callable[[ControlEvent, "VriRuntime"], None]] = None
        self.processed = 0
        # Drop counters live on the obs registry (the ``vri`` label is
        # globally unique per process); ``dropped_*`` properties below
        # are the read-through views the snapshots and tests consume.
        reg = default_registry()
        # Same family names as the runtime worker's local registry, so a
        # DES run and a merged runtime run expose identical metric names.
        # ``obs_labels`` is the owning monitor's instance scope (the
        # ``lvrm`` label): the SLO watchdog selects on it, so this run's
        # drop counters stay distinct from earlier runs' in one process.
        labels = {**(obs_labels or {}), "vr": vr_name, "vri": str(vri_id)}
        self._c_frames = reg.counter(
            "vri_frames_total",
            "frames the VRI popped from its incoming ring", **labels)
        self._c_forwarded = reg.counter(
            "vri_forwarded_total",
            "frames the VRI routed and handed back", **labels)
        self._c_no_route = reg.counter(
            "vri_dropped_no_route_total",
            "frames dropped by a VRI: no route for the destination",
            **labels)
        self._c_out_full = reg.counter(
            "vri_dropped_out_full_total",
            "frames dropped by a VRI: outgoing data queue full", **labels)
        self._c_corrupt = reg.counter(
            "vri_dropped_corrupt_total",
            "frames discarded by a VRI: slot corrupted (injected fault)",
            **labels)
        self.ctrl_received = 0
        self.alive = True
        #: Why this VRI died, when it died by fault rather than by the
        #: monitor's orderly ``kill()`` (None while alive / after kill).
        self.failed: Optional[str] = None
        #: Sim time :meth:`fail` fired.  The supervisor declares the
        #: crash only once the corpse is a full supervision period old
        #: (one missed check-in) — a polling monitor cannot observe a
        #: death in the same instant it happens, and that detection
        #: window is where a crash's frame losses actually come from.
        self.t_died: Optional[float] = None
        #: True while the instance is wedged by an injected hang.
        self.hung = False
        #: Multiplier on every service time (injected slowdown).
        self.slow_factor = 1.0
        #: Sim time of the last control event or frame this VRI finished
        #: handling — the supervisor's liveness signal: a VRI with queued
        #: input whose ``last_progress`` goes stale is hung, not idle.
        self.last_progress = sim.now
        #: The placement this VRI was created with (set by the VRI
        #: monitor); the supervisor respawns a crashed VRI onto it.
        self.placement = None
        #: The pending idle-park event, or None while the loop runs: the
        #: incoming queues' one-shot wake hooks call :meth:`_unpark`.
        self._park = None
        self._unpark_cb = self._unpark
        self.process = sim.process(self._run())

    # -- read-through drop-counter views ------------------------------------------
    @property
    def dropped_no_route(self) -> int:
        return self._c_no_route.value

    @property
    def dropped_out_full(self) -> int:
        return self._c_out_full.value

    @property
    def dropped_corrupt(self) -> int:
        return self._c_corrupt.value

    @property
    def fault_slot_dropped(self) -> int:
        """Records lost to injected slot drops on this VRI's queues."""
        return (self.channels.data_in.fault_dropped
                + self.channels.data_out.fault_dropped)

    # -- balancer-facing interface ------------------------------------------------
    def load_estimate(self) -> float:
        """Load signal for JSQ: smoothed history plus current backlog.

        The EWMA alone goes stale for VRIs that stop receiving frames
        (their estimate is only refreshed on dispatch), which makes JSQ
        herd onto one VRI under light load; the instantaneous ring
        occupancy — the very "data count" of Figure 3.4 — breaks those
        ties in favour of the actually-idle instances.
        """
        # adapter.load_estimate() + data_in.data_count, read directly:
        # JSQ asks every VRI of the VR for this on every frame.
        return (self.adapter.estimator.get()
                + len(self.channels.data_in._items))

    @property
    def queue_len(self) -> int:
        return self.channels.data_in.data_count

    # -- lifecycle ----------------------------------------------------------------
    def kill(self) -> None:
        """The monitor's ``kill()``: interrupt the process immediately."""
        self.alive = False
        self.process.interrupt("kill")

    # -- injected failures (repro.faults) -------------------------------------------
    def fail(self, reason: str = "crash") -> None:
        """Die abruptly, as if the instance segfaulted.

        Unlike :meth:`kill` this is not the monitor's doing: the VRI
        just stops, queues still holding whatever was in flight, and the
        supervisor discovers the corpse on its next liveness check.
        """
        self.alive = False
        self.failed = reason
        self.t_died = self.sim.now
        self.process.interrupt(("crash", reason))

    def hang(self) -> None:
        """Wedge the instance: the process stops consuming forever.

        The OS-process analogue is a worker spinning in a deadlock — it
        is *alive* (``kill()`` still works) but makes no progress.  Only
        the supervisor's stale-``last_progress`` check can tell it apart
        from an idle instance.
        """
        self.hung = True
        self.process.interrupt("hang")

    def set_slow(self, factor: float) -> None:
        """Scale every subsequent service time by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValueError(f"negative slow factor: {factor!r}")
        self.slow_factor = factor

    def drain_losses(self) -> int:
        """Count (and clear) frames stranded in the queues at death."""
        ch = self.channels
        if ch.data_out._items:
            self.tally.data -= 1
        if ch.ctrl_out._items:
            self.tally.ctrl -= 1
        stranded = 0
        for q in (ch.data_in, ch.data_out):
            while q.try_pop() is not None:
                stranded += 1
        for q in (ch.ctrl_in, ch.ctrl_out):
            while q.try_pop() is not None:
                pass
        return stranded

    # -- control plane ------------------------------------------------------------
    def send_control(self, event: ControlEvent):
        """Generator: emit a control event from inside this VRI's context
        (charges the push cost to this VRI's core, as the real
        ``toLVRM()`` would)."""
        cost = self.costs.ipc_ctrl_cost(event.size, self.cross_socket)
        yield from self.core.execute(cost, owner=self, time_class="us")
        ctrl_out = self.channels.ctrl_out
        was_empty = not ctrl_out._items
        ctrl_out.try_push(event)
        if was_empty and ctrl_out._items:
            self.tally.ctrl += 1
        self._on_output()

    # -- the VRI main loop -----------------------------------------------------------
    def _service_multiplier(self) -> float:
        if self._jitter <= 0.0:
            return 1.0
        draws = self._jitter_draws
        if not draws:
            # Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).  The
            # stream is this VRI's alone, and numpy's array draw runs
            # the scalar draw's routine per element, so drawing a batch
            # hands every frame the very value a per-frame draw would.
            sigma = self._jitter
            draws = self._jitter_draws = self._rng.lognormal(
                -0.5 * sigma * sigma, sigma, _JITTER_BATCH).tolist()
            draws.reverse()
        return draws.pop()

    def _unpark(self) -> None:
        """Wake hook of the incoming queues: end the idle park, once."""
        park = self._park
        if park is not None:
            self._park = None
            park.succeed()

    def _run(self):
        """The VRI process: serve until killed.

        One generator frame per step: an idle core is taken inline, the
        way :meth:`Core.execute`'s uncontended path takes it (hold it,
        one pooled sleep, release it).  A busy core, a control event and
        a torn slot go through ``core.execute``.
        """
        sim = self.sim
        sleep = sim.sleep
        costs = self.costs
        ch = self.channels
        ctrl_in, data_in, data_out = ch.ctrl_in, ch.data_in, ch.data_out
        core = self.core
        users, waiters, busy = core.users, core.waiters, core.busy
        try:
            while True:
                # Control first: higher priority than data (thesis §2.1).
                if ctrl_in._items:
                    event = ctrl_in.try_pop()
                    cost = costs.ipc_ctrl_cost(event.size, self.cross_socket)
                    yield from core.execute(cost, owner=self,
                                            time_class="us")
                    self.ctrl_received += 1
                    self.last_progress = sim._now
                    if self.control_handler is not None:
                        self.control_handler(event, self)
                    continue

                if not data_in._items:
                    # Idle: sleep until either incoming queue gets an
                    # item (both are empty, so each hook is armed).
                    park = self._park = sim.event()
                    ctrl_in.set_wake(self._unpark_cb)
                    data_in.set_wake(self._unpark_cb)
                    yield park
                    ctrl_in.clear_wake()
                    data_in.clear_wake()
                    continue

                frame = data_in.try_pop()
                self._c_frames.value += 1
                if type(frame) is Corrupted:
                    # A torn slot: pay the pop, discard the record.
                    pop = costs.ipc_data_cost(
                        frame.item.size, self.cross_socket)
                    yield from core.execute(pop, owner=self,
                                            time_class="us")
                    self._c_corrupt.inc()
                    self.last_progress = sim._now
                    if _TRACE.enabled:
                        _TRACE.instant("frame.drop", ts=sim._now,
                                       cat="frame",
                                       track=f"vri{self.vri_id}",
                                       reason="corrupt",
                                       vri=self.vri_id)
                    continue
                if _TRACE.enabled:
                    _TRACE.instant("frame.dequeue", ts=sim._now,
                                   cat="frame", track=f"vri{self.vri_id}",
                                   vr=self.vr_name, vri=self.vri_id,
                                   qlen=data_in.data_count)
                t_pop = sim._now
                # The push costs what the pop does (same frame, same
                # queue pair), bit for bit.
                pop = push = costs.ipc_data_cost(frame.size,
                                                 self.cross_socket)
                service = (self.router.service_time(frame, costs)
                           * self._service_multiplier()
                           * self.slow_factor
                           + self.per_frame_penalty)
                # pop + process + push charged in one execution: one
                # timer event per frame instead of three (the HPC
                # guides' per-event overhead rule); ordering of the
                # outgoing push is unchanged.
                cost = pop + service + push
                if users or waiters:
                    yield from core.execute(cost, owner=self,
                                            time_class="us")
                else:
                    users.append(core)
                    if core._last_owner is not self:
                        cost += core.switch_to(self)
                    try:
                        if cost > 0.0:
                            yield sleep(cost)
                    finally:
                        users.clear()
                        if waiters:
                            core.grant_waiters()
                    busy["us"] += cost
                self.lvrm_adapter.record_service(pop + service)
                now = sim._now
                self.last_progress = now
                if frame.span is not None:
                    # Sampled frame: stamp service entry/exit (sim-time).
                    frame.span += (t_pop, now)
                if not self.router.process(frame):
                    self._c_no_route.inc()
                    if _TRACE.enabled:
                        _TRACE.instant("frame.drop", ts=now,
                                       cat="frame",
                                       track=f"vri{self.vri_id}",
                                       reason="no_route",
                                       vri=self.vri_id)
                    continue
                was_empty = not data_out._items
                if data_out.try_push(frame):
                    if was_empty and data_out._items:
                        self.tally.data += 1
                    self.processed += 1
                    self._c_forwarded.value += 1
                    self.lvrm_adapter.record_output()
                    self._on_output()
                else:
                    self._c_out_full.inc()
                    if _TRACE.enabled:
                        _TRACE.instant("frame.drop", ts=now,
                                       cat="frame",
                                       track=f"vri{self.vri_id}",
                                       reason="out_full",
                                       vri=self.vri_id)
        except Interrupt as intr:
            if intr.cause == "hang":
                # Wedged, not dead: park on an event that never fires.
                # The supervisor's liveness check eventually kill()s us,
                # which lands as a second interrupt right here.
                try:
                    yield self.sim.event()
                except Interrupt:
                    pass
            return "killed"
