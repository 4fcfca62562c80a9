"""The gateway machine: cores as serializing executors.

A :class:`Core` runs one job at a time.  Simulation processes "compute"
by yielding from :meth:`Core.execute`, which serializes co-located
processes (FIFO) and charges a context-switch cost whenever the core's
current owner changes — this is what collapses throughput in the "same"
affinity mode of Experiment 2a.

Per-core busy-time accounting feeds the CPU-usage breakdown of
Experiment 1a (Figure 4.3): callers tag each execution with a CPU-time
class (``us``/``sy``/``si``), and :meth:`Machine.cpu_usage` reports the
per-class utilization over a window.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.errors import TopologyError
from repro.hardware.costs import CostModel, DEFAULT_COSTS
from repro.hardware.topology import CpuTopology
from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["Core", "Machine", "CPU_TIME_CLASSES"]

#: CPU-time classes mirroring `top`: user space, system (kernel on behalf
#: of a process), and software interrupts.
CPU_TIME_CLASSES = ("us", "sy", "si")


class Core:
    """One CPU core: a FIFO-serializing execution resource."""

    def __init__(self, sim: Simulator, core_id: int, socket: int,
                 costs: CostModel):
        self.sim = sim
        self.core_id = core_id
        self.socket = socket
        self.costs = costs
        self._resource = Resource(sim, capacity=1)
        #: The resource's holder list and wait queue.  Both empty means
        #: the core is idle: the LVRM and VRI loops test this and run
        #: :meth:`execute`'s uncontended path inline (see there).
        self.users = self._resource.users
        self.waiters = self._resource._waiters
        #: Hands a just-freed core to the oldest queued request.
        self.grant_waiters = self._resource.grant_waiters
        self._last_owner: Optional[object] = None
        #: Busy seconds per CPU-time class since construction.
        self.busy: Dict[str, float] = {c: 0.0 for c in CPU_TIME_CLASSES}
        #: Number of context switches charged.
        self.context_switches = 0

    @property
    def queue_depth(self) -> int:
        """Number of jobs currently holding or waiting for this core."""
        return self._resource.count + len(self._resource._waiters)

    def execute(self, duration: float, owner: object = None,
                time_class: str = "us") -> Generator:
        """Occupy this core for ``duration`` seconds (plus contention).

        ``owner`` identifies the logical process for context-switch
        accounting; ``time_class`` tags the busy time (``us``/``sy``/``si``).
        Usage: ``yield from core.execute(cost, owner=self)``.
        """
        if duration < 0:
            raise ValueError(f"negative execution duration: {duration}")
        if time_class not in CPU_TIME_CLASSES:
            raise ValueError(f"unknown CPU time class {time_class!r}")
        users = self.users
        if not users and not self.waiters:
            # Uncontended: take the idle core with no request event, the
            # core itself as the token.  ``Lvrm._run`` and
            # ``VriRuntime._run`` run this same path inline, without
            # this generator; a change here changes them too.
            users.append(self)
            total = duration
            if owner is not None and owner is not self._last_owner:
                total += self.switch_to(owner)
            try:
                if total > 0.0:
                    yield self.sim.sleep(total)
            finally:
                users.clear()
                if self.waiters:
                    self.grant_waiters()
            self.busy[time_class] += total
            return
        req = self._resource.request()
        yield req
        try:
            total = duration
            if owner is not None and owner is not self._last_owner:
                total += self.switch_to(owner)
            if total > 0.0:
                yield self.sim.sleep(total)
            self.busy[time_class] += total
        finally:
            req.release()

    def switch_to(self, owner: object) -> float:
        """Make ``owner`` the core's current process; returns the
        context-switch seconds that costs (none for the first owner)."""
        previous, self._last_owner = self._last_owner, owner
        if previous is None:
            return 0.0
        self.context_switches += 1
        return self.costs.context_switch

    def charge(self, duration: float, time_class: str = "us") -> None:
        """Account busy time without simulating occupancy.

        Used by closed-form fast paths (e.g. the kernel-forwarding
        baseline under saturation) where the queueing is computed
        analytically but utilization must still be reported.
        """
        if time_class not in CPU_TIME_CLASSES:
            raise ValueError(f"unknown CPU time class {time_class!r}")
        self.busy[time_class] += duration

    def utilization(self, window: float) -> Dict[str, float]:
        """Busy fraction per class over a ``window`` of seconds."""
        if window <= 0:
            raise ValueError("window must be positive")
        return {c: min(1.0, b / window) for c, b in self.busy.items()}


class Machine:
    """A multi-core machine (the Figure 4.1 gateway by default)."""

    def __init__(self, sim: Simulator, topology: Optional[CpuTopology] = None,
                 costs: CostModel = DEFAULT_COSTS):
        self.sim = sim
        self.topology = topology or CpuTopology()
        self.costs = costs
        self.cores = [
            Core(sim, cid, self.topology.socket_of(cid), costs)
            for cid in range(self.topology.n_cores)
        ]

    def core(self, core_id: int) -> Core:
        self.topology.validate_core(core_id)
        return self.cores[core_id]

    def cross_socket(self, core_a: int, core_b: int) -> bool:
        """True when the two cores live in different sockets."""
        return not self.topology.same_socket(core_a, core_b)

    def cpu_usage(self, window: float) -> Dict[int, Dict[str, float]]:
        """Per-core, per-class utilization over ``window`` seconds."""
        return {c.core_id: c.utilization(window) for c in self.cores}

    def busiest_core(self) -> Core:
        return max(self.cores, key=lambda c: sum(c.busy.values()))

    def free_cores(self, occupied: set) -> list:
        """Core ids not present in ``occupied``."""
        bad = [c for c in occupied if not 0 <= c < self.topology.n_cores]
        if bad:
            raise TopologyError(f"occupied set has invalid cores: {bad}")
        return [c.core_id for c in self.cores if c.core_id not in occupied]
