"""The calibrated cost model.

Every per-frame / per-operation cost in the simulation comes from this
one frozen dataclass, so the whole calibration is auditable in a single
place.  Values are chosen to satisfy the measured anchors the paper's
*text* reports (not pixel-read from figures); see DESIGN.md §5:

=========================================  ==========================================
Anchor (paper, Chapter 4)                  Constraint satisfied here
=========================================  ==========================================
gateway input ceiling 448 Kfps             sender hosts: 224 Kfps each (net.testbed)
native kernel forwarding ≈ sender-limited  ``kernel_forward_fixed`` ≈ 1.9 µs
LVRM-only 3.7 Mfps @ 84 B (Exp 1c)         LVRM stage ≈ 230 ns + 0.55 ns/B
LVRM-only ≈ 922 Kfps / 11 Gbps @ 1538 B    same per-byte slope
PF_RING ≈ native, raw-socket −1/3 @ 84 B   ``pfring_rx/tx`` ≈ 0.9 µs vs raw ≈ 1.7 µs
LVRM-only latency ≤ 15 µs (C++)            stage costs + queue hand-offs
Click VR 25–35 µs latency, lower tput      ``click_element_cost`` × pipeline length
control message 5–7 µs no-load (Exp 1e)    control-queue op costs
alloc ≤ 900 µs / dealloc ≤ 700 µs          ``vfork_cost`` / ``kill_cost``
RTT 70–120 µs (Exp 1b)                     host/wire terms in net.link / net.host
hypervisors far worse (Exp 1a/1b)          VMware / QEMU-KVM presets
=========================================  ==========================================

The *shapes* of all figures (crossovers, staircases, saturation, fairness)
emerge from queueing and contention in the simulation; only these unit
costs are calibrated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COSTS"]

_US = 1e-6  # one microsecond, in seconds
_NS = 1e-9  # one nanosecond, in seconds


@dataclass(frozen=True)
class CostModel:
    """Unit costs (seconds unless noted) for the gateway simulation."""

    # -- socket adapter: per-frame capture / transmit cost by backend -------
    #: PF_RING zero-copy poll, receive side.
    pfring_rx: float = 0.90 * _US
    #: PF_RING ``pfring_send()``, transmit side (LVRM >= 1.1).
    pfring_tx: float = 0.88 * _US
    #: Raw BSD socket ``recvfrom()`` non-blocking poll (syscall + copy).
    rawsock_rx: float = 1.70 * _US
    #: Raw socket ``send()``.
    rawsock_tx: float = 1.45 * _US
    #: Extra copy cost per byte through the kernel socket path.
    rawsock_per_byte: float = 0.30 * _NS
    #: Main-memory trace read (Experiment 1c/1d input device).
    memory_rx: float = 0.060 * _US
    #: Per byte streamed from main memory.
    memory_rx_per_byte: float = 0.10 * _NS
    #: Discarding an outgoing frame (Experiment 1c/1d output device).
    discard_tx: float = 0.010 * _US

    # -- LVRM dispatch path ---------------------------------------------------
    #: Source-IP inspection to pick the owning VR.
    classify_cost: float = 0.040 * _US
    #: Frame-based balancing decision, fixed part (RR / random).
    balance_fixed: float = 0.015 * _US
    #: Additional JSQ cost per VRI scanned (reads one load estimate).
    balance_jsq_per_vri: float = 0.008 * _US
    #: Flow-table lookup + timestamp update for flow-based balancing
    #: (hash + ``times()`` syscall the paper blames in Experiment 3c).
    balance_flow_lookup: float = 0.30 * _US

    # -- IPC queues (lock-free SPSC rings in shared memory) -----------------
    #: One enqueue or dequeue on a data queue (same socket).
    ipc_op: float = 0.055 * _US
    #: Per-byte cost of staging the frame payload through the ring.
    ipc_per_byte: float = 0.20 * _NS
    #: Extra cost per queue op when producer/consumer cores sit in
    #: different sockets (cache-line ownership transfer).
    ipc_cross_socket: float = 0.18 * _US
    #: One enqueue or dequeue on a *control* queue (these carry small
    #: events and take the slow-but-simple path).
    ipc_ctrl_op: float = 1.20 * _US
    #: Per-byte cost for control event payloads.
    ipc_ctrl_per_byte: float = 2.0 * _NS
    #: One enqueue or dequeue on a *descriptor* data queue (arena data
    #: plane): a fixed 24-byte slot copy with no per-byte payload term,
    #: so it undercuts ``ipc_op`` and is size-independent.
    ipc_desc_op: float = 0.035 * _US
    #: Arena chunk allocation (free-list pop + refcount store) plus the
    #: matching owner-side free, amortized per frame.
    arena_alloc_cost: float = 0.045 * _US

    # -- burst kernels (repro.kernels) -------------------------------------------
    #: Per-frame VR service cost multiplier of the vectorized numpy
    #: kernel relative to the scalar reference: whole-burst header
    #: gathers + interval-table LPM amortize the interpreter away
    #: (calibrated against BENCH_kernels.json ``kernel_hop_*``).
    kernel_numpy_factor: float = 0.40
    #: Same for the compiled cffi/ctypes burst loop.
    kernel_cffi_factor: float = 0.25
    #: Fixed per-burst overhead the batched kernels add (ndarray set-up
    #: or the FFI call), amortized per frame at typical burst sizes.
    kernel_batch_fixed: float = 0.004 * _US

    # -- hosted VR processing ---------------------------------------------------
    #: C++ VR: minimal forwarding decision per frame.
    cpp_vr_cost: float = 0.080 * _US
    #: Click VR: cost per element traversed in the configured pipeline.
    click_element_cost: float = 0.60 * _US
    #: Relative std-dev of per-frame service-time jitter (lognormal).
    service_jitter: float = 0.08

    # -- kernel baselines ---------------------------------------------------------
    #: Native Linux IP forwarding, fixed per-frame cost (softirq path).
    kernel_forward_fixed: float = 1.90 * _US
    #: Native forwarding per-byte cost.
    kernel_forward_per_byte: float = 0.10 * _NS

    # -- scheduling / process management ----------------------------------------
    #: Context switch when a core changes the process it is running.
    context_switch: float = 0.70 * _US
    #: Amortized per-frame penalty of letting the kernel place the VRI
    #: ("default" affinity of Experiment 2a): cache-affinity loss from
    #: periodic migrations.
    kernel_sched_penalty: float = 0.45 * _US
    #: ``vfork()`` + queue/shm setup when spawning a VRI.
    vfork_cost: float = 820.0 * _US
    #: ``kill()`` + teardown when destroying a VRI.
    kill_cost: float = 620.0 * _US
    #: VR-monitor bookkeeping per VRI examined during an allocation pass
    #: (load-estimate retrieval + threshold comparison).
    alloc_scan_per_vri: float = 9.0 * _US
    #: Fixed part of one allocation pass.
    alloc_scan_fixed: float = 12.0 * _US

    # -- general-purpose hypervisor baselines -------------------------------------
    #: VMware Server: per-frame bridged-NIC + world-switch overhead.
    vmware_per_frame: float = 6.0 * _US
    #: VMware extra one-way latency (emulation queues).
    vmware_latency: float = 140.0 * _US
    #: QEMU-KVM with the paper's (pathological) emulated-NIC setup.
    qemu_per_frame: float = 25.0 * _US
    #: QEMU-KVM extra one-way latency.
    qemu_latency: float = 420.0 * _US

    # -- host protocol stacks (senders / receivers) -----------------------------
    #: One-way fixed latency through a host's user+kernel stack and NIC.
    host_stack_latency: float = 14.0 * _US
    #: Per-frame CPU cost of generating a frame at a sender (sets the
    #: 224 Kfps per-host ceiling together with the traffic generator).
    sender_per_frame: float = 4.4 * _US

    def replace(self, **kw: float) -> "CostModel":
        """Return a copy with selected fields overridden."""
        return dataclasses.replace(self, **kw)

    def validate(self) -> None:
        """Sanity-check that every cost is finite and non-negative."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not (isinstance(value, (int, float)) and value >= 0.0):
                raise ValueError(f"cost {field.name}={value!r} must be >= 0")

    # Convenience aggregates used by several components -------------------------
    def ipc_data_cost(self, nbytes: int, cross_socket: bool) -> float:
        """Cost of one data-queue operation for an ``nbytes`` frame."""
        cost = self.ipc_op + self.ipc_per_byte * nbytes
        if cross_socket:
            cost += self.ipc_cross_socket
        return cost

    def ipc_ctrl_cost(self, nbytes: int, cross_socket: bool) -> float:
        """Cost of one control-queue operation for an ``nbytes`` event."""
        cost = self.ipc_ctrl_op + self.ipc_ctrl_per_byte * nbytes
        if cross_socket:
            cost += self.ipc_cross_socket
        return cost

    def arena_variant(self) -> "CostModel":
        """The cost model with the zero-copy arena data plane enabled.

        Data-queue operations become descriptor ops: fixed 24-byte cost
        (``ipc_desc_op``) and *no per-byte term*, because the payload no
        longer moves through the ring.  The payload's single staging
        copy into the arena is charged separately at dispatch
        (``arena_alloc_cost`` plus the original per-byte cost, see
        ``Lvrm._capture_one``).  Control queues are untouched.
        """
        return self.replace(ipc_op=self.ipc_desc_op, ipc_per_byte=0.0)

    def kernel_variant(self, kind: str) -> "CostModel":
        """The cost model under a non-scalar burst kernel
        (:mod:`repro.kernels`), priced like :meth:`arena_variant`.

        The kernels batch the *service* work — header parse, LPM,
        checksum rewrite — so the C++ VR's per-frame decision cost
        shrinks by the calibrated factor while gaining the (tiny)
        amortized per-frame share of the batch set-up.  Ring and
        staging costs are untouched: those belong to ``data_plane``.
        ``scalar`` (or ``None``) returns ``self`` unchanged.
        """
        if kind in (None, "scalar"):
            return self
        factors = {"numpy": self.kernel_numpy_factor,
                   "cffi": self.kernel_cffi_factor}
        if kind not in factors:
            raise ValueError(f"unknown kernel kind {kind!r}; "
                             f"expected scalar/numpy/cffi")
        return self.replace(
            cpp_vr_cost=(self.cpp_vr_cost * factors[kind]
                         + self.kernel_batch_fixed))


#: The calibration used by every experiment unless explicitly overridden.
DEFAULT_COSTS = CostModel()
DEFAULT_COSTS.validate()
