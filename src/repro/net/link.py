"""Point-to-point links with serialization, propagation, and drop-tail.

A :class:`Link` is unidirectional: frames submitted with :meth:`send`
serialize at the link bandwidth (FIFO — a frame cannot start while the
previous one is still on the wire), then propagate, then arrive at the
attached endpoint's ``receive(frame)`` method.

The transmit queue is bounded in *frames* (a device ring); when it
overflows, frames are dropped and counted — the loss signal behind the
2 % achievable-throughput criterion of Chapter 4.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.net.frame import Frame
from repro.sim.engine import Simulator

__all__ = ["Link", "Endpoint", "GIGABIT"]

#: The testbed's raw link rate: 1 Gbps.
GIGABIT = 1_000_000_000.0


class Endpoint(Protocol):
    """Anything that can terminate a link."""

    def receive(self, frame: Frame) -> None: ...


class Link:
    """One direction of a cable (plus the switch hop it crosses).

    ``latency`` lumps propagation and the store-and-forward delay of the
    path's switch; the testbed uses ~5 µs per hop, which together with
    the host stacks reproduces the paper's 70–120 µs RTT band.
    """

    def __init__(self, sim: Simulator, dst: Optional[Endpoint] = None,
                 bandwidth: float = GIGABIT, latency: float = 5e-6,
                 queue_frames: int = 1024, name: str = ""):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if queue_frames < 1:
            raise ValueError("queue must hold at least one frame")
        self.sim = sim
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.queue_frames = queue_frames
        self.name = name
        #: Absolute time the transmitter becomes free.
        self._free_at = 0.0
        #: Frames currently queued/serializing (for drop-tail accounting).
        self._in_flight = 0
        self.sent = 0
        self.dropped = 0
        self.bytes_sent = 0
        self._deliver_cb = self._deliver

    def connect(self, dst: Endpoint) -> None:
        self.dst = dst

    @property
    def utilization_backlog(self) -> float:
        """Seconds of serialization backlog currently queued."""
        return max(0.0, self._free_at - self.sim.now)

    def send(self, frame: Frame) -> bool:
        """Submit ``frame``; returns False when drop-tail discards it."""
        if self.dst is None:
            raise RuntimeError(f"link {self.name!r} is not connected")
        if self._in_flight >= self.queue_frames:
            self.dropped += 1
            return False
        # frame.wire_time() and max(now, free_at), spelled out: this
        # runs once per frame per hop.
        sim = self.sim
        now = sim._now
        free_at = self._free_at
        free_at = (now if now >= free_at else free_at) \
            + frame.size * 8.0 / self.bandwidth
        self._free_at = free_at
        self._in_flight += 1
        self.sent += 1
        self.bytes_sent += frame.size
        sim.hop_at(free_at + self.latency, self._deliver_cb, frame)
        return True

    def _deliver(self, frame: Frame) -> None:
        self._in_flight -= 1
        self.dst.receive(frame)  # type: ignore[union-attr]
