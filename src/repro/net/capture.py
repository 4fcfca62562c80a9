"""Socket-adapter capture backends (thesis §3.1).

The socket adapter is LVRM's interface to "the lower level".  The three
variants the paper implements are reproduced as backends with distinct
cost/behaviour profiles:

* :class:`RawSocketCapture` — BSD raw socket.  ``recvfrom()``/``send()``
  syscalls with kernel copies: high fixed cost per frame, a per-byte copy
  surcharge, and the CPU time lands in the *system* (``sy``) class.
* :class:`PfRingCapture` — PF_RING zero-copy polling.  Much cheaper, CPU
  time in *user* (``us``) class.  Models LVRM 1.1, where PF_RING handles
  both directions (``pfring_send()``); pass ``tx_via_raw_socket=True`` to
  model LVRM 1.0, which still transmitted via the raw socket.
* :class:`MemoryCapture` — reads a preloaded trace from RAM and discards
  output; the Experiment 1c/1d device for excluding the network.

All backends expose the same small interface, so LVRM stays oblivious —
exactly the extensibility claim of the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.hardware.costs import CostModel
from repro.net.frame import Frame
from repro.net.nic import Nic, RxTally
from repro.sim.engine import Simulator

__all__ = ["CaptureBackend", "RawSocketCapture", "PfRingCapture",
           "MemoryCapture"]


class CaptureBackend:
    """Common interface of the three socket-adapter variants."""

    name = "abstract"
    #: CPU-time class charged for rx / tx work (Figure 4.3 breakdown).
    rx_time_class = "us"
    tx_time_class = "us"

    def rx_cost(self, frame: Frame) -> float:
        """CPU seconds to pull one frame out of the lower level."""
        raise NotImplementedError

    def tx_cost(self, frame: Frame) -> float:
        """CPU seconds to push one frame down to the lower level."""
        raise NotImplementedError

    def poll(self) -> Optional[Frame]:
        """Non-blocking: next available frame or None."""
        raise NotImplementedError

    def transmit(self, frame: Frame) -> bool:
        """Hand a frame to the lower level; False when dropped."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True when no more input can ever arrive (trace sources)."""
        return False

    def next_available_delay(self) -> Optional[float]:
        """Seconds until the next frame could appear, if the backend
        knows (paced trace sources); None when arrival is externally
        driven (NICs)."""
        return None


class _NicBackend(CaptureBackend):
    """Shared plumbing for backends that front a set of NICs."""

    def __init__(self, sim: Simulator, nics: Sequence[Nic], costs: CostModel):
        if not nics:
            raise ValueError("need at least one NIC")
        self.sim = sim
        self.nics: List[Nic] = list(nics)
        self.costs = costs
        self._next_nic = 0
        #: Frames queued across all these NICs: a poller with nothing
        #: counted need not call :meth:`poll`.
        self.rx_tally = RxTally(sum(len(nic.rx_ring) for nic in self.nics))
        for nic in self.nics:
            nic.rx_tally = self.rx_tally

    def poll(self) -> Optional[Frame]:
        """Round-robin poll across interfaces, one ring pop per call."""
        nics = self.nics
        n = len(nics)
        start = self._next_nic
        for offset in range(n):
            nic = nics[(start + offset) % n]
            # An empty ring is skipped without the pop call (which would
            # return None for it anyway); a non-empty one is popped
            # directly (``nic.poll()``, spelled out).
            ring = nic.rx_ring
            if ring.items:
                self._next_nic = (start + offset + 1) % n
                nic.rx_tally.queued -= 1
                return ring.try_get()
        if self.rx_tally.queued:
            raise RuntimeError("rx tally out of step: frames counted but "
                               "every rx ring is empty")
        return None

    def backlog(self) -> int:
        return sum(nic.rx_backlog for nic in self.nics)

    def transmit(self, frame: Frame) -> bool:
        iface = frame.out_iface
        if iface is None or not 0 <= iface < len(self.nics):
            raise ValueError(f"frame has invalid out_iface {iface!r}")
        return self.nics[iface].transmit(frame)


class RawSocketCapture(_NicBackend):
    """BSD raw socket: non-blocking ``recvfrom()`` + ``send()``."""

    name = "raw-socket"
    rx_time_class = "sy"
    tx_time_class = "sy"

    def rx_cost(self, frame: Frame) -> float:
        return self.costs.rawsock_rx + self.costs.rawsock_per_byte * frame.size

    def tx_cost(self, frame: Frame) -> float:
        return self.costs.rawsock_tx + self.costs.rawsock_per_byte * frame.size


class PfRingCapture(_NicBackend):
    """PF_RING zero-copy capture (and, from LVRM 1.1, transmit)."""

    name = "pf-ring"
    rx_time_class = "us"

    def __init__(self, sim: Simulator, nics: Sequence[Nic], costs: CostModel,
                 tx_via_raw_socket: bool = False):
        super().__init__(sim, nics, costs)
        #: LVRM 1.0 compatibility: PF_RING < 3.7.5 had no send path, so
        #: outgoing frames went through the raw socket (thesis §3.1).
        self.tx_via_raw_socket = tx_via_raw_socket

    @property
    def tx_time_class(self) -> str:  # type: ignore[override]
        return "sy" if self.tx_via_raw_socket else "us"

    def rx_cost(self, frame: Frame) -> float:
        return self.costs.pfring_rx

    def tx_cost(self, frame: Frame) -> float:
        if self.tx_via_raw_socket:
            return self.costs.rawsock_tx + self.costs.rawsock_per_byte * frame.size
        return self.costs.pfring_tx


class MemoryCapture(CaptureBackend):
    """Main-memory trace source + discard sink (Experiments 1c/1d)."""

    name = "memory"

    def __init__(self, sim: Simulator, trace: Iterable[Frame],
                 costs: CostModel, rate_fps: Optional[float] = None):
        if rate_fps is not None and rate_fps <= 0:
            raise ValueError("rate_fps must be positive")
        self.sim = sim
        self.costs = costs
        self._trace = iter(trace)
        self._done = False
        self.read_count = 0
        self.discarded = 0
        #: Optional pacing: the trace releases at most ``rate_fps``
        #: frames per second (used by latency experiments to measure the
        #: pipeline's own latency rather than queue backlog).
        self.rate_fps = rate_fps
        self._next_release = 0.0
        #: Latency samples are taken by the LVRM pipeline via t_created,
        #: which we stamp at read time (frames "arrive" when read).

    def rx_cost(self, frame: Frame) -> float:
        return self.costs.memory_rx + self.costs.memory_rx_per_byte * frame.size

    def tx_cost(self, frame: Frame) -> float:
        return self.costs.discard_tx

    def poll(self) -> Optional[Frame]:
        if self._done:
            return None
        if self.rate_fps is not None and self.sim.now < self._next_release:
            return None
        try:
            frame = next(self._trace)
        except StopIteration:
            self._done = True
            return None
        if self.rate_fps is not None:
            self._next_release = max(self._next_release, self.sim.now) \
                + 1.0 / self.rate_fps
        frame.t_created = self.sim.now
        self.read_count += 1
        return frame

    def transmit(self, frame: Frame) -> bool:
        self.discarded += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self._done

    def next_available_delay(self) -> Optional[float]:
        if self._done:
            return None
        if self.rate_fps is None:
            return 0.0
        return max(0.0, self._next_release - self.sim.now)
