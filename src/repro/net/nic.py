"""Network interface cards with bounded receive rings.

A :class:`Nic` terminates an incoming link: arriving frames go into a
bounded rx ring (drop-tail, like a real device ring when the host cannot
keep up).  The gateway's socket adapter polls the ring; senders/receivers
attach their protocol handlers to it.  Transmission goes straight out on
the attached tx link (the capture backend charges the CPU cost).
"""

from __future__ import annotations

from typing import Optional

from repro.net.frame import Frame
from repro.net.link import Link
from repro.sim.resources import Store
from repro.sim.engine import Simulator

__all__ = ["Nic", "RxTally"]


class RxTally:
    """Frames waiting in the rx rings of a set of NICs.

    :meth:`Nic.receive` bumps it for every frame a ring accepts, and
    the pop that takes a frame out (:meth:`Nic.poll`, a capture
    backend's poll) drops it.  Nothing else touches the rings, so a
    poller asks "is anything queued?" with one read.  A capture backend
    gives all its NICs one tally; a count that disagrees with the rings
    raises where it shows (see ``Lvrm._run``).
    """

    __slots__ = ("queued",)

    def __init__(self, queued: int = 0) -> None:
        self.queued = queued


class Nic:
    """One interface: an rx ring plus an outgoing link."""

    def __init__(self, sim: Simulator, name: str = "eth",
                 rx_ring_size: int = 4096):
        self.sim = sim
        self.name = name
        self.rx_ring: Store = Store(sim, capacity=rx_ring_size)
        self.tx_link: Optional[Link] = None
        #: What :meth:`receive` stamps as ``frame.in_iface``.
        self._iface_id = id(self)
        #: Counts this ring's frames (shared with the other NICs of a
        #: capture backend once one is built over them).
        self.rx_tally = RxTally()
        self.rx_count = 0
        self.rx_dropped = 0
        self.tx_count = 0
        self.tx_dropped = 0
        #: One-shot wake callback for a polling consumer (the socket
        #: adapter sleeps when all rings are empty and re-arms this).
        self.notify = None

    # -- wire side --------------------------------------------------------------
    def receive(self, frame: Frame) -> None:
        """Endpoint protocol: frame arrives from the wire."""
        frame.in_iface = self._iface_id
        if self.rx_ring.try_put(frame):
            self.rx_count += 1
            self.rx_tally.queued += 1
            if self.notify is not None:
                notify, self.notify = self.notify, None
                notify()
        else:
            self.rx_dropped += 1

    # -- host side ---------------------------------------------------------------
    def attach_tx(self, link: Link) -> None:
        self.tx_link = link

    def transmit(self, frame: Frame) -> bool:
        """Push a frame onto the wire; False when the link queue drops it."""
        if self.tx_link is None:
            raise RuntimeError(f"NIC {self.name!r} has no tx link")
        ok = self.tx_link.send(frame)
        if ok:
            self.tx_count += 1
        else:
            self.tx_dropped += 1
        return ok

    def poll(self) -> Optional[Frame]:
        """Non-blocking rx-ring pop (the socket adapter's polling path)."""
        frame = self.rx_ring.try_get()
        if frame is not None:
            self.rx_tally.queued -= 1
        return frame

    @property
    def rx_backlog(self) -> int:
        return len(self.rx_ring)
