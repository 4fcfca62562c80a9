"""End hosts (senders and receivers).

A host is deliberately thin: a protocol-stack latency on both directions
and a handler hook.  The interesting behaviour (pacing, congestion
control, measurement) lives in :mod:`repro.traffic`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hardware.costs import CostModel
from repro.net.frame import Frame
from repro.net.link import Link
from repro.sim.engine import Simulator

__all__ = ["Host"]


class Host:
    """A sender/receiver machine with one interface."""

    def __init__(self, sim: Simulator, name: str, ip: int, costs: CostModel):
        self.sim = sim
        self.name = name
        self.ip = ip
        self.costs = costs
        self.tx_link: Optional[Link] = None
        #: Called with each frame after the receive-side stack delay.
        self.handler: Optional[Callable[[Frame], None]] = None
        self.rx_count = 0
        self.tx_count = 0

    def attach_tx(self, link: Link) -> None:
        self.tx_link = link

    # -- wire side (Endpoint protocol) ----------------------------------------
    def receive(self, frame: Frame) -> None:
        handler = self.handler
        self.rx_count += 1
        if handler is not None:
            # The stack delay ends in the handler itself: one hop event.
            sim = self.sim
            sim.hop_at(sim._now + self.costs.host_stack_latency,
                       handler, frame)

    # -- application side -----------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Push a frame down the stack and onto the wire."""
        tx_link = self.tx_link
        if tx_link is None:
            raise RuntimeError(f"host {self.name!r} has no tx link")
        self.tx_count += 1
        # The stack delay ends in the link's own send: one hop event,
        # no host-side callback in between.
        sim = self.sim
        sim.hop_at(sim._now + self.costs.host_stack_latency,
                   tx_link.send, frame)
