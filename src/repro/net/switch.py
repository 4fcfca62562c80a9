"""A small store-and-forward switch.

The testbed's two 1-Gbit switches connect each sub-network's hosts to
one gateway interface.  Forwarding here is by destination IP subnet
(the hosts are statically addressed, so no flooding/learning churn):
each port is registered with the set of prefixes living behind it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.net.addresses import subnet_of
from repro.net.frame import Frame
from repro.net.link import Link
from repro.sim.engine import Simulator

__all__ = ["Switch"]


class Switch:
    """IP-subnet-keyed forwarding between attached links."""

    def __init__(self, sim: Simulator, name: str = "sw"):
        self.sim = sim
        self.name = name
        #: port id -> outgoing link
        self._ports: Dict[int, Link] = {}
        #: (prefix_len, mask, masked network, port id), longest prefix
        #: first: a lookup is one AND and compare per route.
        self._routes: List[Tuple[int, int, int, int]] = []
        self.forwarded = 0
        self.unroutable = 0

    def attach(self, port: int, link: Link) -> None:
        """Register the outgoing link behind ``port``."""
        if port in self._ports:
            raise TopologyError(f"switch {self.name}: port {port} already attached")
        self._ports[port] = link

    def add_route(self, network: int, prefix_len: int, port: int) -> None:
        if port not in self._ports:
            raise TopologyError(
                f"switch {self.name}: route references unattached port {port}")
        mask = subnet_of(0xFFFFFFFF, prefix_len)
        self._routes.append((prefix_len, mask, network & mask, port))
        # Keep longest prefixes first so the scan finds the best match.
        self._routes.sort(key=lambda r: -r[0])

    def port_for(self, dst_ip: int) -> Optional[int]:
        for _plen, mask, network, port in self._routes:
            if dst_ip & mask == network:
                return port
        return None

    def receive(self, frame: Frame) -> None:
        """Endpoint protocol: forward an arriving frame."""
        port = self.port_for(frame.dst_ip)
        if port is None:
            self.unroutable += 1
            return
        self.forwarded += 1
        self._ports[port].send(frame)
