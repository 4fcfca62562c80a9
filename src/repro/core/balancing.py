"""Load balancing among the VRIs of one VR (thesis §3.3, Figure 3.3).

Frame-based schemes pick a VRI per frame:

* :class:`JoinShortestQueue` — lowest estimated load (the default);
* :class:`RoundRobin` — next valid VRI;
* :class:`RandomBalancer` — uniform pick.

:class:`FlowBasedBalancer` wraps any of them: frames of a known 5-tuple
stick to the VRI that got the flow's first frame (avoiding intra-flow
reordering at the cost of coarser granularity and a per-frame hash +
timestamp update — the trade-off Experiment 3c measures).
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.core.flows import FlowTable
from repro.hardware.costs import CostModel
from repro.net.frame import Frame
from repro.obs.trace import TRACER as _TRACE

__all__ = ["VriLike", "LoadBalancer", "JoinShortestQueue", "RoundRobin",
           "RandomBalancer", "FlowBasedBalancer", "make_balancer"]


class VriLike(Protocol):
    """What a balancer needs to know about a VRI."""

    vri_id: int

    def load_estimate(self) -> float: ...


class LoadBalancer:
    """Interface shared by all balancing schemes."""

    name = "abstract"

    def pick(self, frame: Frame, vris: Sequence[VriLike], now: float) -> VriLike:
        if not vris:
            raise ConfigError("cannot balance across zero VRIs")
        choice = self.choose(frame, vris, now)
        if _TRACE.enabled:
            _TRACE.instant("balance.decision", ts=now, cat="balance",
                           track="lvrm", scheme=self.name,
                           vri=choice.vri_id, n_vris=len(vris))
        return choice

    def choose(self, frame: Optional[Frame], vris: Sequence[VriLike],
               now: float) -> VriLike:
        """The decision alone, over a non-empty ``vris``: no empty check
        and no ``balance.decision`` trace event.  The runtime monitor
        calls it once per burst (``frame`` None); :meth:`pick` wraps it
        per frame for the DES."""
        raise NotImplementedError

    def decision_cost(self, costs: CostModel, n_vris: int) -> float:
        """CPU seconds LVRM spends choosing (Figure 3.3's loop)."""
        return costs.balance_fixed

    def forget_vri(self, vri_id: int) -> int:
        """Hook: a VRI was destroyed.  Returns how many flow pins the
        removal invalidated (0 for frame-based schemes)."""
        return 0

    def reassign_vri(self, old_vri: int, new_vri: int) -> int:
        """Hook: a VRI was replaced in place (supervised restart).
        Returns how many flow pins moved (0 for frame-based schemes)."""
        return 0


class JoinShortestQueue(LoadBalancer):
    """Forward to the VRI with the lightest estimated load."""

    name = "jsq"

    def choose(self, frame: Optional[Frame], vris: Sequence[VriLike],
               now: float) -> VriLike:
        # First lowest estimate wins; no ``vris[1:]`` copy per frame.
        best = None
        best_load = 0.0
        for vri in vris:
            load = vri.load_estimate()
            if best is None or load < best_load:
                best, best_load = vri, load
        return best

    def decision_cost(self, costs: CostModel, n_vris: int) -> float:
        return costs.balance_fixed + costs.balance_jsq_per_vri * n_vris


class RoundRobin(LoadBalancer):
    """Cycle through the valid VRIs."""

    name = "rr"

    def __init__(self) -> None:
        self._counter = 0

    def choose(self, frame: Optional[Frame], vris: Sequence[VriLike],
               now: float) -> VriLike:
        vri = vris[self._counter % len(vris)]
        self._counter += 1
        return vri


class RandomBalancer:
    """Uniform random pick."""

    name = "random"

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng or np.random.default_rng(2011)

    def pick(self, frame: Frame, vris: Sequence[VriLike], now: float) -> VriLike:
        if not vris:
            raise ConfigError("cannot balance across zero VRIs")
        choice = vris[int(self._rng.integers(len(vris)))]
        if _TRACE.enabled:
            _TRACE.instant("balance.decision", ts=now, cat="balance",
                           track="lvrm", scheme=self.name,
                           vri=choice.vri_id, n_vris=len(vris))
        return choice

    def decision_cost(self, costs: CostModel, n_vris: int) -> float:
        return costs.balance_fixed

    def forget_vri(self, vri_id: int) -> int:
        return 0

    def reassign_vri(self, old_vri: int, new_vri: int) -> int:
        return 0


class FlowBasedBalancer(LoadBalancer):
    """Flow pinning on top of any frame-based scheme (Figure 3.3,
    "balance": hash-table find with current timestamp, falling back to
    JSQ/Rnd/RR for the flow's first frame)."""

    def __init__(self, inner: LoadBalancer,
                 flow_table: Optional[FlowTable] = None):
        self.inner = inner
        # Explicit None check: an *empty* FlowTable is falsy (len == 0),
        # so ``flow_table or FlowTable()`` would discard a caller's table.
        self.flows = FlowTable() if flow_table is None else flow_table
        #: vri_id -> VRI, rebuilt lazily so the pinned-flow hot path is
        #: a dict probe instead of a linear scan.  Safe because every
        #: VRI removal reaches :meth:`forget_vri` (which clears it) and
        #: additions change ``len(vris)`` (which triggers a rebuild).
        self._by_id: dict = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"flow-{self.inner.name}"

    def pick(self, frame: Frame, vris: Sequence[VriLike], now: float) -> VriLike:
        if not vris:
            raise ConfigError("cannot balance across zero VRIs")
        key = frame.five_tuple
        pinned = self.flows.lookup(key, now)
        if pinned is not None:
            by_id = self._by_id
            if len(by_id) != len(vris):
                by_id = self._by_id = {v.vri_id: v for v in vris}
            vri = by_id.get(pinned)
            if vri is not None:
                if _TRACE.enabled:
                    _TRACE.instant("balance.decision", ts=now,
                                   cat="balance", track="lvrm",
                                   scheme=self.name, vri=vri.vri_id,
                                   n_vris=len(vris), pinned=True)
                return vri
            # The pinned VRI is gone ("... and the VRI of the entry is
            # valid"): fall through and re-pin.
        choice = self.inner.pick(frame, vris, now)
        self.flows.insert(key, choice.vri_id, now)
        return choice

    def decision_cost(self, costs: CostModel, n_vris: int) -> float:
        # Hash lookup + times() timestamp refresh on every frame, plus
        # the inner decision when the flow is new; charging the inner
        # cost every time keeps the model conservative and simple.
        return costs.balance_flow_lookup + self.inner.decision_cost(costs, n_vris)

    def forget_vri(self, vri_id: int) -> int:
        unpinned = self.flows.invalidate_vri(vri_id)
        self._by_id = {}
        self.inner.forget_vri(vri_id)
        return unpinned

    def reassign_vri(self, old_vri: int, new_vri: int) -> int:
        """Failover repin: move the dead VRI's flows to its replacement
        (used by the supervisor when a restart lands before the flows'
        idle timeout; lazier callers use :meth:`forget_vri` and let each
        flow re-balance on its next frame)."""
        moved = self.flows.reassign_vri(old_vri, new_vri)
        self._by_id = {}
        self.inner.forget_vri(old_vri)
        return moved


def make_balancer(name: str, rng: Optional[np.random.Generator] = None,
                  flow_based: bool = False,
                  flow_table: Optional[FlowTable] = None) -> LoadBalancer:
    """Factory: ``"jsq" | "rr" | "random"``, optionally flow-based."""
    base: LoadBalancer
    if name == "jsq":
        base = JoinShortestQueue()
    elif name == "rr":
        base = RoundRobin()
    elif name == "random":
        base = RandomBalancer(rng)  # type: ignore[assignment]
    else:
        raise ConfigError(f"unknown balancing scheme {name!r}")
    if flow_based:
        return FlowBasedBalancer(base, flow_table)
    return base
