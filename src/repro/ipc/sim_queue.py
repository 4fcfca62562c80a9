"""The DES model of an IPC queue.

Semantically a bounded FIFO with drop-tail, mirroring the real
:class:`~repro.ipc.ring.SpscRing`.  On top it records what the LVRM
components need:

* instantaneous occupancy (``data_count``) — the load-estimation input
  ("the VRI adapter's ring buffer's data count", Figure 3.4);
* drop counts — the loss signal for achievable throughput;
* a consumer wake callback — VRIs sleep when both their queues are
  empty and are woken by the next put (the DES stand-in for the real
  busy-poll, which burns CPU but adds no ordering behaviour).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.obs.registry import default_registry
from repro.sim.engine import Simulator

__all__ = ["SimIpcQueue", "Corrupted"]


class Corrupted:
    """Wrapper marking a queue record whose slot was corrupted.

    The DES stand-in for a torn/overwritten shared-memory ring slot: the
    producer's push succeeds, but what the consumer pops is garbage.  A
    consumer that cares (the VRI loop) recognizes the wrapper, charges
    the pop cost, and discards the record; the original item is kept so
    post-mortems can say *what* was corrupted.
    """

    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Corrupted {self.item!r}>"


class SimIpcQueue:
    """Bounded FIFO with occupancy stats and a wake hook."""

    def __init__(self, sim: Simulator, capacity: int = 1024, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self.pushed = 0
        self.popped = 0
        self.dropped = 0
        #: Occupancy high-water mark (a bare int on the hot path).  Named
        #: queues copy it into an obs gauge only when it rises, which is
        #: rare, so pushes never pay the registry indirection, and the
        #: process-wide registry never holds the queue (nor, through it,
        #: the whole Simulator) once the run is over.
        self.hwm = 0
        self._hwm_gauge = None
        if name:
            self._hwm_gauge = default_registry().gauge(
                "queue_occupancy_hwm",
                "highest occupancy a DES IPC queue ever reached",
                queue=name)
            self._hwm_gauge.set(0)
        #: Called (once per transition from empty) when an item arrives;
        #: the consumer re-registers each time it goes back to sleep.
        self._wake: Optional[Callable[[], None]] = None
        # Fault injection (repro.faults): pending slot faults.  A single
        # combined guard keeps the hot push path at one extra branch.
        self._inject = 0
        self._drop_next = 0
        self._corrupt_next = 0
        #: Records silently lost to injected slot drops (the producer's
        #: push succeeded; the record never reached the consumer).
        self.fault_dropped = 0
        #: Records delivered corrupted (wrapped in :class:`Corrupted`).
        self.fault_corrupted = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def data_count(self) -> int:
        """Instantaneous occupancy (the JSQ / load-estimation signal)."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    # -- fault injection (repro.faults) -----------------------------------------
    def inject_drop(self, n: int = 1) -> None:
        """Silently lose the next ``n`` pushed records (a dropped slot)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._drop_next += n
        self._inject += n

    def inject_corrupt(self, n: int = 1) -> None:
        """Corrupt the next ``n`` pushed records (a torn slot)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._corrupt_next += n
        self._inject += n

    # -- producer ---------------------------------------------------------------
    def try_push(self, item: Any) -> bool:
        if self._inject:
            # Drops fire before corruptions, in injection order within
            # each kind — a fixed rule so schedules are deterministic.
            self._inject -= 1
            if self._drop_next:
                self._drop_next -= 1
                self.fault_dropped += 1
                # The producer believes the push succeeded; the record
                # simply never becomes visible to the consumer.
                return True
            self._corrupt_next -= 1
            self.fault_corrupted += 1
            item = Corrupted(item)
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.pushed += 1
        if len(self._items) > self.hwm:
            self.hwm = len(self._items)
            if self._hwm_gauge is not None:
                self._hwm_gauge.set(self.hwm)
        if self._wake is not None:
            wake, self._wake = self._wake, None
            wake()
        return True

    # -- consumer ---------------------------------------------------------------
    def try_pop(self) -> Optional[Any]:
        if not self._items:
            return None
        self.popped += 1
        return self._items.popleft()

    def set_wake(self, callback: Callable[[], None]) -> None:
        """Register a one-shot wake callback; fired on the next push.

        If the queue is already non-empty the callback fires immediately
        (the consumer should then drain before re-registering).
        """
        if self._items:
            callback()
        else:
            self._wake = callback

    def clear_wake(self) -> None:
        self._wake = None
