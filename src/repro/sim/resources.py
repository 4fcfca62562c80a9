"""Shared resources for simulation processes.

Two primitives cover everything the LVRM models need:

* :class:`Store` — a bounded FIFO of items with blocking ``put``/``get``
  events (used for NIC rings, link queues, and as a base for the
  simulated IPC queues).
* :class:`Resource` — a counted semaphore with FIFO discipline (used for
  serializing access to a CPU core by multiple processes in the "same"
  affinity mode).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["Store", "StorePut", "StoreGet", "Resource", "ResourceRequest"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item", "_store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        self._store = store

    def _abandon(self) -> None:
        """Withdraw a still-queued put (the waiter was interrupted)."""
        if self in self._store._putters:
            self._store._putters.remove(self)


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ("_store",)

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        self._store = store

    def _abandon(self) -> None:
        """Withdraw a still-queued get so no item is handed to the dead."""
        if self in self._store._getters:
            self._store._getters.remove(self)


class Store:
    """Bounded FIFO store with blocking put/get.

    ``capacity`` may be ``float('inf')``.  Waiters are served in FIFO
    order.  The non-blocking variants ``try_put``/``try_get`` support
    drop-tail producers (NIC rings drop frames when full, they do not
    block the wire).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    # -- blocking API ---------------------------------------------------------
    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    # -- non-blocking API --------------------------------------------------------
    def try_put(self, item: Any) -> bool:
        """Store ``item`` if there is room *right now*; never blocks."""
        items = self.items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        if self._putters or self._getters:
            self._dispatch()
        return True

    def try_get(self) -> Optional[Any]:
        """Pop the head item if any; never blocks.

        Returns ``None`` when empty (items must therefore never be None).
        """
        items = self.items
        if not items:
            return None
        item = items.popleft()
        if self._putters or self._getters:
            self._dispatch()
        return item

    # -- internals -----------------------------------------------------------------
    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move queued puts into the buffer while room remains.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy waiting getters while items remain.
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progressed = True


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`; fires on acquisition."""

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self._released = False

    def release(self) -> None:
        self.resource._release(self)

    def _abandon(self) -> None:
        """Withdraw a still-queued request (the waiter was interrupted)."""
        self.resource._release(self)


class Resource:
    """A counted, FIFO-fair resource (semaphore)."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list = []
        self._waiters: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self._waiters.append(req)
        return req

    # -- no-event fast path -----------------------------------------------
    def acquire_nowait(self):
        """Grant immediately without any event, or return None.

        Hot-path optimization for the common uncontended case (a core
        with one pinned process): skips the request-event round trip.
        The returned token must go back via :meth:`release_nowait`.
        """
        if len(self.users) < self.capacity and not self._waiters:
            token = object()
            self.users.append(token)
            return token
        return None

    def release_nowait(self, token) -> None:
        self.users.remove(token)
        self.grant_waiters()

    def grant_waiters(self) -> None:
        """Hand free capacity to queued requests, oldest first."""
        while self._waiters and len(self.users) < self.capacity:
            nxt = self._waiters.popleft()
            self.users.append(nxt)
            nxt.succeed()

    def _release(self, req: ResourceRequest) -> None:
        if req._released:
            return
        req._released = True
        if req in self.users:
            self.users.remove(req)
        elif req in self._waiters:
            self._waiters.remove(req)
            return
        self.grant_waiters()
