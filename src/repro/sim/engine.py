"""Core event loop for the discrete-event simulator.

The engine is deliberately minimal: a heap of ``(time, priority, seq,
event)`` entries and an :class:`Event` primitive with success/failure
callbacks.  Everything else (processes, stores, resources) is layered on
top in sibling modules.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.obs.trace import TRACER as _TRACE

__all__ = ["Simulator", "Event", "Timeout", "StopSimulation", "PENDING"]

#: Sentinel for an event that has not been triggered yet.
PENDING = object()

_heappush = heapq.heappush

#: Default event priority.  Lower runs first among simultaneous events.
NORMAL = 1
#: Priority used for high-urgency bookkeeping (e.g. interrupts).
URGENT = 0


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Event:
    """A one-shot occurrence with a value and callbacks.

    An event has three observable states:

    * *pending* — created, not yet triggered;
    * *triggered* — given a value and scheduled on the heap;
    * *processed* — callbacks have run.

    Callbacks are ``fn(event)`` callables; they run inside the event loop
    when the event's scheduled time is reached.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        EVENT_TYPES.add(cls)

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        # ``triggered`` and ``_enqueue`` spelled out: every park wake in
        # the LVRM and VRI loops lands here.
        if self._value is not PENDING:
            raise RuntimeError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        _heappush(sim._heap, (sim._now + delay, NORMAL, sim._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every waiting process.  If nothing
        ever waits on a failed event the simulator raises it at the end of
        the run instead of silently swallowing it (unless :meth:`defused`).
        """
        if self.triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim._enqueue(delay, NORMAL, self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator won't re-raise."""
        self._defused = True

    # -- callback plumbing ---------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately (still inside the loop's
            # current step, preserving causality).
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:  # type: ignore[union-attr]
            fn(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


#: Every :class:`Event` class, subclasses included (each registers in
#: ``__init_subclass__``): ``Process._resume`` checks what a generator
#: yielded with one set probe instead of an ``isinstance`` call.
EVENT_TYPES = {Event}


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._enqueue(delay, NORMAL, self)


class _PooledTimeout(Event):
    """A recyclable pure-delay event (see :meth:`Simulator.sleep`).

    Instances are returned to the simulator's free list right after
    their callbacks run, so the dominant timeout pattern — a process
    sleeping for a fixed delay — stops allocating an ``Event`` plus a
    callback list per occurrence.  They must therefore never be stored
    past their firing; :meth:`Simulator.sleep` documents the contract.
    A recycled event keeps its emptied callback list, so a sleep
    allocates nothing.  The free list is unbounded but never outgrows
    the most sleeps ever pending at once: each event on it once was.
    """

    __slots__ = ()

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:  # type: ignore[union-attr]
            fn(self)
        callbacks.clear()  # type: ignore[union-attr]
        self.callbacks = callbacks
        self._value = PENDING
        self.sim._timeout_pool.append(self)


#: ``_Call.arg`` when the callback takes no argument.
_NO_ARG = object()


class _Call(Event):
    """The event behind :meth:`Simulator.call_at`: runs ``fn()`` (or
    ``fn(arg)``) and then any callbacks added to it.

    Holding the callable directly spares each scheduled call a wrapper
    lambda and a one-element callback list.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator", fn: Callable, arg: Any):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self.fn = fn
        self.arg = arg

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        arg = self.arg
        if arg is _NO_ARG:
            self.fn()
        else:
            self.fn(arg)
        for fn in callbacks:
            fn(self)


class _PooledCall(Event):
    """A recyclable ``fn(arg)`` event: the per-frame network hop (see
    :meth:`Simulator.hop_at`).

    Returned to the simulator's free list just before ``fn(arg)`` runs,
    so a hop that schedules the next hop reuses it.  It is never handed
    out: nothing can wait on it or add a callback to it.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False

    def _process(self) -> None:
        self.sim._call_pool.append(self)
        self.fn(self.arg)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run(until=1.0)
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._active: bool = False
        #: Events processed since construction (a plain int so the hot
        #: loop pays one add; exported at trace/metrics time).
        self.events_processed: int = 0
        #: Free lists of processed :class:`_PooledTimeout` and
        #: :class:`_PooledCall` events.
        self._timeout_pool: list = []
        self._call_pool: list = []

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def clock(self):
        """A zero-arg callable reading sim time — the drop-in stand-in
        for ``time.monotonic`` wherever obs components take a ``clock``
        (span recorders, SLO watchdogs), keeping one code path across
        the DES and the runtime backend."""
        return lambda: self._now

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Event:
        """A pooled pure-delay event: ``yield sim.sleep(dt)``.

        Same scheduling semantics as :meth:`timeout` (NORMAL priority,
        FIFO among simultaneous events), but the event object is
        recycled as soon as its callbacks have run.  Use it only when
        the event is consumed immediately by a single waiter — i.e. the
        plain ``yield`` in a process loop, which is the overwhelming
        majority of all DES events (every ``Core.execute`` and every
        paced traffic source).  Never store the returned event or hand
        it to a condition (:mod:`repro.sim.conditions`); those need
        :meth:`timeout`, whose events stay valid after processing.
        """
        if delay < 0:
            raise ValueError(f"negative sleep delay: {delay!r}")
        pool = self._timeout_pool
        # A recycled event comes back succeeded, undefused, and with its
        # emptied callback list: nothing to allocate or reset but the
        # value.
        if pool:
            ev = pool.pop()
        else:
            ev = _PooledTimeout(self)
        ev._value = value
        self._seq += 1
        _heappush(self._heap, (self._now + delay, NORMAL, self._seq, ev))
        return ev

    def process(self, generator) -> "Process":
        """Start a generator as a simulation process."""
        from repro.sim.process import Process  # local import, avoids cycle

        return Process(self, generator)

    def call_at(self, time: float, fn: Callable[..., None],
                urgent: bool = False, arg: Any = _NO_ARG) -> Event:
        """Run a plain callback at absolute time ``time``.

        ``urgent=True`` schedules at :data:`URGENT` priority, so the
        callback runs *before* any normal event at the same timestamp.
        This is the fault-injection hook: an injected fault at ``t``
        must observably precede every frame/control event at ``t``, or
        the outcome would depend on heap insertion order and the
        determinism contract of :mod:`repro.faults` would not hold.

        With ``arg`` given the callback runs as ``fn(arg)`` — the hot
        per-frame form (``call_at(t, link.deliver, arg=frame)``) that
        needs no closure.  The returned event accepts further callbacks,
        which run after ``fn``.
        """
        now = self._now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        ev = _Call(self, fn, arg)
        self._seq += 1
        # ``now + (time - now)``, not ``time``: the heap key must stay
        # the float every earlier version computed, or same-time ties
        # (and hence event order) could change.
        _heappush(self._heap, (now + (time - now),
                               URGENT if urgent else NORMAL, self._seq, ev))
        return ev

    def call_in(self, delay: float, fn: Callable[..., None],
                urgent: bool = False, arg: Any = _NO_ARG) -> Event:
        """Run a plain callback after ``delay`` seconds."""
        return self.call_at(self._now + delay, fn, urgent=urgent, arg=arg)

    def hop_at(self, time: float, fn: Callable[[Any], None],
               arg: Any) -> None:
        """``call_at(time, fn, arg=arg)`` for a per-frame hop (a link
        delivery, a host stack delay): the same heap entry, its
        ``now + (time - now)`` key included, but on a pooled event that
        is recycled once run, so nothing is returned to wait on.
        ``time`` is not checked against ``now``."""
        pool = self._call_pool
        if pool:
            ev = pool.pop()
        else:
            ev = _PooledCall(self)
        ev.fn = fn
        ev.arg = arg
        now = self._now
        self._seq += 1
        _heappush(self._heap, (now + (time - now), NORMAL, self._seq, ev))

    # -- scheduling internals ---------------------------------------------------
    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        self._seq += 1
        _heappush(self._heap, (self._now + delay, priority, self._seq, event))

    # -- main loop ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when drained."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        time, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = time
        self.events_processed += 1
        event._process()

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the heap drains or ``until`` (absolute time) is reached.

        At return, ``now`` equals ``until`` if a horizon was given (even if
        the heap drained earlier), mirroring SimPy semantics.
        """
        if self._active:
            raise RuntimeError("simulator is already running")
        self._active = True
        if _TRACE.enabled:
            _TRACE.instant("sim.run.begin", ts=self._now, cat="sim",
                           track="sim", until=until)
        try:
            if until is not None and until < self._now:
                raise ValueError(
                    f"until ({until}) must not be before now ({self._now})")
            # Hot dispatch loop: equivalent to repeated step() calls, but
            # with the heap, pool, and bookkeeping bound to locals so the
            # per-event cost is a handful of bytecode ops.  The event
            # counter accumulates locally and is flushed in the finally
            # block (exceptions included), keeping step()'s accounting.
            heap = self._heap
            heappop = heapq.heappop
            pool = self._timeout_pool
            call_pool = self._call_pool
            horizon = float("inf") if until is None else until
            processed = 0
            try:
                while heap:
                    if heap[0][0] > horizon:
                        break
                    time, _prio, _seq, event = heappop(heap)
                    self._now = time
                    processed += 1
                    try:
                        # The four commonest event types get their
                        # ``_process()`` inlined.
                        cls = type(event)
                        if cls is _PooledCall:
                            call_pool.append(event)
                            event.fn(event.arg)
                        elif cls is _PooledTimeout:
                            callbacks = event.callbacks
                            event.callbacks = None
                            for fn in callbacks:
                                fn(event)
                            callbacks.clear()
                            event.callbacks = callbacks
                            event._value = PENDING
                            pool.append(event)
                        elif cls is _Call:
                            callbacks = event.callbacks
                            event.callbacks = None
                            arg = event.arg
                            if arg is _NO_ARG:
                                event.fn()
                            else:
                                event.fn(arg)
                            for fn in callbacks:
                                fn(event)
                        elif cls is Event:
                            # Plain events: the idle-park wakes.
                            callbacks = event.callbacks
                            event.callbacks = None
                            for fn in callbacks:
                                fn(event)
                            if not event._ok and not event._defused:
                                raise event._value
                        else:
                            event._process()
                    except StopSimulation as stop:
                        return stop.value
            finally:
                self.events_processed += processed
            if until is not None:
                self._now = max(self._now, until)
            return None
        finally:
            self._active = False
            if _TRACE.enabled:
                _TRACE.instant("sim.run.end", ts=self._now, cat="sim",
                               track="sim",
                               events_processed=self.events_processed)

    def stop(self, value: Any = None) -> None:
        """Stop the run loop from inside a callback/process."""
        ev = Event(self)
        def _raise(_e: Event) -> None:
            raise StopSimulation(value)
        ev.add_callback(_raise)
        ev._ok = True
        ev._value = None
        self._enqueue(0.0, URGENT, ev)
