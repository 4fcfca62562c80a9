"""The idle-wait policy and adaptive batch sizing for the data plane.

The runtime's poll loops (monitor drain, worker burst) share two small
policy objects:

* :class:`WaitPolicy` — what to do when a ring is empty.  It escalates
  from ``time.sleep(0)`` naps to short then progressively longer
  sleeps, trading wakeup latency for idle CPU.  ``time.sleep(0)`` is a
  zero-length *timed* sleep, not a ``sched_yield``: it measured
  55–75 µs per call on a 2-vCPU Linux guest under Python 3.11, where
  ``os.sched_yield()`` took ~0.5 µs.  Every actual sleep is counted so
  the ``wait_sleeps_total`` metric can expose how often a loop left the
  fast path.

* :class:`AimdBatcher` — additive-increase / multiplicative-decrease
  burst sizing between ``lo`` and ``hi`` (default 8..256).  A full
  burst (the ring had at least as many records as we asked for) grows
  the next burst by ``step``; a starved poll (nothing pending) halves
  it.  Under load the burst climbs toward ``hi`` and amortizes the
  shared-index synchronization over more records; when traffic is
  sparse it decays back so latency is bounded by small batches.

Both are cheap plain-Python objects deliberately free of registry
handles — callers sample ``sleeps``/``size`` into metrics at their own
cadence.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError

__all__ = ["WaitPolicy", "AimdBatcher"]


#: The idle schedule: this many ``time.sleep(0)`` naps, then sleeps from
#: ``_MIN_SLEEP`` doubling per idle round up to ``_MAX_SLEEP`` seconds.
_SPIN_ROUNDS = 64
_MIN_SLEEP = 20e-6
_MAX_SLEEP = 200e-6


class WaitPolicy:
    """Idle-wait behaviour for an empty-ring poll loop.

    Call :meth:`idle` each time a poll finds nothing, and :meth:`reset`
    as soon as work arrives.  The first 64 idles are ``time.sleep(0)``
    naps (see the module docstring: not yields), then sleeps grow from
    20 µs by 2x per idle round up to 200 µs.
    """

    __slots__ = ("_idle_rounds", "sleeps")

    def __init__(self) -> None:
        self._idle_rounds = 0
        #: Count of actual ``time.sleep(dt > 0)`` calls (wait_sleeps_total).
        self.sleeps = 0

    def reset(self) -> None:
        """Work arrived — drop back to the fast path."""
        self._idle_rounds = 0

    def idle(self) -> None:
        """One empty poll: nap, or sleep once the naps are used up."""
        rounds = self._idle_rounds
        self._idle_rounds = rounds + 1
        if rounds < _SPIN_ROUNDS:
            time.sleep(0)
            return
        dt = _MIN_SLEEP * (1 << min(rounds - _SPIN_ROUNDS, 16))
        if dt > _MAX_SLEEP:
            dt = _MAX_SLEEP
        self.sleeps += 1
        time.sleep(dt)


class AimdBatcher:
    """AIMD burst sizing: ``+step`` on a full burst, halve on starvation."""

    __slots__ = ("lo", "hi", "step", "size")

    def __init__(self, lo: int = 8, hi: int = 256, step: int = 8):
        if not 1 <= lo <= hi:
            raise ConfigError(f"need 1 <= lo <= hi, got lo={lo} hi={hi}")
        self.lo = lo
        self.hi = hi
        self.step = step
        self.size = lo

    def update(self, got: int) -> int:
        """Record the outcome of one burst that asked for :attr:`size`
        records and received ``got``; returns the next burst size."""
        if got >= self.size:
            nxt = self.size + self.step
            self.size = nxt if nxt < self.hi else self.hi
        elif got == 0:
            nxt = self.size >> 1
            self.size = nxt if nxt > self.lo else self.lo
        return self.size
