"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield`` must produce
an :class:`~repro.sim.engine.Event`; the process is resumed with the
event's value when it fires (or the event's exception is thrown in).

Processes are themselves events: they trigger when the generator returns
(with the generator's return value) or raises.  This allows
``yield other_process`` for join semantics, which the LVRM monitor uses
to wait for VRI teardown.

Interrupts
----------
``process.interrupt(cause)`` throws :class:`Interrupt` into the generator
at its current yield point — the mechanism used to model ``kill()`` of a
VRI by the VRI monitor.  Interrupting a process that already terminated
is a silent no-op, matching POSIX ``kill`` of a reaped pid in spirit.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.engine import EVENT_TYPES, PENDING, Event, Simulator, URGENT

__all__ = ["Process", "Interrupt", "ProcessCrash"]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class ProcessCrash(RuntimeError):
    """Raised by the engine when a process dies with an unhandled error."""


class Process(Event):
    """A running simulation process (also an event: fires at termination)."""

    __slots__ = ("generator", "_target", "name", "_send", "_throw",
                 "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.generator = generator
        # Bound methods made once: the resume path runs per event, and
        # neither the attribute chain generator.send/.throw nor a fresh
        # bound ``self._resume`` per wait may cost anything there.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if just born
        #: or already dead).
        self._target: Optional[Event] = None
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        boot.add_callback(self._resume_cb)
        boot._ok = True
        boot._value = None
        sim._enqueue(0.0, URGENT, boot)

    # -- lifecycle ----------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if not self.is_alive:
            return  # interrupting the dead is a no-op
        # The interrupt travels as a failed, pre-defused event: resuming
        # the process with it throws the Interrupt in, through the same
        # path that delivers any other failed event.
        ev = Event(self.sim)
        def _throw(_e: Event) -> None:
            if not self.is_alive:
                return
            # Detach from whatever the process was waiting on.
            target, self._target = self._target, None
            if target is not None and not target.processed:
                if target.callbacks is not None \
                        and self._resume_cb in target.callbacks:
                    target.callbacks.remove(self._resume_cb)
                # Resource-like events (queued store gets/puts, resource
                # requests) must also leave their wait queues, or a later
                # fulfilment is silently lost on a dead process.
                abandon = getattr(target, "_abandon", None)
                if abandon is not None and not target.triggered:
                    abandon()
            self._resume(ev)
        ev.add_callback(_throw)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev._defused = True
        self.sim._enqueue(0.0, URGENT, ev)

    # -- resumption machinery --------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome and wait on
        whatever it yields next.

        The one resume path, run once per event a process waits on: it
        reads the Event slots rather than their properties, checks the
        yielded target with a set probe, and re-arms with the bound
        method made at construction, so it allocates nothing.
        """
        if self._value is not PENDING:
            # The process died (e.g. was interrupted) between this event's
            # trigger and its processing; nothing to resume.
            if not event._ok:
                event._defused = True
            return
        self._target = None
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event._defused = True
                target = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-handled interrupt terminates the process "killed".
            self.succeed(exc.cause)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if type(target) not in EVENT_TYPES:
            crash = ProcessCrash(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances")
            self.generator.close()
            self.fail(crash)
            return
        self._target = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume_cb)
        else:
            # Already processed: resume at once (Event.add_callback's
            # rule, still inside the current step).
            self._resume(target)
