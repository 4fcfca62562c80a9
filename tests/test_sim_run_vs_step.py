"""``Simulator.run()`` is ``step()`` in a loop, fast paths and all.

``run()`` inlines the processing of pooled timeouts, pooled hops,
``call_at`` events and plain events; ``step()`` is the reference path
that goes through each event's own ``_process()``.  Driving one randomly generated
scenario with each must log the same ``(now, callback)`` sequence,
return the same stop value, and process the same number of events.

:data:`FAST_PATHS` lists every engine and process fast path; the fixed
scenario of :func:`test_scenario_exercises_every_fast_path` is drawn
from the same space as the hypothesis scenarios and must execute each.
"""

import inspect
import sys

from hypothesis import given, settings, strategies as st

from repro.net import link
from repro.net.frame import Frame
from repro.sim import Interrupt, Simulator, StopSimulation
from repro.sim import engine, process

#: Few distinct instants, so simultaneous events (and their tie order)
#: are the common case; 0.1 + 0.2 exercises call_at's float round trip.
TIMES = st.sampled_from([0.0, 0.1, 0.25, 0.1 + 0.2, 0.5, 0.75, 1.0])

SCENARIO = st.fixed_dictionaries({
    "sleepers": st.lists(st.lists(TIMES, min_size=1, max_size=4),
                         max_size=4),
    "timeouts": st.lists(TIMES, max_size=4),
    "calls": st.lists(st.tuples(TIMES, st.booleans(), st.booleans(),
                                st.booleans()), max_size=6),
    "joins": st.lists(TIMES, max_size=3),
    "interrupts": st.lists(st.tuples(st.integers(0, 3), TIMES),
                           max_size=3),
    "failures": st.lists(st.tuples(TIMES, st.booleans()), max_size=3),
    "parks": st.lists(st.tuples(TIMES, TIMES), max_size=3),
    "hops": st.lists(st.tuples(TIMES, st.sampled_from([84, 1538]),
                               st.booleans()), max_size=5),
    "stop_at": st.one_of(st.none(), TIMES),
})


class _Relay:
    """Link endpoint that forwards into the next link after ``delay``
    (a host stack's hop) or at once (a switch)."""

    def __init__(self, sim, out, delay):
        self.sim, self.out, self.delay = sim, out, delay

    def receive(self, frame):
        if self.delay:
            self.sim.hop_at(self.sim.now + self.delay, self.out.send, frame)
        else:
            self.out.send(frame)


class _Sink:
    def __init__(self, note):
        self.note = note

    def receive(self, frame):
        self.note(f"hop{frame.uid}.arrived:{frame.size}")


def build(sim, log, spec):
    """Set up one scenario; every callback appends ``(now, label)``."""

    def note(label):
        log.append((sim.now, label))

    def sleeper(i, delays):
        for n, delay in enumerate(delays):
            try:
                yield sim.sleep(delay)
                note(f"sleeper{i}.woke{n}")
            except Interrupt as intr:
                note(f"sleeper{i}.interrupted:{intr.cause}")
        return f"sleeper{i}.done"

    procs = [sim.process(sleeper(i, d))
             for i, d in enumerate(spec["sleepers"])]
    for proc in procs:
        proc.add_callback(lambda e: note(f"exit:{e.value}"))

    def timeout_waiter(i, delay):
        ev = sim.timeout(delay, value=i)
        got = yield ev
        note(f"timeout{i}:{got}")
        # A processed (non-pooled) event resumes a waiter at once.
        again = yield ev
        note(f"timeout{i}.again:{again}")

    for i, delay in enumerate(spec["timeouts"]):
        sim.process(timeout_waiter(i, delay))

    for i, (t, urgent, with_arg, extra) in enumerate(spec["calls"]):
        if with_arg:
            ev = sim.call_at(t, lambda a, i=i: note(f"call{i}({a})"),
                             urgent=urgent, arg=i)
        else:
            ev = sim.call_at(t, lambda i=i: note(f"call{i}"), urgent=urgent)
        if extra:
            ev.add_callback(lambda e, i=i: note(f"call{i}.callback"))

    def child(i, delay):
        yield sim.sleep(delay)
        note(f"child{i}")
        return i * 10

    def parent(i, delay):
        got = yield sim.process(child(i, delay))
        note(f"parent{i}:{got}")

    for i, delay in enumerate(spec["joins"]):
        sim.process(parent(i, delay))

    for target, t in spec["interrupts"]:
        if target < len(procs):
            sim.call_at(t, lambda p=procs[target]: p.interrupt("poke"),
                        urgent=True)

    def failure_waiter(i, ev):
        try:
            yield ev
        except RuntimeError as exc:
            note(f"failure{i}:{exc}")

    for i, (delay, waited) in enumerate(spec["failures"]):
        ev = sim.event()
        if waited:
            sim.process(failure_waiter(i, ev))
        else:
            ev.defuse()
        ev.fail(RuntimeError(f"f{i}"), delay=delay)

    # The LVRM/VRI idle park: a process waits on a plain event that the
    # first of two wake calls succeeds; the second finds it triggered.
    def parker(i, ev):
        got = yield ev
        note(f"park{i}:{got}")

    for i, (t_wake, t_again) in enumerate(spec["parks"]):
        ev = sim.event()
        sim.process(parker(i, ev))

        def wake(ev=ev, i=i):
            if not ev.triggered:
                ev.succeed(i)

        sim.call_at(t_wake, wake)
        sim.call_at(t_again, wake)

    # Two-hop link chains: a 10 Mb/s link -> relay (a host stack's hop
    # or none) -> one shared 1 Gb/s link -> sink.
    last = link.Link(sim, _Sink(note), bandwidth=1e9, latency=5e-6)
    for i, (t, size, stack_delay) in enumerate(spec["hops"]):
        first = link.Link(sim, bandwidth=1e7, latency=0.05, name=f"l{i}")
        first.connect(_Relay(sim, last, 0.1 if stack_delay else 0.0))
        for uid in (i, 100 + i)[:1 + i % 2]:
            # Odd chains send a second frame at once: it queues behind
            # the first on the slow link.
            frame = Frame(size, 1, 2)
            frame.uid = uid
            sim.call_at(t, first.send, arg=frame)

    if spec["stop_at"] is not None:
        sim.call_at(spec["stop_at"], lambda: sim.stop("stopped"))


def drive_run(spec):
    sim, log = Simulator(), []
    build(sim, log, spec)
    result = sim.run()
    return log, result, sim.now, sim.events_processed


def drive_step(spec):
    sim, log = Simulator(), []
    build(sim, log, spec)
    result = None
    while sim.peek() != float("inf"):
        try:
            sim.step()
        except StopSimulation as stop:
            result = stop.value
            break
    return log, result, sim.now, sim.events_processed


@settings(max_examples=150, deadline=None)
@given(SCENARIO)
def test_run_and_step_process_events_identically(spec):
    by_run = drive_run(spec)
    assert by_run == drive_step(spec)


#: Each fast path as ``(function, a line only that path runs)``.
FAST_PATHS = {
    "run: pooled timeout recycled": (
        engine.Simulator.run, "callbacks.clear()"),
    "step: pooled timeout recycled": (
        engine._PooledTimeout._process, "callbacks.clear()"),
    "run: pooled hop recycled": (
        engine.Simulator.run, "call_pool.append(event)"),
    "step: pooled hop recycled": (
        engine._PooledCall._process, "self.sim._call_pool.append(self)"),
    "hop_at: recycled event reused": (
        engine.Simulator.hop_at, "ev = pool.pop()"),
    "run: call_at event inlined": (
        engine.Simulator.run, "arg = event.arg"),
    "run: plain event inlined": (
        engine.Simulator.run, "if not event._ok and not event._defused:"),
    "sleep: recycled event reused": (
        engine.Simulator.sleep, "ev = pool.pop()"),
    "succeed: direct heap push": (
        engine.Event.succeed, "_heappush(sim._heap,"),
    "resume: failed event thrown in": (
        process.Process._resume, "target = self._throw(event._value)"),
    "resume: wait re-armed": (
        process.Process._resume, "callbacks.append(self._resume_cb)"),
    "resume: processed target resumed at once": (
        process.Process._resume, "self._resume(target)"),
}


def _line_of(fn, marker):
    """(code object, line number) of the one line of ``fn`` holding
    ``marker``."""
    lines, first = inspect.getsourcelines(fn)
    hits = [i for i, line in enumerate(lines) if marker in line]
    assert len(hits) == 1, f"{marker!r} is not unique in {fn.__qualname__}"
    return fn.__code__, first + hits[0]


def _executed_lines(drive, spec):
    """Run ``drive(spec)`` and collect ``(code, line)`` of every line run
    in the engine and process modules."""
    files = {engine.__file__, process.__file__}
    seen = set()

    def tracer(frame, event, _arg):
        if frame.f_code.co_filename not in files:
            return None

        def local(frame, event, _arg):
            if event == "line":
                seen.add((frame.f_code, frame.f_lineno))
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = drive(spec)
    finally:
        sys.settrace(previous)
    return result, seen


def test_scenario_exercises_every_fast_path():
    """Not vacuous: one fixed scenario hits pooled timeouts, both call
    forms, an added callback, an interrupt, a join, a defused failure,
    a park woken twice, a two-hop link chain and the stop — and every
    path in FAST_PATHS."""
    spec = {"sleepers": [[0.1, 0.25, 0.1], [0.5]], "timeouts": [0.25],
            "calls": [(0.25, True, True, True), (0.25, False, False, True)],
            "joins": [0.1], "interrupts": [(1, 0.25)],
            "failures": [(0.1, True), (0.1, False)],
            "parks": [(0.25, 0.1 + 0.2)],
            "hops": [(0.1, 84, True), (0.1, 1538, False), (0.25, 84, False)],
            "stop_at": 0.75}
    (log, result, now, events), by_run = _executed_lines(drive_run, spec)
    labels = [label for _t, label in log]
    assert result == "stopped" and now == 0.75
    for expected in ("sleeper0.woke0", "call0(0)", "call0.callback",
                     "call1", "call1.callback", "sleeper1.interrupted:poke",
                     "parent0:0", "failure0:f0", "timeout0.again:0",
                     "park0:0", "hop0.arrived:84", "hop1.arrived:1538"):
        assert expected in labels
    # Urgent call0 runs before the normal-priority events at t=0.25.
    assert labels.index("call0(0)") < labels.index("sleeper0.woke1")
    stepped, by_step = _executed_lines(drive_step, spec)
    assert (log, result, now, events) == stepped
    executed = by_run | by_step
    missed = [name for name, (fn, marker) in FAST_PATHS.items()
              if _line_of(fn, marker) not in executed]
    assert not missed, f"fast paths never reached: {missed}"
