"""``Simulator.run()`` is ``step()`` in a loop, fast paths and all.

``run()`` inlines the processing of pooled timeouts and ``call_at``
events; ``step()`` is the reference path that goes through each event's
own ``_process()``.  Driving one randomly generated scenario with each
must log the same ``(now, callback)`` sequence, return the same stop
value, and process the same number of events.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Interrupt, Simulator, StopSimulation

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
    "stop_at": st.one_of(st.none(), TIMES),
})


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


def test_scenario_exercises_every_fast_path():
    """Not vacuous: one fixed scenario hits pooled timeouts, both call
    forms, an added callback, an interrupt, a join, a defused failure
    and the stop."""
    spec = {"sleepers": [[0.1, 0.25], [0.5]], "timeouts": [0.25],
            "calls": [(0.25, True, True, True), (0.25, False, False, True)],
            "joins": [0.1], "interrupts": [(1, 0.25)],
            "failures": [(0.1, True), (0.1, False)], "stop_at": 0.75}
    log, result, now, events = drive_run(spec)
    labels = [label for _t, label in log]
    assert result == "stopped" and now == 0.75
    for expected in ("sleeper0.woke0", "call0(0)", "call0.callback",
                     "call1", "call1.callback", "sleeper1.interrupted:poke",
                     "parent0:0", "failure0:f0", "timeout0.again:0"):
        assert expected in labels
    # Urgent call0 runs before the normal-priority events at t=0.25.
    assert labels.index("call0(0)") < labels.index("sleeper0.woke1")
    assert (log, result, now, events) == drive_step(spec)
