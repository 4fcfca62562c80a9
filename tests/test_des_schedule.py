"""The DES schedule referee: every heap event of one exp2c run, pinned.

``data/des_golden.json`` pins what a run *produces*; the schedule that
produced it is only implied.  Two changes that push different events
(an extra timer per frame, a wake at another priority) can still land
on the same rows.  This test pins the schedule itself: one exp2c run at
a twentieth of the quick profile's ramp step and allocation period,
driven through ``Simulator.step()`` (the reference path) with the
``(time, priority)`` of every popped heap entry fed into SHA-256.

A change that keeps docs/PERFORMANCE.md's ordering contract — the same
events, at the same ``(time, priority)``, in the same order — keeps
both the digest and the count.  Anything else fails here first.
"""

import dataclasses
import hashlib
import struct

from repro.sim.engine import Simulator, StopSimulation

#: Ramp step and allocation period of the quick profile, scaled by this.
SCALE = 0.05

EXPECTED_EVENTS = 95_454
EXPECTED_DIGEST = (
    "7191eb38870d6a8095d22ff4c64a869bf4afd6921a39bbc709f134563eaf9625")

_PACK = struct.Struct("<dB").pack


def _stepping_run(log):
    """A ``Simulator.run`` stand-in: ``step()`` in a loop, hashing the
    ``(time, priority)`` of each heap entry before it is processed."""

    def run(self, until=None):
        if self._active:
            raise RuntimeError("simulator is already running")
        self._active = True
        horizon = float("inf") if until is None else until
        heap = self._heap
        try:
            while heap and heap[0][0] <= horizon:
                time, priority = heap[0][0], heap[0][1]
                log["sha"].update(_PACK(time, priority))
                log["events"] += 1
                try:
                    self.step()
                except StopSimulation as stop:
                    return stop.value
            if until is not None:
                self._now = max(self._now, until)
            return None
        finally:
            self._active = False

    return run


def test_exp2c_schedule_is_pinned_event_by_event(monkeypatch):
    from repro.experiments import get_profile, run_experiment

    log = {"sha": hashlib.sha256(), "events": 0}
    monkeypatch.setattr(Simulator, "run", _stepping_run(log))
    quick = get_profile("quick")
    profile = dataclasses.replace(
        quick, ramp_step=quick.ramp_step * SCALE,
        allocation_period=quick.allocation_period * SCALE)
    result = run_experiment("exp2c", profile)
    assert result.rows, "the scaled ramp produced no staircase rows"
    assert log["events"] == EXPECTED_EVENTS
    assert log["sha"].hexdigest() == EXPECTED_DIGEST
