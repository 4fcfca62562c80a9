"""Stepped-rate senders for the dynamic-allocation experiments.

Experiment 2c drives one VR with an aggregate rate stepping
60 → 360 → 60 Kfps in 60 Kfps increments every 5 s; 2d staggers two such
ramps; 2e runs them against VRs with different service rates.  A
:class:`RampSender` follows an arbitrary piecewise-constant schedule.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.net.frame import Frame, PROTO_UDP
from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.sim.process import Interrupt

__all__ = ["RampSender", "step_ramp"]


def step_ramp(peak_fps: float, step_fps: float, step_duration: float,
              t_start: float = 0.0) -> List[Tuple[float, float]]:
    """The paper's up-then-down staircase schedule.

    Rates step ``step, 2*step, ..., peak, ..., 2*step, step`` with
    ``step_duration`` each, beginning at ``t_start``.  Returns
    ``[(time, rate), ...]``; a final entry with rate 0 ends the flow.
    """
    if step_fps <= 0 or peak_fps < step_fps:
        raise ValueError("need 0 < step_fps <= peak_fps")
    if step_duration <= 0:
        raise ValueError("step_duration must be positive")
    n_up = int(round(peak_fps / step_fps))
    rates = [step_fps * i for i in range(1, n_up + 1)]
    rates += [step_fps * i for i in range(n_up - 1, 0, -1)]
    schedule = [(t_start + i * step_duration, r) for i, r in enumerate(rates)]
    schedule.append((t_start + len(rates) * step_duration, 0.0))
    return schedule


class RampSender:
    """CBR sender following a piecewise-constant rate schedule."""

    def __init__(self, sim: Simulator, host: Host, dst_ip: int,
                 schedule: Sequence[Tuple[float, float]],
                 frame_size: int = 84, src_port: int = 10000,
                 dst_port: int = 20000, phase: float = 0.0):
        if not schedule:
            raise ValueError("schedule must not be empty")
        times = [t for t, _ in schedule]
        if times != sorted(times):
            raise ValueError("schedule times must be non-decreasing")
        self.sim = sim
        self.host = host
        self.dst_ip = dst_ip
        self.schedule = list(schedule)
        self.frame_size = frame_size
        self.src_port = src_port
        self.dst_port = dst_port
        self.phase = phase
        self.sent = 0
        self.process = sim.process(self._run())

    def stop(self) -> None:
        self.process.interrupt("stop")

    def rate_at(self, t: float) -> float:
        """The scheduled rate in effect at time ``t`` (0 before start)."""
        rate = 0.0
        for start, r in self.schedule:
            if t >= start:
                rate = r
            else:
                break
        return rate

    def _run(self):
        sim = self.sim
        try:
            first = self.schedule[0][0] + self.phase
            if first > sim.now:
                yield sim.timeout(first - sim.now)
            schedule = self.schedule
            end_of_schedule = schedule[-1][0]
            host = self.host
            sleep = sim.sleep
            size, src_ip, dst_ip = self.frame_size, host.ip, self.dst_ip
            src_port, dst_port = self.src_port, self.dst_port
            # rate_at(now), incrementally: sim time never goes back, so
            # the count of schedule entries already started only grows,
            # and the send interval changes only when it does.
            started = 0
            rate = interval = 0.0
            while True:
                now = sim._now
                if started < len(schedule) and schedule[started][0] <= now:
                    while (started < len(schedule)
                           and schedule[started][0] <= now):
                        started += 1
                    rate = schedule[started - 1][1]
                    if rate > 0.0:
                        interval = max(1.0 / rate,
                                       host.costs.sender_per_frame)
                if rate <= 0.0:
                    if now >= end_of_schedule:
                        return "finished"
                    # Idle gap inside the schedule: sleep to the next step.
                    nxt = min(t for t, _ in schedule if t > now)
                    yield sim.timeout(nxt - now)
                    continue
                host.send(Frame(size, src_ip, dst_ip, proto=PROTO_UDP,
                                src_port=src_port, dst_port=dst_port,
                                t_created=now))
                self.sent += 1
                yield sleep(interval)
        except Interrupt:
            return "stopped"
