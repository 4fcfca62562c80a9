"""Supervised recovery for the runtime backend (docs/RELIABILITY.md).

The DES supervisor lives inside :class:`~repro.core.lvrm.Lvrm`; its
real-process twin is this class, layered on top of
:class:`~repro.runtime.monitor.RuntimeLvrm`.  One :meth:`poll` call is
one supervision sweep:

1. absorb heartbeats (``pump_control``);
2. declare workers **crashed** (process exited) or **hung** (alive but
   no heartbeat for longer than the timeout) and fail them over —
   retire the handle, unlink its rings, drop the slot;
3. within the per-slot restart budget, schedule a replacement under
   bounded exponential backoff; past the budget the slot is *degraded*
   and the monitor simply runs with fewer workers;
4. perform every scheduled respawn whose backoff has expired, and tell
   the fresh worker which attempt it is (``KIND_RESTART``).

The per-slot state machine (diagrammed in docs/RELIABILITY.md)::

    RUNNING --crash/hang--> RESTARTING --backoff expired--> RUNNING
       |                        |
       +--budget exhausted------+--> DEGRADED (terminal)

The class never starts threads: callers drive it from their own event
loop (or :meth:`run_for` for scripted scenarios), which keeps the
monitor single-threaded like the thesis' LVRM process.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import RuntimeBackendError
from repro.ipc.messages import ControlEvent, KIND_RESTART
from repro.obs.registry import default_registry
from repro.obs.slo import SloRule, SloWatchdog
from repro.obs.trace import TRACER as _TRACE
from repro.runtime.monitor import RuntimeLvrm, RuntimeVriHandle

__all__ = ["Supervisor", "SupervisorPolicy",
           "RUNNING", "RESTARTING", "DEGRADED"]

#: Per-slot supervision states.
RUNNING = "running"
RESTARTING = "restarting"
DEGRADED = "degraded"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Recovery knobs (the runtime twins of ``LvrmConfig``'s)."""

    #: A worker whose last heartbeat is older than this is hung.  Only
    #: enforced when the monitor spawns workers with heartbeats enabled
    #: (``heartbeat_interval > 0``); otherwise hang detection is off and
    #: only crashes are caught.
    heartbeat_timeout: float = 2.0
    #: First restart delay; doubles per restart the slot already used,
    #: capped at ``restart_backoff_max``.
    restart_backoff: float = 0.1
    restart_backoff_max: float = 2.0
    #: Restarts each slot is entitled to before it degrades.
    restart_budget: int = 3
    #: Directory for flight-recorder post-mortem dumps on failover;
    #: ``None`` disables dumping (the recorder still retains context).
    postmortem_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.heartbeat_timeout <= 0:
            raise RuntimeBackendError("heartbeat_timeout must be positive")
        if self.restart_backoff <= 0 or self.restart_backoff_max <= 0:
            raise RuntimeBackendError("restart backoffs must be positive")
        if self.restart_budget < 0:
            raise RuntimeBackendError("restart_budget cannot be negative")

    def backoff_for(self, restarts_used: int) -> float:
        """Bounded exponential backoff before restart N+1."""
        return min(self.restart_backoff * (2 ** restarts_used),
                   self.restart_backoff_max)


class Supervisor:
    """Crash/hang detection and budgeted restart for ``RuntimeLvrm``."""

    def __init__(self, lvrm: RuntimeLvrm,
                 policy: SupervisorPolicy = SupervisorPolicy(),
                 slo_rules: Sequence[SloRule] = ()):
        self.lvrm = lvrm
        self.policy = policy
        self.state: Dict[int, str] = {v.vri_id: RUNNING for v in lvrm.vris}
        self._restarts_used: Dict[int, int] = {}
        #: Scheduled respawns: (vri_id, core_id, not_before, attempt).
        self._pending: List[Tuple[int, Optional[int], float, int]] = []
        #: Quality objectives swept alongside liveness each poll().
        #: Breach edges auto-dump the monitor's flight recorder into the
        #: same post-mortem directory failovers use.
        self.watchdog = (SloWatchdog(slo_rules, default_registry(),
                                     clock=time.monotonic,
                                     track=f"slo-rt{lvrm.obs_id}",
                                     scope_labels={"rt": lvrm.obs_id},
                                     dump_dir=policy.postmortem_dir,
                                     recorder=lvrm.recorder)
                         if slo_rules else None)
        self._postmortems = 0
        #: Monotonic count of debounced worker deaths.  The cluster
        #: failure detector (repro.cluster.director) reads this instead
        #: of re-detecting the same corpse from process liveness: a
        #: death is counted cluster-wide only when this epoch advances,
        #: so a crash this supervisor already failed over is never
        #: double-counted.
        self.death_epoch = 0
        # /healthz reads the slot state machine through the monitor.
        lvrm.supervisor = self
        reg = default_registry()
        labels = {"rt": lvrm.obs_id}
        self.c_failovers = reg.counter(
            "supervisor_failovers_total",
            "worker failures (crash or hang) the supervisor failed over",
            **labels)
        self.c_restarts = reg.counter(
            "supervisor_restarts_total",
            "worker replacements the supervisor spawned after a failure",
            **labels)
        self.c_degraded = reg.counter(
            "supervisor_degraded_total",
            "failures absorbed without a replacement (budget exhausted)",
            **labels)

    # -- read-through counters ------------------------------------------------
    @property
    def failovers(self) -> int:
        return self.c_failovers.value

    @property
    def restarts(self) -> int:
        return self.c_restarts.value

    @property
    def degraded(self) -> int:
        return self.c_degraded.value

    # -- the sweep ------------------------------------------------------------
    def poll(self) -> int:
        """One supervision sweep; returns how many workers were failed
        over in this sweep (crash + hang)."""
        self.lvrm.pump_control()  # absorb heartbeats (and relay ctrl)
        now = time.monotonic()
        hb_enabled = (self.lvrm.heartbeat_interval > 0)
        failed = 0
        for vri in list(self.lvrm.vris):
            crashed = not vri.process.is_alive()
            hung = (not crashed and hb_enabled
                    and now - vri.last_heartbeat
                    > self.policy.heartbeat_timeout)
            if not (crashed or hung):
                continue
            failed += 1
            self._fail_over(vri, "crash" if crashed else "hang", now)
        self._respawn_due(now)
        if self.watchdog is not None:
            breaches = self.watchdog.evaluate(
                now=now, heartbeat_ages=self.lvrm.heartbeat_ages())
            overload = getattr(self.lvrm, "overload", None)
            if overload is not None:
                # Latency breaches tighten low-priority admission before
                # queues overflow into supervisor-visible drops.
                overload.note_slo(any(b.get("kind") == "p99_latency_ms"
                                      for b in breaches))
        return failed

    def _postmortem(self, slot: int, reason: str) -> Optional[str]:
        """Dump the monitor's flight recorder for this failure; returns
        the file path (None when dumping is off or the write failed)."""
        if self.policy.postmortem_dir is None:
            return None
        self._postmortems += 1
        path = os.path.join(
            self.policy.postmortem_dir,
            f"postmortem-rt{self.lvrm.obs_id}-vri{slot}"
            f"-{reason}-{self._postmortems}.txt")
        try:
            os.makedirs(self.policy.postmortem_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                self.lvrm.recorder.dump(
                    fh, reason=f"vri{slot} {reason} failover")
        except OSError:
            return None  # a failed dump must never block the failover
        return path

    def _fail_over(self, vri: RuntimeVriHandle, reason: str,
                   now: float) -> None:
        slot = vri.vri_id
        self.lvrm.remove_worker(vri, reason=reason)  # kills a hung one
        self.c_failovers.inc()
        self.death_epoch += 1
        postmortem = self._postmortem(slot, reason)
        note = {"vri": slot, "reason": reason,
                "survivors": len(self.lvrm.vris)}
        if postmortem is not None:
            note["postmortem"] = postmortem
        self.lvrm.recorder.note("supervisor.failover", ts=now, **note)
        if _TRACE.enabled:
            _TRACE.instant("supervisor.failover", ts=now, cat="replay",
                           track="lvrm", vri=slot, reason=reason)
        used = self._restarts_used.get(slot, 0)
        if used >= self.policy.restart_budget:
            self.state[slot] = DEGRADED
            self.c_degraded.inc()
            self.lvrm.recorder.note("supervisor.degraded", ts=now,
                                    vri=slot, restarts_used=used)
            if _TRACE.enabled:
                _TRACE.instant("supervisor.degraded", ts=now,
                               cat="replay", track="lvrm", vri=slot,
                               restarts_used=used)
            return
        self._restarts_used[slot] = used + 1
        backoff = self.policy.backoff_for(used)
        self.state[slot] = RESTARTING
        self._pending.append((slot, vri.core_id, now + backoff, used + 1))
        self.lvrm.recorder.note("supervisor.schedule_restart", ts=now,
                                vri=slot, attempt=used + 1,
                                backoff=backoff)
        if _TRACE.enabled:
            _TRACE.instant("supervisor.schedule_restart", ts=now,
                           cat="replay", track="lvrm", vri=slot,
                           attempt=used + 1, backoff=backoff)

    def _respawn_due(self, now: float) -> None:
        still: List[Tuple[int, Optional[int], float, int]] = []
        for slot, core_id, not_before, attempt in self._pending:
            if not_before > now:
                still.append((slot, core_id, not_before, attempt))
                continue
            handle = self.lvrm.add_worker(slot, core_id)
            self.state[slot] = RUNNING
            self.c_restarts.inc()
            self.lvrm.send_control(ControlEvent(
                KIND_RESTART, 0, slot, struct.pack("<I", attempt)))
            self.lvrm.recorder.note("supervisor.restart",
                                    ts=time.monotonic(), vri=slot,
                                    attempt=attempt,
                                    pid=handle.process.pid)
            if _TRACE.enabled:
                _TRACE.instant("supervisor.restart", ts=time.monotonic(),
                               cat="replay", track="lvrm", vri=slot,
                               attempt=attempt)
        self._pending = still

    # -- scripted driving loop --------------------------------------------------
    def run_for(self, duration: float, interval: float = 0.05) -> None:
        """Poll every ``interval`` seconds for ``duration`` seconds —
        the scripted-scenario convenience; real applications call
        :meth:`poll` from their own loop."""
        deadline = time.monotonic() + duration
        while time.monotonic() < deadline:
            self.poll()
            time.sleep(interval)
