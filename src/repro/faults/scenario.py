"""Canned fault scenarios against either backend.

:func:`run_des_scenario` stands LVRM up on the Figure 4.1 gateway with
supervision enabled, offers a fixed set of CBR UDP flows, arms a fault
schedule, and returns a structured report — per-flow delivery before and
after each kill (the "zero lost flows" check of docs/RELIABILITY.md),
per-slot VRI frame counts, and the supervisor's ledger.  Every field in
the report is simulation-deterministic: two runs with the same seed and
schedule return identical reports (asserted in tests/test_determinism.py).

:func:`run_runtime_scenario` does the real-process equivalent for the
signal-level subset of the schedule (kill -> SIGKILL, hang -> SIGSTOP),
driving dispatch/drain/supervision from one loop and reporting whether
forwarding resumed after the last restart.

Both are what ``lvrm-exp faults`` runs (docs/EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional

from repro.core import FixedAllocation, Lvrm, LvrmConfig, VrSpec, make_socket_adapter
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.hardware import DEFAULT_COSTS, Machine
from repro.net import Testbed
from repro.routing.prefix import Prefix
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.traffic import FrameSink, UdpSender

__all__ = ["run_des_scenario", "run_runtime_scenario",
           "SCENARIO_SLO_RULES", "OVERLOAD_DST_PORTS"]

#: Default objectives armed by both scenario runners: any frame lost to
#: a fault breaches the loss budget, and a worker that stops heartbeating
#: for half a second breaches the liveness budget.  Scenario reports
#: carry the per-rule breach counts, so ``lvrm-exp faults`` shows an SLO
#: verdict next to the supervisor ledger.
SCENARIO_SLO_RULES = (
    {"name": "no-drops", "kind": "drop_rate", "threshold": 0.0},
    {"name": "fresh-heartbeats", "kind": "stale_heartbeat",
     "threshold": 0.5},
)

#: Destination ports used by the overload drills to spread traffic
#: across the default priority classes (control / interactive / bulk —
#: see repro.overload.classify).
OVERLOAD_DST_PORTS = (179, 5000, 40000)


def _overload_report(policy: str, offered_x: float, controller) -> Dict:
    """The ``overload`` section shared by both scenario reports."""
    out: Dict = {"policy": policy, "offered_x": offered_x}
    if controller is not None:
        out["state"] = controller.state()
    return out


def _slo_report(watchdog) -> Dict:
    """The deterministic SLO section of a scenario report."""
    if watchdog is None:
        return {"rules": [], "breaches": {}, "breaching": []}
    return {
        "rules": [r.to_dict() for r in watchdog.rules],
        "breaches": dict(watchdog.breach_counts),
        "breaching": watchdog.breaching(),
    }


def run_des_scenario(schedule: FaultSchedule, duration: float = 6.0,
                     n_vris: int = 3, n_flows: int = 8,
                     rate_fps: float = 20_000.0,
                     seed: int = 2011,
                     config: Optional[LvrmConfig] = None,
                     slo_rules=SCENARIO_SLO_RULES,
                     postmortem_dir: Optional[str] = None,
                     data_plane: str = "copy",
                     kernel: Optional[str] = None,
                     overload_policy: str = "none",
                     overload_x: float = 1.0,
                     overload_opts: Optional[Dict] = None) -> Dict:
    """Run a fault schedule on the simulated gateway; return the report.

    ``n_flows`` CBR UDP flows (half from each sender host, distinct
    source ports) cross one VR spread over ``n_vris`` flow-pinned VRIs.
    The report's ``flows_ok`` is the acceptance check: every flow that
    had delivered frames before a kill/hang fault keeps delivering after
    the failover.

    The overload drill (docs/OVERLOAD.md): ``overload_x`` multiplies
    the offered rate, and a policy other than ``none`` arms the
    admission stage.  When the drill is engaged the flows spread over
    :data:`OVERLOAD_DST_PORTS` so all three default priority classes
    see traffic; the vanilla scenario keeps its legacy single-port
    flows, byte-identical to earlier releases.
    """
    sim = Simulator()
    testbed = Testbed(sim)
    machine = Machine(sim, costs=DEFAULT_COSTS)
    adapter = make_socket_adapter("pf-ring", sim, DEFAULT_COSTS,
                                  nics=testbed.gw_nics)
    cfg = config or LvrmConfig(record_latency=False, balancer="jsq",
                               flow_based=True, supervise=True,
                               slo_rules=tuple(slo_rules or ()),
                               postmortem_dir=postmortem_dir,
                               data_plane=data_plane, kernel=kernel,
                               overload_policy=overload_policy,
                               overload_opts=overload_opts)
    lvrm = Lvrm(sim, machine, adapter, costs=DEFAULT_COSTS, config=cfg,
                rng=RngRegistry(seed))
    lvrm.add_vr(VrSpec(name="vr1", subnets=(Prefix.parse("10.1.0.0/16"),)),
                FixedAllocation(n_vris))
    lvrm.start()

    sinks = {name: FrameSink(sim, testbed.hosts[name], record_latency=False)
             for name in ("r1", "r2")}
    drill = overload_policy != "none" or overload_x != 1.0
    offered_fps = rate_fps * overload_x
    senders: List[UdpSender] = []
    for i in range(n_flows):
        src = "s1" if i % 2 == 0 else "s2"
        dst = "r1" if i % 2 == 0 else "r2"
        kwargs = {}
        if drill:
            kwargs["dst_port"] = OVERLOAD_DST_PORTS[
                i % len(OVERLOAD_DST_PORTS)]
        senders.append(UdpSender(
            sim, testbed.hosts[src], testbed.host_ip(dst),
            offered_fps / n_flows, src_port=10_000 + i,
            phase=i * 1.3e-6, t_stop=duration, **kwargs))

    injector = FaultInjector(lvrm, schedule).arm()

    # Snapshot per-flow delivery right when each kill/hang fires (normal
    # priority: runs after the urgent fault at the same timestamp, which
    # is exactly the "world as the fault saw it" view we want).
    flow_marks: List[Dict] = []

    def _mark(t: float, kind: str) -> None:
        counts: Dict = {}
        for sink in sinks.values():
            counts.update(sink.by_flow)
        flow_marks.append({"t": t, "kind": kind, "counts": counts})

    for spec in schedule:
        if spec.kind in ("kill", "hang"):
            sim.call_at(spec.t, lambda t=spec.t, k=spec.kind: _mark(t, k))

    sim.run(until=duration)

    received_total = sum(s.received for s in sinks.values())
    final_counts: Dict = {}
    for sink in sinks.values():
        final_counts.update(sink.by_flow)

    # Zero lost *flows*: every flow alive at a kill keeps delivering.
    lost_flows: List[str] = []
    for mark in flow_marks:
        for flow, n_at_mark in mark["counts"].items():
            if final_counts.get(flow, 0) <= n_at_mark:
                lost_flows.append(f"{flow} (stalled after "
                                  f"{mark['kind']}@{mark['t']})")
    flows_ok = not lost_flows

    stats = lvrm.stats
    report = {
        "backend": "des",
        "duration": duration,
        "seed": seed,
        "data_plane": data_plane,
        "kernel": cfg.kernel,
        "sent": sum(s.sent for s in senders),
        "captured": stats.captured,
        "dispatched": stats.dispatched,
        "forwarded": stats.forwarded,
        "received": received_total,
        "flows_total": len(final_counts),
        "flows_ok": flows_ok,
        "lost_flows": lost_flows,
        "per_flow": {str(k): v for k, v in sorted(final_counts.items())},
        # Per-slot counts keyed by live spawn order, NOT raw vri_id (ids
        # are process-global, so they differ across runs in one process).
        "per_vri": [{"slot": i, "processed": v.processed,
                     "queue": v.channels.data_in.data_count}
                    for i, v in enumerate(lvrm.all_vris())],
        "n_vris_end": len(lvrm.all_vris()),
        "supervisor": {
            "failovers": stats.failovers.value,
            "restarts": stats.restarts.value,
            "degraded": stats.degraded.value,
            "flows_reassigned": stats.flows_reassigned.value,
        },
        "faults": {
            "injected": injector.injected,
            "skipped": injector.skipped,
            # (t, kind) only: the applied log's vri_id is process-global.
            "applied": [(t, kind) for t, kind, _vid in injector.applied],
        },
        "spans": lvrm.spans.percentiles(),
        "slo": _slo_report(lvrm.watchdog),
        "overload": _overload_report(cfg.overload_policy, overload_x,
                                     lvrm.overload),
        "events_processed": sim.events_processed,
    }
    return report


def _runtime_counters(lvrm, supervisor, injected: int) -> Dict:
    """The record-time counter snapshot a replay must reproduce.

    Every field comes from the runtime's *own* ledgers (handle counters,
    teardown stats, the supervisor's registry counters, the admission
    controller) — never from the trace — so the replay comparison is a
    real cross-check, not a tautology.
    """
    per_vri: Dict[str, Dict[str, int]] = {}
    for entry in lvrm.teardown_stats:
        d = per_vri.setdefault(str(entry["vri_id"]),
                               {"dispatched": 0, "drained": 0})
        d["dispatched"] += entry["dispatched"]
        d["drained"] += entry["drained"]
    for v in lvrm.vris:
        d = per_vri.setdefault(str(v.vri_id),
                               {"dispatched": 0, "drained": 0})
        d["dispatched"] += v.dispatched
        d["drained"] += v.drained
    per_class: Dict[str, int] = {}
    shed = 0
    if lvrm.overload is not None:
        names = lvrm.overload.classifier.classes
        for c, n in enumerate(lvrm.overload.shed):
            shed += n
            if n:
                per_class[names[c]] = n
    return {
        "per_vri": per_vri,
        "totals": {
            "dispatched": sum(d["dispatched"] for d in per_vri.values()),
            "drained": sum(d["drained"] for d in per_vri.values()),
            "shed": shed,
            "reclaimed": lvrm.stranded_reclaimed,
        },
        "supervisor": {
            "failovers": supervisor.failovers,
            "restarts": supervisor.restarts,
            "degraded": supervisor.degraded,
        },
        "faults": injected,
        "per_class": per_class,
        "spans": lvrm.spans.recorded,
    }


def run_runtime_scenario(schedule: FaultSchedule, duration: float = 5.0,
                         n_vris: int = 2,
                         heartbeat_interval: float = 0.05,
                         poll_interval: float = 0.02,
                         stats_interval: float = 0.1,
                         span_sample_every: int = 16,
                         slo_rules=SCENARIO_SLO_RULES,
                         admin_port: Optional[int] = None,
                         postmortem_dir: Optional[str] = None,
                         data_plane: str = "copy",
                         wait_strategy: str = "sleep",
                         kernel: Optional[str] = None,
                         overload_policy: str = "none",
                         overload_x: float = 1.0,
                         overload_opts: Optional[Dict] = None,
                         record_trace: Optional[str] = None,
                         profile_out: Optional[str] = None) -> Dict:
    """Run the signal-level subset of a schedule on real workers.

    Fault times are wall-clock offsets from scenario start.  The driving
    loop interleaves dispatch, drain, and supervision — the runtime twin
    of the DES main loop — and the report's ``resumed_ok`` asserts that
    frames were forwarded *after* the last restart completed.  The full
    telemetry plane is armed: worker registries merge via the stats
    channel, 1-in-N frames carry latency probes, the supervisor sweeps
    the SLO rules, and ``admin_port`` (0 = ephemeral) serves /metrics,
    /healthz, /topology, and /spans over loopback HTTP for the whole
    scenario — the CI fault-smoke job curls it mid-fault.

    ``record_trace`` arms the deterministic record plane
    (:mod:`repro.replay`): every ring op, control message, supervisor
    decision, and fault injection is captured into a sequenced JSONL
    trace at that path, finalized with the run's counter summary so
    ``lvrm-exp replay`` can verify it bit-identically through the DES.

    ``profile_out`` cProfiles the monitor's driving loop and dumps the
    pstats file at that path.
    """
    from repro.net.addresses import ip_to_int
    from repro.net.packet import build_udp_frame
    from repro.obs.slo import parse_rules
    from repro.obs.trace import TRACER as _TRACE
    from repro.runtime import RuntimeLvrm, Supervisor, SupervisorPolicy

    profile = None
    if profile_out is not None:
        import cProfile
        profile = cProfile.Profile()

    recorder = None
    if record_trace is not None:
        from repro.replay import ReplayRecorder
        # Attach before the monitor exists so worker.spawn events are
        # part of the trace (the HB checker's fork edges need them).
        recorder = ReplayRecorder().start()

    runnable = schedule.runtime_subset
    drill = overload_policy != "none"
    if drill:
        # One frame per default priority class (ports spread across
        # OVERLOAD_DST_PORTS), cycled so the admission stage sees all
        # classes; overload_x scales how many are offered per loop turn.
        frames = tuple(build_udp_frame(
            0x02, 0x03, ip_to_int("10.1.1.2"), ip_to_int("10.2.1.2"),
            10_000 + i, port, b"overload-drill")
            for i, port in enumerate(OVERLOAD_DST_PORTS))
    else:
        frames = (build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                                  ip_to_int("10.2.1.2"), 1, 2,
                                  b"fault-smoke"),)
    burst = max(1, int(round(overload_x)))
    try:
        lvrm = RuntimeLvrm(n_vris=n_vris,
                           worker_lifetime=max(60.0, duration * 4),
                           heartbeat_interval=heartbeat_interval,
                           stats_interval=stats_interval,
                           span_sample_every=span_sample_every,
                           data_plane=data_plane,
                           wait_strategy=wait_strategy,
                           kernel=kernel,
                           overload_policy=overload_policy,
                           overload_opts=overload_opts)
    except BaseException:
        if recorder is not None:
            recorder.stop()
        raise
    policy = SupervisorPolicy(heartbeat_timeout=max(4 * heartbeat_interval,
                                                    0.5),
                              restart_backoff=0.05,
                              restart_backoff_max=1.0,
                              restart_budget=3,
                              postmortem_dir=postmortem_dir)
    supervisor = Supervisor(lvrm, policy,
                            slo_rules=parse_rules(list(slo_rules or ())))
    admin_url = None
    if admin_port is not None:
        admin_url = lvrm.start_admin(port=admin_port).url
    pending = sorted(runnable, key=lambda f: f.t)
    dispatched = drained = offered = 0
    drained_after_restart = 0
    try:
        if profile is not None:
            profile.enable()
        t0 = time.monotonic()
        next_poll = t0
        while time.monotonic() - t0 < duration:
            now = time.monotonic() - t0
            while pending and pending[0].t <= now:
                spec = pending.pop(0)
                victims = [v for v in lvrm.vris]
                if spec.vri is not None and spec.vri < len(victims):
                    victim = victims[spec.vri]
                    if spec.kind == "kill":
                        victim.process.kill()
                    elif spec.kind == "hang" and victim.process.pid:
                        os.kill(victim.process.pid, signal.SIGSTOP)
                    lvrm.recorder.note("fault.inject", ts=time.monotonic(),
                                       kind=spec.kind, vri=victim.vri_id)
                    if _TRACE.enabled:
                        # Track "lvrm", not "faults": the signal is sent
                        # from this same driving loop, so it is program-
                        # ordered with the ring ops around it — a
                        # separate track would (correctly but uselessly)
                        # read as concurrent with everything.
                        _TRACE.instant("fault.inject", ts=time.monotonic(),
                                       cat="fault", track="lvrm",
                                       kind=spec.kind, vri=victim.vri_id)
            if lvrm.vris:
                for _ in range(burst):
                    frame = frames[offered % len(frames)]
                    offered += 1
                    if lvrm.dispatch(frame):
                        dispatched += 1
            got = len(lvrm.drain())
            drained += got
            if supervisor.restarts > 0:
                drained_after_restart += got
            if time.monotonic() >= next_poll:
                supervisor.poll()
                next_poll = time.monotonic() + poll_interval
            time.sleep(500e-6)
        # Final settle: let in-flight frames drain.
        settle = time.monotonic() + 1.0
        while time.monotonic() < settle:
            supervisor.poll()
            got = len(lvrm.drain())
            drained += got
            if supervisor.restarts > 0:
                drained_after_restart += got
            time.sleep(1e-3)
        if profile is not None:
            profile.disable()
        if recorder is not None:
            # Finalize while the monitor is still up (before stop()'s
            # retire events), from the runtime's own counters — the
            # replayer recomputes this snapshot from the trace alone.
            lvrm.flush_trace()  # coalesced ring.push events
            recorder.finalize(_runtime_counters(
                lvrm, supervisor, len(runnable) - len(pending)))
            recorder.stop()
            recorder.save(record_trace)
    finally:
        try:
            if recorder is not None:
                recorder.stop()  # no-op when already detached above
            # A SIGSTOPped straggler would hang the cooperative stop's
            # join; resume it first so teardown stays bounded.
            for vri in lvrm.vris:
                if vri.process.pid and vri.process.is_alive():
                    try:
                        os.kill(vri.process.pid, signal.SIGCONT)
                    except ProcessLookupError:
                        pass
            lvrm.stop()
        except Exception:
            pass
        if profile is not None:
            profile.disable()  # no-op when already stopped above

    if profile is not None:
        profile.dump_stats(profile_out)

    injected = len(runnable) - len(pending)
    from repro.obs.registry import default_registry
    merged_ids = sorted({dict(inst.labels).get("vri_id")
                         for inst in default_registry().find(
                             "vri_frames_total")
                         if "vri_id" in dict(inst.labels)})
    return {
        "backend": "runtime",
        "duration": duration,
        "data_plane": data_plane,
        "wait_strategy": wait_strategy,
        "kernel": lvrm.kernel,
        "offered": offered,
        "dispatched": dispatched,
        "forwarded": drained,
        "forwarded_after_restart": drained_after_restart,
        "supervisor": {
            "failovers": supervisor.failovers,
            "restarts": supervisor.restarts,
            "degraded": supervisor.degraded,
            "states": dict(supervisor.state),
        },
        "faults": {"injected": injected,
                   "skipped_unsupported": len(schedule) - len(runnable)},
        "spans": lvrm.spans.percentiles(),
        "slo": _slo_report(supervisor.watchdog),
        "overload": _overload_report(overload_policy, overload_x,
                                     lvrm.overload),
        "telemetry": {"merged_vri_ids": merged_ids},
        "admin_url": admin_url,
        **({"profile": profile_out} if profile_out is not None else {}),
        "resumed_ok": (supervisor.restarts == 0
                       or drained_after_restart > 0),
        **({"trace": record_trace,
            "trace_events": len(recorder.events)}
           if recorder is not None else {}),
    }
