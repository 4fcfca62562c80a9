"""repro.faults: schedules, the DES injector, and the fault scenarios."""

import os
import signal
import time

import pytest

from repro.core import FixedAllocation
from repro.core.lvrm import LvrmConfig
from repro.errors import ConfigError
from repro.experiments.common import build_lvrm_gateway
from repro.faults import FaultInjector, FaultSchedule, FaultSpec
from repro.faults.scenario import OVERLOAD_DST_PORTS, run_des_scenario
from repro.ipc.sim_queue import Corrupted, SimIpcQueue
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.obs.registry import default_registry
from repro.runtime import RuntimeLvrm, Supervisor, SupervisorPolicy
from repro.traffic import FrameSink, UdpSender


# ---------------------------------------------------------------------------
# Schedule parsing and validation
# ---------------------------------------------------------------------------

def test_schedule_roundtrip():
    sched = FaultSchedule((
        FaultSpec(t=2.0, kind="kill", vri=1),
        FaultSpec(t=1.0, kind="slow", vri=0, factor=3.0),
        FaultSpec(t=3.0, kind="delay_ctrl", delay=0.01, count=2),
    ), "mixed")
    again = FaultSchedule.from_json(sched.to_json())
    assert again == sched
    # Sorted by time regardless of construction order.
    assert [f.t for f in again] == [1.0, 2.0, 3.0]


def test_schedule_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown fault kind"):
        FaultSpec(t=0.0, kind="meteor", vri=0)
    with pytest.raises(ConfigError, match="unknown fault kind"):
        FaultSchedule.from_json('{"faults": [{"t": 1, "kind": "meteor"}]}')


def test_schedule_rejects_bad_params():
    with pytest.raises(ConfigError):
        FaultSpec(t=-1.0, kind="kill", vri=0)
    with pytest.raises(ConfigError):
        FaultSpec(t=0.0, kind="kill")                 # no target
    with pytest.raises(ConfigError):
        FaultSpec(t=0.0, kind="delay_ctrl", vri=1)    # targets the monitor
    with pytest.raises(ConfigError):
        FaultSpec(t=0.0, kind="drop_slot", vri=0, count=0)
    with pytest.raises(ConfigError, match="does not accept"):
        FaultSchedule.from_json(
            '{"faults": [{"t": 1, "kind": "kill", "vri": 0, "factor": 2}]}')


def test_schedule_runtime_subset():
    sched = FaultSchedule((
        FaultSpec(t=1.0, kind="kill", vri=0),
        FaultSpec(t=2.0, kind="corrupt_slot", vri=0),
        FaultSpec(t=3.0, kind="hang", vri=1),
    ))
    assert [f.kind for f in sched.runtime_subset] == ["kill", "hang"]


# ---------------------------------------------------------------------------
# Queue-level slot faults
# ---------------------------------------------------------------------------

def test_sim_queue_drop_and_corrupt(sim):
    q = SimIpcQueue(sim, 8)
    q.inject_drop(1)
    assert q.try_push("a")          # producer believes it succeeded
    assert q.try_pop() is None      # ...but the record vanished
    assert q.fault_dropped == 1
    q.inject_corrupt(1)
    assert q.try_push("b")
    item = q.try_pop()
    assert isinstance(item, Corrupted) and item.item == "b"
    assert q.fault_corrupted == 1
    with pytest.raises(ValueError):
        q.inject_drop(0)


# ---------------------------------------------------------------------------
# The injector against a live gateway
# ---------------------------------------------------------------------------

def _gateway(sim, testbed, n_vris=3, **cfg_kw):
    # Pin the scalar-priced cost model: these tests assert timing-derived
    # counts (e.g. how far a 2000x-slowed VRI falls behind), so a forced
    # REPRO_KERNEL repricing VR service would shift the thresholds.
    cfg_kw.setdefault("kernel", "scalar")
    cfg = LvrmConfig(record_latency=False, balancer="jsq", flow_based=True,
                     supervise=True, **cfg_kw)
    _machine, lvrm = build_lvrm_gateway(
        sim, testbed, config=cfg,
        allocator_factory=lambda: FixedAllocation(n_vris))
    return lvrm


def test_injector_kill_is_failed_over(sim, testbed):
    lvrm = _gateway(sim, testbed)
    sink = FrameSink(sim, testbed.hosts["r1"], record_latency=False)
    senders = [UdpSender(sim, testbed.hosts["s1"], testbed.host_ip("r1"),
                         10_000, src_port=10_000 + i, phase=i * 1e-6)
               for i in range(6)]
    sched = FaultSchedule((FaultSpec(t=0.5, kind="kill", vri=1),))
    injector = FaultInjector(lvrm, sched).arm()
    sim.run(until=1.5)
    assert injector.injected == 1 and injector.skipped == 0
    assert lvrm.stats.failovers.value == 1
    assert lvrm.stats.restarts.value == 1
    assert len(lvrm.all_vris()) == 3          # replacement landed
    assert sink.received > 0
    monitor = lvrm._vri_monitors[0]
    assert monitor.failures == 1
    del senders


def test_injector_slow_inflates_service(sim, testbed):
    lvrm = _gateway(sim, testbed, n_vris=1)
    UdpSender(sim, testbed.hosts["s1"], testbed.host_ip("r1"), 50_000)
    sched = FaultSchedule((FaultSpec(t=0.2, kind="slow", vri=0,
                                     factor=2000.0),))
    FaultInjector(lvrm, sched).arm()
    sim.run(until=0.2)
    before = lvrm.all_vris()[0].processed
    sim.run(until=0.4)
    after = lvrm.all_vris()[0].processed
    # 2000x slower service (~160 us/frame) can no longer keep up with
    # 50 kfps: the second window completes far fewer frames.
    assert (after - before) < before / 4
    assert lvrm.all_vris()[0].slow_factor == 2000.0


def test_injector_corrupt_slots_are_discarded(sim, testbed):
    lvrm = _gateway(sim, testbed, n_vris=1)
    UdpSender(sim, testbed.hosts["s1"], testbed.host_ip("r1"), 20_000)
    sched = FaultSchedule((FaultSpec(t=0.2, kind="corrupt_slot", vri=0,
                                     count=5),))
    FaultInjector(lvrm, sched).arm()
    sim.run(until=0.6)
    vri = lvrm.all_vris()[0]
    assert vri.dropped_corrupt == 5
    assert vri.alive


def test_injector_skips_missing_target(sim, testbed):
    lvrm = _gateway(sim, testbed, n_vris=1)
    sched = FaultSchedule((FaultSpec(t=0.1, kind="kill", vri=7),))
    injector = FaultInjector(lvrm, sched).arm()
    sim.run(until=0.2)
    assert injector.injected == 0 and injector.skipped == 1
    assert len(lvrm.all_vris()) == 1


def test_injector_refuses_double_arm(sim, testbed):
    lvrm = _gateway(sim, testbed, n_vris=1)
    injector = FaultInjector(lvrm, FaultSchedule())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


# ---------------------------------------------------------------------------
# The acceptance scenario: kill 1 of 3 mid-run, zero lost flows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kill_one_of_three(tmp_path_factory):
    """One run of the 4-s kill schedule, shared by the two tests below:
    the report, the ``slo.breach`` flight-recorder edges read straight
    after the run (the recorder is process-global), and the post-mortem
    directory."""
    from repro.obs.recorder import RECORDER

    postmortems = tmp_path_factory.mktemp("postmortems")
    sched = FaultSchedule((FaultSpec(t=2.0, kind="kill", vri=1),),
                          "kill VRI 1 at t=2s")
    report = run_des_scenario(sched, duration=4.0,
                              postmortem_dir=str(postmortems))
    edges = [e for e in RECORDER.events()
             if getattr(e, "name", "") == "slo.breach"]
    return report, edges, postmortems


def test_des_scenario_kill_one_of_three_loses_no_flows(kill_one_of_three):
    report, _edges, _postmortems = kill_one_of_three
    assert report["faults"]["injected"] == 1
    assert report["supervisor"]["failovers"] == 1
    assert report["supervisor"]["restarts"] == 1
    assert report["flows_total"] == 8
    assert report["flows_ok"], report["lost_flows"]
    # Frames in flight may drop; flows may not.
    assert report["received"] > 0.9 * report["sent"]


def test_des_scenario_kill_breaches_the_drop_slo_and_dumps_postmortem(
        kill_one_of_three):
    """The kill is *observable*: ~one supervision period of frames
    strands in the corpse's ring, so the no-drops SLO breaches (counter
    plus ``slo.breach`` flight-recorder note) and the failover leaves a
    post-mortem dump — while every flow still survives."""
    report, edges, postmortems = kill_one_of_three
    slo = report["slo"]
    assert slo["breaches"]["no-drops"] > 0
    assert "no-drops" in slo["breaching"]
    # Heartbeats recovered after the restart: only the cumulative
    # drop-rate budget stays blown.
    assert slo["breaches"].get("fresh-heartbeats", 0) == 0
    assert edges and edges[0].args["rule"] == "no-drops"
    assert edges[0].args["dropped"] > 0
    dumps = list(postmortems.glob("postmortem-lvrm*-vri*-crash-1.txt"))
    assert len(dumps) == 1
    text = dumps[0].read_text()
    assert "flight recorder dump" in text and "supervisor.failover" in text
    # The breach is telemetry, not packet loss beyond the fault model's:
    # the flow-survival acceptance still holds.
    assert report["flows_ok"], report["lost_flows"]
    assert report["received"] > 0.9 * report["sent"]


def test_des_scenario_without_faults_breaches_nothing():
    report = run_des_scenario(FaultSchedule(), duration=2.0)
    assert report["slo"]["breaching"] == []
    assert all(n == 0 for n in report["slo"]["breaches"].values())


# ---------------------------------------------------------------------------
# Runtime: conservation across a worker kill on the inline dispatch path
# ---------------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_worker_kill_conserves_counters_and_recovers():
    """Kill a worker with frames queued in its ring under priority-shed,
    let the supervisor respawn it, and keep forwarding.  Per class,
    offered == admitted + shed; every frame a ring accepted is drained
    or counted stranded by the failover."""
    burst = [build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                             ip_to_int("10.2.1.2"), 10_000 + i, port,
                             b"kill-drill")
             for i, port in enumerate(OVERLOAD_DST_PORTS * 8)]
    offered = accepted = drained = 0
    with RuntimeLvrm(n_vris=2, ring_capacity=64, worker_lifetime=60.0,
                     overload_policy="priority-shed") as lvrm:
        supervisor = Supervisor(lvrm, SupervisorPolicy(restart_backoff=0.01))

        def offer_for(seconds: float) -> None:
            nonlocal offered, accepted, drained
            end = time.monotonic() + seconds
            while time.monotonic() < end:
                offered += len(burst)
                accepted += lvrm.dispatch_many(burst)
                drained += len(lvrm.drain())
                supervisor.poll()
                time.sleep(0.005)

        # Drain to idle, then freeze the victim: what it is given from
        # here on stays queued in its ring, and its full ring drives the
        # admission controller into shedding.
        offered += len(burst)
        accepted += lvrm.dispatch_many(burst)
        drained += len(lvrm.drain_until(accepted, timeout=20.0))
        victim = lvrm.vris[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        offer_for(0.3)
        assert len(victim.data_in) > 0
        victim.process.kill()
        victim.process.join(5.0)
        deadline = time.monotonic() + 10.0
        while supervisor.restarts == 0:
            assert time.monotonic() < deadline, "victim never respawned"
            offer_for(0.02)
        assert supervisor.failovers == 1
        drained_before = drained
        offer_for(0.3)
        assert drained > drained_before              # forwarding resumed

        stranded = sum(c.value for c in default_registry().find(
            "vri_dropped_fault_total", rt=lvrm.obs_id))
        assert stranded > 0
        while drained + stranded < accepted:
            assert time.monotonic() < deadline + 10.0, (
                f"dispatched {accepted} != drained {drained} "
                f"+ stranded {stranded}")
            drained += len(lvrm.drain())
            time.sleep(0.005)
        assert drained + stranded == accepted
        dispatched = (sum(v.dispatched for v in lvrm.vris)
                      + sum(t["dispatched"] for t in lvrm.teardown_stats))
        assert dispatched == accepted

        ctl = lvrm.overload
        assert sum(ctl.offered) == offered
        assert sum(ctl.shed) > 0
        for c, name in enumerate(ctl.classifier.classes):
            assert ctl.offered[c] == ctl.admitted[c] + ctl.shed[c], name
