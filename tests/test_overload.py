"""repro.overload: classification, AIMD admission, and both backends.

The load-bearing guarantees under test:

* the stride sampler's scalar and block forms are *bit-identical* (the
  kernels' burst path must decide exactly like the scalar path);
* per class, ``offered == admitted + shed`` — always, including across
  a kill fault mid-overload;
* policy semantics: priority-shed never touches control, tail-drop is
  class-blind, adaptive-sample sheds lower classes faster but keeps a
  trickle everywhere.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.faults import FaultSchedule
from repro.faults.scenario import run_des_scenario
from repro.net.addresses import ip_to_int
from repro.net.frame import Frame, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.net.packet import build_udp_frame
from repro.obs.registry import Registry
from repro.overload import (AdmissionController, ClassRule, DEFAULT_CLASSES,
                            OverloadConfig, PriorityClassifier, POLICIES,
                            build_controller)


def _controller(policy="priority-shed", **opts) -> AdmissionController:
    """A controller on a private registry (no cross-test metric bleed)."""
    cfg = OverloadConfig.from_spec({"policy": policy, **opts})
    return AdmissionController(cfg, registry=Registry())


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_default_taxonomy():
    clf = PriorityClassifier()
    assert clf.classes == DEFAULT_CLASSES
    assert clf.classify(PROTO_ICMP, 33000, 44000) == 0   # ICMP is control
    assert clf.classify(PROTO_TCP, 33000, 179) == 0      # BGP
    assert clf.classify(PROTO_UDP, 53, 33000) == 0       # DNS (src side)
    assert clf.classify(PROTO_UDP, 33000, 5000) == 1     # interactive band
    assert clf.classify(PROTO_TCP, 33000, 40000) == 2    # bulk fall-through


def test_classify_frame_and_malformed_views():
    clf = PriorityClassifier()
    frame = Frame(84, ip_to_int("10.1.1.2"), ip_to_int("10.2.1.2"),
                  proto=PROTO_UDP, src_port=10000, dst_port=179)
    assert clf.classify_frame(frame) == 0

    class Garbage:           # a FrameView over junk raises on field access
        @property
        def proto(self):
            raise ValueError("truncated header")
    assert clf.classify_frame(Garbage()) == clf.default_cls


def test_classify_raw_wire_bytes():
    clf = PriorityClassifier()
    ctl = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                          ip_to_int("10.2.1.2"), 10000, 179, b"bgp")
    bulk = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                           ip_to_int("10.2.1.2"), 10000, 40000, b"bulk")
    assert clf.classify_raw(ctl) == 0
    assert clf.classify_raw(bulk) == 2
    # Too short / non-IPv4 garbage never outranks real traffic.
    assert clf.classify_raw(b"\x00" * 10) == clf.default_cls
    assert clf.classify_raw(b"\xff" * 64) == clf.default_cls


def test_classifier_from_spec_custom_taxonomy():
    clf = PriorityClassifier.from_spec({
        "classes": ["gold", "best-effort"],
        "rules": [{"class": "gold", "port_lo": 0, "port_hi": 1023}],
        "default": "best-effort",
    })
    assert clf.n_classes == 2
    assert clf.classify(PROTO_UDP, 33000, 22) == 0
    assert clf.classify(PROTO_UDP, 33000, 33000) == 1
    # Round-trips through its own dict form.
    again = PriorityClassifier.from_spec(clf.to_dict())
    assert again.classify(PROTO_UDP, 33000, 22) == 0


def test_classifier_spec_validation():
    with pytest.raises(ConfigError, match="unknown class"):
        PriorityClassifier.from_spec(
            {"rules": [{"class": "platinum", "proto": 1}]})
    with pytest.raises(ConfigError, match="unknown keys"):
        PriorityClassifier.from_spec(
            {"rules": [{"class": "control", "vlan": 7}]})
    with pytest.raises(ConfigError, match="at least two"):
        PriorityClassifier.from_spec({"classes": ["only"], "rules": []})
    with pytest.raises(ConfigError, match="port range"):
        ClassRule(cls=0, port_lo=5)
    with pytest.raises(ConfigError, match="empty port range"):
        ClassRule(cls=0, port_lo=9, port_hi=3)


# ---------------------------------------------------------------------------
# The stride sampler
# ---------------------------------------------------------------------------

def test_rate_quarter_admits_exactly_every_fourth():
    ctl = _controller("tail-drop")
    ctl.set_rate(2, 0.25)
    decisions = [ctl.decide(2) for _ in range(16)]
    assert decisions.count(True) == 4          # exactly, not in expectation
    assert ctl.offered[2] == 16
    assert ctl.admitted[2] == 4 and ctl.shed[2] == 12


def test_block_admission_is_bit_identical_to_scalar():
    """The kernels' burst path must decide exactly like the scalar
    path, for every class, across arbitrary block boundaries."""
    rates = {0: 1.0, 1: 0.37, 2: 0.051}
    scalar = _controller("tail-drop")
    block = _controller("tail-drop")
    for c, r in rates.items():
        scalar.set_rate(c, r)
        block.set_rate(c, r)

    # A deterministic class pattern chopped into ragged block sizes.
    classes = [(3 * i + i // 7) % 3 for i in range(500)]
    scalar_out = [scalar.decide(c) for c in classes]

    block_out = []
    i = 0
    for size in (1, 7, 3, 64, 2, 100, 13, 310):
        chunk = classes[i:i + size]
        if not chunk:
            break
        admitted = block.admit_block(chunk, classify=lambda c: c)
        # Reconstruct per-frame decisions from the admitted sublist
        # (within a class the admitted subset is a first-k prefix, so
        # greedy matching recovers the exact positions).
        remaining = list(admitted)
        for c in chunk:
            if remaining and remaining[0] == c:
                remaining.pop(0)
                block_out.append(True)
            else:
                block_out.append(False)
        i += size
    assert i >= len(classes)

    # Identical accumulators and counters => identical future behaviour.
    assert scalar._acc == block._acc
    assert scalar.admitted == block.admitted
    assert scalar.shed == block.shed
    # Per-class admitted counts match exactly (block admits first-k per
    # class within a burst; the scalar pattern may differ inside one
    # burst but totals and carried credit must agree).
    for c in range(3):
        assert (sum(1 for cc, d in zip(classes, scalar_out)
                    if cc == c and d)
                == sum(1 for cc, d in zip(classes, block_out)
                       if cc == c and d))


def test_conservation_across_mixed_scalar_and_block_calls():
    ctl = _controller("adaptive-sample")
    for c in range(3):
        ctl.set_rate(c, (0.11, 0.5, 0.999)[c])
    for i in range(97):
        ctl.decide(i % 3)
    ctl.admit_block([i % 3 for i in range(211)], classify=lambda c: c)
    for c in range(3):
        assert ctl.offered[c] == ctl.admitted[c] + ctl.shed[c]
    assert sum(ctl.offered) == 97 + 211


def test_full_rate_block_fast_path_returns_all_frames():
    ctl = _controller("priority-shed")
    frames = ["a", "b", "c"]
    assert ctl.admit_block(frames, classify=lambda f: 0) == frames
    assert ctl.shed == [0, 0, 0]


# ---------------------------------------------------------------------------
# AIMD policy semantics
# ---------------------------------------------------------------------------

def test_priority_shed_tightens_bottom_up_and_spares_control():
    ctl = _controller("priority-shed", floor=0.05, decrease=0.5)
    for _ in range(50):
        ctl._tighten()
    assert ctl.rates[0] == 1.0                  # control never shed
    assert ctl.rates[1] == pytest.approx(0.05, abs=1e-4)
    assert ctl.rates[2] == pytest.approx(0.05, abs=1e-4)
    # Order: bulk must reach the floor before interactive is touched.
    ctl2 = _controller("priority-shed", floor=0.05, decrease=0.5)
    ctl2._tighten()
    assert ctl2.rates[2] < 1.0 and ctl2.rates[1] == 1.0


def test_tail_drop_is_class_blind():
    ctl = _controller("tail-drop", decrease=0.5)
    ctl._tighten()
    assert ctl.rates == pytest.approx([0.5, 0.5, 0.5], abs=1e-4)


def test_adaptive_sample_sheds_lower_classes_faster():
    ctl = _controller("adaptive-sample", decrease=0.5, floor=0.05)
    for _ in range(3):
        ctl._tighten()
    assert ctl.rates[0] == 1.0
    assert ctl.rates[0] > ctl.rates[1] > ctl.rates[2] > 0
    # Every class keeps a deterministic trickle even fully tightened.
    for _ in range(60):
        ctl._tighten()
    assert min(ctl.rates[1:]) >= 0.05 - 1e-9


def test_relax_restores_rates_additively():
    ctl = _controller("tail-drop", increase=0.25, decrease=0.5)
    ctl._tighten()
    ctl._relax()
    assert ctl.rates == pytest.approx([0.75, 0.75, 0.75], abs=1e-4)
    for _ in range(10):
        ctl._relax()
    assert ctl.rates == [1.0, 1.0, 1.0]


def test_maybe_update_rate_limits_and_follows_the_band():
    ctl = _controller("tail-drop", band_lo=0.25, band_hi=0.75,
                      update_interval=0.05, ewma_weight=0.0)
    assert ctl.maybe_update(0.00, lambda: 0.9)      # above band: tighten
    assert not ctl.maybe_update(0.01, lambda: 0.9)  # rate-limited
    assert ctl.tightens == 1 and ctl.rates[0] < 1.0
    assert ctl.maybe_update(0.06, lambda: 0.1)      # below band: relax
    assert ctl.relaxes == 1
    assert ctl.maybe_update(0.12, lambda: 0.5)      # in band: hold
    assert ctl.tightens == 1 and ctl.relaxes == 1


def test_slo_breach_tightens_on_edge_and_pins_pressure():
    ctl = _controller("priority-shed", band_lo=0.25, band_hi=0.75)
    ctl.note_slo(True)
    assert ctl.tightens == 1                      # immediate edge tighten
    ctl.note_slo(True)
    assert ctl.tightens == 1                      # no re-tighten per poll
    # While breaching, updates tighten even at comfortable occupancy.
    ctl.maybe_update(0.0, lambda: 0.0)
    assert ctl.tightens == 2
    ctl.note_slo(False)
    ctl.maybe_update(1.0, lambda: 0.0)
    assert ctl.relaxes >= 1


def test_state_snapshot_is_json_ready():
    ctl = _controller("adaptive-sample")
    ctl.decide(0)
    ctl.note_slo(True)
    state = json.loads(json.dumps(ctl.state()))
    assert state["policy"] == "adaptive-sample"
    assert state["slo_pressure"] is True
    assert state["classes"]["control"]["admitted"] == 1


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_build_controller_none_installs_nothing():
    assert build_controller("none") is None
    assert build_controller("none", {"band_hi": 0.5}) is None


def test_build_controller_policy_conflict_and_validation():
    with pytest.raises(ConfigError, match="conflicts"):
        build_controller("tail-drop", {"policy": "priority-shed"})
    with pytest.raises(ConfigError, match="unknown overload policy"):
        build_controller("meteor")
    ctl = build_controller("priority-shed", {"floor": 0.1},
                           registry=Registry())
    assert ctl.config.floor == 0.1 and ctl.config.policy == "priority-shed"


def test_overload_config_rejects_bad_values():
    for bad in ({"policy": "nope"},
                {"band_lo": 0.8, "band_hi": 0.2},
                {"increase": 0.0},
                {"decrease": 1.0},
                {"floor": 1.0},
                {"update_interval": 0.0},
                {"ewma_weight": -1.0},
                {"mystery_knob": 1}):
        with pytest.raises(ConfigError):
            OverloadConfig.from_spec({"policy": "tail-drop", **bad})
    with pytest.raises(ConfigError, match="bad overload spec JSON"):
        OverloadConfig.from_spec("{not json")


def test_lvrm_config_validates_overload_spec_eagerly():
    from repro.core.lvrm import LvrmConfig
    with pytest.raises(ConfigError):
        LvrmConfig(overload_policy="meteor")
    with pytest.raises(ConfigError):
        LvrmConfig(overload_policy="tail-drop",
                   overload_opts={"mystery_knob": 1})


# ---------------------------------------------------------------------------
# DES integration: the drill, conservation across faults, admin route
# ---------------------------------------------------------------------------

def _kill_schedule():
    return FaultSchedule.from_json(
        '{"faults": [{"t": 0.5, "kind": "kill", "vri": 1}]}')


def test_des_drill_conserves_per_class_counts_across_kill():
    """ISSUE 8 satellite: admitted + shed == offered for every class,
    with a worker killed mid-overload."""
    report = run_des_scenario(_kill_schedule(), duration=1.5,
                              rate_fps=20_000.0,
                              overload_policy="priority-shed",
                              overload_x=3.0,
                              overload_opts={"band_lo": 0.1,
                                             "band_hi": 0.4,
                                             "update_interval": 0.005})
    state = report["overload"]["state"]
    assert state["policy"] == "priority-shed"
    total_offered = 0
    for name, cls in state["classes"].items():
        assert cls["offered"] == cls["admitted"] + cls["shed"], name
        total_offered += cls["offered"]
    # The overload stage saw every captured frame.
    assert total_offered == report["captured"]
    # 3x load over a degraded monitor must actually shed something...
    assert sum(c["shed"] for c in state["classes"].values()) > 0
    # ...but never from the control class under priority-shed.
    assert state["classes"]["control"]["shed"] == 0
    assert report["faults"]["applied"] == [(0.5, "kill")]
    assert report["flows_ok"]


def test_des_drill_none_policy_keeps_legacy_path():
    report = run_des_scenario(_kill_schedule(), duration=1.0)
    assert report["overload"] == {"policy": "none", "offered_x": 1.0}


def test_des_admin_route_serves_overload_state():
    from repro.core import FixedAllocation, Lvrm, LvrmConfig, VrSpec, \
        make_socket_adapter
    from repro.hardware import DEFAULT_COSTS, Machine
    from repro.net import Testbed
    from repro.routing.prefix import Prefix
    from repro.sim import Simulator

    sim = Simulator()
    testbed = Testbed(sim)
    machine = Machine(sim, costs=DEFAULT_COSTS)
    adapter = make_socket_adapter("pf-ring", sim, DEFAULT_COSTS,
                                  nics=testbed.gw_nics)
    lvrm = Lvrm(sim, machine, adapter, costs=DEFAULT_COSTS,
                config=LvrmConfig(overload_policy="adaptive-sample"))
    lvrm.add_vr(VrSpec(name="vr1",
                       subnets=(Prefix.parse("10.1.0.0/16"),)),
                FixedAllocation(1))
    lvrm.start()
    status, _ctype, body = lvrm.admin_state().handle("/overload")
    assert status == 200
    view = json.loads(body)
    assert view["policy"] == "adaptive-sample"
    assert set(view["classes"]) == set(DEFAULT_CLASSES)

    # Without a controller the same route serves an empty object.
    from repro.obs.admin import AdminState
    from repro.obs.registry import default_registry
    status, _ctype, body = AdminState(
        default_registry()).handle("/overload")
    assert status == 200 and json.loads(body) == {}


# ---------------------------------------------------------------------------
# Runtime integration (real worker processes)
# ---------------------------------------------------------------------------

@pytest.mark.timeout(60)
def test_runtime_dispatch_sheds_per_block_and_serves_admin():
    from repro.runtime import RuntimeLvrm

    bulk = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                           ip_to_int("10.2.1.2"), 10000, 40000, b"bulk")
    ctl_frame = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                                ip_to_int("10.2.1.2"), 10000, 179, b"bgp")
    # band [0, 1] freezes the AIMD loop (occupancy can never leave the
    # band), so the pinned rate below stays exactly where we put it.
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0,
                     overload_policy="priority-shed",
                     overload_opts={"band_lo": 0.0,
                                    "band_hi": 1.0}) as lvrm:
        ctl = lvrm.overload
        assert ctl is not None
        # Pin bulk to a trickle so shedding is observable immediately.
        ctl.set_rate(2, 0.25)
        n = lvrm.dispatch_many([bulk] * 8 + [ctl_frame] * 2)
        assert n == 4                       # 2 of 8 bulk + both control
        assert ctl.shed[2] == 6 and ctl.shed[0] == 0
        # Scalar path sheds read as a False return (backpressure).
        results = [lvrm.dispatch(bulk) for _ in range(8)]
        assert results.count(True) == 2
        state = json.loads(lvrm.admin_state().handle("/overload")[2])
        assert state["classes"]["bulk"]["shed"] == 12
        for cls in state["classes"].values():
            assert cls["offered"] == cls["admitted"] + cls["shed"]
        out = lvrm.drain_until(6, timeout=20.0)
        assert len(out) == 6                # everything admitted forwards


@pytest.mark.timeout(120)
def test_runtime_scenario_drill_conserves_and_resumes():
    from repro.faults.scenario import run_runtime_scenario

    report = run_runtime_scenario(_kill_schedule(), duration=2.0,
                                  overload_policy="tail-drop",
                                  overload_x=4.0)
    state = report["overload"]["state"]
    for name, cls in state["classes"].items():
        assert cls["offered"] == cls["admitted"] + cls["shed"], name
    assert sum(c["offered"] for c in state["classes"].values()) \
        == report["offered"]
    assert report["resumed_ok"]


@pytest.mark.timeout(120)
def test_runtime_priority_shed_drill_sheds_bulk_never_control():
    """The runtime drill's offer tracks service (overload_x times the
    previous turn's drain), so at 4x the data rings fill whatever the
    workers' speed, and priority-shed sheds bulk and never control."""
    import pathlib

    from repro.faults.scenario import run_runtime_scenario

    path = (pathlib.Path(__file__).resolve().parent.parent / "examples"
            / "configs" / "overload_priority.json")
    opts = json.loads(path.read_text(encoding="utf-8"))["overload"]
    report = run_runtime_scenario(_kill_schedule(), duration=2.0,
                                  overload_policy=opts["policy"],
                                  overload_x=4.0, overload_opts=opts)
    classes = report["overload"]["state"]["classes"]
    assert sum(c["shed"] for c in classes.values()) > 0
    assert classes["control"]["shed"] == 0
    for name, cls in classes.items():
        assert cls["offered"] == cls["admitted"] + cls["shed"], name
    assert report["resumed_ok"]
