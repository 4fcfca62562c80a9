"""Reproducibility guarantees: identical seeds give identical results.

The first run of each scenario is shared with ``test_des_golden.py``
(see :mod:`tests.des_cases`), which also pins it against a stored file.
"""

import pytest

from repro.experiments.common import ConfigError, build_lvrm_gateway, udp_trial
from repro.net import Testbed
from repro.sim import Simulator
from tests.des_cases import TINY, first, fresh


def test_exp1c_is_bit_reproducible():
    assert first("exp1c_tiny") == fresh("exp1c_tiny")


def test_exp1e_is_bit_reproducible():
    assert first("exp1e_tiny") == fresh("exp1e_tiny")


def test_udp_trial_is_bit_reproducible():
    assert first("udp_trial_tiny") == fresh("udp_trial_tiny")


def test_udp_trial_rejects_unknown_mechanism():
    with pytest.raises(ConfigError):
        udp_trial("carrier-pigeon", 1000, 84, TINY)


def test_build_gateway_rejects_three_vrs():
    sim = Simulator()
    testbed = Testbed(sim)
    with pytest.raises(ConfigError):
        build_lvrm_gateway(sim, testbed, n_vrs=3)


def test_build_gateway_rejects_short_dummy_tuple():
    sim = Simulator()
    testbed = Testbed(sim)
    with pytest.raises(ConfigError):
        build_lvrm_gateway(sim, testbed, n_vrs=2, dummy_load=(1e-6,))


def test_des_arena_plane_is_bit_reproducible():
    """The arena cost model (``data_plane="arena"``) keeps the DES
    deterministic: two runs give identical frame counts AND identical
    per-frame latency samples (times and values, bit for bit) — the
    descriptor-priced hops and the arena alloc charge must not depend on
    anything outside the seed."""
    from repro.core import (FixedAllocation, Lvrm, LvrmConfig, VrSpec,
                            VrType, make_socket_adapter)
    from repro.hardware import DEFAULT_COSTS, Machine
    from repro.routing.prefix import Prefix
    from repro.traffic.trace import synthetic_trace

    def run():
        sim = Simulator()
        machine = Machine(sim)
        adapter = make_socket_adapter(
            "memory", sim, DEFAULT_COSTS,
            trace=synthetic_trace(1500, 84))
        lvrm = Lvrm(sim, machine, adapter,
                    config=LvrmConfig(data_plane="arena"))
        lvrm.add_vr(VrSpec(name="vr1",
                           subnets=(Prefix.parse("10.1.0.0/16"),),
                           vr_type=VrType.CPP), FixedAllocation(1))
        lvrm.start()
        sim.run(until=10.0)
        s = lvrm.stats
        return (s.captured, s.dispatched, s.forwarded,
                tuple(s.latency.times), tuple(s.latency.values))

    a = run()
    b = run()
    assert a == b
    assert a[0] == a[1] == a[2] == 1500   # not vacuous: traffic flowed
    assert len(a[3]) > 0                  # latency samples were recorded


def test_des_arena_plane_prices_hops_below_copy():
    """Calibration honesty: with the same trace and seed the arena
    variant's mean forwarding latency must be strictly lower than the
    copy plane's (descriptors are cheaper than frame copies), while
    forwarding the same frames."""
    from repro.core import (FixedAllocation, Lvrm, LvrmConfig, VrSpec,
                            VrType, make_socket_adapter)
    from repro.hardware import DEFAULT_COSTS, Machine
    from repro.routing.prefix import Prefix
    from repro.traffic.trace import synthetic_trace

    def run(plane):
        sim = Simulator()
        machine = Machine(sim)
        adapter = make_socket_adapter(
            "memory", sim, DEFAULT_COSTS,
            trace=synthetic_trace(1500, 1500))
        lvrm = Lvrm(sim, machine, adapter,
                    config=LvrmConfig(data_plane=plane))
        lvrm.add_vr(VrSpec(name="vr1",
                           subnets=(Prefix.parse("10.1.0.0/16"),),
                           vr_type=VrType.CPP), FixedAllocation(1))
        lvrm.start()
        sim.run(until=10.0)
        return lvrm.stats

    copy, arena = run("copy"), run("arena")
    assert copy.forwarded == arena.forwarded == 1500
    assert arena.latency.mean() < copy.latency.mean()


def test_fault_scenario_is_bit_reproducible():
    """Same seed + same fault schedule => identical failover runs.

    The determinism contract of docs/RELIABILITY.md: the full scenario
    report — per-VRI frame counts (slot-normalized), per-flow delivery,
    supervisor counters, applied-fault log, even the DES event count —
    must match bit-for-bit across two runs in the same process.
    """
    a = first("fault_scenario")
    b = fresh("fault_scenario")
    assert a == b
    # The faults actually landed (this is not vacuous determinism).
    assert a["faults"]["injected"] == 3
    assert a["supervisor"]["failovers"] == 2


def test_federated_failover_is_bit_reproducible():
    """Killing the active at t is the same blackout every time.

    The determinism contract extends to the cluster: two runs of the
    same federation scenario must agree bit-for-bit on the failover
    time, the drop ledger, the replication/bus counters, and the DES
    event count.
    """
    a = first("federated_failover")
    b = fresh("federated_failover")
    assert a == b
    # Not vacuous: the kill landed, the standby took over, frames died.
    assert a["ok"]
    assert a["failover"]["promoted"] == "m1"
    assert a["failover"]["lost_in_blackout"] > 0
    assert a["failover"]["failover_seconds"] > 0


def test_overload_drill_is_bit_reproducible():
    """The adaptive admission controller stays inside the DES
    determinism contract: two overload drills with the same seed,
    schedule, and policy agree bit-for-bit on the full report —
    per-class offered/admitted/shed, the AIMD update/tighten/relax
    counts, the smoothed occupancy, and the event count.  The stride
    sampler uses no RNG and integer credit, so this holds exactly.
    """
    a = first("overload_drill")
    b = fresh("overload_drill")
    assert a == b
    # Not vacuous: the controller actually engaged under 4x load.
    state = a["overload"]["state"]
    assert state["tightens"] > 0
    assert sum(c["shed"] for c in state["classes"].values()) > 0
    for cls in state["classes"].values():
        assert cls["offered"] == cls["admitted"] + cls["shed"]
