"""Integration tests: every experiment reproduces the paper's *shape*.

Each test runs the real experiment harness under a miniature profile and
asserts the qualitative claims of Chapter 4 (orderings, staircases,
bounds) rather than absolute numbers — the substitution contract of
DESIGN.md.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import QUICK, run_experiment
from repro.experiments.common import get_profile
from repro.experiments.exp1_overhead import exp1a_cpu, exp1c, exp1d, exp1e
from repro.experiments.exp2_core_alloc import (exp2a, exp2b,
                                               exp2c_reaction, exp2e)
from repro.experiments.exp3_load_balance import exp3a, exp3b, run_ftp_scenario
from repro.errors import ConfigError
from tests import des_cases

#: Sub-QUICK profile for the search-heavy tests.
TESTP = dataclasses.replace(
    QUICK, name="test", frame_sizes=(84, 1538), probes=5,
    window=0.015, warmup=0.005, ping_count=30, trace_frames=8000,
    ctrl_events=25, ramp_step=0.22, allocation_period=0.045,
    rate_scale=0.15, ftp_sessions=8, ftp_window=0.2, ftp_warmup=0.15,
    exp4_flows=(10,), exp4_window=0.2)


def test_profile_selection(monkeypatch):
    assert get_profile("quick").name == "quick"
    monkeypatch.setenv("REPRO_PROFILE", "bench")
    assert get_profile().name == "bench"
    with pytest.raises(ConfigError):
        get_profile("nope")


def test_registry_rejects_unknown():
    with pytest.raises(ConfigError):
        run_experiment("exp99", QUICK)


# -- Experiment 1 ------------------------------------------------------------------

def test_exp1c_lvrm_only_throughput_shape():
    r = exp1c(TESTP)
    cpp84 = r.value("mfps", vr_type="cpp", frame_size=84)
    cpp1538 = r.value("mfps", vr_type="cpp", frame_size=1538)
    click84 = r.value("mfps", vr_type="click", frame_size=84)
    # Anchors: multi-Mfps at 84 B, ~1 Mfps (=> ~11 Gbps) at 1538 B.
    assert cpp84 > 2.0
    assert 0.7 < cpp1538 < 1.2
    assert r.value("gbps", vr_type="cpp", frame_size=1538) > 9.0
    # Click VR trails C++ VR decisively.
    assert click84 < cpp84 / 3


def test_exp1d_lvrm_only_latency_shape():
    r = exp1d(TESTP)
    for size in TESTP.frame_sizes:
        cpp = r.value("latency_us", vr_type="cpp", frame_size=size)
        click = r.value("latency_us", vr_type="click", frame_size=size)
        assert cpp < 15.0          # the paper's "within 15 us"
        assert click < 40.0        # and Click's 25-35 us band
        assert click > cpp


def test_exp1e_control_latency_shape():
    r = exp1e(TESTP)
    for size in (64, 256, 512, 1024):
        no_load = r.value("latency_us", load="no-load", event_bytes=size)
        full = r.value("latency_us", load="full-load", event_bytes=size)
        assert no_load < 15.0
        assert full < 25.0
        assert full >= no_load * 0.95  # full load never cheaper (noise-tolerant)


def test_exp1a_mechanism_ordering_at_84b():
    r = run_experiment("exp1a", TESTP)
    fps = {m: r.value("kfps", mechanism=m, frame_size=84)
           for m in ("native", "lvrm-cpp-pfring", "lvrm-cpp-raw",
                     "lvrm-click-pfring", "vmware", "qemu-kvm")}
    # PF_RING LVRM ~= native (within 5%).
    assert fps["lvrm-cpp-pfring"] > 0.95 * fps["native"]
    # Raw socket is the paper's ~-1/3 at minimum frames.
    assert fps["lvrm-cpp-raw"] < 0.8 * fps["lvrm-cpp-pfring"]
    # Click < C++; hypervisors worst; KVM pathological.
    assert fps["lvrm-click-pfring"] < fps["lvrm-cpp-raw"]
    assert fps["vmware"] < fps["lvrm-click-pfring"]
    assert fps["qemu-kvm"] < fps["vmware"] / 3


def test_exp1a_large_frames_converge_to_link_rate():
    r = run_experiment("exp1a", TESTP)
    for m in ("native", "lvrm-cpp-pfring", "lvrm-cpp-raw"):
        mbps = r.value("mbps", mechanism=m, frame_size=1538)
        assert mbps > 900.0  # all land near the 1G wire


def test_exp1a_cpu_breakdown():
    r = exp1a_cpu(TESTP)
    native = r.by(mechanism="native")[0]
    raw = r.by(mechanism="lvrm-cpp-raw")[0]
    pfring = r.by(mechanism="lvrm-cpp-pfring")[0]
    cols = r.columns
    us, sy, si = cols.index("us"), cols.index("sy"), cols.index("si")
    # Native: softirq only, mostly idle.
    assert native[si] > 0 and native[us] == 0 and native[sy] == 0
    # Raw socket: system time dominates; PF_RING: user time dominates.
    assert raw[sy] > raw[us]
    assert pfring[us] > 0.9 and pfring[sy] == 0


def test_exp1b_rtt_ordering():
    r = run_experiment("exp1b", TESTP)
    native = r.value("rtt_us", mechanism="native", frame_size=84)
    pfring = r.value("rtt_us", mechanism="lvrm-cpp-pfring", frame_size=84)
    vmware = r.value("rtt_us", mechanism="vmware", frame_size=84)
    kvm = r.value("rtt_us", mechanism="qemu-kvm", frame_size=84)
    # The paper's band: LVRM ~= native, both ~70-120 us.
    assert 60 < native < 130
    assert pfring < native * 1.25
    assert vmware > 2.5 * native
    assert kvm > vmware


# -- Experiment 2 -----------------------------------------------------------------

def test_exp2a_affinity_ordering():
    r = exp2a(TESTP)
    cpp = {row[1]: row[2] for row in r.by(vr_type="cpp")}
    assert cpp["sibling"] >= cpp["non-sibling"] > cpp["default"] > cpp["same"]
    click = {row[1]: row[2] for row in r.by(vr_type="click")}
    # Click is bottlenecked by its own pipeline: sibling ~= non-sibling.
    assert click["non-sibling"] > 0.9 * click["sibling"]
    assert click["same"] < 0.7 * click["sibling"]


def test_exp2b_scales_then_drops_past_cores():
    r = exp2b(TESTP)
    cpp = {row[1]: row[2] for row in r.by(vr_type="cpp")}
    # Linear-ish region: within 7% of ideal 60c up to 6 cores.
    for c in range(1, 7):
        assert cpp[c] == pytest.approx(min(60.0 * c, 360.0), rel=0.08)
    # Past the 7 free cores, contention bites.
    assert cpp[8] < cpp[7]


def test_exp2c_staircase_tracks_ramp():
    # The golden-pinned exp2c run at bench/'s des_ramp scale, shared with
    # test_des_golden.py and test_determinism.py (one simulation for all).
    rows = [(t, rate, cores) for t, rate, cores
            in des_cases.first("exp2c_bench_scale")["rows"]]
    by_rate = {}
    for _t, rate, cores in rows:
        by_rate.setdefault(rate, []).append(cores)
    # Monotone in offered rate: more load, at least as many cores.
    rates = sorted(set(r for _t, r, _c in rows))
    means = [np.mean(by_rate[rate]) for rate in rates]
    assert all(b >= a - 0.51 for a, b in zip(means, means[1:]))
    # Peak rate (360 Kfps paper scale) drives near the 7-core budget.
    peak_cores = max(c for _t, r, c in rows)
    assert peak_cores >= 6
    # Low rate allocates little.
    low = min(c for t, r, c in rows if r == rates[1])
    assert low <= 3


def test_exp2c_reaction_times_within_paper_bounds():
    r = exp2c_reaction(TESTP)
    alloc = r.by(kind="allocate")[0]
    dealloc = r.by(kind="deallocate")[0]
    cols = r.columns
    mean_us, max_us = cols.index("mean_us"), cols.index("max_us")
    # Paper: allocations within 900 us, deallocations within 700 us,
    # allocations costlier (vfork vs kill).
    assert alloc[max_us] < 1000.0
    assert dealloc[max_us] < 800.0
    assert alloc[mean_us] > dealloc[mean_us]


def test_exp2e_cores_track_service_ratio():
    r = exp2e(TESTP)
    vr1 = r.value("cores", vr="vr1")
    vr2 = r.value("cores", vr="vr2")
    # VR1's VRIs are twice as slow: about twice the cores.
    assert vr1 > vr2
    assert 1.4 < vr1 / vr2 < 3.0


# -- Experiment 3 ------------------------------------------------------------------

def test_exp3a_schemes_all_near_ideal_jsq_best():
    r = exp3a(TESTP)
    cpp = {row[1]: row[2] for row in r.by(vr_type="cpp")}
    ideal = r.by(vr_type="cpp")[0][3]
    for scheme, kfps in cpp.items():
        assert kfps > 0.93 * ideal
    assert cpp["jsq"] >= cpp["random"] - 0.02 * ideal
    assert cpp["jsq"] >= cpp["rr"] - 0.02 * ideal


def test_exp3b_two_vrs_fair():
    r = exp3b(TESTP)
    for row in r.rows:
        _vr, _scheme, t_kfps, ideal = row
        assert t_kfps > 0.9 * ideal


def test_exp3c_ftp_scenario_properties():
    from repro.metrics import jain_index, max_min_fairness
    from repro.experiments.exp2_core_alloc import DUMMY_LOAD_1_60MS
    results = {}
    for label, mech, scheme, flow in (
            ("native", "native", "jsq", False),
            ("frame-jsq", "lvrm", "jsq", False),
            ("flow-jsq", "lvrm", "jsq", True)):
        goodputs, _s, _sim = run_ftp_scenario(
            TESTP, mech, scheme, flow, TESTP.ftp_sessions,
            dummy_load=DUMMY_LOAD_1_60MS)
        results[label] = goodputs
    for label, g in results.items():
        agg = g.sum()
        # Aggregate sits below the link, in the read-limited regime.
        assert 0.4e9 < agg < 1.0e9, label
        assert max_min_fairness(g) > 0.5, label
        assert jain_index(g) > 0.85, label
    # LVRM tracks native closely.
    assert results["frame-jsq"].sum() > 0.85 * results["native"].sum()
    assert results["flow-jsq"].sum() > 0.85 * results["native"].sum()


# -- Experiment 4 -----------------------------------------------------------------

def test_exp4_scalability_properties():
    from repro.metrics import jain_index, max_min_fairness
    for mech, scheme, flow in (("native", "jsq", False),
                               ("lvrm", "jsq", False)):
        goodputs, _s, _sim = run_ftp_scenario(
            TESTP, mech, scheme, flow, n_sessions=10,
            read_rate_spread=0.15)
        # Near-homogeneous GETs: very high fairness (paper: >0.8/>0.99).
        assert max_min_fairness(goodputs) > 0.75
        assert jain_index(goodputs) > 0.97
        assert goodputs.sum() > 0.5e9
