"""Inputs: the oracle, the frames, and the manifest that names them."""

import json
import re

import numpy as np
import pytest

from conftest import ROOT
from loadgen import (CSUM_OFF, TTL0, TTL_OFF, WORKLOADS, Oracle,
                     header_checksum, make_fib, make_pool)


def test_oracle_agrees_with_route_table_on_10k_addresses():
    from repro.errors import RoutingError
    from repro.routing.mapfile import parse_map_lines

    rng = np.random.default_rng(5)
    fib = make_fib(rng, 1024)
    table, _arp = parse_map_lines(fib.map_lines)
    oracle = Oracle(fib)
    # Half under real routes (nested ones included), half anywhere in 10/8
    # and just outside it.
    under = [net | int(rng.integers(0, 1 << (32 - plen)))
             for net, plen, _i in (fib.routes[int(k)] for k in
                                   rng.integers(0, 1024, size=5000))]
    anywhere = (0x09FF0000 + rng.integers(0, 1 << 25, size=5000)).tolist()
    hits = 0
    for ip in under + anywhere:
        try:
            want = table.lookup(int(ip))
        except RoutingError:
            want = -1
        assert oracle.lookup(int(ip)) == want
        hits += want >= 0
    assert 5000 <= hits < 10000      # both outcomes were exercised


def test_same_seed_same_frames_other_seed_other_frames():
    wl = WORKLOADS["paced_mix"]
    a, b, c = make_pool(wl, 3), make_pool(wl, 3), make_pool(wl, 4)
    assert a.burst(0, 64) == b.burst(0, 64)
    assert a.fib.map_lines == b.fib.map_lines
    assert a.burst(0, 64) != c.burst(0, 64)


@pytest.mark.parametrize("name", ["fwd_small", "fwd_large", "paced_mix"])
def test_frames_are_valid_and_expected_frames_are_forwarded_ones(name):
    wl = WORKLOADS[name]
    pool = make_pool(wl, 1)
    frames = pool.burst(1000, 128)
    sizes = {s for s, _w in wl.sizes}
    for k, frame in enumerate(frames):
        seq = 1000 + k
        assert len(frame) in sizes
        raw = np.frombuffer(frame, dtype=np.uint8)
        assert header_checksum(raw[14:34]) == 0          # sums to 0xFFFF
        assert int.from_bytes(frame[42:50], "big") == seq
        iface, want = pool.expected(seq)
        if iface >= 0:
            assert want[TTL_OFF] == TTL0 - 1
            assert header_checksum(np.frombuffer(want, np.uint8)[14:34]) == 0
            # Only TTL and checksum differ from what was sent.
            diff = [i for i in range(len(frame)) if frame[i] != want[i]]
            assert set(diff) <= {TTL_OFF, CSUM_OFF, CSUM_OFF + 1}


def test_fast_byte_check_agrees_with_the_rebuilt_frame():
    pool = make_pool(WORKLOADS["paced_mix"], 9)
    checked = 0
    for seq in range(0, 2000, 7):
        iface, want = pool.expected(seq)
        if iface < 0:
            continue
        checked += 1
        assert pool.intact(seq, want)
        assert not pool.intact(seq + 1, want)            # wrong sequence
        for at in (3, TTL_OFF, CSUM_OFF, 31, 45, len(want) - 1):
            bad = bytearray(want)
            bad[at] ^= 0x40
            assert not pool.intact(seq, bytes(bad)), at
        assert not pool.intact(seq, want + b"\x00")
    assert checked > 250


def test_paced_mix_has_its_drop_flows():
    pool = make_pool(WORKLOADS["paced_mix"], 1)
    n = len(pool.dsts)
    assert int((pool.ttls == 1).sum()) == round(n * 0.01)
    no_route = int(((pool.expect_iface < 0) & (pool.ttls > 1)).sum())
    assert no_route == round(n * 0.01)
    share = 1.0 - pool.returns(np.arange(200_000)).mean()
    assert 0.015 < share < 0.025


def test_closed_loop_destinations_all_route():
    for name in ("fwd_small", "fwd_large"):
        assert (make_pool(WORKLOADS[name], 2).expect_iface >= 0).all()


# -- BENCHMARK.json ----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_manifest_copies_the_workloads_and_their_reasons(manifest):
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]


def test_manifest_keeps_to_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 1 <= manifest["run_seconds"] <= 60
    n_runs = 4 + 22 * len(manifest["workloads"])
    assert n_runs * (manifest["run_seconds"] + 7) <= 3420   # ~7 s overhead
    names = [w["name"] for w in manifest["workloads"]]
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for spec in manifest["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
        names.append(spec["name"])
    for spec in manifest["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
        names.append(spec["name"])
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert len(names) == len(set(names))
    for spec in manifest["end_to_end"] + manifest["per_layer"]:
        assert NAME.match(spec["name"]) and UNIT.match(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    setup = [s for s in manifest["end_to_end"] if s["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(s["bound"]
                                   for s in manifest["end_to_end"])}]
