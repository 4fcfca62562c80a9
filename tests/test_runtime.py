"""Tests for the real-OS-process runtime backend.

These spawn genuine child processes connected through shared-memory
SPSC rings — slower than the DES tests, so counts stay modest.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import RuntimeBackendError
from repro.ipc.messages import ControlEvent, KIND_PING
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.runtime import RuntimeLvrm


def _frame(dst="10.2.1.2", payload=b"data"):
    return build_udp_frame(0x020000000001, 0x020000000002,
                           ip_to_int("10.1.1.2"), ip_to_int(dst),
                           10000, 20000, payload)


@pytest.mark.timeout(60)
def test_single_worker_forwards_intact():
    frame = _frame(payload=b"integrity" * 20)
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0) as lvrm:
        for _ in range(50):
            while not lvrm.dispatch(frame):
                time.sleep(1e-4)
        out = lvrm.drain_until(50, timeout=20.0)
    assert len(out) == 50
    assert all(iface == 1 for _v, iface, _f in out)
    assert all(f == frame for _v, _i, f in out)


@pytest.mark.timeout(60)
def test_round_robin_uses_both_workers():
    frame = _frame()
    with RuntimeLvrm(n_vris=2, balancer="rr", worker_lifetime=40.0) as lvrm:
        for _ in range(40):
            while not lvrm.dispatch(frame):
                time.sleep(1e-4)
        out = lvrm.drain_until(40, timeout=20.0)
    assert len(out) == 40
    assert {v for v, _i, _f in out} == {1, 2}


def _proc_state(pid):
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0]


@pytest.mark.timeout(60)
def test_drain_until_calls_instance_drain_and_pump():
    """``drain_until`` reaches ``drain`` and ``pump_control`` through the
    instance, so wrappers set on the instance (the way ``bench/`` times
    them) see every call it makes.  The worker sits stopped for the
    first 50 ms, so some drains come back empty and the idle path runs."""
    calls = {"drain": 0, "pump_control": 0}
    frames = [_frame(payload=bytes([i]) * 32) for i in range(24)]
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0) as lvrm:
        for name in calls:
            inner = getattr(lvrm, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            setattr(lvrm, name, counted)
        pid = lvrm.vris[0].process.pid
        os.kill(pid, signal.SIGSTOP)
        while _proc_state(pid) not in ("T", "t"):
            time.sleep(1e-3)
        resume = threading.Timer(0.05, os.kill, (pid, signal.SIGCONT))
        resume.start()
        try:
            assert lvrm.dispatch_many(frames) == len(frames)
            out = lvrm.drain_until(len(frames), timeout=20.0)
        finally:
            resume.join()
    assert len(out) == len(frames)
    assert sorted(f for _v, _i, f in out) == sorted(frames)
    assert calls["drain"] >= 1
    assert calls["pump_control"] >= 1


@pytest.mark.timeout(60)
def test_reverse_direction_routes_to_iface0():
    reverse = build_udp_frame(0x02, 0x03, ip_to_int("10.2.1.2"),
                              ip_to_int("10.1.1.2"), 1, 2, b"ack")
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0) as lvrm:
        while not lvrm.dispatch(reverse):
            time.sleep(1e-4)
        out = lvrm.drain_until(1, timeout=20.0)
    assert out and out[0][1] == 0


@pytest.mark.timeout(60)
def test_unroutable_frame_dropped():
    stray = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                            ip_to_int("192.168.0.1"), 1, 2, b"x")
    good = _frame()
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0) as lvrm:
        lvrm.dispatch(stray)
        lvrm.dispatch(good)
        out = lvrm.drain_until(1, timeout=20.0)
        # Only the routable frame comes back.
        time.sleep(0.05)
        out.extend(lvrm.drain())
    assert len(out) == 1
    assert out[0][2] == good


@pytest.mark.timeout(60)
def test_control_ping_bounces_between_workers():
    with RuntimeLvrm(n_vris=2, worker_lifetime=40.0) as lvrm:
        # Ask worker 2 to ping "back to" worker 1.
        lvrm.send_control(ControlEvent(KIND_PING, 1, 2, b"marco"))
        deadline = time.monotonic() + 20
        relayed = []
        while time.monotonic() < deadline:
            relayed.extend(lvrm.pump_control())
            if any(ev.kind == KIND_PING and ev.dst_vri == 1
                   for ev in relayed):
                break
            time.sleep(1e-3)
        assert any(ev.kind == KIND_PING and ev.payload == b"marco"
                   and ev.dst_vri == 1 for ev in relayed)


@pytest.mark.timeout(60)
def test_stop_terminates_workers():
    lvrm = RuntimeLvrm(n_vris=2, worker_lifetime=40.0)
    procs = [v.process for v in lvrm.vris]
    lvrm.stop()
    assert all(not p.is_alive() for p in procs)
    with pytest.raises(RuntimeBackendError):
        lvrm.dispatch(_frame())


def test_validation():
    with pytest.raises(RuntimeBackendError):
        RuntimeLvrm(n_vris=0)
    with pytest.raises(RuntimeBackendError):
        RuntimeLvrm(n_vris=1, balancer="wat")
