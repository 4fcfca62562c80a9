"""The data plane's one idle-wait schedule."""

import time

import pytest

from repro.ipc.wait import WaitPolicy


def _record_sleeps(monkeypatch):
    naps = []
    monkeypatch.setattr(time, "sleep", naps.append)
    return naps


def test_wait_policy_schedule(monkeypatch):
    """64 ``time.sleep(0)`` naps, then sleeps from 20 µs doubling to a
    200 µs cap; only the positive ones count as sleeps."""
    naps = _record_sleeps(monkeypatch)
    policy = WaitPolicy()
    for _ in range(80):
        policy.idle()
    assert naps[:64] == [0] * 64
    assert naps[64:] == pytest.approx(
        [20e-6, 40e-6, 80e-6, 160e-6] + [200e-6] * 12, rel=1e-12)
    assert policy.sleeps == 16


def test_wait_policy_reset_returns_to_naps(monkeypatch):
    naps = _record_sleeps(monkeypatch)
    policy = WaitPolicy()
    for _ in range(70):
        policy.idle()
    policy.reset()
    del naps[:]
    for _ in range(65):
        policy.idle()
    assert naps == pytest.approx([0] * 64 + [20e-6], rel=1e-12)
    # Reset drops back to the fast path; it does not forget past sleeps.
    assert policy.sleeps == 6 + 1

