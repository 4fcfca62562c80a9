"""Runtime backend: worker health, respawn, and service-rate reporting."""

import os
import signal
import time

import pytest

from repro.errors import RuntimeBackendError
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.runtime import RuntimeLvrm


def _frame():
    return build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                           ip_to_int("10.2.1.2"), 1, 2, b"health")


@pytest.mark.timeout(90)
def test_dead_worker_detected_and_respawned():
    with RuntimeLvrm(n_vris=2, worker_lifetime=60.0) as lvrm:
        victim = lvrm.vris[0]
        victim.process.kill()
        victim.process.join(5.0)
        dead = lvrm.dead_workers()
        assert [v.vri_id for v in dead] == [victim.vri_id]
        assert lvrm.respawn_dead() == 1
        assert lvrm.respawned == 1
        assert not lvrm.dead_workers()
        # The replacement carries the same id on a fresh process...
        replacement = lvrm.vris[0]
        assert replacement.vri_id == victim.vri_id
        assert replacement.process.pid != victim.process.pid
        # ...and actually forwards.
        frame = _frame()
        for _ in range(10):
            while not lvrm.dispatch(frame):
                time.sleep(1e-4)
        out = lvrm.drain_until(10, timeout=20.0)
        assert len(out) == 10


@pytest.mark.timeout(90)
def test_respawn_noop_when_all_alive():
    with RuntimeLvrm(n_vris=2, worker_lifetime=60.0) as lvrm:
        assert lvrm.dead_workers() == []
        assert lvrm.respawn_dead() == 0


@pytest.mark.timeout(90)
def test_failed_respawn_leaves_no_closed_handle(monkeypatch):
    """A replacement spawn that raises leaves the pool one worker short:
    the retired handle is gone from ``vris``, every remaining ring is
    still readable, and ``stop()`` unlinks every segment."""
    before = _shm_entries()
    lvrm = RuntimeLvrm(n_vris=2, worker_lifetime=60.0)
    try:
        victim, survivor = lvrm.vris
        victim.process.kill()
        victim.process.join(5.0)

        def failing_spawn(vri_id, core_id):
            raise RuntimeBackendError("spawn refused")

        monkeypatch.setattr(lvrm, "_spawn", failing_spawn)
        with pytest.raises(RuntimeBackendError):
            lvrm.respawn_dead()
        monkeypatch.undo()
        assert len(lvrm.vris) == 1 and lvrm.vris[0] is survivor
        assert all(len(ring) >= 0 for v in lvrm.vris for ring in v.rings())
    finally:
        lvrm.stop()
    assert lvrm.vris == []
    after = _shm_entries()
    if after is not None:
        assert after - before == set()


@pytest.mark.timeout(90)
def test_service_rate_reported_upstream():
    frame = _frame()
    with RuntimeLvrm(n_vris=1, worker_lifetime=60.0,
                     report_service_rate=True) as lvrm:
        # Push enough frames to cross the worker's report batch (64).
        sent = 0
        deadline = time.monotonic() + 30
        while sent < 200 and time.monotonic() < deadline:
            if lvrm.dispatch(frame):
                sent += 1
            else:
                lvrm.drain()
                time.sleep(1e-4)
        lvrm.drain_until(sent, timeout=20.0)
        deadline = time.monotonic() + 10
        while lvrm.vris[0].reported_rate == 0.0 \
                and time.monotonic() < deadline:
            lvrm.pump_control()
            time.sleep(1e-3)
        assert lvrm.vris[0].reported_rate > 0.0


def _shm_entries():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: nothing to assert against
        return None


@pytest.mark.timeout(90)
def test_stop_leaves_no_shm_segments():
    before = _shm_entries()
    with RuntimeLvrm(n_vris=2, worker_lifetime=60.0) as lvrm:
        during = _shm_entries()
        if during is not None:
            # 4 rings per worker, all visible while the monitor runs.
            assert len(during - before) == 8
        lvrm.dispatch(_frame())
        lvrm.drain()
    after = _shm_entries()
    if after is not None:
        assert after - before == set()


@pytest.mark.timeout(90)
def test_stop_leaves_no_shm_segments_arena_plane():
    """The arena data plane adds a 9th segment (the frame arena itself,
    shared by both workers); stop() must unlink it with the rings."""
    before = _shm_entries()
    with RuntimeLvrm(n_vris=2, worker_lifetime=60.0,
                     data_plane="arena") as lvrm:
        during = _shm_entries()
        if during is not None:
            assert len(during - before) == 9   # 4 rings x 2 + the arena
        lvrm.dispatch(_frame())
        lvrm.drain()
    after = _shm_entries()
    if after is not None:
        assert after - before == set()


def _wait_stopped(pid: int, timeout: float = 10.0) -> None:
    """Block until ``pid`` is in the stopped state (SIGSTOP delivered)."""
    deadline = time.monotonic() + timeout
    while True:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        if state in ("T", "t"):
            return
        assert time.monotonic() < deadline, f"pid {pid} never stopped"
        time.sleep(1e-3)


@pytest.mark.timeout(90)
def test_remove_worker_reclaims_stranded_arena_chunks():
    """A failed-over worker's stranded descriptors give their arena
    chunks back: N echoed frames wait in ``data_out``, M dispatched after
    a SIGSTOP wait in ``data_in``; ``remove_worker`` frees all N + M and
    the arena's in-use bytes return to their pre-dispatch value."""
    n_echoed, n_queued = 24, 24
    frame = _frame()
    with RuntimeLvrm(n_vris=1, worker_lifetime=60.0,
                     data_plane="arena") as lvrm:
        vri = lvrm.vris[0]
        idle = lvrm.arena.inuse_bytes()
        for _ in range(n_echoed):
            assert lvrm.dispatch(frame)
        deadline = time.monotonic() + 20.0
        while len(vri.data_out) < n_echoed:
            assert time.monotonic() < deadline, "worker never echoed"
            time.sleep(1e-3)
        os.kill(vri.process.pid, signal.SIGSTOP)
        _wait_stopped(vri.process.pid)
        for _ in range(n_queued):
            assert lvrm.dispatch(frame)
        assert len(vri.data_in) == n_queued
        assert lvrm.arena.inuse_bytes() > idle
        lvrm.remove_worker(vri)
        assert lvrm.stranded_reclaimed == n_echoed + n_queued
        assert lvrm.arena.inuse_bytes() == idle


class _FailingCtx:
    """A mp context whose Nth Process() construction fails.

    Models fork failure (EAGAIN) after some workers already came up —
    the constructor must then unlink the survivors' segments too, since
    the caller never receives a monitor to stop().
    """

    def __init__(self, real, fail_on):
        self._real = real
        self._fail_on = fail_on
        self._calls = 0

    def Process(self, *args, **kwargs):
        self._calls += 1
        if self._calls >= self._fail_on:
            raise OSError("fork: Resource temporarily unavailable")
        return self._real.Process(*args, **kwargs)


@pytest.mark.timeout(90)
def test_spawn_failure_leaves_no_shm_segments(monkeypatch):
    import repro.runtime.monitor as monitor_mod

    real_get_context = monitor_mod.mp.get_context
    monkeypatch.setattr(
        monitor_mod.mp, "get_context",
        lambda kind: _FailingCtx(real_get_context(kind), fail_on=2))
    before = _shm_entries()
    with pytest.raises(OSError):
        RuntimeLvrm(n_vris=3, worker_lifetime=60.0)
    after = _shm_entries()
    if after is not None:
        # Neither the failed slot's rings nor the already-spawned
        # worker's may survive the constructor.
        assert after - before == set()


@pytest.mark.timeout(90)
def test_spawn_failure_leaves_no_shm_segments_arena_plane(monkeypatch):
    """Spawn-failure unwind must also unlink the arena segment, which
    is created before any worker comes up."""
    import repro.runtime.monitor as monitor_mod

    real_get_context = monitor_mod.mp.get_context
    monkeypatch.setattr(
        monitor_mod.mp, "get_context",
        lambda kind: _FailingCtx(real_get_context(kind), fail_on=2))
    before = _shm_entries()
    with pytest.raises(OSError):
        RuntimeLvrm(n_vris=3, worker_lifetime=60.0, data_plane="arena")
    after = _shm_entries()
    if after is not None:
        assert after - before == set()


@pytest.mark.timeout(90)
def test_cluster_failover_replaces_killed_active_and_cleans_shm():
    """Runtime twin of the DES failover drill: SIGKILL the whole active,
    let the director promote the standby, and verify the corpse's
    segments left /dev/shm while the promoted member kept forwarding."""
    from repro.cluster.runtime import run_runtime_failover_scenario

    before = _shm_entries()
    report = run_runtime_failover_scenario(duration=2.5, kill_at=0.8,
                                           rate_fps=1000.0)
    assert report["ok"]
    assert report["failover"]["promoted"] == "m1"
    assert report["within_budget"]
    assert report["routes_on_standby"] == 12
    after = _shm_entries()
    if after is not None and before is not None:
        assert after - before == set()


@pytest.mark.timeout(90)
def test_cluster_director_dedupes_supervised_worker_death():
    """A worker death the member's own Supervisor already debounced must
    reach the cluster ledger exactly once (via the death epoch), and
    must never be escalated to an instance failover."""
    from repro.cluster.runtime import RuntimeFederation

    fed = RuntimeFederation(n_vris=2, supervised_active=True)
    try:
        victim = fed.active.lvrm.vris[0]
        victim.process.kill()
        victim.process.join(2.0)
        deadline = time.monotonic() + 20.0
        while (fed.active.supervisor.death_epoch == 0
               and time.monotonic() < deadline):
            fed.active.supervisor.poll()
            time.sleep(0.02)
        assert fed.active.supervisor.death_epoch == 1
        fed.director.probe()
        fed.director.probe()   # same epoch: still counted once
        (deaths,) = fed.director.registry.find("cluster_deaths_total",
                                               instance="m0")
        assert deaths.value == 1
        assert fed.director.failovers == []
        assert fed.vip == "m0"
    finally:
        fed.close()
