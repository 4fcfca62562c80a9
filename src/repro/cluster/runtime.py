"""Real-process federation: an active/standby ``RuntimeLvrm`` pair.

The runtime twin of :class:`repro.cluster.federation.DesFederation`,
restricted (like the runtime backend itself) to the mechanism proof:
one HA pair of real monitor processes, a real shared-memory control
ring carrying ``KIND_REPLICATE`` / ``KIND_ELECT`` / ``KIND_VIP_MOVE``
events between them, and the same :class:`ClusterDirector` detecting
the kill and promoting the standby.

Two deliberate asymmetries against the DES federation:

* **No per-member Supervisor in the failover drill.**  Instance-level
  HA supersedes intra-instance restarts here: the scenario kills every
  worker of the active at once, which a worker supervisor would fight
  by respawning them.  (A member *can* carry one — the death-epoch
  dedup test runs that configuration — the canned drill just doesn't.)
* **Route state only is replicated.**  The runtime balancer is
  stateless round-robin (no flow table), so the pin half of the delta
  is always empty; the route half exercises the same wire path.
"""

from __future__ import annotations

import struct
import time
from typing import Dict, List, Optional

from repro.errors import RuntimeBackendError
from repro.ipc.ring import SpscRing, ring_bytes_needed
from repro.ipc.messages import (ControlEvent, KIND_ELECT, KIND_REPLICATE,
                                KIND_VIP_MOVE, decode_event, encode_event)
from repro.ipc.shm import SharedSegment
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.obs.registry import default_registry
from repro.routing.prefix import Prefix
from repro.routing.sync import RouteUpdate
from repro.runtime.monitor import RuntimeLvrm
from repro.runtime.supervisor import Supervisor, SupervisorPolicy
from repro.cluster.director import ClusterDirector
from repro.cluster.replication import DeltaSource, ReplicaState

__all__ = ["RuntimeMember", "RuntimeFederation",
           "run_runtime_failover_scenario"]

_ELECT = struct.Struct("<HI")    # member index, election term
_VIP_MOVE = struct.Struct("<H")  # member index

_REPL_CAPACITY = 256
_REPL_SLOT = 4096


class RuntimeMember:
    """One real-process member: a monitor plus its HA state.  Implements
    the director's member protocol over live worker processes."""

    def __init__(self, member_id: str, role: str, n_vris: int = 2,
                 heartbeat_interval: float = 0.1,
                 supervised: bool = False,
                 policy: Optional[SupervisorPolicy] = None):
        self.member_id = member_id
        self.role = role
        self.lvrm = RuntimeLvrm(n_vris=n_vris, worker_lifetime=60.0,
                                heartbeat_interval=heartbeat_interval)
        self.supervisor = (Supervisor(self.lvrm,
                                      policy or SupervisorPolicy())
                           if supervised else None)
        self.replica = ReplicaState()
        self.delta = DeltaSource()
        #: Driver-maintained forward-progress count (frames drained).
        self.forwarded = 0
        #: Active-side installed route view (prefix -> update).
        self.routes: Dict = {}
        self.promoted_at: Optional[float] = None
        self.stopped = False

    # -- director protocol ---------------------------------------------------
    def instance_alive(self) -> bool:
        vris = self.lvrm.vris
        return bool(vris) and any(v.process.is_alive() for v in vris)

    def heartbeat_age(self, now: float) -> float:
        ages = self.lvrm.heartbeat_ages()
        return min(ages.values()) if ages else float("inf")

    def progress_watermark(self) -> int:
        return self.forwarded

    def backlog(self) -> int:
        # The driver dispatches and drains synchronously; rings are the
        # only queue and their occupancy is not worth a hang verdict.
        return 0

    def death_epoch(self) -> int:
        return self.supervisor.death_epoch if self.supervisor else 0

    def registry_snapshot(self) -> Optional[Dict]:
        tag = self.lvrm.obs_id
        snapshot = default_registry().snapshot()
        metrics = [m for m in snapshot["metrics"]
                   if m.get("labels", {}).get("rt") == tag]
        return {"v": snapshot["v"], "metrics": metrics}

    # -- plumbing ------------------------------------------------------------
    def pump(self) -> None:
        if self.lvrm.vris:
            self.lvrm.pump_control()

    def drain(self) -> int:
        if not self.lvrm.vris:
            return 0
        got = len(self.lvrm.drain())
        self.forwarded += got
        return got

    def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            self.lvrm.stop()


class RuntimeFederation:
    """An m0 (active) / m1 (standby) pair over a real replication ring."""

    def __init__(self, n_vris: int = 2, heartbeat_interval: float = 0.1,
                 probe_period: float = 0.25, crash_timeout: float = 1.0,
                 repl_period: float = 0.1,
                 supervised_active: bool = False):
        self.active = RuntimeMember("m0", "active", n_vris,
                                    heartbeat_interval,
                                    supervised=supervised_active)
        self.standby = RuntimeMember("m1", "standby", n_vris,
                                     heartbeat_interval)
        self.members: Dict[str, RuntimeMember] = {
            "m0": self.active, "m1": self.standby}
        self.vip = "m0"
        self.repl_period = repl_period
        #: Worst case: one heartbeat interval of staleness + one probe
        #: period of detection latency, both well inside two probes.
        self.failover_budget = 2 * probe_period
        self._term = 0
        self.bus: Dict[str, int] = {"replicate": 0, "vip_move": 0,
                                    "elect": 0}
        self.bus_bytes = 0
        self.routes_announced = 0
        # The control ring is a real shared segment: what two monitor
        # processes on one host would actually share.
        self._repl_seg = SharedSegment.create(
            ring_bytes_needed(_REPL_CAPACITY, _REPL_SLOT))
        self._repl_tx = SpscRing(self._repl_seg.buf, _REPL_CAPACITY,
                                 _REPL_SLOT, create=True)
        self._repl_rx = SpscRing.attach(self._repl_seg.buf)
        self.director = ClusterDirector(
            list(self.members.values()), clock=time.monotonic,
            probe_period=probe_period, crash_timeout=crash_timeout,
            hang_timeout=10 * crash_timeout, on_failover=self._promote,
            slo_rules=[{"name": "fast-failover",
                        "kind": "failover_time_ms",
                        "threshold": self.failover_budget * 1e3}])
        self._closed = False

    # -- traffic path --------------------------------------------------------
    def owner(self) -> RuntimeMember:
        return self.members[self.vip]

    def dispatch(self, frame: bytes) -> bool:
        owner = self.owner()
        if not owner.lvrm.vris:
            return False
        try:
            return owner.lvrm.dispatch(frame)
        except RuntimeBackendError:
            return False

    def drain(self) -> int:
        return sum(m.drain() for m in self.members.values())

    def pump(self) -> None:
        for member in self.members.values():
            member.pump()

    # -- replication ---------------------------------------------------------
    def announce_routes(self, updates: List[RouteUpdate]) -> None:
        owner = self.owner()
        for update in updates:
            if update.withdraw:
                owner.routes.pop(update.prefix, None)
            else:
                owner.routes[update.prefix] = update
        owner.delta.note_routes(updates)
        self.routes_announced += len(updates)

    def replicate(self) -> None:
        """One replication beat: active ships a delta, standby applies
        whatever has arrived on the ring."""
        owner = self.owner()
        if owner.promoted_at is None:   # only the original active ships
            payload = self.active.delta.delta({})
            if payload is not None:
                self._send(KIND_REPLICATE, payload, "replicate")
        while True:
            record = self._repl_rx.try_pop()
            if record is None:
                break
            event = decode_event(record)
            if event.kind == KIND_REPLICATE:
                self.standby.replica.apply(event.payload)

    def _send(self, kind: int, payload: bytes, counter: str) -> None:
        data = encode_event(ControlEvent(kind, 0, 0, payload,
                                         t_sent=time.monotonic()))
        if self._repl_tx.try_push(data):
            self.bus[counter] += 1
            self.bus_bytes += len(data)

    # -- chaos + failover ----------------------------------------------------
    def kill_active(self) -> None:
        """SIGKILL every worker of the VIP owner (the whole instance)."""
        for vri in list(self.owner().lvrm.vris):
            if vri.process.is_alive():
                vri.process.kill()
        for vri in list(self.owner().lvrm.vris):
            vri.process.join(1.0)

    def _promote(self, failed: RuntimeMember, reason: str
                 ) -> Optional[str]:
        if failed.member_id != self.vip:
            return None
        standby = self.standby if failed is self.active else self.active
        if not standby.instance_alive():
            return None
        # Route state was applied on receipt; promotion just adopts it.
        for update in standby.replica.route_updates():
            standby.routes[update.prefix] = update
        standby.role = "active"
        standby.promoted_at = time.monotonic()
        self.vip = standby.member_id
        self._term += 1
        index = list(self.members).index(standby.member_id)
        self._send(KIND_ELECT, _ELECT.pack(index, self._term), "elect")
        self._send(KIND_VIP_MOVE, _VIP_MOVE.pack(index), "vip_move")
        return standby.member_id

    def retire(self, member_id: str) -> None:
        """Tear the failed member down (joins corpses, unlinks shm)."""
        self.members[member_id].stop()

    # -- views + lifecycle ---------------------------------------------------
    def cluster_view(self) -> Dict:
        now = time.monotonic()
        members = []
        for member in self.members.values():
            members.append({
                "id": member.member_id, "role": member.role,
                "alive": member.instance_alive(),
                "workers": len(member.lvrm.vris),
                "forwarded": member.forwarded,
                "routes": len(member.routes),
                "replica_seq": member.replica.seq,
            })
        return {"backend": "runtime", "members": members,
                "vip": self.vip, "bus": dict(self.bus),
                "bus_bytes": self.bus_bytes,
                "director": self.director.view(now)}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for member in self.members.values():
            member.stop()
        self._repl_tx.close()
        self._repl_rx.close()
        self._repl_seg.close()


def run_runtime_failover_scenario(duration: float = 4.0,
                                  kill_at: float = 1.2,
                                  n_vris: int = 2,
                                  rate_fps: float = 2000.0,
                                  n_routes: int = 12,
                                  admin_port: Optional[int] = None
                                  ) -> Dict:
    """The kill-the-active drill over real processes.

    Drives the pair from a wall-clock loop: paced dispatch to the VIP
    owner, periodic replication and director probes, a SIGKILL of every
    active worker at ``kill_at``, then verification that the standby
    was promoted inside the budget and kept forwarding.  With
    ``admin_port`` the director's registry (and ``/cluster``) is served
    over loopback HTTP for the CI smoke to curl mid-failover.
    """
    fed = RuntimeFederation(n_vris=n_vris)
    admin = None
    if admin_port is not None:
        from repro.obs.admin import AdminServer, AdminState
        admin = AdminServer(AdminState(fed.director.registry,
                                       cluster_fn=fed.cluster_view),
                            port=admin_port).start()
    try:
        fed.announce_routes([
            RouteUpdate(Prefix.parse(f"10.{60 + i}.0.0/16"),
                        iface=1, metric=2)
            for i in range(n_routes)])
        frame = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                                ip_to_int("10.2.1.2"), 1000, 2000,
                                b"federation")
        tick = 0.01
        per_tick = max(1, int(rate_fps * tick))
        t0 = time.monotonic()
        next_repl = next_probe = 0.0
        killed = False
        retired = False
        pre_forwarded = post_base = None
        while True:
            elapsed = time.monotonic() - t0
            if elapsed >= duration:
                break
            for _ in range(per_tick):
                fed.dispatch(frame)
            fed.pump()
            fed.drain()
            if elapsed >= next_repl:
                fed.replicate()
                next_repl = elapsed + fed.repl_period
            if elapsed >= next_probe:
                fed.director.probe()
                next_probe = elapsed + fed.director.probe_period
            if not killed and elapsed >= kill_at:
                pre_forwarded = fed.active.forwarded
                fed.kill_active()
                killed = True
            if killed and not retired and fed.director.failovers:
                # Promotion happened: reap the corpse so its segments
                # leave /dev/shm while the promoted member serves on.
                fed.retire(fed.director.failovers[0]["member"])
                retired = True
                post_base = fed.standby.forwarded
            time.sleep(0.002)
        fed.drain()
        failover = (fed.director.failovers[0]
                    if fed.director.failovers else None)
        within = (failover is not None
                  and failover["failover_seconds"] <= fed.failover_budget)
        recovered = (post_base is not None
                     and fed.standby.forwarded > post_base)
        report = {
            "backend": "runtime",
            "duration": duration, "kill_at": kill_at,
            "failover": failover,
            "budget_seconds": fed.failover_budget,
            "within_budget": within,
            "pre_kill_forwarded": pre_forwarded,
            "standby_forwarded": fed.standby.forwarded,
            "recovered": recovered,
            "routes_on_standby": len(fed.standby.replica.route_updates()),
            "bus": dict(fed.bus),
            "vip": fed.vip,
            "ok": bool(failover and within and recovered
                       and fed.vip == "m1"
                       and len(fed.standby.replica.route_updates())
                       == n_routes),
        }
        return report
    finally:
        if admin is not None:
            admin.stop()
        fed.close()
