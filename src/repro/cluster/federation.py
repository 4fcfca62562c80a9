"""The DES federation: N simulated LVRM instances under one clock.

Each member is a full :class:`repro.core.Lvrm` on its own
:class:`~repro.hardware.Machine` (own cores — sharding multiplies
monitor capacity, which is the whole point), fed through a
:class:`VipCapture`: a push-based capture backend standing in for "the
VIP currently routes here".  A federation-level dispatcher classifies
frames by VR subnet, resolves the owning member through the rendezvous
placement, applies the VIP override of the member's HA pair, and pushes.

HA pairs: the active replicates flow pins + route deltas to its standby
every ``repl_period`` as real ``KIND_REPLICATE`` control events
(encoded and decoded through the wire codec, delivered after
``ctrl_latency``).  The :class:`~repro.cluster.director.ClusterDirector`
probes members from heartbeat processes; on a death it calls back into
:meth:`DesFederation._promote`, which installs the replicated pins into
the standby's live flow tables (route state was already applied on
receipt — no re-learning), flips the VIP, and emits ``KIND_ELECT`` /
``KIND_VIP_MOVE`` through the codec.

Everything runs at sim-time priorities only — bit-reproducible by
construction.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.core import FixedAllocation, Lvrm, LvrmConfig, VrSpec
from repro.errors import ConfigError
from repro.hardware import DEFAULT_COSTS, Machine
from repro.ipc.messages import (KIND_ELECT, KIND_REPLICATE, KIND_VIP_MOVE,
                                ControlEvent, decode_event, encode_event)
from repro.net.capture import CaptureBackend
from repro.net.frame import Frame
from repro.obs.registry import default_registry
from repro.routing.sync import RouteUpdate, router_table_of
from repro.cluster.director import ClusterDirector
from repro.cluster.placement import RendezvousPlacement
from repro.cluster.replication import DeltaSource, ReplicaState

__all__ = ["VipCapture", "DesMember", "DesFederation"]

_ELECT = struct.Struct("<HI")    # member index, election term
_VIP_MOVE = struct.Struct("<H")  # member index


class VipCapture(CaptureBackend):
    """Push-based capture: frames arrive because the VIP points here.

    The federation dispatcher :meth:`push`\\ es frames in; the owning
    LVRM's main loop is woken through the same notify contract NIC
    queues use (``set_notify``/``backlog``, armed by the idle park in
    ``Lvrm._run``).
    Costs mirror :class:`~repro.net.capture.MemoryCapture`, scaled by
    ``rx_scale`` — scaling scenarios raise it to model a monitor that
    is itself the bottleneck (the paper's single-process ceiling).
    """

    name = "vip"

    def __init__(self, sim, costs, rx_scale: float = 1.0):
        self.sim = sim
        self.costs = costs
        self.rx_scale = rx_scale
        self._queue: List[Frame] = []
        self._head = 0
        self._notify: Optional[Callable[[], None]] = None
        self._closed = False
        self.pushed = 0
        self.discarded = 0

    # -- the push side -------------------------------------------------------
    def push(self, frame: Frame) -> None:
        frame.t_created = self.sim.now
        self._queue.append(frame)
        self.pushed += 1
        if self._notify is not None:
            self._notify()

    def close(self) -> None:
        """No more input ever (lets memory-trace drain detection fire)."""
        self._closed = True
        if self._notify is not None:
            self._notify()

    # -- the notify contract (duck-typed by Lvrm._run's idle park) ----------
    def set_notify(self, callback: Optional[Callable[[], None]]) -> None:
        self._notify = callback

    def backlog(self) -> int:
        return len(self._queue) - self._head

    # -- CaptureBackend ------------------------------------------------------
    def rx_cost(self, frame: Frame) -> float:
        return (self.costs.memory_rx
                + self.costs.memory_rx_per_byte * frame.size) * self.rx_scale

    def tx_cost(self, frame: Frame) -> float:
        return self.costs.discard_tx

    def poll(self) -> Optional[Frame]:
        if self._head >= len(self._queue):
            return None
        frame = self._queue[self._head]
        self._queue[self._head] = None  # release the reference
        self._head += 1
        if self._head > 4096 and self._head * 2 > len(self._queue):
            del self._queue[:self._head]
            self._head = 0
        return frame

    def transmit(self, frame: Frame) -> bool:
        self.discarded += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self._closed and self.backlog() == 0

    def next_available_delay(self) -> Optional[float]:
        # Arrival is externally driven; set_notify wakes the monitor.
        return None


class DesMember:
    """One federation member: an Lvrm + its machine, capture, and the
    per-member HA state.  Implements the director's member protocol."""

    def __init__(self, member_id: str, role: str, machine: Machine,
                 capture: VipCapture, lvrm: Lvrm):
        self.member_id = member_id
        self.role = role
        self.machine = machine
        self.capture = capture
        self.lvrm = lvrm
        self.last_heartbeat = 0.0
        #: Standby-side shadow / active-side delta log (both allocated;
        #: a member's role can flip at promotion).
        self.replica = ReplicaState()
        self.delta = DeltaSource()
        self.promoted_at: Optional[float] = None
        self.pins_installed = 0

    # -- director protocol ---------------------------------------------------
    def instance_alive(self) -> bool:
        return self.lvrm.instance_alive

    def heartbeat_age(self, now: float) -> float:
        return max(0.0, now - self.last_heartbeat)

    def progress_watermark(self) -> int:
        return self.lvrm.stats.forwarded

    def backlog(self) -> int:
        return self.capture.backlog() + sum(
            v.queue_len for v in self.lvrm.all_vris() if v.alive)

    def death_epoch(self) -> int:
        return self.lvrm.death_epoch

    def registry_snapshot(self) -> Optional[Dict]:
        """This instance's slice of the process-wide registry — exactly
        what a per-process member would ship over KIND_STATS."""
        tag = self.lvrm.obs_labels["lvrm"]
        snapshot = default_registry().snapshot()
        metrics = [m for m in snapshot["metrics"]
                   if m.get("labels", {}).get("lvrm") == tag]
        return {"v": snapshot["v"], "metrics": metrics}


class DesFederation:
    """N sharded monitors + optional HA pairs + the coordination plane."""

    def __init__(self, sim, member_ids: Iterable[str],
                 pairs: Optional[Mapping[str, str]] = None,
                 costs=DEFAULT_COSTS,
                 config: Optional[LvrmConfig] = None,
                 rx_scale: float = 1.0,
                 hb_interval: Optional[float] = None,
                 probe_period: Optional[float] = None,
                 crash_timeout: Optional[float] = None,
                 hang_timeout: Optional[float] = None,
                 repl_period: Optional[float] = None,
                 ctrl_latency: float = 200e-6,
                 slo_rules: Optional[List[Dict]] = None):
        self.sim = sim
        self.config = config or LvrmConfig(supervise=True, flow_based=True,
                                           balancer="jsq")
        period = self.config.supervision_period
        #: Failure-detector cadence, all derived from the supervision
        #: period unless overridden: members beat 4x per period, the
        #: director probes 2x, a heartbeat older than one period is a
        #: crash.  Worst-case detection is therefore well inside the
        #: 2-period failover budget.
        self.hb_interval = hb_interval if hb_interval is not None \
            else period / 4
        self.probe_period = probe_period if probe_period is not None \
            else period / 2
        crash_timeout = crash_timeout if crash_timeout is not None else period
        hang_timeout = hang_timeout if hang_timeout is not None \
            else self.config.heartbeat_timeout
        self.repl_period = repl_period if repl_period is not None \
            else period / 2
        self.ctrl_latency = ctrl_latency
        self.failover_budget = 2 * period

        self.pairs: Dict[str, str] = dict(pairs or {})
        self.members: Dict[str, DesMember] = {}
        for mid in member_ids:
            if mid in self.members:
                raise ConfigError(f"duplicate member id {mid!r}")
            role = "standby" if mid in self.pairs.values() else (
                "active" if mid in self.pairs else "shard")
            machine = Machine(sim, costs=costs)
            capture = VipCapture(sim, costs, rx_scale)
            lvrm = Lvrm(sim, machine, capture, config=self.config)
            self.members[mid] = DesMember(mid, role, machine, capture, lvrm)
        for active, standby in self.pairs.items():
            for mid in (active, standby):
                if mid not in self.members:
                    raise ConfigError(f"pair references unknown member "
                                      f"{mid!r}")
        #: Placement runs over traffic-owning members only (standbys
        #: receive traffic through the VIP, never directly).
        standby_ids = set(self.pairs.values())
        self.placement = RendezvousPlacement(
            [m for m in self.members if m not in standby_ids])
        #: VIP ownership per pair, keyed by the pair's initial active.
        self.vip: Dict[str, str] = {a: a for a in self.pairs}
        self._vr_home: Dict[str, str] = {}
        self._specs: Dict[str, VrSpec] = {}
        self._term = 0
        self.bus: Dict[str, int] = {"replicate": 0, "vip_move": 0,
                                    "elect": 0}
        self.bus_bytes = 0
        self.dispatched = 0
        self.drop_no_vr = 0
        self.routes_announced = 0
        self.route_relearns = 0
        self.promote_report: Optional[Dict] = None

        rules = slo_rules if slo_rules is not None else [
            {"name": "fast-failover", "kind": "failover_time_ms",
             "threshold": self.failover_budget * 1e3},
            {"name": "fresh-members", "kind": "stale_heartbeat",
             "threshold": crash_timeout},
        ]
        self.director = ClusterDirector(
            list(self.members.values()), clock=sim.clock(),
            probe_period=self.probe_period, crash_timeout=crash_timeout,
            hang_timeout=hang_timeout, on_failover=self._promote,
            slo_rules=rules)

    # -- VR hosting ----------------------------------------------------------
    def add_vr(self, spec: VrSpec, n_vris: int = 1,
               home: Optional[str] = None) -> str:
        """Host a VR on its placed member (and dark on the standby of an
        HA pair); returns the home member id."""
        if home is None:
            home = self.placement.place(spec.name)
        if home not in self.members:
            raise ConfigError(f"unknown home member {home!r}")
        self.members[home].lvrm.add_vr(spec, FixedAllocation(n_vris))
        standby = self.pairs.get(home)
        if standby is not None:
            # The standby hosts the same VR in the same slot order, hot
            # but dark: it sees no traffic until the VIP moves.
            self.members[standby].lvrm.add_vr(spec, FixedAllocation(n_vris))
        self._vr_home[spec.name] = home
        self._specs[spec.name] = spec
        return home

    def place_vrs(self, specs: Mapping[str, VrSpec],
                  loads: Mapping[str, float], n_vris: int = 1
                  ) -> Dict[str, str]:
        """Shard a VR set with the load-aware rebalance (scaling runs)."""
        assignment = self.placement.rebalance(dict(loads))
        for name in sorted(specs):
            self.add_vr(specs[name], n_vris, home=assignment[name])
        return assignment

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        for member in self.members.values():
            member.lvrm.start()
            self.sim.process(self._heartbeat_proc(member))
        for active, standby in self.pairs.items():
            self.sim.process(self._replication_proc(active, standby))
        self.sim.process(self._director_proc())

    def close_traffic(self) -> None:
        for member in self.members.values():
            member.capture.close()

    # -- traffic path --------------------------------------------------------
    def classify(self, frame: Frame) -> Optional[str]:
        for name, spec in self._specs.items():
            if spec.owns(frame.src_ip):
                return name
        return None

    def target_member(self, frame: Frame) -> Optional[DesMember]:
        vr = self.classify(frame)
        if vr is None:
            return None
        home = self._vr_home[vr]
        return self.members[self.vip.get(home, home)]

    def dispatch(self, frame: Frame) -> bool:
        """Push one frame at the VIP owner of its VR's pair (or its
        shard).  A dead owner still 'receives' it — that is the
        blackout the failover SLO measures."""
        member = self.target_member(frame)
        if member is None:
            self.drop_no_vr += 1
            return False
        member.capture.push(frame)
        self.dispatched += 1
        return True

    # -- chaos ---------------------------------------------------------------
    def kill_instance(self, index: int, reason: str = "crash") -> str:
        ids = list(self.members)
        if not 0 <= index < len(ids):
            raise ConfigError(f"no federation member at index {index}")
        member = self.members[ids[index]]
        member.lvrm.fail_instance(reason)
        return member.member_id

    # -- the coordination plane ----------------------------------------------
    def _heartbeat_proc(self, member: DesMember):
        while member.lvrm.instance_alive:
            member.last_heartbeat = self.sim.now
            yield self.sim.sleep(self.hb_interval)

    def _director_proc(self):
        while True:
            yield self.sim.sleep(self.probe_period)
            self.director.probe(self.sim.now)

    def _collect_pins(self, member: DesMember) -> Dict:
        slot_of = {v.vri_id: i
                   for i, v in enumerate(member.lvrm.all_vris())}
        pins: Dict = {}
        for monitor in member.lvrm._vri_monitors:
            flows = getattr(monitor.balancer, "flows", None)
            if flows is None:
                continue
            for key, vri_id in flows.entries():
                slot = slot_of.get(vri_id)
                if slot is not None:
                    pins[key] = slot
        return pins

    def _replication_proc(self, active_id: str, standby_id: str):
        active = self.members[active_id]
        standby = self.members[standby_id]
        while active.lvrm.instance_alive:
            yield self.sim.sleep(self.repl_period)
            if not active.lvrm.instance_alive:
                break
            payload = active.delta.delta(self._collect_pins(active))
            if payload is None:
                continue
            event = ControlEvent(KIND_REPLICATE, 0, 0, payload,
                                 t_sent=self.sim.now)
            data = encode_event(event)
            self.bus["replicate"] += 1
            self.bus_bytes += len(data)
            self.sim.call_in(self.ctrl_latency,
                             lambda d=data, s=standby: self._deliver(s, d))

    def _deliver(self, standby: DesMember, data: bytes) -> None:
        if not standby.lvrm.instance_alive:
            return
        event = decode_event(data)
        applied = standby.replica.apply(event.payload)
        if applied is None:
            return
        _pins, routes = applied
        if routes:
            self._apply_routes(standby, routes)
            if standby.promoted_at is not None:
                # Should never happen: the dead active cannot send.
                self.route_relearns += len(routes)

    def _apply_routes(self, member: DesMember,
                      updates: List[RouteUpdate]) -> None:
        for vri in member.lvrm.all_vris():
            if not vri.alive:
                continue
            table = router_table_of(vri.router)
            for update in updates:
                if update.withdraw:
                    if update.prefix in set(p for p, _ in table):
                        table.remove(update.prefix)
                else:
                    table.add(update.prefix, update.iface)

    def announce_routes(self, pair_active: str,
                        updates: List[RouteUpdate]) -> None:
        """Control-plane input: routes land on the pair's current VIP
        owner and are queued for replication to its standby."""
        owner = self.members[self.vip.get(pair_active, pair_active)]
        self._apply_routes(owner, updates)
        owner.delta.note_routes(updates)
        self.routes_announced += len(updates)

    # -- failover ------------------------------------------------------------
    def _member_index(self, member_id: str) -> int:
        return list(self.members).index(member_id)

    def _emit(self, kind: int, payload: bytes, counter: str) -> None:
        event = ControlEvent(kind, 0, 0, payload, t_sent=self.sim.now)
        data = encode_event(event)
        decoded = decode_event(data)   # exercise the wire codec
        assert decoded.kind == kind and decoded.payload == payload
        self.bus[counter] += 1
        self.bus_bytes += len(data)

    def _promote(self, failed: DesMember, reason: str) -> Optional[str]:
        """Director callback: promote the standby of the failed active."""
        standby_id = self.pairs.get(failed.member_id)
        if standby_id is None:
            return None
        standby = self.members[standby_id]
        if not standby.lvrm.instance_alive:
            return None
        now = self.sim.now
        installed = self._install_pins(standby)
        routes_present = self._count_routes_present(standby)
        standby.role = "active"
        standby.promoted_at = now
        standby.pins_installed = installed
        self.vip[failed.member_id] = standby_id
        self._term += 1
        self._emit(KIND_ELECT,
                   _ELECT.pack(self._member_index(standby_id), self._term),
                   "elect")
        self._emit(KIND_VIP_MOVE,
                   _VIP_MOVE.pack(self._member_index(standby_id)),
                   "vip_move")
        self.promote_report = {
            "failed": failed.member_id, "promoted": standby_id,
            "reason": reason, "t": now,
            "pins_installed": installed,
            "replica_seq": standby.replica.seq,
            "routes_present_at_promote": routes_present,
        }
        return standby_id

    def _install_pins(self, standby: DesMember) -> int:
        """Move the replicated pin set into the standby's live flow
        tables (slot → this instance's same-slot VRI)."""
        now = self.sim.now
        vris = standby.lvrm.all_vris()
        installed = 0
        for monitor in standby.lvrm._vri_monitors:
            flows = getattr(monitor.balancer, "flows", None)
            if flows is None:
                continue
            for key, slot in sorted(standby.replica.pins.items()):
                if not monitor.spec.owns(key[0]):
                    continue
                if slot < len(vris) and vris[slot].alive:
                    flows.insert(key, vris[slot].vri_id, now)
                    installed += 1
        return installed

    def _count_routes_present(self, member: DesMember) -> int:
        """How many replicated (net) routes already sit in the member's
        live tables — the no-re-learning evidence."""
        updates = member.replica.route_updates()
        vris = [v for v in member.lvrm.all_vris() if v.alive]
        if not vris or not updates:
            return 0
        table = router_table_of(vris[0].router)
        have = {prefix for prefix, _ in table}
        return sum(1 for u in updates if u.prefix in have)

    # -- the /cluster view ---------------------------------------------------
    def cluster_view(self) -> Dict:
        members = []
        for member in self.members.values():
            stats = member.lvrm.stats
            members.append({
                "id": member.member_id, "role": member.role,
                "alive": member.lvrm.instance_alive,
                "pushed": member.capture.pushed,
                "captured": stats.captured,
                "forwarded": stats.forwarded,
                "backlog": member.backlog(),
                "replica_seq": member.replica.seq,
            })
        return {"backend": "des", "members": members,
                "vip": dict(self.vip), "vr_home": dict(self._vr_home),
                "pairs": dict(self.pairs),
                "bus": dict(self.bus), "bus_bytes": self.bus_bytes,
                "director": self.director.view(self.sim.now)}

    def admin_state(self):
        """A poll-based admin view with ``/cluster`` wired (DES: call
        ``handle()`` at any sim point, no sockets)."""
        from repro.obs.admin import AdminState
        return AdminState(self.director.registry,
                          cluster_fn=self.cluster_view)
