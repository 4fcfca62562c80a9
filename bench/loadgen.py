"""Seeded inputs for the LVRM benchmark: workloads, FIBs, frames, oracle.

Everything the program under test receives is generated here from
``--seed``; nothing in this file imports ``repro``.  The oracle LPM is
written independently of ``repro.routing`` on purpose — the benchmark
checks the router against it, and ``bench/tests`` checks it against
``RouteTable.lookup``.

Frame layout (``size`` bytes on the ring, no FCS)::

    0   Ethernet header (14)
    14  IPv4 header, no options (20)   ttl @22, checksum @24, dst @30
    34  UDP header, checksum 0 (8)
    42  sequence number, big-endian u64 (8)
    50  filler: one seeded byte pattern shared by every frame (size-50)
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Workload", "WORKLOADS", "Fib", "Oracle", "FramePool",
           "make_fib", "default_fib", "make_pool", "header_checksum",
           "SEQ_OFF", "HDR_LEN", "TTL_OFF", "CSUM_OFF", "DST_OFF"]

HDR_LEN = 42
SEQ_OFF = 42
FILL_OFF = 50
TTL_OFF = 22
CSUM_OFF = 24
DST_OFF = 30
TTL0 = 64

#: IMIX as (size, weight): 7:4:1 (ISSUE 12).
IMIX = ((84, 7), (512, 4), (1500, 1))
#: Length of the seeded draw order; sequence numbers walk it cyclically.
CYCLE = 1 << 18


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``why`` is copied into BENCHMARK.json."""

    name: str
    kind: str               # "closed" | "paced" | "des"
    why: str
    sizes: Tuple[Tuple[int, int], ...] = ()
    n_prefixes: int = 0     # 0 = the two-route default map
    n_flows: int = 0
    drop_share: float = 0.0  # share of flows with no route, and with TTL=1
    window_frames: int = 1024
    burst: int = 256
    rate_fps: float = 0.0


WORKLOADS: Dict[str, Workload] = collections.OrderedDict((w.name, w) for w in (
    Workload(
        "fwd_small", "closed",
        "84 B closed loop (the paper's anchor size), 1,024-prefix FIB, 16,384 "
        "destinations: per-packet work (dispatch, ring ops, parse, LPM) is "
        "the cost and bytes moved are not",
        sizes=((84, 1),), n_prefixes=1024, n_flows=16384),
    Workload(
        "fwd_large", "closed",
        "1500 B closed loop, 2-route map, 32 destinations: bytes moved (slot "
        "copies, staging) dominate and LPM is always cached, so a copy "
        "saved shows here and a per-packet saving mostly on fwd_small",
        sizes=((1500, 1),), n_prefixes=0, n_flows=32),
    Workload(
        "paced_mix", "paced",
        "open loop at 20 Kfps, IMIX sizes, 4,096 flows, 1% no-route and 1% "
        "TTL=1: the pipeline idles most of the time, so wake-ups and batch "
        "thresholds are the result; bigger batches or longer sleeps lose here",
        sizes=IMIX, n_prefixes=1024, n_flows=4096, drop_share=0.01,
        burst=16, rate_fps=20_000.0),
    Workload(
        "des_ramp", "des",
        "the Fig 4.10 allocation staircase (exp2c) on the DES, six runs: "
        "figures and tier-1 are DES host time; runtime/ipc changes must not "
        "move it and policy-core changes must keep every row identical"),
))


# ---------------------------------------------------------------------------
# FIB + oracle
# ---------------------------------------------------------------------------

@dataclass
class Fib:
    """Routes as ``(network, length, iface)`` plus their map-file lines."""

    routes: List[Tuple[int, int, int]]

    @property
    def map_lines(self) -> Tuple[str, ...]:
        return tuple(f"route {_ip(net)}/{plen} iface {iface}"
                     for net, plen, iface in self.routes)


def _ip(value: int) -> str:
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))


def default_fib() -> Fib:
    """The runtime's shipped two-route map (Figure 4.1 testbed)."""
    return Fib([(0x0A020000, 16, 1), (0x0A010000, 16, 0)])


def make_fib(rng: np.random.Generator, n_prefixes: int) -> Fib:
    """``n_prefixes`` distinct /16../28 routes inside 10.0.0.0/8; nesting
    is allowed (and happens), so longest-match is actually exercised."""
    seen = set()
    routes: List[Tuple[int, int, int]] = []
    while len(routes) < n_prefixes:
        plen = int(rng.integers(16, 29))
        host = int(rng.integers(0, 1 << 24))
        net = (0x0A000000 | host) & ~((1 << (32 - plen)) - 1) & 0xFFFFFFFF
        if (net, plen) in seen:
            continue
        seen.add((net, plen))
        routes.append((net, plen, int(rng.integers(0, 16))))
    return Fib(routes)


class Oracle:
    """Independent longest-prefix match: one exact-match dict per prefix
    length, probed longest first.  Returns the iface or -1 (drop)."""

    def __init__(self, fib: Fib) -> None:
        by_len: Dict[int, Dict[int, int]] = {}
        for net, plen, iface in fib.routes:
            by_len.setdefault(plen, {})[net] = iface
        self._levels = sorted(by_len.items(), reverse=True)

    def lookup(self, ip: int) -> int:
        for plen, table in self._levels:
            key = ip & (~((1 << (32 - plen)) - 1) & 0xFFFFFFFF) if plen else 0
            iface = table.get(key)
            if iface is not None:
                return iface
        return -1

    def lookup_many(self, ips: Sequence[int]) -> np.ndarray:
        return np.fromiter((self.lookup(int(ip)) for ip in ips),
                           dtype=np.int64, count=len(ips))


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def header_checksum(header: np.ndarray) -> int:
    """RFC 1071 over a 20-byte IPv4 header held as uint8 (full re-sum —
    deliberately not the incremental form the kernels use)."""
    words = header.astype(np.uint32)
    total = int((words[0::2] << 8).sum() + words[1::2].sum())
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _headers(dsts: np.ndarray, ttls: np.ndarray, size: int) -> np.ndarray:
    """(n, 42) uint8 Ethernet+IPv4+UDP headers for one frame size."""
    n = len(dsts)
    h = np.zeros((n, HDR_LEN), dtype=np.uint8)
    h[:, 0:6] = (0x02, 0, 0, 0, 0, 0x01)
    h[:, 6:12] = (0x02, 0, 0, 0, 0, 0x02)
    h[:, 12:14] = (0x08, 0x00)
    h[:, 14] = 0x45
    ip_len = size - 14
    h[:, 16], h[:, 17] = ip_len >> 8, ip_len & 0xFF
    h[:, TTL_OFF] = ttls
    h[:, 23] = 17
    flow = np.arange(n, dtype=np.uint32)
    # Source 10.1.x.y and source port vary by flow so 5-tuples differ.
    h[:, 26], h[:, 27] = 10, 1
    h[:, 28], h[:, 29] = (flow >> 8) & 0xFF, flow & 0xFF
    for k, shift in enumerate((24, 16, 8, 0)):
        h[:, DST_OFF + k] = (dsts >> shift) & 0xFF
    sport = 1024 + (flow % 60000)
    h[:, 34], h[:, 35] = sport >> 8, sport & 0xFF
    h[:, 36], h[:, 37] = 0x13, 0x88          # dst port 5000
    udp_len = size - 34
    h[:, 38], h[:, 39] = udp_len >> 8, udp_len & 0xFF
    _fill_checksums(h)
    return h


def _fill_checksums(h: np.ndarray) -> None:
    """Sum each row's IPv4 header from scratch and store the checksum."""
    h[:, CSUM_OFF:CSUM_OFF + 2] = 0
    words = h[:, 14:34].astype(np.uint32)
    total = (words[:, 0::2] << 8).sum(axis=1) + words[:, 1::2].sum(axis=1)
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    csum = ~total & 0xFFFF
    h[:, CSUM_OFF], h[:, CSUM_OFF + 1] = csum >> 8, csum & 0xFF


@dataclass
class FramePool:
    """Flow templates plus the seeded draw order of a workload.

    Sequence number ``s`` belongs to flow ``flow_cycle[s % cycle]`` and
    has size ``sizes[size_cycle[s % cycle]]``, so the checker can rebuild
    any frame from its sequence number alone.
    """

    fib: Fib
    sizes: Tuple[int, ...]
    dsts: np.ndarray              # (n_flows,) uint32
    ttls: np.ndarray              # (n_flows,) uint8
    expect_iface: np.ndarray      # (n_flows,) int64, -1 = must not return
    headers: np.ndarray           # (n_sizes, n_flows, 42) uint8
    forwarded: np.ndarray         # same, as they must come back (TTL-1)
    filler: np.ndarray            # (max_size - 50,) uint8
    flow_cycle: np.ndarray        # (cycle,) int32
    size_cycle: np.ndarray        # (cycle,) int8
    _bufs: Dict[int, np.ndarray] = field(default_factory=dict)
    _tails: Dict[int, bytes] = field(default_factory=dict)

    @property
    def cycle(self) -> int:
        return len(self.flow_cycle)

    def returns(self, seqs: np.ndarray) -> np.ndarray:
        """Bool per sequence number: should the router hand it back?"""
        return self.expect_iface[self.flow_cycle[seqs % self.cycle]] >= 0

    def burst(self, seq0: int, n: int) -> List[bytes]:
        """Frames ``seq0 .. seq0+n-1`` as bytes objects."""
        pos = np.arange(seq0, seq0 + n) % self.cycle
        flows = self.flow_cycle[pos]
        seq_bytes = np.arange(seq0, seq0 + n, dtype=">u8").view(np.uint8)
        seq_bytes = seq_bytes.reshape(n, 8)
        if len(self.sizes) == 1:
            return self._uniform(0, flows, seq_bytes)
        size_ix = self.size_cycle[pos]
        out: List[Optional[bytes]] = [None] * n
        for k in np.unique(size_ix).tolist():
            rows = np.flatnonzero(size_ix == k)
            made = self._uniform(k, flows[rows], seq_bytes[rows])
            for row, frame in zip(rows.tolist(), made):
                out[row] = frame
        return out  # type: ignore[return-value]

    def _uniform(self, size_ix: int, flows: np.ndarray,
                 seq_bytes: np.ndarray) -> List[bytes]:
        size = self.sizes[size_ix]
        n = len(flows)
        buf = self._bufs.get(size_ix)
        if buf is None or len(buf) < n:
            buf = np.empty((max(n, 256), size), dtype=np.uint8)
            buf[:, FILL_OFF:] = self.filler[:size - FILL_OFF]
            self._bufs[size_ix] = buf
        buf[:n, :HDR_LEN] = self.headers[size_ix, flows]
        buf[:n, SEQ_OFF:FILL_OFF] = seq_bytes
        blob = buf[:n].tobytes()
        return [blob[i:i + size] for i in range(0, n * size, size)]

    def intact(self, seq: int, frame: bytes) -> bool:
        """Is ``frame`` byte for byte what the router must return for
        ``seq``?  Same answer as comparing with :meth:`expected`, from
        the precomputed forwarded headers."""
        pos = seq % self.cycle
        size_ix = int(self.size_cycle[pos])
        size = self.sizes[size_ix]
        tail = self._tails.get(size_ix)
        if tail is None:
            tail = self._tails[size_ix] = \
                self.filler[:size - FILL_OFF].tobytes()
        return (len(frame) == size
                and frame[:HDR_LEN] == self.forwarded[
                    size_ix, self.flow_cycle[pos]].tobytes()
                and frame[SEQ_OFF:FILL_OFF] == seq.to_bytes(8, "big")
                and frame[FILL_OFF:] == tail)

    def expected(self, seq: int) -> Tuple[int, bytes]:
        """``(iface, frame)`` the router must return for ``seq``: TTL-1
        and a freshly summed header checksum, everything else intact."""
        pos = seq % self.cycle
        flow = int(self.flow_cycle[pos])
        size_ix = int(self.size_cycle[pos])
        size = self.sizes[size_ix]
        frame = np.empty(size, dtype=np.uint8)
        frame[:HDR_LEN] = self.headers[size_ix, flow]
        frame[SEQ_OFF:FILL_OFF] = np.array([seq], dtype=">u8").view(np.uint8)
        frame[FILL_OFF:] = self.filler[:size - FILL_OFF]
        frame[TTL_OFF] -= 1
        frame[CSUM_OFF:CSUM_OFF + 2] = 0
        csum = header_checksum(frame[14:34])
        frame[CSUM_OFF], frame[CSUM_OFF + 1] = csum >> 8, csum & 0xFF
        return int(self.expect_iface[flow]), frame.tobytes()


def make_pool(workload: Workload, seed: int) -> FramePool:
    """Build the seeded FIB, flows and draw order for one workload."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    fib = make_fib(rng, workload.n_prefixes) if workload.n_prefixes \
        else default_fib()
    oracle = Oracle(fib)
    n = workload.n_flows
    # Routable destinations: a random route, then random host bits under
    # it (which may land in a longer nested route — the oracle decides).
    pick = rng.integers(0, len(fib.routes), size=n)
    dsts = np.empty(n, dtype=np.uint32)
    for i, r in enumerate(pick.tolist()):
        net, plen, _iface = fib.routes[r]
        dsts[i] = net | int(rng.integers(0, 1 << (32 - plen)))
    ttls = np.full(n, TTL0, dtype=np.uint8)
    n_drop = int(round(n * workload.drop_share))
    if n_drop:
        # No-route flows live outside 10/8 (172.16/12); TTL=1 flows keep a
        # routable destination and must still be dropped.
        chosen = rng.choice(n, size=2 * n_drop, replace=False)
        dsts[chosen[:n_drop]] = 0xAC100000 | rng.integers(
            0, 1 << 20, size=n_drop).astype(np.uint32)
        ttls[chosen[n_drop:]] = 1
    expect = oracle.lookup_many(dsts)
    expect[ttls <= 1] = -1
    sizes = tuple(s for s, _w in workload.sizes)
    weights = np.array([w for _s, w in workload.sizes], dtype=float)
    headers = np.stack([_headers(dsts, ttls, s) for s in sizes])
    forwarded = headers.copy()
    forwarded[:, :, TTL_OFF] -= 1
    for per_size in forwarded:
        _fill_checksums(per_size)
    return FramePool(
        fib=fib, sizes=sizes, dsts=dsts, ttls=ttls, expect_iface=expect,
        headers=headers, forwarded=forwarded,
        filler=rng.integers(0, 256, size=max(sizes) - FILL_OFF,
                            dtype=np.uint8),
        flow_cycle=rng.integers(0, n, size=CYCLE, dtype=np.int32),
        size_cycle=rng.choice(len(sizes), size=CYCLE,
                              p=weights / weights.sum()).astype(np.int8))
