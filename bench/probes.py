"""In-process probes: what one call into one layer costs, alone.

Each probe times a layer's public function over 128-frame bursts of the
same seeded frames the end-to-end workloads use, and reports the median
of several samples.  They run only in traced runs, in the workload's own
process after the workload has finished.

A probe whose alternative no longer exists (``available_kernels()`` or
``RING_KINDS`` shrank, a function moved) is left out of the result —
absent, never an error — so the benchmark survives the repository
deleting knobs.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from loadgen import WORKLOADS, FramePool, make_pool

__all__ = ["run_all", "KERNEL_KINDS", "RING_KINDS", "SIZE_WORKLOAD"]

#: Every alternative this benchmark has a row for (BENCHMARK.json names
#: them all); the live lists decide which rows are measured.
KERNEL_KINDS = ("scalar", "numpy", "cffi")
RING_KINDS = ("lamport", "fastforward", "mcring")
#: Size tag -> the workload whose frames and FIB the probe borrows.
SIZE_WORKLOAD = {"84b": "fwd_small", "1500b": "fwd_large"}

BURST = 128
SAMPLES = 5
_ns = time.perf_counter_ns


def measure(call: Callable[[], object], items: int, sample_s: float,
            before: Optional[Callable[[], object]] = None) -> float:
    """Median over ``SAMPLES`` samples of ns per item; only ``call`` is
    timed, ``before`` (state restore) runs untimed ahead of each call."""
    per_item: List[float] = []
    for _ in range(SAMPLES):
        busy = calls = 0
        t_end = _ns() + int(sample_s * 1e9)
        while _ns() < t_end or not calls:
            if before is not None:
                before()
            t0 = _ns()
            call()
            busy += _ns() - t0
            calls += 1
        per_item.append(busy / (calls * items))
    return statistics.median(per_item)


class _Inputs:
    """Seeded bursts and route tables per size tag."""

    def __init__(self, seed: int) -> None:
        from repro.routing.mapfile import parse_map_lines
        self.pools: Dict[str, FramePool] = {}
        self.bursts: Dict[str, List[List[bytes]]] = {}
        self.tables = {}
        for tag, name in SIZE_WORKLOAD.items():
            pool = make_pool(WORKLOADS[name], seed)
            self.pools[tag] = pool
            self.bursts[tag] = [pool.burst(i * BURST, BURST)
                                for i in range(32)]
            self.tables[tag] = parse_map_lines(pool.fib.map_lines)[0]
        self._turn = 0

    def next_burst(self, tag: str) -> List[bytes]:
        self._turn += 1
        return self.bursts[tag][self._turn % len(self.bursts[tag])]


# -- kernels -----------------------------------------------------------------

def probe_kernels(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.kernels import available_kernels, make_kernel
    out: Dict[str, float] = {}
    live = set(available_kernels())
    for kind in KERNEL_KINDS:
        if kind not in live:
            continue
        for tag in SIZE_WORKLOAD:
            kernel = make_kernel(kind, inp.tables[tag], rewrite_ttl=True)
            frames = inp.bursts[tag][0]
            size = len(frames[0])
            stride = 2048
            pristine = bytearray(stride * BURST)
            for i, frame in enumerate(frames):
                pristine[i * stride:i * stride + size] = frame
            buf = bytearray(pristine)
            offsets = np.arange(BURST, dtype=np.uint64) * np.uint64(stride)
            lengths = np.full(BURST, size, dtype=np.uint64)

            def restore(buf=buf, pristine=pristine):
                buf[:] = pristine      # the rewrite decrements TTL in place

            out[f"kernels.route_block.ns_per_frame.{kind}.{tag}"] = measure(
                lambda: kernel.route_block(buf, offsets, lengths),
                BURST, sample_s, before=restore)
            out[f"kernels.route_frames_rewrite.ns_per_frame.{kind}.{tag}"] = \
                measure(lambda: kernel.route_frames_rewrite(
                    inp.next_burst(tag)), BURST, sample_s)
    return out


# -- routing -----------------------------------------------------------------

def probe_routing(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.routing.prefix import Prefix
    table = inp.tables["84b"]
    pool = inp.pools["84b"]
    ips = pool.dsts[:BURST].astype(np.uint64)
    ip_list = [int(ip) for ip in ips]
    out = {"routing.lookup_batch.ns_per_lookup": measure(
        lambda: table.lookup_batch(ips), BURST, sample_s)}
    get = table.get_cached
    for ip in ip_list:
        get(ip)

    def hits():
        for ip in ip_list:
            get(ip)

    out["routing.get_cached.hit_ns"] = measure(hits, BURST, sample_s)
    # Addresses never looked up before (a bijection of a counter into
    # 10/8): every call walks the trie, whether or not a route matches.
    counter = itertools.count()

    def misses():
        for _ in range(BURST):
            get(0x0A000000 | (next(counter) * 2654435761 & 0xFFFFFF))

    out["routing.get_cached.miss_ns"] = measure(misses, BURST, sample_s)
    extra = Prefix(0x0AFF0000, 30)
    state = {"added": False}

    def unadd():
        if state["added"]:
            table.remove(extra)
            state["added"] = False

    def update_then_lookup():
        table.add(extra, 3)
        state["added"] = True
        table.lookup_batch(ips)

    out["routing.update_then_lookup_us"] = measure(
        update_then_lookup, 1, sample_s, before=unadd) / 1e3
    unadd()
    return out


# -- ipc ---------------------------------------------------------------------

def probe_ipc(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.ipc import factory
    from repro.ipc.arena import FrameArena, arena_bytes_needed
    from repro.ipc.desc import DESC_SLOT, pack_desc_block
    from repro.ipc.shm import SharedSegment
    out: Dict[str, float] = {}
    live = set(factory.RING_KINDS)
    for kind in RING_KINDS:
        if kind not in live:
            continue
        buf = bytearray(factory.ring_bytes_for(kind, 1024, 2048))
        ring = factory.make_ring(kind, buf, 1024, 2048)
        flush = getattr(ring, "flush", None)
        for tag in SIZE_WORKLOAD:
            def hop(tag=tag):
                ring.try_push_many(inp.next_burst(tag))
                if flush is not None:
                    flush()
                ring.try_pop_many(BURST)
            out[f"ipc.ring.frames_hop.ns_per_frame.{kind}.{tag}"] = measure(
                hop, BURST, sample_s)
        dbuf = bytearray(factory.ring_bytes_for(kind, 1024, DESC_SLOT))
        dring = factory.make_ring(kind, dbuf, 1024, DESC_SLOT)
        dflush = getattr(dring, "flush", None)
        block = pack_desc_block(list(range(0, BURST * 2048, 2048)),
                                [84] * BURST)

        def desc_hop():
            dring.try_push_desc_block(block)
            if dflush is not None:
                dflush()
            dring.try_pop_desc_block(BURST)

        out[f"ipc.ring.desc_hop.ns_per_frame.{kind}"] = measure(
            desc_hop, BURST, sample_s)
    abuf = bytearray(arena_bytes_needed(chunks_per_class=1024, n_reclaim=1))
    arena = FrameArena(abuf, chunks_per_class=1024, n_reclaim=1)
    prod = arena.producer()
    for tag in SIZE_WORKLOAD:
        held: List[np.ndarray] = []

        def give_back():
            while held:
                prod.free_local_many(held.pop()[:, 0])

        out[f"ipc.arena.write_block.ns_per_frame.{tag}"] = measure(
            lambda: held.append(prod.write_block(inp.next_burst(tag))),
            BURST, sample_s, before=give_back)
        give_back()

        def stage():
            held.append(prod.write_block(inp.next_burst(tag)))

        def read_free():
            block = held.pop()
            arena.read_block(block)
            prod.free_local_many(block[:, 0])

        out[f"ipc.arena.read_free.ns_per_frame.{tag}"] = measure(
            read_free, BURST, sample_s, before=stage)
    arena.close()
    seg_bytes = factory.ring_bytes_for("lamport", 1024, 2048) \
        if "lamport" in live else 1 << 21
    out["ipc.shm.create_us"] = measure(
        lambda: SharedSegment.create(seg_bytes).close(), 1, sample_s) / 1e3
    return out


# -- off the default path ------------------------------------------------------

def probe_overload(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.obs.registry import Registry
    from repro.overload import build_controller
    controller = build_controller("adaptive-sample", None, Registry())
    return {"overload.admit_block.ns_per_frame": measure(
        lambda: controller.admit_block(inp.next_burst("84b")),
        BURST, sample_s)}


def probe_splitter(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.dispatch.splitter import hash_frames
    return {"dispatch.splitter.hash_frames.ns_per_frame": measure(
        lambda: hash_frames(inp.next_burst("84b")), BURST, sample_s)}


def probe_checksum(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.net.checksum import incremental_update_batch
    rng = np.random.default_rng(11)
    csums = rng.integers(0, 1 << 16, size=BURST).astype(np.uint16)
    old = rng.integers(0x0200, 1 << 16, size=BURST).astype(np.uint16)
    new = (old - np.uint16(0x0100)).astype(np.uint16)
    return {"net.checksum.incremental_update_batch.ns_per_frame": measure(
        lambda: incremental_update_batch(csums, old, new), BURST, sample_s)}


def probe_sim(inp: _Inputs, sample_s: float) -> Dict[str, float]:
    from repro.sim import Simulator

    def ticker(sim, n):
        for _ in range(n):
            yield sim.sleep(1e-6)

    n_events = 2000

    def run_once():
        sim = Simulator()
        for _ in range(4):
            sim.process(ticker(sim, n_events // 4))
        sim.run()

    ns_per_event = measure(run_once, n_events, sample_s)
    return {"sim.engine.events_per_s": 1e9 / ns_per_event}


PROBES = (probe_kernels, probe_routing, probe_ipc, probe_overload,
          probe_splitter, probe_checksum, probe_sim)


def explained_ns(layers: Dict[str, float], effective: Dict[str, object],
                 tag: str) -> Optional[float]:
    """Worker ns/frame the probes of the *effective* path account for:
    the kernel call plus one ring hop's worth of work (the worker pops
    one ring and pushes the other; the monitor does the other halves).
    None when a needed probe is absent."""
    kernel, ring = effective.get("kernel"), effective.get("ring_impl")
    try:
        if effective.get("data_plane") == "arena":
            return (layers[f"kernels.route_block.ns_per_frame.{kernel}.{tag}"]
                    + layers[f"ipc.ring.desc_hop.ns_per_frame.{ring}"])
        return (layers[f"kernels.route_frames_rewrite.ns_per_frame."
                       f"{kernel}.{tag}"]
                + layers[f"ipc.ring.frames_hop.ns_per_frame.{ring}.{tag}"])
    except KeyError:
        return None


def run_all(sample_s: float, effective: Dict[str, object],
            seed: int = 1) -> Dict[str, float]:
    """Every probe that can run here; failures to *find* a layer leave
    its rows out."""
    inp = _Inputs(seed)
    out: Dict[str, float] = {}
    for probe in PROBES:
        try:
            out.update(probe(inp, sample_s))
        except (ImportError, AttributeError) as exc:
            print(f"# probe absent: {probe.__name__}: {exc}", file=sys.stderr)
    return out
