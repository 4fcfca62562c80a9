"""Fast-path micro/meso benchmark runner with a machine-readable output.

Measures each fast path against the slow path it replaced and writes the
before/after trajectory to ``BENCH_fastpath.json`` at the repo root:

* scalar vs batched ring I/O for all three queue kinds;
* DES events/sec on a Figure 4.5-style LVRM-only run, with the pooled
  ``sleep()`` path disabled ("before") and enabled ("after"), plus a
  pure-delay dispatch microbench isolating the event-loop fast path;
* LPM lookups/sec uncached vs cached;
* flow-table hit cost with the rehash-refresh reference vs the in-place
  refresh;
* UDP frame build cost, full codec vs precomputed template.

Run it directly (``PYTHONPATH=src python benchmarks/bench_runner.py``)
or via the non-gating ``perf-smoke`` CI job.  Honors ``REPRO_PROFILE``
for the DES leg (default ``quick``).  Numbers are wall-clock and
host-dependent: compare the *ratios* across commits, not the absolutes.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Callable, Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ipc import RING_KINDS, make_ring, ring_bytes_for  # noqa: E402
from repro.net.packet import UdpFrameTemplate, build_udp_frame  # noqa: E402
from repro.routing.prefix import Prefix  # noqa: E402
from repro.routing.table import RouteTable  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_fastpath.json"

RING_CAPACITY = 1024
RING_SLOT = 128
RING_BATCH = 64
PAYLOAD = b"z" * 84


def _rate(op: Callable[[], int], min_seconds: float = 0.25,
          repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` rate of ``op`` (which returns items handled).

    Best-of is the standard defense against scheduler/frequency noise in
    micro timing: the fastest window is the one least perturbed.
    """
    op()  # warm-up: allocator and caches settle outside the timed window
    best = 0.0
    for _ in range(repeats):
        items = 0
        t0 = time.perf_counter()
        while True:
            items += op()
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        best = max(best, items / elapsed)
    return {"items_per_sec": best, "ns_per_item": 1e9 / best}


# -- ring I/O ----------------------------------------------------------------

def bench_rings() -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for kind in RING_KINDS:
        buf = bytearray(ring_bytes_for(kind, RING_CAPACITY, RING_SLOT))
        ring = make_ring(kind, buf, RING_CAPACITY, RING_SLOT)
        flush = getattr(ring, "flush", None)
        batch = [PAYLOAD] * RING_BATCH

        def scalar_burst() -> int:
            for _ in range(RING_BATCH):
                ring.try_push(PAYLOAD)
            if flush is not None:
                flush()
            n = 0
            while ring.try_pop() is not None:
                n += 1
            return n

        def batched_burst() -> int:
            ring.try_push_many(batch)
            if flush is not None:
                flush()
            return len(ring.try_pop_many())

        before = _rate(scalar_burst)
        after = _rate(batched_burst)
        out[f"ring_{kind}"] = {
            "unit": "records/sec",
            "burst": RING_BATCH,
            "before": before,
            "after": after,
            "speedup": after["items_per_sec"] / before["items_per_sec"],
        }
        ring.close()
    return out


# -- DES event loop ----------------------------------------------------------

def _lvrm_only_run(reference_loop: bool) -> Dict[str, float]:
    """One Figure 4.5-style LVRM-only drain (memory adapter, C++ VR).

    ``reference_loop=True`` reproduces the pre-optimization event loop:
    per-event ``step()`` dispatch (no localized hot loop) and pure
    delays going through plain ``timeout()`` allocation instead of the
    pooled ``sleep()`` path.
    """
    from repro.core import (FixedAllocation, Lvrm, LvrmConfig, VrSpec,
                            VrType, make_socket_adapter)
    from repro.experiments import get_profile
    from repro.hardware import DEFAULT_COSTS, Machine
    from repro.traffic.trace import synthetic_trace

    profile = get_profile()
    sim = Simulator()
    machine = Machine(sim)
    adapter = make_socket_adapter(
        "memory", sim, DEFAULT_COSTS,
        trace=synthetic_trace(profile.trace_frames, 84))
    lvrm = Lvrm(sim, machine, adapter, config=LvrmConfig())
    lvrm.add_vr(VrSpec(name="vr1", subnets=(Prefix.parse("10.1.0.0/16"),),
                       vr_type=VrType.CPP), FixedAllocation(1))
    lvrm.start()
    if reference_loop:
        sim.sleep = sim.timeout  # type: ignore[method-assign]
        t0 = time.perf_counter()
        while sim._heap and sim.peek() <= 3600.0:
            sim.step()
        wall = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        sim.run(until=3600.0)
        wall = time.perf_counter() - t0
    return {
        "events_per_sec": sim.events_processed / wall,
        "frames_per_sec": lvrm.stats.forwarded / wall,
        "events": sim.events_processed,
        "frames": lvrm.stats.forwarded,
        "wall_seconds": wall,
    }


def _dispatch_run(use_run: bool, use_sleep: bool,
                  n_events: int = 200_000) -> float:
    """Events/sec for a pure-delay process: isolates loop + allocation
    cost, the two things the DES fast paths actually change."""
    sim = Simulator()

    def napper(sim):
        mk = sim.sleep if use_sleep else sim.timeout
        for _ in range(n_events):
            yield mk(0.001)

    sim.process(napper(sim))
    t0 = time.perf_counter()
    if use_run:
        sim.run()
    else:
        while sim._heap:
            sim.step()
    return sim.events_processed / (time.perf_counter() - t0)


def bench_des() -> Dict[str, Dict]:
    # Macro: a full LVRM run.  Event dispatch is a small slice of the
    # per-event work here (model callbacks dominate), so expect ~1.0x;
    # this leg exists to show the fast paths do not *hurt* real runs.
    runs_before = [_lvrm_only_run(reference_loop=True) for _ in range(3)]
    runs_after = [_lvrm_only_run(reference_loop=False) for _ in range(3)]
    before = max(runs_before, key=lambda r: r["events_per_sec"])
    after = max(runs_after, key=lambda r: r["events_per_sec"])
    # Micro: pure-delay dispatch, where the loop + pooling win is visible.
    disp_before = max(_dispatch_run(False, False) for _ in range(5))
    disp_after = max(_dispatch_run(True, True) for _ in range(5))
    return {
        "des_lvrm_only": {
            "unit": "events/sec",
            "scenario": "fig4.5-style LVRM-only drain, cpp VR, 84B frames",
            "before": before,
            "after": after,
            "speedup": after["events_per_sec"] / before["events_per_sec"],
        },
        "des_dispatch": {
            "unit": "events/sec",
            "scenario": "pure-delay process, 200k events: "
                        "step()+timeout() vs run()+sleep()",
            "before": {"events_per_sec": disp_before},
            "after": {"events_per_sec": disp_after},
            "speedup": disp_after / disp_before,
        },
    }


# -- LPM lookups -------------------------------------------------------------

def bench_lpm() -> Dict[str, Dict]:
    import random

    rng = random.Random(2011)
    table = RouteTable()
    for _ in range(256):
        table.add(Prefix(rng.getrandbits(32), rng.randrange(8, 25)),
                  rng.randrange(8))
    # Steady-state traffic: a few hundred distinct destinations, revisited.
    ips = [rng.getrandbits(32) for _ in range(512)]

    def uncached() -> int:
        get = table.get
        for ip in ips:
            get(ip)
        return len(ips)

    def cached() -> int:
        get = table.get_cached
        for ip in ips:
            get(ip)
        return len(ips)

    before = _rate(uncached)
    after = _rate(cached)
    return {"lpm_lookup": {
        "unit": "lookups/sec",
        "routes": len(table),
        "distinct_dsts": len(ips),
        "before": before,
        "after": after,
        "speedup": after["items_per_sec"] / before["items_per_sec"],
    }}


# -- flow table --------------------------------------------------------------

def bench_flows() -> Dict[str, Dict]:
    from repro.core.flows import FlowTable

    keys = [(i, i + 1, 17, 1000 + i, 2000 + i) for i in range(256)]

    # Reference: the tuple-entry lookup this PR replaced — identical
    # semantics (idle check, hit counter), but every hit rehashes the
    # 5-tuple to store the refreshed timestamp.
    class _TupleFlowTable(FlowTable):
        def lookup(self, key, now):
            entry = self._table.get(key)
            if entry is None:
                self.misses += 1
                return None
            vri_id, last_seen = entry
            if now - last_seen > self.idle_timeout:
                del self._table[key]
                self.expired += 1
                self.misses += 1
                return None
            self._table[key] = [vri_id, now]
            self.hits += 1
            return vri_id

    ref = _TupleFlowTable()
    table = FlowTable()
    for key in keys:
        ref.insert(key, 7, now=0.0)
        table.insert(key, 7, now=0.0)

    def tuple_refresh() -> int:
        lookup = ref.lookup
        for key in keys:
            lookup(key, 1.0)
        return len(keys)

    def inplace_refresh() -> int:
        lookup = table.lookup
        for key in keys:
            lookup(key, 1.0)
        return len(keys)

    before = _rate(tuple_refresh)
    after = _rate(inplace_refresh)
    return {"flow_hit": {
        "unit": "hits/sec",
        "flows": len(keys),
        "before": before,
        "after": after,
        "speedup": after["items_per_sec"] / before["items_per_sec"],
    }}


# -- codec -------------------------------------------------------------------

def bench_codec() -> Dict[str, Dict]:
    kw = dict(src_mac=0x020000000001, dst_mac=0x020000000002,
              src_ip=0x0A010102, dst_ip=0x0A020103,
              src_port=4000, dst_port=5000)
    payload = b"p" * 64
    template = UdpFrameTemplate(payload=payload, **kw)

    def full_build() -> int:
        for ident in range(64):
            build_udp_frame(payload=payload, ident=ident, **kw)
        return 64

    def template_render() -> int:
        render = template.render
        for ident in range(64):
            render(ident)
        return 64

    before = _rate(full_build)
    after = _rate(template_render)
    return {"udp_frame_build": {
        "unit": "frames/sec",
        "payload_bytes": len(payload),
        "before": before,
        "after": after,
        "speedup": after["items_per_sec"] / before["items_per_sec"],
    }}


def _collect_fastpath() -> Dict[str, Dict]:
    benches: Dict[str, Dict] = {}
    for name, fn in (("rings", bench_rings), ("des", bench_des),
                     ("lpm", bench_lpm), ("flows", bench_flows),
                     ("codec", bench_codec)):
        print(f"[bench_runner] running {name} ...", flush=True)
        benches.update(fn())
    return benches


#: A fresh speedup below ``committed * (1 - REGRESSION_TOLERANCE)`` is
#: flagged by ``--check``.  25% absorbs normal CI-runner noise while still
#: catching real fast-path regressions.
REGRESSION_TOLERANCE = 0.25


def check(tolerance: float = REGRESSION_TOLERANCE) -> int:
    """Re-run the speedup benches and diff them against the committed
    ``BENCH_*.json`` baselines.

    Returns non-zero when any bench's fresh speedup falls more than
    ``tolerance`` below its committed value.  Wired into the perf-smoke
    CI job as a non-gating signal — absolute rates vary by host, but the
    before/after *ratio* on the same host should not collapse.
    """
    import bench_arena
    import bench_federation
    import bench_kernels
    import bench_overload
    import bench_replay
    fresh = {
        "BENCH_fastpath.json": _collect_fastpath(),
        "BENCH_arena.json": bench_arena.collect(),
        "BENCH_federation.json": bench_federation.collect(),
        # Covers every kernel x ring class (including the 64B frame size
        # the original gate missed) plus the runtime e2e legs.
        "BENCH_kernels.json": bench_kernels.collect(),
        # Overload-control policy curves (DES sim-time, gated hard):
        # the ISSUE 8 acceptance ratios live in these speedups.
        "BENCH_overload.json": bench_overload.collect(),
        # Record-mode overhead (replay trace recorder attached): the
        # "speedup" is the on/off rate ratio, so a recorder that starts
        # costing more than the 10% budget trips the same gate.
        "BENCH_replay.json": bench_replay.collect(),
    }
    regressions = []
    for fname, benches in fresh.items():
        baseline_path = REPO_ROOT / fname
        if not baseline_path.exists():
            print(f"[bench_runner] --check: no committed {fname}; skipping")
            continue
        committed = json.loads(
            baseline_path.read_text(encoding="utf-8"))["benches"]
        print(f"[bench_runner] --check vs {fname} "
              f"(tolerance {tolerance:.0%}):")
        for name in sorted(benches):
            got = benches[name].get("speedup")
            want = committed.get(name, {}).get("speedup")
            if got is None or want is None:
                print(f"  {name:28s} (new bench, no baseline)")
                continue
            floor = want * (1.0 - tolerance)
            status = "ok" if got >= floor else "REGRESSION"
            print(f"  {name:28s} committed {want:6.2f}x  fresh {got:6.2f}x "
                  f" floor {floor:6.2f}x  {status}")
            if got < floor:
                regressions.append((fname, name, want, got))
    if regressions:
        print(f"[bench_runner] --check: {len(regressions)} bench(es) "
              "regressed beyond tolerance:")
        for fname, name, want, got in regressions:
            print(f"  {fname}: {name}: {want:.2f}x -> {got:.2f}x")
    if regressions:
        return 1
    print("[bench_runner] --check: all benches within tolerance")
    return 0


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Run the fast-path benchmark suite.")
    parser.add_argument(
        "--check", action="store_true",
        help="re-run the speedup benches and flag >25%% regressions "
             "against the committed BENCH_*.json files (exit 1 on "
             "regression; does not rewrite the baselines)")
    args = parser.parse_args(argv)
    if args.check:
        return check()
    benches = _collect_fastpath()
    # The observability trajectory lives in its own file (BENCH_obs.json)
    # because it measures overhead of a *feature*, not a fast path — but
    # the runner drives it so CI archives both in one pass.  Likewise the
    # arena data-plane comparison (BENCH_arena.json).
    import bench_obs_overhead
    print("[bench_runner] running obs overhead ...", flush=True)
    bench_obs_overhead.main()
    import bench_arena
    print("[bench_runner] running arena data plane ...", flush=True)
    bench_arena.main()
    # Federation failover/scaling ratios (BENCH_federation.json) are
    # DES sim-time — host-independent, so --check gates them hard.
    import bench_federation
    print("[bench_runner] running federation ...", flush=True)
    bench_federation.main()
    # Burst-kernel matrix (BENCH_kernels.json): scalar/numpy/cffi hop
    # rates per ring class and frame size, plus the forwarding-mode e2e.
    import bench_kernels
    print("[bench_runner] running burst kernels ...", flush=True)
    bench_kernels.main()
    # Overload-control policy curves (BENCH_overload.json): DES
    # sim-time throughput/latency/fairness at 1x-10x offered load.
    import bench_overload
    print("[bench_runner] running overload policies ...", flush=True)
    bench_overload.main()
    # Replay-plane cost (BENCH_replay.json): record-mode overhead on
    # the runtime forwarding path and the offline DES replay rate.
    import bench_replay
    print("[bench_runner] running replay recorder ...", flush=True)
    bench_replay.main()
    report = {
        "schema": "repro.bench_fastpath/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benches": benches,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"[bench_runner] wrote {OUT_PATH}")
    for name, bench in sorted(benches.items()):
        b = bench["before"]
        a = bench["after"]
        key = ("events_per_sec" if "events_per_sec" in b
               else "items_per_sec")
        print(f"  {name:18s} {b[key]:>14.0f} -> {a[key]:>14.0f} "
              f"{bench['unit']:12s} ({bench['speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
