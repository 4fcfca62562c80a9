"""Golden runtime outputs: exact per-VRI results pinned in
``data/runtime_golden.json``.

Seeded bursts — routable in both directions, mixed sizes, with no-route
and TTL=1 frames among them — go through ``RuntimeLvrm(n_vris=2,
balancer="rr")`` on the copy and the arena data plane, with the
forwarding rewrite on and off.  Every burst stays below ring capacity,
so nothing is refused and each worker's output is a function of the
input alone: round-robin hands single frames and whole bursts to the
workers in turn, and each worker is FIFO.  What is pinned per case:

* each VRI's output sequence as ``"iface:sha256 of the frame bytes"``;
* the counter snapshot: per-VRI dispatched/drained on the monitor side,
  the monitor's own registry counters, and each worker's forwarding
  counters as merged through the telemetry plane.

How the monitor's drains interleave the two workers is scheduling, not
behaviour, so it is not pinned.

Regenerate only when a change is *meant* to alter forwarding results,
and say so in its commit::

    PYTHONPATH=src python -m tests.test_runtime_golden --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys
import time
from typing import Dict, List

import pytest

from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.obs.registry import default_registry
from repro.runtime import RuntimeLvrm

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "runtime_golden.json"

CASES = {f"{plane}_rewrite_{'on' if rewrite else 'off'}": (plane, rewrite)
         for plane in ("copy", "arena") for rewrite in (False, True)}

#: Dispatch plan: ``1`` is a scalar ``dispatch()``, larger sizes are one
#: ``dispatch_many()`` burst.  Under 100 frames reach each worker, far
#: below the default ring capacity of 1024.
PLAN = (1, 1, 1, 32, 17, 1, 48, 5, 1, 1, 24, 40)

#: Worker-side counters read back through the telemetry plane.
WORKER_COUNTERS = ("vri_frames_total", "vri_forwarded_total",
                   "vri_dropped_no_route_total",
                   "vri_dropped_overflow_total")
#: Monitor-side counters (``arena_*`` exist only on the arena plane).
MONITOR_COUNTERS = ("lvrm_dispatched_total", "arena_alloc_total",
                    "arena_exhausted_total")


def make_frames(seed: int = 2011) -> List[bytes]:
    """Seeded traffic: mostly 10.2/16 (iface 1), some 10.1/16 (iface 0),
    about 8 % to an unrouted 192.168/16 and 8 % with TTL=1."""
    rng = random.Random(seed)
    frames = []
    for i in range(sum(PLAN)):
        roll = rng.random()
        ttl = 64
        if roll < 0.70:
            dst = f"10.2.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        elif roll < 0.84:
            dst = f"10.1.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        elif roll < 0.92:
            dst = f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        else:
            dst = f"10.2.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            ttl = 1
        payload = rng.randbytes(rng.choice((18, 64, 200, 700, 1400)))
        frames.append(build_udp_frame(
            0x020000000001, 0x020000000002, ip_to_int("10.1.1.2"),
            ip_to_int(dst), rng.randrange(1024, 65536),
            rng.randrange(1, 65536), payload, ttl=ttl, ident=i))
    return frames


def _worker_counters(obs_id: str, vri_id: int) -> Dict[str, int]:
    reg = default_registry()
    out = {}
    for name in WORKER_COUNTERS:
        found = reg.find(name, rt=obs_id, vri_id=str(vri_id))
        out[name] = int(found[0].value) if found else 0
    return out


def run_case(plane: str, rewrite: bool, timeout: float = 20.0) -> Dict:
    frames = make_frames()
    outputs: Dict[int, List[str]] = {1: [], 2: []}
    with RuntimeLvrm(n_vris=2, balancer="rr", data_plane=plane,
                     kernel_rewrite=rewrite, stats_interval=0.02,
                     worker_lifetime=60.0) as lvrm:
        pos = 0
        for size in PLAN:
            chunk = frames[pos:pos + size]
            pos += size
            if size == 1:
                assert lvrm.dispatch(chunk[0])
            else:
                assert lvrm.dispatch_many(chunk) == size

        def collect():
            for vri_id, iface, frame in lvrm.drain():
                outputs[vri_id].append(
                    f"{iface}:{hashlib.sha256(bytes(frame)).hexdigest()}")

        # Done once every worker has reported popping all it was given
        # and the monitor has drained all it reported forwarding.
        deadline = time.monotonic() + timeout
        while True:
            collect()
            lvrm.pump_control()
            workers = {v.vri_id: _worker_counters(lvrm.obs_id, v.vri_id)
                       for v in lvrm.vris}
            if all(workers[v.vri_id]["vri_frames_total"] == v.dispatched
                   and workers[v.vri_id]["vri_forwarded_total"] == v.drained
                   for v in lvrm.vris):
                break
            assert time.monotonic() < deadline, "workers never caught up"
            time.sleep(0.005)
        reg = default_registry()
        monitor = {}
        for name in MONITOR_COUNTERS:
            found = reg.find(name, rt=lvrm.obs_id)
            if found:
                monitor[name] = int(found[0].value)
        counters = {
            "monitor": monitor,
            "vris": {str(v.vri_id): {"dispatched": v.dispatched,
                                     "drained": v.drained,
                                     **workers[v.vri_id]}
                     for v in lvrm.vris}}
    return {"outputs": {str(k): v for k, v in outputs.items()},
            "counters": counters}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_traffic_mix_includes_every_kind():
    """The referee is only as good as its input: both directions, no
    route and TTL=1 all occur, and several frame sizes."""
    frames = make_frames()
    dsts = {f[30] for f in frames}
    assert {10, 192} <= dsts
    assert any(f[22] == 1 for f in frames)
    assert len({len(f) for f in frames}) >= 4


@pytest.mark.timeout(60)
@pytest.mark.parametrize("name", sorted(CASES))
def test_runtime_output_matches_golden(golden, name):
    got = run_case(*CASES[name])
    want = golden[name]
    assert got["counters"] == want["counters"]
    for vri_id in want["outputs"]:
        assert got["outputs"][vri_id] == want["outputs"][vri_id], vri_id


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    golden = {name: run_case(*args) for name, args in CASES.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
