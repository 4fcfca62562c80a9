"""Federation benchmark: failover time, recovery, and shard scaling.

Writes ``BENCH_federation.json`` at the repo root.  Every number here
is **DES sim-time** — a pure function of the scenario configs and
host-independent, so the exit code gates (1 on any missed threshold):

* ``federation_failover``  — speedup = failover budget (2 supervision
  periods) over the measured failover time of the canned
  kill-the-active drill; above 1.0 means the SLO holds, and a falling
  ratio means detection/promotion got slower.
* ``federation_recovery``  — speedup = post-failover throughput over
  pre-kill throughput at N=2 (the ≥0.9 acceptance bar).
* ``federation_scaling_n2`` / ``_n4`` — speedup = aggregate forwarded
  throughput at N shards over N=1, with each monitor core saturated
  (the ≥1.7x-at-N=2 acceptance bar).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import (load_federation_config,  # noqa: E402
                           run_des_failover_scenario, run_des_scaling)

OUT_PATH = REPO_ROOT / "BENCH_federation.json"
CONFIG = REPO_ROOT / "examples" / "configs" / "federation_pair.json"


def bench_failover() -> Dict[str, Dict]:
    print("[bench_federation] running the HA-pair failover drill ...",
          flush=True)
    report = run_des_failover_scenario(
        load_federation_config(str(CONFIG)))
    failover = report["failover"]
    throughput = report["throughput"]
    return {
        "federation_failover": {
            "unit": "budget/failover",
            "before": {"budget_seconds": failover["budget_seconds"]},
            "after": {"failover_seconds": failover["failover_seconds"],
                      "lost_in_blackout": failover["lost_in_blackout"]},
            "speedup": (failover["budget_seconds"]
                        / failover["failover_seconds"]),
            "ok": report["ok"],
        },
        "federation_recovery": {
            "unit": "post/pre throughput",
            "before": {"pre_kill_kfps": throughput["pre_kill_kfps"]},
            "after": {"post_failover_kfps":
                      throughput["post_failover_kfps"]},
            "speedup": throughput["recovered_ratio"],
            "ok": throughput["recovered_ratio"] >= 0.9,
        },
    }


def bench_scaling() -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    base = None
    for n in (1, 2, 4):
        print(f"[bench_federation] running the scaling sweep at "
              f"N={n} ...", flush=True)
        report = run_des_scaling(n)
        if n == 1:
            base = report
            continue
        speedup = (report["throughput_kfps"]
                   / base["throughput_kfps"])
        out[f"federation_scaling_n{n}"] = {
            "unit": "aggregate kfps vs N=1",
            "before": {"n1_kfps": base["throughput_kfps"]},
            "after": {f"n{n}_kfps": report["throughput_kfps"],
                      "vr_shares": report["vr_shares"],
                      "rebalance_moves": report["rebalance_moves"]},
            "speedup": speedup,
            "ok": n != 2 or speedup >= 1.7,
        }
    return out


def collect() -> Dict[str, Dict]:
    benches: Dict[str, Dict] = {}
    benches.update(bench_failover())
    benches.update(bench_scaling())
    return benches


def main() -> int:
    benches = collect()
    report = {
        "schema": "repro.bench_federation/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benches": benches,
    }
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"[bench_federation] wrote {OUT_PATH}")
    bad = 0
    for name, bench in sorted(benches.items()):
        flag = "ok" if bench["ok"] else "FAILED"
        print(f"  {name:24s} {bench['speedup']:6.2f}x "
              f"({bench['unit']})  {flag}")
        bad += 0 if bench["ok"] else 1
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
