"""DES runs shared by the determinism and golden-output tests.

Each case is a zero-argument function returning a JSON-ready result.
:func:`first` memoises one run per case for the whole test session, so
``test_determinism.py`` (which compares it with a fresh run) and
``test_des_golden.py`` (which compares it with ``data/des_golden.json``)
pay for it once.  :func:`fresh` always runs anew.

Regenerate the golden file only when a change is *meant* to alter DES
results, and say so in its commit::

    PYTHONPATH=src python -m tests.des_cases --write
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from typing import Any, Callable, Dict

from repro.experiments import QUICK

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "des_golden.json"

TINY = dataclasses.replace(QUICK, name="tiny", trace_frames=4000,
                           ctrl_events=15, window=0.01, warmup=0.004,
                           frame_sizes=(84,))

#: ``bench/workloads.py``'s des_ramp scaling at its default 27-s run
#: length: ramp step and allocation period shrink by 27/120.
BENCH_DES_SCALE = min(1.0, 27.0 / 120.0)


def exp2c_bench_scale() -> dict:
    from repro.experiments import get_profile, run_experiment

    quick = get_profile("quick")
    profile = dataclasses.replace(
        quick, ramp_step=quick.ramp_step * BENCH_DES_SCALE,
        allocation_period=quick.allocation_period * BENCH_DES_SCALE)
    return run_experiment("exp2c", profile).to_dict()


def exp1c_tiny() -> list:
    from repro.experiments.exp1_overhead import exp1c
    return exp1c(TINY).rows


def exp1e_tiny() -> list:
    from repro.experiments.exp1_overhead import exp1e
    return exp1e(TINY).rows


def udp_trial_tiny() -> Any:
    from repro.experiments.common import udp_trial
    return udp_trial("lvrm-cpp-pfring", 150_000, 84, TINY)


def fault_scenario() -> dict:
    from repro.faults import FaultSchedule, FaultSpec
    from repro.faults.scenario import run_des_scenario

    sched = FaultSchedule((
        FaultSpec(t=0.6, kind="kill", vri=1),
        FaultSpec(t=0.9, kind="corrupt_slot", vri=2, count=3),
        FaultSpec(t=1.1, kind="hang", vri=0),
    ), "mixed failover")
    return run_des_scenario(sched, duration=2.0)


def overload_drill() -> dict:
    from repro.faults import FaultSchedule, FaultSpec
    from repro.faults.scenario import run_des_scenario

    sched = FaultSchedule((FaultSpec(t=0.5, kind="kill", vri=1),))
    return run_des_scenario(
        sched, duration=1.5, overload_policy="adaptive-sample",
        overload_x=4.0,
        overload_opts={"band_lo": 0.1, "band_hi": 0.4,
                       "update_interval": 0.005})


def federated_failover() -> dict:
    from repro.cluster import FederationConfig, run_des_failover_scenario
    from repro.faults import FaultSchedule, FaultSpec

    cfg = FederationConfig(
        duration=1.6, rate_fps=4000.0, n_flows=8, routes=6,
        faults=FaultSchedule((FaultSpec(t=0.703, kind="kill_instance",
                                        instance=0),)))
    return run_des_failover_scenario(cfg)


CASES: Dict[str, Callable[[], Any]] = {
    "exp2c_bench_scale": exp2c_bench_scale,
    "exp1c_tiny": exp1c_tiny,
    "exp1e_tiny": exp1e_tiny,
    "udp_trial_tiny": udp_trial_tiny,
    "fault_scenario": fault_scenario,
    "overload_drill": overload_drill,
    "federated_failover": federated_failover,
}

_FIRST: Dict[str, Any] = {}


def fresh(name: str) -> Any:
    return CASES[name]()


def first(name: str) -> Any:
    if name not in _FIRST:
        _FIRST[name] = fresh(name)
    return _FIRST[name]


def canonical(result: Any) -> str:
    """The JSON text a result is pinned as: tuples become lists, keys
    become sorted strings, floats keep their shortest exact repr."""
    return json.dumps(json.loads(json.dumps(result)), sort_keys=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--write"]:
        print(__doc__)
        return 2
    golden = {name: json.loads(canonical(fn())) for name, fn in CASES.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
