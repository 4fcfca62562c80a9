#!/usr/bin/env python3
"""Where one exp2c run spends its time: a stdlib CPU-time sampler.

Runs the Fig 4.10 allocation staircase (exp2c, the quick profile with
its ramp step and allocation period scaled by ``--scale``; 0.225 is
``bench/``'s des_ramp scale) in this process, with an ``ITIMER_PROF``
timer delivering ``SIGPROF`` every ``--interval`` seconds of this
process's CPU time.  Each signal records the Python stack it
interrupted.  The report prints, per function:

* **self** — share of samples whose innermost frame is the function;
* **incl** — share of samples with the function anywhere on the stack
  (counted once per sample, so recursion does not inflate it);

and, for each ``--group NAME=F1,F2,...``, the share of samples with
any of those functions on the stack (a function matches when its
``path:qualname`` label ends with one of the ``Fi``).

Sampling costs one stack walk per tick and nothing between ticks, so
it weighs functions by CPU time actually spent.  A deterministic
profiler (cProfile) instead adds a fixed cost to every call and
over-weights call-heavy code.  Two limits: CPython runs a signal
handler only at function entry and loop back-edges, so time spent in C
code (a heap push, a NumPy call) lands on the next such point — trust
**incl** over **self** for small functions; and the timer cannot tick
faster than the kernel's clock (4 ms on a 250 Hz kernel).

Usage::

    PYTHONPATH=src python tools/des_profile.py               # des_ramp scale
    PYTHONPATH=src python tools/des_profile.py --scale 0.02 --top 10
    PYTHONPATH=src python tools/des_profile.py --json out.json \\
        --group spans=SpanRecorder.record_stamps,_SpanFold.fold

``--runs N`` (default 3) repeats the run N times in one sampling pass;
the package is imported before sampling starts.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import signal
import sys
import time
from typing import Counter, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src")


def _label(code) -> str:
    """``module-relative-path:qualname`` of a code object."""
    path = code.co_filename
    marker = os.sep + "repro" + os.sep
    cut = path.rfind(marker)
    if cut >= 0:
        path = path[cut + 1:]
    else:
        path = os.path.basename(path)
    return f"{path}:{code.co_qualname}"


class Sampler:
    """``SIGPROF`` stack sampler over this process's CPU time."""

    def __init__(self, interval: float,
                 groups: Optional[Dict[str, List[str]]] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.groups = dict(groups or {})
        self.samples = 0
        self.self_counts: Counter[str] = collections.Counter()
        self.incl_counts: Counter[str] = collections.Counter()
        self.group_counts: Counter[str] = collections.Counter()
        self._labels: Dict[object, str] = {}
        self._previous = None

    def _on_tick(self, _signum, frame) -> None:
        labels = self._labels
        self.samples += 1
        seen = set()
        first = True
        while frame is not None:
            code = frame.f_code
            label = labels.get(code)
            if label is None:
                label = labels[code] = _label(code)
            if first:
                self.self_counts[label] += 1
                first = False
            if label not in seen:
                seen.add(label)
                self.incl_counts[label] += 1
            frame = frame.f_back
        for name, ends in self.groups.items():
            if any(label.endswith(end) for label in seen for end in ends):
                self.group_counts[name] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def table(self, top: int) -> List[Dict[str, object]]:
        """The ``top`` functions by inclusive share, then by self."""
        n = max(self.samples, 1)
        names = set(name for name, _ in self.incl_counts.most_common(top))
        names |= set(name for name, _ in self.self_counts.most_common(top))
        rows = [{"function": name,
                 "self": self.self_counts[name] / n,
                 "incl": self.incl_counts[name] / n} for name in names]
        rows.sort(key=lambda r: (-r["self"], -r["incl"], r["function"]))
        return rows


def run_exp2c(scale: float) -> int:
    """One exp2c run at ``scale``; returns its staircase row count."""
    from repro import obs
    from repro.experiments import get_profile, run_experiment

    quick = get_profile("quick")
    profile = dataclasses.replace(
        quick, ramp_step=quick.ramp_step * scale,
        allocation_period=quick.allocation_period * scale)
    obs.reset()
    return len(run_experiment("exp2c", profile).rows)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", type=float, default=0.225,
                    help="ramp step and allocation period, times the "
                         "quick profile's (default: des_ramp's 0.225)")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--interval", type=float, default=0.001,
                    help="sampling period, CPU seconds (default 1 ms)")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--json", default=None,
                    help="also write the table and totals here")
    ap.add_argument("--group", action="append", default=[],
                    metavar="NAME=F1,F2",
                    help="report the share of samples with any of these "
                         "functions on the stack (repeatable)")
    args = ap.parse_args(argv)
    groups = {}
    for spec in args.group:
        name, sep, ends = spec.partition("=")
        if not sep or not name or not ends:
            ap.error(f"--group wants NAME=F1,F2,...: {spec!r}")
        groups[name] = ends.split(",")
    if not 0 < args.scale <= 1:
        ap.error("--scale must be in (0, 1]")
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    sys.path.insert(0, os.path.normpath(_SRC))
    # Import what the run imports lazily, so no sample lands in a loader.
    import repro.experiments  # noqa: F401
    import repro.overload  # noqa: F401

    rows = 0
    t0 = time.perf_counter()
    with Sampler(args.interval, groups) as sampler:
        for _ in range(args.runs):
            rows = run_exp2c(args.scale)
    wall = time.perf_counter() - t0
    table = sampler.table(args.top)
    print(f"exp2c x{args.runs} at scale {args.scale}: {rows} rows, "
          f"{wall:.3f} s wall, {sampler.samples} samples "
          f"every {args.interval * 1e3:g} ms CPU")
    print(f"{'self':>7} {'incl':>7}  function")
    for row in table:
        print(f"{row['self']:7.1%} {row['incl']:7.1%}  {row['function']}")
    shares = {name: sampler.group_counts[name] / max(sampler.samples, 1)
              for name in groups}
    for name, share in shares.items():
        print(f"group {name}: {share:.1%} of samples")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"scale": args.scale, "runs": args.runs,
                       "wall_s": wall, "samples": sampler.samples,
                       "rows": rows, "table": table, "groups": shares},
                      fh, indent=2)
    return 0 if sampler.samples else 1


if __name__ == "__main__":
    sys.exit(main())
