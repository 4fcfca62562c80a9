"""One workload, one process: the child ``bench/run.py`` spawns.

The process imports ``repro`` fresh, builds the seeded inputs, drives
the stable public surface — ``RuntimeLvrm(n_vris, map_lines,
kernel_rewrite=True, worker_lifetime)`` with ``dispatch_many`` /
``drain_until`` / ``pump_control`` / ``stop``, or ``run_experiment`` —
checks every output, and prints one JSON object as its last line.

No end-to-end run passes an implementation-selecting keyword (kernel,
data plane, ring, wait strategy, shards, ring capacity): it measures
what the repository ships by default, and reads the *effective*
configuration back from the live instance for the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from accounting import (Backlog, Ledger, Windows, percentile,  # noqa: E402
                        result_digest, staircase_failures)
from loadgen import WORKLOADS, Workload, make_pool  # noqa: E402
from spans import Tracer  # noqa: E402

clock = time.perf_counter
_TICK = os.sysconf("SC_CLK_TCK")

#: Closed-loop windows per run (ISSUE 12: 12 windows, median reported).
N_WINDOWS = 12
#: Attributes that say which implementation actually ran.
EFFECTIVE_ATTRS = ("kernel", "data_plane", "ring_impl", "wait_strategy",
                   "dispatch_shards", "ring_capacity", "balancer",
                   "kernel_rewrite")
#: des_ramp repeats the experiment this often and keeps the fastest run:
#: the work is deterministic, so this host's wandering speed can only add
#: time, and several short runs find a quiet stretch where two long ones
#: do not.
DES_RUNS = 6
#: The ramp step (and allocation period, same 5:1 ratio) of the quick
#: profile shrink by ``seconds / DES_FULL_SECONDS`` (never above 1) so
#: that DES_RUNS runs fit the run length: 0.225 x at 27 s, ~3 s a run.
DES_FULL_SECONDS = 120.0


def proc_cpu_s(pid: int) -> float:
    """utime+stime of a live process, seconds (``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_s_with_children() -> float:
    """CPU-seconds of this process and of the children it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class RuntimeRun:
    """State shared by the closed and the paced loop over one monitor."""

    def __init__(self, wl: Workload, seed: int, trace: bool,
                 extra_kwargs: Optional[dict] = None) -> None:
        from repro.runtime import RuntimeLvrm

        self.wl = wl
        self.pool = make_pool(wl, seed)
        self.ledger = Ledger(self.pool)
        self.backlog = Backlog()
        self.tracer = Tracer()
        self.trace = trace
        kwargs = dict(n_vris=1, map_lines=self.pool.fib.map_lines,
                      kernel_rewrite=True, worker_lifetime=600.0)
        if trace:
            # Worker-side counters (sleeps, batch sizes) ride the control
            # ring; an observability knob, not an implementation choice.
            kwargs["stats_interval"] = 0.5
        kwargs.update(extra_kwargs or {})
        self.lvrm = RuntimeLvrm(**kwargs)
        self.worker_pid = self.lvrm.vris[0].process.pid
        self.send = self.lvrm.dispatch_many
        self.drain = self.lvrm.drain
        self.drain_until = self.lvrm.drain_until
        self.pump = self.lvrm.pump_control
        if trace:
            t = self.tracer
            # Instance attributes shadow the class's methods, so the
            # drains drain_until makes show up as its child spans.
            self.lvrm.drain = self.drain = t.wrap("runtime.drain",
                                                  self.lvrm.drain)
            self.lvrm.pump_control = self.pump = t.wrap(
                "runtime.pump_control", self.lvrm.pump_control)
            self.send = t.wrap("runtime.dispatch_many",
                               self.lvrm.dispatch_many)
            self.drain_until = t.wrap("runtime.drain_until",
                                      self.lvrm.drain_until)
        self.burst_time = np.zeros(1 << 16)   # burst index -> offer/due time
        self.must_return = 0                  # issued frames that come back
        self.written_off = 0
        self.depth_in: List[int] = []
        self.depth_out: List[int] = []
        self.late: List[float] = []

    # -- shared steps ----------------------------------------------------------
    def effective(self) -> Dict[str, object]:
        eff = {k: getattr(self.lvrm, k, None) for k in EFFECTIVE_ATTRS}
        eff["n_vris"] = len(self.lvrm.vris)
        return eff

    def prepare(self):
        """Generate the next burst (sequence numbers are taken here)."""
        with self.tracer.span("bench.loadgen"):
            seq0 = self.ledger.issue(self.wl.burst)
            return seq0, self.pool.burst(seq0, self.wl.burst)

    def release(self, prepared, t: float) -> None:
        """Queue a prepared burst for sending, offered/due at ``t``."""
        seq0, frames = prepared
        wl = self.wl
        k = seq0 // wl.burst
        if k >= len(self.burst_time):
            self.burst_time = np.concatenate(
                [self.burst_time, np.zeros_like(self.burst_time)])
        self.burst_time[k] = t
        if wl.drop_share:
            self.must_return += int(self.pool.returns(
                np.arange(seq0, seq0 + wl.burst)).sum())
        else:
            self.must_return += wl.burst
        self.backlog.push(t, frames)

    def issue(self, t: float) -> None:
        self.release(self.prepare(), t)

    def outstanding(self) -> int:
        return (self.must_return - self.ledger.returned
                - self.backlog.expired - self.written_off)

    def account(self, out, t_drain: float, win: Windows, stride: int) -> None:
        """Check a drained batch and file its count (by drain time) and
        every ``stride``-th frame's latency (by offer/due time)."""
        with self.tracer.span("bench.account"):
            seqs = self.ledger.record(out)
            win.count(t_drain, len(out))
            if len(seqs):
                picked = seqs[::stride]
                t_ref = self.burst_time[picked // self.wl.burst]
                win.add(t_ref, (t_drain - t_ref) * 1e6)

    def sample_depths(self) -> None:
        vri = self.lvrm.vris[0]
        self.depth_in.append(len(vri.data_in))
        self.depth_out.append(len(vri.data_out))

    def first_burst(self) -> None:
        """Push one burst through: the end of set-up."""
        before = self.must_return
        self.issue(clock())
        want = self.must_return - before
        deadline = clock() + 10.0
        got = 0
        while got < want and clock() < deadline:
            self.backlog.offer(clock(), self.send)
            out = self.drain_until(want - got, timeout=0.5)
            got += len(out)
            self.ledger.record(out)
        if got < want:
            raise RuntimeError(f"warm-up burst: {got}/{want} frames returned")

    def settle(self, grace: float = 2.0) -> None:
        """After the timed region: collect what is still in flight."""
        deadline = clock() + grace
        while self.outstanding() > 0 and clock() < deadline:
            self.backlog.offer(clock(), self.send)
            self.ledger.record(self.drain_until(self.outstanding(),
                                                timeout=0.25))

    def worker_stats(self) -> Dict[str, float]:
        """Cumulative worker-side counters as last merged by the monitor
        (traced runs only: they need ``stats_interval``)."""
        from repro.obs.registry import default_registry
        reg = default_registry()
        vri = str(self.lvrm.vris[0].vri_id) if self.lvrm.vris else "1"
        sleeps = reg.find("wait_sleeps_total", vri_id=vri)
        batches = reg.find("ring_batch_size", vri_id=vri, side="worker")
        return {
            "sleeps": float(sleeps[0].value) if sleeps else 0.0,
            "batch_sum": float(batches[0].sum) if batches else 0.0,
            "batch_count": float(batches[0].count) if batches else 0.0,
        }


class _Edges:
    """Window edges of a timed region, with CPU and tracer bookkeeping.

    In a traced run odd windows are traced and even ones are not, so the
    tracing overhead is measured inside one run on one warmed pipeline.
    """

    def __init__(self, run: RuntimeRun, t0: float, width: float, n: int):
        self.run, self.t0, self.width, self.n = run, t0, width, n
        self.k = 0
        self.next_edge = t0 + width
        self.marks = [self._mark(t0)]
        run.tracer.enabled = False

    def _mark(self, t: float) -> tuple:
        return (t, time.process_time(), proc_cpu_s(self.run.worker_pid))

    def check(self, now: float) -> bool:
        """Advance past any edge ``now`` crossed; False once the region
        is over."""
        while now >= self.next_edge:
            self.marks.append(self._mark(now))
            self.k += 1
            self.next_edge = self.t0 + (self.k + 1) * self.width
            if self.k >= self.n:
                self.run.tracer.enabled = False
                return False
            self.run.tracer.enabled = self.run.trace and self.k % 2 == 1
            self.run.pump()
        return True

    def close(self, now: float) -> None:
        """The loop ended by itself (open loop: every burst is back)
        before crossing the last edge: close the open windows here."""
        self.run.tracer.enabled = False
        while len(self.marks) <= self.n:
            self.marks.append(self._mark(now))

    def traced(self, k: int) -> bool:
        return self.run.trace and k % 2 == 1

    def windows(self, traced: bool) -> List[int]:
        return [k for k in range(self.n) if self.traced(k) == traced]

    def spans(self, traced_only: bool) -> Dict[str, float]:
        """Wall, monitor CPU and worker CPU seconds over the windows."""
        wall = mon = wrk = 0.0
        for k in range(min(self.n, len(self.marks) - 1)):
            if traced_only and not self.traced(k):
                continue
            a, b = self.marks[k], self.marks[k + 1]
            wall += b[0] - a[0]
            mon += b[1] - a[1]
            wrk += b[2] - a[2]
        return {"wall": wall, "monitor_cpu": mon, "worker_cpu": wrk}


def closed_loop(run: RuntimeRun, warm: float, duration: float,
                n_windows: int) -> Dict[str, object]:
    """Fixed window of frames in flight; a burst is issued whenever the
    window has room, otherwise the loop waits in ``drain_until``."""
    wl = run.wl
    width = duration / n_windows
    t_end_warm = clock() + warm
    win = edges = stats0 = None
    stalled = 0
    while True:
        now = clock()
        if edges is None:
            if now >= t_end_warm:       # warm-up over: the windows start
                win = Windows(now, width, n_windows)
                edges = _Edges(run, now, width, n_windows)
                stats0 = run.worker_stats() if run.trace else None
        elif not edges.check(now):
            break
        with run.tracer.span("bench.loop"):
            while run.outstanding() + wl.burst <= wl.window_frames:
                run.issue(now)
            run.backlog.offer(now, run.send)
            if run.tracer.enabled:
                run.sample_depths()
            out = run.drain_until(1, timeout=0.2)
            if out:
                stalled = 0
                if win is None:
                    run.ledger.record(out)
                else:
                    run.account(out, clock(), win, stride=16)
                continue
            stalled += 1
            if stalled >= 5:
                # A second without a single return: write the window off
                # (the ledger counts those frames lost) and carry on.
                run.written_off += max(0, run.outstanding())
                stalled = 0
    stats1 = run.worker_stats() if run.trace else None
    run.settle()
    return {"win": win, "edges": edges, "stats": (stats0, stats1)}


def paced_loop(run: RuntimeRun, warm: float, duration: float
               ) -> Dict[str, object]:
    """Open loop: a burst is *due* every ``burst / rate`` seconds whatever
    the router does; latency runs from the due time."""
    wl = run.wl
    interval = wl.burst / wl.rate_fps
    n_windows = max(2, int(duration))          # 1-s windows by due time
    width = duration / n_windows
    start = clock() + 0.01
    t0 = start + warm
    n_bursts = int(round((warm + duration) / interval))
    win = Windows(t0, width, n_windows)
    edges = _Edges(run, t0, width, n_windows)
    stats0 = run.worker_stats() if run.trace else None
    k = 0
    measuring = True
    # The next burst is built ahead of its due time, so the generator's
    # own work is not part of the latency it measures.
    prepared = run.prepare()
    while True:
        now = clock()
        if measuring and now >= t0:
            measuring = edges.check(now)
        with run.tracer.span("bench.loop"):
            while k < n_bursts and start + k * interval <= now:
                due = start + k * interval
                run.late.append(now - due)
                run.release(prepared, due)
                k += 1
                run.backlog.offer(now, run.send)
                prepared = run.prepare() if k < n_bursts else None
            if run.backlog:
                run.backlog.offer(now, run.send)
            if k >= n_bursts and (run.outstanding() <= 0 or not measuring):
                break
            if run.tracer.enabled:
                run.sample_depths()
            next_due = start + k * interval if k < n_bursts else now + 0.01
            wait = next_due - clock()
            if run.outstanding() > 0:
                # drain_until with no time left would return without
                # looking.
                out = (run.drain_until(1, timeout=wait) if wait > 0
                       else run.drain())
                if out:
                    run.account(out, clock(), win, stride=1)
            elif wait > 0:
                # Nothing in flight: the generator's own wait, not the
                # router's.  Sleep short, then spin to the due time.
                with run.tracer.span("bench.sleep"):
                    if wait > 250e-6:
                        time.sleep(wait - 150e-6)
                    while clock() < next_due:
                        pass
    edges.close(clock())
    stats1 = run.worker_stats() if run.trace else None
    run.settle(grace=1.0)
    return {"win": win, "edges": edges, "stats": (stats0, stats1)}


def run_loop(run: RuntimeRun, seconds: float) -> Dict[str, object]:
    if run.wl.kind == "closed":
        return closed_loop(run, warm=min(1.0, seconds / N_WINDOWS),
                           duration=seconds, n_windows=N_WINDOWS)
    return paced_loop(run, warm=min(1.0, seconds / 10.0), duration=seconds)


def summarize_e2e(run: RuntimeRun, loop: Dict[str, object]
                  ) -> Dict[str, float]:
    edges: _Edges = loop["edges"]
    rates = loop["win"].rate_per_s()
    lat_q, lat_n, lat_w = loop["win"].latency((50, 90, 99))
    total = edges.spans(traced_only=False)
    return {
        "fwd_kfps": statistics.median(
            rates[k] for k in edges.windows(traced=False)) / 1e3,
        "lat_p50_us": lat_q[50],
        "lat_p90_us": lat_q[90],
        "lat_p99_us": lat_q[99],
        "lat_samples": lat_n,
        "lat_windows": lat_w,
        "worker_cpu_share": total["worker_cpu"] / total["wall"],
        "monitor_cpu_share": total["monitor_cpu"] / total["wall"],
        "window_kfps": [round(r / 1e3, 2) for r in rates],
    }


def summarize_layers(run: RuntimeRun, loop: Dict[str, object]
                     ) -> Dict[str, float]:
    """Per-layer rows of one traced runtime run (traced windows only)."""
    edges: _Edges = loop["edges"]
    rates = loop["win"].rate_per_s()
    traced = edges.windows(traced=True)
    untraced = edges.windows(traced=False)
    frames = float(sum(loop["win"].counts[k] for k in traced)) or 1.0
    tot = run.tracer.totals()
    tr = edges.spans(traced_only=True)
    wall_ns = tr["wall"] * 1e9 or 1.0

    def col(name: str, key: str) -> float:
        return float(tot.get(name, {}).get(key, 0.0))

    dispatch_ns = col("runtime.dispatch_many", "self_ns")
    drain_ns = col("runtime.drain", "busy_self_ns")
    idle_ns = (col("runtime.drain", "empty_self_ns")
               + col("runtime.drain_until", "self_ns")
               + col("runtime.pump_control", "self_ns")
               + col("bench.sleep", "self_ns"))
    own_ns = (col("bench.loop", "self_ns") + col("bench.loadgen", "self_ns")
              + col("bench.account", "self_ns"))
    depth_in = np.array(run.depth_in or [0], dtype=float)
    depth_out = np.array(run.depth_out or [0], dtype=float)
    rate = frames / tr["wall"] if tr["wall"] else 0.0
    stats0, stats1 = loop["stats"]
    span_s = (edges.marks[-1][0] - edges.marks[0][0]) or 1.0
    batches = stats1["batch_count"] - stats0["batch_count"]
    lat_q, _n, _w = loop["win"].latency((99,))
    t_rate = statistics.median(rates[k] for k in traced) if traced else 0.0
    u_rate = statistics.median(rates[k] for k in untraced)
    return {
        "runtime.dispatch_many.ns_per_frame": dispatch_ns / max(
            col("runtime.dispatch_many", "n"), 1.0),
        "runtime.drain.ns_per_frame": drain_ns / max(
            col("runtime.drain", "n"), 1.0),
        "runtime.monitor.dispatch_share": dispatch_ns / wall_ns,
        "runtime.monitor.drain_share": drain_ns / wall_ns,
        "runtime.monitor.idle_share": idle_ns / wall_ns,
        "runtime.monitor.unattributed_share": own_ns / wall_ns,
        "runtime.monitor.closure": (dispatch_ns + drain_ns + idle_ns
                                    + own_ns) / wall_ns,
        "runtime.monitor.cpu_ns_per_frame": tr["monitor_cpu"] * 1e9 / frames,
        "runtime.worker.cpu_ns_per_frame": tr["worker_cpu"] * 1e9 / frames,
        "runtime.worker.wait_sleeps_per_s":
            (stats1["sleeps"] - stats0["sleeps"]) / span_s,
        "runtime.worker.batch_mean":
            (stats1["batch_sum"] - stats0["batch_sum"]) / batches
            if batches else 0.0,
        "ipc.data_in.depth_mean": float(depth_in.mean()),
        "ipc.data_in.depth_p99": percentile(depth_in, 99),
        "ipc.data_out.depth_mean": float(depth_out.mean()),
        "ipc.data_in.wait_us": float(depth_in.mean()) / rate * 1e6
        if rate else 0.0,
        "dispatch.refused_share": run.backlog.refused / max(
            run.backlog.attempts, 1),
        "runtime.lat_p99_us": lat_q[99],
        "loadgen.late_p99_us": percentile(np.array(run.late), 99) * 1e6,
        "obs.trace_overhead_share": 1.0 - t_rate / u_rate if u_rate else 0.0,
        "e2e.traced_ns_per_frame": wall_ns / frames,
    }


def run_runtime(wl: Workload, args) -> Dict[str, object]:
    run = RuntimeRun(wl, args.seed, trace=bool(args.trace))
    info: Dict[str, object] = {}
    layers: Dict[str, float] = {}
    try:
        run.first_burst()
        setup_s = time.time() - args.t_spawn
        effective = run.effective()
        if args.setup_only:
            return {"setup_s": setup_s, "effective": effective}
        loop = run_loop(run, args.seconds)
        metrics = summarize_e2e(run, loop)
        if args.trace:
            layers = summarize_layers(run, loop)
    finally:
        run.lvrm.stop()
    reasons = run.ledger.finalize()
    metrics["peak_rss_mb"] = (rss_mb(resource.RUSAGE_SELF)
                              + rss_mb(resource.RUSAGE_CHILDREN))
    info.update(sampled=run.ledger.sampled, returned=run.ledger.returned,
                expired=run.backlog.expired, written_off=run.written_off,
                late_p99_us=percentile(np.array(run.late or [0.0]), 99) * 1e6)
    result = {"setup_s": setup_s, "effective": effective, "metrics": metrics,
              "attempted": run.ledger.issued, "failed": reasons["failed"],
              "reasons": reasons, "info": info}
    if args.trace:
        import probes
        layers.update(probes.run_all(args.probe_seconds, effective,
                                     seed=args.seed))
        tag = {v: k for k, v in probes.SIZE_WORKLOAD.items()}.get(wl.name)
        explained = probes.explained_ns(layers, effective, tag) if tag \
            else None
        if explained is not None:
            layers["runtime.worker.explained_ns_per_frame"] = explained
            layers["runtime.worker.unexplained_ns_per_frame"] = (
                layers["runtime.worker.cpu_ns_per_frame"] - explained)
        if wl.name == "fwd_small":
            layers["obs.spans64.overhead_share"] = spans64_overhead(
                wl, args, metrics["fwd_kfps"])
        result["layers"] = layers
        result["trace"] = run.tracer.dump()
    return result


def spans64_overhead(wl: Workload, args, base_kfps: float) -> float:
    """``fwd_small`` again with 1-in-64 span sampling on, against this
    run's untraced windows."""
    seconds = max(1.0, args.seconds / 4.0)
    run = RuntimeRun(wl, args.seed, trace=False,
                     extra_kwargs={"span_sample_every": 64})
    try:
        run.first_burst()
        loop = closed_loop(run, warm=0.5, duration=seconds, n_windows=4)
        kfps = summarize_e2e(run, loop)["fwd_kfps"]
    finally:
        run.lvrm.stop()
    return 1.0 - kfps / base_kfps if base_kfps else 0.0


def run_des(wl: Workload, args) -> Dict[str, object]:
    from repro.experiments import get_profile, run_experiment

    scale = min(1.0, args.seconds / DES_FULL_SECONDS)
    quick = get_profile("quick")
    profile = dataclasses.replace(
        quick, ramp_step=quick.ramp_step * scale,
        allocation_period=quick.allocation_period * scale)
    setup_s = time.time() - args.t_spawn
    effective = {"experiment": "exp2c", "profile": "quick",
                 "ramp_step": profile.ramp_step,
                 "allocation_period": profile.allocation_period}
    if args.setup_only:
        return {"setup_s": setup_s, "effective": effective}
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    experiment = tracer.wrap("experiments.run_experiment", run_experiment,
                             count=lambda r: len(r.rows))
    walls, cpus, digests, rows = [], [], [], []
    for _ in range(DES_RUNS):
        cpu0, t0 = cpu_s_with_children(), clock()
        result = experiment("exp2c", profile)
        walls.append(clock() - t0)
        cpus.append(cpu_s_with_children() - cpu0)
        as_dict = result.to_dict()
        digests.append(result_digest(as_dict))
        rows = as_dict["rows"]
    failed = staircase_failures(rows)
    same = len(set(digests)) == 1
    if not same or not rows:
        failed = max(len(rows), 1)
    # Frames the ramp offered, at simulation scale: each row is one step.
    sim_frames = sum(r[1] for r in rows) * 1e3 * profile.rate_scale \
        * profile.ramp_step
    # One measurement: the fastest run.  The manifest's rate and latency
    # rows are that number in their own units, so they move together and
    # --compare judges it once, as des_wall_s.
    fastest = walls.index(min(walls))
    des_wall_s = walls[fastest]
    metrics = {
        "des_wall_s": des_wall_s,
        "fwd_kfps": sim_frames / des_wall_s / 1e3,
        "lat_p50_us": des_wall_s * 1e6,
        "lat_p90_us": des_wall_s * 1e6,
        # Cores the DES occupied: 1 today; above 1 if it ever fans out.
        "worker_cpu_share": cpus[fastest] / des_wall_s,
        "peak_rss_mb": (rss_mb(resource.RUSAGE_SELF)
                        + rss_mb(resource.RUSAGE_CHILDREN)),
    }
    out = {"setup_s": setup_s, "effective": effective, "metrics": metrics,
           "attempted": max(len(rows), 1), "failed": failed,
           "reasons": {"off_staircase": staircase_failures(rows),
                       "digest_mismatch": int(not same)},
           "info": {"digest": digests[0] if same else digests,
                    "walls_s": walls, "rows": len(rows),
                    "sim_frames": sim_frames}}
    if args.trace:
        import probes
        layers = probes.run_all(args.probe_seconds, {}, seed=args.seed)
        out["layers"] = layers
        out["trace"] = tracer.dump()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t-spawn", type=float, default=time.time(),
                    help="time.time() when run.py spawned this process: "
                         "where setup_s starts")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe-seconds", type=float, default=0.05,
                    help="length of one probe sample (traced runs)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    result = run_des(wl, args) if wl.kind == "des" else run_runtime(wl, args)
    result["workload"] = wl.name
    if "info" in result:
        # Asked once every number is taken: part of the host fingerprint.
        from repro.kernels import available_kernels
        result["info"]["kernels"] = list(available_kernels())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
