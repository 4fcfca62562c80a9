#!/usr/bin/env python3
"""The LVRM benchmark: four workloads, named metrics, one command.

    python bench/run.py                         # all four workloads
    python bench/run.py --trace                 # ... plus the per-layer run
    python bench/run.py --repeat 5 --out A.json # interleaved: A B C D A B C D
    python bench/run.py --compare A.json B.json # medians, ratios, verdicts
    python bench/run.py --smoke                 # seconds, not minutes
    python bench/run.py --workload fwd_small --seed 3 --seconds 27 --trace 0

The last form is the driver's: it ends with one JSON line holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace
1``) that ``BENCHMARK.json`` names.

Each workload runs in a fresh interpreter (``bench/workloads.py``) with
every ``REPRO_*`` variable scrubbed and a hard timeout; afterwards this
process asserts that no ``/dev/shm`` segment and no child outlived it.
See ``bench/README.md`` for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from accounting import spread_share, verdict  # noqa: E402
from loadgen import WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"
CHILD = HERE / "workloads.py"
#: Everything one driver invocation may take (its limit is 180 s).
HARD_LIMIT_S = 170.0
#: What the measured run needs beyond ``--seconds``: its own set-up,
#: warm-up, final drain, checks and teardown (~4 s here), with margin.
MAIN_RESERVE_S = 15.0
#: Share of ``--seconds`` a traced driver run gives the workload; the
#: probes get most of the rest, so traced and untraced runs cost alike.
TRACED_WORKLOAD_SHARE = 0.55
TRACED_PROBE_SHARE = 0.30
#: Probe measurements in one pass (5 samples each); sizes the sample.
PROBE_MEASUREMENTS = 34 * 5
PAPER_ANCHOR_KFPS = 3700.0
#: On ``des_ramp`` these manifest rows are ``des_wall_s`` in other units
#: (the driver wants every metric from every workload); the readable
#: output and ``--compare`` judge that one measurement once, by its name.
DES_ALIASES = ("fwd_kfps", "lat_p50_us", "lat_p90_us")
#: Worsening that is always allowed, whatever the bound's share comes to
#: (ISSUE 12: ``setup_s`` 25 % and at least 0.25 s).
ABS_FLOOR = {"setup_s": 0.25}


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def judged_specs(manifest: dict, workload: str) -> List[dict]:
    """The end-to-end rows to show and judge for one workload."""
    specs = manifest["end_to_end"]
    if WORKLOADS[workload].kind != "des":
        return specs
    bound = max(s["bound"] for s in specs if s["name"] in DES_ALIASES)
    return ([{"name": "des_wall_s", "unit": "s", "better": "lower",
              "bound": bound}]
            + [s for s in specs if s["name"] not in DES_ALIASES])


# ---------------------------------------------------------------------------
# Running one workload in isolation
# ---------------------------------------------------------------------------

def scrubbed_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # The cffi kernel compiles into tempfile.mkdtemp(); keep that inside
    # the checkout too.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def group_members(pgid: int) -> List[str]:
    """Live (non-zombie) processes in a process group, as ``pid:comm``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                head, tail = fh.read().rsplit(")", 1)
        except OSError:
            continue
        fields = tail.split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(f"{entry}:{head.split('(', 1)[1]}")
    return members


def mapped_shm(pids: Iterable[str]) -> Set[str]:
    """Names under ``/dev/shm`` that any of ``pids`` has mapped.  A
    process that is gone or not ours to read maps nothing we can see."""
    names: Set[str] = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/maps") as fh:
                for line in fh:
                    _, sep, path = line.rstrip("\n").partition("/dev/shm/")
                    if sep:
                        names.add(path.replace(" (deleted)", ""))
        except OSError:
            continue
    return names


def reap_group(pgid: int, grace_s: float) -> Tuple[List[str], Set[str]]:
    """Wait up to ``grace_s`` for a process group to empty by itself
    (multiprocessing's resource tracker exits a moment after its
    parent), then SIGKILL what is left.  Returns what that was and the
    ``/dev/shm`` names those processes had mapped: segments that are
    provably the group's own."""
    deadline = time.monotonic() + grace_s
    members = group_members(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.02)
        members = group_members(pgid)
    held: Set[str] = set()
    if members:
        held = mapped_shm(m.split(":", 1)[0] for m in members)
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return members, held


def orphaned_shm(before: set, held: Set[str]) -> List[str]:
    """``/dev/shm`` segments a workload left behind.

    ``held`` (mapped by the workload's processes when they had to be
    killed) is the workload's own beyond doubt and is unlinked here.  A
    name that merely appeared while the workload ran may belong to
    anything else on the host, so it is only reported, never unlinked,
    and only if it is ours by owner and no live process has it mapped:
    a segment somebody still uses was not leaked by a group that is
    gone."""
    leaked = []
    for name in sorted(held & shm_segments()):
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
        leaked.append(name)
    new = shm_segments() - before - held
    if new:
        in_use = mapped_shm(e for e in os.listdir("/proc") if e.isdigit())
        for name in sorted(new - in_use):
            try:
                if os.stat(os.path.join("/dev/shm", name)).st_uid \
                        == os.getuid():
                    leaked.append(name)
            except OSError:
                continue            # gone meanwhile: not a leak
    return leaked


def spawn(child_args: List[str], timeout: float) -> Dict[str, object]:
    """Run the child in its own process group and make sure the whole
    group is gone afterwards.  Returns its parsed last stdout line
    (``result``) or the reason there is none (``error``), which
    processes outlived a child that exited by itself (``survivors``) and
    which segments killed processes still held (``held_shm``)."""
    cmd = [sys.executable, str(CHILD), *child_args,
           "--t-spawn", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=scrubbed_env(), cwd=str(ROOT),
                            start_new_session=True)
    outcome: Dict[str, object] = {"survivors": [], "held_shm": set()}
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _members, outcome["held_shm"] = reap_group(proc.pid, grace_s=0.0)
        proc.communicate()
        outcome["error"] = f"hung: no result within {timeout:.0f} s"
        return outcome
    # The child is reaped; anything still in its group outlived it.
    outcome["survivors"], outcome["held_shm"] = reap_group(proc.pid,
                                                           grace_s=2.0)
    if proc.returncode != 0:
        outcome["error"] = (f"exit code {proc.returncode}: "
                            + stderr.strip()[-800:])
        return outcome
    try:
        outcome["result"] = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        outcome["error"] = "no JSON result on the last stdout line"
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_setups: int, probe_seconds: float) -> Dict[str, object]:
    """One measured run of one workload, set-up repeats included."""
    t_begin = time.monotonic()
    deadline = t_begin + HARD_LIMIT_S
    shm_before = shm_segments()
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds)]
    record: Dict[str, object] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "metrics": {}, "layers": {}, "problems": []}
    problems: List[str] = record["problems"]  # type: ignore[assignment]
    setups: List[float] = []
    held: Set[str] = set()
    for k in range(n_setups - 1):
        # The set-up probes share what the main run does not need; once
        # that is spent they are skipped, so a slow host costs set-up
        # samples and never the measured run.
        spare = deadline - time.monotonic() - (seconds + MAIN_RESERVE_S)
        if spare <= 1.0:
            record["setup_probes_skipped"] = n_setups - 1 - k
            break
        got = spawn(base + ["--setup-only"],
                    timeout=min(60.0, spare / (n_setups - 1 - k)))
        held |= got["held_shm"]
        if "result" in got:
            setups.append(got["result"]["setup_s"])
        else:
            problems.append(f"set-up probe: {got['error']}")
        if got["survivors"]:
            problems.append(f"set-up probe left behind {got['survivors']}")
    main_args = base + ["--trace", str(int(trace)),
                        "--probe-seconds", repr(probe_seconds)]
    got = spawn(main_args, timeout=deadline - time.monotonic())
    held |= got["held_shm"]
    if got["survivors"]:
        problems.append(f"workload left behind {got['survivors']}")
    leaked = orphaned_shm(shm_before, held)
    if leaked:
        problems.append(f"leaked /dev/shm segments: {leaked}")
    shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)
    if "result" in got:
        res = got["result"]
        setups.append(res["setup_s"])
        record.update(attempted=res["attempted"], failed=res["failed"],
                      reasons=res["reasons"], effective=res["effective"],
                      info=res["info"], layers=res.get("layers", {}))
        record["metrics"] = dict(res["metrics"],
                                 setup_s=statistics.median(setups))
        record["setup_samples"] = setups
        if "trace" in res:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            with open(OUT_DIR / "trace.json", "w") as fh:
                json.dump({"workload": name, "seed": seed,
                           "layers": record["layers"],
                           "spans": res["trace"]}, fh)
    else:
        # A crash or a hang is a failed workload, not a stuck benchmark.
        problems.append(got["error"])
        record.update(attempted=1, failed=1, reasons={"crashed": 1},
                      effective={}, info={})
    if problems:
        record["failed"] = max(int(record["failed"]), 1)
    record["failed_share"] = record["failed"] / max(record["attempted"], 1)
    record["correct"] = record["failed"] == 0
    record["wall_s"] = time.monotonic() - t_begin
    return record


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def host_fingerprint() -> Dict[str, object]:
    model = governor = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/"
                  "scaling_governor") as fh:
            governor = fh.read().strip()
    except OSError:
        governor = "unreadable"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"nproc": nproc, "cpu": model, "governor": governor,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit}


def print_header(seed: int, seconds: float, note: str = "") -> Dict[str, object]:
    host = host_fingerprint()
    print(f"# LVRM benchmark  seed={seed}  seconds={seconds:g}  {note}")
    print("# host: nproc={nproc}  cpu={cpu}  governor={governor}  "
          "python={python}  numpy={numpy}".format(**host))
    print(f"# commit: {host['commit']}")
    return host


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_run(record: Dict[str, object], manifest: dict) -> None:
    name = record["workload"]
    eff = record.get("effective") or {}
    print(f"\n== {name}  seed={record['seed']}  "
          f"({record['wall_s']:.1f} s wall) ==")
    print(f"   why: {WORKLOADS[name].why}")
    if eff:
        print("   effective: "
              + "  ".join(f"{k}={v}" for k, v in eff.items()))
    if record.get("info", {}).get("kernels"):
        print(f"   available_kernels: {record['info']['kernels']}")
    metrics = record["metrics"]
    if not record["trace"]:
        for spec in judged_specs(manifest, name):
            if spec["name"] in metrics:
                print(f"   {spec['name']:<22}{fmt(metrics[spec['name']]):>14} "
                      f"{spec['unit']:<8} (bound {spec['bound']:.0%}, "
                      f"{spec['better']} is better)")
        info = record.get("info", {})
        if "lat_samples" in metrics:
            print(f"   {'latency samples':<22}{metrics['lat_samples']:>14,} "
                  f"in {metrics['lat_windows']} windows")
        if "des_wall_s" in metrics:
            walls = ", ".join(f"{w:.2f}" for w in info.get("walls_s", []))
            print(f"   des_wall_s is the fastest of [{walls}] s; the driver's "
                  f"{'/'.join(DES_ALIASES)} are that one number in other "
                  "units")
        if name == "fwd_small" and "fwd_kfps" in metrics:
            share = metrics["fwd_kfps"] / PAPER_ANCHOR_KFPS
            print(f"   {'paper_anchor_share':<22}{share:>14.4f} "
                  f"         (fwd_kfps / {PAPER_ANCHOR_KFPS:g}: the paper's "
                  "3.7 Mfps at 84 B)")
    else:
        units = {s["name"]: s["unit"] for s in manifest["per_layer"]}
        layers = record["layers"]
        for key in sorted(layers):
            print(f"   {key:<58}{fmt(layers[key]):>12} {units.get(key, '')}")
        absent = [s["name"] for s in manifest["per_layer"]
                  if s["name"] not in layers]
        if absent:
            print(f"   absent here ({len(absent)}): " + ", ".join(absent))
        if name in ("fwd_small", "fwd_large"):
            print_budget(record)
    print(f"   {'failed_share':<22}{record['failed_share']:>14.6f} "
          f"         ({record['failed']} of {record['attempted']}; "
          f"{record.get('reasons')})")
    for problem in record["problems"]:
        print(f"   PROBLEM: {problem}")


def print_budget(record: Dict[str, object]) -> None:
    """Where one frame's time goes, from outside: the monitor's rows sum
    to the wall (closure), the worker's CPU splits into what the probes
    of the effective path explain and what they do not."""
    lay = record["layers"]
    e2e = lay.get("e2e.traced_ns_per_frame", 0.0)
    print(f"   -- budget, ns/frame ({record['workload']}, traced windows) --")
    print(f"   {'e2e wall':<44}{e2e:>10.0f}")
    for label, key in (("monitor: dispatch_many", "dispatch_share"),
                       ("monitor: drain", "drain_share"),
                       ("monitor: idle (waiting, empty polls)", "idle_share"),
                       ("monitor: unattributed (loop self time)",
                        "unattributed_share")):
        share = lay.get(f"runtime.monitor.{key}", 0.0)
        print(f"   {label:<44}{share * e2e:>10.0f}  {share:>6.1%}")
    closure = lay.get("runtime.monitor.closure", 0.0)
    verdict_ = "closes" if abs(closure - 1.0) <= 0.10 else "DOES NOT CLOSE"
    print(f"   {'monitor rows / wall':<44}{closure:>10.3f}  ({verdict_} "
          "within 10%)")
    worker = lay.get("runtime.worker.cpu_ns_per_frame", 0.0)
    print(f"   {'worker: cpu':<44}{worker:>10.0f}")
    if "runtime.worker.explained_ns_per_frame" in lay:
        print(f"   {'worker: explained by effective-path probes':<44}"
              f"{lay['runtime.worker.explained_ns_per_frame']:>10.0f}")
        print(f"   {'worker: unexplained':<44}"
              f"{lay['runtime.worker.unexplained_ns_per_frame']:>10.0f}")


def driver_line(record: Dict[str, object], manifest: dict) -> str:
    """The one JSON object the driver reads."""
    if record["trace"]:
        # A probe whose alternative is gone reads 0: absent, not an error.
        values, specs = record["layers"], manifest["per_layer"]
    else:
        values, specs = record["metrics"], manifest["end_to_end"]
    metrics = {s["name"]: {"value": values.get(s["name"], 0.0),
                           "unit": s["unit"]} for s in specs}
    return json.dumps({"correct": bool(record["correct"]),
                       "attempted": int(record["attempted"]),
                       "failed": int(record["failed"]),
                       "metrics": metrics})


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def driver_main(args, manifest: dict) -> int:
    seconds = float(args.seconds)
    print_header(args.seed, seconds, note=f"workload={args.workload}")
    if args.trace:
        record = run_workload(
            args.workload, args.seed, seconds * TRACED_WORKLOAD_SHARE,
            trace=True, n_setups=1,
            probe_seconds=seconds * TRACED_PROBE_SHARE / PROBE_MEASUREMENTS)
    else:
        record = run_workload(args.workload, args.seed, seconds, trace=False,
                              n_setups=5, probe_seconds=0.0)
    print_run(record, manifest)
    if "crashed" in (record.get("reasons") or {}):
        return 1     # nothing was measured: no result line
    print(driver_line(record, manifest))
    return 0


def suite_main(args, manifest: dict) -> int:
    seconds = float(args.seconds if args.seconds is not None
                    else (3.0 if args.smoke else manifest["run_seconds"]))
    n_setups = 1 if args.smoke else 5
    probe_seconds = 0.01 if args.smoke else 0.25
    host = print_header(args.seed, seconds,
                        note=f"repeat={args.repeat} smoke={args.smoke}")
    names = list(WORKLOADS)
    runs: List[Dict[str, object]] = []
    for rep in range(args.repeat):
        # Interleaved (A B C D A B C D), never AAAA: this host drifts by
        # tens of percent over an hour, and blocks would alias with it.
        for name in names:
            runs.append(run_workload(name, args.seed + rep, seconds,
                                     trace=False, n_setups=n_setups,
                                     probe_seconds=0.0))
            print_run(runs[-1], manifest)
        sys.stdout.flush()
    if args.trace:
        for name in names:      # one traced pass; spans -> bench/out/
            runs.append(run_workload(name, args.seed, seconds, trace=True,
                                     n_setups=1, probe_seconds=probe_seconds))
            print_run(runs[-1], manifest)
    if args.repeat > 1:
        print_spreads(runs, manifest)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"host": host, "seed": args.seed, "seconds": seconds,
                       "runs": runs}, fh, indent=1)
        print(f"\nwrote {args.out}")
    return 0 if all(r["correct"] for r in runs) else 1


def by_workload(runs: List[Dict[str, object]], metric: str
                ) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for r in runs:
        if not r["trace"] and metric in r["metrics"]:
            out.setdefault(r["workload"], []).append(r["metrics"][metric])
    return out


def print_spreads(runs: List[Dict[str, object]], manifest: dict) -> None:
    print("\n== spread over repeats: median, (Q3-Q1)/median, bound ==")
    for name in WORKLOADS:
        for spec in judged_specs(manifest, name):
            values = by_workload(runs, spec["name"]).get(name, [])
            if len(values) > 1:
                print(f"   {name:<10} {spec['name']:<18}"
                      f"{fmt(statistics.median(values)):>12} {spec['unit']:<6}"
                      f" spread {spread_share(values):6.2%}"
                      f"  bound {spec['bound']:.0%}")


def compare_main(args, manifest: dict) -> int:
    with open(args.compare[0]) as fh:
        a = json.load(fh)
    with open(args.compare[1]) as fh:
        b = json.load(fh)
    print(f"# compare  A={args.compare[0]} ({a['host']['commit'][:12]})  "
          f"B={args.compare[1]} ({b['host']['commit'][:12]})")
    print(f"{'workload':<10} {'metric':<18}{'median A':>12}{'median B':>12}"
          f"{'B/A':>8}  {'bound':>5}  verdict")
    worse = 0
    for name in WORKLOADS:
        for spec in judged_specs(manifest, name):
            va = by_workload(a["runs"], spec["name"]).get(name)
            vb = by_workload(b["runs"], spec["name"]).get(name)
            if not va or not vb:
                continue
            word, ma, mb, ratio = verdict(
                va, vb, spec["better"], spec["bound"],
                floor=ABS_FLOOR.get(spec["name"], 0.0))
            worse += word == "worse"
            print(f"{name:<10} {spec['name']:<18}{fmt(ma):>12}{fmt(mb):>12}"
                  f"{ratio:>8.3f}  {spec['bound']:>5.0%}  {word}"
                  f"  (base A={fmt(ma)} {spec['unit']}, n={len(va)}"
                  f"/{len(vb)})")
        # failed_share: any rise fails.
        fa = [r["failed_share"] for r in a["runs"] if r["workload"] == name]
        fb = [r["failed_share"] for r in b["runs"] if r["workload"] == name]
        if fa and fb:
            word = "worse" if max(fb) > max(fa) else "same"
            worse += word == "worse"
            print(f"{name:<10} {'failed_share':<18}{max(fa):>12.6f}"
                  f"{max(fb):>12.6f}{'':>8}  {'0%':>5}  {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload and end with the driver's JSON line")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="add (suite) or select (--workload) the traced run")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="suite mode: write every run here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    manifest = load_manifest()
    if args.compare:
        return compare_main(args, manifest)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload:
        if args.seconds is None:
            args.seconds = manifest["run_seconds"]
        return driver_main(args, manifest)
    return suite_main(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
