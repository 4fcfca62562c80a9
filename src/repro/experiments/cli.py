"""``lvrm-exp``: run paper experiments from the command line.

Examples::

    lvrm-exp list
    lvrm-exp run exp1a --profile quick
    lvrm-exp run all --profile bench
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.experiments.common import get_profile
from repro.experiments.registry import CHARTS, EXPERIMENTS, run_experiment

__all__ = ["main"]


def _cmd_list(_args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for exp_id, (_fn, figure, desc) in sorted(EXPERIMENTS.items()):
        print(f"{exp_id.ljust(width)}  {figure.ljust(14)}  {desc}")
    return 0


def _cmd_calibrate(_args) -> int:
    from repro.experiments.calibration import render_report

    print(render_report())
    return 0


def _cmd_run(args) -> int:
    from repro import obs

    if args.kernel is not None:
        # Experiments build their own LvrmConfig, which resolves a None
        # kernel from REPRO_KERNEL — exporting the flag here reaches
        # every config the run constructs.
        os.environ["REPRO_KERNEL"] = args.kernel
    profile = get_profile(args.profile)
    targets = (sorted(EXPERIMENTS) if args.experiment == "all"
               else [args.experiment])
    for path in (args.trace_out, args.metrics_out, args.json):
        # Catch unwritable output paths *before* the (possibly long)
        # run, not at export time.
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path)) or "."
            if not os.path.isdir(directory):
                print(f"error: output directory does not exist: "
                      f"{directory}", file=sys.stderr)
                return 2
    if args.trace_out or args.metrics_out:
        # Start from a clean slate so the exports describe this run only.
        obs.reset()
    if args.trace_out:
        obs.enable_tracing(retain=True)
    status = 0
    collected = []
    for exp_id in targets:
        t0 = time.perf_counter()
        try:
            result = run_experiment(exp_id, profile)
        except Exception as exc:  # surface, keep going on "all"
            print(f"!! {exp_id} failed: {exc}", file=sys.stderr)
            status = 1
            continue
        wall = time.perf_counter() - t0
        print(result.render())
        if args.chart and exp_id in CHARTS:
            x, y, group = CHARTS[exp_id]
            try:
                print(result.chart(x, y, group))
            except ValueError as exc:
                print(f"# (chart unavailable: {exc})")
        print(f"# profile={profile.name} wall={wall:.1f}s\n")
        payload = result.to_dict()
        payload["wall_seconds"] = round(wall, 3)
        payload["profile"] = profile.name
        collected.append(payload)
    if args.trace_out is not None:
        obs.disable_tracing()
        obs.write_chrome_trace(args.trace_out, obs.TRACER.events,
                               process_name="lvrm-exp")
        print(f"# wrote {args.trace_out} "
              f"({len(obs.TRACER.events)} trace events)")
    if args.metrics_out is not None:
        obs.write_text(args.metrics_out,
                       obs.prometheus_text(obs.default_registry()))
        print(f"# wrote {args.metrics_out}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(collected, fh, indent=2)
        print(f"# wrote {args.json}")
    return status


def _cmd_faults(args) -> int:
    from repro import obs
    from repro.faults import FaultSchedule
    from repro.faults.scenario import run_des_scenario, run_runtime_scenario

    try:
        schedule = FaultSchedule.load(args.fault_schedule)
    except OSError as exc:
        print(f"error: cannot read fault schedule: {exc}", file=sys.stderr)
        return 2
    if args.record_trace is not None and args.backend == "des":
        # The DES is already deterministic end to end; recording exists
        # to capture the *runtime* backend's real interleavings.
        print("error: --record-trace requires --backend runtime",
              file=sys.stderr)
        return 2
    if args.profile_out is not None and args.backend == "des":
        print("error: --profile-out requires --backend runtime "
              "(it profiles the real monitor process)",
              file=sys.stderr)
        return 2
    overload_opts = None
    if args.overload_opts is not None:
        try:
            if args.overload_opts.startswith("@"):
                with open(args.overload_opts[1:], encoding="utf-8") as fh:
                    overload_opts = json.load(fh)
            else:
                overload_opts = json.loads(args.overload_opts)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: bad --overload-opts: {exc}", file=sys.stderr)
            return 2
        if isinstance(overload_opts, dict) and "overload" in overload_opts:
            overload_opts = overload_opts["overload"]  # config-file shape
        # A policy pinned in the opts file must not silently fight the
        # flag; drop it when the flag is the default and they agree in
        # spirit (build_controller enforces real conflicts).
        if (isinstance(overload_opts, dict)
                and args.overload_policy == "none"
                and overload_opts.get("policy", "none") != "none"):
            args.overload_policy = overload_opts["policy"]
    if args.backend == "des":
        if args.admin_port is not None:
            print("note: --admin-port ignored on the des backend "
                  "(poll Lvrm.admin_state() instead)", file=sys.stderr)
        report = run_des_scenario(schedule, duration=args.duration,
                                  seed=args.seed,
                                  postmortem_dir=args.postmortem_dir,
                                  data_plane=args.data_plane,
                                  kernel=args.kernel,
                                  overload_policy=args.overload_policy,
                                  overload_x=args.overload_x,
                                  overload_opts=overload_opts)
        ok = report["flows_ok"]
    else:
        report = run_runtime_scenario(schedule, duration=args.duration,
                                      admin_port=args.admin_port,
                                      postmortem_dir=args.postmortem_dir,
                                      data_plane=args.data_plane,
                                      kernel=args.kernel,
                                      overload_policy=args.overload_policy,
                                      overload_x=args.overload_x,
                                      overload_opts=overload_opts,
                                      record_trace=args.record_trace,
                                      profile_out=args.profile_out)
        ok = report["resumed_ok"]
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"# wrote {args.json}")
    if args.metrics_out is not None:
        obs.write_text(args.metrics_out,
                       obs.prometheus_text(obs.default_registry()))
        print(f"# wrote {args.metrics_out}")
    desc = schedule.description or args.fault_schedule
    sup = report["supervisor"]
    print(f"== faults ({args.backend}): {desc} ==")
    print(f"faults injected   {report['faults']['injected']}")
    print(f"forwarded         {report['forwarded']}")
    print(f"failovers         {sup['failovers']}")
    print(f"restarts          {sup['restarts']}")
    print(f"degraded          {sup['degraded']}")
    if args.backend == "des":
        intact = report["flows_total"] - len(report["lost_flows"])
        print(f"flows intact      {intact}/{report['flows_total']}")
    slo = report.get("slo", {})
    if slo.get("rules"):
        breaches = {name: n for name, n in slo["breaches"].items() if n}
        print(f"slo breaches      {breaches or 'none'}")
    total = report.get("spans", {}).get("total")
    if total:
        print(f"frame latency     p50={total['p50'] * 1e6:.1f}us "
              f"p99={total['p99'] * 1e6:.1f}us")
    if report.get("trace") is not None:
        print(f"trace             {report['trace']} "
              f"({report['trace_events']} events)")
    if report.get("profile") is not None:
        print(f"profile           {report['profile']} "
              f"(inspect with python -m pstats)")
    overload = report.get("overload", {})
    if overload.get("policy", "none") != "none":
        state = overload.get("state", {})
        shed = sum(c["shed"] for c in state.get("classes", {}).values())
        rates = {name: c["rate"]
                 for name, c in state.get("classes", {}).items()}
        print(f"overload          policy={overload['policy']} "
              f"x={overload['offered_x']:g} shed={shed} rates={rates}")
    print(f"scenario          {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_replay(args) -> int:
    from repro.replay import check_races, load_trace, replay_events

    try:
        events = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not events:
        print("error: trace is empty", file=sys.stderr)
        return 2
    report = replay_events(events)
    hb = check_races(events, allow=tuple(args.allow or ()))
    combined = {"trace": args.trace, "replay": report, "races": hb}
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2)
        print(f"# wrote {args.json}")
    totals = report["replayed"]["totals"]
    sup = report["replayed"]["supervisor"]
    print(f"== replay: {args.trace} ==")
    print(f"events            {report['events']}")
    print(f"replayed          dispatched={totals['dispatched']} "
          f"drained={totals['drained']} shed={totals['shed']} "
          f"failovers={sup['failovers']} restarts={sup['restarts']} "
          f"spans={report['replayed']['spans']}")
    print(f"counters          "
          f"{'MATCH' if not report['mismatches'] else 'MISMATCH'}")
    for line in report["mismatches"][:20]:
        print(f"  != {line}")
    for line in report["anomalies"][:20]:
        print(f"  ?? {line}")
    print(f"hb races          {hb['n_races']} "
          f"({hb['n_unexplained']} unexplained)")
    for race in hb["races"][:20]:
        print(f"  !! {race['rule']}: {race['a']['name']} "
              f"(seq={race['a']['seq']}) || {race['b']['name']} "
              f"(seq={race['b']['seq']}) on {race['resource']}")
    if hb["seq_gaps"]:
        print(f"seq gaps          {hb['seq_gaps']} (trace is incomplete; "
              f"verdicts may be unreliable)")
    ok = (report["ok"] and not report["anomalies"]
          and hb["n_unexplained"] == 0)
    if args.no_races and hb["n_races"]:
        ok = False
    print(f"replay            {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_federation(args) -> int:
    from repro.cluster import (load_federation_config,
                               run_des_failover_scenario)

    try:
        config = load_federation_config(args.config)
    except OSError as exc:
        print(f"error: cannot read federation config: {exc}",
              file=sys.stderr)
        return 2
    if args.backend == "des":
        if args.admin_port is not None:
            print("note: --admin-port ignored on the des backend "
                  "(poll DesFederation.admin_state() instead)",
                  file=sys.stderr)
        report = run_des_failover_scenario(config)
    else:
        from repro.cluster.runtime import run_runtime_failover_scenario

        kill_at = min((f.t for f in config.faults), default=1.0)
        report = run_runtime_failover_scenario(
            duration=args.duration, kill_at=kill_at,
            n_vris=config.n_vris, n_routes=config.routes,
            admin_port=args.admin_port)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"# wrote {args.json}")
    desc = config.description or args.config
    failover = report.get("failover") or {}
    print(f"== federation ({args.backend}): {desc} ==")
    if failover:
        budget = (failover.get("budget_seconds")
                  or report.get("budget_seconds", 0.0))
        print(f"failover          {failover['failover_seconds'] * 1e3:.2f}ms "
              f"(budget {budget * 1e3:.0f}ms) "
              f"{failover['member']} -> {failover['promoted']}")
    if args.backend == "des":
        throughput = report.get("throughput", {})
        if throughput:
            print(f"throughput        pre {throughput['pre_kill_kfps']}kfps "
                  f"-> post {throughput['post_failover_kfps']}kfps "
                  f"(recovered {throughput['recovered_ratio']:.0%})")
        routes = report["routes"]
        print(f"routes            {routes['announced']} announced, "
              f"{routes['present_on_standby_at_promote']} on standby at "
              f"promote, {routes['relearned_after_promotion']} re-learned")
        print(f"blackout drops    {failover.get('lost_in_blackout', 0)}")
    else:
        print(f"routes on standby {report['routes_on_standby']}")
        print(f"standby forwarded {report['standby_forwarded']}")
    print(f"bus               {report['bus']}")
    print(f"scenario          {'OK' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lvrm-exp",
        description="Reproduce the LVRM paper's Chapter 4 experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("calibrate",
                   help="print the cost model's derived capacities "
                        "against the paper anchors")
    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report")
    report.add_argument("output", help="path of the markdown file to write")
    report.add_argument("--profile", default=None,
                        choices=["quick", "bench", "full"])
    report.add_argument("--only", nargs="*", default=None,
                        metavar="EXP", help="restrict to these experiment ids")
    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment",
                     help="experiment id (see 'list') or 'all'")
    run.add_argument("--profile", default=None,
                     choices=["quick", "bench", "full"],
                     help="scale profile (default: $REPRO_PROFILE or quick)")
    run.add_argument("--chart", action="store_true",
                     help="sketch an ASCII chart of the figure's series")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="also write all results as JSON to PATH")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="enable event tracing and write a Chrome-trace "
                          "JSON (opens in Perfetto) to PATH")
    run.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the run's metrics in Prometheus text "
                          "format to PATH")
    run.add_argument("--kernel", default=None,
                     choices=["scalar", "numpy", "cffi"],
                     help="burst kernel for the data-plane hot path "
                          "(default: REPRO_KERNEL env or scalar; "
                          "cffi auto-degrades to numpy without a "
                          "compiler — see docs/PERFORMANCE.md)")
    faults = sub.add_parser(
        "faults", help="run a fault-injection scenario "
                       "(see docs/RELIABILITY.md)")
    faults.add_argument("--fault-schedule", required=True, metavar="FILE",
                        help="JSON fault schedule "
                             "(e.g. examples/configs/faults_kill_vri1.json)")
    faults.add_argument("--backend", default="des",
                        choices=["des", "runtime"],
                        help="simulated gateway (des, default) or real "
                             "worker processes (runtime; kill/hang only)")
    faults.add_argument("--duration", type=float, default=None,
                        help="scenario length in seconds "
                             "(default: 6 des / 5 runtime)")
    faults.add_argument("--seed", type=int, default=2011,
                        help="DES master seed (determinism contract)")
    faults.add_argument("--json", metavar="PATH", default=None,
                        help="also write the scenario report as JSON")
    faults.add_argument("--admin-port", type=int, default=None,
                        metavar="PORT",
                        help="runtime backend: serve /metrics, /healthz, "
                             "/topology, /spans on this loopback port for "
                             "the duration of the scenario (0 = ephemeral)")
    faults.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the scenario's merged metrics in "
                             "Prometheus text format to PATH")
    faults.add_argument("--postmortem-dir", metavar="DIR", default=None,
                        help="dump a flight-recorder post-mortem file "
                             "into DIR at every failover")
    faults.add_argument("--data-plane", default="copy",
                        choices=["copy", "arena"],
                        help="frame transport: copy rings (default) or "
                             "the zero-copy shared-memory arena with "
                             "descriptor rings (docs/PERFORMANCE.md)")
    faults.add_argument("--kernel", default=None,
                        choices=["scalar", "numpy", "cffi"],
                        help="burst kernel for the data-plane hot path "
                             "(default: REPRO_KERNEL env or scalar; "
                             "cffi auto-degrades to numpy without a "
                             "compiler — see docs/PERFORMANCE.md)")
    faults.add_argument("--overload-policy", default="none",
                        choices=["none", "tail-drop", "priority-shed",
                                 "adaptive-sample"],
                        help="admission policy fronting dispatch "
                             "(default none = legacy path; see "
                             "docs/OVERLOAD.md)")
    faults.add_argument("--overload-x", type=float, default=1.0,
                        metavar="MULT",
                        help="offered-load multiplier for the overload "
                             "drill (des: scales the flow rates; "
                             "runtime: frames offered per loop turn)")
    faults.add_argument("--overload-opts", default=None, metavar="JSON",
                        help="OverloadConfig overrides as inline JSON "
                             "(e.g. '{\"band_lo\": 0.1, \"band_hi\": "
                             "0.4}') or @FILE to read a JSON file; a "
                             "top-level \"overload\" key is unwrapped, "
                             "so @examples/configs/"
                             "overload_priority.json works as-is")
    faults.add_argument("--record-trace", metavar="PATH", default=None,
                        help="runtime backend: record a sequenced replay "
                             "trace (JSONL) of the drill to PATH for "
                             "'lvrm-exp replay' (see docs/REPLAY.md)")
    faults.add_argument("--profile-out", metavar="PATH", default=None,
                        help="runtime backend: cProfile the monitor's "
                             "driving loop and dump the pstats file to "
                             "PATH")
    replay = sub.add_parser(
        "replay", help="replay a recorded trace through the DES twin and "
                       "run the happens-before race checker "
                       "(see docs/REPLAY.md)")
    replay.add_argument("trace", metavar="TRACE",
                        help="JSONL trace written by "
                             "'lvrm-exp faults --record-trace'")
    replay.add_argument("--json", metavar="PATH", default=None,
                        help="also write the replay + race report as JSON")
    replay.add_argument("--allow", action="append", default=None,
                        metavar="RULE",
                        help="treat races with this classification as "
                             "explained (repeatable; e.g. "
                             "'restart-vs-reclaim')")
    replay.add_argument("--no-races", action="store_true",
                        help="fail (exit 1) on *any* race, even allowed "
                             "classifications")
    federation = sub.add_parser(
        "federation", help="run a canned multi-LVRM federation scenario "
                           "(see docs/ARCHITECTURE.md §7)")
    federation.add_argument(
        "--config", required=True, metavar="FILE",
        help="JSON federation config "
             "(e.g. examples/configs/federation_pair.json)")
    federation.add_argument(
        "--backend", default="des", choices=["des", "runtime"],
        help="bit-reproducible simulation (des, default) or real "
             "worker processes over a shared-memory control ring")
    federation.add_argument(
        "--duration", type=float, default=4.0,
        help="runtime backend: wall-clock scenario length in seconds")
    federation.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the scenario report as JSON")
    federation.add_argument(
        "--admin-port", type=int, default=None, metavar="PORT",
        help="runtime backend: serve the director's merged registry "
             "(and /cluster) on this loopback port during the scenario "
             "(0 = ephemeral)")
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit cleanly.
        import os
        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "faults":
        if args.duration is None:
            args.duration = 6.0 if args.backend == "des" else 5.0
        return _cmd_faults(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "federation":
        return _cmd_federation(args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        failures = generate_report(args.output, get_profile(args.profile),
                                   exp_ids=args.only)
        print(f"wrote {args.output}"
              + (f" ({failures} experiments failed)" if failures else ""))
        return 1 if failures else 0
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
