"""Tests for the observability subsystem (repro.obs).

Covers instrument semantics, export round-trips, the flight recorder's
bounds and dump-on-error behaviour, and end-to-end integration: a DES
allocation run must emit core (de)allocation events in a consistent
order, and the runtime monitor must report ring occupancy high-water
marks in its teardown stats.
"""

import gc
import io
import json
import time
import weakref

import pytest

from repro import obs
from repro.core import DynamicFixedThresholds, LvrmConfig
from repro.errors import ConfigError
from repro.experiments.common import build_lvrm_gateway
from repro.net import Testbed
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.obs.trace import PH_COMPLETE, PH_COUNTER, TraceEvent
from repro.runtime import RuntimeLvrm
from repro.sim import Simulator
from repro.traffic import RampSender, step_ramp


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test sees empty singletons; leave them empty afterwards."""
    obs.reset()
    yield
    obs.reset()


# -- registry ----------------------------------------------------------------

def test_counter_semantics():
    reg = obs.Registry()
    c = reg.counter("frames_total", "frames seen", vr="vr1")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ConfigError):
        c.inc(-1)
    # Get-or-create: same (name, labels) is the same object...
    assert reg.counter("frames_total", vr="vr1") is c
    # ...different labels are a different instrument.
    assert reg.counter("frames_total", vr="vr2") is not c


def test_gauge_semantics():
    reg = obs.Registry()
    g = reg.gauge("depth")
    g.set(3)
    g.inc()
    g.dec(2)
    assert g.value == 2.0
    g.set_max(10)
    g.set_max(4)
    assert g.value == 10.0
    backing = {"v": 7}
    g.set_fn(lambda: backing["v"])
    backing["v"] = 9
    assert g.value == 9.0
    # Freezing keeps the last pulled value and drops the callback.
    g.freeze()
    backing["v"] = 11
    assert g.value == 9.0
    g.set_fn(lambda: backing["v"])
    g.freeze(0.0)
    assert g.value == 0.0


def test_histogram_semantics():
    reg = obs.Registry()
    h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(5.555)
    assert h.cumulative() == [(0.01, 1), (0.1, 2), (1.0, 3),
                              (float("inf"), 4)]
    with pytest.raises(ConfigError):
        reg.histogram("bad", buckets=(1.0, 1.0))
    with pytest.raises(ConfigError):
        reg.histogram("bad2", buckets=(2.0, 1.0))


def test_registry_kind_conflict_and_clear():
    reg = obs.Registry()
    c = reg.counter("x_total")
    with pytest.raises(ConfigError):
        reg.gauge("x_total")
    reg.clear()
    assert len(reg) == 0
    # Live references keep counting after a clear; they just stop
    # being exported.
    c.inc()
    assert c.value == 1


def test_registry_holds_no_finished_simulation(monkeypatch):
    """The process-wide registry outlives every run; none of its gauges
    may keep a finished run's Simulator reachable."""
    from repro.experiments import run_experiment
    from tests.des_cases import TINY

    sims = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    run_experiment("exp1c", TINY)
    gc.collect()
    assert sims and all(ref() is None for ref in sims)
    hwms = obs.default_registry().find("queue_occupancy_hwm")
    assert hwms and max(g.value for g in hwms) > 0


@pytest.mark.timeout(60)
def test_registry_holds_no_stopped_ring_or_arena():
    """Same for the runtime: once a monitor stops, its ring and arena
    gauges keep their final values, not the rings and the arena."""
    frame = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                            ip_to_int("10.2.1.2"), 1, 2, b"gauge")
    lvrm = RuntimeLvrm(n_vris=1, data_plane="arena", worker_lifetime=20.0)
    assert lvrm.dispatch_many([frame] * 8) == 8
    assert len(lvrm.drain_until(8, timeout=20.0)) == 8
    refs = [weakref.ref(r) for r in lvrm.vris[0].rings()]
    refs.append(weakref.ref(lvrm.arena))
    obs_id = lvrm.obs_id
    lvrm.stop()
    del lvrm
    gc.collect()
    assert all(ref() is None for ref in refs)
    reg = obs.default_registry()
    (hwm,) = reg.find("ring_occupancy_hwm", rt=obs_id, ring="data_in")
    assert 1 <= hwm.value <= 8
    (fill,) = reg.find("ring_occupancy_ratio", rt=obs_id)
    assert fill.value == 0.0


# -- exporters ---------------------------------------------------------------

def test_prometheus_text_format():
    reg = obs.Registry()
    reg.counter("drops_total", "dropped frames", vr="vr1").inc(3)
    reg.gauge("depth", "queue depth").set(2)
    reg.histogram("lat", "latency", buckets=(0.1, 1.0)).observe(0.05)
    text = obs.prometheus_text(reg)
    assert "# HELP drops_total dropped frames" in text
    assert "# TYPE drops_total counter" in text
    assert 'drops_total{vr="vr1"} 3' in text
    assert "# TYPE lat histogram" in text
    assert 'lat_bucket{le="0.1"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_sum 0.05" in text
    assert "lat_count 1" in text


def test_metrics_jsonl_parses():
    reg = obs.Registry()
    reg.counter("n_total", a="1").inc(2)
    lines = obs.metrics_jsonl(reg).splitlines()
    rows = [json.loads(line) for line in lines]
    assert {"name": "n_total", "kind": "counter",
            "labels": {"a": "1"}, "value": 2} in rows


def test_events_jsonl_round_trip():
    events = [
        TraceEvent("a", 1.5, track="t1", args={"k": 1}),
        TraceEvent("b", 2.0, PH_COMPLETE, cat="c", dur=0.5, track="t2"),
        TraceEvent("c", 3.0, PH_COUNTER, args={"value": 4}),
    ]
    back = obs.parse_events_jsonl(obs.events_jsonl(events))
    assert [(e.name, e.ts, e.ph, e.cat, e.dur, e.track, e.args)
            for e in back] == \
           [(e.name, e.ts, e.ph, e.cat, e.dur, e.track, e.args)
            for e in events]


def test_chrome_trace_structure():
    events = [
        TraceEvent("tick", 0.001, track="sim"),
        TraceEvent("span", 0.002, PH_COMPLETE, dur=0.003, track="lvrm"),
    ]
    doc = obs.chrome_trace(events, process_name="p")
    thread_names = {e["args"]["name"] for e in doc["traceEvents"]
                    if e.get("name") == "thread_name"}
    assert thread_names == {"sim", "lvrm"}
    tick = next(e for e in doc["traceEvents"] if e["name"] == "tick")
    assert tick["ts"] == pytest.approx(1000.0)  # seconds -> microseconds
    assert tick["s"] == "t"
    span = next(e for e in doc["traceEvents"] if e["name"] == "span")
    assert span["dur"] == pytest.approx(3000.0)
    json.dumps(doc)  # must be serializable as-is


def test_writers_create_files(tmp_path):
    trace_path = tmp_path / "trace.json"
    prom_path = tmp_path / "metrics.prom"
    obs.write_chrome_trace(str(trace_path), [TraceEvent("e", 0.0)])
    obs.write_text(str(prom_path), "x_total 1\n")
    assert json.loads(trace_path.read_text())["traceEvents"]
    assert prom_path.read_text() == "x_total 1\n"
    # No temp files left behind by the atomic writer.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["metrics.prom", "trace.json"]


# -- tracer ------------------------------------------------------------------

def test_tracer_disabled_by_default_and_singleton_identity():
    assert not obs.tracing_enabled()
    tracer = obs.enable_tracing()
    assert tracer is obs.TRACER
    obs.TRACER.instant("e", ts=1.0)
    assert len(obs.TRACER.named("e")) == 1
    obs.reset()
    assert not obs.tracing_enabled()
    assert len(obs.TRACER) == 0


def test_tracer_feeds_recorder_without_retention():
    obs.enable_tracing(retain=False)
    obs.TRACER.instant("only.recorded", ts=0.5)
    assert len(obs.TRACER) == 0
    assert [e.name for e in obs.RECORDER.events()] == ["only.recorded"]


# -- flight recorder ---------------------------------------------------------

def test_flight_recorder_is_bounded():
    rec = obs.FlightRecorder(maxlen=4)
    for i in range(10):
        rec.note(f"e{i}", ts=float(i))
    assert len(rec) == 4
    assert rec.recorded == 10
    assert [e.name for e in rec.events()] == ["e6", "e7", "e8", "e9"]


def test_flight_recorder_dump_on_error():
    rec = obs.FlightRecorder(maxlen=8)
    rec.note("before", ts=1.0, detail="x")
    sink = io.StringIO()
    with pytest.raises(ValueError, match="boom"):
        with rec.on_error(stream=sink):
            raise ValueError("boom")
    dump = sink.getvalue()
    assert "flight recorder dump" in dump
    assert "ValueError: boom" in dump
    assert "before" in dump and "detail=x" in dump


def test_flight_recorder_dump_on_error_to_file(tmp_path):
    rec = obs.FlightRecorder(maxlen=8)
    rec.note("ctx", ts=0.0)
    path = tmp_path / "crash.txt"
    with pytest.raises(RuntimeError):
        with rec.on_error(path=str(path)):
            raise RuntimeError("worker died")
    text = path.read_text()
    assert "worker died" in text and "ctx" in text


# -- DES integration ---------------------------------------------------------

def _scaled_exp2c_run():
    """A 1/60-scale exp2c: staircase up to 3x one VRI's capacity and
    back, dynamic fixed thresholds, tracing on."""
    sim = Simulator()
    testbed = Testbed(sim)
    config = LvrmConfig(record_latency=False, allocation_period=0.1)
    _machine, lvrm = build_lvrm_gateway(
        sim, testbed, n_vrs=1,
        allocator_factory=lambda: DynamicFixedThresholds(1_000.0),
        config=config, dummy_load=1.0 / 1_000.0)
    schedule = step_ramp(3_000.0, 500.0, 0.3, t_start=0.01)
    RampSender(sim, testbed.hosts["s1"], testbed.host_ip("r1"), schedule,
               frame_size=84)
    sim.run(until=schedule[-1][0] + 0.5)
    return lvrm


def test_des_run_emits_core_events_in_order():
    obs.enable_tracing()
    lvrm = _scaled_exp2c_run()

    allocs = obs.TRACER.named("core.allocate")
    deallocs = obs.TRACER.named("core.deallocate")
    assert len(allocs) >= 3        # initial VRI + growth to >= 3
    assert len(deallocs) >= 1      # the down-ramp shrinks again
    # Ordering invariant: the number of live VRIs implied by the event
    # stream never goes negative and never exceeds what was allocated.
    live = 0
    for ev in sorted(allocs + deallocs, key=lambda e: e.ts):
        live += 1 if ev.name == "core.allocate" else -1
        assert live >= 0
    assert live == len(lvrm.vr_monitor.entries["vr1"].monitor.vris)
    # The decision trail that produced them is present too.
    decisions = {e.args["decision"] for e in obs.TRACER.named("alloc.decision")}
    assert {"grow", "shrink"} <= decisions
    assert obs.TRACER.named("ewma.update")
    assert obs.TRACER.named("balance.decision")
    assert obs.TRACER.named("frame.enqueue")
    assert obs.TRACER.named("frame.dequeue")
    # The whole stream must survive the Chrome-trace writer.
    doc = obs.chrome_trace(obs.TRACER.events)
    json.dumps(doc)


def test_des_run_exports_drop_counters_and_queue_hwm():
    obs.enable_tracing()
    _scaled_exp2c_run()
    text = obs.prometheus_text(obs.default_registry())
    assert "lvrm_dropped_no_vr_total" in text
    assert "lvrm_dropped_queue_full_total" in text
    assert "vr_dropped_queue_full_total" in text
    assert "vri_dropped_no_route_total" in text
    assert "vri_dropped_out_full_total" in text
    assert "queue_occupancy_hwm" in text
    assert "alloc_pass_duration_seconds_bucket" in text


# -- ring high-water marks ---------------------------------------------------

def test_spsc_ring_hwm_tracks_peak_occupancy():
    from repro.ipc.ring import SpscRing, ring_bytes_needed
    ring = SpscRing(bytearray(ring_bytes_needed(8, 64)), 8, 64)
    for _ in range(5):
        ring.push(b"x")
    for _ in range(5):
        ring.pop()
    ring.push(b"x")
    assert ring.hwm == 5              # exact on the producer side
    assert ring.probe_occupancy() == 1
    assert ring.hwm == 5


def test_mcring_hwm_is_conservative_upper_bound():
    from repro.ipc.mcring import McRingBuffer, mc_bytes_needed
    ring = McRingBuffer(bytearray(mc_bytes_needed(8, 64)), 8, 64, batch=2)
    for _ in range(6):
        ring.push(b"x")
    assert ring.hwm >= 6
    for _ in range(6):
        ring.pop()
    assert ring.probe_occupancy() == 0
    assert ring.hwm >= 6


def test_fastforward_hwm_from_probe_and_full():
    from repro.ipc.fastforward import FastForwardRing, ff_bytes_needed
    ring = FastForwardRing(bytearray(ff_bytes_needed(4, 64)), 4, 64)
    ring.push(b"x")
    assert ring.hwm == 0              # no shared index: fast path blind
    assert ring.probe_occupancy() == 1
    assert ring.hwm == 1
    for _ in range(3):
        ring.push(b"x")
    assert not ring.try_push(b"x")    # full: producer learns the worst
    assert ring.hwm == 4


# -- runtime integration -----------------------------------------------------

def _frame():
    return build_udp_frame(0x020000000001, 0x020000000002,
                           ip_to_int("10.1.1.2"), ip_to_int("10.2.1.2"),
                           10000, 20000, b"obs")


@pytest.mark.timeout(60)
def test_runtime_teardown_reports_ring_hwm():
    frame = _frame()
    with RuntimeLvrm(n_vris=1, worker_lifetime=40.0) as lvrm:
        for _ in range(30):
            while not lvrm.dispatch(frame):
                time.sleep(1e-4)
        out = lvrm.drain_until(30, timeout=20.0)
        assert len(out) == 30
    stats = lvrm.teardown_stats
    assert len(stats) == 1
    entry = stats[0]
    assert entry["vri_id"] == 1
    assert entry["reason"] == "stop"
    assert entry["dispatched"] == 30
    assert entry["drained"] == 30
    # LVRM is the producer of data_in: its HWM is exact and must have
    # seen at least one queued frame.
    assert entry["ring_hwm"]["data_in"] >= 1
    assert set(entry["ring_hwm"]) == \
        {"data_in", "data_out", "ctrl_in", "ctrl_out"}
    # The lifecycle flight recorder saw the spawn and the retirement.
    names = [e.name for e in lvrm.recorder.events()]
    assert "worker.spawn" in names
    assert "worker.retire" in names
    # And the HWM is scrapeable as a gauge.
    text = obs.prometheus_text(obs.default_registry())
    assert 'ring_occupancy_hwm' in text
    assert f'rt="{lvrm.obs_id}"' in text


# -- fixed-bucket quantiles ---------------------------------------------------

def test_bucket_quantile_interpolates_within_crossing_bucket():
    from repro.obs.quantiles import bucket_quantile

    bounds = (1.0, 2.0, 4.0)
    counts = (0, 100, 0, 0)        # everything in (1, 2]
    assert bucket_quantile(bounds, counts, 0.5) == pytest.approx(1.5)
    assert bucket_quantile(bounds, counts, 0.99) == pytest.approx(1.99)
    # First bucket interpolates from an assumed lower bound of 0.
    assert bucket_quantile(bounds, (10, 0, 0, 0), 0.5) == pytest.approx(0.5)


def test_bucket_quantile_edges_and_validation():
    import math

    from repro.obs.quantiles import bucket_quantile, merge_bucket_counts

    bounds = (1.0, 2.0)
    assert math.isnan(bucket_quantile(bounds, (0, 0, 0), 0.5))
    # Rank in the +Inf overflow: best answer is the last finite bound.
    assert bucket_quantile(bounds, (0, 0, 7), 0.99) == 2.0
    with pytest.raises(ValueError):
        bucket_quantile(bounds, (0, 0, 0), 1.5)
    with pytest.raises(ValueError):
        bucket_quantile(bounds, (1, 2), 0.5)       # missing overflow slot
    assert merge_bucket_counts([(1, 2, 3), (4, 5, 6)]) == (5, 7, 9)
    with pytest.raises(ValueError):
        merge_bucket_counts([(1, 2), (1, 2, 3)])


def test_histogram_quantile_read_path():
    reg = obs.Registry()
    hist = reg.histogram("lat", "latency", buckets=(1e-3, 1e-2, 1e-1))
    for _ in range(99):
        hist.observe(5e-3)
    hist.observe(5e-2)
    pcts = hist.percentiles()
    assert set(pcts) == {"p50", "p95", "p99"}
    assert 1e-3 < pcts["p50"] <= 1e-2
    assert hist.quantile(0.5) == pcts["p50"]


# -- frame-latency spans ------------------------------------------------------

def test_span_recorder_sampling_cadence():
    from repro.obs.spans import SpanRecorder

    rec = SpanRecorder(obs.Registry(), sample_every=4)
    hits = [i for i in range(1, 13) if rec.should_sample()]
    assert hits == [4, 8, 12]
    off = SpanRecorder(obs.Registry(), sample_every=0)
    assert not off.enabled
    assert not any(off.should_sample() for _ in range(100))
    with pytest.raises(ValueError):
        SpanRecorder(obs.Registry(), sample_every=-1)


def test_span_recorder_batched_sample_index():
    from repro.obs.spans import SpanRecorder

    rec = SpanRecorder(obs.Registry(), sample_every=4)
    assert rec.sample_index(3) is None      # cursor at 3 of 4
    assert rec.sample_index(3) == 0         # 4th frame = batch index 0
    # At most one probe per batch, so the rate never exceeds 1-in-N.
    probes = sum(1 for _ in range(100) if rec.sample_index(8) is not None)
    assert probes <= 100
    big = SpanRecorder(obs.Registry(), sample_every=4)
    assert big.sample_index(0) is None
    assert big.sample_index(11) == 3        # 4th of the 11-frame batch


def test_span_recorder_stamps_percentiles_and_jsonl():
    from repro.obs.spans import PHASES, SpanRecorder

    reg = obs.Registry()
    rec = SpanRecorder(reg, sample_every=1, backend="des",
                       labels={"lvrm": "9"})
    rec.record_stamps(0.0, 1e-6, 3e-6, 7e-6, 8e-6, vri_id=3, vr="vr1")
    (span,) = rec.recent
    assert span.dispatch == pytest.approx(1e-6)
    assert span.ring_wait == pytest.approx(2e-6)
    assert span.service == pytest.approx(4e-6)
    assert span.drain == pytest.approx(1e-6)
    assert span.total == pytest.approx(8e-6)
    pcts = rec.percentiles()
    assert set(pcts) == set(PHASES) | {"total"}
    # One histogram family, phase-labeled, carrying the recorder labels.
    hists = reg.find("frame_latency_seconds", phase="total", lvrm="9",
                     backend="des")
    assert len(hists) == 1 and hists[0].count == 1
    lines = rec.jsonl().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["vri_id"] == 3 and row["vr"] == "vr1"
    assert row["total"] == pytest.approx(8e-6)


def test_span_probe_codecs_round_trip():
    from repro.obs.spans import (PROBE_MAGIC_BYTES, decode_in_probe,
                                 decode_out_probe, encode_in_probe,
                                 encode_out_probe)

    frame = b"\x02\x03" * 30
    rec = encode_in_probe(1.5, 2.5, frame)
    assert rec[:4] == PROBE_MAGIC_BYTES
    stamps, body = decode_in_probe(rec)
    assert stamps == (1.5, 2.5) and body == frame
    # Unprobed records pass through untouched.
    assert decode_in_probe(frame) == (None, frame)
    out = encode_out_probe(1.5, 2.5, 3.5, 4.5, frame)
    assert out[:4] == PROBE_MAGIC_BYTES
    stamps, body = decode_out_probe(out)
    assert stamps == (1.5, 2.5, 3.5, 4.5) and body == frame
    assert decode_out_probe(frame) == (None, frame)
    assert decode_out_probe(b"") == (None, b"")


# -- the cross-process telemetry plane ---------------------------------------

def test_registry_snapshot_merge_round_trip():
    src = obs.Registry()
    src.counter("vri_frames_total", "frames", vri="1").inc(7)
    src.gauge("depth", "queue depth").set(3.5)
    src.histogram("lat", "latency", buckets=(0.1, 1.0)).observe(0.05)
    snap = json.loads(json.dumps(src.snapshot()))   # survives the wire

    dst = obs.Registry()
    merged = dst.merge(snap, extra_labels={"vri_id": "1"})
    assert merged == 3
    (ctr,) = dst.find("vri_frames_total", vri_id="1")
    assert ctr.value == 7
    (hist,) = dst.find("lat", vri_id="1")
    assert hist.count == 1 and hist.sum == pytest.approx(0.05)
    # Set-semantics: applying the same snapshot again changes nothing.
    dst.merge(snap, extra_labels={"vri_id": "1"})
    assert ctr.value == 7 and hist.count == 1
    with pytest.raises(ConfigError):
        dst.merge({"v": 99, "metrics": []})


def test_stats_chunks_reassemble_out_of_order():
    from repro.ipc.messages import StatsAssembler, encode_stats_chunks

    src = obs.Registry()
    for i in range(20):
        src.counter(f"fam_{i}_total", "x" * 30, vri=str(i)).inc(i)
    snap = src.snapshot()
    chunks = encode_stats_chunks(snap, gen=1, max_payload=64)
    assert len(chunks) > 2
    asm = StatsAssembler()
    got = None
    for chunk in reversed(chunks):           # order must not matter
        got = asm.feed(5, chunk) or got
    assert got == snap
    assert asm.completed == 1 and asm.abandoned == 0 and asm.corrupt == 0


def test_stats_assembler_abandons_lost_generation_and_catches_up():
    from repro.ipc.messages import StatsAssembler, encode_stats_chunks

    reg = obs.Registry()
    reg.counter("a_total", "a" * 60).inc(1)
    gen1 = encode_stats_chunks(reg.snapshot(), gen=1, max_payload=32)
    reg.counter("a_total").inc(1)            # state moved on
    gen2 = encode_stats_chunks(reg.snapshot(), gen=2, max_payload=32)
    assert len(gen1) > 1
    asm = StatsAssembler()
    for chunk in gen1[:-1]:                  # last chunk lost on the ring
        assert asm.feed(7, chunk) is None
    got = None
    for chunk in gen2:
        got = asm.feed(7, chunk) or got
    assert got is not None and asm.abandoned == 1
    assert asm.completed == 1
    # Snapshots are cumulative: the next generation caught up on its own.
    assert [m["value"] for m in got["metrics"]
            if m["name"] == "a_total"] == [2]


def test_stats_assembler_counts_corrupt_payloads():
    import struct as _struct

    from repro.ipc.messages import StatsAssembler

    asm = StatsAssembler()
    assert asm.feed(1, b"") is None                          # truncated
    assert asm.feed(1, _struct.pack("<IHH", 1, 0, 0)) is None  # total=0
    assert asm.feed(1, _struct.pack("<IHH", 1, 5, 2)) is None  # seq>=total
    assert asm.feed(1, _struct.pack("<IHH", 1, 0, 1) + b"{nope") is None
    assert asm.corrupt == 4 and asm.completed == 0


@pytest.mark.timeout(90)
def test_runtime_stats_channel_merges_worker_series():
    """Worker registries ride KIND_STATS into the monitor's cluster view,
    while heartbeats stay fresh (liveness wins over telemetry)."""
    frame = build_udp_frame(0x02, 0x03, ip_to_int("10.1.1.2"),
                            ip_to_int("10.2.1.2"), 1, 2, b"stats")
    with RuntimeLvrm(n_vris=2, worker_lifetime=60.0,
                     heartbeat_interval=0.02, stats_interval=0.05,
                     span_sample_every=4) as lvrm:
        reg = obs.default_registry()
        deadline = time.monotonic() + 20.0
        merged = set()
        while time.monotonic() < deadline and len(merged) < 2:
            for _ in range(16):
                lvrm.dispatch(frame)
            lvrm.drain()
            lvrm.pump_control()
            merged = {dict(i.labels)["vri_id"]
                      for i in reg.find("vri_frames_total")
                      if "vri_id" in dict(i.labels)}
            time.sleep(1e-3)
        assert merged == {"1", "2"}, f"merged only {merged}"
        # Worker series are scoped under this monitor's rt label too.
        assert all(dict(i.labels).get("rt") == lvrm.obs_id
                   for i in reg.find("vri_frames_total")
                   if "vri_id" in dict(i.labels))
        # Heartbeats kept flowing while snapshots shipped.
        ages = lvrm.heartbeat_ages()
        assert set(ages) == {1, 2}
        assert all(age < 5.0 for age in ages.values())


# -- the admin plane ----------------------------------------------------------

def _admin_state(reg=None, slots=None):
    from repro.obs.admin import AdminState

    return AdminState(
        reg if reg is not None else obs.Registry(),
        health_fn=(lambda: dict(slots)) if slots is not None else None,
        topology_fn=lambda: {"backend": "des", "vrs": {"vr1": [1, 2]}},
        spans_fn=lambda: '{"total": 1e-05}\n')


def test_admin_state_routes():
    reg = obs.Registry()
    reg.counter("frames_total", "frames").inc(3)
    state = _admin_state(reg, slots={"vri1": "RUNNING"})
    status, ctype, body = state.handle("/metrics")
    assert status == 200 and "frames_total 3" in body
    assert ctype.startswith("text/plain")
    status, _ctype, body = state.handle("/topology")
    assert status == 200 and json.loads(body)["vrs"] == {"vr1": [1, 2]}
    status, ctype, body = state.handle("/spans")
    assert status == 200 and json.loads(body.splitlines()[0])
    status, _ctype, body = state.handle("/")
    assert status == 200 and "/metrics" in json.loads(body)["routes"]
    status, _ctype, body = state.handle("/nope")
    assert status == 404 and json.loads(body)["error"] == "not found"
    # Query strings and trailing slashes are tolerated.
    assert state.handle("/metrics?x=1")[0] == 200
    assert state.handle("/metrics/")[0] == 200
    assert state.requests == 7


def test_admin_healthz_degradation_ladder():
    ok = _admin_state(slots={"vri1": "RUNNING", "vri2": "RUNNING"})
    status, _c, body = ok.handle("/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok"
    # Partial degradation still serves: a mid-failover gateway is alive.
    part = _admin_state(slots={"vri1": "DEGRADED", "vri2": "RESTARTING"})
    status, _c, body = part.handle("/healthz")
    assert status == 200 and json.loads(body)["status"] == "degraded"
    dead = _admin_state(slots={"vri1": "DEGRADED", "vri2": "DEGRADED"})
    status, _c, body = dead.handle("/healthz")
    assert status == 503 and json.loads(body)["status"] == "failed"
    # No supervisor wired at all: empty-but-valid, not an error.
    bare = _admin_state()
    status, _c, body = bare.handle("/healthz")
    assert status == 200 and json.loads(body)["slots"] == {}


def test_admin_server_serves_over_loopback_http():
    import urllib.error
    import urllib.request

    from repro.obs.admin import AdminServer

    reg = obs.Registry()
    reg.counter("frames_total", "frames").inc(5)
    with AdminServer(_admin_state(reg, slots={"vri1": "RUNNING"})) as srv:
        assert srv.url.startswith("http://127.0.0.1:")
        with urllib.request.urlopen(srv.url + "/metrics", timeout=10) as rsp:
            assert rsp.status == 200
            assert b"frames_total 5" in rsp.read()
        with urllib.request.urlopen(srv.url + "/healthz", timeout=10) as rsp:
            assert json.loads(rsp.read())["status"] == "ok"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(srv.url + "/bogus", timeout=10)
        assert err.value.code == 404


# -- the SLO watchdog ---------------------------------------------------------

def test_parse_rules_accepts_json_mappings_and_rule_objects():
    from repro.obs.slo import SloRule, parse_rules

    rules = parse_rules('[{"name": "lat", "kind": "p99_latency_ms", '
                        '"threshold": 5.0}]')
    assert len(rules) == 1 and rules[0].kind == "p99_latency_ms"
    # A single mapping needs no list wrapper; SloRule passes through.
    (only,) = parse_rules({"name": "loss", "kind": "drop_rate",
                           "threshold": 1e-3})
    assert only.threshold == 1e-3
    again = parse_rules([only])
    assert again[0] is only
    assert only.to_dict() == {"name": "loss", "kind": "drop_rate",
                              "threshold": 1e-3}


@pytest.mark.parametrize("bad", [
    [{"name": "x", "kind": "p42_latency", "threshold": 1.0}],
    [{"name": "x", "kind": "drop_rate", "threshold": 1.0, "wat": 1}],
    [{"name": "x", "kind": "drop_rate"}],
    [{"name": "", "kind": "drop_rate", "threshold": 1.0}],
    [{"name": "x", "kind": "drop_rate", "threshold": -1.0}],
    [{"name": "x", "kind": "drop_rate", "threshold": float("nan")}],
    [{"name": "x", "kind": "drop_rate", "threshold": 1.0},
     {"name": "x", "kind": "stale_heartbeat", "threshold": 1.0}],
    ["not-an-object"],
])
def test_parse_rules_rejects_malformed_specs(bad):
    from repro.obs.slo import parse_rules

    with pytest.raises(ConfigError):
        parse_rules(bad)


def test_watchdog_drop_rate_is_scoped_to_its_own_run():
    from repro.obs.slo import SloRule, SloWatchdog

    reg = obs.Registry()
    # Run 1 lost 10% of its frames; run 2 (same process, same registry)
    # lost none.  Each watchdog must only see its own scope.
    reg.counter("lvrm_dispatched_total", "d", lvrm="1").inc(1000)
    reg.counter("vri_dropped_fault_total", "f", lvrm="1").inc(100)
    reg.counter("lvrm_dispatched_total", "d", lvrm="2").inc(1000)
    rule = lambda: SloRule("no-drops", "drop_rate", 0.01)
    hot = SloWatchdog([rule()], reg, scope_labels={"lvrm": "1"})
    cold = SloWatchdog([rule()], reg, scope_labels={"lvrm": "2"})
    breaches = hot.evaluate(now=1.0)
    assert breaches and breaches[0]["value"] == pytest.approx(0.1)
    assert hot.breaching() == ["no-drops"]
    assert cold.evaluate(now=1.0) == []
    assert cold.breaching() == []
    (ok_gauge,) = reg.find("slo_ok", rule="no-drops")
    assert ok_gauge.value in (0.0, 1.0)


def test_watchdog_breach_edge_fires_once_then_counts():
    from repro.obs.recorder import RECORDER
    from repro.obs.slo import SloRule, SloWatchdog

    reg = obs.Registry()
    reg.counter("lvrm_dispatched_total", "d").inc(100)
    drops = reg.counter("vri_dropped_fault_total", "f")
    drops.inc(50)
    dog = SloWatchdog([SloRule("no-drops", "drop_rate", 0.01)], reg)
    for sweep in range(3):
        dog.evaluate(now=float(sweep))
    notes = [e for e in RECORDER.events()
             if getattr(e, "name", "") == "slo.breach"]
    assert len(notes) == 1                      # edge, not level
    assert notes[0].args["rule"] == "no-drops"
    assert dog.breach_counts["no-drops"] == 3   # every breaching sweep
    (ctr,) = reg.find("slo_breaches_total", rule="no-drops")
    assert ctr.value == 3


def test_watchdog_stale_heartbeat_breaches_then_clears():
    from repro.obs.recorder import RECORDER
    from repro.obs.slo import SloRule, SloWatchdog

    dog = SloWatchdog([SloRule("pulse", "stale_heartbeat", 1.0)],
                      obs.Registry())
    assert dog.evaluate(now=0.0, heartbeat_ages={1: 0.2, 2: 2.5})
    assert dog.breaching() == ["pulse"]
    assert dog.evaluate(now=1.0, heartbeat_ages={1: 0.2, 2: 0.1}) == []
    assert dog.breaching() == []
    clears = [e for e in RECORDER.events()
              if getattr(e, "name", "") == "slo.clear"]
    assert len(clears) == 1 and clears[0].args["rule"] == "pulse"
    # No ages at all: unmeasurable, so neither a breach nor a clear.
    assert dog.evaluate(now=2.0, heartbeat_ages={}) == []
    assert dog.evaluations == 3


def test_watchdog_p99_latency_rule_over_span_histograms():
    from repro.obs.quantiles import LATENCY_BUCKETS
    from repro.obs.slo import SloRule, SloWatchdog

    reg = obs.Registry()
    hist = reg.histogram("frame_latency_seconds", "span latency",
                         buckets=LATENCY_BUCKETS, phase="total",
                         lvrm="1", backend="des")
    dog = SloWatchdog([SloRule("lat", "p99_latency_ms", 1.0)], reg,
                      scope_labels={"lvrm": "1"})
    # No samples yet: unmeasurable.
    assert dog.evaluate(now=0.0) == []
    for _ in range(100):
        hist.observe(5e-3)                      # 5 ms >> the 1 ms budget
    (breach,) = dog.evaluate(now=1.0)
    assert breach["kind"] == "p99_latency_ms"
    assert breach["value"] > 1.0 and breach["samples"] == 100


# -- property tests (export round-trips) -------------------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


def _unescape_prom(s):
    out, i = [], 0
    while i < len(s):
        if s[i] == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            if nxt in ('\\', '"', 'n'):
                out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
                i += 2
                continue
        out.append(s[i])
        i += 1
    return "".join(out)


@given(value=st.text(
    alphabet=st.sampled_from(list('ab7 _-\\"\n') + ["é"]),
    max_size=24))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_prometheus_label_values_escape_to_one_line(value):
    from repro.obs.export import prometheus_text

    reg = obs.Registry()
    reg.counter("frames_total", "frames", job=value).inc(1)
    text = prometheus_text(reg)
    (sample,) = [l for l in text.splitlines()
                 if l.startswith("frames_total{")]
    # However hostile the label value, the sample stays one physical
    # line, and the escaped form decodes back to the original.
    quoted = sample[sample.index('job="') + len('job="'):sample.rindex('"')]
    assert _unescape_prom(quoted) == value


_ARG_VALUES = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=16))


@given(events=st.lists(st.builds(
    TraceEvent,
    name=st.text(min_size=1, max_size=12),
    ts=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ph=st.sampled_from(["i", PH_COMPLETE, PH_COUNTER]),
    cat=st.sampled_from(["", "frame", "slo"]),
    dur=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    track=st.sampled_from(["main", "lvrm", "vri1"]),
    args=st.dictionaries(st.text(min_size=1, max_size=8), _ARG_VALUES,
                         max_size=4)), max_size=8))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_events_jsonl_round_trips(events):
    from repro.obs.export import events_jsonl, parse_events_jsonl

    back = parse_events_jsonl(events_jsonl(events))
    assert [e.to_dict() for e in back] == [e.to_dict() for e in events]
