"""Span histograms against an eager, one-frame-at-a-time fold.

``SpanRecorder.record_stamps`` feeds five ``frame_latency_seconds``
histograms (four phases plus ``total``).  Whatever the recorder does
between a record and a read — fold at once or buffer and fold in bulk
— every read path must see exactly what folding each span on arrival
gives: the same bucket counts, the same ``count``, and a ``sum`` with
the same bit pattern (left-to-right addition, so a pairwise or
reordered sum fails), plus the same ``recent`` window.

The reference below is that eager fold, written out: ``bisect_left``
into the bucket bounds, durations that are not ``> 0.0`` (negative,
``-0.0``, NaN) observed as ``0.0``.
"""

import json
import math
import struct
from bisect import bisect_left
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.export import prometheus_text
from repro.obs.quantiles import LATENCY_BUCKETS, bucket_quantile, summary
from repro.obs.slo import SloRule, SloWatchdog
from repro.obs.spans import PHASES, SpanRecorder
from repro.obs.trace import TRACER

NAMES = PHASES + ("total",)
METRIC = "frame_latency_seconds"
LABELS = {"lvrm": "fold"}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class EagerFold:
    """The reference: each span folded on arrival, in arrival order."""

    def __init__(self, keep: int):
        self.counts = {n: [0] * (len(LATENCY_BUCKETS) + 1) for n in NAMES}
        self.sums = dict.fromkeys(NAMES, 0.0)
        self.count = 0
        self.recent = deque(maxlen=keep)

    def add(self, stamps, vri_id=None, vr=""):
        t_start, t_push, t_pop, t_done, t_drained = stamps
        phases = (t_push - t_start, t_pop - t_push, t_done - t_pop,
                  t_drained - t_done)
        total = phases[0] + phases[1] + phases[2] + phases[3]
        for name, dur in zip(NAMES, phases + (total,)):
            if not dur > 0.0:
                dur = 0.0
            self.counts[name][bisect_left(LATENCY_BUCKETS, dur)] += 1
            self.sums[name] += dur
        self.count += 1
        row = {"ts": t_drained, "total": total,
               **dict(zip(PHASES, phases))}
        if vri_id is not None:
            row["vri_id"] = vri_id
        if vr:
            row["vr"] = vr
        self.recent.append(json.dumps(row, sort_keys=True))


def check_hists(reg, ref):
    """Read the histograms through ``Registry.find`` and compare."""
    if ref.count == 0:
        return
    for name in NAMES:
        (hist,) = reg.find(METRIC, phase=name, **LABELS)
        assert hist.counts == ref.counts[name], name
        assert hist.count == ref.count, name
        assert bits(hist.sum) == bits(ref.sums[name]), name


def read_and_check(path, reg, rec, ref, dog):
    """One read through ``path``; its answer must match the reference."""
    if path == "percentiles":
        want = {n: summary(LATENCY_BUCKETS, ref.counts[n])
                for n in NAMES} if ref.count else {}
        got = rec.percentiles()
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(want, sort_keys=True)
    elif path == "jsonl":
        assert rec.jsonl().splitlines() == list(ref.recent)
    elif path == "recent":
        got = [json.dumps(s.to_dict(), sort_keys=True) for s in rec.recent]
        assert got == list(ref.recent)
        assert rec.recorded == ref.count
    elif path == "snapshot":
        entries = {e["labels"]["phase"]: e
                   for e in reg.snapshot()["metrics"] if e["name"] == METRIC}
        if ref.count:
            for name in NAMES:
                entry = entries[name]
                assert entry["counts"] == ref.counts[name]
                assert entry["count"] == ref.count
                assert bits(entry["sum"]) == bits(ref.sums[name])
        else:
            assert not entries
    elif path == "prometheus":
        text = prometheus_text(reg)
        for name in NAMES if ref.count else ():
            sel = f'{{backend="des",lvrm="fold",phase="{name}"}}'
            (line,) = [ln for ln in text.splitlines()
                       if ln.startswith(f"{METRIC}_sum{sel} ")]
            assert bits(float(line.split()[-1])) == bits(ref.sums[name])
            (line,) = [ln for ln in text.splitlines()
                       if ln.startswith(f"{METRIC}_count{sel} ")]
            assert int(line.split()[-1]) == ref.count
    elif path == "slo":
        dog.evaluate(now=0.0)
        got = dog.state()["rules"]["p99"]["last_value"]
        if ref.count:
            want = bucket_quantile(LATENCY_BUCKETS, ref.counts["total"],
                                   0.99) * 1e3
            assert bits(got) == bits(want)
    else:  # pragma: no cover - strategy typo
        raise AssertionError(path)
    check_hists(reg, ref)


def new_recorder(keep=4, reg=None):
    reg = reg if reg is not None else obs.Registry()
    rec = SpanRecorder(reg, sample_every=1, backend="des", keep=keep,
                       labels=dict(LABELS))
    dog = SloWatchdog([SloRule("p99", "p99_latency_ms", 0.0)], reg,
                      scope_labels=dict(LABELS))
    return reg, rec, dog


#: Stamps that make edge-case durations: 0.0 and -0.0 (their
#: differences give ±0.0), every bucket bound (x - 0.0 lands exactly on
#: it), NaN and inf (NaN durations), far past the last bound, negatives.
EDGES = [0.0, -0.0, math.nan, math.inf, 1e3, 4.0 * (1 + 2 ** -52),
         -1e-6, 0.1 + 0.2] + list(LATENCY_BUCKETS)
STAMP = st.one_of(st.sampled_from(EDGES),
                  st.floats(min_value=-1.0, max_value=10.0,
                            allow_nan=False))
RECORD = st.tuples(st.just("record"), st.tuples(*[STAMP] * 5),
                   st.sampled_from([None, 1, 7]),
                   st.sampled_from(["", "vr1"]))
READ = st.tuples(st.just("read"),
                 st.sampled_from(["percentiles", "jsonl", "recent",
                                  "snapshot", "prometheus", "slo"]))
TRACE = st.tuples(st.just("trace"), st.booleans())
OPS = st.lists(st.one_of(RECORD, RECORD, RECORD, READ, TRACE),
               max_size=40)


@pytest.fixture(autouse=True)
def _tracer_off():
    yield
    TRACER.disable()
    TRACER.clear()


@settings(max_examples=200, deadline=None)
@given(OPS, st.integers(1, 6))
def test_every_read_path_sees_the_eager_fold(ops, keep):
    reg, rec, dog = new_recorder(keep)
    ref = EagerFold(keep)
    try:
        for op in ops:
            if op[0] == "record":
                _, stamps, vri_id, vr = op
                rec.record_stamps(*stamps, vri_id=vri_id, vr=vr)
                ref.add(stamps, vri_id, vr)
            elif op[0] == "read":
                read_and_check(op[1], reg, rec, ref, dog)
            elif op[1]:
                TRACER.enable()
            else:
                TRACER.disable()
        for path in ("snapshot", "recent", "slo"):
            read_and_check(path, reg, rec, ref, dog)
    finally:
        TRACER.disable()
        TRACER.clear()


def _random_stamps(rng, n):
    """``n`` spans whose phases span nine decades (so that any other
    summation order rounds differently), with a few clamped ones."""
    phases = 10.0 ** rng.uniform(-7.0, 1.0, size=(n, 4))
    phases[rng.random((n, 4)) < 0.02] *= -1.0
    stamps = np.cumsum(np.hstack([rng.uniform(0, 5, (n, 1)), phases]),
                       axis=1)
    return [tuple(float(x) for x in row) for row in stamps]


def test_many_spans_between_reads_keep_sum_bits():
    """Thousands of spans between reads: a pairwise or reordered sum,
    or ``bisect_right`` on a bound, would show in the bits here."""
    reg, rec, dog = new_recorder(keep=16)
    ref = EagerFold(16)
    rng = np.random.default_rng(2011)
    spans = _random_stamps(rng, 12_000)
    # Exact bucket bounds too, so the side of the search matters.
    spans += [(0.0, b, 2 * b, 3 * b, 4 * b) for b in LATENCY_BUCKETS]
    reads = {1: "slo", 3_000: "snapshot", 9_001: "prometheus",
             10_500: "jsonl"}
    for i, stamps in enumerate(spans):
        rec.record_stamps(*stamps, vri_id=i % 3 or None, vr="vr1")
        ref.add(stamps, i % 3 or None, "vr1")
        if i in reads:
            read_and_check(reads[i], reg, rec, ref, dog)
    for path in ("percentiles", "recent", "snapshot", "slo"):
        read_and_check(path, reg, rec, ref, dog)


def test_recorders_sharing_a_series_fold_in_arrival_order():
    """Two recorders with one label set share the five histograms:
    their interleaved spans must add up in arrival order."""
    reg = obs.Registry()
    _, first, dog = new_recorder(keep=8, reg=reg)
    second = SpanRecorder(reg, sample_every=1, backend="des", keep=8,
                          labels=dict(LABELS))
    ref = EagerFold(8)
    rng = np.random.default_rng(7)
    for i, stamps in enumerate(_random_stamps(rng, 3_000)):
        (first if rng.random() < 0.5 else second).record_stamps(*stamps)
        ref.add(stamps)
        if i % 1_000 == 999:
            read_and_check("snapshot", reg, first, ref, dog)
    read_and_check("prometheus", reg, first, ref, dog)
    assert first.recorded + second.recorded == ref.count


def test_registry_reset_keeps_spans_recorded_before_it():
    """``obs.reset()`` clears the registry; spans recorded before it
    land in the histograms the recorder already holds, as an eager
    fold would leave them, and none reappear in the cleared registry."""
    reg, rec, _dog = new_recorder()
    rec.record_stamps(0.0, 1e-6, 2e-6, 3e-6, 4e-6)
    (hist,) = reg.find(METRIC, phase="total", **LABELS)
    rec.record_stamps(0.0, 1e-6, 2e-6, 3e-6, 5e-6)
    reg.clear()
    assert reg.find(METRIC) == []
    assert reg.snapshot()["metrics"] == []
    assert rec.recorded == 2
    assert hist.count == 2


def test_a_collected_recorder_folds_what_it_buffered():
    """The registry outlives its recorders and holds their writers
    weakly: spans still buffered when a recorder is collected are
    folded then, not lost."""
    import gc

    reg, rec, _dog = new_recorder()
    ref = EagerFold(4)
    spans = _random_stamps(np.random.default_rng(3), 10)
    rec.record_stamps(*spans[0])
    ref.add(spans[0])
    # Held from here on, so later checks read them without a fold.
    hists = {name: reg.find(METRIC, phase=name, **LABELS)[0]
             for name in NAMES}
    for stamps in spans[1:]:
        rec.record_stamps(*stamps)
        ref.add(stamps)
    assert all(h.count == 1 for h in hists.values())
    del rec
    gc.collect()
    for name, hist in hists.items():
        assert hist.counts == ref.counts[name]
        assert hist.count == ref.count
        assert bits(hist.sum) == bits(ref.sums[name])


@pytest.mark.parametrize("backend", ["des", "runtime"])
def test_scrapes_from_another_thread_lose_and_double_nothing(backend):
    """The admin server reads the registry and the recent window on its
    own threads while the monitor records.  Scrapes racing the records
    and each other must neither drop a span nor count one twice (a
    deferred fold that clears what it did not take, or two folds adding
    one buffer), and the sums must still add in arrival order."""
    import sys
    import threading

    reg = obs.Registry()
    rec = SpanRecorder(reg, sample_every=1, backend=backend, keep=8,
                       labels=dict(LABELS))
    ref = EagerFold(8)
    spans = _random_stamps(np.random.default_rng(11), 6_000)
    rec.record_stamps(*spans[0])
    ref.add(spans[0])
    stop = threading.Event()
    errors = []

    def scrape():
        try:
            while not stop.is_set():
                prometheus_text(reg)
                rec.jsonl()
                reg.snapshot()
        except Exception as exc:  # pragma: no cover - the failure shown
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    scrapers = [threading.Thread(target=scrape) for _ in range(2)]
    for scraper in scrapers:
        scraper.start()
    try:
        for stamps in spans[1:]:
            rec.record_stamps(*stamps)
            ref.add(stamps)
    finally:
        stop.set()
        for scraper in scrapers:
            scraper.join()
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert rec.recorded == ref.count == len(spans)
    for name in NAMES:
        (hist,) = reg.find(METRIC, phase=name, **LABELS)
        assert hist.counts == ref.counts[name], name
        assert hist.count == ref.count, name
        assert bits(hist.sum) == bits(ref.sums[name]), name


def test_a_fold_reentered_on_its_own_thread_completes(monkeypatch):
    """A fold allocates, so the cyclic collector can run a collected
    recorder's finalizer — another fold of the same writer — inside
    it, on the same thread.  The nested fold must not wait for the
    outer one to finish."""
    import threading

    from repro.obs import spans

    reg, rec, dog = new_recorder()
    ref = EagerFold(4)
    outer = spans._SpanFold._fold

    def fold_reentering(self, chunk):
        self.fold()          # what a finalizer run here would do
        outer(self, chunk)

    monkeypatch.setattr(spans._SpanFold, "_fold", fold_reentering)
    for stamps in _random_stamps(np.random.default_rng(5), 3):
        rec.record_stamps(*stamps)
        ref.add(stamps)
    reader = threading.Thread(target=reg.snapshot, daemon=True)
    reader.start()
    reader.join(10.0)
    assert not reader.is_alive(), "a nested fold waited on its own lock"
    monkeypatch.undo()
    read_and_check("snapshot", reg, rec, ref, dog)
