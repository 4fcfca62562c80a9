"""Tests for the alternative lock-free queue implementations
(FastForward [17] and MCRingBuffer [24]) and the ring factory.  The
runtime runs only the Lamport ring; these two are benchmark-only
ablations, so they are exercised here and in ``bench/``."""

import multiprocessing as mp
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, QueueEmptyError, QueueFullError
from repro.ipc import (FastForwardRing, McRingBuffer, RING_KINDS,
                       SharedSegment, SpscRing, make_ring, ring_bytes_for)
from repro.ipc.fastforward import ff_bytes_needed
from repro.ipc.mcring import mc_bytes_needed

RING_CLASSES = {"lamport": SpscRing, "fastforward": FastForwardRing,
                "mcring": McRingBuffer}


def _make(kind, capacity=8, slot=64, **kw):
    buf = bytearray(ring_bytes_for(kind, capacity, slot))
    return RING_CLASSES[kind](buf, capacity, slot, **kw), buf


# -- shared semantics across all kinds --------------------------------------------

@pytest.mark.parametrize("kind", RING_KINDS)
def test_fifo_and_wraparound(kind):
    ring, _buf = _make(kind, capacity=4)
    for round_no in range(12):
        ring.push(f"r{round_no}".encode())
        if hasattr(ring, "flush"):
            ring.flush()
        assert ring.pop() == f"r{round_no}".encode()


@pytest.mark.parametrize("kind", RING_KINDS)
def test_full_and_empty_conditions(kind):
    ring, _buf = _make(kind, capacity=4, **({"batch": 1}
                                            if kind == "mcring" else {}))
    for i in range(4):
        ring.push(bytes([i]))
    with pytest.raises(QueueFullError):
        ring.push(b"x")
    for i in range(4):
        assert ring.pop() == bytes([i])
    with pytest.raises(QueueEmptyError):
        ring.pop()


@pytest.mark.parametrize("kind", RING_KINDS)
def test_oversize_record_rejected(kind):
    ring, _buf = _make(kind, slot=32)
    with pytest.raises(ConfigError):
        ring.push(b"x" * 64)


@pytest.mark.parametrize("kind", RING_KINDS)
def test_attach_round_trip(kind):
    ring, buf = _make(kind)
    ring.push(b"hello")
    if hasattr(ring, "flush"):
        ring.flush()
    attached = RING_CLASSES[kind].attach(buf)
    # FastForward consumers start at slot 0, which is where we pushed.
    assert attached.pop() == b"hello"


def test_factory_validates_kind():
    with pytest.raises(ConfigError):
        ring_bytes_for("quantum", 8, 64)
    with pytest.raises(ConfigError):
        make_ring("quantum", bytearray(1024), 8, 64)


@given(st.sampled_from(RING_KINDS),
       st.lists(st.tuples(st.booleans(), st.binary(max_size=24)),
                max_size=100))
@settings(max_examples=120, deadline=None)
def test_all_kinds_match_deque_model(kind, ops):
    """Property: every implementation behaves as a bounded FIFO.

    MCRingBuffer is flushed/released after each op so its *published*
    view matches the model (batch=1 semantics)."""
    kw = {"batch": 1} if kind == "mcring" else {}
    ring, _buf = _make(kind, capacity=8, slot=32, **kw)
    model = deque()
    for is_push, payload in ops:
        if is_push:
            ok = ring.try_push(payload)
            assert ok == (len(model) < 8)
            if ok:
                model.append(payload)
        else:
            got = ring.try_pop()
            expected = model.popleft() if model else None
            assert got == expected


# -- FastForward specifics ---------------------------------------------------------

def test_ff_geometry_validation():
    with pytest.raises(ConfigError):
        ff_bytes_needed(6, 64)
    with pytest.raises(ConfigError):
        ff_bytes_needed(8, 30)  # not 4-byte aligned
    with pytest.raises(ConfigError):
        FastForwardRing(bytearray(8), 8, 64)


def test_ff_occupancy_scan():
    ring, _buf = _make("fastforward", capacity=8)
    assert len(ring) == 0
    ring.push(b"a")
    ring.push(b"b")
    assert len(ring) == 2
    ring.pop()
    assert len(ring) == 1


def _ff_producer(name, n):
    seg = SharedSegment.attach(name)
    ring = FastForwardRing.attach(seg.buf)
    sent = 0
    while sent < n:
        if ring.try_push(sent.to_bytes(4, "little")):
            sent += 1
    ring.close()
    seg.close()


def test_ff_cross_process():
    n = 1500
    seg = SharedSegment.create(ff_bytes_needed(64, 32))
    ring = FastForwardRing(seg.buf, 64, 32)
    ctx = mp.get_context("fork")
    child = ctx.Process(target=_ff_producer, args=(seg.name, n))
    child.start()
    received = []
    deadline = time.monotonic() + 30
    while len(received) < n and time.monotonic() < deadline:
        record = ring.try_pop()
        if record is not None:
            received.append(int.from_bytes(record, "little"))
    child.join(5)
    assert received == list(range(n))
    ring.close()
    seg.close()


# -- MCRingBuffer specifics ------------------------------------------------------------

def test_mc_batching_defers_publication():
    ring, buf = _make("mcring", capacity=16, batch=4)
    consumer = McRingBuffer.attach(buf)
    for i in range(3):
        ring.try_push(bytes([i]))
    # Three unflushed records: invisible to a fresh consumer.
    assert consumer.try_pop() is None
    ring.try_push(b"\x03")  # fourth push crosses the batch: auto-flush
    assert consumer.try_pop() == b"\x00"


def test_mc_flush_publishes_immediately():
    ring, buf = _make("mcring", capacity=16, batch=8)
    consumer = McRingBuffer.attach(buf)
    ring.try_push(b"solo")
    assert consumer.try_pop() is None
    ring.flush()
    assert consumer.try_pop() == b"solo"


def test_mc_release_returns_slots():
    ring, _buf = _make("mcring", capacity=4, batch=2)
    for i in range(4):
        ring.push(bytes([i]))
    ring.flush()
    assert not ring.try_push(b"full")
    ring.pop()  # one unreleased consume
    assert not ring.try_push(b"still-full")  # slot not yet returned
    ring.release()
    assert ring.try_push(b"now-fits")


def test_mc_batch_validation():
    buf = bytearray(mc_bytes_needed(8, 64))
    with pytest.raises(ConfigError):
        McRingBuffer(buf, 8, 64, batch=0)
    with pytest.raises(ConfigError):
        McRingBuffer(buf, 8, 64, batch=16)

