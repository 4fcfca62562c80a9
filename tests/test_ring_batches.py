"""Batched ring I/O ≡ scalar ring I/O, for all three queue kinds.

The batched entry points (``try_push_many`` / ``try_pop_many``) must be
observationally identical to loops over ``try_push`` / ``try_pop``: same
records out, same order, same backpressure at the full/empty boundaries,
across wrap-around.  A seeded random interleaving drives both a ring and
a plain-list model through mixed scalar/batched operations and checks
every return value against the model.
"""

import random

import pytest

from repro.errors import ConfigError
from repro.ipc import RING_KINDS, make_ring, ring_bytes_for

CAPACITY = 16
SLOT = 64


def _make(kind, capacity=CAPACITY, slot=SLOT):
    buf = bytearray(ring_bytes_for(kind, capacity, slot))
    return make_ring(kind, buf, capacity, slot)


def _flush(ring):
    flush = getattr(ring, "flush", None)
    if flush is not None:
        flush()


def _release(ring):
    # MCRingBuffer consumers hand slots back lazily (once per batch);
    # releasing eagerly here keeps producer-side capacity deterministic
    # so the model can assert exact push counts.
    release = getattr(ring, "release", None)
    if release is not None:
        release()


def _record(i):
    return f"rec-{i:06d}".encode()


# -- basic batched semantics -------------------------------------------------

@pytest.mark.parametrize("kind", RING_KINDS)
def test_push_many_then_pop_many_round_trip(kind):
    ring = _make(kind)
    records = [_record(i) for i in range(10)]
    assert ring.try_push_many(records) == 10
    _flush(ring)
    assert ring.try_pop_many() == records
    assert ring.try_pop_many() == []


@pytest.mark.parametrize("kind", RING_KINDS)
def test_push_many_stops_at_full(kind):
    ring = _make(kind)
    records = [_record(i) for i in range(CAPACITY + 7)]
    assert ring.try_push_many(records) == CAPACITY
    _flush(ring)
    assert ring.try_push_many([b"extra"]) == 0
    assert ring.try_pop_many() == records[:CAPACITY]


@pytest.mark.parametrize("kind", RING_KINDS)
def test_pop_many_respects_max_records(kind):
    ring = _make(kind)
    records = [_record(i) for i in range(12)]
    ring.try_push_many(records)
    _flush(ring)
    assert ring.try_pop_many(5) == records[:5]
    assert ring.try_pop_many(100) == records[5:]


@pytest.mark.parametrize("kind", RING_KINDS)
def test_batched_wraparound(kind):
    """Runs that straddle the top of the slot array stay in order."""
    ring = _make(kind)
    # Advance the cursors near the end of the array first.
    for lap in range(CAPACITY - 3):
        assert ring.try_push(_record(lap))
        _flush(ring)
        assert ring.try_pop() == _record(lap)
    _release(ring)
    records = [_record(100 + i) for i in range(CAPACITY)]
    assert ring.try_push_many(records) == CAPACITY
    _flush(ring)
    assert ring.try_pop_many() == records


@pytest.mark.parametrize("kind", RING_KINDS)
def test_push_many_oversize_record_raises(kind):
    ring = _make(kind)
    with pytest.raises(ConfigError):
        ring.try_push_many([b"ok", b"x" * (SLOT * 2)])


@pytest.mark.parametrize("kind", RING_KINDS)
def test_batched_and_scalar_interoperate_across_attach(kind):
    """A scalar consumer attached to the same buffer sees batched pushes."""
    buf = bytearray(ring_bytes_for(kind, CAPACITY, SLOT))
    producer = make_ring(kind, buf, CAPACITY, SLOT)
    consumer = type(producer).attach(buf)
    records = [_record(i) for i in range(6)]
    assert producer.try_push_many(records) == 6
    _flush(producer)
    popped = [consumer.try_pop() for _ in range(6)]
    assert popped == records
    assert consumer.try_pop() is None


# -- property: random interleaving vs a list model ---------------------------

@pytest.mark.parametrize("kind", RING_KINDS)
@pytest.mark.parametrize("seed", [2011, 424242])
def test_random_interleaving_matches_model(kind, seed):
    rng = random.Random(seed)
    ring = _make(kind)
    model = []          # records pushed (visible or not) and not yet popped
    next_id = 0

    for _step in range(3000):
        op = rng.randrange(6)
        if op == 0:  # scalar push
            rec = _record(next_id)
            ok = ring.try_push(rec)
            if ok:
                model.append(rec)
                next_id += 1
            else:
                assert len(model) == CAPACITY
        elif op == 1:  # batched push
            n = rng.randrange(1, CAPACITY + 4)
            recs = [_record(next_id + i) for i in range(n)]
            pushed = ring.try_push_many(recs)
            assert pushed == min(n, CAPACITY - len(model))
            model.extend(recs[:pushed])
            next_id += pushed
        elif op == 2:  # scalar pop
            _flush(ring)
            rec = ring.try_pop()
            if rec is None:
                assert not model
            else:
                assert rec == model.pop(0)
            _release(ring)
        elif op == 3:  # batched pop
            _flush(ring)
            limit = rng.choice([None, rng.randrange(1, CAPACITY + 4)])
            got = ring.try_pop_many(limit)
            want_n = len(model) if limit is None else min(limit, len(model))
            assert got == model[:want_n]
            del model[:want_n]
            _release(ring)
        elif op == 4:  # drain everything (hits the empty boundary)
            _flush(ring)
            got = ring.try_pop_many()
            assert got == model
            model.clear()
            assert ring.try_pop() is None
            _release(ring)
        else:  # fill to the brim (hits the full boundary)
            n = CAPACITY - len(model)
            recs = [_record(next_id + i) for i in range(n)]
            assert ring.try_push_many(recs) == n
            model.extend(recs)
            next_id += n
            assert not ring.try_push(b"overflow")
            assert ring.try_push_many([b"overflow"]) == 0
    # Whatever survives the walk drains in order.
    _flush(ring)
    assert ring.try_pop_many() == model


# -- hwm: the consumer side must see occupancy too ---------------------------

@pytest.mark.parametrize("kind", RING_KINDS)
def test_consumer_side_hwm_counts_backlog(kind):
    """A consumer that attaches late still observes the standing backlog
    (pops sample occupancy *before* releasing the slot)."""
    buf = bytearray(ring_bytes_for(kind, CAPACITY, SLOT))
    producer = make_ring(kind, buf, CAPACITY, SLOT)
    consumer = type(producer).attach(buf)
    for i in range(12):
        assert producer.try_push(_record(i))
    _flush(producer)
    if kind == "fastforward":
        # FastForward's scalar pop amortizes the O(capacity) flag scan;
        # the batched pop samples every time.
        consumer.try_pop_many()
    else:
        for _ in range(12):
            assert consumer.try_pop() is not None
    assert consumer.hwm >= 12
