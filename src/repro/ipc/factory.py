"""Queue-implementation factory (thesis §3.5's extensibility point).

The thesis: "Our current lock-free queue implementation is based on
[23] (Lamport), while other improved lock-free queue implementations
[17, 24] can also be used in LVRM."  All three are implemented and
constructible by name:

* ``"lamport"``     — :class:`~repro.ipc.ring.SpscRing`
* ``"fastforward"`` — :class:`~repro.ipc.fastforward.FastForwardRing` [17]
* ``"mcring"``      — :class:`~repro.ipc.mcring.McRingBuffer` [24]

The runtime only ever runs the Lamport ring, as the paper's LVRM does.
The other two are benchmark-only ablations: ``bench/`` measures their
per-hop cost next to Lamport's through this factory.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.ipc.fastforward import FastForwardRing, ff_bytes_needed
from repro.ipc.mcring import McRingBuffer, mc_bytes_needed
from repro.ipc.ring import SpscRing, ring_bytes_needed

__all__ = ["RING_KINDS", "ring_bytes_for", "make_ring"]

RING_KINDS = ("lamport", "fastforward", "mcring")


def _entry(kind: str):
    if kind == "lamport":
        return SpscRing, ring_bytes_needed
    if kind == "fastforward":
        return FastForwardRing, ff_bytes_needed
    if kind == "mcring":
        return McRingBuffer, mc_bytes_needed
    raise ConfigError(
        f"unknown ring implementation {kind!r}; choose from {RING_KINDS}")


def ring_bytes_for(kind: str, capacity: int, slot_size: int) -> int:
    """Shared-memory bytes needed for a ring of the given kind."""
    _cls, size_fn = _entry(kind)
    return size_fn(capacity, slot_size)


def make_ring(kind: str, buffer, capacity: int, slot_size: int):
    """Create (and initialize) a ring of the given kind over ``buffer``."""
    cls, _size_fn = _entry(kind)
    return cls(buffer, capacity, slot_size, create=True)
