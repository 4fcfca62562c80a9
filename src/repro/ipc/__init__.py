"""Inter-process communication queues (thesis §3.5).

Two families with one set of semantics:

* :class:`~repro.ipc.ring.SpscRing` — a *real* lock-free single-producer
  single-consumer ring in POSIX shared memory (Lamport's construction
  [23]): the producer only writes the tail index, the consumer only the
  head index, both 64-bit aligned stores.  Used by the real-process
  runtime backend and exercised heavily by property tests.  The
  FastForward and MCRingBuffer variants (:mod:`repro.ipc.factory`) are
  benchmark-only ablations; the runtime never selects them.
* :class:`~repro.ipc.sim_queue.SimIpcQueue` — the DES model of the same
  queue: bounded FIFO with occupancy statistics (the load-estimation
  input) and drop-tail accounting.

Every VRI owns two pairs: data queues and control queues, with control
taking priority at the consumer (thesis §2.1).
"""

from repro.ipc.ring import SpscRing, RingFull, RingEmpty
from repro.ipc.fastforward import FastForwardRing
from repro.ipc.mcring import McRingBuffer
from repro.ipc.factory import RING_KINDS, make_ring, ring_bytes_for
from repro.ipc.shm import SharedSegment
from repro.ipc.sim_queue import SimIpcQueue
from repro.ipc.queues import VriChannels
from repro.ipc.messages import ControlEvent, encode_event, decode_event
from repro.ipc.desc import (DESC, DESC_SIZE, DESC_SLOT, FLAG_PROBE,
                            PROBE_HEADROOM)
from repro.ipc.arena import (FrameArena, ArenaProducer, arena_bytes_needed,
                             DEFAULT_SIZE_CLASSES)
from repro.ipc.wait import WaitPolicy, AimdBatcher

__all__ = [
    "SpscRing",
    "FastForwardRing",
    "McRingBuffer",
    "RING_KINDS",
    "make_ring",
    "ring_bytes_for",
    "RingFull",
    "RingEmpty",
    "SharedSegment",
    "SimIpcQueue",
    "VriChannels",
    "ControlEvent",
    "encode_event",
    "decode_event",
    "DESC",
    "DESC_SIZE",
    "DESC_SLOT",
    "FLAG_PROBE",
    "PROBE_HEADROOM",
    "FrameArena",
    "ArenaProducer",
    "arena_bytes_needed",
    "DEFAULT_SIZE_CLASSES",
    "WaitPolicy",
    "AimdBatcher",
]
