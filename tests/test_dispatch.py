"""The RSS-style flow hash in ``repro.dispatch.splitter``: scalar and
vectorized forms agree, and the hash follows the 5-tuple."""

import itertools
import struct

import numpy as np

from repro.dispatch.splitter import hash_frame, hash_frames
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame

# ---------------------------------------------------------------------------
# traffic helpers
# ---------------------------------------------------------------------------

N_FLOWS = 8
_SEQ = itertools.count()
_TAG = struct.Struct("<II")  # (flow, seq) in the payload head


def _flow_frame(flow: int, seq: int) -> bytes:
    """A routable frame whose 5-tuple is determined by ``flow`` and whose
    payload carries ``(flow, seq)``."""
    bases = (ip_to_int("10.1.1.0"), ip_to_int("10.2.1.0"))
    return build_udp_frame(0x020000000001, 0x020000000002,
                           ip_to_int("10.9.0.1") + flow,
                           bases[flow % 2] + 1 + flow,
                           10000 + flow, 20000,
                           _TAG.pack(flow, seq) + b"q" * 24)


def _burst(flows) -> list:
    return [_flow_frame(flow, next(_SEQ)) for flow in flows]


# ---------------------------------------------------------------------------
# splitter: flow hash
# ---------------------------------------------------------------------------

def test_hash_scalar_and_vector_agree_uniform():
    frames = _burst([i % N_FLOWS for i in range(64)])
    batch = hash_frames(frames)
    assert batch.dtype == np.uint64
    assert batch.tolist() == [hash_frame(f) for f in frames]


def test_hash_scalar_and_vector_agree_mixed_lengths():
    frames = [_flow_frame(f, f) + b"\x00" * f for f in range(6)]
    assert hash_frames(frames).tolist() == [hash_frame(f) for f in frames]


def test_hash_is_a_flow_hash():
    # Same 5-tuple, different payloads -> same hash; different ports ->
    # (overwhelmingly) different hash.
    a = _flow_frame(3, 1)
    b = _flow_frame(3, 999)
    c = _flow_frame(4, 1)
    assert hash_frame(a) == hash_frame(b)
    assert hash_frame(a) != hash_frame(c)


def test_short_frames_hash_deterministically():
    runt = b"\x01\x02\x03"
    assert hash_frame(runt) == hash_frame(runt)
    assert hash_frames([runt, runt]).tolist() == [hash_frame(runt)] * 2
