"""RSS-style flow hashing.

:func:`hash_frames` / :func:`hash_frame` compute a deterministic 5-tuple
hash over the IPv4 src/dst addresses and L4 ports (the 12 bytes at
Ethernet offsets 26..38, i.e. what commodity-NIC RSS hashes).  The batch
form vectorizes over uniform-length bursts with numpy; the scalar form
computes the *identical* value.  Python's built-in ``hash`` is
deliberately avoided: it is salted per process (``PYTHONHASHSEED``), and
a flow's hash must be stable across restarts and reproducible in tests.

Frames shorter than a full IPv4+L4 header hash over their zero-padded
tail — junk hashes deterministically too, it just all lands together.

Nothing on the forwarding path calls these today; ``bench/probes.py``
times :func:`hash_frames` as an off-path layer.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

__all__ = ["FLOW_KEY_OFF", "FLOW_KEY_LEN", "hash_frame", "hash_frames"]

#: The RSS key: IPv4 src+dst (8 bytes at Ethernet offset 26) and the L4
#: src/dst ports (4 bytes right after the 20-byte option-free header).
FLOW_KEY_OFF = 26
FLOW_KEY_LEN = 12

_MASK64 = (1 << 64) - 1
# Odd multipliers (Murmur/xxHash finalizer constants): one per 32-bit
# lane of the key, mixed with a 64-bit golden-ratio finalizer.
_M0 = 0x9E3779B1
_M1 = 0x85EBCA77
_M2 = 0xC2B2AE3D
_FIN = 0x9E3779B97F4A7C15

_U32 = struct.Struct("<III")


def hash_frame(frame) -> int:
    """Deterministic 64-bit flow hash of one frame (scalar path)."""
    key = bytes(frame[FLOW_KEY_OFF:FLOW_KEY_OFF + FLOW_KEY_LEN])
    if len(key) < FLOW_KEY_LEN:
        key = key + b"\x00" * (FLOW_KEY_LEN - len(key))
    k0, k1, k2 = _U32.unpack(key)
    h = (k0 * _M0 + k1 * _M1 + k2 * _M2) & _MASK64
    return (h * _FIN) & _MASK64


def hash_frames(frames: Sequence[bytes]) -> np.ndarray:
    """Flow hashes for a burst, as a uint64 array.

    Uniform-length bursts (the common case: canned drill traffic and
    NIC-batched ingress) vectorize: one reshape over the concatenated
    payloads, a three-lane integer mix, no per-frame Python.  Mixed
    bursts fall back to the scalar hash per frame — same values.
    """
    n = len(frames)
    if not n:
        return np.empty(0, dtype=np.uint64)
    length = len(frames[0])
    uniform = length >= FLOW_KEY_OFF + FLOW_KEY_LEN and all(
        len(f) == length for f in frames)
    if not uniform:
        return np.fromiter((hash_frame(f) for f in frames),
                           dtype=np.uint64, count=n)
    flat = np.frombuffer(b"".join(frames), dtype=np.uint8)
    keys = flat.reshape(n, length)[
        :, FLOW_KEY_OFF:FLOW_KEY_OFF + FLOW_KEY_LEN]
    lanes = np.ascontiguousarray(keys).view("<u4").astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (lanes[:, 0] * np.uint64(_M0)
             + lanes[:, 1] * np.uint64(_M1)
             + lanes[:, 2] * np.uint64(_M2))
        return h * np.uint64(_FIN)
