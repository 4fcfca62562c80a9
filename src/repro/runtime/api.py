"""The VRI-side LVRM adapter for real processes (thesis §3.6).

The paper gives VRIs a tiny API — ``fromLVRM()`` and ``toLVRM()`` — so a
router implementation never touches the IPC queues directly.  This is
that API: it attaches to the four shared-memory rings by name (the
identifiers LVRM passes in the VRI's main arguments) and, as in the
thesis, measures the VRI's service rate as the gap between successive
``fromLVRM()`` completions, reporting it upstream over the control ring.
"""

from __future__ import annotations

import struct
import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimation import ServiceRateEstimator
from repro.ipc.messages import ControlEvent, KIND_SERVICE_RATE, decode_event, encode_event
from repro.ipc.ring import SpscRing
from repro.ipc.shm import SharedSegment

__all__ = ["VriSideApi"]

#: Outgoing data records are the forwarded frame prefixed by the chosen
#: output interface.
_OUT_HEADER = struct.Struct("<H")


class VriSideApi:
    """``fromLVRM()`` / ``toLVRM()`` over shared-memory rings."""

    def __init__(self, vri_id: int, data_in_name: str, data_out_name: str,
                 ctrl_in_name: str, ctrl_out_name: str,
                 report_service_rate: bool = False,
                 report_every: int = 256,
                 arena_name: Optional[str] = None,
                 arena_reclaim: int = 0):
        self.vri_id = vri_id
        self._segments = [SharedSegment.attach(n) for n in
                          (data_in_name, data_out_name,
                           ctrl_in_name, ctrl_out_name)]
        self.data_in, self.data_out, self.ctrl_in, self.ctrl_out = (
            SpscRing.attach(segment.buf) for segment in self._segments)
        #: Zero-copy mode: the data rings carry 24-byte descriptors into
        #: this shared frame arena instead of the frames themselves.
        self.arena = None
        self.arena_reclaim = arena_reclaim
        if arena_name is not None:
            from repro.ipc.arena import FrameArena
            self._segments.append(SharedSegment.attach(arena_name))
            self.arena = FrameArena.attach(self._segments[-1].buf)
        self._estimator = ServiceRateEstimator() if report_service_rate else None
        self._report_every = max(1, report_every)
        self._last_from: Optional[float] = None
        self.frames_in = 0
        self.frames_out = 0
        # Per-process control-plane sequence (1-based mod 2**16); the
        # monitor detects per-source gaps from these stamps.
        self._ctrl_seq = 0

    # -- the paper's two calls --------------------------------------------------
    def from_lvrm(self) -> Optional[bytes]:
        """Next raw frame from LVRM, or None (non-blocking poll)."""
        record = self.data_in.try_pop()
        if record is not None:
            self._popped()
        return record

    def to_lvrm(self, out_iface: int, frame: bytes) -> bool:
        """Hand a forwarded frame back; False when the ring is full."""
        return self.push_records([self.pack_output(out_iface, frame)]) == 1

    def _popped(self) -> None:
        """Count one frame popped on the per-frame path; with the
        estimator armed, feed it the gap since the previous pop and
        report the rate upstream every ``report_every`` frames."""
        now = time.perf_counter()
        if self._estimator is not None and self._last_from is not None:
            gap = now - self._last_from
            if gap > 0:
                self._estimator.observe_service(gap)
            if self.frames_in % self._report_every == 0:
                self._report_rate()
        self._last_from = now
        self.frames_in += 1

    # -- batched variants ---------------------------------------------------
    def from_lvrm_many_into(self, max_frames: int = 64) -> List[bytes]:
        """Up to ``max_frames`` raw frames in one ring transaction, as
        *borrowed* memoryviews into the ring slots — no copy.  The views
        die at :meth:`release_input`, which the caller must invoke after
        decoding (and before the next poll would overrun the ring).

        With the service-rate estimator enabled this degrades to owned
        per-frame pops: the estimator's signal *is* the per-frame
        completion gap, which a batch pop would destroy.
        :meth:`release_input` is then a no-op, so callers need no branch.
        """
        if self._estimator is not None:
            out: List[bytes] = []
            while len(out) < max_frames:
                record = self.from_lvrm()
                if record is None:
                    break
                out.append(record)
            return out
        frames = self.data_in.try_pop_many_into(max_frames)
        self.frames_in += len(frames)
        return frames

    def release_input(self) -> None:
        """Release ring slots borrowed by :meth:`from_lvrm_many_into`."""
        self.data_in.release_popped()

    # -- descriptor (arena) variants ----------------------------------------
    def from_lvrm_desc_block(self, max_frames: int = 64):
        """Up to ``max_frames`` frame descriptors as an ``(n, 3)`` u64
        block (``None`` when empty; see
        :func:`repro.ipc.desc.desc_block_rows` for the layout); the frame
        bytes stay in the shared arena.  With the service-rate estimator
        enabled, descriptors pop one at a time so the per-frame
        completion gap — the estimator's signal — survives."""
        if self._estimator is not None:
            rows = []
            while len(rows) < max_frames:
                row = self.data_in.try_pop_desc_block(1)
                if row is None:
                    break
                self._popped()
                rows.append(row)
            return np.concatenate(rows) if rows else None
        block = self.data_in.try_pop_desc_block(max_frames)
        if block is not None:
            self.frames_in += len(block)
        return block

    def to_lvrm_desc_block(self, block) -> int:
        """Hand back a routed ``(n, 3)`` descriptor block with one
        publication; returns how many the ring accepted."""
        pushed = self.data_out.try_push_desc_block(block)
        if pushed:
            self.frames_out += pushed
        return pushed

    def free_frame(self, offset: int) -> None:
        """Release an arena chunk this VRI consumed but will not forward
        (no-route drop, overflow) back to the owner."""
        self.arena.free(offset, self.arena_reclaim)

    @staticmethod
    def pack_output(out_iface: int, frame) -> bytes:
        """Build the outgoing-record encoding of ``(iface, frame)``.

        For callers that need the raw record — e.g. to prepend a latency
        probe — before handing it to :meth:`push_records`.  Accepts any
        bytes-like frame; a borrowed ``memoryview`` is copied here (its
        one unavoidable copy — the record must outlive the ring slot).
        """
        if not 0 <= out_iface <= 0xFFFF:
            raise ValueError(f"out_iface out of range: {out_iface}")
        return _OUT_HEADER.pack(out_iface) + bytes(frame)

    def push_records(self, records: Sequence[bytes]) -> int:
        """Push pre-built outgoing records in one publication."""
        pushed = self.data_out.try_push_many(records)
        if pushed:
            self.frames_out += pushed
        return pushed

    @staticmethod
    def split_output(record: bytes) -> Tuple[int, bytes]:
        """LVRM-side: split an outgoing record into (iface, frame)."""
        (iface,) = _OUT_HEADER.unpack_from(record)
        return iface, record[_OUT_HEADER.size:]

    # -- control plane -------------------------------------------------------------
    def recv_control(self) -> Optional[ControlEvent]:
        record = self.ctrl_in.try_pop()
        return None if record is None else decode_event(record)

    def send_control(self, event: ControlEvent) -> bool:
        if event.seq == 0:
            # Stamp 1-based so 0 keeps meaning "unstamped"; skip 0 on
            # wrap for the same reason.
            self._ctrl_seq = (self._ctrl_seq % 0xFFFF) + 1
            event = replace(event, seq=self._ctrl_seq)
        return self.ctrl_out.try_push(encode_event(event))

    def _report_rate(self) -> None:
        rate = self._estimator.rate()
        payload = struct.pack("<d", rate)
        self.send_control(ControlEvent(KIND_SERVICE_RATE, self.vri_id, 0,
                                       payload))

    def close(self) -> None:
        for ring in (self.data_in, self.data_out, self.ctrl_in, self.ctrl_out):
            ring.close()
        if self.arena is not None:
            self.arena.close()
        for segment in self._segments:
            # Attached (non-owner) segments: detach only.
            segment.close()
