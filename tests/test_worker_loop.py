"""The worker's loop body, driven in-process: :meth:`WorkerLoop.step`
over real shared-memory rings, no fork."""

import pytest

from repro.core.vr import DEFAULT_MAP_LINES
from repro.ipc.messages import ControlEvent, KIND_STOP, encode_event
from repro.ipc.ring import SpscRing, ring_bytes_needed
from repro.ipc.shm import SharedSegment
from repro.net.addresses import ip_to_int
from repro.net.packet import build_udp_frame
from repro.obs.recorder import FlightRecorder
from repro.runtime.api import VriSideApi
from repro.runtime.worker import STOPPED, WorkerArgs, WorkerLoop


def _frame(dst, payload=b"step"):
    return build_udp_frame(0x020000000001, 0x020000000002,
                           ip_to_int("10.1.1.2"), ip_to_int(dst),
                           10000, 20000, payload)


@pytest.fixture
def rings():
    """The monitor's side of one worker's four rings."""
    segments, made = [], []
    for slot in (2048, 2048, 512, 512):
        segment = SharedSegment.create(ring_bytes_needed(64, slot))
        segments.append(segment)
        made.append(SpscRing(segment.buf, 64, slot, create=True))
    yield segments, made
    for ring in made:
        ring.close()
    for segment in segments:
        segment.close()


def test_step_idles_serves_a_burst_and_stops(rings):
    segments, (data_in, data_out, ctrl_in, _ctrl_out) = rings
    args = WorkerArgs(vri_id=1, core_id=None,
                      data_in=segments[0].name, data_out=segments[1].name,
                      ctrl_in=segments[2].name, ctrl_out=segments[3].name,
                      map_lines=DEFAULT_MAP_LINES, probe_frames=False)
    loop = WorkerLoop(args, FlightRecorder(16))
    try:
        assert loop.step() == 0
        assert len(data_out) == 0

        burst = [_frame("10.2.1.2"), _frame("10.1.7.9"), _frame("10.2.3.4")]
        assert data_in.try_push_many(burst) == 3
        assert loop.step() == 3
        out = [VriSideApi.split_output(r) for r in data_out.try_pop_many()]
        assert [iface for iface, _f in out] == [1, 0, 1]
        assert [bytes(f) for _i, f in out] == burst

        assert ctrl_in.try_push(encode_event(ControlEvent(KIND_STOP, 0, 1)))
        assert loop.step() == STOPPED
    finally:
        loop.close()
