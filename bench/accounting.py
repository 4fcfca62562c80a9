"""Pure bookkeeping for the benchmark: no clocks, no processes, no repro.

Everything here takes timestamps and frames as arguments, so
``bench/tests`` can drive it with synthetic values: the per-sequence
ledger (count conservation + byte checks), the re-offer backlog, the
windowed latency/throughput summaries, the DES staircase check, and the
spread/verdict rules ``--compare`` applies.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import statistics
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from loadgen import SEQ_OFF, TTL0, TTL_OFF, FramePool

__all__ = ["Ledger", "Backlog", "Windows", "staircase_failures",
           "result_digest", "spread_share", "verdict", "percentile"]

#: A refused frame waits this long in the backlog before it counts as
#: failed (ISSUE 12: backlog capped at 1 s).
BACKLOG_CAP_S = 1.0
#: A window with fewer latency samples than this has no percentile worth
#: taking and is left out of the median across windows.
MIN_WINDOW_SAMPLES = 20
#: exp2c's staircase: one core per 60 Kfps offered (Fig 4.10).
PER_CORE_KFPS = 60.0


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# Count conservation and byte checks
# ---------------------------------------------------------------------------

class Ledger:
    """Who was sent, who came back, and was it right.

    Every returned frame is checked for a known sequence number, the
    oracle's interface and TTL-1; one in ``sample_every`` is compared
    byte for byte (header checksum included) with what the router had to
    return.  The comparison is done on the spot — two slices against
    precomputed bytes — because keeping the samples of a 27-s run until
    it ends would put hundreds of MB of the benchmark's own memory into
    ``peak_rss_mb``.
    """

    def __init__(self, pool: FramePool, sample_every: int = 64) -> None:
        self.pool = pool
        self.sample_every = sample_every
        self.issued = 0
        self.counts = np.zeros(1 << 20, dtype=np.uint8)
        self.returned = 0
        self.bad_seq = 0        # unparseable / never-issued sequence number
        self.wrong_iface = 0
        self.bad_ttl = 0
        self.corrupt = 0        # sampled frames that differ from expected
        self.sampled = 0

    def issue(self, n: int) -> int:
        """Reserve ``n`` sequence numbers; returns the first."""
        seq0 = self.issued
        self.issued += n
        while self.issued > len(self.counts):
            self.counts = np.concatenate(
                [self.counts, np.zeros_like(self.counts)])
        return seq0

    def record(self, out: Sequence[Tuple[int, int, bytes]]) -> np.ndarray:
        """Account one drained batch; returns its valid sequence numbers
        (int64) so the caller can time them."""
        n = len(out)
        if not n:
            return np.empty(0, dtype=np.int64)
        _vris, ifaces, frames = zip(*out)
        # Only TTL..sequence number (28 bytes) of each frame is read here;
        # whole frames are compared for the kept samples, later.
        cut = b"".join([f[TTL_OFF:SEQ_OFF + 8] for f in frames])
        width = SEQ_OFF + 8 - TTL_OFF
        if len(cut) == n * width:
            arr = np.frombuffer(cut, dtype=np.uint8).reshape(n, width)
            ttls = arr[:, 0]
            seqs = np.ascontiguousarray(
                arr[:, SEQ_OFF - TTL_OFF:]).view(">u8").ravel()
        else:       # a truncated frame somewhere: one by one
            seqs = np.array(
                [int.from_bytes(f[SEQ_OFF:SEQ_OFF + 8], "big")
                 if len(f) >= SEQ_OFF + 8 else self.issued
                 for f in frames], dtype=np.uint64)
            ttls = np.array([f[TTL_OFF] if len(f) > TTL_OFF else 0
                             for f in frames], dtype=np.uint8)
        self.returned += n
        known = seqs < self.issued
        n_known = int(known.sum())
        ifaces = np.array(ifaces, dtype=np.int64)
        if n_known < n:
            self.bad_seq += n - n_known
            seqs, ttls, ifaces = seqs[known], ttls[known], ifaces[known]
            frames = [f for f, ok in zip(frames, known.tolist()) if ok]
        seqs = seqs.astype(np.int64)
        if n_known < 2 or (seqs[1:] > seqs[:-1]).all():
            self.counts[seqs] += 1      # strictly increasing: no repeats
        else:
            np.add.at(self.counts, seqs, 1)
        pool = self.pool
        expect = pool.expect_iface[pool.flow_cycle[seqs % pool.cycle]]
        # A frame that should have been dropped shows up in finalize() as
        # "unexpected"; only routable frames can have a *wrong* interface.
        self.wrong_iface += int(((expect >= 0) & (expect != ifaces)).sum())
        self.bad_ttl += int((ttls != TTL0 - 1).sum())
        for row in np.flatnonzero((seqs % self.sample_every == 0)
                                  & (expect >= 0)).tolist():
            self.sampled += 1
            if not pool.intact(int(seqs[row]), frames[row]):
                self.corrupt += 1
        return seqs

    def finalize(self) -> Dict[str, int]:
        """Failure counts by reason once nothing more can come back."""
        lost = dup = unexpected = 0
        step = 1 << 20
        for lo in range(0, self.issued, step):
            hi = min(self.issued, lo + step)
            counts = self.counts[lo:hi]
            must = self.pool.returns(np.arange(lo, hi))
            lost += int(((counts == 0) & must).sum())
            unexpected += int(((counts > 0) & ~must).sum())
            dup += int((counts[counts > 1] - 1).sum())
        reasons = {"lost": lost, "duplicate": dup, "unexpected": unexpected,
                   "bad_seq": self.bad_seq, "wrong_iface": self.wrong_iface,
                   "bad_ttl": self.bad_ttl, "corrupt": self.corrupt}
        reasons["failed"] = min(max(self.issued, 1), sum(reasons.values()))
        return reasons


# ---------------------------------------------------------------------------
# Re-offer backlog
# ---------------------------------------------------------------------------

class Backlog:
    """FIFO of refused frames that keep their due time.

    ``offer`` hands the oldest entries to ``send`` (which returns how
    many of the list it accepted, as ``dispatch_many`` does), stops at
    the first refusal, and expires entries older than ``BACKLOG_CAP_S``
    — those are never sent and the ledger later counts them as lost.
    """

    def __init__(self) -> None:
        self._q: collections.deque = collections.deque()
        self.attempts = 0      # frames handed to send(), re-offers included
        self.refused = 0       # frames send() did not take
        self.expired = 0

    def __bool__(self) -> bool:
        return bool(self._q)

    def push(self, due: float, frames: List[bytes]) -> None:
        self._q.append([due, frames])

    def offer(self, now: float, send: Callable[[List[bytes]], int]) -> int:
        sent = 0
        q = self._q
        while q:
            due, frames = q[0]
            if now - due > BACKLOG_CAP_S:
                self.expired += len(frames)
                q.popleft()
                continue
            self.attempts += len(frames)
            took = send(frames)
            sent += took
            if took < len(frames):
                self.refused += len(frames) - took
                q[0][1] = frames[took:]
                break
            q.popleft()
        return sent


# ---------------------------------------------------------------------------
# Windowed summaries
# ---------------------------------------------------------------------------

class Windows:
    """Per-window latency percentiles and counts, then the median across
    windows.  Samples are filed by a time key (due time for the open
    loop, drain time for counts); windows are ``[t0 + k*width, ...)``."""

    def __init__(self, t0: float, width: float, n_windows: int) -> None:
        self.t0, self.width, self.n = t0, width, n_windows
        self._keys: List[np.ndarray] = []
        self._vals: List[np.ndarray] = []
        self.counts = np.zeros(n_windows, dtype=np.int64)

    def index(self, t: float) -> int:
        return int((t - self.t0) // self.width)

    def count(self, t: float, n: int) -> None:
        k = self.index(t)
        if 0 <= k < self.n:
            self.counts[k] += n

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        # Stored as float32 offsets from t0 (2-us steps over a 30-s run):
        # a closed loop files a million samples and they should not show
        # up in peak_rss_mb.
        self._keys.append((np.asarray(keys, dtype=np.float64)
                           - self.t0).astype(np.float32))
        self._vals.append(np.asarray(values, dtype=np.float32))

    def rate_per_s(self) -> List[float]:
        return (self.counts / self.width).tolist()

    def latency(self, qs: Sequence[float] = (50, 90, 99)
                ) -> Tuple[Dict[float, float], int, int]:
        """``({q: median over windows of the window's q-th percentile},
        samples used, windows used)``."""
        if not self._keys:
            return {q: 0.0 for q in qs}, 0, 0
        keys = np.concatenate(self._keys)
        vals = np.concatenate(self._vals)
        idx = np.floor(keys / np.float32(self.width)).astype(np.int32)
        per_q: Dict[float, List[float]] = {q: [] for q in qs}
        used = windows = 0
        for k in range(self.n):
            sel = vals[idx == k]
            if len(sel) < MIN_WINDOW_SAMPLES:
                continue
            windows += 1
            used += len(sel)
            for q, v in zip(qs, np.percentile(sel, qs)):
                per_q[q].append(float(v))
        return ({q: statistics.median(v) if v else 0.0
                 for q, v in per_q.items()}, used, windows)


# ---------------------------------------------------------------------------
# DES checks
# ---------------------------------------------------------------------------

def staircase_failures(rows: Sequence[Sequence[float]]) -> int:
    """exp2c rows ``(t_rel, offered_kfps, cores)`` whose allocation is
    more than one core off ``ceil(rate / 60 K)``.  Rows after the ramp
    ends (offered 0) only show the allocator's floor and are skipped."""
    bad = 0
    for _t, offered, cores in rows:
        if offered > 0 and abs(cores - math.ceil(offered / PER_CORE_KFPS)) > 1:
            bad += 1
    return bad


def result_digest(result_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(result_dict, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Spread and verdicts (--compare)
# ---------------------------------------------------------------------------

def iqr(values: Sequence[float]) -> float:
    """Distance between the first and the third quartile; 0 for fewer
    than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1)


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    med = statistics.median(values)
    spread = iqr(values)
    return spread / abs(med) if med else (float("inf") if spread else 0.0)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, floor: float = 0.0
            ) -> Tuple[str, float, float, float]:
    """Judge side B against base A for one metric on one workload.

    B may be worse than A by ``bound`` as a share of A's median, or by
    ``floor`` in the metric's own unit if that is more.  Returns
    ``(verdict, median_a, median_b, b/a)``: ``worse`` when B's median is
    worse than A's by more than that, ``better`` when it wins by more,
    ``same`` otherwise — and ``unresolved`` when either side's own
    inter-quartile spread exceeds it, unless every run of B beats every
    run of A.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    ratio = mb / ma if ma else float("inf")
    allowed = max(bound * abs(ma), floor)
    worse_by = (mb - ma) if better == "lower" else (ma - mb)
    if max(iqr(a), iqr(b)) > allowed:
        clean_win = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return ("better" if clean_win else "unresolved"), ma, mb, ratio
    if worse_by > allowed:
        return "worse", ma, mb, ratio
    if worse_by < -allowed:
        return "better", ma, mb, ratio
    return "same", ma, mb, ratio
