"""The bookkeeping, on synthetic frames and synthetic timestamps."""

import numpy as np
import pytest

from accounting import (Backlog, Ledger, Windows, result_digest,
                        spread_share, staircase_failures, verdict)
from loadgen import WORKLOADS, make_pool


def router(pool, seqs):
    """What a correct router drains for ``seqs``: should-drop frames never
    come back, the rest carry the oracle's iface and the rewritten bytes."""
    out = []
    for seq in seqs:
        iface, frame = pool.expected(seq)
        if iface >= 0:
            out.append((1, iface, frame))
    return out


@pytest.fixture
def paced():
    pool = make_pool(WORKLOADS["paced_mix"], 1)
    ledger = Ledger(pool, sample_every=4)
    ledger.issue(4096)
    return pool, ledger


def test_clean_run_fails_nothing(paced):
    pool, ledger = paced
    for lo in range(0, 4096, 16):
        ledger.record(router(pool, range(lo, lo + 16)))
    reasons = ledger.finalize()
    assert reasons["failed"] == 0
    assert ledger.sampled >= 1000      # 1 in 4 of what came back
    assert ledger.returned == int(pool.returns(np.arange(4096)).sum())


def test_corrupted_payload_raises_failed(paced):
    pool, ledger = paced
    out = router(pool, range(0, 4096))
    # Flip a payload byte of a frame the sampler keeps (seq % 4 == 0).
    k = next(i for i, (_v, _if, f) in enumerate(out)
             if int.from_bytes(f[42:50], "big") % 4 == 0)
    frame = bytearray(out[k][2])
    frame[60] ^= 0x01
    out[k] = (1, out[k][1], bytes(frame))
    ledger.record(out)
    reasons = ledger.finalize()
    assert reasons["corrupt"] == 1 and reasons["failed"] == 1


def test_bad_header_checksum_raises_failed(paced):
    pool, ledger = paced
    out = router(pool, range(0, 64))
    k = next(i for i, (_v, _if, f) in enumerate(out)
             if int.from_bytes(f[42:50], "big") % 4 == 0)
    frame = bytearray(out[k][2])
    frame[25] ^= 0x10              # checksum low byte
    out[k] = (1, out[k][1], bytes(frame))
    ledger.record(out)
    assert ledger.finalize()["corrupt"] == 1


def test_wrong_iface_raises_failed(paced):
    pool, ledger = paced
    out = router(pool, range(0, 4096))
    out[7] = (1, out[7][1] + 1, out[7][2])
    ledger.record(out)
    reasons = ledger.finalize()
    assert reasons["wrong_iface"] == 1 and reasons["failed"] == 1


def test_returned_should_drop_frame_raises_failed(paced):
    pool, ledger = paced
    dropped = [s for s in range(4096) if not pool.returns(np.array([s]))[0]]
    assert dropped, "seed 1 has should-drop frames in the first 4096"
    out = router(pool, range(0, 4096))
    # An echoing router: hands the frame back untouched on some iface.
    out.append((1, 0, pool.burst(dropped[0], 1)[0]))
    ledger.record(out)
    reasons = ledger.finalize()
    assert reasons["unexpected"] == 1 and reasons["failed"] >= 1


def test_ttl_not_decremented_raises_failed():
    pool = make_pool(WORKLOADS["fwd_small"], 1)
    ledger = Ledger(pool)
    seq0 = ledger.issue(256)
    echoed = [(1, pool.expected(seq0 + k)[0], f)
              for k, f in enumerate(pool.burst(seq0, 256))]
    ledger.record(echoed)
    reasons = ledger.finalize()
    assert reasons["bad_ttl"] == 256 and reasons["failed"] >= 256


def test_lost_duplicate_and_unknown_frames_are_counted():
    pool = make_pool(WORKLOADS["fwd_small"], 1)
    ledger = Ledger(pool)
    ledger.issue(512)
    out = router(pool, range(0, 512))
    del out[100]                                   # lost
    out.append(out[5])                             # duplicate
    stray = bytearray(out[0][2])
    stray[42:50] = (10 ** 9).to_bytes(8, "big")    # never issued
    out.append((1, 0, bytes(stray)))
    out.append((1, 0, b"\x00" * 20))               # truncated
    ledger.record(out)
    reasons = ledger.finalize()
    assert (reasons["lost"], reasons["duplicate"], reasons["bad_seq"]) \
        == (1, 1, 2)


# -- backlog -----------------------------------------------------------------

def test_backlog_reoffers_in_order_and_keeps_due_times():
    backlog = Backlog()
    backlog.push(10.0, ["a", "b", "c", "d"])
    backlog.push(10.1, ["e", "f"])
    taken = []

    def send_two(frames):
        taken.extend(frames[:2])
        return min(2, len(frames))

    assert backlog.offer(10.2, send_two) == 2          # a b, then refused
    assert (backlog.refused, backlog.attempts) == (2, 4)
    # The rest of burst 1 goes first; fully taken, so burst 2 follows in
    # the same pass.
    assert backlog.offer(10.3, send_two) == 4
    assert taken == list("abcdef") and not backlog
    assert backlog.expired == 0


def test_backlog_expires_after_the_cap_and_never_sends_those():
    backlog = Backlog()
    backlog.push(5.0, ["old1", "old2"])
    backlog.push(5.9, ["young"])
    sent = []
    assert backlog.offer(6.5, lambda fr: sent.extend(fr) or len(fr)) == 1
    assert sent == ["young"] and backlog.expired == 2


def test_backlog_refusal_stops_the_pass():
    backlog = Backlog()
    backlog.push(1.0, ["a"])
    backlog.push(1.0, ["b"])
    calls = []
    backlog.offer(1.1, lambda fr: calls.append(fr) or 0)
    assert calls == [["a"]]          # "b" must not overtake "a"


# -- windows -----------------------------------------------------------------

def test_latency_is_filed_by_due_time_and_medianed_across_windows():
    w = Windows(t0=100.0, width=1.0, n_windows=3)
    # Window 0: flat 100 us.  Window 1: a stall — 200 us for most, 10 ms
    # for the burst that was due during it.  Window 2: 300 us.
    for k, lat in enumerate((100.0, 200.0, 300.0)):
        due = 100.0 + k + np.linspace(0.0, 0.99, 50)
        w.add(due, np.full(50, lat))
    w.add(np.array([101.5] * 10), np.full(10, 10_000.0))
    # A sample due before t0 (warm-up) and one after the end are ignored.
    w.add(np.array([99.5, 103.2]), np.array([1e6, 1e6]))
    q, used, windows = w.latency((50, 90))
    assert (used, windows) == (160, 3)
    assert q[50] == 200.0                    # median of per-window medians
    assert q[90] == pytest.approx(300.0)     # window 1's p90 is the stall...
    # ...so the median across windows is window 2's 300, not 10 ms.


def test_windows_with_too_few_samples_are_left_out():
    w = Windows(t0=0.0, width=1.0, n_windows=2)
    w.add(np.linspace(0, 0.9, 30), np.full(30, 50.0))
    w.add(np.array([1.5]), np.array([9999.0]))
    q, used, windows = w.latency((50,))
    assert (q[50], used, windows) == (50.0, 30, 1)


def test_counts_per_window_give_rates():
    w = Windows(t0=10.0, width=0.5, n_windows=4)
    for t, n in ((10.1, 100), (10.4, 100), (10.6, 50), (11.9, 7), (12.1, 9)):
        w.count(t, n)
    assert w.rate_per_s() == [400.0, 100.0, 0.0, 14.0]


# -- DES checks, spreads, verdicts ---------------------------------------------

def test_staircase():
    good = [(0.2, 60.0, 1), (0.5, 120.0, 3), (0.8, 360.0, 7), (3.5, 0.0, 2)]
    assert staircase_failures(good) == 0
    assert staircase_failures(good + [(0.9, 240.0, 7)]) == 1
    assert staircase_failures([(0.1, 300.0, 1)]) == 1


def test_digest_moves_with_any_cell():
    a = {"rows": [[0.2, 60.0, 1]], "columns": ["t", "k", "c"]}
    b = {"rows": [[0.2, 60.0, 2]], "columns": ["t", "k", "c"]}
    assert result_digest(a) == result_digest(dict(a))
    assert result_digest(a) != result_digest(b)


def test_spread_share_is_iqr_over_median():
    values = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    import statistics
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert spread_share(values) == pytest.approx((q3 - q1) / 104.5)
    assert spread_share([5.0]) == 0.0


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [103.0, 104, 102, 103.5, 102.5], "higher", 0.10)[0] \
        == "same"
    assert verdict(base, [80.0, 81, 79, 80.5, 79.5], "higher", 0.10)[0] \
        == "worse"
    assert verdict(base, [80.0, 81, 79, 80.5, 79.5], "lower", 0.10)[0] \
        == "better"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(noisy, base, "higher", 0.10)[0] == "unresolved"
    # Noisy, but every run of B beats every run of A.
    assert verdict(noisy, [150.0, 190, 160, 170, 200], "higher", 0.10)[0] \
        == "better"
    word, ma, mb, ratio = verdict(base, [110.0] * 5, "lower", 0.25)
    assert (word, ma, mb) == ("same", 100.0, 110.0) and ratio == 1.1


def test_verdict_floor_allows_a_small_absolute_worsening():
    # setup_s: 25 % of 0.35 s is 0.09 s, but 0.25 s is always allowed.
    a = [0.35, 0.36, 0.34, 0.35, 0.35]
    b = [0.55, 0.56, 0.54, 0.55, 0.55]
    assert verdict(a, b, "lower", 0.25)[0] == "worse"
    assert verdict(a, b, "lower", 0.25, floor=0.25)[0] == "same"
    slow = [0.65, 0.66, 0.64, 0.65, 0.65]
    assert verdict(a, slow, "lower", 0.25, floor=0.25)[0] == "worse"
    # The floor also decides what spread is too wide to judge.
    wide = [0.30, 0.45, 0.35, 0.50, 0.32]
    assert verdict(wide, a, "lower", 0.25)[0] == "unresolved"
    assert verdict(wide, a, "lower", 0.25, floor=0.25)[0] == "same"
