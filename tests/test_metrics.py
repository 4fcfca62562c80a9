"""Tests for fairness indexes, summaries, and the achievable search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import (achievable_throughput, jain_index,
                           max_min_fairness, summarize)

_rates = st.lists(st.floats(0.0, 1e9), min_size=1, max_size=40)


# -- Jain ---------------------------------------------------------------------

def test_jain_equal_allocation_is_one():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_single_hog_is_one_over_n():
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)


@given(_rates)
@example([0.0, 5e-324])   # a mean that underflows to zero
@settings(max_examples=150, deadline=None)
def test_jain_bounds_property(rates):
    j = jain_index(rates)
    assert 1.0 / len(rates) - 1e-9 <= j <= 1.0 + 1e-9


@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
       st.floats(0.1, 1000.0))
@settings(max_examples=80, deadline=None)
def test_jain_scale_invariant(rates, k):
    assert jain_index(rates) == pytest.approx(
        jain_index([r * k for r in rates]), rel=1e-6)


def test_jain_empty_rejected():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([-1.0])


# -- max-min ---------------------------------------------------------------------

def test_max_min_equal_is_one():
    assert max_min_fairness([3, 3, 3]) == pytest.approx(1.0)


def test_max_min_starved_flow_is_zero():
    assert max_min_fairness([1, 1, 0]) == 0.0


@given(_rates)
@settings(max_examples=150, deadline=None)
def test_max_min_bounds_property(rates):
    m = max_min_fairness(rates)
    assert 0.0 <= m <= 1.0 + 1e-9


@given(_rates)
@settings(max_examples=80, deadline=None)
def test_max_min_never_exceeds_jain_style_perfection(rates):
    # max-min == 1 iff all values equal (when non-degenerate).
    m = max_min_fairness(rates)
    if m == pytest.approx(1.0) and sum(rates) > 0:
        assert max(rates) == pytest.approx(min(rates), rel=1e-6)


# -- summaries --------------------------------------------------------------------

def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.p50 == pytest.approx(2.5)
    assert "mean" in str(s)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_single_sample_has_zero_std():
    assert summarize([5.0]).std == 0.0


# -- achievable-throughput search -----------------------------------------------------

def _capacity_trial(capacity):
    """A synthetic DUT: delivers min(offered, capacity)."""
    def trial(offered):
        return offered, min(offered, capacity)
    return trial


def test_search_finds_capacity():
    result = achievable_throughput(_capacity_trial(300e3), lo=10e3,
                                   hi=1e6, rel_tol=0.02, max_probes=20)
    # The criterion allows 2% loss, so the answer can sit slightly
    # above the hard capacity knee.
    assert result.achievable_fps == pytest.approx(300e3, rel=0.05)


def test_search_hi_achievable_short_circuits():
    result = achievable_throughput(_capacity_trial(1e9), lo=1e3, hi=500e3)
    assert result.achievable_fps == 500e3
    assert len(result.probes) == 2


def test_search_lo_unachievable_reports_delivery():
    result = achievable_throughput(_capacity_trial(5e3), lo=100e3, hi=1e6)
    assert result.achievable_fps == pytest.approx(5e3)


def test_search_validates_bounds():
    with pytest.raises(ValueError):
        achievable_throughput(_capacity_trial(1), lo=10, hi=5)
    with pytest.raises(ValueError):
        achievable_throughput(_capacity_trial(1), lo=1, hi=2, rel_tol=2.0)


def test_search_probe_records():
    result = achievable_throughput(_capacity_trial(300e3), lo=10e3, hi=1e6)
    assert all(len(p) == 3 for p in result.probes)
    offered = [p[0] for p in result.probes]
    assert offered[0] == 10e3 and offered[1] == 1e6
