"""Property suite for :class:`repro.metrics.FreshnessReport`.

Hypothesis drives the invariants the streaming subsystem leans on:
lags are never negative (a batch cannot train before its events
happened), delaying the landing can only make every percentile worse,
the percentile views are ordered (p50 <= p99 <= max), and merge is
associative and order-insensitive — so per-round reports fold into
per-job and tier-wide views in any grouping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import FreshnessReport

# Modeled event times and clocks: finite floats in a realistic range.
_times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
_event_lists = st.lists(_times, min_size=0, max_size=40)


@settings(max_examples=60, deadline=None)
@given(event_times=_event_lists, trained_at=_times)
def test_lags_are_never_negative(event_times, trained_at):
    """Even a trained_at earlier than every event clamps to zero."""
    report = FreshnessReport.from_batches(event_times, trained_at)
    assert report.batches == len(event_times)
    assert all(lag >= 0.0 for lag in report.lags)
    assert report.p50_lag_seconds >= 0.0
    assert report.p99_lag_seconds >= 0.0
    assert report.max_lag_seconds >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    event_times=st.lists(_times, min_size=1, max_size=40),
    trained_at=_times,
    delay=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_delayed_landing_is_monotone(event_times, trained_at, delay):
    """Training the same batches later never improves any percentile."""
    now = FreshnessReport.from_batches(event_times, trained_at)
    later = FreshnessReport.from_batches(event_times, trained_at + delay)
    assert later.p50_lag_seconds >= now.p50_lag_seconds
    assert later.p99_lag_seconds >= now.p99_lag_seconds
    assert later.max_lag_seconds >= now.max_lag_seconds


@settings(max_examples=60, deadline=None)
@given(event_times=_event_lists, trained_at=_times)
def test_percentiles_are_ordered(event_times, trained_at):
    report = FreshnessReport.from_batches(event_times, trained_at)
    assert (
        report.p50_lag_seconds
        <= report.p99_lag_seconds
        <= report.max_lag_seconds
    )


@settings(max_examples=60, deadline=None)
@given(a=_event_lists, b=_event_lists, c=_event_lists)
def test_merge_is_associative(a, b, c):
    """(a + b) + c == a + (b + c), lag for lag."""
    ra, rb, rc = (FreshnessReport(lags=list(x)) for x in (a, b, c))
    fold = FreshnessReport.fold
    left = fold([fold([ra, rb]), rc])
    right = fold([ra, fold([rb, rc])])
    assert left.lags == right.lags
    assert left.as_dict() == right.as_dict()
    # fold() never mutates its inputs
    assert ra.lags == list(a) and rb.lags == list(b) and rc.lags == list(c)


@settings(max_examples=60, deadline=None)
@given(a=_event_lists, b=_event_lists)
def test_merge_order_cannot_change_percentiles(a, b):
    """Percentiles are multiset views: a+b and b+a agree on every one."""
    ra, rb = FreshnessReport(lags=list(a)), FreshnessReport(lags=list(b))
    ab = FreshnessReport.fold([ra, rb])
    ba = FreshnessReport.fold([rb, ra])
    assert ab.p50_lag_seconds == ba.p50_lag_seconds
    assert ab.p99_lag_seconds == ba.p99_lag_seconds
    assert ab.max_lag_seconds == ba.max_lag_seconds
    assert ab.batches == ba.batches


def test_in_place_merge_matches_functional_merge():
    left = FreshnessReport(lags=[1.0, 3.0])
    right = FreshnessReport(lags=[2.0])
    functional = FreshnessReport.fold([left, right])
    left.merge(right)
    assert left.lags == functional.lags == [1.0, 3.0, 2.0]


def test_empty_report_percentiles_are_zero():
    empty = FreshnessReport()
    assert empty.batches == 0
    assert empty.p50_lag_seconds == 0.0
    assert empty.p99_lag_seconds == 0.0
    assert empty.max_lag_seconds == 0.0
