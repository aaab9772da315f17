import pytest

from sosbench import stats


def test_no_tail_without_ten_samples_beyond():
    assert stats.tail(list(range(10))) is None
    assert stats.tail([]) is None


def test_tail_leaves_exactly_ten_samples_above():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    values = values[::2] + values[1::2]
    percentile, value = stats.tail(values)
    assert value == 90.0
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(90.0)


def test_tail_of_eleven_samples_is_the_smallest():
    percentile, value = stats.tail([5.0] + [float(v) for v in range(10, 20)])
    assert value == 5.0
    assert percentile == pytest.approx(100.0 / 11)


def test_summary_reports_count_and_omits_missing_tail():
    assert stats.summary([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
    row = stats.summary([float(v) for v in range(20)])
    assert row["n"] == 20 and row["tail"] == 9.0
