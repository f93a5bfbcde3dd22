import statistics

import pytest

from perfbench import stats


def test_p90_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(99) == 1000
    assert stats.min_samples_for(75) == 40


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="at least 100 samples"):
        stats.tail_percentile(range(99), 90)


def test_tail_percentile_with_enough_samples():
    data = [float(x) for x in range(100)]
    expected = statistics.quantiles(data, n=10, method="inclusive")[8]
    assert stats.tail_percentile(data, 90) == pytest.approx(expected)
    # Ten samples (90..99) lie beyond it.
    assert sum(x > stats.tail_percentile(data, 90) for x in data) == 10


def test_tail_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        stats.tail_percentile(range(1000), 100)

