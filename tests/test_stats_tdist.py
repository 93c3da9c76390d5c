"""Cached Student-t quantiles against scipy ground truth."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.stats.tdist import t_quantile, t_quantiles


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.2])
@pytest.mark.parametrize("df", [1, 2, 5, 29, 100, 5000])
def test_matches_scipy(alpha, df):
    # Exact: the table is built with scipy.special.stdtrit, which is what
    # scipy.stats.t.ppf evaluates, so every entry matches bit for bit.
    assert t_quantile(alpha, df) == sps.t.ppf(1 - alpha / 2, df)


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.2])
def test_default_table_matches_scipy(alpha):
    dfs = np.arange(1, 4096)  # the whole table built on first use
    expected = sps.t.ppf(1 - alpha / 2, dfs)
    assert t_quantiles(alpha, 4095)[1:].tobytes() == expected.tobytes()


def test_vector_view_is_consistent_with_scalar():
    table = t_quantiles(0.05, 50)
    for df in (1, 10, 50):
        assert table[df] == t_quantile(0.05, df)


def test_vector_index_zero_is_nan():
    assert np.isnan(t_quantiles(0.05, 10)[0])


def test_vector_is_read_only():
    table = t_quantiles(0.05, 10)
    with pytest.raises(ValueError):
        table[1] = 0.0


def test_cache_grows_on_demand():
    small = t_quantiles(0.123, 10)
    large = t_quantiles(0.123, 20_000)
    assert len(large) == 20_001
    assert large[5] == pytest.approx(small[5])


def test_quantiles_decrease_with_df():
    table = t_quantiles(0.05, 200)
    assert np.all(np.diff(table[1:]) <= 1e-12)


def test_quantile_increases_with_confidence():
    assert t_quantile(0.01, 10) > t_quantile(0.05, 10)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
def test_invalid_alpha_rejected(alpha):
    with pytest.raises(ValueError):
        t_quantile(alpha, 5)
    with pytest.raises(ValueError):
        t_quantiles(alpha, 5)


def test_invalid_df_rejected():
    with pytest.raises(ValueError):
        t_quantile(0.05, 0)
    with pytest.raises(ValueError):
        t_quantiles(0.05, 0)
