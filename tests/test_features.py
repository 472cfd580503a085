import dataclasses
import warnings

import numpy as np
import pytest

from agentcast.errors import InsufficientDataError
from agentcast.features import (
    acf,
    compute_features,
    decompose,
    kpss_statistic,
    seasonal_strength,
    trend_strength,
)

from conftest import make_panel


class TestDecompose:
    def test_linear_series_has_no_seasonality(self):
        d = decompose(np.arange(1.0, 25.0), 12)
        assert np.abs(d.seasonal).max() < 1e-9
        assert np.abs(d.remainder[6:18]).max() < 1e-9

    def test_constant_series(self):
        d = decompose(np.full(30, 4.5), 6)
        assert np.allclose(d.trend, 4.5)
        assert np.abs(d.seasonal).max() < 1e-12
        assert np.abs(d.remainder).max() < 1e-12

    def test_square_wave_recovered(self):
        y = np.tile([1.0, 1.0, -1.0, -1.0], 6)
        d = decompose(y, 4)
        assert np.abs(d.trend[2:-2]).max() < 1e-9
        assert np.allclose(d.seasonal, y)
        assert np.abs(d.remainder[2:-2]).max() < 1e-9

    def test_reconstruction_exact_everywhere(self):
        rng = np.random.default_rng(3)
        for m in (1, 4, 7, 12):
            n = max(3, 2 * m) + int(rng.integers(0, 40))
            y = rng.standard_normal(n) * 10 + rng.uniform(-100, 100)
            d = decompose(y, m)
            assert np.abs(y - (d.trend + d.seasonal + d.remainder)).max() < 1e-9

    def test_seasonal_sums_to_zero_over_period(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(60) + np.tile(np.arange(5.0), 12)
        d = decompose(y, 5)
        for start in range(0, 60, 5):
            assert abs(d.seasonal[start : start + 5].sum()) < 1e-9

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            decompose(np.arange(23.0), 12)
        with pytest.raises(InsufficientDataError):
            decompose(np.array([1.0, 2.0]), 1)


class TestStrengths:
    def test_noiseless_linear_trend(self):
        assert trend_strength(decompose(np.arange(144.0), 12)) >= 0.99
        assert trend_strength(decompose(np.arange(500.0), 1)) >= 0.99

    def test_constant_series_degenerate(self):
        d = decompose(np.full(40, 2.0), 4)
        assert trend_strength(d) == 0.0
        assert seasonal_strength(d) == 0.0

    def test_white_noise_has_low_trend_strength(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = decompose(rng.standard_normal(500), 1)
            if trend_strength(d) < 0.2:
                hits += 1
        assert hits >= 95

    def test_pure_sinusoid_seasonal_strength(self):
        t = np.arange(120)
        d = decompose(np.sin(2 * np.pi * t / 12), 12)
        assert seasonal_strength(d) >= 0.99

    def test_white_noise_has_low_seasonal_strength(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = decompose(rng.standard_normal(600), 12)
            if seasonal_strength(d) < 0.3:
                hits += 1
        assert hits >= 95

    def test_m1_seasonal_strength_is_zero(self):
        d = decompose(np.sin(np.arange(50.0)), 1)
        assert seasonal_strength(d) == 0.0

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(96) + np.tile(np.arange(12.0), 8)
        base_t = trend_strength(decompose(y, 12))
        base_s = seasonal_strength(decompose(y, 12))
        for shift, scale in [(100.0, 1.0), (0.0, 7.5), (-3.0, 0.01)]:
            d = decompose(y * scale + shift, 12)
            assert trend_strength(d) == pytest.approx(base_t, abs=1e-9)
            assert seasonal_strength(d) == pytest.approx(base_s, abs=1e-9)


class TestAcf:
    def test_hand_computed_values(self):
        assert acf([1, 2, 3, 4, 5], 1) == pytest.approx(0.4)
        assert acf([1, -1, 1, -1], 1) == pytest.approx(-0.75)

    def test_constant_series(self):
        assert acf([3.0] * 10, 1) == 0.0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            acf([1.0, 2.0], 2)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y = rng.standard_normal(int(rng.integers(10, 80)))
            lag = int(rng.integers(1, 5))
            assert acf(y, lag) == pytest.approx(acf(y[::-1], lag), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = rng.standard_normal(30) * rng.uniform(0.1, 100)
            v = acf(y, int(rng.integers(1, 10)))
            assert -1.0 <= v <= 1.0


class TestKpss:
    def test_constant_series(self):
        assert kpss_statistic([5.0] * 20) == (0.0, True)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            kpss_statistic(np.arange(9.0))

    def test_white_noise_is_level_stationary(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if kpss_statistic(rng.standard_normal(500))[1]:
                hits += 1
        assert hits >= 95

    def test_random_walk_is_not_stationary(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.standard_normal(500))
            if not kpss_statistic(walk)[1]:
                hits += 1
        assert hits >= 95

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(200)
        stat, _ = kpss_statistic(y)
        assert kpss_statistic(y + 123.0)[0] == pytest.approx(stat, rel=1e-9)
        assert kpss_statistic(y * 55.0)[0] == pytest.approx(stat, rel=1e-9)


class TestComputeFeatures:
    def test_air_passengers(self, air_passengers):
        report = compute_features(air_passengers)
        row = report["AirPassengers"]
        assert row.n == 144 and row.season_length == 12
        assert row.trend_strength > 0.95
        # additive decomposition on this multiplicative-seasonality series;
        # well above the 0.6 the planner rule needs
        assert row.seasonal_strength == pytest.approx(0.76436, abs=1e-4)
        assert row.seasonal_strength > 0.6
        assert row.intermittency == 0.0
        assert row.kpss_level_stationary is False
        assert row.acf1 > 0.9

    def test_all_zero_series(self):
        panel = make_panel({"z": np.zeros(24)})
        row = compute_features(panel)["z"]
        assert row.intermittency == 1.0
        assert row.trend_strength == 0.0
        assert row.seasonal_strength == 0.0
        assert row.coefficient_of_variation is None

    def test_short_series_partial_features(self):
        panel = make_panel({"s": [1.0, 2.0, 3.0, 4.0, 5.0]})
        row = compute_features(panel)["s"]
        assert row.trend_strength is None
        assert row.seasonal_strength is None
        assert row.kpss_stat is None
        assert row.acf1 is not None
        assert row.intermittency == 0.0

    def test_empty_panel(self):
        from agentcast.panel import SeriesPanel

        report = compute_features(SeriesPanel({}, None))
        assert len(report) == 0

    def test_csv_emission(self, air_passengers):
        report = compute_features(air_passengers)
        text = report.to_csv()
        header, row = text.strip().split("\n")
        assert header.startswith("key,n,season_length,trend_strength")
        assert row.startswith("AirPassengers,144,12,")

    def test_mixed_lengths_equal_one_series_panels_bitwise(self):
        # blocks of several rows per length, at the edges of each feature's
        # precondition (KPSS 10, decomposition 2m), with constant and
        # all-zero rows in every block; at 150 points a phase holds more
        # than the 8 points of a pairwise-summation block, and 64 series
        # fill more than one block
        def bits(row):
            return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row)]

        rng = np.random.default_rng(21)
        values = {}
        for n in (1, 2, 3, 9, 10, 23, 24, 25, 60, 150):
            values[f"a{n:02d}"] = rng.normal(50.0, 10.0, n)
            values[f"b{n:02d}"] = np.round(rng.normal(0.0, 3.0, n), 1)
            values[f"c{n:02d}"] = np.full(n, 7.25)
            values[f"z{n:02d}"] = np.zeros(n)
        values.update({f"w{i:02d}": rng.normal(0.0, 1.0, 150) for i in range(60)})
        panel = make_panel(values)
        assert panel.season_length == 12
        report = compute_features(panel)
        for key, series in values.items():
            alone = compute_features(make_panel({key: series}))[key]
            assert bits(report[key]) == bits(alone)

    def test_overflowing_statistics_are_absent_without_warnings(self, air_passengers):
        panel = make_panel({"s": air_passengers["AirPassengers"].values * 1e300})
        # finite values whose sum overflows: the mean is absent too
        huge = make_panel({"huge": [1.5e308] * 24})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = compute_features(panel)["s"]
            huge_row = compute_features(huge)["huge"]
        assert row.trend_strength is None and row.seasonal_strength is None
        assert row.acf1 is None and row.coefficient_of_variation is None
        assert row.kpss_stat is None and row.kpss_level_stationary is None
        assert row.intermittency == 0.0 and row.mean == pytest.approx(2.80298611111e302)
        assert huge_row.mean is None and huge_row.coefficient_of_variation is None
        assert huge_row.intermittency == 0.0
        assert compute_features(huge).to_csv().splitlines()[1].endswith(",0,,")
