"""Bar ingestion, per-session returns and the statistics battery."""
import math
import re
import warnings

import numpy as np
import pytest

from wismc.errors import (
    AlignmentError,
    DegenerateTableError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    ParseError,
    UndefinedStatisticError,
)
from wismc.market_data import (
    align,
    autocorrelation,
    compute_returns,
    contingency,
    cross_correlation_battery,
    descriptive_stats,
    jarque_bera,
    load_bars,
    pearson,
    run_battery,
    value_wait_pairs,
)


def _write(tmp_path, rows, header="timestamp,price,volume"):
    p = tmp_path / "bars.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return p


DAY = 20000 * 1440  # an arbitrary trading day, minutes since epoch


class TestLoadBars:
    def test_three_row_parse(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", f"{DAY + 541},10.1,6",
                              f"{DAY + 542},10.2,7"])
        bars = load_bars(p)
        assert len(bars) == 3
        assert bars.prices.tolist() == [10.0, 10.1, 10.2]
        assert bars.session_starts.size == 1

    @pytest.mark.parametrize("stamps", [[f"{DAY + 540}", f"{DAY + 541}"],
                                        ["2016-03-01T09:00", "2016-03-01T09:01"]])
    def test_byte_order_mark_dropped(self, tmp_path, stamps):
        # read by the C reader and, with calendar stamps, row by row
        p = _write(tmp_path, [f"{stamps[0]},10.0,5", f"{stamps[1]},10.1,6"])
        want = load_bars(p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        got = load_bars(p)
        for field in ("minutes", "prices", "volumes", "session_starts"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_calendar_timestamps(self, tmp_path):
        p = _write(tmp_path, ["2016-03-01T09:00,10.0,5", "2016-03-01T09:01,10.1,6"])
        bars = load_bars(p)
        assert len(bars) == 2
        assert bars.minutes[1] - bars.minutes[0] == 1

    @pytest.mark.parametrize("stamp", ["2016-03-01T09:75", "2016-03-01T33:01",
                                       "2016-03-01T10:-1", "2016-03-01T09:31:zz",
                                       "2016-03-01T09:31:60", "2016-03-01T09:31:00:00",
                                       "2016-03-01T09", "2016-03-01T+9:30"])
    def test_calendar_stamp_out_of_range(self, tmp_path, stamp):
        p = _write(tmp_path, ["2016-03-01T09:00,10.0,5", f"{stamp},10.1,6",
                              "2016-03-02T09:00,10.2,7"])
        with pytest.raises(ParseError, match=f"^line 3: bad timestamp '{re.escape(stamp)}'"):
            load_bars(p)

    def test_calendar_stamp_bounds_and_seconds(self, tmp_path):
        p = _write(tmp_path, ["2016-03-01T00:00,10.0,5", "2016-03-01T09:31:59,10.1,6",
                              "2016-03-01T23:59:00,10.2,7"])
        bars = load_bars(p, session="00:00-23:59")
        day = (bars.minutes[0] // 1440) * 1440
        assert (bars.minutes - day).tolist() == [0, 9 * 60 + 31, 23 * 60 + 59]

    def test_bytes_not_utf8_report_line(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_bytes(f"timestamp,price,volume\n{DAY + 540},10.0,5\n\n".encode()
                      + f"{DAY + 541},10.1,6\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match="^line 4: not UTF-8: byte 0xe9$"):
            load_bars(p)

    def test_row_after_close_excluded(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 1050},10.0,5", f"{DAY + 1051},10.1,6"])
        with pytest.warns(UserWarning, match="excluded 1 rows"):
            bars = load_bars(p)
        assert len(bars) == 1  # 17:30 kept, 17:31 dropped
        assert bars.excluded_rows == 1

    def test_two_day_counts(self, tmp_path):
        rows = []
        for day in (0, 1):
            for m in range(510):
                rows.append(f"{DAY + day * 1440 + 540 + m},10.0,5")
        bars = load_bars(_write(tmp_path, rows))
        assert len(bars) == 1020
        assert bars.session_starts.size == 2

    def test_malformed_row_reports_line(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", f"{DAY + 541},oops,6"])
        with pytest.raises(ParseError, match="line 3"):
            load_bars(p)

    def test_error_line_counts_blank_lines(self, tmp_path):
        # the bad row is on line 4 of the file, after one blank line
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", "", f"{DAY + 541},oops,6"])
        with pytest.raises(ParseError, match="^line 4:"):
            load_bars(p)

    @pytest.mark.parametrize("stamp", ["9" * 20, "-" + "9" * 20])
    def test_stamp_beyond_int64_reports_line(self, tmp_path, stamp):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", f"{stamp},10.1,6"])
        with pytest.raises(ParseError, match="^line 3: bad timestamp"):
            load_bars(p)

    def test_short_row_without_timestamp_reports_line(self, tmp_path):
        p = _write(tmp_path, [f"10.0,5,{DAY + 540}", "10.1,6"],
                   header="price,volume,timestamp")
        with pytest.raises(ParseError, match="line 3"):
            load_bars(p)

    def test_non_monotone_timestamps(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 541},10.0,5", f"{DAY + 540},10.1,6"])
        with pytest.raises(OrderingError):
            load_bars(p)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", f"{DAY + 540},10.1,6"])
        with pytest.raises(OrderingError):
            load_bars(p)

    def test_column_remapping(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5", f"{DAY + 541},10.1,6"],
                   header="ts,last,qty")
        bars = load_bars(p, columns={"timestamp": "ts", "price": "last",
                                     "volume": "qty"})
        assert len(bars) == 2 and bars.volumes[1] == 6

    def test_missing_column_reported(self, tmp_path):
        p = _write(tmp_path, [f"{DAY + 540},10.0,5"], header="when,price,volume")
        with pytest.raises(ParseError, match="timestamp"):
            load_bars(p)


class TestComputeReturns:
    def _bars(self, tmp_path, prices, volumes=None, split_at=None):
        volumes = volumes or [5] * len(prices)
        rows = []
        for k, (p, v) in enumerate(zip(prices, volumes)):
            day = 0 if split_at is None or k < split_at else 1
            minute = DAY + day * 1440 + 540 + (k if day == 0 else k - split_at)
            rows.append(f"{minute},{p},{v}")
        return load_bars(_write(tmp_path, rows))

    def test_constant_prices_zero_returns(self, tmp_path):
        r = compute_returns(self._bars(tmp_path, [10.0] * 5))
        assert np.all(r.values == 0.0)

    def test_log_ratio(self, tmp_path):
        r = compute_returns(self._bars(tmp_path, [100.0, 101.0]))
        assert r.values[0] == pytest.approx(math.log(1.01), abs=1e-12)

    def test_count_single_session(self, tmp_path):
        r = compute_returns(self._bars(tmp_path, [10.0 + k for k in range(7)]))
        assert r.values.size == 6

    def test_no_overnight_pair(self, tmp_path):
        bars = self._bars(tmp_path, [10.0, 20.0, 30.0, 40.0], split_at=2)
        r = compute_returns(bars)
        # bookkeeping: returns = bars - sessions
        assert r.values.size == len(bars) - bars.session_starts.size == 2
        assert r.values[0] == pytest.approx(math.log(2.0))
        assert r.values[1] == pytest.approx(math.log(4.0 / 3.0))

    def test_zero_volume_pair_skipped(self, tmp_path):
        bars = self._bars(tmp_path, [10.0] * 4, volumes=[5, 0, 5, 5])
        v = compute_returns(bars, "volume-return")
        assert v.skipped_pairs == 2
        assert v.values.size == 1


class TestDescriptiveStats:
    def test_constant(self):
        d = descriptive_stats([1.0, 1.0, 1.0, 1.0])
        assert d.mean == 1.0 and d.standard_deviation == 0.0

    def test_symmetric_pair(self):
        d = descriptive_stats([-1.0, 1.0])
        assert d.mean == 0.0 and d.skewness == 0.0

    def test_negation_flips_odd_moments(self):
        rng = np.random.default_rng(0)
        x = rng.standard_t(5, 500)
        a, b = descriptive_stats(x), descriptive_stats(-x)
        assert a.mean == pytest.approx(-b.mean)
        assert a.skewness == pytest.approx(-b.skewness)
        assert a.standard_deviation == pytest.approx(b.standard_deviation)
        assert a.kurtosis == pytest.approx(b.kurtosis)

    def test_kurtosis_flagged_as_excess(self):
        d = descriptive_stats(np.random.default_rng(1).standard_normal(10000))
        assert d.kurtosis_is_excess
        assert abs(d.kurtosis) < 0.2

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            descriptive_stats([1.0])


class TestJarqueBera:
    def test_normal_sample_not_rejected(self):
        x = np.random.default_rng(7).standard_normal(100_000)
        _, _, reject = jarque_bera(x, alpha=0.01)
        assert not reject

    def test_heavy_tails_rejected(self):
        x = np.random.default_rng(7).standard_t(3, 100_000)
        _, _, reject = jarque_bera(x, alpha=0.01)
        assert reject

    def test_zero_statistic(self):
        # symmetric two-level sample: S = 0 and K = -2, so force moments by
        # checking the statistic formula at S = K = 0 directly instead
        stat, p, reject = jarque_bera(np.array([0.0, 1.0] * 50))
        n = 100
        d_kurt = -2.0  # two-point distribution has excess kurtosis -2
        assert stat == pytest.approx(n / 6 * (d_kurt ** 2 / 4), rel=1e-9)

    def test_short_sample(self):
        with pytest.raises(InsufficientDataError):
            jarque_bera([1.0] * 5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ParameterError):
            jarque_bera(np.random.default_rng(7).standard_normal(100), alpha=alpha)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert autocorrelation(x, 10)[0] == pytest.approx(1.0)

    def test_white_noise_band(self):
        x = np.random.default_rng(123).standard_normal(100_000)
        acf = autocorrelation(x, 50)
        assert np.all(np.abs(acf[1:]) < 0.02)

    def test_alternating_sequence(self):
        # direct-computation oracle: biased estimator on the short vector
        x = np.array([1.0, -1.0] * 4)
        n = x.size
        c = x - x.mean()
        oracle = float(np.dot(c[:-1], c[1:]) / np.dot(c, c))
        got = autocorrelation(x, 1)[1]
        assert got == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(-(n - 1) / n)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_t(3, 200)
            acf = autocorrelation(x, 20)
            assert np.all(np.abs(acf) <= 1.0 + 1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedStatisticError):
            autocorrelation(np.ones(50), 5)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            autocorrelation(np.arange(5.0), 10)


class TestCrossCorrelation:
    def test_self_correlation(self):
        x = np.random.default_rng(0).standard_normal(1000)
        rows = cross_correlation_battery(x, x)
        assert rows[0]["rho"] == pytest.approx(1.0)
        assert rows[0]["p_value"] < 1e-10

    def test_independent_band(self):
        rng = np.random.default_rng(21)
        x, y = rng.standard_normal(100_000), rng.standard_normal(100_000)
        for row in cross_correlation_battery(x, y):
            assert abs(row["rho"]) < 0.02

    def test_pairs_reported(self):
        x = np.random.default_rng(0).standard_normal(100)
        names = [r["pair"] for r in cross_correlation_battery(x, x)]
        assert names == ["r,v", "|r|,v", "r,|v|", "|r|,|v|"]

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            cross_correlation_battery(np.ones(3), np.ones(4))
        with pytest.raises(InsufficientDataError):
            pearson([1.0], [2.0])


def _pearson_oracle_samples(market_csv):
    """Paired samples for the pearsonr oracle: heavy-tailed, tied, n = 2 and
    3, constant, nearly constant and the fixture's four battery pairs."""
    rng = np.random.default_rng(314)
    pairs = []
    for k in range(120):
        n = int(rng.integers(4, 3000))
        x = rng.standard_t(2.5, n) * 10.0 ** rng.uniform(-6, 6)
        y = 0.2 * x / np.abs(x).max() + rng.standard_t(3.0, n)
        pairs.append((x, y))
        pairs.append((np.round(x / np.abs(x).max(), 1), np.round(y)))
    for n in (2, 3):
        pairs += [tuple(rng.standard_cauchy((2, n))) for _ in range(20)]
    x = rng.standard_normal(50)
    pairs += [(np.full(50, 1.5), x), (x, np.zeros(50)), (np.ones(2), [1.0, 2.0]),
              (1e6 + 1e-4 * rng.random(50), x), (1e6 + 1e-11 * rng.random(50), x),
              (x, 3.0 + 1e-13 * rng.random(50))]
    bars = load_bars(market_csv["path"])
    ra, va = align(compute_returns(bars, "price-return"),
                   compute_returns(bars, "volume-return"))
    pairs += [(ra, va), (np.abs(ra), va), (ra, np.abs(va)), (np.abs(ra), np.abs(va))]
    return pairs


def _warning_kinds(caught, kind_of):
    return sorted(k for k in map(kind_of, caught) if k is not None)


def test_pearson_matches_scipy_pearsonr(market_csv):
    """The battery's Pearson test gives scipy.stats.pearsonr's doubles and
    warns where it does (constant and nearly constant inputs), so analyze
    runs without scipy.stats and writes the same bytes."""
    from scipy.stats import pearsonr

    same = lambda a, b: a == b or (math.isnan(a) and math.isnan(b))  # noqa: E731
    scipy_kind = {"ConstantInputWarning": "constant", "NearConstantInputWarning": "near"}
    ours_kind = lambda w: (  # noqa: E731
        None if not issubclass(w.category, RuntimeWarning)
        else "near" if "nearly constant" in str(w.message) else "constant")
    kinds_seen = set()
    for x, y in _pearson_oracle_samples(market_csv):
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            r, p = pearson(x, y)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            ref = pearsonr(x, y)
        assert same(r, float(ref.statistic)) and same(p, float(ref.pvalue)), (len(x), r, p)
        expected = _warning_kinds(theirs, lambda w: scipy_kind.get(w.category.__name__))
        assert _warning_kinds(ours, ours_kind) == expected, (len(x), expected)
        kinds_seen.update(expected)
    assert kinds_seen == {"constant", "near"}


# observed counts of the published value/waiting-time table used as a
# regression target for the expected-count computation
_TABLE_OBSERVED = np.array([
    [24647, 45762, 43459, 46381, 23984],
    [696, 1487, 6805, 1553, 774],
    [45, 70, 4217, 66, 53],
])


class TestContingency:
    def _from_counts(self, observed):
        values, waits = [], []
        v_centers = [-2.0, -1.0, 0.0, 1.0, 2.0]
        w_centers = [1.0, 3.0, 5.0]
        for ri in range(observed.shape[0]):
            for ci in range(observed.shape[1]):
                n = int(observed[ri, ci])
                values.extend([v_centers[ci]] * n)
                waits.extend([w_centers[ri]] * n)
        return (np.array(values), np.array(waits),
                np.array([-np.inf, -1.5, -0.5, 0.5, 1.5, np.inf]),
                np.array([0.0, 2.0, 4.0, np.inf]))

    def test_published_expected_cell(self):
        values, waits, v_edges, w_edges = self._from_counts(_TABLE_OBSERVED)
        table = contingency(values, waits, v_edges, w_edges)
        assert table.expected[0, 2] == pytest.approx(50186.2, abs=0.5)
        assert table.p_value < 1e-10

    def test_independent_counts_zero_chi2(self):
        row = np.array([10, 20, 30])
        col = np.array([5, 15])
        observed = np.outer(col, row) / 1.0
        values, waits, v_edges, w_edges = self._from_counts(observed[:, :3])
        v_edges = np.array([-np.inf, -1.5, -0.5, np.inf])
        table = contingency(values, waits, v_edges, w_edges)
        assert table.chi2_statistic == pytest.approx(0.0, abs=1e-9)

    def test_two_by_two_hand_value(self):
        values = np.array([0.0] * 10 + [1.0] * 10)
        waits = np.array([1.0] * 10 + [3.0] * 10)
        table = contingency(values, waits,
                            np.array([-0.5, 0.5, 1.5]), np.array([0.0, 2.0, 4.0]))
        assert np.all(table.expected == 5.0)
        assert table.chi2_statistic == pytest.approx(20.0)
        assert table.degrees_of_freedom == 1

    def test_mass_conservation(self):
        values, waits, v_edges, w_edges = self._from_counts(_TABLE_OBSERVED)
        table = contingency(values, waits, v_edges, w_edges)
        assert table.expected.sum() == pytest.approx(table.observed.sum(), rel=1e-6)

    def test_range_not_covered(self):
        with pytest.raises(ValueError):
            contingency(np.array([0.0, 9.0]), np.array([1.0, 1.0]),
                        np.array([-1.0, 1.0]), np.array([0.0, 2.0]))

    def test_degenerate_table(self):
        with pytest.raises(DegenerateTableError):
            contingency(np.array([0.0] * 5), np.array([1.0] * 5),
                        np.array([-1.0, 1.0]), np.array([0.0, 2.0]))


class TestValueWaitPairs:
    def test_runs_and_censoring(self):
        from wismc.market_data import ReturnSeries
        r = ReturnSeries(values=np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]),
                         kind="price-return",
                         session_boundaries=np.array([5]),
                         positions=np.arange(1, 7))
        vals, waits = value_wait_pairs(r)
        # final run is censored by the series end
        assert list(vals) == [1.0, 2.0]
        assert list(waits) == [2, 3]


class TestBattery:
    def test_full_battery_on_fixture(self, market_csv):
        bars = load_bars(market_csv["path"])
        r = compute_returns(bars, "price-return")
        v = compute_returns(bars, "volume-return")
        assert r.values.size == len(bars) - bars.session_starts.size
        # realized series recovered exactly at within-session positions
        assert np.allclose(r.values, market_csv["r"][r.positions - 1], atol=1e-12)
        assert np.allclose(v.values, market_csv["v"][v.positions - 1], atol=1e-9)
        with np.errstate(all="ignore"):
            battery = run_battery(r, v, max_lag=50)
        assert battery["jarque_bera"]["r"]["reject"]
        assert battery["jarque_bera"]["v"]["reject"]
        rho = {row["pair"]: row["rho"] for row in battery["cross_correlation"]}
        assert rho["|r|,|v|"] > 0.1
        assert abs(rho["r,v"]) < 0.05
        for name in ("r", "v"):
            assert battery["contingency"][name]["p_value"] < 1e-6
        acf = np.array(battery["acf"]["abs_r"])
        assert acf[0] == pytest.approx(1.0)
        assert np.all(acf[1:20] > 0)  # volatility clustering

    def test_align_intersects_positions(self, market_csv):
        bars = load_bars(market_csv["path"])
        r = compute_returns(bars, "price-return")
        v = compute_returns(bars, "volume-return")
        ra, va = align(r, v)
        assert ra.size == va.size == min(r.values.size, v.values.size)
