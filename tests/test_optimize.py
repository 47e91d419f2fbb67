"""MAPE scoring and the (state count, memory) grid search."""
import numpy as np
import pytest

from conftest import heavy_tailed_series
from wismc.errors import ParameterError
from wismc.optimize import GridSpec, OptResult, grid_search, mape


class TestMape:
    def test_identical_is_zero(self):
        acf = np.array([1.0, 0.5, 0.4, 0.3])
        assert mape(acf, acf, 3) == 0.0

    def test_hand_value(self):
        real = np.array([1.0, 0.5, 0.4])
        synth = np.array([1.0, 0.45, 0.44])
        assert mape(real, synth, 2) == pytest.approx(10.0)

    def test_doubled_is_hundred_percent(self):
        real = np.array([1.0, 0.5, 0.4, 0.2])
        assert mape(real, 2 * real, 3) == pytest.approx(100.0)

    def test_asymmetric(self):
        a = np.array([1.0, 0.5, 0.4])
        b = np.array([1.0, 0.25, 0.1])
        assert mape(a, b, 2) != pytest.approx(mape(b, a, 2))

    def test_zero_real_lag_excluded(self):
        real = np.array([1.0, 0.5, 0.0])
        synth = np.array([1.0, 0.45, 0.3])
        with pytest.warns(UserWarning, match="excluded 1 lags"):
            assert mape(real, synth, 2) == pytest.approx(10.0)

    def test_lag_range_not_covered(self):
        with pytest.raises(ParameterError):
            mape(np.array([1.0, 0.5]), np.array([1.0, 0.5]), 5)


class TestGridSearch:
    def test_single_point(self):
        r, _ = heavy_tailed_series(6000, 5)
        spec = GridSpec(state_counts=(3,), lambdas=(0.9,), max_lag=20,
                        reps_per_point=2, n_index_bins=2)
        res = grid_search(r, spec, seed=1)
        assert res.best is not None
        assert res.best["s"] == 3 and res.best["lam"] == 0.9
        assert len(res.records) == 1

    def test_best_attains_minimum(self):
        r, _ = heavy_tailed_series(6000, 6)
        spec = GridSpec(state_counts=(2, 3), lambdas=(0.8, 0.95), max_lag=15,
                        reps_per_point=2, n_index_bins=2)
        res = grid_search(r, spec, seed=2)
        scored = [rec["mape"] for rec in res.records if not rec["failed"]]
        assert res.best["mape"] == min(scored)

    def test_adding_points_never_worse(self):
        r, _ = heavy_tailed_series(6000, 7)
        small = GridSpec(state_counts=(3,), lambdas=(0.9,), max_lag=15,
                         reps_per_point=2, n_index_bins=2)
        big = GridSpec(state_counts=(2, 3), lambdas=(0.9, 0.95), max_lag=15,
                       reps_per_point=2, n_index_bins=2)
        a = grid_search(r, small, seed=3)
        b = grid_search(r, big, seed=3)
        assert b.best["mape"] <= a.best["mape"] + 1e-12

    def test_deterministic(self):
        r, _ = heavy_tailed_series(5000, 8)
        spec = GridSpec(state_counts=(3,), lambdas=(0.85, 0.95), max_lag=10,
                        reps_per_point=2, n_index_bins=2)
        a = grid_search(r, spec, seed=4)
        b = grid_search(r, spec, seed=4)
        assert [rec["mape"] for rec in a.records] == [rec["mape"] for rec in b.records]

    def test_failed_point_recorded_and_skipped(self):
        r, _ = heavy_tailed_series(400, 9)
        # 40 states cannot be estimated from 400 minutes of quantized data
        spec = GridSpec(state_counts=(3, 40), lambdas=(0.9,), max_lag=10,
                        reps_per_point=1, n_index_bins=1)
        res = grid_search(r, spec, seed=5)
        failed = [rec for rec in res.records if rec["failed"]]
        assert failed and failed[0]["s"] == 40
        assert res.best is not None and res.best["s"] == 3

    def test_early_stop(self):
        r, _ = heavy_tailed_series(6000, 10)
        spec = GridSpec(state_counts=(2, 3, 4), lambdas=(0.9,), max_lag=10,
                        reps_per_point=1, n_index_bins=1, epsilon=1e9)
        res = grid_search(r, spec, seed=6)
        # an enormous improvement threshold stops after the second state count
        assert {rec["s"] for rec in res.records} == {2, 3}

    def test_early_stop_after_failed_smaller_counts(self):
        # quantized, mostly non-negative data: 4 states give degenerate edges
        vals = np.round(np.random.default_rng(0).standard_t(3, 3000) * 2) * 1e-3
        vals[vals < 0] = 0.0
        vals[::97] = -1e-3
        spec = GridSpec(state_counts=(4, 5), lambdas=(0.97,), max_lag=20,
                        reps_per_point=1, n_index_bins=1, epsilon=0.5)
        res = grid_search(vals, spec, seed=0)
        assert [(rec["s"], rec["failed"]) for rec in res.records] == [(4, True), (5, False)]
        assert res.best["s"] == 5

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(state_counts=(), lambdas=(0.9,))
        with pytest.raises(ParameterError):
            GridSpec(state_counts=(3,), lambdas=(1.5,))
        with pytest.raises(ParameterError):
            GridSpec(state_counts=(1, 3), lambdas=(0.9,))
        for reps in (0, -1):
            with pytest.raises(ParameterError):
                GridSpec(state_counts=(3,), lambdas=(0.9,), reps_per_point=reps)

    @pytest.mark.parametrize("counts, lambdas", [((3, 3), (0.97,)), ((3, 5, 3), (0.97,)),
                                                 ((3,), (0.97, 0.97)),
                                                 ((3, 5), (0.95, 0.97, 0.95))])
    def test_repeated_points_refused(self, counts, lambdas):
        # a repeated point would be simulated again and recorded twice
        with pytest.raises(ParameterError, match="must not repeat"):
            GridSpec(state_counts=counts, lambdas=lambdas)

    @pytest.mark.parametrize("field", [{"n_index_bins": 0}, {"n_index_bins": -1},
                                       {"epsilon": float("nan")},
                                       {"epsilon": float("inf")},
                                       {"epsilon": float("-inf")}])
    def test_refuses_what_the_fit_refuses(self, field):
        # no index bin fails every grid point; a non-finite epsilon is not
        # JSON, and a NaN one never stops early
        with pytest.raises(ParameterError):
            GridSpec(state_counts=(3,), lambdas=(0.9,), **field)


class TestOptResult:
    def test_round_trip_with_published_style_record(self):
        # fixture format mirrors the published optimum layout:
        # five states, lambda 0.97, MAPE 7.7 percent
        rec = {"s": 5, "lam": 0.97, "mape": 7.7, "failed": False, "error": None}
        res = OptResult(records=[rec], best=rec)
        doc = res.as_dict()
        assert doc["records"] == [rec]
        assert doc["best"] == rec
        import json
        assert json.loads(json.dumps(doc)) == doc
