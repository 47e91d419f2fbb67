"""Synthetic path generation: reproducibility, law recovery and the
stylized-fact report."""
import dataclasses

import numpy as np
import pytest
from scipy import stats

from conftest import (heavy_tailed_series, inverse_of, random_kernel, random_triplet,
                      samples_of, toy_grid)
from wismc.copulas import CopulaSpec
from wismc.core import IndexedKernel
from wismc.errors import ParameterError
from wismc.simulate import (
    SimConfig,
    backtransform,
    simulate_path,
    simulate_univariate,
    validate_stylized_facts,
)
from wismc.triplet import (
    CondWaitDist,
    ConditioningCell,
    EmpiricalInverse,
    SignModel,
    TripletFitConfig,
    TripletKernel,
    fit_triplet_kernel,
)


class TestBacktransform:
    def _inv(self, samples):
        grid = toy_grid([0.0, 1.0])
        return inverse_of([np.sort(np.asarray(samples, float)), np.array([1.0])], grid)

    def test_extremes(self):
        inv = self._inv([3.0, 1.0, 2.0])
        assert backtransform([0, 0], [0.0, 1.0], inv).tolist() == [1.0, 3.0]

    def test_median_interpolation(self):
        inv = self._inv([1.0, 2.0, 3.0])
        assert backtransform([0], [0.5], inv)[0] == pytest.approx(2.0)

    def test_empty_sample_falls_back(self):
        grid = toy_grid([0.25, 1.0])
        inv = inverse_of([np.array([]), np.array([1.0])], grid)
        with pytest.warns(UserWarning, match="state 0 has no sample"):
            got = backtransform([0, 1, 0], [0.3, 0.6, 0.9], inv)
        assert got.tolist() == [0.25, 1.0, 0.25]

    def test_values_stay_in_bin(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(5000)
        from wismc.core import make_state_grid
        grid = make_state_grid(values, 5)
        inv = EmpiricalInverse.from_data(values, grid)
        states = np.repeat(np.arange(5), 50)
        got = backtransform(states, rng.random(states.size), inv)
        lo, hi = grid.edges[states], grid.edges[states + 1]
        tops = np.array([x.max() for x in samples_of(inv)])[states]
        assert np.all(((lo <= got) & (got < hi)) | (got == tops))


def _deterministic_triplet():
    """Single reachable value (+m) with unit sojourns: the path is constant."""
    reps = [-0.02, 0.02]
    grid = toy_grid(reps)
    counts = np.zeros((2, 1, 2, 2), dtype=np.int64)
    counts[0, 0, 1, 0] = 1  # only target modulus .02 at sojourn 1
    counts[1, 0, 0, 0] = 1
    kern = IndexedKernel(grid=grid, lam=0.9, index_edges=np.array([-np.inf, np.inf]),
                         counts=counts)
    c = np.zeros((2, 2, 1, 1, 2), dtype=np.int64)
    c[:, :, 0, 0, 0] = 1
    cond = CondWaitDist(counts=c)
    return TripletKernel(kernel_j=kern, kernel_v=kern, cond_wait=cond,
                         copula=CopulaSpec("independence"),
                         signs=SignModel(p_j=1.0, p_v=1.0))


class TestSimulatePath:
    def test_degenerate_model_constant_path(self):
        tk = _deterministic_triplet()
        cfg = SimConfig(length_minutes=50, seed=1,
                        initial=ConditioningCell(i=1, v=1),
                        backtransform="representative")
        path = simulate_path(tk, cfg)
        assert np.all(path.r == 0.02)
        assert np.allclose(path.S, 1.0 * np.exp(0.02 * np.arange(51)), rtol=1e-12)
        assert path.forced_holds == path.events["n"].size

    def test_initial_bins_must_be_those_of_its_values(self):
        # the start's index is its values' squares; a start given with other
        # bins was simulated from the bins of its values, without a word
        rng = np.random.default_rng(8)
        tk = random_triplet(rng, [-0.02, 0.5], [-1.0, 0.5], CopulaSpec("independence"),
                            n_bins=3)
        i, v = 1, 0
        bins = [int(k.index_bin(k.grid.representatives[[s]] ** 2)[0])
                for k, s in ((tk.kernel_j, i), (tk.kernel_v, v))]
        start = ConditioningCell(i=i, v=v, x_bin=bins[0], w_bin=bins[1])
        path = simulate_path(tk, SimConfig(length_minutes=20, seed=1, initial=start))
        assert [path.events["x_bin"][0], path.events["w_bin"][0]] == bins
        for other in (dataclasses.replace(start, x_bin=(bins[0] + 1) % 3),
                      dataclasses.replace(start, w_bin=(bins[1] + 1) % 3)):
            with pytest.raises(ParameterError, match="initial index bins"):
                simulate_path(tk, SimConfig(length_minutes=20, seed=1, initial=other))

    def test_reproducible_bit_exact(self):
        rng = np.random.default_rng(2)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=6)
        cfg = SimConfig(length_minutes=2000, seed=42)
        a, b = simulate_path(tk, cfg), simulate_path(tk, cfg)
        assert np.array_equal(a.r, b.r) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.S, b.S)
        assert all(np.array_equal(a.events[k], b.events[k]) for k in a.events)
        c = simulate_path(tk, SimConfig(length_minutes=2000, seed=43))
        assert not np.array_equal(a.r, c.r)

    def test_exp_sum_reconstruction(self):
        rng = np.random.default_rng(3)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=6)
        path = simulate_path(tk, SimConfig(length_minutes=1500, seed=7, s0=2.0))
        want = 2.0 * np.exp(np.concatenate([[0.0], np.cumsum(path.r)]))
        good = np.isfinite(want)
        assert np.allclose(path.S[good], want[good], rtol=1e-12)

    def test_piecewise_constant_between_events(self):
        rng = np.random.default_rng(4)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("independence"), t_max=4, max_b=8)
        path = simulate_path(tk, SimConfig(length_minutes=500, seed=11))
        times = path.events["time"]
        for k in range(times.size - 1):
            seg = path.r[times[k]:times[k + 1]]
            assert np.all(seg == seg[0])

    def test_sojourn_law_recovered(self):
        # Kolmogorov-Smirnov distance between simulated sojourns and the
        # waiting-time law, per visited cell
        rng = np.random.default_rng(5)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("independence"), t_max=4, max_b=8)
        path = simulate_path(tk, SimConfig(length_minutes=60_000, seed=13))
        ev = path.events
        soj = np.diff(ev["time"])
        for i in range(2):
            for v in range(2):
                sel = (ev["j_state"][:-1] == i) & (ev["v_state"][:-1] == v)
                if sel.sum() < 200:
                    continue
                emp = np.array([(soj[sel] <= t).mean() for t in range(1, tk.t_max + 1)])
                cdf = np.cumsum(tk.cond_wait.pmf[i, v, 0, 0])
                ks = np.abs(emp - cdf).max()
                crit = 1.36 / np.sqrt(sel.sum())
                assert ks < 3 * crit

    def test_event_moduli_match_kernel_frequencies(self):
        # law-of-large-numbers check on the modulus transition frequencies
        rng = np.random.default_rng(6)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("independence"), t_max=2, max_b=4,
                            p_j=0.6, p_v=0.5)
        path = simulate_path(tk, SimConfig(length_minutes=120_000, seed=17))
        ev = path.events
        vals = ev["j_value"]
        # sign frequency among nonzero moves
        moves = vals[1:][vals[1:] != vals[:-1]]
        pos = (moves > 0).mean()
        n = moves.size
        assert abs(pos - 0.6) < 3 * np.sqrt(0.6 * 0.4 / n) + 0.01

    def test_sign_decoupling_event_level(self):
        rng = np.random.default_rng(7)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.6), t_max=3, max_b=6,
                            p_v=0.5)
        path = simulate_path(tk, SimConfig(length_minutes=150_000, seed=19))
        ev = path.events
        a = np.abs(ev["j_value"][1:])
        b = ev["v_value"][1:]
        prod = (a - a.mean()) * (b - b.mean())
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean()) < 3 * se

    def test_event_law_matches_event_value_pmf(self):
        # chi-square test of the (sojourn, next j value, next v value) counts
        # of the most visited cells against the model's event law; the return
        # grid has a single modulus, so "nothing changes" carries real mass
        rng = np.random.default_rng(21)
        tk = random_triplet(rng, [-0.02, 0.02], [-1.0, 0.5, 1.0],
                            CopulaSpec("gaussian", rho=0.5), t_max=3, max_b=6,
                            p_j=0.5, p_v=0.5)
        path = simulate_path(tk, SimConfig(length_minutes=100_000, seed=53))
        ev = path.events
        cells = list(zip(*(ev[k][:-1] for k in ("j_state", "v_state", "x_bin",
                                                  "w_bin", "b_j", "b_v"))))
        outcome = list(zip(np.diff(ev["time"]), ev["j_value"][1:], ev["v_value"][1:],
                           (ev["j_value"][1:] == ev["j_value"][:-1])
                           & (ev["v_value"][1:] == ev["v_value"][:-1])))
        visits = {}
        for cell, out in zip(cells, outcome):
            visits.setdefault(cell, []).append(out)
        top = sorted(visits, key=lambda c: -len(visits[c]))[:6]
        assert len(visits[top[-1]]) >= 1000
        for key in top:
            vj, vv, law = tk.event_value_pmf(ConditioningCell(*map(int, key)))
            obs = np.zeros(law.shape)
            for soj, j1, v1, _ in visits[key]:
                obs[soj - 1, np.searchsorted(vj, j1), np.searchsorted(vv, v1)] += 1
            expected = obs.sum() * law.ravel()
            obs = obs.ravel()
            assert obs[expected == 0].sum() == 0
            big = expected >= 5
            o_bins = np.append(obs[big], obs[~big].sum())
            e_bins = np.append(expected[big], expected[~big].sum())
            if e_bins[-1] < 5:  # fold the pooled small bins into the smallest one
                k = int(np.argmin(e_bins[:-1]))
                o_bins[k] += o_bins[-1]
                e_bins[k] += e_bins[-1]
                o_bins, e_bins = o_bins[:-1], e_bins[:-1]
            stat = float(((o_bins - e_bins) ** 2 / e_bins).sum())
            p = float(stats.chi2.sf(stat, o_bins.size - 1))
            assert p >= 1e-6, (key, stat, o_bins.size - 1)
        holds = sum(hold for key in top for *_, hold in visits[key])
        assert holds >= 0.05 * sum(len(visits[key]) for key in top)

    def test_event_record_independent_of_backtransform(self):
        r, v = heavy_tailed_series(4000, 3)
        tk = fit_triplet_kernel(r, v, TripletFitConfig(n_states_r=3, n_states_v=3,
                                                       n_index_bins=2))
        paths = [simulate_path(tk, SimConfig(length_minutes=3000, seed=9, backtransform=mode))
                 for mode in ("empirical", "representative")]
        assert all(np.array_equal(paths[0].events[k], paths[1].events[k])
                   for k in paths[0].events)
        assert not np.array_equal(paths[0].r, paths[1].r)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(length_minutes=0)
        with pytest.raises(ParameterError):
            SimConfig(length_minutes=10, backtransform="nope")


class TestUnivariate:
    def test_frequencies_within_three_se(self):
        rng = np.random.default_rng(8)
        kernel = random_kernel(rng, [-0.02, 0.0, 0.015], n_bins=1, t_max=3)
        _, states, times = simulate_univariate(kernel, 150_000, seed=23)
        soj = np.minimum(np.diff(times), kernel.t_max)
        worst_z = 0.0
        for i in range(3):
            sel = states[:-1] == i
            n = int(sel.sum())
            for j in range(3):
                for t in range(1, kernel.t_max + 1):
                    p = kernel.pmf[i, 0, j, t - 1]
                    emp = float(np.mean((states[1:][sel] == j) & (soj[sel] == t)))
                    se = np.sqrt(max(p * (1 - p), 1e-12) / n)
                    if p > 0:
                        worst_z = max(worst_z, abs(emp - p) / se)
        assert worst_z < 4.0

    def test_minute_series_piecewise_constant(self):
        rng = np.random.default_rng(9)
        kernel = random_kernel(rng, [-0.02, 0.015], n_bins=1, t_max=4)
        r, states, times = simulate_univariate(kernel, 2000, seed=29)
        for k in range(times.size - 1):
            seg = r[times[k]:times[k + 1]]
            assert np.all(seg == seg[0])

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        kernel = random_kernel(rng, [-0.02, 0.015], n_bins=1, t_max=4)
        a = simulate_univariate(kernel, 3000, seed=31)[0]
        b = simulate_univariate(kernel, 3000, seed=31)[0]
        assert np.array_equal(a, b)


class TestStylizedFacts:
    def test_independence_model_fully_decoupled(self):
        # fully decoupled means more than the independence copula: the next
        # modulus must be genuinely random (three or more no-self-transition
        # states) and the waiting law must not depend on the state pair
        rng = np.random.default_rng(11)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5, 1.4],
                            CopulaSpec("independence"), t_max=3, max_b=6,
                            p_j=0.5, p_v=0.5)
        counts = tk.cond_wait.counts.copy()
        counts[...] = counts[0, 0, 0, 0]
        tk = dataclasses.replace(tk, cond_wait=CondWaitDist(counts=counts))
        path = simulate_path(tk, SimConfig(length_minutes=120_000, seed=37))
        report = validate_stylized_facts([path], max_lag=20)
        band = report["three_se_band"]
        rho = {row["pair"]: row["rho"]
               for row in report["paths"][0]["cross_correlation"]}
        for pair in ("r,v", "r,|v|"):
            assert abs(rho[pair]) < band
        assert abs(rho["|r|,|v|"]) < 2 * band

    def test_fair_signs_decouple_value_from_modulus(self):
        # positive copula dependence with a fair volume sign: r and v stay
        # uncorrelated, |r| and v too (sign decoupling), |r| and |v| not
        rng = np.random.default_rng(14)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.2, 0.5, 1.0],
                            CopulaSpec("gaussian", rho=0.8), t_max=3, max_b=6,
                            p_j=0.5, p_v=0.5)
        path = simulate_path(tk, SimConfig(length_minutes=150_000, seed=47))
        report = validate_stylized_facts([path], max_lag=20)
        band = report["three_se_band"]
        rho = {row["pair"]: row["rho"]
               for row in report["paths"][0]["cross_correlation"]}
        assert abs(rho["r,v"]) < band
        assert abs(rho["|r|,v"]) < band
        assert rho["|r|,|v|"] > band

    def test_sign_asymmetry_creates_modulus_value_correlation(self):
        # positive copula dependence plus an asymmetric volume sign tilts
        # the (|r|, v) correlation positive
        rng = np.random.default_rng(12)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.2, 0.5, 1.0],
                            CopulaSpec("gaussian", rho=0.8), t_max=3, max_b=6,
                            p_v=0.85)
        path = simulate_path(tk, SimConfig(length_minutes=150_000, seed=41))
        report = validate_stylized_facts([path], max_lag=20)
        rho = {row["pair"]: row["rho"]
               for row in report["paths"][0]["cross_correlation"]}
        assert rho["|r|,v"] > report["three_se_band"]
        assert rho["|r|,|v|"] > report["three_se_band"]

    def test_reference_side_by_side(self):
        rng = np.random.default_rng(13)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.5), t_max=3, max_b=6)
        path = simulate_path(tk, SimConfig(length_minutes=30_000, seed=43))
        reference = {"cross_correlation": [
            {"pair": "r,v", "rho": 0.001, "p_value": 0.5},
            {"pair": "|r|,|v|", "rho": 0.05, "p_value": 0.0}]}
        report = validate_stylized_facts([path], reference, max_lag=10)
        assert "side_by_side" in report
        assert report["side_by_side"]["|r|,|v|"]["real"] == 0.05
        assert report["side_by_side"]["|r|,|v|"]["synthetic"] is not None
