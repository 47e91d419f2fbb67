"""Copula families: boundary identities, 2-increasingness, fitting by rank
inversion and sampling consistency."""
import numpy as np
import pytest

from wismc.copulas import (
    FAMILIES,
    CopulaSpec,
    average_ranks,
    copula_eval,
    fit_copula,
    sample_copula,
)
from wismc.errors import EstimationError, ParameterError

SPECS = {
    "independence": CopulaSpec("independence"),
    "gaussian": CopulaSpec("gaussian", rho=0.55),
    "clayton": CopulaSpec("clayton", theta=2.3),
    "gumbel": CopulaSpec("gumbel", theta=1.8),
    "t": CopulaSpec("t", rho=0.45, df=4.0),
}


@pytest.mark.parametrize("family", FAMILIES)
class TestAxioms:
    def test_boundaries_exact(self, family):
        spec = SPECS[family]
        u = np.linspace(0, 1, 101)
        assert np.all(copula_eval(spec, u, np.zeros_like(u)) == 0.0)
        assert np.all(copula_eval(spec, np.zeros_like(u), u) == 0.0)
        assert np.array_equal(copula_eval(spec, u, np.ones_like(u)), u)
        assert np.array_equal(copula_eval(spec, np.ones_like(u), u), u)

    def test_two_increasing_on_grid(self, family):
        spec = SPECS[family]
        u = np.linspace(0, 1, 101)
        grid = copula_eval(spec, u[:, None], u[None, :])
        volumes = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
        assert volumes.min() >= -1e-12

    def test_bounded(self, family):
        spec = SPECS[family]
        u = np.linspace(0, 1, 41)
        grid = copula_eval(spec, u[:, None], u[None, :])
        assert grid.min() >= 0.0 and grid.max() <= 1.0


class TestGaussian:
    def test_zero_rho_is_product(self):
        spec = CopulaSpec("gaussian", rho=0.0)
        u = np.linspace(0.05, 0.95, 10)
        assert np.allclose(copula_eval(spec, u[:, None], u[None, :]),
                           u[:, None] * u[None, :], atol=1e-14)

    def test_orthant_identity(self):
        # closed form: C(1/2, 1/2) = 1/4 + asin(rho) / (2 pi)
        for rho in (-0.9, -0.3, 0.25, 0.5, 0.95):
            got = copula_eval(CopulaSpec("gaussian", rho=rho), 0.5, 0.5)
            assert got == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-12)

    def test_one_third_value(self):
        got = copula_eval(CopulaSpec("gaussian", rho=0.5), 0.5, 0.5)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            CopulaSpec("gaussian", rho=1.5)


class TestFit:
    def test_comonotone_limits(self):
        x = np.linspace(0.0, 1.0, 200)
        g = fit_copula(x, x, "gaussian")
        assert g.rho > 0.999
        gm = fit_copula(x, x, "gumbel")
        assert gm.theta > 50

    def test_independent_band(self):
        rng = np.random.default_rng(100)
        x, y = rng.random(100_000), rng.random(100_000)
        assert abs(fit_copula(x, y, "gaussian").rho) < 0.02

    def test_kendall_inversion_exact(self):
        # permutation with 124 of 496 discordant pairs: tau = 0.5 exactly
        x = np.arange(32, dtype=float)
        y = np.concatenate([np.arange(16)[::-1],
                            [17, 16, 19, 18, 21, 20, 23, 22],
                            np.arange(24, 32)]).astype(float)
        conc = disc = 0
        for a in range(32):
            for b in range(a + 1, 32):
                s = (x[b] - x[a]) * (y[b] - y[a])
                conc += s > 0
                disc += s < 0
        assert (conc - disc) / (conc + disc) == 0.5
        assert fit_copula(x, y, "clayton").theta == pytest.approx(2.0)
        assert fit_copula(x, y, "gumbel").theta == pytest.approx(2.0)
        assert fit_copula(x, y, "t").rho == pytest.approx(np.sin(np.pi / 4))

    def test_parameter_recovery_from_samples(self):
        rng = np.random.default_rng(200)
        for family, kw, attr, true in [
            ("gaussian", dict(rho=0.6), "rho", 0.6),
            ("clayton", dict(theta=2.0), "theta", 2.0),
            ("gumbel", dict(theta=2.0), "theta", 2.0),
        ]:
            u, v = sample_copula(CopulaSpec(family, **kw), 50_000, rng)
            got = getattr(fit_copula(u, v, family), attr)
            assert got == pytest.approx(true, rel=0.1)

    def test_degenerate_margin(self):
        with pytest.raises(EstimationError):
            fit_copula(np.ones(50), np.arange(50.0), "gaussian")

    def test_too_few_pairs(self):
        with pytest.raises(EstimationError):
            fit_copula(np.arange(10.0), np.arange(10.0), "gaussian")

    def test_negative_tau_rejected_for_archimedean(self):
        x = np.arange(40.0)
        with pytest.raises(EstimationError):
            fit_copula(x, -x, "clayton")


class TestSampling:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_empirical_cdf_matches_analytic(self, family):
        spec = SPECS[family]
        u, v = sample_copula(spec, 200_000, np.random.default_rng(42))
        for (a, b) in [(0.3, 0.4), (0.7, 0.2), (0.5, 0.5)]:
            emp = float(np.mean((u <= a) & (v <= b)))
            assert emp == pytest.approx(float(copula_eval(spec, a, b)), abs=5e-3)

    def test_uniform_margins(self):
        u, v = sample_copula(SPECS["gumbel"], 100_000, np.random.default_rng(1))
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(v.mean() - 0.5) < 0.01

    def test_reproducible(self):
        a = sample_copula(SPECS["t"], 100, np.random.default_rng(9))
        b = sample_copula(SPECS["t"], 100, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestValidation:
    def test_argument_domain(self):
        with pytest.raises(ParameterError):
            copula_eval(SPECS["gaussian"], 1.2, 0.5)

    def test_family_domains(self):
        with pytest.raises(ParameterError):
            CopulaSpec("clayton", theta=0.0)
        with pytest.raises(ParameterError):
            CopulaSpec("gumbel", theta=0.5)
        with pytest.raises(ParameterError):
            CopulaSpec("nope")

    @pytest.mark.parametrize("family, params", [
        ("clayton", {"theta": np.inf}), ("clayton", {"theta": np.nan}),
        ("gumbel", {"theta": np.inf}), ("gumbel", {"theta": np.nan}),
        ("t", {"rho": 0.3, "df": np.inf}), ("t", {"rho": 0.3, "df": np.nan}),
        ("gaussian", {"rho": 0.3, "theta": np.nan}), ("independence", {"df": -np.inf})])
    def test_non_finite_parameters_refused(self, family, params):
        with pytest.raises(ParameterError, match="finite"):
            CopulaSpec(family, **params)


def test_special_functions_match_scipy_stats():
    """The scipy.special calls that stand in for scipy.stats at import time
    give the same doubles, tails and exact 0 and 1 included."""
    from scipy import stats
    from scipy.special import chdtrc, ndtr, ndtri, stdtrit

    rng = np.random.default_rng(77)
    tiny = 10.0 ** -rng.uniform(10, 300, 2000)
    u = np.concatenate([rng.random(20000), tiny, 1e-10 * rng.random(2000), 1.0 - tiny,
                        1.0 - 1e-10 * rng.random(2000), [0.0, 0.5, 1.0]])
    x = np.concatenate([rng.normal(0.0, 3.0, 20000), rng.uniform(-40, 40, 2000),
                        [-np.inf, -0.0, 0.0, np.inf]])
    assert np.array_equal(ndtr(x), stats.norm.cdf(x))
    assert np.array_equal(ndtri(u), stats.norm.ppf(u))
    # stdtrit(df, 0) is +inf where t.ppf gives -inf; copula_eval never
    # passes it an argument below 1e-12
    inner = u[u > 0]
    for df in (2.5, 4.0, 7.0):
        assert np.array_equal(stdtrit(df, inner), stats.t.ppf(inner, df))
    chi = np.concatenate([rng.exponential(5.0, 20000), rng.uniform(0, 400, 2000), [0.0]])
    for k in (1, 2, 4, 9, 16):
        assert np.array_equal(chdtrc(k, chi), stats.chi2.sf(chi, k))


def test_average_ranks_match_scipy_rankdata(market_csv):
    """The gaussian fit's ranks are scipy.stats.rankdata's doubles, dtype
    included, on heavy-tailed, tied, short, constant and nearly constant
    samples and on the fixture's returns."""
    from scipy.stats import rankdata

    rng = np.random.default_rng(2718)
    samples = [market_csv["r"], market_csv["v"], np.round(market_csv["r"], 4)]
    for _ in range(100):
        x = rng.standard_t(2.5, int(rng.integers(2, 3000)))
        samples += [x, np.round(x, 1), np.floor(np.abs(x))]
    samples += [rng.random(2), [1.0, 1.0], rng.random(3), [2.0, 1.0, 2.0], np.zeros(40),
                1e6 + 1e-10 * rng.random(40), [0.0, -0.0, 1.0, -np.inf, np.inf],
                [1.0, np.nan, 0.0]]
    for x in samples:
        ours, ref = average_ranks(x), rankdata(x)
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref, equal_nan=True)
