"""Acceptance criteria, one test per criterion, each printing a pass line
with its runtime. Tolerances are fixed here and nowhere else."""
import functools
import time
import numpy as np

from conftest import (heavy_tailed_series, inverse_of, random_chain, random_triplet, toy_grid,
                      write_bar_csv)
from test_core import scored_index, shift_identical
from test_finfunc import oracle_fpt
from test_triplet import oracle_eval
from wismc.cli import main as cli_main
from wismc.copulas import FAMILIES, CopulaSpec, copula_eval
from wismc.core import (
    IndexParams,
    IndexedKernel,
    JumpChain,
    StateGrid,
    estimate_kernel,
    index_at_times,
)
from wismc.finfunc import FptQuery, fpt_survival_mc, fpt_survival_recursive, signed_covariance
from wismc.market_data import jarque_bera
from wismc.optimize import GridSpec, grid_search
from wismc.simulate import SimConfig, simulate_path, simulate_univariate
from wismc.triplet import ConditioningCell, TripletFitConfig, fit_triplet_kernel, quadrant_masses


def _report(num, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:02d} {status} ({elapsed:.1f}s) {detail}")
    assert ok


# ---------------------------------------------------------------------------


def test_criterion_01_quadrant_mass_conservation():
    """Four sign-quadrant masses reconstructed from the kernel formulas sum to
    the waiting-time mass, cell by cell, on randomized toy models."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    n_models = 0
    for trial in range(20):
        family = "gaussian" if trial % 2 else "independence"
        cop = (CopulaSpec("gaussian", rho=float(rng.uniform(-0.8, 0.8)))
               if family == "gaussian" else CopulaSpec("independence"))
        reps_j = sorted(rng.normal(0, 0.02, int(rng.integers(2, 5))))
        reps_v = sorted(rng.normal(0, 1.0, int(rng.integers(2, 5))))
        tk = random_triplet(rng, reps_j, reps_v, cop, t_max=3, max_b=3)
        n_models += 1
        for i in range(len(reps_j)):
            for v in range(len(reps_v)):
                cell = ConditioningCell(i=i, v=v,
                                        b_j=int(rng.integers(0, 3)),
                                        b_v=int(rng.integers(0, 3)))
                for t in range(1, tk.t_max + 1):
                    h = float(tk.waiting_pmf(cell)[t - 1])
                    masses = quadrant_masses(tk, cell, t)
                    worst = max(worst, abs(sum(masses.values()) - h))
                    worst = max(worst, max(-min(masses.values()), 0.0))
    elapsed = time.time() - t0
    _report(1, worst < 1e-10 and n_models >= 20 and elapsed < 10.0, elapsed,
            f"max deviation {worst:.2e} over {n_models} models")


def test_criterion_02_kernel_oracle_equivalence():
    """Kernel evaluation matches the exhaustive sign/modulus/sojourn
    enumeration on randomized queries."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    queries = 0
    families = [CopulaSpec("independence"),
                CopulaSpec("gaussian", rho=0.55),
                CopulaSpec("gaussian", rho=-0.4),
                CopulaSpec("clayton", theta=2.0),
                CopulaSpec("gumbel", theta=1.7),
                CopulaSpec("t", rho=0.5, df=4.0)]
    from wismc.triplet import triplet_kernel_eval
    for trial in range(12):
        cop = families[trial % len(families)]
        reps_j = sorted(rng.normal(0, 0.02, int(rng.integers(2, 5))))
        reps_v = sorted(rng.normal(0, 1.0, int(rng.integers(2, 5))))
        if trial % 3 == 0:
            reps_j[len(reps_j) // 2] = 0.0
        tk = random_triplet(rng, reps_j, reps_v, cop, t_max=3, max_b=3)
        for _ in range(4):
            cell = ConditioningCell(
                i=int(rng.integers(len(reps_j))), v=int(rng.integers(len(reps_v))),
                b_j=int(rng.integers(0, 3)), b_v=int(rng.integers(0, 3)))
            for t in range(1, tk.t_max + 1):
                j = float(rng.choice([rng.normal(0, 0.03), np.inf, -np.inf, 0.0]))
                a = float(rng.choice([rng.normal(0, 1.5), np.inf, -np.inf, 0.0]))
                got = triplet_kernel_eval(tk, cell, j, a, t)
                worst = max(worst, abs(got - oracle_eval(tk, cell, j, a, t)))
                queries += 1
    elapsed = time.time() - t0
    _report(2, queries >= 100 and worst < 1e-10, elapsed,
            f"{queries} queries, max error {worst:.2e}")


def test_criterion_03_shift_homogeneity():
    """The index trajectory of a window translated so that its last jump
    sits at time zero is byte-identical; a score reading absolute time,
    summed term by term, breaks on a constructed window."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    all_pass = True
    for _ in range(100):
        chain = random_chain(rng)
        index = functools.partial(index_at_times, lam=float(rng.uniform(0.5, 1.0)))
        all_pass &= shift_identical(index, chain, chain.times)
    bad_index = functools.partial(
        scored_index, score=lambda v, t, a: 0.9 ** (t - a) * v * v * (1.0 + 0.5 * np.sin(a)))
    window = JumpChain(states=np.array([0, 1, 0]), times=np.array([3, 5, 9]),
                       grid=toy_grid([0.5, 1.0]))
    counterexample_fails = not shift_identical(bad_index, window, window.times)
    elapsed = time.time() - t0
    _report(3, all_pass and counterexample_fails, elapsed,
            "100 windows pass, counterexample fails")


def test_criterion_04_fpt_triple_agreement():
    """Recursion equals full path enumeration; a million Monte Carlo paths
    agree within three standard errors at every horizon point."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                        CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
    query = FptQuery(rho=1.9, psi=2.4, horizon=6,
                     history_j=[0.25], history_v=[-0.5], history_t=[0])
    rec = fpt_survival_recursive(tk, query)
    enum = oracle_fpt(tk, 0.25, -0.5, 1.9, 2.4, 6)
    exact_gap = float(np.abs(rec.survival - enum).max())
    mc = fpt_survival_mc(tk, query, n_paths=1_000_000, seed=440)
    se = np.sqrt(np.maximum(rec.survival * (1 - rec.survival), 1e-12) / mc.n_paths)
    max_z = float(np.max(np.abs(mc.survival - rec.survival) / np.maximum(se, 1e-15)))
    elapsed = time.time() - t0
    _report(4, exact_gap < 1e-10 and max_z <= 3.0 and elapsed < 60.0, elapsed,
            f"recursion-enumeration gap {exact_gap:.2e}, MC max z {max_z:.2f}")


def _truth_kernel_consistency():
    """Hand-set three-state kernel with two explicit index bins."""
    grid = StateGrid(edges=np.array([-np.inf, -0.01, 0.025, np.inf]),
                     representatives=np.array([-0.03, 0.01, 0.04]))
    t_max = 4
    pmf = np.zeros((3, 2, 3, t_max))
    rng = np.random.default_rng(123)
    for i in range(3):
        for b in range(2):
            row = rng.random((3, t_max)) + 0.2
            row[i, :] = 0.0
            if b == 0:
                row[:, 2:] *= 3.0
            else:
                row[:, 0] *= 3.0
            pmf[i, b] = row / row.sum()
    # counts fine enough that the law they give is the designed one to ~1e-12
    counts = np.rint(pmf * 1e12).astype(np.int64)
    return IndexedKernel(grid=grid, lam=0.9,
                         index_edges=np.array([-np.inf, 6e-4, np.inf]), counts=counts)


def test_criterion_05_estimator_consistency():
    """A million simulated events re-estimate the generating kernel within
    binomial error bars, with a sane spread of z-scores."""
    t0 = time.time()
    truth = _truth_kernel_consistency()
    _, states, times = simulate_univariate(truth, None, seed=11, n_events=1_000_001)
    chain = JumpChain(states=states, times=times, grid=truth.grid)
    est = estimate_kernel(chain, IndexParams(
        lam=truth.lam, index_edges=truth.index_edges, t_max=truth.t_max))
    max_z = 0.0
    outside_one = 0
    total = 0
    for i in range(3):
        for b in range(2):
            n_cell = est.counts[i, b].sum()
            assert n_cell > 0, "index bin never visited"
            for j in range(3):
                for t in range(truth.t_max):
                    p = truth.pmf[i, b, j, t]
                    if p <= 0:
                        continue
                    se = np.sqrt(p * (1 - p) / n_cell)
                    z = abs(est.pmf[i, b, j, t] - p) / se
                    max_z = max(max_z, z)
                    outside_one += z > 1
                    total += 1
    frac = outside_one / total
    elapsed = time.time() - t0
    _report(5, max_z < 3.0 and 0.15 <= frac <= 0.50, elapsed,
            f"{total} cells, max z {max_z:.2f}, outside-1-se fraction {frac:.2f}")


def test_criterion_06_stylized_facts(tmp_path):
    """A model fitted to the bundled heavy-tailed fixture reproduces the
    stylized facts in its simulated series."""
    t0 = time.time()
    r, v = heavy_tailed_series(30000, 42)
    tk = fit_triplet_kernel(r, v, TripletFitConfig(n_states_r=5, n_states_v=5,
                                                   n_index_bins=3))
    assert tk.copula.rho > 0.0, "fitted copula dependence not positive"
    path = simulate_path(tk, SimConfig(length_minutes=120_000, seed=606))
    _, _, jb_reject = jarque_bera(path.r, alpha=0.01)
    from scipy import stats as sps
    n = path.r.size
    band = 3.0 / np.sqrt(n)
    rho_rv = float(sps.pearsonr(path.r, path.v).statistic)
    rho_mod = float(sps.pearsonr(np.abs(path.r), np.abs(path.v)).statistic)
    ok = jb_reject and abs(rho_rv) < band and rho_mod > band
    elapsed = time.time() - t0
    _report(6, ok and elapsed < 300.0, elapsed,
            f"JB reject {jb_reject}, rho(r,v) {rho_rv:.4f} (band {band:.4f}), "
            f"rho(|r|,|v|) {rho_mod:.4f}, fitted copula rho {tk.copula.rho:.2f}")


def test_criterion_07_sign_decoupling():
    """With a fair volume sign the signed covariance vanishes exactly and the
    simulated event-level covariance is statistically zero."""
    t0 = time.time()
    rng = np.random.default_rng(707)
    tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                        CopulaSpec("gaussian", rho=0.6), t_max=3, max_b=6,
                        p_v=0.5)
    exact = all(signed_covariance(tk, ConditioningCell(i=i, v=v)) == 0.0
                for i in range(2) for v in range(2))
    path = simulate_path(tk, SimConfig(length_minutes=150_000, seed=770))
    ev = path.events
    a = np.abs(ev["j_value"][1:])
    b = ev["v_value"][1:]
    prod = (a - a.mean()) * (b - b.mean())
    se = prod.std(ddof=1) / np.sqrt(prod.size)
    z = abs(prod.mean()) / se
    elapsed = time.time() - t0
    _report(7, exact and z <= 3.0, elapsed,
            f"analytic zero exact, simulated cov z {z:.2f} over {prod.size} events")


def test_criterion_08_copula_axioms():
    """Every family: exact boundaries and numerical 2-increasingness; the
    gaussian orthant value is exact."""
    t0 = time.time()
    specs = {
        "independence": CopulaSpec("independence"),
        "gaussian": CopulaSpec("gaussian", rho=0.55),
        "clayton": CopulaSpec("clayton", theta=2.3),
        "gumbel": CopulaSpec("gumbel", theta=1.8),
        "t": CopulaSpec("t", rho=0.45, df=4.0),
    }
    u = np.linspace(0, 1, 101)
    ok = True
    worst_vol = 0.0
    for family in FAMILIES:
        spec = specs[family]
        ok &= bool(np.all(copula_eval(spec, u, np.zeros_like(u)) == 0.0))
        ok &= bool(np.all(copula_eval(spec, np.zeros_like(u), u) == 0.0))
        ok &= bool(np.array_equal(copula_eval(spec, u, np.ones_like(u)), u))
        ok &= bool(np.array_equal(copula_eval(spec, np.ones_like(u), u), u))
        grid = copula_eval(spec, u[:, None], u[None, :])
        vol = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
        worst_vol = min(worst_vol, float(vol.min()))
        ok &= vol.min() >= -1e-12
    orthant = abs(copula_eval(CopulaSpec("gaussian", rho=0.5), 0.5, 0.5) - 1.0 / 3.0)
    ok &= orthant < 1e-8
    elapsed = time.time() - t0
    _report(8, ok, elapsed,
            f"min volume {worst_vol:.1e}, orthant gap {orthant:.1e}")


def test_criterion_09_single_bin_degeneracy():
    """One index bin reproduces plain semi-Markov counting exactly."""
    t0 = time.time()
    rng = np.random.default_rng(909)
    truth = _truth_kernel_consistency()
    _, states, times = simulate_univariate(truth, None, seed=99, n_events=10_000)
    chain = JumpChain(states=states, times=times, grid=truth.grid)
    kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=1,
                                                t_max=truth.t_max))
    plain = np.zeros((3, 3, truth.t_max), dtype=np.int64)
    soj = np.minimum(np.diff(times), truth.t_max)
    for i, j, t in zip(states[:-1], states[1:], soj):
        plain[i, j, t - 1] += 1
    equal = np.array_equal(kernel.counts[:, 0], plain)
    elapsed = time.time() - t0
    _report(9, equal, elapsed,
            f"{int(plain.sum())} transitions, exact count equality {equal}")


def _truth_kernel_search():
    """Three-state generator with index-driven regime switching and geometric
    sojourns."""
    def geom(q, t_max):
        p = q ** np.arange(t_max)
        return p / p.sum()

    grid = StateGrid(edges=np.array([-np.inf, -0.005, 0.005, np.inf]),
                     representatives=np.array([-0.012, 0.0, 0.012]))
    t_max = 8
    pmf = np.zeros((3, 3, 3, t_max))
    sojourns = (geom(0.85, t_max), geom(0.6, t_max), geom(0.35, t_max))
    for i in range(3):
        others = [j for j in range(3) if j != i]
        ext = [j for j in others if j != 1]
        for b, soj in enumerate(sojourns):
            tostate = np.zeros(3)
            if i == 1:
                tostate[0] = tostate[2] = 0.5
            elif b == 0:
                tostate[1] = 0.9
                tostate[ext[0]] = 0.1
            elif b == 1:
                tostate[1] = 0.55
                tostate[ext[0]] = 0.45
            else:
                tostate[1] = 0.15
                tostate[ext[0]] = 0.85
            pmf[i, b] = np.outer(tostate, soj)
            pmf[i, b] /= pmf[i, b].sum()
    # counts fine enough that the law they give is the designed one to ~1e-12
    counts = np.rint(pmf * 1e12).astype(np.int64)
    return IndexedKernel(grid=grid, lam=0.9,
                         index_edges=np.array([-np.inf, 8e-5, 1.15e-4, np.inf]),
                         counts=counts)


def test_criterion_10_optimizer_self_consistency():
    """The grid search recovers the generating state count with the memory
    parameter at or next to the truth in at least eight of ten trials."""
    t0 = time.time()
    truth = _truth_kernel_search()
    rng0 = np.random.default_rng(999)
    inverse = inverse_of(
        [np.sort(rng0.uniform(-0.02, -0.005, 400)),
         np.sort(rng0.uniform(-0.004, 0.004, 400)),
         np.sort(rng0.uniform(0.005, 0.02, 400))],
        truth.grid)
    spec = GridSpec(state_counts=(2, 3, 4), lambdas=(0.8, 0.9, 0.95),
                    max_lag=30, reps_per_point=3, n_index_bins=3)
    hits = 0
    picks = []
    for trial in range(10):
        r, _, _ = simulate_univariate(truth, 30_000, seed=1000 + trial,
                                      inverse=inverse)
        res = grid_search(r, spec, seed=500 + trial)
        s, lam = res.best["s"], res.best["lam"]
        picks.append((s, lam))
        hits += (s == 3 and lam in (0.8, 0.9, 0.95))
    elapsed = time.time() - t0
    _report(10, hits >= 8 and elapsed < 600.0, elapsed,
            f"{hits}/10 trials at the truth or a lambda-adjacent point: {picks}")


def test_criterion_11_cli_determinism(tmp_path):
    """Re-running every pipeline with the same seed and inputs produces
    byte-identical primary outputs."""
    t0 = time.time()
    r, v = heavy_tailed_series(9000, 55)
    csv_path = tmp_path / "bars.csv"
    write_bar_csv(csv_path, r, v)
    # identical inputs means identical paths: the model file and input CSV
    # are shared, only the capture location changes between reruns
    work = tmp_path / "work"
    work.mkdir()
    model = work / "model.json"
    digests = []
    for _run in range(2):
        assert cli_main(["estimate", "--input", str(csv_path), "--states-r", "3",
                         "--states-v", "3", "--index-bins", "2",
                         "--out", str(model)]) == 0
        for sub in ("analysis", "sim", "fpt"):
            for p in (work / sub).rglob("*") if (work / sub).exists() else []:
                p.unlink()
        assert cli_main(["analyze", "--input", str(csv_path), "--max-lag", "20",
                         "--out", str(work / "analysis")]) == 0
        assert cli_main(["simulate", "--model", str(model), "--minutes", "2000",
                         "--reps", "2", "--seed", "5",
                         "--out", str(work / "sim")]) == 0
        assert cli_main(["fpt", "--model", str(model), "--rho", "1.004",
                         "--psi", "50", "--horizon", "10", "--method", "mc",
                         "--paths", "20000", "--seed", "9",
                         "--out", str(work / "fpt")]) == 0
        run_digest = {}
        for p in sorted(work.rglob("*")):
            if p.is_file():
                run_digest[str(p.relative_to(work))] = p.read_bytes()
        digests.append(run_digest)
    same_names = digests[0].keys() == digests[1].keys()
    same_bytes = same_names and all(digests[0][k] == digests[1][k]
                                    for k in digests[0])
    elapsed = time.time() - t0
    _report(11, same_bytes, elapsed,
            f"{len(digests[0])} outputs byte-identical across reruns")
