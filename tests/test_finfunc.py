"""One-step marginals, dependence measures and first-passage times, checked
against enumeration oracles."""
import dataclasses
import math

import numpy as np
import pytest

from conftest import random_triplet
from test_triplet import (
    fallback_cells,
    modulus_cdf,
    modulus_law,
    oracle_eval,
    oracle_signed_atoms,
)
from wismc import finfunc
from wismc.copulas import CopulaSpec, copula_eval
from wismc.errors import ContractViolation, ParameterError, ResourceLimitError
from wismc.finfunc import (
    FptQuery,
    fpt_survival_mc,
    fpt_survival_recursive,
    joint_modulus_pmf,
    modulus_covariance,
    mutual_information,
    one_step_marginal_return,
    one_step_marginal_volume,
    signed_covariance,
)
from wismc.triplet import CondWaitDist, ConditioningCell, fit_triplet_kernel


# ---------------------------------------------------------------------------
# marginals and dependence


class TestOneStepMarginal:
    def test_infinite_threshold(self):
        rng = np.random.default_rng(0)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.4))
        for i in range(2):
            for v in range(2):
                cell = ConditioningCell(i=i, v=v)
                assert one_step_marginal_return(tk, cell, np.inf) == pytest.approx(
                    1.0, abs=1e-10)
                assert one_step_marginal_return(tk, cell, -np.inf) == pytest.approx(
                    0.0, abs=1e-10)
                assert one_step_marginal_volume(tk, cell, np.inf) == pytest.approx(
                    1.0, abs=1e-10)

    def test_unit_sign_probability_reduction(self):
        rng = np.random.default_rng(1)
        tk = random_triplet(rng, [0.004, 0.02], [0.3, 1.0],
                            CopulaSpec("gaussian", rho=0.3), p_j=1.0, p_v=1.0)
        cell = ConditioningCell(i=0, v=1)
        h = tk.waiting_pmf(cell)
        for j in (0.004, 0.02):
            want = sum(h[t - 1] * modulus_cdf(tk.modulus_j, cell.i, cell.x_bin,
                                              t + cell.b_j, j)
                       for t in range(1, tk.t_max + 1))
            assert one_step_marginal_return(tk, cell, j) == pytest.approx(want,
                                                                          abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tk = random_triplet(rng, sorted(rng.normal(0, 0.02, 3)),
                                sorted(rng.normal(0, 1.0, 2)),
                                CopulaSpec("gaussian", rho=float(rng.uniform(-0.7, 0.7))))
            cell = ConditioningCell(i=int(rng.integers(3)), v=int(rng.integers(2)),
                                    b_j=int(rng.integers(0, 2)),
                                    b_v=int(rng.integers(0, 2)))
            for thr in (rng.normal(0, 0.03), 0.0, -0.01):
                want = 0.0
                for t in range(1, tk.t_max + 1):
                    ok = (lambda x: x <= thr) if thr >= 0 else (lambda x: x < thr)
                    want += sum(p for vj, _, p in oracle_signed_atoms(tk, cell, t)
                                if ok(vj))
                got = one_step_marginal_return(tk, cell, float(thr))
                assert got == pytest.approx(want, abs=1e-10)

    def test_fallback_cells_match_the_ladder_oracle(self):
        # the marginals and the joint modulus law of cells the fit never saw,
        # against atoms enumerated from the laws the fallback ladders give
        worst = 0.0
        fell_back = 0
        for seed in range(15):
            tk, cells = fallback_cells(seed)
            for cell, levels in cells:
                fell_back += max(levels["cond_wait"] | levels["modulus"]) > 0
                for thr in (-np.inf, -0.01, 0.0, 0.015, np.inf):
                    want = sum(oracle_eval(tk, cell, thr, np.inf, t, resolved=True)
                               for t in range(1, tk.t_max + 1))
                    worst = max(worst, abs(one_step_marginal_return(tk, cell, thr) - want))
                for thr in (-0.7, 0.0, 0.5, np.inf):
                    want = sum(oracle_eval(tk, cell, np.inf, thr, t, resolved=True)
                               for t in range(1, tk.t_max + 1))
                    worst = max(worst, abs(one_step_marginal_volume(tk, cell, thr) - want))
                mj, mv, joint = joint_modulus_pmf(tk, cell)
                want = np.zeros(joint.shape)
                for t in range(1, tk.t_max + 1):
                    for vj, vv, p in oracle_signed_atoms(tk, cell, t, resolved=True):
                        want[np.searchsorted(mj, abs(vj)), np.searchsorted(mv, abs(vv))] += p
                worst = max(worst, np.abs(joint - want).max())
        assert worst < 1e-10
        assert fell_back >= 20


FAMILIES = [CopulaSpec("independence"), CopulaSpec("gaussian", rho=-0.45),
            CopulaSpec("clayton", theta=2.2), CopulaSpec("gumbel", theta=1.8),
            CopulaSpec("t", rho=0.35, df=4.0)]


def _oracle_cases(copula):
    """A model with a zero modulus in both variables, and cells with both
    backward offsets positive, each with its oracle atoms over all sojourns."""
    rng = np.random.default_rng(11)
    tk = random_triplet(rng, [-0.02, 0.0, 0.01, 0.03], [-1.0, 0.0, 0.5], copula)
    for i, v, b_j, b_v in ((0, 1, 1, 2), (1, 2, 2, 1), (3, 0, 2, 2)):
        cell = ConditioningCell(i=i, v=v, b_j=b_j, b_v=b_v)
        yield tk, cell, [a for t in range(1, tk.t_max + 1)
                         for a in oracle_signed_atoms(tk, cell, t)]


@pytest.mark.parametrize("copula", FAMILIES, ids=lambda c: c.family)
class TestClosedFormsMatchOracle:
    def test_one_step_marginals(self, copula):
        for tk, cell, atoms in _oracle_cases(copula):
            for side, fn, thresholds in (
                    (0, one_step_marginal_return, (-0.03, -0.02, -0.01, 0.0, 0.005,
                                                   0.01, 0.02, 0.03, 0.05)),
                    (1, one_step_marginal_volume, (-2.0, -1.0, -0.5, -0.2, 0.0,
                                                   0.3, 0.5, 1.0, 2.0))):
                for thr in thresholds:
                    want = sum(a[2] for a in atoms
                               if (a[side] <= thr if thr >= 0 else a[side] < thr))
                    assert fn(tk, cell, thr) == pytest.approx(want, abs=1e-10)

    def test_joint_modulus_pmf(self, copula):
        for tk, cell, atoms in _oracle_cases(copula):
            mj, mv, joint = joint_modulus_pmf(tk, cell)
            assert mj.tolist() == [0.0, 0.01, 0.02, 0.03]
            assert mv.tolist() == [0.0, 0.5, 1.0]
            want = np.zeros((mj.size, mv.size))
            for vj, vv, p in atoms:
                want[np.searchsorted(mj, abs(vj)), np.searchsorted(mv, abs(vv))] += p
            np.testing.assert_allclose(joint, want, rtol=0, atol=1e-10)


class TestCovariance:
    def test_independence_zero(self):
        rng = np.random.default_rng(3)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("independence"))
        for i in range(3):
            for v in range(2):
                res = modulus_covariance(tk, ConditioningCell(i=i, v=v))
                assert res.cov == pytest.approx(0.0, abs=1e-10)

    def test_comonotone_limit(self):
        # identical modulus marginals under near-perfect dependence: rho -> 1
        rng = np.random.default_rng(4)
        tk = random_triplet(rng, [-0.01, 0.02, 0.04], [-0.01, 0.02, 0.04],
                            CopulaSpec("gumbel", theta=200.0))
        from wismc.triplet import TripletKernel
        shared = TripletKernel(kernel_j=tk.kernel_j, kernel_v=tk.kernel_j,
                               cond_wait=tk.cond_wait, copula=tk.copula,
                               signs=tk.signs)
        res = modulus_covariance(shared, ConditioningCell(i=0, v=0))
        assert res.rho > 0.99

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.3))
        cell = ConditioningCell(i=1, v=0, b_j=1, b_v=0)
        res = modulus_covariance(tk, cell)
        atoms = [(abs(vj), abs(vv), p)
                 for t in range(1, tk.t_max + 1)
                 for vj, vv, p in oracle_signed_atoms(tk, cell, t)]
        tot = sum(p for _, _, p in atoms)
        e_j = sum(mj * p for mj, _, p in atoms) / tot
        e_v = sum(mv * p for _, mv, p in atoms) / tot
        e_jv = sum(mj * mv * p for mj, mv, p in atoms) / tot
        assert res.cov == pytest.approx(e_jv - e_j * e_v, abs=1e-10)

    def test_signed_covariance_identities(self):
        rng = np.random.default_rng(6)
        base = dict(reps_j=[-0.02, 0.01], reps_v=[-1.0, 0.5],
                    copula=CopulaSpec("gaussian", rho=0.5))
        cell = ConditioningCell(i=0, v=0)
        tk_half = random_triplet(rng, p_v=0.5, **base)
        assert signed_covariance(tk_half, cell) == 0.0
        rng = np.random.default_rng(6)
        tk_one = random_triplet(rng, p_v=1.0, **base)
        assert signed_covariance(tk_one, cell) == pytest.approx(
            modulus_covariance(tk_one, cell).cov, abs=1e-15)
        rng = np.random.default_rng(6)
        tk_34 = random_triplet(rng, p_v=0.75, **base)
        assert signed_covariance(tk_34, cell) == pytest.approx(
            0.5 * modulus_covariance(tk_34, cell).cov, abs=1e-15)


class TestMutualInformation:
    def test_independence_zero(self):
        rng = np.random.default_rng(7)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("independence"))
        assert mutual_information(tk, ConditioningCell(i=0, v=0)) == pytest.approx(
            0.0, abs=1e-10)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            tk = random_triplet(rng, sorted(rng.normal(0, 0.02, 3)),
                                sorted(rng.normal(0, 1.0, 3)),
                                CopulaSpec("gaussian", rho=float(rng.uniform(-0.8, 0.8))))
            for i in range(3):
                for v in range(3):
                    assert mutual_information(tk, ConditioningCell(i=i, v=v)) >= 0.0

    def test_gaussian_fine_grid_asymptote(self):
        # K equal-mass cells per margin converge from below to the closed
        # form -ln(1 - rho^2)/2; at K = 80 the gap is below 2e-3
        rho = 0.5
        closed = -0.5 * math.log(1.0 - rho * rho)
        spec = CopulaSpec("gaussian", rho=rho)
        last = 0.0
        for k_cells in (10, 20, 40, 80):
            u = np.linspace(0, 1, k_cells + 1)
            c = copula_eval(spec, u[:, None], u[None, :])
            p = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
            pj = p.sum(axis=1)
            mask = p > 0
            mi = float((p[mask] * np.log(p[mask] / np.outer(pj, pj)[mask])).sum())
            assert mi > last  # monotone in the refinement
            assert mi < closed
            last = mi
        assert closed - last < 2e-3

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.4))
        cell = ConditioningCell(i=0, v=1)
        base = mutual_information(tk, cell)
        # strictly monotone relabeling of the modulus grid: scale both axes
        from wismc.core import StateGrid
        from wismc.triplet import TripletKernel
        import dataclasses
        g = tk.kernel_j.grid
        scaled = StateGrid(edges=g.edges * 3.0, representatives=g.representatives * 3.0)
        kj = dataclasses.replace(tk.kernel_j, grid=scaled)
        tk2 = TripletKernel(kernel_j=kj, kernel_v=tk.kernel_v,
                            cond_wait=tk.cond_wait, copula=tk.copula, signs=tk.signs)
        assert mutual_information(tk2, cell) == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# first passage times (oracle ported from the model-law atoms)


def oracle_fpt(tk, i0, v0, rho, psi, horizon):
    """Survival by exhausting every event path with definitional
    minute-by-minute barrier checks."""
    lnr, lnp = math.log(rho), math.log(psi)
    reps_j = {float(v): k for k, v in enumerate(tk.kernel_j.grid.representatives)}
    reps_v = {float(v): k for k, v in enumerate(tk.kernel_v.grid.representatives)}
    mirror_j = {(-v): k for v, k in reps_j.items() if -v not in reps_j}
    mirror_v = {(-v): k for v, k in reps_v.items() if -v not in reps_v}
    cross_mass = np.zeros(horizon + 2)

    def advance(lam, w, d, val, dt):
        for _ in range(dt):
            w = lam * (w + val * val)
            d = 1.0 + lam * d
        return w, d

    def rec(i_val, v_val, wj, dj, wv, dv, bj, bv, laj, lav, t0, prob):
        i_st = reps_j.get(i_val, mirror_j.get(i_val))
        v_st = reps_v.get(v_val, mirror_v.get(v_val))
        xb = int(tk.kernel_j.index_bin((wj + i_val ** 2) / dj))
        wb = int(tk.kernel_v.index_bin((wv + v_val ** 2) / dv))
        h = tk.cond_wait.pmf[i_st, v_st, xb, wb]
        for soj in range(1, tk.t_max + 1):
            p_soj = float(h[soj - 1])
            if p_soj <= 0:
                continue
            crossed = None
            for m in range(t0 + 1, min(t0 + soj, horizon) + 1):
                if laj + i_val * (m - t0) >= lnr or lav + v_val * (m - t0) >= lnp:
                    crossed = m
                    break
            if crossed is not None:
                cross_mass[crossed] += prob * p_soj
                continue
            t1 = t0 + soj
            if t1 > horizon:
                cross_mass[horizon + 1] += prob * p_soj
                continue
            mjs, pjm = modulus_law(tk.kernel_j, i_st, xb, soj + bj)
            mvs, pvm = modulus_law(tk.kernel_v, v_st, wb, soj + bv)
            FJ = np.concatenate([[0.0], np.cumsum(pjm)])
            FV = np.concatenate([[0.0], np.cumsum(pvm)])
            for a in range(mjs.size):
                for b in range(mvs.size):
                    vol = (copula_eval(tk.copula, FJ[a + 1], FV[b + 1])
                           - copula_eval(tk.copula, FJ[a], FV[b + 1])
                           - copula_eval(tk.copula, FJ[a + 1], FV[b])
                           + copula_eval(tk.copula, FJ[a], FV[b]))
                    if vol <= 0:
                        continue
                    sj = [(0.0, 1.0)] if mjs[a] == 0 else [
                        (float(mjs[a]), tk.signs.p_j), (float(-mjs[a]), 1 - tk.signs.p_j)]
                    sv = [(0.0, 1.0)] if mvs[b] == 0 else [
                        (float(mvs[b]), tk.signs.p_v), (float(-mvs[b]), 1 - tk.signs.p_v)]
                    for nj, qj in sj:
                        for nv, qv in sv:
                            wj2, dj2 = advance(tk.kernel_j.lam, wj, dj, i_val, soj)
                            wv2, dv2 = advance(tk.kernel_v.lam, wv, dv, v_val, soj)
                            rec(nj, nv, wj2, dj2, wv2, dv2,
                                0 if nj != i_val else bj + soj,
                                0 if nv != v_val else bv + soj,
                                laj + i_val * soj, lav + v_val * soj,
                                t1, prob * p_soj * vol * qj * qv)

    if rho <= 1.0 or psi <= 1.0:
        return np.zeros(horizon + 1)
    rec(i0, v0, 0.0, 1.0, 0.0, 1.0, 0, 0, 0.0, 0.0, 0, 1.0)
    return np.array([1.0 - cross_mass[1:t + 1].sum() for t in range(horizon + 1)])


class TestFptRecursion:
    def test_threshold_already_crossed(self):
        rng = np.random.default_rng(10)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("independence"), t_max=3, max_b=8)
        q = FptQuery(rho=1.0, psi=2.0, horizon=5, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        assert np.all(fpt_survival_recursive(tk, q).survival == 0.0)

    def test_unreachable_barrier(self):
        rng = np.random.default_rng(11)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
        q = FptQuery(rho=np.inf, psi=np.inf, horizon=5, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        assert np.allclose(fpt_survival_recursive(tk, q).survival, 1.0, atol=1e-12)

    @pytest.mark.parametrize("family,reps_j,horizon", [
        ("independence", [-0.3, 0.25], 6),
        ("gaussian", [-0.3, 0.25], 6),
        ("gaussian", [-0.35, 0.0, 0.3], 4),
    ])
    def test_matches_path_enumeration(self, family, reps_j, horizon):
        rng = np.random.default_rng(12)
        cop = CopulaSpec(family, rho=0.4) if family == "gaussian" else CopulaSpec(family)
        tk = random_triplet(rng, reps_j, [-0.5, 0.4], cop, t_max=3, max_b=8)
        i0, v0 = reps_j[-1], -0.5
        q = FptQuery(rho=1.9, psi=2.4, horizon=horizon,
                     history_j=[i0], history_v=[v0], history_t=[0])
        rec = fpt_survival_recursive(tk, q)
        orc = oracle_fpt(tk, i0, v0, 1.9, 2.4, horizon)
        assert np.abs(rec.survival - orc).max() < 1e-10
        assert np.all(np.diff(rec.survival) <= 1e-12)
        assert rec.survival[0] == 1.0

    @pytest.mark.parametrize("reps_j,horizon", [
        ([-0.3, 0.25], 6),
        ([-0.35, 0.0, 0.3], 4),
    ])
    def test_matches_path_enumeration_index_bins(self, reps_j, horizon):
        # two index bins per variable: the memo keys on the float carry-states
        rng = np.random.default_rng(12)
        tk = random_triplet(rng, reps_j, [-0.5, 0.4], CopulaSpec("gaussian", rho=0.4),
                            t_max=3, max_b=8, n_bins=2)
        i0, v0 = reps_j[-1], -0.5
        q = FptQuery(rho=1.9, psi=2.4, horizon=horizon,
                     history_j=[i0], history_v=[v0], history_t=[0])
        rec = fpt_survival_recursive(tk, q)
        orc = oracle_fpt(tk, i0, v0, 1.9, 2.4, horizon)
        assert np.abs(rec.survival - orc).max() < 1e-10

    def test_negative_initial_state_threshold_handling(self):
        # the continuation barrier divides by the true accumulation even for
        # negative held values; enumeration is the ground truth
        rng = np.random.default_rng(13)
        tk = random_triplet(rng, [-0.4, 0.3], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=-0.3), t_max=3, max_b=8)
        q = FptQuery(rho=1.5, psi=1.8, horizon=5,
                     history_j=[-0.4], history_v=[-0.5], history_t=[0])
        rec = fpt_survival_recursive(tk, q)
        orc = oracle_fpt(tk, -0.4, -0.5, 1.5, 1.8, 5)
        assert np.abs(rec.survival - orc).max() < 1e-10

    def test_history_and_backward_time(self):
        rng = np.random.default_rng(14)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=10)
        # two-entry history: the volume value held through the last event
        q = FptQuery(rho=2.0, psi=2.5, horizon=4,
                     history_j=[-0.3, 0.25], history_v=[0.4, 0.4],
                     history_t=[-2, 0])
        rec = fpt_survival_recursive(tk, q)
        assert rec.survival[0] == 1.0
        assert np.all((rec.survival >= 0) & (rec.survival <= 1))

    def test_backward_recurrence_u(self):
        rng = np.random.default_rng(15)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("independence"), t_max=4, max_b=8)
        q = FptQuery(rho=2.0, psi=2.5, horizon=5, history_j=[0.25],
                     history_v=[0.4], history_t=[0], u=2)
        rec = fpt_survival_recursive(tk, q)
        assert np.all(rec.survival[:3] == 1.0)  # no jump can land before u+1

    def test_node_budget(self):
        rng = np.random.default_rng(16)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=4, max_b=12,
                            n_bins=2)
        q = FptQuery(rho=5.0, psi=5.0, horizon=10, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        with pytest.raises(ResourceLimitError):
            fpt_survival_recursive(tk, q, max_nodes=10)

    def test_node_budget_counts_horizon_zero_children(self):
        # at horizon 1 every child of the root has horizon 0; each counts
        # against the budget, however cheaply it is solved
        rng = np.random.default_rng(16)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
        q = FptQuery(rho=5.0, psi=5.0, horizon=1, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        children = int((tk.event_value_pmf(ConditioningCell(i=1, v=1))[2][0] > 0).sum())
        assert children > 1
        fpt_survival_recursive(tk, q, max_nodes=1 + children)
        with pytest.raises(ResourceLimitError):
            fpt_survival_recursive(tk, q, max_nodes=children)

    def test_query_validation(self):
        with pytest.raises(ParameterError):
            FptQuery(rho=-1.0, psi=2.0, horizon=5)
        with pytest.raises(ParameterError):
            FptQuery(rho=2.0, psi=2.0, horizon=0)

    @pytest.mark.parametrize("history_t", [[0], [-5, 0]])
    def test_query_bounds_the_carry_sum(self, history_t):
        # the index carry sums a squared history value over at most horizon
        # + span + 1 minutes: a value whose sum stays finite runs both methods
        # without an overflow, and one just beyond is refused
        rng = np.random.default_rng(404)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
        horizon = 6
        edge = math.sqrt(np.finfo(float).max / (horizon - history_t[0] + 1))
        query = dict(rho=1.9, psi=2.4, horizon=horizon, history_t=history_t,
                     history_v=[-0.5] * len(history_t))
        for sign in (1.0, -1.0):
            with np.errstate(all="raise"):
                q = FptQuery(history_j=[0.99 * sign * edge] * len(history_t), **query)
                fpt_survival_recursive(tk, q)
                fpt_survival_mc(tk, q, n_paths=1000, seed=1)
            with pytest.raises(ParameterError, match="finite squares"):
                FptQuery(history_j=[1.01 * sign * edge] * len(history_t), **query)


class TestFptMonteCarlo:
    def test_within_three_se_of_recursion(self):
        rng = np.random.default_rng(17)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
        q = FptQuery(rho=1.9, psi=2.4, horizon=6, history_j=[0.25],
                     history_v=[-0.5], history_t=[0])
        rec = fpt_survival_recursive(tk, q)
        mc = fpt_survival_mc(tk, q, n_paths=200_000, seed=5)
        se = np.sqrt(np.maximum(rec.survival * (1 - rec.survival), 1e-12) / mc.n_paths)
        assert np.all(np.abs(mc.survival - rec.survival) <= 3.0 * se + 1e-12)
        assert np.all(mc.lower <= mc.survival) and np.all(mc.survival <= mc.upper)

    def test_unreachable_barrier_any_seed(self):
        rng = np.random.default_rng(18)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("independence"), t_max=3, max_b=8)
        for seed in (0, 1, 2):
            q = FptQuery(rho=np.inf, psi=np.inf, horizon=5, history_j=[0.25],
                         history_v=[0.4], history_t=[0])
            assert np.all(fpt_survival_mc(tk, q, 1000, seed).survival == 1.0)

    def test_non_increasing(self):
        rng = np.random.default_rng(19)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.2), t_max=3, max_b=8)
        q = FptQuery(rho=1.5, psi=1.7, horizon=8, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        res = fpt_survival_mc(tk, q, 50_000, seed=2)
        assert np.all(np.diff(res.survival) <= 1e-12)

    def test_reproducible(self):
        rng = np.random.default_rng(20)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.2), t_max=3, max_b=8)
        q = FptQuery(rho=1.5, psi=1.7, horizon=6, history_j=[0.25],
                     history_v=[0.4], history_t=[0])
        a = fpt_survival_mc(tk, q, 10_000, seed=9).survival
        b = fpt_survival_mc(tk, q, 10_000, seed=9).survival
        assert np.array_equal(a, b)

    def test_backward_recurrence_consistent_with_recursion(self):
        rng = np.random.default_rng(21)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.3), t_max=4, max_b=8)
        q = FptQuery(rho=1.8, psi=2.2, horizon=6, history_j=[0.25],
                     history_v=[0.4], history_t=[0], u=2)
        rec = fpt_survival_recursive(tk, q)
        mc = fpt_survival_mc(tk, q, n_paths=150_000, seed=3)
        se = np.sqrt(np.maximum(rec.survival * (1 - rec.survival), 1e-12) / mc.n_paths)
        assert np.all(np.abs(mc.survival - rec.survival) <= 3.0 * se + 1e-12)

    def test_z_scores_across_batches_calibrated(self, monkeypatch):
        # criterion 4's triplet and query, 20 000 paths in 7 batches: over 40
        # seeds the z-scores against the exact survival at the horizon have
        # mean within 3/sqrt(40) of 0 and a standard deviation near 1,
        # whatever the random stream
        monkeypatch.setattr(finfunc, "MC_BATCH", 3000)
        rng = np.random.default_rng(404)
        tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=3, max_b=8)
        q = FptQuery(rho=1.9, psi=2.4, horizon=6, history_j=[0.25],
                     history_v=[-0.5], history_t=[0])
        exact = fpt_survival_recursive(tk, q).survival[-1]
        assert 0.2 < exact < 0.8
        n_paths, seeds = 20_000, 40
        se = math.sqrt(exact * (1.0 - exact) / n_paths)
        z = np.array([(fpt_survival_mc(tk, q, n_paths, seed).survival[-1] - exact) / se
                      for seed in range(seeds)])
        assert abs(z.mean()) < 3.0 / math.sqrt(seeds)
        assert 0.7 <= z.std(ddof=1) <= 1.3


class TestFptStart:
    """Both methods start from one state and refuse the same starts."""

    @staticmethod
    def _refusals(tk, **query):
        refused = []
        for run in (fpt_survival_recursive, fpt_survival_mc):
            with pytest.raises(ContractViolation) as exc:
                run(tk, FptQuery(**query))
            refused.append(str(exc.value))
        return refused

    @pytest.mark.parametrize("rho", [2.0, 1.0])
    @pytest.mark.parametrize("profile, u", [([1, 0, 0, 0], 1), ([1, 4, 1], 3)],
                             ids=["all-at-one", "top-below-one"])
    def test_no_mass_beyond_u(self, rho, profile, u):
        # every cell has one waiting law: all of its mass at sojourn 1, or a
        # law whose cumulative sum tops out at 0.9999999999999999, so that
        # 1 - H(t_max) is positive but nothing lies beyond u = t_max
        tk = random_triplet(np.random.default_rng(3), [-0.3, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=len(profile))
        counts = np.broadcast_to(profile, tk.cond_wait.counts.shape).copy()
        tk = dataclasses.replace(tk, cond_wait=CondWaitDist(counts=counts))
        query = dict(rho=rho, psi=2.5, horizon=5, history_j=[0.25], history_v=[0.4],
                     history_t=[0])
        assert self._refusals(tk, u=u, **query) == ["waiting-time law has no mass beyond u"] * 2
        rec = fpt_survival_recursive(tk, FptQuery(u=u - 1, **query))
        mc = fpt_survival_mc(tk, FptQuery(u=u - 1, **query), n_paths=1000)
        assert rec.survival[0] == mc.survival[0] == (1.0 if rho > 1.0 else 0.0)

    def test_fitted_fixture_top_states(self, market_csv):
        # the cell of both top states holds two sojourns, both of one minute
        tk = fit_triplet_kernel(market_csv["r"], market_csv["v"])
        i0, v0 = tk.kernel_j.grid.representatives[-1], tk.kernel_v.grid.representatives[-1]
        query = dict(rho=1.0015, psi=20.0, horizon=3, history_j=[i0], history_v=[v0],
                     history_t=[0])
        assert len(self._refusals(tk, u=1, **query)) == 2
        assert fpt_survival_mc(tk, FptQuery(u=0, **query), n_paths=1000).survival[0] == 1.0
