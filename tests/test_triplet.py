"""Synchronization, the conditional waiting-time law, signs, and the
copula-coupled kernel checked against an exhaustive enumeration oracle."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bare_kernel, heavy_tailed_series, knock_out, random_triplet, toy_grid
from wismc.copulas import CopulaSpec, copula_eval
from wismc.core import JumpChain
from wismc.errors import (
    AlignmentError,
    ContractViolation,
    EstimationError,
    ParameterError,
)
from wismc.triplet import (
    CondWaitDist,
    ConditioningCell,
    SignModel,
    TripletFitConfig,
    estimate_cond_wait,
    estimate_signs,
    fit_triplet_kernel,
    quadrant_masses,
    synchronize,
    triplet_kernel_eval,
)


# ---------------------------------------------------------------------------
# enumeration oracle: exhausts moduli, signs and copula rectangle volumes


def modulus_law(kernel, i, b, tau):
    joint = kernel.pmf[i, b, :, min(tau, kernel.t_max) - 1]
    cond = joint / joint.sum()
    mods = np.abs(kernel.grid.representatives)
    uniq = np.unique(mods)
    return uniq, np.array([cond[mods == m].sum() for m in uniq])


def resolved_modulus_law(table, i, b, tau):
    """The moduli and the law of a modulus table's resolved cdf row: the law
    the fallback ladder gives the row."""
    return table.moduli, np.diff(table.cdf[i, b, min(tau, table.kernel.t_max) - 1],
                                 prepend=0.0)


def modulus_cdf(table, i, b, tau, threshold):
    """P(|next| <= threshold) read off a modulus table's resolved cdf row."""
    k = np.searchsorted(table.moduli, threshold, side="right")
    return float(table.cdf_row(i, b, tau)[k - 1]) if k else 0.0


def oracle_signed_atoms(tk, cell, t, resolved=False):
    """Every (signed j value, signed v value, probability) atom of the next
    event at sojourn t. The laws are the cell's own (level 0) counts
    normalized or, with ``resolved``, what the fallback ladders give: the
    waiting-time table's resolved row and the modulus tables' cdf rows."""
    if resolved:
        h = tk.cond_wait.resolved[cell.i, cell.v, cell.x_bin, cell.w_bin, t - 1]
        mj, pj = resolved_modulus_law(tk.modulus_j, cell.i, cell.x_bin, t + cell.b_j)
        mv, pv = resolved_modulus_law(tk.modulus_v, cell.v, cell.w_bin, t + cell.b_v)
    else:
        h = tk.cond_wait.pmf[cell.i, cell.v, cell.x_bin, cell.w_bin, t - 1]
        mj, pj = modulus_law(tk.kernel_j, cell.i, cell.x_bin, t + cell.b_j)
        mv, pv = modulus_law(tk.kernel_v, cell.v, cell.w_bin, t + cell.b_v)
    FJ = np.concatenate([[0.0], np.cumsum(pj)])
    FV = np.concatenate([[0.0], np.cumsum(pv)])
    atoms = []
    for k in range(mj.size):
        for l in range(mv.size):
            vol = (copula_eval(tk.copula, FJ[k + 1], FV[l + 1])
                   - copula_eval(tk.copula, FJ[k], FV[l + 1])
                   - copula_eval(tk.copula, FJ[k + 1], FV[l])
                   + copula_eval(tk.copula, FJ[k], FV[l]))
            sj = [(0.0, 1.0)] if mj[k] == 0 else [(mj[k], tk.signs.p_j),
                                                  (-mj[k], 1 - tk.signs.p_j)]
            sv = [(0.0, 1.0)] if mv[l] == 0 else [(mv[l], tk.signs.p_v),
                                                  (-mv[l], 1 - tk.signs.p_v)]
            for vj, qj in sj:
                for vv, qv in sv:
                    atoms.append((vj, vv, h * vol * qj * qv))
    return atoms


def oracle_eval(tk, cell, j, a, t, resolved=False):
    okj = (lambda x: x <= j) if j >= 0 else (lambda x: x < j)
    oka = (lambda x: x <= a) if a >= 0 else (lambda x: x < a)
    return sum(p for vj, vv, p in oracle_signed_atoms(tk, cell, t, resolved)
               if okj(vj) and oka(vv))


def oracle_quadrants(tk, cell, t, resolved=False):
    out = {"++": 0.0, "--": 0.0, "-+": 0.0, "+-": 0.0}
    for vj, vv, p in oracle_signed_atoms(tk, cell, t, resolved):
        key = ("+" if vj >= 0 else "-") + ("+" if vv >= 0 else "-")
        out[key] += p
    return out


def fallback_cells(seed):
    """A knocked-out random triplet model (each copula family in turn) and
    four random cells of it, each with the levels its laws took: the
    waiting-time row's and, at every sojourn, both modulus rows'."""
    rng = np.random.default_rng(seed)
    families = [CopulaSpec("independence"), CopulaSpec("gaussian", rho=-0.45),
                CopulaSpec("clayton", theta=2.2), CopulaSpec("gumbel", theta=1.8),
                CopulaSpec("t", rho=0.35, df=4.0)]
    reps_j = [-0.02, 0.0, 0.01, 0.02] if seed % 2 else [-0.02, -0.01, 0.01, 0.03]
    tk = knock_out(rng, random_triplet(rng, reps_j, [-1.0, 0.5, 1.0],
                                       families[seed % len(families)],
                                       n_bins=int(rng.integers(1, 4))))
    cells = []
    for _ in range(4):
        cell = ConditioningCell(
            i=int(rng.integers(4)), v=int(rng.integers(3)),
            x_bin=int(rng.integers(tk.kernel_j.n_index_bins)),
            w_bin=int(rng.integers(tk.kernel_v.n_index_bins)),
            b_j=int(rng.integers(0, 3)), b_v=int(rng.integers(0, 3)))
        levels = {"cond_wait": {int(tk.cond_wait.level[cell.i, cell.v, cell.x_bin,
                                                       cell.w_bin])},
                  "modulus": set()}
        for t in range(1, tk.t_max + 1):
            for table, i, b, back in ((tk.modulus_j, cell.i, cell.x_bin, cell.b_j),
                                      (tk.modulus_v, cell.v, cell.w_bin, cell.b_v)):
                slot = min(t + back, table.kernel.t_max) - 1
                levels["modulus"].add(int(table.level[i, b, slot]))
        cells.append((cell, levels))
    return tk, cells


def _chain(states, times, reps):
    return JumpChain(states=np.array(states), times=np.array(times),
                     grid=toy_grid(reps))


def _synchronize(cj, cv, x_edges=(-np.inf, np.inf), w_edges=(-np.inf, np.inf)):
    """The event table of two chains, with unfitted kernels of the given
    index edges."""
    return synchronize(cj, cv, bare_kernel(cj.grid, index_edges=x_edges),
                       bare_kernel(cv.grid, index_edges=w_edges))


class TestSynchronize:
    def test_hand_merge(self):
        cj = _chain([0, 1, 0], [0, 2, 5], [-0.01, 0.01])
        cv = _chain([1, 0, 1], [0, 3, 5], [-1.0, 1.0])
        sync = _synchronize(cj, cv)
        assert list(sync.times) == [0, 2, 3, 5]
        at3 = list(sync.times).index(3)
        assert sync.j_states[at3] == 1  # last return state at or before 3
        assert sync.v_states[at3] == 0

    def test_identical_time_sets(self):
        cj = _chain([0, 1, 0], [0, 2, 4], [-0.01, 0.01])
        cv = _chain([1, 0, 1], [0, 2, 4], [-1.0, 1.0])
        sync = _synchronize(cj, cv)
        assert list(sync.times) == [0, 2, 4]
        assert list(sync.j_states) == [0, 1, 0] and list(sync.v_states) == [1, 0, 1]

    def test_origin_is_zero(self):
        cj = _chain([0, 1], [0, 3], [-0.01, 0.01])
        cv = _chain([1, 0], [0, 7], [-1.0, 1.0])
        assert _synchronize(cj, cv).times[0] == 0

    def test_origin_mismatch(self):
        cj = _chain([0, 1], [0, 3], [-0.01, 0.01])
        cv = _chain([1, 0], [1, 7], [-1.0, 1.0])
        with pytest.raises(AlignmentError):
            _synchronize(cj, cv)


class TestCondWait:
    def _sync(self):
        cj = _chain([0, 1, 0, 1, 0], [0, 1, 2, 3, 4], [-0.01, 0.01])
        cv = _chain([1, 0, 1, 0, 1], [0, 1, 2, 3, 4], [-1.0, 1.0])
        return _synchronize(cj, cv)

    def test_unit_sojourns_degenerate(self):
        cond = estimate_cond_wait(self._sync(), t_max=3)
        occupied = cond.counts.sum(axis=4) > 0
        assert np.all(cond.pmf[occupied][:, 0] == 1.0)

    def test_hand_counts(self):
        cj = _chain([0, 1, 0], [0, 2, 5], [-0.01, 0.01])
        cv = _chain([1, 0, 1], [0, 3, 5], [-1.0, 1.0])
        sync = _synchronize(cj, cv)  # states (0,1),(1,1),(1,0); sojourns 2,1,2
        cond = estimate_cond_wait(sync, t_max=3)
        assert cond.counts[0, 1, 0, 0, 1] == 1  # (j=0, v=1) with sojourn 2
        assert cond.counts[1, 1, 0, 0, 0] == 1  # (j=1, v=1) with sojourn 1
        assert cond.counts[1, 0, 0, 0, 1] == 1  # (j=1, v=0) with sojourn 2
        assert cond.counts.sum() == 3

    def test_rows_normalized(self):
        rng = np.random.default_rng(1)
        from conftest import random_chain
        # an edge near each index's median splits it
        sync = _synchronize(random_chain(rng, 300), random_chain(rng, 250),
                            (-np.inf, 2.6e-4, np.inf), (-np.inf, 7e-5, np.inf))
        assert set(sync.x_bins) == set(sync.w_bins) == {0, 1}
        cond = estimate_cond_wait(sync)
        tot = cond.pmf.sum(axis=4)
        occ = cond.counts.sum(axis=4) > 0
        assert np.allclose(tot[occ], 1.0, atol=1e-12)


class TestSigns:
    def _sync_with_values(self, j_reps, pattern_j):
        """Synchronized chain whose return states follow ``pattern_j`` at the
        union times; repeats come from volume-only events."""
        pattern = np.asarray(pattern_j)
        n = pattern.size
        keep = np.concatenate([[0], np.flatnonzero(np.diff(pattern) != 0) + 1])
        cj = JumpChain(states=pattern[keep], times=keep, grid=toy_grid(j_reps))
        cv = JumpChain(states=np.array([k % 2 for k in range(n)]),
                       times=np.arange(n), grid=toy_grid([-1.0, 1.0]))
        return _synchronize(cj, cv)

    def test_balanced(self):
        sync = self._sync_with_values([-0.01, 0.01], [1, 1, 0, 1, 0])
        # values: +,+,-,+,- -> p_j = 3/5
        assert estimate_signs(sync).p_j == pytest.approx(0.6)

    def test_all_positive(self):
        sync = self._sync_with_values([0.005, 0.01], [0, 1, 0, 1])
        assert estimate_signs(sync).p_j == 1.0

    def test_three_quarters(self):
        sync = self._sync_with_values([-0.01, 0.01], [1, 1, 1, 0])
        assert estimate_signs(sync).p_j == pytest.approx(0.75)

    def test_zeros_excluded(self):
        sync = self._sync_with_values([0.0, 0.01], [1, 0, 1, 0])
        assert estimate_signs(sync).p_j == 1.0  # zeros carry no sign

    def test_all_zero_error(self):
        sync = self._sync_with_values([0.0, 0.0], [1, 0, 1])
        with pytest.raises(EstimationError):
            estimate_signs(sync)

    def test_domain(self):
        with pytest.raises(ContractViolation):
            SignModel(p_j=1.2, p_v=0.5)


class TestKernelEval:
    def _families(self, rng):
        yield CopulaSpec("independence")
        yield CopulaSpec("gaussian", rho=float(rng.uniform(-0.8, 0.8)))
        yield CopulaSpec("clayton", theta=float(rng.uniform(0.5, 4)))
        yield CopulaSpec("gumbel", theta=float(rng.uniform(1.0, 4)))
        yield CopulaSpec("t", rho=float(rng.uniform(-0.7, 0.7)), df=4.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        queries = 0
        for trial in range(20):
            for cop in self._families(rng):
                reps_j = sorted(rng.normal(0, 0.02, int(rng.integers(2, 5))))
                reps_v = sorted(rng.normal(0, 1.0, int(rng.integers(2, 5))))
                if trial % 3 == 0:
                    reps_j[len(reps_j) // 2] = 0.0
                tk = random_triplet(rng, reps_j, reps_v, cop)
                cell = ConditioningCell(
                    i=int(rng.integers(len(reps_j))), v=int(rng.integers(len(reps_v))),
                    b_j=int(rng.integers(0, 3)), b_v=int(rng.integers(0, 3)))
                for t in range(1, tk.t_max + 1):
                    for _ in range(3):
                        j = float(rng.choice([rng.normal(0, 0.03), np.inf, -np.inf, 0.0]))
                        a = float(rng.choice([rng.normal(0, 1.5), np.inf, 0.0]))
                        got = triplet_kernel_eval(tk, cell, j, a, t)
                        worst = max(worst, abs(got - oracle_eval(tk, cell, j, a, t)))
                        queries += 1
        assert queries >= 100
        assert worst < 1e-10

    def test_total_mass_limit(self):
        rng = np.random.default_rng(8)
        tk = random_triplet(rng, [-0.02, 0.01], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=0.4))
        cell = ConditioningCell(i=0, v=1)
        for t in range(1, tk.t_max + 1):
            h = tk.waiting_pmf(cell)[t - 1]
            assert triplet_kernel_eval(tk, cell, np.inf, np.inf, t) == pytest.approx(
                h, abs=1e-12)

    def test_independence_unit_signs_reduction(self):
        # with independent copula and both sign probabilities one, the joint
        # cdf factorizes into the two modulus cdfs
        rng = np.random.default_rng(9)
        tk = random_triplet(rng, [0.005, 0.02], [0.4, 1.2], CopulaSpec("independence"),
                            p_j=1.0, p_v=1.0)
        cell = ConditioningCell(i=0, v=0)
        for t in range(1, tk.t_max + 1):
            h = tk.waiting_pmf(cell)[t - 1]
            for j, a in [(0.005, 0.4), (0.02, 0.4), (0.005, 1.2)]:
                fj = modulus_cdf(tk.modulus_j, cell.i, cell.x_bin, t + cell.b_j, j)
                fv = modulus_cdf(tk.modulus_v, cell.v, cell.w_bin, t + cell.b_v, a)
                assert triplet_kernel_eval(tk, cell, j, a, t) == pytest.approx(
                    h * fj * fv, abs=1e-12)

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(10)
        tk = random_triplet(rng, [-0.03, -0.01, 0.02], [-1.0, 0.5],
                            CopulaSpec("gaussian", rho=-0.5))
        cell = ConditioningCell(i=1, v=0)
        for t in range(1, tk.t_max + 1):
            grid_j = [-np.inf, -0.03, -0.01, 0.0, 0.01, 0.02, np.inf]
            grid_a = [-np.inf, -1.0, 0.0, 0.5, np.inf]
            prev = -1.0
            for j in grid_j:
                val = triplet_kernel_eval(tk, cell, j, 0.5, t)
                assert val >= prev - 1e-12
                prev = val
            prev = -1.0
            for a in grid_a:
                val = triplet_kernel_eval(tk, cell, 0.02, a, t)
                assert val >= prev - 1e-12
                prev = val

    def test_quadrant_mass_conservation(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            for cop in self._families(rng):
                tk = random_triplet(rng,
                                    sorted(rng.normal(0, 0.02, 3)),
                                    sorted(rng.normal(0, 1.0, 2)), cop)
                cell = ConditioningCell(i=int(rng.integers(3)), v=int(rng.integers(2)),
                                        b_j=int(rng.integers(0, 3)),
                                        b_v=int(rng.integers(0, 3)))
                for t in range(1, tk.t_max + 1):
                    masses = quadrant_masses(tk, cell, t)
                    h = tk.waiting_pmf(cell)[t - 1]
                    assert sum(masses.values()) == pytest.approx(h, abs=1e-10)
                    oq = oracle_quadrants(tk, cell, t)
                    for key, val in masses.items():
                        assert val == pytest.approx(oq[key], abs=1e-10)
                        assert val >= -1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 3),
           b_j=st.integers(0, 3), b_v=st.integers(0, 3),
           cop=st.one_of(
               st.just(CopulaSpec("independence")),
               st.floats(-0.9, 0.9).map(lambda r: CopulaSpec("gaussian", rho=r)),
               st.floats(0.2, 8.0).map(lambda th: CopulaSpec("clayton", theta=th)),
               st.floats(1.0, 8.0).map(lambda th: CopulaSpec("gumbel", theta=th)),
               st.tuples(st.floats(-0.9, 0.9), st.floats(2.0, 30.0)).map(
                   lambda a: CopulaSpec("t", rho=a[0], df=a[1]))))
    def test_event_law_sums_to_waiting_law(self, seed, n_bins, b_j, b_v, cop):
        # the exact FPT recursion splits each sojourn slot over its event
        # block: a block must hold exactly that slot's waiting-time mass, and
        # the law all of the mass
        rng = np.random.default_rng(seed)
        reps_j = sorted(rng.normal(0, 0.02, int(rng.integers(2, 5))))
        reps_v = sorted(rng.normal(0, 1.0, int(rng.integers(2, 5))))
        tk = random_triplet(rng, reps_j, reps_v, cop, n_bins=n_bins, max_b=3)
        for i in range(len(reps_j)):
            for v in range(len(reps_v)):
                for xb in range(n_bins):
                    for wb in range(n_bins):
                        cell = ConditioningCell(i=i, v=v, x_bin=xb, w_bin=wb,
                                                b_j=b_j, b_v=b_v)
                        event = tk.event_value_pmf(cell)[2]
                        assert np.abs(event.sum(axis=(1, 2))
                                      - tk.waiting_pmf(cell)).max() <= 1e-12
                        assert abs(event.sum() - 1.0) <= 1e-12


class TestFallbackCells:
    def test_closed_forms_match_the_ladder_oracle(self):
        # cells the fit never saw read the laws the fallback ladders give,
        # in the closed forms as in the samplers
        reached = {"cond_wait": set(), "modulus": set()}
        worst = 0.0
        for seed in range(15):
            tk, cells = fallback_cells(seed)
            for cell, levels in cells:
                for key in reached:
                    reached[key] |= levels[key]
                for t in range(1, tk.t_max + 1):
                    for j in (-np.inf, -0.01, 0.0, 0.015, np.inf):
                        for a in (-0.7, 0.0, 0.5, np.inf):
                            got = triplet_kernel_eval(tk, cell, j, a, t)
                            want = oracle_eval(tk, cell, j, a, t, resolved=True)
                            worst = max(worst, abs(got - want))
                    want = oracle_quadrants(tk, cell, t, resolved=True)
                    for key, val in quadrant_masses(tk, cell, t).items():
                        worst = max(worst, abs(val - want[key]))
        assert worst < 1e-10
        assert reached == {"cond_wait": {0, 1, 2}, "modulus": {0, 1, 2, 3, 4}}


def _law(counts):
    """Counts normalized; uniform when the whole table is empty, the one case
    where a ladder takes a law that has no mass."""
    total = counts.sum()
    return counts / total if total > 0 else np.full(counts.shape, 1.0 / counts.size)


class TestFallbackLadder:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 3),
           t_max=st.integers(1, 4), n_j=st.integers(2, 5), n_v=st.integers(2, 4))
    def test_resolved_rows_are_the_ladder_laws(self, seed, n_bins, t_max, n_j, n_v):
        # every table, with random cells, states and sojourn slots emptied:
        # rows are laws, level 0 is exactly the observed cells, and a row at
        # level k is the level-k law computed from the counts
        rng = np.random.default_rng(seed)
        reps_j = np.sort(rng.choice(np.arange(-3, 4), n_j, replace=False)) * 0.01
        reps_v = np.sort(rng.choice(np.arange(-3, 4), n_v, replace=False)) * 0.5
        tk = knock_out(rng, random_triplet(rng, reps_j, reps_v, CopulaSpec("independence"),
                                           t_max=t_max, n_bins=n_bins))
        for kernel, table in ((tk.kernel_j, tk.modulus_j), (tk.kernel_v, tk.modulus_v)):
            c = kernel.counts
            assert np.abs(kernel.resolved.sum(axis=(2, 3)) - 1.0).max() <= 1e-12
            assert np.array_equal(kernel.level == 0, c.sum(axis=(2, 3)) > 0)
            for (i, b), k in np.ndenumerate(kernel.level):
                want = _law([c[i, b], c[i].sum(axis=0), c.sum(axis=(0, 1))][k])
                assert np.abs(kernel.resolved[i, b] - want).max() <= 1e-12
            moduli, state_mod = kernel.grid.moduli()
            assert np.array_equal(table.level == 0, c.sum(axis=2) > 0)
            assert np.all(np.diff(table.cdf, axis=-1) >= -1e-12)
            for (i, b, t), k in np.ndenumerate(table.level):
                rows = [c[i, b, :, t], c[i, :, :, t].sum(axis=0),
                        c[:, :, :, t].sum(axis=(0, 1)), c[i].sum(axis=(0, 2)),
                        c.sum(axis=(0, 1, 3))]
                want = np.bincount(state_mod, weights=_law(rows[k]),
                                   minlength=moduli.size)
                assert np.abs(table.cdf[i, b, t] - np.cumsum(want)).max() <= 1e-12
        cw = tk.cond_wait
        c = cw.counts
        assert np.abs(cw.resolved.sum(axis=4) - 1.0).max() <= 1e-12
        assert np.array_equal(cw.level == 0, c.sum(axis=4) > 0)
        for (i, v, xb, wb), k in np.ndenumerate(cw.level):
            want = _law([c[i, v, xb, wb], c[i, v].sum(axis=(0, 1)),
                         c.sum(axis=(0, 1, 2, 3))][k])
            assert np.abs(cw.resolved[i, v, xb, wb] - want).max() <= 1e-12


class TestLookups:
    def test_cell_for_matches_array_lookups(self):
        # the scalar path against the array lookups it stands in for:
        # support values, mirrored and off-grid values, and index values on
        # the bin edges themselves
        rng = np.random.default_rng(12)
        tk = random_triplet(rng, [-0.02, 0.0, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("independence"), n_bins=3)
        values_j = np.concatenate([tk.modulus_j.support, rng.normal(0, 0.03, 20), [-0.0]])
        values_v = np.concatenate([tk.modulus_v.support, rng.normal(0, 1.0, 20)])
        index = np.concatenate([tk.kernel_j.index_edges, tk.kernel_v.index_edges,
                                rng.random(30), [-1.0, 2.0]])
        for _ in range(300):
            i_val, v_val = float(rng.choice(values_j)), float(rng.choice(values_v))
            xj, wv = float(rng.choice(index)), float(rng.choice(index))
            want = ConditioningCell(
                i=int(tk.modulus_j.states(i_val)), v=int(tk.modulus_v.states(v_val)),
                x_bin=int(tk.kernel_j.index_bin(xj)), w_bin=int(tk.kernel_v.index_bin(wv)),
                b_j=1, b_v=2)
            assert tk.cell_for(i_val, v_val, xj, wv, 1, 2) == want


class TestFitPipeline:
    def test_fit_on_fixture(self):
        r, v = heavy_tailed_series(12000, 3)
        tk = fit_triplet_kernel(r, v, TripletFitConfig(n_states_r=5, n_states_v=5,
                                                       n_index_bins=2))
        assert tk.copula.family == "gaussian"
        assert tk.copula.rho > 0.2
        assert 0.3 < tk.signs.p_j < 0.7
        assert tk.kernel_j.grid.n_states == 5
        occ = tk.cond_wait.counts.sum(axis=4) > 0
        assert np.allclose(tk.cond_wait.pmf.sum(axis=4)[occ], 1.0, atol=1e-12)

    def test_cond_wait_must_match_the_kernels(self):
        rng = np.random.default_rng(3)
        tk = random_triplet(rng, [-0.02, 0.01, 0.03], [-1.0, 0.5],
                            CopulaSpec("independence"), n_bins=2)
        counts = tk.cond_wait.counts
        with pytest.raises(ParameterError):
            CondWaitDist(counts=counts[..., 0])
        with pytest.raises(ContractViolation):
            dataclasses.replace(tk, cond_wait=CondWaitDist(counts=counts[1:]))

    def test_misaligned_series(self):
        with pytest.raises(AlignmentError):
            fit_triplet_kernel(np.zeros(100), np.zeros(99))
