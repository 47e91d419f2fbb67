"""Jump chains, the index process and kernel estimation, checked against
literal term-by-term oracles."""
import functools
from bisect import bisect_right

import numpy as np
import pytest

from conftest import chain_values, random_chain, toy_grid
from wismc.core import (
    IndexParams,
    JumpChain,
    StateGrid,
    discretize,
    estimate_kernel,
    index_at_times,
    make_state_grid,
    sojourn_counts,
)
from wismc.errors import ContractViolation, EstimationError, ParameterError


def oracle_index(values, times, t, lam):
    """Literal double-sum expansion: every past minute scores the holding
    state with geometric decay, plus the current-state term; normalizer is
    the geometric sum over the window span plus one."""
    pos = max(k for k in range(len(times)) if times[k] <= t)
    norm = sum(lam ** e for e in range(int(t - times[0]) + 1))
    total = 0.0
    for k in range(pos):
        for a in range(int(times[k]), int(times[k + 1])):
            total += lam ** (t - a) * values[k] ** 2 / norm
    for a in range(int(times[pos]), int(t)):
        total += lam ** (t - a) * values[pos] ** 2 / norm
    total += values[pos] ** 2 / norm
    return total


def scored_index(chain, query_times, score):
    """The index at each query time ``t`` summed term by term with a score
    ``score(value, t, a)`` of the value held at every minute ``a`` from the
    chain's first jump to ``t``, the current-state term at ``a = t``
    included: the form in which a score can read absolute time."""
    values, times = chain_values(chain).tolist(), chain.times.tolist()
    out = []
    for t in np.asarray(query_times).tolist():
        total = 0.0
        for a in range(times[0], t + 1):
            total += score(values[bisect_right(times, a) - 1], t, a)
        out.append(total)
    return np.array(out)


def shift_identical(index, chain, query_times) -> bool:
    """Whether ``index(window, times)`` gives the same bytes on the window
    translated so that its last jump sits at time zero, at the translated
    query times."""
    shift = int(chain.times[-1])
    moved = JumpChain(states=chain.states, times=chain.times - shift, grid=chain.grid)
    again = index(moved, np.asarray(query_times) - shift)
    return index(chain, query_times).tobytes() == again.tobytes()


class TestStateGrid:
    def test_make_grid_center_bin(self):
        rng = np.random.default_rng(0)
        x = rng.standard_t(3, 20000) * 1e-3
        grid = make_state_grid(x, 5)
        assert grid.n_states == 5
        assert grid.edges[2] < 0 < grid.edges[3]  # center bin brackets zero
        assert np.isinf(grid.edges[0]) and np.isinf(grid.edges[-1])

    def test_every_value_maps(self):
        grid = make_state_grid(np.random.default_rng(1).standard_normal(1000), 4)
        idx = grid.state_of([-100.0, 0.0, 100.0])
        assert idx.min() >= 0 and idx.max() < 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            StateGrid(edges=np.array([0.0, 1.0, 2.0]), representatives=np.array([0.5, 1.5]))
        with pytest.raises(ParameterError):
            StateGrid(edges=np.array([-np.inf, 1.0, 0.0, np.inf]),
                      representatives=np.array([0.0, 0.5, 1.0]))
        for edges, reps in (([-np.inf, np.nan, np.inf], [0.0, 1.0]),
                            ([-np.inf, 0.5, np.inf], [0.0, np.nan]),
                            ([-np.inf, 0.5, np.inf], [-np.inf, 1.0])):
            with pytest.raises(ParameterError):
                StateGrid(edges=np.array(edges), representatives=np.array(reps))

    def test_empty_lowest_bin_gets_a_finite_representative(self):
        # quantized, mostly non-negative data: the lowest bin's edge is the
        # least value, so the bin is empty
        x = np.round(np.random.default_rng(0).standard_t(3, 3000) * 2) * 1e-3
        x[x < 0] = 0.0
        x[::97] = -1e-3
        grid = make_state_grid(x, 5)
        assert not (grid.state_of(x) == 0).any()
        assert grid.representatives[0] == np.nextafter(grid.edges[1], -np.inf)
        assert np.array_equal(grid.state_of(grid.representatives), np.arange(5))

    @pytest.mark.parametrize("n_states", [1, 0, -3])
    def test_fewer_than_two_states_rejected(self, n_states):
        with pytest.raises(ParameterError):
            make_state_grid(np.random.default_rng(2).standard_normal(100), n_states)


class TestDiscretize:
    def test_hand_trace(self):
        grid = toy_grid([0.0, 1.0, 2.0, 3.0])
        values = grid.representatives[[2, 2, 2, 1, 1, 3]]
        chain = discretize(values, grid)
        assert list(chain.states) == [2, 1, 3]
        assert list(chain.times) == [0, 3, 5]

    def test_constant_series(self):
        grid = toy_grid([0.0, 1.0])
        chain = discretize(np.zeros(10), grid)
        assert len(chain) == 1 and chain.sojourns().size == 0

    def test_alternating(self):
        grid = toy_grid([0.0, 1.0])
        chain = discretize(np.array([0.0, 1.0] * 5), grid)
        assert np.all(chain.sojourns() == 1)

    def test_empty(self):
        chain = discretize(np.array([]), toy_grid([0.0, 1.0]))
        assert len(chain) == 0

    def test_chain_invariants_enforced(self):
        grid = toy_grid([0.0, 1.0])
        with pytest.raises(ContractViolation):
            JumpChain(states=np.array([0, 0]), times=np.array([0, 2]), grid=grid)
        with pytest.raises(ContractViolation):
            JumpChain(states=np.array([0, 1]), times=np.array([2, 2]), grid=grid)


class TestIndexProcess:
    def test_zero_states_zero_index(self):
        grid = StateGrid(edges=np.array([-np.inf, 0.5, np.inf]),
                         representatives=np.array([0.0, 0.0]))
        chain = JumpChain(states=np.array([0, 1, 0]), times=np.array([0, 2, 5]),
                          grid=grid)
        assert index_at_times(chain, [5], 0.9)[0] == 0.0

    def test_degenerate_history(self):
        grid = toy_grid([0.0, 0.7])
        chain = JumpChain(states=np.array([1]), times=np.array([0]), grid=grid)
        assert index_at_times(chain, [0], 0.9)[0] == pytest.approx(0.49)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            chain = random_chain(rng)
            lam = float(rng.uniform(0.5, 1.0))
            got = index_at_times(chain, chain.times, lam)
            for n, t in enumerate(chain.times):
                want = oracle_index(chain_values(chain), chain.times, t, lam)
                worst = max(worst, abs(got[n] - want))
        assert worst < 1e-14

    def test_time_form_matches_oracle_mid_sojourn(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            chain = random_chain(rng)
            lam = float(rng.uniform(0.5, 1.0))
            t = int(rng.integers(chain.times[0], chain.times[-1] + 4))
            got = index_at_times(chain, [t], lam)[0]
            want = oracle_index(chain_values(chain), chain.times, t, lam)
            assert got == pytest.approx(want, abs=1e-14)

    def test_coincidence_at_jump_times(self):
        # the index at every jump from one call is each jump's index from a
        # call of its own, to the last bit
        rng = np.random.default_rng(5)
        chain = random_chain(rng)
        at_jumps = index_at_times(chain, chain.times, 0.93)
        for n, t in enumerate(chain.times):
            assert index_at_times(chain, [t], 0.93)[0] == at_jumps[n]

    def test_fast_paths_match_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            chain = random_chain(rng)
            lam = float(rng.uniform(0.5, 1.0))
            traj = index_at_times(chain, chain.times, lam)
            for n, t in enumerate(chain.times):
                assert traj[n] == pytest.approx(oracle_index(chain_values(chain), chain.times, t, lam),
                                                abs=1e-12)
            qts = np.sort(rng.integers(chain.times[0], chain.times[-1] + 4, 5))
            fast = index_at_times(chain, qts, lam)
            for q, t in enumerate(qts):
                assert fast[q] == pytest.approx(oracle_index(chain_values(chain), chain.times, t, lam),
                                                abs=1e-12)

    def test_lambda_one(self):
        rng = np.random.default_rng(7)
        chain = random_chain(rng)
        got = index_at_times(chain, chain.times[-1:], 1.0)[0]
        want = oracle_index(chain_values(chain), chain.times, chain.times[-1], 1.0)
        assert got == pytest.approx(want, abs=1e-14)

    def test_monotone_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            chain = random_chain(rng)
            idx = index_at_times(chain, chain.times, float(rng.uniform(0.5, 1.0)))
            top = np.max(chain_values(chain) ** 2)
            assert np.all(idx >= 0.0) and np.all(idx <= top + 1e-12)

    def test_no_query_times(self):
        grid = toy_grid([0.0, 0.7])
        empty = JumpChain(states=np.empty(0), times=np.empty(0), grid=grid)
        got = index_at_times(empty, empty.times, 0.9)
        assert got.dtype == float and got.shape == (0,)

    def test_before_history(self):
        chain = random_chain(np.random.default_rng(9))
        with pytest.raises(ContractViolation):
            index_at_times(chain, [int(chain.times[0]) - 1], 0.9)

    def test_unsorted_query_times_refused(self):
        # the walk only moves forward: the value at 10 would be the index at 50
        chain = JumpChain(states=np.array([0, 1, 0]), times=np.array([0, 30, 100]),
                          grid=toy_grid([0.01, 0.03]))
        with pytest.raises(ContractViolation, match="sorted"):
            index_at_times(chain, [50, 10, 120], 0.9)
        # repeated times are sorted
        assert index_at_times(chain, [10, 10], 0.9).tolist() == \
            2 * index_at_times(chain, [10], 0.9).tolist()

    def test_non_integer_query_times_refused(self):
        # 10.7 would be read as 10; a float that is a whole minute is one
        chain = JumpChain(states=np.array([0, 1]), times=np.array([0, 30]),
                          grid=toy_grid([0.01, 0.03]))
        for times in ([10.7], [5.0, np.nan], [np.inf]):
            with pytest.raises(ContractViolation, match="integers"):
                index_at_times(chain, times, 0.9)
        assert index_at_times(chain, [10.0, 40.0], 0.9).tolist() == \
            index_at_times(chain, [10, 40], 0.9).tolist()

    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.0 + 1e-12, np.nan])
    def test_lambda_outside_unit_interval_refused(self, lam):
        chain = random_chain(np.random.default_rng(9))
        with pytest.raises(ParameterError):
            index_at_times(chain, chain.times, lam)

    def test_zero_state_sojourn_contributes_nothing(self):
        # mid-sojourn in a zero-valued state: only the decayed past counts,
        # and the current-state term vanishes
        grid = StateGrid(edges=np.array([-np.inf, 0.005, np.inf]),
                         representatives=np.array([0.0, 0.02]))
        chain = JumpChain(states=np.array([1, 0]), times=np.array([0, 2]),
                          grid=grid)
        t = 5  # three minutes into the zero-state sojourn
        norm = sum(0.9 ** e for e in range(t + 1))
        want = (0.9 ** 5 + 0.9 ** 4) * 0.02 ** 2 / norm
        assert index_at_times(chain, [t], 0.9)[0] == pytest.approx(want, abs=1e-15)


class TestShiftCheck:
    def test_ewma_passes_on_random_windows(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            chain = random_chain(rng)
            lam = float(rng.uniform(0.5, 1.0))
            queries = np.sort(rng.integers(chain.times[0], chain.times[-1] + 4, 5))
            for q in (chain.times, queries):
                assert shift_identical(functools.partial(index_at_times, lam=lam), chain, q)

    # the check's power: on the term-by-term form a score of elapsed time
    # passes and a score reading absolute time fails

    def test_custom_elapsed_only_score_passes(self):
        rng = np.random.default_rng(11)
        index = functools.partial(scored_index, score=lambda v, t, a: 0.8 ** (t - a) * abs(v))
        for _ in range(20):
            chain = random_chain(rng)
            assert shift_identical(index, chain, chain.times)

    def test_absolute_time_score_fails(self):
        rng = np.random.default_rng(12)
        index = functools.partial(
            scored_index, score=lambda v, t, a: 0.9 ** (t - a) * v * v * (1.0 + 0.3 * np.sin(a)))
        fails = 0
        for _ in range(20):
            chain = random_chain(rng)
            fails += not shift_identical(index, chain, chain.times)
        assert fails >= 1


class TestEstimateKernel:
    def test_single_transition(self):
        grid = toy_grid([0.0, 1.0])
        chain = JumpChain(states=np.array([0, 1]), times=np.array([0, 2]), grid=grid)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=1, t_max=4))
        assert kernel.pmf[0, 0, 1, 1] == 1.0
        cdf = np.cumsum(kernel.resolved[0, 0].sum(axis=0))
        assert cdf[1] == 1.0  # P(sojourn <= 2)
        assert cdf[0] == 0.0  # P(sojourn <= 1)

    def test_hand_counted_frequencies(self):
        grid = toy_grid([-0.01, 0.0, 0.02])
        states = np.array([0, 1, 2, 0, 2, 1, 0, 1])
        times = np.array([0, 2, 3, 7, 8, 10, 11, 15])
        chain = JumpChain(states=states, times=times, grid=grid)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=1, t_max=6))
        from collections import Counter
        oracle = Counter(zip(states[:-1], states[1:], np.diff(times)))
        for (i, j, t), n in oracle.items():
            assert kernel.counts[i, 0, j, min(t, 6) - 1] == n
        assert kernel.counts.sum() == len(states) - 1

    def test_rows_are_pmfs(self):
        rng = np.random.default_rng(13)
        chain = random_chain(rng, n_jumps=400)
        kernel = estimate_kernel(chain, IndexParams(lam=0.95, n_index_bins=3))
        sums = kernel.pmf.sum(axis=(2, 3))
        occupied = kernel.level == 0
        assert np.allclose(sums[occupied], 1.0, atol=1e-12)
        assert np.all(sums[~occupied] == 0.0)

    def test_no_zero_sojourns(self):
        rng = np.random.default_rng(14)
        chain = random_chain(rng, n_jumps=200)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=2))
        # the sojourn law's slots start at one minute and carry all the mass,
        # so the cdf at t=0 vanishes everywhere
        for i in range(kernel.grid.n_states):
            for b in range(kernel.n_index_bins):
                sojourn = kernel.resolved[i, b].sum(axis=0)
                assert sojourn.size == kernel.t_max
                assert sojourn.sum() == pytest.approx(1.0)

    def test_single_bin_degenerates_to_plain_counting(self):
        rng = np.random.default_rng(15)
        chain = random_chain(rng, n_jumps=2000, n_states=3)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=1))
        # plain semi-Markov counting oracle, no index anywhere
        t_max = kernel.t_max
        plain = np.zeros((3, 3, t_max), dtype=np.int64)
        soj = np.minimum(chain.sojourns(), t_max)
        for i, j, t in zip(chain.states[:-1], chain.states[1:], soj):
            plain[i, j, t - 1] += 1
        assert np.array_equal(kernel.counts[:, 0], plain)

    def test_sojourn_truncation_lumps_overflow(self):
        grid = toy_grid([0.0, 1.0])
        chain = JumpChain(states=np.array([0, 1, 0, 1]),
                          times=np.array([0, 1, 2, 50]), grid=grid)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=1, t_max=3))
        assert kernel.counts[0, 0, 1, 2] == 1  # the 48-minute sojourn in the top slot

    def test_fallback_ladder(self):
        rng = np.random.default_rng(16)
        chain = random_chain(rng, n_jumps=50, n_states=3)
        kernel = estimate_kernel(chain, IndexParams(lam=0.9, n_index_bins=4))
        empty = np.argwhere(kernel.level > 0)
        if empty.size:
            i, b = empty[0]
            pmf, level = kernel.resolved[i, b], kernel.level[i, b]
            assert level >= 1
            assert pmf.sum() == pytest.approx(1.0)

    def test_t_max_below_one_rejected(self):
        chain = random_chain(np.random.default_rng(17), n_jumps=20)
        for t_max in (0, -2):
            with pytest.raises(ParameterError):
                estimate_kernel(chain, IndexParams(lam=0.9, t_max=t_max))

    def test_needs_a_transition(self):
        grid = toy_grid([0.0, 1.0])
        chain = JumpChain(states=np.array([0]), times=np.array([0]), grid=grid)
        with pytest.raises(EstimationError):
            estimate_kernel(chain, IndexParams(lam=0.9))


class TestSojournCounts:
    def test_default_cap_lumps_the_top_quantile(self):
        # 199 one-minute sojourns and one of 9 minutes: the 0.995 quantile
        # is 1, so the long one shares the single slot
        sojourns = np.array([1] * 199 + [9])
        cells = (np.zeros(200, dtype=np.int64),)
        assert sojourn_counts(cells, (1,), sojourns, None).tolist() == [[200]]
