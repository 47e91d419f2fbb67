"""Working-memory bounds of the loops that set the benchmark's memory peaks:
the Monte Carlo first-passage loop, whose traced peak must stay under a budget
per path of one batch and must not grow with the path count, the exact
first-passage recursion, which holds no memo on an indexed model, and the
index recurrence, whose traced peak must not grow with the chain it walks.
tracemalloc sees numpy's buffers, so the peaks count every array the loops
hold at once."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_triplet, toy_grid
from wismc import finfunc
from wismc.copulas import CopulaSpec
from wismc.core import JumpChain, index_at_times
from wismc.finfunc import FptQuery, fpt_survival_mc, fpt_survival_recursive
from wismc.triplet import CondWaitDist, TripletKernel, fit_triplet_kernel

# the loop's peak is 192 bytes per path on the fixture model: eleven 8-byte
# path arrays, the sojourns, four 1-byte cell arrays and the draw's
# temporaries. Compacting all arrays at once reads 204, gathering a
# paths-by-moduli matrix per variable 212, and both with 8-byte cells 276.
FPT_MC_BYTES_PER_PATH = 200


def _traced_peak(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fpt_mc_peak_per_path(market_csv):
    tk = fit_triplet_kernel(market_csv["r"], market_csv["v"])
    i0, v0 = (float(k.grid.representatives[np.argmax(k.counts.sum(axis=(1, 2, 3)))])
              for k in (tk.kernel_j, tk.kernel_v))
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30,
                     history_j=[i0], history_v=[v0], history_t=[0])
    fpt_survival_mc(tk, query, n_paths=1000, seed=7)  # first-call imports and caches
    n_paths = 100_000
    peak = _traced_peak(fpt_survival_mc, tk, query, n_paths=n_paths, seed=7)
    assert peak / n_paths < FPT_MC_BYTES_PER_PATH


# a warm recursion at horizon 2 on the fixture model (5 index bins) holds
# 4 kB; with a memo keyed by the carry floats, which never hit, it held
# 608 kB (20 MB at horizon 3, whose traced run takes 10 s against 5 kB)
FPT_RECURSION_PEAK = 100_000


@pytest.fixture(scope="module")
def fixture_model(market_csv):
    return fit_triplet_kernel(market_csv["r"], market_csv["v"])


def _fixture_query(tk, horizon):
    # the start of the ``fpt`` command: each variable's most visited state
    i0, v0 = (float(k.grid.representatives[np.argmax(k.counts.sum(axis=(1, 2, 3)))])
              for k in (tk.kernel_j, tk.kernel_v))
    return FptQuery(rho=1.0015, psi=20.0, horizon=horizon,
                    history_j=[i0], history_v=[v0], history_t=[0])


def test_fpt_mc_peak_flat_in_path_count(fixture_model, monkeypatch):
    # two and eight batches of paths: the working memory is one batch's
    batch = 4000
    monkeypatch.setattr(finfunc, "MC_BATCH", batch)
    tk = fixture_model
    query = _fixture_query(tk, 30)
    fpt_survival_mc(tk, query, n_paths=1000, seed=7)
    few, many = (_traced_peak(fpt_survival_mc, tk, query, n_paths=k * batch, seed=7)
                 for k in (2, 8))
    assert many - few < 0.1 * few


def test_fpt_recursion_peak_without_memo(fixture_model):
    tk = fixture_model
    assert tk.kernel_j.n_index_bins == tk.kernel_v.n_index_bins == 5
    query = _fixture_query(tk, 2)
    fpt_survival_recursive(tk, query)  # fills the kernel's cached event laws
    assert _traced_peak(fpt_survival_recursive, tk, query) < FPT_RECURSION_PEAK


def _split_bins(tk):
    """``tk`` with each variable's one index bin split in two that hold the
    same counts: the same law, but a model the recursion keeps no memo for."""
    kernels = [dataclasses.replace(k, index_edges=np.array([-np.inf, 0.1, np.inf]),
                                   counts=np.repeat(k.counts, 2, axis=1))
               for k in (tk.kernel_j, tk.kernel_v)]
    counts = np.repeat(np.repeat(tk.cond_wait.counts, 2, axis=2), 2, axis=3)
    return dataclasses.replace(tk, kernel_j=kernels[0], kernel_v=kernels[1],
                               cond_wait=CondWaitDist(counts=counts))


def test_fpt_recursion_memo_hits_on_index_free_model(monkeypatch):
    rng = np.random.default_rng(404)
    tk = random_triplet(rng, [-0.3, 0.25], [-0.5, 0.4], CopulaSpec("gaussian", rho=0.4),
                        t_max=3, max_b=8)
    query = FptQuery(rho=1.9, psi=2.4, horizon=6, history_j=[0.25], history_v=[-0.5],
                     history_t=[0])
    calls = []
    waiting_pmf = TripletKernel.waiting_pmf
    monkeypatch.setattr(TripletKernel, "waiting_pmf",
                        lambda self, cell: calls.append(cell) or waiting_pmf(self, cell))
    counted = []
    for model in (tk, _split_bins(tk)):
        calls.clear()
        counted.append((fpt_survival_recursive(model, query).survival, len(calls)))
    (memo_surv, memo_calls), (full_surv, full_calls) = counted
    assert memo_surv.tobytes() == full_surv.tobytes()
    assert memo_calls < full_calls


def _long_chain(n_jumps: int) -> JumpChain:
    grid = toy_grid([-0.02, -0.001, 0.003, 0.01])
    return JumpChain(states=np.arange(n_jumps) % 4, times=2 * np.arange(n_jumps), grid=grid)


def test_index_at_times_peak_flat_in_chain_length():
    # the same number of queries, spread over chains 10 times apart in length
    peaks = []
    for n_jumps in (20_000, 200_000):
        chain = _long_chain(n_jumps)
        queries = np.linspace(0, chain.times[-1] + 5, 1000).astype(np.int64)
        peaks.append(_traced_peak(index_at_times, chain, queries, 0.97))
    short, long = peaks
    assert long - short < 0.1 * short
