"""Working-memory bounds of the two loops that set the benchmark's memory
peaks: the Monte Carlo first-passage loop, whose traced peak must stay under
a budget per path, and the index recurrence, whose traced peak must not grow
with the chain it walks. tracemalloc sees numpy's buffers, so the peaks count
every array the loops hold at once."""
import tracemalloc

import numpy as np

from conftest import toy_grid
from wismc.core import JumpChain, index_at_times
from wismc.finfunc import FptQuery, fpt_survival_mc
from wismc.triplet import fit_triplet_kernel

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
