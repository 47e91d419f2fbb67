"""Working-memory bounds of the loops that set the benchmark's memory peaks:
the Monte Carlo first-passage loop, whose traced peak must stay under a budget
per path of one batch and must not grow with the path count, the exact
first-passage recursion, which holds no memo on an indexed model, the index
recurrence, whose traced peak must not grow with the chain it walks, the
return series of the bars, whose peak beside its output must not grow with
the bar count, the discretized chain, whose peak beside the chain must stay
under a budget per value, the one-variable engine's recorded path, whose peak must
stay under a budget per minute, the joint fit, whose peak must stay under a
budget per value of its input and whose event table must stay under a budget
per event, the model writer, whose peak may grow by
only a budget per value added to an inverse's longest list, and the model
reader, whose peak must not grow with the inverses' run counts. tracemalloc sees
numpy's buffers, so the peaks count every array the loops hold at once."""
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import heavy_tailed_series, inverse_of, random_triplet, toy_grid
from wismc import finfunc
from wismc.copulas import CopulaSpec
from wismc.core import (IndexParams, JumpChain, discretize, estimate_kernel,
                        index_at_times, make_state_grid)
from wismc.finfunc import FptQuery, fpt_survival_mc, fpt_survival_recursive
from wismc.market_data import BarSeries, compute_returns
from wismc.serialize import dumps, load_model, save_model
from wismc.simulate import simulate_univariate
from wismc.triplet import (CondWaitDist, EmpiricalInverse, TripletKernel, fit_triplet_kernel,
                           synchronize)

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


def _bars(n_bars: int, session: int = 510) -> BarSeries:
    """``n_bars`` bars in sessions of ``session`` bars, with some zero volumes."""
    rng = np.random.default_rng(n_bars)
    volumes = rng.integers(0, 50, n_bars).astype(float)
    return BarSeries(minutes=np.arange(n_bars, dtype=np.int64) + 20000 * 1440,
                     prices=np.exp(np.cumsum(rng.normal(0.0, 1e-3, n_bars))),
                     volumes=volumes, session_open=0, session_close=1439,
                     session_starts=np.arange(0, n_bars, session, dtype=np.int64))


@pytest.mark.parametrize("kind", ["price-return", "volume-return"])
def test_compute_returns_peak_flat_in_bar_count(kind):
    # beside its output it holds a chunk of ratios as Python floats, 0.53 MB
    # at both lengths (the pairs' mask, a byte per bar, is gone by then),
    # against 1.3 and 13 MB with a session number per bar and the ratios of
    # all bars converted at once
    beside = []
    for n_bars in (20_000, 200_000):
        bars = _bars(n_bars)
        compute_returns(bars, kind)
        tracemalloc.start()
        try:
            out = compute_returns(bars, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beside.append(peak - sum(a.nbytes for a in (out.values, out.positions,
                                                     out.session_boundaries)))
    short, long = beside
    assert long - short < 0.1 * short


# the recorded path's peak per minute on a 60 000-minute series (0.69 events
# per minute) with an inverse, as ``optimize`` runs it, is 39 bytes: the
# states, the sojourns, the back-transform uniforms and what
# ``backtransform`` holds for one state at a time. Pooling every state's
# expanded sample read 49, with the back-transform's arithmetic on fresh
# arrays 71, and keeping every block of uniforms and joining them 92.
UNIVARIATE_BYTES_PER_MINUTE = 56


def test_simulate_univariate_recorded_peak_per_minute():
    r, _ = heavy_tailed_series(60_000, 1)
    grid = make_state_grid(r, 5)
    kernel = estimate_kernel(discretize(r, grid), IndexParams(lam=0.97, n_index_bins=5))
    inverse = EmpiricalInverse.from_data(r, grid)
    simulate_univariate(kernel, 1000, 0, inverse=inverse)
    peak = _traced_peak(simulate_univariate, kernel, r.size, 1, inverse=inverse)
    assert peak / r.size < UNIVARIATE_BYTES_PER_MINUTE


# beside the chain it returns, ``discretize`` peaks at 8 bytes per value of a
# 60 000-minute volume series: the state of each value. With the neighbours'
# differences, the shifted and joined copies of the change positions and the
# copy of the times it held 27.
DISCRETIZE_BYTES_PER_VALUE = 12


def test_discretize_peak_beside_chain_per_value():
    _, v = heavy_tailed_series(60_000, 3)
    grid = make_state_grid(v, 5)
    chain = discretize(v, grid)
    beside = _traced_peak(discretize, v, grid) - chain.states.nbytes - chain.times.nbytes
    assert beside / v.size < DISCRETIZE_BYTES_PER_VALUE


# the fit's peak per value of a 60 000-minute (r, v) pair is 60.2 bytes,
# while ``synchronize`` works out the volume index: both jump chains, the
# union times, both states, the return bins, the index values and a chunk of
# Python numbers. With int64 event columns and both index trajectories held
# until the waiting-time counts binned them, it read 86.2.
FIT_BYTES_PER_VALUE = 72


def test_fit_triplet_kernel_peak_per_value():
    r, v = heavy_tailed_series(60_000, 3)
    fit_triplet_kernel(r[:5000], v[:5000])
    assert _traced_peak(fit_triplet_kernel, r, v) / r.size < FIT_BYTES_PER_VALUE


# the event table holds 8 bytes per event for its time and 1 for each of its
# two states and two index bins; int64 columns held 40
TABLE_BYTES_PER_EVENT = 12


def test_event_table_bytes_per_event():
    r, v = heavy_tailed_series(60_000, 3)
    chains = [discretize(x, make_state_grid(x, 5)) for x in (r, v)]
    kernels = [estimate_kernel(chain, IndexParams()) for chain in chains]
    table = synchronize(*chains, *kernels)
    held = sum(getattr(table, name).nbytes
               for name in ("times", "j_states", "v_states", "x_bins", "w_bins"))
    assert held / len(table) <= TABLE_BYTES_PER_EVENT


# each value added to an inverse's one long list of distinct values adds 31
# bytes to save_model's peak: the run's value and count as array entries and
# the run's share of the transients while its state is written. The lists of
# Python numbers, and the whole list's text joined at once, added 138.
SAVE_BYTES_PER_RUN = 40


def test_save_model_peak_per_inverse_run(tmp_path):
    tk = random_triplet(np.random.default_rng(6), [-0.02, 0.0, 0.01, 0.03], [-1.0, 0.5],
                        CopulaSpec("independence"))
    path = tmp_path / "model.json"
    peaks = []
    for n in (20_000, 200_000):
        # state 1 of the volume grid holds every value at or above -0.25
        x = np.sort(np.random.default_rng(n).uniform(0.6, 5.0, n))
        model = dataclasses.replace(tk, inverse_v=inverse_of([np.empty(0), x],
                                                             tk.kernel_v.grid))
        save_model(model, path)
        peaks.append(_traced_peak(save_model, model, path))
    short, long = peaks
    assert (long - short) / 180_000 < SAVE_BYTES_PER_RUN


def test_load_model_peak_flat_in_run_counts(fixture_model, tmp_path):
    # the reader checks the inverses' runs as they are; expanding them into
    # samples took 8 bytes per count
    path, scaled = tmp_path / "model.json", tmp_path / "scaled.json"
    save_model(fixture_model, path)
    doc = json.loads(path.read_text())
    for name in ("inverse_j", "inverse_v"):
        doc[name]["counts"] = [[100 * n for n in c] for c in doc[name]["counts"]]
    scaled.write_text(dumps(doc))
    load_model(path)
    base, big = (_traced_peak(load_model, p) for p in (path, scaled))
    assert big - base < 0.1 * base
