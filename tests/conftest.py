"""Shared builders: toy grids, random kernels and triplet models, and the
bundled synthetic heavy-tailed market fixture."""
import dataclasses

import numpy as np
import pytest

from wismc.copulas import CopulaSpec
from wismc.core import IndexedKernel, JumpChain, StateGrid
from wismc.triplet import CondWaitDist, EmpiricalInverse, SignModel, TripletKernel, sample_runs


def toy_grid(reps) -> StateGrid:
    reps = np.asarray(reps, dtype=float)
    mid = (reps[:-1] + reps[1:]) / 2.0
    return StateGrid(edges=np.concatenate([[-np.inf], mid, [np.inf]]),
                     representatives=reps)


def inverse_of(samples, grid: StateGrid) -> EmpiricalInverse:
    """The inverse whose state k holds the sorted sample ``samples[k]``,
    built through the library's run helper."""
    return EmpiricalInverse.from_runs([sample_runs(s) for s in samples], grid)


def samples_of(inv: EmpiricalInverse) -> list:
    """Each state's sample, its runs expanded."""
    return [np.repeat(v, c) for v, c in zip(inv.values, inv.counts)]


def chain_values(chain: JumpChain) -> np.ndarray:
    """Representative value at each jump of ``chain``."""
    return chain.grid.representatives[chain.states]


def random_chain(rng, n_jumps=8, n_states=4, max_soj=5, scale=0.02) -> JumpChain:
    grid = toy_grid(np.sort(rng.normal(0, scale, n_states)))
    states = [int(rng.integers(n_states))]
    for _ in range(n_jumps - 1):
        nxt = int(rng.integers(n_states - 1))
        states.append(nxt if nxt < states[-1] else nxt + 1)
    times = np.concatenate([[0], np.cumsum(rng.integers(1, max_soj, n_jumps - 1))])
    return JumpChain(states=np.array(states), times=times, grid=grid)


def random_kernel(rng, reps, n_bins=1, t_max=3, index_edges=None) -> IndexedKernel:
    """Fully supported random kernel (every cell occupied, no self moves)."""
    reps = np.asarray(reps, dtype=float)
    s = reps.size
    grid = toy_grid(reps)
    counts = rng.integers(1, 30, size=(s, n_bins, s, t_max))
    for i in range(s):
        counts[i, :, i, :] = 0
    if index_edges is None:
        if n_bins == 1:
            index_edges = np.array([-np.inf, np.inf])
        else:
            index_edges = np.concatenate([[-np.inf], np.sort(rng.random(n_bins - 1)),
                                          [np.inf]])
    return IndexedKernel(grid=grid, lam=0.9, index_edges=np.asarray(index_edges),
                         counts=counts)


def bare_kernel(grid: StateGrid, lam=0.97, index_edges=(-np.inf, np.inf)) -> IndexedKernel:
    """A kernel with no counts on ``grid``: the memory and index edges that
    ``synchronize`` reads of a kernel, with nothing fitted."""
    edges = np.asarray(index_edges, dtype=float)
    s = grid.n_states
    return IndexedKernel(grid=grid, lam=lam, index_edges=edges,
                         counts=np.zeros((s, edges.size - 1, s, 1), dtype=np.int64))


def random_triplet(rng, reps_j, reps_v, copula: CopulaSpec, t_max=3, n_bins=1,
                   max_b=2, p_j=None, p_v=None) -> TripletKernel:
    """Random consistent triplet model: the per-variable kernels support every
    sojourn up to t_max + max_b so backward-shifted lookups never fall back."""
    kj = random_kernel(rng, reps_j, n_bins, t_max + max_b)
    kv = random_kernel(rng, reps_v, n_bins, t_max + max_b)
    sj, sv = len(reps_j), len(reps_v)
    cond = CondWaitDist(counts=rng.integers(1, 20, size=(sj, sv, n_bins, n_bins, t_max)))
    signs = SignModel(
        p_j=float(rng.uniform(0.2, 0.8)) if p_j is None else p_j,
        p_v=float(rng.uniform(0.2, 0.8)) if p_v is None else p_v)
    return TripletKernel(kernel_j=kj, kernel_v=kv, cond_wait=cond,
                         copula=copula, signs=signs)


def v1_document(doc: dict) -> dict:
    """The version-1 form of a model document: each empirical inverse's runs
    expanded into its raw per-state ``samples``."""
    doc = dict(doc, version=1)
    for name in ("inverse_j", "inverse_v"):
        if doc.get(name) is not None:
            doc[name] = {"samples": [
                [x for x, n in zip(values, counts) for _ in range(n)]
                for values, counts in zip(doc[name]["values"], doc[name]["counts"])]}
    return doc


def knock_out(rng, tk: TripletKernel) -> TripletKernel:
    """``tk`` with random conditioning cells, whole states and whole sojourn
    slots emptied in both kernels, and random cells and whole state pairs
    emptied in the waiting-time table, so that across draws every level of
    every fallback ladder is reached."""
    kernels = []
    for kernel in (tk.kernel_j, tk.kernel_v):
        c = kernel.counts.copy()
        c[rng.random(c.shape[:2]) < 0.3] = 0
        c[rng.random(c.shape[0]) < 0.2] = 0
        c[..., rng.random(c.shape[-1]) < 0.2] = 0
        kernels.append(dataclasses.replace(kernel, counts=c))
    c = tk.cond_wait.counts.copy()
    c[rng.random(c.shape[:4]) < 0.3] = 0
    c[rng.random(c.shape[:2]) < 0.2] = 0
    cond = dataclasses.replace(tk.cond_wait, counts=c)
    return dataclasses.replace(tk, kernel_j=kernels[0], kernel_v=kernels[1],
                               cond_wait=cond)


def heavy_tailed_series(n_minutes: int, seed: int):
    """Quantized heavy-tailed (r, v) minute returns with volatility
    clustering, activity-linked quiet spells and modulus cross-dependence."""
    rng = np.random.default_rng(seed)
    z = rng.standard_t(3, n_minutes)
    w = rng.standard_t(3, n_minutes)
    sig = np.empty(n_minutes)
    s = 1.0
    for t in range(n_minutes):
        s = 0.96 * s + 0.04 * min(abs(z[t]), 8.0) * 1.35
        sig[t] = s
    p_quiet = np.clip(0.75 - 0.38 * sig, 0.02, 0.92)
    quiet = rng.random(n_minutes) < p_quiet
    tick = 5e-4
    r = tick * np.round(4.5e-4 * sig * z / tick)
    amp = 0.8 * np.minimum(np.abs(z), 10.0) + 0.25 * np.minimum(np.abs(w), 10.0)
    vtick = 0.5
    v = vtick * np.round(0.9 * sig * amp * np.sign(rng.standard_normal(n_minutes)) / vtick)
    r[quiet] = 0.0
    v[quiet] = 0.0
    return r, v


def write_bar_csv(path, r, v, session_open=9 * 60, minutes_per_session=510,
                  start_day=20000):
    """Write bars whose within-session log changes realize (r, v); returns the
    realized series actually encoded (volume steps reflect at level bounds
    and round to integer counts)."""
    n = r.size
    lines = ["timestamp,price,volume"]
    price = 10.0
    log_vol = np.log(5000.0)
    lo, hi = np.log(50.0), np.log(5e8)
    vol_int = 5000
    real_r = np.array(r, dtype=float)
    real_v = np.array(v, dtype=float)
    k = 0
    day = start_day
    while k <= n:
        for m in range(minutes_per_session):
            if k > n:
                break
            ts = day * 1440 + session_open + m
            lines.append(f"{ts},{price!r},{vol_int}")
            if k < n:
                if r[k] != 0.0:
                    new_price = price * float(np.exp(r[k]))
                    real_r[k] = float(np.log(new_price / price))
                    price = new_price
                if v[k] != 0.0:
                    step = float(v[k])
                    cand = log_vol + step
                    if not lo <= cand <= hi:
                        cand = log_vol - step
                    if not lo <= cand <= hi:
                        cand = min(max(log_vol + step, lo), hi)
                    new_vol = max(2, int(round(np.exp(cand))))
                    real_v[k] = float(np.log(new_vol / vol_int))
                    vol_int = new_vol
                    log_vol = float(np.log(vol_int))
            k += 1
        day += 1
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return real_r, real_v


@pytest.fixture(scope="session")
def market_csv(tmp_path_factory):
    """Bundled synthetic fixture: CSV path plus the realized minute series."""
    r, v = heavy_tailed_series(30000, 42)
    path = tmp_path_factory.mktemp("data") / "fixture.csv"
    real_r, real_v = write_bar_csv(path, r, v)
    return {"path": str(path), "r": real_r, "v": real_v}
