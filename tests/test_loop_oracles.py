"""Byte-identity of the list-based per-element loops (``simulate_univariate``
and ``simulate_path``, whose back-transforms now run after their loops over
the whole path, ``index_at_times`` at a chain's jumps and at other times,
``compute_returns``, also chunk by chunk), the grid search that builds each
state count's grid, chain and inverse once and every kernel before its first
replication, the mask version of ``value_wait_pairs``, the event table that
``synchronize`` builds (its jump times merged by a sort in place, its states
and index bins in small integer types) and the waiting-time counts, sign
probabilities and copula pairs the fit reads off it, the in-place
arithmetic of ``backtransform``, the model writer that formats long lists a
slice at a time and writes arrays, the shared fallback-ladder resolver,
the column-wise ``load_bars``, ``bin_of``'s search of the inner edges
without clamps, the signed-value tables that each variable's
modulus table builds once, the live-paths-only Monte Carlo loop of
``fpt_survival_mc``, also run batch after batch on one stream, and the
sampling step it shares with ``simulate_path``
(a waiting-time cdf table, modulus positions counted a column at a time,
the drawn values' states carried from round to round) against the versions
they replaced, which are kept below as oracles. Every comparison is exact:
same shape and the same bits, and the same dtype where the loop built a new
array."""
import csv
import dataclasses
import json
import math
import re
import warnings
from bisect import bisect_right
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bare_kernel,
    chain_values,
    heavy_tailed_series,
    knock_out,
    random_chain,
    random_kernel,
    random_triplet,
    samples_of,
    inverse_of,
    toy_grid,
)
from wismc import core, finfunc, market_data, optimize, serialize
from wismc.copulas import CopulaSpec, sample_copula
from wismc.core import (
    IndexParams,
    JumpChain,
    StateGrid,
    advance_carry,
    discretize,
    estimate_kernel,
    index_at_times,
    make_state_grid,
)
from wismc.errors import (AlignmentError, EstimationError, OrderingError, ParameterError,
                          ParseError, WismcError)
from wismc.finfunc import FptQuery, _fpt_start, fpt_survival_mc
from wismc.market_data import (
    MINUTES_PER_DAY,
    BarSeries,
    ReturnSeries,
    _parse_minute,
    _parse_session,
    compute_returns,
    autocorrelation,
    load_bars,
    value_wait_pairs,
)
from wismc.optimize import GridSpec, OptResult, grid_search, mape
from wismc.serialize import dumps, load_model, save_model, triplet_to_dict
from wismc.simulate import (SimConfig, SynthPath, backtransform, simulate_path,
                            simulate_univariate)
from wismc.triplet import (
    EmpiricalInverse,
    SyncChain,
    TripletFitConfig,
    estimate_cond_wait,
    estimate_signs,
    fit_triplet_kernel,
    synchronize,
)

# ---------------------------------------------------------------------------
# oracles: the loops as they were before they moved off numpy scalars


def oracle_backtransform(state, u, inv):
    """The per-draw back-transform that the array ``backtransform`` replaced."""
    sample = samples_of(inv)[state]
    if sample.size == 0:
        warnings.warn(f"state {state} has no sample; using representative value")
        return float(inv.grid.representatives[state])
    if sample.size == 1:
        return float(sample[0])
    pos = u * (sample.size - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, sample.size - 1)
    frac = pos - lo
    return float(sample[lo] * (1.0 - frac) + sample[hi] * frac)


def oracle_array_backtransform(states, u, inv):
    """The array ``backtransform`` whose arithmetic made a fresh array per
    step."""
    states, u = np.asarray(states, dtype=np.int64), np.asarray(u, dtype=float)
    samples = samples_of(inv)
    seen = np.bincount(states, minlength=len(samples)) > 0
    pool = []
    for k, x in enumerate(samples):
        if not x.size and seen[k]:
            warnings.warn(f"state {k} has no sample; using representative value")
            x = inv.grid.representatives[k:k + 1]
        pool.append(x)
    sizes = np.array([x.size for x in pool])
    first = (np.cumsum(sizes) - sizes)[states]
    top = sizes[states] - 1
    at = u * top
    frac = at - np.floor(at)
    lo = np.floor(at).astype(np.int64)
    x = np.concatenate(pool, dtype=float)
    return x[first + lo] * (1.0 - frac) + x[first + np.minimum(lo + 1, top)] * frac


def oracle_continuous_value(value, state, rng, inv, grid, mode):
    if mode == "representative" or inv is None:
        return float(value)
    drawn = oracle_backtransform(int(state), float(rng.random()), inv)
    rep = grid.representatives[int(state)]
    if value != 0.0 and np.sign(rep) != 0 and np.sign(value) != np.sign(rep):
        return -drawn
    return drawn


def oracle_cells_of(tk, i_val, v_val, wj, dj, wv, dv):
    """``TripletKernel.cells_of`` as it was when every call searched the
    nearest support value of each path's values."""
    return (tk.modulus_j.states(i_val), tk.modulus_v.states(v_val),
            core.bin_of(tk.kernel_j.index_edges, (wj + i_val * i_val) / dj),
            core.bin_of(tk.kernel_v.index_edges, (wv + v_val * v_val) / dv))


def oracle_draw_sojourns(tk, rng, cells, u=0):
    """``TripletKernel.draw_sojourns`` as it was when each call summed its
    cells' waiting laws."""
    i_state, v_state, xb, wb = cells
    cdf = np.cumsum(tk.cond_wait.resolved[i_state, v_state, xb, wb], axis=1)
    base = cdf[:, min(u, tk.t_max) - 1] if u >= 1 else 0.0
    uni = base + rng.random(i_state.size) * (cdf[:, -1] - base)
    slot = (cdf < uni[:, None]).sum(axis=1)
    return np.minimum(slot, tk.t_max - 1) + 1


def oracle_draw_next_values(tk, rng, cells, bj, bv, soj):
    """``TripletKernel.draw_next_values`` as it was when it gathered a
    paths-by-moduli matrix of cdf rows per variable and returned the values
    alone."""
    i_state, v_state, xb, wb = cells
    n = i_state.size
    u_j, u_v = sample_copula(tk.copula, n, rng)
    out = []
    for mod, state, kb, back, u in ((tk.modulus_j, i_state, xb, bj, u_j),
                                    (tk.modulus_v, v_state, wb, bv, u_v)):
        rows = mod.cdf[state, kb, np.minimum(soj + back, mod.kernel.t_max) - 1]
        pos = (rows < u[:, None]).sum(axis=1)
        out.append(mod.moduli[np.minimum(pos, mod.moduli.size - 1)])
    sign_j = np.where(rng.random(n) < tk.signs.p_j, 1.0, -1.0)
    sign_v = np.where(rng.random(n) < tk.signs.p_v, 1.0, -1.0)
    return (np.where(out[0] == 0.0, 0.0, sign_j * out[0]),
            np.where(out[1] == 0.0, 0.0, sign_v * out[1]))


def oracle_simulate_path(tk, cfg):
    """``simulate_path`` as it was when each event filled its minutes of r
    and v, drawing a moved value's continuous value in the loop."""
    rng = np.random.default_rng(cfg.seed)
    bt_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    length = cfg.length_minutes
    if cfg.initial is not None:
        i_state, v_state = cfg.initial.i, cfg.initial.v
        b_j, b_v = cfg.initial.b_j, cfg.initial.b_v
    else:
        marg = tk.cond_wait.counts.sum(axis=(2, 3, 4)).astype(float)
        if marg.sum() <= 0:
            marg = np.ones_like(marg)
        flat = rng.choice(marg.size, p=(marg / marg.sum()).ravel())
        i_state, v_state = np.unravel_index(flat, marg.shape)
        b_j = b_v = 0
    i_val = tk.kernel_j.grid.representatives[[i_state]]
    v_val = tk.kernel_v.grid.representatives[[v_state]]
    wj, dj = np.zeros(1), np.ones(1)
    wv, dv = np.zeros(1), np.ones(1)
    r = np.empty(length)
    v = np.empty(length)
    keys = ("n", "time", "j_state", "v_state", "b_j", "b_v",
            "x_bin", "w_bin", "j_value", "v_value")
    ev = {k: [] for k in keys}
    moved_j = moved_v = True
    t = 0
    n_event = 0
    fallbacks = 0
    forced = 0
    while t < length:
        cells = oracle_cells_of(tk, i_val, v_val, wj, dj, wv, dv)
        i_state, v_state, xb, wb = (int(c[0]) for c in cells)
        if moved_j:
            cur_r = oracle_continuous_value(i_val[0], i_state, bt_rng, tk.inverse_j,
                                            tk.kernel_j.grid, cfg.backtransform)
        if moved_v:
            cur_v = oracle_continuous_value(v_val[0], v_state, bt_rng, tk.inverse_v,
                                            tk.kernel_v.grid, cfg.backtransform)
        fallbacks += bool(tk.cond_wait.level[i_state, v_state, xb, wb] > 0)
        for key, val in zip(keys, (n_event, t, i_state, v_state, b_j, b_v, xb, wb,
                                   float(i_val[0]), float(v_val[0]))):
            ev[key].append(val)
        soj = oracle_draw_sojourns(tk, rng, cells)
        new_j, new_v = oracle_draw_next_values(tk, rng, cells, b_j, b_v, soj)
        wj, dj = advance_carry(tk.kernel_j.lam, wj, dj, i_val, soj)
        wv, dv = advance_carry(tk.kernel_v.lam, wv, dv, v_val, soj)
        step = int(soj[0])
        r[t:t + step] = cur_r
        v[t:t + step] = cur_v
        moved_j = bool(new_j[0] != i_val[0])
        moved_v = bool(new_v[0] != v_val[0])
        forced += not (moved_j or moved_v)
        b_j = 0 if moved_j else b_j + step
        b_v = 0 if moved_v else b_v + step
        i_val, v_val = new_j, new_v
        t += step
        n_event += 1
    with np.errstate(over="ignore"):
        S = cfg.s0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
        V = cfg.v0 * np.exp(np.concatenate([[0.0], np.cumsum(v)]))
    events = {k: np.asarray(vals) for k, vals in ev.items()}
    return SynthPath(r=r, v=v, S=S, V=V, events=events,
                     fallback_events=fallbacks, forced_holds=forced)


def oracle_simulate_univariate(kernel, minutes, seed, inverse=None,
                               initial_state=None, n_events=None):
    if minutes is None and n_events is None:
        raise ParameterError("give minutes or n_events")
    rng = np.random.default_rng(seed)
    s, nb, _, t_max = kernel.pmf.shape
    flat = np.empty((s, nb, s * t_max))
    for i in range(s):
        for b in range(nb):
            flat[i, b] = np.cumsum(kernel.resolved[i, b].ravel())
    if initial_state is None:
        occupancy = kernel.counts.sum(axis=(1, 2, 3)).astype(float)
        if occupancy.sum() <= 0:
            occupancy = np.ones(s)
        state = int(rng.choice(s, p=occupancy / occupancy.sum()))
    else:
        state = int(initial_state)
    reps = kernel.grid.representatives
    w, d = 0.0, 1.0
    t = 0
    out = np.empty(minutes) if minutes is not None else None
    states, times = [], []
    while (minutes is None or t < minutes) and (n_events is None
                                                or len(states) < n_events):
        states.append(state)
        times.append(t)
        x = (w + reps[state] * reps[state]) / d
        b = int(kernel.index_bin(x))
        pos = int(np.searchsorted(flat[state, b], rng.random(), side="left"))
        pos = min(pos, s * t_max - 1)
        nxt, soj = pos // t_max, pos % t_max + 1
        if out is not None:
            if inverse is not None:
                val = oracle_backtransform(state, float(rng.random()), inverse)
            else:
                val = float(reps[state])
            out[t:min(t + soj, minutes)] = val
        w, d = advance_carry(kernel.lam, w, d, reps[state], soj)
        state = int(nxt)
        t += soj
    if out is not None:
        out = out[:min(t, minutes)]
    return out, np.asarray(states, dtype=np.int64), np.asarray(times, dtype=np.int64)


def oracle_bin_of(edges, x):
    pos = np.searchsorted(edges, np.asarray(x, dtype=float), side="right") - 1
    return np.minimum(np.maximum(pos, 0), edges.size - 2)


def oracle_index_trajectory(chain, lam):
    values, times = chain_values(chain), chain.times
    out = np.empty(len(chain))
    w, d = 0.0, 1.0
    for n in range(len(chain)):
        if n > 0:
            w, d = advance_carry(lam, w, d, values[n - 1], int(times[n] - times[n - 1]))
        out[n] = (w + values[n] * values[n]) / d
    return out


def oracle_index_at_times(chain, query_times, lam):
    query_times = np.asarray(query_times, dtype=np.int64)
    values, times = chain_values(chain), chain.times
    out = np.empty(query_times.size)
    w, d = 0.0, 1.0
    pos = 0
    now = int(times[0])
    for qi, t in enumerate(query_times):
        t = int(t)
        while pos + 1 < len(chain) and times[pos + 1] <= t:
            w, d = advance_carry(lam, w, d, values[pos], int(times[pos + 1]) - now)
            now = int(times[pos + 1])
            pos += 1
        if t > now:
            w, d = advance_carry(lam, w, d, values[pos], t - now)
            now = t
        out[qi] = (w + values[pos] * values[pos]) / d
    return out


def oracle_event_columns(chain_j, chain_v, kernel_j, kernel_v):
    """The per-event columns the fit formed before the event table: the union
    of the jump times by ``np.union1d``, each variable's state (int64) by a
    search of its chain's times, and each variable's index at every union
    time."""
    if len(chain_j) == 0 or len(chain_v) == 0:
        raise AlignmentError("cannot synchronize an empty chain")
    if chain_j.times[0] != chain_v.times[0]:
        raise AlignmentError("chains must share their time origin")
    times = np.union1d(chain_j.times, chain_v.times)
    states = [chain.states[np.searchsorted(chain.times, times, side="right") - 1]
              for chain in (chain_j, chain_v)]
    index = [index_at_times(chain, times, kernel.lam)
             for chain, kernel in ((chain_j, kernel_j), (chain_v, kernel_v))]
    return times, states, index


def oracle_synchronize(chain_j, chain_v, kernel_j, kernel_v):
    """The event table from those columns: each transition's bins by
    ``bin_of`` on the index at its start, and the states and bins cast to
    the smallest integer type that holds them."""
    times, (js, vs), (ij, iv) = oracle_event_columns(chain_j, chain_v, kernel_j, kernel_v)

    def small(x, n):
        return x.astype(np.min_scalar_type(n - 1))

    return SyncChain(
        times=times,
        j_states=small(js, chain_j.grid.n_states),
        v_states=small(vs, chain_v.grid.n_states),
        x_bins=small(core.bin_of(kernel_j.index_edges, ij[:-1]), kernel_j.n_index_bins),
        w_bins=small(core.bin_of(kernel_v.index_edges, iv[:-1]), kernel_v.n_index_bins),
        kernel_j=kernel_j,
        kernel_v=kernel_v,
    )


def oracle_event_fit(chain_j, chain_v, kernel_j, kernel_v, t_max):
    """What the fit read off those columns before the event table: the
    waiting-time counts of the binned index values (None without a
    transition), each variable's sign probability as ``np.mean(nz > 0)`` over
    its values at the events (None when they are all zero), and the copula's
    pairs, the values' moduli after the origin."""
    times, (js, vs), (ij, iv) = oracle_event_columns(chain_j, chain_v, kernel_j, kernel_v)
    kj, kv = kernel_j, kernel_v
    counts = None
    if times.size >= 2:
        soj = np.diff(times)
        if t_max is None:
            t_max = max(int(np.quantile(soj, core.SOJOURN_QUANTILE)), 1)
        counts = np.zeros((kj.grid.n_states, kv.grid.n_states, kj.n_index_bins,
                           kv.n_index_bins, t_max), dtype=np.int64)
        np.add.at(counts, (js[:-1], vs[:-1], core.bin_of(kj.index_edges, ij[:-1]),
                           core.bin_of(kv.index_edges, iv[:-1]),
                           np.minimum(soj, t_max) - 1), 1)
    values = [kj.grid.representatives[js], kv.grid.representatives[vs]]
    signs = []
    for vals in values:
        nz = vals[vals != 0.0]
        signs.append(float(np.mean(nz > 0)) if nz.size else None)
    return counts, signs, [np.abs(vals[1:]) for vals in values]


def oracle_compute_returns(series, kind="price-return"):
    x = series.prices if kind == "price-return" else series.volumes
    session = np.zeros(len(series), dtype=np.int64)
    for s, start in enumerate(series.session_starts):
        session[start:] = s
    values, positions, boundaries = [], [], []
    skipped = 0
    for t in range(1, len(x)):
        if session[t] != session[t - 1]:
            if values:
                boundaries.append(len(values) - 1)
            continue
        if kind == "volume-return" and (x[t] <= 0 or x[t - 1] <= 0):
            skipped += 1
            continue
        values.append(math.log(x[t] / x[t - 1]))
        positions.append(t)
    if values:
        boundaries.append(len(values) - 1)
    return ReturnSeries(values=np.array(values), kind=kind,
                        session_boundaries=np.array(boundaries, dtype=np.int64),
                        positions=np.array(positions, dtype=np.int64),
                        skipped_pairs=skipped)


def oracle_grid_search(values, spec, seed=0):
    """The grid search that built the grid, the chain and the inverse anew
    at every (s, lam)."""
    values = np.asarray(values, dtype=float)
    real_acf = autocorrelation(np.abs(values), spec.max_lag)
    records = []
    best_by_s = {}
    for s in sorted(spec.state_counts):
        for lam in spec.lambdas:
            rec = {"s": int(s), "lam": float(lam), "mape": None,
                   "failed": False, "error": None}
            try:
                grid = make_state_grid(values, s)
                chain = discretize(values, grid)
                kernel = estimate_kernel(
                    chain, IndexParams(lam=lam, n_index_bins=spec.n_index_bins))
                inverse = EmpiricalInverse.from_data(values, grid)
                acfs = []
                for rep in range(spec.reps_per_point):
                    child = np.random.SeedSequence(
                        [seed, s, rep, int(round(lam * 10 ** 9))]).generate_state(1)[0]
                    r_syn, _, _ = simulate_univariate(kernel, values.size, int(child),
                                                      inverse=inverse)
                    acfs.append(autocorrelation(np.abs(r_syn), spec.max_lag))
                rec["mape"] = mape(real_acf, np.mean(acfs, axis=0), spec.max_lag)
            except WismcError as exc:
                rec["failed"] = True
                rec["error"] = str(exc)
            records.append(rec)
        scored = [r["mape"] for r in records if r["s"] == s and not r["failed"]]
        if scored:
            best_by_s[s] = min(scored)
        earlier = [v for k, v in best_by_s.items() if k < s]
        if spec.epsilon is not None and earlier and s in best_by_s:
            if min(earlier) - best_by_s[s] < spec.epsilon:
                break
    done = [r for r in records if not r["failed"]]
    best = min(done, key=lambda r: r["mape"]) if done else None
    return OptResult(records=records, best=best)


@dataclasses.dataclass(frozen=True)
class Bar:
    minute: int
    price: float
    volume: int


def oracle_load_bars(path, session=None, columns=None):
    """The per-row ``csv.DictReader`` loader that ``load_bars`` replaced;
    returns the bars, the session starts and the excluded-row count in place
    of a ``BarSeries``."""
    session_open, session_close = _parse_session(session)
    colmap = {"timestamp": "timestamp", "price": "price", "volume": "volume"}
    if columns:
        colmap.update(columns)
    bars = []
    excluded = 0
    last_minute = None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("missing header row", 1)
        for want in colmap.values():
            if want not in reader.fieldnames:
                raise ParseError(f"missing column {want!r}", 1)
        for line_no, row in enumerate(reader, start=2):
            minute = _parse_minute(row[colmap["timestamp"]], line_no)
            try:
                price = float(row[colmap["price"]])
                volume = int(float(row[colmap["volume"]]))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad numeric field in {row!r}", line_no) from exc
            if price <= 0:
                raise ParseError(f"non-positive price {price}", line_no)
            if volume < 0:
                raise ParseError(f"negative volume {volume}", line_no)
            if last_minute is not None and minute <= last_minute:
                raise OrderingError(
                    f"line {line_no}: timestamp not strictly increasing")
            last_minute = minute
            mod = minute % MINUTES_PER_DAY
            if not session_open <= mod <= session_close:
                excluded += 1
                continue
            bars.append(Bar(minute=minute, price=price, volume=volume))
    if excluded:
        warnings.warn(f"excluded {excluded} rows outside session hours")
    days = np.array([b.minute // MINUTES_PER_DAY for b in bars])
    if days.size:
        starts = np.concatenate([[0], np.flatnonzero(np.diff(days) != 0) + 1])
    else:
        starts = np.empty(0, dtype=np.int64)
    return bars, starts.astype(np.int64), excluded


def oracle_value_wait_pairs(r: ReturnSeries):
    x = r.values
    ends = set(int(b) for b in r.session_boundaries)
    values, waits = [], []
    start = 0
    for t in range(1, x.size + 1):
        boundary = (t == x.size) or (t - 1 in ends)
        if boundary or x[t] != x[t - 1]:
            if t - start >= 1 and not (t == x.size or t - 1 in ends):
                # run ended by a genuine value change
                values.append(x[start])
                waits.append(t - start)
            start = t
    return np.array(values), np.array(waits, dtype=np.int64)


def oracle_kernel_ladder(kernel):
    """IndexedKernel's fallback ladder as it was written out in the class:
    (resolved pmf, levels, state pmf, global pmf)."""
    s = kernel.grid.n_states
    cell_total = kernel.counts.sum(axis=(2, 3))
    state_tot = kernel.counts.sum(axis=(1, 2, 3), keepdims=False)
    state_pmf = np.zeros((s, s, kernel.t_max))
    pooled = kernel.counts.sum(axis=1)
    nz = state_tot > 0
    state_pmf[nz] = pooled[nz] / state_tot[nz, None, None]
    g = kernel.counts.sum(axis=(0, 1))
    global_pmf = g / g.sum() if g.sum() > 0 else np.full((s, kernel.t_max), 1.0 / (s * kernel.t_max))

    def cell_pmf(i, b):
        if cell_total[i, b] > 0:
            return kernel.pmf[i, b], 0
        if state_pmf[i].sum() > 0:
            return state_pmf[i], 1
        return global_pmf, 2

    resolved = np.empty(kernel.pmf.shape)
    level = np.empty(cell_total.shape, dtype=np.int64)
    for i in range(s):
        for b in range(kernel.n_index_bins):
            resolved[i, b], level[i, b] = cell_pmf(i, b)
    return resolved, level, state_pmf, global_pmf


def oracle_cond_wait_ladder(cond):
    """CondWaitDist's fallback ladder and resolved_cube(): (cube, levels)."""
    tot = cond.counts.sum(axis=(2, 3, 4))
    pooled = cond.counts.sum(axis=(2, 3))
    pair_pmf = np.zeros(pooled.shape, dtype=float)
    nz = tot > 0
    pair_pmf[nz] = pooled[nz] / tot[nz, None]
    g = cond.counts.sum(axis=(0, 1, 2, 3))
    global_pmf = g / g.sum() if g.sum() > 0 else np.full(cond.t_max, 1.0 / cond.t_max)

    def cell_pmf(i, v, xb, wb):
        if cond.counts[i, v, xb, wb].sum() > 0:
            return cond.pmf[i, v, xb, wb], 0
        if pair_pmf[i, v].sum() > 0:
            return pair_pmf[i, v], 1
        return global_pmf, 2

    cube = cond.pmf.copy()
    level = np.zeros(cond.counts.shape[:4], dtype=np.int64)
    empty = cond.counts.sum(axis=4) == 0
    for i, v, xb, wb in zip(*np.nonzero(empty)):
        cube[i, v, xb, wb], level[i, v, xb, wb] = cell_pmf(i, v, xb, wb)
    return cube, level


def oracle_modulus_cdf(kernel, state_pmf, global_pmf):
    """_ModulusTable's triple loop: (cdf cube, rows on the sojourn-free law)."""
    moduli, state_mod = kernel.grid.moduli()
    s, b, _, t_max = kernel.pmf.shape
    k = moduli.size
    fold = np.zeros((s, b, t_max, k))
    for j in range(s):
        fold[:, :, :, state_mod[j]] += kernel.pmf[:, :, j, :]
    state_fold = np.zeros((s, t_max, k))
    glob_fold = np.zeros((t_max, k))
    for j in range(s):
        state_fold[:, :, state_mod[j]] += state_pmf[:, j, :]
        glob_fold[:, state_mod[j]] += global_pmf[j, :]
    cdf = np.empty((s, b, t_max, k))
    fallback_cells = 0
    for i in range(s):
        uncond = state_fold[i].sum(axis=0)
        if uncond.sum() <= 0:
            uncond = glob_fold.sum(axis=0)
        uncond = uncond / uncond.sum()
        for xb in range(b):
            for t in range(t_max):
                row = fold[i, xb, t]
                tot = row.sum()
                if tot <= 0:
                    row, tot = state_fold[i, t], state_fold[i, t].sum()
                if tot <= 0:
                    row, tot = glob_fold[t], glob_fold[t].sum()
                if tot <= 0:
                    row, tot = uncond, 1.0
                    fallback_cells += 1
                cdf[i, xb, t] = np.cumsum(row / tot)
    cdf[..., -1] = 1.0
    return cdf, fallback_cells


def oracle_signed_support(moduli: np.ndarray) -> np.ndarray:
    """triplet._signed_support, rebuilt on every event_value_pmf call."""
    vals = set()
    for m in moduli:
        if m == 0.0:
            vals.add(0.0)
        else:
            vals.add(m)
            vals.add(-m)
    return np.array(sorted(vals))


def oracle_sign_matrix(moduli: np.ndarray, p: float) -> np.ndarray:
    """triplet._sign_matrix, rebuilt for every sojourn slot of every new
    cell. Map modulus positions onto the signed support: row k gives the
    distribution of the signed value for modulus k."""
    support = oracle_signed_support(moduli)
    out = np.zeros((moduli.size, support.size))
    for k, m in enumerate(moduli):
        if m == 0.0:
            out[k, np.searchsorted(support, 0.0)] = 1.0
        else:
            out[k, np.searchsorted(support, m)] = p
            out[k, np.searchsorted(support, -m)] = 1.0 - p
    return out


def oracle_resolution(kernel, support):
    """triplet.ModelView._resolution, rebuilt by every engine call."""
    reps = kernel.grid.representatives
    out = np.empty(support.size, dtype=np.int64)
    for k, val in enumerate(support):
        exact = np.flatnonzero(reps == val)
        if exact.size:
            out[k] = exact[0]
            continue
        mirror = np.flatnonzero(np.abs(reps) == abs(val))
        out[k] = mirror[0] if mirror.size else int(np.argmin(np.abs(reps - val)))
    return out


def oracle_fpt_survival_mc(tk, query, n_paths, seed, batch=None):
    """The Monte Carlo loop over an ``alive`` mask of all paths, with its
    start taken from the shared helper, run on ``batch`` paths at a time
    (all at once by default), batch after batch on one Generator; returns
    (survival, lower, upper) over the crossing times of every batch."""
    rng = np.random.default_rng(seed)
    batch = batch or n_paths
    cross_at = np.concatenate([oracle_fpt_crossings(tk, query, min(batch, n_paths - k), rng)
                               for k in range(0, n_paths, batch)])
    grid = np.arange(query.horizon + 1)
    surv = (cross_at[None, :] > grid[:, None]).mean(axis=1)
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 0.0) / n_paths)
    return surv, np.clip(surv - 3.0 * se, 0.0, 1.0), np.clip(surv + 3.0 * se, 0.0, 1.0)


def oracle_fpt_crossings(tk, query, n_paths, rng):
    """Each path's crossing time (the int64 maximum if it never crossed)
    from the Monte Carlo loop over an ``alive`` mask of all paths."""
    horizon = query.horizon
    i0, v0, (wj0, dj0), (wv0, dv0), b_j0, b_v0 = _fpt_start(tk, query)

    n = n_paths
    i_val = np.full(n, i0)
    v_val = np.full(n, v0)
    wj = np.full(n, wj0)
    dj = np.full(n, dj0)
    wv = np.full(n, wv0)
    dv = np.full(n, dv0)
    bj = np.full(n, b_j0, dtype=np.int64)
    bv = np.full(n, b_v0, dtype=np.int64)
    log_j = np.zeros(n)
    log_v = np.zeros(n)
    t_now = np.zeros(n, dtype=np.int64)
    cross_at = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    lr, lp = math.log(query.rho), math.log(query.psi)
    first_round = True
    while np.any(alive):
        ids = np.flatnonzero(alive)
        cells = oracle_cells_of(tk, i_val[ids], v_val[ids], wj[ids], dj[ids],
                                wv[ids], dv[ids])
        soj = oracle_draw_sojourns(tk, rng, cells, u=query.u if first_round else 0)
        first_round = False
        # crossing during the stretch: positive held values accumulate
        for vals, logs, lim in ((i_val, log_j, lr), (v_val, log_v, lp)):
            mask = vals[ids] > 0
            pos = ids[mask]
            if pos.size:
                end = logs[pos] + vals[pos] * soj[mask]
                hit = end >= lim
                if np.any(hit):
                    need = np.ceil((lim - logs[pos][hit]) / vals[pos][hit]).astype(np.int64)
                    at = t_now[pos][hit] + need
                    cross_at[pos[hit]] = np.minimum(cross_at[pos[hit]], at)
        log_j[ids] += i_val[ids] * soj
        log_v[ids] += v_val[ids] * soj
        t_now[ids] += soj
        done = cross_at[ids] <= horizon
        beyond = t_now[ids] > horizon
        alive[ids[done | beyond]] = False
        keep = ~(done | beyond)
        live = ids[keep]
        if live.size == 0:
            break
        soj_live = soj[keep]
        nj, nv = oracle_draw_next_values(tk, rng, tuple(c[keep] for c in cells),
                                         bj[live], bv[live], soj_live)
        wj[live], dj[live] = advance_carry(tk.kernel_j.lam, wj[live], dj[live],
                                           i_val[live], soj_live)
        wv[live], dv[live] = advance_carry(tk.kernel_v.lam, wv[live], dv[live],
                                           v_val[live], soj_live)
        bj[live] = np.where(nj != i_val[live], 0, bj[live] + soj_live)
        bv[live] = np.where(nv != v_val[live], 0, bv[live] + soj_live)
        i_val[live], v_val[live] = nj, nv
    return cross_at


def assert_identical(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()  # bitwise: -0.0 and 0.0 differ


# ---------------------------------------------------------------------------
# simulate_univariate


def _fitted(seed, n_states, lam, n_bins):
    r, _ = heavy_tailed_series(4000, seed)
    grid = make_state_grid(r, n_states)
    kernel = estimate_kernel(discretize(r, grid),
                             IndexParams(lam=lam, n_index_bins=n_bins))
    return kernel, EmpiricalInverse.from_data(r, grid)


RUNS = [
    dict(minutes=3000),
    dict(minutes=3000, inverse=True),
    dict(minutes=None, n_events=400),
    dict(minutes=None, n_events=400, inverse=True),
    dict(minutes=5000, n_events=150, inverse=True),
    dict(minutes=0),
]


# runs that cross blocks of uniforms: 4096 events per block, whether a path
# draws one uniform per event or two (a recorded path with an inverse)
BLOCK_RUNS = [
    dict(minutes=20000),
    dict(minutes=20000, inverse=True),
    dict(minutes=None, n_events=4096),
    dict(minutes=None, n_events=4097),
    dict(minutes=None, n_events=8193),
    dict(minutes=40000, n_events=4097, inverse=True),
    dict(minutes=40000, n_events=8193, inverse=True),
]


def _check_runs(kernel, inverse, seed, runs=RUNS):
    for run in runs:
        kw = dict(run, inverse=inverse if run.get("inverse") else None)
        want = oracle_simulate_univariate(kernel, seed=seed, **kw)
        got = simulate_univariate(kernel, seed=seed, **kw)
        for a, b in zip(want, got):
            assert_identical(a, b)


@pytest.mark.parametrize("lam", [0.9, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_univariate_fitted(seed, lam):
    kernel, inverse = _fitted(seed, 5 + 2 * (seed % 2), lam, 6)
    # several index bins on a short series: some cells fall back
    assert (kernel.level > 0).any()
    _check_runs(kernel, inverse, seed)


@pytest.mark.parametrize("lam", [0.97, 1.0])
def test_simulate_univariate_across_blocks(lam):
    kernel, inverse = _fitted(8, 5, lam, 4)
    _check_runs(kernel, inverse, 8, BLOCK_RUNS)


@pytest.mark.parametrize("lam", [0.9, 1.0])
@pytest.mark.parametrize("seed", [3, 4])
def test_simulate_univariate_random_kernel(seed, lam):
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, [-0.02, -0.004, 0.0, 0.01], n_bins=3, t_max=4,
                           index_edges=np.array([-np.inf, 1e-5, 1e-4, np.inf]))
    kernel = dataclasses.replace(kernel, lam=lam)
    grid = kernel.grid
    values = rng.normal(0.0, 0.02, 500)
    _check_runs(kernel, EmpiricalInverse.from_data(values, grid), seed)


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_simulate_univariate_recorded_paths_seeds(seed):
    # recorded paths over several blocks of uniforms, with an inverse (whose
    # back-transform uniforms are kept block by block) and without one
    kernel, inverse = _fitted(seed, 3 + seed % 3, 0.97, 5)
    runs = [dict(minutes=m, inverse=inv) for m in (1, 9000, 17000) for inv in (True, False)]
    _check_runs(kernel, inverse, seed, runs)


def test_simulate_univariate_fallback_and_thin_samples():
    rng = np.random.default_rng(5)
    kernel = random_kernel(rng, [-0.02, 0.0, 0.015], n_bins=2, t_max=3,
                           index_edges=np.array([-np.inf, 1e-4, np.inf]))
    counts = kernel.counts.copy()
    counts[0, 1] = 0  # state-level fallback
    counts[2] = 0  # global fallback
    kernel = dataclasses.replace(kernel, counts=counts)
    assert kernel.level[0, 1] == 1 and kernel.level[2, 0] == 2
    # an empty sample (representative, with a warning) and a single value,
    # which is taken bit for bit, -0.0 included
    grid = toy_grid([-0.02, 0.0, 0.015])
    inverse = inverse_of([np.array([-0.03, -0.02, -0.01]), np.array([]), np.array([0.02])],
                         grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _check_runs(kernel, inverse, 6)
    with pytest.warns(UserWarning, match="state 1 has no sample"):
        simulate_univariate(kernel, 3000, seed=6, inverse=inverse)
    signed_zero = inverse_of([np.array([-0.03]), np.array([-0.0]), np.array([0.0, 0.02])],
                             grid)
    _check_runs(kernel, signed_zero, 6)


def test_simulate_univariate_index_on_edge():
    # index values that land exactly on an index edge or one unit in the
    # last place below it, so a last-bit change in the carry arithmetic, up
    # or down, moves the event to the other bin's law
    rng = np.random.default_rng(7)
    one = random_kernel(rng, [-0.02, -0.004, 0.003, 0.01], n_bins=1, t_max=4)
    other = random_kernel(rng, [-0.02, -0.004, 0.003, 0.01], n_bins=1, t_max=4)
    _, states, times = oracle_simulate_univariate(one, None, seed=8, n_events=80)
    x = oracle_index_trajectory(JumpChain(states=states, times=times, grid=one.grid),
                                one.lam)
    # up to a running maximum x[k], every earlier index lies in bin 0 and
    # draws from ``one``'s law, so the path reaches x[k] exactly
    records = [k for k in range(1, x.size) if x[k] > x[:k].max()]
    assert len(records) >= 5
    for k, edge in [(k, e) for k in records for e in (x[k], np.nextafter(x[k], np.inf))]:
        kernel = dataclasses.replace(
            one, index_edges=np.array([-np.inf, edge, np.inf]),
            counts=np.concatenate([one.counts, other.counts], axis=1))
        for kw in (dict(minutes=None, n_events=k + 20), dict(minutes=int(times[k]) + 60)):
            want = oracle_simulate_univariate(kernel, seed=8, **kw)
            got = simulate_univariate(kernel, seed=8, **kw)
            for a, b in zip(want, got):
                assert_identical(a, b)


@pytest.mark.parametrize("lam", [1e-200, 0.9, 1.0])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_simulate_univariate_overflowing_index(seed, lam):
    # representatives of about +-1e200, whose squares overflow: the index
    # goes to inf, and to NaN where a step's decay underflows to zero
    # (0 * inf), which only lam = 1e-200 reaches; both take the last bin
    rng = np.random.default_rng(seed)
    big = 1e200 * (1.0 + rng.random())
    kernel = random_kernel(rng, [-big, -0.004, 0.003, big], n_bins=3, t_max=3,
                           index_edges=np.array([-np.inf, 1e-5, 1e-4, np.inf]))
    kernel = dataclasses.replace(kernel, lam=lam)
    values = np.concatenate([rng.normal(0.0, 0.02, 500), [-1.5 * big, 1.2 * big]])
    with np.errstate(over="ignore", invalid="ignore"):  # the oracles' numpy scalars
        _, states, times = oracle_simulate_univariate(kernel, None, seed=seed, n_events=300)
        x = oracle_index_trajectory(JumpChain(states=states, times=times, grid=kernel.grid),
                                    lam)
        assert np.isinf(x).any() and np.isnan(x).any() == (lam < 1e-100)
        _check_runs(kernel, EmpiricalInverse.from_data(values, kernel.grid), seed)


@pytest.mark.parametrize("seed", [31, 32])
def test_simulate_univariate_row_top_below_one(seed):
    # cumulative rows whose top lies below 1.0, as rounding can leave it: a
    # uniform above the top takes the row's last position
    rng = np.random.default_rng(seed)
    kernel = random_kernel(rng, [-0.02, -0.004, 0.003, 0.01], n_bins=2, t_max=3,
                           index_edges=np.array([-np.inf, 1e-4, np.inf]))
    scale = np.where(rng.random((4, 2)) < 0.5, 1.0 - 2.0 ** -52, rng.uniform(0.5, 0.9, (4, 2)))
    kernel.resolved = kernel.resolved * scale[:, :, None, None]
    _, states, times = oracle_simulate_univariate(kernel, None, seed=seed, n_events=400)
    # the last position is the last state after the longest sojourn
    last = (np.diff(times) == kernel.t_max) & (states[1:] == 3)
    assert last.sum() > 20
    _check_runs(kernel, EmpiricalInverse.from_data(rng.normal(0.0, 0.02, 500), kernel.grid),
                seed)


# ---------------------------------------------------------------------------
# simulate_path, whose continuous values come after its loop


@pytest.fixture(scope="module")
def fixture_models(market_csv):
    """The fits of the fixture's bars, in which every event moves both
    values, and of the series the bars were written from, in which a value
    also holds while the other moves."""
    r, v = heavy_tailed_series(30000, 42)
    return {"bars": fit_triplet_kernel(market_csv["r"], market_csv["v"]),
            "series": fit_triplet_kernel(r, v)}


def _same_path(tk, cfg):
    want, got = oracle_simulate_path(tk, cfg), simulate_path(tk, cfg)
    for name in ("r", "v", "S", "V"):
        assert_identical(getattr(want, name), getattr(got, name))
    for key, values in want.events.items():
        assert_identical(values, got.events[key])
    assert (want.fallback_events, want.forced_holds) == (got.fallback_events,
                                                         got.forced_holds)
    return got


def _mirrored(tk, events):
    """Events whose j value has the other sign than its state's representative."""
    rep = tk.kernel_j.grid.representatives[events["j_state"]]
    value = events["j_value"]
    return (value != 0.0) & (np.sign(rep) != 0) & (np.sign(value) != np.sign(rep))


def _holds(events):
    """Whether some event keeps the j value and some the v value."""
    return all((np.diff(events[key]) == 0).any() for key in ("j_value", "v_value"))


@pytest.mark.parametrize("mode", ["empirical", "representative"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("source", ["bars", "series"])
def test_simulate_path_fitted_fixture(fixture_models, source, mode, seed):
    tk = fixture_models[source]
    got = _same_path(tk, SimConfig(length_minutes=2000 + 500 * seed, seed=seed,
                                   backtransform=mode))
    assert _mirrored(tk, got.events).any()
    assert _holds(got.events) == (source == "series")


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_simulate_path_without_volume_inverse(fixture_models, seed):
    _same_path(dataclasses.replace(fixture_models["series"], inverse_v=None),
               SimConfig(length_minutes=2500, seed=seed))


def test_simulate_path_thin_samples(fixture_models):
    # state 0, the one whose values are mirrored, has no sample (its
    # representative, negated where mirrored, with a warning) and the zero
    # state a single -0.0, which is taken bit for bit
    model = fixture_models["series"]
    samples = samples_of(model.inverse_j)
    samples[0], samples[2] = np.array([]), np.array([-0.0])
    inverse = inverse_of(samples, model.kernel_j.grid)
    tk = dataclasses.replace(model, inverse_j=inverse)
    cfg = SimConfig(length_minutes=2500, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _same_path(tk, cfg)
    states = got.events["j_state"]
    assert _mirrored(tk, got.events).any() and (states == 2).any() and _holds(got.events)
    assert (np.signbit(got.r) & (got.r == 0.0)).any()
    with pytest.warns(UserWarning, match="state 0 has no sample"):
        simulate_path(tk, cfg)


# ---------------------------------------------------------------------------
# index_at_times, at a chain's jumps and at other times


@pytest.mark.parametrize("lam", [0.5, 0.97, 1.0])
def test_index_loops_random_chains(lam):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_jumps=int(rng.integers(1, 40)))
        assert_identical(oracle_index_trajectory(chain, lam),
                         index_at_times(chain, chain.times, lam))
        queries = np.unique(rng.integers(0, int(chain.times[-1]) + 6, 25))
        assert_identical(oracle_index_at_times(chain, queries, lam),
                         index_at_times(chain, queries, lam))
        assert_identical(oracle_index_at_times(chain, queries[:0], lam),
                         index_at_times(chain, queries[:0], lam))


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_index_loops_across_chunks(monkeypatch, chunk):
    # chains and query arrays several chunks long, queries repeated, between
    # jumps, at jumps and after the last jump
    monkeypatch.setattr(core, "INDEX_CHUNK", chunk)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_jumps=int(rng.integers(1, 3 * chunk + 12)))
        lam = float(rng.choice([0.5, 0.97, 1.0]))
        assert_identical(oracle_index_trajectory(chain, lam),
                         index_at_times(chain, chain.times, lam))
        queries = np.sort(rng.integers(0, int(chain.times[-1]) + 6, 4 * chunk + 5))
        assert_identical(oracle_index_at_times(chain, queries, lam),
                         index_at_times(chain, queries, lam))
        after = chain.times[-1] + np.arange(1, 2 * chunk + 2)
        assert_identical(oracle_index_at_times(chain, after, lam),
                         index_at_times(chain, after, lam))
        # each time between two jumps, chunk + 1 times over, so that most
        # chunk boundaries of the queries fall between two equal times
        between = np.repeat(chain.times[:-1][np.diff(chain.times) > 1] + 1, chunk + 1)
        assert_identical(oracle_index_at_times(chain, between, lam),
                         index_at_times(chain, between, lam))


@pytest.mark.parametrize("lam", [1e-200, 0.5, 1.0])
def test_index_loops_overflowing_squares(lam):
    # representatives of about +-1e200: the index overflows to inf, and
    # turns NaN where a step's decay underflows to zero (0 * inf), which
    # lam = 1e-200 reaches at two minutes and lam = 0.5 at some 1 100
    found = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        chain = random_chain(rng, n_jumps=30, max_soj=1500, scale=1e200)
        queries = np.unique(rng.integers(0, int(chain.times[-1]) + 1500, 60))
        with np.errstate(over="ignore", invalid="ignore"):  # the oracles' numpy scalars
            want = oracle_index_at_times(chain, queries, lam)
            jumps = oracle_index_trajectory(chain, lam)
        assert_identical(jumps, index_at_times(chain, chain.times, lam))
        assert_identical(want, index_at_times(chain, queries, lam))
        found.update(np.isinf(want) * 1 + np.isnan(want) * 2)
    assert 1 in found and (2 in found) == (lam < 1.0)


def test_index_loops_fitted_chain():
    r, _ = heavy_tailed_series(20000, 11)
    chain = discretize(r, make_state_grid(r, 5))
    lam = 0.97
    assert_identical(oracle_index_trajectory(chain, lam),
                     index_at_times(chain, chain.times, lam))
    queries = np.arange(0, r.size, 3)
    assert_identical(oracle_index_at_times(chain, queries, lam),
                     index_at_times(chain, queries, lam))


# ---------------------------------------------------------------------------
# bin_of, a search of the inner edges without clamps, and the one-variable
# engine's bisection of the same

# edge values with zeros of both signs, subnormals and infinities; drawing
# from a few values makes repeated edges common
BIN_EDGE_VALUES = st.one_of(
    st.sampled_from([-np.inf, -1e300, -2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324,
                     0.3, 1.0, 7.0, 1e300, np.inf]),
    st.floats(-1e3, 1e3))


@st.composite
def bin_cases(draw):
    n = draw(st.integers(2, 8))
    edges = sorted(draw(st.lists(BIN_EDGE_VALUES, min_size=n, max_size=n)))
    if draw(st.booleans()):
        edges[0] = -np.inf
    if draw(st.booleans()):
        edges[-1] = np.inf
    edges = np.array(edges, dtype=float)
    values = np.concatenate([edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf),
                             [-np.inf, np.inf, np.nan, -0.0, 0.0]])
    return edges, values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bin_cases())
def test_bin_of_drawn_edges(case):
    edges, values = case
    assert_identical(oracle_bin_of(edges, values), core.bin_of(edges, values))
    inner, listed = edges[1:-1].tolist(), edges.tolist()
    for x in values.tolist():
        want, got = oracle_bin_of(edges, x), core.bin_of(edges, x)
        assert type(got) is type(want) and got == want
        assert_identical(oracle_bin_of(edges, np.array(x)), core.bin_of(edges, np.array(x)))
        assert bisect_right(inner, x) == core.scalar_bin(listed, x)


# ---------------------------------------------------------------------------
# synchronize


def _same_sync(chain_j, chain_v, kernel_j, kernel_v):
    want = oracle_synchronize(chain_j, chain_v, kernel_j, kernel_v)
    got = synchronize(chain_j, chain_v, kernel_j, kernel_v)
    for field in dataclasses.fields(SyncChain):
        a, b = getattr(want, field.name), getattr(got, field.name)
        if field.name.startswith("kernel"):
            assert a is b
        else:
            assert_identical(a, b)
    return got


def _random_bare_kernel(rng, chain):
    """An unfitted kernel on ``chain``'s grid, with a random memory and up to
    three random inner index edges among its squared values."""
    inner = np.unique(rng.uniform(0.0, np.max(chain.grid.representatives ** 2),
                                  int(rng.integers(0, 4))))
    return bare_kernel(chain.grid, lam=float(rng.choice([0.5, 0.97, 1.0])),
                       index_edges=np.concatenate([[-np.inf], inner, [np.inf]]))


def test_synchronize_random_chains():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        chain_j = random_chain(rng, n_jumps=1 if seed == 0 else int(rng.integers(1, 60)))
        chain_v = random_chain(rng, n_jumps=int(rng.integers(1, 60)),
                               max_soj=int(rng.integers(2, 8)))
        kernel_j, kernel_v = (_random_bare_kernel(rng, c) for c in (chain_j, chain_v))
        _same_sync(chain_j, chain_v, kernel_j, kernel_v)
        # identical jump times, other states
        _same_sync(chain_j, JumpChain(states=random_chain(rng, len(chain_j)).states,
                                      times=chain_j.times, grid=chain_v.grid),
                   kernel_j, kernel_v)


def test_synchronize_fixture_chains(market_csv):
    chains = [discretize(x, make_state_grid(x, 5)) for x in (market_csv["r"], market_csv["v"])]
    kernels = [estimate_kernel(chain, IndexParams()) for chain in chains]
    _same_sync(*chains, *kernels)
    _same_sync(*chains[::-1], *kernels[::-1])


@st.composite
def event_cases(draw):
    """Two jump chains that share their origin, each on a grid of 2-5 states
    spaced 0.05 apart (a zero state among them at times), with an unfitted
    kernel of its own memory and 0-3 inner index edges, and a sojourn cap."""
    origin = draw(st.integers(0, 50))
    pairs = []
    for _ in range(2):
        n_states = draw(st.integers(2, 5))
        reps = sorted(draw(st.lists(st.integers(-40, 40), min_size=n_states,
                                    max_size=n_states, unique=True)))
        grid = toy_grid(np.array(reps) / 20.0)
        states = [draw(st.integers(0, n_states - 1))]
        sojourns = draw(st.lists(st.integers(1, 6), max_size=30))
        for _ in sojourns:
            nxt = draw(st.integers(0, n_states - 2))
            states.append(nxt if nxt < states[-1] else nxt + 1)
        chain = JumpChain(states=np.array(states),
                          times=origin + np.concatenate([[0], np.cumsum(sojourns)]),
                          grid=grid)
        inner = np.unique(draw(st.lists(st.floats(0.0, 4.0), max_size=3)))
        kernel = bare_kernel(grid, lam=draw(st.sampled_from([0.5, 0.9, 0.97, 1.0])),
                             index_edges=np.concatenate([[-np.inf], inner, [np.inf]]))
        pairs.append((chain, kernel))
    return pairs, draw(st.none() | st.integers(1, 5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(event_cases())
def test_event_table_feeds_the_fit_as_its_columns_did(case):
    # the waiting-time counts, sign probabilities and copula pairs read off
    # the table equal those of the columns it replaced, bit for bit
    ((chain_j, kernel_j), (chain_v, kernel_v)), t_max = case
    table = _same_sync(chain_j, chain_v, kernel_j, kernel_v)
    counts, signs, pairs = oracle_event_fit(chain_j, chain_v, kernel_j, kernel_v, t_max)
    if counts is None:
        with pytest.raises(EstimationError):
            estimate_cond_wait(table, t_max)
    else:
        assert_identical(counts, estimate_cond_wait(table, t_max).counts)
    if None in signs:
        with pytest.raises(EstimationError):
            estimate_signs(table)
    else:
        got = estimate_signs(table)
        assert (got.p_j, got.p_v) == tuple(signs)
    for want, got in zip(pairs, table.moduli()):
        assert_identical(want, got)


# ---------------------------------------------------------------------------
# compute_returns

DAY = 20000 * 1440


def _series(sessions):
    """BarSeries from per-session lists of (price, volume)."""
    minutes, rows, starts = [], [], []
    for day, session in enumerate(sessions):
        starts.append(len(rows))
        minutes += [DAY + day * 1440 + 540 + k for k in range(len(session))]
        rows += session
    prices = np.array([p for p, _ in rows], dtype=float)
    volumes = np.array([v for _, v in rows], dtype=float)
    return BarSeries(minutes=np.array(minutes, dtype=np.int64), prices=prices,
                     volumes=volumes, session_open=540, session_close=1050,
                     session_starts=np.array(starts, dtype=np.int64))


def _same_returns(series):
    for kind in ("price-return", "volume-return"):
        want = oracle_compute_returns(series, kind)
        got = compute_returns(series, kind)
        for field in ("values", "positions", "session_boundaries"):
            assert_identical(getattr(want, field), getattr(got, field))
        assert got.skipped_pairs == want.skipped_pairs
        assert type(got.skipped_pairs) is int


def test_compute_returns_edge_sessions():
    rng = np.random.default_rng(12)

    def session(n, zero_at=()):
        prices = np.exp(np.cumsum(rng.normal(0.0, 1e-3, n))) * 10.0
        volumes = rng.integers(1, 900, n)
        volumes[list(zero_at)] = 0
        return list(zip(prices.tolist(), volumes.tolist()))

    _same_returns(_series([]))  # no bars
    _same_returns(_series([session(1)]))  # one bar
    _same_returns(_series([session(1), session(4)]))  # no pairs first
    _same_returns(_series([session(5), session(1), session(1), session(6)]))
    _same_returns(_series([session(6, zero_at=(0, 3)), session(4, zero_at=(3,)),
                           session(2, zero_at=(0, 1)), session(7)]))
    _same_returns(_series([session(3, zero_at=(0, 1, 2)), session(1)]))


def test_compute_returns_fixture(market_csv):
    from wismc.market_data import load_bars
    bars = load_bars(market_csv["path"])
    assert bars.session_starts.size > 1
    _same_returns(bars)


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_compute_returns_across_chunks(monkeypatch, chunk):
    # series several chunks long, with sessions shorter and longer than a
    # chunk, one-bar sessions and zero volumes at chunk edges
    monkeypatch.setattr(market_data, "RETURNS_CHUNK", chunk)
    rng = np.random.default_rng(chunk)

    def session(n):
        prices = np.exp(np.cumsum(rng.normal(0.0, 1e-3, n))) * 10.0
        volumes = rng.integers(0, 4, n)
        return list(zip(prices.tolist(), volumes.tolist()))

    for _ in range(10):
        _same_returns(_series([session(int(k)) for k in rng.integers(1, 4 * chunk + 6, 6)]))
    _same_returns(_series([session(chunk), session(1), session(chunk + 1)]))


# ---------------------------------------------------------------------------
# load_bars


def _loaded(load, path, **kw):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = load(path, **kw)
    return out, [str(w.message) for w in caught]


def _same_load(path, **kw):
    _assert_same_load(_loaded(oracle_load_bars, path, **kw), _loaded(load_bars, path, **kw))


def _assert_same_load(want, got):
    """The oracle's and load_bars's (result, warnings) hold the same bars."""
    (bars, starts, excluded), want_warnings = want
    got, got_warnings = got
    assert_identical(np.array([b.minute for b in bars], dtype=np.int64), got.minutes)
    assert_identical(np.array([b.price for b in bars], dtype=float), got.prices)
    assert_identical(np.array([b.volume for b in bars], dtype=float), got.volumes)
    assert_identical(starts, got.session_starts)
    assert got.excluded_rows == excluded and type(got.excluded_rows) is int
    assert got_warnings == want_warnings
    assert np.signbit(got.volumes).sum() == 0  # int() has no negative zero


def _write_rows(tmp_path, rows, header="timestamp,price,volume", name="bars.csv"):
    p = tmp_path / name
    p.write_text("\n".join([header, *rows]) + "\n")
    return p


def _calendar(minute):
    day, mod = divmod(minute, 1440)
    date = (np.datetime64("1970-01-01") + np.timedelta64(day, "D")).item()
    return f"{date.isoformat()}T{mod // 60:02d}:{mod % 60:02d}"


def test_load_bars_fixture(market_csv):
    _same_load(market_csv["path"])


def test_load_bars_forms(tmp_path):
    rng = np.random.default_rng(31)
    minutes = DAY + np.sort(rng.choice(3 * 1440, 600, replace=False))  # in and out of session
    prices = [repr(p) for p in np.round(10.0 + np.cumsum(rng.normal(0.0, 0.01, 600)), 4).tolist()]
    volumes = [str(v) for v in rng.integers(0, 5000, 600).tolist()]
    volumes[5] = "12.9"  # truncated, as int(float(x))
    volumes[7] = "-0.5"  # truncates to 0, not negative
    stamps = [str(m) for m in minutes.tolist()]
    stamps[9] = f" {stamps[9]} "  # padded: parsed as text, not by the digit fast path
    calendar = [_calendar(m) for m in minutes.tolist()]
    mixed = [c if k % 3 else e for k, (e, c) in enumerate(zip(stamps, calendar))]
    for name, column in (("epoch", stamps), ("calendar", calendar), ("mixed", mixed)):
        path = _write_rows(tmp_path, [",".join(f) for f in zip(column, prices, volumes)],
                           name=f"{name}.csv")
        for session in (None, "00:00-23:59", "10:00-12:00", "00:00-00:00"):
            _same_load(path, session=session)
    remapped = [f"x,{v},{t},{p}" for t, p, v in zip(stamps, prices, volumes)]
    _same_load(_write_rows(tmp_path, remapped, header="note,qty,ts,last", name="remap.csv"),
               columns={"timestamp": "ts", "price": "last", "volume": "qty"})
    repeated = [f"{t},0,{p},{v}" for t, p, v in zip(stamps, prices, volumes)]
    _same_load(_write_rows(tmp_path, repeated, header="timestamp,price,price,volume",
                           name="repeated.csv"))  # the last column of a name is read
    _same_load(_write_rows(tmp_path, [], name="header_only.csv"))
    _same_load(_write_rows(tmp_path, ["", f"{DAY + 540},1.5,3", "", f"{DAY + 541},1.5,4", ""],
                           name="blank_lines.csv"))


def _error(load, path, **kw):
    with pytest.raises((ParseError, OrderingError)) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load(path, **kw)
    line = re.match(r"line (\d+):", str(info.value))
    return type(info.value), int(line.group(1))


GOOD = [f"{DAY + 540 + k},{10.0 + k / 100},{5 + k}" for k in range(12)]

# one faulty row in an otherwise good file, at several positions
ERROR_CASES = {
    "bad timestamp": lambda m, p, v: f"09:{m % 60},{p},{v}",
    "signed timestamp": lambda m, p, v: f"+{m},{p},{v}",
    "empty timestamp": lambda m, p, v: f",{p},{v}",
    "bad calendar day": lambda m, p, v: f"2016-02-30T09:00,{p},{v}",
    "bad price": lambda m, p, v: f"{m},oops,{v}",
    "bad volume": lambda m, p, v: f"{m},{p},1e",
    "nan volume": lambda m, p, v: f"{m},{p},nan",
    "short row": lambda m, p, v: f"{m},{p}",
    "zero price": lambda m, p, v: f"{m},0,{v}",
    "negative price": lambda m, p, v: f"{m},-1.5,{v}",
    "negative volume": lambda m, p, v: f"{m},{p},-1",
    "repeated timestamp": lambda m, p, v: f"{m - 1},{p},{v}",
    "earlier timestamp": lambda m, p, v: f"{m - 5},{p},{v}",
}
ORDERING_CASES = ("repeated timestamp", "earlier timestamp")


# the first row has no predecessor, so it cannot break the ordering
@pytest.mark.parametrize("case, at", [(case, at) for case in sorted(ERROR_CASES)
                                      for at in (0, 1, 6, 11)
                                      if not (at == 0 and case in ORDERING_CASES)])
def test_load_bars_errors(tmp_path, case, at):
    rows = list(GOOD)
    m, p, v = rows[at].split(",")
    rows[at] = ERROR_CASES[case](int(m), p, v)
    path = _write_rows(tmp_path, rows)
    want = (OrderingError if case in ORDERING_CASES else ParseError, at + 2)
    assert _error(load_bars, path) == _error(oracle_load_bars, path) == want


def test_load_bars_header_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    no_price = _write_rows(tmp_path, GOOD, header="timestamp,last,volume", name="no_price.csv")
    for path, kw in ((empty, {}), (no_price, {}),
                     (_write_rows(tmp_path, GOOD), {"columns": {"volume": "qty"}})):
        assert _error(load_bars, path, **kw) == _error(oracle_load_bars, path, **kw) == (
            ParseError, 1)


def test_load_bars_first_faulty_row_wins(tmp_path):
    # (row, timestamp, price, volume), None keeping the good field; rows 5,
    # 8, 10 and 11 hold two faults each, which the row loop checked in order
    faults = [(3, "09:00", "10.1", "6"), (5, "x", "oops", "7"), (7, None, "-1", "8"),
              (8, None, "-3", "-2"), (10, str(DAY + 500), "-1", None), (11, None, "nan", "-1")]
    for chosen in [(k,) for k in range(len(faults))] + list(combinations(range(len(faults)), 2)):
        rows = [r.split(",") for r in GOOD]
        for k in chosen:
            at, *fields = faults[k]
            rows[at] = [f if f is not None else old for f, old in zip(fields, rows[at])]
        path = _write_rows(tmp_path, [",".join(r) for r in rows])
        assert _error(load_bars, path) == _error(oracle_load_bars, path)


# fields of a drawn bar file: each row starts from a good one (the first two
# before the session opens) and may swap a field for text made of these
# pieces, pad or quote it, sign it, or write its stamp in calendar form
PIECES = ["0", "1", "5", "9", "+", "-", ".", "e", "_", "inf", "nan", " ", "\t",
          "\u00a0", "\u2003", '"', "2016-03-01T09:00"]
PADS = [" ", "\t", "\u00a0", "\u2003"]


@st.composite
def bar_files(draw):
    """(lines after the header, line end, final line end) of a small bar file."""
    lines = []
    for k in range(draw(st.integers(0, 8))):
        minute = DAY + 538 + 3 * k
        fields = [str(minute), f"{10 + k / 8}", str(7 * k % 50)]
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "extra"]))
        if shape == "blank":
            lines.append("")
            continue
        if shape == "spaces":
            lines.append("".join(draw(st.lists(st.sampled_from(PADS), min_size=1,
                                               max_size=3))))
            continue
        for at in range(3):
            how = draw(st.sampled_from(["keep"] * 16 + ["text", "pad", "quote", "sign"]))
            if how == "text":
                fields[at] = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=4)))
            elif how == "pad":
                fields[at] = draw(st.sampled_from(PADS)) + fields[at] + draw(
                    st.sampled_from(["", *PADS]))
            elif how == "quote":
                fields[at] = f'"{fields[at]}"'
            elif how == "sign":
                fields[at] = draw(st.sampled_from("+-")) + fields[at]
        if draw(st.integers(0, 5)) == 0:
            fields[0] = _calendar(minute)
        if shape == "short":
            fields = fields[:draw(st.integers(1, 2))]
        elif shape == "extra":
            fields += draw(st.lists(st.sampled_from(["", "x", "1", '"']), min_size=1,
                                    max_size=2))
        lines.append(",".join(fields))
    return lines, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


def _outcome(load, path):
    """``_loaded(load, path)``, or its error's type and line."""
    try:
        return _loaded(load, path)
    except (ParseError, OrderingError) as exc:
        return type(exc), int(re.match(r"line (\d+):", str(exc)).group(1))


def _reads_non_finite(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(bar_files())
def test_load_bars_drawn_files(tmp_path_factory, drawn):
    lines, end, final = drawn
    path = tmp_path_factory.mktemp("drawn") / "bars.csv"
    text = end.join(["timestamp,price,volume", *lines]) + (end if final else "")
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _outcome(oracle_load_bars, path)
    except OverflowError:  # the oracle's int(float("inf")) of a volume
        want = None
    got = _outcome(load_bars, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        records = [(reader.line_num, row) for row in reader if row]
    failed = want is not None and isinstance(want[0], type)
    if failed:
        # the oracle numbers the non-blank rows from 2; load_bars names their
        # file line, blank lines and line ends inside quotes included
        want = (want[0], records[want[1] - 2][0])
    # the oracle takes a non-finite price and breaks on a non-finite volume;
    # load_bars refuses either at its row, so the oracle's verdict holds only
    # on the rows before the first one
    bad = next((line for line, row in records
                if any(map(_reads_non_finite, row[1:3]))), None)
    if bad is not None and not (failed and want[1] < bad):
        want, failed = (ParseError, bad), True
    if failed:
        assert got == want
    else:
        _assert_same_load(want, got)


# ---------------------------------------------------------------------------
# value_wait_pairs


def _same_pairs(values, boundaries):
    r = ReturnSeries(values=np.asarray(values, dtype=float), kind="price-return",
                     session_boundaries=np.asarray(boundaries, dtype=np.int64),
                     positions=np.arange(len(values), dtype=np.int64))
    for a, b in zip(oracle_value_wait_pairs(r), value_wait_pairs(r)):
        assert_identical(a, b)


def test_value_wait_pairs_edge_series():
    _same_pairs([], [])
    _same_pairs([0.5], [0])
    _same_pairs([0.0, 0.0, 1.0, 1.0, 0.0], [1, 1, 3, 3])  # duplicate boundaries
    _same_pairs([0.0, 1.0, 1.0, 2.0], [3])  # a boundary at the last value
    _same_pairs([1.0, 1.0, 1.0], [])
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(0, 40))
        values = rng.integers(0, 3, n) * 0.5
        boundaries = np.sort(rng.integers(0, max(n, 1), int(rng.integers(0, 6))))
        _same_pairs(values, boundaries)


def test_value_wait_pairs_fixture(market_csv):
    from wismc.market_data import load_bars
    bars = load_bars(market_csv["path"])
    for kind in ("price-return", "volume-return"):
        r = compute_returns(bars, kind)
        for a, b in zip(oracle_value_wait_pairs(r), value_wait_pairs(r)):
            assert_identical(a, b)


# ---------------------------------------------------------------------------
# the fallback ladders of the kernel, waiting-time and modulus tables


def _same_ladders(tk, reached):
    for kernel, table in ((tk.kernel_j, tk.modulus_j), (tk.kernel_v, tk.modulus_v)):
        resolved, level, state_pmf, global_pmf = oracle_kernel_ladder(kernel)
        assert np.array_equal(kernel.resolved, resolved)
        assert np.array_equal(kernel.level, level)
        cdf, fallback_cells = oracle_modulus_cdf(kernel, state_pmf, global_pmf)
        assert np.array_equal(table.cdf, cdf)
        assert (table.level >= 3).sum() == fallback_cells
        reached["kernel"].update(level.ravel().tolist())
        reached["modulus"].update(table.level.ravel().tolist())
    cube, level = oracle_cond_wait_ladder(tk.cond_wait)
    assert np.array_equal(tk.cond_wait.resolved, cube)
    assert np.array_equal(tk.cond_wait.level, level)
    reached["cond_wait"].update(level.ravel().tolist())


def test_ladders_fitted_fixture(market_csv):
    reached = {"kernel": set(), "cond_wait": set(), "modulus": set()}
    _same_ladders(fit_triplet_kernel(market_csv["r"], market_csv["v"]), reached)
    assert reached["cond_wait"] == {0, 1, 2}


def test_ladders_random_knockouts():
    reached = {"kernel": set(), "cond_wait": set(), "modulus": set()}
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n_bins = int(rng.integers(1, 4))
        tk = knock_out(rng, random_triplet(rng, [-0.02, 0.0, 0.01, 0.02],
                                           [-1.0, 0.5, 1.0], CopulaSpec("independence"),
                                           n_bins=n_bins))
        _same_ladders(tk, reached)
    assert reached == {"kernel": {0, 1, 2}, "cond_wait": {0, 1, 2},
                       "modulus": {0, 1, 2, 3, 4}}


# ---------------------------------------------------------------------------
# the signed-value tables and lookups of each variable's modulus table


def _same_value_tables(tk):
    """Byte identity of both variables' tables; returns what the grids held:
    a zero representative, a modulus with both signs, one with one sign."""
    held = set()
    for kernel, modulus, p in ((tk.kernel_j, tk.modulus_j, tk.signs.p_j),
                               (tk.kernel_v, tk.modulus_v, tk.signs.p_v)):
        support = modulus.support
        assert_identical(support, oracle_signed_support(modulus.moduli))
        assert not np.signbit(support[support == 0.0]).any()
        assert_identical(modulus.sign_matrix, oracle_sign_matrix(modulus.moduli, p))
        state_of = oracle_resolution(kernel, support)
        assert_identical(modulus.support_state, state_of)
        assert_identical(modulus.states(support), state_of)
        assert [modulus.state(x) for x in support.tolist()] == state_of.tolist()
        assert modulus.edges == kernel.index_edges.tolist()
        # the nearest-value fallback of the oracle is never taken
        reps = kernel.grid.representatives
        assert np.isin(np.abs(support), np.abs(reps)).all()
        mods = np.abs(reps)
        if (mods == 0.0).any():
            held.add("zero")
        for m in np.unique(mods[mods > 0]):
            held.add("mirrored" if np.isin([-m, m], reps).all() else "one-sided")
    return held


def _random_reps(rng):
    """Sorted distinct representatives drawn from a few moduli with random
    signs, so that grids have mirrored pairs, one-sided moduli and zero
    (sometimes as -0.0)."""
    while True:
        mods = rng.choice([0.0, 0.001, 0.0025, 0.01, 0.03], size=int(rng.integers(2, 8)))
        reps = np.unique(np.where(rng.random(mods.size) < 0.5, -mods, mods))
        if reps.size >= 2:
            return reps


def test_value_tables_random_grids():
    held = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        reps_j, reps_v = _random_reps(rng), _random_reps(rng)
        p_j, p_v = (float(p) for p in rng.choice([0.0, 0.3, 0.5, 1.0], size=2))
        held |= _same_value_tables(random_triplet(
            rng, reps_j, reps_v, CopulaSpec("independence"), p_j=p_j, p_v=p_v))
    assert held == {"zero", "mirrored", "one-sided"}


def test_value_tables_fitted_fixture(market_csv):
    _same_value_tables(fit_triplet_kernel(market_csv["r"], market_csv["v"]))


# ---------------------------------------------------------------------------
# the Monte Carlo first-passage loop


def _same_fpt_mc(tk, query, n_paths, seed):
    """Byte identity of the survival curve and its bands; returns the
    survival so callers can check that paths crossed at several times."""
    got = fpt_survival_mc(tk, query, n_paths=n_paths, seed=seed)
    for a, b in zip(oracle_fpt_survival_mc(tk, query, n_paths, seed),
                    (got.survival, got.lower, got.upper)):
        assert_identical(a, b)
    return got.survival


@pytest.mark.parametrize("u", [0, 1, 2])
def test_fpt_mc_random_triplets(u):
    histories = [dict(history_j=[0.25], history_v=[-0.5], history_t=[0]),
                 dict(history_j=[-0.3, 0.25], history_v=[0.4, 0.4], history_t=[-2, 0])]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        tk = random_triplet(rng, [-0.3, 0.0, 0.25], [-0.5, 0.4],
                            CopulaSpec("gaussian", rho=0.4), t_max=4,
                            n_bins=int(rng.integers(1, 4)), max_b=8)
        query = FptQuery(rho=2.5, psi=4.0, horizon=10, u=u, **histories[seed % 2])
        assert np.unique(_same_fpt_mc(tk, query, 4000, seed)).size > 2


@pytest.mark.parametrize("u", [0, 2])
def test_fpt_mc_fitted_fixture(market_csv, u):
    tk = fit_triplet_kernel(market_csv["r"], market_csv["v"])
    # the start of the ``fpt`` command: each variable's most visited state
    i0, v0 = (float(k.grid.representatives[np.argmax(k.counts.sum(axis=(1, 2, 3)))])
              for k in (tk.kernel_j, tk.kernel_v))
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30, u=u,
                     history_j=[i0], history_v=[v0], history_t=[0])
    assert np.unique(_same_fpt_mc(tk, query, 20_000, 7)).size > 2


def test_fpt_mc_off_grid_start(fixture_models):
    # only the start's states come from the nearest-value search; every later
    # round carries the states of the values the draw returned
    tk = fixture_models["bars"]
    i0, v0 = 0.00031, -0.37
    assert i0 not in tk.modulus_j.support and v0 not in tk.modulus_v.support
    for u in (0, 2):
        query = FptQuery(rho=1.0015, psi=20.0, horizon=30, u=u,
                         history_j=[i0], history_v=[v0], history_t=[0])
        assert np.unique(_same_fpt_mc(tk, query, 20_000, 3)).size > 2
    # an off-grid history, whose last value is off the grid too
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30, history_j=[-0.0007, i0],
                     history_v=[0.9, v0], history_t=[-3, 0])
    assert np.unique(_same_fpt_mc(tk, query, 20_000, 4)).size > 2


def test_fpt_mc_index_free_model(market_csv):
    tk = fit_triplet_kernel(market_csv["r"], market_csv["v"],
                            TripletFitConfig(n_index_bins=1))
    assert tk.kernel_j.n_index_bins == tk.kernel_v.n_index_bins == 1
    i0, v0 = (float(k.grid.representatives[-1]) for k in (tk.kernel_j, tk.kernel_v))
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30,
                     history_j=[i0], history_v=[v0], history_t=[0])
    assert np.unique(_same_fpt_mc(tk, query, 20_000, 5)).size > 2


@pytest.mark.parametrize("copula", [
    CopulaSpec("independence"), CopulaSpec("gaussian", rho=-0.6),
    CopulaSpec("clayton", theta=2.5), CopulaSpec("gumbel", theta=1.8),
    CopulaSpec("t", rho=0.5, df=3.0)], ids=lambda c: c.family)
def test_fpt_mc_copula_families(fixture_models, copula):
    tk = dataclasses.replace(fixture_models["series"], copula=copula)
    i0, v0 = (float(k.grid.representatives[0]) for k in (tk.kernel_j, tk.kernel_v))
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30, u=1,
                     history_j=[i0], history_v=[v0], history_t=[0])
    assert np.unique(_same_fpt_mc(tk, query, 20_000, 6)).size > 2


def _same_fpt_mc_batches(tk, query, batch, seed):
    """Byte identity with the parent's loop run batch after batch on one
    Generator, for path counts below the batch size, equal to it and not a
    multiple of it."""
    for n_paths in (batch // 2 + 1, batch, 2 * batch + 389):
        got = fpt_survival_mc(tk, query, n_paths=n_paths, seed=seed)
        want = oracle_fpt_survival_mc(tk, query, n_paths, seed, batch=batch)
        for a, b in zip(want, (got.survival, got.lower, got.upper)):
            assert_identical(a, b)
        assert np.unique(got.survival).size > 2


@pytest.mark.parametrize("batch", [1000, 4096, 7777])
def test_fpt_mc_across_batches_random_triplet(monkeypatch, batch):
    monkeypatch.setattr(finfunc, "MC_BATCH", batch)
    rng = np.random.default_rng(24)
    tk = random_triplet(rng, [-0.3, 0.0, 0.25], [-0.5, 0.4],
                        CopulaSpec("gaussian", rho=0.4), t_max=4, n_bins=2, max_b=8)
    query = FptQuery(rho=2.5, psi=4.0, horizon=10, u=1, history_j=[-0.3, 0.25],
                     history_v=[0.4, 0.4], history_t=[-2, 0])
    _same_fpt_mc_batches(tk, query, batch, seed=batch)


@pytest.mark.parametrize("batch", [1000, 4096, 7777])
def test_fpt_mc_across_batches_fitted_fixture(fixture_models, monkeypatch, batch):
    monkeypatch.setattr(finfunc, "MC_BATCH", batch)
    tk = fixture_models["bars"]
    i0, v0 = (float(k.grid.representatives[np.argmax(k.counts.sum(axis=(1, 2, 3)))])
              for k in (tk.kernel_j, tk.kernel_v))
    query = FptQuery(rho=1.0015, psi=20.0, horizon=30,
                     history_j=[i0], history_v=[v0], history_t=[0])
    _same_fpt_mc_batches(tk, query, batch, seed=11)


# ---------------------------------------------------------------------------
# grid_search, which builds each state count's grid, chain and inverse once


def _same_search(values, spec, seed, monkeypatch):
    builds = []
    make_grid = optimize.make_state_grid
    monkeypatch.setattr(optimize, "make_state_grid",
                        lambda v, s: builds.append(s) or make_grid(v, s))
    want = oracle_grid_search(values, spec, seed)
    got = grid_search(values, spec, seed)
    assert got.as_dict() == want.as_dict()
    # the same doubles, bit for bit
    assert [float(r["mape"] or 0).hex() for r in got.records] == \
        [float(r["mape"] or 0).hex() for r in want.records]
    assert builds == sorted({r["s"] for r in got.records})
    return got


def test_grid_search_several_lambdas(monkeypatch):
    r, _ = heavy_tailed_series(3000, 31)
    spec = GridSpec(state_counts=(4, 2, 3), lambdas=(0.8, 0.9, 0.97), max_lag=15,
                    reps_per_point=2, n_index_bins=2)
    got = _same_search(r, spec, 5, monkeypatch)
    assert len(got.records) == 9 and not any(rec["failed"] for rec in got.records)


def test_grid_search_failed_state_count(monkeypatch):
    # 40 states cannot be estimated from 400 minutes: one failed record per lam
    r, _ = heavy_tailed_series(400, 9)
    spec = GridSpec(state_counts=(3, 40), lambdas=(0.9, 0.95), max_lag=10,
                    reps_per_point=1, n_index_bins=1)
    got = _same_search(r, spec, 5, monkeypatch)
    assert [(rec["s"], rec["failed"]) for rec in got.records] == \
        [(3, False), (3, False), (40, True), (40, True)]
    assert got.records[2]["error"] == got.records[3]["error"]


def test_grid_search_early_stop_after_failed_count(monkeypatch):
    # quantized, mostly non-negative data: 4 states give degenerate edges
    vals = np.round(np.random.default_rng(0).standard_t(3, 3000) * 2) * 1e-3
    vals[vals < 0] = 0.0
    vals[::97] = -1e-3
    spec = GridSpec(state_counts=(4, 5, 6), lambdas=(0.9, 0.97), max_lag=20,
                    reps_per_point=1, n_index_bins=1, epsilon=0.5)
    got = _same_search(vals, spec, 0, monkeypatch)
    assert [rec["failed"] for rec in got.records[:2]] == [True, True]


def test_grid_search_kernel_failure_at_one_lambda(monkeypatch):
    # every kernel of a state count is built before its first replication:
    # one that fails gives its own failed record and leaves the others alone
    def failing(chain, params):
        calls.append(params.lam)
        if params.lam == 0.9:
            raise EstimationError(f"no kernel at lambda {params.lam}")
        return build(chain, params)

    build, calls = estimate_kernel, []
    monkeypatch.setattr(optimize, "estimate_kernel", failing)
    monkeypatch.setitem(globals(), "estimate_kernel", failing)
    r, _ = heavy_tailed_series(3000, 17)
    spec = GridSpec(state_counts=(3, 4), lambdas=(0.8, 0.9, 0.97), max_lag=15,
                    reps_per_point=2, n_index_bins=2)
    got = _same_search(r, spec, 3, monkeypatch)
    assert [rec["failed"] for rec in got.records] == [False, True, False] * 2
    assert got.records[1]["error"] == "no kernel at lambda 0.9"
    # the oracle's builds, then grid_search's: one per point each
    assert calls == [0.8, 0.9, 0.97] * 4


# ---------------------------------------------------------------------------
# backtransform, whose arithmetic runs in place

# sample values with zeros of both signs and subnormals; a drawn state may
# hold no value (it takes its representative) or one
BT_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, -0.03, -0.011, 0.004, 0.01,
                             0.5, -1.0, 3.0, 1e300])
BT_UNIFORMS = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2 ** -53]),
                        st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def bt_cases(draw):
    n_states = draw(st.integers(2, 4))
    samples = [np.array(sorted(draw(st.lists(BT_VALUES, max_size=6))), dtype=float)
               for _ in range(n_states)]
    states = draw(st.lists(st.integers(0, n_states - 1), max_size=30))
    u = draw(st.lists(BT_UNIFORMS, min_size=len(states), max_size=len(states)))
    reps = draw(st.lists(BT_VALUES, min_size=n_states, max_size=n_states))
    grid = StateGrid(edges=np.r_[-np.inf, np.arange(n_states - 1.0), np.inf],
                     representatives=np.array(reps))
    return inverse_of(samples, grid), states, u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bt_cases())
def test_backtransform_drawn_samples(case):
    inverse, states, u = case
    results = []
    for fn in (oracle_array_backtransform, backtransform):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(np.array(states, dtype=np.int64), np.array(u, dtype=float), inverse)
        results.append((out, [str(w.message) for w in caught]))
    (want, want_warned), (got, got_warned) = results
    assert_identical(want, got)
    assert got_warned == want_warned


def test_backtransform_leaves_its_inputs_alone():
    inverse = inverse_of([np.array([-0.0, 0.25, 2.0]), np.array([3.0])],
                         toy_grid([-0.5, 0.5]))
    states, u = np.array([0, 1, 0, 0]), np.array([0.0, 0.3, 0.6, 0.99])
    kept = states.copy(), u.copy()
    assert_identical(backtransform(states, u, inverse),
                     oracle_array_backtransform(states, u, inverse))
    assert_identical(states, kept[0])
    assert_identical(u, kept[1])


# ---------------------------------------------------------------------------
# the model writer, which formats a long flat list a slice at a time


def _json_text(doc):
    """``doc`` as the standard library writes it, an array as its list."""
    return json.dumps(doc, sort_keys=True, indent=1, default=np.ndarray.tolist)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_dumps_flat_lists_around_a_slice(shift):
    n = serialize.LIST_SLICE + shift
    rng = np.random.default_rng(n)
    floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    floats[:2] = [-0.0, 5e-324]
    ints = rng.integers(-2 ** 62, 2 ** 62, n).tolist()
    for numbers in (floats, ints):
        doc = {"a": numbers, "b": [[numbers], {"c": numbers}]}
        assert dumps(doc) == _json_text(doc)
        # an array is written as its list
        assert dumps({"a": np.array(numbers), "b": [[np.array(numbers)], {}]}) == \
            _json_text({"a": numbers, "b": [[numbers], {}]})


@pytest.mark.parametrize("array", [np.array([]), np.array([], dtype=np.int64),
                                   np.array([1.0, np.inf, -0.0]), np.array([True, False]),
                                   np.arange(6.0).reshape(2, 3), np.float64(2.5),
                                   np.array([7], dtype=np.uint8)])
def test_dumps_arrays_as_their_lists(array):
    assert dumps({"x": array}) == _json_text({"x": array.tolist()})


@pytest.mark.parametrize("size", [1, 2, 7])
def test_save_model_across_slices(market_csv, tmp_path, monkeypatch, size):
    tk = fit_triplet_kernel(market_csv["r"], market_csv["v"],
                            TripletFitConfig(n_states_r=3, n_states_v=4, n_index_bins=2))
    want = _json_text(triplet_to_dict(tk))
    monkeypatch.setattr(serialize, "LIST_SLICE", size)
    path = tmp_path / "model.json"
    save_model(tk, path)
    assert path.read_text() == want
    assert dumps(triplet_to_dict(load_model(path))) == want
