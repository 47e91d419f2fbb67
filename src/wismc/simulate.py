"""Monte Carlo generation of synthetic minute series from fitted kernels:
the synchronized two-variable engine, a single-variable engine used by the
parameter search, back-transformation to continuous values and a report
comparing synthetic statistics with a reference battery."""
from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .core import IndexedKernel, advance_carry, carry_coefficients
from .errors import ParameterError
from .market_data import autocorrelation, cross_correlation_battery, jarque_bera
from .triplet import ConditioningCell, EmpiricalInverse, TripletKernel

__all__ = [
    "SimConfig",
    "SynthPath",
    "backtransform",
    "simulate_path",
    "simulate_univariate",
    "validate_stylized_facts",
]

_BLOCK = 4096  # uniforms drawn per call to the generator


def _uniforms(rng: np.random.Generator, seconds: Optional[list]):
    """A function returning uniforms of ``rng`` one at a time: the doubles,
    in the same order, that one ``rng.random()`` call each would give,
    drawn ``_BLOCK`` at a time. With a list ``seconds``, each returned
    uniform is followed by a second one that is kept instead: each block's
    second uniforms are appended to ``seconds`` as one array."""
    if seconds is None:
        def draw():
            return rng.random(_BLOCK).tolist()
    else:
        def draw():
            block = rng.random(2 * _BLOCK)
            seconds.append(block[1::2].copy())
            return block[::2].tolist()
    return chain.from_iterable(iter(draw, None)).__next__


@dataclass(frozen=True)
class SimConfig:
    """Settings for one synthetic replication."""

    length_minutes: int
    seed: int = 0
    backtransform: str = "empirical"  # or "representative"
    initial: Optional[ConditioningCell] = None
    s0: float = 1.0
    v0: float = 1.0

    def __post_init__(self):
        if self.length_minutes < 1:
            raise ParameterError("length must be >= 1 minute")
        if self.backtransform not in ("empirical", "representative"):
            raise ParameterError(f"unknown backtransform {self.backtransform!r}")
        if not (0 < self.s0 < math.inf and 0 < self.v0 < math.inf):
            raise ParameterError("s0 and v0 must be finite and positive")


@dataclass
class SynthPath:
    """One synthetic joint path. ``r``/``v`` are the minute series (piecewise
    constant between each variable's own events); ``S``/``V`` are the
    exp-cumsum reconstructions with S[0] = s0. ``events`` holds the generated
    synchronized jump record. ``fallback_events`` counts events whose
    waiting-time cell was never observed in the fit; ``forced_holds`` counts
    events whose draw left both values unchanged."""

    r: np.ndarray
    v: np.ndarray
    S: np.ndarray
    V: np.ndarray
    events: dict
    fallback_events: int = 0
    forced_holds: int = 0


def backtransform(states, u, inv: EmpiricalInverse) -> np.ndarray:
    """Empirical quantile of each state's sample at its level in ``u``,
    interpolating between order statistics; a state that carries no sample
    takes its representative value, with a warning. Order statistic k of a
    state is the value of its first run whose running count passes k, found
    with one search per draw for the low statistic and the next. A
    one-value sample needs no branch of its own: x * 1.0 + x * 0.0 is x bit
    for bit, -0.0 included. Beside its output it holds a byte per draw, a
    state's running counts and at most five arrays as long as its draws."""
    states, u = np.asarray(states, dtype=np.int64), np.asarray(u, dtype=float)
    out = np.empty(states.shape)
    for k in np.flatnonzero(np.bincount(states)).tolist():
        values, ends = inv.values[k], np.cumsum(inv.counts[k])
        if not values.size:
            warnings.warn(f"state {k} has no sample; using representative value")
            values, ends = inv.grid.representatives[k:k + 1], np.ones(1, dtype=np.int64)
        at = states == k
        top = ends[-1] - 1
        frac = u[at] * top
        lo = np.floor(frac)
        frac -= lo
        lo = lo.astype(np.int64)
        run = np.searchsorted(ends, lo, side="right")
        x_lo = values[run]
        # the next order statistic, capped at the last, lies in the low one's
        # run or, where that run ends with the low one, in the next run
        lo += 1
        np.minimum(lo, top, out=lo)
        run += lo == ends[run]
        x_hi = values[run]
        del lo, run
        out[at] = x_lo * (1.0 - frac) + x_hi * frac
    return out


def simulate_path(tk: TripletKernel, cfg: SimConfig) -> SynthPath:
    """Generate one synchronized path with the sampling step of
    :class:`TripletKernel` run on a batch of one path, as
    :func:`~wismc.finfunc.fpt_survival_mc` runs it on many: each event draws
    its sojourn from the conditional waiting law, the modulus pair through
    the copula and both signs independently, so events follow
    :meth:`TripletKernel.event_value_pmf` exactly. A variable changes state
    only when its drawn value differs from its current one; an event that
    changes neither is an ordinary hold (counted in ``forced_holds``). The
    minute series are worked out from the event record after the loop."""
    rng = np.random.default_rng(cfg.seed)
    # the back-transform draws from a child stream: the engine consumes the
    # seed's own stream, as in fpt_survival_mc, and the event record does not
    # depend on the back-transform mode
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
    states = tk.value_states(i_val, v_val)
    if cfg.initial is not None:
        # the start's bins are those of its values: refuse others, not drop them
        given = (cfg.initial.x_bin, cfg.initial.w_bin)
        start = tuple(int(b[0]) for b in tk.cells_of(states, i_val, v_val, wj, dj, wv, dv)[2:])
        if given != start:
            raise ParameterError(f"initial index bins {given} differ from {start}, "
                                 "the bins of its start values")
    keys = ("n", "time", "j_state", "v_state", "b_j", "b_v",
            "x_bin", "w_bin", "j_value", "v_value")
    ev = {k: [] for k in keys}
    t = 0
    n_event = 0
    fallbacks = 0
    forced = 0
    while t < length:
        cells = tk.cells_of(states, i_val, v_val, wj, dj, wv, dv)
        i_state, v_state, xb, wb = (int(c[0]) for c in cells)
        fallbacks += bool(tk.cond_wait.level[i_state, v_state, xb, wb] > 0)
        for key, val in zip(keys, (n_event, t, i_state, v_state, b_j, b_v, xb, wb,
                                   float(i_val[0]), float(v_val[0]))):
            ev[key].append(val)
        soj = tk.draw_sojourns(rng, cells)
        (new_j, new_v), states = tk.draw_next_values(rng, cells, b_j, b_v, soj)
        wj, dj = advance_carry(tk.kernel_j.lam, wj, dj, i_val, soj)
        wv, dv = advance_carry(tk.kernel_v.lam, wv, dv, v_val, soj)
        step = int(soj[0])
        moved_j = bool(new_j[0] != i_val[0])
        moved_v = bool(new_v[0] != v_val[0])
        forced += not (moved_j or moved_v)
        b_j = 0 if moved_j else b_j + step
        b_v = 0 if moved_v else b_v + step
        i_val, v_val = new_j, new_v
        t += step
        n_event += 1
    events = {k: np.asarray(vals) for k, vals in ev.items()}
    r, v = _continuous_series(tk, cfg, events, bt_rng)
    with np.errstate(over="ignore"):
        # exp-cumsum reconstruction; a drifting volume path may saturate to inf
        S = cfg.s0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
        V = cfg.v0 * np.exp(np.concatenate([[0.0], np.cumsum(v)]))
    return SynthPath(r=r, v=v, S=S, V=V, events=events,
                     fallback_events=fallbacks, forced_holds=forced)


def _continuous_series(tk: TripletKernel, cfg: SimConfig, events: dict,
                       bt_rng: np.random.Generator):
    """The minute series (r, v) of a path from its event record. A value
    takes its continuous value at each event where it changed (the first
    event included) and holds it over the sojourns up to its next change, cut
    at the path's length. In the empirical mode a variable with an inverse
    draws one uniform per change, all from ``bt_rng`` in one call in event
    order, j before v; a value of the other sign than its state's
    representative (a mirrored value) is drawn from its state's sample and
    negated. Otherwise a value is its signed support value."""
    values = np.stack([events["j_value"], events["v_value"]], axis=1)
    states = np.stack([events["j_state"], events["v_state"]], axis=1)
    changed = np.ones(values.shape, dtype=bool)
    changed[1:] = values[1:] != values[:-1]
    tables = ((tk.kernel_j.grid, tk.inverse_j), (tk.kernel_v.grid, tk.inverse_v))
    draw = changed & [cfg.backtransform == "empirical" and inv is not None
                      for _, inv in tables]
    u = np.zeros(values.shape)
    u[draw] = bt_rng.random(np.count_nonzero(draw))
    held = values.copy()
    for k, (grid, inv) in enumerate(tables):
        at = draw[:, k]
        if at.any():
            drawn = backtransform(states[at, k], u[at, k], inv)
            rep, value = grid.representatives[states[at, k]], values[at, k]
            mirrored = (value != 0.0) & (np.sign(rep) != 0) & (np.sign(value) != np.sign(rep))
            held[at, k] = np.where(mirrored, -drawn, drawn)
    # each event holds the value of the last event at which it changed
    last = np.maximum.accumulate(np.where(changed, np.arange(len(values))[:, None], 0), axis=0)
    held = np.take_along_axis(held, last, axis=0)
    sojourns = np.diff(events["time"], append=cfg.length_minutes)
    return np.repeat(held[:, 0], sojourns), np.repeat(held[:, 1], sojourns)


# ---------------------------------------------------------------------------
# single-variable engine (used by the parameter search)


def simulate_univariate(kernel: IndexedKernel, minutes: Optional[int], seed: int,
                        inverse: Optional[EmpiricalInverse] = None,
                        n_events: Optional[int] = None):
    """Simulate one variable from its indexed kernel: at each event the
    (next state, sojourn) pair is drawn jointly from the conditioning cell.
    Runs until ``minutes`` are covered or ``n_events`` jumps were generated,
    whichever is given. Returns (minute series, states, times).

    Only the sequential core runs per event, on Python floats and lists and
    block-drawn uniforms, with :func:`~wismc.core.bin_of`'s rule and
    :func:`~wismc.core.advance_carry` inlined. The draw's search stops at a
    row's last position, since a row's cumulative top may lie below 1. A
    table gives each position's sojourn, next state and carry coefficients.
    A recorded path with an inverse draws a second uniform per event for its
    back-transform, which runs after the loop through :func:`backtransform`.

    Beside its outputs a recorded path holds the states and the sojourns,
    one list each (8 bytes per event: small ints are shared) until each in
    turn becomes an int64 array, and with an inverse the back-transform
    uniforms, 8 bytes per event, kept a block at a time and joined once the
    loop ends, then what :func:`backtransform` holds. On a 60 000-minute
    series with an inverse that peaks at 39 traced bytes per minute."""
    if minutes is None and n_events is None:
        raise ParameterError("give minutes or n_events")
    rng = np.random.default_rng(seed)
    s, nb, _, t_max = kernel.counts.shape
    last = s * t_max - 1
    cum = np.cumsum(kernel.resolved.reshape(s, nb, s * t_max), axis=2).tolist()
    occupancy = kernel.counts.sum(axis=(1, 2, 3)).astype(float)
    if occupancy.sum() <= 0:
        occupancy = np.ones(s)
    state = int(rng.choice(s, p=occupancy / occupancy.sum()))
    record = minutes is not None
    # a recorded path with an inverse keeps a back-transform uniform per event
    seconds = [] if record and inverse is not None else None
    uniform = _uniforms(rng, seconds)
    squares = [r * r for r in kernel.grid.representatives.tolist()]
    inner = kernel.index_edges[1:-1].tolist()
    # (sojourn, next state, decay, weight, gain) at each position of a row
    steps = [(soj, nxt, *carry_coefficients(kernel.lam, soj))
             for nxt in range(s) for soj in range(1, t_max + 1)]
    # neither count passes sys.maxsize, since both are returned as int64
    t_end = sys.maxsize if minutes is None else minutes
    n_end = sys.maxsize if n_events is None else n_events
    w, d = 0.0, 1.0
    t = n = 0
    states, sojourns = [], []
    push_state, push_sojourn = states.append, sojourns.append
    while t < t_end and n < n_end:
        push_state(state)
        square = squares[state]
        row = cum[state][bisect_right(inner, (w + square) / d)]
        soj, state, decay, weight, gain = steps[bisect_left(row, uniform(), 0, last)]
        push_sojourn(soj)
        w = decay * w + square * weight
        d = decay * d + gain
        t += soj
        n += 1
    states = np.asarray(states, dtype=np.int64)
    sojourns = np.asarray(sojourns, dtype=np.int64)
    out = None
    if record:
        if seconds:
            u = np.concatenate(seconds)[:states.size]
            seconds.clear()
            held = backtransform(states, u, inverse)
        else:
            held = kernel.grid.representatives[states]
        out = np.repeat(held, sojourns)[:min(t, minutes)]
    return out, states, np.cumsum(sojourns) - sojourns


# ---------------------------------------------------------------------------
# stylized-fact comparison


def validate_stylized_facts(paths, reference: Optional[dict] = None,
                            max_lag: int = 100, alpha: float = 0.01) -> dict:
    """Run the statistics battery over synthetic paths and set the flags the
    model is expected to reproduce: non-Gaussian returns, vanishing (r, v)
    correlation and positive modulus cross-correlation. When a reference
    battery (from real data) is supplied its values are placed side by side."""
    if not paths:
        raise ParameterError("need at least one path")
    per_path = []
    for p in paths:
        n = p.r.size
        lag = min(max_lag, n - 1)
        jb_stat, jb_p, jb_rej = jarque_bera(p.r, alpha)
        cross = cross_correlation_battery(p.r, p.v)
        per_path.append({
            "n": n,
            "jarque_bera": {"statistic": jb_stat, "p_value": jb_p, "reject": jb_rej},
            "cross_correlation": cross,
            "acf_abs_r": autocorrelation(np.abs(p.r), lag).tolist(),
            "acf_abs_v": autocorrelation(np.abs(p.v), lag).tolist(),
        })
    n = per_path[0]["n"]
    band = 3.0 / np.sqrt(n)
    # flags use the per-pair correlation averaged over replications
    rho = {}
    for row in per_path[0]["cross_correlation"]:
        pair = row["pair"]
        rho[pair] = float(np.mean([
            next(r["rho"] for r in p["cross_correlation"] if r["pair"] == pair)
            for p in per_path]))
    flags = {
        "returns_non_gaussian": all(p["jarque_bera"]["reject"] for p in per_path),
        "rv_correlation_insignificant": bool(abs(rho["r,v"]) < band),
        "modulus_correlation_positive_significant": bool(rho["|r|,|v|"] > band),
    }
    report = {"paths": per_path, "flags": flags, "three_se_band": float(band)}
    if reference is not None:
        ref_rho = {row["pair"]: row["rho"]
                   for row in reference.get("cross_correlation", [])}
        report["reference"] = {
            "cross_correlation": ref_rho,
            "jarque_bera": reference.get("jarque_bera"),
        }
        report["side_by_side"] = {
            pair: {"real": ref_rho.get(pair), "synthetic": rho.get(pair)}
            for pair in rho
        }
    return report
