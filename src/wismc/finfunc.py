"""Closed-form functions of a fitted triplet kernel: one-step marginals,
modulus covariance and correlation, mutual information, and the joint
first-passage-time survival function (exact recursion and Monte Carlo)."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import ContractViolation, ParameterError, ResourceLimitError
from .core import advance_carry
from .triplet import ConditioningCell, TripletKernel, triplet_kernel_eval

# paths per Monte Carlo batch: the first-passage sampler's working memory is
# that of one batch, whatever the path count
MC_BATCH = 2 ** 15

__all__ = [
    "CovarianceResult",
    "FptQuery",
    "FptResult",
    "one_step_marginal_return",
    "one_step_marginal_volume",
    "joint_modulus_pmf",
    "modulus_covariance",
    "signed_covariance",
    "mutual_information",
    "fpt_survival_recursive",
    "fpt_survival_mc",
]


# ---------------------------------------------------------------------------
# one-step marginals and dependence measures


def one_step_marginal_return(tk: TripletKernel, cell: ConditioningCell,
                             threshold: float) -> float:
    """P(next return value <= threshold (< if negative) | cell), unconditional
    on when the next transition happens: the kernel summed over the sojourn
    at an infinite volume threshold, where C(F, 1) = F."""
    return sum(triplet_kernel_eval(tk, cell, threshold, math.inf, t)
               for t in range(1, tk.t_max + 1))


def one_step_marginal_volume(tk: TripletKernel, cell: ConditioningCell,
                             threshold: float) -> float:
    return sum(triplet_kernel_eval(tk, cell, math.inf, threshold, t)
               for t in range(1, tk.t_max + 1))


def joint_modulus_pmf(tk: TripletKernel, cell: ConditioningCell):
    """(moduli_j, moduli_v, pmf) of the next |return|, |volume| pair,
    aggregated over the waiting time: the cell's cached event law with the
    signs folded back onto the moduli."""
    vj, vv, event = tk.event_value_pmf(cell)
    mj, mv = tk.modulus_j.moduli, tk.modulus_v.moduli
    joint = np.einsum("tab,ka,lb->kl", event,
                      np.abs(vj) == mj[:, None], np.abs(vv) == mv[:, None])
    return mj, mv, joint


@dataclass(frozen=True)
class CovarianceResult:
    cov: float
    rho: float  # nan when a standard deviation vanishes
    mean_j: float
    mean_v: float
    sigma_j: float
    sigma_v: float


def modulus_covariance(tk: TripletKernel, cell: ConditioningCell) -> CovarianceResult:
    """Covariance and correlation of the next |return| and |volume| values,
    from the copula-coupled joint law differenced on the modulus grid."""
    mj, mv, joint = joint_modulus_pmf(tk, cell)
    pj = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    mean_j = float(mj @ pj)
    mean_v = float(mv @ pv)
    e_prod = float(mj @ joint @ mv)
    cov = e_prod - mean_j * mean_v
    var_j = float((mj - mean_j) ** 2 @ pj)
    var_v = float((mv - mean_v) ** 2 @ pv)
    if var_j <= 0 or var_v <= 0:
        rho = float("nan")
    else:
        rho = cov / math.sqrt(var_j * var_v)
    return CovarianceResult(cov=cov, rho=rho, mean_j=mean_j, mean_v=mean_v,
                            sigma_j=math.sqrt(max(var_j, 0.0)),
                            sigma_v=math.sqrt(max(var_v, 0.0)))


def signed_covariance(tk: TripletKernel, cell: ConditioningCell) -> float:
    """Cov(|next return|, next signed volume): the sign mean (2 p_v - 1)
    times the modulus covariance, hence exactly zero for p_v = 1/2."""
    return (2.0 * tk.signs.p_v - 1.0) * modulus_covariance(tk, cell).cov


def mutual_information(tk: TripletKernel, cell: ConditioningCell) -> float:
    """Mutual information (nats) of the next modulus pair on the discrete
    grid; non-negative up to rounding, floored at zero."""
    _, _, joint = joint_modulus_pmf(tk, cell)
    pj = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    mask = joint > 0
    outer = np.outer(pj, pv)
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return max(mi, 0.0)


# ---------------------------------------------------------------------------
# first passage times


@dataclass
class FptQuery:
    """Joint barrier query: survival of min{tau : price factor >= rho or
    volume factor >= psi}.

    The history arrays give the synchronized pre-history of (return value,
    volume value, jump time) with the last time equal to zero; ``u`` is the
    backward recurrence time of the synchronized chain at the query start.
    A bare initial condition is the one-entry history [(i0, v0, 0)].
    """

    rho: float
    psi: float
    horizon: int
    history_j: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    history_v: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    history_t: np.ndarray = field(default_factory=lambda: np.array([0]))
    u: int = 0

    def __post_init__(self):
        self.history_j = np.asarray(self.history_j, dtype=float)
        self.history_v = np.asarray(self.history_v, dtype=float)
        self.history_t = np.asarray(self.history_t, dtype=np.int64)
        if not (self.rho > 0 and self.psi > 0):
            raise ParameterError("thresholds must be positive")
        if self.horizon < 1:
            raise ParameterError("horizon must be >= 1")
        if self.u < 0:
            raise ParameterError("backward time must be non-negative")
        if not (self.history_j.size == self.history_v.size == self.history_t.size >= 1):
            raise ContractViolation("history arrays must be non-empty and aligned")
        if self.history_t[-1] != 0:
            raise ContractViolation("history must end at time zero")
        if self.history_t.size > 1 and np.any(np.diff(self.history_t) <= 0):
            raise ContractViolation("history times must be strictly increasing")
        # the index carry sums a squared value over each minute it holds, from
        # the history's first time to the horizon: a sum that may overflow is
        # refused, since it would run on as inf
        minutes = self.horizon - int(self.history_t[0]) + 1
        with np.errstate(over="ignore"):
            sums = np.concatenate([self.history_j ** 2, self.history_v ** 2]) * minutes
        if not np.isfinite(sums).all():
            raise ParameterError("history values must be finite, with finite squares")


@dataclass
class FptResult:
    survival: np.ndarray  # P(no barrier crossed by t), t = 0..horizon
    method: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    n_paths: int = 0

    def as_dict(self) -> dict:
        out = {"survival": self.survival.tolist(), "method": self.method,
               "n_paths": self.n_paths}
        if self.lower is not None:
            out["lower"] = self.lower.tolist()
            out["upper"] = self.upper.tolist()
        return out


def _fpt_start(tk: TripletKernel, q: FptQuery):
    """The start both first-passage methods run from: the last history values,
    the index carry-states the history implies at time zero and the backward
    time of each variable (minutes since its value last changed).

    Refuses a start cell whose waiting law has no mass beyond ``q.u``: the
    recursion divides by 1 - H(u) and the sampler draws from H(u) to the
    row's top, which may lie just below one, so both must be positive."""
    i0, v0 = float(q.history_j[-1]), float(q.history_v[-1])
    carries = []
    for lam, vals in ((tk.kernel_j.lam, q.history_j), (tk.kernel_v.lam, q.history_v)):
        w, d = 0.0, 1.0
        for k in range(vals.size - 1):
            w, d = advance_carry(lam, w, d, vals[k], int(q.history_t[k + 1] - q.history_t[k]))
        carries.append((w, d))
    backs = []
    for vals in (q.history_j, q.history_v):
        b = 0
        for k in range(vals.size - 1, 0, -1):
            if vals[k] != vals[k - 1]:
                break
            b = int(-q.history_t[k - 1])
        backs.append(b)
    (wj, dj), (wv, dv) = carries
    cell = tk.cell_for(i0, v0, (wj + i0 * i0) / dj, (wv + v0 * v0) / dv, *backs)
    cdf = np.cumsum(tk.cond_wait.resolved[cell.i, cell.v, cell.x_bin, cell.w_bin])
    h_u = cdf[min(q.u, tk.t_max) - 1] if q.u >= 1 else 0.0
    if not (1.0 - h_u > 0.0 and cdf[-1] - h_u > 0.0):
        raise ContractViolation("waiting-time law has no mass beyond u")
    return i0, v0, carries[0], carries[1], backs[0], backs[1]


def fpt_survival_recursive(tk: TripletKernel, query: FptQuery,
                           max_nodes: int = 2_000_000) -> FptResult:
    """Exact survival by conditioning on the first synchronized jump.

    The no-jump branch survives while the running product of held values
    stays below both barriers; the jump branch re-runs the problem with the
    barriers deflated by the accumulation at the jump time and the index
    carry-states rolled forward. A memo collapses repeated sub-problems only
    when both kernels have one index bin, where the key leaves the carry
    out. With index bins a node's law depends on the exact carry floats,
    which no two nodes share (0 hits in 56 701 lookups at horizon 3 on a
    model with 5 index bins), so every node is solved without a key and the
    working memory is the call stack alone, at most ``horizon`` frames deep.
    The node budget guards against profiles where the exact recursion is
    infeasible (use the Monte Carlo method there). On a two-year minute-bar
    model fitted with the ``estimate`` defaults and barriers 1.0015 (price)
    and 20 (volume), horizon 3 takes about 1.5 s, horizon 4 about 35 s, and
    horizon 5 exceeds the default budget.
    """
    i0, v0, (wj0, dj0), (wv0, dv0), b_j, b_v = _fpt_start(tk, query)
    if query.rho <= 1.0 or query.psi <= 1.0:
        return FptResult(survival=np.zeros(query.horizon + 1), method="recursion")
    index_free = tk.kernel_j.index_edges.size == 2 and tk.kernel_v.index_edges.size == 2
    memo: dict = {}
    nodes = [0]

    def solve(i_val, v_val, aj_w, aj_d, av_w, av_d, bj, bv, lr, lp, u, hor):
        if lr <= 0.0 or lp <= 0.0:
            return np.zeros(hor + 1)
        key = None
        if index_free:
            key = (i_val, v_val, bj, bv, round(lr, 12), round(lp, 12), u, hor)
            hit = memo.get(key)
            if hit is not None:
                return hit
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise ResourceLimitError(
                f"recursion exceeded {max_nodes} nodes; use the mc method")
        xj = (aj_w + i_val * i_val) / aj_d
        wv = (av_w + v_val * v_val) / av_d
        cell = tk.cell_for(i_val, v_val, xj, wv, bj, bv)
        h = tk.waiting_pmf(cell)
        cdf = np.cumsum(h)
        # u > 0 only at the root, where _fpt_start has checked the denominator
        denom = 1.0 - (cdf[min(u, tk.t_max) - 1] if u >= 1 else 0.0)
        out = np.zeros(hor + 1)
        for t in range(hor + 1):
            if _crossed_by(i_val, t, lr) or _crossed_by(v_val, t, lp):
                break
            h_t = cdf[min(max(t, u), tk.t_max) - 1] if max(t, u) >= 1 else 0.0
            out[t] = (1.0 - h_t) / denom
        vj, vv, event = tk.event_value_pmf(cell)
        for t1 in range(u + 1, hor + 1):
            if _crossed_by(i_val, t1, lr) or _crossed_by(v_val, t1, lp):
                break
            if t1 > tk.t_max:
                break
            block = event[t1 - 1]
            if block.sum() <= 0.0:
                continue
            wj2, dj2 = advance_carry(tk.kernel_j.lam, aj_w, aj_d, i_val, t1)
            wv2, dv2 = advance_carry(tk.kernel_v.lam, av_w, av_d, v_val, t1)
            for a in range(vj.size):
                for b in range(vv.size):
                    p = block[a, b]
                    if p <= 0.0:
                        continue
                    j1, v1 = float(vj[a]), float(vv[b])
                    child = solve(j1, v1, wj2, dj2, wv2, dv2,
                                  0 if j1 != i_val else bj + t1,
                                  0 if v1 != v_val else bv + t1,
                                  lr - i_val * t1, lp - v_val * t1,
                                  0, hor - t1)
                    out[t1:] += (p / denom) * child
        if key is not None:
            memo[key] = out
        return out

    surv = solve(i0, v0, wj0, dj0, wv0, dv0, b_j, b_v,
                 math.log(query.rho), math.log(query.psi), query.u, query.horizon)
    return FptResult(survival=surv, method="recursion")


def _crossed_by(value: float, t: int, log_barrier: float) -> bool:
    """Has the accumulation of a held value reached the barrier by time t?
    Positive values peak at t; non-positive values never cross a barrier
    above one."""
    if value <= 0.0 or t <= 0:
        return False
    return value * t >= log_barrier


def fpt_survival_mc(tk: TripletKernel, query: FptQuery, n_paths: int = 100_000,
                    seed: int = 0) -> FptResult:
    """Monte Carlo estimate of the same survival with binomial-proportion
    bands. The paths run in consecutive batches of ``MC_BATCH``, all drawing
    one after another from a single seeded stream, so the result is
    reproducible for fixed (seed, n_paths). Within a batch the paths advance
    in vectorized lockstep: each round draws the sojourns of the live paths
    in path order, then the next values of the paths that neither crossed
    nor passed the horizon; the others leave every array. Each round adds
    its crossings to one histogram over the horizon.

    Working memory is about 200 bytes per path of one batch, whatever the
    path count: the live paths' arrays are compacted one at a time, states
    and index bins are small integers, and the draw counts each value's
    modulus without a paths-by-moduli matrix. Only the start's states take
    the nearest-value search (the start may lie off the support); later
    rounds carry the states the draw returns."""
    if n_paths < 1:
        raise ParameterError("need at least one path")
    start = _fpt_start(tk, query)
    horizon = query.horizon
    if query.rho <= 1.0 or query.psi <= 1.0:
        zeros = np.zeros(horizon + 1)
        return FptResult(survival=zeros, method="monte-carlo", lower=zeros,
                         upper=zeros, n_paths=n_paths)
    rng = np.random.default_rng(seed)
    hits = np.zeros(horizon + 1, dtype=np.int64)  # paths crossing at each time
    for first in range(0, n_paths, MC_BATCH):
        _mc_batch(tk, query, start, min(MC_BATCH, n_paths - first), rng, hits)
    surv = (n_paths - np.cumsum(hits)) / n_paths
    se = np.sqrt(np.maximum(surv * (1.0 - surv), 0.0) / n_paths)
    return FptResult(survival=surv, method="monte-carlo",
                     lower=np.clip(surv - 3.0 * se, 0.0, 1.0),
                     upper=np.clip(surv + 3.0 * se, 0.0, 1.0),
                     n_paths=n_paths)


def _mc_batch(tk: TripletKernel, query: FptQuery, start, n: int,
              rng: np.random.Generator, hits: np.ndarray) -> None:
    """Run ``n`` paths from ``start`` (``_fpt_start``'s result) to their
    crossing or past the horizon, adding each crossing time to ``hits``."""
    i0, v0, (wj0, dj0), (wv0, dv0), b_j0, b_v0 = start
    horizon = query.horizon
    live = SimpleNamespace(
        i_val=np.full(n, i0), v_val=np.full(n, v0),
        wj=np.full(n, wj0), dj=np.full(n, dj0), wv=np.full(n, wv0), dv=np.full(n, dv0),
        bj=np.full(n, b_j0, dtype=np.int64), bv=np.full(n, b_v0, dtype=np.int64),
        log_j=np.zeros(n), log_v=np.zeros(n), t_now=np.zeros(n, dtype=np.int64))
    cells = tk.cells_of(tk.value_states(live.i_val, live.v_val),
                        live.i_val, live.v_val, live.wj, live.dj, live.wv, live.dv)
    lr, lp = math.log(query.rho), math.log(query.psi)
    u = query.u
    while True:
        soj = tk.draw_sojourns(rng, cells, u=u)
        u = 0
        # crossing during the stretch: positive held values accumulate
        cross = np.full(soj.size, horizon + 1, dtype=np.int64)
        for vals, logs, lim in ((live.i_val, live.log_j, lr), (live.v_val, live.log_v, lp)):
            hit = (vals > 0) & (logs + vals * soj >= lim)
            need = np.ceil((lim - logs[hit]) / vals[hit]).astype(np.int64)
            cross[hit] = np.minimum(cross[hit], live.t_now[hit] + need)
        done = cross <= horizon
        hits += np.bincount(cross[done], minlength=horizon + 1)
        live.t_now += soj
        keep = ~done & (live.t_now <= horizon)
        del cross, done  # not held through the compaction and the draw
        # one array at a time, so that one old copy at most is held
        for name in vars(live):
            setattr(live, name, getattr(live, name)[keep])
        soj = soj[keep]
        cells = tuple(c[keep] for c in cells)
        if not soj.size:
            return
        live.log_j += live.i_val * soj
        live.log_v += live.v_val * soj
        (nj, nv), states = tk.draw_next_values(rng, cells, live.bj, live.bv, soj)
        live.wj, live.dj = advance_carry(tk.kernel_j.lam, live.wj, live.dj, live.i_val, soj)
        live.wv, live.dv = advance_carry(tk.kernel_v.lam, live.wv, live.dv, live.v_val, soj)
        live.bj = np.where(nj != live.i_val, 0, live.bj + soj)
        live.bv = np.where(nv != live.v_val, 0, live.bv + soj)
        live.i_val, live.v_val = nj, nv
        cells = tk.cells_of(states, live.i_val, live.v_val, live.wj, live.dj, live.wv, live.dv)
