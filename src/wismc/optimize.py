"""Grid search over (state count, memory parameter) minimizing the mean
absolute percentage error between the real and simulated autocorrelation of
absolute returns."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import IndexParams, check_state_count, discretize, estimate_kernel, make_state_grid
from .errors import ParameterError, WismcError
from .market_data import autocorrelation
from .simulate import simulate_univariate
from .triplet import EmpiricalInverse

__all__ = ["GridSpec", "OptResult", "mape", "grid_search"]


@dataclass(frozen=True)
class GridSpec:
    """Settings of the grid search, each refused by the rule of what it sets up."""

    state_counts: tuple
    lambdas: tuple
    max_lag: int = 100
    reps_per_point: int = 5
    n_index_bins: int = 5
    epsilon: Optional[float] = None  # early stop on state-count improvement

    def __post_init__(self):
        if not self.state_counts or not self.lambdas:
            raise ParameterError("state_counts and lambdas must be non-empty")
        if self.max_lag < 1:
            raise ParameterError("max_lag must be >= 1")
        for s in self.state_counts:
            check_state_count(s)
        if self.reps_per_point < 1:
            raise ParameterError("reps_per_point must be >= 1")
        if self.epsilon is not None and not np.isfinite(self.epsilon):
            raise ParameterError("epsilon must be finite")
        self.index_params()
        # a repeated point would be simulated again and recorded twice
        for name, given in (("state counts", self.state_counts), ("lambdas", self.lambdas)):
            if len(set(given)) != len(given):
                raise ParameterError(f"{name} must not repeat, got {list(given)}")

    def index_params(self) -> tuple:
        """The kernel settings of each lambda, in order."""
        return tuple(IndexParams(lam=lam, n_index_bins=self.n_index_bins)
                     for lam in self.lambdas)


@dataclass
class OptResult:
    records: list  # dicts: s, lam, mape, failed, error
    best: Optional[dict]

    def as_dict(self) -> dict:
        return {"records": self.records, "best": self.best}


def mape(real_acf, synth_acf, max_lag: Optional[int] = None) -> float:
    """Mean absolute percentage error over lags 1..max_lag; lags where the
    real value vanishes are excluded with a warning."""
    real = np.asarray(real_acf, dtype=float)
    synth = np.asarray(synth_acf, dtype=float)
    lag = max_lag if max_lag is not None else min(real.size, synth.size) - 1
    if real.size <= lag or synth.size <= lag:
        raise ParameterError("ACF sequences do not cover the lag range")
    r = real[1:lag + 1]
    s = synth[1:lag + 1]
    usable = r != 0.0
    if not np.all(usable):
        warnings.warn(f"excluded {int((~usable).sum())} lags with zero real ACF")
    if not np.any(usable):
        raise ParameterError("no usable lags: real ACF vanishes everywhere")
    return float(100.0 * np.mean(np.abs(r[usable] - s[usable]) / np.abs(r[usable])))


def grid_search(values, spec: GridSpec, seed: int = 0) -> OptResult:
    """For each (s, lam): discretize, estimate the kernel, simulate
    ``reps_per_point`` replications as long as the input series, average the
    absolute-value ACF and score it against the real one. The grid, the jump
    chain and the empirical inverse depend on ``s`` alone and are built once
    per state count, with the kernel of every ``lam``, before the first
    replication; the chain is dropped then. Deterministic for a fixed seed;
    failed points are recorded and skipped, with one record per ``lam`` when
    a state count's own build fails. With ``epsilon`` set, the search stops
    growing the state count once the improvement falls below it."""
    values = np.asarray(getattr(values, "values", values), dtype=float)
    real_acf = autocorrelation(np.abs(values), spec.max_lag)
    records = []
    best_by_s = {}
    for s in sorted(spec.state_counts):
        # each lam's kernel, or the error that stopped its build; the chain
        # goes once they are built, before any replication runs
        try:
            grid = make_state_grid(values, s)
            chain = discretize(values, grid)
            inverse = EmpiricalInverse.from_data(values, grid)
        except WismcError as exc:
            kernels = [exc] * len(spec.lambdas)
        else:
            kernels = []
            for params in spec.index_params():
                try:
                    kernels.append(estimate_kernel(chain, params))
                except WismcError as exc:
                    kernels.append(exc)
            del chain
        for lam, kernel in zip(spec.lambdas, kernels):
            rec = {"s": int(s), "lam": float(lam), "mape": None,
                   "failed": False, "error": None}
            try:
                if isinstance(kernel, WismcError):
                    raise kernel
                acfs = []
                for rep in range(spec.reps_per_point):
                    child = np.random.SeedSequence(
                        [seed, s, rep, int(round(lam * 10 ** 9))]).generate_state(1)[0]
                    r_syn = simulate_univariate(kernel, values.size, int(child),
                                                inverse=inverse)[0]
                    np.abs(r_syn, out=r_syn)
                    acfs.append(autocorrelation(r_syn, spec.max_lag))
                    del r_syn  # not held through the next replication's run
                rec["mape"] = mape(real_acf, np.mean(acfs, axis=0), spec.max_lag)
            except WismcError as exc:
                rec["failed"] = True
                rec["error"] = str(exc)
            records.append(rec)
        scored = [r["mape"] for r in records if r["s"] == s and not r["failed"]]
        if scored:
            best_by_s[s] = min(scored)
        # the stop test needs an earlier state count that scored
        earlier = [v for k, v in best_by_s.items() if k < s]
        if spec.epsilon is not None and earlier and s in best_by_s:
            if min(earlier) - best_by_s[s] < spec.epsilon:
                break
    done = [r for r in records if not r["failed"]]
    best = min(done, key=lambda r: r["mape"]) if done else None
    return OptResult(records=records, best=best)
