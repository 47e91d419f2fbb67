"""Synchronized return/volume model: union jump times, conditional waiting
law, sign probabilities, copula-coupled modulus marginals and the evaluation
of the resulting three-way kernel."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .copulas import CopulaSpec, copula_eval, fit_copula, sample_copula
from .core import (
    IndexedKernel,
    IndexParams,
    JumpChain,
    StateGrid,
    bin_of,
    discretize,
    estimate_kernel,
    index_at_times,
    indexed_ladder,
    make_state_grid,
    normalized,
    resolve_ladder,
    scalar_bin,
    sojourn_counts,
)
from .errors import (
    AlignmentError,
    ContractViolation,
    EstimationError,
    ParameterError,
)

__all__ = [
    "SyncChain",
    "SignModel",
    "CondWaitDist",
    "ConditioningCell",
    "EmpiricalInverse",
    "sample_runs",
    "TripletKernel",
    "TripletFitConfig",
    "synchronize",
    "estimate_signs",
    "estimate_cond_wait",
    "triplet_kernel_eval",
    "quadrant_masses",
    "fit_triplet_kernel",
]


# ---------------------------------------------------------------------------
# synchronization


@dataclass
class SyncChain:
    """Event record on the union of the two variables' jump times.

    At each union time the chain carries the state each variable holds and
    how long ago that variable last jumped (its backward recurrence time);
    at least one backward time is zero at every event after the origin.
    """

    j_states: np.ndarray
    v_states: np.ndarray
    times: np.ndarray
    backward_j: np.ndarray
    backward_v: np.ndarray
    grid_j: StateGrid
    grid_v: StateGrid

    def __len__(self) -> int:
        return self.times.size

    @property
    def j_values(self) -> np.ndarray:
        return self.grid_j.representatives[self.j_states]

    @property
    def v_values(self) -> np.ndarray:
        return self.grid_v.representatives[self.v_states]

    def sojourns(self) -> np.ndarray:
        return np.diff(self.times)


def synchronize(chain_j: JumpChain, chain_v: JumpChain) -> SyncChain:
    """Merge two jump chains onto the union of their jump times; each
    variable carries its last value at or before every union time."""
    if len(chain_j) == 0 or len(chain_v) == 0:
        raise AlignmentError("cannot synchronize an empty chain")
    if chain_j.times[0] != chain_v.times[0]:
        raise AlignmentError("chains must share their time origin")
    both = np.concatenate([chain_j.times, chain_v.times])
    both.sort()
    times = both[np.concatenate([[True], both[1:] != both[:-1]])]
    del both

    def carried(chain):
        # one variable's positions at a time, dropped once gathered
        at = np.searchsorted(chain.times, times, side="right") - 1
        return chain.states[at], times - chain.times[at]

    (j_states, backward_j), (v_states, backward_v) = carried(chain_j), carried(chain_v)
    return SyncChain(j_states=j_states, v_states=v_states, times=times,
                     backward_j=backward_j, backward_v=backward_v,
                     grid_j=chain_j.grid, grid_v=chain_v.grid)


# ---------------------------------------------------------------------------
# signs and the synchronized waiting-time law


@dataclass(frozen=True)
class SignModel:
    """Independent up-move probabilities attached to modulus draws. A state
    whose value is exactly zero carries no sign and is excluded from
    estimation."""

    p_j: float
    p_v: float

    def __post_init__(self):
        if not (0.0 <= self.p_j <= 1.0 and 0.0 <= self.p_v <= 1.0):
            raise ContractViolation("sign probabilities must lie in [0, 1]")


def estimate_signs(sync: SyncChain) -> SignModel:
    """Fraction of positive values among the nonzero ones, per variable."""
    ps = []
    for vals in (sync.j_values, sync.v_values):
        nz = vals[vals != 0.0]
        if nz.size == 0:
            raise EstimationError("all states are zero; sign probability unidentifiable")
        ps.append(float(np.mean(nz > 0)))
    return SignModel(p_j=ps[0], p_v=ps[1])


@dataclass
class CondWaitDist:
    """Law of the synchronized sojourn given both states and both index bins,
    truncated at ``t_max`` with overflow lumped into the last slot. Only the
    counts are stored; the index bins are the kernels' (one set of edges per
    variable). ``pmf`` normalizes each cell's counts, ``resolved`` holds
    every cell's law after the fallback ladder and ``level`` the level it
    took: 0 for the cell's own law, 1 for the (state, state) law pooled over
    index bins, 2 for the global law."""

    counts: np.ndarray  # [sJ, sV, Bx, Bw, t_max]

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 5 or self.t_max < 1:
            raise ParameterError("counts must have 5 axes and at least one sojourn slot")
        levels, last = indexed_ladder(self.counts, (2, 3), 1)
        self.pmf = levels[0][0]
        self.resolved, self.level = resolve_ladder(levels, last)

    @property
    def t_max(self) -> int:
        return self.counts.shape[4]


def estimate_cond_wait(sync: SyncChain, idx_j, idx_v, x_edges, w_edges,
                       t_max: Optional[int] = None) -> CondWaitDist:
    """Count synchronized sojourns per (state, state, index-bin, index-bin)
    cell. ``idx_j``/``idx_v`` are the index-process values at the union
    times, binned by ``x_edges``/``w_edges``."""
    if len(sync) < 2:
        raise EstimationError("need at least one synchronized transition")
    x_edges = np.asarray(x_edges, dtype=float)
    w_edges = np.asarray(w_edges, dtype=float)
    return CondWaitDist(counts=sojourn_counts(
        (sync.j_states[:-1], sync.v_states[:-1],
         bin_of(x_edges, idx_j[:-1]), bin_of(w_edges, idx_v[:-1])),
        (sync.grid_j.n_states, sync.grid_v.n_states, x_edges.size - 1, w_edges.size - 1),
        sync.sojourns(), t_max))


# ---------------------------------------------------------------------------
# conditioning cells and modulus marginals


@dataclass(frozen=True)
class ConditioningCell:
    """Everything the next synchronized transition is allowed to depend on:
    both current states, both index bins and both backward times. Each
    variable has one set of index edges, which its kernel and the
    waiting-time table share, so one bin per variable indexes both."""

    i: int
    v: int
    x_bin: int = 0
    w_bin: int = 0
    b_j: int = 0
    b_v: int = 0


class _ModulusTable:
    """One variable's tables, built once per kernel and up-move probability
    ``p``:

    - ``moduli``, the sorted unique moduli of the representatives, and the
      resolved conditional modulus cdf cube F[i, b, t, k] = P(|next| <=
      moduli[k] | sojourn t+1, ...). Each (i, b, t) row takes the first of
      five laws, folded onto the moduli, that has mass there: the kernel's
      cell, state and global law at that sojourn (levels 0-2), then the
      state's and the global law over all sojourns (levels 3 and 4), so
      analytic sums stay normalized. ``level`` holds the level each row took;
    - ``support``, every modulus with both signs (0.0 once, never -0.0);
    - ``sign_matrix``, row k the law of modulus k's signed value: mass 1 on
      0 for a zero modulus, else p on +m and 1 - p on -m;
    - ``support_state``, the state of each support value: the first
      representative equal to it, else the first of the same modulus, which
      every support value has;
    - ``edges``, the kernel's index edges as a list, for scalar lookups;
    - for the batched draw, the cdf's columns below the top over the flat
      (state, index bin, sojourn slot) rows, and the signed value and state
      of modulus k drawn down (entry k) or up (entry K + k), the states in
      the smallest integer type that holds them."""

    def __init__(self, kernel: IndexedKernel, p: float):
        self.kernel = kernel
        self.moduli, self.state_mod = kernel.grid.moduli()
        [(cell, _), (state, _)], glob = kernel.ladder()
        cell, state, glob = (self._fold(law) for law in (cell, state, glob))
        state_free = state.sum(axis=-2, keepdims=True)
        global_free = glob.sum(axis=-2, keepdims=True)
        levels = [normalized(law) for law in (cell, state, glob, state_free)]
        resolved, self.level = resolve_ladder(levels, normalized(global_free)[0])
        self.cdf = np.cumsum(resolved, axis=-1)
        # guard against accumulated rounding at the top
        self.cdf[..., -1] = 1.0

        moduli, reps = self.moduli, kernel.grid.representatives
        self.support = support = np.unique(np.concatenate([-moduli[moduli > 0], moduli]))
        rows = np.arange(moduli.size)
        signed = moduli > 0
        self.sign_matrix = np.zeros((moduli.size, support.size))
        self.sign_matrix[rows, np.searchsorted(support, moduli)] = np.where(signed, p, 1.0)
        self.sign_matrix[rows[signed], np.searchsorted(support, -moduli[signed])] = 1.0 - p
        same = support[:, None] == reps
        mirror = np.abs(support)[:, None] == np.abs(reps)
        self.support_state = np.where(same.any(axis=1), same.argmax(axis=1),
                                      mirror.argmax(axis=1))
        self._exact = dict(zip(support.tolist(), self.support_state.tolist()))
        self.edges = kernel.index_edges.tolist()
        # not the top column, 1.0: a uniform above it would take the last modulus anyway
        self._columns = np.ascontiguousarray(self.cdf.reshape(-1, moduli.size).T[:-1])
        drawn = np.searchsorted(support, np.concatenate([-moduli, moduli]))
        self._drawn_value = support[drawn]
        self._drawn_state = self.support_state[drawn].astype(np.min_scalar_type(reps.size - 1))

    def _fold(self, law: np.ndarray) -> np.ndarray:
        """law[..., next state, sojourn] -> [..., sojourn, modulus]."""
        out = np.zeros(law.shape[:-2] + (law.shape[-1], self.moduli.size))
        for j in range(self.state_mod.size):
            out[..., self.state_mod[j]] += law[..., j, :]
        return out

    def cdf_row(self, i: int, x_bin: int, sojourn: int) -> np.ndarray:
        t_slot = min(int(sojourn), self.kernel.t_max) - 1
        return self.cdf[i, x_bin, t_slot]

    def states(self, values) -> np.ndarray:
        """Grid states of signed values: exact for support values, the
        nearest support value's state otherwise."""
        support = self.support
        values = np.asarray(values, dtype=float)
        pos = np.minimum(np.searchsorted(support, values), support.size - 1)
        prev = np.maximum(pos - 1, 0)
        take_prev = np.abs(support[prev] - values) < np.abs(support[pos] - values)
        return self.support_state[np.where(take_prev, prev, pos)]

    def state(self, value: float) -> int:
        """:meth:`states` for one Python float, without numpy's cost per
        call for a support value."""
        state = self._exact.get(value)
        return int(self.states(value)) if state is None else state

    def draw(self, state, x_bin, age, u, up) -> tuple:
        """Signed value and state of each path's draw: the modulus at which
        ``u`` meets the cdf row of (state, index bin, ``age``), with the sign
        up where ``up``. Counts the row's entries below ``u`` one column at a
        time, never gathering the rows."""
        rows = np.ravel_multi_index(
            (state, x_bin, np.minimum(age, self.kernel.t_max) - 1), self.cdf.shape[:3])
        pos = np.zeros(rows.size, dtype=np.intp)
        for column in self._columns:
            pos += column[rows] < u
        np.add(pos, self.moduli.size, out=pos, where=up)
        return self._drawn_value[pos], self._drawn_state[pos]


def sample_runs(sample) -> tuple:
    """A sorted sample as runs of equal bits, so that ``-0.0`` and ``0.0``
    stay apart: the value of each run and how many samples it holds."""
    sample = np.asarray(sample, dtype=float)
    bits = sample.view(np.int64)
    starts = np.flatnonzero(np.r_[sample.size > 0, bits[1:] != bits[:-1]])
    return sample[starts], np.diff(np.r_[starts, sample.size])


@dataclass
class EmpiricalInverse:
    """Per state, the sorted continuous values observed in it, for mapping
    simulated states back to continuous values, held as their runs (see
    :func:`sample_runs`), as model files store them."""

    values: list  # one ascending float ndarray per state
    counts: list  # one int64 ndarray per state, each count at least 1
    grid: StateGrid

    @classmethod
    def from_runs(cls, runs, grid: StateGrid) -> "EmpiricalInverse":
        """The inverse of one (values, counts) pair per state."""
        return cls(values=[v for v, _ in runs], counts=[c for _, c in runs], grid=grid)

    @classmethod
    def from_data(cls, values, grid: StateGrid) -> "EmpiricalInverse":
        values = np.asarray(values, dtype=float)
        idx = grid.state_of(values)
        return cls.from_runs([sample_runs(np.sort(values[idx == s]))
                              for s in range(grid.n_states)], grid)


# ---------------------------------------------------------------------------
# the triplet kernel


@dataclass
class TripletKernel:
    """Fitted synchronized model: per-variable kernels, the synchronized
    waiting-time law, the modulus copula and the sign probabilities.
    Immutable after construction; evaluation methods are pure."""

    kernel_j: IndexedKernel
    kernel_v: IndexedKernel
    cond_wait: CondWaitDist
    copula: CopulaSpec
    signs: SignModel
    inverse_j: Optional[EmpiricalInverse] = None
    inverse_v: Optional[EmpiricalInverse] = None

    def __post_init__(self):
        kj, kv = self.kernel_j, self.kernel_v
        if self.cond_wait.counts.shape[:4] != (kj.grid.n_states, kv.grid.n_states,
                                               kj.n_index_bins, kv.n_index_bins):
            raise ContractViolation("the waiting-time table's shape does not match "
                                    "the kernels' grids and index bins")
        self.modulus_j = _ModulusTable(kj, self.signs.p_j)
        self.modulus_v = _ModulusTable(kv, self.signs.p_v)
        self._event_cache: dict = {}
        # every cell's waiting-time cdf, for the batched sojourn draw
        self._wait_cdf = np.cumsum(self.cond_wait.resolved, axis=-1)
        self._bin_types = tuple(np.min_scalar_type(k.n_index_bins - 1) for k in (kj, kv))

    # -- lookups ------------------------------------------------------------

    @property
    def t_max(self) -> int:
        return self.cond_wait.t_max

    def waiting_pmf(self, cell: ConditioningCell) -> np.ndarray:
        return self.cond_wait.resolved[cell.i, cell.v, cell.x_bin, cell.w_bin]

    def event_value_pmf(self, cell: ConditioningCell) -> tuple:
        """Model law of the next event: (signed j values, signed v values,
        P[t_max, nj, nv]) where P[t-1, a, b] = P(next j value, next v value,
        sojourn = t | cell). Signs attach independently to positive moduli.
        Cached per cell (the kernel is immutable)."""
        key = (cell.i, cell.v, cell.x_bin, cell.w_bin, cell.b_j, cell.b_v)
        hit = self._event_cache.get(key)
        if hit is not None:
            return hit
        h = self.waiting_pmf(cell)
        vj, vv = self.modulus_j.support, self.modulus_v.support
        out = np.zeros((self.t_max, vj.size, vv.size))
        for t in range(1, self.t_max + 1):
            if h[t - 1] <= 0.0:
                continue
            vol = self.modulus_volume(cell, t)
            out[t - 1] = h[t - 1] * self._sign_split(vol)
        self._event_cache[key] = (vj, vv, out)
        return vj, vv, out

    def modulus_volume(self, cell: ConditioningCell, t: int) -> np.ndarray:
        """Joint modulus pmf at sojourn t via copula rectangle volumes."""
        fj = self.modulus_j.cdf_row(cell.i, cell.x_bin, t + cell.b_j)
        fv = self.modulus_v.cdf_row(cell.v, cell.w_bin, t + cell.b_v)
        fj = np.concatenate([[0.0], fj])
        fv = np.concatenate([[0.0], fv])
        grid = copula_eval(self.copula, fj[:, None], fv[None, :])
        vol = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
        return np.clip(vol, 0.0, None)

    def _sign_split(self, vol: np.ndarray) -> np.ndarray:
        """Distribute a modulus-pair pmf onto signed values."""
        # out[a, b] = sum_{k,l} vol[k, l] * sj[k, a] * sv[l, b]
        return np.einsum("kl,ka,lb->ab", vol, self.modulus_j.sign_matrix,
                         self.modulus_v.sign_matrix)

    # -- cells of signed values ---------------------------------------------

    def cell_for(self, i_val, v_val, xj, wv, b_j, b_v) -> ConditioningCell:
        """The cell of one path, from Python scalars: the same cell as the
        array lookups give, without numpy's cost per call on single values
        (the exact recursion makes one call per node)."""
        mj, mv = self.modulus_j, self.modulus_v
        return ConditioningCell(i=mj.state(i_val), v=mv.state(v_val),
                                x_bin=scalar_bin(mj.edges, xj),
                                w_bin=scalar_bin(mv.edges, wv), b_j=b_j, b_v=b_v)

    def value_states(self, i_val, v_val) -> tuple:
        """Grid states of a batch of signed value pairs, the nearest support
        value's state for a value off the support. Only a start needs it: the
        draw returns the states of the values it draws."""
        return self.modulus_j.states(i_val), self.modulus_v.states(v_val)

    def cells_of(self, states, i_val, v_val, wj, dj, wv, dv) -> tuple:
        """Conditioning cells of a batch of paths: both states and both index
        bins, which index the waiting-time table and the modulus tables alike.
        The bins are held in the smallest integer type that holds them."""
        type_j, type_v = self._bin_types
        return (*states,
                self.kernel_j.index_bin((wj + i_val * i_val) / dj).astype(type_j),
                self.kernel_v.index_bin((wv + v_val * v_val) / dv).astype(type_v))

    # -- the sampling step, shared by simulate_path and fpt_survival_mc -----

    def draw_sojourns(self, rng, cells, u=0) -> np.ndarray:
        """Inverse-cdf sojourn draw per path, conditioned on exceeding u."""
        cdf = self._wait_cdf[cells]
        base = cdf[:, min(u, self.t_max) - 1] if u >= 1 else 0.0
        uni = base + rng.random(cdf.shape[0]) * (cdf[:, -1] - base)
        slot = (cdf < uni[:, None]).sum(axis=1)
        return np.minimum(slot, self.t_max - 1) + 1

    def draw_next_values(self, rng, cells, bj, bv, soj) -> tuple:
        """Next signed value pair per path and the states of both values,
        ``((j values, v values), (j states, v states))``: copula uniforms
        inverted through the conditional modulus cdfs at each variable's
        backward time plus the sojourn, signs attached independently."""
        i_state, v_state, xb, wb = cells
        n = i_state.size
        u_j, u_v = sample_copula(self.copula, n, rng)
        up_j = rng.random(n) < self.signs.p_j
        up_v = rng.random(n) < self.signs.p_v
        nj, sj = self.modulus_j.draw(i_state, xb, bj + soj, u_j, up_j)
        nv, sv = self.modulus_v.draw(v_state, wb, bv + soj, u_v, up_v)
        return (nj, nv), (sj, sv)


# ---------------------------------------------------------------------------
# kernel evaluation: sums of the cell's event law


def triplet_kernel_eval(tk: TripletKernel, cell: ConditioningCell,
                        j: float, a: float, t: int) -> float:
    """P(next return value <= j (strictly < for j < 0), next volume value
    below a likewise, sojourn = t | cell): the cell's event law at sojourn t
    summed over the signed values below both thresholds."""
    if t < 1 or t > tk.t_max:
        return 0.0
    vj, vv, event = tk.event_value_pmf(cell)
    k = np.searchsorted(vj, j, side="right" if j >= 0 else "left")
    l = np.searchsorted(vv, a, side="right" if a >= 0 else "left")
    return float(event[t - 1, :k, :l].sum())


def quadrant_masses(tk: TripletKernel, cell: ConditioningCell, t: int) -> dict:
    """Probability of each sign quadrant of the next (return, volume) pair at
    sojourn t, a zero value counted as "+": the four sign blocks of the
    cell's event law at sojourn t. They sum to the waiting-time mass."""
    if t < 1 or t > tk.t_max:
        return {"++": 0.0, "--": 0.0, "-+": 0.0, "+-": 0.0}
    vj, vv, event = tk.event_value_pmf(cell)
    block = event[t - 1]
    k, l = np.searchsorted(vj, 0.0), np.searchsorted(vv, 0.0)
    return {"++": float(block[k:, l:].sum()), "--": float(block[:k, :l].sum()),
            "-+": float(block[:k, l:].sum()), "+-": float(block[k:, :l].sum())}


# ---------------------------------------------------------------------------
# end-to-end fit


@dataclass(frozen=True)
class TripletFitConfig:
    n_states_r: int = 5
    n_states_v: int = 5
    lam_r: float = 0.97
    lam_v: float = 0.97
    n_index_bins: int = 5
    copula_family: str = "gaussian"
    t_max: Optional[int] = None


def fit_triplet_kernel(r_values, v_values,
                       cfg: TripletFitConfig = TripletFitConfig()) -> TripletKernel:
    """Full estimation pipeline from aligned continuous return series:
    discretize both variables, estimate their indexed kernels, synchronize,
    estimate the conditional waiting-time law, the sign probabilities and the
    modulus copula, and bundle the per-state empirical inverses."""
    r_values = np.asarray(r_values, dtype=float)
    v_values = np.asarray(v_values, dtype=float)
    if r_values.size != v_values.size:
        raise AlignmentError("return and volume series must be aligned")
    grid_r = make_state_grid(r_values, cfg.n_states_r)
    grid_v = make_state_grid(v_values, cfg.n_states_v)
    chain_r = discretize(r_values, grid_r)
    chain_v = discretize(v_values, grid_v)
    kern_r = estimate_kernel(chain_r, IndexParams(
        lam=cfg.lam_r, n_index_bins=cfg.n_index_bins, t_max=cfg.t_max))
    kern_v = estimate_kernel(chain_v, IndexParams(
        lam=cfg.lam_v, n_index_bins=cfg.n_index_bins, t_max=cfg.t_max))
    sync = synchronize(chain_r, chain_v)
    idx_j = index_at_times(chain_r, sync.times, cfg.lam_r)
    idx_v = index_at_times(chain_v, sync.times, cfg.lam_v)
    # each event-sized array goes at its last use, so that none is held
    # through the copula fit
    del chain_r, chain_v
    cond = estimate_cond_wait(sync, idx_j, idx_v,
                              x_edges=kern_r.index_edges,
                              w_edges=kern_v.index_edges,
                              t_max=cfg.t_max)
    del idx_j, idx_v
    signs = estimate_signs(sync)
    mj, mv = sync.j_values[1:], sync.v_values[1:]
    del sync
    np.abs(mj, out=mj)
    np.abs(mv, out=mv)
    copula = fit_copula(mj, mv, family=cfg.copula_family)
    del mj, mv
    return TripletKernel(
        kernel_j=kern_r, kernel_v=kern_v, cond_wait=cond, copula=copula,
        signs=signs,
        inverse_j=EmpiricalInverse.from_data(r_values, grid_r),
        inverse_v=EmpiricalInverse.from_data(v_values, grid_v),
    )
