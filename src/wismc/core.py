"""State discretization, jump chains, the volatility index process and
estimation of the per-variable indexed semi-Markov kernel."""
from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractViolation, EstimationError, ParameterError

__all__ = [
    "StateGrid",
    "JumpChain",
    "IndexParams",
    "IndexedKernel",
    "make_state_grid",
    "discretize",
    "index_at_times",
    "advance_carry",
    "carry_coefficients",
    "estimate_kernel",
    "sojourn_counts",
    "resolve_ladder",
]

# sojourns above this quantile share a kernel's or waiting-time law's last slot
SOJOURN_QUANTILE = 0.995
# jumps and query times converted to Python numbers at a time by index_at_times
INDEX_CHUNK = 8192


# ---------------------------------------------------------------------------
# state grids


@dataclass(frozen=True)
class StateGrid:
    """Partition of the real line into states.

    ``edges`` has length ``n_states + 1`` with ``edges[0] == -inf`` and
    ``edges[-1] == +inf`` so every finite value maps to exactly one state.
    ``representatives`` holds one real value per state; it is used as the
    state's value in the index process and as the seed for path
    reconstruction. Bins are left-closed, right-open except the last.
    """

    edges: np.ndarray
    representatives: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        reps = np.asarray(self.representatives, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise ParameterError("need at least 2 states (3 edges)")
        if not np.all(np.diff(edges) > 0):  # NaN fails too
            raise ParameterError("state edges must be strictly increasing")
        if not np.isinf(edges[0]) or not np.isinf(edges[-1]):
            raise ParameterError("outermost edges must be -inf/+inf")
        if reps.size != edges.size - 1:
            raise ParameterError("need one representative per state")
        if not np.isfinite(reps).all():
            raise ParameterError("state representatives must be finite")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "representatives", reps)

    @property
    def n_states(self) -> int:
        return self.edges.size - 1

    def state_of(self, values) -> np.ndarray:
        """Map values to state indices (vectorized)."""
        return bin_of(self.edges, values)

    def moduli(self):
        """Sorted unique absolute representative values with, per state, the
        position of its modulus in that sorted list."""
        mods = np.abs(self.representatives)
        uniq = np.unique(mods)
        pos = np.searchsorted(uniq, mods)
        return uniq, pos


def check_state_count(n_states: int) -> None:
    """Refuse a state grid of fewer than two states."""
    if n_states < 2:
        raise ParameterError(f"need at least 2 states, got {n_states}")


def make_state_grid(values, n_states: int) -> StateGrid:
    """Build a quantile state grid from observed values.

    For odd ``n_states`` a dedicated bin bracketing zero takes roughly
    ``1/n_states`` of the mass and the remaining mass is split into
    equal-count bins on each side. Representatives are in-bin medians. An
    empty bin takes its midpoint, and an empty lowest bin the greatest float
    below its edge (the top bin holds the greatest value), so every
    representative is finite and lies in its own bin.
    """
    check_state_count(n_states)
    values = np.asarray(values, dtype=float)
    if values.size < 2 * n_states:
        raise EstimationError("too few observations for the requested state count")
    if n_states % 2 == 1:
        half = np.quantile(np.abs(values), 1.0 / n_states)
        if half <= 0:
            half = np.finfo(float).tiny
        k = (n_states - 1) // 2
        lo = values[values < -half]
        hi = values[values >= half]
        if lo.size < k or hi.size < k:
            raise EstimationError("not enough mass outside the center bin")
        lo_edges = np.quantile(lo, np.linspace(0, 1, k + 1))[1:-1]
        hi_edges = np.quantile(hi, np.linspace(0, 1, k + 1))[1:-1]
        interior = np.concatenate([lo_edges, [-half, half], hi_edges])
    else:
        interior = np.quantile(values, np.linspace(0, 1, n_states + 1))[1:-1]
    interior = np.unique(interior)
    if interior.size != n_states - 1:
        raise EstimationError("degenerate quantile edges; reduce the state count")
    edges = np.concatenate([[-np.inf], interior, [np.inf]])
    idx = bin_of(edges, values)
    reps = np.empty(n_states)
    for s in range(n_states):
        sel = values[idx == s]
        if sel.size:
            reps[s] = np.median(sel)
        elif s == 0:  # its edge is the least value
            reps[s] = np.nextafter(edges[1], -np.inf)
        else:
            reps[s] = 0.5 * (edges[s] + edges[s + 1])
    return StateGrid(edges=edges, representatives=reps)


# ---------------------------------------------------------------------------
# jump chains


@dataclass
class JumpChain:
    """Marked point process of state changes.

    ``states`` are grid indices, ``times`` the integer minute of each change
    (strictly increasing).
    """

    states: np.ndarray
    times: np.ndarray
    grid: StateGrid

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.int64)
        if self.states.size != self.times.size:
            raise ContractViolation("states and times must have equal length")
        if self.states.size:
            if np.any(np.diff(self.times) <= 0):
                raise ContractViolation("jump times must be strictly increasing")
            if np.any(np.diff(self.states) == 0):
                raise ContractViolation("consecutive states must differ (a jump changes the state)")

    def __len__(self) -> int:
        return self.states.size

    def sojourns(self) -> np.ndarray:
        return np.diff(self.times)


def discretize(values, grid: StateGrid) -> JumpChain:
    """Bin a series into states and collapse equal consecutive states into
    visits; times record the position index of each state change."""
    values = np.asarray(getattr(values, "values", values), dtype=float)
    if values.size == 0:
        return JumpChain(states=np.empty(0, np.int64), times=np.empty(0, np.int64), grid=grid)
    states = grid.state_of(values)
    # a visit starts at the first value and where the state differs from the
    # one before; rebinding drops the mask, then the per-value states
    starts = np.ones(states.size, dtype=bool)
    np.not_equal(states[1:], states[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    states = states[starts]
    return JumpChain(states=states, times=starts, grid=grid)


# ---------------------------------------------------------------------------
# the index process


def carry_coefficients(lam: float, dt):
    """(decay, weight, gain) of a carry step of ``dt`` minutes: the step maps
    (w, d) to (decay * w + value * value * weight, decay * d + gain). At
    lam = 1 the decay is exactly 1.0, so the step is w + value**2 * dt, d + dt
    to the last bit."""
    if lam == 1.0:
        return 1.0, dt, dt
    decay = lam ** dt
    g = (1.0 - decay) / (1.0 - lam)
    return decay, lam * g, g


def advance_carry(lam: float, w, d, value, dt):
    """Roll the index carry-state (decayed squared-value sum, decayed count)
    forward ``dt`` minutes during which ``value`` holds; works on scalars or
    aligned arrays. The index at the new time is (w + current**2) / d."""
    decay, weight, gain = carry_coefficients(lam, dt)
    return decay * w + value * value * weight, decay * d + gain


def index_at_times(chain: JumpChain, query_times: np.ndarray, lam: float) -> np.ndarray:
    """Index value at each query time: the exponentially weighted average,
    with memory ``lam`` in (0, 1], of the squared state value held at every
    minute from the chain's first jump to the query time, the query minute
    included. The holding state is the last jumped-to state at or before
    each time. At the chain's own jump times it gives the index at every
    jump. Query times must be sorted whole minutes (a float such as 10.0
    is one); others raise :class:`ContractViolation`.

    The recurrence runs on Python floats, which numpy's per-element cost
    would swamp, but converts the jumps and the queries ``INDEX_CHUNK`` at a
    time and writes each chunk's results into the output array, so its
    working memory beside the output does not grow with the chain or the
    query count."""
    if not 0.0 < lam <= 1.0:
        raise ParameterError("lambda must lie in (0, 1]")
    given = np.asarray(query_times)
    with np.errstate(invalid="ignore"):
        query_times = given.astype(np.int64, copy=False)
    if given is not query_times and np.any(query_times != given):
        raise ContractViolation("query times must be integers")
    if np.any(query_times[1:] < query_times[:-1]):
        raise ContractViolation("query times must be sorted")
    out = np.empty(query_times.size)
    if not query_times.size:
        return out
    times, states, reps = chain.times, chain.states, chain.grid.representatives
    if query_times[0] < times[0]:
        raise ContractViolation("time precedes the recorded history")
    # the coefficients of each step length are worked out once: lengths
    # repeat, and a power costs more than a lookup
    coefficients = {}
    w, d = 0.0, 1.0
    with np.errstate(over="ignore"):  # a square overflows to inf, as a Python float's does
        squares = reps * reps
    # the jumps as (time, square) pairs, converted INDEX_CHUNK at a time and
    # closed by one that no query reaches
    blocks = (zip(times[at:at + INDEX_CHUNK].tolist(),
                  squares[states[at:at + INDEX_CHUNK]].tolist())
              for at in range(0, times.size, INDEX_CHUNK))
    jumps = itertools.chain(itertools.chain.from_iterable(blocks),
                            [(np.inf, None)]).__next__
    now, square = jumps()
    jump, jump_square = jumps()
    for q in range(0, query_times.size, INDEX_CHUNK):
        res = []
        push = res.append
        for t in query_times[q:q + INDEX_CHUNK].tolist():
            while jump <= t:
                try:
                    decay, weight, gain = coefficients[jump - now]
                except KeyError:
                    decay, weight, gain = coefficients[jump - now] = carry_coefficients(
                        lam, jump - now)
                w, d = decay * w + square * weight, decay * d + gain
                now, square = jump, jump_square
                jump, jump_square = jumps()
            if t > now:
                try:
                    decay, weight, gain = coefficients[t - now]
                except KeyError:
                    decay, weight, gain = coefficients[t - now] = carry_coefficients(
                        lam, t - now)
                w, d = decay * w + square * weight, decay * d + gain
                now = t
            push((w + square) / d)
        out[q:q + len(res)] = res
    return out


# ---------------------------------------------------------------------------
# kernel estimation


@dataclass(frozen=True)
class IndexParams:
    """Estimation settings for one variable's kernel."""

    lam: float = 0.97
    n_index_bins: int = 5
    index_edges: Optional[np.ndarray] = None
    t_max: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ParameterError("lambda must lie in (0, 1]")
        if self.index_edges is None and self.n_index_bins < 1:
            raise ParameterError("need at least one index bin")
        check_t_max(self.t_max)


def check_t_max(t_max: Optional[int]) -> None:
    """Refuse a given sojourn cap of less than one slot."""
    if t_max is not None and t_max < 1:
        raise ParameterError(f"t_max must be >= 1, got {t_max}")


def bin_of(edges: np.ndarray, x) -> np.ndarray:
    """Bin of each value between sorted edges, left-closed: the count of
    inner edges (all but the first and the last) at or below it. Values
    outside the edges fall in the outer bins, and NaN in the last."""
    return np.searchsorted(edges[1:-1], np.asarray(x, dtype=float), side="right")


def scalar_bin(edges: list, x: float) -> int:
    """:func:`bin_of` for one value, with the edges as a list."""
    return min(max(bisect_right(edges, x) - 1, 0), len(edges) - 2)


def _quantile_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-mass interior edges, deduplicated, with open outer bins."""
    if n_bins == 1:
        return np.array([-np.inf, np.inf])
    interior = np.unique(np.quantile(values, np.linspace(0, 1, n_bins + 1)[1:-1]))
    return np.concatenate([[-np.inf], interior, [np.inf]])


def resolve_ladder(levels, last):
    """Resolve a table of conditional laws through a fallback ladder.

    ``levels`` lists (law, mass) pairs in ladder order. ``mass`` holds one
    value per conditioning cell, ``law`` the same leading axes followed by the
    law's own axes; length-1 and missing leading axes broadcast. Each cell
    takes the law of the first level where its mass is positive, and ``last``
    where none is. Returns the resolved table and the level each cell took
    (``len(levels)`` for ``last``)."""
    cells = np.broadcast_shapes(*(np.shape(mass) for _, mass in levels))
    shape = np.broadcast_shapes(*(np.shape(law) for law, _ in levels), np.shape(last))
    resolved = np.array(np.broadcast_to(last, shape), dtype=float)
    level = np.full(cells, len(levels))
    for k in range(len(levels) - 1, -1, -1):
        law, mass = levels[k]
        take = np.broadcast_to(np.asarray(mass) > 0, cells)
        resolved[take] = np.broadcast_to(law, shape)[take]
        level[take] = k
    return resolved, level


def normalized(rows: np.ndarray, law_ndim: int = 1):
    """(rows scaled to sum to one over their last ``law_ndim`` axes, their
    masses); rows without mass are left at zero."""
    mass = rows.sum(axis=tuple(range(-law_ndim, 0)))
    expand = mass[(...,) + (None,) * law_ndim]
    return np.divide(rows, expand, out=np.zeros(rows.shape), where=expand > 0), mass


def sojourn_counts(cells: tuple, shape: tuple, sojourns: np.ndarray,
                   t_max: Optional[int]) -> np.ndarray:
    """Counts of a transition table: one count per transition at ``cells``
    (an index array per axis of ``shape``) and its sojourn slot on a last axis
    of ``t_max`` slots, longer sojourns in the last one. ``t_max`` defaults to
    the :data:`SOJOURN_QUANTILE` quantile of the sojourns."""
    check_t_max(t_max)
    if t_max is None:
        t_max = max(int(np.quantile(sojourns, SOJOURN_QUANTILE)), 1)
    counts = np.zeros(tuple(shape) + (int(t_max),), dtype=np.int64)
    np.add.at(counts, tuple(cells) + (np.minimum(sojourns, t_max) - 1,), 1)
    return counts


def indexed_ladder(counts: np.ndarray, bin_axes: tuple, law_ndim: int):
    """The fallback ladder of a count table whose last ``law_ndim`` axes hold
    the law, in the form :func:`resolve_ladder` takes: the cell's own counts
    normalized, then the law pooled over the index-bin axes ``bin_axes``, then
    the global law pooled over every conditioning axis (uniform when the table
    is empty)."""
    cell_axes = tuple(range(counts.ndim - law_ndim))
    pooled = normalized(counts.sum(axis=bin_axes, keepdims=True), law_ndim)
    global_law, mass = normalized(counts.sum(axis=cell_axes), law_ndim)
    if mass <= 0:
        global_law = np.full(global_law.shape, 1.0 / global_law.size)
    return [normalized(counts, law_ndim), pooled], global_law


@dataclass
class IndexedKernel:
    """Estimated law of (next state, sojourn) given (state, index bin).

    ``counts[i, b, j, k]`` counts the jumps from state ``i`` with index in
    bin ``b`` to state ``j`` after ``k + 1`` minutes (the last slot also
    takes longer sojourns). Everything else is derived from them:
    ``pmf`` normalizes each (i, b) cell, so rows of occupied cells sum to
    one; ``resolved`` holds every cell's law after the fallback ladder and
    ``level`` the level it took: 0 for the cell's own law, 1 for the state's
    law pooled over index bins, 2 for the global law.
    """

    grid: StateGrid
    lam: float
    index_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.index_edges = np.asarray(self.index_edges, dtype=float)
        self.counts = np.asarray(self.counts)
        if not 0.0 < self.lam <= 1.0:
            raise ParameterError("lambda must lie in (0, 1]")
        edges = self.index_edges
        if not (edges.ndim == 1 and edges.size >= 2 and edges[0] == -np.inf
                and edges[-1] == np.inf and np.all(np.diff(edges) > 0)):
            raise ParameterError("index edges must rise strictly from -inf to +inf")
        s, b = self.grid.n_states, self.n_index_bins
        if self.counts.ndim != 4 or self.counts.shape[:3] != (s, b, s) or self.t_max < 1:
            raise ParameterError("counts must be laid out as [state, index bin, "
                                 "next state, sojourn slot], with at least one slot")
        levels, last = self.ladder()
        self.pmf = levels[0][0]
        self.resolved, self.level = resolve_ladder(levels, last)
        self._bin_type = np.min_scalar_type(self.n_index_bins - 1)

    @property
    def n_index_bins(self) -> int:
        return self.index_edges.size - 1

    @property
    def t_max(self) -> int:
        return self.counts.shape[-1]

    def ladder(self):
        """The fallback ladder's (law, mass) levels and last law, laid out
        as [state, index bin, next state, sojourn slot]."""
        return indexed_ladder(self.counts, (1,), 2)

    def index_bin(self, x) -> np.ndarray:
        """Index bin of each value, in the smallest integer type that holds them."""
        return bin_of(self.index_edges, x).astype(self._bin_type)


def estimate_kernel(chain: JumpChain, params: IndexParams) -> IndexedKernel:
    """Count transitions (state, index-bin) -> (next state, sojourn) along the
    chain and normalize per cell. The index at each jump is the ewma-squares
    index with ``params.lam``, the value the kernel stores and the samplers
    advance, and uses all earlier jumps of the chain as history."""
    if len(chain) < 2:
        raise EstimationError("need at least one transition")
    # the index where each counted transition starts: every jump but the last
    idx = index_at_times(chain, chain.times, params.lam)[:-1]
    if params.index_edges is not None:
        edges = np.asarray(params.index_edges, dtype=float)
    else:
        edges = _quantile_edges(idx, params.n_index_bins)
    s = chain.grid.n_states
    counts = sojourn_counts(
        (chain.states[:-1], bin_of(edges, idx), chain.states[1:]),
        (s, edges.size - 1, s), chain.sojourns(), params.t_max)
    return IndexedKernel(grid=chain.grid, lam=params.lam, index_edges=edges,
                         counts=counts)
