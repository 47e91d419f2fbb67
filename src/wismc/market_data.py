"""Minute-bar ingestion, per-session log returns and the descriptive
statistics battery (moments, normality test, autocorrelations,
cross-correlations and value/waiting-time contingency tables)."""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy import stats as sps

from .errors import (
    AlignmentError,
    DegenerateTableError,
    InsufficientDataError,
    OrderingError,
    ParameterError,
    ParseError,
    UndefinedStatisticError,
)

__all__ = [
    "Bar",
    "BarSeries",
    "ReturnSeries",
    "DescriptiveStats",
    "ContingencyTable",
    "load_bars",
    "compute_returns",
    "descriptive_stats",
    "jarque_bera",
    "autocorrelation",
    "cross_correlation_battery",
    "contingency",
    "value_wait_pairs",
    "run_battery",
]

MINUTES_PER_DAY = 1440
DEFAULT_SESSION = (9 * 60, 17 * 60 + 30)  # 09:00-17:30 inclusive


@dataclass(frozen=True)
class Bar:
    """One minute bar: wall-clock minute since epoch, last price, cumulated
    transaction count."""

    minute: int
    price: float
    volume: int


@dataclass
class BarSeries:
    """Bars grouped into trading sessions (one session per calendar day).

    ``session_starts`` holds the index of the first bar of each session.
    Every bar's minute-of-day lies inside [session_open, session_close].
    """

    bars: list
    session_open: int
    session_close: int
    session_starts: np.ndarray
    excluded_rows: int = 0

    @property
    def n_sessions(self) -> int:
        return self.session_starts.size

    def __len__(self) -> int:
        return len(self.bars)

    def prices(self) -> np.ndarray:
        return np.array([b.price for b in self.bars])

    def volumes(self) -> np.ndarray:
        return np.array([b.volume for b in self.bars], dtype=float)

    def session_of(self) -> np.ndarray:
        """Session index of each bar."""
        pos = np.searchsorted(self.session_starts, np.arange(len(self.bars)),
                              side="right") - 1
        return np.maximum(pos, 0).astype(np.int64)


@dataclass
class ReturnSeries:
    """Log variations computed within sessions only.

    ``positions`` maps each value to the bar index of the later member of its
    pair, so two series from the same bars can be aligned even after pairs
    were skipped. ``session_boundaries`` are indices into ``values`` at which
    a session ends.
    """

    values: np.ndarray
    kind: str
    session_boundaries: np.ndarray
    positions: np.ndarray
    skipped_pairs: int = 0

    def __len__(self) -> int:
        return self.values.size


def _parse_minute(text: str, line_no: int) -> int:
    text = text.strip()
    if not text:
        raise ParseError("empty timestamp", line_no)
    if text.isdigit() or (text[0] == "-" and text[1:].isdigit()):
        return int(text)
    # calendar form YYYY-MM-DDTHH:MM (seconds tolerated and truncated)
    try:
        date_part, time_part = text.split("T")
        year, month, day = (int(p) for p in date_part.split("-"))
        hh, mm = (int(p) for p in time_part.split(":")[:2])
        import datetime as _dt

        epoch_day = (_dt.date(year, month, day) - _dt.date(1970, 1, 1)).days
        return epoch_day * MINUTES_PER_DAY + hh * 60 + mm
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad timestamp {text!r}", line_no) from exc


def _parse_session(spec) -> tuple:
    if spec is None:
        return DEFAULT_SESSION
    if not isinstance(spec, str):
        return int(spec[0]), int(spec[1])
    try:
        (h1, m1), (h2, m2) = ((int(p) for p in part.split(":"))
                              for part in spec.split("-"))
    except ValueError as exc:
        raise ParameterError(f"bad session {spec!r}: expected HH:MM-HH:MM") from exc
    if not (0 <= h1 < 24 and 0 <= h2 < 24 and 0 <= m1 < 60 and 0 <= m2 < 60):
        raise ParameterError(f"bad session {spec!r}: hours run 0-23, minutes 0-59")
    if h1 * 60 + m1 > h2 * 60 + m2:
        raise ParameterError(f"bad session {spec!r}: opens after it closes")
    return h1 * 60 + m1, h2 * 60 + m2


def load_bars(path, session=None, columns=None) -> BarSeries:
    """Read a CSV of minute bars.

    Expects a header with ``timestamp,price,volume`` (remappable through
    ``columns``); the timestamp is either ``YYYY-MM-DDTHH:MM`` or integer
    epoch-minutes, auto-detected per row. Rows outside the trading session
    are excluded and counted. Timestamps must be strictly increasing.
    """
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
    return BarSeries(bars=bars, session_open=session_open,
                     session_close=session_close,
                     session_starts=starts.astype(np.int64),
                     excluded_rows=excluded)


def compute_returns(series: BarSeries, kind: str = "price-return") -> ReturnSeries:
    """Log variation ``log(x_t / x_{t-1})`` within sessions; pairs straddling
    a session boundary are never formed, and volume pairs touching a zero
    volume are skipped and counted."""
    if kind not in ("price-return", "volume-return"):
        raise ValueError(f"unknown return kind {kind!r}")
    x = series.prices() if kind == "price-return" else series.volumes()
    session = series.session_of()
    same = session[1:] == session[:-1]
    keep = same
    if kind == "volume-return":
        keep = same & ~((x[1:] <= 0) | (x[:-1] <= 0))
    skipped = int(same.sum() - keep.sum())
    positions = np.flatnonzero(keep) + 1
    # math.log, not np.log: the last digits may differ, and grid edges are
    # quantiles of these values
    values = np.array([math.log(q) for q in (x[positions] / x[positions - 1]).tolist()],
                      dtype=float)
    # a session ends at the last value before each session change; a session
    # without pairs repeats the previous boundary
    formed = np.searchsorted(positions, np.flatnonzero(~same) + 1)
    boundaries = formed[formed > 0] - 1
    if values.size:
        boundaries = np.append(boundaries, values.size - 1)
    return ReturnSeries(values=values, kind=kind,
                        session_boundaries=boundaries.astype(np.int64),
                        positions=positions.astype(np.int64),
                        skipped_pairs=skipped)


def align(r: ReturnSeries, v: ReturnSeries):
    """Restrict two return series from the same bars to common positions."""
    common, ri, vi = np.intersect1d(r.positions, v.positions,
                                    return_indices=True)
    return r.values[ri], v.values[vi]


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    median: float
    standard_deviation: float
    skewness: float
    kurtosis: float
    kurtosis_is_excess: bool = True
    n: int = 0

    def as_dict(self) -> dict:
        return {
            "mean": self.mean, "median": self.median,
            "standard_deviation": self.standard_deviation,
            "skewness": self.skewness, "kurtosis": self.kurtosis,
            "kurtosis_is_excess": self.kurtosis_is_excess, "n": self.n,
        }


def descriptive_stats(values) -> DescriptiveStats:
    """Sample moments; kurtosis is reported as excess and flagged as such."""
    x = np.asarray(getattr(values, "values", values), dtype=float)
    if x.size < 2:
        raise InsufficientDataError("need at least 2 observations")
    m = float(np.mean(x))
    c = x - m
    m2 = float(np.mean(c ** 2))
    if m2 == 0:
        skew = 0.0
        kurt = 0.0
    else:
        skew = float(np.mean(c ** 3) / m2 ** 1.5)
        kurt = float(np.mean(c ** 4) / m2 ** 2 - 3.0)
    return DescriptiveStats(mean=m, median=float(np.median(x)),
                            standard_deviation=float(np.std(x, ddof=1)),
                            skewness=skew, kurtosis=kurt,
                            kurtosis_is_excess=True, n=x.size)


def jarque_bera(values, alpha: float = 0.01):
    """JB = n/6 (S^2 + K^2/4) with K the excess kurtosis; chi-square(2)
    p-value. Returns (statistic, p_value, reject)."""
    x = np.asarray(getattr(values, "values", values), dtype=float)
    if x.size < 8:
        raise InsufficientDataError("need at least 8 observations")
    d = descriptive_stats(x)
    jb = x.size / 6.0 * (d.skewness ** 2 + d.kurtosis ** 2 / 4.0)
    p = float(sps.chi2.sf(jb, 2))
    return float(jb), p, p < alpha


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Sample ACF normalized by the lag-0 autocovariance; acf[0] == 1."""
    x = np.asarray(getattr(values, "values", values), dtype=float)
    if x.size <= max_lag:
        raise InsufficientDataError("series shorter than max_lag")
    c = x - x.mean()
    denom = float(np.dot(c, c))
    if denom == 0:
        raise UndefinedStatisticError("zero variance: ACF undefined")
    n = x.size
    # FFT autocovariance (biased normalization keeps |acf| <= 1)
    nfft = 1 << int(np.ceil(np.log2(2 * n - 1)))
    f = np.fft.rfft(c, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[: max_lag + 1]
    return acov / denom


def cross_correlation_battery(r, v):
    """Pearson correlation and two-sided p-value for the four pairs
    (r, v), (|r|, v), (r, |v|), (|r|, |v|)."""
    x = np.asarray(getattr(r, "values", r), dtype=float)
    y = np.asarray(getattr(v, "values", v), dtype=float)
    if x.size != y.size:
        raise AlignmentError("series lengths differ; align them first")
    rows = []
    for name, a, b in [
        ("r,v", x, y),
        ("|r|,v", np.abs(x), y),
        ("r,|v|", x, np.abs(y)),
        ("|r|,|v|", np.abs(x), np.abs(y)),
    ]:
        res = sps.pearsonr(a, b)
        rows.append({"pair": name, "rho": float(res.statistic),
                     "p_value": float(res.pvalue)})
    return rows


@dataclass
class ContingencyTable:
    row_edges: np.ndarray  # waiting-time bin edges, left-closed right-open
    col_edges: np.ndarray  # value bin edges
    observed: np.ndarray
    expected: np.ndarray
    chi2_statistic: float
    degrees_of_freedom: int
    p_value: float
    low_expected_cells: int = 0
    dropped_rows: int = 0
    dropped_cols: int = 0

    def as_dict(self) -> dict:
        return {
            "row_edges": list(map(float, self.row_edges)),
            "col_edges": list(map(float, self.col_edges)),
            "observed": self.observed.tolist(),
            "expected": self.expected.tolist(),
            "chi2_statistic": self.chi2_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "p_value": self.p_value,
            "low_expected_cells": self.low_expected_cells,
        }


def value_wait_pairs(r: ReturnSeries):
    """(held value, run length) pairs from runs of equal consecutive values,
    never crossing a session boundary. The waiting time is the number of
    minutes a value persists before changing."""
    x = r.values
    n = x.size
    # a run ends before position t (1..n) at a session boundary, at the end
    # of the series or at a value change; only the last kind is emitted
    ends = np.asarray(r.session_boundaries, dtype=np.int64)
    boundary = np.zeros(n + 1, dtype=bool)
    boundary[ends[(ends >= 0) & (ends < n)] + 1] = True
    boundary[n] = True
    cut = boundary.copy()
    cut[1:n] |= x[1:] != x[:-1]
    cut[0] = False
    stops = np.flatnonzero(cut)
    starts = np.concatenate([[0], stops])[:-1]
    change = ~boundary[stops]
    return x[starts[change]], (stops - starts)[change]


def contingency(values, waits, state_edges, wait_edges) -> ContingencyTable:
    """Observed counts over (waiting-time bin) x (value bin) with the
    independence expectation and a chi-square test. Bins are left-closed,
    right-open. Completely empty rows/columns are dropped from the test with
    the degrees-of-freedom adjustment recorded."""
    values = np.asarray(values, dtype=float)
    waits = np.asarray(waits, dtype=float)
    if values.size != waits.size:
        raise AlignmentError("values and waits must be paired")
    state_edges = np.asarray(state_edges, dtype=float)
    wait_edges = np.asarray(wait_edges, dtype=float)
    if values.size and (values.min() < state_edges[0] or values.max() >= state_edges[-1]):
        raise ValueError("state bins do not cover the data range")
    if waits.size and (waits.min() < wait_edges[0] or waits.max() >= wait_edges[-1]):
        raise ValueError("wait bins do not cover the data range")
    ci = np.searchsorted(state_edges, values, side="right") - 1
    ri = np.searchsorted(wait_edges, waits, side="right") - 1
    n_r, n_c = wait_edges.size - 1, state_edges.size - 1
    observed = np.zeros((n_r, n_c))
    np.add.at(observed, (ri, ci), 1)
    keep_r = observed.sum(axis=1) > 0
    keep_c = observed.sum(axis=0) > 0
    obs = observed[np.ix_(keep_r, keep_c)]
    if obs.shape[0] < 2 or obs.shape[1] < 2:
        raise DegenerateTableError("fewer than 2 non-empty rows or columns")
    row_tot = obs.sum(axis=1, keepdims=True)
    col_tot = obs.sum(axis=0, keepdims=True)
    grand = obs.sum()
    exp = row_tot * col_tot / grand
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    low = int((exp < 5).sum())
    if low:
        warnings.warn(f"{low} cells have expected count < 5")
    expected_full = np.zeros_like(observed)
    expected_full[np.ix_(keep_r, keep_c)] = exp
    return ContingencyTable(
        row_edges=wait_edges, col_edges=state_edges,
        observed=observed, expected=expected_full,
        chi2_statistic=chi2, degrees_of_freedom=dof,
        p_value=float(sps.chi2.sf(chi2, dof)),
        low_expected_cells=low,
        dropped_rows=int((~keep_r).sum()), dropped_cols=int((~keep_c).sum()))


# ---------------------------------------------------------------------------
# full battery


def _value_edges(values: np.ndarray, n_states: int = 5) -> np.ndarray:
    interior = np.unique(np.quantile(values, np.linspace(0, 1, n_states + 1)[1:-1]))
    return np.concatenate([[-np.inf], interior, [np.inf]])


def run_battery(r: ReturnSeries, v: ReturnSeries, max_lag: int = 100,
                alpha: float = 0.01) -> dict:
    """Full exploratory battery over aligned price and volume returns."""
    ra, va = align(r, v)
    out = {"n": int(ra.size)}
    out["descriptive"] = {
        "r": descriptive_stats(r.values).as_dict(),
        "v": descriptive_stats(v.values).as_dict(),
    }
    jb_r = jarque_bera(r.values, alpha)
    jb_v = jarque_bera(v.values, alpha)
    out["jarque_bera"] = {
        "alpha": alpha,
        "r": {"statistic": jb_r[0], "p_value": jb_r[1], "reject": jb_r[2]},
        "v": {"statistic": jb_v[0], "p_value": jb_v[1], "reject": jb_v[2]},
    }
    lag = min(max_lag, r.values.size - 1, v.values.size - 1)
    out["acf"] = {
        "max_lag": lag,
        "abs_r": autocorrelation(np.abs(r.values), lag).tolist(),
        "abs_v": autocorrelation(np.abs(v.values), lag).tolist(),
        "r": autocorrelation(r.values, lag).tolist(),
    }
    out["cross_correlation"] = cross_correlation_battery(ra, va)
    wait_edges = np.array([0.0, 2.0, 4.0, np.inf])
    tables = {}
    for name, series in (("r", r), ("v", v)):
        vals, waits = value_wait_pairs(series)
        if vals.size >= 20 and np.unique(vals).size >= 5:
            table = contingency(vals, waits, _value_edges(vals), wait_edges)
            tables[name] = table.as_dict()
    out["contingency"] = tables
    return out
