"""Minute-bar ingestion, per-session log returns and the descriptive
statistics battery (moments, normality test, autocorrelations,
cross-correlations and value/waiting-time contingency tables)."""
from __future__ import annotations

import csv
import datetime
import math
import warnings
from array import array
from dataclasses import dataclass
import numpy as np
from scipy.special import betaincc, chdtrc

from .core import _quantile_edges, bin_of
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
    "pearson",
    "contingency",
    "value_wait_pairs",
    "run_battery",
]

MINUTES_PER_DAY = 1440
DEFAULT_SESSION = (9 * 60, 17 * 60 + 30)  # 09:00-17:30 inclusive
# ratios converted to Python floats at a time by compute_returns
RETURNS_CHUNK = 8192


@dataclass
class BarSeries:
    """Minute bars grouped into trading sessions (one session per calendar
    day).

    ``minutes`` (int64 minutes since the epoch), ``prices`` (float last
    prices) and ``volumes`` (float holding whole cumulated transaction
    counts) are aligned arrays with one entry per bar. ``session_starts``
    holds the index of the first bar of each session, in increasing order
    from 0 (none without bars). Every bar's minute-of-day lies inside
    [session_open, session_close].
    """

    minutes: np.ndarray
    prices: np.ndarray
    volumes: np.ndarray
    session_open: int
    session_close: int
    session_starts: np.ndarray
    excluded_rows: int = 0

    def __len__(self) -> int:
        return self.minutes.size


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


def _parse_minute(text: str, line_no: int) -> int:
    text = text.strip()
    if not text:
        raise ParseError("empty timestamp", line_no)
    if text.isdigit() or (text[0] == "-" and text[1:].isdigit()):
        return int(text)
    # calendar form YYYY-MM-DDTHH:MM, hours 0-23 and minutes 0-59; one
    # seconds field 00-59 is tolerated and truncated
    try:
        date_part, time_part = text.split("T")
        year, month, day = (int(p) for p in date_part.split("-"))
        fields = time_part.split(":")
        if not (2 <= len(fields) <= 3 and all(f.isascii() and f.isdigit() for f in fields)):
            raise ValueError("hours and minutes, then at most seconds, in digits")
        hh, mm, ss = (int(f) for f in fields + ["0"] * (3 - len(fields)))
        if not (hh < 24 and mm < 60 and ss < 60):
            raise ValueError("hours run 0-23, minutes and seconds 0-59")
        epoch_day = (datetime.date(year, month, day) - datetime.date(1970, 1, 1)).days
        return epoch_day * MINUTES_PER_DAY + hh * 60 + mm
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}", line_no) from exc


def _parse_session(spec) -> tuple:
    if spec is None:
        return DEFAULT_SESSION
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


def _open_bars(path):
    """A bar file opened for ``csv``; a UTF-8 byte-order mark is dropped."""
    return open(path, newline="", encoding="utf-8-sig")


_BAR_FIELDS = np.dtype([("minute", np.int64), ("price", float), ("volume", float)])


def _read_body(fh, idx):
    """The rest of ``fh`` parsed by numpy's C reader as (minutes, prices,
    volumes) from columns ``idx``, or None when it rejects any row or a value
    check fails. It takes epoch-minute stamps and Python float syntax without
    underscores or non-ASCII digits, and skips only empty lines, so what it
    reads the row loop reads to the same values, except a stamp signed with
    ``+``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                              usecols=idx, ndmin=1, dtype=_BAR_FIELDS)
    except ValueError:
        return None
    minutes, prices, volumes = body["minute"], body["price"], body["volume"]
    # the row loop's value checks in one pass: nan fails every comparison
    ok = ((0.0 < prices) & (prices < math.inf)
          & (-1.0 < volumes) & (volumes < math.inf)).all()
    if not (ok and (minutes[1:] > minutes[:-1]).all()):
        return None
    return minutes, prices, volumes


def _read_rows(path, idx):
    """The body of ``path`` read row by row as (minutes, prices, volumes)
    from columns ``idx``. Each row is checked as it is read: short row,
    stamp, numbers, non-finite value, price, volume (truncated), then
    ordering. The first fault raises, naming the row's file line."""
    t, p, v = idx
    width = max(idx) + 1
    minutes, prices, volumes = array("q"), array("d"), array("d")
    last = -math.inf
    with _open_bars(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    raise ParseError(f"short row {row!r}", reader.line_num)
                stamp = row[t]
                try:
                    minute = int(stamp) if stamp.isdigit() else _parse_minute(stamp, None)
                    minutes.append(minute)  # OverflowError beyond int64
                except (ValueError, OverflowError, ParseError):
                    raise ParseError(f"bad timestamp {stamp!r}", reader.line_num) from None
                try:
                    price, volume = float(row[p]), float(row[v])
                except ValueError:
                    raise ParseError(f"bad numeric field in {row!r}",
                                     reader.line_num) from None
                # a volume truncates to a negative count exactly when it is <= -1
                if not (0.0 < price < math.inf and -1.0 < volume < math.inf):
                    if not (math.isfinite(price) and math.isfinite(volume)):
                        raise ParseError(f"non-finite price {price} or volume {volume}",
                                         reader.line_num)
                    if price <= 0:
                        raise ParseError(f"non-positive price {price}", reader.line_num)
                    raise ParseError(f"negative volume {math.trunc(volume)}",
                                     reader.line_num)
                if minute <= last:
                    raise OrderingError(
                        f"line {reader.line_num}: timestamp not strictly increasing")
                last = minute
                prices.append(price)
                volumes.append(volume)
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
    return (np.frombuffer(minutes, np.int64), np.frombuffer(prices, float),
            np.frombuffer(volumes, float))


def load_bars(path, session=None, columns=None) -> BarSeries:
    """Read a CSV of minute bars into a :class:`BarSeries` of aligned arrays.

    Expects a header with ``timestamp,price,volume`` (remappable through
    ``columns``); the timestamp is either ``YYYY-MM-DDTHH:MM`` or integer
    epoch-minutes, auto-detected per row. Volumes are truncated to whole
    counts. Blank lines are skipped; an error names its row's line in the
    file. The file is read as UTF-8; a leading byte-order mark is dropped.

    The whole file is checked before the session filter: a short row, a bad
    timestamp or number, a non-finite or non-positive price and a non-finite
    or negative volume raise :class:`ParseError`, and a timestamp not
    strictly after the previous row's raises :class:`OrderingError`. The
    error names the first faulty row. Rows outside the trading session are
    then excluded and counted, with a warning.

    A body that numpy's C reader parses whole and whose values pass the
    checks is read by it; any other body (calendar stamps, a ``+`` anywhere,
    a faulty row) is read row by row to the same arrays and errors, about 2
    to 5 times slower.
    """
    session_open, session_close = _parse_session(session)
    colmap = {"timestamp": "timestamp", "price": "price", "volume": "volume"}
    if columns:
        colmap.update(columns)
    with open(path, "rb") as fh:
        raw = fh.read()
    # the C reader takes "+5" for 5, which the row loop refuses as a stamp
    signed = b"+" in raw
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte {raw[exc.start]:#04x}",
                         raw.count(b"\n", 0, exc.start) + 1) from None
    del raw
    with _open_bars(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
        if header is None:
            raise ParseError("missing header row", 1)
        # a repeated name means its last column, as in csv.DictReader
        where = {name: k for k, name in enumerate(header)}
        for want in colmap.values():
            if want not in where:
                raise ParseError(f"missing column {want!r}", 1)
        idx = [where[colmap[key]] for key in ("timestamp", "price", "volume")]
        body = None if signed else _read_body(fh, idx)
    if body is None:
        body = _read_rows(path, idx)
    minutes, prices, volumes = body
    volumes = np.trunc(volumes) + 0.0  # int(float(x)); -0.0 becomes 0.0

    mod = minutes % MINUTES_PER_DAY
    keep = (session_open <= mod) & (mod <= session_close)
    excluded = int(keep.size - keep.sum())
    if excluded:
        warnings.warn(f"excluded {excluded} rows outside session hours")
    minutes, prices, volumes = minutes[keep], prices[keep], volumes[keep]
    if minutes.size:
        days = minutes // MINUTES_PER_DAY
        starts = np.concatenate([[0], np.flatnonzero(np.diff(days) != 0) + 1])
    else:
        starts = np.empty(0, dtype=np.int64)
    return BarSeries(minutes=minutes, prices=prices, volumes=volumes,
                     session_open=session_open, session_close=session_close,
                     session_starts=starts.astype(np.int64),
                     excluded_rows=excluded)


def compute_returns(series: BarSeries, kind: str = "price-return") -> ReturnSeries:
    """Log variation ``log(x_t / x_{t-1})`` within sessions; pairs straddling
    a session boundary are never formed, and volume pairs touching a zero
    volume are skipped and counted.

    Beside its output it holds one byte per bar for the pairs' mask and
    ``RETURNS_CHUNK`` ratios at a time as Python floats, whatever the
    length of the series."""
    if kind not in ("price-return", "volume-return"):
        raise ValueError(f"unknown return kind {kind!r}")
    x = series.prices if kind == "price-return" else series.volumes
    n = len(series)
    # every session start after the first bar begins a new session
    starts = series.session_starts
    breaks = np.unique(starts[(0 < starts) & (starts < n)])
    keep = np.ones(max(n - 1, 0), dtype=bool)  # pair (t - 1, t) at t - 1
    keep[breaks - 1] = False
    within = keep.size - breaks.size  # pairs inside a session
    if kind == "volume-return":
        zero = x <= 0
        keep[zero[1:]] = False
        keep[zero[:-1]] = False
        del zero
    skipped = within - int(np.count_nonzero(keep))
    positions = np.flatnonzero(keep).astype(np.int64, copy=False)
    del keep
    positions += 1
    # math.log, not np.log: the last digits may differ, and grid edges are
    # quantiles of these values
    values = np.empty(positions.size)
    for k in range(0, positions.size, RETURNS_CHUNK):
        later = positions[k:k + RETURNS_CHUNK]
        values[k:k + later.size] = [math.log(q) for q in (x[later] / x[later - 1]).tolist()]
    # a session ends at the last value before each session change; a session
    # without pairs repeats the previous boundary
    formed = np.searchsorted(positions, breaks)
    boundaries = formed[formed > 0] - 1
    if values.size:
        boundaries = np.append(boundaries, values.size - 1)
    return ReturnSeries(values=values, kind=kind,
                        session_boundaries=boundaries.astype(np.int64),
                        positions=positions, skipped_pairs=skipped)


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
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    x = np.asarray(getattr(values, "values", values), dtype=float)
    if x.size < 8:
        raise InsufficientDataError("need at least 8 observations")
    d = descriptive_stats(x)
    jb = x.size / 6.0 * (d.skewness ** 2 + d.kurtosis ** 2 / 4.0)
    p = float(chdtrc(2, jb))
    return float(jb), p, p < alpha


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Sample ACF normalized by the lag-0 autocovariance; acf[0] == 1."""
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
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
    rows = []
    for name, a, b in [
        ("r,v", x, y),
        ("|r|,v", np.abs(x), y),
        ("r,|v|", x, np.abs(y)),
        ("|r|,|v|", np.abs(x), np.abs(y)),
    ]:
        rho, p = pearson(a, b)
        rows.append({"pair": name, "rho": rho, "p_value": p})
    return rows


# scipy.stats.pearsonr's bound for a nearly constant sample: a centred norm
# below it times |mean| has lost most digits to the subtraction of the mean
_NEAR_CONSTANT = np.finfo(float).eps ** 0.75


def _centred_norm(x):
    """(x less its mean, the Euclidean norm of that, whether the sample is
    nearly constant), the norm scaled by the largest magnitude first so that
    it cannot overflow."""
    mean = x.mean()
    xm = x - mean
    top = np.abs(xm).max()
    norm = top * np.sqrt(((xm / top) ** 2).sum())
    return xm, norm, norm < _NEAR_CONSTANT * abs(mean)


def pearson(x, y) -> tuple:
    """Pearson correlation r of two paired samples and its two-sided p-value
    for independent normal samples, under which (r + 1) / 2 is Beta(n/2 - 1,
    n/2 - 1). Takes scipy.stats.pearsonr's steps in its order, so both give
    the same doubles: n == 2 gives r = +-1 and p = 1, and a constant sample
    gives NaN for both with a RuntimeWarning. As in scipy, a nearly constant
    sample (centred norm below eps**0.75 times |mean|) gives a RuntimeWarning
    that r may be inaccurate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n != y.size:
        raise AlignmentError("series lengths differ; align them first")
    if n < 2:
        raise InsufficientDataError("need at least 2 pairs for a correlation")
    if (x == x[0]).all() or (y == y[0]).all():
        warnings.warn("an input is constant; the correlation is undefined",
                      RuntimeWarning, stacklevel=2)
        return math.nan, math.nan
    xm, nx, x_near = _centred_norm(x)
    ym, ny, y_near = _centred_norm(y)
    if x_near or y_near:
        warnings.warn("an input is nearly constant; the correlation may be inaccurate",
                      RuntimeWarning, stacklevel=2)
    r = float(np.clip(np.dot(xm / nx, ym / ny), -1.0, 1.0))
    if n == 2:
        r = float(np.round(r))
        return r, (math.nan if math.isnan(r) else 1.0)
    ab = n / 2.0 - 1.0
    return r, float(2.0 * betaincc(ab, ab, (abs(r) + 1.0) / 2.0))


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
    ci = bin_of(state_edges, values)
    ri = bin_of(wait_edges, waits)
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
        p_value=float(chdtrc(dof, chi2)),
        low_expected_cells=low,
        dropped_rows=int((~keep_r).sum()), dropped_cols=int((~keep_c).sum()))


# ---------------------------------------------------------------------------
# full battery


def run_battery(r: ReturnSeries, v: ReturnSeries, max_lag: int = 100,
                alpha: float = 0.01) -> dict:
    """Full exploratory battery over aligned price and volume returns. The
    autocorrelations, which hold the most working memory, run before the
    aligned pair exists, and the pair goes once its correlations are taken."""
    lag = min(max_lag, r.values.size - 1, v.values.size - 1)
    acf = {
        "max_lag": lag,
        "abs_r": autocorrelation(np.abs(r.values), lag).tolist(),
        "abs_v": autocorrelation(np.abs(v.values), lag).tolist(),
        "r": autocorrelation(r.values, lag).tolist(),
    }
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
    out["acf"] = acf
    out["cross_correlation"] = cross_correlation_battery(ra, va)
    del ra, va
    wait_edges = np.array([0.0, 2.0, 4.0, np.inf])
    tables = {}
    for name, series in (("r", r), ("v", v)):
        vals, waits = value_wait_pairs(series)
        if vals.size >= 20 and np.unique(vals).size >= 5:
            table = contingency(vals, waits, _quantile_edges(vals, 5), wait_edges)
            tables[name] = table.as_dict()
    out["contingency"] = tables
    return out
