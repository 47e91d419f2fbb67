"""Correctness checks of each workload's outputs, computed apart from the
program: from the returns the generator realized (as read back from the bar
CSV), with numpy and scipy, or from properties the method guarantees. Each
check raises ``CheckError`` with the reason when an output is wrong.

Statistical checks run at pinned levels small enough (1e-6) that a correct
program fails them on essentially no seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import stats

STAT_ALPHA = 1e-6
# Stylized facts: simulated returns must reject normality at this level.
JB_ALPHA = 0.01
# Cells with at least this many simulated sojourns add their own chi-square term.
WELL_VISITED = 30


class CheckError(AssertionError):
    """An output disagrees with its independent computation."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_csv(path: Path) -> dict:
    """Columns of a CSV file with a header row, as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, k] for k, name in enumerate(header)}


def digests(root: Path, skip=()) -> dict:
    """SHA-256 of every file under ``root`` by relative path, minus ``skip``
    (relative directory names)."""
    out = {}
    for p in sorted(root.rglob("*")):
        rel = p.relative_to(root)
        if p.is_file() and not any(rel.parts[0] == s for s in skip):
            out[str(rel)] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def check_identical(first: dict, again: dict, what: str) -> None:
    """Identical seeds give identical bytes."""
    _require(first.keys() == again.keys(),
             f"{what}: rerun wrote other files ({sorted(first)} vs {sorted(again)})")
    changed = [k for k in first if first[k] != again[k]]
    _require(not changed, f"{what}: rerun with the same seed changed {changed}")


# ---------------------------------------------------------------------------
# fit


def _close(a, b, rtol=1e-7, atol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float))
                       <= atol + rtol * np.abs(np.asarray(b, float))))


def check_battery(battery: dict, r: np.ndarray, v: np.ndarray) -> None:
    """Descriptive statistics of both series and the |r| autocorrelations
    agree with direct numpy/scipy computations."""
    for name, x in (("r", r), ("v", v)):
        d = battery["descriptive"][name]
        want = {"n": x.size, "mean": x.mean(), "median": np.median(x),
                "standard_deviation": x.std(ddof=1),
                "skewness": stats.skew(x), "kurtosis": stats.kurtosis(x)}
        for key, val in want.items():
            _require(_close(d[key], val), f"battery {name}.{key}: {d[key]!r} != {val!r}")
    lag = battery["acf"]["max_lag"]
    a = np.abs(r) - np.abs(r).mean()
    denom = a @ a
    acf = [1.0] + [float(a[:-k] @ a[k:] / denom) for k in range(1, lag + 1)]
    got = battery["acf"]["abs_r"]
    _require(len(got) == lag + 1, f"battery: {len(got)} |r| ACF values for max lag {lag}")
    worst = float(np.max(np.abs(np.asarray(got) - acf)))
    _require(worst <= 1e-9, f"battery: |r| ACF off by {worst:.3g}")


def _states(x: np.ndarray, edges) -> np.ndarray:
    """State of each value on a grid given by its edges (left-closed bins)."""
    edges = np.asarray(edges, dtype=float)
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)


def check_model(model: dict, r: np.ndarray, v: np.ndarray) -> None:
    """Jump totals and sign probabilities of the fitted model agree with the
    jump chains of the observed series on the model's own grids; every
    occupied kernel row sums to 1."""
    kj, kv, cw = model["kernel_j"], model["kernel_v"], model["cond_wait"]
    sj = _states(r, kj["grid"]["edges"])
    sv = _states(v, kv["grid"]["edges"])
    jumps_j = np.flatnonzero(np.diff(sj) != 0) + 1
    jumps_v = np.flatnonzero(np.diff(sv) != 0) + 1
    for name, k, jumps in (("r", kj, jumps_j), ("v", kv, jumps_v)):
        total = int(np.asarray(k["counts"]).sum())
        _require(total == jumps.size,
                 f"model: {total} {name} transitions, the observed chain has {jumps.size}")
    union = np.union1d(np.concatenate([[0], jumps_j]), jumps_v)
    total = int(np.asarray(cw["counts"]).sum())
    _require(total == union.size - 1,
             f"model: {total} synchronized sojourns, the observed union has {union.size - 1}")
    for k, states, key in ((kj, sj, "p_j"), (kv, sv, "p_v")):
        vals = np.asarray(k["grid"]["representatives"])[states[union]]
        nz = vals[vals != 0.0]
        want = float(np.mean(nz > 0))
        got = model["signs"][key]
        _require(abs(got - want) <= 1e-12,
                 f"model: sign probability {key} {got!r}, observed {want!r}")
    for name, counts, pmf, axes in (
            ("kernel_j", kj["counts"], kj["pmf"], (2, 3)),
            ("kernel_v", kv["counts"], kv["pmf"], (2, 3)),
            ("cond_wait", cw["counts"], cw["pmf"], (4,))):
        occupied = np.asarray(counts).sum(axis=axes) > 0
        sums = np.asarray(pmf).sum(axis=axes)[occupied]
        _require(occupied.any(), f"model: {name} has no occupied row")
        worst = float(np.max(np.abs(sums - 1.0)))
        _require(worst <= 1e-12, f"model: an occupied {name} row sums to 1 {worst:+.3g}")


def check_optimize(doc: dict, n_points: int) -> None:
    """Every grid point was scored and ``best`` is the arg-min."""
    records = doc["records"]
    _require(len(records) == n_points, f"optimize: {len(records)} records, grid has {n_points}")
    failed = [r for r in records if r["failed"]]
    _require(not failed, f"optimize: failed points {failed}")
    best = min(records, key=lambda r: r["mape"])
    _require(doc["best"] == best, f"optimize: best {doc['best']} is not the arg-min {best}")


def check_stock(observed: tuple, realized: tuple) -> None:
    """The bars encode the series the generator realized (up to the last
    digit of the log)."""
    for name, x, y in zip("rv", observed, realized):
        _require(x.shape == y.shape and _close(x, y, rtol=0.0, atol=1e-14),
                 f"stock: observed {name} differs from the generator's realized series")


def check_fit(out: Path, r: np.ndarray, v: np.ndarray, n_points: int) -> None:
    check_battery(json.loads((out / "analyze" / "battery.json").read_text()), r, v)
    check_model(json.loads((out / "model" / "model.json").read_text()), r, v)
    check_optimize(json.loads((out / "opt" / "opt.json").read_text()), n_points)


# ---------------------------------------------------------------------------
# simulate


def check_path(rep: dict, events: dict, minutes: int, t_max: int, s0=1.0, v0=1.0) -> None:
    """One replication: its length, the price/volume reconstruction, the
    event times and that values change only at events."""
    _require(rep["minute"].size == minutes,
             f"simulate: {rep['minute'].size} rows for {minutes} minutes")
    _require(np.array_equal(rep["minute"], np.arange(minutes)), "simulate: minute column")
    for level, step, x0 in (("S", "r", s0), ("V", "v", v0)):
        with np.errstate(over="ignore"):
            want = x0 * np.exp(np.cumsum(rep[step]))
        got = rep[level]
        finite = np.isfinite(got) & np.isfinite(want)
        _require(np.array_equal(finite, np.isfinite(got)),
                 f"simulate: {level} is finite where exp(cumsum({step})) is not")
        _require(_close(got[finite], want[finite], rtol=1e-9, atol=0.0),
                 f"simulate: {level} differs from {x0}*exp(cumsum({step}))")
    times = events["T"].astype(np.int64)
    gaps = np.diff(times)
    _require(times[0] == 0 and times[-1] < minutes, "simulate: event times leave the path")
    _require(gaps.size == 0 or (gaps.min() >= 1 and gaps.max() <= t_max),
             f"simulate: event gaps outside [1, {t_max}]")
    at_event = np.zeros(minutes, dtype=bool)
    at_event[times] = True
    for step in ("r", "v"):
        change = np.flatnonzero(np.diff(rep[step]) != 0) + 1
        _require(at_event[change].all(), f"simulate: {step} changes between events")


def _merged(obs: np.ndarray, expected: np.ndarray) -> tuple:
    """Observed and expected counts with slots merged from the tail until each
    expected count is at least 5."""
    o_bins, e_bins, o_acc, e_acc = [], [], 0.0, 0.0
    for o, e in zip(obs[::-1], expected[::-1]):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 5.0:
            o_bins.append(o_acc)
            e_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if o_bins:
        o_bins[-1] += o_acc
        e_bins[-1] += e_acc
    return np.array(o_bins), np.array(e_bins)


def check_sojourns(events_list: list, cond_counts: np.ndarray) -> None:
    """Pooled chi-square test of the simulated sojourns against the
    conditional waiting law (counts normalized) of the model. A well-visited
    cell adds its own term; the other cells, and those whose slots merge into
    one bin, add one term for their summed counts. Summing cells with
    different laws only shrinks the statistic's variance, so that term errs
    towards passing."""
    counts = np.asarray(cond_counts, dtype=float)
    t_max = counts.shape[-1]
    observed = {}
    n_events = 0
    for ev in events_list:
        cells = np.stack([ev[k].astype(np.int64)
                          for k in ("J_state", "V_state", "xbin", "wbin")], axis=1)[:-1]
        soj = np.diff(ev["T"].astype(np.int64))
        n_events += soj.size
        for cell, s in zip(map(tuple, cells), soj):
            observed.setdefault(cell, np.zeros(t_max))[s - 1] += 1
    stat, dof, tested = 0.0, 0, 0
    pool_obs, pool_exp = np.zeros(t_max), np.zeros(t_max)
    for cell, obs in observed.items():
        row = counts[cell]
        if row.sum() == 0:
            continue
        expected = obs.sum() * row / row.sum()
        _require(np.all(obs[expected == 0] == 0),
                 f"simulate: sojourn with zero model probability in cell {cell}")
        o_bins, e_bins = _merged(obs, expected)
        if obs.sum() < WELL_VISITED or o_bins.size < 2:
            pool_obs += obs
            pool_exp += expected
            continue
        stat += float(((o_bins - e_bins) ** 2 / e_bins).sum())
        dof += o_bins.size - 1
        tested += int(obs.sum())
    o_bins, e_bins = _merged(pool_obs, pool_exp)
    if o_bins.size >= 2:
        stat += float(((o_bins - e_bins) ** 2 / e_bins).sum())
        dof += o_bins.size - 1
        tested += int(pool_obs.sum())
    _require(tested >= n_events // 2,
             f"simulate: only {tested} of {n_events} sojourns lie in tested cells")
    if dof:
        p = float(stats.chi2.sf(stat, dof))
        _require(p >= STAT_ALPHA,
                 f"simulate: sojourns reject the model's waiting law (chi2 {stat:.1f}, "
                 f"dof {dof}, p {p:.3g})")


def check_stylized(rep: dict) -> None:
    """Heavy tails and positive modulus correlation, as the paper reports."""
    r, v = rep["r"], rep["v"]
    jb = stats.jarque_bera(r)
    _require(jb.pvalue < JB_ALPHA, f"simulate: returns look normal (JB p {jb.pvalue:.3g})")
    res = stats.pearsonr(np.abs(r), np.abs(v), alternative="greater")
    _require(res.statistic > 0 and res.pvalue < STAT_ALPHA,
             f"simulate: |r|,|v| correlation {res.statistic:.3g} (p {res.pvalue:.3g})")


def check_simulate(sim: Path, model: dict, minutes: int, reps: int) -> None:
    cond_counts = np.asarray(model["cond_wait"]["counts"])
    t_max = cond_counts.shape[-1]
    events_list = []
    for k in range(reps):
        rep = _read_csv(sim / f"rep_{k:03d}.csv")
        events = _read_csv(sim / f"events_{k:03d}.csv")
        check_path(rep, events, minutes, t_max)
        check_stylized(rep)
        events_list.append(events)
    check_sojourns(events_list, cond_counts)


# ---------------------------------------------------------------------------
# fpt


def check_survival(curve: dict, what: str) -> None:
    """Starts at 1, never rises, stays in [0, 1] and inside its band."""
    s = curve["survival"]
    tol = 1e-12
    _require(abs(s[0] - 1.0) <= tol, f"{what}: survival starts at {s[0]}")
    _require(np.all(np.diff(s) <= tol), f"{what}: survival rises")
    _require(np.all((s >= -tol) & (s <= 1.0 + tol)), f"{what}: survival leaves [0, 1]")
    _require(np.all((curve["lower"] <= s + tol) & (s <= curve["upper"] + tol)),
             f"{what}: survival outside [lower, upper]")


def check_agreement(mc: dict, rec: dict, n_paths: int) -> None:
    """Monte Carlo agrees with the exact recursion at every t the recursion
    covers, within a normal band whose width is set so that a correct
    program fails it with probability STAT_ALPHA over all t."""
    exact = rec["survival"]
    est = mc["survival"][:exact.size]
    z = float(stats.norm.isf(STAT_ALPHA / (2 * exact.size)))
    se = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / n_paths)
    gap = np.abs(est - exact)
    bad = np.flatnonzero(gap > z * se + 1e-9)
    _require(bad.size == 0, f"fpt: Monte Carlo and recursion differ at t={bad.tolist()} "
                            f"(gap {gap[bad].tolist()}, band {(z * se[bad]).tolist()})")


def check_fpt(out: Path) -> None:
    mc = _read_csv(out / "mc" / "fpt.csv")
    rec = _read_csv(out / "recursion" / "fpt.csv")
    check_survival(mc, "fpt mc")
    check_survival(rec, "fpt recursion")
    n_paths = json.loads((out / "mc" / "fpt.json").read_text())["n_paths"]
    check_agreement(mc, rec, n_paths)
