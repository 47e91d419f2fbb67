"""The benchmark's own checks: each passes on real program output and fails
on a deliberately corrupted copy. Inputs are a small stock (60 sessions)
from the same generator as the benchmark's."""
import json

import numpy as np
import pytest

import bench_checks as bc
import bench_inputs as bi

bi.require_checkout()

from wismc.cli import main as cli_main  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    stock = root / "stock.csv"
    realized = bi.make_stock(stock, SEED, n_returns=60 * bi.SESSION_MINUTES - 1)
    r, v = bi.read_observed(stock)
    bc.check_stock((r, v), realized)
    assert cli_main(["analyze", "--input", str(stock), "--out", str(root / "analyze")]) == 0
    model = root / "model" / "model.json"
    assert cli_main(["estimate", "--input", str(stock), "--out", str(model)]) == 0
    assert cli_main(["simulate", "--model", str(model), "--minutes", "8000",
                     "--seed", "3", "--out", str(root / "sim")]) == 0
    barrier = ["--model", str(model), "--rho", bi.FPT_RHO, "--psi", bi.FPT_PSI]
    assert cli_main(["fpt", *barrier, "--horizon", "10", "--paths", "20000", "--seed", "3",
                     "--out", str(root / "fpt" / "mc")]) == 0
    assert cli_main(["fpt", *barrier, "--horizon", "2", "--method", "recursion",
                     "--out", str(root / "fpt" / "recursion")]) == 0
    return {"root": root, "r": r, "v": v,
            "battery": json.loads((root / "analyze" / "battery.json").read_text()),
            "model": json.loads(model.read_text())}


def _fails(fn, *args):
    with pytest.raises(bc.CheckError):
        fn(*args)


# -- fit ---------------------------------------------------------------------


def test_battery_matches_and_catches_corruption(small):
    r, v, battery = small["r"], small["v"], small["battery"]
    bc.check_battery(battery, r, v)
    _fails(bc.check_battery, battery, np.random.default_rng(0).permutation(r), v)
    bad = json.loads(json.dumps(battery))
    bad["descriptive"]["v"]["kurtosis"] *= 1.01
    _fails(bc.check_battery, bad, r, v)
    bad = json.loads(json.dumps(battery))
    bad["acf"]["abs_r"][5] += 1e-6
    _fails(bc.check_battery, bad, r, v)


def test_model_matches_and_catches_corruption(small):
    r, v, model = small["r"], small["v"], small["model"]
    bc.check_model(model, r, v)
    bad = json.loads(json.dumps(model))
    bad["kernel_v"]["counts"][0][0][1][0] += 5
    _fails(bc.check_model, bad, r, v)
    bad = json.loads(json.dumps(model))
    bad["signs"]["p_j"] += 0.01
    _fails(bc.check_model, bad, r, v)
    bad = json.loads(json.dumps(model))
    row = np.asarray(bad["cond_wait"]["pmf"])
    occupied = np.argwhere(np.asarray(bad["cond_wait"]["counts"]).sum(axis=4) > 0)[0]
    row[tuple(occupied)] *= 0.9
    bad["cond_wait"]["pmf"] = row.tolist()
    _fails(bc.check_model, bad, r, v)
    # a series with other jumps than the one the model was fitted on
    _fails(bc.check_model, model, np.roll(r, 1), v)


def test_optimize_record_checks():
    recs = [{"s": 3, "lam": 0.97, "mape": 80.0, "failed": False},
            {"s": 5, "lam": 0.97, "mape": 70.0, "failed": False}]
    bc.check_optimize({"records": recs, "best": recs[1]}, 2)
    _fails(bc.check_optimize, {"records": recs, "best": recs[0]}, 2)
    _fails(bc.check_optimize, {"records": recs[:1], "best": recs[0]}, 2)
    failed = [recs[0], dict(recs[1], failed=True, mape=None)]
    _fails(bc.check_optimize, {"records": failed, "best": recs[0]}, 2)


# -- simulate ----------------------------------------------------------------


def _sim(small):
    sim = small["root"] / "sim"
    return bc._read_csv(sim / "rep_000.csv"), bc._read_csv(sim / "events_000.csv")


def test_path_checks_catch_corruption(small):
    rep, events = _sim(small)
    t_max = np.asarray(small["model"]["cond_wait"]["counts"]).shape[-1]
    bc.check_path(rep, events, 8000, t_max)
    bc.check_stylized(rep)
    _fails(bc.check_path, rep, events, 8001, t_max)
    shuffled = dict(rep, S=np.random.default_rng(1).permutation(rep["S"]))
    _fails(bc.check_path, shuffled, events, 8000, t_max)
    twice = dict(events, T=np.sort(np.append(events["T"], events["T"][1])))
    _fails(bc.check_path, rep, twice, 8000, t_max)
    moved = rep["r"].copy()
    k = int(np.flatnonzero(np.diff(events["T"]) > 1)[0])
    moved[int(events["T"][k]) + 1] += 1e-3  # a change one minute after an event
    _fails(bc.check_path, dict(rep, r=moved, S=np.exp(np.cumsum(moved))), events,
           8000, t_max)


def test_stylized_checks_catch_gaussian_and_unrelated_series():
    rng = np.random.default_rng(2)
    r = rng.standard_t(3, 5000) * 1e-3
    v = np.abs(r) * 100 + rng.random(5000)
    bc.check_stylized({"r": r, "v": v})
    _fails(bc.check_stylized, {"r": rng.standard_normal(5000), "v": v})
    _fails(bc.check_stylized, {"r": r, "v": rng.standard_t(3, 5000)})


def _events(laws, cells, n, rng):
    """An event record whose row k, in cell ``cells[pick[k]]``, lasts a sojourn
    drawn from ``laws[pick[k]]``; the last row's sojourn is not observed."""
    pick = rng.integers(len(cells), size=n)
    soj = [rng.choice(laws.shape[-1], p=laws[k]) + 1 for k in pick]
    cols = np.array([cells[k] for k in pick] + [cells[0]], dtype=float)
    return {"T": np.concatenate([[0], np.cumsum(soj)]).astype(float),
            "J_state": cols[:, 0], "V_state": cols[:, 1],
            "xbin": cols[:, 2], "wbin": cols[:, 3]}


def test_sojourn_test_rejects_the_wrong_cell():
    counts = np.zeros((2, 1, 1, 1, 4))
    counts[0, 0, 0, 0] = [70, 20, 7, 3]
    counts[1, 0, 0, 0] = [10, 20, 30, 40]
    laws = counts.reshape(2, 4) / counts.reshape(2, 4).sum(axis=1, keepdims=True)
    ev = _events(laws, [(0, 0, 0, 0), (1, 0, 0, 0)], 4000, np.random.default_rng(4))
    bc.check_sojourns([ev], counts)
    _fails(bc.check_sojourns, [dict(ev, J_state=1.0 - ev["J_state"])], counts)


def test_sojourn_test_requires_most_sojourns_tested():
    # cell 0 has one possible sojourn, so it adds no chi-square term
    counts = np.zeros((2, 1, 1, 1, 4))
    counts[0, 0, 0, 0] = [100, 0, 0, 0]
    counts[1, 0, 0, 0] = [10, 20, 30, 40]
    laws = counts.reshape(2, 4) / counts.reshape(2, 4).sum(axis=1, keepdims=True)
    cells = [(0, 0, 0, 0)] * 9 + [(1, 0, 0, 0)]
    ev = _events(laws[[0] * 9 + [1]], cells, 4000, np.random.default_rng(5))
    _fails(bc.check_sojourns, [ev], counts)
    ev = _events(laws[[0, 1, 1]], [cells[0], cells[-1], cells[-1]], 4000,
                 np.random.default_rng(5))
    bc.check_sojourns([ev], counts)


def test_sojourn_test_pools_sparse_cells():
    # 400 cells of one law, each visited about 10 times: only the pool tests them
    counts = np.zeros((400, 1, 1, 1, 4))
    counts[:, 0, 0, 0] = [70, 20, 7, 3]
    right = counts[:, 0, 0, 0] / 100.0
    cells = [(k, 0, 0, 0) for k in range(400)]
    bc.check_sojourns([_events(right, cells, 4000, np.random.default_rng(6))], counts)
    wrong = np.tile([0.4, 0.3, 0.2, 0.1], (400, 1))
    _fails(bc.check_sojourns, [_events(wrong, cells, 4000, np.random.default_rng(6))],
           counts)


def test_simulate_reads_cli_output(small):
    bc.check_simulate(small["root"] / "sim", small["model"], 8000, 1)


# -- fpt ---------------------------------------------------------------------


def _curve(s, half_width=0.0):
    s = np.asarray(s, dtype=float)
    return {"survival": s, "lower": np.clip(s - half_width, 0, 1),
            "upper": np.clip(s + half_width, 0, 1)}


def test_survival_checks_catch_corruption():
    bc.check_survival(_curve([1.0, 0.9, 0.8], 0.01), "ok")
    _fails(bc.check_survival, _curve([1.0, 0.8, 0.9]), "rises")
    _fails(bc.check_survival, _curve([0.9, 0.8, 0.7]), "start")
    _fails(bc.check_survival, _curve([1.0, 0.5, -0.1]), "negative")
    out_of_band = _curve([1.0, 0.9, 0.8], 0.01)
    out_of_band["upper"] = np.array([1.0, 0.85, 0.81])
    _fails(bc.check_survival, out_of_band, "band")


def test_agreement_band():
    exact = np.array([1.0, 0.95, 0.9])
    n = 100_000
    se = np.sqrt(exact * (1 - exact) / n)
    bc.check_agreement(_curve(exact + 2 * se), _curve(exact), n)
    _fails(bc.check_agreement, _curve(exact + 10 * se), _curve(exact), n)


def test_fpt_reads_cli_output(small):
    bc.check_fpt(small["root"] / "fpt")


# -- determinism and the metric list -----------------------------------------


def test_identical_bytes(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    first = bc.digests(tmp_path)
    bc.check_identical(first, bc.digests(tmp_path), "same")
    (tmp_path / "a.csv").write_text("2\n")
    _fails(bc.check_identical, first, bc.digests(tmp_path), "changed")


def test_tracer_records_layers_and_uninstalls(small):
    import wismc.cli
    import wismc.triplet
    from bench_trace import Tracer

    original = wismc.triplet.fit_triplet_kernel
    tracer = Tracer().install()
    try:
        with tracer.region("cli:estimate"):
            assert wismc.cli.main(["estimate", "--input", str(small["root"] / "stock.csv"),
                                   "--out", str(small["root"] / "traced" / "m.json")]) == 0
    finally:
        tracer.uninstall()
    assert wismc.triplet.fit_triplet_kernel is original
    assert wismc.cli.fit_triplet_kernel is original
    m = tracer.layer_metrics(0.5)
    per_layer = json.loads((bi.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) | {"host.calib_s", "trace.overhead_s"} == {x["name"] for x in per_layer}
    assert m["triplet.fit_s"] > m["core.estimate_kernel_s"] > 0
    assert m["cli.estimate_s"] > m["triplet.fit_s"]
    fit = next(s for s in tracer.spans if s["name"] == "fit_triplet_kernel")
    top = next(s for s in tracer.spans if s["name"] == "cli:estimate")
    assert fit["parent"] == top["id"]


def test_sampler_ticks_inside_a_stretch_and_restores_the_handler():
    import signal
    import time

    import bench_host as bh

    before = signal.getsignal(signal.SIGALRM)
    with bh.Sampler() as sampler:
        s = time.perf_counter()
        while time.perf_counter() - s < 0.8:
            pass
        e = time.perf_counter()
    ticks = sampler.between(s, e)
    assert len(ticks) >= bh.MIN_TICKS
    assert sum(ticks) < e - s
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert bh.scaled(3.0, 2 * bh.TICK_REF_S) == pytest.approx(1.5)
    with pytest.raises(RuntimeError):
        sampler.between(e + 1, e + 2)
