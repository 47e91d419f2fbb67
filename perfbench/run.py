"""Paper-scale benchmark of the wismc CLI.

    python3 perfbench/run.py --workload fit|simulate|fpt --seed N \
        --seconds S --trace 0|1

Builds one synthetic stock of two years of 510-minute sessions from the test
fixture's generator (seeded by ``--seed``), then runs whole rounds of the
workload's subcommands, each round in a fresh interpreter, until ``--seconds``
have passed (at least two rounds; a traced run alternates untraced and
traced rounds and ends on whole pairs, at least two). It checks the outputs against
computations made apart from the program and prints, as its last line, one
JSON object with the medians over rounds of the end-to-end metrics
(``--trace 0``, times in reference seconds: see ``bench_host``) or of the
per-layer metrics (``--trace 1``). See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_checks as bc
import bench_inputs as bi
from bench_host import calibrate, pin_to_one_cpu, scaled

HERE = Path(__file__).resolve().parent

MIN_ROUNDS = 2
MIN_PAIRS = 2  # untraced-then-traced pairs of a traced run
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 170


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists."""
    spec = json.loads((bi.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def spawn(workload: str, inp: Path, out: Path, seed: int, mode: str) -> dict:
    """Calibrate, then start a worker; its set-up time runs from here to its
    reported end, and is scaled by this calibration and the worker's."""
    calib = calibrate()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_worker.py"), workload, str(inp), str(out),
         str(seed), mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(bi.ROOT))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["raw_setup_s"] = res["setup_end"] - start
    res["setup_s"] = scaled(res["raw_setup_s"], 0.5 * (calib + res["calib"]))
    res["calib"] = [calib, res["calib"]]
    return res


def tree_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 1e6


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    stock = work / "stock.csv"
    realized = bi.make_stock(stock, seed)
    r_obs, v_obs = bi.read_observed(stock)
    bc.check_stock((r_obs, v_obs), realized)
    if workload == "fit":
        inp = stock
    else:
        # The model `estimate` fits with its default settings, built once from
        # the observed series (skipping the CSV parse) and not timed.
        from wismc.serialize import save_model
        from wismc.triplet import TripletFitConfig, fit_triplet_kernel

        inp = work / "model.json"
        save_model(fit_triplet_kernel(r_obs, v_obs, TripletFitConfig()), inp)
    # optimize writes its wall-clock runtime_s, so its output is not compared
    skip = ("opt",)
    trace_file = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
    rounds, problems = [], []
    first = None
    attempted = failed = 0
    t_start = time.perf_counter()
    min_rounds = 2 * MIN_PAIRS if trace else MIN_ROUNDS
    while (len(rounds) < min_rounds or time.perf_counter() - t_start < seconds
           or trace and len(rounds) % 2):
        k = len(rounds)
        out = work / f"round{k}"
        traced = trace and k % 2 == 1
        res = spawn(workload, inp, out, seed, str(trace_file) if traced else "-")
        res["traced"] = traced
        res["output_mb"] = tree_mb(out)
        attempted += len(res["ops"])
        failed += sum(op["rc"] != 0 for op in res["ops"])
        if first is None:
            first = (out, bc.digests(out, skip))
        else:
            try:
                bc.check_identical(first[1], bc.digests(out, skip), f"{workload} round {k}")
            except bc.CheckError as exc:
                problems.append(str(exc))
            shutil.rmtree(out)
        rounds.append(res)
    measured_s = time.perf_counter() - t_start
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, inp, work / "setup", seed, "setup")["setup_s"])
    ticks = [c for r in rounds for c in r["calib"]] + [op["tick_s"] for r in rounds
                                                        for op in r["ops"]]

    out = first[0]
    try:
        if workload == "fit":
            n_points = len(bi.OPT_STATES.split(",")) * len(bi.OPT_LAMBDAS.split(","))
            bc.check_fit(out, r_obs, v_obs, n_points)
        elif workload == "simulate":
            model = json.loads(inp.read_text())
            bc.check_simulate(out / "sim", model, bi.SIM_MINUTES, bi.SIM_REPS)
        else:
            bc.check_fpt(out)
    except (bc.CheckError, OSError, KeyError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")

    med = statistics.median
    info = {"rounds": rounds, "measured_s": round(measured_s, 3),
            "host.calib_s": med(ticks), "problems": problems}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {name: med([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        layers["host.calib_s"] = med(ticks)
        # each traced round against the untraced round just before it
        pairs = [t["run_s"] - p["run_s"] for p, t in zip(rounds[::2], rounds[1::2])]
        info["overhead_pairs"] = pairs
        layers["trace.overhead_s"] = med(pairs)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        values = {"setup_s": med(setups),
                  **{m: med([r[m] for r in rounds])
                     for m in ("run_s", "cpu_s", "peak_rss_mb", "output_mb")}}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    return {"info": info, "result": {"correct": not problems, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bi.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bi.require_checkout()
    except bi.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = out["info"]
    for problem in info["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed {args.seed}: {len(info['rounds'])} rounds in "
          f"{info['measured_s']} s, host.calib_s {info['host.calib_s'] * 1e3:.4f} ms")
    for k, r in enumerate(info["rounds"]):
        around = ", ".join(f"{c * 1e3:.3f}" for c in r["calib"])
        inside = ", ".join(f"{op['tick_s'] * 1e3:.3f} ({op['ticks']})" for op in r["ops"])
        print(f"  round {k}{' (traced)' if r['traced'] else ''}: setup_s {r['setup_s']:.4f}, "
              f"run_s {r['run_s']:.4f}, cpu_s {r['cpu_s']:.4f} (measured "
              f"{r['raw_setup_s']:.4f}, {r['raw_run_s']:.4f}, {r['raw_cpu_s']:.4f} s; "
              f"tick {around} ms around set-up, {inside} ms (count) in the subcommands)")
    if "overhead_pairs" in info:
        pairs = info["overhead_pairs"]
        spread = max(pairs) - min(pairs)
        print(f"  trace overhead per pair: {', '.join(f'{d:.4f}' for d in pairs)} s"
              + ("; unresolved: the pairs differ by more than their median"
                 if spread > abs(statistics.median(pairs)) else ""))
    for name, m in out["result"]["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
