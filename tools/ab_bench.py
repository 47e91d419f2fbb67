"""Run the benchmark on two revisions in alternating pairs and compare them.

Usage:
    python tools/ab_bench.py PARENT CHANGE --workload W --seeds A:B \
        --out BENCH.json [--workdir DIR]

PARENT and CHANGE are git revisions of this repository. Each is written with
``git archive`` into ``DIR/parent`` and ``DIR/change``, two paths of equal
length (the manifests record the paths they were given, so the outputs then
weigh the same). The range A:B, at least two seeds, sets the pairs; pair k runs
``perfbench/run.py --workload W --seed A+k --seconds S --trace 0`` unchanged
in each checkout, S being BENCHMARK.json's ``run_seconds``, the parent first
in even pairs and the change first in odd ones.

The result for W is stored under ``workloads[W]`` of the JSON file OUT (other
workloads already there are kept): every run's seed, order, metrics,
``correct``, ``attempted``, ``failed`` and printed round lines, and per
end-to-end metric of BENCHMARK.json each side's values, median and quartiles,
the pairs the change won and a verdict:

- ``gain``: at least ten pairs ran, the change won at least nine tenths of
  them (ties count for neither) and its median is better than the parent's
  by more than the distance between the parent's quartiles, with no more
  failed operations than the parent and every change run correct. A better
  median inside that spread is never a gain; with fewer pairs the same result
  reads ``better, too few pairs``.
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound (a fraction of the parent's median).
- ``unresolved``: otherwise, when the parent's quartile spread is wider than
  the bound and not every change run beats every parent run.
- ``unchanged``: otherwise.

If a run exits with an error or times out, its exit code and error output are
stored in its pair, the pairs already run are written with the verdicts over
the complete ones, and the driver exits with code 1.

After the timed pairs, when all of them finished, each side runs once more
with ``--trace 1 --seconds 0`` (run.py's minimum of two traced pairs) at the
first seed. The run, whose ``metrics`` are its medians of the ``per_layer``
metrics of BENCHMARK.json, is stored under ``workloads[W].per_layer.{parent,
change}``. These figures are reported, never compared; a traced run that
fails is stored as its error, and the exit code is 1.

Last, the driver prints every workload of OUT as a Markdown table, one row per
end-to-end metric (each side's median [q1–q3], the pairs the change won and
the verdict), and one line per workload with its seeds, failed operations and
whether every run was correct. Under those, one line per workload gives each
side's fewest ticks of the sampler's clock in a timed round, per subcommand,
read from the round lines that run.py prints and labelled in the order of
``perfbench/bench_inputs.commands``; a count of ``TICK_MARK`` or fewer is
starred, since ``bench_host`` refuses a stretch of fewer than 5 ticks. Then
comes a second table of the per-layer medians of each side.

DIR, when given, is created if it does not exist.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equal length, so the checkouts' paths are too
GAIN_SHARE = 0.9
GAIN_PAIRS = 10
TICK_MARK = 6  # starred in the report: one tick above bench_host's floor of 5


def checkout(rev: str, dest: Path) -> str:
    """Write revision ``rev`` of this repository into ``dest``; return its
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run; a run that fails or times out gives ``error``."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, capture_output=True, text=True, timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exited with code {proc.returncode}",
                "stderr": proc.stderr.strip().splitlines()}
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()},
            "log": lines[:-1], "stderr": proc.stderr.strip().splitlines()}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(spec: dict, parent: list, change: list, change_faulted: bool) -> dict:
    """Compare one metric's per-pair values; see the module docstring.
    ``change_faulted`` (more failed operations than the parent, or a change
    run that was not correct or did not finish) rules out a gain."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (p["median"] - c["median"])  # > 0 when the change is better
    spread = p["q3"] - p["q1"]
    allowed = spec["bound"] * abs(p["median"])
    every_run_better = max(sign * x for x in change) < min(sign * x for x in parent)
    if wins >= GAIN_SHARE * len(parent) and gain > spread and not change_faulted:
        call = "gain" if len(parent) >= GAIN_PAIRS else "better, too few pairs"
    elif -gain > allowed:
        call = "regression"
    elif spread > allowed and not every_run_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "change_won": wins, "parent_won": losses,
            "median_gain": gain, "parent_quartile_spread": spread, "verdict": call}


def compare(pairs: list, specs: list) -> dict:
    """Failed-operation totals and per-metric verdicts over the pairs in
    which both runs finished (none when fewer than two did)."""
    done = [r for r in pairs if all(side in r and "error" not in r[side] for side in SIDES)]
    failed = {side: sum(r[side]["failed"] for r in done) for side in SIDES}
    faulted = (failed["change"] > failed["parent"] or len(done) < len(pairs)
               or not all(r["change"]["correct"] for r in done))
    metrics = {} if len(done) < 2 else {
        spec["name"]: verdict(spec, [r["parent"]["metrics"][spec["name"]] for r in done],
                              [r["change"]["metrics"][spec["name"]] for r in done], faulted)
        for spec in specs}
    return {"complete_pairs": len(done), "failed": failed,
            "all_correct": all(r[side]["correct"] for r in done for side in SIDES),
            "metrics": metrics}


def parse_seeds(text: str) -> list:
    first, _, last = text.partition(":")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise SystemExit(f"--seeds {text} holds {len(seeds)} seeds; quartiles need at least 2")
    return seeds


def subcommand_labels(workload: str) -> list:
    """The labels of ``workload``'s subcommands, in the order a round runs them."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "perfbench" / "bench_inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [label for label, _ in inputs.commands(workload, "", Path(), 0)]


def fewest_ticks(runs: list, labels: list) -> dict:
    """Fewest ticks per subcommand over the round lines in ``runs``' logs,
    which end "..., X (n), Y (m) ms (count) in the subcommands)"."""
    fewest = {}
    for run in runs:
        for line in run.get("log", ()):
            if line.endswith("ms (count) in the subcommands)"):
                counts = re.findall(r"\((\d+)\)", line.partition("around set-up,")[2])
                for label, n in zip(labels, map(int, counts), strict=True):
                    fewest[label] = min(n, fewest.get(label, n))
    return fewest


def tick_line(name: str, w: dict) -> str:
    """Each side's fewest ticks per subcommand of workload ``name`` as one
    line; empty when no run logged a round line."""
    labels = subcommand_labels(name)
    sides = [fewest_ticks([p[side] for p in w["pairs"] if side in p], labels)
             for side in SIDES]
    if not any(sides):
        return ""
    cells = [" → ".join(f"{t[label]}{'*' if t[label] <= TICK_MARK else ''}"
                        if label in t else "–" for t in sides) for label in labels]
    return f"{name}: " + ", ".join(
        f"{label} {cell}" for label, cell in zip(labels, cells))


def report(doc: dict, order: list) -> str:
    """The result file ``doc`` as Markdown: the comparison table of every
    workload, its rows in the metric ``order``, then one line per workload
    on its runs."""
    lines = ["| workload | metric | parent | change | won | verdict |",
             "|---|---|---|---|---|---|"]
    notes = []
    for name, w in sorted(doc["workloads"].items()):
        n = w["complete_pairs"]
        for metric in [x for x in order if x in w["metrics"]]:
            m = w["metrics"][metric]
            p, c = m["parent"], m["change"]
            lines.append(f"| {name} | {metric} "
                         f"| {p['median']:.4g} [{p['q1']:.4g}–{p['q3']:.4g}] "
                         f"| {c['median']:.4g} [{c['q1']:.4g}–{c['q3']:.4g}] "
                         f"| {m['change_won']}/{n} | {m['verdict']} |")
        seeds = [pair["seed"] for pair in w["pairs"]]
        notes.append(f"{name}: {n} of {len(seeds)} pairs, seeds {seeds[0]}–{seeds[-1]}, "
                     f"failed operations {w['failed']['parent']} → {w['failed']['change']}, "
                     + ("every run correct" if w["all_correct"] else "NOT EVERY RUN CORRECT")
                     + (f", stopped: {w['error']}" if w["error"] else ""))
    ticks = [line for name, w in sorted(doc["workloads"].items())
             if (line := tick_line(name, w))]
    if ticks:
        notes += ["", f"Fewest ticks in a timed round, parent → change "
                      f"(* at most {TICK_MARK}; bench_host refuses fewer than 5):", *ticks]
    return "\n".join(lines + [""] + notes)


def layer_report(doc: dict, order: list) -> str:
    """The per-layer medians of each side as Markdown, in the metric
    ``order``; empty when no workload of ``doc`` has them."""
    lines = []
    for name, w in sorted(doc["workloads"].items()):
        sides = [w.get("per_layer", {}).get(side, {}) for side in SIDES]
        for side, run in zip(SIDES, sides):
            if "error" in run:
                lines.append(f"| {name} | ({side} traced run: {run['error']}) | | |")
        values = [run.get("metrics", {}) for run in sides]
        for metric in [x for x in order if any(x in v for v in values)]:
            cells = [f"{v[metric]:.4g}" if metric in v else "–" for v in values]
            lines.append(f"| {name} | {metric} | {cells[0]} | {cells[1]} |")
    if not lines:
        return ""
    return "\n".join(["| workload | layer | parent | change |", "|---|---|---|---|", *lines])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A:B, pair k uses seed A+k")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the two checkouts go (default: a new temporary directory)")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ab-", dir=args.workdir))
    runs, error, layers = [], None, {}
    try:
        trees = {side: work / side for side in SIDES}
        commits = {side: checkout(rev, trees[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            runs.append(pair)
            for side in order:
                run = pair[side] = run_once(trees[side], args.workload, seed, seconds)
                if "error" in run:
                    error = f"pair {k} seed {seed} {side}: {run['error']}"
                    print(error, *run.get("stderr", ()), sep="\n", file=sys.stderr, flush=True)
                    break
                m = run["metrics"]
                print(f"pair {k} seed {seed} {side}: correct {run['correct']}, "
                      f"failed {run['failed']}, "
                      + ", ".join(f"{name} {m[name]:.4g}" for name in m),
                      file=sys.stderr, flush=True)
            if error:
                break
        for side in SIDES if not error else ():
            print(f"traced run, seed {seeds[0]}, {side}", file=sys.stderr, flush=True)
            layers[side] = run_once(trees[side], args.workload, seeds[0], 0, trace=1)
            if "error" in layers[side]:
                print(layers[side]["error"], *layers[side].get("stderr", ()), sep="\n",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = compare(runs, bench["end_to_end"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = {
        "parent": commits["parent"], "change": commits["change"],
        "seconds": seconds, "pairs": runs, "error": error, "per_layer": layers, **result}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(report(doc, [spec["name"] for spec in bench["end_to_end"]]))
    table = layer_report(doc, [spec["name"] for spec in bench["per_layer"]])
    if table:
        print("", table, sep="\n")
    return 1 if error or any("error" in run for run in layers.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
