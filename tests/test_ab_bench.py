"""The A/B driver's verdicts: a gain needs ten pairs, nine tenths of them won
and a median move wider than the parent's quartile spread, with every change
run correct and finished; a failed run still leaves the pairs already run;
the closing report is the Markdown table of the result file, with the
fewest ticks per subcommand and side read from the logged round lines."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

LOWER = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


def call(spec, parent, change, change_faulted=False):
    return ab_bench.verdict(spec, parent, change, change_faulted)["verdict"]


def test_gain_needs_ten_pairs_won_outside_the_spread():
    faster = [x - 2.0 for x in PARENT]
    assert call(LOWER, PARENT, faster) == "gain"
    assert call(LOWER, PARENT[:5], faster[:5]) == "better, too few pairs"
    assert call(LOWER, PARENT, faster, change_faulted=True) == "unchanged"
    # every pair won, but by less than the parent's own quartile spread
    assert call(LOWER, PARENT, [x - 0.01 for x in PARENT]) == "unchanged"
    # eight of ten pairs won
    assert call(LOWER, PARENT, faster[:8] + [x + 0.5 for x in PARENT[8:]]) == "unchanged"
    assert call(HIGHER, PARENT, [x + 2.0 for x in PARENT]) == "gain"


def test_regression_and_unresolved():
    assert call(LOWER, PARENT, [x * 1.3 for x in PARENT]) == "regression"
    assert call(HIGHER, PARENT, [x * 0.7 for x in PARENT]) == "regression"
    assert call(LOWER, PARENT, [x * 1.1 for x in PARENT]) == "unchanged"
    wide = [1.0, 2.0, 1.5, 0.8, 2.2, 1.2, 1.9, 1.0, 2.1, 1.4]
    assert call(LOWER, wide, [x * 1.1 for x in wide]) == "unresolved"
    assert call(LOWER, wide, [0.5] * 10) == "gain"


def _run(run_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {"run_s": run_s}}


def _pairs(change_correct=True, change_failed=0):
    return [{"seed": k, "parent": _run(p), "change": _run(p - 2.0, change_correct, change_failed)}
            for k, p in enumerate(PARENT)]


def test_incorrect_or_failing_change_run_is_never_a_gain():
    assert ab_bench.compare(_pairs(), [LOWER])["metrics"]["run_s"]["verdict"] == "gain"
    pairs = _pairs()
    pairs[3]["change"]["correct"] = False
    result = ab_bench.compare(pairs, [LOWER])
    assert not result["all_correct"] and result["metrics"]["run_s"]["verdict"] == "unchanged"
    result = ab_bench.compare(_pairs(change_failed=1), [LOWER])
    assert result["failed"] == {"parent": 0, "change": 10}
    assert result["metrics"]["run_s"]["verdict"] == "unchanged"
    # a change run that did not finish: the other pairs are compared, no gain
    pairs = _pairs()
    pairs[-1]["change"] = {"error": "exited with code 1"}
    result = ab_bench.compare(pairs, [LOWER])
    assert result["complete_pairs"] == 9 and result["metrics"]["run_s"]["verdict"] == "unchanged"


def test_failed_run_keeps_the_pairs_already_run(tmp_path, monkeypatch, capsys):
    calls = []
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, seed, seconds))
        if seed == 12 and tree.name == "change":
            return {"error": "exited with code 1", "stderr": ["boom"]}
        run = _run(0.0)
        run["metrics"] = {m["name"]: 10.0 if tree.name == "parent" else 9.0
                          for m in bench["end_to_end"]}
        return run

    monkeypatch.setattr(ab_bench, "checkout", lambda rev, dest: dest.mkdir(parents=True) or rev)
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    code = ab_bench.main(["p", "c", "--workload", "fit", "--seeds", "10:13",
                          "--out", str(out), "--workdir", str(tmp_path)])
    assert code == 1
    assert calls == [("parent", 10, seconds), ("change", 10, seconds), ("change", 11, seconds),
                     ("parent", 11, seconds), ("parent", 12, seconds), ("change", 12, seconds)]
    doc = json.loads(out.read_text())["workloads"]["fit"]
    assert [p["seed"] for p in doc["pairs"]] == [10, 11, 12]
    assert doc["pairs"][2]["change"]["error"] == "exited with code 1"
    assert doc["complete_pairs"] == 2 and "pair 2 seed 12 change" in doc["error"]
    assert doc["seconds"] == seconds
    assert doc["metrics"]["run_s"]["change_won"] == 2
    # the closing report is the Markdown table of the file just written
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "| workload | metric | parent | change | won | verdict |"
    assert "| fit | run_s | 10 [10–10] | 9 [9–9] | 2/2 | unchanged |" in printed
    assert printed[-1] == ("fit: 2 of 3 pairs, seeds 10–12, failed operations 0 → 0, "
                           "every run correct, stopped: " + doc["error"])


def test_per_layer_medians_of_one_traced_run_per_side(tmp_path, monkeypatch, capsys):
    calls = []
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in bench["per_layer"]]

    def run_once(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, seed, seconds, trace))
        run = _run(0.0)
        names = layers if trace else [m["name"] for m in bench["end_to_end"]]
        run["metrics"] = {m: 2.0 if tree.name == "parent" else 1.0 for m in names}
        return run

    monkeypatch.setattr(ab_bench, "checkout", lambda rev, dest: dest.mkdir(parents=True) or rev)
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    workdir = tmp_path / "not" / "yet"  # created by main
    assert ab_bench.main(["p", "c", "--workload", "fpt", "--seeds", "3:4",
                          "--out", str(out), "--workdir", str(workdir)]) == 0
    seconds = bench["run_seconds"]
    # the timed pairs stay untraced; then one traced run per side at the first seed
    assert calls == [("parent", 3, seconds, 0), ("change", 3, seconds, 0),
                     ("change", 4, seconds, 0), ("parent", 4, seconds, 0),
                     ("parent", 3, 0, 1), ("change", 3, 0, 1)]
    assert workdir.is_dir() and not any(workdir.iterdir())
    doc = json.loads(out.read_text())["workloads"]["fpt"]
    assert doc["per_layer"]["parent"]["metrics"] == {m: 2.0 for m in layers}
    assert doc["per_layer"]["change"]["metrics"] == {m: 1.0 for m in layers}
    assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}  # none gated
    printed = capsys.readouterr().out.splitlines()
    at = printed.index("| workload | layer | parent | change |")
    assert printed[at + 2:] == [f"| fpt | {m} | 2 | 1 |" for m in layers]


def test_seed_range():
    assert ab_bench.parse_seeds("5:7") == [5, 6, 7]
    assert ab_bench.parse_seeds("5:6") == [5, 6]
    for text in ("5", "5:5", "6:5"):
        with pytest.raises(SystemExit):
            ab_bench.parse_seeds(text)


def _round_line(k, ticks):
    inside = ", ".join(f"1.250 ({n})" for n in ticks)
    return (f"  round {k}: setup_s 0.6000, run_s 2.5000, cpu_s 2.5000 (measured 0.4500, "
            f"1.9000, 1.9000 s; tick 1.231, 1.309 ms around set-up, {inside} ms (count) "
            f"in the subcommands)")


def test_fewest_ticks_per_subcommand_and_side(tmp_path, monkeypatch, capsys):
    bench = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())

    def run_once(tree, workload, seed, seconds, trace=0):
        run = _run(0.0)
        run["metrics"] = {m["name"]: 1.0 for m in bench["per_layer" if trace else "end_to_end"]}
        base = 3 if tree.name == "parent" else 9
        run["log"] = [f"perfbench fpt seed {seed}: 2 rounds in 15.6 s, host.calib_s 1.2 ms",
                      _round_line(0, [12, base + seed]), _round_line(1, [11 + seed, 30]),
                      "  run_s = 2.5 s"]
        if trace:  # the traced runs are not timed rounds: never counted
            run["log"].append(_round_line(2, [1, 1]))
        return run

    monkeypatch.setattr(ab_bench, "checkout", lambda rev, dest: dest.mkdir(parents=True) or rev)
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert ab_bench.main(["p", "c", "--workload", "fpt", "--seeds", "3:4",
                          "--out", str(out), "--workdir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    # labels in bench_inputs.commands order; 6 ticks and fewer are starred
    assert ab_bench.subcommand_labels("fpt") == ["fpt_mc", "fpt_recursion"]
    at = printed.index("fpt: fpt_mc 12 → 12, fpt_recursion 6* → 12")
    assert printed[at - 1].startswith("Fewest ticks in a timed round, parent → change")
    # a round line with another number of subcommands is refused, not mislabelled
    with pytest.raises(ValueError):
        ab_bench.fewest_ticks([{"log": [_round_line(0, [12])]}], ["fpt_mc", "fpt_recursion"])
