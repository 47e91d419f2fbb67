"""CLI subcommands: outputs, manifests, exit codes and determinism."""
import functools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import wismc
from conftest import heavy_tailed_series, v1_document, write_bar_csv
from wismc import cli
from wismc.cli import main
from wismc.core import normalized
from wismc.finfunc import fpt_survival_recursive
from wismc.market_data import load_bars
from wismc.serialize import load_model, save_model


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    r, v = heavy_tailed_series(9000, 17)
    path = tmp_path_factory.mktemp("cli") / "bars.csv"
    write_bar_csv(path, r, v)
    return str(path)


@pytest.fixture(scope="module")
def small_model(small_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["estimate", "--input", small_csv, "--states-r", "3", "--states-v", "3",
                 "--index-bins", "3", "--out", str(path)]) == 0
    return str(path)


def _read_manifest(out_dir, name="manifest.json"):
    return json.loads((Path(out_dir) / name).read_text())


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs more than the rest of a cold start together, so
    `import wismc` does not load it."""
    code = "import sys, wismc; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(wismc.__file__).parent.parent)
    assert out.stdout.strip() == "False"


def test_fit_path_leaves_scipy_stats_unloaded(small_csv, tmp_path):
    """analyze and estimate with the rank-based copulas run without
    scipy.stats; only the Kendall-tau families (clayton, gumbel, t) load it."""
    code = f"""
import sys
from wismc.cli import main
out = {str(tmp_path)!r}
codes = [main(["analyze", "--input", {small_csv!r}, "--max-lag", "30",
               "--out", out + "/analysis"]),
         main(["estimate", "--input", {small_csv!r}, "--out", out + "/g.json"]),
         main(["estimate", "--input", {small_csv!r}, "--copula", "independence",
               "--out", out + "/i.json"])]
print(codes, "scipy.stats" in sys.modules)
codes.append(main(["estimate", "--input", {small_csv!r}, "--copula", "clayton",
                   "--out", out + "/c.json"]))
print(codes, "scipy.stats" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(wismc.__file__).parent.parent)
    assert out.stdout.split("\n")[:2] == ["[0, 0, 0] False", "[0, 0, 0, 0] True"]


class TestAnalyze:
    def test_battery_outputs(self, small_csv, tmp_path):
        out = tmp_path / "analysis"
        code = main(["analyze", "--input", small_csv, "--max-lag", "30",
                     "--out", str(out)])
        assert code == 0
        battery = json.loads((out / "battery.json").read_text())
        for key in ("descriptive", "jarque_bera", "acf", "cross_correlation",
                    "contingency"):
            assert key in battery
        for name in ("acf.csv", "cross_correlation.csv", "descriptive.csv",
                     "manifest.json"):
            assert (out / name).exists()
        manifest = _read_manifest(out)
        assert manifest["subcommand"] == "analyze"
        assert small_csv in manifest["inputs"]

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["analyze", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 3


class TestPipelineChain:
    def test_estimate_simulate_fpt(self, small_csv, tmp_path):
        model = tmp_path / "model.json"
        assert main(["estimate", "--input", small_csv, "--states-r", "3",
                     "--states-v", "3", "--index-bins", "2",
                     "--out", str(model)]) == 0
        assert model.exists()
        est_manifest = _read_manifest(tmp_path, "model.manifest.json")
        assert est_manifest["outputs"]["model.json"]

        sim_out = tmp_path / "sim"
        assert main(["simulate", "--model", str(model), "--minutes", "3000",
                     "--reps", "2", "--seed", "7", "--out", str(sim_out)]) == 0
        for rep in (0, 1):
            assert (sim_out / f"rep_{rep:03d}.csv").exists()
            assert (sim_out / f"events_{rep:03d}.csv").exists()
        header = (sim_out / "rep_000.csv").read_text().splitlines()[0]
        assert header == "minute,r,v,S,V"
        ev_header = (sim_out / "events_000.csv").read_text().splitlines()[0]
        assert ev_header == "n,T,J_state,V_state,bJ,bV,xbin,wbin"

        fpt_out = tmp_path / "fpt"
        assert main(["fpt", "--model", str(model), "--rho", "1.005", "--psi",
                     "100", "--horizon", "15", "--method", "mc", "--paths",
                     "20000", "--seed", "42", "--out", str(fpt_out)]) == 0
        doc = json.loads((fpt_out / "fpt.json").read_text())
        surv = np.array(doc["survival"])
        assert surv.size == 16
        assert np.all(np.diff(surv) <= 1e-12)
        lines = (fpt_out / "fpt.csv").read_text().splitlines()
        assert lines[0] == "t,survival,lower,upper"
        assert len(lines) == 17

    def test_fpt_recursion_method(self, small_csv, tmp_path):
        model = tmp_path / "model.json"
        main(["estimate", "--input", small_csv, "--states-r", "3",
              "--states-v", "3", "--index-bins", "1", "--out", str(model)])
        out = tmp_path / "fpt"
        assert main(["fpt", "--model", str(model), "--rho", "1.001", "--psi",
                     "1e9", "--horizon", "4", "--method", "recursion",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "fpt.json").read_text())
        assert doc["method"] == "recursion"

    def test_fpt_recursion_refuses_rich_query(self, market_csv, tmp_path, capsys,
                                              monkeypatch):
        # the README's barriers at horizon 30 on the bundled fixture exceed the
        # default budget of 2 000 000 nodes, which takes ~40 s and ~1 GB to
        # reach; a budget of 10 000 takes the same exit path in a moment
        monkeypatch.setattr(cli, "fpt_survival_recursive",
                            functools.partial(fpt_survival_recursive, max_nodes=10_000))
        model = tmp_path / "model.json"
        assert main(["estimate", "--input", market_csv["path"], "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["fpt", "--model", str(model), "--rho", "1.005", "--psi", "100",
                     "--horizon", "30", "--method", "recursion",
                     "--out", str(tmp_path / "fpt")]) == 4
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "ResourceLimitError"


class TestModelVersions:
    def test_version_1_file_runs_as_its_re_save(self, small_model, tmp_path):
        """A version-1 model file, with raw samples, loads to the same samples
        as the version-2 file with runs, and simulate and fpt write the same
        bytes from either."""
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(v1_document(json.loads(Path(small_model).read_text()))))
        v2 = tmp_path / "v2.json"
        old = load_model(v1)
        save_model(old, v2)
        assert v2.read_bytes() == Path(small_model).read_bytes()
        new = load_model(v2)
        for name in ("inverse_j", "inverse_v"):
            for field in ("values", "counts"):
                for a, b in zip(getattr(getattr(old, name), field),
                                getattr(getattr(new, name), field)):
                    assert np.array_equal(a.view(np.int64), b.view(np.int64))
        outs = {}
        for model in (v1, v2):
            out = tmp_path / model.stem
            assert main(["simulate", "--model", str(model), "--minutes", "3000", "--reps",
                         "2", "--seed", "7", "--out", str(out / "sim")]) == 0
            assert main(["fpt", "--model", str(model), "--rho", "1.005", "--psi", "100",
                         "--horizon", "15", "--method", "mc", "--paths", "5000",
                         "--seed", "42", "--out", str(out / "fpt")]) == 0
            outs[model.stem] = {p.relative_to(out): p.read_bytes()
                                for p in sorted(out.rglob("*.csv"))}
        assert sorted(map(str, outs["v1"])) == [
            "fpt/fpt.csv", "sim/events_000.csv", "sim/events_001.csv",
            "sim/rep_000.csv", "sim/rep_001.csv"]
        assert outs["v1"] == outs["v2"]


    def test_run_count_of_10_to_the_12_simulates(self, small_model, tmp_path):
        """A run count is read, not expanded into samples, so a 10**12 count
        costs no memory."""
        doc = json.loads(Path(small_model).read_text())
        doc["inverse_j"]["counts"][0][0] = 10 ** 12
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        assert main(["simulate", "--model", str(path), "--minutes", "3000", "--reps", "1",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == ["events_000.csv", "rep_000.csv"]


class TestOptimizeCommand:
    def test_small_grid(self, small_csv, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--input", small_csv, "--variable", "r",
                     "--states", "3", "--lambdas", "0.9,0.95", "--max-lag",
                     "10", "--reps", "1", "--index-bins", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["best"]["s"] == 3
        assert len(doc["records"]) == 2

    def test_lambda_range_syntax(self, small_csv, tmp_path):
        out = tmp_path / "opt.json"
        assert main(["optimize", "--input", small_csv, "--states", "3",
                     "--lambdas", "0.90:0.92:0.01", "--max-lag", "5",
                     "--reps", "1", "--index-bins", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [rec["lam"] for rec in doc["records"]] == [0.9, 0.91, 0.92]

    def test_manifest_records_every_flag(self, small_csv, tmp_path):
        configs = []
        for bins in ("1", "2"):
            out = tmp_path / bins / "opt.json"
            assert main(["optimize", "--input", small_csv, "--states", "3",
                         "--lambdas", "0.9", "--max-lag", "5", "--reps", "1",
                         "--index-bins", bins, "--session", "08:30-17:30",
                         "--out", str(out)]) == 0
            configs.append(_read_manifest(out.parent, "opt.manifest.json")["config"])
        assert [c.pop("index_bins") for c in configs] == [1, 2]
        assert configs[0] == configs[1]
        assert configs[0]["session"] == "08:30-17:30"


class TestConfigFile:
    def test_flags_beat_config_beat_defaults(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states-r": 3, "states-v": 3,
                                   "index-bins": 1, "lambda-r": 0.9}))
        model = tmp_path / "m.json"
        assert main(["--config", str(cfg), "estimate", "--input", small_csv,
                     "--lambda-r", "0.95", "--out", str(model)]) == 0
        manifest = _read_manifest(tmp_path, "m.manifest.json")
        assert manifest["config"]["states_r"] == 3       # from the file
        assert manifest["config"]["lambda_r"] == 0.95    # flag wins
        assert manifest["config"]["lambda_v"] == 0.97    # built-in default

    def test_bad_config_file(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["--config", str(cfg), "analyze", "--input", small_csv,
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_equals_syntax(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"states-r": 3, "states-v": 3, "index-bins": 1}))
        model = tmp_path / "m.json"
        assert main([f"--config={cfg}", "estimate", "--input", small_csv,
                     "--out", str(model)]) == 0
        manifest = _read_manifest(tmp_path, "m.manifest.json")
        assert manifest["config"]["states_r"] == 3

    def test_other_subcommands_keys_stay_out(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"minutes": 500, "max-lag": 5}))
        argv = ["--config", str(cfg), "analyze", "--input", small_csv,
                "--out", str(tmp_path / "a")]
        parser = cli.build_parser()
        assert not hasattr(parser.parse_args(cli._apply_config_file(parser, argv)),
                           "minutes")
        assert main(argv) == 0
        config = _read_manifest(tmp_path / "a")["config"]
        assert config == {"input": small_csv, "session": "09:00-17:30",
                          "max_lag": 5, "alpha": 0.01}

    @pytest.mark.parametrize("values, args", [
        ({"method": "foo"}, ["fpt", "--model", "MODEL", "--rho", "1.0015", "--psi", "20",
                             "--horizon", "3", "--paths", "100"]),
        ({"variable": "x"}, ["optimize", "--input", "CSV", "--states", "3",
                             "--lambdas", "0.97", "--reps", "1"]),
        ({"states_r": 5.5}, ["estimate", "--input", "CSV"]),
        ({"max-lag": True}, ["analyze", "--input", "CSV"]),
        ({"session": ["09:00", "17:30"]}, ["analyze", "--input", "CSV"]),
    ], ids=["choices", "choices-optimize", "type", "bool", "list"])
    def test_config_values_checked_as_flags(self, small_csv, small_model, tmp_path,
                                            capsys, values, args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = [{"MODEL": small_model, "CSV": small_csv}.get(a, a) for a in args]
        out = tmp_path / "new" / "out"
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (tmp_path / "new").exists()

    def test_config_values_take_the_flag_type(self, small_model, tmp_path):
        # a JSON integer for a float flag, a string for an int flag, and null
        # where the built-in default is null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"i0": 0, "paths": "100", "v0": None}))
        out = tmp_path / "fpt"
        assert main(["--config", str(cfg), "fpt", "--model", small_model, "--rho", "1.0015",
                     "--psi", "20", "--horizon", "3", "--out", str(out)]) == 0
        config = _read_manifest(out)["config"]
        assert config["i0"] == 0.0 and isinstance(config["i0"], float)
        assert config["paths"] == 100 and config["v0"] is not None

    def test_seed_key_sets_the_seed(self, small_model, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "paths": 100}))
        out = tmp_path / "fpt"
        assert main(["--config", str(cfg), "fpt", "--model", small_model, "--rho", "1.0015",
                     "--psi", "20", "--horizon", "3", "--out", str(out)]) == 0
        assert _read_manifest(out)["seed"] == 5

    def test_dangling_config_exits_2(self, capsys):
        assert main(["--config"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"


class TestErrors:
    def test_invalid_lambda_exits_2(self, small_csv, tmp_path):
        code = main(["estimate", "--input", small_csv, "--lambda-r", "1.5",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--lambdas", "0.9:0.99:0"),
                                             ("--lambdas", "abc"),
                                             ("--states", "3,x")])
    def test_bad_optimize_lists_exit_2(self, small_csv, tmp_path, capsys, flag, value):
        code = main(["optimize", "--input", small_csv, flag, value,
                     "--out", str(tmp_path / "opt.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("session", ["9-17", "24:00-25:00", "09:60-17:00",
                                         "17:30-09:00"])
    def test_bad_session_exits_2(self, small_csv, tmp_path, capsys, session):
        code = main(["analyze", "--input", small_csv, "--session", session,
                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("damage, command, code, error", [
        ("not json", "simulate", 3, "ParseError"),
        ("no cond_wait", "simulate", 3, "ParseError"),
        ("kernel_j lambda not a number", "simulate", 3, "ParseError"),
        ("kernel_v lambda above 1", "simulate", 2, "ParameterError"),
        ("cond_wait counts lost a state", "simulate", 2, "ParameterError"),
        ("kernel_j counts lost a state", "simulate", 2, "ParameterError"),
        ("cond_wait x_edges moved", "fpt", 2, "ContractViolation"),
        ("cond_wait pmf row zeroed", "simulate", 3, "ParseError"),
        ("kernel_j pmf entry changed", "fpt", 3, "ParseError"),
        ("kernel_v t_max changed", "simulate", 2, "ParameterError"),
        ("cond_wait count negative", "simulate", 3, "ParseError"),
        ("kernel_v count negative", "simulate", 3, "ParseError"),
        ("kernel_j count fractional", "fpt", 3, "ParseError"),
        ("kernel document", "simulate", 3, "ParseError"),
        ("kernel document", "fpt", 3, "ParseError"),
        ("inverse_j samples one list short", "simulate", 3, "ParseError"),
        ("inverse_j samples reversed", "simulate", 3, "ParseError"),
        ("inverse_v sample NaN", "simulate", 3, "ParseError"),
        ("inverse_v sample in the next state's list", "simulate", 3, "ParseError"),
        ("inverse_j run count 0", "simulate", 3, "ParseError"),
        ("inverse_j negative run count", "fpt", 3, "ParseError"),
        ("inverse_j run count 1.0", "simulate", 3, "ParseError"),
        ("inverse_v run values descending", "simulate", 3, "ParseError"),
        ("inverse_j adjacent runs with identical bits", "simulate", 3, "ParseError"),
        ("inverse_v values and counts of different lengths", "simulate", 3, "ParseError"),
        ("inverse_v one count list more", "simulate", 3, "ParseError"),
        ("inverse_v run value in the next state's bin", "fpt", 3, "ParseError"),
        ("inverse_j run counts totalling over 2**53", "simulate", 3, "ParseError"),
        ("version 99", "simulate", 3, "ParseError"),
        ("version 99", "fpt", 3, "ParseError"),
        ("kernel_j version a string", "simulate", 3, "ParseError"),
        ("kernel_v version 2", "fpt", 3, "ParseError"),
        ("copula theta Infinity", "fpt", 2, "ParameterError"),
        ("copula theta NaN", "fpt", 2, "ParameterError"),
        ("copula df NaN", "simulate", 2, "ParameterError"),
        ("kernel_j representative NaN", "fpt", 2, "ParameterError"),
        ("kernel_v state edge NaN", "simulate", 2, "ParameterError"),
        ("index edges swapped", "fpt", 2, "ParameterError"),
    ])
    def test_bad_model_file(self, small_model, tmp_path, capsys, damage, command,
                            code, error):
        doc = json.loads(Path(small_model).read_text())
        if "sample" in damage:  # raw samples, as version 1 holds them
            doc = v1_document(doc)
        runs_j, runs_v = doc["inverse_j"], doc["inverse_v"]
        if damage == "no cond_wait":
            del doc["cond_wait"]
        elif damage == "kernel_j lambda not a number":
            doc["kernel_j"]["lambda"] = "abc"
        elif damage == "kernel_v lambda above 1":
            doc["kernel_v"]["lambda"] = 1.5
        elif damage.endswith("lost a state"):
            table = doc[damage.split()[0]]
            table["counts"] = table["counts"][1:]
        elif damage == "cond_wait x_edges moved":
            doc["cond_wait"]["x_edges"][2] *= 1.5
        elif damage == "cond_wait pmf row zeroed":  # an occupied row, counts kept
            cw = doc["cond_wait"]
            pmf = np.array(cw["pmf"])
            pmf[tuple(np.argwhere(np.array(cw["counts"]).sum(axis=4) > 0)[0])] = 0.0
            cw["pmf"] = pmf.tolist()
        elif damage == "kernel_j pmf entry changed":
            kj = doc["kernel_j"]
            pmf = np.array(kj["pmf"])
            top = np.unravel_index(np.argmax(pmf), pmf.shape)
            pmf[top] = np.nextafter(pmf[top], 0.0)  # one unit in the last place
            kj["pmf"] = pmf.tolist()
        elif damage == "kernel_v t_max changed":
            doc["kernel_v"]["t_max"] += 1
        elif damage.endswith("count negative"):  # its pmf recomputed to match
            table = doc[damage.split()[0]]
            counts = np.array(table["counts"])
            counts[tuple(np.argwhere(counts > 0)[0])] = -273
            table["counts"] = counts.tolist()
            law_ndim = 1 if damage.startswith("cond_wait") else 2
            table["pmf"] = normalized(counts, law_ndim)[0].tolist()
        elif damage == "kernel_j count fractional":  # an int64 cast would truncate it
            counts = np.array(doc["kernel_j"]["counts"], dtype=float)
            counts[tuple(np.argwhere(counts > 0)[0])] += 0.7
            doc["kernel_j"]["counts"] = counts.tolist()
        elif damage == "kernel document":  # a nested kernel on its own
            doc = doc["kernel_j"]
        elif damage == "inverse_j samples one list short":
            doc["inverse_j"]["samples"].pop()
        elif damage == "inverse_j samples reversed":
            doc["inverse_j"]["samples"][0].reverse()
        elif damage == "inverse_v sample NaN":  # written as a bare NaN token
            doc["inverse_v"]["samples"][0][0] = float("nan")
        elif damage == "inverse_v sample in the next state's list":  # still ascending
            samples = doc["inverse_v"]["samples"]
            samples[1].insert(0, samples[0][-1])
        elif damage == "inverse_j run count 0":
            runs_j["counts"][0][0] = 0
        elif damage == "inverse_j negative run count":
            runs_j["counts"][0][0] = -1
        elif damage == "inverse_j run count 1.0":
            runs_j["counts"][0][0] = 1.0
        elif damage == "inverse_v run values descending":  # counts reversed with them
            runs_v["values"][0].reverse()
            runs_v["counts"][0].reverse()
        elif damage == "inverse_j adjacent runs with identical bits":  # same samples
            k = next(k for k, c in enumerate(runs_j["counts"]) if c and c[0] > 1)
            runs_j["values"][k].insert(0, runs_j["values"][k][0])
            runs_j["counts"][k][:1] = [1, runs_j["counts"][k][0] - 1]
        elif damage == "inverse_v values and counts of different lengths":
            runs_v["counts"][0].pop()
        elif damage == "inverse_v one count list more":
            runs_v["counts"].append([])
        elif damage == "inverse_v run value in the next state's bin":  # still ascending
            runs_v["values"][1].insert(0, runs_v["values"][0][-1])
            runs_v["counts"][1].insert(0, 1)
        elif damage == "inverse_j run counts totalling over 2**53":  # each at most 2**53
            k = next(k for k, c in enumerate(runs_j["counts"]) if len(c) > 1)
            runs_j["counts"][k][0] = 2 ** 53
        elif damage == "version 99":
            doc["version"] = 99
        elif damage == "kernel_j version a string":
            doc["kernel_j"]["version"] = "1"
        elif damage == "kernel_v version 2":
            doc["kernel_v"]["version"] = 2
        elif damage.startswith("copula"):  # on a clayton copula, which reads theta
            _, name, value = damage.split()
            doc["copula"].update({"family": "clayton", "theta": 2.0, name: float(value)})
        elif damage == "kernel_j representative NaN":
            doc["kernel_j"]["grid"]["representatives"][0] = float("nan")
        elif damage == "kernel_v state edge NaN":
            doc["kernel_v"]["grid"]["edges"][1] = float("nan")
        elif damage == "index edges swapped":  # in the kernel and the waiting-time table
            for edges in (doc["kernel_j"]["index_edges"], doc["cond_wait"]["x_edges"]):
                edges[1], edges[2] = edges[2], edges[1]
        path = tmp_path / "bad.json"
        path.write_text("{not json" if damage == "not json" else json.dumps(doc))
        args = (["simulate", "--minutes", "10"] if command == "simulate" else
                ["fpt", "--rho", "1.0015", "--psi", "20", "--horizon", "3",
                 "--paths", "100"])
        assert main([*args, "--model", str(path), "--out", str(tmp_path / "o")]) == code
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("t_max", ["0", "-2"])
    def test_t_max_below_one_exits_2(self, small_csv, tmp_path, capsys, t_max):
        code = main(["estimate", "--input", small_csv, "--t-max", t_max,
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("args", [["estimate", "--states-r", "1"],
                                      ["estimate", "--states-v", "1"],
                                      ["optimize", "--states", "1"]])
    def test_fewer_than_two_states_exits_2(self, small_csv, tmp_path, capsys, args):
        code = main([*args, "--input", small_csv, "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_simulate_reps_below_one_exits_2(self, small_model, tmp_path, capsys, reps):
        out = tmp_path / "sim"
        code = main(["simulate", "--model", small_model, "--minutes", "10",
                     "--reps", reps, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.exists()

    def test_optimize_reps_below_one_exits_2(self, small_csv, tmp_path, capsys):
        out = tmp_path / "opt" / "opt.json"
        code = main(["optimize", "--input", small_csv, "--reps", "0", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag, value, method", [
        ("--rho", "nan", "mc"), ("--psi", "nan", "mc"), ("--psi", "nan", "recursion"),
        ("--i0", "nan", "mc"), ("--v0", "inf", "mc"), ("--v0", "inf", "recursion")])
    def test_non_finite_fpt_flags_exit_2(self, small_model, tmp_path, capsys, flag,
                                         value, method):
        flags = {"--rho": "1.0015", "--psi": "20", flag: value}
        out = tmp_path / "fpt"
        code = main(["fpt", "--model", small_model, "--horizon", "3", "--method", method,
                     "--paths", "100", *[x for kv in flags.items() for x in kv],
                     "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["mc", "recursion"])
    @pytest.mark.parametrize("flag, value", [("--i0", "1e300"), ("--v0", "-1e200"),
                                             ("--i0", "-1.3e154")])
    def test_start_value_whose_square_overflows_exits_2(self, small_model, tmp_path, capsys,
                                                        flag, value, method):
        # finite, but the index averages squared values: the first two squares
        # are inf, and the last one is finite, but its sum over the query's
        # minutes is not
        out = tmp_path / "fpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fpt", "--model", small_model, "--rho", "1.0015", "--psi", "20",
                         "--horizon", "3", "--method", method, "--paths", "100",
                         flag, value, "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError",
            "message": "history values must be finite, with finite squares"}
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--s0", "nan"), ("--s0", "0"),
                                             ("--v0", "inf"), ("--v0", "-1")])
    def test_bad_start_levels_exit_2(self, small_model, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        code = main(["simulate", "--model", small_model, "--minutes", "10", flag, value,
                     "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["2", "0"])
    def test_alpha_outside_unit_interval_exits_2(self, small_csv, tmp_path, capsys, alpha):
        out = tmp_path / "a"
        assert main(["analyze", "--input", small_csv, "--alpha", alpha,
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (out / "battery.json").exists()

    def test_negative_max_lag_exits_2(self, small_csv, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["analyze", "--input", small_csv, "--max-lag", "-5",
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
        assert not (out / "battery.json").exists()

    @pytest.mark.parametrize("price, volume", [("nan", "7"), ("inf", "7"), ("10.2", "inf"),
                                               ("10.2", "-inf")])
    def test_non_finite_bar_exits_3(self, tmp_path, capsys, price, volume):
        day = 20000 * 1440 + 540
        path = tmp_path / "bars.csv"
        path.write_text(f"timestamp,price,volume\n{day},10.0,5\n{day + 1},10.1,6\n"
                        f"{day + 2},{price},{volume}\n{day + 3},10.3,8\n")
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "a")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError" and err["message"].startswith("line 4:")

    def test_field_over_csv_limit_exits_3(self, tmp_path, capsys):
        # csv refuses a field longer than csv.field_size_limit() (131 072)
        day = 20000 * 1440 + 540
        path = tmp_path / "bars.csv"
        path.write_text(f"timestamp,price,volume\n{day},{'x' * 140_000},5\n{day + 1},10.1,6\n")
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "a")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError" and err["message"].startswith("line 2:")
        # padded with spaces, the price parses, and the C reader takes the file
        path.write_text(f"timestamp,price,volume\n{day},10.0{' ' * 140_000},5\n"
                        f"{day + 1},10.1,6\n")
        assert len(load_bars(path)) == 2
        path.write_text(f"timestamp,{'x' * 140_000},price,volume\n{day},1,10.0,5\n")
        assert main(["analyze", "--input", str(path), "--out", str(tmp_path / "a")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError" and err["message"].startswith("line 1:")

    @pytest.mark.parametrize("rho", ["1.0015", "1"])
    @pytest.mark.parametrize("method", ["mc", "recursion"])
    def test_fpt_u_beyond_waiting_law_exits_2(self, small_model, tmp_path, capsys,
                                              method, rho):
        # the refusal comes before the shortcut for a barrier at or below one
        out = tmp_path / "fpt"
        assert main(["fpt", "--model", small_model, "--rho", rho, "--psi", "20",
                     "--horizon", "3", "--u", "100000", "--method", method,
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ContractViolation", "message": "waiting-time law has no mass beyond u"}
        assert not out.exists()

    @pytest.mark.parametrize("args, code", [
        (["fpt", "--model", "MODEL", "--paths", "0"], 2),
        (["fpt", "--model", "MODEL", "--u", "100000"], 2),
        (["analyze", "--input", "CSV", "--max-lag", "-1"], 2),
        (["analyze", "--input", "CSV", "--alpha", "2"], 2),
        (["estimate", "--input", "CSV", "--states-r", "1"], 2),
        (["simulate", "--model", "missing.json", "--minutes", "10"], 3),
        (["optimize", "--input", "missing.csv"], 3),
    ], ids=["fpt-paths", "fpt-u", "analyze-max-lag", "analyze-alpha", "estimate-states",
            "simulate-model", "optimize-input"])
    def test_failed_run_creates_no_output(self, small_csv, small_model, tmp_path, args,
                                          code):
        # --out names a directory or, for estimate and optimize, a file in one
        names = {"MODEL": small_model, "CSV": small_csv, "missing.json":
                 str(tmp_path / "missing.json"), "missing.csv": str(tmp_path / "missing.csv")}
        fpt = ["--rho", "1.0015", "--psi", "20", "--horizon", "3"] if args[0] == "fpt" else []
        argv = [names.get(a, a) for a in args] + fpt
        assert main([*argv, "--out", str(tmp_path / "new" / "out")]) == code
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("case", ["bar byte", "model bom", "config byte",
                                      "input directory", "model directory",
                                      "out is a file"])
    def test_unreadable_input_or_output_exits_3(self, small_csv, small_model, tmp_path,
                                                capsys, case):
        day = 20000 * 1440 + 540
        bars, model, cfg = tmp_path / "bars.csv", tmp_path / "model.json", tmp_path / "c.json"
        bars.write_bytes(f"timestamp,price,volume\n{day},10.0,5\n".encode()
                         + f"{day + 1},10.1,6 caf\xe9\n".encode("latin-1"))
        model.write_bytes(b"\xff\xfe" + Path(small_model).read_text().encode("utf-16-le"))
        cfg.write_bytes(b'{"max-lag": 5, "note": "caf\xe9"}')
        out = tmp_path / "out"
        analyze = ["analyze", "--input", small_csv, "--max-lag", "5", "--out", str(out)]
        argv = {"bar byte": ["analyze", "--input", str(bars), "--out", str(out)],
                "model bom": ["simulate", "--model", str(model), "--minutes", "10",
                              "--out", str(out)],
                "config byte": ["--config", str(cfg), *analyze],
                "input directory": ["analyze", "--input", str(tmp_path), "--out", str(out)],
                "model directory": ["fpt", "--model", str(tmp_path), "--rho", "1.0015",
                                    "--psi", "20", "--horizon", "3", "--out", str(out)],
                "out is a file": analyze[:-1] + [str(bars)]}[case]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        if case == "bar byte":
            assert err == {"error": "ParseError", "message": "line 3: not UTF-8: byte 0xe9"}
        elif case in ("model bom", "config byte"):
            assert err["error"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "estimate", "optimize", "simulate", "fpt"])
    def test_out_checked_before_the_work(self, small_csv, small_model, tmp_path, monkeypatch,
                                         capsys, command):
        def work(*args, **kwargs):
            pytest.fail("the work ran before --out was checked")

        for name in ("run_battery", "fit_triplet_kernel", "grid_search", "simulate_path",
                     "fpt_survival_mc"):
            monkeypatch.setattr(cli, name, work)
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        # a file where a directory goes, a directory where a file goes, and
        # an output under a file
        argv, out = {
            "analyze": (["--input", small_csv], a_file),
            "estimate": (["--input", small_csv], tmp_path),
            "optimize": (["--input", small_csv, "--states", "3", "--lambdas", "0.9",
                          "--reps", "1"], a_file / "opt.json"),
            "simulate": (["--model", small_model, "--minutes", "10"], a_file / "sim"),
            "fpt": (["--model", small_model, "--rho", "1.0015", "--psi", "20",
                     "--horizon", "3"], a_file / "sub" / "fpt"),
        }[command]
        assert main([command, *argv, "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] in ("IsADirectoryError",
                                                                "NotADirectoryError")
        assert a_file.read_text() == ""

    @pytest.mark.parametrize("args", [
        ["simulate", "--model", "MODEL", "--minutes", "10", "--seed", "-1"],
        ["fpt", "--model", "MODEL", "--rho", "1.0015", "--psi", "20", "--horizon", "3",
         "--paths", "100", "--seed", "-1"],
        ["optimize", "--input", "CSV", "--states", "3", "--lambdas", "0.9", "--reps", "1",
         "--max-lag", "5", "--index-bins", "1", "--seed", "-1"],
        ["--config", "SEED_FILE", "simulate", "--model", "MODEL", "--minutes", "10"],
    ], ids=["simulate", "fpt", "optimize", "config"])
    def test_negative_seed_exits_2(self, small_csv, small_model, tmp_path, capsys, args):
        seed_file = tmp_path / "cfg.json"
        seed_file.write_text(json.dumps({"seed": -1}))
        names = {"MODEL": small_model, "CSV": small_csv, "SEED_FILE": str(seed_file)}
        out = tmp_path / "new" / "out"
        assert main([names.get(a, a) for a in args] + ["--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError", "message": "argument --seed: must be >= 0, got -1"}
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("flag, value", [("--index-bins", "0"), ("--epsilon", "nan"),
                                             ("--epsilon", "inf"), ("--epsilon", "-inf")])
    def test_optimize_grid_refused_before_loading(self, tmp_path, capsys, flag, value):
        # the input does not exist: the spec is refused before it is opened;
        # "flag=value" lets "-inf" reach the spec instead of reading as a flag
        out = tmp_path / "opt" / "opt.json"
        assert main(["optimize", "--input", str(tmp_path / "missing.csv"),
                     f"{flag}={value}", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert not err["message"].startswith("argument")
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--states", "3,3", "state counts must not repeat, got [3, 3]"),
        ("--lambdas", "0.97,0.97", "lambdas must not repeat, got [0.97, 0.97]")])
    def test_optimize_repeated_point_refused_before_loading(self, tmp_path, capsys, flag,
                                                            value, message):
        # the input does not exist: the spec is refused before it is opened
        out = tmp_path / "opt" / "opt.json"
        assert main(["optimize", "--input", str(tmp_path / "missing.csv"),
                     flag, value, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError", "message": message}
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag", ["--i0", "--v0"])
    def test_negative_exponent_flag_value_runs(self, small_model, tmp_path, flag):
        # argparse alone reads "-1e-3" as a flag, not as the flag's value
        out = tmp_path / "fpt"
        assert main(["fpt", "--model", small_model, "--rho", "1.0015", "--psi", "20",
                     "--horizon", "3", "--paths", "100", flag, "-1e-3",
                     "--out", str(out)]) == 0
        query = json.loads((out / "fpt.json").read_text())["query"]
        assert query[flag[2:]] == -1e-3

    def test_negative_infinite_epsilon_reaches_the_spec(self, tmp_path, capsys):
        out = tmp_path / "opt" / "opt.json"
        assert main(["optimize", "--input", str(tmp_path / "missing.csv"),
                     "--epsilon", "-inf", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError", "message": "epsilon must be finite"}

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--nope", "x"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "wismc" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_runs_byte_identical(self, small_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            model = tmp_path / f"model_{name}.json"
            main(["estimate", "--input", small_csv, "--states-r", "3",
                  "--states-v", "3", "--index-bins", "2", "--out", str(model)])
            sim = tmp_path / f"sim_{name}"
            main(["simulate", "--model", str(model), "--minutes", "2000",
                  "--reps", "2", "--seed", "5", "--out", str(sim)])
            outs.append((model, sim))
        (model_a, sim_a), (model_b, sim_b) = outs
        assert model_a.read_bytes() == model_b.read_bytes()
        for rep in (0, 1):
            assert ((sim_a / f"rep_{rep:03d}.csv").read_bytes()
                    == (sim_b / f"rep_{rep:03d}.csv").read_bytes())
            assert ((sim_a / f"events_{rep:03d}.csv").read_bytes()
                    == (sim_b / f"events_{rep:03d}.csv").read_bytes())
        ma = json.loads((sim_a / "manifest.json").read_text())
        mb = json.loads((sim_b / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]
        assert ma["seed"] == mb["seed"]

    def test_optimize_reruns_byte_identical(self, small_csv, tmp_path):
        written = []
        for name in ("a", "b"):
            out = tmp_path / name / "opt.json"
            assert main(["optimize", "--input", small_csv, "--states", "3",
                         "--lambdas", "0.9", "--max-lag", "5", "--reps", "1",
                         "--index-bins", "1", "--seed", "3", "--out", str(out)]) == 0
            written.append((out.read_bytes(),
                            (out.parent / "opt.manifest.json").read_bytes()))
        assert written[0] == written[1]


SCHEMA_DIR = Path(wismc.__file__).parent / "schemas"


def _schema_for(path: Path) -> str:
    if path.name.endswith("manifest.json"):
        return "manifest.schema.json"
    return {"battery.json": "battery.schema.json", "model.json": "triplet.schema.json",
            "fpt.json": "fpt.schema.json", "opt.json": "optresult.schema.json"}[path.name]


def test_outputs_match_shipped_schemas(small_csv, tmp_path):
    """Every JSON document the subcommands write validates against its schema
    under wismc/schemas (the model's kernels through the kernel schema)."""
    model = tmp_path / "model" / "model.json"
    runs = [
        ["analyze", "--input", small_csv, "--max-lag", "10", "--out", str(tmp_path / "an")],
        ["estimate", "--input", small_csv, "--states-r", "3", "--states-v", "3",
         "--index-bins", "1", "--out", str(model)],
        ["simulate", "--model", str(model), "--minutes", "300", "--seed", "1",
         "--out", str(tmp_path / "sim")],
        ["fpt", "--model", str(model), "--rho", "1.005", "--psi", "100", "--horizon", "5",
         "--paths", "2000", "--out", str(tmp_path / "mc")],
        ["fpt", "--model", str(model), "--rho", "1.005", "--psi", "100", "--horizon", "2",
         "--method", "recursion", "--out", str(tmp_path / "rec")],
        ["optimize", "--input", small_csv, "--states", "3", "--lambdas", "0.9",
         "--max-lag", "5", "--reps", "1", "--index-bins", "1",
         "--out", str(tmp_path / "opt" / "opt.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv[0]
    schemas = {p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.schema.json")}
    registry = Registry().with_resources(
        (name, Resource.from_contents(doc)) for name, doc in schemas.items())
    seen = set()
    for path in sorted(tmp_path.rglob("*.json")):
        name = _schema_for(path)
        Draft202012Validator(schemas[name], registry=registry).validate(
            json.loads(path.read_text()))
        seen.add(name)
    assert seen == set(schemas) - {"kernel.schema.json"}
