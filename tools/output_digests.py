"""Print the SHA-256 digest of every file the CLI writes on four fixed inputs.

Usage: python tools/output_digests.py OUTDIR

OUTDIR must be empty or absent. The script writes four bar files: the bundled
test fixture (``heavy_tailed_series(30000, 42)``); the same bars with
calendar-form stamps (``YYYY-MM-DDTHH:MM``); the same bars with a ``+`` before
every price; and the benchmark's stock (``make_stock`` with seed 101). The
calendar and signed files are the ones ``load_bars`` reads row by row. It runs
``analyze``, ``optimize``, ``estimate``, ``simulate`` (with each
``--backtransform``) and ``fpt`` (Monte Carlo and recursion, each at ``--u 0``
and ``--u 2``, and each from a start off the state grids) on each, then
``estimate`` and ``fpt`` again with part of their flags from a ``--config``
file (a command-line flag overriding one key). It then writes a version-1
copy of the fixture's ``model.json`` (each state's runs expanded into its
``samples``, without the library) and runs ``simulate`` (with each
``--backtransform``) and ``fpt --method mc`` on it. It prints one
``sha256  relative/path`` line per file, inputs, config files and manifests
included.

Manifests record the paths they were given, so two checkouts write the same
lines for the same OUTDIR exactly when every output is byte-identical.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

FPT_BARRIERS = ["--rho", "1.0015", "--psi", "20"]
# a start whose values are no state's: it takes the nearest value's state
OFF_GRID = ["--i0", "0.00031", "--v0", "-0.37"]
# config files written next to each input; the manifests hash the effective
# configuration
CONFIGS = {"estimate.config.json": {"states-r": 3, "states_v": 4, "lambda-r": 0.9},
           "fpt.config.json": {"i0": 0, "paths": 20000, "method": "mc", "seed": 9}}


def commands(d: Path) -> list:
    bars, model = str(d / "bars.csv"), str(d / "model.json")
    return [
        ["analyze", "--input", bars, "--out", str(d / "analyze")],
        ["estimate", "--input", bars, "--out", model],
        ["optimize", "--input", bars, "--states", "3,5", "--lambdas", "0.97",
         "--reps", "1", "--out", str(d / "opt.json")],
        ["simulate", "--model", model, "--minutes", "20000", "--reps", "2",
         "--out", str(d / "sim")],
        ["simulate", "--model", model, "--minutes", "20000", "--reps", "2",
         "--backtransform", "representative", "--out", str(d / "sim_representative")],
        ["fpt", "--model", model, *FPT_BARRIERS, "--horizon", "30",
         "--method", "mc", "--out", str(d / "fpt_mc")],
        ["fpt", "--model", model, *FPT_BARRIERS, "--horizon", "3",
         "--method", "recursion", "--out", str(d / "fpt_recursion")],
        ["fpt", "--model", model, *FPT_BARRIERS, "--horizon", "30", "--u", "2",
         "--method", "mc", "--out", str(d / "fpt_mc_u2")],
        ["fpt", "--model", model, *FPT_BARRIERS, "--horizon", "3", "--u", "2",
         "--method", "recursion", "--out", str(d / "fpt_recursion_u2")],
        ["fpt", "--model", model, *FPT_BARRIERS, *OFF_GRID, "--horizon", "30",
         "--method", "mc", "--out", str(d / "fpt_mc_off_grid")],
        ["fpt", "--model", model, *FPT_BARRIERS, *OFF_GRID, "--horizon", "3",
         "--method", "recursion", "--out", str(d / "fpt_recursion_off_grid")],
        ["--config", str(d / "estimate.config.json"), "estimate", "--input", bars,
         "--lambda-r", "0.95", "--out", str(d / "estimate_config" / "model.json")],
        ["--config", str(d / "fpt.config.json"), "fpt", "--model", model, *FPT_BARRIERS,
         "--horizon", "30", "--out", str(d / "fpt_config")],
    ]


def v1_commands(d: Path) -> list:
    """The commands run on the version-1 copy of ``d``'s model file."""
    model, out = str(d / "model_v1.json"), d / "v1"
    return [
        ["simulate", "--model", model, "--minutes", "20000", "--reps", "2",
         "--out", str(out / "sim")],
        ["simulate", "--model", model, "--minutes", "20000", "--reps", "2",
         "--backtransform", "representative", "--out", str(out / "sim_representative")],
        ["fpt", "--model", model, *FPT_BARRIERS, "--horizon", "30",
         "--method", "mc", "--out", str(out / "fpt_mc")],
    ]


def write_v1_model(d: Path) -> None:
    """Write ``d``'s ``model.json`` in model format 1 as ``model_v1.json``:
    each empirical inverse's runs expanded into its per-state samples."""
    doc = dict(json.loads((d / "model.json").read_text()), version=1)
    for name in ("inverse_j", "inverse_v"):
        if doc.get(name) is not None:
            doc[name] = {"samples": [
                [x for x, n in zip(values, counts) for _ in range(n)]
                for values, counts in zip(doc[name]["values"], doc[name]["counts"])]}
    (d / "model_v1.json").write_text(json.dumps(doc, sort_keys=True, indent=1))


def with_calendar_stamps(path: Path) -> None:
    """Rewrite the epoch-minute stamps of the bar file at ``path`` in calendar
    form."""
    header, *rows = path.read_text().splitlines()
    epoch = datetime.datetime(1970, 1, 1)
    for k, row in enumerate(rows):
        stamp, rest = row.split(",", 1)
        when = epoch + datetime.timedelta(minutes=int(stamp))
        rows[k] = f"{when:%Y-%m-%dT%H:%M},{rest}"
    path.write_text("\n".join([header, *rows]) + "\n")


def with_signed_prices(path: Path) -> None:
    """Put a ``+`` before every price of the bar file at ``path``."""
    header, *rows = path.read_text().splitlines()
    rows = [row.replace(",", ",+", 1) for row in rows]
    path.write_text("\n".join([header, *rows]) + "\n")


def inputs() -> dict:
    """The writer of each input's bar file, by input name."""
    from bench_inputs import fixture_module, make_stock

    fx = fixture_module()

    def fixture(p):
        fx.write_bar_csv(p, *fx.heavy_tailed_series(30000, 42))

    def calendar(p):
        fixture(p)
        with_calendar_stamps(p)

    def signed(p):
        fixture(p)
        with_signed_prices(p)

    return {"fixture": fixture, "calendar": calendar, "signed": signed,
            "stock101": lambda p: make_stock(p, seed=101)}


def prepare(d: Path, write) -> None:
    """Make the directory ``d`` and write its bar file and config files."""
    d.mkdir(parents=True)
    write(d / "bars.csv")
    for config_name, config in CONFIGS.items():
        (d / config_name).write_text(json.dumps(config))


def run(argvs, wismc_main) -> bool:
    """Run each command line with ``wismc_main``; stop at the first that
    fails and name it."""
    for argv_ in argvs:
        code = wismc_main(argv_)
        if code != 0:
            sys.stderr.write(f"{' '.join(argv_)} exited {code}\n")
            return False
    return True


def out_dir(argv, usage: str):
    """The one argument, OUTDIR, if it is empty or absent; else None, with
    the reason written to stderr."""
    if len(argv) != 1:
        sys.stderr.write(usage)
        return None
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty\n")
        return None
    return out


def main(argv) -> int:
    out = out_dir(argv, __doc__)
    if out is None:
        return 2
    from wismc.cli import main as wismc_main

    for name, write in inputs().items():
        prepare(out / name, write)
        if not run(commands(out / name), wismc_main):
            return 1
    write_v1_model(out / "fixture")
    if not run(v1_commands(out / "fixture"), wismc_main):
        return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
