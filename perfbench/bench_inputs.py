"""Benchmark inputs: the checkout layout, one synthetic stock of about the
paper's length, and the fixed settings of each workload's subcommands."""
from __future__ import annotations

import csv
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "conftest.py"

# Two years of 510-minute sessions (09:00-17:30), as in the paper's sample
# of August 2015 - August 2017: 510 sessions x 510 bars = 260 100 bars.
SESSION_MINUTES = 510
SESSIONS = 510
N_RETURNS = SESSIONS * SESSION_MINUTES - 1

# fit: a small (states, lambda) grid, one replication per point.
OPT_STATES = "3,5"
OPT_LAMBDAS = "0.97"
# simulate: two replications, ~9k events in all.
SIM_MINUTES = 5_000
SIM_REPS = 2
# fpt: barriers that can be crossed from the third minute on, so Monte Carlo
# and the exact recursion are compared where the survival moves.
FPT_RHO = "1.0015"
FPT_PSI = "20"
FPT_MC_HORIZON = 30
FPT_MC_PATHS = 200_000
FPT_RECURSION_HORIZON = 3

WORKLOADS = ("fit", "simulate", "fpt")


class CheckoutError(RuntimeError):
    """The directory holds no wismc sources or no test fixture."""


def require_checkout() -> None:
    """Refuse to run without the package sources and the fixture generator,
    and make this checkout's sources the ones imported."""
    missing = [p for p in (SRC / "wismc" / "__init__.py", FIXTURE) if not p.is_file()]
    if missing:
        raise CheckoutError("not a wismc checkout: missing "
                            + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fixture_module():
    """The test fixture module (``heavy_tailed_series``, ``write_bar_csv``),
    loaded under its own name so it never shadows pytest's ``conftest``."""
    spec = importlib.util.spec_from_file_location("wismc_test_fixture", FIXTURE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def observed(realized: np.ndarray) -> np.ndarray:
    """The returns a within-session reader sees: the change applied across
    each overnight gap (after the last bar of a session) is never formed."""
    k = np.arange(realized.size)
    return realized[(k + 1) % SESSION_MINUTES != 0]


def make_stock(path: Path, seed: int, n_returns: int = N_RETURNS):
    """Write the bar CSV for ``seed``; return the observed (r, v) series that
    the CSV encodes, for checks made apart from the program."""
    fx = fixture_module()
    r, v = fx.heavy_tailed_series(n_returns, seed)
    real_r, real_v = fx.write_bar_csv(path, r, v)
    return observed(real_r), observed(real_v)


def read_observed(path: Path):
    """(r, v) log changes between consecutive bars of the same day, read from
    the CSV with Python's own float parsing and ``math.log``, so they carry
    the same last digits as any reader doing that arithmetic."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    day = [int(ts) // 1440 for ts, _, _ in rows]
    price = [float(p) for _, p, _ in rows]
    volume = [float(q) for _, _, q in rows]
    same = [t for t in range(1, len(rows)) if day[t] == day[t - 1]]
    r = np.array([math.log(price[t] / price[t - 1]) for t in same])
    v = np.array([math.log(volume[t] / volume[t - 1]) for t in same])
    return r, v


def commands(workload: str, inp: str, out: Path, seed: int) -> list:
    """(label, argv) of each ``wismc`` subcommand of one round. ``inp`` is the
    bar CSV for ``fit`` and the model file for ``simulate`` and ``fpt``."""
    if workload == "fit":
        return [
            ("analyze", ["analyze", "--input", inp, "--out", str(out / "analyze")]),
            ("optimize", ["optimize", "--input", inp, "--variable", "r",
                          "--states", OPT_STATES, "--lambdas", OPT_LAMBDAS,
                          "--reps", "1", "--seed", str(seed),
                          "--out", str(out / "opt" / "opt.json")]),
            ("estimate", ["estimate", "--input", inp,
                          "--out", str(out / "model" / "model.json")]),
        ]
    if workload == "simulate":
        return [("simulate", ["simulate", "--model", inp, "--minutes", str(SIM_MINUTES),
                              "--reps", str(SIM_REPS), "--seed", str(seed),
                              "--out", str(out / "sim")])]
    if workload == "fpt":
        barrier = ["--model", inp, "--rho", FPT_RHO, "--psi", FPT_PSI]
        return [
            ("fpt_mc", ["fpt", *barrier, "--horizon", str(FPT_MC_HORIZON),
                        "--method", "mc", "--paths", str(FPT_MC_PATHS),
                        "--seed", str(seed), "--out", str(out / "mc")]),
            ("fpt_recursion", ["fpt", *barrier, "--horizon", str(FPT_RECURSION_HORIZON),
                               "--method", "recursion", "--out", str(out / "recursion")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
