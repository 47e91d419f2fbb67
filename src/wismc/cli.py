"""Command-line entry point: analyze, estimate, simulate, fpt and optimize
subcommands with deterministic outputs and a run manifest per invocation."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .copulas import FAMILIES
from .errors import (ContractViolation, ParameterError, ParseError, ResourceLimitError,
                     WismcError)
from .finfunc import MC_BATCH, FptQuery, fpt_survival_mc, fpt_survival_recursive
from .market_data import align, compute_returns, load_bars, run_battery
from .optimize import GridSpec, grid_search
from .serialize import dumps, load_model, save_model
from .simulate import SimConfig, simulate_path
from .triplet import TripletFitConfig, fit_triplet_kernel

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4

# argparse's conversion and choice errors (the parsers do not exit on them)
# are reported as ParameterError; an unknown or missing flag exits in argparse
_USAGE_ERRORS = (ParameterError, ContractViolation, argparse.ArgumentError)
_RESOURCE_ERRORS = (ResourceLimitError, MemoryError)
# every other package error is a data error, and so are an input or output path
# that cannot be opened and a config file that is not JSON; caught after the
# two above
_DATA_ERRORS = (WismcError, OSError, json.JSONDecodeError)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# parsed names that are not flags of a subcommand
_NOT_FLAGS = ("command", "func", "config")
# parsed names left out of a manifest's config: the seed has a field of its
# own, and outputs are recorded by name
_NOT_CONFIG = ("seed", "out", *_NOT_FLAGS)
# the subcommands whose --out names the one file they write; every other
# subcommand's --out names the directory of its files
FILE_OUTPUT = ("estimate", "optimize")


class _Outputs:
    """Where a run writes, and the files it has written, in order. The
    output directory is ``--out``, or a ``FILE_OUTPUT`` file's parent; it
    holds the manifest, ``manifest.json`` or ``<stem>.manifest.json`` beside
    the file, and is made just before the first file is written."""

    def __init__(self, args):
        """Refuse, before any work, an ``--out`` that cannot be written: a
        file output that is a directory, or an output directory that is, or
        lies under, a file. Nothing is created here."""
        out = Path(args.out)
        self.file = out.name if args.command in FILE_OUTPUT else None
        self.dir = out if self.file is None else out.parent
        self.manifest = self.dir / ("manifest.json" if self.file is None
                                    else out.stem + ".manifest.json")
        self.written = []
        if self.file is not None and out.is_dir():
            raise IsADirectoryError(f"--out {out}: is a directory")
        above = next(p for p in (self.dir, *self.dir.parents) if p.exists())
        if not above.is_dir():
            raise NotADirectoryError(f"--out {args.out}: {above} is not a directory")

    def path(self, name: str | None = None) -> Path:
        """The path of the output file ``name``, by default the ``--out``
        file, recorded as written; the directory is made first."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written.append(self.dir / (name or self.file))
        return self.written[-1]


def _write_manifest(args, out: _Outputs, inputs: list, resolved: dict) -> None:
    """Write the run manifest. Its ``config`` holds every flag of the
    subcommand but ``--seed`` and ``--out``, plus the ``resolved`` values
    and a ``FILE_OUTPUT`` file's name as ``out``."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    if out.file is not None:
        config["out"] = out.file
    manifest = {
        "subcommand": args.command,
        "config": {**config, **resolved},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in out.written},
    }
    out.manifest.write_text(dumps(manifest))


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands: each writes through its _Outputs and returns the paths it
# read and the values it resolved, which its manifest records


def _read_returns(args, *kinds) -> list:
    """The return series of each kind, formed from the bars of ``args.input``
    within ``args.session``. The bars are dropped on return, so a subcommand
    holds only the series through its work."""
    bars = load_bars(args.input, session=args.session)
    return [compute_returns(bars, kind) for kind in kinds]


def _cmd_analyze(args, out: _Outputs) -> tuple:
    r, v = _read_returns(args, "price-return", "volume-return")
    battery = run_battery(r, v, max_lag=args.max_lag, alpha=args.alpha)
    out.path("battery.json").write_text(dumps(battery))
    acf = battery["acf"]
    _write_csv(out.path("acf.csv"), ["lag", "acf_abs_r", "acf_abs_v", "acf_r"],
               zip(range(acf["max_lag"] + 1), acf["abs_r"], acf["abs_v"], acf["r"]))
    _write_csv(out.path("cross_correlation.csv"), ["pair", "rho", "p_value"],
               [(row["pair"], row["rho"], row["p_value"])
                for row in battery["cross_correlation"]])
    _write_csv(out.path("descriptive.csv"),
               ["series", "mean", "median", "standard_deviation", "skewness",
                "kurtosis", "kurtosis_is_excess", "n"],
               [(k, d["mean"], d["median"], d["standard_deviation"], d["skewness"],
                 d["kurtosis"], d["kurtosis_is_excess"], d["n"])
                for k, d in battery["descriptive"].items()])
    for name, table in battery["contingency"].items():
        _write_csv(out.path(f"contingency_{name}.csv"),
                   ["wait_bin", "value_bin", "observed", "expected"],
                   [(ri, ci, obs, table["expected"][ri][ci])
                    for ri, row in enumerate(table["observed"])
                    for ci, obs in enumerate(row)])
    return [args.input], {}


def _cmd_estimate(args, out: _Outputs) -> tuple:
    # refuse the settings before reading the input
    cfg = TripletFitConfig(n_states_r=args.states_r, n_states_v=args.states_v,
                           lam_r=args.lambda_r, lam_v=args.lambda_v, n_index_bins=args.index_bins,
                           copula_family=args.copula, t_max=args.t_max)
    # the unaligned series go as align returns
    ra, va = align(*_read_returns(args, "price-return", "volume-return"))
    save_model(fit_triplet_kernel(ra, va, cfg), out.path())
    return [args.input], {}


def _cmd_simulate(args, out: _Outputs) -> tuple:
    cfg = SimConfig(length_minutes=args.minutes, backtransform=args.backtransform,
                    s0=args.s0, v0=args.v0)
    tk = load_model(args.model)
    for rep in range(args.reps):
        child = int(np.random.SeedSequence([args.seed, rep]).generate_state(1)[0])
        path = simulate_path(tk, dataclasses.replace(cfg, seed=child))
        _write_csv(out.path(f"rep_{rep:03d}.csv"), ["minute", "r", "v", "S", "V"],
                   zip(range(args.minutes), path.r, path.v, path.S[1:], path.V[1:]))
        ev = path.events
        _write_csv(out.path(f"events_{rep:03d}.csv"),
                   ["n", "T", "J_state", "V_state", "bJ", "bV", "xbin", "wbin"],
                   zip(ev["n"], ev["time"], ev["j_state"], ev["v_state"],
                       ev["b_j"], ev["b_v"], ev["x_bin"], ev["w_bin"]))
    return [args.model], {}


def _cmd_fpt(args, out: _Outputs) -> tuple:
    # refuse the query's own settings before reading the model, its start after
    query = FptQuery(rho=args.rho, psi=args.psi, horizon=args.horizon, u=args.u)
    tk = load_model(args.model)
    # an unset start value is its variable's most visited state's representative
    i0, v0 = (float(k.grid.representatives[np.argmax(k.counts.sum(axis=(1, 2, 3)))])
              if given is None else given
              for given, k in ((args.i0, tk.kernel_j), (args.v0, tk.kernel_v)))
    query = dataclasses.replace(query, history_j=[i0], history_v=[v0])
    if args.method == "recursion":
        res = fpt_survival_recursive(tk, query)
    else:
        res = fpt_survival_mc(tk, query, n_paths=args.paths, seed=args.seed)
    lower = res.lower if res.lower is not None else res.survival
    upper = res.upper if res.upper is not None else res.survival
    _write_csv(out.path("fpt.csv"), ["t", "survival", "lower", "upper"],
               zip(range(args.horizon + 1), res.survival, lower, upper))
    out.path("fpt.json").write_text(dumps({
        "query": {"rho": args.rho, "psi": args.psi, "horizon": args.horizon,
                  "i0": i0, "v0": v0, "u": args.u},
        **res.as_dict()}))
    return [args.model], {"i0": i0, "v0": v0}


def _parse_lambdas(text: str) -> tuple:
    """``lo:hi:step`` (both ends included) or a comma list."""
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(","))
        lo, hi, step = (float(p) for p in text.split(":"))
        if not step > 0:
            raise ValueError("the step must be positive")
        vals = np.arange(lo, hi + step / 2, step)
    except ValueError as exc:
        raise ParameterError(f"bad --lambdas {text!r}: {exc}") from exc
    return tuple(float(round(v, 10)) for v in vals)


def _parse_states(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad --states {text!r}: {exc}") from exc


def _cmd_optimize(args, out: _Outputs) -> tuple:
    spec = GridSpec(state_counts=_parse_states(args.states),
                    lambdas=_parse_lambdas(args.lambdas),
                    max_lag=args.max_lag, reps_per_point=args.reps,
                    n_index_bins=args.index_bins, epsilon=args.epsilon)
    values = _read_returns(args, "price-return" if args.variable == "r"
                           else "volume-return")[0].values
    result = grid_search(values, spec, seed=args.seed)
    out.path().write_text(dumps({"variable": args.variable, **result.as_dict()}))
    return [args.input], {}


# ---------------------------------------------------------------------------
# parser


def _at_least(low: int):
    """The type of an integer flag whose values start at ``low``: a seed at
    0, as numpy's seeding requires, and a count of runs or paths at 1."""
    def value(text: str) -> int:
        try:
            number = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number
    return value


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser of the one flag ``add_argument(*args, **kwargs)``
    declares, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wismc", exit_on_error=False,
        description="Indexed semi-Markov modelling of minute returns, volumes "
                    "and waiting times")
    ap.add_argument("--version", action="version", version=f"wismc {__version__}")
    ap.add_argument("--config", default=None,
                    help="JSON file of flag defaults; explicit flags win")
    add = functools.partial(ap.add_subparsers(dest="command", required=True).add_parser,
                            exit_on_error=False)
    # the flags several subcommands share, each declared once; subcommands
    # that share a parent share its argparse action, so each --seed default
    # gets a parent of its own
    out = _flag("--out", required=True)
    bars = [_flag("--input", required=True), _flag("--session", default="09:00-17:30")]
    model = _flag("--model", required=True)
    max_lag = _flag("--max-lag", type=int, default=100)
    index_bins = _flag("--index-bins", type=int, default=5)
    seed = functools.partial(_flag, "--seed", type=_at_least(0))

    p = add("analyze", help="statistics battery over a minute-bar CSV",
            parents=[*bars, max_lag, out])
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=_cmd_analyze)

    p = add("estimate", help="fit the joint model from a minute-bar CSV",
            parents=[*bars, index_bins, out])
    p.add_argument("--states-r", type=int, default=5)
    p.add_argument("--states-v", type=int, default=5)
    p.add_argument("--lambda-r", type=float, default=0.97)
    p.add_argument("--lambda-v", type=float, default=0.97)
    p.add_argument("--copula", default="gaussian", choices=FAMILIES)
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = add("simulate", help="generate synthetic paths from a model file",
            parents=[model, seed(default=0), out])
    p.add_argument("--minutes", type=int, required=True)
    p.add_argument("--reps", type=_at_least(1), default=1)
    p.add_argument("--backtransform", default="empirical",
                   choices=["empirical", "representative"])
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=1.0)
    p.set_defaults(func=_cmd_simulate)

    p = add("fpt", help="joint first-passage-time survival",
            parents=[model, seed(default=0), out])
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--method", default="mc", choices=["mc", "recursion"])
    p.add_argument("--paths", type=_at_least(1), default=100_000,
                   help=f"Monte Carlo paths, run in batches of {MC_BATCH} from one "
                        "seeded stream: the working memory is one batch's, whatever "
                        "the count")
    p.add_argument("--i0", type=float, default=None)
    p.add_argument("--v0", type=float, default=None)
    p.add_argument("--u", type=int, default=0)
    p.set_defaults(func=_cmd_fpt)

    p = add("optimize", help="grid search over states and memory",
            parents=[*bars, max_lag, index_bins, seed(default=11), out])
    p.add_argument("--variable", default="r", choices=["r", "v"])
    p.add_argument("--states", default="3,5,7,9")
    p.add_argument("--lambdas", default="0.95:0.99:0.01")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_optimize)
    return ap


# the negative numbers argparse takes as a flag's value; any other number that
# starts with "-", such as "-1e-3" or "-inf", reads as a flag
_PLAIN_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _reads_as_flag(token: str) -> bool:
    """Is ``token`` a negative number that argparse takes for a flag?"""
    if not token.startswith("-") or _PLAIN_NEGATIVE.match(token):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list) -> list:
    """Write each flag followed by such a number as one ``--flag=value``
    token, so that the number reaches the flag."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _reads_as_flag(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _apply_config_file(parser, argv):
    """Precedence flags > config file > built-in defaults. Each key of the
    JSON file that names a flag of the subcommand being run becomes a
    ``--flag=value`` token right after the subcommand's name, so argparse
    converts and checks it as a command-line value and a later explicit flag
    wins. ``null`` adds no token, and is taken only where the flag is
    otherwise ``null``."""
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand onwards
    found = pre.parse_known_args(argv)[0]
    if found.config is None:
        return argv
    with open(found.config, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{found.config}: not UTF-8: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParameterError("config file must hold a JSON object")
    flags = vars(parser.parse_args(argv))  # the subcommand's flags, as if no file
    tokens = []
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in flags or dest in _NOT_FLAGS or value is None and flags[dest] is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ParameterError(f"config file: argument {flag}: not a flag value: {value!r}")
        tokens.append(f"{flag}={value}")
    at = len(argv) - len(found.rest) + 1
    return argv[:at] + tokens + argv[at:]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(parser, argv))
        out = _Outputs(args)
        _write_manifest(args, out, *args.func(args, out))
        return 0
    except _USAGE_ERRORS as exc:
        _emit_error(exc)
        return EXIT_USAGE
    except _RESOURCE_ERRORS as exc:
        _emit_error(exc)
        return EXIT_RESOURCE
    except _DATA_ERRORS as exc:
        _emit_error(exc)
        return EXIT_DATA


def _emit_error(exc) -> None:
    name = "ParameterError" if isinstance(exc, argparse.ArgumentError) else type(exc).__name__
    sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
