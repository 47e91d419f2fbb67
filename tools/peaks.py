"""Print the peak resident memory of each benchmark subcommand, each run in a
fresh process, or of the ``fit`` round run in one process.

Usage: python tools/peaks.py OUTDIR [--seed N] [--round]

OUTDIR must be empty or absent. The script writes the benchmark's stock
(``perfbench/bench_inputs.make_stock`` with seed N, 101 by default) to
OUTDIR/bars.csv and runs each subcommand of ``bench_inputs.commands`` for
the ``fit`` workload on it, then those of ``simulate`` and ``fpt`` on the
model that ``estimate`` wrote, with N as their seed. Each runs through
``wismc.cli.main`` in a new interpreter that reads its own high-water mark
(``VmHWM`` of ``/proc/self/status``) when the subcommand returns. A first
process that only imports ``wismc`` gives the import's share. One line per
process: its label, the subcommand's exit code and VmHWM in MB (10⁶ bytes,
as ``perfbench`` reports ``peak_rss_mb``) and in MiB. The exit code is 1 if
any subcommand fails.

With ``--round`` it runs the ``fit`` subcommands in one interpreter, as
``perfbench/bench_worker.py`` runs a round (without its calibration and
timing ticks): it imports ``wismc``, loads the
bars with ``wismc.load_bars`` and drops them (the worker's set-up), then runs
``analyze``, ``optimize`` and ``estimate`` one after the other. It prints the
high-water mark after the import, after the set-up and after each
subcommand; the last line is the figure ``fit/peak_rss_mb`` reports. A
fresh process per subcommand does not predict it, because each subcommand
starts from the heap the ones before it left.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from bench_inputs import SRC, WORKLOADS, commands, make_stock, require_checkout  # noqa: E402

# the child: import wismc, run the subcommand (if any), print "code kib"
CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import wismc
from wismc.cli import main
code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(code, kib)
"""

# the round: import wismc, load and drop the bars, run each subcommand of
# the JSON list of argvs; print "label code kib" after each step
ROUND_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

import wismc
from wismc.cli import main
print("import wismc", 0, hwm(), flush=True)
loaded = wismc.load_bars(sys.argv[2])
del loaded
print("set-up", 0, hwm(), flush=True)
for label, argv in json.loads(sys.argv[3]):
    code = main(argv)
    print(label, code, hwm(), flush=True)
"""


def peak(argv: list) -> tuple:
    """(exit code, VmHWM in KiB) of ``wismc`` run on ``argv`` in a new
    interpreter; an empty ``argv`` only imports the package."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                          capture_output=True, text=True, check=True)
    code, kib = done.stdout.split()[-2:]
    return int(code), int(kib)


def round_peaks(bars: Path, runs: list) -> list:
    """(label, exit code, VmHWM in KiB) after each step of one ``fit`` round
    run in a new interpreter, as :data:`ROUND_CHILD` prints them."""
    done = subprocess.run([sys.executable, "-c", ROUND_CHILD, str(SRC), str(bars),
                           json.dumps(runs)], capture_output=True, text=True, check=True)
    return [(label, int(code), int(kib)) for label, code, kib in
            (line.rsplit(maxsplit=2) for line in done.stdout.splitlines())]


def _line(label: str, code: int, kib: int) -> str:
    return f"{label:<14} exit {code}  {kib * 1024 / 1e6:7.1f} MB  {kib / 1024:7.1f} MiB"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--round", action="store_true",
                    help="run the fit subcommands in one process, as a benchmark round")
    args = ap.parse_args(argv)
    out = args.outdir.resolve()
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty\n")
        return 2
    out.mkdir(parents=True, exist_ok=True)
    require_checkout()  # the stock's generator imports wismc
    bars = out / "bars.csv"
    make_stock(bars, args.seed)
    if args.round:
        steps = round_peaks(bars, commands("fit", str(bars), out / "fit", args.seed))
        for step in steps:
            print(_line(*step), flush=True)
        return 1 if any(code != 0 for _, code, _ in steps) else 0
    model = out / "fit" / "model" / "model.json"  # written by fit's estimate
    runs = [("import wismc", [])]
    for workload in WORKLOADS:
        inp = bars if workload == "fit" else model
        runs += commands(workload, str(inp), out / workload, args.seed)
    failed = False
    for label, cmd in runs:
        code, kib = peak(cmd)
        failed |= code != 0
        print(_line(label, code, kib), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
