"""Print the peak resident memory of each benchmark subcommand, each run in a
fresh process.

Usage: python tools/peaks.py OUTDIR [--seed N]

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
"""
from __future__ import annotations

import argparse
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


def peak(argv: list) -> tuple:
    """(exit code, VmHWM in KiB) of ``wismc`` run on ``argv`` in a new
    interpreter; an empty ``argv`` only imports the package."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                          capture_output=True, text=True, check=True)
    code, kib = done.stdout.split()[-2:]
    return int(code), int(kib)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    out = args.outdir.resolve()
    if out.exists() and any(out.iterdir()):
        sys.stderr.write(f"{out} is not empty\n")
        return 2
    out.mkdir(parents=True, exist_ok=True)
    require_checkout()  # the stock's generator imports wismc
    bars = out / "bars.csv"
    make_stock(bars, args.seed)
    model = out / "fit" / "model" / "model.json"  # written by fit's estimate
    runs = [("import wismc", [])]
    for workload in WORKLOADS:
        inp = bars if workload == "fit" else model
        runs += commands(workload, str(inp), out / workload, args.seed)
    failed = False
    for label, cmd in runs:
        code, kib = peak(cmd)
        failed |= code != 0
        print(f"{label:<14} exit {code}  {kib * 1024 / 1e6:7.1f} MB  {kib / 1024:7.1f} MiB",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
