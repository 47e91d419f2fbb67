"""One round of a workload in a fresh interpreter.

Set-up (``import wismc`` and loading the workload's input) ends at a
``perf_counter`` reading that the parent compares with the moment it started
this process; a burst of calibration ticks (``bench_host``) follows it. The
round then runs the workload's subcommands through ``wismc.cli.main`` while
ticks are sampled, and prints one JSON line: wall and CPU time of the
subcommands, less the ticks inside them, as measured and in reference
seconds (each subcommand scaled by the median of its own ticks), the peak
resident memory of this process's own memory map (``VmHWM``;
``getrusage``'s ``ru_maxrss`` would also carry the parent's peak across
``exec``), each subcommand's exit code and, when traced, the per-layer
metrics. It runs on the one CPU that ``run.py`` pinned itself to.

    python perfbench/bench_worker.py WORKLOAD INPUT OUT SEED TRACE_FILE|-|setup

``setup`` stops after set-up; ``-`` runs the round untraced.
"""
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
_t0 = time.perf_counter()
import wismc  # noqa: E402  (timed: the set-up cost users pay on every run)
from wismc.cli import main as cli_main  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import statistics  # noqa: E402

from bench_host import Sampler, calibrate, scaled  # noqa: E402
from bench_inputs import commands  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def peak_rss_kb() -> int:
    """High-water mark of this process's resident set, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    workload, inp, out, seed, trace = argv
    if workload == "fit":
        loaded = wismc.load_bars(inp)
    else:
        loaded = wismc.load_model(inp)
    setup_end = time.perf_counter()
    del loaded
    result = {"setup_end": setup_end, "import_s": IMPORT_S, "calib": calibrate()}
    if trace == "setup":
        print(json.dumps(result))
        return 0
    tracer = Tracer().install() if trace != "-" else None
    ops = []
    with Sampler() as sampler:
        for label, args in commands(workload, inp, Path(out), int(seed)):
            s = time.perf_counter()
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            if tracer is None:
                rc = cli_main(args)
            else:
                with tracer.region(f"cli:{label}"):
                    rc = cli_main(args)
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            e = time.perf_counter()
            ticks = sampler.between(s, e)
            wall = e - s - sum(ticks)
            cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - sum(ticks)
            tick_s = statistics.median(ticks)
            ops.append({"label": label, "rc": rc, "s": wall, "cpu_s": cpu, "tick_s": tick_s,
                        "ticks": len(ticks), "scaled_s": scaled(wall, tick_s),
                        "scaled_cpu_s": scaled(cpu, tick_s)})
    result.update(
        ops=ops,
        run_s=sum(op["scaled_s"] for op in ops),
        cpu_s=sum(op["scaled_cpu_s"] for op in ops),
        raw_run_s=sum(op["s"] for op in ops),
        raw_cpu_s=sum(op["cpu_s"] for op in ops),
        peak_rss_mb=peak_rss_kb() * 1024 / 1e6)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace)
        result["layers"] = tracer.layer_metrics(IMPORT_S)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
