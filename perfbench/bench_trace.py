"""Spans around the public functions of each wismc layer, installed from the
benchmark's own files (no program code changes), and the per-layer metrics
derived from them.

A span is (id, name, start, end, parent). Functions called once per event or
per recursion node are "hot": their calls are aggregated per (name, parent,
tag) into a call count, total time and a work count instead of one span per
call, which keeps memory and the written trace small. Spans assume one thread
of work at a time, which holds for the CLI's default ``--threads 1``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

# (module, attribute, hot). Attributes with a dot are methods of a class.
TARGETS = (
    ("wismc.market_data", "load_bars", False),
    ("wismc.market_data", "compute_returns", False),
    ("wismc.market_data", "run_battery", False),
    ("wismc.core", "make_state_grid", False),
    ("wismc.core", "discretize", False),
    ("wismc.core", "estimate_kernel", False),
    ("wismc.core", "index_at_times", False),
    ("wismc.triplet", "synchronize", False),
    ("wismc.triplet", "estimate_cond_wait", False),
    ("wismc.triplet", "estimate_signs", False),
    ("wismc.triplet", "EmpiricalInverse.from_data", False),
    ("wismc.triplet", "TripletKernel.__post_init__", False),
    ("wismc.triplet", "fit_triplet_kernel", False),
    ("wismc.triplet", "TripletKernel.event_value_pmf", True),
    ("wismc.triplet", "TripletKernel.waiting_pmf", True),
    ("wismc.copulas", "fit_copula", False),
    ("wismc.copulas", "sample_copula", True),
    ("wismc.copulas", "copula_eval", True),
    ("wismc.serialize", "save_model", False),
    ("wismc.serialize", "load_model", False),
    ("wismc.simulate", "simulate_path", False),
    ("wismc.simulate", "simulate_univariate", False),
    ("wismc.optimize", "grid_search", False),
    ("wismc.finfunc", "fpt_survival_mc", False),
    ("wismc.finfunc", "fpt_survival_recursive", False),
)

def _work(name: str, args, kwargs, result) -> tuple:
    """(tag, work count, extra span fields) recorded for one call."""
    if name == "sample_copula":
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        return ("one" if n == 1 else "batch"), n, None
    if name == "copula_eval":
        u = args[1] if len(args) > 1 else kwargs["u"]
        v = args[2] if len(args) > 2 else kwargs["v"]
        return "", int(np.broadcast(np.asarray(u), np.asarray(v)).size), None
    if name == "simulate_path":
        return "", 0, {"events": int(len(result.events["n"]))}
    if name == "simulate_univariate":
        return "", 0, {"events": int(result[1].size)}
    if name == "grid_search":
        return "", 0, {"points": len(result.records)}
    if name == "fpt_survival_mc":
        query = args[1] if len(args) > 1 else kwargs["query"]
        paths = args[2] if len(args) > 2 else kwargs.get("n_paths", 100_000)
        return "", 0, {"path_minutes": int(paths) * int(query.horizon)}
    if name in ("save_model", "load_model"):
        path = args[1] if name == "save_model" else args[0]
        return "", 0, {"model_mb": os.path.getsize(path) / 1e6}
    return "", 0, None


class Tracer:
    """Records spans and hot-call aggregates in memory."""

    def __init__(self):
        self.spans = []
        self.hot = {}  # (name, parent name, tag) -> [calls, ns, work]
        self._stack = []  # (span id, name) of the active spans
        self._ids = 0
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, hot):
        parent = self._stack[-1] if self._stack else (None, None)
        sid = None
        if not hot:
            self._ids += 1
            sid = self._ids
        self._stack.append((sid, name))
        return sid, parent

    def _call(self, name, hot, fn, args, kwargs):
        sid, parent = self._open(name, hot)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
        tag, work, extra = _work(name, args, kwargs, result)
        if hot:
            agg = self.hot.setdefault((name, parent[1], tag), [0, 0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += work
        else:
            span = {"id": sid, "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent[0]}
            if extra:
                span.update(extra)
            self.spans.append(span)
        return result

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent = self._open(name, False)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start_ns": t0,
                               "end_ns": t1, "parent": parent[0]})

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Replace every target, in its own module and wherever another wismc
        module imported it by name, with a recording wrapper."""
        tracer = self
        for mod_name, attr, hot in TARGETS:
            mod = sys.modules[mod_name]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[fn_name]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw

            def make(fn=fn, label=attr, hot=hot):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    return tracer._call(label, hot, fn, args, kwargs)
                return wrapper

            wrapped = make()
            new = classmethod(wrapped) if is_classmethod else wrapped
            self._undo.append((owner, fn_name, raw))
            setattr(owner, fn_name, new)
            if not owner_name:
                for other in [m for n, m in sys.modules.items()
                              if n.startswith("wismc.") and m is not mod]:
                    for key, val in list(vars(other).items()):
                        if val is raw:
                            self._undo.append((other, key, raw))
                            setattr(other, key, new)
        return self

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._undo):
            setattr(owner, key, raw)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Spans, then hot-call aggregates, one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, parent, tag), (calls, ns, work) in sorted(
                    self.hot.items(), key=lambda kv: tuple(map(str, kv[0]))):
                fh.write(json.dumps({"aggregate": name, "parent": parent, "tag": tag,
                                     "calls": calls, "ns": ns, "work": work}) + "\n")

    def layer_metrics(self, import_s: float) -> dict:
        """Per-layer metrics of one traced round: every ``per_layer`` name of
        BENCHMARK.json except the two the parent process measures. A layer
        the round never calls reads 0."""
        by_name = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def total_s(name):
            return sum(s["end_ns"] - s["start_ns"] for s in by_name.get(name, ())) / 1e9

        def mean_s(name):
            calls = by_name.get(name, ())
            return total_s(name) / len(calls) if calls else 0.0

        def field(name, key):
            return sum(s[key] for s in by_name.get(name, ()))

        def hot(name, parent=None, tag=None):
            calls = ns = work = 0
            for (n, p, t), (c, s, w) in self.hot.items():
                if n == name and parent in (None, p) and tag in (None, t):
                    calls, ns, work = calls + c, ns + s, work + w
            return calls, ns, work

        def ratio(num, den):
            return num / den if den else 0.0

        m = {f"cli.{label}_s": total_s(f"cli:{label}") for label in (
            "analyze", "optimize", "estimate", "simulate", "fpt_mc", "fpt_recursion")}
        m["cli.simulate_io_s"] = (m["cli.simulate_s"] - total_s("simulate_path")
                                  if by_name.get("cli:simulate") else 0.0)
        m["setup.import_s"] = import_s
        for metric, name in (
                ("market_data.load_bars_s", "load_bars"),
                ("market_data.compute_returns_s", "compute_returns"),
                ("market_data.run_battery_s", "run_battery"),
                ("core.make_state_grid_s", "make_state_grid"),
                ("core.discretize_s", "discretize"),
                ("core.estimate_kernel_s", "estimate_kernel"),
                ("core.index_at_times_s", "index_at_times"),
                ("triplet.synchronize_s", "synchronize"),
                ("triplet.estimate_cond_wait_s", "estimate_cond_wait"),
                ("triplet.estimate_signs_s", "estimate_signs"),
                ("triplet.empirical_inverse_s", "EmpiricalInverse.from_data"),
                ("triplet.modulus_tables_s", "TripletKernel.__post_init__"),
                ("triplet.fit_s", "fit_triplet_kernel"),
                ("copulas.fit_copula_s", "fit_copula"),
                ("serialize.save_model_s", "save_model"),
                ("serialize.load_model_s", "load_model")):
            m[metric] = mean_s(name)
        m["triplet.event_value_pmf_s"] = hot("TripletKernel.event_value_pmf")[1] / 1e9
        calls, ns, _ = hot("sample_copula", tag="one")
        m["copulas.sample_one_us"] = ratio(ns / 1e3, calls)
        _, ns, pairs = hot("sample_copula", tag="batch")
        m["copulas.sample_batch_ns_per_pair"] = ratio(ns, pairs)
        _, ns, cells = hot("copula_eval")
        m["copulas.eval_cells_per_s"] = ratio(cells, ns / 1e9)
        m["serialize.model_mb"] = max([s["model_mb"] for n in ("save_model", "load_model")
                                       for s in by_name.get(n, ())], default=0.0)
        events = field("simulate_path", "events")
        m["simulate.events"] = events
        m["simulate.joint_us_per_event"] = ratio(total_s("simulate_path") * 1e6, events)
        events = field("simulate_univariate", "events")
        m["simulate.univariate_events"] = events
        m["simulate.univariate_us_per_event"] = ratio(
            total_s("simulate_univariate") * 1e6, events)
        m["optimize.grid_point_s"] = ratio(total_s("grid_search"),
                                           field("grid_search", "points"))
        m["finfunc.mc_ns_per_path_minute"] = ratio(
            total_s("fpt_survival_mc") * 1e9, field("fpt_survival_mc", "path_minutes"))
        m["finfunc.recursion_s"] = total_s("fpt_survival_recursive")
        nodes = hot("TripletKernel.waiting_pmf", parent="fpt_survival_recursive")[0]
        m["finfunc.recursion_nodes"] = nodes
        m["finfunc.recursion_nodes_per_s"] = ratio(nodes, m["finfunc.recursion_s"])
        return m
