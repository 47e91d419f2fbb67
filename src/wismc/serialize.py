"""Self-describing JSON documents for triplet models and the two kernels
nested in each.

Floats are written with Python's shortest round-trip representation and the
non-finite grid edges as JSON ``Infinity`` literals, so load(save(x)) is
bit-exact. Every document carries a ``format`` tag and ``version`` field.
"""
from __future__ import annotations

import json

import numpy as np

from .copulas import CopulaSpec
from .core import IndexedKernel, StateGrid
from .errors import ParseError
from .triplet import CondWaitDist, EmpiricalInverse, SignModel, TripletKernel

__all__ = [
    "kernel_to_dict",
    "kernel_from_dict",
    "triplet_to_dict",
    "triplet_from_dict",
    "save_model",
    "load_model",
    "dumps",
]

KERNEL_FORMAT = "wismc.kernel"
TRIPLET_FORMAT = "wismc.triplet"
FORMAT_VERSION = 1


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def kernel_to_dict(k: IndexedKernel) -> dict:
    return {
        "format": KERNEL_FORMAT,
        "version": FORMAT_VERSION,
        "grid": {
            "edges": k.grid.edges.tolist(),
            "representatives": k.grid.representatives.tolist(),
        },
        "lambda": k.lam,
        "index_edges": k.index_edges.tolist(),
        "t_max": int(k.t_max),
        "counts": k.counts.tolist(),
        "pmf": k.pmf.tolist(),
    }


def kernel_from_dict(doc: dict) -> IndexedKernel:
    if doc.get("format") != KERNEL_FORMAT:
        raise ParseError(f"not a kernel document: {doc.get('format')!r}")
    grid = StateGrid(edges=np.array(doc["grid"]["edges"], dtype=float),
                     representatives=np.array(doc["grid"]["representatives"], dtype=float))
    return IndexedKernel(
        grid=grid,
        lam=float(doc["lambda"]),
        index_edges=np.array(doc["index_edges"], dtype=float),
        t_max=int(doc["t_max"]),
        counts=np.array(doc["counts"], dtype=np.int64),
        pmf=np.array(doc["pmf"], dtype=float),
    )


def _inverse_to_dict(inv) -> dict | None:
    if inv is None:
        return None
    return {"samples": [s.tolist() for s in inv.samples]}


def _inverse_from_dict(doc, grid: StateGrid):
    if doc is None:
        return None
    return EmpiricalInverse(samples=[np.array(s, dtype=float) for s in doc["samples"]],
                            grid=grid)


def triplet_to_dict(tk: TripletKernel) -> dict:
    return {
        "format": TRIPLET_FORMAT,
        "version": FORMAT_VERSION,
        "kernel_j": kernel_to_dict(tk.kernel_j),
        "kernel_v": kernel_to_dict(tk.kernel_v),
        "cond_wait": {
            "counts": tk.cond_wait.counts.tolist(),
            "pmf": tk.cond_wait.pmf.tolist(),
            "x_edges": tk.cond_wait.x_edges.tolist(),
            "w_edges": tk.cond_wait.w_edges.tolist(),
        },
        "copula": {
            "family": tk.copula.family,
            "rho": tk.copula.rho,
            "theta": tk.copula.theta,
            "df": tk.copula.df,
            "fitted_from": tk.copula.fitted_from,
        },
        "signs": {"p_j": tk.signs.p_j, "p_v": tk.signs.p_v},
        "inverse_j": _inverse_to_dict(tk.inverse_j),
        "inverse_v": _inverse_to_dict(tk.inverse_v),
    }


def triplet_from_dict(doc: dict) -> TripletKernel:
    if doc.get("format") != TRIPLET_FORMAT:
        raise ParseError(f"not a triplet document: {doc.get('format')!r}")
    kj = kernel_from_dict(doc["kernel_j"])
    kv = kernel_from_dict(doc["kernel_v"])
    cw = doc["cond_wait"]
    cond = CondWaitDist(
        counts=np.array(cw["counts"], dtype=np.int64),
        pmf=np.array(cw["pmf"], dtype=float),
        x_edges=np.array(cw["x_edges"], dtype=float),
        w_edges=np.array(cw["w_edges"], dtype=float),
    )
    cop = doc["copula"]
    spec = CopulaSpec(family=cop["family"], rho=float(cop["rho"]),
                      theta=float(cop["theta"]), df=float(cop["df"]),
                      fitted_from=dict(cop.get("fitted_from") or {}))
    return TripletKernel(
        kernel_j=kj, kernel_v=kv, cond_wait=cond, copula=spec,
        signs=SignModel(p_j=float(doc["signs"]["p_j"]),
                        p_v=float(doc["signs"]["p_v"])),
        inverse_j=_inverse_from_dict(doc.get("inverse_j"), kj.grid),
        inverse_v=_inverse_from_dict(doc.get("inverse_v"), kv.grid),
    )


def save_model(tk: TripletKernel, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(triplet_to_dict(tk)))


def load_model(path) -> TripletKernel:
    """Read a triplet model file. A file that is not a JSON object or not a
    triplet document, lacks a field or holds one of the wrong type raises
    :class:`ParseError`; tables whose shapes or index edges disagree raise
    the constructors' errors."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a model document")
    try:
        return triplet_from_dict(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: model file lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model field: {exc}") from exc
