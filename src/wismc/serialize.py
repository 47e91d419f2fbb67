"""Self-describing JSON documents for triplet models and the two kernels
nested in each.

Floats are written with Python's shortest round-trip representation and the
non-finite grid edges as JSON ``Infinity`` literals, so load(save(x)) is
bit-exact. Every document carries a ``format`` tag and ``version`` field.
Triplet documents are version 2: each empirical inverse is stored as runs of
equal bits, one ``values`` and one ``counts`` list per state. Version 1 held
the raw ``samples`` instead and is still read. Kernel documents are version 1.

A table is its counts. Each document also holds copies derived from them for
readers: every table's ``pmf``, each kernel's ``t_max`` and the waiting-time
table's ``x_edges``/``w_edges`` (the kernels' index edges). The loader derives
them again and checks each copy against them (see :func:`load_model`).
"""
from __future__ import annotations

import json
import math

import numpy as np

from .copulas import CopulaSpec
from .core import IndexedKernel, StateGrid
from .errors import ContractViolation, ParameterError, ParseError
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
KERNEL_VERSION = 1
TRIPLET_VERSION = 2
# numbers of a flat list formatted into one piece
LIST_SLICE = 4096


def _flat(obj) -> bool:
    """Is ``obj`` a list of plain ints or of finite plain floats, or a
    one-dimensional array of integers or of finite floats?"""
    if isinstance(obj, np.ndarray):
        return obj.ndim == 1 and (obj.dtype.kind in "iu" or obj.dtype.kind == "f"
                                  and bool(np.isfinite(obj).all()))
    kinds = set(map(type, obj))
    return kinds == {int} or (kinds == {float} and all(map(math.isfinite, obj)))


def _pieces(obj, depth: int = 0):
    """The text of ``json.dumps(obj, sort_keys=True, indent=1)`` in pieces,
    for ``obj`` nested at ``depth``, a numpy array written as its
    ``tolist()``. A flat list or array (see :func:`_flat`) is formatted
    ``LIST_SLICE`` numbers to a piece, so the text of a long one is never
    held whole; every other scalar is encoded by ``json`` itself. Dict keys
    must be strings."""
    if isinstance(obj, np.ndarray) and not _flat(obj):
        obj = obj.tolist()
    if not isinstance(obj, (dict, list, tuple, np.ndarray)):
        yield json.dumps(obj)
        return
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if not len(obj):
        yield opening + closing
        return
    pad = "\n" + " " * (depth + 1)
    if isinstance(obj, dict):
        for k, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield (opening if k == 0 else ",") + pad + json.dumps(key) + ": "
            yield from _pieces(value, depth + 1)
    else:
        if _flat(obj):
            sep = "," + pad
            for k in range(0, len(obj), LIST_SLICE):
                part = obj[k:k + LIST_SLICE]
                if isinstance(part, np.ndarray):
                    part = part.tolist()
                yield (sep if k else opening + pad) + sep.join(map(repr, part))
        else:
            for k, value in enumerate(obj):
                yield (opening if k == 0 else ",") + pad
                yield from _pieces(value, depth + 1)
    yield "\n" + " " * depth + closing


def dumps(doc: dict) -> str:
    """``doc`` as ``json.dumps(doc, sort_keys=True, indent=1)`` writes it,
    a numpy array as its ``tolist()``."""
    return "".join(_pieces(doc))


def kernel_to_dict(k: IndexedKernel) -> dict:
    return {
        "format": KERNEL_FORMAT,
        "version": KERNEL_VERSION,
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


def _check_pmf(table, stored, name: str) -> None:
    """The stored copy of a table's pmf must be the one its counts give."""
    stored = np.array(stored, dtype=float)
    if stored.shape != table.pmf.shape:
        raise ParameterError(f"{name} pmf shape {stored.shape} does not match "
                             f"its counts' {table.pmf.shape}")
    if stored.tobytes() != table.pmf.tobytes():
        raise ParseError(f"{name} pmf is not its counts normalized")


def _counts(stored, name: str) -> np.ndarray:
    """A table's stored counts, which must all be integers and non-negative."""
    counts = np.array(stored)
    if not (counts.dtype.kind == "i" or counts.size == 0) or (counts < 0).any():
        raise ParseError(f"{name} holds a count that is negative or not an integer")
    return counts.astype(np.int64)


def _version(doc: dict, known: tuple, name: str) -> int:
    """The document's version, which must be an integer in ``known``."""
    version = doc.get("version")
    if type(version) is not int or version not in known:
        raise ParseError(f"{name} version {version!r} is not one of {known}")
    return version


def kernel_from_dict(doc: dict, name: str = "kernel") -> IndexedKernel:
    if doc.get("format") != KERNEL_FORMAT:
        raise ParseError(f"not a kernel document: {doc.get('format')!r}")
    _version(doc, (KERNEL_VERSION,), name)
    grid = StateGrid(edges=np.array(doc["grid"]["edges"], dtype=float),
                     representatives=np.array(doc["grid"]["representatives"], dtype=float))
    kernel = IndexedKernel(
        grid=grid,
        lam=float(doc["lambda"]),
        index_edges=np.array(doc["index_edges"], dtype=float),
        counts=_counts(doc["counts"], name),
    )
    if int(doc["t_max"]) != kernel.t_max:
        raise ParameterError(f"{name} t_max {doc['t_max']} does not match "
                             f"its counts' {kernel.t_max}")
    _check_pmf(kernel, doc["pmf"], name)
    return kernel


def _inverse_to_dict(inv) -> dict | None:
    """Each state's sorted samples as runs of equal bits, so that ``-0.0``
    and ``0.0`` stay apart: per state an array of values and one of counts,
    which hold a quarter of what lists of Python numbers would."""
    if inv is None:
        return None
    values, counts = [], []
    for s in inv.samples:
        bits = s.view(np.int64)
        starts = np.flatnonzero(np.r_[s.size > 0, bits[1:] != bits[:-1]])
        values.append(s[starts])
        counts.append(np.diff(np.r_[starts, s.size]))
    return {"values": values, "counts": counts}


def _runs(values, counts, name: str) -> np.ndarray:
    """The sample that one state's runs stand for. ``counts`` must hold one
    integer of at least 1 per value, and adjacent values must differ in bits."""
    values, counts = np.array(values, dtype=float), np.array(counts)
    if not (values.ndim == counts.ndim == 1 and values.size == counts.size
            and (counts.dtype.kind == "i" or counts.size == 0) and (counts >= 1).all()
            and (values[1:].view(np.int64) != values[:-1].view(np.int64)).all()):
        raise ParseError(f"{name} runs: need per state one count of 1 or more per value, "
                         "and adjacent values that differ")
    return np.repeat(values, counts.astype(np.int64))


def _inverse_from_dict(doc, grid: StateGrid, name: str, version: int):
    """Samples as ``EmpiricalInverse.from_data`` leaves them: one list per
    grid state, each finite, ascending and inside its state's bin. Version 1
    stores them as they are, version 2 as runs (see :func:`_runs`)."""
    if doc is None:
        return None
    if version == 1:
        samples = [np.array(s, dtype=float) for s in doc["samples"]]
    elif len(doc["values"]) != len(doc["counts"]):
        raise ParseError(f"{name} runs: need as many count lists as value lists")
    else:
        samples = [_runs(v, c, name) for v, c in zip(doc["values"], doc["counts"])]
    if len(samples) != grid.n_states or not all(
            s.ndim == 1 and np.isfinite(s).all() and (np.diff(s) >= 0).all()
            and (grid.state_of(s) == k).all() for k, s in enumerate(samples)):
        raise ParseError(f"{name} samples: need one ascending finite list per state, in its bin")
    return EmpiricalInverse(samples=samples, grid=grid)


def triplet_to_dict(tk: TripletKernel) -> dict:
    """The model document. Every table is nested lists, but the inverses'
    runs are numpy arrays, which :func:`dumps` writes as their lists."""
    return {
        "format": TRIPLET_FORMAT,
        "version": TRIPLET_VERSION,
        "kernel_j": kernel_to_dict(tk.kernel_j),
        "kernel_v": kernel_to_dict(tk.kernel_v),
        "cond_wait": {
            "counts": tk.cond_wait.counts.tolist(),
            "pmf": tk.cond_wait.pmf.tolist(),
            "x_edges": tk.kernel_j.index_edges.tolist(),
            "w_edges": tk.kernel_v.index_edges.tolist(),
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
    version = _version(doc, (1, TRIPLET_VERSION), "model")
    kj = kernel_from_dict(doc["kernel_j"], "kernel_j")
    kv = kernel_from_dict(doc["kernel_v"], "kernel_v")
    cw = doc["cond_wait"]
    cond = CondWaitDist(counts=_counts(cw["counts"], "cond_wait"))
    _check_pmf(cond, cw["pmf"], "cond_wait")
    if not (np.array_equal(np.array(cw["x_edges"], dtype=float), kj.index_edges)
            and np.array_equal(np.array(cw["w_edges"], dtype=float), kv.index_edges)):
        raise ContractViolation("the waiting-time table's index edges differ "
                                "from the kernels' index edges")
    cop = doc["copula"]
    spec = CopulaSpec(family=cop["family"], rho=float(cop["rho"]),
                      theta=float(cop["theta"]), df=float(cop["df"]),
                      fitted_from=dict(cop.get("fitted_from") or {}))
    return TripletKernel(
        kernel_j=kj, kernel_v=kv, cond_wait=cond, copula=spec,
        signs=SignModel(p_j=float(doc["signs"]["p_j"]),
                        p_v=float(doc["signs"]["p_v"])),
        inverse_j=_inverse_from_dict(doc.get("inverse_j"), kj.grid, "inverse_j", version),
        inverse_v=_inverse_from_dict(doc.get("inverse_v"), kv.grid, "inverse_v", version),
    )


def save_model(tk: TripletKernel, path) -> None:
    """Write ``dumps(triplet_to_dict(tk))`` to ``path``, never holding the
    text of a whole list."""
    with open(path, "w") as fh:
        fh.writelines(_pieces(triplet_to_dict(tk)))


def load_model(path) -> TripletKernel:
    """Read a triplet model file. A file that is not UTF-8 JSON, not a JSON
    object or not a triplet document of version 1 or 2 (with kernels of
    version 1), lacks a field, holds one of the wrong type, a negative
    count, a pmf other than its counts normalized or inverse samples that
    ``EmpiricalInverse.from_data`` would not give raises
    :class:`ParseError`; tables whose shapes, ``t_max`` or index edges
    disagree raise :class:`ParameterError` or :class:`ContractViolation`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a model document")
    try:
        return triplet_from_dict(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: model file lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model field: {exc}") from exc
