"""Per-layer spans for the traced run, and their self-time arithmetic.

The traced run wraps public functions of each pipeline layer in a
``bench.<layer>`` span (:func:`instrumented`), adds the program's own
``loop.build``/``loop.sweep`` spans, and collects everything in memory
through :mod:`repro.obs.trace`.  :func:`to_records` flattens the tree to
``{id, parent, name, start, end, worker}`` records and
:func:`layer_self_times` gives each layer span its self time: its
duration minus the part of its interval that its child layer spans
cover.  Program spans that are not layers are transparent: their time
belongs to the layer around them.

Spans that a pool worker recorded reach the parent through
``repro.obs.trace.graft_spans``, which carries durations but not start
times.  They ran in another process, so they never reduce the self
time of a parent-process span (the parent was waiting for them); inside
a worker, where spans run one after another, a span's self time is its
duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.trace import Span, Trace, span

#: Prefix of the spans the benchmark itself opens.
PREFIX = "bench."

#: Spans the program already opens that are layers in their own right.
PROGRAM_LAYERS = ("loop.build", "loop.sweep")


def _exact_only(kwargs: dict) -> bool:
    return kwargs.get("assembly", "exact") == "exact"


def _max_rank(sp: Span, result) -> None:
    sp.attrs["max_rank"] = int(result.stats()["max_rank"])


def _far_rank(sp: Span, result) -> None:
    sp.attrs["rank"] = int(result[0].shape[1])


#: (module, attribute, layer, annotate, when): the public functions and
#: methods a traced run wraps.  ``annotate(span, result)`` copies a size
#: off the result; ``when(kwargs)`` limits the span to some calls.
WRAPPED: tuple = (
    ("repro.flows", "build_clock_testcase", "geometry.build", None, None),
    ("repro.extraction.partial_matrix", "extract_partial_inductance",
     "extraction.exact", None, _exact_only),
    ("repro.extraction.hierarchical", "build_hierarchical_operator",
     "extraction.hier", _max_rank, None),
    ("repro.peec.model", "build_peec_model", "peec.build", None, None),
    ("repro.sparsify.base", "traced_apply", "sparsify.apply", None, None),
    ("repro.mor.combined", "combined_reduction", "mor.reduce", None, None),
    ("repro.circuit.transient", "transient_analysis", "transient.solve",
     None, None),
    ("repro.circuit.mna", "MNASystem.build_matrices", "mna.build", None,
     None),
    ("repro.circuit.linalg", "ResilientFactorization.solve", "linalg.solve",
     None, None),
    ("repro.circuit.operator", "OperatorStampedMatrix.far_lowrank",
     "operator.far_lowrank", _far_rank, None),
    ("repro.perf.parallel", "parallel_sweep", "pool.sweep", None, None),
)


def _wrap(fn: Callable, layer: str, annotate, when) -> Callable:
    name = PREFIX + layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(kwargs):
            return fn(*args, **kwargs)
        with span(name) as sp:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(sp, result)
            return result

    return wrapper


@contextmanager
def instrumented() -> Iterator[None]:
    """Wrap every :data:`WRAPPED` layer for the block, then restore.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it by name; a method is replaced on its class, which pool
    workers forked inside the block inherit.
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, layer, annotate, when in WRAPPED:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                patches.append((owner, leaf, original))
                setattr(owner, leaf, _wrap(original, layer, annotate, when))
                continue
            original = getattr(module, leaf)
            wrapper = _wrap(original, layer, annotate, when)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    getattr(mod, leaf, None) is original
                ):
                    patches.append((mod, leaf, original))
                    setattr(mod, leaf, wrapper)
        yield
    finally:
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)


def layer_of(name: str) -> str | None:
    """The layer a span belongs to, or None for a transparent span."""
    if name.startswith(PREFIX):
        return name[len(PREFIX):]
    return name if name in PROGRAM_LAYERS else None


def to_records(trace: Trace) -> list[dict]:
    """Flatten a span forest to ``{id, parent, name, start, end, duration,
    worker, attrs}`` records, parents before children.

    ``start``/``end`` are ``perf_counter`` seconds, or None for a span
    grafted from a pool worker (``worker`` is True for it and for its
    whole subtree).
    """
    out: list[dict] = []

    def visit(sp: Span, parent: int | None, worker: bool) -> None:
        # Span.from_dict leaves start at 0.0: that marks a grafted span.
        worker = worker or sp.start == 0.0
        duration = sp.duration or 0.0
        rec = {
            "id": len(out),
            "parent": parent,
            "name": sp.name,
            "start": None if worker else sp.start,
            "end": None if worker else sp.start + duration,
            "duration": duration,
            "worker": worker,
            "attrs": dict(sp.attrs),
        }
        out.append(rec)
        for child in sp.children:
            visit(child, rec["id"], worker)

    for root in trace.roots:
        visit(root, None, False)
    return out


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_self_times(records: list[dict]) -> dict[int, float]:
    """Self time of every layer record, by record id.

    A layer record's children are the nearest layer records below it
    (transparent spans in between are skipped).
    """
    by_id = {rec["id"]: rec for rec in records}
    children: dict[int, list[dict]] = {}
    for rec in records:
        if layer_of(rec["name"]) is None:
            continue
        parent = rec["parent"]
        while parent is not None and layer_of(by_id[parent]["name"]) is None:
            parent = by_id[parent]["parent"]
        if parent is not None:
            children.setdefault(parent, []).append(rec)
    out = {}
    for rec in records:
        if layer_of(rec["name"]) is None:
            continue
        kids = [c for c in children.get(rec["id"], ())
                if c["worker"] == rec["worker"]]
        if rec["worker"]:
            covered = sum(c["duration"] for c in kids)
        else:
            covered = _covered(rec["start"], rec["end"],
                               [(c["start"], c["end"]) for c in kids])
        out[rec["id"]] = rec["duration"] - covered
    return out


def layer_totals(records: list[dict]) -> dict[str, dict[str, float]]:
    """``{layer: {calls, self_s, total_s}}`` summed over the records."""
    selfs = layer_self_times(records)
    out: dict[str, dict[str, float]] = {}
    for rec in records:
        layer = layer_of(rec["name"])
        if layer is None:
            continue
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[rec["id"]]
        row["total_s"] += rec["duration"]
    return out


def format_table(totals: dict[str, dict[str, float]], ops: int) -> str:
    """Per-layer self-time table, per operation, largest self time first."""
    lines = [f"{'layer':<28}{'calls/op':>10}{'self s/op':>12}"
             f"{'total s/op':>12}"]
    for layer, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{layer:<28}{row['calls'] / ops:>10.1f}"
                     f"{row['self_s'] / ops:>12.4f}"
                     f"{row['total_s'] / ops:>12.4f}")
    return "\n".join(lines)
