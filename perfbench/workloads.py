"""The three workloads: what one operation runs and what it returns.

Every operation takes one seeded layout (:mod:`perfbench.layouts`) and
returns plain outputs for :mod:`perfbench.checks`; the caller times it.
Worker counts are always passed explicitly.

* ``table1`` -- one clock-net case through the five Table-1 rows: PEEC
  RC, PEEC RLC with dense mutuals, PEEC RLC with the shell sparsifier,
  PEEC RLC through the combined block-diagonal + PRIMA reduction, and
  LOOP RLC.  The three RLC rows share one partial-L extraction through
  the extraction cache.
* ``loop_sweep_dense`` -- the 12-point Section-5 loop R(f)/L(f) sweep
  with exact assembly and direct LU, fanned out over a two-worker pool.
* ``loop_sweep_operator`` -- the same layouts and frequencies with the
  hierarchical operator and the matrix-free Krylov rung, serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import flows
from repro.loop.extractor import extract_loop_impedance
from repro.obs.trace import span
from repro.sparsify import ShellSparsifier

from perfbench import layouts

#: Pool width of the dense sweep: the two CPUs of the reference host.
DENSE_WORKERS = 2

#: Table-1 rows in run order: (row name, flow call).
TABLE1_ROWS: tuple[tuple[str, Callable], ...] = (
    ("peec_rc", lambda case: flows.run_peec_flow(
        case, include_inductance=False)),
    ("peec_rlc", lambda case: flows.run_peec_flow(case)),
    ("peec_rlc_shell", lambda case: flows.run_peec_flow(
        case, sparsifier=ShellSparsifier())),
    ("peec_rlc_rom", lambda case: flows.run_peec_flow(
        case, use_reduction=True)),
    ("loop_rlc", lambda case: flows.run_loop_flow(case, workers=1)),
)


def run_table1(case: flows.ClockNetTestCase) -> dict:
    """Run the five Table-1 rows on one case."""
    rows = {}
    for name, call in TABLE1_ROWS:
        with span(f"bench.table1.{name}"):
            result = call(case)
        rows[name] = {
            "kind": result.kind,
            "stats": dict(result.stats),
            "worst_delay": float(result.worst_delay),
            "worst_skew": float(result.worst_skew),
            "delays": {k: float(v) for k, v in sorted(result.delays.items())},
        }
    return {"rows": rows}


def run_loop(case: flows.ClockNetTestCase, assembly: str,
             workers: int) -> dict:
    """The 12-point loop impedance sweep on one case."""
    result = extract_loop_impedance(
        case.layout, layouts.loop_port(case), layouts.FREQUENCIES,
        max_segment_length=layouts.MAX_SEGMENT_LENGTH,
        assembly=assembly, workers=workers,
    )
    return {
        "filaments": int(result.num_filaments),
        "z": np.asarray(result.impedance, dtype=complex),
    }


@dataclass(frozen=True)
class Workload:
    """One workload: its layouts, its operation, its pool width."""

    params: Callable[[int, int], layouts.CaseParams]
    run: Callable[[flows.ClockNetTestCase], dict]
    workers: int
    #: Whether the check needs the dense-exact sweep of the same case.
    needs_dense_reference: bool = False


WORKLOADS = {
    "table1": Workload(layouts.table1_params, run_table1, 1),
    "loop_sweep_dense": Workload(
        layouts.loop_params,
        lambda case: run_loop(case, "exact", DENSE_WORKERS), DENSE_WORKERS,
    ),
    "loop_sweep_operator": Workload(
        layouts.loop_params,
        lambda case: run_loop(case, "hierarchical", 1), 1,
        needs_dense_reference=True,
    ),
}


def dense_reference(case: flows.ClockNetTestCase) -> dict:
    """The dense-exact serial sweep the operator path is checked against."""
    return run_loop(case, "exact", 1)
