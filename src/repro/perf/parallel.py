"""The frequency-sweep engine: ``(G + j omega C) x = b`` over a grid.

Every sweep in the package -- :func:`repro.circuit.ac.ac_analysis`,
:func:`repro.circuit.ac.ac_impedance` and the Section-5 loop extraction
in :mod:`repro.loop.extractor` -- builds its matrices and right-hand
side into a :class:`SweepSpec` and calls :func:`parallel_sweep` once.
The engine owns the rest:

* **one per-point body** (:func:`solve_points`): assemble
  ``G + j omega C`` from the union pattern / operator system built once
  per spec, solve it through the escalation chain, and retry
  ``"raise"`` faults at the spec's retry site ``policy.max_retries``
  times before they propagate;
* **the serial-vs-pool decision**: a pool runs when more than one worker
  resolves (``workers=``, else ``REPRO_WORKERS``, else the CPU count),
  more than one point is left, and the count was asked for explicitly or
  the system has at least :data:`MIN_PARALLEL_SIZE` unknowns;
* **serially**, contiguous chunks of points run in-process through the
  same body, and each point's row, retry notes and ``on_chunk`` call
  land as that point finishes, so an emergency checkpoint sees every
  solved point;
* **pooled**, the chunks run through the package's one pool adapter,
  :func:`repro.resilience.supervisor.supervised_map`: the spec ships to
  each worker once, chunks get deadlines, hung or killed workers are
  replaced, poison points are quarantined as NaN rows, and a pool that
  cannot be created degrades to the serial path as a recorded
  downgrade (see ``SupervisorConfig`` for the knobs).

Rows land in the output array **by index**, so a sweep is bit-identical
for every worker count, chunk size and completion order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.circuit.linalg import (
    ResilientFactorization, SingularCircuitError, SweepAssembler,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience import faults
from repro.resilience.faults import InjectedFault
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import RunReport
from repro.resilience.supervisor import SupervisorConfig, supervised_map

#: Target chunks handed out per worker; >1 so stragglers rebalance.
OVERSUBSCRIBE = 4

#: Below this many MNA unknowns, fork + pickle overhead beats the solves;
#: implicit (CPU-count) parallelism stays serial for smaller systems.
MIN_PARALLEL_SIZE = 200


def explicit_workers(requested: int | None = None) -> bool:
    """True when a worker count was asked for (arg or ``REPRO_WORKERS``).

    An explicit request always wins; only the implicit CPU-count default
    is subject to the :data:`MIN_PARALLEL_SIZE` worth-it heuristic.  A
    present-but-invalid ``REPRO_WORKERS`` raises here, at the gate,
    rather than as a raw ``int()`` crash from deep inside a sweep.
    """
    if requested is not None:
        return True
    if not os.environ.get("REPRO_WORKERS", "").strip():
        return False
    worker_count(None)  # validates REPRO_WORKERS with a clear error
    return True


def worker_count(requested: int | None = None) -> int:
    """Resolve the sweep worker count.

    Precedence: explicit argument, then ``REPRO_WORKERS``, then the CPU
    count.  A count of 1 means "stay serial" (no pool is created).
    Invalid or non-positive requests raise :class:`ValueError` naming
    the offending value and where it came from.
    """
    if requested is not None:
        try:
            count = int(requested)
        except (TypeError, ValueError):
            raise ValueError(
                f"worker count must be an integer, got {requested!r}"
            ) from None
        source = f"workers={requested!r}"
    else:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                count = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {raw!r}"
                ) from None
            source = f"REPRO_WORKERS={raw!r}"
        else:
            count = os.cpu_count() or 1
            source = "cpu count"
    if count < 1:
        raise ValueError(
            f"worker count must be >= 1, got {count} (from {source})"
        )
    return count


def chunk_indices(
    indices: np.ndarray, workers: int, chunk: int | None = None
) -> list[np.ndarray]:
    """Split point indices into contiguous chunks for scheduling.

    The default chunk size gives each worker ~``OVERSUBSCRIBE`` chunks;
    an explicit ``chunk`` overrides it (tests, checkpoint granularity).
    """
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        return []
    if chunk is None:
        chunk = max(1, math.ceil(indices.size / (OVERSUBSCRIBE * workers)))
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return [indices[i:i + chunk] for i in range(0, indices.size, chunk)]


@dataclass
class SweepSpec:
    """Everything a worker needs to solve sweep points (picklable).

    Attributes:
        g_matrix: Conductance matrix (dense ndarray or scipy sparse).
        c_matrix: Susceptance matrix, same format.
        b: Complex right-hand side (the AC stimulus / port injection).
        site: Solve-site name for the escalation chain's reports.
        retry_site: Fault site checked (and retried) once per point, e.g.
            ``"loop.freq"``; None solves without a per-point retry wrap.
        policy: Resilience policy governing retries and escalation.
        port: ``(i_plus, i_minus)`` row indices (-1 = ground) to reduce a
            point to the complex port voltage; None returns full vectors.
    """

    g_matrix: object
    c_matrix: object
    b: np.ndarray
    site: str = "ac"
    retry_site: str | None = None
    policy: ResiliencePolicy = field(default_factory=default_policy)
    port: tuple[int, int] | None = None
    _assembler: SweepAssembler | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def row_size(self) -> int:
        """Output columns per point: 1 (port voltage) or the system size."""
        return 1 if self.port is not None else len(self.b)

    def assembler(self) -> SweepAssembler:
        """The sweep assembler (union pattern / operator wrapper), built
        once per spec copy and reused across that copy's points."""
        if self._assembler is None:
            self._assembler = SweepAssembler(self.g_matrix, self.c_matrix)
        return self._assembler

    def __getstate__(self) -> dict:
        # Ship only the inputs; each worker rebuilds its own assembler
        # (deterministic, so worker results stay bit-identical to serial).
        state = self.__dict__.copy()
        state["_assembler"] = None
        return state


def solve_points(
    spec: SweepSpec, freqs: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Solve the given frequency points in order (the pool worker body).

    Returns ``(rows, retry_notes)`` where ``rows`` has one row per point
    (port-reduced or full solution) and ``retry_notes`` describes every
    per-point retry that was absorbed, for the parent's run report.
    """
    out = np.zeros((len(freqs), spec.row_size), dtype=complex)
    notes: list[str] = []

    def keep(k: int, row: np.ndarray, point_notes: list[str]) -> None:
        out[k] = row
        notes.extend(point_notes)

    _solve_each(spec, freqs, keep)
    return out, notes


def _solve_each(
    spec: SweepSpec,
    freqs: np.ndarray,
    emit: Callable[[int, np.ndarray, list[str]], None],
) -> None:
    """The per-point body: ``emit(k, row, retry_notes)`` as each point
    of ``freqs`` is solved."""
    assembler = spec.assembler()
    with span("sweep.solve", points=len(freqs), site=spec.site):
        for k, f in enumerate(freqs):
            a_matrix = assembler.at_omega(2.0 * np.pi * f)
            notes: list[str] = []
            while True:
                try:
                    if spec.retry_site is not None:
                        faults.maybe_fail(spec.retry_site)
                    x = ResilientFactorization(
                        a_matrix, site=spec.site, policy=spec.policy
                    ).solve(spec.b)
                    break
                except (SingularCircuitError, InjectedFault) as exc:
                    if (spec.retry_site is None
                            or len(notes) >= spec.policy.max_retries):
                        raise
                    notes.append(
                        f"f = {f:.4g} Hz: retry "
                        f"{len(notes) + 1}/{spec.policy.max_retries}: {exc}"
                    )
            if spec.port is not None:
                i_plus, i_minus = spec.port
                vp = x[i_plus] if i_plus >= 0 else 0.0
                vm = x[i_minus] if i_minus >= 0 else 0.0
                x = np.array([vp - vm])
            emit(k, x, notes)


def _solve_chunk(
    state: tuple[SweepSpec, np.ndarray], key: int, idx: np.ndarray
) -> tuple[np.ndarray, list[str]]:
    """Pool worker: solve the points ``idx`` of the shipped sweep."""
    spec, freqs = state
    with span("sweep.chunk", chunk=key, points=len(idx)):
        return solve_points(spec, freqs[idx])


def parallel_sweep(
    spec: SweepSpec,
    freqs: np.ndarray,
    out: np.ndarray,
    indices: np.ndarray | None = None,
    workers: int | None = None,
    chunk: int | None = None,
    report: RunReport | None = None,
    on_chunk: Callable[[np.ndarray], None] | None = None,
    config: SupervisorConfig | None = None,
) -> np.ndarray:
    """Solve sweep points serially or on a pool, filling ``out`` by index.

    Args:
        spec: The assembled system and solve configuration.
        freqs: Full frequency grid [Hz].
        out: Output array to fill in place -- shape ``(len(freqs),)`` for
            port sweeps, ``(len(freqs), size)`` for full sweeps.  Only
            rows in ``indices`` are written.
        indices: Point indices still to solve (checkpoint resume skips
            completed ones); default all.
        workers: Worker count (see :func:`worker_count`); whether a pool
            runs at all is decided here (module docstring).
        chunk: Points per scheduled chunk; default auto.
        report: Run report receiving retry notes, supervision events
            (timeouts, restarts, quarantines) and the downgrade record
            if the pool cannot be created.
        on_chunk: Called with the indices of each batch of rows *after*
            they are stored in ``out`` -- the checkpoint hook.  The
            serial path calls it once per point, the pool once per
            chunk.  Quarantined points pass through it too (their rows
            are NaN), so the checkpoint stream stays complete.
        config: Supervision knobs; default
            :meth:`SupervisorConfig.from_env`.

    Returns:
        ``out``.  If any point fails even after retries, the exception
        propagates after every already-solved point has been stored and
        reported via ``on_chunk`` (so an emergency checkpoint sees every
        finished point).  Process-level failures -- hung or killed
        workers, worker ``MemoryError`` -- do *not* propagate: the
        supervisor reissues the work and, as a last resort, quarantines
        the offending point as a NaN row.
    """
    todo = np.arange(len(freqs)) if indices is None else np.asarray(indices, int)
    num_workers = worker_count(workers)
    pooled = num_workers > 1 and todo.size > 1 and (
        explicit_workers(workers) or len(spec.b) >= MIN_PARALLEL_SIZE
    )
    chunks = chunk_indices(todo, num_workers if pooled else 1, chunk)

    def store(idx: np.ndarray, rows: np.ndarray, notes: list[str]) -> None:
        if report is not None:
            for note in notes:
                report.record_retry(spec.site, note)
        out[idx] = rows[:, 0] if spec.port is not None else rows
        if on_chunk is not None:
            on_chunk(idx)

    def serial(idx: np.ndarray) -> None:
        _solve_each(
            spec, freqs[idx],
            lambda k, row, notes: store(idx[k:k + 1], row[None], notes),
        )

    def quarantine(point: int, reason: str) -> None:
        # A poison point becomes a NaN row -- degraded data, not a sweep
        # abort -- and still reaches the checkpoint stream via on_chunk.
        out[point] = np.nan * (1.0 + 1.0j)
        if on_chunk is not None:
            on_chunk(np.array([point], dtype=int))

    if pooled and supervised_map(
        chunks, _solve_chunk, lambda idx, payload: store(idx, *payload),
        state=(spec, freqs), serial=serial, quarantine=quarantine,
        workers=num_workers, stage="perf", metric_prefix="pool",
        config=config, report=report,
    ):
        obs_metrics.counter("pool.chunks").inc(len(chunks))
        obs_metrics.counter("pool.points").inc(int(todo.size))
        return out
    for idx in chunks:
        serial(idx)
    return out


__all__ = [
    "OVERSUBSCRIBE",
    "MIN_PARALLEL_SIZE",
    "explicit_workers",
    "worker_count",
    "chunk_indices",
    "SweepSpec",
    "solve_points",
    "parallel_sweep",
]
