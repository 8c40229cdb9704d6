"""Batch scheduler: shard scenario evaluations across a process pool.

Scenarios are scheduled in contiguous index chunks
(:func:`~repro.perf.parallel.chunk_indices`), several per worker, and a
pooled run goes through the package's one pool adapter,
:func:`repro.resilience.supervisor.supervised_map` -- the same one the
frequency-sweep engine uses:

* the scenario list ships to each worker once; each shard runs under a
  private trace whose spans and metrics the parent grafts and merges;
* records land in the result list **by index**, so a sharded sweep is
  bit-identical to the serial one regardless of worker count or
  completion order;
* shards get wall-clock deadlines, hung or killed workers are replaced,
  poison scenarios are bisected out and quarantined as
  ``status: "quarantined"`` records, and a pool that cannot be created
  (sandbox, fd exhaustion, an injected ``"sweep.pool"`` fault) degrades
  to the serial path as a recorded downgrade;
* every completed record is persisted to the
  :class:`~repro.scenarios.store.ResultStore` as it lands (per-scenario
  checkpointing), and on the next run stored records are resumed instead
  of recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.report import RunReport
from repro.resilience.supervisor import SupervisorConfig, supervised_map
from repro.perf.parallel import chunk_indices, worker_count
from repro.scenarios.runner import evaluate_scenario, quarantined_record
from repro.scenarios.spec import Scenario, SweepSpec
from repro.scenarios.store import ResultStore


@dataclass
class SweepResult:
    """Outcome of one sweep batch.

    Attributes:
        records: One record per scenario, in grid-expansion order.
        report: Batch-level resilience log (pool downgrades, resumes,
            supervision events).
        resumed: Scenarios served from the result store.
        computed: Scenarios evaluated this run.
    """

    records: list[dict]
    report: RunReport = field(default_factory=RunReport)
    resumed: int = 0
    computed: int = 0

    @property
    def ok(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] == "failed")

    @property
    def quarantined(self) -> int:
        return sum(
            1 for r in self.records if r["status"] == "quarantined"
        )


def _run_chunk(
    scenarios: list[Scenario], key: int, idx: np.ndarray
) -> list[dict]:
    """Evaluate one shard (in a pool worker or in-process)."""
    with span("sweep.shard", shard=key, scenarios=len(idx)):
        return [evaluate_scenario(scenarios[i]) for i in idx]


def run_sweep(
    spec: SweepSpec | list[Scenario],
    store: ResultStore | None = None,
    workers: int | None = None,
    resume: bool = True,
    chunk: int | None = None,
    report: RunReport | None = None,
    config: SupervisorConfig | None = None,
) -> SweepResult:
    """Run a scenario sweep, sharded over a process pool.

    Args:
        spec: A sweep spec (expanded in deterministic order) or an
            explicit scenario list.
        store: Optional result store; completed records are persisted as
            they land and (with ``resume``) served back on the next run.
        workers: Pool width (:func:`repro.perf.parallel.worker_count`
            resolution: argument, then ``REPRO_WORKERS``, then CPU
            count); 1 forces the serial path.
        resume: Serve scenarios already in ``store`` instead of
            recomputing them.
        chunk: Scenarios per shard; default auto
            (:func:`~repro.perf.parallel.chunk_indices`).
        report: Batch-level run report to append to; default fresh.
        config: Supervision knobs (deadlines, time budget, restart
            budget, worker rlimit); default
            :meth:`SupervisorConfig.from_env`.

    Returns:
        The :class:`SweepResult`; ``records`` is ordered like the
        expanded grid and is identical for any worker count.
    """
    scenarios = spec.expand() if isinstance(spec, SweepSpec) else list(spec)
    name = spec.name if isinstance(spec, SweepSpec) else "scenarios"
    report = report if report is not None else RunReport()
    records: list[dict | None] = [None] * len(scenarios)

    with span("sweep.scenarios", batch=name, scenarios=len(scenarios)):
        resumed = 0
        if store is not None and resume:
            done_ids = store.completed()
            for i, sc in enumerate(scenarios):
                sid = sc.scenario_id
                if sid not in done_ids:
                    continue
                record = store.load(sid)
                if record is None:
                    continue  # corrupt record: recompute
                records[i] = record
                resumed += 1
            if resumed:
                obs_metrics.counter("sweep.scenarios.resumed").inc(resumed)
                report.record_resume(
                    "sweep",
                    f"{resumed}/{len(scenarios)} scenarios already in "
                    f"{store.directory}",
                )

        todo = np.array(
            [i for i, r in enumerate(records) if r is None], dtype=int
        )
        num_workers = worker_count(workers)
        chunks = chunk_indices(todo, num_workers, chunk)
        obs_metrics.counter("sweep.shards").inc(len(chunks))

        def finish(idx: np.ndarray, recs: list[dict]) -> None:
            for i, record in zip(idx, recs):
                records[i] = record
                if store is not None:
                    store.store(record)

        def quarantine(point: int, reason: str) -> None:
            # A poison scenario becomes a degraded record -- stored and
            # aggregated like any other, never a batch abort.
            finish(
                np.array([point], dtype=int),
                [quarantined_record(scenarios[point], reason)],
            )

        if num_workers == 1 or todo.size <= 1 or not supervised_map(
            chunks, _run_chunk, finish, state=scenarios,
            serial=lambda idx: finish(idx, _run_chunk(scenarios, 0, idx)),
            quarantine=quarantine, workers=num_workers, stage="sweep",
            metric_prefix="sweep", config=config, report=report,
        ):
            for cid, idx in enumerate(chunks):
                finish(idx, _run_chunk(scenarios, cid, idx))

    return SweepResult(
        records=records,  # type: ignore[arg-type]  # all filled above
        report=report,
        resumed=resumed,
        computed=int(todo.size),
    )


__all__ = ["SweepResult", "run_sweep"]
