"""Performance layer: parallel sweeps, extraction caching, benchmarks.

Three independent pieces, all motivated by the ROADMAP's "as fast as the
hardware allows" north star:

* :mod:`repro.perf.parallel` -- the one frequency-sweep engine behind
  loop extraction and AC analysis: the same per-point body run serially
  or on a supervised process pool, with per-worker reuse of the
  assembled MNA system and graceful serial fallback (``REPRO_WORKERS``
  sets the default worker count).
* :mod:`repro.perf.cache` -- content-addressed memoization of the dense
  partial-inductance assembly, in-process (LRU) and optionally on disk
  (``REPRO_CACHE_DIR``), invalidated by any geometry or parameter change.
* :mod:`repro.perf.bench` -- the ``repro bench`` harness: times assembly,
  sparsification, the loop sweep (serial vs parallel), and the transient
  on the Table-1 configuration and emits ``BENCH_<date>.json`` so every
  future change has a regression baseline.  Imported lazily (it pulls in
  the full flow stack).
"""

from repro.perf.cache import (
    LRUCache,
    cache_stats,
    clear_cache,
    fingerprint_layout,
    fingerprint_segments,
    quantize_alpha,
)
from repro.perf.parallel import (
    SweepSpec,
    chunk_indices,
    parallel_sweep,
    solve_points,
    worker_count,
)

__all__ = [
    "LRUCache",
    "cache_stats",
    "clear_cache",
    "fingerprint_layout",
    "fingerprint_segments",
    "quantize_alpha",
    "SweepSpec",
    "chunk_indices",
    "parallel_sweep",
    "solve_points",
    "worker_count",
]
