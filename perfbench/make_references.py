"""Regenerate ``references.json``: default-seed outputs of the program.

    python3 perfbench/make_references.py

Stores the first :data:`TABLE1_OPS` Table-1 operations and the first
:data:`LOOP_OPS` dense loop sweeps of the default seed, computed with
BLAS pinned to one thread.  Run it only on a commit whose outputs are
trusted; the benchmark compares later commits against what it writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import env as bench_env  # noqa: E402  (standard library only)

bench_env.pin_threads(1)
bench_env.clear_repro_env()

#: One of each Table-1 size class, and one full cycle of loop classes.
TABLE1_OPS = 6
LOOP_OPS = 4


def _require_clean(problems: list[str], group: str, index: int) -> None:
    if problems:
        raise SystemExit(f"{group} op {index} fails its own check: {problems}")


def main() -> int:
    from repro.resilience.faults import inject_faults

    from perfbench import checks, layouts, workloads

    bench_env.verify_threads(1)
    refs = {"seed": checks.DEFAULT_SEED, "table1": {}, "loop": {}}
    dense = workloads.WORKLOADS["loop_sweep_dense"]
    with inject_faults():
        for index in range(TABLE1_OPS):
            case = layouts.table1_params(checks.DEFAULT_SEED, index).build()
            out = workloads.run_table1(case)
            _require_clean(checks.check_table1(out), "table1", index)
            refs["table1"][str(index)] = out
        for index in range(LOOP_OPS):
            case = layouts.loop_params(checks.DEFAULT_SEED, index).build()
            out = dense.run(case)
            _require_clean(checks.check_loop(out), "loop", index)
            refs["loop"][str(index)] = {
                "filaments": out["filaments"],
                "z": checks.encode_z(out["z"]),
            }
    checks.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
