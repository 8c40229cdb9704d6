"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``perfbench/README.md`` for the workloads, metrics and checks.  This
package must stay importable without numpy: ``perfbench.env`` pins the
BLAS thread count before numpy is first imported.
"""
