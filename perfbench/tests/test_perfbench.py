"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from perfbench import checks, layouts, tracer
from repro.obs.trace import Trace, span, tracing


def _geometry(case) -> list[tuple]:
    return [(s.net, s.layer, s.origin, s.length, s.width, s.thickness)
            for s in case.layout.segments]


@pytest.mark.parametrize("params", [layouts.table1_params,
                                    layouts.loop_params])
def test_layouts_are_deterministic_per_seed(params):
    assert params(7, 3) == params(7, 3)
    assert _geometry(params(7, 3).build()) == _geometry(params(7, 3).build())
    assert params(7, 3) != params(8, 3)
    assert params(7, 3) != params(7, 3 + len(layouts.TABLE1_CLASSES))


def test_size_class_cycles_with_index():
    n = len(layouts.TABLE1_CLASSES)
    for index in range(n):
        a, b = layouts.table1_params(1, index), layouts.table1_params(
            2, index + n)
        assert (a.topology, a.die) == (b.topology, b.die)


def _loop_ref() -> tuple[dict, dict]:
    ref = checks.load_references()["loop"]["0"]
    out = {"filaments": ref["filaments"], "z": checks.decode_z(ref["z"])}
    return out, ref


def test_reference_passes_its_own_check():
    out, ref = _loop_ref()
    assert checks.check_loop(out, ref) == []
    table = checks.load_references()["table1"]["0"]
    assert checks.check_table1(copy.deepcopy(table), table) == []


def test_dense_z_perturbed_by_1e_6_fails():
    out, ref = _loop_ref()
    out["z"] = out["z"] * (1.0 + 1e-6)
    problems = checks.check_loop(out, ref)
    assert problems and "dense Z" in problems[0]


def test_delay_perturbed_by_1e_6_fails():
    table = checks.load_references()["table1"]["0"]
    out = copy.deepcopy(table)
    out["rows"]["peec_rlc"]["worst_delay"] *= 1.0 + 1e-6
    assert checks.check_table1(out, table)


def test_operator_sweep_is_held_to_the_dense_sweep():
    dense, ref = _loop_ref()
    op = {"filaments": dense["filaments"], "z": dense["z"] * (1 + 1e-5)}
    clean = {"hierarchical.to_dense_calls": 0, "solver.krylov_fallbacks": 0}
    assert checks.check_loop(op, ref, dense, clean) == []
    op["z"] = dense["z"] * (1 + 1e-3)
    assert checks.check_loop(op, ref, dense, clean)
    op["z"] = dense["z"]
    assert checks.check_loop(op, ref, dense,
                             {**clean, "solver.krylov_fallbacks": 1})


def test_loop_invariants():
    out, _ = _loop_ref()
    assert checks.loop_invariants(out["z"], "z") == []
    flat_r = out["z"].copy()
    flat_r[-1] = complex(flat_r[-2].real * 0.999, flat_r[-1].imag)
    assert "R(f) decreases" in checks.loop_invariants(flat_r, "z")[0]
    rising_l = out["z"].copy()
    rising_l[-1] = complex(rising_l[-1].real, rising_l[-1].imag * 2)
    assert "L(f) increases" in checks.loop_invariants(rising_l, "z")[0]
    assert checks.loop_invariants(out["z"] * np.nan, "z")


def test_table1_shape_checks():
    table = copy.deepcopy(checks.load_references()["table1"]["0"])
    rows = table["rows"]
    rows["peec_rlc"]["worst_delay"] = rows["peec_rc"]["worst_delay"]
    rows["loop_rlc"]["stats"]["mutuals"] = 3
    rows["peec_rlc_rom"]["kind"] = "peec_rlc"
    assert len(checks.check_table1(table)) == 3


def _rec(id_, parent, name, start, end, worker=False):
    return {"id": id_, "parent": parent, "name": name,
            "start": None if worker else start,
            "end": None if worker else end,
            "duration": end - start, "worker": worker, "attrs": {}}


def test_self_time_subtracts_the_union_of_child_layers():
    records = [
        _rec(0, None, "bench.loop.sweep", 0.0, 10.0),
        _rec(1, 0, "bench.mna.build", 1.0, 3.0),
        # A transparent program span: its layer children count for id 0.
        _rec(2, 0, "sweep.solve", 4.0, 9.0),
        _rec(3, 2, "bench.linalg.solve", 5.0, 6.0),
        _rec(4, 2, "bench.linalg.solve", 5.5, 7.0),
        # Outside the parent's interval: only the overlap is covered.
        _rec(5, 0, "bench.operator.far_lowrank", 9.5, 11.0),
        # Ran in a pool worker while the parent waited: not subtracted.
        _rec(6, 0, "bench.pool.sweep", 0.0, 100.0, worker=True),
        _rec(7, 6, "sweep.chunk", 0.0, 60.0, worker=True),
        _rec(8, 7, "bench.linalg.solve", 0.0, 20.0, worker=True),
        _rec(9, 7, "bench.linalg.solve", 0.0, 30.0, worker=True),
    ]
    selfs = tracer.layer_self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 2.0 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[6] == pytest.approx(100.0 - 50.0)
    assert 2 not in selfs and 7 not in selfs
    totals = tracer.layer_totals(records)
    assert totals["linalg.solve"]["calls"] == 4
    assert totals["linalg.solve"]["self_s"] == pytest.approx(52.5)


def test_records_from_a_live_trace():
    with tracing(Trace()) as trace:
        with span("bench.table1.peec_rc"):
            with span("flow.peec"):
                with span("bench.transient.solve"):
                    pass
    records = tracer.to_records(trace)
    assert [r["parent"] for r in records] == [None, 0, 1]
    selfs = tracer.layer_self_times(records)
    assert selfs[0] == pytest.approx(
        records[0]["duration"] - records[2]["duration"])
    assert not any(r["worker"] for r in records)


def test_instrumented_restores_every_patch():
    from repro import flows
    from repro.circuit.linalg import ResilientFactorization

    before = (flows.transient_analysis, ResilientFactorization.solve)
    with tracer.instrumented():
        assert flows.transient_analysis is not before[0]
        assert ResilientFactorization.solve is not before[1]
    assert (flows.transient_analysis, ResilientFactorization.solve) == before


def test_metric_tables_match_benchmark_json():
    import json
    from pathlib import Path

    from perfbench import run

    spec = json.loads(
        (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
