"""Pool workers ship spans + metrics home; the parent grafts and merges.

The process-pool sweep runs chunks in worker processes whose traces and
registries are invisible to the parent.  :mod:`repro.perf.parallel`
serializes each chunk's span tree and metrics export into the result
tuple; the parent attaches the trees under the supervisor's
``supervisor.run`` span and folds the metrics into the process-wide
registry.  These tests run a real pool (workers > 1) and check both
halves of that contract.
"""

import numpy as np
import pytest

from repro.circuit.ac import ac_impedance
from repro.circuit.netlist import GROUND, Circuit
from repro.loop.extractor import LoopPort, extract_loop_impedance
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing


def rlc_ladder(n=6):
    c = Circuit("ladder")
    prev = "p"
    for k in range(n):
        mid = f"m{k}"
        nxt = f"n{k}"
        c.add_resistor(f"r{k}", prev, mid, 3.0 + k)
        c.add_inductor(f"l{k}", mid, nxt, 1e-9)
        c.add_capacitor(f"c{k}", nxt, GROUND, 0.2e-12)
        prev = nxt
    c.add_resistor("rterm", prev, GROUND, 50.0)
    return c


@pytest.fixture
def clean_registry():
    REGISTRY.reset()
    yield REGISTRY
    REGISTRY.reset()


FREQS = np.logspace(6, 10, 9)


class TestWorkerSpanMerge:
    def test_chunk_spans_graft_under_open_span(self, clean_registry):
        with tracing() as trace:
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=3)
        assert trace.complete

        root = trace.find("circuit.ac.impedance")
        assert root is not None
        sup = root.find("supervisor.run")
        assert sup is not None
        chunks = [c for c in sup.children if c.name == "sweep.chunk"]
        assert len(chunks) >= 2  # genuinely fanned out

        # Chunk spans cover every point exactly once and keep their
        # worker-side measurements, including the nested solve span.
        assert sum(c.attrs["points"] for c in chunks) == FREQS.size
        assert {c.attrs["chunk"] for c in chunks} == \
            set(range(len(chunks)))
        assert all(c.duration is not None and c.duration >= 0.0
                   for c in chunks)
        assert all(c.status == "ok" for c in chunks)
        assert all(c.find("sweep.solve") is not None for c in chunks)

    def test_pool_accounting_lands_in_registry(self, clean_registry):
        ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=3)
        snap = clean_registry.export()
        assert snap["counters"]["pool.points"] == FREQS.size
        assert snap["counters"]["pool.chunks"] >= 2
        assert snap["gauges"]["pool.workers"] >= 2

    @pytest.mark.parametrize("sweep", ["ac_impedance", "loop"])
    def test_serial_sweep_records_no_chunks(
        self, clean_registry, signal_grid_structure, sweep
    ):
        with tracing() as trace:
            if sweep == "ac_impedance":
                ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=1)
                root = "circuit.ac.impedance"
            else:
                layout, ports = signal_grid_structure
                extract_loop_impedance(
                    layout,
                    LoopPort(
                        signal=ports["driver"],
                        reference=ports["gnd_driver"],
                        short_signal=ports["receiver"],
                        short_reference=ports["gnd_receiver"],
                    ),
                    np.logspace(8, 10, 4),
                    max_segment_length=150e-6, workers=1,
                )
                root = "loop.sweep"
        assert trace.complete
        assert trace.find(root) is not None
        assert trace.find(root).find("sweep.solve") is not None
        assert trace.find("sweep.chunk") is None
        assert not any(
            name.startswith("pool.")
            for kind in ("counters", "gauges")
            for name in clean_registry.export()[kind]
        )

    def test_chunk_spans_are_not_double_shipped(self, clean_registry):
        # Persistent workers handle several chunks; each chunk runs under
        # a fresh trace (and resets the worker registry), so the grafted
        # forest must contain every chunk exactly once no matter how
        # chunks land on workers.
        with tracing() as trace:
            ac_impedance(rlc_ladder(), FREQS, ("p", GROUND), workers=2)
        chunks = [s for s in trace.iter_spans() if s.name == "sweep.chunk"]
        ids = [c.attrs["chunk"] for c in chunks]
        assert sorted(ids) == sorted(set(ids))
        assert sum(c.attrs["points"] for c in chunks) == FREQS.size
