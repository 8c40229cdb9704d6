"""Seeded clock-net-over-grid layouts, one per benchmark operation.

Operation ``index`` of a run with seed ``seed`` draws its parameters from
``numpy.random.default_rng([seed, index])``, so the same seed gives the
same layouts and every operation is a different layout (extraction runs
cache-cold, as it does for a new design).

The size class of a Table-1 operation -- topology and die -- cycles
with ``index`` through a fixed list (loop sweeps use one class), and the
seed only varies the parameters inside a class: branch count and
length, wire width, driver resistance and load.  The driver edge is
fixed (:data:`RISE_TIME`).  Every run therefore sees the same mix of
sizes in the same order, which keeps the per-operation median steady
across seeds; the seed still changes every extracted matrix and every
simulated delay.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from repro import flows
from repro.loop.extractor import LoopPort

#: Table-1 size classes (topology, die, stripe pitch), cycled by index.
#: Dies start at 500 um: on 400 um dies the PEEC RLC worst delay came
#: within 0.2% of PEEC RC (one H-tree in 48 probed layouts), where the
#: paper's "inductance adds delay" stops being a safe check.
#: Two spines per H-tree: an H-tree case costs about 20% more, and with
#: spines in the majority the per-operation median of any run of eight
#: or more operations falls among spine cases.
TABLE1_CLASSES = (
    ("spine", 500e-6, 70e-6),
    ("spine", 600e-6, 80e-6),
    ("htree", 550e-6, 75e-6),
    ("spine", 550e-6, 75e-6),
    ("spine", 600e-6, 80e-6),
    ("htree", 500e-6, 70e-6),
)

#: Section-5 sweep layouts: three-branch spines of 516-519 filaments
#: on a 300 um die.  With three or four matrix-free operations per run,
#: mixing in H-trees (about 640 filaments, 1.5x the time) or two- and
#: four-branch spines (4 branches: 1.25x) made the figures swing 11-13%
#: between seeds.
LOOP_DIE = 300e-6
LOOP_PITCH = 60e-6

#: The Section-5 sweep grid: 12 points, 10 MHz to 31.6 GHz.
FREQUENCIES = np.logspace(7, 10.5, 12)

#: Axial re-segmentation of the loop extraction (the ``repro bench``
#: value), and the Table-1 transient horizon and step.
MAX_SEGMENT_LENGTH = 120e-6
T_STOP = 1.0e-9
DT = 2e-12

#: Driver input edge, held at the flows' default.  Slower edges on the
#: smaller nets put the PEEC RLC 50% delay below PEEC RC (at 48 ps on
#: one 400 um spine: 4.29 ps vs 4.62 ps), which the Table-1 check rejects.
RISE_TIME = 40e-12


def _um(value: float) -> float:
    """Round a length to 0.1 um so parameters print and compare exactly."""
    return round(value * 1e7) / 1e7


@dataclass(frozen=True)
class CaseParams:
    """Every input of one clock-net case."""

    topology: str
    die: float
    stripe_pitch: float
    num_branches: int
    branch_length: float
    trunk_width: float
    driver_resistance: float
    load_capacitance: float
    rise_time: float = RISE_TIME

    def build(self) -> flows.ClockNetTestCase:
        # Looked up on the module at call time so a traced run sees it.
        return flows.build_clock_testcase(
            die=self.die,
            stripe_pitch=self.stripe_pitch,
            num_branches=self.num_branches,
            branch_length=self.branch_length,
            trunk_width=self.trunk_width,
            topology=self.topology,
            rise_time=self.rise_time,
            driver_resistance=self.driver_resistance,
            load_capacitance=self.load_capacitance,
            t_stop=T_STOP,
            dt=DT,
        )

    def to_json(self) -> dict:
        return asdict(self)


def _draw(rng: np.random.Generator, topology: str, die: float,
          pitch: float, branch_frac: tuple[float, float],
          branches: tuple[int, int] = (2, 4)) -> CaseParams:
    return CaseParams(
        topology=topology,
        die=die,
        stripe_pitch=pitch,
        num_branches=int(rng.integers(branches[0], branches[1] + 1)),
        branch_length=_um(die * rng.uniform(*branch_frac)),
        trunk_width=_um(rng.uniform(3e-6, 5e-6)),
        driver_resistance=round(float(rng.uniform(20.0, 30.0)), 3),
        load_capacitance=round(float(rng.uniform(20e-15, 40e-15)) * 1e18)
        / 1e18,
    )


def table1_params(seed: int, index: int) -> CaseParams:
    """Parameters of Table-1 operation ``index``."""
    topology, die, pitch = TABLE1_CLASSES[index % len(TABLE1_CLASSES)]
    rng = np.random.default_rng([seed, index])
    return _draw(rng, topology, die, pitch, (0.2, 0.3))


def loop_params(seed: int, index: int) -> CaseParams:
    """Parameters of loop-sweep operation ``index`` (both loop workloads)."""
    rng = np.random.default_rng([seed, index])
    return _draw(rng, "spine", LOOP_DIE, LOOP_PITCH, (0.27, 0.4), (3, 3))


def warmup_params() -> CaseParams:
    """A small case, outside every size class, for the untimed warm-up."""
    return CaseParams(
        topology="spine", die=200e-6, stripe_pitch=50e-6, num_branches=2,
        branch_length=60e-6, trunk_width=4e-6, driver_resistance=25.0,
        load_capacitance=30e-15,
    )


def loop_port(case: flows.ClockNetTestCase) -> LoopPort:
    """Driver-to-farthest-sink loop port, shorted to the local ground grid
    at the receiver (the ``repro bench`` sweep port)."""
    layout = case.layout
    driver = case.ports.driver
    far_sink = max(
        case.ports.sinks,
        key=lambda s: math.hypot(s.x - driver.x, s.y - driver.y),
    )
    return LoopPort(
        signal=driver,
        reference=flows._gnd_tap_near(layout, driver.x, driver.y),
        short_signal=far_sink,
        short_reference=flows._gnd_tap_near(layout, far_sink.x, far_sink.y),
    )
