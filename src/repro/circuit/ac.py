"""AC (small-signal frequency-domain) analysis.

Solves ``(G + j omega C) x = b_ac`` over a list of frequencies.  This is
the engine behind loop-inductance extraction (Section 5 of the paper): the
loop extractor drives a 1 A AC current into a port and reads the port
voltage as the complex loop impedance, whose real part is R(f) and whose
imaginary part over omega is L(f).

Nonlinear devices are not linearized here; circuits passed to AC analysis
must be purely linear (the extraction netlists are).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.linalg import add_gmin
from repro.obs.trace import span
from repro.resilience.policy import ResiliencePolicy, default_policy
from repro.resilience.report import current_run_report
from repro.circuit.mna import MNASystem
from repro.circuit.netlist import Circuit


@dataclass
class ACResult:
    """Frequency-sweep result.

    Attributes:
        frequencies: Sweep frequencies [Hz].
        x: Complex solution matrix, shape (num_freqs, system size).
        system: The compiled MNA system (for index lookups).
    """

    frequencies: np.ndarray
    x: np.ndarray
    system: MNASystem

    def voltage(self, node: str) -> np.ndarray:
        """Complex node voltage across the sweep."""
        idx = self.system.node_index(node)
        if idx < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.x[:, idx]

    def branch_current(self, name: str) -> np.ndarray:
        """Complex branch current across the sweep."""
        return self.x[:, self.system.branch_index(name)]


def _as_system(circuit_or_system) -> MNASystem:
    if isinstance(circuit_or_system, MNASystem):
        return circuit_or_system
    return MNASystem(circuit_or_system)


def _ac_rhs(system: MNASystem, stimulus: dict[str, complex]) -> np.ndarray:
    """Build the AC source vector from a {source name: amplitude} map."""
    b = np.zeros(system.size, dtype=complex)
    known = set()
    for src in system.circuit.isources:
        known.add(src.name)
        amp = stimulus.get(src.name)
        if amp is None:
            continue
        a = system.node_index(src.n_plus)
        c = system.node_index(src.n_minus)
        if a >= 0:
            b[a] -= amp
        if c >= 0:
            b[c] += amp
    for src in system.circuit.vsources:
        known.add(src.name)
        amp = stimulus.get(src.name)
        if amp is None:
            continue
        b[system.branch_index(src.name)] = -amp
    unknown = set(stimulus) - known
    if unknown:
        raise KeyError(f"AC stimulus names not in circuit: {sorted(unknown)}")
    return b


def ac_analysis(
    circuit_or_system,
    frequencies,
    stimulus: dict[str, complex],
    gmin: float = 0.0,
    policy: ResiliencePolicy | None = None,
    workers: int | None = None,
) -> ACResult:
    """Sweep ``(G + j omega C) x = b_ac`` over ``frequencies``.

    Args:
        circuit_or_system: Linear circuit or prebuilt system.
        frequencies: Iterable of frequencies [Hz] (0 allowed: DC point).
        stimulus: Map of source name -> complex AC amplitude; sources not
            listed are switched off for the small-signal solve.
        gmin: Optional node-diagonal leak for near-singular topologies.
        policy: Resilience policy for the escalation chain; default from
            ``REPRO_RESILIENCE``.
        workers: Process-pool width for the sweep (bit-identical to the
            serial path); default from ``REPRO_WORKERS`` / CPU count, 1
            forces serial.

    Returns:
        The sweep result.
    """
    from repro.perf.parallel import SweepSpec, parallel_sweep

    system = _as_system(circuit_or_system)
    policy = policy or default_policy()
    if system.has_devices:
        raise ValueError(
            "AC analysis requires a linear circuit; linearize or remove the "
            "nonlinear devices first"
        )
    freqs = np.asarray(list(frequencies), dtype=float)
    g_matrix, c_matrix = system.build_matrices()
    spec = SweepSpec(
        g_matrix=add_gmin(g_matrix, system.n, gmin), c_matrix=c_matrix,
        b=_ac_rhs(system, stimulus), site="ac", policy=policy,
    )
    out = np.zeros((len(freqs), system.size), dtype=complex)
    with span("circuit.ac", points=len(freqs), size=system.size):
        parallel_sweep(
            spec, freqs, out, workers=workers, report=current_run_report()
        )
    return ACResult(frequencies=freqs, x=out, system=system)


def impedance_spec(
    system: MNASystem,
    port: tuple[str, str],
    gmin: float,
    policy: ResiliencePolicy,
    site: str = "ac",
    retry_site: str | None = None,
):
    """The :class:`~repro.perf.parallel.SweepSpec` of the driving-point
    impedance into ``port``: a unit AC current injected into ``port[0]``
    and extracted from ``port[1]``, reduced to their voltage difference.
    """
    from repro.perf.parallel import SweepSpec

    g_matrix, c_matrix = system.build_matrices()
    b = np.zeros(system.size, dtype=complex)
    i_plus = system.node_index(port[0])
    i_minus = system.node_index(port[1])
    if i_plus >= 0:
        b[i_plus] += 1.0
    if i_minus >= 0:
        b[i_minus] -= 1.0
    return SweepSpec(
        g_matrix=add_gmin(g_matrix, system.n, gmin), c_matrix=c_matrix, b=b,
        site=site, retry_site=retry_site, policy=policy,
        port=(i_plus, i_minus),
    )


def ac_impedance(
    circuit_or_system,
    frequencies,
    port: tuple[str, str],
    gmin: float = 0.0,
    policy: ResiliencePolicy | None = None,
    workers: int | None = None,
) -> np.ndarray:
    """Complex driving-point impedance Z(f) seen into ``port``.

    A unit AC current is injected into ``port[0]`` and extracted from
    ``port[1]``; the returned impedance is their voltage difference.
    ``workers > 1`` fans the sweep out over a process pool with results
    identical to the serial path.
    """
    from repro.perf.parallel import parallel_sweep

    system = _as_system(circuit_or_system)
    policy = policy or default_policy()
    if system.has_devices:
        raise ValueError("impedance extraction requires a linear circuit")
    freqs = np.asarray(list(frequencies), dtype=float)
    spec = impedance_spec(system, port, gmin, policy)
    z = np.zeros(len(freqs), dtype=complex)
    with span("circuit.ac.impedance", points=len(freqs), size=system.size):
        return parallel_sweep(
            spec, freqs, z, workers=workers, report=current_run_report()
        )
