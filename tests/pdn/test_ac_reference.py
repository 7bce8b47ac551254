"""Stacked AC analysis against the per-frequency reference loop.

``analyze_ac`` stamps each element across a whole vector of angular
frequencies and solves ``(F, n, n)`` stacks of up to ``AC_BLOCK``
frequencies at once.  The oracle below is the scalar formulation: one
MNA matrix stamped element by element and one ``np.linalg.solve`` per
frequency.  The two must agree bit for bit on every platform PDN and
power-gating state, including grids that end exactly on, just before
and just after a block edge.
"""

import functools

import numpy as np
import pytest

from repro.pdn.elements import Capacitor, Inductor, Resistor, VoltageSource
from repro.pdn.impedance import AC_BLOCK, ACAnalysis, analyze_ac
from repro.pdn.models import DIE_NODE
from repro.platforms import registry


def ac_matrix_reference(circuit, omega, layout):
    """One complex MNA matrix at scalar ``omega``, stamped in place."""
    n = layout.size
    a = np.zeros((n, n), dtype=complex)

    def stamp_admittance(na, nb, y):
        ia, ib = layout.node(na), layout.node(nb)
        if ia >= 0:
            a[ia, ia] += y
        if ib >= 0:
            a[ib, ib] += y
        if ia >= 0 and ib >= 0:
            a[ia, ib] -= y
            a[ib, ia] -= y

    for e in circuit.elements:
        if isinstance(e, Resistor):
            stamp_admittance(e.node_a, e.node_b, 1.0 / e.resistance)
        elif isinstance(e, Capacitor):
            stamp_admittance(e.node_a, e.node_b, 1j * omega * e.capacitance)
        elif isinstance(e, (Inductor, VoltageSource)):
            k = layout.branch(e.name)
            ia, ib = layout.node(e.node_a), layout.node(e.node_b)
            if ia >= 0:
                a[ia, k] += 1.0
                a[k, ia] += 1.0
            if ib >= 0:
                a[ib, k] -= 1.0
                a[k, ib] -= 1.0
            if isinstance(e, Inductor):
                a[k, k] -= 1j * omega * e.inductance
    return a


def analyze_ac_reference(circuit, inject_node, frequencies_hz):
    """``analyze_ac`` as one matrix build and one solve per frequency."""
    freqs = np.asarray(frequencies_hz, dtype=float)
    layout = circuit.layout()
    solutions = np.empty((freqs.size, layout.size), dtype=complex)
    rhs = circuit.ac_rhs(layout, {inject_node: 1.0 + 0.0j})
    for i, f in enumerate(freqs):
        a = ac_matrix_reference(circuit, 2.0 * np.pi * f, layout)
        solutions[i] = np.linalg.solve(a, rhs)
    return ACAnalysis(
        frequencies_hz=freqs,
        node_voltages={
            name: solutions[:, idx]
            for name, idx in layout.node_index.items()
        },
        branch_currents={
            name: solutions[:, layout.num_nodes + idx]
            for name, idx in layout.branch_index.items()
        },
    )


@functools.lru_cache(maxsize=None)
def _circuit(platform, powered_cores):
    return registry.make_cluster(platform).pdn.build_circuit(powered_cores)


STATES = [
    (platform, cores)
    for platform in registry.platform_keys()
    for cores in range(
        registry.make_cluster(platform).spec.num_cores, 0, -1
    )
]

SIZES = (1, AC_BLOCK - 1, AC_BLOCK, AC_BLOCK + 1, 2048)


@pytest.mark.parametrize("platform,cores", STATES)
def test_stacked_analysis_is_bit_identical(platform, cores):
    circuit = _circuit(platform, cores)
    for size in SIZES:
        freqs = np.geomspace(1.0, 2.5e9, size)
        got = analyze_ac(circuit, DIE_NODE, freqs)
        want = analyze_ac_reference(circuit, DIE_NODE, freqs)
        assert np.array_equal(got.frequencies_hz, want.frequencies_hz)
        assert got.node_voltages.keys() == want.node_voltages.keys()
        assert got.branch_currents.keys() == want.branch_currents.keys()
        for name, values in want.node_voltages.items():
            assert np.array_equal(got.node_voltages[name], values), (
                f"{platform}/{cores} F={size}: node {name}"
            )
        for name, values in want.branch_currents.items():
            assert np.array_equal(got.branch_currents[name], values), (
                f"{platform}/{cores} F={size}: branch {name}"
            )


@pytest.mark.parametrize("platform,cores", STATES)
def test_scalar_matrix_is_the_one_frequency_stack(platform, cores):
    circuit = _circuit(platform, cores)
    layout = circuit.layout()
    for omega in (0.0, 2.0 * np.pi * 1e8):
        scalar = circuit.ac_matrix(omega, layout)
        assert scalar.shape == (layout.size, layout.size)
        assert np.array_equal(
            scalar, ac_matrix_reference(circuit, omega, layout)
        )
        stacked = circuit.ac_matrix(np.array([omega, omega]), layout)
        assert stacked.shape == (2, layout.size, layout.size)
        assert np.array_equal(stacked[1], scalar)


def _solve_numpy1(solve):
    """``np.linalg.solve`` with NumPy 1.x's choice of vector vs matrix.

    NumPy 1.x treats ``b`` as a stack of vectors only when ``b.ndim ==
    a.ndim - 1``; otherwise ``b`` must be a stack of matrices.  NumPy
    2.0 instead takes any 1-D ``b`` as one vector broadcast over the
    stack, so a call that only works on 2.0 passes there and fails on
    1.x.
    """

    def numpy1_solve(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        if b.ndim < 2:
            raise ValueError(
                "solve: Input operand 1 does not have enough dimensions"
            )
        return solve(a, b)

    return numpy1_solve


def test_stacked_solve_keeps_numpy1_semantics(monkeypatch):
    # pyproject.toml admits NumPy 1.x: the stacked solve must not rely
    # on NumPy 2.0's broadcasting of a 1-D right-hand side.
    circuit = _circuit("a72", 2)
    freqs = np.geomspace(1.0, 2.5e9, AC_BLOCK + 1)
    want = analyze_ac_reference(circuit, DIE_NODE, freqs)
    monkeypatch.setattr(
        np.linalg, "solve", _solve_numpy1(np.linalg.solve)
    )
    got = analyze_ac(circuit, DIE_NODE, freqs)
    for name, values in want.node_voltages.items():
        assert np.array_equal(got.node_voltages[name], values)
    for name, values in want.branch_currents.items():
        assert np.array_equal(got.branch_currents[name], values)
