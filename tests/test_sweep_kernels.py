"""Per-target checks of the vectorized sweep and batched-diagonal kernels.

``apply_planned_sweep`` applies one kernel per row of a ``(P, 2**n)``
parameter batch.  Its one-target branch picks its formulation by the
length of the contiguous amplitude run below the target (an in-place
2x2 update or a ``kron(K_p, I_right)`` GEMM), so every target of the
register is checked against a per-row :meth:`Backend.apply`.  The
batched diagonal path of ``apply_planned_batched`` is checked the same
way on a coalesced CZ ladder.
"""

import numpy as np
import pytest

from repro import Parameter, QCircuit
from repro.gates import CZ, CRotationY, Phase, RotationX, RotationY, RotationZ
from repro.simulation import compile_circuit, get_backend
from repro.simulation.plan import GATE

NB_QUBITS = 6
NB_POINTS = 5
BACKENDS = ["kernel", "strided"]
DTYPES = [
    pytest.param(np.complex128, 1e-12, id="c128"),
    pytest.param(np.complex64, 1e-5, id="c64"),
]
ONE_TARGET = [RotationX, RotationY, RotationZ, Phase]


def _states(dtype, seed=0, nb_points=NB_POINTS):
    rng = np.random.default_rng(seed)
    shape = (nb_points, 1 << NB_QUBITS)
    s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    return s.astype(dtype)


def _gate_steps(circuit, backend, dtype):
    plan = compile_circuit(circuit, backend=backend, dtype=dtype)
    return [s for s in plan.steps if s.kind == GATE]


def _check_sweep_step(backend, dtype, tol, gate, nb_points=NB_POINTS):
    """One parametric step through ``apply_planned_sweep`` equals the
    per-row ``apply`` of each point's own kernel."""
    circuit = QCircuit(NB_QUBITS)
    circuit.push_back(gate)
    (step,) = _gate_steps(circuit, backend, dtype)
    assert step.param is not None
    engine = get_backend(backend)
    thetas = np.linspace(-2.9, 3.1, nb_points)
    kernels = np.ascontiguousarray(
        step.op.kernel_values(thetas).astype(dtype, copy=False)
    )
    states = _states(dtype, nb_points=nb_points)
    expected = np.stack([
        engine.apply(
            states[i].copy(), kernels[i], step.targets, NB_QUBITS,
            controls=step.controls, control_states=step.control_states,
            diagonal=step.diagonal,
        )
        for i in range(nb_points)
    ])
    got = engine.apply_planned_sweep(
        states.copy(), step, NB_QUBITS, kernels
    )
    assert got.shape == states.shape
    assert got.dtype == dtype
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype,tol", DTYPES)
@pytest.mark.parametrize("target", range(NB_QUBITS))
@pytest.mark.parametrize("gate_cls", ONE_TARGET, ids=lambda c: c.__name__)
def test_one_target_sweep_matches_rows(backend, dtype, tol, target,
                                       gate_cls):
    _check_sweep_step(backend, dtype, tol, gate_cls(target, Parameter("t")))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype,tol", DTYPES)
@pytest.mark.parametrize("target", range(NB_QUBITS))
def test_controlled_rotation_sweep_matches_rows(backend, dtype, tol,
                                                target):
    control = (target + 2) % NB_QUBITS
    _check_sweep_step(
        backend, dtype, tol, CRotationY(control, target, Parameter("t"))
    )


@pytest.mark.parametrize("dtype,tol", DTYPES)
@pytest.mark.parametrize("target", range(NB_QUBITS))
def test_sweep_spanning_several_row_blocks(dtype, tol, target):
    """Enough points that the batch is updated in several row blocks
    (a 256 KiB block holds 256 complex128 or 512 complex64 rows of a
    6-qubit register), the last one partial."""
    _check_sweep_step(
        "kernel", dtype, tol, RotationY(target, Parameter("t")),
        nb_points=1100,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_sweep_kernel_accepts_noncontiguous_batch(backend):
    """A strided batch is updated correctly (the in-place branch must
    not write into a discarded reshape copy)."""
    circuit = QCircuit(NB_QUBITS)
    circuit.push_back(RotationY(0, Parameter("t")))
    (step,) = _gate_steps(circuit, backend, np.complex128)
    engine = get_backend(backend)
    kernels = step.op.kernel_values(np.linspace(0.1, 1.0, NB_POINTS))
    states = _states(np.complex128)
    wide = np.zeros((NB_POINTS, 2 << NB_QUBITS), dtype=np.complex128)
    wide[:, ::2] = states
    got = engine.apply_planned_sweep(
        wide[:, ::2], step, NB_QUBITS, kernels
    )
    expected = engine.apply_planned_sweep(
        states.copy(), step, NB_QUBITS, kernels
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dtype,tol", DTYPES)
def test_batched_diagonal_cz_ladder_matches_rows(backend, dtype, tol):
    circuit = QCircuit(NB_QUBITS)
    for q in range(NB_QUBITS - 1):
        circuit.push_back(CZ(q, q + 1))
    steps = _gate_steps(circuit, backend, dtype)
    assert steps and all(s.diagonal for s in steps)
    # coalescing must have produced multi-target diagonal steps
    assert any(len(s.targets) > 1 for s in steps)
    engine = get_backend(backend)
    states = _states(dtype, seed=1)
    expected = states.copy()
    for step in steps:
        for i in range(NB_POINTS):
            expected[i] = engine.apply(
                expected[i].copy(), step.kernel, step.targets, NB_QUBITS,
                diagonal=True,
            )
    got = states.copy()
    for step in steps:
        got = engine.apply_planned_batched(got, step, NB_QUBITS)
    assert got.dtype == dtype
    np.testing.assert_allclose(got, expected, rtol=0, atol=tol)
