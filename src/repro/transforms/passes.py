"""Peephole optimization passes over :class:`QCircuit`.

This module is the circuit-level public API of the optimizer; since the
IR refactor every pass here is a thin wrapper that lowers the circuit
into the canonical :class:`~repro.ir.IRProgram` (see :mod:`repro.ir`),
runs the corresponding IR pass, and materializes a flat circuit back.
The dataflow rule is unchanged: two operations are *adjacent* when
every qubit of the later one last saw the earlier one — only then may
they be fused or cancelled, which guarantees unitary preservation even
across measurements (a measurement is an opaque "last toucher" that
nothing fuses across).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.circuit.circuit import QCircuit
from repro.exceptions import CircuitError

__all__ = [
    "flatten",
    "fuse_rotations",
    "cancel_inverses",
    "merge_single_qubit_runs",
    "optimize",
    "gate_counts",
    "circuits_equivalent",
]


def flatten(circuit: QCircuit) -> QCircuit:
    """Expand nested sub-circuits into a flat circuit on absolute qubits.

    Every element is copied via its ``shifted`` protocol, so the result
    shares no mutable state with the input.  Consumers that only need
    the flat op stream can read :func:`repro.ir.lower` directly, which
    is cached per revision and copies nothing.
    """
    from repro.ir.lower import lower

    return lower(circuit).to_circuit()


def gate_counts(circuit: QCircuit) -> Counter:
    """Count operations by class name (recursing into sub-circuits)."""
    from repro.ir.lower import lower

    return lower(circuit).gate_counts()


def _run_ir(circuit: QCircuit, names) -> QCircuit:
    from repro.ir.passes import PassManager

    return PassManager(names).run_on(circuit).to_circuit()


def fuse_rotations(circuit: QCircuit, drop_identity: bool = True) -> QCircuit:
    """Merge adjacent same-axis rotation/phase gates stably.

    ``RX(a) RX(b) -> RX(a+b)`` (likewise RY/RZ/RXX/RYY/RZZ/Phase), with
    the sum evaluated on the ``(cos, sin)`` representation.  Fused gates
    whose angle becomes 0 (mod 4 pi for rotations) are dropped when
    ``drop_identity`` is set.
    """
    if not drop_identity:
        # the uncommon variant keeps identity-angle gates in place
        from repro.ir.lower import lower
        from repro.ir.passes import _adjacent_pairs, _fuse_rotations_combine

        program = _adjacent_pairs(
            lower(circuit),
            _fuse_rotations_combine(drop_identity=False),
            "fuse_rotations",
        )
        return program.to_circuit()
    return _run_ir(circuit, ["fuse_rotations"])


def cancel_inverses(circuit: QCircuit) -> QCircuit:
    """Remove adjacent gate pairs whose product is the identity.

    Covers self-inverse gates (H, X, CNOT, SWAP, ...) and explicit
    inverse pairs (S/S†, T/T†, any gates whose matrices multiply to I).
    Only small gates (up to 3 qubits) are checked, by dense product.
    """
    return _run_ir(circuit, ["cancel_inverses"])


def merge_single_qubit_runs(circuit: QCircuit) -> QCircuit:
    """Collapse adjacent one-qubit gates into a single ``U3``.

    The run's product is re-synthesized through the numerically robust
    ZYZ extraction of :func:`repro.io.qasm_export.u3_params`; the global
    phase is dropped (it is unobservable for an uncontrolled gate).
    Runs that multiply to the identity disappear entirely.
    """
    return _run_ir(circuit, ["fuse_1q"])


_DEFAULT_PASSES = ("fuse_rotations", "cancel_inverses")

#: circuit-level pass names accepted by :func:`optimize`, mapped to the
#: IR registry names they run as.
_PASS_TABLE = {
    "fuse_rotations": "fuse_rotations",
    "cancel_inverses": "cancel_inverses",
    "merge_single_qubit_runs": "fuse_1q",
}


def optimize(
    circuit: QCircuit,
    passes=_DEFAULT_PASSES,
    max_iterations: int = 20,
) -> QCircuit:
    """Run the given passes to a fixpoint (bounded by ``max_iterations``).

    The default pipeline (stable rotation fusion + inverse
    cancellation) preserves the circuit unitary *exactly*; add
    ``'merge_single_qubit_runs'`` for aggressive 1-qubit resynthesis
    (exact up to global phase).
    """
    from repro.ir.lower import lower
    from repro.ir.passes import PassManager

    for name in passes:
        if name not in _PASS_TABLE:
            raise CircuitError(
                f"unknown pass {name!r}; available: {sorted(_PASS_TABLE)}"
            )
    manager = PassManager([_PASS_TABLE[name] for name in passes])
    current = lower(circuit)
    for _ in range(max_iterations):
        before = len(current)
        current = manager.run(current)
        if len(current) >= before:
            break
    return current.to_circuit()


def circuits_equivalent(
    a: QCircuit,
    b: QCircuit,
    up_to_global_phase: bool = True,
    atol: float = 1e-10,
) -> bool:
    """Whether two measurement-free circuits implement the same unitary.

    Compares the dense matrices (small registers); with
    ``up_to_global_phase`` the comparison ignores an overall phase.
    """
    if a.nbQubits != b.nbQubits:
        return False
    ma, mb = a.matrix, b.matrix
    if not up_to_global_phase:
        return bool(np.allclose(ma, mb, atol=atol))
    k = int(np.argmax(np.abs(ma)))
    pivot = ma.flat[k]
    if abs(pivot) < atol:
        return bool(np.allclose(ma, mb, atol=atol))
    phase = mb.flat[k] / pivot
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.allclose(ma * phase, mb, atol=atol))
