"""Seeded input generation for the four workloads.

Everything the program sees is generated here from the workload seed:
circuits, start bitstrings, sampling seeds, parameter matrices and
request bodies.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import json

import numpy as np

from repro.algorithms.grover import paper_grover_circuit
from repro.algorithms.qec import bit_flip_code_circuit
from repro.algorithms.teleportation import teleportation_circuit
from repro.algorithms.vqe import hardware_efficient_ansatz
from repro.circuit import Measurement, QCircuit
from repro.gates import (
    CNOT,
    CPhase,
    CRotationX,
    CRotationY,
    CZ,
    Hadamard,
    RotationX,
    RotationY,
    RotationZ,
    SWAP,
)
from repro.io import circuit_to_dict, circuit_to_qasm
from repro.simulation.observables import PauliSum


def _angle(rng) -> float:
    return float(rng.uniform(-np.pi, np.pi))


def _pair(rng, n):
    a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
    return a, b


#: gate types of every random circuit, in equal shares, so that
#: circuits of one size cost about the same; a layout stream picks
#: order and qubits, and the seed the angles
GATE_TYPES = (
    Hadamard, RotationX, RotationY, RotationZ, CNOT, CRotationY, CZ,
    CPhase, SWAP,
)


#: seeds the gate layouts (kinds, qubits, order) of the circuits every
#: run reuses, the same for every workload seed: a circuit's cost
#: depends on its layout, so a seeded layout would make the op cost
#: depend on the seed.  The seed draws their angles and start strings.
LAYOUT_SEED = 1801


def layout_rng(*stream):
    """The fixed layout stream ``stream``."""
    return np.random.default_rng([LAYOUT_SEED, *stream])


def random_gate(rng, n, cls, layout=None):
    """A spec ``(cls, args)`` for one gate of type ``cls``: qubits from
    ``layout`` (default ``rng``), the angle from ``rng``."""
    a, b = _pair(rng if layout is None else layout, n)
    if cls is Hadamard:
        return cls, (a,)
    if cls in (RotationX, RotationY, RotationZ):
        return cls, (a, _angle(rng))
    if cls in (CRotationY, CPhase):
        return cls, (a, b, _angle(rng))
    if cls is SWAP:
        return cls, (min(a, b), max(a, b))
    return cls, (a, b)


def random_gates(rng, n, nb_gates, layout=None):
    layout = rng if layout is None else layout
    types = [GATE_TYPES[k % len(GATE_TYPES)] for k in range(nb_gates)]
    return [random_gate(rng, n, types[int(k)], layout)
            for k in layout.permutation(nb_gates)]


def random_spec(rng, n, nb_gates, nb_measured, layout=None):
    """Random gate specs, then end measurements on ``nb_measured``
    qubits; ``layout`` (default ``rng``) picks order and qubits."""
    spec = random_gates(rng, n, nb_gates, layout)
    layout = rng if layout is None else layout
    for q in sorted(int(x)
                    for x in layout.choice(n, nb_measured, False)):
        spec.append((Measurement, (q,)))
    return n, spec


def build(n, spec) -> QCircuit:
    """Construct the circuit a spec describes."""
    c = QCircuit(n)
    for cls, args in spec:
        c.push_back(cls(*args))
    return c


def random_circuit(rng, n, nb_gates, nb_measured, layout=None):
    """Build a :func:`random_spec` circuit."""
    return build(*random_spec(rng, n, nb_gates, nb_measured, layout))


def bitstring(rng, n) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n))


# -- lib-small ----------------------------------------------------------------

#: parameter-value sets per bound ansatz (each op re-binds one of them)
HEA_VALUE_SETS = 32
#: widths of the random circuits in the lib-small pool
RANDOM_SIZES = (6, 7, 8, 8, 9, 10)


class SmallPool:
    """The paper's circuits plus random and parametric ones.

    ``entries`` is a list of ``(key, circuit, starts)``.  The parametric
    hardware-efficient ansatz is kept apart as ``hea``, with
    ``hea_values`` (one value set per row, in parameter order) to bind.
    """

    def __init__(self, rng):
        entries = []
        bell = QCircuit(2)
        bell.push_back(Hadamard(0))
        bell.push_back(CNOT(0, 1))
        bell.push_back(Measurement(0))
        bell.push_back(Measurement(1))
        entries.append(("bell", bell, ["00", "01", "10", "11"]))
        entries.append(
            ("teleport", teleportation_circuit(), ["000", "100"])
        )
        entries.append(("grover", paper_grover_circuit(), ["00"]))
        for err in (None, 0, 1, 2):
            entries.append(
                (f"qec{err}", bit_flip_code_circuit(err),
                 ["00000", "10000"])
            )
        for basis in "xyz":
            tomo = QCircuit(1)
            tomo.push_back(RotationY(0, _angle(rng)))
            tomo.push_back(RotationZ(0, _angle(rng)))
            tomo.push_back(Measurement(0, basis))
            entries.append((f"tomo-{basis}", tomo, ["0", "1"]))
        ghz = QCircuit(8)
        ghz.push_back(Hadamard(0))
        for q in range(7):
            ghz.push_back(CNOT(q, q + 1))
        for q in range(8):
            ghz.push_back(Measurement(q))
        entries.append(("ghz8", ghz, ["0" * 8]))
        for i, n in enumerate(RANDOM_SIZES):
            c = random_circuit(rng, n, 40, 3, layout_rng(0, i))
            entries.append((f"random{i}", c, [bitstring(rng, n)]))
        self.entries = entries

        hea = hardware_efficient_ansatz(4, 2)
        for q in range(4):
            hea.push_back(Measurement(q))
        self.hea = hea
        self.hea_values = rng.uniform(
            -np.pi, np.pi, size=(HEA_VALUE_SETS, len(hea.parameters))
        )


def fresh_small_spec(rng):
    """A 6-qubit circuit spec with fresh angles (never repeated)."""
    return random_spec(rng, 6, 20, 2)


# -- lib-deep -----------------------------------------------------------------

DEEP_QUBITS = 18
DEEP_CIRCUITS = 4
#: end-measured qubits per deep circuit.  Measuring all 18 would
#: enumerate up to 2**18 branches, each holding a full 4 MiB state.
DEEP_MEASURED = 3


def deep_circuit(rng, k):
    """~48 gates on 18 qubits: a 1q gate on every target position,
    CNOT, controlled rotations, CZ/CPhase diagonals and SWAP.  Circuit
    ``k`` has a fixed layout (gate kinds, qubits, order); ``rng`` draws
    its angles."""
    n = DEEP_QUBITS
    layout = layout_rng(1, k)
    gates = []
    for q in range(n):
        kind = int(layout.integers(0, 3))
        gates.append(
            (Hadamard(q), RotationX(q, _angle(rng)),
             RotationY(q, _angle(rng)))[kind]
        )
    for _ in range(8):
        gates.append(CNOT(*_pair(layout, n)))
    for _ in range(3):
        gates.append(CRotationY(*_pair(layout, n), _angle(rng)))
        gates.append(CRotationX(*_pair(layout, n), _angle(rng)))
    for _ in range(5):
        gates.append(CZ(*_pair(layout, n)))
        a, b = _pair(layout, n)
        gates.append(CPhase(a, b, _angle(rng)))
    for _ in range(6):
        a, b = _pair(layout, n)
        gates.append(SWAP(min(a, b), max(a, b)))
    c = QCircuit(n)
    for i in layout.permutation(len(gates)):
        c.push_back(gates[int(i)])
    for q in sorted(int(x)
                    for x in layout.choice(n, DEEP_MEASURED, False)):
        c.push_back(Measurement(q))
    return c


# -- service-mixed ------------------------------------------------------------

#: widths of the 8 hot service circuits
HOT_SIZES = (10, 10, 11, 11, 12, 12, 10, 11)
HOT_CIRCUITS = len(HOT_SIZES)
COLD_QUBITS = 11
SERVICE_SHOTS = 256


def _body(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class _Template:
    """A request body with the seed spliced in as raw bytes, so a hot
    request costs the client no JSON encoding."""

    def __init__(self, payload: dict):
        marker = 987654321987654321
        text = json.dumps(dict(payload, seed=marker))
        self.head, self.tail = text.encode("utf-8").split(
            str(marker).encode()
        )

    def body(self, seed: int) -> bytes:
        return self.head + str(seed).encode() + self.tail


def mid_circuit(rng, layout):
    """12 qubits with three mid-circuit measurements between layers."""
    n = 12
    c = QCircuit(n)
    measured = [int(x) for x in layout.choice(n, 3, replace=False)]
    for m in measured:
        for cls, args in random_gates(rng, n, 10, layout):
            c.push_back(cls(*args))
        c.push_back(Measurement(m))
    for cls, args in random_gates(rng, n, 10, layout):
        c.push_back(cls(*args))
    return c


class ServiceInputs:
    """Hot/QASM/cold/expectation/mid-circuit request generators."""

    def __init__(self, rng):
        self.hot = [random_circuit(rng, n, 40, 2, layout_rng(2, i))
                    for i, n in enumerate(HOT_SIZES)]
        self.hot_json = [
            _Template({"circuit": {"json": circuit_to_dict(c)},
                       "shots": SERVICE_SHOTS})
            for c in self.hot
        ]
        self.hot_qasm = [
            _Template({"circuit": {"qasm": circuit_to_qasm(c)},
                       "shots": SERVICE_SHOTS})
            for c in self.hot
        ]
        self.mid = [mid_circuit(rng, layout_rng(3, i)) for i in range(2)]
        self.mid_json = [
            _Template({"circuit": {"json": circuit_to_dict(c)},
                       "shots": SERVICE_SHOTS})
            for c in self.mid
        ]
        #: (kind, id(circuit)) -> a body of that request, for the check
        self.bodies = {}
        for kind, circuits, templates in (
            ("hot", self.hot, self.hot_json),
            ("qasm", self.hot, self.hot_qasm),
            ("mid", self.mid, self.mid_json),
        ):
            for c, t in zip(circuits, templates):
                self.bodies[(kind, id(c))] = t.body(0)
        self.expect = []
        for i in range(4):
            c = self.hot[i]
            n = c.nbQubits
            paulis = ["Z" + "I" * (n - 1), "ZZ" + "I" * (n - 2),
                      "X" * n]
            body = _body({"circuit": {"json": circuit_to_dict(c)},
                          "shots": 0, "expectations": paulis})
            self.expect.append((c, paulis, body))
            self.bodies[("expect", id(c))] = body

    def stream(self, rng):
        """Yield ``(kind, circuit, body, seed, expectations)`` forever.

        Mix: 60% hot JSON, 15% hot QASM, 10% cold JSON (fresh angles,
        never repeated), 10% repeated shots=0 expectations, 5%
        12-qubit mid-circuit measurement circuits.  Sampling seeds are
        fresh on every request, so only the expectation requests can
        hit the result cache.
        """
        while True:
            r = float(rng.random())
            seed = int(rng.integers(0, 2**62))
            if r < 0.60:
                i = int(rng.integers(0, HOT_CIRCUITS))
                yield ("hot", self.hot[i], self.hot_json[i].body(seed),
                       seed, None)
            elif r < 0.75:
                i = int(rng.integers(0, HOT_CIRCUITS))
                yield ("qasm", self.hot[i], self.hot_qasm[i].body(seed),
                       seed, None)
            elif r < 0.85:
                c = random_circuit(rng, COLD_QUBITS, 40, 2)
                body = _body({"circuit": {"json": circuit_to_dict(c)},
                              "shots": SERVICE_SHOTS, "seed": seed})
                yield ("cold", c, body, seed, None)
            elif r < 0.95:
                c, paulis, body = self.expect[int(rng.integers(0, 4))]
                yield ("expect", c, body, None, paulis)
            else:
                i = int(rng.integers(0, len(self.mid)))
                yield ("mid", self.mid[i], self.mid_json[i].body(seed),
                       seed, None)


# -- vqe-sweep ----------------------------------------------------------------

SWEEP_QUBITS = 10
SWEEP_LAYERS = 3
SWEEP_POINTS = 256


def sweep_ansatz():
    return hardware_efficient_ansatz(SWEEP_QUBITS, SWEEP_LAYERS)


def tfim_hamiltonian(rng) -> PauliSum:
    """Transverse-field Ising chain with seeded couplings."""
    n = SWEEP_QUBITS
    terms = []
    for q in range(n - 1):
        terms.append((float(rng.uniform(0.5, 1.5)),
                      "I" * q + "ZZ" + "I" * (n - q - 2)))
    for q in range(n):
        terms.append((float(rng.uniform(0.2, 1.0)),
                      "I" * q + "X" + "I" * (n - q - 1)))
    return PauliSum(terms)
