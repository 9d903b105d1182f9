"""A fixed plain-numpy statevector simulation: the benchmark's yardstick.

The benchmark runs on a shared host whose speed changes from second to
second and, over minutes, by up to 2-2.5x in CPU time per op (other
machines' work contends for the core, its caches and memory).  No
statistic of the program's own timings cancels that.  So the closed
loop alternates chunks of the workload's ops with chunks of this
reference, which does the same kind of work (per-gate numpy
contractions on a fresh array, diagonal multiplies) but uses nothing
from the package, and reports the ratio of the two CPU times.  A change
to the program moves the ratio; a change in the host moves both sides.

Each workload gets a reference shaped like its own work (qubits,
layers, batch rows, sampling, request decoding); see ``REFERENCES``.
"""

from __future__ import annotations

import json
from time import process_time

import numpy as np

#: seeds the reference circuits' angles; fixed, so the reference does
#: the same work in every run and at every commit
REFERENCE_SEED = 7
#: least CPU seconds per reference chunk (at least one run)
REFERENCE_CPU = 0.025
#: workload -> (qubits, layers, batch rows, shots, JSON round trip) of
#: its reference
REFERENCES = {
    # tiny states where per-call overhead and sampling dominate
    "lib-small": (4, 3, 1, 1024, False),
    # one 4 MiB state, memory-bound kernel steps
    "lib-deep": (18, 1, 1, 0, False),
    # request decoding, then a mid-size state and its counts
    "service-mixed": (10, 3, 1, 256, True),
    # (256, 2^10) batched states, as in a 256-point sweep
    "vqe-sweep": (10, 1, 256, 0, False),
}


class Reference:
    """``layers`` layers of seeded single-qubit unitaries on every qubit,
    each followed by CZs on even pairs, applied to ``batch`` copies of
    ``|0...0>``; every step makes a new array.  With ``shots``, the run
    ends by sampling that many outcomes into a bitstring -> count dict;
    with ``serialise``, it starts by round-tripping the gate list
    through JSON."""

    def __init__(self, nb_qubits, layers, batch, shots, serialise):
        rng = np.random.default_rng(REFERENCE_SEED)
        n = self.nb_qubits = nb_qubits
        self.batch = batch
        self.shots = shots
        self.serialise = serialise
        idx = np.arange(2 ** n)
        cz = {
            q: np.where((idx >> (n - 1 - q)) & (idx >> (n - 2 - q)) & 1,
                        -1.0, 1.0)
            for q in range(0, n - 1, 2)
        }
        self.steps = []
        for _ in range(layers):
            for q in range(n):
                a, b = rng.uniform(-np.pi, np.pi, size=2)
                c, s = np.cos(a), np.sin(a) * np.exp(1j * b)
                self.steps.append((q, np.array([[c, -np.conj(s)],
                                                [s, c]])))
            self.steps += [(None, cz[q]) for q in sorted(cz)]

    def run(self) -> np.ndarray:
        n, batch = self.nb_qubits, self.batch
        if self.serialise:
            json.loads(json.dumps([
                {"q": q, "re": op.real.tolist(), "im": op.imag.tolist()}
                for q, op in self.steps if q is not None
            ]))
        psi = np.zeros((batch, 2 ** n), dtype=complex)
        psi[:, 0] = 1.0
        for q, op in self.steps:
            if q is None:
                psi = psi * op
            else:
                psi = np.einsum(
                    "ab,plbr->plar", op, psi.reshape(batch, 2 ** q, 2, -1)
                ).reshape(batch, -1)
        if self.shots:
            probs = np.abs(psi[0]) ** 2
            drawn = np.random.default_rng(REFERENCE_SEED).multinomial(
                self.shots, probs / probs.sum()
            )
            {format(i, f"0{n}b"): int(c) for i, c in enumerate(drawn) if c}
        return psi

    def measure(self) -> float:
        """Run until ``REFERENCE_CPU`` seconds of CPU are spent; return
        the CPU seconds per run."""
        c0 = process_time()
        runs = 0
        while True:
            self.run()
            runs += 1
            spent = process_time() - c0
            if spent >= REFERENCE_CPU:
                return spent / runs


def for_workload(name) -> Reference:
    """The reference of workload ``name``; checks that it is unitary."""
    ref = Reference(*REFERENCES[name])
    norms = np.linalg.norm(ref.run(), axis=1)
    if not np.allclose(norms, 1.0, atol=1e-9):
        raise RuntimeError("reference simulation is not norm-preserving")
    return ref
