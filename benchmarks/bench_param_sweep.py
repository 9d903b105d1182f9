"""Parametric sweeps — bind() and sweep() vs recompile-per-point.

Measures the three ways to evaluate one ansatz over many parameter
points:

* **recompiled** — rebuild the circuit with concrete angles at every
  point (the historical idiom; every point recompiles the plan);
* **bound** — build the ansatz once over symbolic ``Parameter`` slots,
  then ``bind(values).simulate()`` per point (every point is a plan
  cache hit; only the parametric kernel tables are refilled);
* **swept** — one vectorized ``sweep(matrix)`` call executing a
  ``(P, 2^n)`` parameter-batched pass per plan step.

Also times the VQE energy sweep (`h2_hamiltonian` over the
hardware-efficient ansatz, the `bench_b7` workload) three ways —
recompile-per-point, per-point ``bind()``, and the vectorized
bind-path ``sweep()`` with batched expectations — and asserts the
bind path (compile once, bind every point) is at least 10x faster
than recompile-per-point.  Finally reports the median time of one
batched ``PauliSum.expectations`` call — a 10-qubit transverse-field
Ising energy over a swept batch, wide enough that no dense operator
is involved.  Emits ``BENCH_sweep.json``; the point count is
overridable via ``BENCH_SWEEP_POINTS``.
"""

import os

import numpy as np
import pytest

from repro import Parameter
from repro.algorithms import h2_hamiltonian, hardware_efficient_ansatz
from repro.simulation import PauliSum, clear_plan_cache
from repro.simulation.state import basis_state

NB_QUBITS = 4
LAYERS = 2
#: register width of the batched TFIM energy row
TFIM_QUBITS = 10


def tfim_chain(nb_qubits) -> PauliSum:
    """Open transverse-field Ising chain ``-sum ZZ - 0.5 sum X``."""
    pad = "i" * nb_qubits
    return PauliSum(
        [(-1.0, pad[:q] + "zz" + pad[q + 2:])
         for q in range(nb_qubits - 1)]
        + [(-0.5, pad[:q] + "x" + pad[q + 1:])
           for q in range(nb_qubits)]
    )


def _points(default=100):
    return int(os.environ.get("BENCH_SWEEP_POINTS", str(default)))


def test_param_sweep(benchmark):
    """points/sec of recompiled vs bound vs vectorized sweep; emits
    ``BENCH_sweep.json``."""
    try:
        from benchmarks.harness import emit_json, timed_run
    except ImportError:  # run directly from the benchmarks/ directory
        from harness import emit_json, timed_run

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    nb_points = _points()
    rng = np.random.default_rng(0)
    nb_params = NB_QUBITS * (LAYERS + 1)
    matrix = rng.uniform(-np.pi, np.pi, size=(nb_points, nb_params))
    start = "0" * NB_QUBITS

    ansatz = hardware_efficient_ansatz(NB_QUBITS, LAYERS)
    thetas = ansatz.parameters

    def recompiled():
        # drop cached plans so every repeat really recompiles per point
        clear_plan_cache()
        return np.stack([
            hardware_efficient_ansatz(NB_QUBITS, LAYERS, row)
            .simulate(start).states[0]
            for row in matrix
        ])

    def bound():
        return np.stack([
            ansatz.bind(dict(zip(thetas, row))).simulate(start).states[0]
            for row in matrix
        ])

    def swept():
        return ansatz.sweep(matrix).states

    clear_plan_cache()
    t_recompiled = timed_run(recompiled, repeats=3)
    t_bound = timed_run(bound, repeats=3)
    t_swept = timed_run(swept, repeats=3)

    # all three paths must agree before their timings mean anything
    assert np.allclose(t_recompiled.value, t_bound.value, atol=1e-10)
    assert np.allclose(t_recompiled.value, t_swept.value, atol=1e-10)

    recompiled_pps = nb_points / t_recompiled.best
    bound_pps = nb_points / t_bound.best
    swept_pps = nb_points / t_swept.best

    # -- the VQE energy loop, both ways ------------------------------------
    h = h2_hamiltonian()
    zero = basis_state("00")
    vqe_matrix = rng.uniform(-np.pi, np.pi, size=(nb_points, 4))
    vqe_ansatz = hardware_efficient_ansatz(2, 1)
    vqe_thetas = vqe_ansatz.parameters

    def vqe_legacy():
        clear_plan_cache()
        return [
            h.expectation(
                hardware_efficient_ansatz(2, 1, row)
                .simulate(zero).states[0]
            )
            for row in vqe_matrix
        ]

    def vqe_bound():
        return [
            h.expectation(
                vqe_ansatz.bind(dict(zip(vqe_thetas, row)))
                .simulate(zero).states[0]
            )
            for row in vqe_matrix
        ]

    def vqe_swept():
        return h.expectations(vqe_ansatz.sweep(vqe_matrix).states)

    clear_plan_cache()
    t_vqe_legacy = timed_run(vqe_legacy, repeats=3)
    t_vqe_bound = timed_run(vqe_bound, repeats=3)
    t_vqe_swept = timed_run(vqe_swept, repeats=3)
    assert np.allclose(t_vqe_legacy.value, t_vqe_bound.value)
    assert np.allclose(t_vqe_legacy.value, t_vqe_swept.value)
    vqe_bind_speedup = t_vqe_legacy.best / t_vqe_bound.best
    vqe_speedup = t_vqe_legacy.best / t_vqe_swept.best

    # -- batched energy of a 10-qubit TFIM over a swept batch -------------
    tfim = tfim_chain(TFIM_QUBITS)
    tfim_ansatz = hardware_efficient_ansatz(TFIM_QUBITS, 1)
    tfim_states = tfim_ansatz.sweep(
        np.random.default_rng(2).uniform(
            -np.pi, np.pi, size=(nb_points, len(tfim_ansatz.parameters))
        )
    ).states
    t_tfim = timed_run(lambda: tfim.expectations(tfim_states), repeats=7)
    assert np.allclose(
        t_tfim.value[:3], [tfim.expectation(s) for s in tfim_states[:3]]
    )

    print()
    print(f"SWEEP | {NB_QUBITS}q/{LAYERS}-layer ansatz, "
          f"{nb_points} points, {nb_params} parameters")
    print(f"SWEEP | recompiled {recompiled_pps:9.0f} points/s")
    print(f"SWEEP | bound      {bound_pps:9.0f} points/s "
          f"({bound_pps / recompiled_pps:.1f}x)")
    print(f"SWEEP | swept      {swept_pps:9.0f} points/s "
          f"({swept_pps / recompiled_pps:.1f}x)")
    print(f"SWEEP | VQE energy sweep: {vqe_bind_speedup:.1f}x "
          f"point-by-point bind, {vqe_speedup:.1f}x vectorized "
          "sweep vs recompile")
    print(f"SWEEP | {TFIM_QUBITS}q TFIM expectations over {nb_points} "
          f"points: median {t_tfim.median * 1e3:.2f} ms")

    # the acceptance criterion: the bind path (compile once, bind every
    # point — vectorized via sweep()) at least 10x recompile-per-point
    # on the VQE energy sweep
    assert vqe_speedup >= 10.0, (
        f"bind path only {vqe_speedup:.1f}x faster than recompile"
    )
    assert bound_pps > recompiled_pps

    emit_json("sweep", {
        "workload": {
            "nb_qubits": NB_QUBITS,
            "layers": LAYERS,
            "nb_parameters": nb_params,
            "nb_points": nb_points,
        },
        "recompiled_points_per_s": recompiled_pps,
        "bound_points_per_s": bound_pps,
        "swept_points_per_s": swept_pps,
        "speedup_bound_vs_recompiled": bound_pps / recompiled_pps,
        "speedup_swept_vs_recompiled": swept_pps / recompiled_pps,
        "recompiled": t_recompiled.as_dict("recompiled_"),
        "bound": t_bound.as_dict("bound_"),
        "swept": t_swept.as_dict("swept_"),
        "vqe_energy_loop": {
            "nb_points": nb_points,
            "legacy": t_vqe_legacy.as_dict("legacy_"),
            "bound": t_vqe_bound.as_dict("bound_"),
            "swept": t_vqe_swept.as_dict("swept_"),
            "speedup_bind_per_point": vqe_bind_speedup,
            "speedup": vqe_speedup,
        },
        "tfim_energy": {
            "nb_qubits": TFIM_QUBITS,
            "nb_terms": len(tfim.terms),
            "nb_points": nb_points,
            "points_per_s": nb_points / t_tfim.median,
            **t_tfim.as_dict("tfim_"),
        },
    })


@pytest.mark.parametrize("mode", ["recompiled", "bound", "swept"])
def test_param_point(benchmark, mode):
    """Per-point cost of each evaluation path (16-point chunks)."""
    benchmark.group = "param sweep modes"
    rng = np.random.default_rng(1)
    matrix = rng.uniform(-np.pi, np.pi,
                         size=(16, NB_QUBITS * (LAYERS + 1)))
    start = "0" * NB_QUBITS
    ansatz = hardware_efficient_ansatz(NB_QUBITS, LAYERS)
    thetas = ansatz.parameters

    if mode == "recompiled":
        fn = lambda: [
            hardware_efficient_ansatz(NB_QUBITS, LAYERS, row)
            .simulate(start).states[0] for row in matrix
        ]
    elif mode == "bound":
        fn = lambda: [
            ansatz.bind(dict(zip(thetas, row))).simulate(start).states[0]
            for row in matrix
        ]
    else:
        fn = lambda: ansatz.sweep(matrix).states

    out = benchmark(fn)
    assert len(out) == 16
