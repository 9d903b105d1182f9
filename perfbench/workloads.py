"""The four workloads: inputs, one op, and the answer check.

Each workload class has the same shape:

* ``setup()`` generates the inputs from the seed and warms up (plan
  compiles, server start).  It is repeatable: ``reset()`` undoes it so
  set-up time can be measured several times in one run.
* ``op(i)`` runs op ``i`` through the public API and returns its raw
  output; ``record(i, out)`` keeps what the check needs.  Only ``op``
  is timed.
* ``check()`` runs after every timed phase and returns the number of
  wrong answers.  Reference computations happen only there, outside
  the timed and set-up windows.

The service workload drives real sockets from its own client threads
instead (``closed`` / ``open`` below).
"""

from __future__ import annotations

import http.client
import itertools
import json
import statistics
import threading
import time
from time import perf_counter, process_time

import numpy as np

import inputs
from repro import simulate
from repro.io import circuit_from_dict, fromQASM
from repro.serve import ServiceConfig, start_in_thread
from repro.simulation import clear_plan_cache

SHOTS = 1024
#: least CPU seconds of ops per chunk before a reference chunk
CHUNK_CPU = 0.05
#: the first few op failures, for the result artifact
ERRORS: list = []
#: fresh lib-small ops compared against the sparse reference per run;
#: the rest get the consistency checks (sparse costs ~7 ms a circuit)
FRESH_REFERENCE_SAMPLE = 160


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def counts_ok(counts, sim, shots) -> bool:
    """Counts sum to ``shots`` over outcomes the run can produce."""
    if sum(counts.values()) != shots:
        return False
    possible = {
        r for r, p in zip(sim.results, sim.probabilities) if p > 0
    }
    return set(counts) <= possible


def same_answer(results, probs, ref_results, ref_probs, atol=1e-9):
    """Outcome -> probability maps agree (outcomes under ``atol`` are
    ignored, since backends may keep or prune numerically-zero
    branches differently)."""
    def table(res, pr):
        out: dict = {}
        for r, p in zip(res, pr):
            out[r] = out.get(r, 0.0) + float(p)
        return {r: p for r, p in out.items() if p > atol}

    a, b = table(results, probs), table(ref_results, ref_probs)
    return a.keys() == b.keys() and all(
        abs(a[r] - b[r]) <= atol for r in a
    )


class _LibAnswers:
    """Per-key first answer plus a flag per op; the distinct answers
    are checked against the reference after the run."""

    def __init__(self):
        self.first: dict = {}
        self.distinct: list = []  # (key, results, probs)
        self.bad_counts = 0

    def add(self, key, sim, counts, shots):
        results = sim.results
        probs = sim.probabilities
        seen = self.first.get(key)
        if seen is None or seen[0] != results or seen[1] != probs.tobytes():
            self.first.setdefault(key, (results, probs.tobytes()))
            self.distinct.append((key, results, probs.copy()))
        if not counts_ok(counts, sim, shots):
            self.bad_counts += 1


class LibSmall:
    """Paper circuits, random 6-10q circuits and a bound ansatz; one
    op in eight builds a fresh circuit."""

    name = "lib-small"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed, 0)
        self.pool = inputs.SmallPool(rng)
        n_entries = len(self.pool.entries) + 1  # + the bound ansatz
        sched = _rng(self.seed, 1)
        size = 1 << 18
        self.choice = sched.integers(0, n_entries, size=size)
        self.start_pick = sched.integers(0, 4, size=size)
        self.value_pick = sched.integers(
            0, inputs.HEA_VALUE_SETS, size=size
        )
        self.shot_seeds = sched.integers(0, 2**62, size=size)
        self.hea_bindings = [
            dict(zip(self.pool.hea.parameters, row))
            for row in self.pool.hea_values
        ]
        self.answers = _LibAnswers()
        self.fresh: dict = {}
        self._spec = None
        for _key, circuit, starts in self.pool.entries:
            for start in starts:
                circuit.simulate(start).counts_dict(SHOTS, seed=0)
        self.pool.hea.bind(self.hea_bindings[0]).simulate("0000")

    def reset(self):
        clear_plan_cache()

    def prepare(self, i):
        """Untimed: draw the fresh circuit's gate spec for op ``i``."""
        if i % 8 == 7:
            self._spec = inputs.fresh_small_spec(_rng(self.seed, 2, i))

    def op(self, i, tracer=None):
        j = i % len(self.choice)
        seed = int(self.shot_seeds[j])
        if i % 8 == 7:
            n, spec = self._spec
            if tracer is not None:
                with tracer.span("circuit.build"):
                    circuit = inputs.build(n, spec)
            else:
                circuit = inputs.build(n, spec)
            sim = circuit.simulate("0" * n)
            return ("fresh",), sim, sim.counts_dict(SHOTS, seed)
        k = int(self.choice[j])
        if k == len(self.pool.entries):
            v = int(self.value_pick[j])
            sim = self.pool.hea.bind(self.hea_bindings[v]).simulate("0000")
            return ("hea", v), sim, sim.counts_dict(SHOTS, seed)
        key, circuit, starts = self.pool.entries[k]
        start = starts[int(self.start_pick[j]) % len(starts)]
        sim = circuit.simulate(start)
        return (key, start), sim, sim.counts_dict(SHOTS, seed)

    def record(self, i, out):
        key, sim, counts = out
        if key[0] == "fresh":
            # the circuit is rebuilt from the seed for the check: keeping
            # thousands of circuit objects alive would slow the garbage
            # collector inside later ops
            self.fresh[i] = (sim.results, sim.probabilities.copy())
            if not counts_ok(counts, sim, SHOTS):
                self.answers.bad_counts += 1
            return
        self.answers.add(key, sim, counts, SHOTS)

    def check(self):
        wrong = self.answers.bad_counts
        refs: dict = {}
        entries = {key: c for key, c, _s in self.pool.entries}
        for key, results, probs in self.answers.distinct:
            ref = refs.get(key)
            if ref is None:
                if key[0] == "hea":
                    ref = self.pool.hea.bind(
                        self.hea_bindings[key[1]]
                    ).simulate("0000", {"backend": "sparse"})
                else:
                    ref = entries[key[0]].simulate(
                        key[1], {"backend": "sparse"}
                    )
                refs[key] = ref
            if not same_answer(results, probs, ref.results,
                               ref.probabilities):
                wrong += 1
        fresh = sorted(self.fresh)
        sample = set(_rng(self.seed, 3).permutation(fresh)[
            :FRESH_REFERENCE_SAMPLE
        ].tolist()) if fresh else set()
        for i in fresh:
            results, probs = self.fresh[i]
            if abs(float(np.sum(probs)) - 1.0) > 1e-9:
                wrong += 1
                continue
            if i in sample:
                n, spec = inputs.fresh_small_spec(_rng(self.seed, 2, i))
                ref = inputs.build(n, spec).simulate(
                    "0" * n, {"backend": "sparse"}
                )
                if not same_answer(results, probs, ref.results,
                                   ref.probabilities):
                    wrong += 1
        return wrong


class LibDeep:
    """18-qubit circuits where kernel steps are nearly all the time."""

    name = "lib-deep"

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed, 0)
        self.circuits = [
            inputs.deep_circuit(rng, k) for k in range(inputs.DEEP_CIRCUITS)
        ]
        self.starts = [
            inputs.bitstring(rng, inputs.DEEP_QUBITS)
            for _ in self.circuits
        ]
        self.shot_seeds = _rng(self.seed, 1).integers(0, 2**62, size=4096)
        self.answers = _LibAnswers()
        for circuit, start in zip(self.circuits, self.starts):
            circuit.simulate(start).counts_dict(SHOTS, seed=0)

    def reset(self):
        clear_plan_cache()

    def prepare(self, i):
        pass

    def op(self, i, tracer=None):
        k = i % len(self.circuits)
        sim = self.circuits[k].simulate(self.starts[k])
        seed = int(self.shot_seeds[i % len(self.shot_seeds)])
        return k, sim, sim.counts_dict(SHOTS, seed)

    def record(self, i, out):
        k, sim, counts = out
        self.answers.add(k, sim, counts, SHOTS)

    def check(self):
        wrong = self.answers.bad_counts
        refs: dict = {}
        for k, results, probs in self.answers.distinct:
            if k not in refs:
                refs[k] = self.circuits[k].simulate(
                    self.starts[k], {"backend": "sparse"}
                )
            if not same_answer(results, probs, refs[k].results,
                               refs[k].probabilities):
                wrong += 1
        return wrong


class VqeSweep:
    """One 256-point sweep of a 10-qubit, 3-layer ansatz plus the
    batched energy per op."""

    name = "vqe-sweep"
    #: points per op compared against bind().simulate()
    CHECKED_POINTS = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = _rng(self.seed, 0)
        self.ansatz = inputs.sweep_ansatz()
        self.params = self.ansatz.parameters
        self.hamiltonian = inputs.tfim_hamiltonian(rng)
        self.samples: list = []
        self._matrix = None
        warm = rng.uniform(-np.pi, np.pi, size=(inputs.SWEEP_POINTS,
                                                len(self.params)))
        self.hamiltonian.expectations(self.ansatz.sweep(warm).states)

    def reset(self):
        clear_plan_cache()

    def prepare(self, i):
        self._matrix = _rng(self.seed, 1, i).uniform(
            -np.pi, np.pi, size=(inputs.SWEEP_POINTS, len(self.params))
        )

    def op(self, i, tracer=None):
        matrix = self._matrix
        result = self.ansatz.sweep(matrix)
        return matrix, result, self.hamiltonian.expectations(result.states)

    def record(self, i, out):
        matrix, result, energies = out
        picks = _rng(self.seed, 2, i).choice(
            inputs.SWEEP_POINTS, self.CHECKED_POINTS, replace=False
        )
        for p in picks:
            self.samples.append((
                matrix[p].copy(), result.states[p].copy(),
                float(energies[p]),
            ))

    def check(self):
        wrong = 0
        for values, state, energy in self.samples:
            bound = self.ansatz.bind(dict(zip(self.params, values)))
            ref = bound.simulate("0" * inputs.SWEEP_QUBITS).states[0]
            if not np.allclose(state, ref, rtol=0, atol=1e-10):
                wrong += 1
            elif abs(self.hamiltonian.expectation(ref) - energy) > 1e-10:
                wrong += 1
        return wrong


# -- the service -------------------------------------------------------------

#: HTTP statuses counted as refusals (quota/queue 429, deadline 504)
REFUSED = (429, 504)
CLIENTS = 2
WORKERS = 2


class ServiceMixed:
    """``start_in_thread`` with 2 workers and 2 keep-alive clients."""

    name = "service-mixed"

    def __init__(self, seed):
        self.seed = seed
        self.handle = None

    def setup(self):
        self.inputs = inputs.ServiceInputs(_rng(self.seed, 0))
        self.streams = [
            self.inputs.stream(_rng(self.seed, 1, c))
            for c in range(CLIENTS)
        ]
        self.handle = start_in_thread(
            ServiceConfig(port=0, workers=WORKERS)
        )
        self.responses: list = []
        self.refused = 0
        ins = self.inputs
        warm = [t.body(0) for t in ins.hot_json + ins.hot_qasm
                + ins.mid_json] + [b for _c, _p, b in ins.expect]
        conn = self._connect()
        try:
            for body in warm:
                status, _ = self._post(conn, body, 0)
                if status != 200:
                    raise RuntimeError(f"warm-up request got {status}")
        finally:
            conn.close()

    def reset(self):
        self.close()
        clear_plan_cache()

    def close(self):
        if self.handle is not None:
            self.handle.close()
            self.handle = None

    def _connect(self):
        return http.client.HTTPConnection(
            self.handle.host, self.handle.port, timeout=60
        )

    @staticmethod
    def _post(conn, body, op_id):
        conn.request("POST", "/v1/simulate", body,
                     {"X-Bench-Op": str(op_id)})
        resp = conn.getresponse()
        return resp.status, resp.read()

    def _send(self, conn, client, op_id, tracer):
        """One request; returns (ok, seconds, conn)."""
        kind, circuit, body, seed, paulis = next(self.streams[client])
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.op(op_id):
                    status, payload = self._post(conn, body, op_id)
            else:
                status, payload = self._post(conn, body, op_id)
        except (OSError, http.client.HTTPException) as exc:
            if len(ERRORS) < 5:
                ERRORS.append(f"request {op_id}: {exc!r}")
            conn.close()
            return False, perf_counter() - t0, self._connect()
        dt = perf_counter() - t0
        if status in REFUSED:
            self.refused += 1
        self.responses.append((
            kind, circuit, seed, paulis, status, payload,
            body if kind == "cold" else None,
        ))
        return status == 200, dt, conn

    def closed(self, seconds, tracer, phase, ref=None):
        """Each client sends its next request when the last returns.
        With a reference, the main thread pauses the clients after
        every ``CHUNK_CPU`` CPU seconds of the process, waits for the
        requests in flight, and runs a reference chunk."""
        deadline = perf_counter() + seconds
        ids = itertools.count(phase * 10**7)
        cond = threading.Condition()
        flow = {"paused": False, "in_flight": 0}

        def client(c):
            conn = self._connect()
            try:
                while perf_counter() < deadline:
                    with cond:
                        while flow["paused"]:
                            cond.wait()
                        flow["in_flight"] += 1
                    try:
                        ok, dt, conn = self._send(
                            conn, c, next(ids), tracer
                        )
                        phase_out.done(ok, dt)
                    finally:
                        with cond:
                            flow["in_flight"] -= 1
                            cond.notify_all()
            finally:
                conn.close()

        phase_out = PhaseResult()
        t0 = perf_counter()
        threads = _start_threads(client, CLIENTS)
        while ref is not None and any(t.is_alive() for t in threads):
            c0 = process_time()
            n0 = len(phase_out.latencies)
            while (process_time() - c0 < CHUNK_CPU
                   and perf_counter() < deadline):
                time.sleep(0.002)
            with cond:
                flow["paused"] = True
                while flow["in_flight"]:
                    cond.wait()
            ops = len(phase_out.latencies) - n0
            if ops:
                phase_out.reference_chunk(ref, process_time() - c0, ops)
            with cond:
                flow["paused"] = False
                cond.notify_all()
        for t in threads:
            t.join()
        phase_out.wall = perf_counter() - t0
        return phase_out

    def open(self, seconds, rate, tracer, phase):
        """Requests fall due every ``1/rate`` s on a fixed schedule;
        latency counts from the due time.  A request due while both
        connections are busy waits for one."""
        ids = itertools.count(phase * 10**7)
        lock = threading.Lock()
        slots = itertools.count()
        t_start = perf_counter() + 0.01
        n_due = int(seconds * rate)
        phase_out = PhaseResult()

        def sender(c):
            conn = self._connect()
            try:
                while True:
                    with lock:
                        k = next(slots)
                    if k >= n_due:
                        return
                    due = t_start + k / rate
                    wait = due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    lag = perf_counter() - due
                    ok, dt, conn = self._send(conn, c, next(ids), tracer)
                    phase_out.done(ok, lag + dt, lag)
            finally:
                conn.close()

        _run_threads(sender, CLIENTS)
        phase_out.wall = perf_counter() - t_start
        return phase_out

    def check(self):
        """Probabilities against a direct ``simulate()`` of the circuit
        object the request was made from; counts and expectations
        against a direct ``simulate()`` of the circuit decoded from
        the same payload (the circuit the service ran), same seed."""
        wrong = 0
        refs: dict = {}
        served: dict = {}
        for (kind, circuit, seed, paulis, status, payload,
             body) in self.responses:
            if status != 200:
                continue  # counted as failed by the load generator
            start = "0" * circuit.nbQubits
            ref = refs.get(id(circuit))
            if ref is None:
                ref = refs[id(circuit)] = simulate(circuit, start)
            key = (kind, id(circuit)) if body is None else None
            same = served.get(key)
            if same is None:
                same = simulate(
                    _decode(body or self.inputs.bodies[key]), start
                )
                if key is not None:
                    served[key] = same
            got = json.loads(payload)
            if not same_answer(got["results"], got["probabilities"],
                               ref.results, ref.probabilities):
                problem = "probabilities"
            elif paulis is not None:
                values = got.get("expectations", {})
                problem = any(
                    abs(values.get(p, np.inf) - same.expectation(p)) > 1e-9
                    for p in paulis
                ) and "expectations"
            else:
                problem = got.get("counts") != same.counts_dict(
                    inputs.SERVICE_SHOTS, seed=seed
                ) and "counts"
            if problem:
                wrong += 1
                if len(ERRORS) < 5:
                    ERRORS.append(f"{kind} request (seed {seed}): wrong "
                                  f"{problem}")
        return wrong

    def cache_hit_rate(self) -> float:
        ok = [json.loads(p) for *_r, s, p in self.responses if s == 200]
        return sum(1 for b in ok if b.get("cached")) / max(1, len(ok))


def _decode(body: bytes):
    spec = json.loads(body)["circuit"]
    if "qasm" in spec:
        return fromQASM(spec["qasm"])
    return circuit_from_dict(spec["json"])


def _start_threads(target, n):
    threads = [threading.Thread(target=target, args=(c,))
               for c in range(n)]
    for t in threads:
        t.start()
    return threads


def _run_threads(target, n):
    for t in _start_threads(target, n):
        t.join()


class PhaseResult:
    """Latencies of one load phase (thread-safe appends) and, on a
    closed phase run against a reference, its chunk pairs.

    CPU time is the process's (``time.process_time``: every thread,
    user + system, hypervisor steal excluded).  ``pairs`` holds one
    ``(op CPU seconds, ops, reference CPU seconds per run)`` per chunk
    of ops and the reference chunk that followed it (see
    ``reference.py``).
    """

    def __init__(self):
        self.latencies: list = []
        self.lags: list = []
        self.pairs: list = []
        self.failed = 0
        self.wall = 0.0
        #: wall seconds spent in reference chunks, left out of ``rate``
        self.ref_wall = 0.0
        self._lock = threading.Lock()

    def done(self, ok, seconds, lag=None):
        with self._lock:
            self.latencies.append(seconds if ok else None)
            if not ok:
                self.failed += 1
            if lag is not None:
                self.lags.append(lag)

    def rate(self) -> float:
        """Completed ops per wall second of the phase's own ops."""
        return (len(self.latencies) - self.failed) / (
            self.wall - self.ref_wall
        )

    def reference_chunk(self, ref, op_cpu, ops):
        """Close a chunk of ``ops`` ops that took ``op_cpu`` CPU seconds:
        measure the reference and record the pair."""
        t0 = perf_counter()
        self.pairs.append((op_cpu, ops, ref.measure()))
        self.ref_wall += perf_counter() - t0

    def cpu_over_ref(self) -> float:
        """Median over chunk pairs of (CPU per op) / (reference CPU per
        run); a failed op counts as a chunk of infinite cost."""
        ratios = [c / n / r for c, n, r in self.pairs]
        ratios += [float("inf")] * self.failed
        return statistics.median(ratios)

    def cpu_rate(self) -> float:
        """Completed ops per CPU second over the chunks."""
        cpu = sum(c for c, _n, _r in self.pairs)
        ops = sum(n for _c, n, _r in self.pairs)
        return (ops - self.failed) / cpu if cpu else 0.0


def lib_closed(wl, seconds, tracer, phase, ref=None):
    """One caller: the next op starts when the last returns.  With a
    reference, ops run in chunks of at least ``CHUNK_CPU`` CPU seconds,
    each followed by a reference chunk."""
    out = PhaseResult()
    base = phase * 10**7
    t_start = perf_counter()
    deadline = t_start + seconds
    i = base
    chunk_cpu, chunk_ops = 0.0, 0
    while perf_counter() < deadline:
        wl.prepare(i)
        ok, dt, cpu = _lib_one(wl, i, tracer)
        out.done(ok, dt)
        i += 1
        chunk_cpu += cpu
        chunk_ops += 1
        if ref is not None and chunk_cpu >= CHUNK_CPU:
            out.reference_chunk(ref, chunk_cpu, chunk_ops)
            chunk_cpu, chunk_ops = 0.0, 0
    if ref is not None and chunk_ops and not out.pairs:
        out.reference_chunk(ref, chunk_cpu, chunk_ops)  # a very short run
    out.wall = perf_counter() - t_start
    return out


def lib_open(wl, seconds, rate, tracer, phase):
    """One caller on a fixed schedule; latency counts from due time."""
    out = PhaseResult()
    base = phase * 10**7
    t_start = perf_counter() + 0.01
    for k in range(int(seconds * rate)):
        due = t_start + k / rate
        wl.prepare(base + k)
        wait = due - perf_counter()
        if wait > 0:
            time.sleep(wait)
        lag = perf_counter() - due
        ok, dt, _cpu = _lib_one(wl, base + k, tracer)
        out.done(ok, lag + dt, lag)
    out.wall = perf_counter() - t_start
    return out


def _lib_one(wl, i, tracer):
    """Run op ``i``; returns (ok, wall seconds, CPU seconds)."""
    c0 = process_time()
    t0 = perf_counter()
    try:
        if tracer is not None:
            with tracer.op(i):
                out = wl.op(i, tracer)
        else:
            out = wl.op(i)
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        if len(ERRORS) < 5:
            ERRORS.append(f"op {i}: {type(exc).__name__}: {exc}")
        return False, perf_counter() - t0, process_time() - c0
    dt = perf_counter() - t0
    cpu = process_time() - c0
    wl.record(i, out)
    return True, dt, cpu


WORKLOADS = {
    cls.name: cls for cls in (LibSmall, LibDeep, ServiceMixed, VqeSweep)
}
