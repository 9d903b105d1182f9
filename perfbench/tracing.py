"""Span tracing installed from outside the program.

The traced run wraps the public functions of each layer (listed in
:data:`LAYER_OF` and installed by :func:`install`) and records one span
per call: name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  Nothing inside ``src/`` knows about this
module; every wrapper is removed again by :meth:`Tracer.uninstall`.

Cross-thread requests (the service) are stitched together explicitly:
the load generator sends its op id in an ``X-Bench-Op`` header, the
``Gateway.handle`` wrapper reads it, and ``Executor.prepare`` /
``Executor.execute`` are matched by job id, which also yields the
queue-wait span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

import numpy as np

#: span name -> layer (module) it is attributed to.  ``op`` is the
#: benchmark's own root span; its self time is harness glue on the
#: library workloads and the wire (client socket -> ASGI -> thread hop)
#: on the service.
LAYER_OF = {
    "simulate": "simulation.simulate",
    "simulate.counts": "simulation.simulate",
    "simulate.expectation": "simulation.simulate",
    "executor.prepare": "execution.executor",
    "executor.execute": "execution.executor",
    "recorder.event": "observability.recorder",
    "ir.lower": "ir",
    "plan.signature": "simulation.plan",
    "plan.get": "simulation.plan",
    "plan.compile": "simulation.plan",
    "plan.bind": "simulation.plan",
    "dispatch.run_plan": "execution.dispatch",
    "dispatch.run_sweep": "execution.dispatch",
    "sweep": "simulation.sweep",
    "backends.step": "simulation.backends",
    "observables.expectations": "simulation.observables",
    "io.decode.json": "io",
    "io.decode.qasm": "io",
    "protocol.parse": "serve.protocol",
    "gateway.handle": "serve.gateway",
    "gateway.queue_wait": "serve.gateway.queue_wait",
    "circuit.build": "circuit.construction",
}

#: layers whose self time is reported as ``share.<layer>``.
LAYERS = sorted(set(LAYER_OF.values()) | {"wire", "harness"})

#: relative gap allowed between the summed layer self times and the
#: traced op wall time before the coverage check fails.
COVERAGE_TOLERANCE = 0.05


class _Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "op", "attrs")

    def __init__(self, sid, name, t0, parent, op):
        self.id = sid
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.parent = parent
        self.op = op
        self.attrs = None


class Tracer:
    """Keeps spans in memory; owns the installed wrappers."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        #: op id -> root span id, for spans opened on other threads.
        self._roots: dict = {}
        #: job id -> (op id, parent span id, prepare return time, thread).
        self._jobs: dict = {}

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None, op=None):
        stack = self._stack()
        if parent is None and stack:
            parent, op = stack[-1].id, stack[-1].op
        span = _Span(next(self._ids), name, perf_counter(), parent, op)
        stack.append(span)
        return span

    def _close(self, span):
        span.t1 = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def op(self, op_id):
        """Context manager for one benchmark op (the root span)."""
        tracer = self

        class _Op:
            def __enter__(self):
                self.span = tracer._open("op", parent=0, op=op_id)
                tracer._roots[op_id] = self.span.id
                return self.span

            def __exit__(self, *exc):
                tracer._close(self.span)

        return _Op()

    def span(self, name):
        """Context manager for a benchmark-side child span."""
        tracer = self

        class _Child:
            def __enter__(self):
                self.span = tracer._open(name)
                return self.span

            def __exit__(self, *exc):
                tracer._close(self.span)

        return _Child()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, after=None, enter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = enter(args, kwargs) if enter is not None else None
            span = (
                tracer._open(name, *ctx) if ctx else tracer._open(name)
            )
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, out)
            return out

        return wrapper

    def patch_function(self, module, attr, name, after=None, enter=None):
        """Wrap ``module.attr`` and every other binding of the same
        function object in loaded ``repro`` modules (``from x import
        f`` copies the reference, so each importer is patched)."""
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, name, after, enter)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig, True))

    def patch_method(self, cls, attr, name, after=None, enter=None):
        """Wrap ``cls.attr`` (inherited methods are shadowed on ``cls``
        and the shadow removed again on uninstall)."""
        own = attr in vars(cls)
        orig = vars(cls)[attr] if own else getattr(cls, attr)
        setattr(cls, attr, self._wrap(orig, name, after, enter))
        self._patches.append((cls, attr, orig, own))

    def uninstall(self):
        """Restore every patched binding."""
        for target, key, orig, own in reversed(self._patches):
            if own:
                setattr(target, key, orig)
            else:
                delattr(target, key)
        self._patches.clear()

    # -- service stitching --------------------------------------------------

    def _enter_handle(self, args, kwargs):
        headers = kwargs.get("headers", args[4] if len(args) > 4 else None)
        op = (headers or {}).get("x-bench-op")
        if op is None:
            return None
        op = int(op)
        return (self._roots.get(op, 0), op)

    def _after_prepare(self, span, args, job):
        stack = self._stack()
        if stack:
            self._jobs[job.id] = (
                stack[-1].op, stack[-1].id, perf_counter(),
                threading.get_ident(),
            )

    def _enter_execute(self, args, kwargs):
        job = args[1] if len(args) > 1 else kwargs.get("job")
        ctx = self._jobs.pop(job.id, None)
        if ctx is None:
            return None
        op, parent, t_ready, thread = ctx
        if thread == threading.get_ident():
            return None  # inline submit: no hand-off, no queue
        wait = _Span(next(self._ids), "gateway.queue_wait", t_ready,
                     parent, op)
        wait.t1 = perf_counter()
        self.spans.append(wait)
        return (parent, op)


def _set(span, **attrs):
    span.attrs = attrs


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    # import_module, not ``import a.b as m``: several packages re-export
    # a function under its module's name (repro.simulation.simulate)
    mod = importlib.import_module
    qasm_import = mod("repro.io.qasm_import")
    serialize = mod("repro.io.serialize")
    ir_lower = mod("repro.ir.lower")
    recorder = mod("repro.observability.recorder")
    protocol = mod("repro.serve.protocol")
    observables = mod("repro.simulation.observables")
    plan = mod("repro.simulation.plan")
    simulate_mod = mod("repro.simulation.simulate")
    sweep_mod = mod("repro.simulation.sweep")
    dispatch = mod("repro.execution.dispatch")
    Executor = mod("repro.execution.executor").Executor
    Gateway = mod("repro.serve.gateway").Gateway

    t = tracer
    t.patch_function(simulate_mod, "simulate", "simulate")
    t.patch_method(simulate_mod.Simulation, "counts_dict", "simulate.counts")
    t.patch_method(simulate_mod.Simulation, "counts", "simulate.counts")
    t.patch_method(
        simulate_mod.Simulation, "expectation", "simulate.expectation"
    )
    t.patch_function(sweep_mod, "sweep", "sweep")
    t.patch_method(Executor, "prepare", "executor.prepare",
                   after=t._after_prepare)
    t.patch_method(Executor, "execute", "executor.execute",
                   enter=t._enter_execute)
    t.patch_function(recorder, "record_event", "recorder.event")
    t.patch_function(ir_lower, "lower", "ir.lower")
    t.patch_function(plan, "circuit_signature", "plan.signature")
    t.patch_function(
        plan, "get_plan", "plan.get",
        after=lambda s, a, out: _set(s, hit=bool(out[1].cache_hit)),
    )
    t.patch_function(plan, "compile_circuit", "plan.compile")
    t.patch_method(plan.CompiledPlan, "bind", "plan.bind")
    t.patch_function(
        dispatch, "run_plan", "dispatch.run_plan",
        after=lambda s, a, out: _set(
            s, steps=len(a[0].steps), branches=len(out[0])
        ),
    )
    t.patch_function(dispatch, "run_sweep", "dispatch.run_sweep")
    t.patch_method(
        observables.PauliSum, "expectations", "observables.expectations"
    )
    t.patch_function(serialize, "circuit_from_dict", "io.decode.json")
    t.patch_function(qasm_import, "fromQASM", "io.decode.qasm")
    t.patch_function(protocol, "parse_simulation_request", "protocol.parse")
    t.patch_method(Gateway, "handle", "gateway.handle",
                   enter=t._enter_handle)

    def step_after(span, args, out):
        # kind, bytes and target are derived after the run; the state
        # itself is not kept, only its size
        span.attrs = (args[0], _Shape(args[1]), args[2], args[3])

    # every class on the statevector backends' MROs, own methods only,
    # so each method body is wrapped exactly once
    backends = mod("repro.simulation.backends")
    engine_classes = [
        type(backends.get_backend(name))
        for name in backends.available_backends("statevector")
    ]
    classes = {
        c for k in engine_classes for c in k.__mro__
        if "apply_planned" in vars(c)
        or "apply_planned_batched" in vars(c)
        or "apply_planned_sweep" in vars(c)
    }
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for method in (
            "apply_planned", "apply_planned_batched", "apply_planned_sweep"
        ):
            if method in vars(cls):
                t.patch_method(cls, method, "backends.step",
                               after=step_after)


# -- analysis ----------------------------------------------------------------


def _step_kind(step) -> str:
    """``1q``/``cnot``/``controlled``/``diag``/``kq`` for a plan step."""
    if step.diagonal:
        return "diag"
    if step.controls:
        kernel = step.kernel
        if (
            len(step.targets) == 1
            and kernel is not None
            and np.allclose(kernel, [[0, 1], [1, 0]])
        ):
            return "cnot"
        return "controlled"
    return "1q" if len(step.targets) == 1 else "kq"


class _Shape:
    """Stands in for a state array in ``Backend.planned_bytes``."""

    def __init__(self, arr):
        self.nbytes = arr.nbytes
        self.size = arr.size
        self.itemsize = arr.itemsize


def analyse(spans, n_ops: int, op_wall_s: float):
    """Per-layer metrics, per-layer self-time table and coverage.

    ``n_ops`` and ``op_wall_s`` count only ops whose root span was
    recorded.  Returns ``(metrics, table, coverage)``.
    """
    spans = [s for s in spans if s.op is not None and s.t1 is not None]
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(s):
        kids = children.get(s.id)
        if not kids:
            return s.t1 - s.t0
        covered = 0.0
        end = s.t0
        for k in sorted(kids, key=lambda k: k.t0):
            lo, hi = max(k.t0, end), min(k.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        return (s.t1 - s.t0) - covered

    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    root_ids = {s.id for s in by_name.get("op", [])}
    n = max(1, n_ops)
    wall = max(op_wall_s, 1e-12)
    service = bool(by_name.get("gateway.handle"))

    layer_self: dict = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.name == "op":
            layer = "wire" if service else "harness"
        else:
            layer = LAYER_OF.get(s.name)
            if layer is None:
                continue
        layer_self[layer] += self_time(s)

    def total(name, self_only=False):
        return sum(
            self_time(s) if self_only else s.t1 - s.t0
            for s in by_name.get(name, [])
        )

    def count(name):
        return len(by_name.get(name, []))

    def mean_per_call(name, self_only=False):
        c = count(name)
        return total(name, self_only) / c if c else 0.0

    m = {}
    m["simulate.front_us"] = total("simulate", True) / n * 1e6
    m["simulate.counts_us"] = total("simulate.counts") / n * 1e6
    m["simulate.expectation_us"] = total("simulate.expectation") / n * 1e6
    m["executor.self_us"] = total("executor.execute", True) / n * 1e6
    m["executor.jobs_per_op"] = count("executor.execute") / n
    m["recorder.events_per_op"] = count("recorder.event") / n
    m["recorder.us_per_op"] = total("recorder.event") / n * 1e6
    m["ir.lower_us"] = total("ir.lower") / n * 1e6
    m["ir.lower_calls_per_op"] = count("ir.lower") / n
    m["plan.signature_us"] = total("plan.signature") / n * 1e6
    m["plan.get_plan_us"] = total("plan.get") / n * 1e6
    gets = by_name.get("plan.get", [])
    hits = sum(1 for s in gets if s.attrs and s.attrs["hit"])
    m["plan.hit_rate"] = hits / len(gets) if gets else 0.0
    m["plan.compiles_per_op"] = count("plan.compile") / n
    m["plan.compile_ms"] = mean_per_call("plan.compile") * 1e3
    m["plan.bind_us"] = mean_per_call("plan.bind") * 1e6
    m["dispatch.run_plan_self_us"] = (
        total("dispatch.run_plan", True) / n * 1e6
    )
    runs = by_name.get("dispatch.run_plan", [])
    m["dispatch.steps_per_op"] = (
        sum(s.attrs["steps"] for s in runs if s.attrs) / n
    )
    m["dispatch.branches_max"] = max(
        (s.attrs["branches"] for s in runs if s.attrs), default=0
    )
    m["dispatch.run_sweep_self_ms"] = (
        total("dispatch.run_sweep", True) / n * 1e3
    )

    # backend steps: only top-level step spans (a backend may delegate
    # to an inherited wrapped method, which would nest)
    step_ids = {s.id for s in by_name.get("backends.step", [])}
    cells: dict = {}
    kinds: dict = {}
    nbytes = 0
    step_seconds = 0.0
    for s in by_name.get("backends.step", []):
        if s.parent in step_ids or not s.attrs:
            continue
        engine, states, step, nb_qubits = s.attrs
        dt = s.t1 - s.t0
        kind = _step_kind(step)
        kinds.setdefault(kind, []).append(dt)
        cells.setdefault((kind, tuple(step.targets)), []).append(dt)
        nbytes += engine.planned_bytes(step, states, nb_qubits)
        step_seconds += dt
    for kind in ("1q", "cnot", "controlled", "diag", "kq"):
        vals = kinds.get(kind)
        if vals:
            p50, p90 = np.percentile(vals, [50, 90])
            m[f"backends.step_us.{kind}"] = float(p50) * 1e6
            m[f"backends.step_p90_over_p50.{kind}"] = (
                float(p90 / p50) if p50 > 0 else 0.0
            )
        else:
            m[f"backends.step_us.{kind}"] = 0.0
            m[f"backends.step_p90_over_p50.{kind}"] = 0.0
    worst = 0.0
    for (kind, _targets), vals in cells.items():
        if len(vals) >= 3:
            kind_median = float(np.median(kinds[kind]))
            if kind_median > 0:
                worst = max(worst, float(np.median(vals)) / kind_median)
    m["backends.step_max_over_median"] = worst
    m["backends.gbps_computed"] = (
        nbytes / step_seconds / 1e9 if step_seconds > 0 else 0.0
    )
    m["backends.share"] = layer_self["simulation.backends"] / wall

    m["io.decode_us.json"] = mean_per_call("io.decode.json") * 1e6
    m["io.decode_us.qasm"] = mean_per_call("io.decode.qasm") * 1e6
    m["protocol.parse_self_us"] = (
        mean_per_call("protocol.parse", True) * 1e6
    )
    m["gateway.queue_wait_ms"] = mean_per_call("gateway.queue_wait") * 1e3
    m["gateway.self_us"] = mean_per_call("gateway.handle", True) * 1e6
    m["wire.ms"] = (
        layer_self["wire"] / len(root_ids) * 1e3 if service and root_ids
        else 0.0
    )

    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / wall
    attributed = sum(
        v for k, v in layer_self.items() if k != "harness"
    )
    coverage = attributed / wall
    table = [
        (layer, layer_self[layer] / n * 1e6, layer_self[layer] / wall)
        for layer in sorted(LAYERS, key=lambda x: -layer_self[x])
    ]
    return m, table, coverage


def write_spans(path, spans) -> None:
    """One JSON object per span: name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.t0, "end": s.t1,
                "parent": s.parent, "op": s.op,
            }))
            fh.write("\n")
