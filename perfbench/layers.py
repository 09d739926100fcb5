"""Outside-in layer tracing for the benchmark's traced mode.

Every span is recorded by the benchmark itself, around calls into a
layer's public functions: the program under test is not edited and its
own tracer (``repro.obs``) stays off.  ``Recorder.install`` replaces
each listed function or method with a thin wrapper; ``uninstall``
restores the originals.  A wrapper costs one attribute read while the
recorder is disabled, so untraced rounds of a traced run run the same
code as an untraced run plus that read.

A span's *self* time is its wall time minus the wall time of the spans
nested in it on the same thread.  On the benchmark's own thread the
self times of all spans, plus the time spent outside any span (the
*unattributed* remainder), add up to the wall time of the traced
rounds.  Spans on other threads (stream workers) are kept apart: their
CPU time is reported as stream *run* time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Spans kept for the Chrome trace file; aggregates never drop.
EVENT_CAPACITY = 200_000

#: Spans whose CPU time on a stream thread counts as stream run time.
ENGINE_SPANS = ("BatchedExecutor.launch", "BatchedExecutor.launch_many", "JitManager.run")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list[float]] | None = None
        self.agg: dict | None = None
        self.lane = 0


class Recorder:
    """Spans and per-span aggregates, bucketed by benchmark phase."""

    def __init__(self) -> None:
        self.enabled = False
        self.bucket = "setup"
        self.origin = time.perf_counter()
        self.events: list[tuple] = []
        self.dropped = 0
        self.notes: dict[str, list[float]] = {}
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._thread_aggs: list[tuple[int, dict]] = []
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def _thread(self) -> _ThreadState:
        local = self._local
        if local.stack is None:
            local.stack = []
            local.agg = {}
            ident = threading.get_ident()
            with self._lock:
                others = sum(1 for i, _ in self._thread_aggs if i != self._main)
                local.lane = 0 if ident == self._main else others + 1
                self._thread_aggs.append((ident, local.agg))
        return local

    def note(self, key: str, value: float) -> None:
        """Record one observation of a quantity that is not a span."""
        with self._lock:
            self.notes.setdefault(f"{self.bucket}:{key}", []).append(value)

    def wrap(self, fn, name: str, layer: str, on_result=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            local = recorder._thread()
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                wall = t1 - t0
                if stack:
                    stack[-1][0] += wall
                key = (recorder.bucket, name, layer, not stack)
                row = local.agg.get(key)
                if row is None:
                    row = local.agg[key] = [0, 0.0, 0.0, 0.0]
                row[0] += 1
                row[1] += wall
                row[2] += wall - frame[0]
                row[3] += cpu
                if len(recorder.events) < EVENT_CAPACITY:
                    recorder.events.append((name, layer, local.lane, t0, wall))
                else:
                    recorder.dropped += 1
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, layer: str, t0: float, wall: float) -> None:
        """Add a benchmark-phase span (setup, round) to the trace file."""
        if len(self.events) < EVENT_CAPACITY:
            self.events.append((name, layer, 0, t0, wall))

    # -- patching --------------------------------------------------------------
    def patch_method(self, cls, attr: str, layer: str, on_result=None) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self.wrap(original, name, layer, on_result))
        self._patches.append((cls, attr, original))

    def patch_function(self, fn, layer: str, on_result=None) -> None:
        """Wrap ``fn`` in every loaded ``repro`` module that binds it
        under its own name (``from x import f`` copies the binding)."""
        wrapped = self.wrap(fn, fn.__name__, layer, on_result)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(module, fn.__name__, None) is fn:
                setattr(module, fn.__name__, wrapped)
                self._patches.append((module, fn.__name__, fn))

    def install(self) -> None:
        """Wrap the public calls of every layer the workloads reach."""
        import repro.compiler.lower as lower
        import repro.compiler.pipeline as pipeline
        import repro.kernels.matmul as matmul
        import repro.ops  # noqa: F401 — binds the kernel/quant names patched below
        import repro.quant.packing as packing
        import repro.quant.scheme as scheme
        from repro.dtypes.base import DataType
        from repro.llm.batching import ContinuousBatchingSimulator
        from repro.runtime.graphs import ExecutionGraph
        from repro.runtime.jit import JitManager
        from repro.runtime.profiling import Profile
        from repro.runtime.runtime import Runtime
        from repro.runtime.streams import StreamPool
        from repro.vm.batched import BatchedExecutor

        self.patch_method(ContinuousBatchingSimulator, "run", "llm")
        self.patch_method(Runtime, "launch", "runtime")
        self.patch_method(ExecutionGraph, "replay", "graphs")
        self.patch_method(StreamPool, "synchronize", "streams")
        self.patch_method(BatchedExecutor, "launch", "vm")
        self.patch_method(BatchedExecutor, "launch_many", "vm")
        self.patch_method(JitManager, "maybe_compile", "jit")
        self.patch_method(JitManager, "run", "jit")
        self.patch_method(Profile, "record", "profiling")
        self.patch_function(lower.lower_program, "jit", _note_source("jit.source_bytes"))
        self.patch_function(
            pipeline.compile_program, "compiler", _note_source("compiler.source_bytes")
        )
        self.patch_function(matmul.quantized_matmul_program, "kernels")
        self.patch_function(scheme.quantize_weight, "quant")
        self.patch_function(packing.transform_weight, "quant")
        for cls in _subclasses(DataType):
            for attr in ("from_bits", "to_bits"):
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, "dtypes")

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregates ------------------------------------------------------------
    def rows(self, buckets=("setup", "rounds"), name=None, layer=None,
             main=None, toplevel=None):
        """Summed ``[count, wall_s, self_s, cpu_s]`` over matching spans."""
        total = [0, 0.0, 0.0, 0.0]
        for ident, agg in self._thread_aggs:
            on_main = ident == self._main
            if main is not None and on_main != main:
                continue
            for (bucket, span, span_layer, top), row in list(agg.items()):
                if bucket not in buckets:
                    continue
                if name is not None and span not in (name if isinstance(name, tuple) else (name,)):
                    continue
                if layer is not None and span_layer != layer:
                    continue
                if toplevel is not None and top != toplevel:
                    continue
                for i in range(4):
                    total[i] += row[i]
        return total

    def notes_for(self, key: str) -> list[float]:
        """Every observation of ``key``, set-ups and rounds alike."""
        return [v for bucket in ("setup", "rounds")
                for v in self.notes.get(f"{bucket}:{key}", [])]

    # -- Chrome trace ----------------------------------------------------------
    def chrome_trace(self, process_name: str) -> dict:
        """Chrome trace-event JSON (loads in Perfetto and in
        ``python -m repro trace summarize``)."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": process_name}},
        ]
        lanes = {lane for _, _, lane, _, _ in self.events} | {0}
        for lane in sorted(lanes):
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": lane,
                "args": {"name": "host" if lane == 0 else f"thread-{lane}"},
            })
        for name, layer, lane, t0, wall in self.events:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 0, "tid": lane,
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round(wall * 1e6, 3),
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped": self.dropped, "source": "perfbench"},
        }

    def write_trace(self, path: str, process_name: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(process_name), f)


def _subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _note_source(key: str):
    def hook(recorder, args, kwargs, result) -> None:
        recorder.note(key, float(len(result.source)))

    return hook
