"""The **local engine** interface: the engine half of the
engine/transport split.

The runtime package grew four tightly-coupled subsystems — the
:class:`~repro.runtime.runtime.Runtime` (memory + specialization cache +
launch API), the stream pool, execution graphs and the compiled tier.
Multi-process sharded serving (:mod:`repro.serving`) needs a *seam*
between all of that and the placement/transport layer: a worker process
owns exactly one local engine; the router owns none — it only moves
JSON-serialized state (:class:`~repro.runtime.profiling.Profile`,
:class:`~repro.runtime.graphs.GraphPlan`) and requests between engines.

:class:`LocalEngine` is that seam.  It bundles a Runtime, its spec
cache, optional profiling and an optional compiled tier behind the
narrow surface the serving layer is allowed to touch, plus the
JSON-state import/export the transport layer ships across process
boundaries.  Semantics are unchanged from driving the Runtime directly
— the engine owns and delegates; it never reimplements.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import VMError
from repro.runtime.graphs import ExecutionGraph, GraphPlan
from repro.runtime.profiling import Profile
from repro.runtime.runtime import Runtime
from repro.store import TuningStore


class LocalEngine:
    """One process's execution engine: Runtime + spec cache + JIT.

    Everything the placement/transport layer may ask of a shard happens
    through this interface:

    - **execution**: :meth:`upload` / :meth:`empty` / :meth:`download` /
      :meth:`launch` / :meth:`capture` / :meth:`synchronize`, delegating
      to the owned :class:`~repro.runtime.runtime.Runtime` unchanged;
    - **observability**: :meth:`profile_json` exports the engine's
      recorded :class:`~repro.runtime.profiling.Profile` as versioned
      JSON, :meth:`absorb_profile_json` merges a profile recorded by
      *another* process into this engine's active profiler (warm-start:
      profiles recorded in one context are spent in another);
    - **placement transfer**: :meth:`plan_json` exports a captured
      graph's :class:`~repro.runtime.graphs.GraphPlan`,
      :meth:`apply_plan_json` re-places a local graph under a plan
      decided elsewhere.

    ``profile=True`` starts recording immediately; ``jit=True``
    attaches the compiled tier exactly as ``runtime.enable_jit()``
    would and turns on profiling too — profiled heat is what promotes a
    specialization — so hot specializations promote out of the
    interpreter with no further API surface.

    ``store=`` (a directory path or a live
    :class:`~repro.store.TuningStore`) attaches the persistent tuning
    store; :meth:`warm_start` then spends state another process
    published — profiles merge into the profiler, stored JIT heat and
    kernels pre-promote — and :meth:`publish_store` persists this
    engine's state for the next process.  Every load path
    degrades: a corrupt entry raises ``VMError`` inside the store, the
    engine counts it and proceeds cold.
    """

    def __init__(
        self,
        dram_bytes: int = 1 << 30,
        engine: str = "auto",
        cache_entries: int = 128,
        profile: bool = False,
        jit: bool = False,
        store=None,
        store_scope: str = "engine",
    ) -> None:
        self.runtime = Runtime(
            dram_bytes=dram_bytes, engine=engine, cache_entries=cache_entries
        )
        if profile or jit:
            self.runtime.enable_profiling()
        if jit:
            self.runtime.enable_jit()
        self.store_scope = store_scope
        if store is not None and not isinstance(store, TuningStore):
            store = TuningStore(store)
        self.store = store
        self.runtime.store = store

    # -- execution (pure delegation) ----------------------------------------
    def upload(self, values, dtype) -> int:
        return self.runtime.upload(values, dtype)

    def empty(self, shape: Sequence[int], dtype) -> int:
        return self.runtime.empty(shape, dtype)

    def download(self, addr: int, shape: Sequence[int], dtype):
        return self.runtime.download(addr, shape, dtype)

    def launch(self, program, args, **kwargs):
        return self.runtime.launch(program, args, **kwargs)

    def capture(self, num_streams: int = 4):
        return self.runtime.capture(num_streams)

    def synchronize(self) -> None:
        self.runtime.synchronize()

    # -- cache / profiler introspection -------------------------------------
    @property
    def cache(self):
        """The runtime's kernel specialization cache."""
        return self.runtime.cache

    @property
    def profiler(self) -> Profile | None:
        return self.runtime.profiler

    @property
    def jit(self):
        """The attached JIT manager (compiled tier), or None."""
        return self.runtime.jit

    def metrics(self) -> dict:
        """The owned runtime's unified counter snapshot (frozen
        dot-namespaced keys; see :mod:`repro.obs.metrics`)."""
        return self.runtime.metrics()

    # -- persistent tuning store ---------------------------------------------
    def warm_start(self) -> dict:
        """Spend the store's persisted state in this process: merge the
        stored profile into the active profiler and seed the JIT manager
        with stored heat and kernels.  Returns a summary dict
        (``profile``/``jit_heat``/``jit_kernels``/``errors``).  Corrupt
        entries are counted in ``errors`` and skipped — warm start never
        fails; the worst outcome is a cold boot."""
        summary = {"profile": False, "jit_heat": 0, "jit_kernels": 0, "errors": 0}
        if self.store is None:
            return summary
        try:
            profile = self.store.load_profile(self.store_scope)
        except VMError:
            profile, summary["errors"] = None, summary["errors"] + 1
        if profile is not None:
            self.runtime.enable_profiling().merge(profile)
            summary["profile"] = True
        if self.runtime.jit is not None:
            try:
                payload = self.store.load_jit(self.store_scope)
            except VMError:
                payload, summary["errors"] = None, summary["errors"] + 1
            if payload is not None:
                heat = {
                    spec: seconds
                    for spec, seconds in payload["heat"].items()
                    if isinstance(spec, str)
                    and isinstance(seconds, (int, float))
                    and not isinstance(seconds, bool)
                }
                self.runtime.jit.preheat(heat)
                summary["jit_heat"] = len(heat)
                summary["jit_kernels"] = self.runtime.jit.stage_kernels(
                    payload["kernels"]
                )
        return summary

    def load_stored_plan(self, graph):
        """Re-place ``graph`` under this scope's stored plan for its
        signature, or return None (store off / no entry / corrupt entry
        / plan no longer applicable — every miss degrades)."""
        if self.store is None:
            return None
        try:
            plan = self.store.load_plan(self.store_scope, graph.signature)
            if plan is None:
                return None
            return graph.apply_plan(plan)
        except VMError:
            return None

    def publish_store(self, graphs: Sequence = ()) -> dict:
        """Persist this engine's state: the recorded profile, each given
        graph's placement, and (when the compiled tier is attached) JIT heat + kernel sources.  Returns a summary dict.
        Publication is best-effort per artifact; one failure does not
        block the others."""
        summary = {"profile": False, "plans": 0, "jit_kernels": 0}
        if self.store is None:
            return summary
        profiler = self.runtime.profiler
        if profiler is not None and len(profiler.nodes) > 0:
            self.store.publish_profile(self.store_scope, profiler)
            summary["profile"] = True
        for graph in graphs:
            try:
                self.store.publish_plan(
                    self.store_scope, graph.signature, graph.plan()
                )
                summary["plans"] += 1
            except VMError:
                continue
        if self.runtime.jit is not None:
            summary["jit_kernels"] = self.store.publish_jit(
                self.store_scope, self.runtime.jit, profiler
            )
        return summary

    # -- JSON state transport ------------------------------------------------
    def profile_json(self) -> str:
        """The engine's recorded profile as versioned JSON (an empty
        profile when profiling was never enabled): what a worker ships
        back to the router after serving a trace."""
        profiler = self.runtime.profiler
        return (profiler if profiler is not None else Profile()).to_json()

    def absorb_profile_json(self, text: str) -> Profile:
        """Merge a profile recorded by another process into this
        engine's active profiler (enabling profiling if it was off).
        Returns the active profiler.  Specialization-key strings are
        deterministic across processes, so the absorbed records are
        immediately consultable by ``graph.optimize`` and
        ``tune_profiled`` — the fleet-warm-start path."""
        incoming = Profile.from_json(text)
        active = self.runtime.enable_profiling()
        active.merge(incoming)
        return active

    @staticmethod
    def plan_json(graph) -> str:
        """A captured graph's transportable schedule as versioned JSON."""
        return graph.plan().to_json()

    @staticmethod
    def apply_plan_json(graph, text: str) -> ExecutionGraph:
        """Re-place a local graph under a JSON plan recorded elsewhere
        (see :meth:`~repro.runtime.graphs.ExecutionGraph.apply_plan` for
        the validation contract)."""
        return graph.apply_plan(GraphPlan.from_json(text))

    def __repr__(self) -> str:
        return (
            f"LocalEngine({self.runtime.cache!r}, "
            f"profiling={'on' if self.runtime.profiler is not None else 'off'}, "
            f"jit={'on' if self.runtime.jit is not None else 'off'})"
        )
