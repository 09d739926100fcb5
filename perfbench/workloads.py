"""The benchmark's workloads.

Each workload makes its inputs from the seed (``prepare``, untimed,
which also computes the check data), builds everything its timed
operations need (``setup``, timed as ``setup_s``), then runs whole
rounds of the same operations (``round``) until the run's seconds are
spent.  Every round checks its outputs against the data ``prepare``
computed.

All are offline batches run from one process and thread: arrival times
are virtual, so they only shape the batch make-up.

Every time is taken from many short samples spread over the whole run.
On a shared host a sample's time swings with other tenants' load from
one moment to the next.  The fastest of a run's kernel calls and
compiles is far steadier from run to run than their mean or median;
decode steps report their median (see ``DecodeWorkload.end_to_end``
and the README).
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

import checks

#: Set-ups per run; ``setup_s`` is their median, the last one is kept.
SETUP_REPEATS = 5
#: The ROADMAP's reference trace: an overloaded Poisson burst (the 48
#: arrivals land within a few virtual milliseconds, so every decode step
#: runs a full batch).
RATE_RPS = 10_000.0
PROMPT_TOKENS = 128
OUTPUT_TOKENS = 16
DECODE_REQUESTS = 48
#: Warm-up trace: one full batch for two steps, enough to
#: capture the batch's decode graph and to push the JIT past its
#: default promotion threshold.
WARM_OUTPUT_TOKENS = 2
#: Request ids of one seed's traces start at ``seed * RID_STRIDE``.
RID_STRIDE = 1000
#: Figure 11's batch-16 spectrum shape.
SPECTRUM_M, SPECTRUM_K, SPECTRUM_N = 16, 128, 32
SPECTRUM_GROUP = 128

TIERS = ("batched", "compiled")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class NoSamples(RuntimeError):
    """Every timed operation of some kind failed: there is no time to report."""


def fastest(values) -> float:
    """The fastest sample of a run.  On a shared host the slow samples
    measure other tenants' load as much as the program; the fastest one
    is steadier from run to run (see README)."""
    values = list(values)
    if not values:
        raise NoSamples("no timed operation of this kind succeeded")
    return float(min(values))


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def peak_rss_mb() -> float:
    """Peak resident memory (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Times the operations of a round; in a traced run it switches the
    layer recorder on only inside them, so spans cover timed work."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.tracing = False
        self.timed_s = 0.0

    @contextmanager
    def timed(self):
        lap = _Lap()
        recorder = self.recorder if self.tracing else None
        if recorder is not None:
            recorder.enabled = True
        t0 = time.perf_counter()
        try:
            yield lap
        finally:
            lap.s = time.perf_counter() - t0
            if recorder is not None:
                recorder.enabled = False
            self.timed_s += lap.s


class _Lap:
    s = 0.0


def _failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc()


class KernelProbe:
    """One quantized-linear specialization on its own ``Runtime``,
    called warm on the interpreted tier (the batched engine) and on the
    compiled tier, each into its own output buffer."""

    def __init__(self, weight, dtype, group: int, activation, reference) -> None:
        from repro import ops
        from repro.dtypes import float16
        from repro.runtime import Runtime

        self.runtime = Runtime()
        self.linear = ops.prepare_linear(
            weight, dtype, group_size=group, runtime=self.runtime
        )
        self.m = activation.shape[0]
        self.reference = reference
        self.k = self.linear.k
        a_addr = self.runtime.upload(float16.quantize(activation), float16)
        self.program = self.linear.program_for(self.m)
        self.out = {}
        self.args = {}
        for tier in TIERS:
            self.out[tier] = self.runtime.empty([self.m, self.linear.n], float16)
            self.args[tier] = [a_addr, self.linear.b_addr, self.linear.s_addr, self.out[tier]]
        self.out_bytes = (self.m * self.linear.n * float16.nbits + 7) // 8
        for tier in TIERS:  # first calls: specialization compile, JIT lowering
            self.runtime.launch(self.program, self.args[tier], engine=tier)

    def compile_s(self, clock: Clock) -> float:
        """Template instantiation + ``compile_program`` + ``lower_program``
        of a fresh copy of the probe's program (nothing executes)."""
        from repro import kernels
        from repro.compiler import lower, pipeline
        from repro.dtypes import float16

        linear = self.linear
        with clock.timed() as lap:
            program = kernels.quantized_matmul_program(
                self.m, linear.n, linear.k, float16, linear.scheme, linear.config
            )
            kernel = pipeline.compile_program(program)
            lower.lower_program(kernel.program, self.args["compiled"], self.runtime.memory)
        return lap.s

    def call(self, tier: str, clock: Clock) -> tuple[float, np.ndarray, bool]:
        """One warm call; the output buffer is poisoned (NaN) first, so a
        call that writes nothing cannot pass the checks.  Also says
        whether the call ran a compiled kernel: the runtime falls back to
        the batched engine, silently, when lowering declines."""
        from repro.dtypes import float16

        addr = self.out[tier]
        self.runtime.memory.buffer[addr : addr + self.out_bytes] = 0xFF
        promotions = self.runtime.jit.promotions
        with clock.timed() as lap:
            self.runtime.launch(self.program, self.args[tier], engine=tier)
        ran_compiled = self.runtime.jit.promotions > promotions
        out = self.runtime.download(addr, [self.m, self.linear.n], float16)
        return lap.s, out, ran_compiled

    def wrong(self, outputs: dict, ran_compiled: dict) -> int:
        """Checks of one interpreted/compiled pair that failed."""
        bad = 0
        if ran_compiled["batched"] or not ran_compiled["compiled"]:
            bad += 1
        if outputs["batched"].tobytes() != outputs["compiled"].tobytes():
            bad += 1
        if checks.error_measure(outputs["batched"], self.reference) >= checks.tolerance(self.k):
            bad += 1
        return bad

    def probe_round(self, clock: Clock) -> dict:
        """One compile timing and one checked call pair."""
        row = {"compile_s": [], "batched_s": [], "compiled_s": [],
               "attempted": 3, "failed": 0, "wrong": 0}
        try:
            row["compile_s"].append(self.compile_s(clock))
        except Exception:  # noqa: BLE001 — counted, the run goes on
            _failed("compile")
            row["failed"] += 1
        try:
            outputs, ran_compiled = {}, {}
            for tier in TIERS:
                seconds, outputs[tier], ran_compiled[tier] = self.call(tier, clock)
                row[f"{tier}_s"].append(seconds)
        except Exception:  # noqa: BLE001
            _failed("probe call")
            row["failed"] += 2
        else:
            row["wrong"] += self.wrong(outputs, ran_compiled)
        return row


def probe_for_spec(spec, rid: int):
    """The inputs of a kernel probe of a spec's decode linear (``m = 1``,
    activation of request ``rid``): weight, dtype, activation, reference."""
    from repro import ops
    from repro.dtypes import float16
    from repro.dtypes.registry import dtype_from_name

    dtype = dtype_from_name(spec.linear_dtype)
    weight = checks.spec_weight(spec)
    activation = checks.decode_activations([rid], spec.linear_k)
    reference = ops.reference_quantized_matmul(
        float16.quantize(activation), weight, dtype, spec.linear_group
    )
    return weight, dtype, activation, reference


def analytic_steps(spec, batches) -> int:
    """Decode steps the batching loop runs on ``batches`` (each served by
    its own ``run``), counted on an analytic twin of the spec's
    simulator: scheduling does not depend on the kernel in the loop."""
    from repro.llm.batching import ContinuousBatchingSimulator

    sim = ContinuousBatchingSimulator(
        spec.model_config(), spec.serving_config(), max_batch=spec.max_batch
    )
    count = [0]
    step = sim.engine.decode_step_latency

    def counting(*args, **kwargs):
        count[0] += 1
        return step(*args, **kwargs)

    sim.engine.decode_step_latency = counting
    for batch in batches:
        sim.run(batch)
    return count[0]


def sum_metrics(snapshots) -> dict:
    total: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            total[key] = total.get(key, 0) + value
    return total


class Workload:
    """One set of inputs and the operations run on them."""

    name = ""

    def prepare(self, seed: int) -> None:
        """Make the inputs and the check data (untimed)."""

    def setup(self):
        raise NotImplementedError

    def close(self, state) -> None:
        """Release what ``setup`` started."""

    def round(self, state, clock: Clock) -> dict:
        raise NotImplementedError

    def counters(self, state) -> dict:
        """The program's own ``metrics()`` snapshot, summed."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """A digest of the generated inputs (seed-dependence test)."""
        raise NotImplementedError

    def end_to_end(self, rounds: list, setup_s: list) -> dict:
        raise NotImplementedError

    def extra_layer_metrics(self, rounds: list, flags: list) -> dict:
        return {}

    @staticmethod
    def _probe_metrics(rounds: list) -> dict:
        return {
            key: 1e3 * fastest(s for r in rounds for s in r[samples])
            for key, samples in (("compile_ms", "compile_s"), ("call_ms", "batched_s"),
                                 ("compiled_call_ms", "compiled_s"))
        }


class DecodeWorkload(Workload):
    """A ``WorkerSpec`` simulator serving the burst in-process, plus a
    kernel probe of its decode linear.

    The burst is served one wave per round: its requests in arrival
    order, ``max_batch`` at a time, each wave one ``run``.  All arrive
    within a few virtual milliseconds and decode the same number of
    tokens, so a single ``run`` of the whole burst decodes exactly these
    waves, one full batch after another.  Serving them one per round
    spreads the trace samples, and the probe calls between them, over
    the whole run.
    """

    def __init__(self, name: str, spec_kwargs: dict) -> None:
        self.name = name
        self.spec_kwargs = spec_kwargs

    def prepare(self, seed: int) -> None:
        from repro.serving import WorkerSpec, poisson_trace

        self.spec = WorkerSpec(**self.spec_kwargs)
        base = seed * RID_STRIDE
        self.trace = poisson_trace(
            DECODE_REQUESTS, RATE_RPS, PROMPT_TOKENS, OUTPUT_TOKENS,
            seed=seed, rid_base=base,
        )
        self.warm = poisson_trace(
            self.spec.max_batch, RATE_RPS, PROMPT_TOKENS, WARM_OUTPUT_TOKENS,
            seed=seed + 1, rid_base=base + DECODE_REQUESTS,
        )
        batch = self.spec.max_batch
        self.waves = [self.trace[i : i + batch] for i in range(0, len(self.trace), batch)]
        self.wave_steps = [analytic_steps(self.spec, [wave]) for wave in self.waves]
        oracle, self.oracle_error = checks.sequential_oracle(
            self.spec, [r.rid for r in self.trace]
        )
        self.wave_oracles = [{r.rid: oracle[r.rid] for r in wave} for wave in self.waves]
        self.probe_inputs = probe_for_spec(self.spec, self.trace[0].rid)
        self.prepare_ok = self.oracle_error < checks.tolerance(self.spec.linear_k)

    def fingerprint(self) -> str:
        text = repr([(r.rid, r.arrival_s, r.output_tokens) for r in self.trace + self.warm])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def setup(self):
        sim = self.spec.build_simulator()
        sim.run(self.warm)
        # The batching loop asks its analytic engine for each decode
        # step's virtual latency just before the step's kernels run, so
        # the calls mark where each step starts.
        marks = []
        latency = sim.engine.decode_step_latency

        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            return latency(*args, **kwargs)

        sim.engine.decode_step_latency = marked
        weight, dtype, activation, reference = self.probe_inputs
        probe = KernelProbe(weight, dtype, self.spec.linear_group, activation, reference)
        return {"sim": sim, "probe": probe, "waves": 0, "marks": marks}

    def close(self, state) -> None:
        if self.spec.num_streams > 0:
            state["sim"].decode_linear.runtime.stream_pool().shutdown()

    def counters(self, state) -> dict:
        return state["sim"].metrics()

    def round(self, state, clock: Clock) -> dict:
        index = state["waves"] % len(self.waves)
        state["waves"] += 1
        wave, steps = self.waves[index], self.wave_steps[index]
        row = {"steps": steps, "tokens": sum(r.output_tokens for r in wave),
               "attempted": len(wave), "failed": 0, "wrong": 0, "step_s": []}
        marks = state["marks"]
        marks.clear()
        try:
            with clock.timed():
                result = state["sim"].run(wave)
            end = time.perf_counter()
        except Exception:  # noqa: BLE001 — counted, the run goes on
            _failed(f"{self.name} trace")
            row["failed"] = len(wave)
        else:
            # A step lasts from its mark to the next (the last one to the
            # end of the run, which digests the finished requests).
            row["step_s"] = [b - a for a, b in zip(marks, marks[1:] + [end])]
            row["wrong"] += int(len(marks) != steps)
            served = {r.request.rid: r.output_digest for r in result.results}
            row["wrong"] += len(checks.digest_mismatches(served, self.wave_oracles[index]))
            # Properties of the loop itself: one launch per token, and
            # (graphed) one capture or replay per decode step.
            row["wrong"] += int(result.kernel_launches != row["tokens"])
            if self.spec.use_graphs and self.spec.num_streams > 0:
                row["wrong"] += int(result.graph_captures + result.graph_replays != steps)
        # The probe is timed on its own clock: it stays out of the traced
        # spans and of the round's timed seconds, which are the trace's.
        probe = state["probe"].probe_round(Clock())
        for key in ("attempted", "failed", "wrong"):
            row[key] += probe.pop(key)
        row.update(probe)
        return row

    def end_to_end(self, rounds: list, setup_s: list) -> dict:
        # The median step, not the fastest: with streams, step times are
        # bimodal (a few percent of the steps take about half as long as
        # the rest), so the fastest step is a rare outlier.
        steps = [s for r in rounds for s in r["step_s"]]
        if not steps:
            raise NoSamples("no decode trace was served")
        step_s = median(steps)
        metrics = {
            "setup_s": median(setup_s),
            "decode_step_ms": 1e3 * step_s,
            # Every step decodes a full batch: one token per request.
            "tokens_per_s": self.spec.max_batch / step_s,
        }
        metrics.update(self._probe_metrics(rounds))
        return metrics


class SpectrumWorkload(Workload):
    """All 21 Figure-11 weight dtypes at the batch-16 shape, each on a
    fresh ``Runtime``: compile timings and warm calls on both tiers."""

    name = "spectrum"

    def prepare(self, seed: int) -> None:
        from repro import ops
        from repro.dtypes import all_weight_dtypes, float16

        rng = np.random.default_rng(seed)
        self.cases = []
        for dtype in all_weight_dtypes():
            activation = rng.standard_normal((SPECTRUM_M, SPECTRUM_K))
            weight = rng.standard_normal((SPECTRUM_K, SPECTRUM_N))
            reference = ops.reference_quantized_matmul(
                float16.quantize(activation), weight, dtype, SPECTRUM_GROUP
            )
            self.cases.append((dtype, weight, activation, reference))
        self.prepare_ok = True

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for _, weight, activation, _ in self.cases:
            h.update(weight.tobytes())
            h.update(activation.tobytes())
        return h.hexdigest()[:16]

    def setup(self):
        return [
            KernelProbe(weight, dtype, SPECTRUM_GROUP, activation, reference)
            for dtype, weight, activation, reference in self.cases
        ]

    def counters(self, state) -> dict:
        return sum_metrics(probe.runtime.metrics() for probe in state)

    def round(self, state, clock: Clock) -> dict:
        row = {"steps": 0, "tokens": 0,
               "attempted": 0, "failed": 0, "wrong": 0, "per_dtype": {}}
        for probe in state:
            one = probe.probe_round(clock)
            for key in ("attempted", "failed", "wrong"):
                row[key] += one.pop(key)
            row["per_dtype"][str(probe.linear.scheme.dtype)] = one
            row["tokens"] += SPECTRUM_M * (len(one["batched_s"]) + len(one["compiled_s"]))
        return row

    def _per_dtype(self, rounds: list, key: str) -> dict:
        names = rounds[0]["per_dtype"].keys()
        return {
            name: fastest(s for r in rounds for s in r["per_dtype"][name][key])
            for name in names
        }

    def end_to_end(self, rounds: list, setup_s: list) -> dict:
        compile_s = self._per_dtype(rounds, "compile_s")
        batched = self._per_dtype(rounds, "batched_s")
        compiled = self._per_dtype(rounds, "compiled_s")
        # A "decode step" here is one warm batch-16 call (16 tokens): the
        # mean over both tiers and all dtypes of the fastest such call.
        calls = list(batched.values()) + list(compiled.values())
        step_s = sum(calls) / len(calls)
        return {
            "setup_s": median(setup_s),
            "decode_step_ms": 1e3 * step_s,
            "tokens_per_s": SPECTRUM_M / step_s,
            "compile_ms": 1e3 * median(compile_s.values()),
            "call_ms": 1e3 * geomean(batched.values()),
            "compiled_call_ms": 1e3 * geomean(compiled.values()),
        }

    def extra_layer_metrics(self, rounds: list, flags: list) -> dict:
        untraced = [r for r, traced in zip(rounds, flags) if not traced] or rounds
        out = {}
        for key, label in (("batched_s", "call_ms"), ("compiled_s", "compiled_call_ms")):
            for name, seconds in self._per_dtype(untraced, key).items():
                out[f"spectrum.{label}.{name}"] = 1e3 * seconds
        return out


WORKLOADS = {
    "decode-default": lambda: DecodeWorkload("decode-default", {}),
    "decode-jit-wide": lambda: DecodeWorkload(
        "decode-jit-wide",
        {"linear_k": 256, "linear_n": 64, "linear_dtype": "f6",
         "num_streams": 0, "jit": True},
    ),
    "spectrum": SpectrumWorkload,
}
