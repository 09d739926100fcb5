"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload decode-default --seed 1 --seconds 30 --trace 0

Runs the workload's set-up ``SETUP_REPEATS`` times, then whole rounds of
its timed operations for ``--seconds`` seconds, checks every output, and
prints a table followed, on the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` is the traced run: the layers' public calls are wrapped
(see ``layers.py``), rounds alternate traced and untraced (the pairs
give the tracing overhead), the per-layer metrics are reported, a self
time table is printed, and the spans are written as Chrome trace-event
JSON (``--trace-out``, default ``perfbench/out/<workload>-seed<seed>.json``)
that ``python -m repro trace summarize`` and Perfetto read.

Run from the repository root: the program under test is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The layers of the self-time table, in stack order.
LAYERS = ("llm", "runtime", "graphs", "streams", "jit", "profiling",
          "vm", "compiler", "kernels", "quant", "dtypes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(row) -> float:
    return 1e3 * _ratio(row[1], row[0])


def layer_metrics(workload, recorder, rounds, flags, delta, after) -> dict:
    """Per-layer metrics of a traced run (names as in BENCHMARK.json)."""
    import layers
    import workloads as wl

    rounds_only = ("rounds",)
    traced = [r for r, on in zip(rounds, flags) if on]
    n_traced = len(traced)
    steps = sum(r["steps"] for r in traced)
    tokens = sum(r["tokens"] for r in traced)
    wall = sum(r["timed_s"] for r in traced)
    all_tokens = sum(r["tokens"] for r in rounds)

    def rows(**kw):
        return recorder.rows(buckets=kw.pop("buckets", rounds_only), **kw)

    m = {}
    for layer in LAYERS:
        m[f"self.{layer}_ms"] = 1e3 * _ratio(rows(layer=layer, main=True)[2], n_traced)
    covered = rows(main=True, toplevel=True)[1]
    m["self.unattributed_ms"] = 1e3 * _ratio(wall - covered, n_traced)
    m["self.wall_ms"] = 1e3 * _ratio(wall, n_traced)

    m["llm.self_ms_per_step"] = 1e3 * _ratio(
        rows(name="ContinuousBatchingSimulator.run", main=True)[2], steps)
    launch = rows(name="Runtime.launch")
    m["runtime.launch_ms"] = _mean_ms(launch)
    m["runtime.dispatch_ms"] = 1e3 * _ratio(launch[2], launch[0])
    m["runtime.spec_cache.hit_ratio"] = _ratio(
        after["runtime.spec_cache.hits"],
        after["runtime.spec_cache.hits"] + after["runtime.spec_cache.misses"])
    m["graphs.replay_ms"] = _mean_ms(rows(name="ExecutionGraph.replay"))
    m["streams.run_s"] = _ratio(rows(name=layers.ENGINE_SPANS, main=False)[3], n_traced)
    waits = rows(name=("ExecutionGraph.replay", "StreamPool.synchronize"), main=True)
    m["streams.wait_s"] = _ratio(waits[1] - waits[3], n_traced)
    m["jit.run_ms"] = _mean_ms(rows(name="JitManager.run"))
    m["jit.lower_ms"] = _mean_ms(rows(name="lower_program", buckets=("setup", "rounds")))
    m["jit.compiled_share"] = _ratio(delta["jit.promotions"], delta["runtime.launches"])
    m["jit.source_bytes"] = wl.median(recorder.notes_for("jit.source_bytes"))
    m["profiling.record_us"] = 1e3 * _mean_ms(rows(name="Profile.record"))
    m["vm.batched_launch_ms"] = _mean_ms(
        rows(name=("BatchedExecutor.launch", "BatchedExecutor.launch_many")))
    m["vm.bits_loaded_per_token"] = _ratio(
        delta["runtime.stats.global_bits_loaded"], all_tokens)
    m["vm.instructions_per_token"] = _ratio(delta["runtime.stats.instructions"], all_tokens)
    codec = rows(layer="dtypes")
    m["dtypes.codec_ms_per_token"] = 1e3 * _ratio(codec[1], tokens)
    m["dtypes.codec_calls_per_token"] = _ratio(codec[0], tokens)
    everywhere = ("setup", "rounds")
    m["quant.prepare_ms"] = 1e3 * _ratio(
        rows(layer="quant", buckets=everywhere)[1],
        rows(name="quantize_weight", buckets=everywhere)[0])
    m["kernels.template_ms"] = _mean_ms(rows(name="quantized_matmul_program", buckets=everywhere))
    m["compiler.compile_ms"] = _mean_ms(rows(name="compile_program", buckets=everywhere))
    m["compiler.source_bytes"] = wl.median(recorder.notes_for("compiler.source_bytes"))
    pairs = [
        100.0 * (on["timed_s"] / off["timed_s"] - 1.0)
        for on, off in zip(rounds[0::2], rounds[1::2])
    ]
    m["trace.overhead_pct"] = wl.median(pairs)
    m["trace.dropped_spans"] = float(recorder.dropped)
    for dtype in _spectrum_names():
        m[f"spectrum.call_ms.{dtype}"] = 0.0
        m[f"spectrum.compiled_call_ms.{dtype}"] = 0.0
    m.update(workload.extra_layer_metrics(rounds, flags))
    return m


def _spectrum_names() -> list:
    from repro.dtypes import all_weight_dtypes

    return [str(d) for d in all_weight_dtypes()]


def print_self_table(metrics: dict) -> None:
    wall = metrics["self.wall_ms"]
    print(f"{'layer':<14}{'self ms/round':>16}{'share':>9}")
    for layer in LAYERS + ("unattributed",):
        value = metrics[f"self.{layer}_ms"]
        print(f"{layer:<14}{value:>16.3f}{100 * (value / wall if wall else 0):>8.1f}%")
    print(f"{'wall':<14}{wall:>16.3f}{100.0:>8.1f}%")
    print(f"{'stream threads':<14}{1e3 * metrics['streams.run_s']:>16.3f}  CPU ms/round, off the host thread")


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        trace_out: str | None) -> dict | None:
    """One run; None when some kind of timed operation never succeeded."""
    import workloads as wl

    recorder = None
    if traced:
        import layers

        recorder = layers.Recorder()
        recorder.install()
    workload = wl.WORKLOADS[workload_name]()
    try:
        workload.prepare(seed)
        setup_s = []
        state = None
        for _ in range(wl.SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            if recorder is not None:
                recorder.enabled = True
            t0 = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - t0)
            if recorder is not None:
                recorder.enabled = False
                recorder.span("setup", "bench", t0, setup_s[-1])
        try:
            before = workload.counters(state) if traced else None
            if recorder is not None:
                recorder.bucket = "rounds"
            rounds, flags = [], []
            start = time.perf_counter()
            while True:
                clock = wl.Clock(recorder)
                # Traced runs alternate traced and untraced rounds; each
                # pair is one sample of the tracing overhead.
                clock.tracing = traced and len(rounds) % 2 == 0
                t0 = time.perf_counter()
                row = workload.round(state, clock)
                row["timed_s"] = clock.timed_s
                if recorder is not None and clock.tracing:
                    recorder.span("round", "bench", t0, time.perf_counter() - t0)
                rounds.append(row)
                flags.append(clock.tracing)
                done = time.perf_counter() - start >= seconds
                if done and (not traced or len(rounds) % 2 == 0):
                    break
            after = workload.counters(state) if traced else None
        finally:
            workload.close(state)
    finally:
        if recorder is not None:
            recorder.uninstall()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = workload.prepare_ok and all(r["wrong"] == 0 for r in rounds)
    summary = (f"{workload_name}: seed {seed}, {len(rounds)} rounds, {attempted} operations, "
               f"{failed} failed, correct={correct}")
    try:
        if traced:
            delta = {k: after[k] - before.get(k, 0) for k in after}
            values = layer_metrics(workload, recorder, rounds, flags, delta, after)
        else:
            values = workload.end_to_end(rounds, setup_s)
    except wl.NoSamples as exc:
        print(f"{summary}\nerror: {exc}; no result", file=sys.stderr)
        return None
    if traced:
        units = layer_units()
        print_self_table(values)
        path = trace_out or os.path.join(HERE, "out", f"{workload_name}-seed{seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        recorder.write_trace(path, f"perfbench {workload_name}")
        print(f"trace: {os.path.relpath(path)} ({len(recorder.events)} spans, "
              f"{recorder.dropped} dropped)")
    else:
        values["peak_rss_mb"] = wl.peak_rss_mb()
        units = end_to_end_units()
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metric names disagree with BENCHMARK.json: {sorted(missing)}")
    print(summary)
    for name in sorted(values):
        print(f"  {name:<40} {values[name]:>14.6g} {units[name]}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in sorted(values)
        },
    }


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}


def layer_units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="Chrome trace path of a traced run")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: the program under test is missing ({src}/repro); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
