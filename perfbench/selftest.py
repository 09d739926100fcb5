"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

They check the checks (a tampered digest, a perturbed output, a
reference computed for the wrong dtype and a compiled-tier call that
fell back to the batched engine must each fail), that the printed
metric names are exactly those of ``BENCHMARK.json``, that the seed
changes the inputs but not the names, and that the command fails without
printing a result where the program under test is missing or no timed
operation succeeded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def printed():
    """The last stdout line of one short run per workload and mode."""
    out = {}
    for workload in NAMES:
        for trace in (0, 1):
            done = run_bench(workload, 1, trace)
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def test_tampered_digest_fails():
    oracle = {1: "aa", 2: "bb", 3: "cc"}
    assert checks.digest_mismatches(dict(oracle), oracle) == []
    assert checks.digest_mismatches({1: "aa", 2: "bX", 3: "cc"}, oracle) == [2]
    assert checks.digest_mismatches({1: "aa", 3: "cc"}, oracle) == [2]
    assert checks.digest_mismatches({**oracle, 4: "dd"}, oracle) == [4]


def test_sequential_oracle_matches_served_digests():
    from repro.serving import WorkerSpec, poisson_trace

    spec = WorkerSpec(num_streams=0)
    trace = poisson_trace(4, 10_000.0, 128, 2, seed=5, rid_base=70)
    oracle, error = checks.sequential_oracle(spec, [r.rid for r in trace])
    served = {r.request.rid: r.output_digest for r in spec.build_simulator().run(trace).results}
    assert checks.digest_mismatches(served, oracle) == []
    assert error < checks.tolerance(spec.linear_k)


def _probe(dtype_name: str, seed: int = 3):
    from repro import ops
    from repro.dtypes import float16
    from repro.dtypes.registry import dtype_from_name

    dtype = dtype_from_name(dtype_name)
    rng = np.random.default_rng(seed)
    activation = rng.standard_normal((16, 128))
    weight = rng.standard_normal((128, 32))
    reference = ops.reference_quantized_matmul(float16.quantize(activation), weight, dtype, 128)
    probe = workloads.KernelProbe(weight, dtype, 128, activation, reference)
    clock = workloads.Clock()
    calls = {tier: probe.call(tier, clock) for tier in workloads.TIERS}
    outputs = {tier: call[1] for tier, call in calls.items()}
    ran_compiled = {tier: call[2] for tier, call in calls.items()}
    return probe, outputs, ran_compiled


def test_perturbed_output_fails():
    probe, outputs, ran_compiled = _probe("i6")
    assert ran_compiled == {"batched": False, "compiled": True}
    assert probe.wrong(outputs, ran_compiled) == 0
    ref = probe.reference
    for tier in workloads.TIERS:
        bad = {t: o.copy() for t, o in outputs.items()}
        bad[tier][3, 5] += 0.05 * (abs(ref[3, 5]) + 0.5)
        assert probe.wrong(bad, ran_compiled) >= 1, tier
    stale = {t: o.copy() for t, o in outputs.items()}
    stale["compiled"][:] = np.nan  # a call that wrote nothing
    assert probe.wrong(stale, ran_compiled) >= 1


def test_compiled_tier_fallback_fails():
    """A compiled-tier call that ran the batched engine (lowering
    declined) is bit-equal to the batched tier, and must still fail."""
    probe, outputs, _ = _probe("i6")
    fell_back = {"batched": False, "compiled": False}
    assert probe.wrong(outputs, fell_back) >= 1


def test_no_successful_trace_gives_no_result():
    workload = workloads.WORKLOADS[NAMES[0]]()
    workload.prepare(1)
    rounds = [{"step_s": [], "compile_s": [0.01], "batched_s": [0.01],
               "compiled_s": [0.01]}]
    with pytest.raises(workloads.NoSamples):
        workload.end_to_end(rounds, [0.1])


def _other_width(dtype, dtypes):
    """The dtype of the same family two bits narrower (or wider).

    Neighbours of other families are no test of the check: uN and iN
    dequantize to the same grid (uN carries an offset), f3e1m1's grid
    is u3's, and f7e3m3 and f8e4m3 share a mantissa width, so their
    references agree within the error measure (0.000 to 0.015)."""
    family = [d for d in dtypes if (d.is_float, d.is_signed) == (dtype.is_float, dtype.is_signed)]
    i = family.index(dtype)
    return family[i - 2] if i >= 2 else family[i + 2]


def test_wrong_dtype_reference_fails():
    from repro import ops
    from repro.dtypes import all_weight_dtypes, float16

    spectrum = workloads.SpectrumWorkload()
    spectrum.prepare(2)
    dtypes = all_weight_dtypes()
    for dtype, weight, activation, reference in spectrum.cases:
        probe = workloads.KernelProbe(weight, dtype, 128, activation, reference)
        out = probe.call("batched", workloads.Clock())[1]
        assert checks.error_measure(out, reference) < checks.tolerance(128), dtype
        other = _other_width(dtype, dtypes)
        wrong = ops.reference_quantized_matmul(float16.quantize(activation), weight, other, 128)
        assert checks.error_measure(out, wrong) >= checks.tolerance(128), (dtype, other)


def test_seed_changes_inputs():
    for name in NAMES:
        fingerprints = []
        for seed in (1, 1, 2):
            workload = workloads.WORKLOADS[name]()
            workload.prepare(seed)
            fingerprints.append(workload.fingerprint())
        assert fingerprints[0] == fingerprints[1], name
        assert fingerprints[0] != fingerprints[2], name


def test_printed_names_match_benchmark_json(printed):
    for (workload, trace), result in printed.items():
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {name: v["unit"] for name, v in result["metrics"].items()}
        assert got == expected, (workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), workload


def test_seed_does_not_change_names(printed):
    done = run_bench("spectrum", 2, 0)
    assert done.returncode == 0, done.stderr
    other = json.loads(done.stdout.strip().splitlines()[-1])
    assert other["metrics"].keys() == printed["spectrum", 0]["metrics"].keys()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(NAMES[0], 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
