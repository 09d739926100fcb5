"""Correctness checks that do not rely on the code under test.

Three independent witnesses:

- the numpy reference ``ops.reference_quantized_matmul`` (dequantize on
  the host, one float64 matmul), compared with the tests' error measure
  ``|out - ref| / (|ref| + 0.5)``;
- a sequential-engine oracle: the same ``QuantizedLinear`` run on the
  one-block-at-a-time interpreter, with no streams, graphs, batched
  engine or compiled tier, digested the way the decode loop digests a
  finished request;
- bit-equality between the interpreted and the compiled tier.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def tolerance(k: int) -> float:
    """Largest error measure accepted for a reduction over ``k`` terms.

    The kernel tests accept 0.02 at k <= 128.  The kernel dequantizes the
    weights to float16 before the dot, so every product carries a float16
    rounding and the absolute error grows with k: at k = 256 (f6) it
    measured up to 0.019 over 1500 activations, so the bound doubles
    there rather than sitting at the edge of the measured tail.
    """
    return 0.02 * max(1.0, k / 128.0)


def error_measure(out, ref) -> float:
    """The tests' error measure; non-finite output never passes."""
    out = np.asarray(out, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    return float(np.max(np.abs(out - ref) / (np.abs(ref) + 0.5)))


def row_digest(row: np.ndarray) -> str:
    """A decode output's digest, as the batching loop computes it for a
    finished request (sha256 of the downloaded ``[1, n]`` buffer)."""
    return hashlib.sha256(np.ascontiguousarray(row).tobytes()).hexdigest()[:16]


def digest_mismatches(served: dict, oracle: dict) -> list:
    """Request ids whose served digest differs from the oracle's, or
    that were served without being asked for, or asked for and lost."""
    bad = [rid for rid, digest in served.items() if oracle.get(rid) != digest]
    bad.extend(rid for rid in oracle if rid not in served)
    return sorted(set(bad))


def decode_activations(rids, k: int) -> np.ndarray:
    """The activation rows the decode loop draws for these request ids
    (``default_rng(rid)``, one ``[1, k]`` row each)."""
    return np.concatenate(
        [np.random.default_rng(rid).standard_normal((1, k)) for rid in rids]
    )


def spec_weight(spec) -> np.ndarray:
    """The decode weight a :class:`~repro.serving.WorkerSpec` rebuilds."""
    return np.random.default_rng(spec.weight_seed).standard_normal(
        (spec.linear_k, spec.linear_n)
    )


def sequential_oracle(spec, rids) -> tuple[dict, float]:
    """Digests of the spec's decode linear on each rid's activation, run
    on the sequential engine, and the largest error measure of those
    outputs against the numpy reference.

    All rows go through one ``m = len(rids)`` call: each output row
    depends only on its own activation row, so row ``i`` is bit-equal to
    an ``m = 1`` call on activation ``i`` (the digests then match the
    served ones, which is what the check asserts).
    """
    from repro import ops
    from repro.dtypes import float16
    from repro.dtypes.registry import dtype_from_name
    from repro.runtime import Runtime

    rids = list(rids)
    dtype = dtype_from_name(spec.linear_dtype)
    weight = spec_weight(spec)
    linear = ops.prepare_linear(
        weight, dtype, group_size=spec.linear_group,
        runtime=Runtime(engine="sequential"),
    )
    activations = decode_activations(rids, spec.linear_k)
    out = linear(activations)
    ref = ops.reference_quantized_matmul(
        float16.quantize(activations), weight, dtype, spec.linear_group
    )
    digests = {rid: row_digest(out[i : i + 1]) for i, rid in enumerate(rids)}
    return digests, error_measure(out, ref)
