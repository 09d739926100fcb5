"""Analytical latency models of Tilus and every baseline system.

Each system model reproduces the *mechanisms* the paper identifies, with
calibrated efficiency constants:

- **cuBLAS** (f16): near-roofline GEMM; the common denominator of Fig. 10.
- **Triton**: supports integer types via manual unpacking; pays the
  register-layout conversion through shared memory after casting (paper
  Figure 1(a), step 4 — "a major bottleneck").
- **Ladder**: global-memory layout transform avoids conversion, but *no
  software pipelining* (load and compute serialize, Figure 1(b)) and
  type-level packing restricts bit widths to powers of two.  Its decode
  kernels under-use CUDA/Tensor cores (paper Section 9.4) and it crashes
  on Hopper (Figure 13, "ERR").
- **QuantLLM**: hand-written FP6/FP5 kernels with heuristic configs; no
  sub-channel scales; tuned for very small batches.
- **Marlin**: hand-optimized int4 kernels, Ampere/Ada only; within a few
  percent of Tilus on its one supported type.
- **Tilus**: the paper's system — pipelined weight loading, zero-cost
  register reinterpretation, vectorized PRMT/LOP3 casting.  The dequant
  instruction count comes from the *actual compiler recipes* in
  :mod:`repro.compiler.lowprec`.

All times are seconds.  Constants were calibrated once against the
headline ratios of the paper (1.75x vs Triton, 2.61x vs Ladder, 1.29x vs
QuantLLM, 1.03x vs Marlin); ``benchmarks/bench_headline.py`` recomputes
the modeled ratios and their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.lowprec import cast_cost_per_element
from repro.dtypes import DataType, float16
from repro.errors import UnsupportedKernelError
from repro.perf.gpus import GpuSpec
from repro.perf.workload import MatmulWorkload

#: Kernel launch + tail latency floor (s).
LAUNCH_OVERHEAD = 2.8e-6


def _mem_time(workload: MatmulWorkload, gpu: GpuSpec, efficiency: float) -> float:
    """DRAM time: weights + scales + activations + output."""
    total = (
        workload.weight_bytes
        + workload.scale_bytes
        + workload.act_bytes
        + workload.out_bytes
    )
    return total / (gpu.mem_bandwidth * efficiency)


def _tc_time(workload: MatmulWorkload, gpu: GpuSpec, efficiency: float) -> float:
    """Tensor-core time for the fp16 mma work."""
    return workload.flops / (gpu.tc_fp16_flops * efficiency)


def _grid_utilization(workload: MatmulWorkload, gpu: GpuSpec, block_n: int, split_k: int) -> float:
    """Fraction of SMs occupied by the kernel's thread blocks."""
    import math

    blocks = math.ceil(workload.n / block_n) * max(1, split_k)
    return min(1.0, blocks / gpu.num_sms)


class System:
    """Base class: a kernel provider with a support matrix and a latency
    model."""

    name = "system"
    display = "system"

    def supports(self, workload: MatmulWorkload, gpu: GpuSpec) -> bool:
        try:
            self.check(workload, gpu)
            return True
        except UnsupportedKernelError:
            return False

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        """Raise :class:`UnsupportedKernelError` when unsupported."""

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        raise NotImplementedError


@dataclass
class CuBLAS(System):
    """Vendor half-precision GEMM (the speedup-1.0 reference)."""

    mem_efficiency: float = 0.88
    tc_efficiency: float = 0.75

    name = "cublas"
    display = "cuBLAS (fp16)"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        if workload.weight_dtype.nbits < 16 or not workload.weight_dtype.is_float:
            raise UnsupportedKernelError(
                f"cuBLAS has no kernels for {workload.weight_dtype} weights"
            )

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        compute = _tc_time(workload, gpu, self.tc_efficiency)
        return max(mem, compute) + LAUNCH_OVERHEAD


@dataclass
class Tilus(System):
    """The paper's system (our reproduction).

    Decode: pipelined, so latency is the max of DRAM time and compute
    (dequant + mma), plus launch overhead.  The dequant instruction count
    per element comes from the compiler's PRMT/LOP3 recipes.  Prefill:
    tensor-core bound with a small dequant tax on issue slots.
    """

    mem_efficiency: float = 0.92
    tc_efficiency: float = 0.80
    dequant_throughput_frac: float = 0.038  # of tensor-core fp16 rate
    prefill_dequant_tax: float = 0.92

    name = "tilus"
    display = "Tilus (Ours)"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        w = workload.weight_dtype
        if w.nbits > 16:
            raise UnsupportedKernelError(f"{w} weights exceed 16 bits")

    def dequant_time(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        w = workload.weight_dtype
        if w.nbits >= 16:
            return 0.0
        ops = cast_cost_per_element(w, workload.act_dtype if workload.act_dtype.nbits == 16 else float16)
        throughput = gpu.tc_fp16_flops * self.dequant_throughput_frac
        return workload.weight_elements * ops / throughput

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        self.check(workload, gpu)
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        dequant = self.dequant_time(workload, gpu)
        tc_eff = self.tc_efficiency
        if workload.weight_dtype.nbits < 16:
            tc_eff *= self.prefill_dequant_tax
        tc = _tc_time(workload, gpu, tc_eff)
        # The pipelined kernel overlaps DRAM traffic, tensor-core mma and
        # the INT-pipe dequant sequence; the slowest engine wins.
        return max(mem, tc, dequant) + LAUNCH_OVERHEAD


@dataclass
class Triton(System):
    """Triton with manual sub-byte unpacking (paper Figure 1(a)).

    The post-cast register layout conversion routes the full weight tile
    through shared memory with a block-wide barrier on both sides; that
    stage does not overlap the pipeline, so it adds to the critical path.
    Unpacking without LOP3 fusion costs roughly twice Tilus's cast ops.
    """

    mem_efficiency: float = 0.82
    tc_efficiency: float = 0.65
    conv_bandwidth: float = 18.0e12   # effective shared-memory conv thru-put, B/s
    dequant_throughput_frac: float = 0.0506  # of tensor-core fp16 rate

    name = "triton"
    display = "Triton"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        w = workload.weight_dtype
        if w.is_float and w.nbits < 16:
            raise UnsupportedKernelError(
                f"Triton has no sub-byte float support ({w})"
            )
        if w.nbits not in (1, 2, 4, 8, 16):
            raise UnsupportedKernelError(
                f"manual unpacking in Triton needs power-of-two widths, got {w}"
            )

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        self.check(workload, gpu)
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        w = workload.weight_dtype
        if w.nbits < 16:
            conv = workload.weight_elements * workload.act_dtype.nbits / 8 * 2 / self.conv_bandwidth
            ops = 2.0 * cast_cost_per_element(w, float16)
            dequant = workload.weight_elements * ops / (
                gpu.tc_fp16_flops * self.dequant_throughput_frac
            )
        else:
            conv = dequant = 0.0
        compute = _tc_time(workload, gpu, self.tc_efficiency) + dequant
        return max(mem, compute) + conv + LAUNCH_OVERHEAD


@dataclass
class Ladder(System):
    """Ladder/BitBLAS (paper Figure 1(b)).

    Global layout transformation avoids register conversion, but the
    schedule has no software pipelining: DRAM time and compute time add
    up.  Type-level packing restricts widths to powers of two.  Decode
    kernels pick poor CUDA-core (m < 16) and tensor-core (m >= 16)
    schedules without k-parallelization (paper Section 9.4).  Hopper
    kernels are miscompiled (Figure 13 "ERR").
    """

    mem_efficiency: float = 0.78
    tc_efficiency_prefill: float = 0.52
    tc_efficiency_decode: float = 0.085
    cuda_efficiency_tiny: float = 0.14
    dequant_throughput_frac: float = 0.0506  # of tensor-core fp16 rate

    name = "ladder"
    display = "Ladder"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        if gpu.arch == "hopper":
            raise UnsupportedKernelError(
                "Ladder emits an illegal instruction on Hopper (ERR)"
            )
        w = workload.weight_dtype
        if w.nbits not in (1, 2, 4, 8, 16):
            raise UnsupportedKernelError(
                f"Ladder's type-level packing needs power-of-two widths, got {w}"
            )
        if w.is_float and w.nbits < 16:
            raise UnsupportedKernelError(f"Ladder does not support {w}")

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        self.check(workload, gpu)
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        w = workload.weight_dtype
        if w.nbits < 16:
            dequant = workload.weight_elements * cast_cost_per_element(w, float16) / (
                gpu.tc_fp16_flops * self.dequant_throughput_frac
            )
        else:
            dequant = 0.0
        if workload.m < 16:
            compute = workload.flops / (gpu.cuda_fp16_flops * self.cuda_efficiency_tiny)
        elif workload.m <= 256:
            compute = _tc_time(workload, gpu, self.tc_efficiency_decode)
        else:
            compute = _tc_time(workload, gpu, self.tc_efficiency_prefill)
        # No pipelining: stages serialize.
        return mem + compute + dequant + LAUNCH_OVERHEAD


@dataclass
class QuantLLM(System):
    """Quant-LLM's hand-written FP6/FP5 kernels (float-only, heuristic
    configs, per-channel scales only, small-batch focus)."""

    mem_efficiency: float = 0.78
    tc_efficiency: float = 0.50
    dequant_throughput_frac: float = 0.0455  # of tensor-core fp16 rate
    batch_penalty_threshold: int = 8

    name = "quantllm"
    display = "QuantLLM"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        w = workload.weight_dtype
        if not (w.is_float and w.nbits in (5, 6)):
            raise UnsupportedKernelError(
                f"QuantLLM only ships FP5/FP6 kernels, got {w}"
            )
        if gpu.compute_capability < (8, 0):
            raise UnsupportedKernelError("QuantLLM requires compute capability >= 8.0")

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        self.check(workload, gpu)
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        dequant = workload.weight_elements * 1.3 * cast_cost_per_element(
            workload.weight_dtype, float16
        ) / (gpu.tc_fp16_flops * self.dequant_throughput_frac)
        compute = _tc_time(workload, gpu, self.tc_efficiency) + dequant
        latency = max(mem, compute) + 2 * LAUNCH_OVERHEAD
        if workload.m > self.batch_penalty_threshold:
            # The heuristic split-k policy over-partitions beyond its
            # intended batch range; reduction traffic grows.
            latency *= 1.15
        return latency


@dataclass
class Marlin(System):
    """Marlin: hand-optimized signed-int4 GEMM, Ampere/Ada only."""

    mem_efficiency: float = 0.88
    tc_efficiency: float = 0.70
    dequant_throughput_frac: float = 0.0734  # of tensor-core fp16 rate

    name = "marlin"
    display = "Marlin"

    def check(self, workload: MatmulWorkload, gpu: GpuSpec) -> None:
        w = workload.weight_dtype
        if not (w.is_integer and w.is_signed and w.nbits == 4):
            raise UnsupportedKernelError(f"Marlin is int4-only, got {w}")
        if gpu.arch == "hopper":
            raise UnsupportedKernelError("Marlin does not support Hopper GPUs")

    def matmul_latency(self, workload: MatmulWorkload, gpu: GpuSpec) -> float:
        self.check(workload, gpu)
        mem = _mem_time(workload, gpu, self.mem_efficiency)
        dequant = workload.weight_elements * cast_cost_per_element(
            workload.weight_dtype, float16
        ) / (gpu.tc_fp16_flops * self.dequant_throughput_frac)
        compute = _tc_time(workload, gpu, self.tc_efficiency) + dequant
        return max(mem, compute) + LAUNCH_OVERHEAD


ALL_SYSTEMS: dict[str, System] = {
    s.name: s
    for s in (CuBLAS(), Triton(), QuantLLM(), Ladder(), Marlin(), Tilus())
}


def system_by_name(name: str) -> System:
    if name not in ALL_SYSTEMS:
        raise UnsupportedKernelError(f"unknown system {name!r}")
    return ALL_SYSTEMS[name]


def speedup_vs_cublas(
    system: System, workload: MatmulWorkload, gpu: GpuSpec
) -> float:
    """Speedup of ``system`` on the quantized workload against the cuBLAS
    f16 kernel on the equivalent unquantized workload."""
    f16_workload = MatmulWorkload(
        m=workload.m,
        n=workload.n,
        k=workload.k,
        weight_dtype=float16,
        act_dtype=workload.act_dtype,
        group_size=workload.group_size,
    )
    base = CuBLAS().matmul_latency(f16_workload, gpu)
    return base / system.matmul_latency(workload, gpu)
