"""Conversion of co-runner activity into compute and memory slowdown factors.

Paper Section 6.2 observes that, under interference, CPU training performance degrades
because of (1) competition for CPU time slices and cache and (2) frequent thermal
throttling, while the GPU is largely insulated from a CPU-bound co-runner.  The model here
captures both effects: CPU compute slowdown grows super-linearly with co-runner CPU
utilisation, memory slowdown grows with co-runner memory usage (shared LLC/DRAM), and GPUs
see only the memory component.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


#: Reference compute capability (GFLOPS) the interference intensities are calibrated
#: against.  Devices weaker than the reference feel a given co-runner proportionally more,
#: stronger devices feel it less — the paper's observation that high-end devices tolerate
#: interference best (2.0x / 3.1x better performance than mid/low under interference).
REFERENCE_CAPABILITY_GFLOPS = 80.0


class SlowdownModel:
    """Maps co-runner (cpu_util, mem_util) to per-target slowdown factors (>= 1.0)."""

    def __init__(
        self,
        cpu_contention_weight: float = 1.4,
        cache_contention_weight: float = 0.5,
        memory_contention_weight: float = 0.8,
        gpu_memory_weight: float = 0.4,
    ) -> None:
        weights = (
            cpu_contention_weight,
            cache_contention_weight,
            memory_contention_weight,
            gpu_memory_weight,
        )
        if min(weights) < 0:
            raise ConfigurationError("slowdown weights must be non-negative")
        self._cpu_weight = cpu_contention_weight
        self._cache_weight = cache_contention_weight
        self._mem_weight = memory_contention_weight
        self._gpu_mem_weight = gpu_memory_weight

    @staticmethod
    def _capability_factor(capability_gflops: float | None) -> float:
        """Scale the felt co-runner intensity by the device's compute headroom."""
        if capability_gflops is None:
            return 1.0
        if capability_gflops <= 0:
            raise ConfigurationError("capability_gflops must be positive")
        return float(REFERENCE_CAPABILITY_GFLOPS / capability_gflops)

    def cpu_compute_slowdown(
        self, co_cpu_util: float, co_mem_util: float, capability_gflops: float | None = None
    ) -> float:
        """Compute-slowdown of CPU training under a co-runner.

        A co-runner at 50 % CPU roughly halves the time-slice share of the training threads
        and additionally pollutes the shared cache, so the slowdown is a convex function of
        the co-runner utilisation; powerful SoCs absorb the same co-runner with less impact.
        """
        self._validate(co_cpu_util, co_mem_util)
        felt = co_cpu_util * self._capability_factor(capability_gflops)
        contention = self._cpu_weight * felt + self._cache_weight * felt**2
        return 1.0 + contention

    def gpu_compute_slowdown(
        self, co_cpu_util: float, co_mem_util: float, capability_gflops: float | None = None
    ) -> float:
        """Compute-slowdown of GPU training under a (CPU-bound) co-runner.

        The GPU does not share execution units with the co-runner; only the kernel-dispatch
        path on the CPU is mildly affected.
        """
        self._validate(co_cpu_util, co_mem_util)
        return 1.0 + 0.15 * co_cpu_util

    def memory_slowdown(
        self,
        co_cpu_util: float,
        co_mem_util: float,
        target: str,
        capability_gflops: float | None = None,
    ) -> float:
        """Memory-bandwidth slowdown from the co-runner's DRAM/LLC pressure."""
        self._validate(co_cpu_util, co_mem_util)
        felt = co_mem_util * self._capability_factor(capability_gflops)
        if target == "cpu":
            return 1.0 + self._mem_weight * felt
        if target == "gpu":
            return 1.0 + self._gpu_mem_weight * co_mem_util
        raise ConfigurationError(f"unknown target {target!r} (expected 'cpu' or 'gpu')")

    def compute_slowdown(
        self,
        co_cpu_util: float,
        co_mem_util: float,
        target: str,
        capability_gflops: float | None = None,
    ) -> float:
        """Compute-slowdown for the requested execution target."""
        if target == "cpu":
            return self.cpu_compute_slowdown(co_cpu_util, co_mem_util, capability_gflops)
        if target == "gpu":
            return self.gpu_compute_slowdown(co_cpu_util, co_mem_util, capability_gflops)
        raise ConfigurationError(f"unknown target {target!r} (expected 'cpu' or 'gpu')")

    # ------------------------------------------------------------------ batched variants
    def compute_slowdown_batch(
        self,
        co_cpu_util: np.ndarray,
        co_mem_util: np.ndarray,
        gpu_mask: np.ndarray,
        capability_gflops: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`compute_slowdown` for per-device execution targets.

        ``gpu_mask`` selects, per device, whether the GPU formula applies; all other
        devices use the CPU formula with their capability-scaled felt utilisation.
        """
        self._validate_batch(co_cpu_util, co_mem_util)
        felt = co_cpu_util * (REFERENCE_CAPABILITY_GFLOPS / capability_gflops)
        cpu = 1.0 + (self._cpu_weight * felt + self._cache_weight * felt**2)
        gpu = 1.0 + 0.15 * co_cpu_util
        return np.where(gpu_mask, gpu, cpu)

    def memory_slowdown_batch(
        self,
        co_cpu_util: np.ndarray,
        co_mem_util: np.ndarray,
        gpu_mask: np.ndarray,
        capability_gflops: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`memory_slowdown` for per-device execution targets."""
        self._validate_batch(co_cpu_util, co_mem_util)
        felt = co_mem_util * (REFERENCE_CAPABILITY_GFLOPS / capability_gflops)
        cpu = 1.0 + self._mem_weight * felt
        gpu = 1.0 + self._gpu_mem_weight * co_mem_util
        return np.where(gpu_mask, gpu, cpu)

    @staticmethod
    def _validate(co_cpu_util: float, co_mem_util: float) -> None:
        if not 0.0 <= co_cpu_util <= 1.0 or not 0.0 <= co_mem_util <= 1.0:
            raise ConfigurationError("co-runner utilisations must be in [0, 1]")

    @staticmethod
    def _validate_batch(co_cpu_util: np.ndarray, co_mem_util: np.ndarray) -> None:
        for values in (co_cpu_util, co_mem_util):
            if (values < 0.0).any() or (values > 1.0).any():
                raise ConfigurationError("co-runner utilisations must be in [0, 1]")
