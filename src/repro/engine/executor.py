"""Executor: run kernel models on a simulated node.

The executor is the bridge between kernel traffic laws and the machine
state that the PAPI components observe. Running a kernel

* marks the chosen cores busy (which determines each core's effective
  L3 share via slice re-appropriation),
* computes the analytic traffic per core and records it — optionally
  perturbed by per-repetition capture jitter — into the socket's
  memory controller (where the nest counters see it),
* advances the node clock by a roofline runtime estimate, during which
  background traffic also accumulates.

All repetitions of a run are drawn, recorded and clocked at once, with
the values and generator state of running them one by one (DESIGN.md
§6.7). The noise-free part of a run, its :class:`RunModel`, depends
only on the kernel and the socket's configuration, so runs on sockets
of one machine configuration may share one (the 3D-FFT phases do).

Batched kernels (one independent instance per core, the paper's
"batched GEMM/GEMV") are expressed with ``n_cores > 1``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..machine.cache import TrafficCounters
from ..machine.node import Node
from ..machine.prefetch import SoftwarePrefetch
from .analytic import CacheContext
from .trace import KernelModel


@dataclasses.dataclass(frozen=True)
class RunModel:
    """The noise-free model of one repetition of a run."""

    #: Analytic traffic of one repetition across all cores.
    true_traffic: TrafficCounters
    #: Simulated runtime of one repetition (seconds).
    runtime_per_rep: float


@dataclasses.dataclass
class ExecutionRecord:
    """Outcome of one executor invocation."""

    kernel: str
    socket_id: int
    n_cores: int
    repetitions: int
    #: Analytic (noise-free) traffic of ONE repetition across all cores.
    true_traffic: TrafficCounters
    #: Traffic actually recorded into the controller for the whole run
    #: (all repetitions, including capture jitter; excludes background).
    recorded_traffic: TrafficCounters
    #: Simulated runtime of one repetition (seconds).
    runtime_per_rep: float

    @property
    def runtime_total(self) -> float:
        return self.runtime_per_rep * self.repetitions


class Executor:
    """Runs kernels on one :class:`~repro.machine.node.Node`."""

    def __init__(self, node: Node):
        self.node = node

    # ------------------------------------------------------------------
    def cache_context(self, socket_id: int, n_cores: int,
                      footprint_bytes: int,
                      assume_socket_busy: bool = False) -> CacheContext:
        """Effective cache context for one of ``n_cores`` active cores.

        ``assume_socket_busy`` models an OpenMP-parallel kernel keeping
        every core busy (the 3D-FFT phases): each thread is confined to
        its 5 MB share even though the executor models the aggregate
        work as one logical kernel."""
        sock = self.node.socket(socket_id)
        effective = (len(sock.usable_cores) if assume_socket_busy
                     else n_cores)
        share = sock.topology.share_for(effective)
        spill = sock.topology.spill_extra_read_fraction(
            footprint_bytes, effective)
        return CacheContext(
            capacity_bytes=share.total_bytes,
            granule=sock.config.l3_slice.granule_bytes,
            line_bytes=sock.config.l3_slice.line_bytes,
            spill_extra_fraction=spill,
        )

    # ------------------------------------------------------------------
    def model(self, kernel: KernelModel, socket_id: int = 0,
              n_cores: int = 1,
              prefetch: SoftwarePrefetch = SoftwarePrefetch(),
              assume_socket_busy: bool = False) -> RunModel:
        """The analytic traffic and roofline runtime of one repetition
        of ``kernel`` on ``n_cores`` cores (see :meth:`run`)."""
        cores = self._cores(socket_id, n_cores)
        ctx = self.cache_context(socket_id, n_cores,
                                 kernel.footprint_bytes(),
                                 assume_socket_busy=assume_socket_busy)
        per_core = kernel.traffic(ctx, prefetch)
        efficiency = max(1e-3, kernel.bandwidth_efficiency(prefetch))
        runtime = cores[0].estimate_runtime(
            kernel.flops(), per_core.total_bytes / efficiency,
            active_cores_on_socket=n_cores,
        )
        return RunModel(per_core.scaled(n_cores), runtime)

    def _cores(self, socket_id: int, n_cores: int) -> list:
        usable = self.node.socket(socket_id).usable_cores
        if n_cores < 1 or n_cores > len(usable):
            raise ConfigurationError(
                f"n_cores={n_cores} not in 1..{len(usable)} for socket "
                f"{socket_id} of {self.node.config.name}"
            )
        return usable[:n_cores]

    # ------------------------------------------------------------------
    def run(self, kernel: KernelModel, socket_id: int = 0, n_cores: int = 1,
            repetitions: int = 1,
            prefetch: SoftwarePrefetch = SoftwarePrefetch(),
            noisy: bool = True, background: bool = True,
            assume_socket_busy: bool = False,
            advance_clock: bool = True,
            model: Optional[RunModel] = None,
            ) -> ExecutionRecord:
        """Execute ``kernel`` ``repetitions`` times on ``n_cores`` cores.

        Each core runs an independent instance (batched semantics); for
        a single-threaded kernel pass ``n_cores=1``. Fresh data is
        assumed per repetition (the paper uses a different matrix per
        repetition precisely so no data is cached between repetitions),
        so every repetition pays full cold traffic.

        ``model`` stands in for the run's own :meth:`model`, which is
        all that ``prefetch`` and ``assume_socket_busy`` feed; it must
        be one of the same kernel and core count on a socket of the
        same configuration.
        """
        cores = self._cores(socket_id, n_cores)
        if repetitions < 1:
            raise ConfigurationError(
                f"repetitions={repetitions} must be >= 1")
        if model is None:
            model = self.model(kernel, socket_id, n_cores, prefetch,
                               assume_socket_busy)
        sock = self.node.socket(socket_id)
        true_one_rep, runtime = model.true_traffic, model.runtime_per_rep
        for c in cores:
            c.mark_busy(True)
        try:
            step_background = background and noisy
            drawn = None
            if noisy:
                draws = self.node.noise_model(socket_id).repetition_draws(
                    repetitions, runtime,
                    step_seconds=(runtime if advance_clock and step_background
                                  else 0.0))
                # Fresh buffers per repetition add first-touch traffic.
                capture, first_touch = draws.capture, draws.first_touch
                if draws.background is not None:
                    drawn = {socket_id: draws.background}
            else:
                capture, first_touch = np.ones(repetitions), 0
            true = np.array([true_one_rep.read_bytes,
                             true_one_rep.write_bytes])
            reps = (np.rint(capture[:, None] * true).astype(np.int64)
                    + first_touch)
            sock.memory.record_many(reps)
            if advance_clock:
                self.node.advance_steps(runtime, repetitions,
                                        background=step_background,
                                        drawn=drawn)
            recorded = TrafficCounters(*reps.sum(axis=0).tolist())
            # Core-private PMU accounting: each core retires its own
            # instance's work (batched semantics).
            for c in cores:
                c.retire_work(kernel.flops() * repetitions,
                              runtime * repetitions)
        finally:
            for c in cores:
                c.mark_busy(False)
        return ExecutionRecord(
            kernel=kernel.name,
            socket_id=socket_id,
            n_cores=n_cores,
            repetitions=repetitions,
            true_traffic=true_one_rep,
            recorded_traffic=recorded,
            runtime_per_rep=runtime,
        )
