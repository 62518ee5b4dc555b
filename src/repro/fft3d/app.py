"""The 3D-FFT mini-app: instrumented execution on a simulated cluster.

:class:`FFT3DApp` runs the paper's distributed 3D-FFT at production
scale (N up to 2016 and beyond) on a :class:`~repro.mpi.Cluster`,
driving every rank's hardware — resort traffic into the nest counters,
cuFFT batches through the GPUs (H2D read bursts / power spikes / D2H
write bursts), and All2Alls through the InfiniBand ports. It exposes
the run as profiler :class:`~repro.measure.timeline.Step` objects so
:class:`~repro.measure.timeline.MultiComponentProfiler` can regenerate
Fig 11, and per-rank traffic summaries for Fig 10.

No N³ array is allocated: production sizes are accounted analytically
through the same traffic laws the exact engine validates at small
sizes, while the numerics of the algorithm are verified separately in
:mod:`repro.fft3d.fft`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..engine.executor import Executor
from ..errors import ConfigurationError
from ..gpu.cufft import CufftPlan1D
from ..machine.cache import TrafficCounters
from ..machine.config import MachineConfig, SUMMIT
from ..measure.timeline import Step
from ..mpi.comm import Cluster, SimComm
from ..mpi.grid import ProcessorGrid
from ..noise import NoiseConfig
from .decomp import LocalBlock, local_block
from .fft import BACKWARD_PHASES, FORWARD_PHASES, PhaseSpec
from .resort import ROUTINES


@dataclasses.dataclass
class RankTraffic:
    """Per-rank nest traffic attributed to one phase (Fig 10 rows)."""

    phase: str
    rank: int
    read_bytes: int
    write_bytes: int
    seconds: float

    @property
    def reads_per_write(self) -> float:
        return (self.read_bytes / self.write_bytes
                if self.write_bytes else float("inf"))

    @property
    def bandwidth(self) -> float:
        total = self.read_bytes + self.write_bytes
        return total / self.seconds if self.seconds > 0 else 0.0


class FFT3DApp:
    """One forward 3D-FFT across a simulated cluster."""

    def __init__(self, n: int, grid: ProcessorGrid,
                 machine: MachineConfig = SUMMIT,
                 use_gpu: bool = True, seed: Optional[int] = None,
                 noise: Optional[NoiseConfig] = None,
                 compiler_flags: str = "",
                 direction: str = "forward"):
        if direction not in ("forward", "backward", "roundtrip"):
            raise ConfigurationError(
                "direction must be forward, backward, or roundtrip")
        self.direction = direction
        ranks_per_node = machine.n_sockets
        if grid.size % ranks_per_node:
            raise ConfigurationError(
                f"grid size {grid.size} not divisible by "
                f"{ranks_per_node} ranks per node")
        n_nodes = grid.size // ranks_per_node
        self.n = n
        self.grid = grid
        self.use_gpu = use_gpu and machine.gpus_per_socket > 0
        self.cluster = Cluster(machine, n_nodes, seed=seed, noise=noise)
        self.comm = SimComm(self.cluster)
        self.block: LocalBlock = local_block(n, grid)
        from ..kernels.compiler import compile_kernel

        self.compiler = compile_kernel(compiler_flags)
        self.seed = seed
        self._executors = [Executor(node) for node in self.cluster.nodes]
        # The resort phases share one run model across ranks, which
        # holds only while every node has this one configuration.
        assert all(node.config is machine for node in self.cluster.nodes)
        #: Per-phase, per-rank traffic records (filled while running).
        self.records: List[RankTraffic] = []

    # ------------------------------------------------------------------
    @property
    def phases(self) -> List[PhaseSpec]:
        if self.direction == "forward":
            return list(FORWARD_PHASES)
        if self.direction == "backward":
            return list(BACKWARD_PHASES)
        return list(FORWARD_PHASES) + list(BACKWARD_PHASES)

    def _executor_of(self, rank: int) -> Executor:
        return self._executors[self.comm.placements[rank].node_index]

    def _sub_block(self, slices: int) -> LocalBlock:
        """A 1/slices slice of the local block (planes dimension)."""
        planes = max(1, self.block.planes // slices)
        return LocalBlock(planes=planes, rows=self.block.rows,
                          cols=self.block.cols)

    # ------------------------------------------------------------------
    # phase implementations (each runs ALL ranks concurrently: traffic
    # is recorded per rank, then every clock advances together once)
    # ------------------------------------------------------------------
    def _run_resort_slice(self, spec: PhaseSpec, sub: LocalBlock) -> None:
        kernel = ROUTINES[spec.routine](sub, seed=self.seed)
        # Every socket of the cluster has one configuration, and
        # assume_socket_busy fixes the effective core count, so one
        # model serves every rank; each rank still draws its own noise.
        model = self._executors[0].model(
            kernel, prefetch=self.compiler.prefetch, assume_socket_busy=True)
        before: Dict[int, TrafficCounters] = {}
        for rank in range(self.comm.size):
            placement = self.comm.placements[rank]
            record = self._executor_of(rank).run(
                kernel, socket_id=placement.socket_id, n_cores=1,
                noisy=True, advance_clock=False, model=model,
            )
            before[rank] = record.recorded_traffic
        duration = model.runtime_per_rep
        self.cluster.advance_all(duration)
        for rank, traffic in before.items():
            self.records.append(RankTraffic(
                phase=spec.name, rank=rank,
                read_bytes=traffic.read_bytes,
                write_bytes=traffic.write_bytes,
                seconds=duration,
            ))

    def _run_fft_slice(self, spec: PhaseSpec, sub: LocalBlock) -> List[Step]:
        """GPU path: three sub-steps (H2D, kernel, D2H); CPU path: one."""
        pencils = sub.planes * sub.rows
        plan = CufftPlan1D(n=self.block.cols, batch=pencils)
        if self.use_gpu:
            return [
                Step(spec.name, lambda: self._gpu_h2d(plan)),
                Step(spec.name, lambda: self._gpu_exec(plan)),
                Step(spec.name, lambda: self._gpu_d2h(plan)),
            ]
        return [Step(spec.name, lambda: self._cpu_fft(plan))]

    def _each_rank_gpu(self):
        for rank in range(self.comm.size):
            placement = self.comm.placements[rank]
            node = self.cluster.nodes[placement.node_index]
            gpus = node.gpus_on_socket(placement.socket_id)
            if not gpus:
                raise ConfigurationError("GPU phase on a GPU-less socket")
            yield rank, gpus[0]

    def _gpu_h2d(self, plan: CufftPlan1D) -> None:
        duration = 0.0
        for _, gpu in self._each_rank_gpu():
            duration = max(duration, gpu.h2d(plan.bytes_in,
                                             advance_clock=False))
        self.cluster.advance_all(duration)

    def _gpu_exec(self, plan: CufftPlan1D) -> None:
        duration = 0.0
        for _, gpu in self._each_rank_gpu():
            duration = max(duration, gpu.execute(plan.flops,
                                                 advance_clock=False))
        self.cluster.advance_all(duration)

    def _gpu_d2h(self, plan: CufftPlan1D) -> None:
        duration = 0.0
        for _, gpu in self._each_rank_gpu():
            duration = max(duration, gpu.d2h(plan.bytes_out,
                                             advance_clock=False))
        self.cluster.advance_all(duration)

    def _cpu_fft(self, plan: CufftPlan1D) -> None:
        """CPU 1-D FFT batch: one streaming read + write of the batch."""
        duration = 0.0
        for rank in range(self.comm.size):
            placement = self.comm.placements[rank]
            node = self.cluster.nodes[placement.node_index]
            sock = node.socket(placement.socket_id)
            sock.record_traffic(read_bytes=plan.bytes_in,
                                write_bytes=plan.bytes_out)
            cores = len(sock.usable_cores)
            compute = plan.flops / (sock.config.core_flops * cores)
            memory = (plan.bytes_in + plan.bytes_out) / sock.config.memory_bandwidth
            duration = max(duration, compute, memory)
        self.cluster.advance_all(duration)

    def _run_all2all_slice(self, spec: PhaseSpec, fraction: float) -> None:
        """Exchange within grid rows or columns, by phase.

        Forward: all2all-1 crosses rows, all2all-2 columns. Backward
        mirrors the order, so all2all-3 crosses columns and all2all-4
        rows again."""
        row_wise = spec.name.endswith(("1", "4"))
        groups = ([self.grid.row_ranks(i) for i in range(self.grid.rows)]
                  if row_wise
                  else [self.grid.col_ranks(j) for j in range(self.grid.cols)])
        duration = 0.0
        for group in groups:
            peers = len(group)
            if peers < 2:
                continue
            per_pair = int(self.block.nbytes * fraction / peers)
            duration = max(duration, self.comm.alltoall_bytes(
                per_pair, ranks=group, advance=False))
        if duration > 0.0:
            self.cluster.advance_all(duration)

    # ------------------------------------------------------------------
    def steps(self, slices_per_phase: int = 4) -> List[Step]:
        """The whole run as profiler steps (phase × slice)."""
        if slices_per_phase < 1:
            raise ConfigurationError("slices_per_phase must be >= 1")
        sub = self._sub_block(slices_per_phase)
        out: List[Step] = []
        for spec in self.phases:
            for _ in range(slices_per_phase):
                if spec.kind == "resort":
                    out.append(Step(spec.name,
                                    lambda s=spec: self._run_resort_slice(s, sub)))
                elif spec.kind == "fft":
                    out.extend(self._run_fft_slice(spec, sub))
                elif spec.kind == "all2all":
                    out.append(Step(spec.name,
                                    lambda s=spec: self._run_all2all_slice(
                                        s, 1.0 / slices_per_phase)))
                else:  # pragma: no cover - defensive
                    raise ConfigurationError(f"unknown phase kind {spec.kind}")
        return out

    def run(self, slices_per_phase: int = 4) -> None:
        """Execute the whole pipeline without profiling."""
        for step in self.steps(slices_per_phase):
            step.run()

    # ------------------------------------------------------------------
    def resort_summary(self, phase: str) -> List[RankTraffic]:
        """All per-rank records of one resort phase (Fig 10 inputs)."""
        return [r for r in self.records if r.phase == phase]
