"""Assembled compute node: sockets, cores, nest, GPUs, NICs, clock.

:class:`Node` is the root object of the hardware simulation. A node
owns a simulated wall clock; executing kernels advances it, and while
it advances, background (OS/daemon) traffic accumulates in the memory
controllers so that time-resolved profiles (Figs 11-12) show a
realistic noise floor. Counter-reading layers (perf_uncore, PCP) hold
references to the node's nest blocks and device counters.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..noise import NoiseConfig, NoiseModel
from ..rng import derive_seed
from .config import MachineConfig
from .core import BusyTally, Core
from .hierarchy import L3Topology
from .memory import MemoryController
from .nest import NestCounterBlock


class Socket:
    """One CPU socket with its cores, L3 topology, memory and nest."""

    def __init__(self, socket_id: int, machine: MachineConfig,
                 first_core_id: int):
        cfg = machine.socket
        self.socket_id = socket_id
        self.config = cfg
        self.memory = MemoryController(
            n_channels=cfg.n_memory_channels,
            granule=cfg.l3_slice.granule_bytes,
        )
        self.nest = NestCounterBlock(socket_id, self.memory)
        self.topology = L3Topology(cfg, machine.usable_cores_per_socket)
        self._busy = BusyTally()
        self.cores: List[Core] = []
        for local_id in range(cfg.n_cores):
            core = Core(
                core_id=first_core_id + local_id,
                socket_id=socket_id,
                local_id=local_id,
                config=cfg,
                reserved=local_id >= machine.usable_cores_per_socket,
                tally=self._busy,
            )
            self.cores.append(core)

    @property
    def usable_cores(self) -> List[Core]:
        return [c for c in self.cores if not c.reserved]

    @property
    def active_core_count(self) -> int:
        return self._busy.count

    def record_traffic(self, read_bytes: int = 0, write_bytes: int = 0) -> None:
        self.memory.record(read_bytes=read_bytes, write_bytes=write_bytes)


class Node:
    """A full simulated compute node (see module docstring)."""

    def __init__(self, config: MachineConfig, seed: Optional[int] = None,
                 noise: Optional[NoiseConfig] = None):
        self.config = config
        self.seed = seed
        self.clock = 0.0
        self.sockets: List[Socket] = []
        first_core = 0
        for sid in range(config.n_sockets):
            self.sockets.append(Socket(sid, config, first_core))
            first_core += config.socket.n_cores
        self._noise_models = [
            NoiseModel(noise, seed=derive_seed(seed, config.name, f"socket{sid}"),
                       label="background")
            for sid in range(config.n_sockets)
        ]
        # Devices are attached lazily to keep the machine package free of
        # upward dependencies; see repro.gpu / repro.mpi.network.
        self.gpus: List = []
        self.nics: List = []
        # Clock listeners: called with (dt, steps) after every advance,
        # while machine state (busy cores etc.) still reflects the
        # interval — energy models integrate power here.
        self._clock_listeners: List = []
        self._attach_devices()

    # ------------------------------------------------------------------
    def _attach_devices(self) -> None:
        if self.config.gpus_per_socket and self.config.gpu is not None:
            from ..gpu.device import GPUDevice  # late import (layering)

            idx = 0
            for sid in range(self.config.n_sockets):
                for _ in range(self.config.gpus_per_socket):
                    self.gpus.append(
                        GPUDevice(device_id=idx, socket_id=sid,
                                  config=self.config.gpu, node=self)
                    )
                    idx += 1
        if self.config.nics:
            from ..mpi.network import NICPort  # late import (layering)

            for nic_cfg in self.config.nics:
                self.nics.append(NICPort(nic_cfg))

    # ------------------------------------------------------------------
    @property
    def user_privileged(self) -> bool:
        return self.config.user_privileged

    def socket(self, socket_id: int) -> Socket:
        try:
            return self.sockets[socket_id]
        except IndexError:
            raise ConfigurationError(
                f"socket {socket_id} out of range (node has "
                f"{len(self.sockets)})"
            ) from None

    def core(self, core_id: int) -> Core:
        per_socket = self.config.socket.n_cores
        sid, local = divmod(core_id, per_socket)
        return self.socket(sid).cores[local]

    def gpus_on_socket(self, socket_id: int) -> List:
        return [g for g in self.gpus if g.socket_id == socket_id]

    # ------------------------------------------------------------------
    def advance(self, dt: float, background: bool = True) -> None:
        """Advance the node clock by ``dt`` simulated seconds.

        Background traffic lands in every socket's memory controller
        unless ``background`` is disabled (pure traffic-law tests).
        """
        _check_step(dt)
        if dt == 0:
            return
        self.clock += dt
        if background:
            for sock, model in zip(self.sockets, self._noise_models):
                sock.memory.record(*model.background_bytes(dt))
        for listener in self._clock_listeners:
            listener(dt, 1)

    def advance_steps(self, dt: float, steps: int, background: bool = True,
                      drawn: Optional[Dict[int, np.ndarray]] = None) -> None:
        """Advance the clock by ``steps`` equal steps of ``dt`` at once.

        The clock, every counter and every noise stream end as after
        ``steps`` calls of :meth:`advance`: the clock adds ``dt`` once
        per step, each socket's background is drawn in one call, and
        each listener is called once with ``(dt, steps)``. ``drawn``
        maps a socket id to the ``(steps, 2)`` background bytes its
        caller already drew from that socket's noise stream,
        interleaved with its own draws (see
        :meth:`NoiseModel.repetition_draws`).
        """
        _check_step(dt)
        if steps < 1:
            raise SimulationError(f"steps={steps} must be >= 1")
        if dt == 0:
            return
        clock = self.clock
        for _ in range(steps):
            clock += dt
        self.clock = clock
        if background:
            drawn = drawn or {}
            for sid, (sock, model) in enumerate(
                    zip(self.sockets, self._noise_models)):
                bg = drawn.get(sid)
                if bg is None:
                    bg = model.background_steps(dt, steps)
                sock.memory.record_many(bg)
        for listener in self._clock_listeners:
            listener(dt, steps)

    def on_advance(self, listener) -> None:
        """Register a callable invoked with ``(dt, steps)`` after every
        clock advance of ``steps`` equal steps of ``dt`` (used by energy
        models to integrate power)."""
        self._clock_listeners.append(listener)

    def noise_model(self, socket_id: int) -> NoiseModel:
        return self._noise_models[socket_id]


def _check_step(dt: float) -> None:
    if dt < 0:
        raise SimulationError("time cannot flow backwards")
    if not math.isfinite(dt):
        raise SimulationError(f"clock step must be finite, got {dt}")
