"""Measurement sessions: kernel × machine × PAPI component.

A :class:`MeasurementSession` wires together everything the paper's
benchmark methodology needs on one simulated machine:

* a :class:`~repro.machine.node.Node` (Summit, Tellico, or Skylake),
* a PMCD daemon plus an initialised :class:`~repro.papi.Papi` library,
* an :class:`~repro.engine.executor.Executor`.

``measure_kernel`` then reproduces the paper's measurement loop: open
the 16 nest events of the target socket through the chosen component
(``pcp``, as on Summit, or ``perf_event_uncore``, as on Tellico),
start the event set, run the kernel ``repetitions`` times back to
back, stop, and average — reporting measured alongside expected
traffic. All noise enters through the same counter path a real
measurement would see.

Each socket's event set is opened once per session and reused; what
opening it again would cost the simulated machine is charged instead
(:meth:`MeasurementSession.counting`, DESIGN.md §7).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, Optional, Union

from ..engine.executor import Executor
from ..errors import ConfigurationError
from ..kernels.compiler import CompilerConfig, compile_kernel
from ..machine.cache import TrafficCounters
from ..machine.config import MachineConfig, get_machine
from ..machine.node import Node
from ..noise import NoiseConfig
from ..papi.eventset import EventSet
from ..papi.papi import Papi, library_init
from ..pcp.pmcd import start_pmcd_for_node
from ..pmu.events import all_pcp_events, all_uncore_events

#: Measurement paths.
VIA_PCP = "pcp"
VIA_PERF_UNCORE = "perf_event_uncore"


@dataclasses.dataclass
class MeasurementResult:
    """One (kernel, size, core-count) measurement, per-repetition avg."""

    kernel: str
    machine: str
    via: str
    n_cores: int
    repetitions: int
    #: Average measured traffic per repetition, whole batch (bytes).
    measured: TrafficCounters
    #: Paper-expected traffic for the whole batch (bytes), if defined.
    expected: Optional[TrafficCounters]
    #: Noise-free analytic traffic of one repetition (whole batch).
    true_traffic: TrafficCounters
    runtime_per_rep: float

    @property
    def read_ratio(self) -> Optional[float]:
        """measured / expected reads (1.0 = matches the dashed line)."""
        if self.expected is None or self.expected.read_bytes == 0:
            return None
        return self.measured.read_bytes / self.expected.read_bytes

    @property
    def write_ratio(self) -> Optional[float]:
        if self.expected is None or self.expected.write_bytes == 0:
            return None
        return self.measured.write_bytes / self.expected.write_bytes

    @property
    def reads_per_write(self) -> float:
        if self.measured.write_bytes == 0:
            return float("inf")
        return self.measured.read_bytes / self.measured.write_bytes


class MeasurementSession:
    """One machine set up for repeated kernel measurements.

    Each socket's 16 nest events form one EventSet, opened by the first
    measurement on that socket and reused by every later one. Opening
    events through PCP costs daemon round trips, and those are part of
    the simulation: each advances the node clock, drawing background
    traffic. So each reuse charges, before ``start()``, the round trips
    a rebuild would have made, and every count, clock and generator
    ends as if each measurement had opened its own set. Direct uncore
    opens cost nothing, so the uncore path charges nothing. The daemon
    counts only the requests it serves (DESIGN.md §7).

    A measurement that fails once counting has begun drops the set, and
    so does a change of the daemon's state (a restart, a new agent, a
    stop): the next measurement then opens the set anew.
    """

    def __init__(self, machine: Union[str, MachineConfig] = "summit",
                 via: Optional[str] = None, seed: Optional[int] = None,
                 noise: Optional[NoiseConfig] = None):
        self.machine = (get_machine(machine) if isinstance(machine, str)
                        else machine)
        self.node = Node(self.machine, seed=seed, noise=noise)
        self.pmcd = start_pmcd_for_node(self.node)
        self.papi: Papi = library_init(self.node, pmcd=self.pmcd)
        self.executor = Executor(self.node)
        if via is None:
            # The natural path for the machine: direct where privileged
            # (Tellico/Skylake), PCP otherwise (Summit).
            via = (VIA_PERF_UNCORE if self.machine.user_privileged
                   else VIA_PCP)
        if via not in (VIA_PCP, VIA_PERF_UNCORE):
            raise ConfigurationError(
                f"via must be {VIA_PCP!r} or {VIA_PERF_UNCORE!r}, got {via!r}")
        self.via = via
        #: socket id -> that socket's nest EventSet, opened on first use.
        self._eventsets: Dict[int, EventSet] = {}
        #: The daemon state the cached PCP sets were validated against.
        self._daemon_state: Optional[tuple] = None

    # ------------------------------------------------------------------
    def nest_event_names(self, socket_id: int = 0) -> list:
        """The 16 memory-traffic events of one socket, in the spelling
        of the session's measurement path (paper Table I)."""
        if self.via == VIA_PCP:
            return all_pcp_events(self.machine, socket_id)
        threads_per_socket = self.machine.socket.n_cores * 4
        return all_uncore_events(self.machine,
                                 cpu=socket_id * threads_per_socket)

    def _eventset(self, socket_id: int) -> EventSet:
        if self.via == VIA_PCP:
            state = (self.pmcd.running, self.pmcd.generation)
            if state != self._daemon_state:
                self._eventsets.clear()
                self._daemon_state = state
        es = self._eventsets.get(socket_id)
        if es is None:
            es = self.papi.create_eventset()
            es.add_events(self.nest_event_names(socket_id))
            self._eventsets[socket_id] = es
        else:
            es.charge_reopen()
        return es

    @contextlib.contextmanager
    def counting(self, socket_id: int = 0) -> Iterator[Dict[str, int]]:
        """Count the socket's 16 nest events over a ``with`` block.

        Starts the socket's event set on entry and stops it on exit;
        the yielded dict then maps each event name to its count.
        """
        es = self._eventset(socket_id)
        counts: Dict[str, int] = {}
        try:
            es.start()
            yield counts
            counts.update(es.stop_dict())
        except BaseException:
            # A set left running would refuse the next start().
            self._eventsets.pop(socket_id, None)
            raise

    # ------------------------------------------------------------------
    def measure_kernel(self, kernel, n_cores: int = 1, repetitions: int = 1,
                       compiler: Optional[CompilerConfig] = None,
                       socket_id: int = 0, noisy: bool = True,
                       assume_socket_busy: bool = False,
                       ) -> MeasurementResult:
        """Measure ``repetitions`` back-to-back runs of ``kernel``.

        Returns per-repetition averages of the summed 16-channel
        read/write byte counts — the quantity every figure plots.
        """
        if repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        compiler = compiler or compile_kernel()
        with self.counting(socket_id) as values:
            if noisy:
                # Fixed per-window traffic (harness setup, page-table
                # churn) lands INSIDE the measurement window, after the
                # start read.
                fixed = self.node.noise_model(
                    socket_id).window_fixed_traffic()
                self.node.socket(socket_id).record_traffic(
                    fixed.read_bytes, fixed.write_bytes)
            record = self.executor.run(
                kernel, socket_id=socket_id, n_cores=n_cores,
                repetitions=repetitions, prefetch=compiler.prefetch,
                noisy=noisy, assume_socket_busy=assume_socket_busy,
            )
        read = sum(v for k, v in values.items() if "READ" in k)
        write = sum(v for k, v in values.items() if "WRITE" in k)
        measured = TrafficCounters(
            read_bytes=read // repetitions,
            write_bytes=write // repetitions,
        )
        expected_one = kernel.expected_traffic()
        expected = (expected_one.scaled(n_cores)
                    if expected_one is not None else None)
        return MeasurementResult(
            kernel=kernel.name,
            machine=self.machine.name,
            via=self.via,
            n_cores=n_cores,
            repetitions=repetitions,
            measured=measured,
            expected=expected,
            true_traffic=record.true_traffic,
            runtime_per_rep=record.runtime_per_rep,
        )

    # ------------------------------------------------------------------
    def daemon_overhead(self) -> dict:
        """Overhead of the daemon-mediated measurement path itself.

        Returns the merged client/daemon/service counters (round
        trips, simulated latency, lookup-cache behaviour, coalescing)
        for sessions measuring via PCP — the paper's Table 2 overhead
        analysis as live data. Empty for direct-uncore sessions, which
        have no daemon in the loop.
        """
        if self.via != VIA_PCP:
            return {}
        return self.papi.component(VIA_PCP).daemon_overhead()

    # ------------------------------------------------------------------
    def batch_core_count(self, socket_id: int = 0) -> int:
        """Cores used by the paper's batched kernels: every usable core
        of the socket (21 on Summit, 16 on Tellico)."""
        return len(self.node.socket(socket_id).usable_cores)
