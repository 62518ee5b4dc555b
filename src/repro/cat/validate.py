"""Counter Analysis Toolkit: validating hardware events against
known-traffic microbenchmarks.

"One of PAPI's commitments as a portability layer is the thorough
validation of the hardware events exposed to the user to account for
unreliable counters, especially when there are multiple sources of
events." This module reproduces that methodology (the paper's
reference [9]): run microbenchmarks whose memory traffic is known in
closed form, read the candidate events around each run, and classify
every event by how well its counts match:

* ``VALIDATED`` — counts within ``tolerance`` of expectation on every
  probe (at the probe sizes where traffic dominates noise);
* ``NOISY`` — correct to within ``noisy_tolerance`` but perturbed (the
  small-kernel regime of Figs 2/5: use repetitions);
* ``UNRELIABLE`` — counts that do not track the expected traffic;
* ``DEAD`` — counts that never move.

Probes are STREAM kernels plus a DOT and a batched GEMM; nest events
count per-channel, so per-event expectations divide the socket total
by the channel count (hardware interleave makes the split even to
within one transaction).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..kernels.blas import Dot, Gemm
from ..kernels.stream import stream_suite
from ..measure.report import format_table
from ..measure.repetition import repetitions_for
from ..measure.session import MeasurementSession


class Classification(enum.Enum):
    VALIDATED = "validated"
    NOISY = "noisy"
    UNRELIABLE = "unreliable"
    DEAD = "dead"


@dataclasses.dataclass
class ProbeResult:
    """One (event, probe) comparison."""

    event: str
    probe: str
    expected: float
    measured: float

    @property
    def relative_error(self) -> float:
        if self.expected == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.expected) / self.expected


@dataclasses.dataclass
class ValidationReport:
    """Per-event classification plus the underlying probe data."""

    machine: str
    via: str
    results: List[ProbeResult]
    classifications: Dict[str, Classification]

    def events(self, classification: Classification) -> List[str]:
        return sorted(e for e, c in self.classifications.items()
                      if c is classification)

    def render(self) -> str:
        rows = []
        for event in sorted(self.classifications):
            probes = [r for r in self.results if r.event == event]
            worst = max(probes, key=lambda r: r.relative_error)
            rows.append([
                event, self.classifications[event].value,
                f"{worst.relative_error * 100:.2f}%", worst.probe,
            ])
        return format_table(
            ["event", "classification", "worst error", "worst probe"],
            rows,
            title=(f"Counter Analysis Toolkit — {self.machine} via "
                   f"{self.via}"),
        )


class CounterAnalysisToolkit:
    """Event validator bound to one measurement session."""

    def __init__(self, session: MeasurementSession,
                 tolerance: float = 0.05, noisy_tolerance: float = 0.5,
                 probe_size: int = 1 << 20):
        if not 0 < tolerance < noisy_tolerance:
            raise ConfigurationError(
                "need 0 < tolerance < noisy_tolerance")
        self.session = session
        self.tolerance = tolerance
        self.noisy_tolerance = noisy_tolerance
        self.probe_size = probe_size

    # ------------------------------------------------------------------
    def default_probes(self) -> List:
        """Known-traffic probes: STREAM ops, DOT, and a batched GEMM."""
        n = self.probe_size
        probes: List = list(stream_suite(n))
        probes.append(Dot(4 * n))
        # GEMM small enough that its working set fits the local L3
        # share — past that, slice-spill traffic is real behaviour, not
        # a counter defect, and must not fail validation.
        probes.append(Gemm(384))
        return probes

    # ------------------------------------------------------------------
    def run_suite(self, probes: Optional[Sequence] = None,
                  socket_id: int = 0) -> ValidationReport:
        """Measure every probe and classify every nest event."""
        probes = list(probes) if probes is not None else self.default_probes()
        events = self.session.nest_event_names(socket_id)
        n_channels = self.session.machine.socket.n_memory_channels
        results: List[ProbeResult] = []
        moved: Dict[str, bool] = {e: False for e in events}
        for probe in probes:
            reps = repetitions_for(getattr(probe, "n", 2048))
            per_event = self._measure_per_event(probe, events, socket_id,
                                                reps)
            expected = probe.expected_traffic()
            for event, measured in per_event.items():
                if measured:
                    moved[event] = True
                total = (expected.write_bytes if "WRITE" in event
                         else expected.read_bytes)
                if total == 0:
                    # A probe with no expected traffic in this direction
                    # cannot validate the counter (any background byte
                    # would register as infinite error); it still
                    # contributes to dead-counter detection above.
                    continue
                results.append(ProbeResult(
                    event=event, probe=probe.name,
                    expected=total / n_channels, measured=measured,
                ))
        classifications = self._classify(results, moved)
        return ValidationReport(
            machine=self.session.machine.name, via=self.session.via,
            results=results, classifications=classifications,
        )

    # ------------------------------------------------------------------
    def _measure_per_event(self, probe, events, socket_id: int,
                           repetitions: int) -> Dict[str, int]:
        with self.session.counting(socket_id) as values:
            self.session.executor.run(probe, socket_id=socket_id,
                                      repetitions=repetitions)
        return {e: values[e] // repetitions for e in events}

    def _classify(self, results: List[ProbeResult],
                  moved: Dict[str, bool]) -> Dict[str, Classification]:
        out: Dict[str, Classification] = {}
        by_event: Dict[str, List[ProbeResult]] = {}
        for r in results:
            by_event.setdefault(r.event, []).append(r)
        for event, probes in by_event.items():
            if not moved[event]:
                out[event] = Classification.DEAD
                continue
            worst = max(p.relative_error for p in probes)
            if worst <= self.tolerance:
                out[event] = Classification.VALIDATED
            elif worst <= self.noisy_tolerance:
                out[event] = Classification.NOISY
            else:
                out[event] = Classification.UNRELIABLE
        return out
