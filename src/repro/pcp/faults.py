"""Deterministic fault injection for the PCP service layer.

Degraded-mode behaviour — dropped connections, slow responses,
truncated PDUs, daemon restarts — is a first-class, testable code path
rather than something that only happens in production. Tests (and
chaos experiments via the CLI) *arm* faults explicitly; the server
consults :meth:`FaultInjector.next_action` once per response and
applies whatever was scheduled. There is no randomness: repeatability
is a project invariant, so fault schedules are explicit FIFO plans.

Daemon restart is not scheduled here — it is a direct operation
(:meth:`~repro.pcp.aserver.AsyncPMCDServer.restart`) because it acts
on the whole daemon, not on one response.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import threading
from typing import Optional


class FaultKind(enum.Enum):
    #: Close the connection instead of responding (client sees EOF).
    DROP_CONNECTION = "drop_connection"
    #: Delay the response by ``seconds`` (client may time out).
    SLOW_RESPONSE = "slow_response"
    #: Send only a prefix of the encoded PDU, then close (client sees
    #: a malformed line).
    TRUNCATE_PDU = "truncate_pdu"
    #: Stall one PMDA shard read by ``seconds`` (the async fabric's
    #: slow-agent scenario: one shard backs up, the rest keep serving).
    SLOW_PMDA = "slow_pmda"


@dataclasses.dataclass(frozen=True)
class FaultAction:
    kind: FaultKind
    seconds: float = 0.0


class FaultInjector:
    """A FIFO schedule of faults, applied one per served response."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plan: "collections.deque[FaultAction]" = collections.deque()
        # SLOW_PMDA lives on its own queue: it is consumed at the
        # PMDA-read site, not per served response, so arming it never
        # perturbs the response-site plan ordering.
        self._pmda_plan: "collections.deque[FaultAction]" = \
            collections.deque()
        #: Total faults actually applied by the server.
        self.injected = 0

    # ------------------------------------------------------------------
    def inject(self, kind: FaultKind, count: int = 1,
               seconds: float = 0.0) -> None:
        if count < 1:
            return
        plan = (self._pmda_plan if kind is FaultKind.SLOW_PMDA
                else self._plan)
        with self._lock:
            plan.extend(FaultAction(kind, seconds) for _ in range(count))

    def drop_connections(self, count: int = 1) -> None:
        self.inject(FaultKind.DROP_CONNECTION, count)

    def slow_responses(self, count: int = 1, seconds: float = 0.05) -> None:
        self.inject(FaultKind.SLOW_RESPONSE, count, seconds=seconds)

    def truncate_pdus(self, count: int = 1) -> None:
        self.inject(FaultKind.TRUNCATE_PDU, count)

    def slow_pmda(self, count: int = 1, seconds: float = 0.05) -> None:
        self.inject(FaultKind.SLOW_PMDA, count, seconds=seconds)

    # ------------------------------------------------------------------
    def next_action(self) -> Optional[FaultAction]:
        """Pop the next scheduled fault (None when the plan is empty)."""
        with self._lock:
            if not self._plan:
                return None
            self.injected += 1
            return self._plan.popleft()

    def next_pmda_action(self) -> Optional[FaultAction]:
        """Pop the next scheduled PMDA-site fault (None when empty)."""
        with self._lock:
            if not self._pmda_plan:
                return None
            self.injected += 1
            return self._pmda_plan.popleft()

    def pending(self) -> int:
        with self._lock:
            return len(self._plan) + len(self._pmda_plan)

    def clear(self) -> None:
        with self._lock:
            self._plan.clear()
            self._pmda_plan.clear()
