"""The POWER9 "nest" counter block and its privilege gate.

The nest (IBM's name for the uncore) hosts the memory-traffic counters.
Because the memory subsystem is shared between all processes on the
socket, reading these counters requires elevated privileges — the exact
restriction that motivates routing measurements through the PCP daemon
on Summit. :class:`NestCounterBlock` therefore checks the *privilege*
of the caller on every read: the PMCD daemon holds a privileged handle,
ordinary user code does not.

Event naming follows the Nest IMC Memory Offsets from the POWER9 PMU
User's Guide: ``PM_MBA{ch}_READ_BYTES`` / ``PM_MBA{ch}_WRITE_BYTES``
for channels 0-7.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import PrivilegeError, SimulationError
from .memory import MemoryController


def nest_event_names(n_channels: int = 8) -> List[str]:
    """All nest memory-traffic event names for one socket."""
    names = []
    for ch in range(n_channels):
        names.append(f"PM_MBA{ch}_READ_BYTES")
        names.append(f"PM_MBA{ch}_WRITE_BYTES")
    return names


class NestCounterBlock:
    """Privileged read access to one socket's memory-channel counters."""

    def __init__(self, socket_id: int, controller: MemoryController):
        self.socket_id = socket_id
        self._controller = controller
        # Event name -> (channel, is_write); nest_event_names() lists
        # each channel's READ event, then its WRITE event. Only these
        # exact spellings resolve, so aliases such as
        # ``PM_MBA01_READ_BYTES`` are rejected rather than opened.
        names = nest_event_names(controller.n_channels)
        self._events: Dict[str, Tuple[int, bool]] = {
            name: (i // 2, i % 2 == 1) for i, name in enumerate(names)
        }

    @property
    def event_names(self) -> List[str]:
        return list(self._events)

    def read_event(self, name: str, privileged: bool) -> int:
        """Read one counter value; raises unless ``privileged``.

        ``privileged`` reflects the credential of the *reader* — the
        PMCD daemon passes True, direct user reads pass the machine's
        ``user_privileged`` flag (True only on Tellico/Skylake here).
        """
        if not privileged:
            raise PrivilegeError(
                "reading nest (uncore) counters requires elevated "
                "privileges; use the PCP component instead"
            )
        return self._controller.channel_bytes(*self._resolve(name))

    def read_all(self, privileged: bool) -> Dict[str, int]:
        return {name: self.read_event(name, privileged)
                for name in self._events}

    def parse_event(self, name: str) -> Dict[str, int]:
        """Parse ``PM_MBA{ch}_{READ|WRITE}_BYTES`` into its fields."""
        ch, is_write = self._resolve(name)
        return {"channel": ch, "write": int(is_write)}

    def _resolve(self, name: str) -> Tuple[int, bool]:
        try:
            return self._events[name]
        except KeyError:
            raise SimulationError(
                f"not a nest memory event of this "
                f"{self._controller.n_channels}-channel socket: {name!r}"
            ) from None
