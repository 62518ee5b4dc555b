"""Exception hierarchy for the ``repro`` package.

Every layer of the stack raises subclasses of :class:`ReproError` so that
callers can catch simulation problems without masking programming errors.
The PAPI layer mirrors the C library's negative return codes with typed
exceptions (see :mod:`repro.papi.consts`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A machine, kernel, or experiment was configured inconsistently."""


class SimulationError(ReproError):
    """The hardware simulation reached an invalid internal state."""


class PrivilegeError(ReproError, PermissionError):
    """An operation required elevated privileges the caller lacks.

    Raised when user code attempts to read the nest (uncore) counters
    directly on a machine where the simulated user is unprivileged —
    the situation that motivates the PCP indirection in the paper.
    """


class PCPError(ReproError):
    """An error inside the simulated Performance Co-Pilot stack."""


class PCPTimeout(PCPError):
    """A PCP request exceeded its deadline (after client-side retries)."""


class PMNSError(PCPError):
    """A metric name could not be resolved in the PMNS namespace."""


class ArchiveError(PCPError):
    """A problem with an on-disk PCP metric archive."""


class ArchiveCorruptionError(ArchiveError):
    """An archive volume failed validation (truncated tail record,
    bit-flipped bytes, or an index/volume checksum mismatch); the
    affected records must never be returned as data."""


class PapiError(ReproError):
    """Base class for PAPI-layer errors (mirrors C PAPI return codes)."""

    #: Mirrors the C library's error code; subclasses override.
    code: int = -1

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__doc__ or "")


class PapiInvalidArgument(PapiError):
    """PAPI_EINVAL: invalid argument."""

    code = -1


class PapiNoEvent(PapiError):
    """PAPI_ENOEVNT: the named event does not exist in any component."""

    code = -7


class PapiNotRunning(PapiError):
    """PAPI_ENOTRUN: the event set is not currently counting."""

    code = -9


class PapiIsRunning(PapiError):
    """PAPI_EISRUN: the event set is already counting."""

    code = -10


class PapiNoComponent(PapiError):
    """PAPI_ENOCMP: the requested component is not available."""

    code = -20


class PapiPermissionDenied(PapiError):
    """PAPI_EPERM: insufficient privilege to access the counters."""

    code = -8


class MPIError(ReproError):
    """An error in the simulated MPI layer."""


class GPUError(ReproError):
    """An error in the simulated GPU device layer."""
