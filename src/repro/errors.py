"""Exception hierarchy for the reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so a
caller embedding the library can catch one type.  Sub-hierarchies mirror the
subsystem structure (configuration, machine models, storage stack,
measurement, pipelines).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError, ValueError):
    """An experiment or model configuration is invalid."""


class UnknownNameError(ReproError, AttributeError):
    """A package was asked for a public name it does not export.

    Raised by the lazy package ``__getattr__`` hooks (PEP 562), which
    must raise an :class:`AttributeError` so ``hasattr`` and
    ``from package import submodule`` keep their meaning.
    """


class MachineError(ReproError):
    """A hardware-model invariant was violated."""


class DeviceError(MachineError):
    """A block device was asked to do something impossible (bad LBA, size...)."""


class FaultError(MachineError):
    """An injected storage fault interrupted an operation.

    Raised by :class:`~repro.faults.device.FaultyDevice`.  Carries the
    modeled cost of the failed attempt (``elapsed_s``) so the retry layer
    can charge it, plus batch-resume bookkeeping: ``prefix`` is the
    aggregate :class:`~repro.machine.disk.DiskResult` of the requests
    serviced before the fault, ``failed_index`` the batch-relative index
    of the faulting request.
    """

    #: Whether a bounded-retry policy may re-attempt the operation.
    retryable = True

    def __init__(self, message: str, *, elapsed_s: float = 0.0,
                 op_index: int | None = None,
                 failed_index: int | None = None,
                 prefix: object = None) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.op_index = op_index
        self.failed_index = failed_index
        self.prefix = prefix


class TransientIOError(FaultError):
    """A transient I/O error (bus glitch, command timeout): retry succeeds."""


class LatentSectorError(FaultError):
    """A latent sector error: the sector fails several re-reads in a row."""


class DramBitFlipError(FaultError):
    """A DRAM bit flip detected on a read path (ECC reported, data re-fetched)."""


class DeviceFailedError(FaultError):
    """The whole device failed; no retry can help, only replacement."""

    retryable = False


class RetryExhaustedError(MachineError):
    """A bounded retry policy gave up on an operation."""


class StorageError(ReproError):
    """Filesystem / page-cache / data-format level error."""


class FileFormatError(StorageError):
    """A chunked data container is malformed or fails checksum validation."""


class FileNotFound(StorageError, KeyError):
    """Named file does not exist in the simulated filesystem."""


class MeasurementError(ReproError):
    """Power-measurement substrate misuse (unsampled meter, bad domain...)."""


class ServiceError(ReproError):
    """Experiment-serving layer failure (transport, shutdown, bad reply).

    ``status`` carries the HTTP status when the failure is a server
    reply (so the cluster router can tell an admission-control shed, 503,
    from a dead shard, ``status=None``); ``retry_after_s`` carries the
    server's back-off hint when it sent one.
    """

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class ProtocolError(ReproError):
    """A message on the serving wire breaks its HTTP/1.1 subset.

    ``status`` is the reply a server sends for it: 400 for a malformed
    line or ``Content-Length``, 431 past the line or header-count limit,
    501 for a transfer coding.  A client treats every one of them as a
    transport failure.
    """

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class CodecError(ReproError):
    """A cache-directory frame failed its checks.

    Raised for a short frame, a foreign magic or version, a sha256
    mismatch, a payload that does not unpickle or holds the wrong
    object, and a Lab snapshot of another seed.
    """


class PipelineError(ReproError):
    """A pipeline was misconfigured or run out of order."""


class PipelineInterrupted(PipelineError):
    """A device failure interrupted a run mid-way.

    Carries the pipeline's :class:`~repro.pipelines.base.InterruptState`
    (``state``) so a resilient runner can repair the device and resume
    from the last durable point.
    """

    def __init__(self, message: str, *, state: object = None) -> None:
        super().__init__(message)
        self.state = state


class SimulationError(ReproError):
    """Numerical simulation failure (instability, bad grid...)."""


class RenderError(ReproError):
    """Visualization-stage failure (bad field, empty image...)."""
