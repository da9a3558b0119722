"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError):
    """An operation received tensors whose shapes are incompatible."""


class GradientError(ReproError):
    """Backward pass failed or was requested on a non-differentiable graph."""


class DecompositionError(ReproError):
    """A tensor decomposition (CP / TR / Tucker) could not be computed."""


class AdapterError(ReproError):
    """A PEFT adapter was attached, merged or configured incorrectly."""


class ConfigError(ReproError):
    """An experiment configuration is inconsistent or out of range."""


class DataError(ReproError):
    """A dataset or task specification is invalid."""


class TrainingError(ReproError):
    """The training loop encountered an unrecoverable condition."""


class EvaluationError(ReproError):
    """An evaluation protocol was invoked with invalid inputs."""


class WorkerError(ReproError):
    """One or more experiment cells failed inside the parallel runtime.

    Raised in the *parent* process after the pool has drained: per-cell
    failures are collected as structured records (exception type, message
    and remote traceback), never left to hang or kill the pool.
    """


class ServeError(ReproError):
    """The serving layer was misused or asked to compile the uncompilable.

    Raised when the serve compiler meets a module type it has no lowering
    rule for, or when a :class:`~repro.serve.registry.MultiTenantEngine`
    is used after ``close()`` or a scheduler is built with invalid limits.
    """


class CheckpointError(ReproError):
    """A persisted artifact (adapter checkpoint, run-dir cell) is invalid.

    Raised when a versioned artifact's manifest is missing or corrupt,
    its format version is unsupported, or the stored arrays do not match
    what the manifest — or the model being restored — declares.  The
    point is to fail at the artifact boundary with a clear message
    instead of deep inside numpy.
    """


class CellTimeoutError(ReproError):
    """An experiment cell exceeded its soft wall-clock budget.

    Raised *inside* the worker by the pool's alarm-based soft timeout;
    the runtime converts it into a structured ``CellFailure`` like any
    other cell exception, so a stalled cell neither hangs the grid nor
    takes down its siblings.
    """


class ObsError(ReproError):
    """The observability layer was misused or fed an invalid artifact.

    Raised on metric-kind conflicts (one dotted name used as two
    different kinds via the typed ``repro.obs`` API), on unparsable
    ``trace.jsonl`` records, and when ``repro trace`` is pointed at a
    directory with no trace export.
    """


class FaultInjected(ReproError):
    """A deterministic test fault (``REPRO_FAULTS``) fired in a worker.

    Never raised in normal operation — only when fault injection is armed
    via :func:`repro.faults.fire_faults`, which the retry/timeout/resume
    tests use to crash or stall chosen cells on chosen attempts.
    """
