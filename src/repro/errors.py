"""Exception hierarchy for :mod:`repro`.

Every error raised on purpose by this package derives from
:class:`ReproError` so callers can catch the whole family with one clause
while still distinguishing subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FrameError(ReproError):
    """Errors from the columnar :mod:`repro.frames` substrate."""


class ColumnMismatchError(FrameError):
    """Columns of unequal length, unknown name, or incompatible dtype."""


class SchemaError(ReproError):
    """A dataset does not conform to the expected trace schema."""


class SchedulerError(ReproError):
    """Invalid scheduler state or configuration."""


class AllocationError(SchedulerError):
    """A job requested more nodes than the system owns, or a double-free."""


class WorkloadError(ReproError):
    """Invalid workload-generation parameters."""


class ClusterError(ReproError):
    """Invalid cluster/system specification."""


class TelemetryError(ReproError):
    """Sampling or trace-assembly failures."""


class ModelError(ReproError):
    """ML-model misuse, e.g. predicting before fitting."""


class NotFittedError(ModelError):
    """The estimator must be fitted before calling predict()."""


class ValidationError(ReproError):
    """Evaluation-protocol violations (e.g. unseen users in validation)."""


class AnalysisError(ReproError):
    """An analysis was asked of a dataset lacking the required columns."""


class PolicyError(ReproError):
    """Invalid power-policy configuration."""


class ScenarioError(ReproError):
    """An invalid or unknown scenario description (ScenarioSpec)."""


class PipelineError(ReproError):
    """Invalid pipeline-runner configuration or a failed shard."""


class CacheError(PipelineError):
    """A cache entry is missing, corrupt, or cannot be written."""


class ServeError(ReproError):
    """Prediction-service misuse: bad request, closed batcher, overload."""


class ServiceClosed(ServeError):
    """The batcher/service was shut down; the request was not served."""


class ServiceOverloaded(ServeError):
    """More requests are pending than the service admits; retry later."""


class FaultError(ReproError):
    """Invalid fault-injection plan or injector misuse."""


class IncidentError(ReproError):
    """Incident-benchmark misuse: unknown scenario, malformed bundle."""


class ObsError(ReproError):
    """Observability misuse: bad metric/label names, invalid trace files."""
