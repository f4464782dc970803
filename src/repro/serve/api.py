"""The one predict surface: ``PredictRequest`` in, ``PredictResponse`` out.

:meth:`repro.serve.service.PredictionService.predict_request` is the only
way to get a prediction from :mod:`repro.serve`. It takes one
:class:`PredictRequest` and returns one :class:`PredictResponse`; the
HTTP ``/v1/predict`` and ``/v1/predict/bulk`` handlers build the request
from the wire payload and read the response's attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ServeError

__all__ = ["PredictRequest", "PredictResponse"]

#: The execution modes a request may name. ``batched`` submits each
#: record to the micro-batcher (single-job requests coalesce across
#: clients); ``bulk`` answers the caller-assembled batch with one
#: vectorized call on the calling thread (the NDJSON path).
PREDICT_MODES = ("batched", "bulk")


@dataclass(frozen=True)
class PredictRequest:
    """One prediction request, in canonical frozen form.

    Parameters
    ----------
    records:
        The job records to predict for (each needs ``user``, ``nodes``,
        ``req_walltime_s``; the ``GPU`` track model additionally needs
        ``gpus``, the per-node board count). Stored as a tuple so
        requests are hashable and immutable.
    model:
        Model name from :data:`repro.serve.registry.SERVE_MODELS`.
    scenario:
        Optional scenario override/overlay, anything
        :meth:`PredictionService.resolve_scenario` accepts.
    mode:
        ``"batched"`` (default — coalescing micro-batcher) or ``"bulk"``
        (one vectorized call, no queue).
    timeout:
        Per-request result timeout (batched mode only).
    version:
        Explicit lineage version to serve from, or ``None`` (default)
        to resolve the active version through the lifecycle journal
        (version 1 when no lifecycle is attached) — docs/LIFECYCLE.md.
    """

    records: tuple[Mapping[str, Any], ...]
    model: str = "BDT"
    scenario: Any = None
    mode: str = "batched"
    timeout: float | None = 30.0
    version: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        if self.mode not in PREDICT_MODES:
            raise ServeError(
                f"unknown predict mode {self.mode!r}; known: {PREDICT_MODES}"
            )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class PredictResponse:
    """One prediction response: values plus serving provenance."""

    predictions: Any  # np.ndarray, request order
    degraded: bool
    served_by: str  # model name that actually answered
    model: str  # model name that was requested
    version: int  # lineage version that answered (1 = base)
    dataset_digest: str  # dataset the answering scenario resolved to
