"""Online power-prediction serving: the paper's deployment story (§VII).

Answers "what will this job draw per node?" at job-submit time, as a
long-lived concurrent service rather than an offline batch evaluation:

* :class:`~repro.serve.registry.ModelRegistry` — trains/loads
  BDT/KNN/FLDA/online models keyed by the pipeline's content-addressed
  dataset digest, with a warm LRU over an on-disk artifact cache;
* :class:`~repro.serve.batching.MicroBatcher` — coalesces concurrent
  single-job requests into vectorized predict calls (bit-identical to
  unbatched predictions);
* :class:`~repro.serve.flat_bdt.FlatBDT` /
  :class:`~repro.serve.flat_bdt.FlatBDTServable` — the fitted BDT
  flattened into contiguous arrays with a vectorized level-order
  descent (bit-identical to the object tree, ~10× the throughput);
* :class:`~repro.serve.api.PredictRequest` /
  :class:`~repro.serve.api.PredictResponse` — the one predict surface;
* :class:`~repro.serve.service.PredictionService` — the embeddable
  facade (validation, batched and bulk paths, degraded mode);
  :meth:`~repro.serve.service.PredictionService.predict_request` is
  its one predict method;
* :class:`~repro.serve.lifecycle.ModelLifecycle` /
  :class:`~repro.serve.lifecycle.LineageJournal` /
  :class:`~repro.serve.lifecycle.DriftDetector` — drift-aware online
  serving: feedback ingest, shadow evaluation of candidate versions,
  and journaled promote/rollback (docs/LIFECYCLE.md);
* :class:`~repro.serve.http.PredictionServer` /
  :func:`~repro.serve.http.create_server` — the stdlib HTTP/JSON
  front-end (``repro-power serve``; ``/v1/predict``,
  ``/v1/predict/bulk``, ``/v1/models``, ``/v1/healthz``,
  ``/v1/metrics``, ``/v1/feedback``, ``/v1/admin/*``);
* :class:`~repro.serve.forking.ForkingServer` — the pre-forked
  multi-process front-end: N ``SO_REUSEPORT`` workers on one port,
  fleet-aggregated ``/v1/metrics``, supervised restarts, graceful
  shutdown (``repro-power serve --workers N``).

See docs/SERVICE.md for endpoints, batching knobs and cache layout;
docs/LIFECYCLE.md covers the feedback/drift/promote loop.

Every symbol resolves lazily (PEP 562) so importing :mod:`repro` or the
CLI's bookkeeping commands never pays for numpy or the ML layer.
"""

from repro import _lazy

__all__ = [
    "DriftDetector",
    "FlatBDT",
    "FlatBDTServable",
    "ForkingServer",
    "LineageJournal",
    "MeanPowerServable",
    "MicroBatcher",
    "ModelLifecycle",
    "ModelRegistry",
    "OnlineServable",
    "PredictRequest",
    "PredictResponse",
    "PredictionServer",
    "PredictionService",
    "SERVE_MODELS",
    "WorkerConfig",
    "create_server",
    "replay_feedback",
]

# Lazy attribute map (PEP 562): name -> defining module.
_LAZY_ATTRS = {
    "MicroBatcher": "repro.serve.batching",
    "FlatBDT": "repro.serve.flat_bdt",
    "FlatBDTServable": "repro.serve.flat_bdt",
    "ForkingServer": "repro.serve.forking",
    "WorkerConfig": "repro.serve.forking",
    "MeanPowerServable": "repro.serve.registry",
    "ModelRegistry": "repro.serve.registry",
    "OnlineServable": "repro.serve.registry",
    "SERVE_MODELS": "repro.serve.registry",
    "PredictRequest": "repro.serve.api",
    "PredictResponse": "repro.serve.api",
    "DriftDetector": "repro.serve.lifecycle",
    "LineageJournal": "repro.serve.lifecycle",
    "ModelLifecycle": "repro.serve.lifecycle",
    "replay_feedback": "repro.serve.lifecycle",
    "PredictionService": "repro.serve.service",
    "PredictionServer": "repro.serve.http",
    "create_server": "repro.serve.http",
}

__getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)
