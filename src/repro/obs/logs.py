"""Structured JSON logging with a shared per-process run id.

Every log line is one JSON object::

    {"ts": 1722870000.123, "level": "info", "logger": "repro.serve",
     "run_id": "f3a9c1d2e4b5", "msg": "model trained", "model": "BDT"}

The ``run_id`` is minted once per process (or taken from
``$REPRO_RUN_ID``, so a driver script can stitch multi-process runs
together) and shared with the tracing layer — grep one id and you get
the logs *and* the spans of that run.

Loggers are cheap, threshold-gated, and write a single line per event,
so interleaved threads cannot shear a record. The default threshold is
``warning`` (quiet in tests and pipelines); raise verbosity with
``$REPRO_LOG_LEVEL=info`` or :func:`configure_logging`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import uuid
from typing import Any, TextIO

from repro.errors import ObsError

__all__ = [
    "JsonLogger",
    "get_logger",
    "configure_logging",
    "run_id",
]

RUN_ID_ENV_VAR = "REPRO_RUN_ID"
LOG_LEVEL_ENV_VAR = "REPRO_LOG_LEVEL"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_RUN_ID: str | None = None
_RUN_ID_LOCK = threading.Lock()

_STREAM: TextIO | None = None  # None -> sys.stderr at emit time
_LEVEL: int | None = None  # None -> $REPRO_LOG_LEVEL or warning
_EMIT_LOCK = threading.Lock()


def run_id() -> str:
    """The process-wide run id (``$REPRO_RUN_ID`` or minted once)."""
    global _RUN_ID
    if _RUN_ID is None:
        with _RUN_ID_LOCK:
            if _RUN_ID is None:
                _RUN_ID = os.environ.get(RUN_ID_ENV_VAR) or uuid.uuid4().hex[:12]
    return _RUN_ID


def _threshold() -> int:
    if _LEVEL is not None:
        return _LEVEL
    name = os.environ.get(LOG_LEVEL_ENV_VAR, "warning").lower()
    return LEVELS.get(name, LEVELS["warning"])


def configure_logging(
    stream: TextIO | None = None, level: str | None = None
) -> None:
    """Override the log sink and/or threshold process-wide.

    ``stream=None`` restores the default (stderr); ``level=None``
    restores the ``$REPRO_LOG_LEVEL`` / ``warning`` default.
    """
    global _STREAM, _LEVEL
    if level is not None and level not in LEVELS:
        raise ObsError(f"unknown log level {level!r}; known: {sorted(LEVELS)}")
    _STREAM = stream
    _LEVEL = LEVELS[level] if level is not None else None


class JsonLogger:
    """One named source of structured JSON log lines."""

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, msg: str, **fields: Any) -> None:
        """Emit one record if ``level`` clears the process threshold."""
        severity = LEVELS.get(level)
        if severity is None:
            raise ObsError(f"unknown log level {level!r}")
        if severity < _threshold():
            return
        record = {
            "ts": round(time.time(), 3),
            "level": level,
            "logger": self.name,
            "run_id": run_id(),
            "msg": msg,
            **fields,
        }
        line = json.dumps(record, sort_keys=True, default=str)
        stream = _STREAM if _STREAM is not None else sys.stderr
        with _EMIT_LOCK:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed sink must never take the caller down

    def debug(self, msg: str, **fields: Any) -> None:
        """Emit at ``debug`` severity."""
        self.log("debug", msg, **fields)

    def info(self, msg: str, **fields: Any) -> None:
        """Emit at ``info`` severity."""
        self.log("info", msg, **fields)

    def warning(self, msg: str, **fields: Any) -> None:
        """Emit at ``warning`` severity."""
        self.log("warning", msg, **fields)

    def error(self, msg: str, **fields: Any) -> None:
        """Emit at ``error`` severity."""
        self.log("error", msg, **fields)


def get_logger(name: str) -> JsonLogger:
    """The structured logger for one subsystem (``repro.serve``, ...)."""
    return JsonLogger(name)
