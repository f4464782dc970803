"""Structured JSON logging: record shape, thresholds, shared run id."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.errors import ObsError
from repro.obs import configure_logging, get_logger, run_id


@pytest.fixture
def sink():
    """Capture log output in a StringIO; restore defaults afterwards."""
    stream = io.StringIO()
    configure_logging(stream=stream, level="debug")
    yield stream
    configure_logging(stream=None, level=None)


def _records(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_records_are_json_with_run_id_and_fields(sink):
    get_logger("repro.test").info("model trained", model="BDT", seconds=1.5)
    (record,) = _records(sink)
    assert record["level"] == "info"
    assert record["logger"] == "repro.test"
    assert record["msg"] == "model trained"
    assert record["model"] == "BDT"
    assert record["seconds"] == 1.5
    assert record["run_id"] == run_id()
    assert record["ts"] > 0


def test_threshold_gates_lower_levels(sink):
    configure_logging(stream=sink, level="warning")
    logger = get_logger("repro.test")
    logger.debug("hidden")
    logger.info("hidden too")
    logger.warning("visible")
    logger.error("also visible")
    assert [r["level"] for r in _records(sink)] == ["warning", "error"]


def test_unknown_levels_raise(sink):
    with pytest.raises(ObsError, match="unknown log level"):
        get_logger("repro.test").log("loud", "nope")
    with pytest.raises(ObsError, match="unknown log level"):
        configure_logging(level="loud")


def test_run_id_is_stable_and_request_ids_are_not():
    assert run_id() == run_id()


def test_non_serializable_fields_fall_back_to_str(sink):
    get_logger("repro.test").info("weird", payload={1, 2}.__class__)
    (record,) = _records(sink)
    assert "class" in record["payload"]


def test_interleaved_threads_never_shear_lines(sink):
    logger = get_logger("repro.test")

    def worker(idx: int) -> None:
        for i in range(200):
            logger.info("tick", worker=idx, i=i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = _records(sink)  # every line parses as one JSON object
    assert len(records) == 4 * 200


def test_closed_sink_never_raises():
    stream = io.StringIO()
    configure_logging(stream=stream, level="debug")
    try:
        stream.close()
        get_logger("repro.test").error("into the void")  # must not raise
    finally:
        configure_logging(stream=None, level=None)
