"""Reloading a dataset artifact: the samples one column at a time, checked.

``load_dataset`` rebuilds the traces from ``samples.npz`` without ever
holding the flat table, keys traces and allocations in ``dataset.json``'s
``trace_order``, and refuses an artifact whose files disagree.
"""

from __future__ import annotations

import json
import shutil
import tracemalloc

import numpy as np
import pytest

import repro.telemetry.samples_schema as samples_mod
from repro.errors import ColumnMismatchError, FrameError, SchemaError, TelemetryError
from repro.frames import Table, read_npz, write_npz
from repro.pipeline import (
    ArtifactCache,
    ShardConfig,
    load_dataset,
    save_dataset,
    stage_key,
    stream_shard,
)
from repro.telemetry import generate_dataset
from tests.helpers.memory import traced

TINY = dict(num_nodes=24, num_users=8, horizon_s=5 * 86400, max_traces=16)


@pytest.fixture(scope="module")
def saved(emmy_small, tmp_path_factory):
    """``emmy_small`` written as an artifact (read-only: copy to modify)."""
    out = tmp_path_factory.mktemp("art")
    save_dataset(emmy_small, out)
    return out


@pytest.fixture()
def art(saved, tmp_path):
    """A private copy of the saved artifact, for tests that break it."""
    return shutil.copytree(saved, tmp_path / "art")


def _assert_same_traces(built, reloaded) -> None:
    assert list(reloaded.traces) == list(built.traces)
    assert list(reloaded.trace_allocations) == list(built.trace_allocations)
    for jid, trace in built.traces.items():
        back = reloaded.traces[jid]
        assert (back.user_id, back.app, back.system) == (
            trace.user_id, trace.app, trace.system
        )
        np.testing.assert_array_equal(back.matrix, trace.matrix)
        assert back.matrix.dtype == np.float64 and back.matrix.flags.owndata
        np.testing.assert_array_equal(
            reloaded.trace_allocations[jid], built.trace_allocations[jid]
        )


class TestLeanReload:
    def test_peaks_below_the_samples_table(self, saved):
        table = read_npz(saved / "samples.npz")
        table_bytes = sum(table[name].nbytes for name in table.column_names)
        del table
        tracemalloc.start()
        try:
            _, peak = traced(load_dataset, saved)
        finally:
            tracemalloc.stop()
        assert peak < table_bytes

    def test_never_reads_the_whole_table(self, saved, emmy_small, monkeypatch):
        def whole_table(*args, **kwargs):
            raise AssertionError("load_dataset read the whole samples table")

        monkeypatch.setattr(samples_mod, "load_samples", whole_table)
        monkeypatch.setattr(samples_mod, "read_npz", whole_table)
        _assert_same_traces(emmy_small, load_dataset(saved))

    def test_streamed_artifact_reloads_to_the_built_dataset(self, tmp_path):
        shard = ShardConfig("emmy", seed=2, **TINY)
        cache = ArtifactCache(tmp_path)
        report = stream_shard(shard, cache, chunk_jobs=60)
        assert report.n_jobs > 2 * 60  # three chunks
        built = generate_dataset("emmy", seed=2, **TINY)
        assert built.traces
        reloaded = load_dataset(cache.entry_dir("dataset", stage_key(shard, "dataset")))
        _assert_same_traces(built, reloaded)


def _frames_layout(path, columns: dict) -> None:
    """``columns`` in write_npz's member layout, without its length check."""
    members = {f"col::{name}": column for name, column in columns.items()}
    np.savez(path, __order__=np.asarray(list(columns), dtype=str), **members)


def _with_power(columns: dict, value: float) -> dict:
    power = columns["power_w"].copy()
    power[7] = value
    return {**columns, "power_w": power}


#: One malformed ``samples.npz`` per row: how to write it from the good
#: columns, and what reloading the artifact raises.
MALFORMED = [
    pytest.param(lambda path, cols: np.savez(path, **cols), FrameError, "__order__",
                 id="not-written-by-write_npz"),
    pytest.param(lambda path, cols: write_npz(
        Table({k: v for k, v in cols.items() if k != "node_rank"}), path),
        SchemaError, "missing columns", id="column-missing"),
    pytest.param(lambda path, cols: write_npz(
        Table({**cols, "minute": cols["minute"].astype(float)}), path),
        SchemaError, "dtype kind", id="wrong-dtype-kind"),
    pytest.param(lambda path, cols: _frames_layout(
        path, {**cols, "power_w": cols["power_w"][:-1]}),
        ColumnMismatchError, "power_w", id="unequal-lengths"),
    pytest.param(lambda path, cols: write_npz(Table(_with_power(cols, -1.0)), path),
                 SchemaError, "non-negative", id="negative-power"),
    pytest.param(lambda path, cols: write_npz(Table(_with_power(cols, np.nan)), path),
                 TelemetryError, "finite", id="nan-power"),
]


class TestMalformedArtifact:
    @pytest.mark.parametrize("write, error, match", MALFORMED)
    def test_raises(self, art, write, error, match):
        columns = read_npz(art / "samples.npz").to_dict()
        write(art / "samples.npz", columns)
        with pytest.raises(error, match=match):
            load_dataset(art)


class TestTraceOrder:
    """``dataset.json``'s ``trace_order`` must list each sampled job once."""

    @staticmethod
    def _edit(art, edit) -> None:
        path = art / "dataset.json"
        meta = json.loads(path.read_text())
        edit(meta["trace_order"])
        path.write_text(json.dumps(meta))

    def test_an_id_without_samples(self, art):
        self._edit(art, lambda order: order.insert(3, 1_000_000_000))
        with pytest.raises(SchemaError, match=r"without samples \[1000000000\]"):
            load_dataset(art)

    def test_a_sampled_job_left_out(self, art, emmy_small):
        dropped = list(emmy_small.traces)[5]
        self._edit(art, lambda order: order.remove(dropped))
        with pytest.raises(SchemaError, match=rf"omits sampled jobs \[{dropped}\]"):
            load_dataset(art)

    def test_samples_file_missing(self, art, emmy_small):
        (art / "samples.npz").unlink()
        first = list(emmy_small.traces)[0]
        with pytest.raises(SchemaError, match=rf"without samples \[{first},"):
            load_dataset(art)

    def test_a_job_listed_twice(self, art, emmy_small):
        again = list(emmy_small.traces)[2]
        self._edit(art, lambda order: order.append(again))
        with pytest.raises(SchemaError, match=rf"repeats jobs \[{again}\]"):
            load_dataset(art)
