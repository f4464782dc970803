"""Tests for the time-resolved node-sample schema."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.telemetry import (
    load_samples,
    samples_table,
    save_samples,
    traces_from_samples,
)
from repro.telemetry.samples_schema import sample_columns, validate_samples


class TestSamplesTable:
    def test_row_count(self, emmy_small):
        samples = samples_table(emmy_small)
        expected = sum(t.matrix.size for t in emmy_small.traces.values())
        assert len(samples) == expected

    def test_schema_valid(self, emmy_small):
        validate_samples(samples_table(emmy_small))

    def test_physical_node_ids_recorded(self, emmy_small):
        samples = samples_table(emmy_small)
        assert samples["node_id"].max() < emmy_small.spec.num_nodes

    def test_requires_traces(self, emmy_small):
        import dataclasses

        with pytest.raises(SchemaError):
            samples_table(dataclasses.replace(emmy_small, traces={}))


class TestRoundTrip:
    def test_traces_reconstructed_exactly(self, emmy_small):
        samples = samples_table(emmy_small)
        traces, allocations = traces_from_samples(samples, emmy_small.jobs)
        assert set(traces) == set(emmy_small.traces)
        for job_id, original in emmy_small.traces.items():
            np.testing.assert_array_equal(traces[job_id].matrix, original.matrix)
            assert traces[job_id].user_id == original.user_id
            np.testing.assert_array_equal(
                allocations[job_id], emmy_small.trace_allocations[job_id]
            )

    def test_identity_placeholder_without_jobs(self, emmy_small):
        samples = samples_table(emmy_small)
        traces, _ = traces_from_samples(samples)
        assert next(iter(traces.values())).user_id == "unknown"

    def test_metrics_survive_roundtrip(self, emmy_small):
        """Temporal/spatial metrics from reloaded samples match exactly."""
        samples = samples_table(emmy_small)
        traces, _ = traces_from_samples(samples, emmy_small.jobs)
        for job_id, original in emmy_small.traces.items():
            rebuilt = traces[job_id]
            assert rebuilt.peak_overshoot() == original.peak_overshoot()
            assert rebuilt.avg_spatial_spread() == original.avg_spatial_spread()

    def test_missing_samples_rejected(self, emmy_small):
        samples = samples_table(emmy_small).take(slice(0, -1))  # drop one row
        with pytest.raises(SchemaError, match="expected"):
            traces_from_samples(samples)

    def test_duplicate_standing_in_for_a_missing_sample_rejected(self, emmy_small):
        samples = samples_table(emmy_small)
        # Row 1 (minute 1 of the first job's first node) replaced by a
        # copy of row 0: the job keeps its row count.
        rows = np.r_[0, 0, np.arange(2, len(samples))]
        with pytest.raises(SchemaError, match="1 missing"):
            traces_from_samples(samples.take(rows))

    def test_one_job_reversed_matches_the_grouped_table(self, emmy_small):
        """A job whose rows run backwards is sorted back into its matrix."""
        samples = samples_table(emmy_small)
        ids = samples["job_id"]
        job = list(emmy_small.traces)[3]
        rows = np.flatnonzero(ids == job)
        order = np.arange(len(samples))
        order[rows] = rows[::-1]
        traces, allocations = traces_from_samples(samples, emmy_small.jobs)
        back, back_alloc = traces_from_samples(samples.take(order), emmy_small.jobs)
        assert list(back) == list(traces)
        for job_id, trace in traces.items():
            np.testing.assert_array_equal(back[job_id].matrix, trace.matrix)
            np.testing.assert_array_equal(back_alloc[job_id], allocations[job_id])

    def test_row_order_does_not_matter(self, emmy_small):
        """``load_samples`` accepts CSV rows in any order; so must grouping."""
        samples = samples_table(emmy_small)
        shuffled = samples.take(np.random.default_rng(5).permutation(len(samples)))
        traces, allocations = traces_from_samples(samples, emmy_small.jobs)
        back, back_alloc = traces_from_samples(shuffled, emmy_small.jobs)
        assert list(back) == list(traces) == sorted(emmy_small.traces)
        for job_id, trace in traces.items():
            assert (back[job_id].user_id, back[job_id].app) == (trace.user_id, trace.app)
            np.testing.assert_array_equal(back[job_id].matrix, trace.matrix)
            np.testing.assert_array_equal(back_alloc[job_id], allocations[job_id])
        with pytest.raises(SchemaError, match="expected"):
            traces_from_samples(shuffled.take(slice(1, None)))


class TestPersistence:
    def test_npz_roundtrip(self, emmy_small, tmp_path):
        samples = samples_table(emmy_small)
        path = tmp_path / "samples.npz"
        save_samples(samples, path)
        assert load_samples(path) == samples

    def test_csv_roundtrip(self, emmy_small, tmp_path):
        samples = samples_table(emmy_small).head(500)
        path = tmp_path / "samples.csv"
        save_samples(samples, path)
        back = load_samples(path)
        np.testing.assert_allclose(back["power_w"], samples["power_w"])

    def test_column_stream_writes_the_table_bytes(self, emmy_small, tmp_path):
        save_samples(samples_table(emmy_small), tmp_path / "table.npz")
        stream = sample_columns(emmy_small.traces, emmy_small.trace_allocations)
        save_samples(stream, tmp_path / "stream.npz")
        assert (tmp_path / "stream.npz").read_bytes() == (
            tmp_path / "table.npz"
        ).read_bytes()

    @pytest.mark.parametrize("fault, match", [
        ("negative", "non-negative"), ("int_power", "dtype kind"),
        ("missing", "missing columns"),
    ])
    def test_column_stream_is_checked_and_leaves_no_file(
        self, emmy_small, tmp_path, fault, match
    ):
        def stream():
            for name, column in sample_columns(
                emmy_small.traces, emmy_small.trace_allocations
            ):
                if name == "power_w":
                    if fault == "missing":
                        continue
                    column = -column if fault == "negative" else column.astype(int)
                yield name, column

        path = tmp_path / "samples.npz"
        with pytest.raises(SchemaError, match=match):
            save_samples(stream(), path)
        assert not path.exists()

    def test_bad_suffix(self, emmy_small, tmp_path):
        with pytest.raises(SchemaError, match="suffix"):
            save_samples(samples_table(emmy_small), tmp_path / "x.parquet")

    def test_negative_power_rejected(self, emmy_small):
        samples = samples_table(emmy_small)
        bad = samples.with_column("power_w", -samples["power_w"])
        with pytest.raises(SchemaError, match="non-negative"):
            validate_samples(bad)
