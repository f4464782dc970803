"""MetricsRegistry: counters, gauges, histograms, exposition, threads."""

from __future__ import annotations

import math
import re
import threading

import pytest

from repro.errors import ObsError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[^ ]+)$"
)


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus 0.0.4 text → {'name{labels}': value}; strict on format."""
    samples: dict[str, float] = {}
    helped: set[str] = set()
    typed: set[str] = set()
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in {"counter", "gauge", "histogram", "untyped"}
            typed.add(parts[2])
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        value = float("inf") if match["value"] == "+Inf" else float(match["value"])
        samples[match["name"] + (match["labels"] or "")] = value
    # Every sample family traces back to a HELP/TYPE pair.
    for key in samples:
        base = key.split("{")[0]
        family = re.sub(r"_(bucket|sum|count)$", "", base)
        assert base in typed or family in typed, f"sample {key} lacks TYPE"
        assert base in helped or family in helped, f"sample {key} lacks HELP"
    return samples


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("t_requests_total", "requests")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total() == 3.5

    def test_rejects_decrease(self):
        c = Counter("t_mono_total", "monotone")
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        c = Counter("t_by_outcome_total", "by outcome", labelnames=("outcome",))
        c.inc(outcome="ok")
        c.inc(outcome="ok")
        c.inc(outcome="failed")
        assert c.value(outcome="ok") == 2.0
        assert c.value(outcome="failed") == 1.0
        assert c.total() == 3.0

    def test_wrong_labels_raise(self):
        c = Counter("t_labeled_total", "labeled", labelnames=("stage",))
        with pytest.raises(ObsError, match="takes labels"):
            c.inc()
        with pytest.raises(ObsError, match="takes labels"):
            c.inc(stage="workload", extra="nope")

    def test_invalid_names_rejected(self):
        with pytest.raises(ObsError, match="invalid metric name"):
            Counter("0bad", "bad")
        with pytest.raises(ObsError, match="invalid label name"):
            Counter("t_ok_total", "ok", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t_depth", "queue depth")
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value() == 3.0

    def test_can_go_negative(self):
        g = Gauge("t_signed", "signed")
        g.dec(1.5)
        assert g.value() == -1.5


class TestHistogram:
    def test_count_sum_mean_exact(self):
        h = Histogram("t_lat", "latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        assert h.mean() == pytest.approx(55.55 / 4)

    def test_buckets_cumulative_in_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_cum", "cumulative", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        lines = reg.render().splitlines()
        assert 't_cum_bucket{le="1"} 1' in lines
        assert 't_cum_bucket{le="2"} 2' in lines
        assert 't_cum_bucket{le="+Inf"} 3' in lines
        assert "t_cum_count 3" in lines

    def test_quantile_interpolates_inside_bucket(self):
        h = Histogram("t_q", "quantiles", buckets=(0.0, 10.0))
        for _ in range(100):
            h.observe(5.0)  # all rank mass inside the (0, 10] bucket
        # Linear interpolation: rank q*100 of 100 observations in one
        # bucket spanning (0, 10] → q * 10.
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(0.99) == pytest.approx(9.9)

    def test_quantile_empty_and_overflow(self):
        h = Histogram("t_q2", "quantiles", buckets=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0
        h.observe(100.0)  # lands in +Inf: clamp to last finite edge
        assert h.quantile(0.99) == 2.0
        with pytest.raises(ObsError, match="quantile"):
            h.quantile(1.5)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ObsError, match="strictly increasing"):
            Histogram("t_bad", "bad", buckets=(2.0, 1.0))
        with pytest.raises(ObsError, match="strictly increasing"):
            Histogram("t_bad2", "bad", buckets=())

    def test_trailing_inf_edge_dropped(self):
        h = Histogram("t_inf", "inf edge", buckets=(1.0, math.inf))
        assert h.buckets == (1.0,)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("r_total", "hits", labelnames=("k",))
        b = reg.counter("r_total", "hits", labelnames=("k",))
        assert a is b

    def test_kind_and_label_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("r_total", "hits")
        with pytest.raises(ObsError, match="already registered"):
            reg.gauge("r_total", "hits")
        with pytest.raises(ObsError, match="already registered"):
            reg.counter("r_total", "hits", labelnames=("k",))
        reg.histogram("r_h", "h", buckets=(1.0, 2.0))
        with pytest.raises(ObsError, match="different buckets"):
            reg.histogram("r_h", "h", buckets=(1.0, 3.0))

    def test_render_is_valid_exposition(self):
        reg = MetricsRegistry()
        reg.counter("r_requests_total", "requests", labelnames=("outcome",)).inc(
            outcome="ok"
        )
        reg.gauge("r_depth", "depth").set(4)
        h = reg.histogram("r_latency_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        samples = parse_exposition(reg.render())
        assert samples['r_requests_total{outcome="ok"}'] == 1.0
        assert samples["r_depth"] == 4.0
        assert samples['r_latency_seconds_bucket{le="0.1"}'] == 1.0
        assert samples['r_latency_seconds_bucket{le="+Inf"}'] == 2.0
        assert samples["r_latency_seconds_count"] == 2.0

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("r_esc_total", "esc", labelnames=("v",)).inc(v='a"b\\c\nd')
        text = reg.render()
        assert '{v="a\\"b\\\\c\\nd"}' in text

    def test_snapshot_delta_isolates_a_window(self):
        reg = MetricsRegistry()
        c = reg.counter("r_win_total", "windowed", labelnames=("k",))
        c.inc(5, k="x")  # pre-existing traffic
        before = reg.snapshot()
        c.inc(2, k="x")
        c.inc(1, k="y")
        delta = MetricsRegistry.delta(before, reg.snapshot())
        assert delta["r_win_total"][("x",)] == 2.0
        assert delta["r_win_total"][("y",)] == 1.0

    def test_snapshot_reports_histograms_as_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("r_hist_seconds", "hist", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        assert reg.snapshot()["r_hist_seconds_count"][()] == 2.0

    def test_describe_lists_the_catalog(self):
        reg = MetricsRegistry()
        reg.counter("r_b_total", "b")
        reg.gauge("r_a", "a")
        names = [d["name"] for d in reg.describe()]
        assert names == sorted(names)
        kinds = {d["name"]: d["kind"] for d in reg.describe()}
        assert kinds == {"r_a": "gauge", "r_b_total": "counter"}


class TestThreadSafety:
    def test_concurrent_updates_lose_nothing(self):
        reg = MetricsRegistry()
        counter = reg.counter("r_mt_total", "mt", labelnames=("worker",))
        hist = reg.histogram("r_mt_seconds", "mt", buckets=(0.5,))
        n_threads, n_iter = 8, 2_000

        def worker(idx: int) -> None:
            label = str(idx % 2)
            for _ in range(n_iter):
                counter.inc(worker=label)
                hist.observe(0.25)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert counter.total() == n_threads * n_iter
        assert counter.value(worker="0") == n_threads * n_iter / 2
        assert hist.count() == n_threads * n_iter
        assert hist.sum() == pytest.approx(0.25 * n_threads * n_iter)

    def test_concurrent_registration_yields_one_object(self):
        reg = MetricsRegistry()
        seen: list[object] = []
        barrier = threading.Barrier(8)

        def register() -> None:
            barrier.wait()
            seen.append(reg.counter("r_race_total", "race"))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(obj) for obj in seen}) == 1
