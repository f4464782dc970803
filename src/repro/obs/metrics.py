"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free. Metrics are
created once at module import (``REGISTRY.counter(...)`` is idempotent:
re-registering the same name returns the same object) and updated from
any thread; every update is one short critical section on the metric's
own lock, so instrumented hot paths pay a dict lookup and an add. When
nobody scrapes ``/v1/metrics`` that is the *entire* cost — rendering,
quantile derivation, and snapshots all walk the data lazily on demand.

Exposition follows the Prometheus text format (version 0.0.4): ``HELP``
/ ``TYPE`` comments, one sample per ``name{labels} value`` line, and the
``_bucket``/``_sum``/``_count`` triplet for histograms, so the output of
:meth:`MetricsRegistry.render` can be scraped by a stock Prometheus (or
parsed by the tests) without adapters.

Histogram quantiles are *derived from the buckets* (linear
interpolation inside the bucket that crosses the requested rank — the
same estimate ``histogram_quantile`` computes server-side), which is
what lets the serving layer report p50/p99 from counters instead of
keeping a sliding window of raw samples.
"""

from __future__ import annotations

import math
import re
import sys
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "peak_rss_bytes",
    "render_merged",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Request-latency buckets (seconds): sub-millisecond through 30 s.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Coarser wall-time buckets (seconds) for pipeline stages and training.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without the trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing: name/help/label validation and the series map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:  # noqa: A002
        if not _NAME_RE.match(name):
            raise ObsError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ObsError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ObsError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def describe(self) -> dict[str, Any]:
        """Name/kind/labels descriptor (docs tooling, snapshots)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
        }


class Counter(_Metric):
    """Monotonically increasing counter (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:  # noqa: A002
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to this label set's series."""
        if amount < 0:
            raise ObsError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """Snapshot of every label set's value."""
        with self._lock:
            return dict(self._values)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())


class Gauge(_Metric):
    """A value that can go up and down (queue depths, warm-model counts)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()) -> None:  # noqa: A002
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set this label set's series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (may be negative) to this label set's series."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Subtract ``amount`` from this label set's series."""
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        """Current value of one label set (0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """Snapshot of every label set's value."""
        with self._lock:
            return dict(self._values)


class Histogram(_Metric):
    """Fixed-bucket histogram with derived quantiles.

    Buckets are cumulative upper bounds (``le``); an implicit ``+Inf``
    bucket catches everything beyond the last edge. Per label set the
    histogram keeps bucket counts plus exact ``sum`` and ``count``, so
    the mean is exact and quantiles are bucket-interpolated estimates.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Iterable[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(b) for b in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ObsError(
                f"histogram {name} needs strictly increasing, non-empty buckets"
            )
        if edges and edges[-1] == math.inf:
            edges = edges[:-1]
        self.buckets = edges
        # Per label set: [counts per finite bucket..., +Inf count]
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Fold one observation into this label set's buckets."""
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
            counts[idx] += 1
            self._sums[key] += value

    # -- derived views ---------------------------------------------------

    def count(self, **labels: Any) -> int:
        """Total observations for one label set."""
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: Any) -> float:
        """Exact sum of observations for one label set."""
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def mean(self, **labels: Any) -> float:
        """Exact mean of observations (0.0 when empty)."""
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if not counts:
                return 0.0
            n = sum(counts)
            return self._sums[key] / n if n else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """Bucket-interpolated quantile estimate (0.0 when empty).

        Walks the cumulative bucket counts to the one containing rank
        ``q * count`` and interpolates linearly inside it; ranks landing
        in the ``+Inf`` bucket return the last finite edge (the highest
        value the histogram can still resolve).
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q}")
        key = self._key(labels)
        with self._lock:
            counts = list(self._counts.get(key, ()))
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0.0
        for i, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i >= len(self.buckets):  # +Inf bucket: clamp
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i else 0.0
                upper = self.buckets[i]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.buckets[-1]

    def series(self) -> dict[tuple[str, ...], dict[str, Any]]:
        """Snapshot: per label set bucket counts, sum, and count."""
        with self._lock:
            return {
                key: {
                    "buckets": list(counts),
                    "sum": self._sums[key],
                    "count": sum(counts),
                }
                for key, counts in self._counts.items()
            }


class MetricsRegistry:
    """Thread-safe collection of named metrics with text exposition.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers, later calls with the same signature return the same
    object (so module-level metric definitions are import-order safe).
    Re-registering a name with a different kind, labels, or buckets is a
    programming error and raises :class:`~repro.errors.ObsError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs) -> Any:  # noqa: A002
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ObsError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{list(existing.labelnames)}"
                    )
                if kwargs.get("buckets") is not None and tuple(
                    float(b) for b in kwargs["buckets"]
                ) != getattr(existing, "buckets", None):
                    raise ObsError(
                        f"histogram {name!r} already registered with "
                        "different buckets"
                    )
                return existing
            metric = cls(name, help, **kwargs, labelnames=labelnames)
            self._metrics[name] = metric
            return metric

    def counter(  # noqa: A002
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Iterable[str] = ()) -> Gauge:  # noqa: A002
        """Get or create a :class:`Gauge`."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,  # noqa: A002
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Iterable[str] = (),
    ) -> Histogram:
        """Get or create a :class:`Histogram` with the given buckets."""
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Any:
        """The registered metric, or None."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        """Sorted registered metric names."""
        with self._lock:
            return sorted(self._metrics)

    def describe(self) -> list[dict[str, Any]]:
        """Descriptors for every registered metric (the metric catalog)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return [m.describe() for m in sorted(metrics, key=lambda m: m.name)]

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every metric.

        One renderer writes every exposition: this is
        :func:`render_merged` over the registry's own :meth:`dump`.
        """
        return render_merged([self.dump()])

    def snapshot(self) -> dict[str, dict[tuple[str, ...], float]]:
        """Flat ``{name: {label-values: value}}`` of counters and gauges.

        Histograms contribute their ``_count`` *and* ``_sum`` series, so
        a :meth:`delta` between two snapshots yields windowed means
        (Δsum / Δcount) — the drift detector's rolling prediction-error
        windows are exactly this. This is also the form the chaos
        auditor diffs before/after a soak, so invariants hold even when
        earlier runs in the same process already moved the process-wide
        counters.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, dict[tuple[str, ...], float]] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                series = metric.series()
                out[metric.name + "_count"] = {
                    key: float(snap["count"]) for key, snap in series.items()
                }
                out[metric.name + "_sum"] = {
                    key: float(snap["sum"]) for key, snap in series.items()
                }
            else:
                out[metric.name] = dict(metric.series())
        return out

    def dump(self) -> dict[str, Any]:
        """JSON-able full state of every metric (cross-process export).

        The multi-process serve front-end uses this: each worker
        periodically dumps its process-local registry to a file, and the
        worker answering ``GET /v1/metrics`` merges every dump with
        :func:`render_merged` into one fleet-wide exposition. Counters
        and gauges export their series values; histograms export bucket
        counts plus exact sum/count. Label keys become lists (JSON has
        no tuples); :func:`render_merged` restores them.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        out: dict[str, Any] = {}
        for metric in metrics:
            entry: dict[str, Any] = {
                "kind": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "series": [
                    [list(key), value] for key, value in metric.series().items()
                ],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    @staticmethod
    def delta(
        before: Mapping[str, Mapping[tuple[str, ...], float]],
        after: Mapping[str, Mapping[tuple[str, ...], float]],
    ) -> dict[str, dict[tuple[str, ...], float]]:
        """Per-series ``after - before`` between two :meth:`snapshot` calls."""
        out: dict[str, dict[tuple[str, ...], float]] = {}
        for name, series in after.items():
            base = before.get(name, {})
            diff = {
                key: value - base.get(key, 0.0) for key, value in series.items()
            }
            out[name] = diff
        return out


def render_merged(dumps: Iterable[Mapping[str, Any]]) -> str:
    """Aggregate several :meth:`MetricsRegistry.dump` states into one
    Prometheus text exposition.

    Per metric name and label set: counter and histogram series are
    *summed* across dumps (each worker process counts its own share of
    the fleet's traffic); gauges are summed too — the fleet-wide queue
    depth or warm-model count is the sum of the per-worker values.
    Dumps that disagree on a histogram's bucket edges keep the first
    edges seen and skip the incompatible series rather than producing a
    corrupt exposition.
    """
    merged: dict[str, dict[str, Any]] = {}
    for state in dumps:
        for name, entry in state.items():
            slot = merged.get(name)
            if slot is None:
                slot = {
                    "kind": entry["kind"],
                    "help": entry.get("help", ""),
                    "labels": tuple(entry.get("labels", ())),
                    "buckets": tuple(entry.get("buckets", ())),
                    "series": {},
                }
                merged[name] = slot
            elif slot["kind"] != entry["kind"]:
                continue  # kind clash across processes: keep first
            for raw_key, value in entry.get("series", ()):
                key = tuple(str(v) for v in raw_key)
                if slot["kind"] == "histogram":
                    if tuple(entry.get("buckets", ())) != slot["buckets"]:
                        continue
                    agg = slot["series"].get(key)
                    if agg is None:
                        agg = {
                            "buckets": [0] * (len(slot["buckets"]) + 1),
                            "sum": 0.0,
                            "count": 0,
                        }
                        slot["series"][key] = agg
                    for i, c in enumerate(value["buckets"]):
                        agg["buckets"][i] += c
                    agg["sum"] += value["sum"]
                    agg["count"] += value["count"]
                else:
                    slot["series"][key] = slot["series"].get(key, 0.0) + value
    lines: list[str] = []
    for name in sorted(merged):
        slot = merged[name]
        lines.append(f"# HELP {name} {slot['help']}")
        lines.append(f"# TYPE {name} {slot['kind']}")
        labelnames = slot["labels"]
        if slot["kind"] == "histogram":
            bucket_names = tuple(labelnames) + ("le",)
            for key, agg in sorted(slot["series"].items()):
                cumulative = 0
                for edge, count in zip(slot["buckets"], agg["buckets"]):
                    cumulative += count
                    labels = _format_labels(
                        bucket_names, key + (_format_value(edge),)
                    )
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _format_labels(bucket_names, key + ("+Inf",))
                lines.append(f"{name}_bucket{labels} {agg['count']}")
                plain = _format_labels(tuple(labelnames), key)
                lines.append(f"{name}_sum{plain} {_format_value(agg['sum'])}")
                lines.append(f"{name}_count{plain} {agg['count']}")
        else:
            for key, value in sorted(slot["series"].items()):
                labels = _format_labels(tuple(labelnames), key)
                lines.append(f"{name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented subsystem uses.
REGISTRY = MetricsRegistry()


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process (and reaped children), bytes.

    Reads ``resource.getrusage`` — zero-dependency and always available
    on POSIX; returns 0 where the ``resource`` module is missing. Linux
    reports ``ru_maxrss`` in kilobytes, macOS in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(peak)
    return int(peak) * 1024
