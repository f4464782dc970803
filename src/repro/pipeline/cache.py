"""Content-addressed on-disk artifact cache.

Every pipeline stage output is stored under
``<root>/<stage>/<sha256-key>/`` where the key hashes the *complete
configuration the stage depends on* (see
:func:`repro.pipeline.stages.stage_key`). An entry is a directory
holding the payload (``payload.pkl`` for intermediate stages, the
open-data NPZ/JSON artifact files for the final dataset stage) plus a
``meta.json`` sidecar describing what it is and how long it took to
build.

Commits are atomic: payloads are written into a temporary sibling
directory and ``os.rename``-d into place, so concurrent workers racing
on the same key cannot publish a half-written entry — the loser of the
race simply discards its copy (both copies are byte-identical by
construction).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import CacheError
from repro.faults.injector import maybe_fire
from repro.obs.metrics import REGISTRY, peak_rss_bytes

# Cache observability (docs/OBSERVABILITY.md). Outcomes: "hit" (entry
# served), "miss" (no entry), "error" (unreadable entry or injected
# fault). The damaged gauge reflects the latest entries() scan.
_CACHE_READS = REGISTRY.counter(
    "repro_cache_reads_total",
    "Artifact-cache reads by stage and outcome (hit/miss/error).",
    labelnames=("stage", "outcome"),
)
_CACHE_WRITES = REGISTRY.counter(
    "repro_cache_writes_total",
    "Artifact-cache entries committed, by stage.",
    labelnames=("stage",),
)
_CACHE_DAMAGED = REGISTRY.gauge(
    "repro_cache_damaged_entries",
    "Damaged cache entries (unreadable meta) found by the latest scan.",
)

__all__ = [
    "CacheError",
    "CacheEntry",
    "ArtifactCache",
    "canonical_json",
    "content_key",
    "default_cache_dir",
]

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
META_NAME = "meta.json"
PAYLOAD_NAME = "payload.pkl"


def default_cache_dir() -> Path:
    """The cache root used when none is given.

    ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-pipeline``.
    """
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-pipeline"


def _jsonable(obj: Any) -> Any:
    # numpy scalars carry .item(); anything else unserializable is a bug
    # in the caller's config, so let json raise.
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    raise TypeError(f"not canonically serializable: {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Whitespace-free, key-sorted JSON — the hashable form of a config."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def content_key(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload`` (hex digest)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One committed cache entry: its address plus the meta sidecar."""

    stage: str
    key: str
    path: Path
    meta: dict

    @property
    def size_bytes(self) -> int:
        """Total on-disk size of the entry's files."""
        return sum(p.stat().st_size for p in self.path.iterdir() if p.is_file())

    @property
    def damaged(self) -> bool:
        """True when the entry's meta sidecar was unreadable.

        A crashed or fault-injected writer can leave a truncated
        ``meta.json`` behind; such entries are surfaced (and removable)
        instead of crashing ``pipeline status`` / ``clean``.
        """
        return bool(self.meta.get("damaged"))


def stage_timing(t0: float) -> dict:
    """A stage sidecar's ``seconds`` since ``t0`` (a ``time.perf_counter()``
    reading) and the process's ``peak_rss_bytes``. Call it once the
    stage's files are written: the write is part of the stage."""
    return {"seconds": round(time.perf_counter() - t0, 4),
            "peak_rss_bytes": peak_rss_bytes()}


class ArtifactCache:
    """Content-addressed store of pipeline stage outputs.

    Parameters
    ----------
    root:
        Cache directory (created lazily). Layout is
        ``<root>/<stage>/<key>/{meta.json, payload...}``.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # -- addressing ------------------------------------------------------

    def entry_dir(self, stage: str, key: str) -> Path:
        """Directory a (stage, key) entry lives in (may not exist yet)."""
        return self.root / stage / key

    def has(self, stage: str, key: str) -> bool:
        """True if a committed entry exists for (stage, key)."""
        return (self.entry_dir(stage, key) / META_NAME).is_file()

    def load_meta(self, stage: str, key: str) -> dict:
        """The meta.json of a committed entry."""
        if maybe_fire("cache.read"):
            _CACHE_READS.inc(stage=stage, outcome="error")
            raise CacheError(f"injected fault: cache.read {stage}/{key[:12]}…")
        path = self.entry_dir(stage, key) / META_NAME
        try:
            meta = json.loads(path.read_text())
        except FileNotFoundError:
            _CACHE_READS.inc(stage=stage, outcome="miss")
            raise CacheError(f"no cache entry for {stage}/{key[:12]}…") from None
        except (OSError, json.JSONDecodeError) as exc:
            _CACHE_READS.inc(stage=stage, outcome="error")
            raise CacheError(
                f"unreadable meta for {stage}/{key[:12]}…: {exc}"
            ) from None
        _CACHE_READS.inc(stage=stage, outcome="hit")
        return meta

    # -- commit / load ---------------------------------------------------

    def _commit(self, stage: str, key: str, tmp: Path) -> Path:
        final = self.entry_dir(stage, key)
        final.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(tmp, final)
        except OSError:
            # Lost a race with another worker building the same key; the
            # published entry is byte-identical, keep it.
            shutil.rmtree(tmp, ignore_errors=True)
        return final

    def _tmp_dir(self) -> Path:
        tmp = self.root / "tmp" / uuid.uuid4().hex
        tmp.mkdir(parents=True)
        return tmp

    def _write_meta(self, where: Path, stage: str, key: str, meta: dict) -> dict:
        full = {"stage": stage, "key": key, "created_unix": time.time(), **meta}
        (where / META_NAME).write_text(json.dumps(full, indent=2, sort_keys=True))
        return full

    def store_pickle(
        self, stage: str, key: str, obj: Any, meta: dict, t0: float | None = None
    ) -> Path:
        """Commit a pickled payload under (stage, key). Atomic.

        Given ``t0``, the ``time.perf_counter()`` reading at which the
        stage began, the sidecar also records :func:`stage_timing`, read
        once the payload is written.
        """
        if maybe_fire("cache.write"):
            raise CacheError(f"injected fault: cache.write {stage}/{key[:12]}…")
        tmp = self._tmp_dir()
        with (tmp / PAYLOAD_NAME).open("wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        if t0 is not None:
            meta = {**meta, **stage_timing(t0)}
        self._write_meta(tmp, stage, key, meta)
        _CACHE_WRITES.inc(stage=stage)
        return self._commit(stage, key, tmp)

    def load_pickle(self, stage: str, key: str) -> Any:
        """Load a payload committed by :meth:`store_pickle`."""
        if maybe_fire("cache.read"):
            _CACHE_READS.inc(stage=stage, outcome="error")
            raise CacheError(f"injected fault: cache.read {stage}/{key[:12]}…")
        if maybe_fire("cache.corrupt"):
            _CACHE_READS.inc(stage=stage, outcome="error")
            raise pickle.UnpicklingError(
                f"injected fault: cache.corrupt {stage}/{key[:12]}…"
            )
        path = self.entry_dir(stage, key) / PAYLOAD_NAME
        try:
            with path.open("rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            _CACHE_READS.inc(stage=stage, outcome="miss")
            raise CacheError(f"no cached payload for {stage}/{key[:12]}…") from None
        _CACHE_READS.inc(stage=stage, outcome="hit")
        return payload

    def store_tree(
        self, stage: str, key: str, build: Callable[[Path], dict], meta: dict
    ) -> Path:
        """Commit a multi-file artifact under (stage, key). Atomic.

        ``build(tmp_dir)`` writes the artifact files into ``tmp_dir`` and
        returns extra meta fields to merge into the sidecar.
        """
        if maybe_fire("cache.write"):
            raise CacheError(f"injected fault: cache.write {stage}/{key[:12]}…")
        tmp = self._tmp_dir()
        extra = build(tmp) or {}
        self._write_meta(tmp, stage, key, {**meta, **extra})
        _CACHE_WRITES.inc(stage=stage)
        return self._commit(stage, key, tmp)

    # -- inspection / cleaning -------------------------------------------

    def entries(self, stage: str | None = None) -> list[CacheEntry]:
        """All committed entries, sorted by (stage, key)."""
        found: list[CacheEntry] = []
        if stage is not None:
            stages = [stage]
        elif self.root.is_dir():
            stages = sorted(
                p.name for p in self.root.iterdir() if p.is_dir() and p.name != "tmp"
            )
        else:
            stages = []
        for s in stages:
            stage_dir = self.root / s
            if not stage_dir.is_dir():
                continue
            for entry in sorted(stage_dir.iterdir()):
                if not entry.is_dir():
                    continue
                meta_path = entry / META_NAME
                # A crashed/faulted writer can leave a truncated sidecar
                # (or none at all — which also wedges the key: commits
                # rename onto the occupied directory and give up).
                # Surface such entries as damaged so `status` can report
                # them and `clean` can remove them, instead of raising
                # or skipping them forever.
                if not meta_path.is_file():
                    meta = {"damaged": True, "error": f"missing {META_NAME}"}
                else:
                    try:
                        meta = json.loads(meta_path.read_text())
                    except (OSError, json.JSONDecodeError) as exc:
                        meta = {"damaged": True, "error": str(exc)}
                found.append(CacheEntry(s, entry.name, entry, meta))
        _CACHE_DAMAGED.set(sum(1 for e in found if e.damaged))
        return found

    def remove(
        self,
        stage: str | None = None,
        system: str | None = None,
        seed: int | None = None,
    ) -> int:
        """Delete entries matching *all* given filters; returns the count.

        With no filters, every entry is removed. Filtering on ``system``
        and ``seed`` matches the shard identity recorded in each entry's
        meta sidecar, so e.g. ``remove(system="emmy")`` leaves Meggie's
        artifacts untouched.
        """
        removed = 0
        for entry in self.entries(stage):
            config = entry.meta.get("config", {})
            if system is not None and config.get("system") != system:
                continue
            if seed is not None and config.get("seed") != seed:
                continue
            shutil.rmtree(entry.path)
            removed += 1
        # Drop now-empty stage directories so status output stays clean.
        if self.root.is_dir():
            for stage_dir in self.root.iterdir():
                if stage_dir.is_dir() and not any(stage_dir.iterdir()):
                    stage_dir.rmdir()
        return removed

    def size_bytes(self) -> int:
        """Total on-disk size of all committed entries."""
        return sum(e.size_bytes for e in self.entries())

    def remove_orphan_shards(self, chunk_stage: str = "chunk") -> int:
        """Delete spill shards whose dataset already committed; returns count.

        A streaming run (:mod:`repro.pipeline.stream`) deletes its spill
        shards after compaction, but a crash *between* the dataset commit
        and the cleanup — or a run with ``keep_shards`` — leaves chunk
        entries behind that no future run will ever read (resume checks
        the dataset first). Those, plus damaged chunk entries and stale
        ``tmp/`` staging directories, are the orphans removed here.
        Shards of an *interrupted* run (no dataset entry yet) are kept —
        they are what makes the run resumable.
        """
        removed = 0
        for entry in self.entries(chunk_stage):
            dataset_key = entry.meta.get("dataset_key")
            if entry.damaged or (
                dataset_key is not None and self.has("dataset", dataset_key)
            ):
                shutil.rmtree(entry.path)
                removed += 1
        stage_dir = self.root / chunk_stage
        if stage_dir.is_dir() and not any(stage_dir.iterdir()):
            stage_dir.rmdir()
        tmp_root = self.root / "tmp"
        if tmp_root.is_dir():
            for leftover in tmp_root.iterdir():
                shutil.rmtree(leftover, ignore_errors=True)
                removed += 1
            if not any(tmp_root.iterdir()):
                tmp_root.rmdir()
        return removed
