"""telemetry.drop: gap-filled samples, manifest accounting, bit-identity."""

from __future__ import annotations

import numpy as np

from repro.faults import FaultPlan, FaultRule, arm
from repro.pipeline import build_dataset, run_pipeline
from repro.telemetry import generate_dataset


def _drop_plan(**kwargs) -> FaultPlan:
    return FaultPlan(seed=0, rules=(FaultRule("telemetry.drop", **kwargs),))


def _kwargs(tiny_spec) -> dict:
    return tiny_spec.dataset_kwargs()


def test_dropped_samples_are_gap_filled_deterministically(tiny_spec):
    clean = generate_dataset(**_kwargs(tiny_spec))
    with arm(_drop_plan(rate=0.1)) as injector:
        gappy = generate_dataset(**_kwargs(tiny_spec))
    fired = injector.fires("telemetry.drop")
    assert fired > 0
    power_clean = clean.jobs["pernode_power_w"].astype(float)
    power_gappy = gappy.jobs["pernode_power_w"].astype(float)
    # Every aggregate is finite — the gaps were filled, not propagated —
    # and exactly the dropped jobs differ from the clean run.
    assert np.isfinite(power_gappy).all()
    assert int((power_clean != power_gappy).sum()) == fired
    # Same plan, same schedule: a re-run drops the same jobs and fills
    # them with the same deterministic levels.
    with arm(_drop_plan(rate=0.1)):
        replay = generate_dataset(**_kwargs(tiny_spec))
    np.testing.assert_array_equal(
        power_gappy, replay.jobs["pernode_power_w"].astype(float)
    )


def test_unarmed_runs_are_bit_identical_to_clean_runs(tiny_spec):
    """The injection points themselves must not perturb anything."""
    a = generate_dataset(**_kwargs(tiny_spec))
    with arm(_drop_plan(rate=0.0)):  # armed, but a never-firing rule
        b = generate_dataset(**_kwargs(tiny_spec))
    c = generate_dataset(**_kwargs(tiny_spec))
    for jobs in (b.jobs, c.jobs):
        np.testing.assert_array_equal(
            a.jobs["pernode_power_w"], jobs["pernode_power_w"]
        )
        np.testing.assert_array_equal(a.jobs["energy_j"], jobs["energy_j"])


def test_gap_count_reaches_stage_meta_and_manifest(tmp_path, tiny_spec):
    shard = tiny_spec.to_shard_config()
    with arm(_drop_plan(rate=0.1)) as injector:
        manifest = run_pipeline([shard], cache_dir=tmp_path)
    fired = injector.fires("telemetry.drop")
    assert fired > 0
    assert manifest.n_gaps == fired
    report = manifest.shards[0]
    telemetry = next(t for t in report.stages if t.stage == "telemetry")
    assert telemetry.n_gaps == fired
    assert report.to_dict()["n_gaps"] == fired
    assert manifest.to_dict()["n_gaps"] == fired
    # The gap count is pinned in the cached stage meta too, so a later
    # cache hit still reports how damaged the artifact is.
    clean_manifest = run_pipeline([shard], cache_dir=tmp_path)
    assert clean_manifest.fully_cached
    assert clean_manifest.n_gaps == fired


def test_clean_runs_report_zero_gaps(tmp_path, tiny_spec):
    manifest = run_pipeline([tiny_spec.to_shard_config()], cache_dir=tmp_path)
    assert manifest.n_gaps == 0
    assert all(t.n_gaps == 0 for s in manifest.shards for t in s.stages)


def test_gap_filled_dataset_key_unchanged_but_contents_flagged(tmp_path,
                                                               tiny_spec):
    """Digests are config-addressed: arming a plan must not fork keys."""
    kwargs = _kwargs(tiny_spec)
    clean_dir, gappy_dir = tmp_path / "clean", tmp_path / "gappy"
    build_dataset(**kwargs, cache_dir=clean_dir)
    with arm(_drop_plan(rate=0.1)):
        build_dataset(**kwargs, cache_dir=gappy_dir)
    shard = tiny_spec.to_shard_config()
    from repro.pipeline.config import stage_key

    key = stage_key(shard, "dataset")
    from repro.pipeline import ArtifactCache

    assert ArtifactCache(clean_dir).has("dataset", key)
    assert ArtifactCache(gappy_dir).has("dataset", key)
