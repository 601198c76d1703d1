"""Enumeration golden counts, pipeline caching, sweep determinism, and
representative-map sampling."""
import errno
import os
import threading
import time
import weakref

import numpy as np
import pytest

from floodbench import ensemble, raster
from floodbench.depth import (DepthAux, DepthConfig, apply_depth_config,
                              expand_into_exclusion, extract_boundary)
from floodbench.ensemble import (ConfigSpec, PipelineInputs, StageCache,
                                 SweepPlan, build_config_specs,
                                 enumerate_depth, enumerate_filters,
                                 enumerate_mappers, read_sweep_plan,
                                 run_pipeline, select_representative_maps,
                                 sweep)
from floodbench.errors import InputError
from floodbench.mapping import MapperConfig, MorphologyConfig, ChanVeseParams
from floodbench.metrics import MetricsRecord, read_manifest
from floodbench.raster import mask_like
from floodbench.speckle import FilterConfig
from floodbench.synth import write_scene

from conftest import mapping_scene, sweep_scene  # noqa: F401


def manifest_multiset(rows):
    """Row multiset with the timing column dropped (it varies per run)."""
    out = []
    for row in rows:
        out.append(tuple(sorted((k, v) for k, v in row.items()
                                if k != "wall_ms")))
    return sorted(out)


# ---------------------------------------------------------------------------
# enumeration


def test_filter_enumeration_counts():
    configs = enumerate_filters()
    assert len(configs) == 26
    by_method = {}
    for c in configs:
        by_method.setdefault(c.method, []).append(c)
    assert len(by_method["none"]) == 1
    assert len(by_method["median"]) == 3
    assert len(by_method["lee"]) == 3
    assert len(by_method["lee_sigma"]) == 9
    assert len(by_method["frost"]) == 9
    assert len(by_method["external"]) == 1
    assert len(enumerate_filters(include_external=False)) == 25


def test_mapper_enumeration_counts():
    pairs = enumerate_mappers()
    assert len(pairs) == 48
    by_method = {}
    for m, _ in pairs:
        by_method.setdefault(m.method, []).append(m)
    assert len(by_method["global_threshold"]) == 2
    assert len(by_method["local_threshold"]) == 36
    assert len(by_method["active_contour"]) == 6
    assert len(by_method["change_detection"]) == 2
    assert len(by_method["external_mask"]) == 2
    assert len(enumerate_mappers(with_morphology=True)) == 432


def test_depth_enumeration_counts():
    configs = enumerate_depth()
    assert len(configs) == 19
    assert sum(1 for c in configs if c.method == "fwdet") == 9
    assert sum(1 for c in configs if c.method == "flexth") == 9
    assert sum(1 for c in configs if c.method == "cross_section") == 1


def test_config_ids_unique_and_deterministic():
    specs = build_config_specs(enumerate_filters(), enumerate_mappers())
    ids = [s.config_id for s in specs]
    assert len(set(ids)) == len(ids) == 26 * 48
    again = build_config_specs(enumerate_filters(), enumerate_mappers())
    assert [s.config_id for s in again] == ids


def test_config_id_sensitive_to_every_stage():
    base = ConfigSpec(FilterConfig("median", k=1),
                      MapperConfig("global_threshold", selector="otsu"),
                      MorphologyConfig(False))
    other_filter = ConfigSpec(FilterConfig("median", k=2),
                              MapperConfig("global_threshold", selector="otsu"),
                              MorphologyConfig(False))
    other_morph = ConfigSpec(FilterConfig("median", k=1),
                             MapperConfig("global_threshold", selector="otsu"),
                             MorphologyConfig(True, 10, 10))
    with_depth = ConfigSpec(FilterConfig("median", k=1),
                            MapperConfig("global_threshold", selector="otsu"),
                            MorphologyConfig(False),
                            DepthConfig("fwdet", smoothing_iterations=3))
    ids = {base.config_id, other_filter.config_id, other_morph.config_id,
           with_depth.config_id}
    assert len(ids) == 4


# ---------------------------------------------------------------------------
# pipeline and cache


def scene_inputs(scene, tmp_path=None):
    kw = dict(flood=scene.speckled_intensity,
              reference=scene.reference_intensity,
              dem=scene.dem,
              reference_mask=scene.truth_mask,
              permanent_water=scene.permanent_water,
              looks=scene.spec.looks)
    return PipelineInputs(**kw)


def test_run_pipeline_second_call_hits_cache(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    cache = StageCache(str(tmp_path / "cache"))
    cfg = ConfigSpec(FilterConfig("median", k=1),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(False))
    first = run_pipeline(inputs, cfg, cache)
    misses = cache.misses
    second = run_pipeline(inputs, cfg, cache)
    assert cache.misses == misses          # nothing recomputed
    assert cache.hits >= 2
    assert np.array_equal(first.mask.values, second.mask.values)
    assert first.record.status == second.record.status == "ok"
    assert first.record.f1 == second.record.f1


def test_cached_stage_outputs_byte_identical(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    cache = StageCache(str(tmp_path / "cache"))
    cfg = ConfigSpec(FilterConfig("frost", k=2, alpha=2.0),
                     MapperConfig("global_threshold", selector="ki"),
                     MorphologyConfig(True, 50, 50))
    fresh = run_pipeline(inputs, cfg, cache, out_dir=str(tmp_path / "o1"))
    cached = run_pipeline(inputs, cfg, cache, out_dir=str(tmp_path / "o2"))
    p1 = tmp_path / "o1" / cfg.config_id / "mask.fbr"
    p2 = tmp_path / "o2" / cfg.config_id / "mask.fbr"
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(fresh.mask.values, cached.mask.values)


def test_failed_mapper_becomes_failed_record(sweep_scene):
    inputs = PipelineInputs(flood=sweep_scene.speckled_intensity,
                            looks=sweep_scene.spec.looks)
    cfg = ConfigSpec(FilterConfig("none"),
                     MapperConfig("change_detection", selector="otsu"),
                     MorphologyConfig(False))
    result = run_pipeline(inputs, cfg, StageCache())
    assert result.mask is None
    assert result.record.status == "failed"
    assert "reference" in result.record.reason


def test_unexpected_error_becomes_failed_row(tmp_path, sweep_scene,
                                             monkeypatch):
    real = ensemble.apply_depth_config
    broken = DepthConfig("flexth", max_neighbors=10)

    def faulty(mask, dem, cfg, aux=None):
        if cfg == broken:
            raise RuntimeError("injected fault")
        return real(mask, dem, cfg, aux)

    monkeypatch.setattr(ensemble, "apply_depth_config", faulty)
    depths = [DepthConfig("fwdet", smoothing_iterations=3),
              DepthConfig("flexth", max_neighbors=5), broken,
              DepthConfig("flexth", max_neighbors=20)]
    configs = build_config_specs(
        [FilterConfig("none")],
        [(MapperConfig("global_threshold", selector="otsu"),
          MorphologyConfig(False))], depths)
    manifest = sweep(SweepPlan(scene_inputs(sweep_scene), configs,
                               str(tmp_path / "out"), jobs=2))
    rows = read_manifest(manifest)
    assert [r["config_id"] for r in rows] == [c.config_id for c in configs]
    assert [r["status"] for r in rows] == ["ok", "ok", "failed", "ok"]
    assert rows[2]["reason"] == "internal: RuntimeError: injected fault"


def test_base_exception_still_propagates(sweep_scene, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(ensemble, "apply_mapper_config", interrupted)
    cfg = ConfigSpec(FilterConfig("none"),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(False))
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(scene_inputs(sweep_scene), cfg, StageCache())


@pytest.mark.parametrize("stage", ["filter", "map", "depth", None])
def test_version_bump_turns_hit_into_miss(tmp_path, sweep_scene,
                                          monkeypatch, stage):
    inputs = scene_inputs(sweep_scene)
    cfg = ConfigSpec(FilterConfig("median", k=1),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(False),
                     DepthConfig("fwdet", smoothing_iterations=3))
    cache = StageCache(str(tmp_path / "cache"))
    run_pipeline(inputs, cfg, cache)
    # filter, map, depth, and the depth field's memory-only neighbour table
    assert (cache.hits, cache.misses) == (0, 4)
    run_pipeline(inputs, cfg, cache)
    assert (cache.hits, cache.misses) == (3, 4)
    if stage is None:
        # a cache-format bump invalidates every stage
        monkeypatch.setattr(ensemble, "CACHE_FORMAT",
                            ensemble.CACHE_FORMAT + 1)
        expected = (3, 8)
    else:
        monkeypatch.setitem(ensemble.STAGE_VERSIONS, stage,
                            ensemble.STAGE_VERSIONS[stage] + 1)
        # a recomputed depth field finds its neighbour table in memory
        expected = (6, 5) if stage == "depth" else (5, 5)
    result = run_pipeline(inputs, cfg, cache)
    assert result.record.status == "ok"
    assert (cache.hits, cache.misses) == expected


def test_morphology_variants_share_one_base_mask(sweep_scene, monkeypatch):
    calls = []
    real = ensemble.apply_mapper_config

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble, "apply_mapper_config", counted)
    inputs = scene_inputs(sweep_scene)
    cache = StageCache()
    mapper = MapperConfig("active_contour", chan_vese=ChanVeseParams(0.1))
    morphs = [MorphologyConfig(False)] + ensemble.morphology_grid()
    configs = build_config_specs([FilterConfig("median", k=1)],
                                 [(mapper, m) for m in morphs])
    results = [run_pipeline(inputs, cfg, cache) for cfg in configs]
    assert calls == [mapper]
    assert all(r.record.status == "ok" for r in results)
    base = results[0].mask
    for cfg, result in zip(configs[1:], results[1:]):
        expected = ensemble.mapping.apply_morphology(base, cfg.morphology)
        assert np.array_equal(result.mask.values, expected.values)


def test_local_threshold_gates_share_one_tile_table(tmp_path, mapping_scene,
                                                    monkeypatch):
    from floodbench import mapping
    fits = []
    real = mapping.fit_two_gaussians

    def counted(values, *args, **kwargs):
        fits.append(np.asarray(values).size)
        return real(values, *args, **kwargs)

    monkeypatch.setattr(mapping, "fit_two_gaussians", counted)
    inputs = PipelineInputs(flood=mapping_scene.speckled_intensity,
                            looks=mapping_scene.spec.looks)
    local = [(m, mo) for m, mo in enumerate_mappers(include_external=False)
             if m.method == "local_threshold"]
    configs = build_config_specs([FilterConfig("lee", k=1)], local)
    assert len(configs) == 36
    cache = StageCache(str(tmp_path / "cache"))
    first = [run_pipeline(inputs, cfg, cache).record for cfg in configs]
    # 256 x 256: five tiles at min side 100, the whole image at 200
    assert len(fits) == 5 + 1
    fits.clear()
    again = [run_pipeline(inputs, cfg, cache).record for cfg in configs]
    assert fits == []
    assert [(r.status, r.f1) for r in again] == [(r.status, r.f1)
                                                 for r in first]


def test_morph_version_bump_misses_only_morph(tmp_path, sweep_scene,
                                              monkeypatch):
    calls = []
    real_map = ensemble.apply_mapper_config
    real_morph = ensemble.mapping.apply_morphology

    def counted_map(*args, **kwargs):
        calls.append("map")
        return real_map(*args, **kwargs)

    def counted_morph(mask, morph):
        if morph.enabled:
            calls.append("morph")
        return real_morph(mask, morph)

    monkeypatch.setattr(ensemble, "apply_mapper_config", counted_map)
    monkeypatch.setattr(ensemble.mapping, "apply_morphology", counted_morph)
    inputs = scene_inputs(sweep_scene)
    cfg = ConfigSpec(FilterConfig("median", k=1),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(True, 50, 50),
                     DepthConfig("fwdet", smoothing_iterations=3))
    cache = StageCache(str(tmp_path / "cache"))
    first = run_pipeline(inputs, cfg, cache)
    # filter, morph, base mask, depth and its neighbour table
    assert (cache.hits, cache.misses) == (0, 5)
    run_pipeline(inputs, cfg, cache)
    # a warm morphology hit loads neither the base mask nor recomputes it
    assert (cache.hits, cache.misses) == (3, 5)
    monkeypatch.setitem(ensemble.STAGE_VERSIONS, "morph",
                        ensemble.STAGE_VERSIONS["morph"] + 1)
    bumped = run_pipeline(inputs, cfg, cache)
    # filter and base mask and depth hit; morphology recomputes
    assert (cache.hits, cache.misses) == (6, 6)
    assert calls == ["map", "morph", "morph"]
    assert np.array_equal(bumped.mask.values, first.mask.values)
    assert bumped.record.rmse_m == first.record.rmse_m


def test_depth_stage_records_rmse(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    inputs.reference_depth = sweep_scene.truth_depth.depth
    cfg = ConfigSpec(FilterConfig("median", k=2),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(True, 50, 50),
                     DepthConfig("fwdet", smoothing_iterations=3))
    result = run_pipeline(inputs, cfg, StageCache(str(tmp_path / "c")))
    assert result.record.status == "ok"
    assert result.depth is not None
    assert result.record.rmse_m is not None
    assert result.record.rmse_m < 1.0


def test_pipeline_validates_geometry(sweep_scene):
    from floodbench.raster import Raster
    bad_dem = Raster(10, 10, 10.0, 0.0, 0.0, -9999.0, np.zeros((10, 10)))
    inputs = PipelineInputs(flood=sweep_scene.speckled_intensity, dem=bad_dem)
    with pytest.raises(Exception):
        inputs.validate()


# ---------------------------------------------------------------------------
# sweep


def small_config_set(scene_dir):
    filters = [FilterConfig("none"), FilterConfig("median", k=1),
               FilterConfig("lee", k=2)]
    mappers = [(MapperConfig("global_threshold", selector="otsu"),
                MorphologyConfig(False)),
               (MapperConfig("global_threshold", selector="ki"),
                MorphologyConfig(True, 50, 50)),
               (MapperConfig("active_contour",
                             chan_vese=ChanVeseParams(alpha=0.1)),
                MorphologyConfig(False)),
               (MapperConfig("change_detection", selector="otsu"),
                MorphologyConfig(False))]
    return build_config_specs(filters, mappers)


def test_sweep_empty_config_list(tmp_path, sweep_scene):
    plan = SweepPlan(scene_inputs(sweep_scene), [], str(tmp_path / "out"))
    manifest = sweep(plan)
    rows = read_manifest(manifest)
    assert rows == []
    with open(manifest) as fh:
        header = fh.readline().strip()
    assert header.startswith("config_id,filter_method,filter_params,"
                             "mapper_method,mapper_params,morph_params,"
                             "depth_method,depth_params,acc,f1,area_km2,"
                             "rmse_m,skipped_points,wall_ms")


def test_sweep_parallelism_invariance(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    m1 = sweep(SweepPlan(inputs, configs, str(tmp_path / "o1"), jobs=1,
                         cache_dir=str(tmp_path / "c1"),
                         write_outputs=False))
    m2 = sweep(SweepPlan(inputs, configs, str(tmp_path / "o2"), jobs=4,
                         cache_dir=str(tmp_path / "c2"),
                         write_outputs=False))
    assert manifest_multiset(read_manifest(m1)) \
        == manifest_multiset(read_manifest(m2))


def mapper_major(configs):
    """The configs with the filters interleaved: each mapper under every
    filter in turn, so each filter's group is spread over the plan."""
    return sorted(configs, key=lambda c: (c.mapper.describe(),
                                          c.morphology.describe()))


@pytest.mark.parametrize("order", ["reversed", "mapper_major"])
def test_sweep_rows_follow_plan_order(tmp_path, sweep_scene, order):
    inputs = scene_inputs(sweep_scene)
    # reversing the plan puts slow active-contour configs ahead of fast
    # ones, so completion order would differ from plan order
    configs = small_config_set(None)[::-1] if order == "reversed" \
        else mapper_major(small_config_set(None))
    manifest = sweep(SweepPlan(inputs, configs, str(tmp_path / "o"), jobs=2,
                               cache_dir=str(tmp_path / "c"),
                               write_outputs=False))
    assert [r["config_id"] for r in read_manifest(manifest)] \
        == [c.config_id for c in configs]


def test_sweep_resume_completes_manifest(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    cache_dir = str(tmp_path / "cache")
    # interrupted run: only a prefix of the configuration list executes
    partial = sweep(SweepPlan(inputs, configs[:4], str(tmp_path / "o1"),
                              jobs=2, cache_dir=cache_dir,
                              write_outputs=False))
    assert len(read_manifest(partial)) == 4
    # resume with the same cache: full manifest, cache hits for the prefix
    cache_before = len(os.listdir(cache_dir))
    full = sweep(SweepPlan(inputs, configs, str(tmp_path / "o1"), jobs=2,
                           cache_dir=cache_dir, write_outputs=False))
    rows = read_manifest(full)
    assert len(rows) == len(configs)
    fresh = sweep(SweepPlan(inputs, configs, str(tmp_path / "o2"), jobs=2,
                            cache_dir=str(tmp_path / "c2"),
                            write_outputs=False))
    assert manifest_multiset(rows) == manifest_multiset(read_manifest(fresh))
    assert cache_before > 0


def test_interrupted_sweep_keeps_previous_manifest(tmp_path, sweep_scene,
                                                   monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    out_dir = str(tmp_path / "out")
    cache_dir = str(tmp_path / "cache")
    old = sweep(SweepPlan(inputs, configs[:3], out_dir, cache_dir=cache_dir,
                          write_outputs=False))
    with open(old, "rb") as fh:
        old_bytes = fh.read()
    real = ensemble.run_pipeline
    seen = []

    def interrupted(inputs, cfg, cache=None, out_dir=None):
        seen.append(cfg)
        if len(seen) == 7:
            raise KeyboardInterrupt
        return real(inputs, cfg, cache, out_dir)

    monkeypatch.setattr(ensemble, "run_pipeline", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(SweepPlan(inputs, configs, out_dir, cache_dir=cache_dir,
                        write_outputs=False))
    monkeypatch.setattr(ensemble, "run_pipeline", real)
    with open(old, "rb") as fh:
        assert fh.read() == old_bytes
    assert sorted(os.listdir(out_dir)) == ["manifest.csv"]
    resumed = sweep(SweepPlan(inputs, configs, out_dir, cache_dir=cache_dir,
                              write_outputs=False))
    clean = sweep(SweepPlan(inputs, configs, str(tmp_path / "clean"),
                            cache_dir=str(tmp_path / "c2"),
                            write_outputs=False))
    assert manifest_multiset(read_manifest(resumed)) \
        == manifest_multiset(read_manifest(clean))
    assert len(read_manifest(resumed)) == len(configs)


def test_sweep_runs_one_cache_per_filter_in_one_thread(tmp_path, sweep_scene,
                                                       monkeypatch):
    caches = []

    class Recorded(StageCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.threads = set()
            caches.append(self)

        def get_or_compute(self, *args, **kwargs):
            self.threads.add(threading.get_ident())
            return super().get_or_compute(*args, **kwargs)

    monkeypatch.setattr(ensemble, "StageCache", Recorded)
    configs = mapper_major(small_config_set(None))
    sweep(SweepPlan(scene_inputs(sweep_scene), configs, str(tmp_path / "o"),
                    jobs=2, cache_dir=str(tmp_path / "c"),
                    write_outputs=False))
    assert len(caches) == len({cfg.filter for cfg in configs}) == 3
    assert [len(cache.threads) for cache in caches] == [1, 1, 1]


def test_live_caches_of_a_sweep_share_the_memory_bound(tmp_path, sweep_scene,
                                                       monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    unbounded = read_manifest(sweep(SweepPlan(
        inputs, configs, str(tmp_path / "o1"), cache_dir=str(tmp_path / "c1"),
        write_outputs=False)))
    # room for four filtered images (128 x 128 float64) in all, two per
    # group at jobs = 2
    bound = 4 * 128 * 128 * 8
    monkeypatch.setattr(ensemble, "MEMORY_TIER_BYTES", bound)
    live = weakref.WeakSet()       # a group's cache goes when the group ends
    held = []
    real = StageCache._remember

    def watched(self, key, obj):
        real(self, key, obj)
        live.add(self)
        held.append(sum(cache.held_bytes for cache in live))

    monkeypatch.setattr(StageCache, "_remember", watched)
    bounded = read_manifest(sweep(SweepPlan(
        inputs, configs, str(tmp_path / "o2"), jobs=2,
        cache_dir=str(tmp_path / "c2"), write_outputs=False)))
    assert manifest_multiset(bounded) == manifest_multiset(unbounded)
    assert bound // 2 < max(held) <= bound


def test_interrupt_stops_the_other_groups(tmp_path, sweep_scene, monkeypatch):
    inputs = scene_inputs(sweep_scene)
    first, other = FilterConfig("none"), FilterConfig("median", k=1)
    mappers = [(MapperConfig("global_threshold", selector=s), morph)
               for s in ("otsu", "ki")
               for morph in [MorphologyConfig(False)]
               + ensemble.morphology_grid()]
    configs = build_config_specs([first, other], mappers)
    assert len(configs) == 40
    out_dir = str(tmp_path / "out")
    cache_dir = str(tmp_path / "cache")
    old = sweep(SweepPlan(inputs, configs[:2], out_dir, cache_dir=cache_dir,
                          write_outputs=False))
    with open(old, "rb") as fh:
        old_bytes = fh.read()
    real = ensemble.run_pipeline
    started = []

    def interrupted(inputs, cfg, cache=None, out_dir=None):
        if cfg == configs[0]:
            raise KeyboardInterrupt
        if cfg.filter == other:
            started.append(cfg)
            time.sleep(0.02)
        return real(inputs, cfg, cache, out_dir)

    monkeypatch.setattr(ensemble, "run_pipeline", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(SweepPlan(inputs, configs, out_dir, jobs=2,
                        cache_dir=cache_dir, write_outputs=False))
    with open(old, "rb") as fh:
        assert fh.read() == old_bytes
    assert sorted(os.listdir(out_dir)) == ["manifest.csv"]
    # the other filter's group stops before its next config
    assert len(started) < 20


def test_sweep_writes_per_config_outputs(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)[:2]
    out_dir = str(tmp_path / "out")
    sweep(SweepPlan(inputs, configs, out_dir, jobs=1))
    for cfg in configs:
        assert os.path.exists(os.path.join(out_dir, cfg.config_id,
                                           "mask.fbr"))


# ---------------------------------------------------------------------------
# representative maps


def fake_records(f1s, method="global_threshold"):
    return [MetricsRecord(config_id="c%03d" % i, mapper_method=method,
                          f1=v, acc=v, area_km2=1.0)
            for i, v in enumerate(f1s)]


def test_representative_sampling_quantiles():
    rng = np.random.default_rng(90)
    f1s = sorted(rng.uniform(0, 1, size=100))
    picks = select_representative_maps(fake_records(f1s), per_method=10)
    sel = picks["global_threshold"]
    assert len(sel) == 10
    assert sel[0].f1 == min(f1s)
    assert sel[-1].f1 == max(f1s)
    expect_idx = [round(i * 99 / 9) for i in range(10)]
    assert [r.f1 for r in sel] == [f1s[i] for i in expect_idx]


def test_representative_sampling_takes_all_when_few():
    picks = select_representative_maps(fake_records([0.5, 0.2, 0.9]),
                                       per_method=10)
    assert len(picks["global_threshold"]) == 3


def test_representative_sampling_skips_failed_records():
    recs = fake_records([0.1, 0.5, 0.9])
    recs[1].status = "failed"
    recs[1].f1 = None
    picks = select_representative_maps(recs, per_method=10)
    assert [r.f1 for r in picks["global_threshold"]] == [0.1, 0.9]


def test_representative_sampling_spans_methods():
    recs = fake_records([0.1, 0.9], method="a") \
        + fake_records([0.3, 0.4], method="b")
    picks = select_representative_maps(recs, per_method=10)
    assert set(picks) == {"a", "b"}


@pytest.mark.parametrize("per_method", [0, 1])
def test_representative_sampling_needs_both_endpoints(per_method):
    with pytest.raises(InputError, match="at least 2"):
        select_representative_maps(fake_records([0.1, 0.5, 0.9]),
                                   per_method=per_method)


def test_representative_sampling_works_on_manifest_rows(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    manifest = sweep(SweepPlan(inputs, configs, str(tmp_path / "out"),
                               jobs=2, write_outputs=False))
    picks = select_representative_maps(read_manifest(manifest), per_method=2)
    for method, rows in picks.items():
        f1s = [float(r["f1"]) for r in rows]
        assert f1s == sorted(f1s)


# ---------------------------------------------------------------------------
# sweep plans


def test_read_sweep_plan(tmp_path, sweep_scene):
    scene_dir = tmp_path / "scene"
    write_scene(sweep_scene, str(scene_dir), ext="fbr")
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text(
        "[inputs]\n"
        "flood = scene/speckled_intensity.fbr\n"
        "reference = scene/reference_intensity.fbr\n"
        "dem = scene/dem.fbr\n"
        "truth_mask = scene/truth_mask.fbr\n"
        "permanent_water = scene/permanent_water.fbr\n"
        "external_despeckled = scene/clean_backscatter.fbr\n"
        "external_despeckled_reference = scene/reference_intensity.fbr\n"
        "external_mask_cnn = scene/truth_mask.fbr\n"
        "external_mask_rf = scene/truth_mask.fbr\n"
        "[filters]\n"
        "looks = 8\n"
        "[run]\n"
        "jobs = 2\n"
        "out_dir = out\n")
    plan = read_sweep_plan(str(plan_path))
    assert len(plan.configs) == 26 * 48
    assert plan.jobs == 2
    assert plan.inputs.looks == 8.0
    assert plan.out_dir == str(tmp_path / "out")


def test_read_sweep_plan_shrinks_without_externals(tmp_path, sweep_scene):
    scene_dir = tmp_path / "scene"
    write_scene(sweep_scene, str(scene_dir), ext="fbr")
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text(
        "[inputs]\nflood = scene/speckled_intensity.fbr\n"
        "[run]\nout_dir = out\n")
    plan = read_sweep_plan(str(plan_path))
    assert len(plan.configs) == 25 * 46


def test_read_sweep_plan_requires_flood(tmp_path):
    plan_path = tmp_path / "plan.cfg"
    plan_path.write_text("[run]\nout_dir = out\n")
    with pytest.raises(InputError, match="flood"):
        read_sweep_plan(str(plan_path))


def test_cache_env_var_overrides_location(tmp_path, sweep_scene, monkeypatch):
    from floodbench.ensemble import CACHE_ENV
    cache_home = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(cache_home))
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)[:2]
    sweep(SweepPlan(inputs, configs, str(tmp_path / "out"), jobs=1,
                    write_outputs=False))
    assert cache_home.is_dir() and len(os.listdir(cache_home)) > 0


def test_pipeline_watermark_rmse_and_skip_tally(sweep_scene):
    rng = np.random.default_rng(91)
    scene = sweep_scene
    cells = np.argwhere(scene.truth_mask.values == 1)
    picks = cells[rng.choice(len(cells), size=10, replace=False)]
    pts = []
    for i, j in picks:
        x = (j + 0.5) * scene.dem.cell_size
        y = (scene.dem.height - 1 - i + 0.5) * scene.dem.cell_size
        pts.append((x, y, scene.truth_depth.depth.values[i, j]))
    pts.append((5.0, 5.0, 1.0))  # dry corner, must be skipped
    inputs = scene_inputs(scene)
    inputs.watermarks = np.array(pts)
    cfg = ConfigSpec(FilterConfig("median", k=2),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(True, 50, 50),
                     DepthConfig("flexth", max_neighbors=10))
    result = run_pipeline(inputs, cfg, StageCache())
    assert result.record.status == "ok"
    assert result.record.rmse_m is not None and result.record.rmse_m < 1.0
    assert result.record.skipped_points == 1


def test_stage_cache_memory_and_disk(tmp_path, sweep_scene):
    mem = StageCache()
    r = sweep_scene.dem
    obj, hit = mem.get_or_compute("k1", "raster", lambda: r)
    assert not hit
    obj2, hit2 = mem.get_or_compute("k1", "raster", lambda: 0 / 0)
    assert hit2 and obj2 is r
    disk = StageCache(str(tmp_path / "c"))
    obj3, hit3 = disk.get_or_compute("k1", "raster", lambda: r)
    assert not hit3
    obj4, hit4 = disk.get_or_compute("k1", "raster", lambda: 0 / 0)
    assert hit4
    assert np.array_equal(obj4.values, r.values)
    assert obj4.geometry == r.geometry


# ---------------------------------------------------------------------------
# stage cache tiers


def test_keys_and_config_ids_match_canonical_json_formula():
    from dataclasses import asdict
    filters = enumerate_filters()
    mappers = enumerate_mappers(with_morphology=True)
    depths = enumerate_depth()
    parents = ("d" * 64, "4.0")
    samples = [("filter", f) for f in filters[::5]] \
        + [("map", m) for m, _ in mappers[::23]] \
        + [("morph", mo) for _, mo in mappers[:9]] \
        + [("depth", d) for d in depths[::4]]
    for stage, cfg in samples:
        old = ensemble.digest_bytes(ensemble.canonical_json(
            [ensemble.CACHE_FORMAT, stage, ensemble.STAGE_VERSIONS[stage],
             asdict(cfg), list(parents)]).encode())
        assert ensemble._stage_key(stage, cfg.params_json, *parents) == old
    old = ensemble.digest_bytes(ensemble.canonical_json(
        [ensemble.CACHE_FORMAT, "tiles", 1, 100, list(parents)]).encode())
    assert ensemble._stage_key("tiles", "100", *parents) == old
    specs = build_config_specs(filters[::5], mappers[::23]) \
        + build_config_specs(filters[:2], mappers[:2], depths[::4])
    for spec in specs:
        payload = {"filter": asdict(spec.filter),
                   "mapper": asdict(spec.mapper),
                   "morphology": asdict(spec.morphology),
                   "depth": asdict(spec.depth) if spec.depth else None}
        assert spec.config_id == ensemble.digest_bytes(
            ensemble.canonical_json(payload).encode())[:16]


def test_stage_keys_unchanged_so_old_cache_dirs_stay_hits():
    # recorded with the asdict/canonical_json key formula the cache used
    # before payloads were serialized once per config object
    parents = ("d" * 64, "4.0")
    recorded = {
        "filter": (FilterConfig("lee_sigma", k=2, xi=0.9),
                   "631d3fcb96acaaa69ede40a64bcbf0d9cb7997d60a60d67cf0de5910eeb27eab"),
        "map": (MapperConfig("active_contour",
                             chan_vese=ChanVeseParams(alpha=0.1)),
                "30b6e95940a38a8d98e48a3e588b18364ab224f3529c92336388473f2145403a"),
        "morph": (MorphologyConfig(True, 50, 50),
                  "f92a639a231aae436e885b3bb2cdae16e676893522bea238e2d459e61fa1c671"),
        "depth": (DepthConfig("flexth", slope_threshold=0.5,
                              max_neighbors=10),
                  "5bb1e437f13a4ec0c227cd8b47e2a2d8af32f6a56fe9df81a028be12e55a6e95"),
    }
    for stage, (cfg, key) in recorded.items():
        assert ensemble._stage_key(stage, cfg.params_json, *parents) == key
    assert ensemble._stage_key("tiles", "100", *parents) \
        == "2151c8793a54f4300a16f4638a42719ec99561ce5d573e8b0969d9b884cd7d71"


def depth_plan_configs():
    """9 morphologies of one mapper, each with two depth estimators."""
    mapper = MapperConfig("global_threshold", selector="otsu")
    return build_config_specs(
        [FilterConfig("median", k=1)],
        [(mapper, morph) for morph in ensemble.morphology_grid()],
        [DepthConfig("fwdet", smoothing_iterations=3),
         DepthConfig("flexth", max_neighbors=5)])


def test_fresh_cache_reads_each_key_from_disk_once(tmp_path, sweep_scene,
                                                   monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = depth_plan_configs()
    cache_dir = str(tmp_path / "cache")
    cold = [run_pipeline(inputs, cfg, StageCache(cache_dir)).record
            for cfg in configs]
    loads = []
    real = StageCache._load

    def counted(self, key):
        loads.append(key)
        return real(self, key)

    monkeypatch.setattr(StageCache, "_load", counted)
    cache = StageCache(cache_dir)
    warm = [run_pipeline(inputs, cfg, cache).record for cfg in configs]
    assert cache.misses == 0
    # 1 filtered image, 1 base mask, 9 morphed masks, 9 x 2 depth fields
    # at most (equal masks share theirs)
    assert len(loads) == len(set(loads)) <= 1 + 1 + 9 + 18
    assert cache.hits > len(loads)
    assert [(r.status, r.f1, r.rmse_m) for r in warm] \
        == [(r.status, r.f1, r.rmse_m) for r in cold]


def table(n: int, fill: float = 0.0) -> np.ndarray:
    return np.full(n, fill)           # n float64s: 8n bytes in the tier


def test_memory_tier_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(ensemble, "MEMORY_TIER_BYTES", 3 * 800)
    cache = StageCache()
    for key in "abc":
        cache.get_or_compute(key, "tiles", lambda: table(100))
    cache.get_or_compute("a", "tiles", lambda: 0 / 0)     # a is now newest
    cache.get_or_compute("d", "tiles", lambda: table(100))
    assert list(cache._mem) == ["c", "a", "d"]
    assert cache.held_bytes == 3 * 800
    cache.get_or_compute("e", "tiles", lambda: table(200))
    assert list(cache._mem) == ["d", "e"]
    # an entry larger than the bound is computed but not held
    big, hit = cache.get_or_compute("f", "tiles", lambda: table(301))
    assert not hit and big.size == 301
    assert list(cache._mem) == ["d", "e"]
    assert cache.held_bytes == 3 * 800


@pytest.mark.parametrize("disk", [False, True])
def test_evicted_entry_reloads_or_recomputes(tmp_path, monkeypatch, disk):
    monkeypatch.setattr(ensemble, "MEMORY_TIER_BYTES", 2 * 800)
    cache = StageCache(str(tmp_path / "c") if disk else None)
    computes = []

    def compute(fill):
        def run():
            computes.append(fill)
            return table(100, fill)
        return run

    first, _ = cache.get_or_compute("a", "tiles", compute(1.0))
    for key, fill in (("b", 2.0), ("c", 3.0)):
        cache.get_or_compute(key, "tiles", compute(fill))
    assert "a" not in cache._mem
    again, hit = cache.get_or_compute("a", "tiles", compute(1.0))
    assert hit == disk
    assert computes == ([1.0, 2.0, 3.0] if disk else [1.0, 2.0, 3.0, 1.0])
    assert again is not first
    assert np.array_equal(again, first)
    assert list(cache._mem) == ["c", "a"]


def test_memory_tier_stays_within_its_bound(tmp_path, sweep_scene,
                                            monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = depth_plan_configs()
    unbounded = [run_pipeline(inputs, cfg, StageCache()).record
                 for cfg in configs]
    # room for about three depth fields (2 x 128 x 128 float64 each)
    bound = 3 * 2 * 128 * 128 * 8
    monkeypatch.setattr(ensemble, "MEMORY_TIER_BYTES", bound)
    held = []
    real = StageCache._remember

    def watched(self, key, obj):
        real(self, key, obj)
        held.append(self.held_bytes)
        assert self.held_bytes == sum(n for _, n in self._mem.values())

    monkeypatch.setattr(StageCache, "_remember", watched)
    for directory in (None, str(tmp_path / "c")):
        cache = StageCache(directory)
        bounded = [run_pipeline(inputs, cfg, cache).record
                   for cfg in configs]
        assert [(r.status, r.f1, r.rmse_m) for r in bounded] \
            == [(r.status, r.f1, r.rmse_m) for r in unbounded]
    assert max(held) <= bound
    assert max(held) > bound // 2


def test_memory_tier_tile_table_is_read_only(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    cfg = ConfigSpec(FilterConfig("lee", k=1),
                     MapperConfig("local_threshold", min_tile_side=100,
                                  ad_min=1.9, bc_min=0.99, sr_min=0.1),
                     MorphologyConfig(False))
    cache_dir = str(tmp_path / "cache")
    cache = StageCache(cache_dir)
    assert run_pipeline(inputs, cfg, cache).record.status == "ok"
    [(key, computed)] = [(key, obj) for key, (obj, _) in cache._mem.items()
                         if isinstance(obj, np.ndarray)]
    assert not computed.flags.writeable
    loaded, hit = StageCache(cache_dir).get_or_compute(key, "tiles",
                                                       lambda: 0 / 0)
    assert hit and not loaded.flags.writeable
    assert np.array_equal(loaded, computed)


def failing_local_configs():
    """36 local-threshold gates that pass on the lee image and fail with
    ``no bimodal tiles`` on the median 5 x 5 image, plus one global."""
    local = [(m, mo) for m, mo in enumerate_mappers(include_external=False)
             if m.method == "local_threshold"][::6]
    return build_config_specs(
        [FilterConfig("lee", k=1), FilterConfig("median", k=2)],
        local + [(MapperConfig("global_threshold", selector="otsu"),
                  MorphologyConfig(True, 50, 50))])


def test_method_failure_is_cached(tmp_path, sweep_scene, monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = failing_local_configs()
    cold = sweep(SweepPlan(inputs, configs, str(tmp_path / "o1"),
                           cache_dir=str(tmp_path / "c"),
                           write_outputs=False))
    cold_rows = read_manifest(cold)
    failed = {r["config_id"] for r in cold_rows if r["status"] == "failed"}
    assert {r["reason"] for r in cold_rows if r["status"] == "failed"} \
        == {"no bimodal tiles"}
    assert len(failed) == 6
    calls = []
    real = ensemble.apply_mapper_config

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble, "apply_mapper_config", counted)
    warm = sweep(SweepPlan(inputs, configs, str(tmp_path / "o2"),
                           cache_dir=str(tmp_path / "c"),
                           write_outputs=False))
    assert calls == []
    assert manifest_multiset(read_manifest(warm)) \
        == manifest_multiset(cold_rows)


@pytest.mark.parametrize("error", [InputError("bad input"),
                                   RuntimeError("bug")])
def test_other_errors_are_not_cached(tmp_path, error):
    cache = StageCache(str(tmp_path / "c"))

    def fail():
        raise error

    for _ in range(2):
        with pytest.raises(type(error)):
            cache.get_or_compute("k", "raster", fail)
    assert cache.misses == 2 and cache.hits == 0
    assert os.listdir(str(tmp_path / "c")) == []
    assert not cache._mem


def test_degenerate_error_raises_again_from_each_tier(tmp_path):
    from floodbench.errors import DegenerateError
    cache_dir = str(tmp_path / "c")
    cache = StageCache(cache_dir)

    def degenerate():
        raise DegenerateError("no valid cut")

    for fresh in (cache, cache, StageCache(cache_dir)):
        with pytest.raises(DegenerateError, match="^no valid cut$"):
            fresh.get_or_compute("k", "mask", lambda: degenerate())
    assert (cache.hits, cache.misses) == (1, 1)
    assert os.listdir(cache_dir) == ["k.npy"]


def test_outputs_honour_the_umask(tmp_path):
    import stat
    import subprocess
    import sys
    script = """
import os, sys
os.umask(0o022)
from floodbench.ensemble import ConfigSpec, PipelineInputs, SweepPlan, sweep
from floodbench.mapping import MapperConfig, MorphologyConfig
from floodbench.speckle import FilterConfig
from floodbench.synth import SceneSpec, generate_scene
scene = generate_scene(SceneSpec(width=64, height=64, looks=4.0, seed=3))
cfg = ConfigSpec(FilterConfig("none"),
                 MapperConfig("global_threshold", selector="otsu"),
                 MorphologyConfig(False))
sweep(SweepPlan(PipelineInputs(flood=scene.speckled_intensity), [cfg],
                sys.argv[1]))
print(cfg.config_id)
"""
    src = os.path.join(os.path.dirname(ensemble.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = str(tmp_path / "out")
    done = subprocess.run([sys.executable, "-c", script, out], env=env,
                          capture_output=True, text=True, check=True)
    config_id = done.stdout.strip()
    entries = os.listdir(os.path.join(out, "cache"))
    assert entries
    for path in [os.path.join(out, config_id, "mask.fbr"),
                 os.path.join(out, "manifest.csv"),
                 os.path.join(out, "cache", entries[0])]:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


# ---------------------------------------------------------------------------
# disk entries: one .npy array per key


def depth_config():
    return ConfigSpec(FilterConfig("median", k=1),
                      MapperConfig("global_threshold", selector="otsu"),
                      MorphologyConfig(False),
                      DepthConfig("fwdet", smoothing_iterations=3))


def cached_entries(inputs, cache_dir):
    """Run depth_config() into cache_dir; return its result and the key of
    each entry by output type (filter, map, depth), leaving out the
    memory-only neighbour table."""
    cache = StageCache(cache_dir)
    result = run_pipeline(inputs, depth_config(), cache)
    assert result.record.status == "ok"
    keys = {type(obj).__name__: key for key, (obj, _) in cache._mem.items()
            if not isinstance(obj, np.ndarray)}
    assert sorted(keys) == ["BinaryMask", "DepthField", "Raster"]
    return result, keys


def same_outputs(a, b) -> bool:
    return (a.record.status, a.record.f1, a.record.rmse_m) \
        == (b.record.status, b.record.f1, b.record.rmse_m) \
        and np.array_equal(a.mask.values, b.mask.values) \
        and np.array_equal(a.depth.depth.values, b.depth.depth.values) \
        and np.array_equal(a.depth.wse.values, b.depth.wse.values)


def test_entries_are_one_array_each(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    cache_dir = str(tmp_path / "c")
    result, keys = cached_entries(inputs, cache_dir)
    assert sorted(os.listdir(cache_dir)) \
        == sorted(key + ".npy" for key in keys.values())

    def stored(kind):
        return np.load(os.path.join(cache_dir, keys[kind] + ".npy"))

    flood = inputs.flood
    assert stored("Raster").dtype == np.float64
    assert stored("Raster").shape == (flood.height, flood.width)
    assert np.array_equal(stored("BinaryMask"), result.mask.values)
    assert stored("BinaryMask").dtype == np.uint8
    assert np.array_equal(stored("DepthField"),
                          np.stack([result.depth.depth.values,
                                    result.depth.wse.values]))
    again = run_pipeline(inputs, depth_config(), StageCache(cache_dir))
    assert same_outputs(again, result)
    assert again.depth.depth.nodata == inputs.dem.nodata
    assert again.depth.depth.geometry == inputs.dem.geometry


def _float_values(path, result):
    np.save(path, np.full(result.mask.values.shape, 0.5))


def _two_d(path, result):
    np.save(path, result.depth.depth.values)


def _object_dtype(path, result):
    np.save(path, np.array([1, "a"], dtype=object), allow_pickle=True)


def _truncated(path, result):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])


@pytest.mark.parametrize("kind, damage", [
    ("BinaryMask", _float_values),   # a float array where a mask belongs
    ("DepthField", _two_d),          # (H, W) where (2, H, W) belongs
    ("Raster", _object_dtype),
    ("DepthField", _truncated),
    ("BinaryMask", _truncated),
])
def test_bad_entry_is_a_logged_miss(tmp_path, sweep_scene, caplog, kind,
                                    damage):
    inputs = scene_inputs(sweep_scene)
    cache_dir = str(tmp_path / "c")
    cold, keys = cached_entries(inputs, cache_dir)
    damage(os.path.join(cache_dir, keys[kind] + ".npy"), cold)
    cache = StageCache(cache_dir)
    with caplog.at_level("WARNING", logger="floodbench"):
        again = run_pipeline(inputs, depth_config(), cache)
    assert caplog.text.count("stage=cache status=corrupt") == 1
    assert "key=" + keys[kind][:12] in caplog.text
    # a recomputed depth field computes its neighbour table too
    assert (cache.hits, cache.misses) \
        == ((2, 2) if kind == "DepthField" else (2, 1))
    assert same_outputs(again, cold)
    # the recompute replaced the bad entry
    fresh = StageCache(cache_dir)
    assert same_outputs(run_pipeline(inputs, depth_config(), fresh), cold)
    assert (fresh.hits, fresh.misses) == (3, 0)


def test_npz_entries_of_the_old_format_are_misses(tmp_path, sweep_scene,
                                                  caplog):
    # the old format kept one zip per key (kind, geometry, nodata, values);
    # its files are misses here, under their own name or a .npy name
    inputs = scene_inputs(sweep_scene)
    cold, keys = cached_entries(inputs, str(tmp_path / "c"))
    entries = {keys["Raster"]: dict(kind="raster", values=inputs.flood.values,
                                    nodata=inputs.flood.nodata),
               keys["BinaryMask"]: dict(kind="mask", values=cold.mask.values),
               keys["DepthField"]: dict(kind="depth",
                                        depth=cold.depth.depth.values,
                                        wse=cold.depth.wse.values)}
    for name, suffix in (("npz", ".npz"), ("renamed", ".npy")):
        cache_dir = tmp_path / name
        cache_dir.mkdir()
        for key, payload in entries.items():
            with open(cache_dir / (key + suffix), "wb") as fh:
                np.savez(fh, geo=np.zeros(5), **payload)
        cache = StageCache(str(cache_dir))
        caplog.clear()
        with caplog.at_level("WARNING", logger="floodbench"):
            again = run_pipeline(inputs, depth_config(), cache)
        assert same_outputs(again, cold)
        assert (cache.hits, cache.misses) == (0, 4)
        assert caplog.text.count("stage=cache status=corrupt") \
            == (3 if suffix == ".npy" else 0)


def test_sweep_digests_each_external_file_once(tmp_path, sweep_scene,
                                               monkeypatch):
    from collections import Counter
    scene_dir = tmp_path / "scene"
    write_scene(sweep_scene, str(scene_dir), ext="fbr")
    inputs = scene_inputs(sweep_scene)
    inputs.external_reference_path = str(scene_dir / "reference_intensity.fbr")
    mappers = [MapperConfig("global_threshold", selector="otsu"),
               MapperConfig("change_detection", selector="otsu")]
    mappers += [MapperConfig("external_mask", external_label=label,
                             external_path=str(scene_dir / name))
                for label, name in (("cnn", "truth_mask.fbr"),
                                    ("rf", "permanent_water.fbr"))]
    configs = build_config_specs(
        [FilterConfig("none"), FilterConfig("lee", k=1),
         FilterConfig("external", path=str(scene_dir / "clean_backscatter.fbr"))],
        [(m, MorphologyConfig(False)) for m in mappers])
    calls = Counter()
    real = ensemble.digest_file

    def counted(path):
        calls[path] += 1
        return real(path)

    monkeypatch.setattr(ensemble, "digest_file", counted)
    memoised = read_manifest(sweep(SweepPlan(
        inputs, configs, str(tmp_path / "o1"), write_outputs=False)))
    assert set(calls) == {str(scene_dir / name) for name in (
        "reference_intensity.fbr", "truth_mask.fbr", "permanent_water.fbr",
        "clean_backscatter.fbr")}
    assert max(calls.values()) == 1
    # digesting on every lookup, as before the memo, gives the same rows
    monkeypatch.setattr(PipelineInputs, "file_digest",
                        lambda self, path: real(path))
    every_time = read_manifest(sweep(SweepPlan(
        scene_inputs(sweep_scene), configs, str(tmp_path / "o2"),
        write_outputs=False)))
    assert manifest_multiset(memoised) == manifest_multiset(every_time)
    assert sum(r["status"] == "ok" for r in memoised) == len(configs)


def test_external_filter_takes_the_flood_nodata(tmp_path, sweep_scene):
    from floodbench.raster import Raster, read_raster, write_raster
    from floodbench.speckle import apply_filter_config
    flood = sweep_scene.speckled_intensity
    clean = sweep_scene.clean_backscatter.values
    border = np.zeros(clean.shape, dtype=bool)
    border[:4, :] = border[-4:, :] = border[:, :4] = border[:, -4:] = True
    paths = {}
    for name, nodata in (("same", flood.nodata), ("other", -1.0)):
        paths[name] = str(tmp_path / (name + ".fbr"))
        write_raster(flood.like(np.where(border, nodata, clean), nodata),
                     paths[name])
    other = read_raster(paths["other"])
    assert other.nodata != flood.nodata
    out = apply_filter_config(flood, FilterConfig("external",
                                                  path=paths["other"]))
    assert isinstance(out, Raster) and out.geometry == flood.geometry
    assert out.nodata == flood.nodata
    assert np.array_equal(out.finite, other.finite)
    assert np.array_equal(out.values[out.finite], other.values[other.finite])
    # the same masks as from the file written with the flood's nodata,
    # which the filter passes through unchanged
    inputs = scene_inputs(sweep_scene)
    mappers = [MapperConfig("global_threshold", selector=s)
               for s in ("otsu", "ki")]
    mappers += [MapperConfig("local_threshold", min_tile_side=100,
                             ad_min=1.9, bc_min=0.98, sr_min=0.05),
                MapperConfig("active_contour",
                             chan_vese=ChanVeseParams(alpha=0.1)),
                MapperConfig("change_detection", selector="ki")]
    masks = {}
    for name, path in paths.items():
        configs = build_config_specs(
            [FilterConfig("external", path=path)],
            [(m, MorphologyConfig(False)) for m in mappers])
        results = [run_pipeline(inputs, cfg, StageCache()) for cfg in configs]
        masks[name] = [r.mask.values if r.mask is not None
                       else r.record.reason for r in results]
    assert sum(isinstance(m, np.ndarray) for m in masks["same"]) >= 4
    for same, other_mask in zip(masks["same"], masks["other"]):
        assert np.array_equal(same, other_mask)


# ---------------------------------------------------------------------------
# nearest-boundary tables: memory-only entries shared by the depth configs


def shared_table_setup(scene):
    """Inputs with a DEM steep enough that slope threshold 5 drops boundary
    cells (None and 10 keep them all) and an exclusion strip the flood
    grows into; one mask with the 18 fwdet/flexth configs."""
    inputs = scene_inputs(scene)
    inputs.dem = scene.dem.like(scene.dem.values * 1.5)
    strip = np.zeros(scene.dem.values.shape, dtype=np.uint8)
    strip[:, 40:56] = 1
    inputs.exclusion = mask_like(scene.dem, strip)
    depths = [d for d in enumerate_depth() if d.method != "cross_section"]
    return inputs, build_config_specs(
        [FilterConfig("median", k=1)],
        [(MapperConfig("global_threshold", selector="otsu"),
          MorphologyConfig(False))], depths)


def distinct_boundaries(mask, dem) -> int:
    return len({extract_boundary(mask, dem, s).cells.tobytes()
                for s in (None, 5.0, 10.0)})


def counted_queries(monkeypatch):
    """Record k for every _k_nearest and _nearest_one call."""
    calls = {"tree": [], "lookup": []}
    real_tree, real_lookup = raster._k_nearest, raster._nearest_one

    def tree(src, qry, k):
        calls["tree"].append(k)
        return real_tree(src, qry, k)

    def lookup(src, qry):
        calls["lookup"].append(1)
        return real_lookup(src, qry)

    monkeypatch.setattr(raster, "_k_nearest", tree)
    monkeypatch.setattr(raster, "_nearest_one", lookup)
    return calls


def test_depth_configs_share_one_query_per_boundary(tmp_path, sweep_scene,
                                                    monkeypatch):
    inputs, configs = shared_table_setup(sweep_scene)
    calls = counted_queries(monkeypatch)
    looked_up = []
    real_get = StageCache.get_or_compute

    def get(self, key, kind, *args, **kwargs):
        looked_up.append((key, kind))
        return real_get(self, key, kind, *args, **kwargs)

    monkeypatch.setattr(StageCache, "get_or_compute", get)
    cache_dir = str(tmp_path / "c")
    cache = StageCache(cache_dir)
    results = [run_pipeline(inputs, cfg, cache) for cfg in configs]
    assert all(r.record.status == "ok" for r in results)
    mask = results[0].mask
    grown = expand_into_exclusion(mask, inputs.exclusion)
    # slope 5 drops cells, so two boundaries each; one tree query per
    # distinct boundary of the grown mask, with K = 20
    assert distinct_boundaries(mask, inputs.dem) == 2
    assert distinct_boundaries(grown, inputs.dem) == 2
    assert calls["tree"] == [20, 20]
    assert len(calls["lookup"]) == 2
    tables = {key for key, kind in looked_up if kind == "nearest"}
    assert len(tables) == 4
    # tables are held in memory and never written
    stored = {name[:-len(".npy")] for name in os.listdir(cache_dir)}
    assert not tables & stored
    assert stored == {key for key, kind in looked_up if kind != "nearest"}
    assert tables <= set(cache._mem)
    # the depth fields equal those of direct, unshared calls
    aux = DepthAux(inputs.exclusion)
    for cfg, result in zip(configs, results):
        direct = apply_depth_config(mask, inputs.dem, cfg.depth, aux).field
        assert np.array_equal(result.depth.depth.values, direct.depth.values)
        assert np.array_equal(result.depth.wse.values, direct.wse.values)


def test_tables_larger_than_the_tier_are_recomputed(sweep_scene,
                                                    monkeypatch):
    inputs, configs = shared_table_setup(sweep_scene)
    held = StageCache()
    expected = [run_pipeline(inputs, cfg, held) for cfg in configs]
    sizes = [obj.nbytes for obj, _ in held._mem.values()
             if isinstance(obj, np.ndarray) and obj.shape[2] == 20]
    # below one K = 20 table: each flexth config queries its own again,
    # while the depth fields and the k = 1 tables stay held
    monkeypatch.setattr(ensemble, "MEMORY_TIER_BYTES", min(sizes) - 1)
    calls = counted_queries(monkeypatch)
    cache = StageCache()
    results = [run_pipeline(inputs, cfg, cache) for cfg in configs]
    assert calls["tree"] == [20] * 9
    assert len(calls["lookup"]) == 2
    for got, want in zip(results, expected):
        assert same_outputs(got, want)


# ---------------------------------------------------------------------------
# I/O faults


def test_unwritable_cache_store_keeps_the_output(tmp_path, sweep_scene,
                                                 monkeypatch, caplog):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None) + depth_plan_configs()
    clean_dir = str(tmp_path / "clean_cache")
    clean = sweep(SweepPlan(inputs, configs, str(tmp_path / "clean"),
                            cache_dir=clean_dir, write_outputs=False))
    real_save = np.save
    saved = []

    def full_disk(*args, **kwargs):
        if len(saved) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        saved.append(1)
        return real_save(*args, **kwargs)

    monkeypatch.setattr(np, "save", full_disk)
    cache_dir = str(tmp_path / "cache")
    with caplog.at_level("WARNING", logger="floodbench"):
        full = sweep(SweepPlan(inputs, configs, str(tmp_path / "full"),
                               cache_dir=cache_dir, write_outputs=False))
    assert manifest_multiset(read_manifest(full)) \
        == manifest_multiset(read_manifest(clean))
    assert len(os.listdir(cache_dir)) == 3
    assert "stage=cache status=unwritable key=" in caplog.text
    assert "error=OSError: [Errno %d] No space left on device" \
        % errno.ENOSPC in caplog.text
    # with room again, a rerun on the same directory stores what is missing
    monkeypatch.setattr(np, "save", real_save)
    again = sweep(SweepPlan(inputs, configs, str(tmp_path / "again"),
                            cache_dir=cache_dir, write_outputs=False))
    assert manifest_multiset(read_manifest(again)) \
        == manifest_multiset(read_manifest(clean))
    assert sorted(os.listdir(cache_dir)) == sorted(os.listdir(clean_dir))


def test_failed_output_write_is_one_failed_row(tmp_path, sweep_scene,
                                               monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = (small_config_set(None) + depth_plan_configs())[:10]
    real_write = ensemble.write_mask
    writes = []

    def failing_disk(mask, path, fmt=None):
        writes.append(path)
        if len(writes) == 4:
            raise OSError(errno.EIO, "Input/output error")
        return real_write(mask, path, fmt)

    monkeypatch.setattr(ensemble, "write_mask", failing_disk)
    out_dir = str(tmp_path / "out")
    rows = read_manifest(sweep(SweepPlan(inputs, configs, out_dir,
                                         cache_dir=str(tmp_path / "c"))))
    assert [r["config_id"] for r in rows] == [c.config_id for c in configs]
    assert [r["status"] for r in rows] == ["ok"] * 3 + ["failed"] + ["ok"] * 6
    assert rows[3]["reason"] \
        == "output: OSError: [Errno %d] Input/output error" % errno.EIO
    assert rows[3]["wall_ms"] != ""
    for cfg in configs[:3] + configs[4:]:
        assert os.path.exists(os.path.join(out_dir, cfg.config_id,
                                           "mask.fbr"))


def failing_renames(monkeypatch, fails):
    """Make os.replace raise EIO for the destinations ``fails`` picks;
    return the destinations it failed."""
    real = os.replace
    failed = []

    def replace(src, dst):
        if fails(str(dst)):
            failed.append(str(dst))
            raise OSError(errno.EIO, "Input/output error")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return failed


def test_failed_cache_rename_leaves_no_temp_file(tmp_path, sweep_scene,
                                                 monkeypatch, caplog):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None) + depth_plan_configs()
    clean = sweep(SweepPlan(inputs, configs, str(tmp_path / "clean"),
                            cache_dir=str(tmp_path / "clean_cache"),
                            write_outputs=False))
    failed = failing_renames(monkeypatch, lambda dst: dst.endswith(".npy"))
    cache_dir = str(tmp_path / "cache")
    with caplog.at_level("WARNING", logger="floodbench"):
        rows = read_manifest(sweep(SweepPlan(
            inputs, configs, str(tmp_path / "out"), cache_dir=cache_dir,
            write_outputs=False)))
    assert failed
    assert {r["status"] for r in rows} == {"ok"}
    assert manifest_multiset(rows) == manifest_multiset(read_manifest(clean))
    assert "stage=cache status=unwritable key=" in caplog.text
    assert os.listdir(cache_dir) == []


def test_failed_output_rename_is_one_failed_row(tmp_path, sweep_scene,
                                                monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = (small_config_set(None) + depth_plan_configs())[:10]
    victim = os.path.join(configs[3].config_id, "mask.fbr")
    failing_renames(monkeypatch, lambda dst: dst.endswith(victim))
    out_dir = str(tmp_path / "out")
    rows = read_manifest(sweep(SweepPlan(inputs, configs, out_dir,
                                         cache_dir=str(tmp_path / "c"))))
    assert [r["config_id"] for r in rows] == [c.config_id for c in configs]
    assert [r["status"] for r in rows] == ["ok"] * 3 + ["failed"] + ["ok"] * 6
    assert rows[3]["reason"].startswith("output: InputError: cannot write")
    assert os.listdir(os.path.join(out_dir, configs[3].config_id)) == []
    for cfg in configs[:3] + configs[4:]:
        assert os.listdir(os.path.join(out_dir, cfg.config_id)) \
            == ["mask.fbr"]


def test_failed_manifest_rename_keeps_the_previous_manifest(
        tmp_path, sweep_scene, monkeypatch):
    inputs = scene_inputs(sweep_scene)
    configs = small_config_set(None)
    out_dir = str(tmp_path / "out")
    cache_dir = str(tmp_path / "cache")
    manifest = sweep(SweepPlan(inputs, configs[:2], out_dir,
                               cache_dir=cache_dir, write_outputs=False))
    with open(manifest, "rb") as fh:
        before = fh.read()
    failed = failing_renames(monkeypatch,
                             lambda dst: dst.endswith("manifest.csv"))
    with pytest.raises(OSError):
        sweep(SweepPlan(inputs, configs, out_dir, cache_dir=cache_dir,
                        write_outputs=False))
    assert failed == [manifest]
    with open(manifest, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(out_dir) == ["manifest.csv"]


# ---------------------------------------------------------------------------
# content digests: each grid object hashes its content once


def test_sweep_hashes_each_grid_object_once(tmp_path, sweep_scene,
                                            monkeypatch):
    inputs = scene_inputs(sweep_scene)
    # new objects: the session's scene may have hashed its own already
    inputs.flood = inputs.flood.like(inputs.flood.values)
    inputs.dem = inputs.dem.like(inputs.dem.values)
    configs = depth_plan_configs()
    hashed = []
    real = raster._grid_digest

    def counted(head, values):
        hashed.append(values)      # held, so no two objects share an id
        return real(head, values)

    monkeypatch.setattr(raster, "_grid_digest", counted)
    cache_dir = str(tmp_path / "cache")
    for run in ("cold", "warm"):
        hashed.clear()
        rows = read_manifest(sweep(SweepPlan(
            inputs, configs, str(tmp_path / run), cache_dir=cache_dir,
            write_outputs=False)))
        assert {r["status"] for r in rows} == {"ok"}
        assert len({id(v) for v in hashed}) == len(hashed)
        # once each for the 18 configs: the filtered image and the 9
        # morphed masks (the morph nodes key on the base node's key, so
        # the base mask is not hashed), and the flood image and the DEM,
        # whose digests outlive the first sweep
        assert len(hashed) == 1 + 9 + (2 if run == "cold" else 0)


def test_reassigned_input_keys_a_new_depth_field(sweep_scene):
    inputs = scene_inputs(sweep_scene)
    cfg = depth_config()
    cache = StageCache()
    first = run_pipeline(inputs, cfg, cache)
    inputs.dem = sweep_scene.dem.like(sweep_scene.dem.values * 1.5)
    rerun = run_pipeline(inputs, cfg, cache)
    fresh = run_pipeline(inputs, cfg, StageCache())
    assert same_outputs(rerun, fresh)
    assert not np.array_equal(rerun.depth.depth.values,
                              first.depth.depth.values)
