"""Enumeration golden counts, pipeline caching, sweep determinism, and
representative-map sampling."""
import os

import numpy as np
import pytest

from floodbench.depth import DepthConfig
from floodbench.ensemble import (ConfigSpec, PipelineInputs, StageCache,
                                 SweepPlan, build_config_specs,
                                 enumerate_depth, enumerate_filters,
                                 enumerate_mappers, read_sweep_plan,
                                 run_pipeline, select_representative_maps,
                                 sweep)
from floodbench.errors import InputError
from floodbench.mapping import MapperConfig, MorphologyConfig, ChanVeseParams
from floodbench.metrics import MetricsRecord, read_manifest
from floodbench.speckle import FilterConfig
from floodbench.synth import write_scene

from conftest import sweep_scene  # noqa: F401


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
    header = open(manifest).readline().strip()
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


def test_sweep_rows_follow_plan_order(tmp_path, sweep_scene):
    inputs = scene_inputs(sweep_scene)
    # reversing the plan puts slow active-contour configs ahead of fast
    # ones, so completion order would differ from plan order
    configs = small_config_set(None)[::-1]
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
