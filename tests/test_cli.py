"""CLI subcommands: outputs, exit codes, and diagnostics."""
import os
import subprocess
import sys

import numpy as np
import pytest

import floodbench
from floodbench.cli import main
from floodbench.metrics import read_manifest
from floodbench.raster import (mask_like, read_mask, read_raster, write_mask,
                               write_raster)
from floodbench.speckle import enl
from floodbench.synth import write_scene

from conftest import sweep_scene, smooth_valley  # noqa: F401


@pytest.fixture()
def scene_dir(tmp_path, sweep_scene):
    d = tmp_path / "scene"
    write_scene(sweep_scene, str(d), ext="fbr")
    return d


def test_despeckle_none_is_copy(tmp_path, scene_dir):
    out = tmp_path / "out.fbr"
    code = main(["despeckle", "--in", str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(out), "--method", "none"])
    assert code == 0
    a = read_raster(str(scene_dir / "speckled_intensity.fbr"))
    b = read_raster(str(out))
    assert np.array_equal(a.values, b.values)


def test_despeckle_unknown_method_usage_error(tmp_path, scene_dir):
    code = main(["despeckle", "--in", str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(tmp_path / "x.fbr"), "--method", "wavelet"])
    assert code == 2
    assert not (tmp_path / "x.fbr").exists()


def test_despeckle_median_raises_enl(tmp_path, scene_dir, sweep_scene):
    out = tmp_path / "median.fbr"
    code = main(["despeckle", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(out), "--method", "median", "--window", "5"])
    assert code == 0
    region = np.zeros((128, 128), dtype=np.uint8)
    region[:30, :] = 1  # homogeneous land strip
    region_mask = mask_like(sweep_scene.dem, region)
    raw = read_raster(str(scene_dir / "speckled_intensity.fbr"))
    filtered = read_raster(str(out))
    assert enl(filtered, region_mask) > enl(raw, region_mask)


def test_despeckle_bad_window_parity(tmp_path, scene_dir):
    code = main(["despeckle", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(tmp_path / "x.fbr"), "--method", "median",
                 "--window", "4"])
    assert code == 2


def test_mapflood_global_otsu(tmp_path, scene_dir):
    out = tmp_path / "mask.fbr"
    code = main(["mapflood", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(out), "--method", "global_threshold",
                 "--selector", "otsu"])
    assert code == 0
    mask = read_mask(str(out))
    assert mask.flooded_count() > 0


def test_mapflood_change_detection_requires_ref(tmp_path, scene_dir):
    code = main(["mapflood", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(tmp_path / "m.fbr"),
                 "--method", "change_detection"])
    assert code == 2


def test_mapflood_morphology_flags_apply_fill_then_remove(tmp_path, scene_dir):
    raw = tmp_path / "raw.fbr"
    cleaned = tmp_path / "clean.fbr"
    base = ["mapflood", "--in", str(scene_dir / "speckled_intensity.fbr"),
            "--method", "global_threshold", "--selector", "otsu"]
    assert main(base + ["--out", str(raw)]) == 0
    assert main(base + ["--out", str(cleaned), "--fill-holes", "50",
                        "--remove-patches", "50"]) == 0
    from floodbench.mapping import fill_holes, remove_patches
    expect = remove_patches(fill_holes(read_mask(str(raw)), 50), 50)
    assert np.array_equal(read_mask(str(cleaned)).values, expect.values)


@pytest.mark.parametrize("flag, hole_filled, speck_removed",
                         [("--fill-holes", True, False),
                          ("--remove-patches", False, True)])
def test_mapflood_morphology_flag_applies_only_its_step(tmp_path, flag,
                                                        hole_filled,
                                                        speck_removed):
    from floodbench.raster import Raster
    values = np.full((20, 20), 0.1)          # -10 dB land
    values[4:12, 4:12] = 0.01                # an 8 x 8 lake at -20 dB
    values[7, 7] = 0.1                       # with a one-cell dry hole
    values[16, 16] = 0.01                    # and one isolated dark pixel
    image = tmp_path / "img.fbr"
    write_raster(Raster(20, 20, 10.0, 0.0, 0.0, -9999.0, values), str(image))
    out = tmp_path / "mask.fbr"
    assert main(["mapflood", "--in", str(image), "--out", str(out),
                 "--method", "global_threshold", "--selector", "otsu",
                 flag, "5"]) == 0
    mask = read_mask(str(out))
    assert mask.flooded[7, 7] == hole_filled
    assert mask.flooded[16, 16] != speck_removed
    assert mask.flooded_count() == 63 + hole_filled + (not speck_removed)


def test_mapflood_rejects_a_negative_morphology_area(tmp_path, scene_dir):
    code = main(["mapflood", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(tmp_path / "m.fbr"), "--method",
                 "global_threshold", "--selector", "otsu",
                 "--fill-holes", "-5"])
    assert code == 2
    assert not os.path.exists(str(tmp_path / "m.fbr"))


def test_depth_fwdet_writes_depth_and_wse(tmp_path, scene_dir):
    out = tmp_path / "est.fbr"
    code = main(["depth", "--mask", str(scene_dir / "truth_mask.fbr"),
                 "--dem", str(scene_dir / "dem.fbr"), "--method", "fwdet",
                 "--smoothing", "3", "--out", str(out)])
    assert code == 0
    depth = read_raster(str(tmp_path / "est_depth.fbr"))
    wse = read_raster(str(tmp_path / "est_wse.fbr"))
    assert depth.finite.any() and wse.finite.any()


def test_depth_cross_section_requires_sections(tmp_path, scene_dir):
    code = main(["depth", "--mask", str(scene_dir / "truth_mask.fbr"),
                 "--dem", str(scene_dir / "dem.fbr"),
                 "--method", "cross_section", "--out",
                 str(tmp_path / "e.fbr")])
    assert code == 2


def test_depth_empty_flood_is_degenerate(tmp_path, scene_dir, sweep_scene):
    empty = tmp_path / "empty.fbr"
    write_mask(mask_like(sweep_scene.dem,
                         np.zeros((128, 128), dtype=np.uint8)), str(empty))
    code = main(["depth", "--mask", str(empty),
                 "--dem", str(scene_dir / "dem.fbr"), "--method", "fwdet",
                 "--out", str(tmp_path / "e.fbr")])
    assert code == 3


def test_metrics_perfect_prediction(tmp_path, scene_dir, capsys):
    out_csv = tmp_path / "rows.csv"
    code = main(["metrics", "--pred", str(scene_dir / "truth_mask.fbr"),
                 "--ref", str(scene_dir / "truth_mask.fbr"),
                 "--out-csv", str(out_csv)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "acc=1.000000" in printed and "f1=1.000000" in printed
    rows = read_manifest(str(out_csv))
    assert rows[0]["acc"] == "1" and rows[0]["f1"] == "1"


def test_metrics_depth_rmse_matches_library(tmp_path, scene_dir, smooth_valley,
                                            capsys):
    from floodbench.depth import DepthConfig, fwdet
    from floodbench.metrics import depth_rmse
    valley_dir = tmp_path / "valley"
    write_scene(smooth_valley, str(valley_dir), ext="fbr")
    field = fwdet(smooth_valley.truth_mask, smooth_valley.dem,
                  DepthConfig("fwdet", smoothing_iterations=3))
    write_raster(field.depth, str(tmp_path / "pred_depth.fbr"))
    write_raster(field.wse, str(tmp_path / "pred_wse.fbr"))
    code = main(["metrics", "--pred", str(valley_dir / "truth_mask.fbr"),
                 "--ref", str(valley_dir / "truth_mask.fbr"),
                 "--pred-depth", str(tmp_path / "pred_depth.fbr"),
                 "--pred-wse", str(tmp_path / "pred_wse.fbr"),
                 "--ref-depth", str(valley_dir / "truth_depth.fbr")])
    assert code == 0
    printed = capsys.readouterr().out
    ref_depth = read_raster(str(valley_dir / "truth_depth.fbr"))
    from floodbench.depth import DepthField
    lib = depth_rmse(DepthField(read_raster(str(tmp_path / "pred_depth.fbr")),
                                read_raster(str(tmp_path / "pred_wse.fbr"))),
                     ref_depth)
    assert ("rmse_m=%.6f" % lib) in printed


def test_metrics_bad_watermark_header(tmp_path, scene_dir):
    wm = tmp_path / "wm.csv"
    wm.write_text("lon,lat,depth\n1,2,3\n")
    code = main(["metrics", "--pred", str(scene_dir / "truth_mask.fbr"),
                 "--ref", str(scene_dir / "truth_mask.fbr"),
                 "--pred-depth", str(scene_dir / "truth_depth.fbr"),
                 "--watermarks", str(wm)])
    assert code == 2


def test_sweep_missing_plan(tmp_path):
    code = main(["sweep", "--plan", str(tmp_path / "nope.cfg"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2


def test_sweep_small_plan(tmp_path, scene_dir, capsys):
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "[inputs]\n"
        "flood = scene/speckled_intensity.fbr\n"
        "reference = scene/reference_intensity.fbr\n"
        "truth_mask = scene/truth_mask.fbr\n"
        "permanent_water = scene/permanent_water.fbr\n"
        "[filters]\n"
        "methods = none,median\n"
        "looks = 8\n"
        "[mappers]\n"
        "methods = global_threshold,change_detection\n"
        "[run]\n"
        "jobs = 2\n"
        "write_outputs = false\n")
    code = main(["sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "out")])
    assert code == 0
    manifest = capsys.readouterr().out.strip()
    rows = read_manifest(manifest)
    assert len(rows) == 4 * 4  # (none + 3 median) x (2 global + 2 change)


def test_synth_six_files_and_determinism(tmp_path, capsys):
    spec = tmp_path / "scene.cfg"
    spec.write_text("[scene]\nwidth = 32\nheight = 32\nseed = 5\n")
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out1)]) == 0
    assert main(["synth", "--spec", str(spec), "--out-dir", str(out2)]) == 0
    files1 = sorted(os.listdir(out1))
    assert len(files1) == 6
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_invalid_spec(tmp_path):
    spec = tmp_path / "scene.cfg"
    spec.write_text("[scene]\nwater_db = -5\nland_db = -8\n")
    assert main(["synth", "--spec", str(spec),
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--space", "filters"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 26
    assert main(["enumerate", "--space", "mappers"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 48
    assert main(["enumerate", "--space", "mappers-morph"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 432
    assert main(["enumerate", "--space", "depth"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 19


def test_verbose_diagnostics_on_stderr(tmp_path, scene_dir, capsys):
    out = tmp_path / "m.fbr"
    code = main(["-v", "mapflood", "--in",
                 str(scene_dir / "speckled_intensity.fbr"),
                 "--out", str(out), "--method", "global_threshold"])
    assert code == 0
    err = capsys.readouterr().err
    assert "stage=mapflood" in err and "status=written" in err


def cached_plan(tmp_path):
    """8-config sweep plan (none and three median windows x 2 global
    thresholds) that caches under tmp_path/cache."""
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "[inputs]\n"
        "flood = scene/speckled_intensity.fbr\n"
        "truth_mask = scene/truth_mask.fbr\n"
        "[filters]\nmethods = none,median\nlooks = 8\n"
        "[mappers]\nmethods = global_threshold\n"
        "[run]\njobs = 2\nwrite_outputs = false\n"
        "cache_dir = cache\n")
    return plan


def manifest_multiset(rows):
    """Row multiset with the timing column dropped (it varies per run)."""
    return sorted(tuple(sorted((k, v) for k, v in r.items()
                               if k != "wall_ms")) for r in rows)


def test_sweep_rerun_hits_cache_and_matches(tmp_path, scene_dir, capsys):
    plan = cached_plan(tmp_path)
    assert main(["-v", "sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "o1")]) == 0
    first = capsys.readouterr()
    assert main(["-v", "sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "o2")]) == 0
    second = capsys.readouterr()
    assert "status=cached" in second.err
    rows1 = read_manifest(first.out.strip().splitlines()[-1])
    rows2 = read_manifest(second.out.strip().splitlines()[-1])
    assert manifest_multiset(rows1) == manifest_multiset(rows2)


def test_sweep_corrupt_cache_entries_are_recomputed(tmp_path, scene_dir,
                                                    capsys):
    plan = cached_plan(tmp_path)
    assert main(["sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "o1")]) == 0
    clean = read_manifest(capsys.readouterr().out.strip().splitlines()[-1])
    junk, truncated = sorted((tmp_path / "cache").glob("*.npy"))[:2]
    junk.write_bytes(b"junk")
    truncated.write_bytes(truncated.read_bytes()[:truncated.stat().st_size
                                                 // 2])
    assert main(["-v", "sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "o2")]) == 0
    rerun = capsys.readouterr()
    assert rerun.err.count("stage=cache status=corrupt") == 2
    assert "key=" + junk.stem[:12] in rerun.err
    assert "key=" + truncated.stem[:12] in rerun.err
    rows = read_manifest(rerun.out.strip().splitlines()[-1])
    assert len(rows) == len(clean) == 8
    assert manifest_multiset(rows) == manifest_multiset(clean)
    # the recomputed entries replaced the corrupt files
    assert main(["-v", "sweep", "--plan", str(plan), "--out-dir",
                 str(tmp_path / "o3")]) == 0
    assert "status=corrupt" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# startup: the k-d tree module loads only for FLEXTH

PIPELINE_SCRIPT = """
import sys
from floodbench.depth import DepthConfig
from floodbench.ensemble import (PipelineInputs, StageCache, ConfigSpec,
                                 run_pipeline)
from floodbench.mapping import MapperConfig, MorphologyConfig
from floodbench.speckle import FilterConfig
from floodbench.synth import SceneSpec, generate_scene

scene = generate_scene(SceneSpec(width=48, height=48, looks=8.0, seed=37,
                                 channel_half_width=150.0))
inputs = PipelineInputs(flood=scene.speckled_intensity, dem=scene.dem,
                        looks=8.0)
cache = StageCache()


def run(depth):
    cfg = ConfigSpec(FilterConfig("none"),
                     MapperConfig("global_threshold", selector="otsu"),
                     MorphologyConfig(False), depth)
    assert run_pipeline(inputs, cfg, cache).record.status == "ok"


for slope in (None, 5.0, 10.0):
    run(DepthConfig("fwdet", slope_threshold=slope, smoothing_iterations=3))
print("fwdet", "scipy.spatial" in sys.modules)
run(DepthConfig("flexth", max_neighbors=5))
print("flexth", "scipy.spatial" in sys.modules)
"""


def python_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run by a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        floodbench.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[:-1]


def test_cli_import_loads_no_kd_tree_module():
    assert python_lines("import sys, floodbench.cli\n"
                        "print('scipy.spatial' in sys.modules)") == ["False"]


def test_fwdet_pipeline_loads_no_kd_tree_module():
    # FLEXTH, which still queries the tree, shows that the check can fail
    assert python_lines(PIPELINE_SCRIPT) == ["fwdet False", "flexth True"]
