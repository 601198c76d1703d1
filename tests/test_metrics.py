"""Confusion counts, scores, areas, and RMSE against direct tallies."""
import numpy as np
import pytest

from floodbench.depth import DepthConfig, DepthField, fwdet
from floodbench.errors import GeometryError, InputError
from floodbench.metrics import (ConfusionCounts, MetricsRecord, accuracy,
                                append_manifest_row, confusion, depth_rmse, f1,
                                flooded_area_km2, manifest_header_line,
                                read_manifest, read_watermarks, rmse_at_points)
from floodbench.raster import BinaryMask, Raster

from conftest import random_mask, smooth_valley  # noqa: F401


def mask_of(vals, cell=10.0):
    vals = np.asarray(vals, dtype=np.uint8)
    return BinaryMask(vals.shape[1], vals.shape[0], cell, 0.0, 0.0, vals)


def test_confusion_perfect_prediction():
    rng = np.random.default_rng(70)
    m = random_mask(rng, 16, 16)
    c = confusion(m, m)
    assert c.fp == 0 and c.fn == 0
    assert c.tp + c.tn == 16 * 16


def test_confusion_inverted_prediction():
    rng = np.random.default_rng(71)
    m = random_mask(rng, 16, 16)
    inv = m.like(1 - m.values)
    c = confusion(inv, m)
    assert c.tp == 0 and c.tn == 0


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(72)
    pred = random_mask(rng, 32, 32)
    ref = random_mask(rng, 32, 32)
    c = confusion(pred, ref)
    tp = tn = fp = fn = 0
    for i in range(32):
        for j in range(32):
            p = pred.values[i, j] == 1
            r = ref.values[i, j] == 1
            tp += p and r
            tn += (not p) and (not r)
            fp += p and not r
            fn += (not p) and r
    assert c == ConfusionCounts(tp, tn, fp, fn)


def test_confusion_exclusion_mask():
    pred = mask_of([[1, 1], [0, 0]])
    ref = mask_of([[1, 0], [0, 0]])
    exclude = mask_of([[0, 1], [0, 0]])
    c = confusion(pred, ref, exclude)
    assert c == ConfusionCounts(1, 2, 0, 0)


def test_confusion_nodata_cells_skipped():
    pred = mask_of([[1, 255], [0, 0]])
    ref = mask_of([[1, 1], [255, 0]])
    c = confusion(pred, ref)
    assert c.total == 2


def test_confusion_permutation_invariance():
    rng = np.random.default_rng(77)
    pred = random_mask(rng, 12, 12)
    ref = random_mask(rng, 12, 12)
    perm = rng.permutation(12 * 12)
    pred2 = pred.like(pred.values.ravel()[perm].reshape(12, 12))
    ref2 = ref.like(ref.values.ravel()[perm].reshape(12, 12))
    assert confusion(pred, ref) == confusion(pred2, ref2)


def test_confusion_swap_symmetry():
    rng = np.random.default_rng(73)
    a = random_mask(rng, 20, 20)
    b = random_mask(rng, 20, 20)
    c1 = confusion(a, b)
    c2 = confusion(b, a)
    assert (c1.tp, c1.tn, c1.fp, c1.fn) == (c2.tp, c2.tn, c2.fn, c2.fp)


def test_confusion_geometry_mismatch():
    a = mask_of(np.zeros((4, 4)))
    b = BinaryMask(4, 4, 5.0, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(GeometryError):
        confusion(a, b)


def test_accuracy_and_f1_arithmetic():
    c = ConfusionCounts(tp=2, tn=6, fp=1, fn=1)
    assert accuracy(c) == pytest.approx(0.8)
    assert f1(c) == pytest.approx(2 * 2 / 6)


def test_scores_all_correct():
    c = ConfusionCounts(tp=5, tn=5, fp=0, fn=0)
    assert accuracy(c) == 1.0
    assert f1(c) == 1.0


def test_f1_perfect_empty_convention():
    assert f1(ConfusionCounts(0, 10, 0, 0)) == 1.0


def test_scores_empty_evaluation_set():
    with pytest.raises(InputError, match="empty evaluation"):
        accuracy(ConfusionCounts(0, 0, 0, 0))
    with pytest.raises(InputError, match="empty evaluation"):
        f1(ConfusionCounts(0, 0, 0, 0))


def test_scores_monotone_under_corrections():
    c = ConfusionCounts(tp=4, tn=8, fp=3, fn=2)
    fixed_fp = ConfusionCounts(4, 9, 2, 2)
    fixed_fn = ConfusionCounts(5, 8, 3, 1)
    for fixed in (fixed_fp, fixed_fn):
        assert accuracy(fixed) >= accuracy(c)
        assert f1(fixed) >= f1(c)


def test_flooded_area_arithmetic():
    vals = np.zeros((100, 100), dtype=np.uint8)
    vals.ravel()[:10000] = 1
    assert flooded_area_km2(mask_of(vals)) == pytest.approx(1.0)
    assert flooded_area_km2(mask_of(np.zeros((10, 10)))) == 0.0


def test_score_and_area_magnitudes_at_survey_scale():
    # magnitudes typical of real 10 m flood products: a ~0.79 F1 map and
    # flooded areas around 100 km2
    assert f1(ConfusionCounts(tp=793, tn=5000, fp=207, fn=207)) \
        == pytest.approx(0.793)
    vals = np.zeros((1200, 1200), dtype=np.uint8)
    vals.ravel()[:1123800] = 1
    big = BinaryMask(1200, 1200, 10.0, 0.0, 0.0, vals)
    assert flooded_area_km2(big) == pytest.approx(112.38)


def test_flooded_area_additive_over_disjoint_masks():
    rng = np.random.default_rng(74)
    a = rng.random((20, 20)) < 0.3
    b = (rng.random((20, 20)) < 0.3) & ~a
    total = flooded_area_km2(mask_of((a | b).astype(np.uint8)))
    assert total == pytest.approx(flooded_area_km2(mask_of(a.astype(np.uint8)))
                                  + flooded_area_km2(mask_of(b.astype(np.uint8))))


def _field_from(depth_vals, cell=10.0):
    depth_vals = np.asarray(depth_vals, dtype=np.float64)
    r = Raster(depth_vals.shape[1], depth_vals.shape[0], cell, 0.0, 0.0,
               -9999.0, depth_vals)
    return DepthField(r, r)


def test_depth_rmse_trivial_cases():
    depth = np.array([[1.0, 2.0], [-9999.0, 0.5]])
    field = _field_from(depth)
    ref = field.depth
    assert depth_rmse(field, ref) == 0.0
    plus_one = np.where(depth == -9999.0, -9999.0, depth + 1.0)
    field2 = _field_from(plus_one)
    assert depth_rmse(field2, ref) == pytest.approx(1.0)


def test_depth_rmse_matches_direct_oracle():
    rng = np.random.default_rng(75)
    depth = rng.uniform(0, 3, size=(15, 15))
    depth[rng.random((15, 15)) < 0.3] = -9999.0
    ref_vals = rng.uniform(0, 3, size=(15, 15))
    ref_vals[rng.random((15, 15)) < 0.3] = -9999.0
    field = _field_from(depth)
    ref = Raster(15, 15, 10.0, 0.0, 0.0, -9999.0, ref_vals)
    both = (depth != -9999.0) & (ref_vals != -9999.0)
    expect = np.sqrt(np.mean((depth[both] - ref_vals[both]) ** 2))
    assert depth_rmse(field, ref) == pytest.approx(expect)


def test_depth_rmse_empty_intersection():
    a = np.full((4, 4), -9999.0)
    a[0, 0] = 1.0
    b = np.full((4, 4), -9999.0)
    b[3, 3] = 1.0
    with pytest.raises(InputError, match="overlapping"):
        depth_rmse(_field_from(a), Raster(4, 4, 10.0, 0.0, 0.0, -9999.0, b))


def test_rmse_at_points_exact_and_skips():
    depth = np.full((10, 10), -9999.0)
    depth[2:8, 2:8] = 2.0
    field = _field_from(depth, cell=10.0)
    # cell (row 2..7, col 2..7) spans x in [20,80), y in [20,80)
    pts = np.array([[25.0, 25.0, 2.0], [45.0, 45.0, 2.0]])
    res = rmse_at_points(field, pts)
    assert res.rmse == 0.0 and res.used == 2 and res.skipped == 0
    pts2 = np.array([[25.0, 25.0, 1.0], [5.0, 5.0, 1.0]])
    res2 = rmse_at_points(field, pts2)
    assert res2.rmse == pytest.approx(1.0)
    assert res2.skipped == 1


def test_rmse_at_points_all_skipped_errors():
    depth = np.full((10, 10), -9999.0)
    depth[5, 5] = 1.0
    field = _field_from(depth)
    with pytest.raises(InputError, match="off the predicted flood"):
        rmse_at_points(field, np.array([[5.0, 5.0, 1.0]]))


def test_watermarks_against_depth_estimator(smooth_valley):
    scene = smooth_valley
    field = fwdet(scene.truth_mask, scene.dem,
                  DepthConfig("fwdet", smoothing_iterations=3))
    rng = np.random.default_rng(76)
    cells = np.argwhere(scene.truth_mask.values == 1)
    picks = cells[rng.choice(len(cells), size=25, replace=False)]
    pts = []
    for i, j in picks:
        x = (j + 0.5) * scene.dem.cell_size
        y = (scene.dem.height - 1 - i + 0.5) * scene.dem.cell_size
        pts.append((x, y, scene.truth_depth.depth.values[i, j]))
    res = rmse_at_points(field, np.array(pts))
    assert res.skipped == 0
    fl = scene.truth_mask.values == 1
    field_err = np.max(np.abs(field.depth.values[fl]
                              - scene.truth_depth.depth.values[fl]))
    assert res.rmse <= field_err + 1e-9


def test_read_watermarks_requires_header(tmp_path):
    good = tmp_path / "wm.csv"
    good.write_text("x,y,observed_depth_m\n10,20,0.5\n30,40,1.5\n")
    pts = read_watermarks(str(good))
    assert pts.shape == (2, 3)
    bad = tmp_path / "bad.csv"
    bad.write_text("lon,lat,depth\n10,20,0.5\n")
    with pytest.raises(InputError, match="header"):
        read_watermarks(str(bad))


def test_manifest_round_trip(tmp_path):
    rec = MetricsRecord(config_id="abc123", filter_method="median",
                        filter_params="median(w=3)",
                        mapper_method="global_threshold",
                        mapper_params="global(otsu)", morph_params="off",
                        acc=0.5, f1=0.25, area_km2=1.5, wall_ms=12.5)
    path = tmp_path / "manifest.csv"
    # the calls ensemble.sweep writes its manifest with
    with open(path, "w", newline="") as fh:
        fh.write(manifest_header_line() + "\n")
        append_manifest_row(fh, rec)
    rows = read_manifest(str(path))
    assert len(rows) == 1
    assert rows[0]["config_id"] == "abc123"
    assert float(rows[0]["f1"]) == 0.25
    assert rows[0]["status"] == "ok"
    assert rows[0]["rmse_m"] == ""
