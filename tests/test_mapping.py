"""Flood-mapping operations: threshold selectors against recomputed
objectives, quad-tree tiling, mixture fits, Chan-Vese energy descent,
change detection, and morphology laws."""
import math

import numpy as np
import pytest

from floodbench.errors import DegenerateError, InputError
from floodbench.mapping import (BimodalityScores, ChanVeseParams, MapperAux,
                                MapperConfig, MorphologyConfig,
                                apply_mapper_config, bhattacharyya_coefficient,
                                build_histogram, chan_vese_energy,
                                chan_vese_map, chan_vese_segment,
                                change_detection_map, fill_holes,
                                fit_two_gaussians, global_threshold_map,
                                ki_threshold, local_threshold_map,
                                otsu_threshold, perimeter8, quadtree_tiles,
                                remove_patches, tile_scores, to_db)
from floodbench.metrics import confusion, f1
from floodbench.raster import BinaryMask, Raster, mask_like, write_mask
from floodbench.synth import SceneSpec, generate_scene

from conftest import mapping_scene_spec, random_mask


def plain_raster(values):
    values = np.asarray(values, dtype=np.float64)
    return Raster(values.shape[1], values.shape[0], 10.0, 0.0, 0.0, -9999.0,
                  values)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_one_count_per_bin():
    h = build_histogram(np.arange(256, dtype=float))
    assert np.all(h.counts == 1)
    assert h.n == 256
    assert h.edges[0] == 0.0 and h.edges[-1] == 255.0


def test_histogram_constant_sample_errors():
    with pytest.raises(InputError, match="constant sample"):
        build_histogram(np.full(100, 3.0))


def test_histogram_matches_tally_oracle():
    rng = np.random.default_rng(40)
    sample = rng.normal(0, 2, size=5000)
    h = build_histogram(sample)
    assert int(h.counts.sum()) == h.n == 5000
    # direct tally: count by digitized bin with a closed top edge
    idx = np.clip(((sample - h.edges[0]) /
                   (h.edges[-1] - h.edges[0]) * 256).astype(int), 0, 255)
    tally = np.bincount(idx, minlength=256)
    assert np.array_equal(h.counts, tally)


# ---------------------------------------------------------------------------
# threshold selectors


def two_spike_histogram(lo=1.0, hi=5.0, n=200):
    return build_histogram(np.array([lo] * (n // 2) + [hi] * (n // 2)))


def test_otsu_two_spikes():
    h = two_spike_histogram()
    split = otsu_threshold(h)
    assert 1.0 < split.threshold < 5.0
    sigma_b2 = split.weight_f * split.weight_b \
        * (split.mean_f - split.mean_b) ** 2
    # 0.5*0.5*(5-1)^2 = 4, up to bin-center quantization
    assert sigma_b2 == pytest.approx(4.0, abs=0.1)


def test_ki_two_spikes():
    split = ki_threshold(two_spike_histogram())
    assert 1.0 < split.threshold < 5.0


def test_selectors_error_on_single_spike():
    from floodbench.mapping import Histogram
    counts = np.zeros(256, dtype=np.int64)
    counts[77] = 500
    h = Histogram(np.linspace(0.0, 1.0, 257), counts, 500)
    for selector in (otsu_threshold, ki_threshold):
        with pytest.raises(DegenerateError, match="one histogram bin"):
            selector(h)


def _cut_objectives(h):
    """Recompute both selector objectives at every cut from scratch."""
    centers = h.centers
    n = h.counts.sum()
    sigma, cost = {}, {}
    for j in range(255):
        cf = h.counts[:j + 1].sum()
        cb = n - cf
        if cf == 0 or cb == 0:
            continue
        wf, wb = cf / n, cb / n
        mf = (h.counts[:j + 1] * centers[:j + 1]).sum() / cf
        mb = (h.counts[j + 1:] * centers[j + 1:]).sum() / cb
        vf = (h.counts[:j + 1] * (centers[:j + 1] - mf) ** 2).sum() / cf
        vb = (h.counts[j + 1:] * (centers[j + 1:] - mb) ** 2).sum() / cb
        sigma[j] = wf * wb * (mf - mb) ** 2
        sf = max(math.sqrt(max(vf, 0.0)), 1e-6)
        sb = max(math.sqrt(max(vb, 0.0)), 1e-6)
        cost[j] = 1 + 2 * (wf * math.log(sf) + wb * math.log(sb)) \
            - 2 * (wf * math.log(max(wf, 1e-9)) + wb * math.log(max(wb, 1e-9)))
    return sigma, cost


def _first_within_tol(objective, best, minimize):
    tol = 1e-9 * max(abs(best), 1e-300)
    for j in sorted(objective):
        if (objective[j] <= best + tol) if minimize \
                else (objective[j] >= best - tol):
            return j
    raise AssertionError("no optimum found")


def _otsu_oracle(h):
    sigma, _ = _cut_objectives(h)
    j = _first_within_tol(sigma, max(sigma.values()), minimize=False)
    return h.edges[j + 1]


def _ki_oracle(h):
    _, cost = _cut_objectives(h)
    j = _first_within_tol(cost, min(cost.values()), minimize=True)
    return h.edges[j + 1]


def bimodal_sample(rng, mu1=-18.0, mu2=-10.0, sigma=1.0, n=20000):
    return np.concatenate([rng.normal(mu1, sigma, n // 2),
                           rng.normal(mu2, sigma, n // 2)])


def test_otsu_matches_exhaustive_recompute_oracle():
    rng = np.random.default_rng(41)
    for _ in range(4):
        h = build_histogram(rng.normal(0, 1, 3000) ** 3)
        assert otsu_threshold(h).threshold == pytest.approx(_otsu_oracle(h))


def test_ki_matches_exhaustive_recompute_oracle():
    rng = np.random.default_rng(42)
    for _ in range(4):
        h = build_histogram(bimodal_sample(rng))
        assert ki_threshold(h).threshold == pytest.approx(_ki_oracle(h))


def test_otsu_threshold_between_bimodal_modes():
    rng = np.random.default_rng(43)
    h = build_histogram(bimodal_sample(rng))
    assert -16.0 <= otsu_threshold(h).threshold <= -12.0


def test_ki_and_otsu_agree_on_separated_gaussians():
    rng = np.random.default_rng(44)
    h = build_histogram(bimodal_sample(rng))
    bin_width = h.edges[1] - h.edges[0]
    delta = abs(ki_threshold(h).threshold - otsu_threshold(h).threshold)
    assert delta <= 2 * bin_width


@pytest.mark.parametrize("selector", [otsu_threshold, ki_threshold])
def test_db_shift_equivariance(selector):
    rng = np.random.default_rng(45)
    sample = bimodal_sample(rng)
    shift = 7.5
    t0 = selector(build_histogram(sample)).threshold
    t1 = selector(build_histogram(sample + shift)).threshold
    h = build_histogram(sample)
    bin_width = h.edges[1] - h.edges[0]
    assert abs((t1 - t0) - shift) <= bin_width


# ---------------------------------------------------------------------------
# global threshold maps


def test_global_threshold_map_skill():
    # a broad flood keeps the speckle tails small next to the true class
    scene = generate_scene(SceneSpec(width=128, height=128, looks=4.0,
                                     seed=7, channel_half_width=450.0))
    db = to_db(scene.speckled_intensity)
    mask = global_threshold_map(db, "otsu")
    assert f1(confusion(mask, scene.truth_mask)) >= 0.95


def test_global_threshold_all_land_negative_control():
    spec = mapping_scene_spec(width=96, height=96, seed=19,
                              permanent_half_width=0.0)
    scene = generate_scene(spec)
    from floodbench.synth import render_backscatter, apply_speckle
    dry = mask_like(scene.dem, np.zeros((96, 96), dtype=np.uint8))
    land_only = apply_speckle(render_backscatter(dry, spec), 4.0, 99)
    db = to_db(land_only)
    mask = global_threshold_map(db, "ki")
    flooded_fraction = mask.flooded_count() / (96 * 96)
    assert flooded_fraction < 0.05  # spurious tail only
    # the bimodality gate of the local-threshold stage flags the scene
    _, scores = fit_two_gaussians(db.values[db.finite])
    assert not (scores.ashman_d >= 2.0 and scores.bhattacharyya >= 0.99
                and scores.surface_ratio >= 0.10)


def test_global_threshold_uniform_raster_errors():
    r = plain_raster(np.full((10, 10), 2.0))
    with pytest.raises(InputError):
        global_threshold_map(r, "otsu")


# ---------------------------------------------------------------------------
# quadtree


def test_quadtree_400_min100_has_ancestors_and_16_leaves():
    r = plain_raster(np.zeros((400, 400)))
    tiles = quadtree_tiles(r, 100)
    leaves = [t for t in tiles if t.leaf]
    assert len(tiles) == 21
    assert len(leaves) == 16
    assert all(t.height == 100 and t.width == 100 for t in leaves)


def test_quadtree_min_side_blocks_split():
    r = plain_raster(np.zeros((150, 150)))
    tiles = quadtree_tiles(r, 100)
    assert len(tiles) == 1 and tiles[0].leaf


def test_quadtree_leaves_partition_exactly():
    rng = np.random.default_rng(46)
    for h, w in [(400, 400), (321, 255), (128, 250)]:
        r = plain_raster(np.zeros((h, w)))
        cover = np.zeros((h, w), dtype=int)
        for t in quadtree_tiles(r, 60):
            if t.leaf:
                cover[t.row0:t.row0 + t.height, t.col0:t.col0 + t.width] += 1
        assert np.all(cover == 1)


def test_quadtree_remainder_goes_to_last_child():
    r = plain_raster(np.zeros((301, 301)))
    tiles = quadtree_tiles(r, 100)
    children = [t for t in tiles if t is not tiles[0]]
    assert {(c.height, c.width) for c in children} == \
        {(150, 150), (150, 151), (151, 150), (151, 151)}


# ---------------------------------------------------------------------------
# mixture fits and bimodality scores


def test_ashman_d_analytic_value():
    rng = np.random.default_rng(47)
    sample = np.concatenate([rng.normal(0, 1, 20000), rng.normal(2, 1, 20000)])
    _, scores = fit_two_gaussians(sample)
    assert scores.ashman_d == pytest.approx(2.0, abs=0.1)


def test_bhattacharyya_identical_histograms_is_exactly_one():
    # dyadic masses make the normalization exact in binary floating point
    p = np.full(256, 4.0) / 1024.0
    assert bhattacharyya_coefficient(p, p) == 1.0


def test_surface_ratio_90_10_mixture():
    rng = np.random.default_rng(48)
    sample = np.concatenate([rng.normal(0, 1, 18000), rng.normal(6, 1, 2000)])
    _, scores = fit_two_gaussians(sample)
    assert scores.surface_ratio == pytest.approx(0.10, abs=0.02)


def test_fit_degenerate_reports_non_bimodal():
    sample = np.zeros(200)
    sample[::2] = 1e-13
    sample[0] = 1.0
    _, scores = fit_two_gaussians(sample)
    assert scores == BimodalityScores(0.0, 0.0, 0.0)


def test_fit_needs_fifty_samples():
    with pytest.raises(InputError, match="at least 50"):
        fit_two_gaussians(np.arange(30, dtype=float))


# ---------------------------------------------------------------------------
# local thresholding


def quadrant_scene(seed=50):
    """Scene flooded only in the north-west quadrant."""
    rng = np.random.default_rng(seed)
    h = w = 240
    wet = np.zeros((h, w), dtype=bool)
    wet[10:110, 10:110] = True
    r_water, r_land = 10 ** (-1.8), 10 ** (-0.8)
    base = np.where(wet, r_water, r_land)
    speck = rng.gamma(4.0, 0.25, size=(h, w))
    raster = plain_raster(base * speck)
    truth = mask_like(raster, wet.astype(np.uint8))
    return raster, truth


def test_local_threshold_flooded_quadrant():
    raster, truth = quadrant_scene()
    cfg = MapperConfig("local_threshold", min_tile_side=100, ad_min=2.0,
                       bc_min=0.99, sr_min=0.10)
    mask = local_threshold_map(to_db(raster), cfg)
    assert f1(confusion(mask, truth)) >= 0.9


def test_local_threshold_dry_scene_has_no_bimodal_tiles():
    rng = np.random.default_rng(51)
    land = plain_raster(10 ** (-0.8) * rng.gamma(4.0, 0.25, size=(220, 220)))
    cfg = MapperConfig("local_threshold", min_tile_side=100, ad_min=2.0,
                       bc_min=0.99, sr_min=0.10)
    with pytest.raises(DegenerateError, match="no bimodal tiles"):
        local_threshold_map(to_db(land), cfg)


def test_local_threshold_degenerates_to_global_ki():
    raster, _ = quadrant_scene(seed=52)
    db = to_db(raster)
    cfg = MapperConfig("local_threshold", min_tile_side=100,
                       ad_min=-math.inf, bc_min=-math.inf, sr_min=-math.inf)
    local = local_threshold_map(db, cfg)
    global_ki = global_threshold_map(db, "ki")
    assert np.array_equal(local.values, global_ki.values)


def test_tile_scores_table_rows():
    raster, _ = quadrant_scene(seed=53)
    values = np.array(to_db(raster).values)
    values[:, 120:] = -5.0                  # a constant half: zero scores
    values[120:, :10] = -9999.0             # nodata stays out of the sample
    db = plain_raster(values)
    table = tile_scores(db, 60)
    tiles = quadtree_tiles(db, 60)
    assert table.shape == (len(tiles), 7) and table.dtype == np.float64
    for row, tile in zip(table, tiles):
        assert row[:4].tolist() == list(tile[:4])
        sub = values[tile.row0:tile.row0 + tile.height,
                     tile.col0:tile.col0 + tile.width]
        sample = sub[sub != -9999.0]
        if tile.col0 >= 120:
            assert row[4:].tolist() == [0.0, 0.0, 0.0]
        else:
            assert row[4:].tolist() == list(fit_two_gaussians(sample)[1])


def test_local_threshold_given_table_matches_inline():
    raster, _ = quadrant_scene(seed=54)
    db = to_db(raster)
    table = tile_scores(db, 60)
    for ad, bc, sr in ((1.9, 0.98, 0.05), (2.1, 0.99, 0.15)):
        cfg = MapperConfig("local_threshold", min_tile_side=60, ad_min=ad,
                           bc_min=bc, sr_min=sr)
        assert np.array_equal(local_threshold_map(db, cfg, table).values,
                              local_threshold_map(db, cfg).values)


# ---------------------------------------------------------------------------
# Chan-Vese


def test_chan_vese_piecewise_constant_recovers_region():
    vals = np.full((40, 40), -8.0)
    vals[12:30, 8:32] = -18.0
    r = plain_raster(vals)
    init = np.zeros((40, 40), dtype=np.uint8)
    init[18:24, 15:25] = 1
    mask = chan_vese_map(r, mask_like(r, init), ChanVeseParams(alpha=0.1))
    truth = mask_like(r, (vals == -18.0).astype(np.uint8))
    assert f1(confusion(mask, truth)) >= 0.98


def test_chan_vese_alpha_zero_is_weighted_nearest_mean():
    rng = np.random.default_rng(53)
    vals = np.where(rng.random((30, 30)) < 0.4, -18.0, -8.0)
    r = plain_raster(vals)
    init = np.zeros((30, 30), dtype=np.uint8)
    init[vals < -12] = 1
    params = ChanVeseParams(alpha=0.0)
    mask = chan_vese_map(r, mask_like(r, init), params)
    # the energy decouples per pixel: label by weighted squared distance
    c1, c2 = -18.0, -8.0
    expect = (params.lambda1 * (vals - c1) ** 2
              < params.lambda2 * (vals - c2) ** 2).astype(np.uint8)
    assert np.array_equal(mask.values, expect)


def test_chan_vese_energy_never_increases(mapping_scene):
    db = to_db(mapping_scene.speckled_intensity)
    res = chan_vese_segment(db.values, db.finite,
                            mapping_scene.permanent_water.values == 1,
                            ChanVeseParams(alpha=0.2))
    diffs = np.diff(np.array(res.energies))
    assert np.all(diffs <= 1e-6 * max(1.0, abs(res.energies[0])))


def test_chan_vese_single_flip_energy_minimality_8x8():
    rng = np.random.default_rng(54)
    vals = np.full((8, 8), -8.0)
    vals[2:6, 2:6] = -18.0
    vals += rng.normal(0, 0.3, size=(8, 8))
    r = plain_raster(vals)
    init = np.zeros((8, 8), dtype=np.uint8)
    init[3:5, 3:5] = 1
    params = ChanVeseParams(alpha=0.3)
    valid = np.ones((8, 8), dtype=bool)
    res = chan_vese_segment(vals, valid, init.astype(bool), params)
    labels = res.labels
    inside = labels == 1
    c1 = vals[inside].mean()
    c2 = vals[~inside].mean()
    base = chan_vese_energy(vals, valid, labels, c1, c2, params)
    for i in range(8):
        for j in range(8):
            flipped = labels.copy()
            flipped[i, j] = 1 - flipped[i, j]
            assert chan_vese_energy(vals, valid, flipped, c1, c2, params) \
                >= base - 1e-9


def test_chan_vese_perimeter_non_increasing_in_alpha(mapping_scene):
    db = to_db(mapping_scene.speckled_intensity)
    valid = db.finite
    seed = mapping_scene.permanent_water.values == 1
    perims = []
    for alpha in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        res = chan_vese_segment(db.values, valid, seed,
                                ChanVeseParams(alpha=alpha))
        perims.append(perimeter8(res.labels, valid))
    assert all(b <= a for a, b in zip(perims, perims[1:]))


def test_chan_vese_constant_image_returns_init():
    r = plain_raster(np.full((12, 12), -10.0))
    init = np.zeros((12, 12), dtype=bool)
    init[4:8, 4:8] = True
    res = chan_vese_segment(r.values, r.finite, init, ChanVeseParams(alpha=0.1))
    assert res.degenerate
    assert np.array_equal(res.labels == 1, init)


def test_chan_vese_init_validation():
    r = plain_raster(np.arange(16, dtype=float).reshape(4, 4))
    empty = mask_like(r, np.zeros((4, 4), dtype=np.uint8))
    full = mask_like(r, np.ones((4, 4), dtype=np.uint8))
    for bad in (empty, full):
        with pytest.raises(InputError, match="non-empty and non-full"):
            chan_vese_map(r, bad, ChanVeseParams(alpha=0.1))


def test_chan_vese_params_constraints():
    with pytest.raises(InputError):
        ChanVeseParams(alpha=-0.1)
    with pytest.raises(InputError):
        ChanVeseParams(alpha=0.1, lambda1=1.0, lambda2=2.0)


# ---------------------------------------------------------------------------
# change detection


def test_change_detection_identical_images_error(mapping_scene):
    db = to_db(mapping_scene.speckled_intensity)
    with pytest.raises(DegenerateError, match="no change signal"):
        change_detection_map(db, db, "otsu")


def test_change_detection_detects_backscatter_drop():
    # low-speckle pair isolates the 10 dB drop signal
    scene = generate_scene(SceneSpec(width=128, height=128, looks=64.0,
                                     seed=13, permanent_half_width=60.0))
    mask = change_detection_map(to_db(scene.speckled_intensity),
                                to_db(scene.reference_intensity), "otsu")
    counts = confusion(mask, scene.truth_mask, scene.permanent_water)
    assert f1(counts) >= 0.95


def test_change_detection_ignores_permanent_water(mapping_scene):
    from floodbench.mapping import apply_morphology
    flood_db = to_db(mapping_scene.speckled_intensity)
    ref_db = to_db(mapping_scene.reference_intensity)
    cd = change_detection_map(flood_db, ref_db, "otsu")
    single = global_threshold_map(flood_db, "otsu")
    perm = mapping_scene.permanent_water.values == 1
    # permanent water is dark in both images, so the log-ratio is ~0 there;
    # single-image thresholding flags it wholesale
    assert float((cd.values[perm] == 1).mean()) < 0.20
    assert float((single.values[perm] == 1).mean()) > 0.90
    cleaned = apply_morphology(cd, MorphologyConfig(True, 50, 50))
    assert float((cleaned.values[perm] == 1).mean()) < 0.10


# ---------------------------------------------------------------------------
# morphology


def donut_mask():
    vals = np.zeros((9, 9), dtype=np.uint8)
    vals[2:7, 2:7] = 1
    vals[4, 4] = 0
    return BinaryMask(9, 9, 10.0, 0.0, 0.0, vals)


def test_fill_holes_fills_small_hole():
    out = fill_holes(donut_mask(), 10)
    assert out.values[4, 4] == 1


def test_fill_holes_respects_area_cap():
    vals = np.zeros((30, 30), dtype=np.uint8)
    vals[1:29, 1:29] = 1
    vals[5:25, 5:15] = 0  # 200-pixel hole
    m = BinaryMask(30, 30, 10.0, 0.0, 0.0, vals)
    out = fill_holes(m, 100)
    assert np.array_equal(out.values, m.values)


def test_fill_holes_is_idempotent():
    once = fill_holes(donut_mask(), 10)
    twice = fill_holes(once, 10)
    assert np.array_equal(once.values, twice.values)


def test_fill_holes_never_fills_exterior():
    vals = np.zeros((6, 6), dtype=np.uint8)
    vals[2:4, 2:4] = 1
    m = BinaryMask(6, 6, 10.0, 0.0, 0.0, vals)
    out = fill_holes(m, 1000)
    assert np.array_equal(out.values, m.values)


def test_remove_patches_drops_isolated_pixel():
    vals = np.zeros((8, 8), dtype=np.uint8)
    vals[3, 3] = 1
    m = BinaryMask(8, 8, 10.0, 0.0, 0.0, vals)
    assert remove_patches(m, 10).flooded_count() == 0


def test_remove_patches_preserves_large_bodies():
    vals = np.zeros((120, 120), dtype=np.uint8)
    vals[5:105, 5:105] = 1  # 10^4 pixels
    vals[110, 110] = 1
    m = BinaryMask(120, 120, 10.0, 0.0, 0.0, vals)
    out = remove_patches(m, 100)
    assert out.values[50, 50] == 1
    assert out.values[110, 110] == 0
    assert out.flooded_count() == 100 * 100


def test_remove_patches_monotone():
    rng = np.random.default_rng(55)
    for _ in range(3):
        m = random_mask(rng, 32, 32, p=0.3)
        out = remove_patches(m, 5)
        assert out.flooded_count() <= m.flooded_count()
        again = remove_patches(out, 5)
        assert np.array_equal(out.values, again.values)


@pytest.mark.parametrize("op,area", [(fill_holes, 8), (remove_patches, 8)])
def test_morphology_shift_equivariance(op, area):
    rng = np.random.default_rng(56)
    inner = (rng.random((20, 20)) < 0.45).astype(np.uint8)
    vals = np.zeros((30, 30), dtype=np.uint8)
    vals[2:22, 2:22] = inner
    shifted = np.roll(np.roll(vals, 3, axis=0), 4, axis=1)
    a = op(BinaryMask(30, 30, 1.0, 0.0, 0.0, vals), area).values
    b = op(BinaryMask(30, 30, 1.0, 0.0, 0.0, shifted), area).values
    assert np.array_equal(np.roll(np.roll(a, 3, axis=0), 4, axis=1), b)


def test_morphology_order_fill_then_remove():
    vals = np.zeros((12, 12), dtype=np.uint8)
    vals[2:7, 2:7] = 1
    vals[4, 4] = 0      # hole
    vals[10, 10] = 1    # isolated patch
    m = BinaryMask(12, 12, 10.0, 0.0, 0.0, vals)
    cfg = MorphologyConfig(True, 10, 10)
    stepwise = remove_patches(fill_holes(m, 10), 10)
    from floodbench.mapping import apply_morphology
    assert np.array_equal(apply_morphology(m, cfg).values, stepwise.values)
    assert stepwise.values[4, 4] == 1
    assert stepwise.values[10, 10] == 0


# ---------------------------------------------------------------------------
# dispatch


def test_apply_mapper_external_passthrough(tmp_path, mapping_scene):
    path = tmp_path / "cnn.fbr"
    write_mask(mapping_scene.truth_mask, str(path))
    cfg = MapperConfig("external_mask", external_path=str(path),
                       external_label="cnn")
    mask = apply_mapper_config(mapping_scene.speckled_intensity, cfg,
                               MorphologyConfig(False))
    assert np.array_equal(mask.values, mapping_scene.truth_mask.values)


def test_apply_mapper_missing_aux_inputs(mapping_scene):
    img = mapping_scene.speckled_intensity
    with pytest.raises(InputError, match="reference"):
        apply_mapper_config(img, MapperConfig("change_detection",
                                              selector="otsu"),
                            MorphologyConfig(False))
    with pytest.raises(InputError, match="permanent-water"):
        apply_mapper_config(img,
                            MapperConfig("active_contour",
                                         chan_vese=ChanVeseParams(alpha=0.1)),
                            MorphologyConfig(False))


def test_all_48_mapper_configs_dispatch(tmp_path, sweep_scene):
    from floodbench.ensemble import enumerate_mappers
    cnn = tmp_path / "cnn.fbr"
    rf = tmp_path / "rf.fbr"
    write_mask(sweep_scene.truth_mask, str(cnn))
    write_mask(sweep_scene.truth_mask, str(rf))
    pairs = enumerate_mappers(cnn_path=str(cnn), rf_path=str(rf))
    assert len(pairs) == 48
    aux = MapperAux(reference=sweep_scene.reference_intensity,
                    permanent_water=sweep_scene.permanent_water)
    for cfg, morph in pairs:
        mask = apply_mapper_config(sweep_scene.speckled_intensity, cfg,
                                   morph, aux)
        assert mask.geometry == sweep_scene.speckled_intensity.geometry


def test_mapper_outputs_preserve_nodata(sweep_scene):
    vals = np.array(sweep_scene.speckled_intensity.values)
    vals[0:4, 0:4] = -9999.0
    img = sweep_scene.speckled_intensity.like(vals)
    mask = apply_mapper_config(img, MapperConfig("global_threshold",
                                                 selector="otsu"),
                               MorphologyConfig(False))
    assert np.all(mask.values[0:4, 0:4] == 255)


def test_every_mapper_preserves_nodata(tmp_path, sweep_scene):
    from floodbench.ensemble import enumerate_mappers
    vals = np.array(sweep_scene.speckled_intensity.values)
    vals[0:6, 0:6] = -9999.0
    img = sweep_scene.speckled_intensity.like(vals)
    ref_vals = np.array(sweep_scene.reference_intensity.values)
    ref_vals[0:6, 0:6] = -9999.0
    ref = sweep_scene.reference_intensity.like(ref_vals)
    ext = tmp_path / "ext.fbr"
    hole_mask = np.array(sweep_scene.truth_mask.values)
    hole_mask[0:6, 0:6] = 255
    write_mask(sweep_scene.truth_mask.like(hole_mask), str(ext))
    aux = MapperAux(reference=ref,
                    permanent_water=sweep_scene.permanent_water)
    seen = set()
    for cfg, morph in enumerate_mappers(cnn_path=str(ext), rf_path=str(ext)):
        if cfg.method in seen:
            continue
        seen.add(cfg.method)
        mask = apply_mapper_config(img, cfg, morph, aux)
        assert np.all(mask.values[0:6, 0:6] == 255), cfg.method
        assert mask.geometry == img.geometry
