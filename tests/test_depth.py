"""Depth estimation against analytic flat-fill truth and brute-force
K-nearest oracles."""
import numpy as np
import pytest
from scipy import ndimage

from floodbench.depth import (CrossSection, DepthAux, DepthConfig,
                              apply_depth_config, cross_section_depth,
                              dem_slope, expand_into_exclusion,
                              extract_boundary, flexth, fwdet,
                              read_cross_sections, sample_chain)
from floodbench.errors import DegenerateError, InputError
from floodbench.raster import (BinaryMask, DRY, FLOODED, MASK_NODATA,
                               Raster)
from floodbench.synth import SceneSpec, generate_scene

from conftest import smooth_valley  # noqa: F401
from test_oracles import RING_EXTRAS, ring_sources


def flat_raster(h, w, value=0.0, cell=10.0):
    return Raster(w, h, cell, 0.0, 0.0, -9999.0, np.full((h, w), value))


def block_mask(h, w, r0, r1, c0, c1, cell=10.0):
    vals = np.zeros((h, w), dtype=np.uint8)
    vals[r0:r1, c0:c1] = 1
    return BinaryMask(w, h, cell, 0.0, 0.0, vals)


def truth_bound(scene):
    """cell_size times the maximum boundary slope, as a depth RMSE cap."""
    b = extract_boundary(scene.truth_mask, scene.dem, None)
    slopes = dem_slope(scene.dem).values[b.cells[:, 0], b.cells[:, 1]]
    return scene.dem.cell_size * float(slopes.max()) / 100.0


def depth_rmse_on_truth(field, scene):
    fl = scene.truth_mask.values == FLOODED
    diff = field.depth.values[fl] - scene.truth_depth.depth.values[fl]
    return float(np.sqrt(np.mean(diff * diff)))


# ---------------------------------------------------------------------------
# slope


def test_slope_flat_dem_is_zero():
    assert np.allclose(dem_slope(flat_raster(10, 10, 5.0)).values, 0.0)


def test_slope_inclined_plane_analytic():
    x = np.arange(20) * 10.0
    z = np.tile(0.1 * x, (15, 1))  # 1 m rise per 10 m cell
    dem = Raster(20, 15, 10.0, 0.0, 0.0, -9999.0, z)
    slope = dem_slope(dem).values
    assert np.allclose(slope, 10.0)


def test_slope_matches_finite_difference_oracle():
    rng = np.random.default_rng(60)
    z = rng.normal(0, 2, size=(12, 14))
    dem = Raster(14, 12, 5.0, 0.0, 0.0, -9999.0, z)
    slope = dem_slope(dem).values
    for i, j in [(5, 6), (3, 3), (8, 10)]:
        gx = (z[i, j + 1] - z[i, j - 1]) / (2 * 5.0)
        gy = (z[i + 1, j] - z[i - 1, j]) / (2 * 5.0)
        assert slope[i, j] == pytest.approx(100 * np.hypot(gx, gy))


def test_slope_rejects_nodata():
    vals = np.zeros((5, 5))
    vals[2, 2] = -9999.0
    with pytest.raises(InputError, match="nodata"):
        dem_slope(Raster(5, 5, 1.0, 0.0, 0.0, -9999.0, vals))


# ---------------------------------------------------------------------------
# boundary extraction


def test_boundary_of_3x3_block_is_the_ring():
    mask = block_mask(9, 9, 3, 6, 3, 6)
    dem = flat_raster(9, 9)
    b = extract_boundary(mask, dem, None)
    assert len(b.cells) == 8
    assert (4, 4) not in {tuple(c) for c in b.cells.tolist()}


def test_boundary_no_threshold_keeps_all():
    mask = block_mask(9, 9, 3, 6, 3, 6)
    dem = flat_raster(9, 9)
    assert len(extract_boundary(mask, dem, None).cells) == 8
    assert len(extract_boundary(mask, dem, 100.0).cells) == 8


def test_boundary_slope_filter_matches_per_cell_oracle(smooth_valley):
    scene = smooth_valley
    b_all = extract_boundary(scene.truth_mask, scene.dem, None)
    slopes = dem_slope(scene.dem).values
    boundary_slopes = slopes[b_all.cells[:, 0], b_all.cells[:, 1]]
    threshold = float(np.median(boundary_slopes))  # splits the set properly
    b_filtered = extract_boundary(scene.truth_mask, scene.dem, threshold)
    keep = [tuple(c) for c in b_all.cells.tolist()
            if slopes[c[0], c[1]] <= threshold]
    assert keep == [tuple(c) for c in b_filtered.cells.tolist()]
    assert 0 < len(b_filtered.cells) < len(b_all.cells)


def test_boundary_empty_flood_errors():
    mask = block_mask(5, 5, 0, 0, 0, 0)
    with pytest.raises(DegenerateError, match="empty flood"):
        extract_boundary(mask, flat_raster(5, 5), None)


def test_boundary_empty_after_slope_filter():
    rng = np.random.default_rng(61)
    z = rng.normal(0, 50, size=(7, 7))  # extreme slopes everywhere
    dem = Raster(7, 7, 1.0, 0.0, 0.0, -9999.0, z)
    mask = block_mask(7, 7, 2, 5, 2, 5, cell=1.0)
    with pytest.raises(DegenerateError, match="slope filtering"):
        extract_boundary(mask, dem, 1e-6)


# ---------------------------------------------------------------------------
# fwdet


def test_fwdet_recovers_flat_fill_depth(smooth_valley):
    scene = smooth_valley
    bound = truth_bound(scene)
    cfg = DepthConfig("fwdet", slope_threshold=None, smoothing_iterations=3)
    field = fwdet(scene.truth_mask, scene.dem, cfg)
    assert depth_rmse_on_truth(field, scene) <= bound
    fl = scene.truth_mask.values == FLOODED
    assert np.all(field.depth.values[fl] >= 0.0)
    assert np.all(field.depth.values[~fl] == scene.dem.nodata)


def test_fwdet_single_cell_flood_depth_zero():
    mask = block_mask(5, 5, 2, 3, 2, 3)
    rng = np.random.default_rng(62)
    dem = Raster(5, 5, 10.0, 0.0, 0.0, -9999.0, rng.normal(0, 1, (5, 5)))
    field = fwdet(mask, dem, DepthConfig("fwdet", smoothing_iterations=3))
    assert field.depth.values[2, 2] == 0.0


def test_fwdet_smoothing_fixes_constant_field():
    from floodbench.depth import _smooth_depth
    rng = np.random.default_rng(66)
    fl = rng.random((12, 12)) < 0.5
    const = np.where(fl, 1.75, 0.0)
    for iters in (1, 3, 10):
        out = _smooth_depth(const, fl, iters)
        assert np.allclose(out[fl], 1.75)
    # flat DEM: every boundary elevation equals every flooded elevation,
    # giving a constant zero depth that smoothing must keep
    mask = block_mask(8, 8, 2, 6, 2, 6)
    dem = flat_raster(8, 8, value=-2.0)
    for iters in (0, 3, 10):
        field = fwdet(mask, dem,
                      DepthConfig("fwdet", smoothing_iterations=iters))
        assert np.allclose(field.depth.values[mask.values == FLOODED], 0.0)


def _total_variation(depth, fl):
    tv = 0.0
    v = np.where(fl, depth, 0.0)
    pair_r = fl[:-1, :] & fl[1:, :]
    pair_c = fl[:, :-1] & fl[:, 1:]
    tv += np.abs(v[:-1, :] - v[1:, :])[pair_r].sum()
    tv += np.abs(v[:, :-1] - v[:, 1:])[pair_c].sum()
    return tv


def test_fwdet_smoothing_never_raises_total_variation(smooth_valley):
    scene = smooth_valley
    fl = scene.truth_mask.values == FLOODED
    tvs = []
    for iters in (0, 3, 5, 10):
        field = fwdet(scene.truth_mask, scene.dem,
                      DepthConfig("fwdet", smoothing_iterations=iters))
        tvs.append(_total_variation(field.depth.values, fl))
    assert all(b <= a + 1e-9 for a, b in zip(tvs, tvs[1:]))


# ---------------------------------------------------------------------------
# flexth


def test_flexth_k1_wse_equals_fwdet_bitwise(smooth_valley):
    scene = smooth_valley
    f = fwdet(scene.truth_mask, scene.dem,
              DepthConfig("fwdet", smoothing_iterations=5))
    g = flexth(scene.truth_mask, scene.dem,
               DepthConfig("flexth", max_neighbors=1))
    assert np.array_equal(f.wse.values, g.wse.values)


def test_flexth_constant_boundary_elevation():
    mask = block_mask(10, 10, 3, 7, 3, 7)
    dem = flat_raster(10, 10, value=1.5)
    field = flexth(mask, dem, DepthConfig("flexth", max_neighbors=5))
    fl = mask.values == FLOODED
    assert np.allclose(field.wse.values[fl], 1.5)
    assert np.allclose(field.depth.values[fl], 0.0)


def _flexth_oracle(mask, dem, k):
    fl = mask.values == FLOODED
    b = extract_boundary(mask, dem, None)
    src = sorted(map(tuple, b.cells.tolist()))
    out = {}
    for qi, qj in np.argwhere(fl).tolist():
        ranked = sorted(src, key=lambda s: ((qi - s[0]) ** 2 + (qj - s[1]) ** 2,
                                            s[0], s[1]))[:k]
        ws = [1.0 / max(np.hypot(qi - si, qj - sj), 1.0) for si, sj in ranked]
        zs = [dem.values[si, sj] for si, sj in ranked]
        total = sum(ws)
        out[(qi, qj)] = sum(w / total * z for w, z in zip(ws, zs))
    return out


def test_flexth_matches_brute_force_oracle():
    rng = np.random.default_rng(63)
    z = rng.normal(0, 1, size=(30, 30)).cumsum(axis=1) * 0.05
    dem = Raster(30, 30, 10.0, 0.0, 0.0, -9999.0, z)
    vals = np.zeros((30, 30), dtype=np.uint8)
    vals[8:25, 5:22] = 1
    vals[12:15, 10:14] = 0  # interior dry pocket changes the boundary shape
    mask = BinaryMask(30, 30, 10.0, 0.0, 0.0, vals)
    field = flexth(mask, dem, DepthConfig("flexth", max_neighbors=5))
    oracle = _flexth_oracle(mask, dem, 5)
    for (qi, qj), wse in oracle.items():
        assert field.wse.values[qi, qj] == pytest.approx(wse, rel=1e-12)


def ring_boundary_scene(extra):
    """A mask whose boundary is ``ring_sources(extra)``: the 24-cell
    d² = 325 ring around (50, 50) plus the extra cells.

    Each boundary cell is flooded with one dry cell just outside it; the
    other flooded cells (the centre, cells next to it, and cells far
    outside the ring) sit in nodata, so they are queries but never
    boundary cells.
    """
    n, c = 100, 50
    vals = np.full((n, n), MASK_NODATA, dtype=np.uint8)
    boundary = ring_sources(extra)
    for r, col in boundary.tolist():
        dr, dc = r - c, col - c
        step = (np.sign(dr), 0) if abs(dr) > abs(dc) else (0, np.sign(dc))
        vals[r + step[0], col + step[1]] = DRY
        vals[r, col] = FLOODED
    for r, col in ((c, c), (c, c + 1), (c + 1, c + 1), (c - 1, c + 2),
                   (c, 97), (2, 2), (97, c + 7), (c - 9, 1)):
        vals[r, col] = FLOODED
    rng = np.random.default_rng(65)
    dem = Raster(n, n, 10.0, 0.0, 0.0, -9999.0, rng.normal(0, 1, (n, n)))
    return BinaryMask(n, n, 10.0, 0.0, 0.0, vals), dem, boundary


@pytest.mark.parametrize("extra", RING_EXTRAS)
def test_flexth_ring_ties_match_oracle(extra):
    mask, dem, boundary = ring_boundary_scene(extra)
    assert np.array_equal(extract_boundary(mask, dem, None).cells, boundary)
    for k in range(1, boundary.shape[0] + 3):
        field = flexth(mask, dem, DepthConfig("flexth", max_neighbors=k))
        for (qi, qj), wse in _flexth_oracle(mask, dem, k).items():
            assert field.wse.values[qi, qj] == pytest.approx(wse, rel=1e-12)


def test_flexth_k_exceeding_boundary_uses_all():
    mask = block_mask(6, 6, 2, 4, 2, 4)  # boundary of 4 cells
    rng = np.random.default_rng(64)
    dem = Raster(6, 6, 10.0, 0.0, 0.0, -9999.0, rng.normal(0, 1, (6, 6)))
    field = flexth(mask, dem, DepthConfig("flexth", max_neighbors=20))
    b = extract_boundary(mask, dem, None)
    z = b.elevations
    fl = mask.values == FLOODED
    assert np.all(field.wse.values[fl] >= z.min() - 1e-12)
    assert np.all(field.wse.values[fl] <= z.max() + 1e-12)


def test_flexth_wse_convex_in_boundary_elevations(smooth_valley):
    scene = smooth_valley
    field = flexth(scene.truth_mask, scene.dem,
                   DepthConfig("flexth", max_neighbors=10))
    b = extract_boundary(scene.truth_mask, scene.dem, None)
    fl = scene.truth_mask.values == FLOODED
    assert np.all(field.wse.values[fl] >= b.elevations.min() - 1e-12)
    assert np.all(field.wse.values[fl] <= b.elevations.max() + 1e-12)


def test_flexth_recovers_flat_fill_depth(smooth_valley):
    scene = smooth_valley
    bound = truth_bound(scene)
    for k in (5, 10, 20):
        field = flexth(scene.truth_mask, scene.dem,
                       DepthConfig("flexth", max_neighbors=k))
        assert depth_rmse_on_truth(field, scene) <= bound


def test_expand_into_exclusion_grows_to_closure():
    vals = np.zeros((8, 8), dtype=np.uint8)
    vals[3:5, 0:3] = 1
    mask = BinaryMask(8, 8, 10.0, 0.0, 0.0, vals)
    excl = np.zeros((8, 8), dtype=np.uint8)
    excl[3:5, 3:6] = 1
    exclusion = BinaryMask(8, 8, 10.0, 0.0, 0.0, excl)
    grown = expand_into_exclusion(mask, exclusion)
    assert np.all(grown.values[3:5, 0:6] == 1)
    assert grown.flooded_count() == mask.flooded_count() + 6


def _expand_ring_oracle(mask, exclusion):
    """Grow the flood one 4-connected ring at a time into exclusion cells
    until no exclusion cell borders it."""
    fl = mask.values == FLOODED
    excl = (exclusion.values == FLOODED) & ~fl
    grown = fl.copy()
    struct = ndimage.generate_binary_structure(2, 1)
    while True:
        ring = ndimage.binary_dilation(grown, structure=struct) & excl & ~grown
        if not ring.any():
            break
        grown |= ring
    out = np.array(mask.values)
    out[grown & (out != FLOODED)] = FLOODED
    return out


def test_expand_into_exclusion_matches_ring_oracle():
    rng = np.random.default_rng(1206)
    cases = []
    for trial in range(30):
        h, w = rng.integers(5, 40, size=2)
        codes = rng.choice([DRY, FLOODED, MASK_NODATA], size=(h, w),
                           p=[0.6, 0.15, 0.25])
        excl = (rng.random((h, w)) < rng.uniform(0.2, 0.7)).astype(np.uint8)
        cases.append((codes, excl))
    # a diagonal-only contact never grows; an island away from the flood
    # stays dry; a nodata cell inside the exclusion grows like a dry one
    codes = np.zeros((6, 6), dtype=np.uint8)
    codes[0, 0] = codes[5, 0] = FLOODED
    codes[3, 2] = MASK_NODATA
    excl = np.zeros((6, 6), dtype=np.uint8)
    excl[1, 1] = 1
    excl[1, 4:6] = 1
    excl[5, 1:3] = excl[3:5, 2] = 1
    cases.append((codes, excl))
    for codes, excl in cases:
        h, w = codes.shape
        mask = BinaryMask(w, h, 10.0, 0.0, 0.0, codes)
        exclusion = BinaryMask(w, h, 10.0, 0.0, 0.0, excl)
        assert np.array_equal(expand_into_exclusion(mask, exclusion).values,
                              _expand_ring_oracle(mask, exclusion))
    grown = expand_into_exclusion(mask, exclusion).values
    assert grown[1, 1] == DRY and grown[1, 4] == grown[1, 5] == DRY
    assert np.all(grown[5, 1:3] == FLOODED) and np.all(grown[3:5, 2] == FLOODED)


def test_flexth_expansion_assigns_depths_in_exclusion(smooth_valley):
    scene = generate_scene(SceneSpec(width=128, height=128, seed=3,
                                     exclusion_strip=(600.0, 650.0)))
    cfg = DepthConfig("flexth", max_neighbors=10)
    field = flexth(scene.truth_mask, scene.dem, cfg,
                   exclusion=scene.exclusion)
    excl_and_adjacent = (scene.exclusion.values == 1) \
        & (scene.truth_mask.values != FLOODED)
    grown = expand_into_exclusion(scene.truth_mask, scene.exclusion)
    newly = (grown.values == 1) & (scene.truth_mask.values != 1)
    assert newly.any()
    assert np.all(field.depth.values[newly] >= 0.0)


# ---------------------------------------------------------------------------
# cross sections


def test_cross_section_symmetric_valley(smooth_valley):
    scene = smooth_valley
    x = 64 * 10.0
    section = CrossSection(((x, 0.0), (x, 128 * 10.0)))
    res = cross_section_depth(scene.truth_mask, scene.dem, section)
    assert res.wse == pytest.approx(scene.spec.wse, abs=truth_bound(scene))
    chain_z = scene.dem.values[res.chain[:, 0], res.chain[:, 1]]
    deepest = np.nanmax(res.depth)
    assert deepest == pytest.approx(res.wse - chain_z.min(), abs=1e-9)


def test_cross_section_single_flooded_cell():
    vals = np.zeros((7, 7), dtype=np.uint8)
    vals[3, 3] = 1
    mask = BinaryMask(7, 7, 10.0, 0.0, 0.0, vals)
    rng = np.random.default_rng(65)
    dem = Raster(7, 7, 10.0, 0.0, 0.0, -9999.0, rng.normal(0, 1, (7, 7)))
    section = CrossSection(((35.0, 0.0), (35.0, 70.0)))
    res = cross_section_depth(mask, dem, section)
    assert res.left_bank == res.right_bank == (3, 3)
    assert res.wse == pytest.approx(dem.values[3, 3])
    assert np.nanmax(res.depth) == 0.0


def test_cross_section_dry_chain_errors():
    mask = block_mask(7, 7, 0, 0, 0, 0)
    dem = flat_raster(7, 7)
    section = CrossSection(((35.0, 0.0), (35.0, 70.0)))
    with pytest.raises(DegenerateError, match="misses flood"):
        cross_section_depth(mask, dem, section)


def test_cross_section_unbounded_when_flood_reaches_end():
    vals = np.zeros((7, 7), dtype=np.uint8)
    vals[0:4, 3] = 1  # flood touches the north end of a N-S transect
    mask = BinaryMask(7, 7, 10.0, 0.0, 0.0, vals)
    dem = flat_raster(7, 7, value=-1.0)
    section = CrossSection(((35.0, 0.0), (35.0, 70.0)))
    with pytest.raises(DegenerateError, match="unbounded section"):
        cross_section_depth(mask, dem, section)


def test_sample_chain_is_connected():
    dem = flat_raster(20, 20, cell=10.0)
    section = CrossSection(((5.0, 5.0), (195.0, 150.0)))
    chain = sample_chain(section, dem)
    steps = np.abs(np.diff(chain, axis=0))
    assert steps.max() <= 1  # 8-connected chain


def test_read_cross_sections_file(tmp_path):
    path = tmp_path / "sections.txt"
    path.write_text("# comment\n100,0; 100,500; 120,900\n0,50; 800,50\n")
    sections = read_cross_sections(str(path))
    assert len(sections) == 2
    assert sections[0].vertices == ((100.0, 0.0), (100.0, 500.0), (120.0, 900.0))
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2; 3\n")
    with pytest.raises(InputError):
        read_cross_sections(str(bad))


# ---------------------------------------------------------------------------
# dispatch


def test_all_19_depth_configs_dispatch(smooth_valley):
    from floodbench.ensemble import enumerate_depth
    scene = smooth_valley
    configs = enumerate_depth()
    assert len(configs) == 19
    # two user-defined transects across the valley
    aux = DepthAux(sections=(CrossSection(((400.0, 0.0), (400.0, 1280.0))),
                             CrossSection(((900.0, 0.0), (900.0, 1280.0)))))
    for cfg in configs:
        out = apply_depth_config(scene.truth_mask, scene.dem, cfg, aux)
        assert out.field.depth.geometry == scene.dem.geometry
        fin = out.field.depth.finite
        assert np.all(out.field.depth.values[fin] >= 0.0)
        if cfg.method == "cross_section":
            assert len(out.sections) == 2
            for res in out.sections:
                assert res.wse == pytest.approx(scene.spec.wse, abs=0.5)


def test_every_estimator_rejects_a_dem_with_nodata():
    from floodbench.ensemble import enumerate_depth
    scene = generate_scene(SceneSpec(width=64, height=64, looks=4.0, seed=3))
    values = np.array(scene.dem.values)
    values[:, :3] = scene.dem.nodata
    dem = scene.dem.like(values)
    aux = DepthAux(sections=(CrossSection(((320.0, 0.0), (320.0, 640.0))),))
    configs = enumerate_depth()
    assert len(configs) == 19
    for cfg in configs:
        with pytest.raises(InputError, match="^DEM has nodata cells$"):
            apply_depth_config(scene.truth_mask, dem, cfg, aux)


def test_cross_section_dispatch_requires_sections(smooth_valley):
    scene = smooth_valley
    with pytest.raises(InputError, match="section"):
        apply_depth_config(scene.truth_mask, scene.dem,
                           DepthConfig("cross_section"), DepthAux())


def test_depth_config_validation():
    with pytest.raises(InputError):
        DepthConfig("fwdet")  # missing smoothing
    with pytest.raises(InputError):
        DepthConfig("flexth", smoothing_iterations=3)
    with pytest.raises(InputError):
        DepthConfig("cross_section", slope_threshold=5.0)
