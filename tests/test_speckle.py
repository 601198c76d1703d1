"""Speckle filters against sort/kernel/interval oracles, plus the ENL
metric and the multiplicative-noise model laws."""
import math

import numpy as np
import pytest

from floodbench.errors import DegenerateError, GeometryError, InputError
from floodbench.raster import Raster, mask_like, write_raster
from floodbench.speckle import (FilterConfig, SpeckleModel, apply_filter_config,
                                enl, frost_filter, lee_filter,
                                lee_sigma_filter, median_filter)
from floodbench.synth import apply_speckle
from floodbench.ensemble import enumerate_filters

from conftest import random_raster
from test_oracles import reflect_index


def constant_raster(value=5.0, size=9):
    return Raster(size, size, 1.0, 0.0, 0.0, -9999.0,
                  np.full((size, size), value))


def gamma_patch(looks, size=64, mean=0.2, seed=5):
    base = Raster(size, size, 1.0, 0.0, 0.0, -9999.0,
                  np.full((size, size), mean))
    return apply_speckle(base, looks, seed)


def full_region(raster):
    return mask_like(raster, np.ones(raster.values.shape, dtype=np.uint8))


# ---------------------------------------------------------------------------
# model and config validation


def test_speckle_model_variance_is_reciprocal_looks():
    assert SpeckleModel(4.0).var_s == 0.25
    assert SpeckleModel(1.0).var_s == 1.0
    assert SpeckleModel(math.inf).var_s == 0.0
    assert SpeckleModel(2.0).mean_s == 1.0
    with pytest.raises(InputError):
        SpeckleModel(0.0)


@pytest.mark.parametrize("kwargs", [
    dict(method="median"),                          # missing window
    dict(method="median", k=4),                     # side 9 outside grid
    dict(method="lee_sigma", k=1),                  # missing xi
    dict(method="lee_sigma", k=1, xi=0.75),         # xi outside grid
    dict(method="frost", k=1),                      # missing alpha
    dict(method="frost", k=1, alpha=5.0),           # alpha outside grid
    dict(method="none", k=1),                       # stray parameter
    dict(method="external"),                        # missing path
    dict(method="lee", k=1, xi=0.8),                # xi on wrong method
])
def test_filter_config_validation(kwargs):
    with pytest.raises(InputError):
        FilterConfig(**kwargs)


def test_filter_config_override_flag_relaxes_grid():
    cfg = FilterConfig("lee_sigma", k=4, xi=1.0, any_window=True)
    assert cfg.k == 4


# ---------------------------------------------------------------------------
# median


def test_median_constant_unchanged():
    r = constant_raster()
    out = median_filter(r, 2)
    assert np.array_equal(out.values, r.values)


def test_median_rejects_center_outlier():
    vals = np.ones((3, 3))
    vals[1, 1] = 100.0
    r = Raster(3, 3, 1.0, 0.0, 0.0, -9999.0, vals)
    out = median_filter(r, 1)
    assert out.values[1, 1] == 1.0


def _median_oracle(values, k):
    h, w = values.shape
    out = np.empty_like(values)
    for i in range(h):
        for j in range(w):
            sample = sorted(values[reflect_index(i + di, h),
                                   reflect_index(j + dj, w)]
                            for di in range(-k, k + 1)
                            for dj in range(-k, k + 1))
            out[i, j] = sample[len(sample) // 2]
    return out


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(21)
    r = random_raster(rng, 20, 20)
    out = median_filter(r, 2)
    assert np.allclose(out.values, _median_oracle(r.values, 2))


def test_median_nodata_even_count_uses_central_pair():
    vals = np.array([[-9999.0, 2.0, 3.0],
                     [4.0, 5.0, 6.0],
                     [7.0, 8.0, 9.0]])
    r = Raster(3, 3, 1.0, 0.0, 0.0, -9999.0, vals)
    out = median_filter(r, 1)
    # the center window drops the one nodata cell, leaving the even sample
    # {2..9}; the median is the mean of the central order statistics
    assert out.values[1, 1] == pytest.approx(5.5)
    assert out.values[0, 0] == -9999.0


# ---------------------------------------------------------------------------
# lee


def test_lee_constant_unchanged():
    r = constant_raster()
    out = lee_filter(r, 2, SpeckleModel(4.0))
    assert np.allclose(out.values, r.values)


def test_lee_zero_noise_variance_is_bit_identical():
    rng = np.random.default_rng(22)
    r = random_raster(rng, 30, 30)
    out = lee_filter(r, 3, SpeckleModel(math.inf))
    assert np.array_equal(out.values, r.values)


def test_lee_increases_enl_on_homogeneous_speckle():
    raw = gamma_patch(looks=4.0)
    region = full_region(raw)
    out = lee_filter(raw, 3, SpeckleModel(4.0))
    assert enl(out, region) > enl(raw, region)


def test_lee_nonnegative_on_nonnegative_input():
    rng = np.random.default_rng(23)
    for _ in range(3):
        r = random_raster(rng, 16, 16, low=0.0, high=2.0)
        out = lee_filter(r, 2, SpeckleModel(1.0))
        assert np.min(out.values) >= 0.0


# ---------------------------------------------------------------------------
# lee sigma


def test_lee_sigma_constant_unchanged():
    r = constant_raster()
    out = lee_sigma_filter(r, 1, 0.8)
    assert np.allclose(out.values, r.values)


def test_lee_sigma_xi_one_is_window_mean():
    rng = np.random.default_rng(24)
    r = random_raster(rng, 12, 12)
    out = lee_sigma_filter(r, 2, 1.0)
    from floodbench.raster import local_stats
    mean, _ = local_stats(r, 2)
    assert np.allclose(out.values, mean.values)


def _sigma_oracle_pixel(members, center, xi):
    """Enumerate contiguous runs of the sorted finite window members; pick
    the one whose mean best matches the members' mean, preferring runs
    covering the center value's rank, then the lowest start."""
    n = len(members)
    m = max(1, min(n, math.ceil(xi * n)))
    s = sorted(members)
    full_mean = sum(members) / n
    rank = sum(1 for v in members if v < center)
    best = None
    for start in range(n - m + 1):
        run = s[start:start + m]
        score = abs(sum(run) / m - full_mean)
        covers = start <= rank <= start + m - 1
        key = (score, not covers, start)
        if best is None or key < best[0]:
            best = (key, sum(run) / m)
    return best[1]


def test_lee_sigma_matches_exhaustive_interval_oracle():
    rng = np.random.default_rng(25)
    vals = rng.uniform(0.0, 1.0, size=(9, 9))
    vals[4, 4] = 50.0  # one extreme outlier
    border = rng.uniform(0.0, 1.0, size=(12, 11))
    border[:2] = border[-2:] = border[:, :2] = border[:, -1:] = -9999.0
    scattered = rng.uniform(0.0, 1.0, size=(10, 12))
    scattered[rng.random(scattered.shape) < 0.25] = -9999.0
    # small integers make equal run means and equal scores common
    ties = rng.integers(0, 4, size=(11, 10)).astype(np.float64)
    ties[rng.random(ties.shape) < 0.2] = -9999.0
    # the window of (3, 3) keeps nine members; at xi = 0.8 its two runs tie
    # exactly (means 7/8 and 9/8 about 1) and only the upper one covers the
    # center's rank
    ties[1:6, 1:6] = -9999.0
    ties[2:5, 2:5] = [[1, 1, 1], [1, 2, 1], [1, 1, 0]]
    for vals in (vals, border, scattered, ties):
        h, w = vals.shape
        r = Raster(w, h, 1.0, 0.0, 0.0, -9999.0, vals)
        for xi in (0.7, 0.8, 0.9):
            out = lee_sigma_filter(r, 2, xi)
            assert np.array_equal(out.values == -9999.0, vals == -9999.0)
            for i, j in np.argwhere(vals != -9999.0).tolist():
                window = [vals[reflect_index(i + di, h),
                               reflect_index(j + dj, w)]
                          for di in range(-2, 3) for dj in range(-2, 3)]
                members = [v for v in window if v != -9999.0]
                assert out.values[i, j] == pytest.approx(
                    _sigma_oracle_pixel(members, vals[i, j], xi), rel=1e-12)


def test_lee_sigma_prefers_mean_matching_run():
    # 24 ones and one spike of 100: the only run whose mean approaches the
    # contaminated window mean is the one holding the spike
    vals = np.ones((5, 5))
    vals[2, 2] = 100.0
    r = Raster(5, 5, 1.0, 0.0, 0.0, -9999.0, vals)
    out = lee_sigma_filter(r, 2, 0.8)
    assert out.values[2, 2] == pytest.approx((19 + 100) / 20.0)


def test_lee_sigma_nodata_window():
    vals = np.full((3, 3), -9999.0)
    vals[0, 0] = 1.0
    r = Raster(3, 3, 1.0, 0.0, 0.0, -9999.0, vals)
    out = lee_sigma_filter(r, 1, 0.8)
    assert out.values[2, 2] == -9999.0
    assert out.values[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# frost


def test_frost_constant_unchanged():
    r = constant_raster()
    out = frost_filter(r, 3, 1.0)
    assert np.allclose(out.values, r.values)


def test_frost_large_damping_approaches_identity():
    rng = np.random.default_rng(26)
    r = random_raster(rng, 15, 15, low=1.0, high=5.0)
    out = frost_filter(r, 1, 50.0)
    assert np.max(np.abs(out.values - r.values) / r.values) < 1e-3


def test_frost_matches_hand_kernel_oracle():
    rng = np.random.default_rng(27)
    vals = rng.uniform(1.0, 3.0, size=(3, 3))
    r = Raster(3, 3, 1.0, 0.0, 0.0, -9999.0, vals)
    out = frost_filter(r, 1, 1.0)
    d = np.array([[math.sqrt(2), 1, math.sqrt(2)],
                  [1, 0, 1],
                  [math.sqrt(2), 1, math.sqrt(2)]])
    w = np.exp(-d)
    w /= w.sum()
    assert out.values[1, 1] == pytest.approx(float((w * vals).sum()))


def test_frost_renormalizes_over_nodata():
    vals = np.array([[1.0, -9999.0, 1.0],
                     [1.0, 2.0, 1.0],
                     [1.0, 1.0, 1.0]])
    r = Raster(3, 3, 1.0, 0.0, 0.0, -9999.0, vals)
    out = frost_filter(r, 1, 1.0)
    assert out.values[0, 1] == -9999.0
    d = np.array([[math.sqrt(2), 1, math.sqrt(2)],
                  [1, 0, 1],
                  [math.sqrt(2), 1, math.sqrt(2)]])
    w = np.exp(-d)
    good = vals != -9999.0
    expect = float((w[good] * vals[good]).sum() / w[good].sum())
    assert out.values[1, 1] == pytest.approx(expect)


# ---------------------------------------------------------------------------
# ENL


def test_enl_two_value_arithmetic():
    vals = np.array([[1.0, 3.0]])
    r = Raster(2, 1, 1.0, 0.0, 0.0, -9999.0, vals)
    assert enl(r, full_region(r)) == pytest.approx(4.0)


def test_enl_monte_carlo_matches_looks():
    raw = gamma_patch(looks=4.0, size=100, seed=9)
    assert enl(raw, full_region(raw)) == pytest.approx(4.0, abs=0.3)


def test_enl_degenerate_region():
    r = constant_raster()
    with pytest.raises(DegenerateError, match="degenerate homogeneous"):
        enl(r, full_region(r))


def test_enl_needs_two_pixels():
    r = constant_raster(size=3)
    empty = mask_like(r, np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(InputError):
        enl(r, empty)


# ---------------------------------------------------------------------------
# dispatch and shared filter laws


def test_apply_none_returns_input_unchanged():
    rng = np.random.default_rng(28)
    r = random_raster(rng, 10, 10, low=0.0)
    out = apply_filter_config(r, FilterConfig("none"))
    assert np.array_equal(out.values, r.values)


def test_apply_external_passthrough(tmp_path):
    from floodbench.raster import read_raster
    rng = np.random.default_rng(29)
    r = random_raster(rng, 10, 10, low=0.0)
    ext = random_raster(rng, 10, 10, low=0.0)
    path = tmp_path / "ext.fbr"
    write_raster(ext, str(path))
    out = apply_filter_config(r, FilterConfig("external", path=str(path)))
    # the contract is the file's values (f32 payload by format)
    assert np.array_equal(out.values, read_raster(str(path)).values)
    assert np.allclose(out.values, ext.values, rtol=1e-6)


def test_apply_external_geometry_mismatch(tmp_path):
    rng = np.random.default_rng(30)
    r = random_raster(rng, 10, 10, low=0.0)
    ext = random_raster(rng, 9, 10, low=0.0)
    path = tmp_path / "ext.fbr"
    write_raster(ext, str(path))
    with pytest.raises(GeometryError, match="geometry mismatch"):
        apply_filter_config(r, FilterConfig("external", path=str(path)))


def test_all_26_configs_dispatch_on_small_scene(tmp_path):
    raw = gamma_patch(looks=4.0, size=64, seed=31)
    ext_path = tmp_path / "despeckled.fbr"
    write_raster(gamma_patch(looks=400.0, size=64, seed=32), str(ext_path))
    configs = enumerate_filters(external_path=str(ext_path))
    assert len(configs) == 26
    region = full_region(raw)
    base_enl = enl(raw, region)
    for cfg in configs:
        out = apply_filter_config(raw, cfg, SpeckleModel(4.0))
        assert out.geometry == raw.geometry
        if cfg.method not in ("none",):
            assert enl(out, region) > base_enl, cfg.describe()


def test_filters_preserve_nodata_and_geometry():
    rng = np.random.default_rng(33)
    vals = rng.uniform(0.5, 2.0, size=(12, 12))
    vals[3, 4] = -9999.0
    vals[8, 1] = -9999.0
    r = Raster(12, 12, 1.0, 0.0, 0.0, -9999.0, vals)
    model = SpeckleModel(4.0)
    outputs = [median_filter(r, 1), lee_filter(r, 1, model),
               lee_sigma_filter(r, 1, 0.8), frost_filter(r, 1, 2.0)]
    nodata_cells = ~r.finite
    for out in outputs:
        assert out.geometry == r.geometry
        assert np.array_equal(~out.finite, nodata_cells)
        assert np.min(out.values[out.finite]) >= 0.0


def test_masked_and_fast_paths_agree_away_from_nodata():
    """One corner nodata cell forces the masked code path; pixels whose
    windows never touch that corner must match the fast path output."""
    from floodbench.raster import local_stats
    rng = np.random.default_rng(34)
    vals = rng.uniform(0.5, 2.0, size=(16, 16))
    clean = Raster(16, 16, 1.0, 0.0, 0.0, -9999.0, vals)
    dirty_vals = vals.copy()
    dirty_vals[0, 0] = -9999.0
    dirty = Raster(16, 16, 1.0, 0.0, 0.0, -9999.0, dirty_vals)
    k = 2
    far = np.zeros((16, 16), dtype=bool)
    far[k + 1:, k + 1:] = True  # windows here never see the corner
    pairs = [
        (median_filter(clean, k), median_filter(dirty, k)),
        (frost_filter(clean, k, 2.0), frost_filter(dirty, k, 2.0)),
        (lee_sigma_filter(clean, k, 0.8), lee_sigma_filter(dirty, k, 0.8)),
        (lee_filter(clean, k, SpeckleModel(4.0)),
         lee_filter(dirty, k, SpeckleModel(4.0))),
    ]
    for fast, masked in pairs:
        assert np.allclose(fast.values[far], masked.values[far],
                           rtol=1e-10, atol=1e-12)
    mean_c, var_c = local_stats(clean, k)
    mean_d, var_d = local_stats(dirty, k)
    assert np.allclose(mean_c.values[far], mean_d.values[far], atol=1e-9)
    assert np.allclose(var_c.values[far], var_d.values[far], atol=1e-9)
