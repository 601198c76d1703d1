"""Raster model, file I/O, window statistics, components, and distance
queries, each checked against brute-force oracles."""
import numpy as np
import pytest
from scipy import ndimage

from floodbench.errors import (GeometryError, InputError, RasterFormatError)
from floodbench.raster import (ASCII_GRID, FLAT_BINARY, BinaryMask, Raster,
                               connected_components, local_stats, mask_like,
                               nearest_feature, read_mask, read_raster,
                               require_same_grid, write_mask, write_raster)

from conftest import random_mask, random_raster
from test_oracles import reflect_index


def test_ascii_grid_trivial_parse(tmp_path):
    path = tmp_path / "tiny.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize 10\nNODATA_value -9999\n1 2\n3 4\n")
    r = read_raster(str(path))
    assert r.width == 2 and r.height == 2
    assert r.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_ascii_grid_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize 10\nNODATA_value -9999\n1 2 3\n")
    with pytest.raises(RasterFormatError, match="value count mismatch"):
        read_raster(str(path))


def test_ascii_grid_malformed_header(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\ncellsize 10\n"
                    "yllcorner 0\nNODATA_value -9999\n1 2 3 4\n")
    with pytest.raises(RasterFormatError, match="malformed header"):
        read_raster(str(path))


def test_ascii_grid_bad_cell_size(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize 0\nNODATA_value -9999\n1 2 3 4\n")
    with pytest.raises(RasterFormatError, match="cell size"):
        read_raster(str(path))


@pytest.mark.parametrize("fmt,ext", [(ASCII_GRID, "asc"), (FLAT_BINARY, "fbr")])
def test_round_trip_is_value_exact(tmp_path, fmt, ext):
    rng = np.random.default_rng(42)
    for trial in range(3):
        vals = rng.uniform(-50.0, 50.0, size=(50, 50))
        # the binary payload is f32 by format contract, so use values the
        # narrow format represents exactly
        vals = vals.astype(np.float32).astype(np.float64)
        vals[rng.random((50, 50)) < 0.05] = -9999.0
        r = Raster(50, 50, 2.5, 100.0, -30.0, -9999.0, vals)
        path = tmp_path / ("rt%d.%s" % (trial, ext))
        write_raster(r, str(path), fmt)
        back = read_raster(str(path), fmt)
        assert back.geometry == r.geometry
        assert np.array_equal(back.values, r.values)


def test_constant_raster_round_trip(tmp_path):
    r = Raster(8, 4, 5.0, 0.0, 0.0, -9999.0, np.full((4, 8), 3.25))
    path = tmp_path / "const.asc"
    write_raster(r, str(path))
    assert np.array_equal(read_raster(str(path)).values, r.values)


def test_mask_codes_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.choice([0, 1, 255], size=(12, 9), p=[0.5, 0.4, 0.1])
    m = BinaryMask(9, 12, 10.0, 0.0, 0.0, vals)
    for ext in ("asc", "fbr"):
        path = tmp_path / ("mask." + ext)
        write_mask(m, str(path))
        back = read_mask(str(path))
        assert np.array_equal(back.values, m.values)


def test_mask_rejects_stray_codes():
    with pytest.raises(InputError, match="codes"):
        BinaryMask(2, 2, 10.0, 0.0, 0.0, np.array([[0, 1], [2, 255]]))


def test_raster_value_count_invariant():
    with pytest.raises(InputError, match="value count mismatch"):
        Raster(3, 2, 10.0, 0.0, 0.0, -9999.0, np.zeros(5))


def test_values_are_immutable():
    r = Raster(2, 2, 1.0, 0.0, 0.0, -9999.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        r.values[0, 0] = 1.0


def test_geometry_mismatch_raises():
    a = Raster(2, 2, 1.0, 0.0, 0.0, -9999.0, np.zeros((2, 2)))
    b = Raster(2, 2, 2.0, 0.0, 0.0, -9999.0, np.zeros((2, 2)))
    with pytest.raises(GeometryError):
        require_same_grid(a, b)


# ---------------------------------------------------------------------------
# local_stats


def test_local_stats_constant_raster():
    r = Raster(7, 7, 1.0, 0.0, 0.0, -9999.0, np.full((7, 7), 5.0))
    for k in (0, 1, 3):
        mean, var = local_stats(r, k)
        assert np.allclose(mean.values, 5.0)
        assert np.allclose(var.values, 0.0)


def test_local_stats_k0_degenerate_window():
    rng = np.random.default_rng(1)
    r = random_raster(rng, 6, 5)
    mean, var = local_stats(r, 0)
    assert np.allclose(mean.values, r.values)
    assert np.allclose(var.values, 0.0)


def _window_sample(values, i, j, k):
    h, w = values.shape
    out = []
    for di in range(-k, k + 1):
        for dj in range(-k, k + 1):
            out.append(values[reflect_index(i + di, h),
                              reflect_index(j + dj, w)])
    return np.array(out)


def test_local_stats_matches_direct_summation_oracle():
    rng = np.random.default_rng(2)
    r = random_raster(rng, 20, 20)
    mean, var = local_stats(r, 2)
    for i, j in [(10, 10), (0, 0), (19, 7), (3, 19)]:
        sample = _window_sample(r.values, i, j, 2)
        assert mean.values[i, j] == pytest.approx(sample.mean(), abs=1e-9)
        assert var.values[i, j] == pytest.approx(sample.var(), abs=1e-9)


def test_local_stats_excludes_nodata():
    vals = np.array([[1.0, -9999.0], [3.0, 5.0]])
    r = Raster(2, 2, 1.0, 0.0, 0.0, -9999.0, vals)
    mean, var = local_stats(r, 1)
    # nodata center stays nodata; the sample around (0,0) reflects to
    # {1,1,3,3,5} minus the nodata cell occurrences
    assert mean.values[0, 1] == -9999.0
    assert var.values[0, 1] == -9999.0
    sample = _window_sample(vals, 0, 0, 1)
    good = sample[sample != -9999.0]
    assert mean.values[0, 0] == pytest.approx(good.mean())
    assert var.values[0, 0] == pytest.approx(good.var())
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.5, 2.0, size=(12, 11))
    vals[:2] = vals[-2:] = vals[:, :2] = vals[:, -1:] = -9999.0
    vals[6, 5] = -9999.0
    r = Raster(11, 12, 1.0, 0.0, 0.0, -9999.0, vals)
    for k in (1, 2, 3):
        mean, var = local_stats(r, k)
        assert np.array_equal(mean.values == -9999.0, vals == -9999.0)
        assert np.array_equal(var.values == -9999.0, vals == -9999.0)
        for i, j in np.argwhere(vals != -9999.0).tolist():
            sample = _window_sample(vals, i, j, k)
            good = sample[sample != -9999.0]
            assert mean.values[i, j] == pytest.approx(good.mean(), rel=1e-12)
            assert var.values[i, j] == pytest.approx(good.var(), rel=1e-9,
                                                     abs=1e-12)


def test_local_stats_all_finite_is_the_uniform_filter():
    """With every member valid the valid fraction is exactly 1.0, so the
    statistics are the plain window means bit for bit."""
    rng = np.random.default_rng(5)
    r = random_raster(rng, 23, 17)
    v = r.values
    for k in (0, 1, 2, 3):
        mean, var = local_stats(r, k)
        expect = ndimage.uniform_filter(v, size=2 * k + 1, mode="reflect")
        meansq = ndimage.uniform_filter(v * v, size=2 * k + 1, mode="reflect")
        assert np.array_equal(mean.values, expect)
        assert np.array_equal(var.values,
                              np.maximum(meansq - expect * expect, 0.0))


def test_local_stats_variance_nonnegative_property():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = random_raster(rng, 15, 11)
        _, var = local_stats(r, int(rng.integers(0, 4)))
        assert np.all(var.values >= 0.0)


# ---------------------------------------------------------------------------
# connected components


def test_components_diagonal_connectivity():
    m = BinaryMask(3, 3, 1.0, 0.0, 0.0,
                   np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    assert len(connected_components(m, 4).sizes) == 2
    assert len(connected_components(m, 8).sizes) == 1


def test_components_empty_mask():
    m = BinaryMask(4, 4, 1.0, 0.0, 0.0, np.zeros((4, 4), dtype=np.uint8))
    lab = connected_components(m, 4)
    assert lab.sizes == {}
    assert not lab.labels.any()


def _flood_fill_oracle(fg, connectivity):
    # stack-based flood fill assigning labels in scan order
    h, w = fg.shape
    labels = np.zeros((h, w), dtype=np.int32)
    if connectivity == 4:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                 if (di, dj) != (0, 0)]
    nxt = 0
    for si in range(h):
        for sj in range(w):
            if not fg[si, sj] or labels[si, sj]:
                continue
            nxt += 1
            stack = [(si, sj)]
            labels[si, sj] = nxt
            while stack:
                i, j = stack.pop()
                for di, dj in steps:
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and fg[ni, nj] \
                            and not labels[ni, nj]:
                        labels[ni, nj] = nxt
                        stack.append((ni, nj))
    return labels


@pytest.mark.parametrize("connectivity", [4, 8])
def test_components_match_flood_fill_oracle(connectivity):
    rng = np.random.default_rng(100 + connectivity)
    for _ in range(3):
        m = random_mask(rng, 64, 64, p=0.45)
        lab = connected_components(m, connectivity)
        oracle = _flood_fill_oracle(m.values == 1, connectivity)
        assert np.array_equal(lab.labels, oracle)
        counts = np.bincount(oracle.ravel())
        assert lab.sizes == {i: int(counts[i]) for i in range(1, len(counts))
                             if counts[i]}


def test_components_partition_foreground():
    rng = np.random.default_rng(11)
    m = random_mask(rng, 40, 40, p=0.5)
    lab = connected_components(m, 8)
    fg = m.values == 1
    assert np.array_equal(lab.labels > 0, fg)
    assert sum(lab.sizes.values()) == int(fg.sum())


# ---------------------------------------------------------------------------
# nearest feature


def test_nearest_single_source_distances():
    src = np.array([[3, 4]])
    queries = np.array([[i, j] for i in range(8) for j in range(8)])
    res = nearest_feature(src, queries)
    expect = np.hypot(queries[:, 0] - 3, queries[:, 1] - 4)
    assert np.allclose(res.distance, expect)
    assert np.all(res.cells == [3, 4])


def test_nearest_query_on_source_is_itself():
    src = np.array([[2, 2], [5, 5]])
    res = nearest_feature(src, np.array([[5, 5]]))
    assert res.distance[0] == 0.0
    assert res.cells[0].tolist() == [5, 5]


def test_nearest_empty_source_set():
    with pytest.raises(InputError, match="empty source"):
        nearest_feature(np.empty((0, 2), dtype=int), np.array([[0, 0]]))


def _nearest_oracle(sources, queries):
    cells = []
    dist = []
    src = sorted(map(tuple, sources.tolist()))
    for qi, qj in queries.tolist():
        best = None
        for si, sj in src:
            d2 = (qi - si) ** 2 + (qj - sj) ** 2
            if best is None or d2 < best[0]:
                best = (d2, si, sj)
        dist.append(np.sqrt(best[0]))
        cells.append([best[1], best[2]])
    return np.array(cells), np.array(dist)


def test_nearest_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(12)
    for _ in range(3):
        sources = np.unique(rng.integers(0, 40, size=(25, 2)), axis=0)
        queries = np.array([[i, j] for i in range(40) for j in range(40)])
        res = nearest_feature(sources, queries)
        cells, dist = _nearest_oracle(sources, queries)
        assert np.array_equal(res.cells, cells)
        assert np.allclose(res.distance, dist)


def test_nearest_tie_break_is_lexicographic():
    # (0,1) and (1,0) are equidistant from (0,0) and from (1,1)
    src = np.array([[1, 0], [0, 1]])
    res = nearest_feature(src, np.array([[0, 0], [1, 1]]))
    assert res.cells[0].tolist() == [0, 1]
    assert res.cells[1].tolist() == [0, 1]


def test_nearest_triangle_inequality():
    rng = np.random.default_rng(13)
    sources = np.unique(rng.integers(0, 30, size=(12, 2)), axis=0)
    queries = rng.integers(0, 30, size=(60, 2))
    res = nearest_feature(sources, queries)
    for (qi, qj), d in zip(queries.tolist(), res.distance):
        for si, sj in sources.tolist():
            assert d <= np.hypot(qi - si, qj - sj) + 1e-9


def test_mask_like_copies_geometry():
    r = Raster(4, 3, 2.0, 5.0, 6.0, -9999.0, np.zeros((3, 4)))
    m = mask_like(r, np.zeros((3, 4), dtype=np.uint8))
    assert m.geometry == r.geometry


def test_write_raster_unwritable_path(tmp_path):
    r = Raster(2, 2, 1.0, 0.0, 0.0, -9999.0, np.zeros((2, 2)))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    with pytest.raises(InputError, match="cannot write"):
        write_raster(r, str(blocker / "sub" / "out.asc"))


def test_ascii_grid_accepts_arbitrary_value_wrapping(tmp_path):
    path = tmp_path / "wrapped.asc"
    path.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                    "cellsize 10\nNODATA_value -9999\n"
                    "1 2\n3\n4 5 6\n")
    r = read_raster(str(path))
    assert r.values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
