"""Grid data model, raster file I/O, and shared grid operations.

Rasters are immutable single-band grids with square cells, stored as 2-D
arrays with the north row first (row 0 is the top of the map). All
multi-raster operations require exact geometry equality; there is no
resampling. Two on-disk formats are supported:

* ASCII grid: six header lines (ncols, nrows, xllcorner, yllcorner,
  cellsize, NODATA_value, in that order) followed by whitespace-separated
  row-major values, north row first.
* Flat binary: magic bytes ``FBR1``, little-endian u32 width, u32 height,
  f64 cell_size, f64 origin_x, f64 origin_y, f32 nodata, then
  width*height f32 values row-major, north row first.
"""
from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import GeometryError, InputError, RasterFormatError

DRY = 0
FLOODED = 1
MASK_NODATA = 255

ASCII_GRID = "ascii_grid"
FLAT_BINARY = "flat_binary"

_BINARY_MAGIC = b"FBR1"
_BINARY_HEADER = struct.Struct("<II d d d f")
_ASCII_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize",
               "nodata_value")

DEFAULT_NODATA = -9999.0


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Raster:
    """Georeferenced single-band grid of float64 values.

    ``values`` has shape (height, width) with row 0 the north row. Cells
    equal to ``nodata`` (or NaN) are missing; every valid finite value
    must differ from the nodata sentinel.
    """

    width: int
    height: int
    cell_size: float
    origin_x: float
    origin_y: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InputError("raster dimensions must be positive")
        if not self.cell_size > 0:
            raise InputError("non-positive cell size")
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            if v.size == self.width * self.height:
                v = v.reshape(self.height, self.width)
            else:
                raise InputError("value count mismatch: %d values for %dx%d"
                                 % (v.size, self.width, self.height))
        object.__setattr__(self, "values", _freeze(v))

    @property
    def finite(self) -> np.ndarray:
        """Boolean array: cell holds a valid value (not nodata, not NaN)."""
        return np.isfinite(self.values) & (self.values != self.nodata)

    @property
    def geometry(self) -> tuple:
        return (self.width, self.height, self.cell_size,
                self.origin_x, self.origin_y)

    def like(self, values: np.ndarray, nodata: float | None = None) -> "Raster":
        """New raster with this geometry and the given values."""
        return Raster(self.width, self.height, self.cell_size,
                      self.origin_x, self.origin_y,
                      self.nodata if nodata is None else nodata,
                      np.array(values, dtype=np.float64))

    def cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        """(row, col) of the cell containing map point (x, y), or None."""
        col = int(np.floor((x - self.origin_x) / self.cell_size))
        row_s = int(np.floor((y - self.origin_y) / self.cell_size))
        row = self.height - 1 - row_s
        if 0 <= row < self.height and 0 <= col < self.width:
            return row, col
        return None


@dataclass(frozen=True)
class BinaryMask:
    """Same-grid classification with codes 0 (dry), 1 (flooded), 255 (nodata)."""

    width: int
    height: int
    cell_size: float
    origin_x: float
    origin_y: float
    values: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InputError("mask dimensions must be positive")
        if not self.cell_size > 0:
            raise InputError("non-positive cell size")
        v = np.asarray(self.values)
        if v.shape != (self.height, self.width):
            if v.size == self.width * self.height:
                v = v.reshape(self.height, self.width)
            else:
                raise InputError("value count mismatch: %d values for %dx%d"
                                 % (v.size, self.width, self.height))
        codes = np.unique(v)
        bad = [c for c in codes.tolist() if c not in (DRY, FLOODED, MASK_NODATA)]
        if bad:
            raise InputError("mask contains codes outside {0, 1, 255}: %r" % bad)
        object.__setattr__(self, "values", _freeze(v.astype(np.uint8)))

    @property
    def geometry(self) -> tuple:
        return (self.width, self.height, self.cell_size,
                self.origin_x, self.origin_y)

    @property
    def flooded(self) -> np.ndarray:
        return self.values == FLOODED

    @property
    def valid(self) -> np.ndarray:
        return self.values != MASK_NODATA

    def like(self, values: np.ndarray) -> "BinaryMask":
        return BinaryMask(self.width, self.height, self.cell_size,
                          self.origin_x, self.origin_y, values)

    def flooded_count(self) -> int:
        return int(np.count_nonzero(self.values == FLOODED))


def mask_like(raster: Raster, values: np.ndarray) -> BinaryMask:
    return BinaryMask(raster.width, raster.height, raster.cell_size,
                      raster.origin_x, raster.origin_y, values)


def require_same_grid(a, b, what: str = "rasters") -> None:
    if a.geometry != b.geometry:
        raise GeometryError("%s do not share geometry: %r vs %r"
                            % (what, a.geometry, b.geometry))


def require_intensity(raster: Raster) -> None:
    v = raster.values[raster.finite]
    if v.size and np.min(v) < 0:
        raise InputError("intensity raster has negative values")


# ---------------------------------------------------------------------------
# file I/O


def detect_format(path: str) -> str:
    """Guess the raster format from the file extension, else sniff magic."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".asc", ".agr", ".txt"):
        return ASCII_GRID
    if ext in (".fbr", ".bin"):
        return FLAT_BINARY
    try:
        with open(path, "rb") as fh:
            return FLAT_BINARY if fh.read(4) == _BINARY_MAGIC else ASCII_GRID
    except OSError:
        return ASCII_GRID


def read_raster(path: str, fmt: str | None = None) -> Raster:
    """Read a raster file in either supported format.

    Raises RasterFormatError for malformed headers, value count mismatches,
    or a non-positive cell size.
    """
    if fmt is None:
        fmt = detect_format(path)
    if fmt == ASCII_GRID:
        return _read_ascii(path)
    if fmt == FLAT_BINARY:
        return _read_binary(path)
    raise InputError("unknown raster format %r" % fmt)


def write_raster(raster: Raster, path: str, fmt: str | None = None) -> None:
    """Write a raster atomically (write-temp-then-rename)."""
    if fmt is None:
        fmt = detect_format(path)
    if fmt == ASCII_GRID:
        payload = _ascii_bytes(raster)
    elif fmt == FLAT_BINARY:
        payload = _binary_bytes(raster)
    else:
        raise InputError("unknown raster format %r" % fmt)
    atomic_write_bytes(path, payload)


def read_mask(path: str, fmt: str | None = None,
              reference: Raster | BinaryMask | None = None) -> BinaryMask:
    """Read a {0,1,255} mask stored as a raster; optionally check geometry."""
    r = read_raster(path, fmt)
    v = np.array(r.values)
    v[~np.isfinite(v) | (v == r.nodata)] = MASK_NODATA
    iv = v.astype(np.int64)
    if np.any(iv != v):
        raise InputError("mask file holds non-integer codes")
    mask = BinaryMask(r.width, r.height, r.cell_size, r.origin_x, r.origin_y, iv)
    if reference is not None:
        require_same_grid(mask, reference, "mask and reference grid")
    return mask


def write_mask(mask: BinaryMask, path: str, fmt: str | None = None) -> None:
    r = Raster(mask.width, mask.height, mask.cell_size, mask.origin_x,
               mask.origin_y, float(MASK_NODATA),
               mask.values.astype(np.float64))
    write_raster(r, path, fmt)


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc


def _read_ascii(path: str) -> Raster:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    lines = text.splitlines()
    if len(lines) < 6:
        raise RasterFormatError("malformed header: expected 6 header lines")
    header = {}
    for key, line in zip(_ASCII_KEYS, lines[:6]):
        parts = line.split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise RasterFormatError(
                "malformed header: expected %r, got %r" % (key, line.strip()))
        header[key] = parts[1]
    try:
        width = int(header["ncols"])
        height = int(header["nrows"])
        cell = float(header["cellsize"])
        ox = float(header["xllcorner"])
        oy = float(header["yllcorner"])
        nodata = float(header["nodata_value"])
    except ValueError as exc:
        raise RasterFormatError("malformed header: %s" % exc) from exc
    if cell <= 0:
        raise RasterFormatError("non-positive cell size")
    body = " ".join(lines[6:])
    try:
        values = np.array(body.split(), dtype=np.float64)
    except ValueError as exc:
        raise RasterFormatError("unparseable value: %s" % exc) from exc
    if values.size != width * height:
        raise RasterFormatError("value count mismatch: %d values for %dx%d"
                                % (values.size, width, height))
    return Raster(width, height, cell, ox, oy, nodata, values)


def _ascii_bytes(raster: Raster) -> bytes:
    out = ["ncols %d" % raster.width,
           "nrows %d" % raster.height,
           "xllcorner %.17g" % raster.origin_x,
           "yllcorner %.17g" % raster.origin_y,
           "cellsize %.17g" % raster.cell_size,
           "NODATA_value %.17g" % raster.nodata]
    for row in raster.values:
        out.append(" ".join("%.17g" % v for v in row))
    return ("\n".join(out) + "\n").encode("ascii")


def _read_binary(path: str) -> Raster:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    if blob[:4] != _BINARY_MAGIC:
        raise RasterFormatError("malformed header: bad magic bytes")
    off = 4 + _BINARY_HEADER.size
    if len(blob) < off:
        raise RasterFormatError("malformed header: truncated file")
    width, height, cell, ox, oy, nodata = _BINARY_HEADER.unpack(blob[4:off])
    if cell <= 0:
        raise RasterFormatError("non-positive cell size")
    values = np.frombuffer(blob, dtype="<f4", offset=off)
    if values.size != width * height:
        raise RasterFormatError("value count mismatch: %d values for %dx%d"
                                % (values.size, width, height))
    return Raster(int(width), int(height), cell, ox, oy, float(nodata),
                  values.astype(np.float64))


def _binary_bytes(raster: Raster) -> bytes:
    head = _BINARY_MAGIC + _BINARY_HEADER.pack(
        raster.width, raster.height, raster.cell_size,
        raster.origin_x, raster.origin_y, raster.nodata)
    return head + raster.values.astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# window statistics


def local_stats(raster: Raster, k: int) -> tuple[Raster, Raster]:
    """Per-cell mean and population variance over the (2k+1)^2 window.

    Windows are reflect padded. Nodata cells are excluded from the window
    sample: the window means of the zero-filled values and of their
    squares are divided by the window's valid fraction, which is exactly
    1.0 when every member is valid. Output is nodata where the center cell
    is nodata.
    """
    if k < 0:
        raise InputError("window half-size must be non-negative")
    size = 2 * k + 1
    fin = raster.finite
    v0 = np.where(fin, raster.values, 0.0)
    frac = ndimage.uniform_filter(fin.astype(np.float64), size=size,
                                  mode="reflect")
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = ndimage.uniform_filter(v0, size=size, mode="reflect") / frac
        meansq = ndimage.uniform_filter(v0 * v0, size=size,
                                        mode="reflect") / frac
        var = np.where(fin, np.maximum(meansq - mean * mean, 0.0),
                       raster.nodata)
    mean = np.where(fin, mean, raster.nodata)
    return raster.like(mean), raster.like(var)


# ---------------------------------------------------------------------------
# connected components


class LabelMap(NamedTuple):
    """Connected-component labeling: 0 is background, labels start at 1.

    Labels are assigned in row-major order of each component's first cell,
    so the labeling is deterministic. ``sizes[label]`` is the pixel count.
    """

    labels: np.ndarray
    sizes: dict


_STRUCT4 = ndimage.generate_binary_structure(2, 1)
_STRUCT8 = ndimage.generate_binary_structure(2, 2)


def connected_components(mask: BinaryMask, connectivity: int = 4) -> LabelMap:
    """Label maximal connected flooded regions of a mask."""
    if connectivity not in (4, 8):
        raise InputError("connectivity must be 4 or 8")
    fg = mask.values == FLOODED
    return label_array(fg, connectivity)


def label_array(foreground: np.ndarray, connectivity: int) -> LabelMap:
    """Deterministically label a boolean array (scan-order label numbering)."""
    st = _STRUCT4 if connectivity == 4 else _STRUCT8
    raw, n = ndimage.label(foreground, structure=st)
    if n == 0:
        return LabelMap(raw.astype(np.int32), {})
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[1:][order] = np.arange(1, n + 1, dtype=np.int32)
    labels = remap[raw]
    counts = np.bincount(labels.ravel(), minlength=n + 1)
    sizes = {lab: int(counts[lab]) for lab in range(1, n + 1)}
    return LabelMap(labels, sizes)


# ---------------------------------------------------------------------------
# nearest feature queries


class NearestResult(NamedTuple):
    cells: np.ndarray      # (Q, 2) nearest source (row, col) per query
    distance: np.ndarray   # (Q,) Euclidean distance in cells


# query-by-source distance cells held at once; each query row is computed
# on its own, so the result does not depend on it
_NEAREST_CHUNK_CELLS = 4_000_000


def nearest_feature(sources: np.ndarray, queries: np.ndarray) -> NearestResult:
    """Exact Euclidean nearest source cell for every query cell.

    Ties are broken toward the lowest row index, then the lowest column
    index. Distances are exact (integer squared distances under the hood).

    Args:
        sources: (B, 2) integer (row, col) array, B >= 1.
        queries: (Q, 2) integer (row, col) array.
    """
    src = np.atleast_2d(np.asarray(sources, dtype=np.int64))
    if src.size == 0:
        raise InputError("empty source set")
    qry = np.atleast_2d(np.asarray(queries, dtype=np.int64))
    order = np.lexsort((src[:, 1], src[:, 0]))
    src = src[order]
    nq = qry.shape[0]
    nearest = np.empty((nq, 2), dtype=np.int64)
    dist2 = np.empty(nq, dtype=np.int64)
    step = max(1, _NEAREST_CHUNK_CELLS // max(1, src.shape[0]))
    for lo in range(0, nq, step):
        q = qry[lo:lo + step]
        dr = q[:, 0:1] - src[None, :, 0]
        dc = q[:, 1:2] - src[None, :, 1]
        d2 = dr * dr + dc * dc
        best = np.argmin(d2, axis=1)  # first minimum = lexicographic winner
        nearest[lo:lo + step] = src[best]
        dist2[lo:lo + step] = d2[np.arange(q.shape[0]), best]
    return NearestResult(nearest, np.sqrt(dist2.astype(np.float64)))
