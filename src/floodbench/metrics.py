"""Flood-map and depth-field evaluation: confusion counts, accuracy, F1,
flooded area, and RMSE against reference rasters or watermark points."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .raster import BinaryMask, FLOODED, Raster, require_same_grid
from .depth import DepthField


class ConfusionCounts(NamedTuple):
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(pred: BinaryMask, ref: BinaryMask,
              exclude: BinaryMask | None = None) -> ConfusionCounts:
    """Pixel confusion counts over cells valid in both masks.

    Cells flagged flooded in the optional exclusion mask (permanent water
    bodies) are left out of the evaluation.
    """
    require_same_grid(pred, ref, "prediction and reference masks")
    keep = pred.valid & ref.valid
    if exclude is not None:
        require_same_grid(pred, exclude, "prediction and exclusion masks")
        keep &= exclude.values != FLOODED
    p = pred.flooded[keep]
    r = ref.flooded[keep]
    tp = int(np.count_nonzero(p & r))
    tn = int(np.count_nonzero(~p & ~r))
    fp = int(np.count_nonzero(p & ~r))
    fn = int(np.count_nonzero(~p & r))
    return ConfusionCounts(tp, tn, fp, fn)


def accuracy(c: ConfusionCounts) -> float:
    """(TP + TN) / (TP + TN + FP + FN)."""
    if c.total == 0:
        raise InputError("empty evaluation set")
    return (c.tp + c.tn) / c.total


def f1(c: ConfusionCounts) -> float:
    """2*TP / (2*TP + FP + FN); an all-dry perfect prediction scores 1."""
    if c.total == 0:
        raise InputError("empty evaluation set")
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        # no positive class anywhere and none predicted: perfect by convention
        return 1.0
    return 2 * c.tp / denom


def flooded_area_km2(mask: BinaryMask) -> float:
    return mask.flooded_count() * mask.cell_size ** 2 * 1e-6


def depth_rmse(pred: DepthField, ref: Raster) -> float:
    """RMSE over cells with a finite depth in both prediction and reference."""
    require_same_grid(pred.depth, ref, "predicted and reference depths")
    both = pred.depth.finite & ref.finite
    if not both.any():
        raise InputError("no overlapping flooded cells to compare")
    diff = pred.depth.values[both] - ref.values[both]
    return float(np.sqrt(np.mean(diff * diff)))


class PointsRmse(NamedTuple):
    rmse: float
    used: int
    skipped: int


def rmse_at_points(pred: DepthField, points: np.ndarray) -> PointsRmse:
    """RMSE of predicted depth at watermark points (x, y, observed_depth_m).

    Points mapping to dry or nodata cells are skipped and tallied; it is an
    error for every point to be skipped.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != 3:
        raise InputError("watermark points must have columns x, y, depth")
    depth = pred.depth
    finite = depth.finite
    errors = []
    skipped = 0
    for x, y, obs in pts:
        cell = depth.cell_of(x, y)
        if cell is None or not finite[cell]:
            skipped += 1
            continue
        errors.append(depth.values[cell] - obs)
    if not errors:
        raise InputError("all %d watermark points fall off the predicted "
                         "flood" % skipped)
    err = np.array(errors)
    return PointsRmse(float(np.sqrt(np.mean(err * err))), len(errors), skipped)


def read_watermarks(path: str) -> np.ndarray:
    """Load a watermark CSV with header columns x, y, observed_depth_m."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:3]] != \
                    ["x", "y", "observed_depth_m"]:
                raise InputError("watermark CSV must start with header "
                                 "x,y,observed_depth_m")
            rows = []
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                try:
                    rows.append((float(row[0]), float(row[1]), float(row[2])))
                except (ValueError, IndexError) as exc:
                    raise InputError("bad watermark row %r: %s"
                                     % (row, exc)) from exc
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    if not rows:
        raise InputError("watermark CSV %s has no points" % path)
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# run records and the manifest CSV

# pinned column order; status/reason trail the pinned set so failed
# configurations are first-class rows
MANIFEST_FIELDS = ("config_id", "filter_method", "filter_params",
                   "mapper_method", "mapper_params", "morph_params",
                   "depth_method", "depth_params", "acc", "f1", "area_km2",
                   "rmse_m", "skipped_points", "wall_ms", "status", "reason")


@dataclass
class MetricsRecord:
    """Evaluation result of one pipeline configuration."""

    config_id: str
    filter_method: str = ""
    filter_params: str = ""
    mapper_method: str = ""
    mapper_params: str = ""
    morph_params: str = ""
    depth_method: str = ""
    depth_params: str = ""
    acc: float | None = None
    f1: float | None = None
    area_km2: float | None = None
    rmse_m: float | None = None
    skipped_points: int | None = None
    wall_ms: float | None = None
    status: str = "ok"
    reason: str = ""

    def to_row(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return "%.10g" % v
            return str(v)
        return [fmt(getattr(self, name)) for name in MANIFEST_FIELDS]


def write_manifest_header(fh) -> None:
    """The header row, written by the same csv writer as the rows, so
    every line of a manifest ends in \\r\\n."""
    csv.writer(fh).writerow(MANIFEST_FIELDS)


def append_manifest_row(fh, rec: MetricsRecord) -> None:
    csv.writer(fh).writerow(rec.to_row())


def read_manifest(path: str) -> list[dict]:
    if not os.path.exists(path):
        raise InputError("manifest %s does not exist" % path)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
