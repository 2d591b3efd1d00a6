"""Synthetic labeled point clouds, CSV input/output, scaling, and splits.

Random generation uses ``numpy.random.default_rng`` (the PCG64 generator)
with a caller-supplied 64-bit seed; the same seed always reproduces the
same dataset byte for byte.  Disks and annuli are sampled by rejection
from their bounding box, which keeps the distribution exactly uniform.

CSV schema: a single header row ``x1,...,xn,label`` with the label column
last, labels being integers >= 1; no comment lines.  Floats are written
with shortest round-trip precision, so write followed by read is lossless.
Every numeric CSV table the package writes goes through :func:`write_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .moments import LabeledDataset


@dataclass(frozen=True)
class ShapeSpec:
    """A sampling region with a class label.

    ``disk`` takes center and radius; ``annulus`` center, inner and outer
    radii; ``box`` low and high corner points.
    """

    kind: str
    label: int
    center: tuple[float, ...] | None = None
    radius: float | None = None
    inner: float | None = None
    outer: float | None = None
    low: tuple[float, ...] | None = None
    high: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.label < 1:
            raise DataError("shape label must be an integer >= 1")
        if self.kind == "disk":
            if self.center is None or self.radius is None:
                raise DataError("disk needs center and radius")
            if self.radius <= 0:
                raise DataError("disk radius must be positive")
        elif self.kind == "annulus":
            if self.center is None or self.inner is None or self.outer is None:
                raise DataError("annulus needs center, inner and outer radii")
            if not 0 < self.inner < self.outer:
                raise DataError("annulus radii must satisfy 0 < inner < outer")
        elif self.kind == "box":
            if self.low is None or self.high is None:
                raise DataError("box needs low and high corners")
            if len(self.low) != len(self.high):
                raise DataError("box corners must have equal dimension")
            if any(lo > hi for lo, hi in zip(self.low, self.high)):
                raise DataError("box corners must be ordered (low <= high)")
        else:
            raise DataError(f"unknown shape kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return len(self.low)
        return len(self.center)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.asarray(self.low, float), np.asarray(self.high, float)
        c = np.asarray(self.center, float)
        r = self.radius if self.kind == "disk" else self.outer
        return c - r, c + r

    def contains(self, points) -> np.ndarray:
        """Boolean mask of the rows of ``points`` inside the closed shape."""
        pts = np.atleast_2d(np.asarray(points, float))
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return np.all((pts >= lo) & (pts <= hi), axis=1)
        d = np.linalg.norm(pts - np.asarray(self.center, float), axis=1)
        if self.kind == "disk":
            return d <= self.radius
        return (d >= self.inner) & (d <= self.outer)

    def boundary_distance(self, points) -> np.ndarray:
        """Analytic distance from each point to the shape boundary.

        Disk: |radius - |x - c||.  Annulus: the smaller of the distances
        to the two circles.  Box: the smallest slab distance over the
        coordinates.
        """
        pts = np.atleast_2d(np.asarray(points, float))
        if self.kind == "box":
            lo, hi = self.bounding_box()
            per_axis = np.minimum(np.abs(pts - lo), np.abs(hi - pts))
            return per_axis.min(axis=1)
        d = np.linalg.norm(pts - np.asarray(self.center, float), axis=1)
        if self.kind == "disk":
            return np.abs(self.radius - d)
        return np.minimum(np.abs(d - self.inner), np.abs(self.outer - d))

    def volume(self) -> float:
        """n-dimensional volume, used to reject zero-area sampling regions."""
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return float(np.prod(hi - lo))
        n = self.dim
        unit_ball = np.pi ** (n / 2) / math.gamma(n / 2 + 1)
        if self.kind == "disk":
            return float(unit_ball * self.radius**n)
        return float(unit_ball * (self.outer**n - self.inner**n))


def gen_shapes(
    specs: list[ShapeSpec], n_per_class: int, seed: int
) -> LabeledDataset:
    """Sample ``n_per_class`` uniform points from each listed shape.

    Shapes are sampled in the listed order from a single seeded PCG64
    stream, so a fixed seed reproduces the dataset exactly.  A class that
    appears in several spec rows receives ``n_per_class`` points per row.
    """
    if not specs:
        raise DataError("no shapes given")
    if n_per_class < 1:
        raise DataError("need at least one point per class")
    dims = {s.dim for s in specs}
    if len(dims) != 1:
        raise DataError("all shapes must share the same dimension")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for spec in specs:
        if spec.volume() <= 0.0:
            raise DataError(f"shape {spec.kind} for class {spec.label} has zero area")
        blocks.append(_rejection_sample(spec, n_per_class, rng))
        labels.append(np.full(n_per_class, spec.label, dtype=np.int64))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels))


def _rejection_sample(spec, count, rng):
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        return rng.uniform(lo, hi, size=(count, spec.dim))
    lo, hi = spec.bounding_box()
    kept = []
    have = 0
    while have < count:
        batch = rng.uniform(lo, hi, size=(2 * count, spec.dim))
        inside = batch[spec.contains(batch)]
        kept.append(inside)
        have += inside.shape[0]
    return np.vstack(kept)[:count]


def epsilon_interior_mask(points, specs, eps, labels=None) -> np.ndarray:
    """Mask of points deeper than ``eps`` inside their class region.

    With ``labels`` given, a point is kept when some shape of its own
    class contains it at boundary distance above ``eps``.  Without labels
    (grid mode) shapes of every class are considered.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    pts = np.atleast_2d(np.asarray(points, float))
    keep = np.zeros(pts.shape[0], dtype=bool)
    for spec in specs:
        inside = spec.contains(pts) & (spec.boundary_distance(pts) > eps)
        if labels is not None:
            inside &= np.asarray(labels) == spec.label
        keep |= inside
    return keep


def epsilon_interior(
    dataset: LabeledDataset, specs: list[ShapeSpec], eps: float
) -> LabeledDataset:
    """Restrict a dataset to the eps-interior of each class's shapes."""
    keep = epsilon_interior_mask(dataset.points, specs, eps, dataset.labels)
    if not np.any(keep):
        raise DataError("no points remain at this eps")
    return LabeledDataset(dataset.points[keep], dataset.labels[keep], m=dataset.m)


@dataclass(frozen=True)
class AffineTransform:
    """Per-coordinate map x -> (x - center) * scale with nonzero scales."""

    center: np.ndarray
    scale: np.ndarray

    def forward(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.center) * self.scale

    def inverse(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts / self.scale + self.center

    @classmethod
    def identity(cls, n: int) -> "AffineTransform":
        return cls(center=np.zeros(n), scale=np.ones(n))


def scale_to_unit_box(
    dataset: LabeledDataset,
) -> tuple[LabeledDataset, AffineTransform]:
    """Affinely map the data bounding box onto [-1, 1]^n.

    A coordinate with a single distinct value is only recentered
    (scale 1), so the transform stays invertible.
    """
    lo = dataset.points.min(axis=0)
    hi = dataset.points.max(axis=0)
    span = hi - lo
    scale = np.where(span > 0, 2.0 / np.where(span > 0, span, 1.0), 1.0)
    center = 0.5 * (lo + hi)
    transform = AffineTransform(center=center, scale=scale)
    scaled = LabeledDataset(
        transform.forward(dataset.points), dataset.labels, m=dataset.m
    )
    return scaled, transform


def train_test_split(
    dataset: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded stratified split; the two parts partition the input."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for label in range(1, dataset.m + 1):
        idx = np.flatnonzero(dataset.labels == label)
        if idx.size < 2:
            raise DataError(f"class {label} has fewer than 2 points, cannot split")
        perm = rng.permutation(idx)
        k = int(round(fraction * idx.size))
        k = min(max(k, 1), idx.size - 1)
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    train = LabeledDataset(
        dataset.points[train_idx], dataset.labels[train_idx], m=dataset.m
    )
    test = LabeledDataset(
        dataset.points[test_idx], dataset.labels[test_idx], m=dataset.m
    )
    return train, test


# Rows formatted per write; bounds the text held in memory at once.
_TABLE_CHUNK = 4096


def write_table(path, header, *blocks) -> None:
    """Write a CSV table: the ``header`` row, then the rows of ``blocks`` side by side.

    Each block is a 1-D column or a 2-D array of columns, all with the
    same number of rows.  Float columns are written as shortest
    round-trip ``repr``, integer and bool columns as integers; the file
    is ASCII with ``\n`` line endings.  Rows are formatted and written in
    chunks of ``_TABLE_CHUNK``.
    """
    columns = []
    for block in blocks:
        block = np.asarray(block)
        if block.dtype == bool:
            block = block.astype(np.int64)
        columns.append(block[:, None] if block.ndim == 1 else block)
    n_rows = columns[0].shape[0]
    if any(c.shape[0] != n_rows for c in columns):
        raise ValueError("table blocks must have the same number of rows")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, n_rows, _TABLE_CHUNK):
            cells = [
                list(map(repr, column))
                for c in columns
                for column in c[start : start + _TABLE_CHUNK].T.tolist()
            ]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_csv(dataset: LabeledDataset, path) -> None:
    """Write ``x1,...,xn,label`` rows with lossless float formatting."""
    header = [f"x{i + 1}" for i in range(dataset.n)] + ["label"]
    write_table(path, header, dataset.points, dataset.labels)


def read_csv(path) -> LabeledDataset:
    """Read a labeled dataset, reporting the line number of any bad cell."""
    return LabeledDataset(*_read_rows(path, require_label=True))


def read_points_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read query points; the label column is optional and passed through."""
    return _read_rows(path, require_label=False)


def _read_rows(path, require_label):
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    has_label = header[-1] == "label"
    if require_label and not has_label:
        raise DataError(f"{path}: last header column must be 'label'")
    n = len(header) - (1 if has_label else 0)
    if n < 1:
        raise DataError(f"{path}: no feature columns")
    rows = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} cells, "
                f"got {len(cells)}"
            )
        try:
            coords = [float(c) for c in cells[:n]]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric cell") from None
        if has_label:
            raw = cells[-1].strip()
            try:
                value = float(raw)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: non-numeric label"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path}: line {lineno}: non-finite label")
            if value != int(value):
                raise DataError(f"{path}: line {lineno}: non-integer label")
            if value < 1:
                raise DataError(f"label < 1 at line {lineno} of {path}")
            labels.append(int(value))
        rows.append(coords)
    if not rows:
        raise DataError(f"{path}: no data rows")
    points = np.asarray(rows, dtype=np.float64)
    label_arr = np.asarray(labels, dtype=np.int64) if has_label else None
    return points, label_arr
