"""Synthetic labeled point clouds, CSV input/output, scaling, and splits.

Random generation uses ``numpy.random.default_rng`` (the PCG64 generator)
with a caller-supplied 64-bit seed; the same seed always reproduces the
same dataset byte for byte.  Disks and annuli are sampled by rejection
from their bounding box, which keeps the distribution exactly uniform.

CSV schema: a single header row ``x1,...,xn,label`` with the label column
last, labels being integers >= 1; no comment lines; ASCII only.  Lines end
at ``\n``, ``\r\n`` or ``\r``, and at no other character.  Floats
are written with shortest round-trip precision, so write followed by read
is lossless.  Every numeric CSV table the package writes goes through
:func:`write_table`, which formats each distinct value of a column once
per chunk of rows.

Reading converts all cells of a table in one numpy call, which parses
each cell with Python ``float``.  Only a table that fails a check (a line
with the wrong number of cells, a blank line, a cell ``float`` rejects, a
non-finite coordinate, a label that is not an integer in ``1 .. 2**63 -
1``) is parsed again line by line.  That parser skips blank lines, and it
alone writes parse errors, naming the file and the first bad line.  A
non-ASCII byte is reported with its file and line too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .moments import LabeledDataset, row_blocks, valid_labels


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
        # In Python floats, which overflow to inf silently.  A non-finite
        # coordinate or radius makes some width inf or nan too.
        if self.kind == "box":
            extent = zip(map(float, self.low), map(float, self.high))
        else:
            extent = ((float(c) - self._reach, float(c) + self._reach) for c in self.center)
        if not all(math.isfinite(hi - lo) for lo, hi in extent):
            raise DataError("shape coordinates, radii and bounding-box widths must be finite")

    @property
    def _reach(self) -> float:
        """The outer radius of a disk or annulus."""
        return float(self.radius if self.kind == "disk" else self.outer)

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return len(self.low)
        return len(self.center)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "box":
            return np.asarray(self.low, float), np.asarray(self.high, float)
        c = np.asarray(self.center, float)
        return c - self._reach, c + self._reach

    def contains(self, points) -> np.ndarray:
        """Boolean mask of the rows of ``points`` inside the closed shape."""
        pts = np.atleast_2d(np.asarray(points, float))
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return np.all((pts >= lo) & (pts <= hi), axis=1)
        d = self._center_distance(pts)
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
        d = self._center_distance(pts)
        if self.kind == "disk":
            return np.abs(self.radius - d)
        return np.minimum(np.abs(d - self.inner), np.abs(self.outer - d))

    def _center_distance(self, pts) -> np.ndarray:
        """Distance of each row to the center.  Past a reach of 2**500, or
        below 2**-500, the offsets are divided by a power of two first, so
        their squares neither overflow nor underflow; that is exact, and a
        unit of 1 leaves the bits of the shapes in between as they are."""
        exponent = math.frexp(self._reach)[1]
        unit = 2.0 ** (exponent - 500 if exponent > 500 else min(0, exponent + 500))
        offsets = pts - np.asarray(self.center, float)
        offsets /= unit
        distance = np.linalg.norm(offsets, axis=1)
        distance *= unit
        return distance

    def volume(self) -> float:
        """n-dimensional volume; ``inf`` when it overflows and 0.0 when it
        underflows."""
        if self.kind == "box":
            lo, hi = self.bounding_box()
            return math.prod((hi - lo).tolist())
        n = self.dim
        unit_ball = np.pi ** (n / 2) / math.gamma(n / 2 + 1)
        try:
            if self.kind == "disk":
                return float(unit_ball * self.radius**n)
            return float(unit_ball * (self.outer**n - self.inner**n))
        except OverflowError:
            return math.inf


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
        # Disks and annuli have positive radii by construction (their volume
        # can still underflow to 0); only a box can be flat.
        if spec.kind == "box" and any(lo == hi for lo, hi in zip(spec.low, spec.high)):
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
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps!r}")
    pts = np.atleast_2d(np.asarray(points, float))
    keep = np.zeros(pts.shape[0], dtype=bool)
    for spec in specs:
        if spec.dim != pts.shape[1]:
            raise DataError(f"shape is {spec.dim}-D but the points are {pts.shape[1]}-D")
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

    A coordinate whose half-width has no finite inverse (a single
    distinct value, or a box narrower than about 1e-308) is only
    recentered (scale 1), so the transform stays invertible.
    """
    # One column at a time: numpy reduces the short axis of (rows, n) slowly.
    lo = np.array([column.min() for column in dataset.points.T])
    hi = np.array([column.max() for column in dataset.points.T])
    # Halves, so that no finite box overflows; scaling by 0.5 is exact.
    half = 0.5 * hi - 0.5 * lo
    with np.errstate(divide="ignore", over="ignore"):
        scale = 1.0 / half
    scale[~np.isfinite(scale)] = 1.0
    center = 0.5 * lo + 0.5 * hi
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


def write_table(path, header, *blocks) -> None:
    """Write a CSV table: the ``header`` row, then the rows of ``blocks`` side by side.

    Each block is a 1-D column or a 2-D array of columns, all with the
    same number of rows.  Float columns are written as shortest
    round-trip ``repr``, integer and bool columns as integers; the file
    is ASCII with ``\n`` line endings.  Rows are formatted and written per
    ``moments.row_blocks`` block, which bounds the text held in memory, each
    distinct value of a block's column formatted once.
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
        for block in row_blocks(n_rows):
            cells = [_format_column(column) for c in columns for column in c[block].T]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _format_column(column):
    """The ``repr`` of each cell of a 1-D column, computed once per distinct value.

    Float cells are told apart by their bits, so ``-0.0`` and ``0.0`` stay
    distinct.  A column whose values are mostly distinct is formatted cell
    by cell, which is cheaper than gathering.
    """
    keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    ordered = np.sort(keys)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if 2 * distinct.size > column.size:
        return list(map(repr, column.tolist()))
    text = np.array(list(map(repr, distinct.view(column.dtype).tolist())), dtype=object)
    return text[np.searchsorted(distinct, keys)].tolist()


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


def read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file; a non-ASCII byte is reported with its line."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # The appended stand-in for the bad byte puts it on a new line when
        # a line break comes right before it.
        lineno = len(_split_lines(raw[: exc.start].decode("ascii") + "?"))
        raise DataError(f"{path}: line {lineno}: non-ASCII byte") from None
    return _split_lines(text)


def _split_lines(text: str) -> list[str]:
    r"""Lines ended by ``\n``, ``\r\n`` or ``\r``; a final line break ends the
    last line.  Unlike ``str.splitlines``, this keeps ``\v``, ``\f`` and
    ``\x1c``-``\x1e`` in their line; ``float`` reads ``\v`` and ``\f`` as
    white space and rejects the others."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _read_rows(path, require_label):
    lines = read_ascii_lines(path)
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    has_label = header[-1] == "label"
    if require_label and not has_label:
        raise DataError(f"{path}: last header column must be 'label'")
    n = len(header) - (1 if has_label else 0)
    if n < 1:
        raise DataError(f"{path}: no feature columns")
    table = _parse_bulk(lines[1:], len(header), n, has_label)
    if table is None:
        table = _parse_by_line(path, lines, len(header), n, has_label)
    return table


def _parse_bulk(body, width, n, has_label):
    """Parse every data line in one conversion, or return None.

    None means some line or cell is not plainly valid: a line with the
    wrong number of cells (a blank line has none, or one empty cell), a
    cell ``float`` rejects, a non-finite coordinate or a bad label.  Then
    :func:`_parse_by_line` parses again to report the first error with its
    line, so error text is produced in one place only.  numpy converts
    ``str`` cells with Python ``float``, so both parsers accept the same
    cells and give the same values.
    """
    commas = width - 1
    # Checked per line: a short row and a long row can balance in total.
    if not body or any(line.count(",") != commas for line in body):
        return None
    try:
        cells = np.array(",".join(body).split(","), dtype=np.float64)
    except ValueError:
        return None
    table = cells.reshape(len(body), width)
    points = np.ascontiguousarray(table[:, :n])
    # min and max propagate nan and reach inf without a temporary array.
    if not (np.isfinite(points.min()) and np.isfinite(points.max())):
        return None
    if not has_label:
        return points, None
    labels = table[:, n]
    if not valid_labels(labels):
        return None
    return points, labels.astype(np.int64)


def _label_fault(value: float) -> str:
    """Why a label that fails ``valid_labels`` fails it."""
    if not math.isfinite(value):
        return "non-finite label"
    if value != int(value):
        return "non-integer label"
    return "label < 1" if value < 1 else "label too large"


def _parse_by_line(path, lines, width, n, has_label):
    """Parse line by line, raising a ``DataError`` that names the first bad line."""
    rows = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} cells, "
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
            if not valid_labels(value):
                raise DataError(f"{path}: line {lineno}: {_label_fault(value)}")
            labels.append(int(value))
        rows.append(coords)
    if not rows:
        raise DataError(f"{path}: no data rows")
    points = np.asarray(rows, dtype=np.float64)
    # min and max propagate nan and reach inf without a temporary array.
    if not (np.isfinite(points.min()) and np.isfinite(points.max())):
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))[0]
        # Row i came from the i-th non-blank data line.
        data_lines = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
        raise DataError(f"{path}: line {data_lines[bad]}: non-finite coordinate")
    label_arr = np.asarray(labels, dtype=np.int64) if has_label else None
    return points, label_arr
