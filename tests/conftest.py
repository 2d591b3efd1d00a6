"""Shared helpers for building random measures and datasets."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from cfkit import (
    EmpiricalMeasure,
    LabeledDataset,
    ShapeSpec,
    ThresholdPolicy,
    class_split,
    fit,
    gen_shapes,
)
from cfkit.christoffel import inverse_scores
from cfkit.moments import EVAL_CHUNK

THREE_SHAPES = [
    ShapeSpec(kind="disk", label=1, center=(-3.0, 0.0), radius=1.0),
    ShapeSpec(kind="annulus", label=2, center=(0.0, 0.0), inner=0.5, outer=1.0),
    ShapeSpec(kind="box", label=3, low=(2.0, -1.0), high=(4.0, 1.0)),
]


def random_measure(rng, n, n_points):
    """Uniform-weight probability measure on random points in [-1, 1]^n."""
    pts = rng.uniform(-1.0, 1.0, size=(n_points, n))
    return EmpiricalMeasure(pts, np.full(n_points, 1.0 / n_points), mass=1.0)


def random_joint_dataset(rng, n, m, per_class):
    """Labeled cloud with ``per_class[j]`` points in class j+1, in [-1, 1]^n."""
    blocks = []
    labels = []
    for j, count in enumerate(per_class, start=1):
        center = rng.uniform(-0.5, 0.5, size=n)
        blocks.append(center + rng.uniform(-0.5, 0.5, size=(count, n)))
        labels.append(np.full(count, j, dtype=np.int64))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels), m=m)


def separated_points(rng, count, n, min_gap, low=-1.0, high=1.0):
    """Uniform points redrawn until all pairwise distances reach ``min_gap``.

    Clustered atoms make moment matrices so ill conditioned that rank
    detection at the default spectrum threshold becomes ambiguous; the
    separation floor keeps randomized comparisons numerically well posed.
    """
    while True:
        pts = rng.uniform(low, high, size=(count, n))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1)) + np.eye(count)
        if dist.min() >= min_gap:
            return pts


# Lengths a model file is cut to: inside the 8-byte header length (which
# follows the 14-byte magic line), inside the JSON header, inside the
# array payload.
MODEL_CUTS = {"length": 18, "header": 40, "payload": -4}


def _each_class(header, **fields):
    """The class entries of a model header with ``fields`` replaced."""
    return [{**entry, **fields} for entry in header["classes"]]


# Header edits that leave a model file well framed but its header
# missing keys or holding ill-typed or inconsistent values.
MALFORMED_HEADERS = {
    "format-only": lambda h: {"format": 1},
    "not-an-object": lambda h: [h],
    "no-arrays": lambda h: {k: v for k, v in h.items() if k != "arrays"},
    "arrays-number": lambda h: {**h, "arrays": 5},
    "n-text": lambda h: {**h, "n": "two"},
    "degree-zero": lambda h: {**h, "degree": 0},
    "policy-null": lambda h: {**h, "policy": None},
    "policy-nan": lambda h: {**h, "policy": {**h["policy"], "value": float("nan")}},
    "policy-true": lambda h: {**h, "policy": {**h["policy"], "value": True}},
    "policy-tikhonov-zero": lambda h: {**h, "policy": {"mode": "tikhonov", "value": 0.0}},
    "class-missing": lambda h: {**h, "classes": h["classes"][:-1]},
    "reject-text": lambda h: {**h, "reject_threshold": "high"},
    "reject-true": lambda h: {**h, "reject_threshold": True},
    "prior-text": lambda h: {**h, "class_prior_weights": "yes"},
    "prior-number": lambda h: {**h, "class_prior_weights": 2},
    "threshold-text": lambda h: {**h, "classes": _each_class(h, threshold="1e-3")},
    "threshold-negative": lambda h: {**h, "classes": _each_class(h, threshold=-1e-3)},
    "mass-true": lambda h: {**h, "classes": _each_class(h, mass=True)},
    "mass-past-float": lambda h: {**h, "classes": _each_class(h, mass=10**400)},
    "eigenvectors-flat": lambda h: reshape_array(h, "eigenvectors_1", lambda r, c: [r * c]),
    "factor-flat": lambda h: reshape_array(h, "factor_1", lambda r, c: [r * c]),
    "factor-not-square": lambda h: reshape_array(h, "factor_1", lambda r, c: [r, c - 1]),
    "factor-one-row-short": lambda h: reshape_array(h, "factor_2", lambda r, c: [r - 1, c - 1]),
    "factor-missing": lambda h: {
        **h, "arrays": [a for a in h["arrays"] if a["name"] != "factor_2"]
    },
    "factor-under-rel": lambda h: {**h, "policy": {"mode": "rel", "value": 1e-10}},
    "factor-threshold": lambda h: {**h, "classes": _each_class(h, threshold=7.0)},
}


def reshape_array(header, name, shape):
    """``header`` with the stored (rows, columns) shape of array ``name``
    replaced by ``shape(rows, columns)``."""
    arrays = [{**a, "shape": shape(*a["shape"])} if a["name"] == name else a
              for a in header["arrays"]]
    assert arrays != header["arrays"], f"no array {name}"
    return {**header, "arrays": arrays}


def rewrite_header(path, edit):
    """Replace the JSON header of the model file at ``path`` by ``edit(header)``."""
    raw = path.read_bytes()
    start = len(b"CFKIT-MODEL 1\n") + 8
    (length,) = struct.unpack("<Q", raw[start - 8 : start])
    header = json.dumps(edit(json.loads(raw[start : start + length]))).encode()
    path.write_bytes(
        raw[: start - 8] + struct.pack("<Q", len(header)) + header + raw[start + length :]
    )


def set_model_float(path, name, value, index=0):
    """Overwrite float ``index`` (in row-major order) of the payload array
    ``name`` of a model file."""
    raw = bytearray(path.read_bytes())
    start = len(b"CFKIT-MODEL 1\n") + 8
    (length,) = struct.unpack("<Q", raw[start - 8 : start])
    header = json.loads(raw[start : start + length])
    (entry,) = [a for a in header["arrays"] if a["name"] == name]
    at = start + length + entry["offset"] + 8 * index
    raw[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))


def reference_table(header, *blocks):
    """CSV bytes formatted cell by cell: floats as ``repr``, the rest as ints."""
    blocks = [np.asarray(b).reshape(len(b), -1) for b in blocks]
    lines = [",".join(header)]
    for i in range(len(blocks[0])):
        cells = []
        for block in blocks:
            if block.dtype.kind == "f":
                cells += [repr(float(v)) for v in block[i]]
            else:
                cells += [str(int(v)) for v in block[i]]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def traced_peak(call, *args, **kwargs):
    """The result of a call and the peak bytes that tracemalloc (which sees
    numpy buffers) records while it runs."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def own_levels(model, data):
    """Each class's level ``mass_j / (3 * sum_i w_i q_j(x_i))``, summed over
    the class's own training points, scaled and weighted as the fit did."""
    scaled = LabeledDataset(model.transform.forward(data.points), data.labels, m=data.m)
    measures = class_split(scaled, class_prior_weights=model.class_prior_weights)
    return np.array([
        ev.mass / (3.0 * (measure.weights @ inverse_scores([ev], measure.points)[:, 0]))
        for ev, measure in zip(model.evaluators, measures)
    ])


def chunk_crossing_queries():
    """Points of the three shapes: one full ``EVAL_CHUNK`` block plus a partial
    one, so they cross a block boundary in every basis (a basis of more than
    32 entries takes shorter blocks)."""
    queries = gen_shapes(THREE_SHAPES, (EVAL_CHUNK + 37) // 3 + 1, seed=12).points
    assert queries.shape[0] > EVAL_CHUNK and queries.shape[0] % EVAL_CHUNK
    return queries


@pytest.fixture(scope="session")
def rank_deficient():
    """Training data and a t = 5 model of a circle, the annulus and the box.

    Class 1 lies on the circle of centre (-3, 0) and radius 1.  Polynomials
    of degree <= t restricted to a conic span 2t + 1 dimensions, so its
    moment matrix has rank 11 of 21 whatever the sample size, and under the
    exact rule (``ThresholdPolicy()``) points off the circle score 0.  The annulus keeps full rank and scores > 0.
    """
    degree, count = 5, 1500
    angles = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, count)
    circle = np.stack([np.cos(angles) - 3.0, np.sin(angles)], axis=1)
    rest = gen_shapes(THREE_SHAPES[1:], count, seed=11)
    train = LabeledDataset(
        np.vstack([circle, rest.points]),
        np.concatenate([np.ones(count, dtype=np.int64), rest.labels]),
    )
    model = fit(train, degree=degree, policy=ThresholdPolicy())
    circle_ev = model.evaluators[0]
    assert (circle_ev.rank, circle_ev.basis.size) == (2 * degree + 1, 21)
    return train, model


@pytest.fixture
def no_eigen_routines(monkeypatch):
    """numpy.linalg's eigen, SVD and QR routines, patched to raise."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an eigen, SVD or QR routine was called")

    for name in ("eigh", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, unreachable)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
