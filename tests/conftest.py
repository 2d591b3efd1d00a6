"""Shared helpers for building random measures and datasets."""

import json
import struct

import numpy as np
import pytest

from cfkit import EmpiricalMeasure, LabeledDataset, ShapeSpec, fit, gen_shapes
from cfkit.christoffel import EVAL_CHUNK

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
    "class-missing": lambda h: {**h, "classes": h["classes"][:-1]},
    "reject-text": lambda h: {**h, "reject_threshold": "high"},
    "eigenvectors-flat": lambda h: {
        **h,
        "arrays": [
            {**a, "shape": [a["shape"][0] * a["shape"][1]]}
            if a["name"] == "eigenvectors_1" else a
            for a in h["arrays"]
        ],
    },
}


def rewrite_header(path, edit):
    """Replace the JSON header of the model file at ``path`` by ``edit(header)``."""
    raw = path.read_bytes()
    start = len(b"CFKIT-MODEL 1\n") + 8
    (length,) = struct.unpack("<Q", raw[start - 8 : start])
    header = json.dumps(edit(json.loads(raw[start : start + length]))).encode()
    path.write_bytes(
        raw[: start - 8] + struct.pack("<Q", len(header)) + header + raw[start + length :]
    )


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


def chunk_crossing_queries():
    """Points of the three shapes: one full scoring chunk plus a partial one."""
    queries = gen_shapes(THREE_SHAPES, (EVAL_CHUNK + 37) // 3 + 1, seed=12).points
    assert queries.shape[0] > EVAL_CHUNK and queries.shape[0] % EVAL_CHUNK
    return queries


@pytest.fixture(scope="session")
def rank_deficient():
    """Training data and a t = 5 model of a circle, the annulus and the box.

    Class 1 lies on the circle of centre (-3, 0) and radius 1.  Polynomials
    of degree <= t restricted to a conic span 2t + 1 dimensions, so its
    moment matrix has rank 11 of 21 whatever the sample size, and points
    off the circle score 0.  The annulus keeps full rank and scores > 0.
    """
    degree, count = 5, 1500
    angles = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, count)
    circle = np.stack([np.cos(angles) - 3.0, np.sin(angles)], axis=1)
    rest = gen_shapes(THREE_SHAPES[1:], count, seed=11)
    train = LabeledDataset(
        np.vstack([circle, rest.points]),
        np.concatenate([np.ones(count, dtype=np.int64), rest.labels]),
    )
    model = fit(train, degree=degree)
    circle_ev = model.evaluators[0]
    assert (circle_ev.rank, circle_ev.basis.size) == (2 * degree + 1, 21)
    return train, model


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
