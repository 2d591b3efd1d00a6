"""Shared helpers for building random measures and datasets."""

import numpy as np
import pytest

from cfkit import EmpiricalMeasure, LabeledDataset


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
