"""Superlevel sets as support estimates, and overlap detection.

Scores a grid with per-class Christoffel functions and thresholds each
class at its level: a cell is in the class's superlevel set when its
inverse score is at most 3 times the mean over the class's own training
points, a mean that the fitted factor gives without a pass over them.  For disjoint
classes the thresholded regions stay disjoint; for overlapping classes
the intersection cells concentrate where the supports truly intersect,
which is the geometric signal that class regions are not separable.
"""

import numpy as np

from cfkit import ShapeSpec, fit, gen_shapes, level_scores, scores_batch


def levelset_overlap(specs, title):
    print(f"=== {title} ===")
    train = gen_shapes(specs, 500, seed=21)
    model = fit(train, degree=4)
    levels = level_scores(model)
    print(f"per-class score levels: {np.array2string(levels, precision=5)}")
    xs = np.linspace(-3.2, 3.2, 65)
    ys = np.linspace(-1.3, 1.3, 27)
    mesh = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    member = scores_batch(model, grid) >= levels
    both = member[:, 0] & member[:, 1]
    print(f"cells: {grid.shape[0]}, in G1: {member[:, 0].sum()}, "
          f"in G2: {member[:, 1].sum()}, in both: {both.sum()}")
    if both.any():
        cells = grid[both]
        print(f"overlap cells span x in [{cells[:, 0].min():+.2f}, "
              f"{cells[:, 0].max():+.2f}], y in [{cells[:, 1].min():+.2f}, "
              f"{cells[:, 1].max():+.2f}]")
    print()


levelset_overlap(
    [
        ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
        ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
    ],
    "Disjoint disks at (-2, 0) and (2, 0)",
)

levelset_overlap(
    [
        ShapeSpec(kind="disk", label=1, center=(-0.5, 0.0), radius=1.0),
        ShapeSpec(kind="disk", label=2, center=(0.5, 0.0), radius=1.0),
    ],
    "Overlapping disks at (-0.5, 0) and (0.5, 0)",
)

print("the true intersection of the overlapping pair is the lens "
      "|x| <= 0.5-ish, |y| <= 0.87; the flagged cells sit inside it")
