"""Shape sampling, interior filtering, scaling, CSV round trips, splits."""

import re

import numpy as np
import pytest
from scipy.stats import chi2

from cfkit import (
    AffineTransform,
    DataError,
    LabeledDataset,
    ShapeSpec,
    epsilon_interior,
    epsilon_interior_mask,
    gen_shapes,
    read_csv,
    read_points_csv,
    scale_to_unit_box,
    train_test_split,
    write_csv,
)
from cfkit import datasets
from cfkit.datasets import _read_rows, write_table
from cfkit.moments import EVAL_CHUNK
from conftest import reference_table

DISK = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1.0)
TWO_DISKS = [
    ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
    ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
]


class TestShapeSpec:
    def test_validation(self):
        with pytest.raises(DataError):
            ShapeSpec(kind="disk", label=1, center=(0.0,), radius=-1.0)
        with pytest.raises(DataError):
            ShapeSpec(kind="annulus", label=1, center=(0.0,), inner=2.0, outer=1.0)
        with pytest.raises(DataError):
            ShapeSpec(kind="box", label=1, low=(1.0,), high=(0.0,))
        with pytest.raises(DataError):
            ShapeSpec(kind="blob", label=1)
        with pytest.raises(DataError):
            ShapeSpec(kind="disk", label=0, center=(0.0,), radius=1.0)

    def test_volume(self):
        assert DISK.volume() == pytest.approx(np.pi)
        ring = ShapeSpec(
            kind="annulus", label=1, center=(0.0, 0.0), inner=1.0, outer=2.0
        )
        assert ring.volume() == pytest.approx(3 * np.pi)
        box = ShapeSpec(kind="box", label=1, low=(0.0, 0.0), high=(2.0, 3.0))
        assert box.volume() == pytest.approx(6.0)

    def test_volume_overflows_to_inf(self):
        disk = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1e200)
        assert disk.volume() == np.inf
        ring = ShapeSpec(kind="annulus", label=1, center=(0.0,) * 3, inner=1e150, outer=1e200)
        assert ring.volume() == np.inf
        box = ShapeSpec(kind="box", label=1, low=(0.0, 0.0), high=(1e200, 1e200))
        assert box.volume() == np.inf

    def test_flat_box_constructs(self):
        flat = ShapeSpec(kind="box", label=1, low=(0.0, 1.0), high=(1.0, 1.0))
        assert flat.volume() == 0.0

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "disk", "center": (0.0, 0.0), "radius": np.nan},
            {"kind": "disk", "center": (0.0, np.inf), "radius": 1.0},
            {"kind": "disk", "center": (1e308, 0.0), "radius": 1e308},
            {"kind": "annulus", "center": (0.0,), "inner": 1.0, "outer": np.inf},
            {"kind": "box", "low": (np.nan, 0.0), "high": (1.0, 1.0)},
            {"kind": "box", "low": (-np.inf,), "high": (np.inf,)},
            {"kind": "box", "low": (np.inf,), "high": (np.inf,)},
        ],
    )
    def test_non_finite_extent_rejected(self, fields):
        with pytest.raises(DataError, match="must be finite"):
            ShapeSpec(label=1, **fields)

    def test_huge_radius_distances_do_not_overflow(self):
        disk = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1e200)
        pts = np.array([[6e199, 8e199], [1e200, 1e200], [0.0, 0.0]])
        np.testing.assert_array_equal(disk.contains(pts), [True, False, True])
        np.testing.assert_allclose(
            disk.boundary_distance(pts), [0.0, (2**0.5 - 1) * 1e200, 1e200], atol=1e185
        )

    def test_tiny_radius_distances_do_not_underflow(self):
        disk = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1e-170)
        pts = np.array([[6e-171, 8e-171], [0.9e-170, 0.9e-170], [0.0, 0.0]])
        np.testing.assert_array_equal(disk.contains(pts), [True, False, True])
        np.testing.assert_allclose(
            disk.boundary_distance(pts), [0.0, (0.9 * 2**0.5 - 1) * 1e-170, 1e-170],
            rtol=0, atol=1e-185,
        )

    def test_ball_volume_3d(self):
        ball = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0, 0.0), radius=2.0)
        assert ball.volume() == pytest.approx(4.0 / 3.0 * np.pi * 8.0)


class TestGenShapes:
    def test_points_inside_disk(self):
        data = gen_shapes([DISK], 1000, seed=3)
        assert np.all(np.linalg.norm(data.points, axis=1) <= 1.0)
        assert data.n_points == 1000

    def test_disjoint_disks_stay_disjoint(self):
        data = gen_shapes(TWO_DISKS, 500, seed=5)
        in_first = TWO_DISKS[0].contains(data.points)
        in_second = TWO_DISKS[1].contains(data.points)
        assert not np.any(in_first & in_second)
        np.testing.assert_array_equal(np.where(in_first, 1, 2), data.labels)

    def test_same_seed_reproduces(self, tmp_path):
        a = gen_shapes(TWO_DISKS, 100, seed=42)
        b = gen_shapes(TWO_DISKS, 100, seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, path_a)
        write_csv(b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_tiny_disk_samples_inside_its_radius(self):
        tiny = ShapeSpec(kind="disk", label=1, center=(0.0, 0.0), radius=1e-170)
        assert tiny.volume() == 0.0
        data = gen_shapes([tiny], 500, seed=4)
        scaled = data.points / 1e-170
        assert np.all(np.hypot(*scaled.T) <= 1.0 + 1e-15)
        assert np.any(np.hypot(*scaled.T) > 0.9)

    def test_zero_area_rejected(self):
        flat = ShapeSpec(kind="box", label=1, low=(0.0, 0.0), high=(1.0, 0.0))
        with pytest.raises(DataError, match="zero area"):
            gen_shapes([flat], 10, seed=0)

    def test_empty_specs_rejected(self):
        with pytest.raises(DataError):
            gen_shapes([], 10, seed=0)

    @pytest.mark.parametrize(
        "spec",
        [
            DISK,
            ShapeSpec(kind="annulus", label=1, center=(1.0, -1.0), inner=0.5, outer=1.5),
            ShapeSpec(kind="box", label=1, low=(-1.0, 0.0), high=(2.0, 1.0)),
        ],
        ids=["disk", "annulus", "box"],
    )
    def test_uniformity_chi_squared(self, spec):
        # occupancy over a 4x4 grid on the bounding box, expected counts from
        # the cell/shape overlap fractions integrated on a fine subgrid
        data = gen_shapes([spec], 10000, seed=99)
        lo, hi = spec.bounding_box()
        edges = [np.linspace(lo[d], hi[d], 5) for d in range(2)]
        counts, *_ = np.histogram2d(
            data.points[:, 0], data.points[:, 1], bins=edges
        )
        fine = 400
        cx = np.linspace(lo[0], hi[0], fine, endpoint=False) + (hi[0] - lo[0]) / fine / 2
        cy = np.linspace(lo[1], hi[1], fine, endpoint=False) + (hi[1] - lo[1]) / fine / 2
        mesh = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
        inside = spec.contains(mesh).reshape(fine, fine)
        cell = fine // 4
        prob = np.array(
            [
                [
                    inside[i * cell : (i + 1) * cell, j * cell : (j + 1) * cell].mean()
                    for j in range(4)
                ]
                for i in range(4)
            ]
        )
        prob = prob / prob.sum()
        expected = prob * 10000
        mask = expected > 0
        stat = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        p_value = chi2.sf(stat, df=mask.sum() - 1)
        assert p_value > 0.001


class TestEpsilonInterior:
    def test_pointwise_examples(self):
        assert epsilon_interior_mask([[0.5, 0.0]], [DISK], 0.4)[0]
        assert not epsilon_interior_mask([[0.95, 0.0]], [DISK], 0.1)[0]

    def test_eps_zero_keeps_strict_interior(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.999, 0.0]])
        mask = epsilon_interior_mask(pts, [DISK], 0.0)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_monotone_in_eps(self, rng):
        data = gen_shapes([DISK], 500, seed=1)
        previous = None
        for eps in (0.0, 0.1, 0.3, 0.6, 0.9):
            mask = epsilon_interior_mask(data.points, [DISK], eps, data.labels)
            if previous is not None:
                assert np.all(previous | ~mask)  # shrinking sets
                assert mask.sum() <= previous.sum()
            previous = mask

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -1.0])
    def test_eps_must_be_finite_and_nonnegative(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            epsilon_interior_mask([[0.5, 0.0]], [DISK], eps)

    def test_diameter_eps_empty(self):
        data = gen_shapes([DISK], 200, seed=2)
        mask = epsilon_interior_mask(data.points, [DISK], 2.0, data.labels)
        assert mask.sum() == 0
        with pytest.raises(DataError):
            epsilon_interior(data, [DISK], 2.0)

    def test_respects_labels(self):
        pts = np.array([[-2.0, 0.0], [2.0, 0.0]])
        mask = epsilon_interior_mask(pts, TWO_DISKS, 0.1, labels=[2, 1])
        np.testing.assert_array_equal(mask, [False, False])

    def test_annulus_distance(self):
        ring = ShapeSpec(
            kind="annulus", label=1, center=(0.0, 0.0), inner=1.0, outer=2.0
        )
        np.testing.assert_allclose(
            ring.boundary_distance([[1.4, 0.0], [0.5, 0.0]]), [0.4, 0.5]
        )

    def test_box_distance(self):
        box = ShapeSpec(kind="box", label=1, low=(0.0, 0.0), high=(4.0, 2.0))
        np.testing.assert_allclose(
            box.boundary_distance([[1.0, 1.0], [3.9, 0.5]]), [1.0, 0.1]
        )


class TestScaleToUnitBox:
    def test_two_values_map_to_endpoints(self):
        data = LabeledDataset(np.array([[0.0], [10.0]]), [1, 1])
        scaled, transform = scale_to_unit_box(data)
        np.testing.assert_array_equal(scaled.points.ravel(), [-1.0, 1.0])
        np.testing.assert_allclose(transform.inverse(scaled.points), data.points)

    def test_constant_coordinate_centered(self):
        data = LabeledDataset(np.array([[3.0, 1.0], [3.0, 2.0]]), [1, 1])
        scaled, transform = scale_to_unit_box(data)
        np.testing.assert_array_equal(scaled.points[:, 0], [0.0, 0.0])
        assert transform.scale[0] == 1.0
        np.testing.assert_allclose(transform.inverse(scaled.points), data.points)

    def test_subnormal_width_gets_scale_one(self):
        # 1 / half-width overflows here; warnings are errors in this suite.
        data = LabeledDataset(np.array([[0.0, 1.0], [5e-310, 2.0]]), [1, 1])
        scaled, transform = scale_to_unit_box(data)
        np.testing.assert_array_equal(transform.scale, [1.0, 2.0])
        np.testing.assert_array_equal(scaled.points[:, 1], [-1.0, 1.0])

    def test_round_trip_random(self, rng):
        pts = rng.normal(scale=50.0, size=(40, 3))
        data = LabeledDataset(pts, np.ones(40, dtype=int))
        scaled, transform = scale_to_unit_box(data)
        assert scaled.points.min() >= -1.0 - 1e-12
        assert scaled.points.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(
            transform.inverse(scaled.points), pts, rtol=1e-12, atol=1e-12
        )

    def test_identity_transform(self):
        ident = AffineTransform.identity(2)
        pts = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(ident.forward(pts), pts)


class TestCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,label\n0.5,1\n")
        data = read_csv(path)
        assert data.n_points == 1 and data.n == 1 and data.m == 1
        assert data.points[0, 0] == 0.5

    def test_write_read_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(25, 2)) * np.pi
        data = LabeledDataset(pts, rng.integers(1, 4, size=25))
        path = tmp_path / "round.csv"
        write_csv(data, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_label_below_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,label\n0.5,0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: line 2: label < 1")):
            read_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2,label\n0.5,1.0,1\n0.5,1\n")
        with pytest.raises(DataError, match="line 3"):
            read_csv(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("x1,label\nblah,1\n")
        with pytest.raises(DataError, match="line 2"):
            read_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("x1,label\n0.5,1.5\n")
        with pytest.raises(DataError, match="non-integer label"):
            read_csv(path)

    @pytest.mark.parametrize("label", ["inf", "nan", "-inf"])
    def test_non_finite_label_reports_line(self, tmp_path, label):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"x1,label\n0.5,1\n0.25,{label}\n")
        message = re.escape(f"{path}: line 3: non-finite label")
        with pytest.raises(DataError, match=message):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("reader", [read_csv, read_points_csv])
    def test_non_finite_coordinate_reports_line(self, tmp_path, reader, cell):
        path = tmp_path / "nonfinite.csv"
        # the blank line 3 is skipped but still counted
        path.write_text(f"x1,x2,label\n0.5,0.5,1\n\n0.25,{cell},2\n")
        message = re.escape(f"{path}: line 4: non-finite coordinate")
        with pytest.raises(DataError, match=message):
            reader(path)

    def test_points_csv_without_label(self, tmp_path):
        path = tmp_path / "queries.csv"
        path.write_text("x1,x2\n0.5,1.0\n")
        points, labels = read_points_csv(path)
        assert labels is None
        np.testing.assert_array_equal(points, [[0.5, 1.0]])

    def test_missing_label_header(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("x1,x2\n0.5,1.0\n")
        with pytest.raises(DataError, match="label"):
            read_csv(path)

    @pytest.mark.parametrize("reader", [read_csv, read_points_csv])
    def test_non_ascii_byte_reports_line(self, tmp_path, reader):
        path = tmp_path / "accent.csv"
        path.write_bytes("x1,label\n0.5,1\n\n0.25,2\u00e9\n".encode("utf-8"))
        message = re.escape(f"{path}: line 4: non-ASCII byte")
        with pytest.raises(DataError, match=message):
            reader(path)

    def test_non_ascii_byte_after_a_form_feed_reports_its_line(self, tmp_path):
        path = tmp_path / "accent.csv"
        path.write_bytes("x1,label\n\f0.5,1\n0.25,2\u00e9\n".encode("utf-8"))
        message = re.escape(f"{path}: line 3: non-ASCII byte")
        with pytest.raises(DataError, match=message):
            read_csv(path)

    def test_form_feed_and_vertical_tab_stay_in_their_line(self, tmp_path):
        path = tmp_path / "ff.csv"
        path.write_text("x1,x2,label\n0.5,0.5,1\n1,\f1,2\n\v0.25,0.5,1\n")
        data = read_csv(path)
        np.testing.assert_array_equal(data.points, [[0.5, 0.5], [1.0, 1.0], [0.25, 0.5]])
        np.testing.assert_array_equal(data.labels, [1, 2, 1])

    def test_error_after_a_form_feed_names_its_line(self, tmp_path):
        path = tmp_path / "ff.csv"
        path.write_text("x1,x2,label\n0.5,\f0.5,1\n1,1\n")
        message = re.escape(f"{path}: line 3: expected 3 cells, got 2")
        with pytest.raises(DataError, match=message):
            read_csv(path)

    @pytest.mark.parametrize("reader", [read_csv, read_points_csv])
    def test_byte_order_mark_reports_line_one(self, tmp_path, reader):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx1,label\r\n0.5,1\r\n")
        message = re.escape(f"{path}: line 1: non-ASCII byte")
        with pytest.raises(DataError, match=message):
            reader(path)


# Inputs for the bulk parser against the line-by-line one: (text, labels
# required, taken by the bulk parser).  The bulk parser takes only files
# it can read as a whole; everything else goes line by line.
READER_CASES = {
    "blank-lines": ("x1,label\n0.5,1\n\n   \n0.25,2\n\n", True, False),
    "blank-before-error": ("x1,x2,label\n0.5,0.5,1\n\n \n0.5,bad,1\n", True, False),
    "blank-single-column": ("x1\n0.5\n\n0.25\n", False, False),
    "crlf": ("x1,x2,label\r\n0.5,-0.0,1\r\n0.25,0.75,2\r\n", True, True),
    "cr": ("x1,x2,label\r0.5,-0.0,1\r0.25,0.75,2", True, True),
    "form-feed-vertical-tab": ("x1,x2,label\n0.5,\f1,1\n\v0.25,0.75,2\n", True, True),
    "spaces-underscores": ("x1,x2,label\n 0.5 , 1_000 , 1 \n\t2,3 ,2\n", True, True),
    "coordinate-inf": ("x1,x2,label\n0.5,0.5,1\n0.25,inf,2\n", True, False),
    "coordinate-nan": ("x1,x2,label\n0.5,0.5,1\n0.25,nan,2\n", True, False),
    "coordinate-minus-inf": ("x1,x2\n0.5,0.5\n-inf,0.25\n", False, False),
    "label-inf": ("x1,label\n0.5,1\n0.25,inf\n", True, False),
    "label-nan": ("x1,label\n0.5,1\n0.25,nan\n", True, False),
    "label-minus-inf": ("x1,label\n0.5,1\n0.25,-inf\n", True, False),
    "label-2.0": ("x1,label\n0.5,1\n0.25,2.0\n", True, True),
    "label-0": ("x1,label\n0.5,1\n0.25,0\n", True, False),
    "label-1.5": ("x1,label\n0.5,1\n0.25,1.5\n", True, False),
    "label-1e300": ("x1,label\n0.5,1\n0.25,1e300\n", True, False),
    "label-non-numeric": ("x1,label\n0.5,one\n", True, False),
    "trailing-comma": ("x1,label\n0.5,1,\n", True, False),
    # Six cells read as two rows of three hold valid points and labels;
    # only the per-line count shows that line 2 is short.
    "short-then-long": ("x1,x2,label\n0.5,1\n2,0.5,0.5,1\n", True, False),
    "header-only": ("x1,label\n", True, False),
    "empty": ("", True, False),
    "no-label-column": ("x1,x2\n0.5,1.0\n-0.0,2\n", False, True),
    "optional-label-present": ("x1,x2,label\n0.5,1.0,3\n", False, True),
    "label-required-missing": ("x1,x2\n0.5,1.0\n", True, False),
}


def _outcome(path, require_label):
    try:
        return _read_rows(path, require_label)
    except DataError as exc:
        return str(exc)


class TestBulkReader:
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_matches_line_by_line_parser(self, tmp_path, monkeypatch, case):
        text, require_label, bulk = READER_CASES[case]
        path = tmp_path / f"{case}.csv"
        path.write_bytes(text.encode("ascii"))
        taken = []
        parse_bulk = datasets._parse_bulk

        def spy(*args):
            table = parse_bulk(*args)
            taken.append(table is not None)
            return table

        monkeypatch.setattr(datasets, "_parse_bulk", spy)
        fast = _outcome(path, require_label)
        assert any(taken) == bulk
        monkeypatch.setattr(datasets, "_parse_bulk", lambda *args: None)
        slow = _outcome(path, require_label)
        if isinstance(slow, str):
            assert fast == slow
            return
        for got, want in zip(fast, slow):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_short_then_long_reports_short_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(READER_CASES["short-then-long"][0])
        message = re.escape(f"{path}: line 2: expected 3 cells, got 2")
        with pytest.raises(DataError, match=message):
            read_csv(path)

    def test_huge_label_is_data_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(READER_CASES["label-1e300"][0])
        with pytest.raises(DataError, match=re.escape(f"{path}: line 3: label too large")):
            read_csv(path)

    def test_chunk_sized_file_round_trips(self, tmp_path, rng):
        data = LabeledDataset(rng.normal(size=(5000, 3)), rng.integers(1, 4, size=5000))
        path = tmp_path / "big.csv"
        write_csv(data, path)
        assert datasets._parse_bulk(path.read_text().splitlines()[1:], 4, 3, True)
        back = read_csv(path)
        assert back.points.tobytes() == data.points.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)


class TestWriteTable:
    @pytest.mark.parametrize("rows", [1, 4096, 8193])
    def test_matches_per_cell_reference(self, tmp_path, rng, rows):
        special = np.array([-0.0, 5e-324, 1e300, 0.1])
        floats = np.column_stack([np.resize(special, rows), rng.normal(size=rows)])
        ints = rng.integers(-5, 10**12, size=(rows, 2))
        labels = rng.integers(1, 4, size=rows)
        flags = rng.random((rows, 2)) < 0.5
        header = ["x1", "x2", "i1", "i2", "label", "b1", "b2"]
        path = tmp_path / "table.csv"
        write_table(path, header, floats, ints, labels, flags)
        assert path.read_bytes() == reference_table(header, floats, ints, labels, flags)

    @pytest.mark.parametrize("rows", [1, 4096, 8193])
    def test_special_and_repeated_values(self, tmp_path, rng, rows):
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 0.5, 0.5])
        mixed = np.resize(special, rows)
        sparse = np.where(rng.random(rows) < 0.5, 0.0, rng.normal(size=rows))
        path = tmp_path / "special.csv"
        write_table(path, ["a", "b"], mixed, sparse)
        assert path.read_bytes() == reference_table(["a", "b"], mixed, sparse)

    def test_values_repeat_across_chunk_boundary(self, tmp_path):
        chunk = EVAL_CHUNK
        rows = 2 * chunk + 7
        # a grid axis: each value held for 100 rows, straddling each boundary
        axis = np.repeat(np.linspace(-1.0, 1.0, rows // 100 + 1), 100)[:rows]
        assert axis[chunk - 1] == axis[chunk]
        labels = np.repeat([1, 2, 3], rows // 3 + 1)[:rows]
        path = tmp_path / "boundary.csv"
        write_table(path, ["x1", "label"], axis, labels)
        assert path.read_bytes() == reference_table(["x1", "label"], axis, labels)

    @pytest.mark.parametrize("rows", [1, 4096, 8193])
    def test_all_distinct_and_all_equal_columns(self, tmp_path, rng, rows):
        distinct = rng.normal(size=rows)
        equal = np.full(rows, -0.0)
        counts = np.arange(rows)
        ones = np.ones(rows, dtype=np.int64)
        header = ["d", "e", "c", "o"]
        path = tmp_path / "columns.csv"
        write_table(path, header, distinct, equal, counts, ones)
        assert path.read_bytes() == reference_table(header, distinct, equal, counts, ones)

    def test_blocks_must_align(self, tmp_path):
        with pytest.raises(ValueError, match="same number of rows"):
            write_table(tmp_path / "t.csv", ["a", "b"], np.zeros(3), np.zeros(2))


class TestTrainTestSplit:
    def test_stratified_counts(self, rng):
        data = gen_shapes(TWO_DISKS, 100, seed=0)
        train, test = train_test_split(data, 0.8, seed=1)
        for label in (1, 2):
            assert (train.labels == label).sum() == 80
            assert (test.labels == label).sum() == 20

    def test_same_seed_same_split(self):
        data = gen_shapes(TWO_DISKS, 50, seed=0)
        a_train, a_test = train_test_split(data, 0.7, seed=9)
        b_train, b_test = train_test_split(data, 0.7, seed=9)
        np.testing.assert_array_equal(a_train.points, b_train.points)
        np.testing.assert_array_equal(a_test.points, b_test.points)

    def test_union_preserved(self):
        data = gen_shapes(TWO_DISKS, 30, seed=0)
        train, test = train_test_split(data, 0.5, seed=2)
        combined = np.vstack([train.points, test.points])
        assert combined.shape == data.points.shape
        reference = np.sort(data.points.view("f8,f8"), axis=0)
        recombined = np.sort(combined.view("f8,f8"), axis=0)
        np.testing.assert_array_equal(reference, recombined)

    def test_small_class_errors(self):
        data = LabeledDataset(np.zeros((3, 1)), [1, 1, 2])
        with pytest.raises(DataError, match="class 2"):
            train_test_split(data, 0.5, seed=0)

    def test_fraction_bounds(self):
        data = gen_shapes(TWO_DISKS, 10, seed=0)
        with pytest.raises(ValueError):
            train_test_split(data, 1.0, seed=0)
