"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute.  Each criterion states its tolerance inline; the random
suites are seeded so reruns are exact.
"""

import time

import numpy as np

from cfkit import (
    LabeledDataset,
    ShapeSpec,
    ThresholdPolicy,
    build_evaluator,
    classify_batch,
    empirical_moment_matrix,
    enumerate_basis,
    epsilon_interior_mask,
    eval_cf,
    eval_cf_batch,
    eval_cf_inverse_batch,
    eval_joint_inverse,
    fit,
    gen_shapes,
    joint_cf,
    level_scores,
    load_model,
    make_theta,
    sandwich_check,
    save_model,
    scores,
    scores_batch,
    tensor_cf,
    uniform_measure,
    variational_eval,
    write_csv,
)
from conftest import random_measure, separated_points

TWO_DISKS = [
    ShapeSpec(kind="disk", label=1, center=(-2.0, 0.0), radius=1.0),
    ShapeSpec(kind="disk", label=2, center=(2.0, 0.0), radius=1.0),
]
OVERLAPPING_DISKS = [
    ShapeSpec(kind="disk", label=1, center=(-0.5, 0.0), radius=1.0),
    ShapeSpec(kind="disk", label=2, center=(0.5, 0.0), radius=1.0),
]


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def _measure_suite(seed=101, count=200):
    """Random discrete measures with n <= 2, N <= 30, t <= 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 3))
        t = int(rng.integers(1, 4))
        n_points = int(rng.integers(3, 31))
        measure = random_measure(rng, n, n_points)
        queries = rng.uniform(-1.2, 1.2, size=(20, n))
        yield measure, n, t, queries


def test_01_closed_form_matches_variational():
    started = time.perf_counter()
    worst = 0.0
    for measure, n, t, queries in _measure_suite():
        M = empirical_moment_matrix(measure, enumerate_basis(n, t))
        ev = build_evaluator(M)
        fast = eval_cf_batch(ev, queries)
        for i in range(queries.shape[0]):
            slow, _ = variational_eval(M, queries[i])
            gap = abs(slow - fast[i]) - 1e-12
            worst = max(worst, gap / max(slow, fast[i], 1e-300))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(
        1,
        "closed-form vs variational",
        ok,
        f"max rel gap {worst:.2e}, {elapsed:.1f}s over 200 measures x 20 queries",
    )


def test_02_trace_identity():
    worst = 0.0
    for measure, n, t, _ in _measure_suite():
        ev = build_evaluator(
            empirical_moment_matrix(measure, enumerate_basis(n, t))
        )
        mean_inverse = float(
            eval_cf_inverse_batch(ev, measure.points) @ measure.weights
        )
        worst = max(worst, abs(mean_inverse - ev.rank) / ev.rank)
    ok = worst <= 1e-8
    _report(2, "trace identity", ok, f"max rel deviation from rank {worst:.2e}")


def test_03_legendre_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    measure = uniform_measure(rng.uniform(-1.0, 1.0, size=20000))
    ev = build_evaluator(
        empirical_moment_matrix(measure, enumerate_basis(1, 2))
    )
    value = eval_cf(ev, [0.0])
    # orthonormal Legendre values at 0 under uniform probability on [-1, 1]:
    # P0 = 1, P1(0) = 0, P2(0) = -sqrt(5)/2, so 1/L(0) = 1 + 5/4
    expected = 1.0 / (1.0 + 5.0 * 0.25)
    elapsed = time.perf_counter() - started
    ok = abs(value - expected) <= 0.05 * expected and elapsed < 5.0
    _report(
        3,
        "uniform-measure oracle at degree 2",
        ok,
        f"L(0) = {value:.5f} vs {expected:.5f}, {elapsed:.1f}s",
    )


def test_04_sandwich_ordering():
    # point separation keeps the three factorizations accurate enough for
    # the 1e-9 comparison slack (clustered atoms push condition numbers
    # past the point where a pointwise ordering check is well posed)
    rng = np.random.default_rng(404)
    total_points = 0
    total_violations = 0
    for _ in range(50):
        n1, n2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        pts = np.vstack(
            [separated_points(rng, n1, 1, 0.1), separated_points(rng, n2, 1, 0.1)]
        )
        data = LabeledDataset(pts, np.array([1] * n1 + [2] * n2))
        t = int(rng.choice([2, 3]))
        xs = np.linspace(-1.3, 1.3, 25)
        grid = np.array([(x, y) for x in xs for y in (1.0, 2.0)])
        outcome = sandwich_check(data, t, grid)
        total_points += outcome.n_points
        total_violations += outcome.n_violations
    ok = total_violations == 0
    _report(
        4,
        "nested-space sandwich ordering",
        ok,
        f"{total_violations} violations over {total_points} comparisons",
    )


def test_05_joint_formula_equalities():
    # each class is either decisively rank-deficient (3-4 well separated
    # points) or decisively full-rank (at least twice the basis size), so
    # both evaluation routes resolve the same rank everywhere and the
    # comparison is well posed; counts near the basis size would make the
    # smallest genuine eigenvalue EQ-threshold ambiguous
    rng = np.random.default_rng(505)
    worst = 0.0
    exact_mismatches = 0
    for _ in range(60):
        n = int(rng.integers(1, 3))
        t = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        size = enumerate_basis(n, t).size
        counts = []
        blocks = []
        for _class in range(m):
            if rng.random() < 0.4:
                count = int(rng.integers(3, 5))
                blocks.append(separated_points(rng, count, n, 0.5))
            else:
                count = int(rng.integers(2 * size, 31))
                blocks.append(separated_points(rng, count, n, 0.02))
            counts.append(count)
        labels = np.concatenate(
            [np.full(c, j + 1, dtype=np.int64) for j, c in enumerate(counts)]
        )
        data = LabeledDataset(np.vstack(blocks), labels, m=m)
        # The joint matrix is factored by the exact rule, so the classes are too.
        model = fit(data, degree=t, policy=ThresholdPolicy(), scale=False)
        joint = tensor_cf(data, t, weighting="per_class")
        theta = make_theta(m)
        queries = rng.uniform(-1.1, 1.1, size=(5, n))
        for x in queries:
            sc = scores(model, x)
            q = np.array(
                [
                    float(eval_cf_inverse_batch(ev, x[None, :])[0])
                    for ev in model.evaluators
                ]
            )
            # integer labels: the theta combination collapses to one term
            for j in range(1, m + 1):
                if joint_cf(model, x, float(j)) != sc[j - 1]:
                    exact_mismatches += 1
                direct = eval_joint_inverse(joint, x, float(j))
                if np.isinf(q[j - 1]) or np.isinf(direct):
                    if not (np.isinf(q[j - 1]) and np.isinf(direct)):
                        worst = np.inf
                    continue
                worst = max(
                    worst,
                    (abs(direct - q[j - 1]) - 1e-12) / max(direct, q[j - 1]),
                )
            # off the integer grid: full theta-weighted combination
            for y in (0.4, 1.5, m - 0.5):
                weights = theta.eval_all(y) ** 2
                combo = 0.0
                for j in range(m):
                    if weights[j] == 0.0:
                        continue
                    combo = combo + weights[j] * q[j]
                direct = eval_joint_inverse(joint, x, y)
                if np.isinf(combo) or np.isinf(direct):
                    if not (np.isinf(combo) and np.isinf(direct)):
                        worst = np.inf
                    continue
                worst = max(
                    worst, (abs(direct - combo) - 1e-12) / max(direct, combo)
                )
    ok = worst <= 1e-6 and exact_mismatches == 0
    _report(
        5,
        "joint matrix vs theta combination",
        ok,
        f"max rel gap {worst:.2e}, integer-label mismatches {exact_mismatches}",
    )


def test_06_two_disk_classification():
    started = time.perf_counter()
    good_seeds = 0
    accuracies = []
    for seed in range(10):
        train = gen_shapes(TWO_DISKS, 500, seed=1000 + seed)
        test = gen_shapes(TWO_DISKS, 1000, seed=2000 + seed)
        model = fit(train, degree=4)
        keep = epsilon_interior_mask(test.points, TWO_DISKS, 0.1, test.labels)
        predicted = classify_batch(model, test.points[keep])
        accuracy = float(np.mean(predicted == test.labels[keep]))
        accuracies.append(accuracy)
        if accuracy >= 0.99:
            good_seeds += 1
    elapsed = time.perf_counter() - started
    ok = good_seeds >= 9 and elapsed < 30.0
    _report(
        6,
        "two-disk interior accuracy",
        ok,
        f"{good_seeds}/10 seeds >= 0.99 (min {min(accuracies):.4f}), {elapsed:.1f}s",
    )


def test_07_generalization_trend():
    sizes = (50, 200, 2000)
    means = []
    stds = []
    for n_train in sizes:
        accs = []
        for seed in range(5):
            train = gen_shapes(TWO_DISKS, n_train, seed=seed)
            test = gen_shapes(TWO_DISKS, 1000, seed=10000 + seed)
            model = fit(train, degree=4)
            accs.append(
                float(np.mean(classify_batch(model, test.points) == test.labels))
            )
        means.append(float(np.mean(accs)))
        stds.append(float(np.std(accs, ddof=1)))
    ok = True
    for k in range(len(sizes) - 1):
        pooled = np.sqrt(0.5 * (stds[k] ** 2 + stds[k + 1] ** 2))
        if means[k + 1] < means[k] - pooled:
            ok = False
    _report(
        7,
        "accuracy trend over sample size",
        ok,
        "means " + ", ".join(f"N={n}: {m:.4f}" for n, m in zip(sizes, means)),
    )


def test_08_off_support_decay():
    rng = np.random.default_rng(808)
    measure = uniform_measure(rng.uniform(-1.0, 1.0, size=20000))
    ratios = []
    for t in range(2, 9):
        ev = build_evaluator(
            empirical_moment_matrix(measure, enumerate_basis(1, t))
        )
        ratios.append(eval_cf(ev, [2.0]) / eval_cf(ev, [0.0]))
    ratios = np.array(ratios)
    ok = bool(np.all(np.diff(ratios) < 0) and ratios[-1] < 1e-3)
    _report(
        8,
        "off-support decay",
        ok,
        f"ratio falls {ratios[0]:.2e} -> {ratios[-1]:.2e} over t = 2..8",
    )


def test_09_overlap_heuristic():
    # disjoint disks: no cell passes both per-class levels
    train = gen_shapes(TWO_DISKS, 500, seed=77)
    model = fit(train, degree=4)
    grid = _grid((-3.2, 3.2), (-1.2, 1.2), 40)
    sc = scores_batch(model, grid)
    disjoint_overlap = int(np.sum(np.all(sc >= level_scores(model), axis=1)))

    # overlapping disks: overlap cells exist and stay inside the lens
    # (dilated by one grid cell)
    train = gen_shapes(OVERLAPPING_DISKS, 500, seed=77)
    model = fit(train, degree=4)
    res = 33
    grid = _grid((-1.6, 1.6), (-1.1, 1.1), res)
    sc = scores_batch(model, grid)
    flagged = grid[np.all(sc >= level_scores(model), axis=1)]
    cell_diag = np.hypot(3.2 / (res - 1), 2.2 / (res - 1))
    distances = np.array([_distance_to_lens(p) for p in flagged])
    ok = (
        disjoint_overlap == 0
        and flagged.shape[0] > 0
        and bool(np.all(distances <= cell_diag))
    )
    _report(
        9,
        "superlevel overlap heuristic",
        ok,
        f"disjoint overlap {disjoint_overlap}, lens overlap {flagged.shape[0]} "
        f"cells all within {cell_diag:.3f} of the lens",
    )


def _grid(xb, yb, res):
    xs = np.linspace(*xb, res)
    ys = np.linspace(*yb, res)
    mesh = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _distance_to_lens(p):
    """Distance to the intersection of the two unit disks at (+-0.5, 0)."""
    c1, c2 = np.array([-0.5, 0.0]), np.array([0.5, 0.0])
    d1, d2 = np.linalg.norm(p - c1), np.linalg.norm(p - c2)
    if d1 <= 1.0 and d2 <= 1.0:
        return 0.0
    candidates = []
    foot = c1 + (p - c1) / d1
    if np.linalg.norm(foot - c2) <= 1.0:
        candidates.append(np.linalg.norm(p - foot))
    foot = c2 + (p - c2) / d2
    if np.linalg.norm(foot - c1) <= 1.0:
        candidates.append(np.linalg.norm(p - foot))
    half_height = np.sqrt(0.75)
    for tip in (np.array([0.0, half_height]), np.array([0.0, -half_height])):
        candidates.append(np.linalg.norm(p - tip))
    return min(candidates)


def test_10_determinism_and_persistence(tmp_path):
    # seed determinism: datasets and their CSV bytes
    first = gen_shapes(TWO_DISKS, 200, seed=5)
    second = gen_shapes(TWO_DISKS, 200, seed=5)
    data_equal = np.array_equal(first.points, second.points)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, path_a)
    write_csv(second, path_b)
    bytes_equal = path_a.read_bytes() == path_b.read_bytes()

    # model files are byte-identical across repeated saves
    model = fit(first, degree=3)
    model_a, model_b = tmp_path / "a.cfm", tmp_path / "b.cfm"
    save_model(model, model_a, metadata={"seed": 5})
    save_model(model, model_b, metadata={"seed": 5})
    model_bytes_equal = model_a.read_bytes() == model_b.read_bytes()

    # loading preserves scores bit for bit on 100 random queries
    rng = np.random.default_rng(10)
    queries = rng.uniform(-3.5, 3.5, size=(100, 2))
    before = scores_batch(model, queries)
    after = scores_batch(load_model(model_a), queries)
    scores_equal = np.array_equal(before, after)

    ok = data_equal and bytes_equal and model_bytes_equal and scores_equal
    _report(
        10,
        "determinism and persistence",
        ok,
        f"dataset bytes {bytes_equal}, model bytes {model_bytes_equal}, "
        f"score bits {scores_equal}",
    )
