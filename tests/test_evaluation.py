"""Tests for baseline hardening, curves, and overlap mass."""

from unittest import mock

import numpy as np
import pytest

from onesided.core import InputError, LabeledDataset, evaluate
from onesided.evaluation import (
    CurvePoint,
    coverage_error_curve,
    osp_overlap,
    sr_baseline,
)
from onesided.net import BackboneSpec, SelectiveModel, forward_batch, init_model
from onesided.select import evaluate_grid, harden, pick_error_constrained


def constant_model(probs):
    probs = np.asarray(probs, dtype=np.float64)
    model = init_model(BackboneSpec((1, 4)), probs.size, seed=0)
    for W in model.weights:
        W[...] = 0.0
    model.head_w[...] = 0.0
    model.head_b[...] = np.log(probs)
    return model


def random_model(seed, dim=2, num_classes=3):
    return init_model(BackboneSpec((dim, 6, 5)), num_classes, seed=seed)


def random_data(seed, n=100, dim=2, num_classes=3):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        rng.normal(size=(n, dim)), rng.integers(0, num_classes, size=n), num_classes
    )


def test_sr_baseline_hand_rules():
    model = constant_model([0.55, 0.45])
    x = np.array([[0.0]])
    assert sr_baseline(model, 0.5).membership(x).tolist() == [[True, False]]
    data = random_data(0, num_classes=2, dim=1)
    assert evaluate(sr_baseline(model, 0.0), data).coverage == 1.0
    assert evaluate(sr_baseline(model, 1.0 + 1e-9), data).coverage == 0.0


def test_sr_baseline_rejects_non_finite_threshold():
    with pytest.raises(InputError):
        sr_baseline(random_model(0), np.nan)


def test_sr_baseline_matches_harden_pointwise():
    # The argmax attains the max, so both rules must agree everywhere.
    for seed in range(6):
        model = random_model(seed, num_classes=4)
        X = np.random.default_rng(seed + 30).normal(size=(150, 2))
        for t in (0.0, 0.3, 0.5, 0.77, 1.0):
            a = sr_baseline(model, t).membership(X)
            b = harden(model, t).membership(X)
            assert np.array_equal(a, b)


def test_curve_point_validation():
    CurvePoint(0.1, 0.8, 0.1)
    with pytest.raises(InputError):
        CurvePoint(1.2, 0.8, 0.1)
    with pytest.raises(InputError):
        CurvePoint(0.1, -0.1, 0.1)
    with pytest.raises(InputError):
        CurvePoint(0.1, 0.8, 2.0)


def curve_setup(seed=0):
    val = random_data(seed, n=150)
    test = random_data(seed + 1, n=150)
    models = {0.5: random_model(seed + 2), 4.0: random_model(seed + 3)}
    ts = (0.0, 0.35, 0.5, 0.8, 1.0)
    return models, evaluate_grid(models, ts, val), test


def test_curve_matches_single_selection_route():
    # Internal cross-check: each curve point equals running selection at
    # that one target and scoring the chosen cell on the test split.
    models, grid, test = curve_setup()
    targets = (0.05, 0.2, 0.6)
    points = coverage_error_curve(models, grid, test, targets)
    assert len(points) == 3
    for eps, point in zip(targets, points):
        res = pick_error_constrained(grid, eps)
        metrics = evaluate(harden(models[res.mu_star], res.t_star), test)
        assert point.achieved_error == metrics.raw_error
        assert point.achieved_coverage == metrics.coverage
        assert point.target_error == eps
        assert point.feasible == res.feasible


def test_curve_points_equal_direct_evaluation_of_the_chosen_cell():
    # the test side comes from sorted counts, one scoring per chosen model;
    # each point must still equal evaluate(harden(...)) exactly, with NaN
    # scores, scores exactly at t, and targets that share a model
    spec = BackboneSpec((1, 1), activation="identity")
    models = {
        mu: SelectiveModel(
            spec, 2, [np.eye(1)], [np.zeros(1)], np.array([[a], [-a]]), np.zeros(2)
        )
        for mu, a in ((0.1, 0.5), (1.0, 2.0), (4.0, 8.0))
    }
    rng = np.random.default_rng(0)

    def split(n):
        x = rng.normal(size=n)
        y = (x + rng.normal(scale=0.5, size=n) < 0).astype(int)
        x[:20] = 0.0  # equal logits: the top score is exactly 1/2
        x[20:25] = np.nan
        return LabeledDataset(x[:, None], y, 2)

    val, test = split(300), split(300)
    targets = (0.0, 0.05, 0.05, 0.1, 0.3, 1.0)
    grid = evaluate_grid(models, (0.0, 0.5, 0.6, 0.9, 0.99), val)
    with mock.patch("onesided.select.forward_batch", wraps=forward_batch) as scored:
        points = coverage_error_curve(models, grid, test, targets)
    picks = [pick_error_constrained(grid, eps) for eps in targets]
    assert scored.call_count == len({r.mu_star for r in picks}) < len(targets)
    assert all(call.args[1] is test.features for call in scored.call_args_list)
    assert any(r.t_star == 0.5 for r in picks)
    for res, point in zip(picks, points):
        metrics = evaluate(harden(models[res.mu_star], res.t_star), test)
        assert point.achieved_coverage == metrics.coverage
        assert point.achieved_error == metrics.raw_error
        assert point.feasible == res.feasible


def test_curve_refuses_a_grid_of_other_models():
    models, grid, test = curve_setup(6)
    assert coverage_error_curve(models, grid, test, [0.3])
    fewer = {0.5: models[0.5]}
    more = {**models, 8.0: models[4.0]}
    renamed = {1.0: models[0.5], 4.0: models[4.0]}
    for other in (fewer, more, renamed):
        with pytest.raises(InputError, match="mu values"):
            coverage_error_curve(other, grid, test, [0.3])


def test_curve_single_target():
    models, grid, test = curve_setup(3)
    points = coverage_error_curve(models, grid, test, [1.0])
    assert len(points) == 1
    assert points[0].feasible


def test_curve_rejects_unsorted_or_empty_targets():
    models, grid, test = curve_setup(4)
    with pytest.raises(InputError):
        coverage_error_curve(models, grid, test, [0.2, 0.1])
    with pytest.raises(InputError):
        coverage_error_curve(models, grid, test, [])


def test_curve_rejects_test_data_it_cannot_score():
    models, grid, _ = curve_setup(7)
    rng = np.random.default_rng(8)
    four = LabeledDataset(rng.normal(size=(40, 2)), rng.integers(0, 4, size=40), 4)
    with pytest.raises(InputError, match="classes"):
        coverage_error_curve(models, grid, four, [0.1])
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 3)
    with pytest.raises(InputError, match="empty"):
        coverage_error_curve(models, grid, empty, [0.1])


def test_curve_propagates_infeasibility():
    # A threshold grid with only t=0 cells cannot reach error zero on
    # data a random model misclassifies somewhere.
    models, _, test = curve_setup(5)
    grid = evaluate_grid(models, (0.0,), random_data(5, n=150))
    assert grid.error.min() > 0.0
    points = coverage_error_curve(models, grid, test, [0.0])
    assert not points[0].feasible


def test_overlap_hand_example():
    model = constant_model([0.4, 0.35, 0.25])
    data = random_data(1, dim=1)
    # Every point sits in exactly the two raw sets that clear 0.3.
    assert osp_overlap(model, 0.3, data) == 1.0
    assert osp_overlap(model, 0.38, data) == 0.0


def test_overlap_extremes():
    for seed in range(4):
        model = random_model(seed, num_classes=4)
        data = random_data(seed + 10, num_classes=4)
        assert osp_overlap(model, 0.0, data) == 1.0
        for t in (0.5, 0.6, 0.9, 1.0):
            assert osp_overlap(model, t, data) == 0.0
        # a 4-class model on 3-class data used to be scored, reading 0.0
        with pytest.raises(InputError, match="classifier has 4 classes but the data has 3"):
            osp_overlap(model, 0.5, random_data(seed + 10))


def test_overlap_nonincreasing_in_t():
    model = random_model(11)
    data = random_data(12, n=300)
    values = [osp_overlap(model, t, data) for t in np.linspace(0.0, 1.0, 21)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_overlap_uses_strict_comparison():
    # Equal logits give scores of exactly one half; strictly-greater
    # membership leaves both raw sets empty at t = 0.5.
    model = constant_model([0.5, 0.5])
    data = random_data(2, dim=1, num_classes=2)
    probs = forward_batch(model, data.features)
    assert np.all(probs == 0.5)
    assert osp_overlap(model, 0.5, data) == 0.0
    assert osp_overlap(model, 0.4999, data) == 1.0

