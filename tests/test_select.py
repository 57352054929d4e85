"""Tests for hardening and (mu, t)-grid model selection."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onesided.core import InputError, LabeledDataset, assign, evaluate
from onesided.net import BackboneSpec, SelectiveModel, forward_batch, init_model
from onesided.select import (
    _cell_metrics,
    _harden_membership,
    SelectionCriterion,
    SelectionGrid,
    default_threshold_grid,
    evaluate_grid,
    harden,
    pick_coverage_constrained,
    pick_error_constrained,
    quick_mu_grid,
)


def constant_model(probs):
    """Model whose score vector is ``probs`` for every input point."""
    probs = np.asarray(probs, dtype=np.float64)
    model = init_model(BackboneSpec((1, 4)), probs.size, seed=0)
    for W in model.weights:
        W[...] = 0.0
    model.head_w[...] = 0.0
    model.head_b[...] = np.log(probs)
    return model


def random_model(seed, dim=2, num_classes=3):
    return init_model(BackboneSpec((dim, 6, 5)), num_classes, seed=seed)


def random_points(seed, n=40, dim=2):
    return np.random.default_rng(seed).normal(size=(n, dim))


def test_harden_hand_rule():
    model = constant_model([0.7, 0.2, 0.1])
    x = np.array([[0.3]])
    low = harden(model, 0.6).membership(x)
    assert low.tolist() == [[True, False, False]]
    high = harden(model, 0.8).membership(x)
    assert high.tolist() == [[False, False, False]]
    assert assign(harden(model, 0.8), x).tolist() == [-1]


def test_harden_threshold_zero_never_rejects():
    model = random_model(3)
    X = random_points(4, n=200)
    member = harden(model, 0.0).membership(X)
    assert member.sum(axis=1).tolist() == [1] * len(X)


def test_harden_closed_comparison_and_argmax_tie():
    # Two equal logits give scores of exactly one half each; the tie goes
    # to index 0 and a threshold of exactly one half still accepts.
    model = constant_model([0.5, 0.5])
    x = np.array([[0.0]])
    probs = forward_batch(model, x)
    assert probs[0, 0] == 0.5 and probs[0, 1] == 0.5
    assert harden(model, 0.5).membership(x).tolist() == [[True, False]]
    assert harden(model, 0.5 + 1e-9).membership(x).tolist() == [[False, False]]


def test_harden_rejects_bad_threshold():
    model = random_model(0)
    for t in (-0.1, 1.5):
        with pytest.raises(InputError):
            harden(model, t)


def test_harden_matches_direct_rule():
    # Independent recomputation of the thresholded-argmax rule.
    for seed in range(5):
        model = random_model(seed)
        X = random_points(seed + 100, n=60)
        probs = forward_batch(model, X)
        for t in (0.0, 0.3, 0.5, 0.9):
            member = harden(model, t).membership(X)
            for i in range(len(X)):
                row = probs[i]
                k = int(np.argmax(row))
                expect = [False] * model.num_classes
                if row[k] >= t:
                    expect[k] = True
                assert member[i].tolist() == expect


def test_harden_families_are_disjoint():
    for seed in range(8):
        model = random_model(seed, num_classes=4)
        X = random_points(seed + 50, n=80)
        member = harden(model, 0.3).membership(X)
        assert np.all(member.sum(axis=1) <= 1)


def test_harden_coverage_nonincreasing_in_t():
    model = random_model(7)
    X = random_points(11, n=300)
    labels = np.zeros(len(X), dtype=np.int64)
    data = LabeledDataset(X, labels, 3)
    prev = 2.0
    for t in np.linspace(0.0, 1.0, 21):
        cov = evaluate(harden(model, t), data).coverage
        assert cov <= prev + 1e-12
        prev = cov
    assert evaluate(harden(model, 0.0), data).coverage == 1.0


def grid_dataset(seed, n=120, dim=2, num_classes=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    labels = rng.integers(0, num_classes, size=n)
    return LabeledDataset(X, labels, num_classes)


def test_evaluate_grid_matches_harden_evaluate():
    # Dual route: cached-score grid cells against one fresh hardened
    # family per cell run through the metrics evaluator.
    val = grid_dataset(1)
    models = {0.5: random_model(1), 2.0: random_model(2), 8.0: random_model(3)}
    ts = (0.0, 0.4, 0.55, 0.8)
    grid = evaluate_grid(models, ts, val)
    assert grid.num_cells == 12
    for i, mu in enumerate(grid.mu_values):
        for j, t in enumerate(grid.t_values):
            m = evaluate(harden(models[mu], t), val)
            assert grid.coverage[i, j] == m.coverage
            assert grid.error[i, j] == m.raw_error
            assert grid.error[i, j] == pytest.approx(
                m.per_class_one_sided_error.sum(), abs=1e-15
            )


def test_evaluate_grid_input_errors():
    val = grid_dataset(2)
    with pytest.raises(InputError):
        evaluate_grid({}, (0.5,), val)
    with pytest.raises(InputError):
        evaluate_grid({1.0: random_model(0)}, (), val)
    with pytest.raises(InputError):
        evaluate_grid({1.0: random_model(0)}, (1.2,), val)
    with pytest.raises(InputError):
        evaluate_grid({1.0: random_model(0, num_classes=4)}, (0.5,), val)


# Scores and thresholds share a few exact values so that scores fall
# exactly on thresholds and repeat across rows.
SHARED_VALUES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


@st.composite
def score_table(draw):
    K = draw(st.integers(min_value=2, max_value=10))
    n = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(
        st.sampled_from(SHARED_VALUES),
        st.floats(min_value=0.0, max_value=1.0),
        st.just(float("nan")),
    )
    probs = np.array(
        draw(st.lists(value, min_size=n * K, max_size=n * K)), dtype=np.float64
    ).reshape(n, K)
    labels = draw(
        st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n)
    )
    ts = draw(
        st.lists(
            st.one_of(
                st.sampled_from(SHARED_VALUES), st.floats(min_value=0.0, max_value=1.0)
            ),
            min_size=1,
            max_size=12,
        )
    )
    return probs, np.array(labels), K, ts


def dense_grid_row(probs, labels, K, ts):
    """One membership matrix per threshold, counted as the grid defines it."""
    cov, err = [], []
    for t in ts:
        member = _harden_membership(probs, t)
        cov.append(member.any(axis=1).mean())
        wrong = member & (labels[:, None] != np.arange(K))
        err.append(wrong.any(axis=1).mean())
    return np.array(cov), np.array(err)


# One wrong point in each of three classes out of ten: 0.1 + 0.1 + 0.1 is
# not 3 / 10 in floating point, so an error that summed per-class rates
# would read 1 ulp above the 0.3 that `evaluate` gives.
THREE_WRONG = (
    np.vstack([np.eye(3)[[0, 1, 2]], np.tile(np.eye(3)[0], (7, 1))]),
    np.array([1, 2, 0] + [0] * 7),
    3,
    [0.5],
)


@given(score_table())
@example(THREE_WRONG)
@settings(max_examples=150, deadline=None)
def test_evaluate_grid_sorted_counts_equal_dense_scan(table):
    probs, labels, K, ts = table
    val = LabeledDataset(np.zeros((len(labels), 1)), labels, K)
    model = random_model(0, dim=1, num_classes=K)
    with mock.patch("onesided.select.forward_batch", return_value=probs):
        grid = evaluate_grid({1.0: model}, ts, val)
    cov, err = dense_grid_row(probs, labels, K, grid.t_values)
    assert grid.coverage[0].tobytes() == cov.tobytes()
    assert grid.error[0].tobytes() == err.tobytes()


def test_grid_error_at_exactly_eps_is_feasible():
    probs, labels, K, ts = THREE_WRONG
    val = LabeledDataset(np.zeros((len(labels), 1)), labels, K)
    model = random_model(0, dim=1, num_classes=K)
    with mock.patch("onesided.select.forward_batch", return_value=probs):
        grid = evaluate_grid({1.0: model}, ts, val)
    assert grid.error[0, 0] == 0.3
    res = pick_error_constrained(grid, 0.3)
    assert res.feasible and (res.coverage, res.error) == (1.0, 0.3)


def assert_cells_equal_evaluate_of_harden(model, probs, data, ts):
    """The cell reader on ``probs`` against dense `evaluate(harden(...))`, exactly."""
    for t, cell in zip(ts, _cell_metrics(probs, data.labels, ts), strict=True):
        ref = evaluate(harden(model, t), data)
        assert cell.coverage == ref.coverage
        assert cell.raw_error == ref.raw_error
        assert (
            cell.per_class_one_sided_error.tobytes()
            == ref.per_class_one_sided_error.tobytes()
        )


@pytest.mark.parametrize("K", range(2, 7))
def test_cell_metrics_equal_evaluate_of_harden_on_random_models(K):
    rng = np.random.default_rng(K)
    model = random_model(K, num_classes=K)
    X = rng.normal(size=(200, 2))
    X[:7] = np.nan
    data = LabeledDataset(X, rng.integers(0, K, size=200), K)
    probs = forward_batch(model, X)
    assert np.isnan(probs[:7]).all() and not np.isnan(probs[7:]).any()
    # t = 0 and 1, and thresholds that some top score sits exactly on
    ts = [0.0, 1.0, *rng.choice(probs[7:].max(axis=1), size=6)]
    assert_cells_equal_evaluate_of_harden(model, probs, data, ts)


# Rows with a score of exactly 1 or 0, a tie at t, a NaN beside a 1, all read
# at t = 0 and t = 1.
EDGE_ROWS = (
    np.array([[1.0, 0.0], [0.5, 0.5], [np.nan, 1.0], [0.0, 0.0], [0.0, 1.0]]),
    np.array([0, 1, 1, 0, 0]),
    2,
    [0.0, 0.5, 1.0],
)


@given(score_table())
@example(THREE_WRONG)
@example(EDGE_ROWS)
@settings(max_examples=60, deadline=None)
def test_cell_metrics_equal_evaluate_of_harden_on_score_tables(table):
    probs, labels, K, ts = table
    data = LabeledDataset(np.zeros((len(labels), 1)), labels, K)
    model = random_model(0, dim=1, num_classes=K)
    with mock.patch("onesided.select.forward_batch", return_value=probs):
        assert_cells_equal_evaluate_of_harden(model, probs, data, ts)


def test_cell_metrics_refuses_empty_data_and_bad_thresholds():
    with pytest.raises(InputError, match="empty"):
        _cell_metrics(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), [0.5])
    # the grid refuses empty data with the same words, before any rate
    # divides by zero
    empty = LabeledDataset(np.zeros((0, 1)), np.zeros(0, dtype=np.int64), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^cannot evaluate on an empty dataset$"):
            evaluate_grid({1.0: random_model(0, dim=1, num_classes=2)}, [0.5], empty)
    for t in (-0.1, 1.5, np.nan):
        with pytest.raises(InputError, match="threshold"):
            _cell_metrics(np.full((3, 2), 0.5), np.zeros(3, dtype=np.int64), [t])


def test_evaluate_grid_rejects_nan_rows():
    probs = np.array([[np.nan, 0.2], [0.3, 0.7], [0.9, np.nan]])
    val = LabeledDataset(np.zeros((3, 1)), [0, 0, 1], 2)
    model = random_model(0, dim=1, num_classes=2)
    with mock.patch("onesided.select.forward_batch", return_value=probs):
        grid = evaluate_grid({1.0: model}, (0.0, 0.7, 0.71), val)
    assert grid.coverage.tolist() == [[1 / 3, 1 / 3, 0.0]]
    assert grid.error.tolist() == [[1 / 3, 1 / 3, 0.0]]


def test_selection_grid_validation():
    ok = dict(
        mu_values=(1.0, 2.0),
        t_values=(0.1, 0.9),
        coverage=np.array([[1.0, 0.5], [0.9, 0.4]]),
        error=np.array([[0.2, 0.1], [0.3, 0.0]]),
    )
    SelectionGrid(**ok)
    with pytest.raises(InputError):
        SelectionGrid((), (0.1,), np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(InputError):
        SelectionGrid((1.0,), (0.1,), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(InputError):
        SelectionGrid(
            (1.0,), (0.1,), np.array([[1.5]]), np.array([[0.1]])
        )
    with pytest.raises(InputError):
        SelectionGrid(
            (1.0,), (0.1,), np.array([[0.3]]), np.array([[0.4]])
        )
    with pytest.raises(InputError):
        SelectionGrid(
            (1.0,), (0.1,), np.array([[np.nan]]), np.array([[0.0]])
        )


def test_selection_grid_rows_order():
    grid = SelectionGrid(
        (1.0, 2.0),
        (0.1, 0.9),
        np.array([[1.0, 0.5], [0.9, 0.4]]),
        np.array([[0.2, 0.1], [0.3, 0.0]]),
    )
    rows = list(grid.rows())
    assert rows[0] == (1.0, 0.1, 1.0, 0.2)
    assert rows[3] == (2.0, 0.9, 0.4, 0.0)
    assert len(rows) == 4


def hand_grid():
    return SelectionGrid(
        mu_values=(0.5, 2.0),
        t_values=(0.2, 0.8),
        coverage=np.array([[1.0, 0.6], [0.9, 0.6]]),
        error=np.array([[0.30, 0.05], [0.20, 0.06]]),
    )


def test_pick_error_constrained_vacuous_target():
    res = pick_error_constrained(hand_grid(), 1.0)
    assert (res.mu_star, res.t_star) == (0.5, 0.2)
    assert res.feasible and res.coverage == 1.0


def test_pick_error_constrained_tie_breaks():
    # Coverage ties at 0.6 with equal t, so the smaller mu wins.
    res = pick_error_constrained(hand_grid(), 0.1)
    assert (res.mu_star, res.t_star) == (0.5, 0.8)
    assert res.feasible and res.error == 0.05
    # Equal coverage and error across t for one model: larger t wins.
    flat = SelectionGrid(
        (1.0,), (0.3, 0.7), np.array([[0.5, 0.5]]), np.array([[0.1, 0.1]])
    )
    res = pick_error_constrained(flat, 0.2)
    assert res.t_star == 0.7


def test_pick_error_constrained_single_feasible_cell():
    grid = SelectionGrid(
        (3.0,), (0.5, 1.0), np.array([[0.8, 0.0]]), np.array([[0.2, 0.0]])
    )
    res = pick_error_constrained(grid, 0.01)
    assert (res.mu_star, res.t_star) == (3.0, 1.0)
    assert res.feasible


def test_pick_error_constrained_infeasible_flags():
    res = pick_error_constrained(hand_grid(), 0.01)
    assert not res.feasible
    assert (res.mu_star, res.t_star) == (0.5, 0.8)
    assert res.error == 0.05


def test_pick_coverage_constrained_hand_cases():
    grid = hand_grid()
    res = pick_coverage_constrained(grid, 0.0)
    assert (res.mu_star, res.t_star) == (0.5, 0.8)
    assert res.feasible and res.error == 0.05
    res = pick_coverage_constrained(grid, 0.95)
    assert (res.mu_star, res.t_star) == (0.5, 0.2)
    assert res.feasible and res.coverage == 1.0
    res = pick_coverage_constrained(grid, 1.0)
    assert res.feasible and res.coverage == 1.0


def test_pick_coverage_constrained_infeasible_flags():
    grid = SelectionGrid(
        (1.0, 4.0),
        (0.2,),
        np.array([[0.5], [0.7]]),
        np.array([[0.1], [0.2]]),
    )
    res = pick_coverage_constrained(grid, 0.9)
    assert not res.feasible
    assert (res.mu_star, res.t_star) == (4.0, 0.2)
    assert res.coverage == 0.7


def test_pick_rejects_bad_target():
    with pytest.raises(InputError):
        pick_error_constrained(hand_grid(), 1.5)
    with pytest.raises(InputError):
        pick_coverage_constrained(hand_grid(), -0.2)


def rescan_error(grid, eps):
    """Brute-force re-scan oracle for the error-constrained pick."""
    cells = [
        (i, j, float(grid.coverage[i, j]), float(grid.error[i, j]))
        for i in range(len(grid.mu_values))
        for j in range(len(grid.t_values))
    ]
    feasible = [c for c in cells if c[3] <= eps]
    pool = feasible if feasible else cells
    if feasible:
        ranked = sorted(
            pool,
            key=lambda c: (-c[2], -grid.t_values[c[1]], grid.mu_values[c[0]]),
        )
    else:
        ranked = sorted(
            pool,
            key=lambda c: (c[3], -c[2], -grid.t_values[c[1]], grid.mu_values[c[0]]),
        )
    i, j, _, _ = ranked[0]
    return i, j, bool(feasible)


def rescan_coverage(grid, rho):
    """Brute-force re-scan oracle for the coverage-constrained pick."""
    cells = [
        (i, j, float(grid.coverage[i, j]), float(grid.error[i, j]))
        for i in range(len(grid.mu_values))
        for j in range(len(grid.t_values))
    ]
    feasible = [c for c in cells if c[2] >= rho]
    pool = feasible if feasible else cells
    if feasible:
        ranked = sorted(
            pool,
            key=lambda c: (c[3], -c[2], -grid.t_values[c[1]], grid.mu_values[c[0]]),
        )
    else:
        ranked = sorted(
            pool,
            key=lambda c: (-c[2], c[3], -grid.t_values[c[1]], grid.mu_values[c[0]]),
        )
    i, j, _, _ = ranked[0]
    return i, j, bool(feasible)


def random_grid(rng):
    # Values quantized to eighths so ties are common enough to exercise
    # every level of the tie cascade.
    n_mu = int(rng.integers(1, 5))
    n_t = int(rng.integers(1, 6))
    mus = tuple(sorted(rng.choice(np.arange(1, 40) / 2.0, n_mu, replace=False)))
    ts = tuple(sorted(rng.choice(np.arange(9) / 8.0, n_t, replace=False)))
    cov = rng.integers(0, 9, size=(n_mu, n_t)) / 8.0
    err = cov * rng.integers(0, 5, size=(n_mu, n_t)) / 4.0
    return SelectionGrid(mus, ts, cov, err)


def test_picks_match_exhaustive_rescan():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        grid = random_grid(rng)
        target = float(rng.integers(0, 9)) / 8.0
        target = min(target, 1.0)
        res = pick_error_constrained(grid, target)
        assert (res.mu_index, res.t_index, res.feasible) == rescan_error(grid, target)
        res = pick_coverage_constrained(grid, target)
        assert (res.mu_index, res.t_index, res.feasible) == rescan_coverage(
            grid, target
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), target=st.floats(0.0, 1.0))
def test_feasible_result_meets_constraint(seed, target):
    grid = random_grid(np.random.default_rng(seed))
    res = pick_error_constrained(grid, target)
    if res.feasible:
        assert res.error <= target
    res = pick_coverage_constrained(grid, target)
    if res.feasible:
        assert res.coverage >= target


def test_pick_is_order_independent():
    rng = np.random.default_rng(5)
    grid = random_grid(rng)
    perm_mu = rng.permutation(len(grid.mu_values))
    perm_t = rng.permutation(len(grid.t_values))
    shuffled = SelectionGrid(
        tuple(grid.mu_values[i] for i in perm_mu),
        tuple(grid.t_values[j] for j in perm_t),
        grid.coverage[np.ix_(perm_mu, perm_t)],
        grid.error[np.ix_(perm_mu, perm_t)],
    )
    for target in (0.0, 0.25, 0.5, 1.0):
        a = pick_error_constrained(grid, target)
        b = pick_error_constrained(shuffled, target)
        assert (a.mu_star, a.t_star) == (b.mu_star, b.t_star)
        a = pick_coverage_constrained(grid, target)
        b = pick_coverage_constrained(shuffled, target)
        assert (a.mu_star, a.t_star) == (b.mu_star, b.t_star)


def test_selection_criterion_dispatch_and_validation():
    with pytest.raises(InputError):
        SelectionCriterion("both", 0.5)
    with pytest.raises(InputError):
        SelectionCriterion("error", 1.2)
    grid = hand_grid()
    err_res = SelectionCriterion.error_constrained(0.1).pick(grid)
    assert err_res == pick_error_constrained(grid, 0.1)
    cov_res = SelectionCriterion("coverage", 0.8).pick(grid)
    assert cov_res == pick_coverage_constrained(grid, 0.8)


def test_default_threshold_grid():
    ts = default_threshold_grid()
    assert len(ts) == 100
    assert ts[0] == 0.0 and ts[-1] == 1.0
    steps = np.diff(ts)
    assert np.allclose(steps, steps[0])
    with pytest.raises(InputError):
        default_threshold_grid(1)


def test_quick_mu_grid():
    mus = quick_mu_grid()
    assert len(mus) == 8
    assert mus[0] == pytest.approx(0.05) and mus[-1] == pytest.approx(16.0)
    ratios = np.array(mus[1:]) / np.array(mus[:-1])
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(InputError):
        quick_mu_grid(1)
