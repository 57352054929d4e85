"""Experiment-level measurements over trained selective classifiers.

Covers the max-score baseline, coverage-versus-error curves across a
sweep of target error levels, and the overlap mass of raw per-class score
sets.  Every coverage and error count comes from `select._threshold_counts`
on one score matrix per model and split; the overlap reads the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DecisionSetFamily, InputError, LabeledDataset, Metrics
from .net import SelectiveModel, forward_batch
from .select import (
    SelectionGrid,
    _cell_metrics,
    _hardened,
    _score,
    pick_error_constrained,
)


def sr_baseline(model: SelectiveModel, t: float) -> DecisionSetFamily:
    """Max-score baseline: predict the argmax class unless max score < t.

    The rule of `harden`; the two differ only in how the underlying model
    was trained.  Any finite threshold is allowed: above 1 it rejects
    everything.
    """
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"threshold must be finite, got {t}")
    return _hardened(model, t)


@dataclass(frozen=True)
class CurvePoint:
    """One sweep entry: achieved test error and coverage at a target level."""

    achieved_error: float
    achieved_coverage: float
    target_error: float
    method: str
    feasible: bool = True

    def __post_init__(self) -> None:
        for name in ("achieved_error", "achieved_coverage", "target_error"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


def _curve_targets(targets: Sequence[float]) -> tuple[float, ...]:
    """The curve-target rule: at least one target, each in [0, 1], sorted ascending."""
    ts = tuple(float(e) for e in targets)
    if not ts or not all(0.0 <= e <= 1.0 for e in ts) or list(ts) != sorted(ts):
        raise InputError(f"curve targets must be one or more ascending errors in [0, 1], got {ts}")
    return ts


def coverage_error_curve(
    models: Mapping[float, SelectiveModel],
    grid: SelectionGrid,
    test: LabeledDataset,
    targets: Sequence[float],
) -> list[CurvePoint]:
    """Pick on the validation ``grid`` at each target error; measure on ``test``.

    ``grid`` is `evaluate_grid` of ``models`` on validation data, so its
    mu values must be the keys of ``models``.  Targets must be sorted
    ascending.  A target no grid cell satisfies yields a point built from
    the fallback cell with ``feasible`` False.

    Each distinct chosen model is scored on ``test`` once, and its points
    read the hardened counts at every grid threshold from its sorted top
    scores, so every point equals `evaluate` of the `harden`-ed chosen
    cell exactly.
    """
    return _curve(models, grid, test, targets, {})


def _curve(
    models: Mapping[float, SelectiveModel],
    grid: SelectionGrid,
    test: LabeledDataset,
    targets: Sequence[float],
    scores: dict[float, np.ndarray],
) -> list[CurvePoint]:
    """`coverage_error_curve`, taking a model's test scores from ``scores``.

    ``scores`` maps a mu to its model's scores on ``test``, already
    computed; every other chosen model is scored here.  An entry is taken
    out of ``scores`` when it is read, so its matrix is freed once used.
    """
    targets = _curve_targets(targets)
    if grid.mu_values != tuple(float(m) for m in models):
        raise InputError("the grid's mu values are not the models' keys")
    cells = {}
    points = []
    for eps in targets:
        res = pick_error_constrained(grid, eps)
        if res.mu_index not in cells:
            probs = scores.pop(res.mu_star, None)
            if probs is None:
                probs = _score(models[res.mu_star], test)
            cells[res.mu_index] = _cell_metrics(probs, test.labels, grid.t_values)
        cell = cells[res.mu_index][res.t_index]
        points.append(
            CurvePoint(
                achieved_error=cell.raw_error,
                achieved_coverage=cell.coverage,
                target_error=eps,
                method="osp",
                feasible=res.feasible,
            )
        )
    return points


def _overlap(probs: np.ndarray, t: float) -> float:
    """Fraction of score rows with at least two entries strictly above ``t``."""
    return float(((probs > t).sum(axis=1) >= 2).mean())


def _measure(
    probs: np.ndarray, labels: np.ndarray, t: float
) -> tuple[Metrics, float]:
    """`evaluate` of `harden` at ``t``, and `osp_overlap`, from one score matrix."""
    [metrics] = _cell_metrics(probs, labels, [t])
    return metrics, _overlap(probs, t)


def osp_overlap(model: SelectiveModel, t: float, data: LabeledDataset) -> float:
    """Fraction of points lying in at least two raw sets {x : f_k(x) > t}.

    Raw sets use a strict comparison and no argmax tie-break, so they can
    overlap; at t >= 1/2 score normalization makes overlap impossible.
    """
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"threshold must be finite, got {t}")
    return _overlap(forward_batch(model, data.features), t)
