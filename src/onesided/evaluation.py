"""Experiment-level measurements over trained selective classifiers.

The max-score baseline, coverage-versus-error curves over target errors,
and the overlap mass of raw per-class sets.  Curves and the overlap read
one `select._score` matrix per model and split, and every coverage and
error count comes from `select._threshold_counts` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DecisionSetFamily, InputError, LabeledDataset, Metrics, _fraction, _threshold
from .net import SelectiveModel
from .select import (
    SelectionGrid,
    _cell_metrics,
    _hardened,
    _score,
    pick_error_constrained,
)


def sr_baseline(model: SelectiveModel, t: float) -> DecisionSetFamily:
    """Max-score baseline: the rule of `harden`, on a model trained otherwise.

    Any finite threshold is allowed: above 1 it rejects everything.
    """
    return _hardened(model, _threshold(t))


@dataclass(frozen=True)
class CurvePoint:
    """One sweep entry: achieved test error and coverage at a target error, each in [0, 1]."""

    achieved_error: float
    achieved_coverage: float
    target_error: float
    feasible: bool = True

    def __post_init__(self) -> None:
        for name in ("achieved_error", "achieved_coverage", "target_error"):
            object.__setattr__(self, name, _fraction(getattr(self, name), name))


def _curve_targets(targets: Sequence[float]) -> tuple[float, ...]:
    """The curve-target rule: one or more errors in [0, 1], sorted ascending."""
    ts = tuple(_fraction(e, "curve target") for e in targets)
    if not ts or list(ts) != sorted(ts):
        raise InputError(f"curve targets must be one or more ascending errors, got {ts}")
    return ts


def coverage_error_curve(
    models: Mapping[float, SelectiveModel],
    grid: SelectionGrid,
    test: LabeledDataset,
    targets: Sequence[float],
    scores: dict[float, np.ndarray] | None = None,
) -> list[CurvePoint]:
    """Pick on the validation ``grid`` at each target error; measure on ``test``.

    ``grid`` is `evaluate_grid` of ``models``, so its mu values must be the
    keys of ``models``; ``targets`` ascend.  A target no cell meets gives the
    fallback cell's point with ``feasible`` False.  Each distinct chosen model
    is scored on ``test`` once, and every point equals `evaluate` of the
    `harden`-ed chosen cell exactly.  ``scores`` may map a mu to its model's
    scores on ``test``, already computed; an entry is taken out of it when
    it is read, so its matrix is freed once used.
    """
    scores = {} if scores is None else scores
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
                feasible=res.feasible,
            )
        )
    return points


def _overlap(probs: np.ndarray, t: float) -> float:
    """Fraction of score rows with at least two entries strictly above ``t``."""
    return float(((probs > t).sum(axis=1) >= 2).mean())


def _measure(probs: np.ndarray, labels: np.ndarray, t: float) -> tuple[Metrics, float]:
    """`evaluate` of `harden` at ``t``, and `osp_overlap`, from one score matrix."""
    [metrics] = _cell_metrics(probs, labels, [t])
    return metrics, _overlap(probs, t)


def osp_overlap(model: SelectiveModel, t: float, data: LabeledDataset) -> float:
    """Fraction of points in at least two raw sets {x : f_k(x) > t}.

    Raw sets compare strictly and skip the argmax tie-break, so they can
    overlap; at t >= 1/2 normalized scores cannot.
    """
    t = _threshold(t)
    return _overlap(_score(model, data), t)
