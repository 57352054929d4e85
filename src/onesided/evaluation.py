"""Experiment-level measurements over trained selective classifiers.

Covers the max-score baseline, coverage-versus-error curves across a
sweep of target error levels, and the overlap mass of raw per-class score
sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DecisionSetFamily, InputError, LabeledDataset
from .net import SelectiveModel, forward_batch
from .select import (
    SelectionGrid,
    _harden_membership,
    _threshold_counts,
    evaluate_grid,
    pick_error_constrained,
)

__all__ = [
    "CurvePoint",
    "sr_baseline",
    "coverage_error_curve",
    "osp_overlap",
]


def sr_baseline(model: SelectiveModel, t: float) -> DecisionSetFamily:
    """Max-score baseline: predict the argmax class unless max score < t.

    The rule of `harden`; the two differ only in how the underlying model
    was trained.  Any finite threshold is allowed: above 1 it rejects
    everything.
    """
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"threshold must be finite, got {t}")

    def member(X: np.ndarray) -> np.ndarray:
        return _harden_membership(forward_batch(model, X), t)

    return DecisionSetFamily(member, model.num_classes, model.spec.input_dim)


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


def coverage_error_curve(
    models: Mapping[float, SelectiveModel],
    t_values: Sequence[float],
    val: LabeledDataset,
    test: LabeledDataset,
    targets: Sequence[float],
    grid: SelectionGrid | None = None,
) -> list[CurvePoint]:
    """Select at each target error on ``val`` and measure on ``test``.

    Targets must be sorted ascending.  The validation grid is re-picked
    per target.  A caller that already has it from `evaluate_grid` on
    ``val`` passes it as ``grid``, which skips scoring it again (one
    forward pass and one sort per model and class); its mu and t values
    must be those of ``models`` and ``t_values``.  A target no grid cell satisfies
    yields a point built from the fallback cell with ``feasible`` False.

    Each distinct chosen model is scored on ``test`` once, and its points
    read the hardened counts at every grid threshold from its sorted top
    scores, as `evaluate_grid` does.  Coverage and error are integer
    counts over ``test.n``, so every point equals `evaluate` of the
    `harden`-ed chosen cell exactly.
    """
    targets = [float(e) for e in targets]
    if not targets:
        raise InputError("curve needs at least one target error")
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise InputError("target errors must be sorted ascending")
    if test.n == 0:
        raise InputError("cannot evaluate on an empty dataset")
    if grid is None:
        grid = evaluate_grid(models, t_values, val)
    elif (grid.mu_values, grid.t_values) != (
        tuple(float(m) for m in models),
        tuple(float(t) for t in t_values),
    ):
        raise InputError("the given grid does not match the models and thresholds")
    counts = {}
    points = []
    for eps in targets:
        res = pick_error_constrained(grid, eps)
        if res.mu_index not in counts:
            model = models[res.mu_star]
            if model.num_classes != test.num_classes:
                raise InputError(
                    f"model for mu={res.mu_star} has {model.num_classes} classes "
                    f"but the test data has {test.num_classes}"
                )
            counts[res.mu_index] = _threshold_counts(
                forward_batch(model, test.features),
                test.labels,
                np.asarray(grid.t_values),
            )
        covered, wrong = counts[res.mu_index]
        points.append(
            CurvePoint(
                achieved_error=wrong[res.t_index].sum() / test.n,
                achieved_coverage=covered[res.t_index] / test.n,
                target_error=eps,
                method="osp",
                feasible=res.feasible,
            )
        )
    return points


def osp_overlap(model: SelectiveModel, t: float, data: LabeledDataset) -> float:
    """Fraction of points lying in at least two raw sets {x : f_k(x) > t}.

    Raw sets use a strict comparison and no argmax tie-break, so they can
    overlap; at t >= 1/2 score normalization makes overlap impossible.
    """
    t = float(t)
    if not np.isfinite(t):
        raise InputError(f"threshold must be finite, got {t}")
    probs = forward_batch(model, data.features)
    counts = (probs > t).sum(axis=1)
    return float((counts >= 2).mean())

