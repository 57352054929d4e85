"""Hardening soft classifiers and model selection over a (mu, t) grid.

A scorer abstains by thresholding: a point goes to its top-scoring class
when that score is at least ``t`` and is rejected otherwise.  A model is
scored once per split (`_score`), and every coverage and error count, for
the grid, the run's test metrics and the curve alike, comes from
`_threshold_counts` on that score matrix; `harden` is the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import DecisionSetFamily, InputError, LabeledDataset, Metrics, _count, _fraction
from .net import SelectiveModel, forward_batch


def _harden_membership(probs: np.ndarray, t: float) -> np.ndarray:
    """True at each row's top class (ties to the smallest index) when that score is >= ``t``."""
    top = np.argmax(probs, axis=1)
    rows = np.arange(probs.shape[0])
    out = np.zeros(probs.shape, dtype=bool)
    out[rows, top] = probs[rows, top] >= t
    return out


def _hardened(model: SelectiveModel, t: float) -> DecisionSetFamily:
    """`_harden_membership` at ``t`` over ``model``'s scores; callers check ``t``."""

    def member(X: np.ndarray) -> np.ndarray:
        return _harden_membership(forward_batch(model, X), t)

    return DecisionSetFamily(member, model.num_classes, model.spec.input_dim)


def _thresholds(t_values: Sequence[float]) -> np.ndarray:
    """The threshold-grid rule: one or more thresholds in [0, 1], as floats."""
    ts = np.array([_fraction(t, "threshold") for t in t_values])
    if not ts.size:
        raise InputError("threshold grid must not be empty")
    return ts


def harden(model: SelectiveModel, t: float) -> DecisionSetFamily:
    """Disjoint decision sets at threshold ``t`` in [0, 1].

    Set k holds x when class k has the top score on x and that score is
    >= t: closed, so a score exactly at ``t`` is accepted.
    """
    return _hardened(model, _fraction(t, "threshold"))


def _score(model: SelectiveModel, data: LabeledDataset) -> np.ndarray:
    """``model``'s ``(n, K)`` scores on ``data``; every measurement starts here."""
    data.check_classes(model.num_classes)
    return forward_batch(model, data.features)


@dataclass(frozen=True)
class SelectionGrid:
    """Held-out coverage and error for every (mu, t) cell.

    ``coverage[i, j]`` and ``error[i, j]`` are the empirical coverage and
    raw error of model ``mu_values[i]`` hardened at ``t_values[j]``: the
    covered and the wrong count over n, the floats `core.evaluate` gives.
    """

    mu_values: tuple[float, ...]
    t_values: tuple[float, ...]
    coverage: np.ndarray
    error: np.ndarray

    def __post_init__(self) -> None:
        mus = tuple(float(m) for m in self.mu_values)
        ts = tuple(float(t) for t in self.t_values)
        if not mus or not ts:
            raise InputError("selection grid needs at least one mu and one t")
        cov = np.asarray(self.coverage, dtype=np.float64)
        err = np.asarray(self.error, dtype=np.float64)
        shape = (len(mus), len(ts))
        if cov.shape != shape or err.shape != shape:
            raise InputError(
                f"grid tables must have shape {shape}, "
                f"got coverage {cov.shape} and error {err.shape}"
            )
        if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(err))):
            raise InputError("grid tables must be finite")
        if np.any(cov < 0.0) or np.any(cov > 1.0) or np.any(err < 0.0):
            raise InputError("grid coverage and error must lie in [0, 1]")
        if np.any(err > cov + 1e-12):
            raise InputError("grid error cannot exceed coverage")
        cov.setflags(write=False)
        err.setflags(write=False)
        object.__setattr__(self, "mu_values", mus)
        object.__setattr__(self, "t_values", ts)
        object.__setattr__(self, "coverage", cov)
        object.__setattr__(self, "error", err)

    @property
    def num_cells(self) -> int:
        return len(self.mu_values) * len(self.t_values)

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield (mu, t, coverage, error) one cell at a time, mu-major."""
        for i, mu in enumerate(self.mu_values):
            for j, t in enumerate(self.t_values):
                yield mu, t, float(self.coverage[i, j]), float(self.error[i, j])


@dataclass(frozen=True)
class SelectionCriterion:
    """Grid-search objective: cap held-out error or floor held-out coverage at ``target``."""

    mode: str
    target: float

    def __post_init__(self) -> None:
        if self.mode not in ("error", "coverage"):
            raise InputError(
                f"selection mode must be 'error' or 'coverage', got {self.mode!r}"
            )
        object.__setattr__(self, "target", _fraction(self.target, "target"))

    @classmethod
    def error_constrained(cls, eps: float) -> "SelectionCriterion":
        """Maximize coverage subject to error <= eps."""
        return cls("error", eps)

    def pick(self, grid: SelectionGrid) -> "SelectionResult":
        if self.mode == "error":
            return pick_error_constrained(grid, self.target)
        return pick_coverage_constrained(grid, self.target)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen grid cell, by index, and the grid it came from.

    ``feasible`` is False when no cell met the constraint and the cell is
    the fallback.
    """

    mu_index: int
    t_index: int
    grid: SelectionGrid
    feasible: bool

    @property
    def mu_star(self) -> float:
        return self.grid.mu_values[self.mu_index]

    @property
    def t_star(self) -> float:
        return self.grid.t_values[self.t_index]

    @property
    def coverage(self) -> float:
        return float(self.grid.coverage[self.mu_index, self.t_index])

    @property
    def error(self) -> float:
        return float(self.grid.error[self.mu_index, self.t_index])


def _threshold_counts(
    probs: np.ndarray, labels: np.ndarray, ts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Covered count ``(T,)`` and per-class wrong count ``(T, K)`` at every t.

    Wrong in class k: top class k, label not k, top score >= t.  Equal to
    counting `_harden_membership` at each t.  A NaN score fails ``>= t``
    there, so NaN rows are dropped; `np.sort` would place them last, as
    covered.  Empty data, whose rates would divide by zero, is refused.
    """
    if labels.size == 0:
        raise InputError("cannot evaluate on an empty dataset")
    K = probs.shape[1]
    top = np.argmax(probs, axis=1)
    s = probs[np.arange(probs.shape[0]), top]
    keep = ~np.isnan(s)
    top, s, wrong = top[keep], s[keep], labels[keep] != top[keep]

    def at_or_above(scores: np.ndarray) -> np.ndarray:
        return scores.size - np.searchsorted(np.sort(scores), ts, side="left")

    wrong_cnt = np.empty((ts.size, K), dtype=np.int64)
    for k in range(K):
        wrong_cnt[:, k] = at_or_above(s[wrong & (top == k)])
    return at_or_above(s), wrong_cnt


def _cell_metrics(
    probs: np.ndarray, labels: np.ndarray, t_values: Sequence[float]
) -> list[Metrics]:
    """`Metrics` at each threshold, from one sort.

    Entry j is `core.evaluate` of `harden` at ``t_values[j]`` exactly: the
    same integer counts over n.
    """
    n = labels.size
    covered, wrong = _threshold_counts(probs, labels, _thresholds(t_values))
    return [
        Metrics(c / n, float(w.sum() / n), w / n)
        for c, w in zip(covered.tolist(), wrong)
    ]


def evaluate_grid(
    models: Mapping[float, SelectiveModel],
    t_values: Sequence[float],
    val: LabeledDataset,
) -> SelectionGrid:
    """Held-out coverage and error of every (mu, t) cell.

    Each model is scored once on ``val`` and `_threshold_counts` reads every
    threshold: O(n log n + K T log n) per model instead of T dense (n, K)
    membership scans, and bitwise equal to counting `harden` membership.
    """
    if not models:
        raise InputError("selection needs at least one trained model")
    t_arr = _thresholds(t_values)
    mus = tuple(float(m) for m in models)
    cov, err = np.zeros((2, len(mus), t_arr.size))
    for i, model in enumerate(models.values()):
        covered, wrong = _threshold_counts(_score(model, val), val.labels, t_arr)
        cov[i] = covered / val.n
        err[i] = wrong.sum(axis=1) / val.n
    return SelectionGrid(mus, tuple(t_arr.tolist()), cov, err)


def _pick(grid: SelectionGrid, admissible, key, fallback_key) -> SelectionResult:
    """Lexicographic argmax of ``key`` over the admissible cells.

    ``admissible``, ``key`` and ``fallback_key`` map the ``(coverage,
    error, t, mu)`` tables to a mask and to a tuple of tables, most
    significant first.  With no admissible cell the argmax of
    ``fallback_key`` over all cells is returned, flagged infeasible.
    Full ties go to the first cell in mu-major order.
    """
    shape = grid.coverage.shape
    tables = (
        grid.coverage,
        grid.error,
        np.broadcast_to(np.asarray(grid.t_values), shape),
        np.broadcast_to(np.asarray(grid.mu_values)[:, None], shape),
    )
    cells = np.flatnonzero(admissible(*tables))
    feasible = cells.size > 0
    if not feasible:
        cells, key = np.arange(grid.num_cells), fallback_key
    # np.lexsort sorts by its last key first; -cells ranks earlier cells higher
    sort_keys = [k.ravel()[cells] for k in reversed(key(*tables))]
    order = np.lexsort([-cells] + sort_keys)
    i, j = np.unravel_index(cells[order[-1]], shape)
    return SelectionResult(int(i), int(j), grid, feasible)


def pick_error_constrained(grid: SelectionGrid, eps: float) -> SelectionResult:
    """Cell with maximal coverage among those with error <= eps.

    Ties prefer larger t, then smaller mu.  With no feasible cell the
    fallback is the minimal-error cell (ties by the same cascade) and
    the result is flagged infeasible.
    """
    eps = SelectionCriterion("error", eps).target
    return _pick(
        grid,
        lambda c, e, t, mu: e <= eps,
        lambda c, e, t, mu: (c, t, -mu),
        lambda c, e, t, mu: (-e, c, t, -mu),
    )


def pick_coverage_constrained(grid: SelectionGrid, rho: float) -> SelectionResult:
    """Cell with minimal error among those with coverage >= rho.

    Ties prefer larger coverage, then larger t, then smaller mu.  With no
    feasible cell the fallback is the maximal-coverage cell (then minimal
    error, larger t, smaller mu) and the result is flagged infeasible.
    """
    rho = SelectionCriterion("coverage", rho).target
    return _pick(
        grid,
        lambda c, e, t, mu: c >= rho,
        lambda c, e, t, mu: (-e, c, t, -mu),
        lambda c, e, t, mu: (c, -e, t, -mu),
    )


def default_threshold_grid(size: int = 100) -> tuple[float, ...]:
    """Equally spaced thresholds spanning [0, 1]."""
    _count(size, 2, "size")
    return tuple(float(t) for t in np.linspace(0.0, 1.0, size))


def quick_mu_grid(size: int = 8) -> tuple[float, ...]:
    """Log-spaced constraint weights in [0.05, 16] for fast desk-scale runs."""
    _count(size, 2, "size")
    return tuple(float(m) for m in np.geomspace(0.05, 16.0, size))
