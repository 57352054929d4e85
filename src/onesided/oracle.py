"""Exact solvers over finite hypothesis classes.

These brute-force routines are the ground truth the learned pipeline is
checked against.  They operate on empirical measures only: every
probability is a count over the given dataset, every constraint is
enforced exactly on those counts.

Two problems are solved.  The joint problem picks one set per class,
pairwise disjoint on the data, maximizing total covered mass subject to a
budget on the total mass of covered-but-mislabeled points.  The decoupled
relaxation splits the budget across classes, solves one single-set
problem per class (largest set whose false-positive mass stays under its
share), and makes the results disjoint by preferring smaller class
indices.  Sweeping the split and keeping the best total coverage recovers
the joint optimum up to twice the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    CapacityError,
    DecisionSetFamily,
    InputError,
    LabeledDataset,
)

_TOL = 1e-9


# ---------------------------------------------------------------------------
# set primitives
#
# All predicates map an (n, d) float array to an (n,) boolean array.  The
# 1-D threshold sets read coordinate 0.  Conventions: upper thresholds are
# strict {x > cut}, lower thresholds closed {x <= cut}, intervals half-open
# {lo < x <= hi}.


@dataclass(frozen=True)
class UpperThresholdSet:
    cut: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X)[:, 0] > self.cut


@dataclass(frozen=True)
class LowerThresholdSet:
    cut: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(X)[:, 0] <= self.cut


@dataclass(frozen=True)
class IntervalSet:
    lo: float
    hi: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(X)[:, 0]
        return (x > self.lo) & (x <= self.hi)


class EmptySet:
    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(np.atleast_2d(X).shape[0], dtype=bool)

    def __repr__(self) -> str:
        return "EmptySet()"


class DifferenceSet:
    """Base set minus the union of earlier sets; used to disjointify."""

    def __init__(self, base: Callable, removed: Sequence[Callable]):
        self.base = base
        self.removed = tuple(removed)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.base(X), dtype=bool)
        for r in self.removed:
            out = out & ~np.asarray(r(X), dtype=bool)
        return out


_INTERVAL_LIKE = (UpperThresholdSet, LowerThresholdSet, IntervalSet)


def _interval_bounds(p) -> tuple[float, float, bool]:
    """(lo, hi, open_lo): the set is {lo < x <= hi}, or {x <= hi} when open_lo."""
    if isinstance(p, UpperThresholdSet):
        return p.cut, np.inf, False
    if isinstance(p, LowerThresholdSet):
        return -np.inf, p.cut, True
    return p.lo, p.hi, False


# ---------------------------------------------------------------------------
# hypothesis classes


@dataclass(frozen=True)
class FiniteHypothesisClass:
    """A finite, ordered enumeration of candidate sets.

    The enumeration order is part of the contract: solvers break ties
    toward the smallest index.
    """

    kind: str
    predicates: tuple

    def __post_init__(self) -> None:
        if not self.predicates:
            raise InputError("hypothesis class enumeration is empty")

    @property
    def size(self) -> int:
        return len(self.predicates)

    def membership_matrix(self, X: np.ndarray) -> np.ndarray:
        """(size, n) boolean candidate-by-point membership."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.vstack([np.asarray(p(X), dtype=bool) for p in self.predicates])

    def counts(self, data: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        """Exact candidate coverage ``(size,)`` and violations ``(K, size)``.

        ``violations[k, c]`` counts the points in candidate c labeled other
        than k.  Both are int64 and equal the row sums of
        `membership_matrix`.  For threshold and interval candidates the
        coordinate-0 values of each class are sorted once and each
        candidate costs two `np.searchsorted` lookups per class: O(n log n
        + K * size * log n) time and O(n + K * size) memory, against the
        dense (size, n) matrix.  A NaN coordinate is in no set, and a
        candidate with a NaN bound contains no point.  Every candidate must
        be an upper, lower or interval set; any other raises
        :class:`InputError`.
        """
        for p in self.predicates:
            if not isinstance(p, _INTERVAL_LIKE):
                raise InputError(
                    f"counts takes upper, lower and interval sets, "
                    f"not {type(p).__name__}"
                )
        K = data.num_classes
        x = data.features[:, 0]
        lo, hi, open_lo = map(
            np.array, zip(*(_interval_bounds(p) for p in self.predicates))
        )
        nan_bound = np.isnan(lo) | np.isnan(hi)
        own = np.empty((K, self.size), dtype=np.int64)
        for j in range(K):
            # sorted last, a NaN x is above every bound, inf included
            xs = np.sort(x[data.labels == j])
            # #(x <= hi) - #(x <= lo); a reversed interval is empty
            upto_hi = np.searchsorted(xs, hi, side="right")
            upto_lo = np.searchsorted(xs, lo, side="right")
            upto_lo[open_lo] = 0
            own[j] = np.where(nan_bound, 0, np.maximum(upto_hi - upto_lo, 0))
        coverage = own.sum(axis=0)
        return coverage, coverage - own

    @classmethod
    def upper_thresholds(cls, cuts: Sequence[float]) -> "FiniteHypothesisClass":
        return cls("upper_threshold", tuple(UpperThresholdSet(float(c)) for c in cuts))

    @classmethod
    def lower_thresholds(cls, cuts: Sequence[float]) -> "FiniteHypothesisClass":
        return cls("lower_threshold", tuple(LowerThresholdSet(float(c)) for c in cuts))

    @classmethod
    def intervals(cls, edges: Sequence[float]) -> "FiniteHypothesisClass":
        """All half-open intervals (lo, hi] with lo < hi drawn from ``edges``."""
        es = sorted(float(e) for e in edges)
        preds = [
            IntervalSet(lo, hi) for lo, hi in itertools.combinations(es, 2)
        ]
        if not preds:
            raise InputError("need at least two edges to form intervals")
        return cls("interval", tuple(preds))

    @classmethod
    def union(cls, *classes: "FiniteHypothesisClass") -> "FiniteHypothesisClass":
        preds: list = []
        for c in classes:
            preds.extend(c.predicates)
        return cls("union", tuple(preds))


def canonical_cuts(x: np.ndarray) -> np.ndarray:
    """Cut values realizing every threshold behavior on sample ``x``.

    Midpoints between consecutive distinct values, plus one cut below the
    minimum and one above the maximum: at most n+1 behaviors per direction.
    """
    xs = np.unique(np.asarray(x, dtype=np.float64).ravel())
    if xs.size == 0:
        raise InputError("cannot derive cuts from an empty sample")
    mids = (xs[:-1] + xs[1:]) / 2.0
    return np.concatenate(([xs[0] - 1.0], mids, [xs[-1] + 1.0]))


# ---------------------------------------------------------------------------
# allocations


@dataclass(frozen=True)
class AlphaAllocation:
    """Per-class shares of the error budget, nonnegative, summing to at most 1."""

    shares: tuple

    def __post_init__(self) -> None:
        sh = tuple(float(a) for a in self.shares)
        if any(a < -_TOL for a in sh):
            raise InputError(f"negative budget share in {sh}")
        if sum(sh) > 1.0 + _TOL:
            raise InputError(f"budget shares sum to {sum(sh):.6f} > 1")
        object.__setattr__(self, "shares", sh)

    def __len__(self) -> int:
        return len(self.shares)

    def __getitem__(self, k: int) -> float:
        return self.shares[k]


def _compositions(total: int, K: int):
    """Every split of ``total`` into K nonnegative integer parts.

    Stars and bars, in ``itertools.combinations`` order of the bar
    positions; the decoupled solver breaks ties by first-in-grid order.
    """
    for bars in itertools.combinations(range(total + K - 1), K - 1):
        parts = []
        prev = -1
        for c in bars:
            parts.append(c - prev - 1)
            prev = c
        parts.append(total + K - 2 - prev)
        yield parts


def default_alpha_grid(num_classes: int, step: float | None = None) -> list[AlphaAllocation]:
    """Uniform grid over budget splits summing to exactly 1.

    Step 0.1 for two classes, 0.25 for three or four, unless overridden.
    """
    if num_classes < 1:
        raise InputError("num_classes must be positive")
    if step is None:
        step = 0.1 if num_classes == 2 else 0.25
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise InputError(f"step {step} does not divide 1 evenly")
    return [
        AlphaAllocation(tuple(p * step for p in parts))
        for parts in _compositions(m, num_classes)
    ]


def budget_alpha_grid(eps: float, n: int, num_classes: int) -> list[AlphaAllocation]:
    """All splits of the integer error budget ``floor(eps * n)`` across classes.

    On an n-point sample the constraint only distinguishes integer counts,
    so this grid is exhaustive: any feasible joint solution's per-class
    error counts appear as one of these allocations.
    """
    if eps < 0:
        raise InputError("eps must be nonnegative")
    budget = int(math.floor(eps * n + _TOL))
    if budget == 0 or eps == 0:
        return [AlphaAllocation((0.0,) * num_classes)]
    denom = eps * n
    return [
        AlphaAllocation(tuple(p / denom for p in parts))
        for parts in _compositions(budget, num_classes)
    ]


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class OracleSolution:
    """Result of an exact solve.

    ``family`` holds the recovered sets (a single set for the per-class
    problem, K disjoint sets for the joint and decoupled problems);
    ``value`` is the achieved total empirical coverage.  ``raw_sets``, when
    present, are the per-class sets before disjointification.
    """

    family: DecisionSetFamily
    value: float
    feasible: bool
    alpha: AlphaAllocation | None = None
    raw_sets: tuple | None = None
    chosen_indices: tuple | None = None


def _empty_solution(num_sets: int, dim: int) -> OracleSolution:
    preds = [EmptySet() for _ in range(num_sets)]
    fam = DecisionSetFamily.from_predicates(preds, dim=dim)
    return OracleSolution(fam, 0.0, True, chosen_indices=tuple([None] * num_sets))


def _lazy_rows(
    hclass: FiniteHypothesisClass, X: np.ndarray
) -> Callable[[int], np.ndarray]:
    """Membership row of one candidate on ``X``, computed on first use."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    cache: dict[int, np.ndarray] = {}

    def row(c: int) -> np.ndarray:
        if c not in cache:
            cache[c] = np.asarray(hclass.predicates[c](X), dtype=bool)
        return cache[c]

    return row


def solve_osp_exact(
    data: LabeledDataset,
    hclass: FiniteHypothesisClass,
    k: int,
    eps_k: float,
) -> OracleSolution:
    """Largest candidate whose mass of points labeled other than k stays
    at or below ``eps_k``.

    Ties break toward the smallest enumeration index.  When no candidate
    is feasible the empty set is returned with value 0: it always
    satisfies the constraint even if the class does not contain it.
    """
    if not 0 <= k < data.num_classes:
        raise InputError(f"class index {k} outside [0, {data.num_classes})")
    if eps_k < 0:
        raise InputError("error level must be nonnegative")
    cov, viol = hclass.counts(data)
    feasible = viol[k] <= eps_k * data.n + _TOL
    if not feasible.any():
        return _empty_solution(1, data.dim)
    idx_feas = np.flatnonzero(feasible)
    best = idx_feas[np.argmax(cov[idx_feas])]
    fam = DecisionSetFamily.from_predicates([hclass.predicates[best]], dim=data.dim)
    return OracleSolution(
        fam, float(cov[best] / data.n), True, chosen_indices=(int(best),)
    )


def solve_sc_exact(
    data: LabeledDataset,
    hclass: FiniteHypothesisClass,
    eps: float,
    cap: int = 10_000_000,
) -> OracleSolution:
    """Exhaustive joint solve over K-tuples of candidates.

    A tuple is admissible when its sets share no data point and the total
    count of covered-but-mislabeled points stays within ``eps * n``.  Among
    admissible tuples the total covered mass is maximized, ties broken by
    the smallest tuple in enumeration (product) order.  Raises
    :class:`CapacityError` when ``size ** K`` exceeds ``cap``.
    """
    if eps < 0:
        raise InputError("eps must be nonnegative")
    K = data.num_classes
    m = hclass.size
    n_tuples = m**K
    if n_tuples > cap:
        raise CapacityError(
            f"enumeration of {m}^{K} = {n_tuples} tuples exceeds cap {cap}"
        )
    cov, err = hclass.counts(data)

    # tuple-level tables by broadcasting one axis per class slot
    shape = (m,) * K
    total_cov = np.zeros(shape, dtype=np.int64)
    total_err = np.zeros(shape, dtype=np.int64)
    for k in range(K):
        ax = [1] * K
        ax[k] = m
        total_cov = total_cov + cov.reshape(ax)
        total_err = total_err + err[k].reshape(ax)

    budget = eps * data.n + _TOL
    # coverage above n is impossible for disjoint tuples; error sums are
    # exact only for disjoint tuples but over-count otherwise, so the
    # filter never discards an admissible tuple
    cand = np.flatnonzero(
        ((total_err <= budget) & (total_cov <= data.n)).ravel()
    )
    if cand.size == 0:
        return _empty_solution(K, data.dim)
    covs = total_cov.ravel()[cand]
    order = np.lexsort((cand, -covs))
    row = _lazy_rows(hclass, data.features)
    for pos in order:
        flat = cand[pos]
        idxs = np.unravel_index(flat, shape)
        ok = True
        for a, b in itertools.combinations(range(K), 2):
            if np.any(row(idxs[a]) & row(idxs[b])):
                ok = False
                break
        if ok:
            preds = [hclass.predicates[i] for i in idxs]
            fam = DecisionSetFamily.from_predicates(preds, dim=data.dim)
            return OracleSolution(
                fam,
                float(covs[pos] / data.n),
                True,
                chosen_indices=tuple(int(i) for i in idxs),
            )
    return _empty_solution(K, data.dim)


def solve_osp_decoupled(
    data: LabeledDataset,
    hclass: FiniteHypothesisClass,
    eps: float,
    alpha_grid: Sequence[AlphaAllocation] | None = None,
) -> OracleSolution:
    """Budget-split sweep: per-class single-set solves, then disjointify.

    For each allocation the class-k set is the largest candidate whose
    off-class mass stays within its share of ``eps``; overlaps are removed
    by subtracting all smaller-index sets.  The allocation with the best
    total coverage wins (first in grid order on ties).  The result is
    always feasible for the joint problem.
    """
    if eps < 0:
        raise InputError("eps must be nonnegative")
    K = data.num_classes
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(K)
    alpha_grid = list(alpha_grid)
    if not alpha_grid:
        raise InputError("alpha grid is empty")
    for a in alpha_grid:
        if len(a) != K:
            raise InputError(f"allocation {a.shares} has {len(a)} shares, need {K}")

    cov, viol = hclass.counts(data)
    row = _lazy_rows(hclass, data.features)

    n = data.n
    # feasible-candidate choice depends only on the integer count budget
    choice_cache: dict[tuple[int, int], int | None] = {}

    def best_candidate(k: int, count_budget: int) -> int | None:
        key = (k, count_budget)
        if key not in choice_cache:
            feas = np.flatnonzero(viol[k] <= count_budget)
            if feas.size == 0:
                choice_cache[key] = None
            else:
                choice_cache[key] = int(feas[np.argmax(cov[feas])])
        return choice_cache[key]

    best_value = -1.0
    best_alpha = None
    best_choice: tuple | None = None
    for alpha in alpha_grid:
        chosen = []
        union = np.zeros(n, dtype=bool)
        for k in range(K):
            budget = int(math.floor(alpha[k] * eps * n + _TOL))
            c = best_candidate(k, budget)
            chosen.append(c)
            if c is not None:
                union = union | row(c)
        value = float(union.sum() / n)
        if value > best_value + _TOL:
            best_value = value
            best_alpha = alpha
            best_choice = tuple(chosen)

    assert best_choice is not None
    raw_preds = tuple(
        EmptySet() if c is None else hclass.predicates[c] for c in best_choice
    )
    final_preds = []
    for k in range(K):
        if best_choice[k] is None:
            final_preds.append(EmptySet())
        elif k == 0:
            final_preds.append(raw_preds[0])
        else:
            final_preds.append(DifferenceSet(raw_preds[k], raw_preds[:k]))
    fam = DecisionSetFamily.from_predicates(final_preds, dim=data.dim)
    return OracleSolution(
        fam,
        best_value,
        True,
        alpha=best_alpha,
        raw_sets=raw_preds,
        chosen_indices=best_choice,
    )


def overlap_mass(sets: Sequence[Callable], data: LabeledDataset) -> float:
    """Fraction of data points lying in at least two of the given sets."""
    if len(sets) < 2:
        raise InputError("overlap needs at least two sets")
    counts = np.zeros(data.n, dtype=np.int64)
    for s in sets:
        counts += np.asarray(s(data.features), dtype=bool)
    return float(np.mean(counts >= 2))


# ---------------------------------------------------------------------------
# the closed-form 1-D example
#
# Features uniform on [0, 1]; the first class's posterior is x itself.
# The best single-threshold plain classifier errs with probability 1/4;
# below that budget the best achievable coverage over threshold sets is
# 2 * sqrt(eps), reached by predicting the first class above 1 - sqrt(eps)
# and the second at or below sqrt(eps).


def analytic_example_coverage(eps: float) -> tuple[float, float, float]:
    """Optimal coverage and the two defining cuts for budget ``eps``.

    Returns ``(coverage, upper_cut, lower_cut)`` = ``(2*sqrt(eps),
    1 - sqrt(eps), sqrt(eps))``.  Valid for ``0 <= eps < 1/4``.
    """
    if not 0.0 <= eps < 0.25:
        raise InputError(f"eps must lie in [0, 0.25), got {eps}")
    r = math.sqrt(eps)
    return 2.0 * r, 1.0 - r, r


def sample_analytic_example(n: int, seed: int) -> LabeledDataset:
    """Draw n points: x uniform on [0,1], label 0 with probability x, else 1."""
    if n <= 0:
        raise InputError("sample size must be positive")
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = np.where(rng.random(n) < x, 0, 1)
    return LabeledDataset(x[:, None], y, 2)


# ---------------------------------------------------------------------------
# sample-size trend


@dataclass(frozen=True)
class TrendRow:
    n: int
    coverage_deviation: float
    constraint_violation: float


def erm_feasibility_trend(
    eps: float,
    sample_sizes: Sequence[int],
    seeds_per_size: int,
    base_seed: int = 0,
) -> list[TrendRow]:
    """Median deviation of the empirical single-set solve from its
    population optimum on the closed-form example, per sample size.

    For the first class and upper-threshold sets the population optimum
    covers sqrt(2 * eps); a fitted cut c has true coverage 1 - c and true
    off-class mass (1 - c)^2 / 2.  Each row reports the median absolute
    coverage deviation and the median constraint excess over the seeds.
    """
    sizes = list(sample_sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sample sizes must be strictly increasing")
    if eps < 0 or eps > 0.5:
        raise InputError("eps outside the example's valid range")
    target_cov = math.sqrt(2.0 * eps)
    rows = []
    for ni, n in enumerate(sizes):
        devs = np.empty(seeds_per_size)
        excesses = np.empty(seeds_per_size)
        for s in range(seeds_per_size):
            data = sample_analytic_example(
                n, seed=base_seed + 1_000_003 * ni + s
            )
            cls = FiniteHypothesisClass.upper_thresholds(
                canonical_cuts(data.features[:, 0])
            )
            sol = solve_osp_exact(data, cls, k=0, eps_k=eps)
            if sol.chosen_indices and sol.chosen_indices[0] is not None:
                cut = cls.predicates[sol.chosen_indices[0]].cut
            else:
                cut = 1.0
            c = min(max(cut, 0.0), 1.0)
            true_cov = 1.0 - c
            true_err = (1.0 - c) ** 2 / 2.0
            devs[s] = abs(true_cov - target_cov)
            excesses[s] = max(0.0, true_err - eps)
        rows.append(
            TrendRow(n, float(np.median(devs)), float(np.median(excesses)))
        )
    return rows
