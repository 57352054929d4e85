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

Every candidate is an upper threshold, a lower threshold or a half-open
interval of coordinate 0, so a class is stored as columns (bounds and a
kind code per candidate), built with its classmethods, and no solver
forms a membership row.  A grid of budget splits is a (G, K) array, one
row of per-class shares per split.  Each solve sorts the coordinate-0
values of each class once; a candidate's points are then one run of
each sorted array, found with `np.searchsorted`, and coverage,
violations, whether two sets meet and the size of a union all follow
from the runs.  With n points, K classes, m candidates and G budget
splits: the counts take O(n log n + K m log n) time and O(n + K m)
memory; the joint solve adds tables over the candidates each class slot
can afford, at most m**K entries; the budget sweep adds O(K m log m +
G K log K) time and O(K m + G K) memory.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    CapacityError,
    DecisionSetFamily,
    InputError,
    LabeledDataset,
    _class_index,
    _count,
    _fraction,
    _seed,
)

_TOL = 1e-9
# the most table entries a joint solve or a budget grid may build
_CAP = 10_000_000


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


# kind code of each columnar candidate
_UPPER, _LOWER, _INTERVAL = 0, 1, 2


# ---------------------------------------------------------------------------
# hypothesis classes


class FiniteHypothesisClass:
    """A finite, ordered enumeration of candidate sets, stored as columns.

    Candidate c is read on coordinate 0 through its kind code: 0 an upper
    threshold {x > lo[c]} (``hi[c]`` is +inf), 1 a lower threshold {x <=
    hi[c]} (``lo[c]`` is -inf) and 2 an interval {lo[c] < x <= hi[c]}.
    ``open_lo`` marks the lower thresholds.  The classmethods build the
    usual classes; :meth:`predicate` returns one candidate as an
    `UpperThresholdSet`, `LowerThresholdSet` or `IntervalSet`.  The
    enumeration order is part of the contract: solvers break ties toward
    the smallest index.
    """

    def __init__(self, kind: str, lo, hi, codes):
        lo = np.array(lo, dtype=np.float64)
        hi = np.array(hi, dtype=np.float64)
        codes = np.asarray(codes)
        if not (lo.ndim == 1 and lo.shape == hi.shape == codes.shape):
            raise InputError(
                f"columns lo, hi and codes must be 1-D of one length, got shapes "
                f"{lo.shape}, {hi.shape} and {codes.shape}"
            )
        if codes.size == 0:
            raise InputError("hypothesis class enumeration is empty")
        if not np.isin(codes, (_UPPER, _LOWER, _INTERVAL)).all():
            raise InputError(f"kind codes are 0, 1 and 2, got {np.unique(codes)}")
        upper, lower = codes == _UPPER, codes == _LOWER
        if (hi[upper] != np.inf).any() or (lo[lower] != -np.inf).any():
            raise InputError("an upper threshold's hi is +inf, a lower threshold's lo -inf")
        self.kind = kind
        self.lo, self.hi = lo, hi
        self.codes = codes.astype(np.int8)
        self.open_lo = lower
        for a in (self.lo, self.hi, self.codes, self.open_lo):
            a.setflags(write=False)

    def __repr__(self) -> str:
        return f"FiniteHypothesisClass(kind={self.kind!r}, size={self.size})"

    @property
    def size(self) -> int:
        return self.codes.size

    def predicate(self, c: int) -> Callable:
        """Candidate ``c`` as a set object; negative indices count from the end."""
        c = operator.index(c)
        code = self.codes[c]
        if code == _UPPER:
            return UpperThresholdSet(float(self.lo[c]))
        if code == _LOWER:
            return LowerThresholdSet(float(self.hi[c]))
        return IntervalSet(float(self.lo[c]), float(self.hi[c]))

    def membership_matrix(self, X: np.ndarray) -> np.ndarray:
        """(size, n) boolean candidate-by-point membership.

        One predicate call per candidate: the dense reference the counts
        are tested against, not a path any solver takes.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.vstack([self.predicate(c)(X) for c in range(self.size)])

    def _sorted_counts(self, data: LabeledDataset):
        """``(start, stop, coverage, violations)`` of every candidate.

        Each class's coordinate-0 values are copied and sorted in place
        once, one class at a time, so one class copy is alive.  The class-k
        points a candidate holds are one run of them: from the count at or
        below its lower bound to the count at or below its upper bound.
        Summed over the classes, the run ends are positions ``[start,
        stop)`` in the whole sorted sample, where the set's points are
        again one run.  Sorted last, a NaN coordinate is above every bound,
        inf included, so it is in no set; a reversed interval and a
        candidate with a NaN bound get empty runs.
        """
        x = data.features[:, 0]
        start = np.empty((data.num_classes, self.size), dtype=np.intp)
        stop = np.empty_like(start)
        for k in range(data.num_classes):
            xs = x[data.labels == k]
            xs.sort()
            start[k] = np.searchsorted(xs, self.lo, side="right")
            stop[k] = np.searchsorted(xs, self.hi, side="right")
            del xs  # before the next class's copy is made
        start[:, self.open_lo] = 0
        np.maximum(stop, start, out=stop)
        nan_bound = np.isnan(self.lo) | np.isnan(self.hi)
        start[:, nan_bound] = 0
        stop[:, nan_bound] = 0
        own = stop - start
        coverage = own.sum(axis=0)
        return start.sum(axis=0), stop.sum(axis=0), coverage, coverage - own

    def counts(self, data: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
        """Exact candidate coverage ``(size,)`` and violations ``(K, size)``.

        ``violations[k, c]`` counts the points in candidate c labeled other
        than k.  Both are int64 and equal the row sums of
        `membership_matrix`.  Each class's coordinate-0 values are sorted
        once, and each candidate costs two `np.searchsorted` lookups per
        class: O(n log n + K * size * log n) time and O(n + K * size)
        memory, with no membership row.  A NaN coordinate is in no set,
        and a candidate with a NaN bound contains no point.
        """
        _, _, coverage, violations = self._sorted_counts(data)
        return coverage, violations

    @classmethod
    def upper_thresholds(cls, cuts: Sequence[float]) -> "FiniteHypothesisClass":
        lo = np.array(cuts, dtype=np.float64).reshape(-1)
        return cls(
            "upper_threshold", lo, np.full(lo.size, np.inf), np.full(lo.size, _UPPER)
        )

    @classmethod
    def lower_thresholds(cls, cuts: Sequence[float]) -> "FiniteHypothesisClass":
        hi = np.array(cuts, dtype=np.float64).reshape(-1)
        return cls(
            "lower_threshold", np.full(hi.size, -np.inf), hi, np.full(hi.size, _LOWER)
        )

    @classmethod
    def intervals(cls, edges: Sequence[float]) -> "FiniteHypothesisClass":
        """All half-open intervals (lo, hi] with lo < hi drawn from ``edges``.

        In `itertools.combinations` order of the sorted edges.
        """
        es = np.array(sorted(float(e) for e in edges))
        if es.size < 2:
            raise InputError("need at least two edges to form intervals")
        first, second = np.triu_indices(es.size, 1)
        return cls(
            "interval", es[first], es[second], np.full(first.size, _INTERVAL)
        )

    @classmethod
    def union(cls, *classes: "FiniteHypothesisClass") -> "FiniteHypothesisClass":
        if not classes:
            raise InputError("hypothesis class enumeration is empty")
        return cls(
            "union",
            np.concatenate([c.lo for c in classes]),
            np.concatenate([c.hi for c in classes]),
            np.concatenate([c.codes for c in classes]),
        )


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


def _compositions(total: int, K: int) -> np.ndarray:
    """Every split of ``total`` into K nonnegative integer parts, one per row.

    Rows ascend lexicographically, which is the ``itertools.combinations``
    order of stars-and-bars positions; the decoupled solver breaks ties by
    first-in-grid order.  Each prefix of parts extends by every next part
    its remaining budget allows, and a row reads its earlier parts back
    through the prefix it extends.
    """
    G = math.comb(total + K - 1, K - 1)
    out = np.empty((G, K), dtype=np.int64)
    left = np.array([total])
    levels = []
    for _ in range(K - 1):
        counts = left + 1
        owner = np.repeat(np.arange(left.size), counts)
        part = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
        levels.append((owner, part))
        left = left[owner] - part
    out[:, K - 1] = left
    row = np.arange(G)
    for j in range(K - 2, -1, -1):
        owner, part = levels[j]
        out[:, j] = part[row]
        row = owner[row]
    return out


def default_alpha_grid(num_classes: int) -> np.ndarray:
    """Uniform grid over budget splits summing to exactly 1, as a (G, K) array.

    Step 0.1 for two classes, 0.25 otherwise.
    """
    _count(num_classes, 1, "num_classes")
    m, step = (10, 0.1) if num_classes == 2 else (4, 0.25)
    return _compositions(m, num_classes) * step


def budget_alpha_grid(eps: float, n: int, num_classes: int) -> np.ndarray:
    """All splits of the integer error budget ``floor(eps * n)`` across classes.

    On an n-point sample the constraint only distinguishes integer counts,
    so this (G, K) grid is exhaustive: any feasible joint solution's
    per-class error counts appear as one of its rows.  Raises
    :class:`CapacityError`, before building anything, when the grid would
    hold more than 10^7 entries.
    """
    eps = _fraction(eps, "eps")
    _count(num_classes, 1, "num_classes")
    _count(n, 0, "n")
    budget = int(math.floor(eps * n + _TOL))
    if budget == 0 or eps == 0:
        return np.zeros((1, num_classes))
    G = math.comb(budget + num_classes - 1, num_classes - 1)
    if G * num_classes > _CAP:
        raise CapacityError(
            f"budget grid of G = {G} splits of {budget} errors over {num_classes} "
            f"classes exceeds cap {_CAP} entries"
        )
    return _compositions(budget, num_classes) / (eps * n)


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class OracleSolution:
    """Result of an exact solve.

    ``family`` holds the recovered sets (a single set for the per-class
    problem, K disjoint sets for the joint and decoupled problems);
    ``value`` is the achieved total empirical coverage.  Every solution
    meets its budget, since the empty family meets any.  ``raw_sets``, when
    present, are the per-class sets before disjointification, and
    ``alpha`` is the chosen row of the budget-split grid.
    """

    family: DecisionSetFamily
    value: float
    alpha: tuple | None = None
    raw_sets: tuple | None = None
    chosen_indices: tuple | None = None


def _empty_solution(num_sets: int, dim: int) -> OracleSolution:
    preds = [EmptySet() for _ in range(num_sets)]
    fam = DecisionSetFamily.from_predicates(preds, dim=dim)
    return OracleSolution(fam, 0.0, chosen_indices=tuple([None] * num_sets))


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
    k = _class_index(k, data.num_classes)
    eps_k = _fraction(eps_k, "eps_k")
    cov, viol = hclass.counts(data)
    feasible = viol[k] <= eps_k * data.n + _TOL
    if not feasible.any():
        return _empty_solution(1, data.dim)
    idx_feas = np.flatnonzero(feasible)
    best = idx_feas[np.argmax(cov[idx_feas])]
    fam = DecisionSetFamily.from_predicates([hclass.predicate(best)], dim=data.dim)
    return OracleSolution(fam, float(cov[best] / data.n), chosen_indices=(int(best),))


def solve_sc_exact(
    data: LabeledDataset,
    hclass: FiniteHypothesisClass,
    eps: float,
) -> OracleSolution:
    """Exhaustive joint solve over K-tuples of candidates.

    A tuple is admissible when its sets share no data point and the total
    count of covered-but-mislabeled points stays within ``eps * n``.  Among
    admissible tuples the total covered mass is maximized, ties broken by
    the smallest tuple in enumeration (product) order.

    A candidate whose own off-class count in slot k exceeds the budget is
    in no admissible tuple, so slot k keeps only the others.  The
    coverage, error and disjointness tables span the kept candidates, one
    axis per slot: the product of the kept-list sizes, at most
    ``size ** K`` entries, after the :meth:`FiniteHypothesisClass.counts`
    pass.  Raises :class:`CapacityError` when that product exceeds
    ``_CAP``.  Two sets meet on the data exactly when their runs in the
    sorted sample overlap, so no membership row is formed.
    """
    eps = _fraction(eps, "eps")
    K = data.num_classes
    start, stop, cov, err = hclass._sorted_counts(data)
    budget = eps * data.n + _TOL
    kept = [np.flatnonzero(err[k] <= budget) for k in range(K)]
    if any(kk.size == 0 for kk in kept):
        return _empty_solution(K, data.dim)
    sizes = [kk.size for kk in kept]
    n_tuples = math.prod(sizes)
    if n_tuples > _CAP:
        raise CapacityError(
            f"tables over the kept candidates, {' x '.join(map(str, sizes))} "
            f"= {n_tuples} tuples, exceed cap {_CAP}"
        )

    def slot(values: np.ndarray, k: int) -> np.ndarray:
        """Slot k's kept entries of ``values`` along table axis k."""
        ax = [1] * K
        ax[k] = -1
        return values[kept[k]].reshape(ax)

    total_cov = reduce(np.add.outer, [cov[kk] for kk in kept])
    total_err = reduce(np.add.outer, [err[k, kk] for k, kk in enumerate(kept)])
    admissible = total_err <= budget
    for a, b in itertools.combinations(range(K), 2):
        admissible &= np.maximum(slot(start, a), slot(start, b)) >= np.minimum(
            slot(stop, a), slot(stop, b)
        )
    if not admissible.any():
        return _empty_solution(K, data.dim)
    # kept lists ascend, so the first maximum is the smallest in product order
    flat = np.argmax(np.where(admissible, total_cov, -1))
    idxs = tuple(
        int(kk[i]) for kk, i in zip(kept, np.unravel_index(flat, admissible.shape))
    )
    preds = [hclass.predicate(i) for i in idxs]
    fam = DecisionSetFamily.from_predicates(preds, dim=data.dim)
    return OracleSolution(fam, float(total_cov.flat[flat] / data.n), chosen_indices=idxs)


def _best_within(cov: np.ndarray, viol: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Per budget, the largest candidate with ``viol`` at most it, or -1.

    Ties go to the smallest index: the first maximum of ``cov`` over the
    candidates ``np.flatnonzero(viol <= budget)``.
    """
    m = cov.size
    order = np.argsort(viol, kind="stable")
    # one key ranks by coverage, then by smaller index
    running = np.maximum.accumulate(cov[order] * m + (m - 1 - order))
    reach = np.searchsorted(viol[order], budgets, side="right")
    best = m - 1 - running[np.maximum(reach - 1, 0)] % m
    return np.where(reach > 0, best, -1)


def solve_osp_decoupled(
    data: LabeledDataset,
    hclass: FiniteHypothesisClass,
    eps: float,
    alpha_grid: np.ndarray | Sequence | None = None,
) -> OracleSolution:
    """Budget-split sweep: per-class single-set solves, then disjointify.

    ``alpha_grid`` is a (G, K) array-like of budget splits, one row per
    allocation (`default_alpha_grid` when omitted); each share is
    nonnegative and each row sums to at most 1.  For each allocation the
    class-k set is the largest candidate whose off-class mass stays within
    its share of ``eps``; overlaps are removed by subtracting all
    smaller-index sets.  The allocation with the best total coverage wins
    (first in grid order on ties).  The result is always feasible for the
    joint problem.

    After the :meth:`FiniteHypothesisClass.counts` pass, the G
    allocations' integer budgets are one array op, the best candidate per
    class and budget comes from one sort of each class's violations, and
    an allocation's union size is a sweep over its K runs in the sorted
    sample in order of their starts: O(K size log size + G K log K) time
    and O(K size + G K) memory, with no membership row.
    """
    eps = _fraction(eps, "eps")
    K = data.num_classes
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(K)
    shares = np.asarray(alpha_grid, dtype=np.float64)
    if shares.ndim != 2 or shares.shape[0] == 0 or shares.shape[1] != K:
        raise InputError(
            f"alpha grid must be a non-empty (G, {K}) array, got shape {shares.shape}"
        )
    if not (shares >= -_TOL).all():
        raise InputError("alpha grid has a negative or NaN budget share")
    if not (shares.sum(axis=1) <= 1.0 + _TOL).all():
        raise InputError("alpha grid has a row of budget shares summing to more than 1")

    start, stop, cov, viol = hclass._sorted_counts(data)
    n = data.n
    # the feasible-candidate choice depends only on the integer count budget
    budgets = np.floor(shares * eps * n + _TOL).astype(np.int64)
    chosen = np.stack(
        [_best_within(cov, viol[k], budgets[:, k]) for k in range(K)], axis=1
    )
    # each allocation's sets as sorted-sample runs, by their starts; an
    # empty set is the run [0, 0)
    lo = np.where(chosen >= 0, start[chosen], 0)
    hi = np.where(chosen >= 0, stop[chosen], 0)
    order = np.argsort(lo, axis=1, kind="stable")
    lo = np.take_along_axis(lo, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    # each run adds its part above the furthest stop of the runs before it
    reach = np.zeros_like(hi)
    np.maximum.accumulate(hi[:, :-1], axis=1, out=reach[:, 1:])
    union = np.maximum(hi - np.maximum(lo, reach), 0).sum(axis=1)
    # values are multiples of 1/n, so the first maximum count is the first
    # allocation whose value beats every earlier one
    g = int(np.argmax(union))
    best_choice = tuple(None if c < 0 else int(c) for c in chosen[g])
    raw_preds = tuple(
        EmptySet() if c is None else hclass.predicate(c) for c in best_choice
    )
    raw = DecisionSetFamily.from_predicates(raw_preds, dim=data.dim).member_fn

    def first_set(X: np.ndarray) -> np.ndarray:
        # a point belongs to the first raw set that holds it
        M = raw(X)
        return M & (np.cumsum(M, axis=1) == 1)

    fam = DecisionSetFamily(first_set, K, data.dim)
    return OracleSolution(
        fam,
        float(union[g] / n),
        alpha=tuple(shares[g].tolist()),
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
    _count(n, 1, "n")
    rng = np.random.default_rng(_seed(seed))
    x = rng.random(n)
    return LabeledDataset(x[:, None], rng.random(n) >= x, 2)


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
    if not 0 <= eps <= 0.5:
        raise InputError(f"eps must lie in the example's valid range [0, 0.5], got {eps}")
    _count(seeds_per_size, 1, "seeds_per_size")
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
                cut = float(cls.lo[sol.chosen_indices[0]])
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
