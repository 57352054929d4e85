"""Exact-solver contracts, checked against naive reimplementations.

The naive solvers in this file deliberately share no code with the
library: plain Python loops over predicate calls, so any indexing or
vectorization slip in the real solvers shows up as a disagreement.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onesided.oracle as oracle_mod
from onesided.core import (
    CapacityError,
    InputError,
    LabeledDataset,
    evaluate,
)
from onesided.data import mixture_oracle_coverage, two_class_mixture
from onesided.oracle import (
    EmptySet,
    FiniteHypothesisClass,
    analytic_example_coverage,
    budget_alpha_grid,
    canonical_cuts,
    default_alpha_grid,
    erm_feasibility_trend,
    overlap_mass,
    sample_analytic_example,
    solve_osp_decoupled,
    solve_osp_exact,
    solve_sc_exact,
    IntervalSet,
    LowerThresholdSet,
    UpperThresholdSet,
)


# ---------------------------------------------------------------------------
# single-set solve


FIVE = LabeledDataset(
    np.array([0.1, 0.2, 0.5, 0.7, 0.9])[:, None], [1, 0, 0, 1, 0], 2
)
FIVE_CUTS = [0.0, 0.3, 0.6, 0.8, 1.0]
# hand enumeration for class 0 over upper cuts:
#   cut 0.0 -> covers 5, off-class 2     cut 0.3 -> covers 3, off-class 1
#   cut 0.6 -> covers 2, off-class 1     cut 0.8 -> covers 1, off-class 0
#   cut 1.0 -> covers 0, off-class 0


@pytest.mark.parametrize(
    "eps,value,index",
    [(0.0, 0.2, 3), (0.2, 0.6, 1), (0.4, 1.0, 0)],
)
def test_osp_exact_hand_enumeration(eps, value, index):
    cls = FiniteHypothesisClass.upper_thresholds(FIVE_CUTS)
    sol = solve_osp_exact(FIVE, cls, k=0, eps_k=eps)
    assert sol.value == value
    assert sol.chosen_indices == (index,)


def test_osp_exact_tie_breaks_to_first():
    cls = FiniteHypothesisClass.upper_thresholds([0.3, 0.3])
    sol = solve_osp_exact(FIVE, cls, k=0, eps_k=0.2)
    assert sol.chosen_indices == (0,)


def test_osp_exact_infeasible_returns_empty():
    data = LabeledDataset([[0.5], [0.6]], [1, 1], 2)
    cls = FiniteHypothesisClass.upper_thresholds([0.0])
    sol = solve_osp_exact(data, cls, k=0, eps_k=0.0)
    assert sol.value == 0.0
    assert not sol.family.membership(data.features).any()


def test_osp_exact_validates_inputs():
    cls = FiniteHypothesisClass.upper_thresholds([0.5])
    with pytest.raises(InputError):
        solve_osp_exact(FIVE, cls, k=2, eps_k=0.1)
    with pytest.raises(InputError):
        solve_osp_exact(FIVE, cls, k=0, eps_k=-0.1)
    with pytest.raises(InputError):
        FiniteHypothesisClass("upper_threshold", (), (), ())


def naive_osp(data, cls, k, eps_k):
    best_cov, best_idx = -1, None
    for i in range(cls.size):
        pred = cls.predicate(i)
        cov = viol = 0
        for j in range(data.n):
            if bool(pred(data.features[j : j + 1])[0]):
                cov += 1
                if data.labels[j] != k:
                    viol += 1
        if viol <= eps_k * data.n + 1e-9 and cov > best_cov:
            best_cov, best_idx = cov, i
    return best_cov, best_idx


@st.composite
def osp_instance(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    xs = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    ys = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    cuts = draw(
        st.lists(
            st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),
            min_size=1, max_size=8,
        )
    )
    eps = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]))
    return xs, ys, cuts, eps


@given(osp_instance())
@settings(max_examples=60, deadline=None)
def test_osp_exact_matches_naive(inst):
    xs, ys, cuts, eps = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, 2)
    cls = FiniteHypothesisClass.upper_thresholds(cuts)
    sol = solve_osp_exact(data, cls, k=0, eps_k=eps)
    ncov, nidx = naive_osp(data, cls, 0, eps)
    if nidx is None:
        assert sol.value == 0.0
    else:
        assert sol.chosen_indices == (nidx,)
        assert sol.value == ncov / data.n


@given(osp_instance())
@settings(max_examples=40, deadline=None)
def test_osp_exact_monotone_in_eps(inst):
    xs, ys, cuts, eps = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, 2)
    cls = FiniteHypothesisClass.upper_thresholds(cuts)
    lo = solve_osp_exact(data, cls, k=0, eps_k=eps)
    hi = solve_osp_exact(data, cls, k=0, eps_k=min(1.0, eps + 0.2))
    assert hi.value >= lo.value


def test_threshold_behavior_count():
    # n points induce at most n+1 distinct threshold behaviors per direction
    rng = np.random.default_rng(7)
    x = rng.random(40)
    data_matrix = FiniteHypothesisClass.upper_thresholds(
        canonical_cuts(x)
    ).membership_matrix(x[:, None])
    behaviors = {tuple(row) for row in data_matrix}
    assert len(behaviors) <= 41
    dense = FiniteHypothesisClass.upper_thresholds(
        np.linspace(-0.5, 1.5, 500)
    ).membership_matrix(x[:, None])
    assert len({tuple(r) for r in dense}) <= 41


# Data values are drawn from a small pool so that duplicates are common,
# and cuts come from the same pool so that they hit data values exactly.
POOL = (0.0, 0.2, 0.5, 0.5000000000000001, 0.8, 1.0, -np.inf, np.inf)


@st.composite
def count_instance(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    K = draw(st.integers(min_value=2, max_value=4))
    value = st.one_of(
        st.sampled_from(POOL),
        st.floats(min_value=-0.5, max_value=1.5),
        st.just(float("nan")),
    )
    xs = draw(st.lists(value, min_size=n, max_size=n))
    ys = draw(
        st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n)
    )
    cut = st.one_of(st.sampled_from(xs), value)
    cuts = draw(st.lists(cut, min_size=1, max_size=8))
    edges = draw(st.lists(cut, min_size=2, max_size=6))
    kind = draw(st.sampled_from(["upper", "lower", "interval", "union"]))
    return xs, ys, K, cuts, edges, kind


def test_class_refuses_malformed_columns():
    F = FiniteHypothesisClass
    inf = np.inf
    with pytest.raises(InputError, match="one length"):
        F("mixed", [0.5, 0.1], [inf], [0, 2])
    with pytest.raises(InputError, match="one length"):
        F("mixed", [[0.5]], [[inf]], [[0]])
    # only upper, lower and interval sets have columns to count with
    for code in (3, -1, 0.5):
        with pytest.raises(InputError, match="kind codes"):
            F("mixed", [0.5, 0.1], [inf, 0.3], [0, code])
    # a column the kind does not read must hold the bound its counts use
    with pytest.raises(InputError, match="upper threshold"):
        F("mixed", [0.5], [0.9], [0])
    with pytest.raises(InputError, match="lower threshold"):
        F("mixed", [0.1], [0.9], [1])


def object_tuple(kind, cuts, edges, order=None):
    """The predicate tuple a constructor built when classes held objects."""
    upper = tuple(UpperThresholdSet(float(c)) for c in cuts)
    lower = tuple(LowerThresholdSet(float(c)) for c in cuts)
    es = sorted(float(e) for e in edges)
    inter = tuple(IntervalSet(lo, hi) for lo, hi in itertools.combinations(es, 2))
    mixed = upper + inter + lower
    if kind == "hand":
        return tuple(mixed[i] for i in order)
    return {"upper": upper, "lower": lower, "interval": inter, "union": mixed}[kind]


def same_predicate(p, q):
    # repr, not ==: a NaN cut never equals itself
    return type(p) is type(q) and repr(p) == repr(q)


@given(count_instance(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_columnar_class_matches_object_tuple(inst, rnd):
    xs, ys, K, cuts, edges, _ = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    F = FiniteHypothesisClass
    mixed_size = 2 * len(cuts) + math.comb(len(edges), 2)
    order = rnd.sample(range(mixed_size), mixed_size)
    built = {
        "upper": F.upper_thresholds(cuts),
        "lower": F.lower_thresholds(cuts),
        "interval": F.intervals(edges),
        "union": F.union(
            F.upper_thresholds(cuts), F.intervals(edges), F.lower_thresholds(cuts)
        ),
    }
    union = built["union"]
    built["hand"] = F("hand", union.lo[order], union.hi[order], union.codes[order])
    for kind, cls in built.items():
        ref = object_tuple(kind, cuts, edges, order)
        assert cls.size == len(ref)
        assert all(same_predicate(cls.predicate(c), q) for c, q in enumerate(ref))
        assert same_predicate(cls.predicate(-1), ref[-1])
        rows = np.vstack([p(data.features) for p in ref])
        assert np.array_equal(cls.membership_matrix(data.features), rows)
        cov, viol = cls.counts(data)
        assert cov.dtype == np.int64 and viol.dtype == np.int64
        off = [(rows & (data.labels != k)).sum(axis=1) for k in range(K)]
        assert np.array_equal(cov, rows.sum(axis=1))
        assert np.array_equal(viol, np.vstack(off))


def test_columnar_class_reads_back_the_predicates_it_was_built_from():
    given = [UpperThresholdSet(0.5), IntervalSet(0.1, 0.3)]
    cls = FiniteHypothesisClass("mixed", [0.5, 0.1], [np.inf, 0.3], [0, 2])
    assert [cls.predicate(c) for c in range(cls.size)] == given
    with pytest.raises(IndexError):
        cls.predicate(2)
    merged = FiniteHypothesisClass.union(FiniteHypothesisClass.lower_thresholds([0.1]), cls)
    assert [merged.predicate(c) for c in range(merged.size)] == [LowerThresholdSet(0.1)] + given
    assert merged.predicate(-3) == LowerThresholdSet(0.1)
    with pytest.raises(InputError):
        FiniteHypothesisClass.union()


# ---------------------------------------------------------------------------
# joint solve


def test_sc_exact_hand_example():
    data = LabeledDataset(
        np.array([0.1, 0.3, 0.6, 0.9])[:, None], [1, 1, 0, 0], 2
    )
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds([0.5]),
        FiniteHypothesisClass.lower_thresholds([0.5]),
    )
    sol = solve_sc_exact(data, cls, eps=0.0)
    assert sol.value == 1.0
    assert sol.chosen_indices == (0, 1)
    m = evaluate(sol.family, data)
    assert m.coverage == 1.0
    assert m.raw_error == 0.0


def test_sc_exact_zero_budget_no_tuple():
    # every nonempty candidate covers a mislabeled point; only the empty
    # fallback remains
    data = LabeledDataset([[0.2], [0.8]], [1, 0], 2)
    cls = FiniteHypothesisClass.lower_thresholds([0.5, 1.0])
    sol = solve_sc_exact(data, cls, eps=0.0)
    assert sol.value == 0.0
    assert not sol.family.membership(data.features).any()


def test_sc_exact_cap():
    data = LabeledDataset(np.linspace(0, 1, 5)[:, None], [0, 1, 0, 1, 0], 2)
    cls = FiniteHypothesisClass.upper_thresholds(np.linspace(0, 1, 150))
    with mock.patch.object(oracle_mod, "_CAP", 10_000), pytest.raises(CapacityError) as ei:
        solve_sc_exact(data, cls, eps=0.5)
    assert "10000" in str(ei.value)


def test_sc_exact_cap_counts_only_the_kept_candidates():
    # 4,002 candidates make 16.0M unpruned tuples, past the default cap, but
    # the budget keeps 645 x 600 of them
    data = sample_analytic_example(2000, seed=1)
    cuts = canonical_cuts(data.features[:, 0])
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    assert cls.size**2 > 10_000_000
    sol = solve_sc_exact(data, cls, eps=0.04)
    assert sol.value == 0.385
    assert sol.chosen_indices == (1594, 2365)
    with mock.patch.object(oracle_mod, "_CAP", 387_000 - 1):
        with pytest.raises(CapacityError, match="645 x 600 = 387000"):
            solve_sc_exact(data, cls, eps=0.04)


def naive_sc(data, cls, eps):
    """Reference joint solver: pure-Python product scan in tuple order."""
    K = data.num_classes
    n = data.n
    masks = []
    for c in range(cls.size):
        pred = cls.predicate(c)
        masks.append([bool(pred(data.features[j : j + 1])[0]) for j in range(n)])
    best = (-1, None)
    for combo in itertools.product(range(cls.size), repeat=K):
        used = [False] * n
        cov = err = 0
        ok = True
        for k, ci in enumerate(combo):
            for j in range(n):
                if masks[ci][j]:
                    if used[j]:
                        ok = False
                        break
                    used[j] = True
                    cov += 1
                    if data.labels[j] != k:
                        err += 1
            if not ok:
                break
        if ok and err <= eps * n + 1e-9 and cov > best[0]:
            best = (cov, combo)
    return best


@st.composite
def sc_instance(draw):
    n = draw(st.integers(min_value=3, max_value=20))
    K = draw(st.integers(min_value=2, max_value=3))
    xs = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    ys = draw(
        st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n)
    )
    m = draw(st.integers(min_value=2, max_value=5))
    cuts = draw(
        st.lists(
            st.floats(min_value=-0.1, max_value=1.1, allow_nan=False),
            min_size=m, max_size=m,
        )
    )
    eps = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    return xs, ys, K, cuts, eps


@given(sc_instance())
@settings(max_examples=40, deadline=None)
def test_sc_exact_matches_naive(inst):
    xs, ys, K, cuts, eps = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    half = len(cuts) // 2 or 1
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts[:half]),
        FiniteHypothesisClass.lower_thresholds(cuts[half:]),
    )
    sol = solve_sc_exact(data, cls, eps=eps)
    ncov, ncombo = naive_sc(data, cls, eps)
    if ncombo is None:
        assert sol.value == 0.0
    else:
        assert sol.value == ncov / data.n
        assert sol.chosen_indices == ncombo


def full_table_sc(data, cls, eps):
    """Reference joint solve over the unpruned ``m**K`` tables.

    Counts come from dense membership rows; the tables are broadcast one
    axis per slot, the admissible-looking tuples are ordered by coverage
    and product index with a lexsort, and the first whose rows are
    pairwise disjoint wins.  Returns ``(value, chosen_indices)``.
    """
    K, m, n = data.num_classes, cls.size, data.n
    rows = cls.membership_matrix(data.features)
    cov = rows.sum(axis=1)
    err = [(rows & (data.labels != k)).sum(axis=1) for k in range(K)]
    shape = (m,) * K
    total_cov = np.zeros(shape, dtype=np.int64)
    total_err = np.zeros(shape, dtype=np.int64)
    for k in range(K):
        ax = [1] * K
        ax[k] = m
        total_cov = total_cov + cov.reshape(ax)
        total_err = total_err + err[k].reshape(ax)
    cand = np.flatnonzero(((total_err <= eps * n + 1e-9) & (total_cov <= n)).ravel())
    covs = total_cov.ravel()[cand]
    for pos in np.lexsort((cand, -covs)):
        idxs = np.unravel_index(cand[pos], shape)
        if not any(
            (rows[idxs[a]] & rows[idxs[b]]).any()
            for a, b in itertools.combinations(range(K), 2)
        ):
            return float(covs[pos] / n), tuple(int(i) for i in idxs)
    return 0.0, (None,) * K


# Values from a small pool make duplicate cuts, ties and equal coordinates
# common; NaN and infinite coordinates lie in the pool too.
SC_POOL = (0.0, 0.2, 0.5, 0.8, 1.0, -np.inf, np.inf, float("nan"))


@st.composite
def pruned_sc_instance(draw):
    K = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=14))
    value = st.one_of(st.sampled_from(SC_POOL), st.floats(min_value=-0.5, max_value=1.5))
    xs = draw(st.lists(value, min_size=n, max_size=n))
    ys = draw(
        st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n)
    )
    cut = st.one_of(st.sampled_from(xs), value)
    size = {2: 4, 3: 3, 4: 2}[K]
    cuts = draw(st.lists(cut, min_size=1, max_size=size))
    edges = draw(st.lists(cut, min_size=2, max_size=size + 1))
    kind = draw(st.sampled_from(["upper", "lower", "interval", "union"]))
    eps = draw(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0]))
    return xs, ys, K, cuts, edges, kind, eps


@given(pruned_sc_instance())
@settings(max_examples=200, deadline=None)
# eps 0: every class-0 candidate covers a point of another class, so slot 0
# keeps no candidate at all
@example(([0.1, 0.5, 0.9], [0, 1, 2], 3, [0.0, 0.3], [0.0, 1.0], "upper", 0.0))
def test_sc_exact_matches_full_table_reference(inst):
    xs, ys, K, cuts, edges, kind, eps = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    F = FiniteHypothesisClass
    cls = {
        "upper": lambda: F.upper_thresholds(cuts),
        "lower": lambda: F.lower_thresholds(cuts),
        "interval": lambda: F.intervals(edges),
        "union": lambda: F.union(F.upper_thresholds(cuts), F.lower_thresholds(cuts)),
    }[kind]()
    sol = solve_sc_exact(data, cls, eps)
    value, chosen = full_table_sc(data, cls, eps)
    assert sol.value == value
    assert sol.chosen_indices == chosen


def test_sc_exact_recovers_full_coverage_at_plain_risk():
    # at a budget equal to the best plain classifier's risk, predicting
    # everywhere with that classifier is admissible: coverage 1
    data = sample_analytic_example(400, seed=11)
    x = data.features[:, 0]
    cuts = canonical_cuts(x)
    best_risk = min(
        (np.sum((x > c) & (data.labels != 0)) + np.sum((x <= c) & (data.labels != 1)))
        / data.n
        for c in cuts
    )
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    sol = solve_sc_exact(data, cls, eps=best_risk)
    assert sol.value == 1.0


# ---------------------------------------------------------------------------
# allocations and the decoupled solve


def _split_loop(total, num_classes):
    """Stars-and-bars reference: the loop both grids were written with."""
    out = []
    for combo in itertools.combinations(range(total + num_classes - 1), num_classes - 1):
        parts = []
        prev = -1
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(total + num_classes - 2 - prev)
        out.append(parts)
    return out


def rows_of(grid):
    return [tuple(row) for row in grid.tolist()]


def test_compositions_follow_the_itertools_order():
    # the numpy build repeats each prefix over its remaining budget; its
    # rows must keep the loop's order, which sets the decoupled tie-breaks
    for K in range(1, 6):
        for total in (0, 1, 2, 5, 11):
            got = oracle_mod._compositions(total, K)
            assert got.dtype == np.int64
            assert got.shape == (math.comb(total + K - 1, K - 1), K)
            assert got.tolist() == _split_loop(total, K)


def test_default_alpha_grid_shapes():
    g2 = default_alpha_grid(2)
    assert g2.shape == (11, 2) and g2.dtype == np.float64
    assert np.all(np.abs(g2.sum(axis=1) - 1.0) < 1e-12)
    assert default_alpha_grid(3).shape == (15, 3)
    assert default_alpha_grid(4).shape == (35, 4)
    # order matters: the decoupled solver breaks ties by first-in-grid order,
    # and the rows are bit for bit the shares the loop computes
    for K in range(1, 5):
        s = 0.1 if K == 2 else 0.25
        expected = [tuple(p * s for p in parts) for parts in _split_loop(round(1 / s), K)]
        assert rows_of(default_alpha_grid(K)) == expected
        for eps, n in ((0.1, 40), (0.05, 97), (0.3, 20)):
            budget = math.floor(eps * n + 1e-9)
            expected = [tuple(p / (eps * n) for p in parts) for parts in _split_loop(budget, K)]
            assert rows_of(budget_alpha_grid(eps, n, K)) == expected


def test_decoupled_refuses_malformed_grids():
    data = LabeledDataset(np.array([0.1, 0.4, 0.8])[:, None], [0, 1, 0], 2)
    cls = FiniteHypothesisClass.upper_thresholds([0.0, 0.5])
    bad = {
        "more than 1": [[0.5, 0.5], [0.8, 0.4]],
        "negative": [[-0.1, 0.5]],
        "NaN": [[float("nan"), 0.5]],
        "non-empty": np.zeros((0, 2)),
        r"\(G, 2\)": [[0.5, 0.25, 0.25]],
        "shape": [0.5, 0.5],
    }
    for match, grid in bad.items():
        with pytest.raises(InputError, match=match):
            solve_osp_decoupled(data, cls, 0.4, grid)
    # sums below 1 are allowed; the chosen row comes back as plain floats
    sol = solve_osp_decoupled(data, cls, 0.4, np.array([[0.25, 0.25]]))
    assert sol.alpha == (0.25, 0.25) and type(sol.alpha[0]) is float


EPS_TAKERS = {
    "solve_sc_exact": lambda eps: solve_sc_exact(FIVE, FIVE_CLASS, eps),
    "solve_osp_exact": lambda eps: solve_osp_exact(FIVE, FIVE_CLASS, 0, eps),
    "solve_osp_decoupled": lambda eps: solve_osp_decoupled(FIVE, FIVE_CLASS, eps),
    "budget_alpha_grid": lambda eps: budget_alpha_grid(eps, FIVE.n, 2),
    "mixture_oracle_coverage": lambda eps: mixture_oracle_coverage(
        two_class_mixture(), eps, 20
    ),
}
FIVE_CLASS = FiniteHypothesisClass.upper_thresholds(FIVE_CUTS)


@pytest.mark.parametrize("name", EPS_TAKERS)
def test_eps_outside_the_unit_interval_is_refused(name):
    # a NaN budget compares false with every count: it would pass as a budget
    # of 0.  A budget is a mass: above 1 the decoupled solver's integer
    # budgets overflowed int64 and the budget grid asked for 10^22 entries
    for eps in (float("nan"), float("inf"), -float("inf"), -0.1, 1.5, 1e20):
        with pytest.raises(InputError, match=r"must be a number in \[0, 1\]"):
            EPS_TAKERS[name](eps)
    EPS_TAKERS[name](0.2)
    EPS_TAKERS[name](1.0)


def test_the_whole_budget_gives_the_exact_value():
    # 100 points, 11 upper and 11 lower cuts: at eps = 1 every split covers
    # everything, as the joint solve does
    data = sample_analytic_example(100, 0)
    cuts = np.linspace(0.0, 1.0, 11)
    hclass = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    exact = solve_sc_exact(data, hclass, 1.0).value
    assert exact == solve_osp_exact(data, hclass, 0, 1.0).value == 1.0
    assert solve_osp_decoupled(data, hclass, 1.0).value == exact
    grid = budget_alpha_grid(1.0, data.n, 2)
    assert solve_osp_decoupled(data, hclass, 1.0, alpha_grid=grid).value == exact


def test_class_indices_are_below_the_class_count():
    for k in (2, 5):
        with pytest.raises(InputError, match=f"class index {k} outside \\[0, 2\\)"):
            solve_osp_exact(FIVE, FIVE_CLASS, k, 0.1)


def test_budget_alpha_grid_enumerates_integer_splits():
    grid = budget_alpha_grid(eps=0.1, n=40, num_classes=2)
    # budget 4 -> splits (0,4), (1,3), ..., (4,0)
    assert len(grid) == 5
    counts = {tuple(round(a * 0.1 * 40) for a in row) for row in rows_of(grid)}
    assert counts == {(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)}
    assert rows_of(budget_alpha_grid(0.0, 40, 3)) == [(0.0, 0.0, 0.0)]
    for n, K, refusal in ((-40, 2, "n must be a whole number >= 0"),
                          (40, 0, "num_classes must be a whole number >= 1")):
        with pytest.raises(InputError, match=refusal):
            budget_alpha_grid(0.1, n, K)


def test_budget_alpha_grid_refuses_grids_over_the_cap_before_building():
    # budget 300 over 4 classes: C(303, 3) = 4,590,551 rows, 1.8e7 entries
    with pytest.raises(CapacityError, match="G = 4590551 "):
        budget_alpha_grid(0.3, 1000, 4)
    # 4.5e12 rows would need 98 TiB; the count alone refuses them
    with pytest.raises(CapacityError, match="G = 4500900055001 "):
        budget_alpha_grid(0.3, 100_000, 4)
    # the cap counts entries, G * K: 5 x 2 fits a cap of 10, 6 x 2 does not
    with mock.patch.object(oracle_mod, "_CAP", 10):
        assert budget_alpha_grid(0.1, 40, 2).shape == (5, 2)
        with pytest.raises(CapacityError, match="G = 6 .* cap 10 "):
            budget_alpha_grid(0.1, 50, 2)


def test_decoupled_single_class_degenerates_to_single_solve():
    data = LabeledDataset(np.array([0.1, 0.4, 0.8])[:, None], [0, 0, 0], 1)
    cls = FiniteHypothesisClass.upper_thresholds([0.0, 0.5])
    dec = solve_osp_decoupled(data, cls, eps=0.2, alpha_grid=[[1.0]])
    one = solve_osp_exact(data, cls, k=0, eps_k=0.2)
    assert dec.value == one.value
    assert dec.chosen_indices == one.chosen_indices


def test_decoupled_is_always_feasible_and_disjoint():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(20, 80))
        K = int(rng.integers(2, 5))
        data = LabeledDataset(
            rng.random(n)[:, None], rng.integers(0, K, n), K
        )
        cls = FiniteHypothesisClass.union(
            FiniteHypothesisClass.upper_thresholds(rng.random(4)),
            FiniteHypothesisClass.lower_thresholds(rng.random(4)),
        )
        eps = float(rng.choice([0.02, 0.05, 0.1]))
        sol = solve_osp_decoupled(data, cls, eps, budget_alpha_grid(eps, n, K))
        M = sol.family.membership(data.features)
        assert (M.sum(axis=1) <= 1).all()
        m = evaluate(sol.family, data)
        assert m.raw_error <= eps + 1e-9
        assert abs(m.coverage - sol.value) < 1e-12


@st.composite
def c03_instance(draw):
    """A c03-style instance: uniform x, quantile labels with flips or none."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    K = draw(st.sampled_from([2, 3, 4]))
    n = int(rng.integers(40, 201))
    x = rng.uniform(0.0, 1.0, n)
    if draw(st.booleans()):
        labels = np.digitize(x, np.quantile(x, np.linspace(0.0, 1.0, K + 1)[1:-1]))
        flip = rng.random(n) < 0.1
        labels[flip] = rng.integers(0, K, int(flip.sum()))
    else:
        labels = rng.integers(0, K, n)
    cuts = canonical_cuts(x)
    cuts = cuts[np.unique(np.linspace(0, cuts.size - 1, 24).astype(int))]
    F = FiniteHypothesisClass
    cls = draw(
        st.sampled_from(
            [
                F.upper_thresholds(cuts),
                F.lower_thresholds(cuts),
                F.union(F.upper_thresholds(cuts), F.lower_thresholds(cuts)),
                F.intervals(cuts[::3]),
            ]
        )
    )
    eps = draw(st.sampled_from([0.02, 0.05, 0.1]))
    return LabeledDataset(x[:, None], labels, K), cls, eps, rng


@given(c03_instance())
@settings(max_examples=60, deadline=None)
def test_decoupled_family_gives_each_point_to_the_first_raw_set(inst):
    data, cls, eps, rng = inst
    grid = budget_alpha_grid(eps, data.n, data.num_classes)
    sol = solve_osp_decoupled(data, cls, eps, grid)
    # points off the data range, exactly on every cut, and the sample itself
    bounds = np.concatenate([cls.lo, cls.hi])
    y = np.concatenate(
        [rng.uniform(-0.5, 1.5, 200), bounds[np.isfinite(bounds)], data.features[:, 0]]
    )
    Y = y[:, None]
    want, taken = [], np.zeros(y.size, dtype=bool)
    for s in sol.raw_sets:
        inside = np.asarray(s(Y), dtype=bool)
        want.append(inside & ~taken)
        taken |= inside
    assert sol.family.membership(Y).tolist() == np.column_stack(want).tolist()


def loop_decoupled(data, cls, eps, grid):
    """Reference budget sweep: one pass per allocation over dense rows.

    Returns ``(value, alpha, chosen_indices)`` of the first allocation whose
    union coverage beats every earlier one.
    """
    n, K = data.n, data.num_classes
    rows = cls.membership_matrix(data.features)
    cov = rows.sum(axis=1)
    best = (-1.0, None, None)
    for alpha in grid:
        chosen = []
        union = np.zeros(n, dtype=bool)
        for k in range(K):
            budget = int(math.floor(alpha[k] * eps * n + 1e-9))
            viol = (rows & (data.labels != k)).sum(axis=1)
            feas = np.flatnonzero(viol <= budget)
            c = None if feas.size == 0 else int(feas[np.argmax(cov[feas])])
            chosen.append(c)
            if c is not None:
                union |= rows[c]
        value = float(union.sum() / n)
        if value > best[0] + 1e-9:
            best = (value, alpha, tuple(chosen))
    return best


@st.composite
def sweep_instance(draw):
    K = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(st.sampled_from(SC_POOL), st.floats(min_value=-0.5, max_value=1.5))
    xs = draw(st.lists(value, min_size=n, max_size=n))
    ys = draw(
        st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n)
    )
    cut = st.one_of(st.sampled_from(xs), value)
    cuts = draw(st.lists(cut, min_size=1, max_size=8))
    edges = draw(st.lists(cut, min_size=2, max_size=5))
    eps = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]))
    grid = draw(st.sampled_from(["budget", "default"]))
    return xs, ys, K, cuts, edges, eps, grid


@given(sweep_instance())
@settings(max_examples=150, deadline=None)
# every candidate covers the one point, labeled 1: class 0 gets no set
@example(([0.5], [1], 2, [0.0], [0.0, 1.0], 0.0, "budget"))
def test_decoupled_matches_per_allocation_loop(inst):
    xs, ys, K, cuts, edges, eps, grid_kind = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    F = FiniteHypothesisClass
    cls = F.union(F.upper_thresholds(cuts), F.intervals(edges), F.lower_thresholds(cuts))
    if grid_kind == "budget":
        grid = budget_alpha_grid(eps, data.n, K)
    else:
        grid = default_alpha_grid(K)
    sol = solve_osp_decoupled(data, cls, eps, grid)
    value, alpha, chosen = loop_decoupled(data, cls, eps, grid)
    assert sol.value == value
    assert sol.alpha == tuple(alpha.tolist())
    assert sol.chosen_indices == chosen
    want = [EmptySet() if c is None else cls.predicate(c) for c in chosen]
    assert all(same_predicate(p, q) for p, q in zip(sol.raw_sets, want))
    assert len(sol.raw_sets) == K


def test_decoupled_sweep_forms_no_membership_rows():
    # 40,002 candidates over 20,000 points and 401 allocations: cached
    # membership rows alone would take about 17 MB
    data = sample_analytic_example(20_000, seed=5)
    cuts = canonical_cuts(data.features[:, 0])
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    grid = budget_alpha_grid(0.02, data.n, 2)
    assert cls.size == 40_002 and len(grid) == 401
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = solve_osp_decoupled(data, cls, 0.02, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.value == 0.282
    assert sol.chosen_indices == (16549, 22190)
    assert peak < 8e6


def test_counts_hold_one_class_copy_at_a_time():
    # sorting each class into a second copy, and keeping every sorted
    # class, peaks near three class copies here
    data = sample_analytic_example(100_000, seed=3)
    cuts = np.linspace(0.0, 1.0, 11)
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    class_copy = 8 * int(np.bincount(data.labels).max())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        coverage, violations = cls.counts(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one class's values, the boolean mask that selects them, and 16 KiB
    assert peak <= class_copy + data.n + 16 * 1024
    rows = cls.membership_matrix(data.features)
    assert np.array_equal(coverage, rows.sum(axis=1))
    assert np.array_equal(violations[0], (rows & (data.labels != 0)).sum(axis=1))


def test_decoupled_analytic_instance_near_optimal():
    eps = 0.04
    data = sample_analytic_example(100_000, seed=5)
    cuts = np.linspace(0.0, 1.0, 201)
    cls = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    sol = solve_osp_decoupled(data, cls, eps, default_alpha_grid(2))
    best = analytic_example_coverage(eps)[0]
    assert best - 2 * eps - 0.02 <= sol.value <= best + 0.02


def test_overlap_mass_counts_double_membership():
    data = LabeledDataset(np.array([0.1, 0.5, 0.9])[:, None], [0, 1, 0], 2)
    sets = [UpperThresholdSet(0.3), LowerThresholdSet(0.6)]
    # only 0.5 lies in both
    assert overlap_mass(sets, data) == pytest.approx(1 / 3)
    with pytest.raises(InputError):
        overlap_mass([sets[0]], data)


# ---------------------------------------------------------------------------
# closed-form example


def test_analytic_coverage_values():
    cov, hi, lo = analytic_example_coverage(0.04)
    assert cov == pytest.approx(0.4, abs=1e-15)
    assert hi == pytest.approx(0.8, abs=1e-15)
    assert lo == pytest.approx(0.2, abs=1e-15)
    for bad in (-0.01, 0.25, 0.5):
        with pytest.raises(InputError):
            analytic_example_coverage(bad)
    for bad in ("0.1", None, float("nan")):
        with pytest.raises(InputError, match=r"eps must be a number in \[0, 1\]"):
            analytic_example_coverage(bad)


def test_analytic_sample_statistics():
    data = sample_analytic_example(1_000_000, seed=123)
    frac0 = np.mean(data.labels == 0)
    assert 0.497 <= frac0 <= 0.503
    x = data.features[:, 0]
    cuts = np.linspace(0, 1, 401)
    risks = [
        (np.sum((x > c) & (data.labels != 0)) + np.sum((x <= c) & (data.labels != 1)))
        / data.n
        for c in cuts
    ]
    assert 0.247 <= min(risks) <= 0.253


@pytest.mark.parametrize("n", [1, 2, 999, 100_001])
@pytest.mark.parametrize("seed", [0, 9, 123])
def test_analytic_sample_equals_the_where_formula(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    want = LabeledDataset(x[:, None], np.where(rng.random(n) < x, 0, 1), 2)
    got = sample_analytic_example(n, seed)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype == np.int8
    assert got.labels.tobytes() == want.labels.tobytes()


def test_analytic_sample_deterministic():
    a = sample_analytic_example(1000, seed=9)
    b = sample_analytic_example(1000, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# sample-size trend


def test_trend_rows_and_determinism():
    rows = erm_feasibility_trend(0.04, [60, 240], seeds_per_size=5, base_seed=2)
    again = erm_feasibility_trend(0.04, [60, 240], seeds_per_size=5, base_seed=2)
    assert [(r.n, r.coverage_deviation, r.constraint_violation) for r in rows] == [
        (r.n, r.coverage_deviation, r.constraint_violation) for r in again
    ]
    assert rows[0].n == 60 and rows[1].n == 240
    assert all(r.coverage_deviation >= 0 for r in rows)
    with pytest.raises(InputError):
        erm_feasibility_trend(0.04, [100, 100], seeds_per_size=2)


def test_trend_refuses_bad_eps_and_seed_counts_by_name():
    # each used to pass its check: a NaN row with RuntimeWarnings, or a
    # failure under the name eps_k; a string or None escaped as TypeError
    for eps in (float("nan"), -0.01, "0.1", None, True):
        with pytest.raises(InputError, match=r"eps must be a number in \[0, 1\]"):
            erm_feasibility_trend(eps, (100,), 1)
    with pytest.raises(InputError, match="eps must lie in"):
        erm_feasibility_trend(0.6, (100,), 1)
    for seeds in (0, -1, 2.5, None):
        with pytest.raises(InputError, match="seeds_per_size"):
            erm_feasibility_trend(0.02, (100,), seeds)
    assert len(erm_feasibility_trend(0.02, (100,), np.int64(1))) == 1
