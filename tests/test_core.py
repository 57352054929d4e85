"""Dataset, family, and metric contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onesided.core import (
    REJECT,
    DecisionSetFamily,
    InputError,
    LabeledDataset,
    assign,
    class_index_type,
    evaluate,
)


def upper(cut):
    return lambda X: X[:, 0] > cut


def lower(cut):
    return lambda X: X[:, 0] <= cut


def four_point_family():
    # hand-checked: S0 = {x > 0.5} grabs 0.6 (label 1, wrong) and 0.9
    # (label 0, right); S1 = {x <= 0.2} grabs 0.1 (label 1, right)
    data = LabeledDataset([[0.1], [0.4], [0.6], [0.9]], [1, 0, 1, 0], 2)
    fam = DecisionSetFamily.from_predicates([upper(0.5), lower(0.2)], dim=1)
    return data, fam


def test_evaluate_hand_example():
    data, fam = four_point_family()
    m = evaluate(fam, data)
    assert m.coverage == 0.75
    assert m.raw_error == 0.25
    assert m.per_class_one_sided_error.tolist() == [0.25, 0.0]


def test_dataset_validation():
    with pytest.raises(InputError):
        LabeledDataset([[0.0], [1.0]], [0], 2)
    with pytest.raises(InputError):
        LabeledDataset([[0.0]], [2], 2)
    with pytest.raises(InputError):
        LabeledDataset([[0.0]], [-1], 2)


@pytest.mark.parametrize(
    "labels,named",
    [
        ([0.9, 1.7, 1.0], "0.9"),  # the int64 cast stored [0, 1, 1]
        ([0, 1.5, 7], "1.5"),  # refused as not whole before the range check
        ([0, float("nan"), 1], "nan"),
        ([0, 1, float("inf")], "inf"),
        (["1", "0", "1"], "'1'"),
        ([0, 1, None], "None"),
        ([0, 1j, 1], "0j"),  # a complex array is not real, 0j included
    ],
)
def test_dataset_refuses_labels_that_are_not_whole_numbers(labels, named):
    with pytest.raises(InputError, match="whole numbers") as exc:
        LabeledDataset(np.zeros((3, 1)), labels, 2)
    assert f"saw {named} at index" in str(exc.value)


def test_dataset_loads_whole_valued_float_labels():
    data = LabeledDataset(np.zeros((3, 1)), [0.0, 1.0, 1.0], 2)
    assert data.labels.tolist() == [0, 1, 1]
    assert data.labels.dtype == np.int8
    with pytest.raises(InputError, match=r"\[0, 2\)"):
        LabeledDataset(np.zeros((2, 1)), [0.0, 2.0], 2)


def test_dataset_accessors():
    data = LabeledDataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [0, 1, 1], 2)
    assert data.n == 3
    assert data.dim == 2
    sub = data.subset(np.array([2, 0]))
    assert sub.labels.tolist() == [1, 0]
    assert sub.features.tolist() == [[4.0, 5.0], [0.0, 1.0]]


def test_dataset_arrays_are_read_only():
    data = LabeledDataset([[0.0], [1.0]], [0, 1], 2)
    with pytest.raises(ValueError):
        data.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.labels[0] = 1


def test_classify_tie_break_smallest_index():
    fam = DecisionSetFamily.from_predicates([upper(0.0), upper(0.0)], dim=1)
    assert assign(fam, np.array([[0.5]])).tolist() == [0]


def test_classify_reject_and_dim_mismatch():
    data, fam = four_point_family()
    assert assign(fam, data.features).tolist() == [1, REJECT, 0, 0]
    with pytest.raises(InputError):
        assign(fam, np.array([[0.3, 0.4]]))


def test_evaluate_empty_dataset_rejected():
    _, fam = four_point_family()
    with pytest.raises(InputError):
        empty = LabeledDataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 2)
        evaluate(fam, empty)


def test_evaluate_class_count_mismatch():
    data = LabeledDataset([[0.1]], [2], 3)
    fam = DecisionSetFamily.from_predicates([upper(0.5), lower(0.2)], dim=1)
    with pytest.raises(InputError):
        evaluate(fam, data)


@st.composite
def random_instance(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    K = draw(st.integers(min_value=2, max_value=4))
    xs = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    ys = draw(st.lists(st.integers(min_value=0, max_value=K - 1), min_size=n, max_size=n))
    cuts = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=K,
            max_size=K,
        )
    )
    return xs, ys, K, cuts


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_metric_identities(inst):
    xs, ys, K, cuts = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    fam = DecisionSetFamily.from_predicates([upper(c) for c in cuts], dim=1)
    m = evaluate(fam, data)
    assert m.raw_error <= m.coverage + 1e-12
    assert 0.0 <= m.coverage <= 1.0
    # tie-broken per-class errors always partition the raw error
    assert abs(m.raw_error - m.per_class_one_sided_error.sum()) <= 1e-12


@given(random_instance())
@settings(max_examples=40, deadline=None)
def test_disjoint_family_coverage_decomposes(inst):
    xs, ys, K, cuts = inst
    data = LabeledDataset(np.array(xs)[:, None], ys, K)
    # carve [0,1] into K disjoint half-open slabs from sorted cuts
    edges = [0.0] + sorted(cuts)[: K - 1] + [1.1]

    def slab(lo, hi):
        return lambda X: (X[:, 0] > lo) & (X[:, 0] <= hi)

    preds = [slab(edges[i], edges[i + 1]) for i in range(K)]
    fam = DecisionSetFamily.from_predicates(preds, dim=1)
    M = fam.membership(data.features)
    assert (M.sum(axis=1) <= 1).all()
    m = evaluate(fam, data)
    assert abs(m.coverage - M.mean(axis=0).sum()) <= 1e-12


@given(
    K=st.integers(1, 11),
    n=st.integers(1, 3000),
    density=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_per_class_error_matches_per_class_loop(K, n, density, seed):
    # evaluate counts every class's wrong points in one bincount; the bytes
    # must equal the mean over each class's mask, one class at a time
    rng = np.random.default_rng(seed)
    member = rng.random((n, K)) < density  # overlaps and empty sets included
    fam = DecisionSetFamily(lambda X: member[X[:, 0].astype(int)], K, 1)
    data = LabeledDataset(np.arange(n)[:, None], rng.integers(0, K, size=n), K)
    a = assign(fam, data.features)
    loop = np.array([np.mean((a == k) & (data.labels != k)) for k in range(K)])
    assert evaluate(fam, data).per_class_one_sided_error.tobytes() == loop.tobytes()


def traced(fn):
    """``fn()``, the memory it leaves allocated, and its peak above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - before, peak - before


def test_subset_copies_its_rows_once():
    n, rows = 100_000, 60_000
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.random((n, 2)), rng.integers(0, 2, n), 2)
    idx = rng.permutation(n)[:rows]
    sub, kept, peak = traced(lambda: data.subset(idx))
    assert kept <= rows * (2 * 8 + 1) + 4096
    assert peak <= kept + 4096
    assert sub.features.tolist() == data.features[idx].tolist()
    assert sub.labels.tolist() == data.labels[idx].tolist()
    # the contract: read-only copies, labels in their narrow type
    assert sub.labels.dtype == data.labels.dtype
    for got, whole in ((sub.features, data.features), (sub.labels, data.labels)):
        assert not got.flags.writeable
        assert not np.shares_memory(got, whole)


def test_subset_takes_positions_or_a_mask_and_refuses_other_shapes():
    data = LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2)
    assert data.subset(np.array([True, False, True])).features.tolist() == [[0.0], [2.0]]
    empty = data.subset(np.array([], dtype=int))
    assert empty.features.shape == (0, 1) and empty.labels.shape == (0,)
    for bad in (np.array(1), np.array([[0, 1]])):
        with pytest.raises(InputError, match="1-D"):
            data.subset(bad)


def intp_evaluation(member, labels):
    """Class indices as ``argmax`` gives them, and the metrics read from those."""
    covered = member.any(axis=1)
    a = np.where(covered, np.argmax(member, axis=1), REJECT)
    wrong = covered & (a != labels)
    per_class = np.bincount(a[wrong], minlength=member.shape[1]) / labels.size
    return a, (float(np.mean(covered)), float(np.mean(wrong)), per_class)


@pytest.mark.parametrize("K", [1, 2, 10, 128, 129])
def test_assign_gives_narrow_indices_equal_to_argmax(K):
    n = 3000
    rng = np.random.default_rng(K)
    member = rng.random((n, K)) < 1.5 / K  # overlaps, empty rows and sets
    fam = DecisionSetFamily(lambda X: member, K, 1)
    data = LabeledDataset(np.zeros((n, 1)), rng.integers(0, K, n), K)
    a = assign(fam, data.features)
    assert a.dtype == class_index_type(K) == data.labels.dtype
    want, (coverage, raw_error, per_class) = intp_evaluation(member, data.labels)
    assert a.tolist() == want.tolist()
    got = evaluate(fam, data)
    assert (got.coverage, got.raw_error) == (coverage, raw_error)
    assert got.per_class_one_sided_error.tobytes() == per_class.tobytes()


def test_evaluate_holds_no_wide_class_indices():
    # beyond the membership matrix, a byte per point for the indices, the
    # covered and the wrong masks, and the wrong rows' indices, sorted
    n = 100_000
    rng = np.random.default_rng(3)
    member = rng.random((n, 2)) < 0.6
    fam = DecisionSetFamily(lambda X: member, 2, 1)
    data = LabeledDataset(np.zeros((n, 1)), rng.integers(0, 2, n), 2)
    want = intp_evaluation(member, data.labels)[1]
    wrong = int(round(want[1] * n))
    got, _, peak = traced(lambda: evaluate(fam, data))
    assert (got.coverage, got.raw_error) == want[:2]
    assert peak <= 3 * n + 2 * wrong + 65536
