"""Dataset, family, and metric contracts."""

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
    assert m.rejection_rate == 0.25
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
    assert data.class_counts().tolist() == [1, 2]
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
    assert abs(m.coverage + m.rejection_rate - 1.0) <= 1e-12
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
