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
    LabeledExample,
    SelectiveDecision,
    assign,
    classify,
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


def test_dataset_accessors():
    data = LabeledDataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [0, 1, 1], 2)
    assert data.n == 3
    assert data.dim == 2
    assert data.class_counts().tolist() == [1, 2]
    ex = data.example(1)
    assert ex.label == 1
    assert ex.features.tolist() == [2.0, 3.0]
    sub = data.subset(np.array([2, 0]))
    assert sub.labels.tolist() == [1, 0]
    rebuilt = LabeledDataset.from_examples(
        [data.example(i) for i in range(3)], 2
    )
    assert np.array_equal(rebuilt.features, data.features)


def test_dataset_arrays_are_read_only():
    data = LabeledDataset([[0.0], [1.0]], [0, 1], 2)
    with pytest.raises(ValueError):
        data.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.labels[0] = 1


def test_classify_tie_break_smallest_index():
    fam = DecisionSetFamily.from_predicates([upper(0.0), upper(0.0)], dim=1)
    d = classify(fam, np.array([0.5]))
    assert d == SelectiveDecision.predict(0)


def test_classify_reject_and_dim_mismatch():
    _, fam = four_point_family()
    assert classify(fam, np.array([0.3])).is_reject
    with pytest.raises(InputError):
        classify(fam, np.array([0.3, 0.4]))


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


def test_assign_vector_matches_classify():
    data, fam = four_point_family()
    a = assign(fam, data.features)
    for i in range(data.n):
        d = classify(fam, data.features[i])
        if d.is_reject:
            assert a[i] == REJECT
        else:
            assert a[i] == d.class_index


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
