"""How `LabeledDataset` stores labels, and that every consumer reads them alike.

Labels are stored in the narrowest signed integer type that holds
``num_classes - 1``.  Every consumer must give, bit for bit, what it gave
when labels were int64.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from onesided.core import FormatError, LabeledDataset, evaluate
from onesided.data import ingest_csv, split_dataset, split_indices, write_csv
from onesided.net import CROSS_ENTROPY, BackboneSpec, forward_batch, serialize, warm_start
from onesided.oracle import FiniteHypothesisClass
from onesided.select import _threshold_counts, harden
from onesided.train import GamblersLoss, label_tables


def test_dataset_keeps_one_byte_per_label_beside_its_features():
    n = 100_000
    rng = np.random.default_rng(0)
    X, y = rng.random((n, 1)), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = LabeledDataset(X, y, 2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert data.labels.dtype == np.int8
    assert kept <= n * (8 + 1) + 4096


@pytest.mark.parametrize(
    "K,dtype",
    [(127, np.int8), (128, np.int8), (129, np.int16), (32_768, np.int16), (32_769, np.int32)],
)
def test_label_type_holds_the_largest_class_and_survives_subsets_and_csv(
    tmp_path, K, dtype
):
    rng = np.random.default_rng(K)
    labels = rng.integers(0, K, 40)
    labels[[3, 17]] = [K - 1, 0]
    data = LabeledDataset(rng.normal(size=(40, 2)), labels, K)
    assert data.labels.dtype == dtype
    assert np.iinfo(dtype).max >= K - 1
    assert data.labels.tolist() == labels.tolist()

    idx = np.array([17, 3, 3, 0])
    sub = data.subset(idx)
    assert sub.labels.dtype == dtype and sub.labels.tolist() == labels[idx].tolist()
    fractions = (0.5, 0.25, 0.25)
    parts = split_dataset(data, fractions, seed=1)
    for part, rows in zip(parts, split_indices(data.n, fractions, seed=1), strict=True):
        assert part.labels.dtype == dtype
        assert part.labels.tolist() == labels[rows].tolist()

    path = tmp_path / "labels.csv"
    write_csv(data, path)
    back = ingest_csv(path, K)
    assert back.labels.dtype == dtype
    assert back.labels.tobytes() == data.labels.tobytes()
    assert back.features.tobytes() == data.features.tobytes()


@pytest.mark.parametrize("K", [2, 129])
def test_ingest_refuses_a_label_at_or_above_the_class_count_outside_int8(tmp_path, K):
    path = tmp_path / "big.csv"
    path.write_text("f0,label\n0.5,1\n0.25,300\n")
    with pytest.raises(FormatError, match=rf"line 3: label 300 outside \[0, {K}\)"):
        ingest_csv(path, K)


def with_int64_labels(data: LabeledDataset) -> LabeledDataset:
    """The same dataset with its labels held as int64, as before narrowing."""
    wide = copy.copy(data)
    object.__setattr__(wide, "labels", data.labels.astype(np.int64))
    return wide


def same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [2, 10, 129])
def test_narrow_labels_give_the_int64_results(tmp_path, K):
    rng = np.random.default_rng(K)
    n = 300
    labels = rng.integers(0, K, n)
    labels[:2] = [0, K - 1]
    data = LabeledDataset(rng.uniform(-1.0, 1.0, (n, 1)), labels, K)
    wide = with_int64_labels(data)
    assert data.labels.dtype != np.int64 and wide.labels.dtype == np.int64

    for batch_size in (None, 64, 1000):
        narrow_tables, narrow_absent = label_tables(data.labels, K, batch_size)
        wide_tables, wide_absent = label_tables(wide.labels, K, batch_size)
        assert same(narrow_absent, wide_absent)
        for a, b in zip(narrow_tables, wide_tables, strict=True):
            assert all(same(x, y) for x, y in zip(a, b, strict=True))

    spec = BackboneSpec((1, 8, 6))
    model = warm_start(data, spec, epochs=2, lr=0.05, seed=3, batch_size=64)
    assert serialize(model) == serialize(warm_start(wide, spec, 2, 0.05, 3, 64))

    probs = forward_batch(model, data.features)
    for loss, p in (
        (CROSS_ENTROPY, probs),
        (GamblersLoss(1.5), np.hstack([probs, rng.random((n, 1))]) / 2.0),
    ):
        value, grad = loss.value_and_grad(p, data.labels)
        wide_value, wide_grad = loss.value_and_grad(p, wide.labels)
        assert same(value, wide_value) and same(grad, wide_grad)

    ts = np.linspace(0.0, 1.0, 11)
    for a, b in zip(
        _threshold_counts(probs, data.labels, ts), _threshold_counts(probs, wide.labels, ts)
    ):
        assert same(a, b)

    cuts = np.linspace(-1.0, 1.0, 9)
    hclass = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.intervals(cuts),
    )
    for a, b in zip(hclass.counts(data), hclass.counts(wide)):
        assert same(a, b)

    family = harden(model, 0.0)
    got, want = evaluate(family, data), evaluate(family, wide)
    for field in ("coverage", "raw_error", "per_class_one_sided_error"):
        assert same(getattr(got, field), getattr(want, field))

    write_csv(data, tmp_path / "narrow.csv")
    write_csv(wide, tmp_path / "wide.csv")
    assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()
