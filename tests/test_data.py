"""Tests for synthesis, the mixture oracle, CSV round-trips, and splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onesided.core import FormatError, InputError, LabeledDataset
from onesided.data import (
    BlobsParams,
    MixtureParams,
    SyntheticSpec,
    ingest_csv,
    mixture_oracle_coverage,
    mixture_posterior,
    split_dataset,
    split_indices,
    synthesize,
    two_class_mixture,
    write_csv,
)
from onesided.net import BackboneSpec, forward_batch, warm_start
from onesided.oracle import sample_analytic_example


def test_mixture_params_validation():
    eye = ((1.0, 0.0), (0.0, 1.0))
    MixtureParams(((0.0, 0.0), (1.0, 1.0)), (eye, eye), (0.5, 0.5))
    with pytest.raises(InputError):
        MixtureParams(((0.0, 0.0),), (eye,), (0.9,))
    with pytest.raises(InputError):
        MixtureParams(((0.0, 0.0), (1.0, 1.0)), (eye, eye), (0.7, 0.5))
    asym = ((1.0, 0.5), (0.2, 1.0))
    with pytest.raises(InputError):
        MixtureParams(((0.0, 0.0), (1.0, 1.0)), (eye, asym), (0.5, 0.5))
    not_pd = ((1.0, 2.0), (2.0, 1.0))
    with pytest.raises(InputError):
        MixtureParams(((0.0, 0.0), (1.0, 1.0)), (eye, not_pd), (0.5, 0.5))
    with pytest.raises(InputError):
        MixtureParams(((0.0, 0.0), (1.0, 1.0)), (eye,), (0.5, 0.5))


def test_blobs_params_validation():
    BlobsParams()
    with pytest.raises(InputError):
        BlobsParams(num_classes=1)
    with pytest.raises(InputError):
        BlobsParams(separation=0.0)
    means = BlobsParams(num_classes=4, separation=3.0).means()
    assert means.shape == (4, 2)
    assert np.allclose(np.linalg.norm(means, axis=1), 3.0)


def test_blobs_params_refuse_means_no_array_can_hold():
    # numpy used to raise "Maximum allowed dimension exceeded" in means()
    for num_classes, dim in ((2**70, 2), (2, 2**70), (2**61, 2)):
        with pytest.raises(InputError, match="num_classes"):
            BlobsParams(num_classes=num_classes, dim=dim)


def test_synthetic_spec_validation():
    with pytest.raises(InputError):
        SyntheticSpec("unknown", 10, 0)
    with pytest.raises(InputError):
        SyntheticSpec("analytic", 0, 0)
    with pytest.raises(InputError):
        SyntheticSpec("mixture", 10, 0)
    spec = SyntheticSpec("blobs", 10, 0)
    assert spec.blobs == BlobsParams()
    # a section the kind does not read would enter the hash and do nothing
    mixture, blobs = two_class_mixture(), BlobsParams(num_classes=5)
    for kind, sections, unread in [
        ("analytic", {"blobs": blobs}, "blobs"),
        ("analytic", {"mixture": mixture}, "mixture"),
        ("blobs", {"mixture": mixture}, "mixture"),
        ("mixture", {"mixture": mixture, "blobs": blobs}, "blobs"),
    ]:
        with pytest.raises(InputError, match=f"a {kind} source reads no {unread} section"):
            SyntheticSpec(kind, 10, 0, **sections)


def test_synthesize_analytic_deterministic():
    a = synthesize(SyntheticSpec("analytic", 10, seed=5))
    b = synthesize(SyntheticSpec("analytic", 10, seed=5))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = sample_analytic_example(10, 5)
    assert np.array_equal(a.features, c.features)


def test_synthesize_mixture_shapes_and_balance():
    params = two_class_mixture(separation=2.0)
    data = synthesize(SyntheticSpec("mixture", 10**6, seed=1, mixture=params))
    assert data.n == 10**6 and data.dim == 2 and data.num_classes == 2
    balance = np.bincount(data.labels) / data.n
    assert abs(balance[0] - 0.5) <= 0.003
    # Per-component sample means sit near the true means.
    for k, mean in enumerate(np.asarray(params.means)):
        got = data.features[data.labels == k].mean(axis=0)
        assert np.allclose(got, mean, atol=0.02)


def test_synthesize_mixture_deterministic():
    params = two_class_mixture()
    spec = SyntheticSpec("mixture", 500, seed=3, mixture=params)
    a, b = synthesize(spec), synthesize(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthesize_blobs():
    spec = SyntheticSpec("blobs", 400, seed=2, blobs=BlobsParams(num_classes=3))
    data = synthesize(spec)
    assert data.n == 400 and data.num_classes == 3 and data.dim == 2
    again = synthesize(spec)
    assert np.array_equal(data.features, again.features)


def test_separated_mixture_warm_start_accuracy():
    params = two_class_mixture(separation=8.0)
    data = synthesize(SyntheticSpec("mixture", 600, seed=4, mixture=params))
    model = warm_start(data, BackboneSpec((2, 8)), epochs=40, lr=0.1, seed=0)
    preds = forward_batch(model, data.features).argmax(axis=1)
    assert (preds == data.labels).mean() >= 0.99


def spread_mixture(separation, spread):
    """``two_class_mixture(separation)`` with covariances ``spread**2 * I``."""
    h, var = separation / 2.0, spread**2
    eye = ((var, 0.0), (0.0, var))
    return MixtureParams(((-h, 0.0), (h, 0.0)), (eye, eye), (0.5, 0.5))


def test_mixture_posterior_rows_normalized():
    params = spread_mixture(separation=3.0, spread=1.5)
    X = np.random.default_rng(0).normal(size=(50, 2), scale=3)
    post = mixture_posterior(params, X)
    assert post.shape == (50, 2)
    assert np.all(post >= 0.0)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)


def test_mixture_posterior_matches_logistic_form():
    # Equal spherical covariances and equal priors reduce the posterior
    # to a logistic function of the first coordinate.
    sep, spread = 2.0, 1.0
    params = spread_mixture(separation=sep, spread=spread)
    X = np.random.default_rng(1).normal(size=(40, 2), scale=2)
    post = mixture_posterior(params, X)
    h = sep / 2.0
    expect = 1.0 / (1.0 + np.exp(-2.0 * h * X[:, 0] / spread**2))
    assert np.allclose(post[:, 1], expect, atol=1e-10)
    mid = mixture_posterior(params, np.array([[0.0, 3.7]]))
    assert np.allclose(mid, 0.5, atol=1e-12)
    # the mixture of the README examples and the c08 runs
    for sep in (0.5, 2.0, 6.0):
        post = mixture_posterior(two_class_mixture(sep), X)
        assert np.abs(post[:, 1] - 1.0 / (1.0 + np.exp(-sep * X[:, 0]))).max() <= 1e-12
        assert np.abs(post.sum(axis=1) - 1.0).max() <= 1e-12


def norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def analytic_mixture_coverage(eps, h, sigma):
    """Closed-form selective coverage for the symmetric two-Gaussian mix.

    Accepting {|x1| >= a} with prediction sign(x1) gives raw error
    norm_cdf(-(a+h)/sigma) and coverage
    1 - norm_cdf((a-h)/sigma) + norm_cdf(-(a+h)/sigma).
    """
    bayes = norm_cdf(-h / sigma)
    if eps >= bayes:
        return 1.0
    lo, hi = 0.0, 60.0 * sigma
    for _ in range(200):
        a = (lo + hi) / 2.0
        if norm_cdf(-(a + h) / sigma) > eps:
            lo = a
        else:
            hi = a
    a = (lo + hi) / 2.0
    return 1.0 - norm_cdf((a - h) / sigma) + norm_cdf(-(a + h) / sigma)


def test_mixture_oracle_coverage_matches_closed_form():
    params = spread_mixture(separation=2.0, spread=1.0)
    for eps in (0.02, 0.05, 0.1):
        grid = mixture_oracle_coverage(params, eps, grid_size=600)
        exact = analytic_mixture_coverage(eps, 1.0, 1.0)
        assert grid == pytest.approx(exact, abs=0.01)


def test_mixture_oracle_coverage_extremes():
    params = two_class_mixture(separation=2.0)
    bayes = norm_cdf(-1.0)
    assert mixture_oracle_coverage(params, bayes + 0.01) == pytest.approx(1.0, abs=1e-6)
    assert mixture_oracle_coverage(params, 0.0) <= 0.02
    with pytest.raises(InputError):
        mixture_oracle_coverage(params, 1.5)
    bad_dim = MixtureParams(((0.0,), (2.0,)), (((1.0,),), ((1.0,),)), (0.5, 0.5))
    with pytest.raises(InputError):
        mixture_oracle_coverage(bad_dim, 0.05)


def test_two_class_mixture_validation():
    with pytest.raises(InputError):
        two_class_mixture(separation=-1.0)
    params = two_class_mixture(separation=3.0)
    assert params == spread_mixture(separation=3.0, spread=1.0)
    means, covs, priors = params.arrays()
    assert np.allclose(means, [[-1.5, 0.0], [1.5, 0.0]])
    assert np.allclose(covs[0], np.eye(2))
    assert priors.tolist() == [0.5, 0.5]


def test_ingest_csv_hand_file(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("f0,f1,label\n0.5,1.5,0\n-2.0,0.25,1\n3.0,4.0,0\n")
    data = ingest_csv(p)
    assert data.n == 3 and data.dim == 2 and data.num_classes == 2
    assert data.features[1].tolist() == [-2.0, 0.25]
    assert data.labels.tolist() == [0, 1, 0]


def test_ingest_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError):
        ingest_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("f0,label\n")
    with pytest.raises(InputError):
        ingest_csv(header_only)
    with pytest.raises(InputError):
        ingest_csv(tmp_path / "missing.csv")
    bad_header = tmp_path / "bh.csv"
    bad_header.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(FormatError):
        ingest_csv(bad_header)


@pytest.mark.parametrize(
    "body,line",
    [
        ("1.0,2.0,0\nx,2.0,1\n", 3),
        ("1.0,2.0,-1\n", 2),
        ("1.0,2.0,0\n1.0,2.0\n", 3),
        ("1.0,2.0,1.5\n", 2),
        ("1.0,2.0,0\n\n1.0,nan,1\n-inf,2.0,0\n", 4),
    ],
)
def test_ingest_csv_parse_errors_carry_line_numbers(tmp_path, body, line):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1,label\n" + body)
    with pytest.raises(FormatError) as exc:
        ingest_csv(p)
    assert f"line {line}" in str(exc.value)


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(20, 3)) * np.array([1e-8, 1.0, 1e8])
    labels = rng.integers(0, 4, size=20)
    labels[0] = 3
    data = LabeledDataset(X, labels, 4)
    p = tmp_path / "round.csv"
    write_csv(data, p)
    back = ingest_csv(p)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    assert back.num_classes == data.num_classes


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_csv_round_trip_random(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    d = int(rng.integers(1, 4))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7)
    labels = np.zeros(n, dtype=np.int64)
    labels[0] = rng.integers(0, 3)
    data = LabeledDataset(X, labels, int(labels.max()) + 1)
    p = tmp_path_factory.mktemp("csv") / "rt.csv"
    write_csv(data, p)
    back = ingest_csv(p)
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_split_indices_partition():
    tr, va, te = split_indices(100, (0.6, 0.2, 0.2), seed=0)
    assert (len(tr), len(va), len(te)) == (60, 20, 20)
    merged = np.sort(np.concatenate([tr, va, te]))
    assert np.array_equal(merged, np.arange(100))


def test_split_indices_deterministic_and_seed_sensitive():
    a = split_indices(50, (0.5, 0.25, 0.25), seed=7)
    b = split_indices(50, (0.5, 0.25, 0.25), seed=7)
    c = split_indices(50, (0.5, 0.25, 0.25), seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_indices_validation():
    with pytest.raises(InputError):
        split_indices(10, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(InputError):
        split_indices(10, (0.8, 0.2, 0.0), seed=0)
    with pytest.raises(InputError):
        split_indices(2, (0.4, 0.3, 0.3), seed=0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 300),
    seed=st.integers(0, 1000),
    cut=st.tuples(st.floats(0.1, 0.8), st.floats(0.05, 0.5)),
)
def test_split_indices_always_partition(n, seed, cut):
    f1 = cut[0]
    f2 = min(cut[1], (1.0 - f1) * 0.9)
    fr = (f1, f2, 1.0 - f1 - f2)
    tr, va, te = split_indices(n, fr, seed)
    assert len(tr) >= 1 and len(va) >= 1 and len(te) >= 1
    merged = np.sort(np.concatenate([tr, va, te]))
    assert np.array_equal(merged, np.arange(n))


def test_split_dataset_contents():
    data = synthesize(SyntheticSpec("blobs", 100, seed=1))
    tr, va, te = split_dataset(data, (0.6, 0.2, 0.2), seed=3)
    assert tr.n + va.n + te.n == 100
    assert tr.num_classes == data.num_classes
    itr, iva, ite = split_indices(100, (0.6, 0.2, 0.2), seed=3)
    assert np.array_equal(tr.features, data.features[itr])
    assert np.array_equal(te.labels, data.labels[ite])
