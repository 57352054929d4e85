"""Forward/backward machinery, warm start, and the model container format.

Gradients are validated against central finite differences computed on
loss values that this file evaluates through its own numpy formulas, so
the analytic chain in ``backward`` is checked end to end.
"""

import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onesided.core import FormatError, InputError, LabeledDataset, NumericError
from onesided.net import (
    BLOCK_ROWS,
    CROSS_ENTROPY,
    BackboneSpec,
    SelectiveModel,
    backward,
    deserialize,
    forward_batch,
    init_model,
    serialize,
    sgd_step,
    warm_start,
)


def small_model(seed=0, widths=(3, 5, 4), K=3, activation="tanh"):
    return init_model(BackboneSpec(widths, activation), K, seed)


def random_batch(model, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, model.spec.input_dim))
    y = rng.integers(0, model.num_classes, size=n)
    return LabeledDataset(X, y, model.num_classes)


# ---------------------------------------------------------------------------
# structure and forward


def test_backbone_spec_validation():
    with pytest.raises(InputError):
        BackboneSpec((4,))
    with pytest.raises(InputError):
        BackboneSpec((4, 0))
    with pytest.raises(InputError):
        BackboneSpec((4, 3), activation="gelu")
    spec = BackboneSpec((4, 8, 2))
    assert spec.input_dim == 4
    assert spec.feature_dim == 2


def test_backbone_spec_refuses_weight_matrices_no_array_can_hold():
    # numpy used to raise "Maximum allowed dimension exceeded" at init
    for widths in ((2**70, 8, 4), (2, 2**70, 4), (2, 8, 2**70), (2, 2**61)):
        with pytest.raises(InputError, match="layer_widths"):
            BackboneSpec(widths)
    assert BackboneSpec((2, 2**58)).feature_dim == 2**58


def test_backbone_spec_refuses_widths_that_are_not_whole_numbers():
    # int() used to truncate these to (2, 16, 8) and (2, 1, 8)
    for widths in ((2, 16.5, 8), (2, True, 8), (2.0, 16, 8), (2, "16", 8), (2, None)):
        with pytest.raises(InputError, match="layer_widths"):
            BackboneSpec(widths)
    # numpy integers, as a saved model's widths are, load as plain ints
    spec = BackboneSpec(tuple(np.array([2, 16, 8], dtype=np.int64)))
    assert spec.layer_widths == (2, 16, 8)
    assert all(type(w) is int for w in spec.layer_widths)
    payload = serialize(init_model(spec, 3, seed=0))
    assert deserialize(payload).spec == spec
    # a payload's widths pass the same check
    arrays = dict(np.load(io.BytesIO(payload)))
    arrays["layer_widths"] = np.array([2, 16.5, 8])
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with pytest.raises(FormatError, match="layer_widths must be a whole number >= 1"):
        deserialize(buf.getvalue())


def test_init_shapes_and_bias_zero():
    model = small_model()
    assert [W.shape for W in model.weights] == [(5, 3), (4, 5)]
    assert all(not b.any() for b in model.biases)
    assert model.head_w.shape == (3, 4)
    assert not model.head_b.any()
    limit0 = np.sqrt(6.0 / (3 + 5))
    assert np.abs(model.weights[0]).max() <= limit0


def test_init_deterministic():
    a, b = small_model(seed=42), small_model(seed=42)
    for Wa, Wb in zip(a.weights, b.weights):
        assert np.array_equal(Wa, Wb)
    assert np.array_equal(a.head_w, b.head_w)


def test_forward_linear_special_case():
    # identity activation, no hidden layer: scores are a softmax of an
    # affine map, verifiable by hand
    spec = BackboneSpec((2, 2), activation="identity")
    model = SelectiveModel(
        spec,
        2,
        [np.eye(2)],
        [np.zeros(2)],
        head_w=np.array([[1.0, 0.0], [0.0, 0.0]]),
        head_b=np.array([0.0, 0.0]),
    )
    p = forward_batch(model, np.array([[np.log(2.0), 5.0]]))[0]
    assert p == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_forward_batch_invariants():
    model = small_model()
    X = np.random.default_rng(1).normal(size=(50, 3), scale=3)
    P = forward_batch(model, X)
    assert (P > 0).all()
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-9


def test_forward_shift_invariance():
    model = small_model(seed=3)
    X = np.random.default_rng(2).normal(size=(20, 3))
    base = forward_batch(model, X)
    shifted = model.copy()
    shifted.head_b += 7.3
    assert np.abs(forward_batch(shifted, X) - base).max() <= 1e-9


def test_forward_extreme_logits_stable():
    spec = BackboneSpec((1, 1), activation="identity")
    model = SelectiveModel(
        spec, 2, [np.array([[1.0]])], [np.zeros(1)],
        head_w=np.array([[1000.0], [-1000.0]]), head_b=np.zeros(2),
    )
    p = forward_batch(model, np.array([[1.0]]))[0]
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_dim_mismatch():
    model = small_model()
    with pytest.raises(InputError):
        forward_batch(model, np.array([[1.0, 2.0]]))


class _Scores:
    """A loss of 0 that keeps the scores `backward` hands it."""

    def value_and_grad(self, probs, labels):
        self.probs = probs
        return 0.0, np.zeros_like(probs)


def training_scores(model, X):
    """The scores of the forward pass that `backward` differentiates."""
    loss = _Scores()
    backward(model, LabeledDataset(X, np.zeros(len(X), dtype=int), model.num_classes), loss)
    return loss.probs


# row counts at the block boundaries: none, a row short of one block, one
# block, and one or two blocks and a row
BLOCK_EDGES = [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]


@settings(max_examples=150, deadline=None)
@given(
    activation=st.sampled_from(["relu", "tanh", "identity"]),
    hidden=st.lists(st.integers(1, 12), max_size=2),
    K=st.integers(1, 10),
    n=st.one_of(st.just(1), st.integers(2, 300), st.sampled_from(BLOCK_EDGES)),
    seed=st.integers(0, 2**32 - 1),
)
@example(activation="tanh", hidden=[1, 5], K=10, n=0, seed=0)
@example(activation="relu", hidden=[7], K=10, n=BLOCK_ROWS - 1, seed=1)
@example(activation="identity", hidden=[], K=10, n=BLOCK_ROWS, seed=2)
@example(activation="relu", hidden=[7], K=10, n=BLOCK_ROWS + 1, seed=3)
@example(activation="tanh", hidden=[1, 5], K=2, n=2 * BLOCK_ROWS + 1, seed=4)
def test_forward_batch_equals_training_forward_pass(activation, hidden, K, n, seed):
    # inference runs one block of rows at a time; its scores must hold the
    # bits, and the class-major layout, of the pass training differentiates.
    # A lone row in a block would go through BLAS's matrix-vector product
    # and round unlike the same row of a larger block.
    rng = np.random.default_rng(seed)
    model = init_model(BackboneSpec((3, *hidden, 4), activation), K, rng)
    for b in model.biases + [model.head_b]:
        b[...] = rng.normal(size=b.shape)
    X = rng.normal(size=(n, 3)) * rng.choice([1.0, 10.0])
    probs = forward_batch(model, X)
    want = training_scores(model, X)
    assert probs.tobytes() == want.tobytes()
    assert probs.strides == want.strides


def test_forward_batch_holds_one_activation_at_a_time():
    # every step writes into an array it already owns, and only the running
    # activation stays alive: the peak is about the two widest activations
    n = 9_600
    model = init_model(BackboneSpec((2, 32, 16)), 10, seed=0)
    X = np.random.default_rng(1).normal(size=(n, 2))
    forward_batch(model, X)
    tracemalloc.start()
    try:
        forward_batch(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n * (32 + 16) * 8


def test_forward_batch_holds_its_scores_and_one_block():
    # an all-rows pass would hold n * (32 + 16) activations, 19 MB here;
    # blocks hold the (n, K) scores and one block's worth, whatever n is
    n, K = 50_000, 10
    model = init_model(BackboneSpec((2, 32, 16)), K, seed=0)
    X = np.random.default_rng(1).normal(size=(n, 2))
    forward_batch(model, X[:10])
    tracemalloc.start()
    try:
        forward_batch(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * K * 8 + 2**20


# ---------------------------------------------------------------------------
# gradients vs central differences


def flatten_params(model):
    return np.concatenate(
        [W.ravel() for W in model.weights]
        + [b.ravel() for b in model.biases]
        + [model.head_w.ravel(), model.head_b.ravel()]
    )


def set_params(model, flat):
    pos = 0
    for W in model.weights:
        W[...] = flat[pos : pos + W.size].reshape(W.shape)
        pos += W.size
    for b in model.biases:
        b[...] = flat[pos : pos + b.size].reshape(b.shape)
        pos += b.size
    model.head_w[...] = flat[pos : pos + model.head_w.size].reshape(model.head_w.shape)
    pos += model.head_w.size
    model.head_b[...] = flat[pos : pos + model.head_b.size]


def flatten_grads(g):
    return np.concatenate(
        [W.ravel() for W in g.weights]
        + [b.ravel() for b in g.biases]
        + [g.head_w.ravel(), g.head_b.ravel()]
    )


def central_difference(model, value_fn, h=1e-5):
    flat = flatten_params(model).copy()
    out = np.empty_like(flat)
    for i in range(flat.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            bumped = flat.copy()
            bumped[i] += sign * h
            set_params(model, bumped)
            if slot == 0:
                up = value_fn(model)
            else:
                down = value_fn(model)
        out[i] = (up - down) / (2 * h)
    set_params(model, flat)
    return out


def check_gradients(model, batch, loss_obj, value_fn):
    value, grads = backward(model, batch, loss_obj)
    assert value == pytest.approx(value_fn(model), rel=1e-12, abs=1e-12)
    analytic = flatten_grads(grads)
    fd = central_difference(model, value_fn)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    rel = np.abs(analytic - fd) / denom
    assert rel.max() < 1e-4


def test_cross_entropy_gradient_matches_fd():
    for seed in range(3):
        model = small_model(seed=seed, activation=("relu", "tanh", "identity")[seed])
        batch = random_batch(model, 8, seed + 100)

        def ce_value(m):
            P = forward_batch(m, batch.features)
            p = np.clip(P[np.arange(batch.n), batch.labels], 1e-12, 1 - 1e-12)
            return float(np.mean(-np.log(p)))

        check_gradients(model, batch, CROSS_ENTROPY, ce_value)


def test_backward_rejects_non_finite():
    model = small_model()
    model.head_w[0, 0] = np.nan
    batch = random_batch(model, 4, 0)
    with pytest.raises(NumericError):
        backward(model, batch, CROSS_ENTROPY)


def stack_of(models):
    """The models' heads with a leading model axis."""
    return SimpleNamespace(
        head_w=np.stack([m.head_w for m in models]),
        head_b=np.stack([m.head_b for m in models]),
    )


def test_sgd_step_moves_all_parameters():
    model = small_model(seed=5)
    batch = random_batch(model, 16, 6)
    before = flatten_params(model).copy()
    _, grads = backward(model, batch, CROSS_ENTROPY)
    sgd_step(model, grads, 0.1)
    after = flatten_params(model)
    assert not np.array_equal(before, after)
    assert np.allclose(after, before - 0.1 * flatten_grads(grads))


# ---------------------------------------------------------------------------
# warm start


def blob_data(n, seed, gap=6.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal((-gap / 2, 0.0), 0.5, size=(half, 2)),
            rng.normal((gap / 2, 0.0), 0.5, size=(n - half, 2)),
        ]
    )
    y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    return LabeledDataset(X, y, 2)


def test_warm_start_fits_separable_blobs():
    data = blob_data(400, seed=0)
    model = warm_start(
        data, BackboneSpec((2, 16, 16)), epochs=50, lr=0.1, seed=1, batch_size=64
    )
    acc = np.mean(np.argmax(forward_batch(model, data.features), axis=1) == data.labels)
    assert acc >= 0.99


def test_warm_start_zero_epochs_is_init():
    data = blob_data(50, seed=2)
    spec = BackboneSpec((2, 8, 4))
    model = warm_start(data, spec, epochs=0, lr=0.1, seed=9)
    fresh = init_model(spec, 2, 9)
    assert np.array_equal(flatten_params(model), flatten_params(fresh))


@pytest.mark.parametrize(
    "name, value",
    [("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("epochs", -1),
     ("epochs", 1.5), ("batch_size", 0), ("batch_size", 2.5)],
)
def test_warm_start_refuses_a_schedule_the_train_config_refuses(name, value):
    # a NaN or infinite rate trains a NaN model; the counts would fail
    # inside the loop, or not at all
    args = {"epochs": 1, "lr": 0.1, "seed": 0, "batch_size": 16, name: value}
    with pytest.raises(InputError, match=f"^{name} must be"):
        warm_start(blob_data(50, seed=2), BackboneSpec((2, 8, 4)), **args)


def test_warm_start_matches_per_batch_subset_loop():
    # warm_start indexes the arrays directly; the batches it trains on are
    # the subsets a LabeledDataset-per-batch loop would build
    data = blob_data(90, seed=5)
    spec = BackboneSpec((2, 8, 4))
    got = warm_start(data, spec, epochs=3, lr=0.05, seed=6, batch_size=32)
    rng = np.random.default_rng(6)
    want = init_model(spec, 2, rng)
    for _ in range(3):
        perm = rng.permutation(data.n)
        for start in range(0, data.n, 32):
            batch = data.subset(perm[start : start + 32])
            _, grads = backward(want, batch, CROSS_ENTROPY)
            sgd_step(want, grads, 0.05)
    assert flatten_params(got).tobytes() == flatten_params(want).tobytes()


def test_warm_start_deterministic():
    data = blob_data(120, seed=3)
    spec = BackboneSpec((2, 8, 4))
    a = warm_start(data, spec, epochs=5, lr=0.05, seed=4)
    b = warm_start(data, spec, epochs=5, lr=0.05, seed=4)
    assert np.array_equal(flatten_params(a), flatten_params(b))


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip():
    model = small_model(seed=11)
    payload = serialize(model)
    back = deserialize(payload)
    assert back.spec == model.spec
    assert back.num_classes == model.num_classes
    assert np.array_equal(flatten_params(back), flatten_params(model))


def test_deserialize_truncated_payload():
    payload = serialize(small_model())
    with pytest.raises(FormatError):
        deserialize(payload[: len(payload) // 2])


def test_deserialize_garbage():
    with pytest.raises(FormatError):
        deserialize(b"not an archive at all")
