"""The in-place backward chain and the landing that runs it.

``net._backbone_grads`` overwrites its cotangent and the hidden
activations it is given; its gradients must be, bit for bit, those of the
allocating chain kept below as the reference, and it must never write the
inputs or the features.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import onesided.net as net_mod
import onesided.train as train_mod
from onesided.core import LabeledDataset
from onesided.net import (
    CROSS_ENTROPY,
    BackboneSpec,
    _backbone,
    _backbone_grads,
    _head_grads,
    backward,
    init_model,
    serialize,
    warm_start,
)
from onesided.train import TrainConfig, sgda_train_grid


def reference_backbone_grads(model, acts, d_h):
    """The allocating chain: a float mask, a fresh cotangent per layer."""
    g_ws = [None] * len(model.weights)
    g_bs = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        h = acts[i + 1]
        kind = model.spec.activation
        if kind == "relu":
            grad = (h > 0.0).astype(np.float64)
        elif kind == "tanh":
            grad = 1.0 - h * h
        else:
            grad = np.ones_like(h)
        da = d_h * grad
        g_ws[i] = da.T @ acts[i]
        g_bs[i] = da.sum(axis=0)
        if i:
            d_h = da @ model.weights[i]
    return g_ws, g_bs


def read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("widths", [(3, 4), (1, 1), (2, 1, 3), (3, 5, 1), (2, 6, 1, 4)])
def test_in_place_chain_matches_the_allocating_chain(activation, widths):
    n, M, m = 57, 3, 1
    rng = np.random.default_rng(len(widths) * 10 + widths[-1])
    model = init_model(BackboneSpec(widths, activation), 2, rng)
    for b in model.biases:
        b[...] = rng.normal(size=b.shape)  # some relu units dead, some alive
    X = read_only(rng.normal(size=(n, widths[0])))
    acts = _backbone(model.weights, model.biases, activation, X)
    feats = read_only(acts[-1])
    # a strided cotangent, one model's slice of the trainer's buffer
    cot = rng.normal(size=(n, M, widths[-1]))
    cot[::5, m] = 0.0
    before = cot.copy()
    want = reference_backbone_grads(model, acts, cot[:, m].copy())

    got = _backbone_grads(model, [X, *acts[1:-1], feats], cot[:, m])
    for g, w in zip(got[0] + got[1], want[0] + want[1], strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert X.tobytes() == acts[0].tobytes() and feats.tobytes() == acts[-1].tobytes()
    # only model m's slice of the buffer is consumed
    others = [k for k in range(M) if k != m]
    assert cot[:, others].tobytes() == before[:, others].tobytes()


def with_reference_chain():
    return mock.patch.object(net_mod, "_backbone_grads", reference_backbone_grads)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_backward_and_warm_start_bytes_are_the_allocating_chains(activation):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(90, 2))
    data = LabeledDataset(X, (X[:, 0] > 0).astype(int), 2)
    spec = BackboneSpec((2, 8, 5, 4), activation)
    model = init_model(spec, 2, 3)
    got = backward(model, data, CROSS_ENTROPY)
    warm = serialize(warm_start(data, spec, epochs=3, lr=0.05, seed=6, batch_size=32))
    with with_reference_chain():
        want = backward(model, data, CROSS_ENTROPY)
        want_warm = serialize(
            warm_start(data, spec, epochs=3, lr=0.05, seed=6, batch_size=32)
        )
    assert got[0] == want[0]
    for g, w in zip(
        got[1].weights + got[1].biases, want[1].weights + want[1].biases, strict=True
    ):
        assert g.tobytes() == w.tobytes()
    assert warm == want_warm
    # the dataset's features are the chain's read-only inputs
    assert not data.features.flags.writeable


def test_landing_holds_one_hidden_activation_and_one_mask_beyond_its_buffers():
    # the second of two landings, over two models: beyond the cotangent
    # buffer and the features, which outlive it, it holds one set of hidden
    # activations and, for a moment, the masks of two adjacent layers; the
    # record after it holds less.  The allocating landing held 2x as much.
    n, hidden, width = 4000, 64, 16
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 2))
    data = LabeledDataset(X, (X[:, 0] > 0).astype(int), 2)
    spec = BackboneSpec((2, hidden, width))
    init = init_model(spec, 2, seed=1)
    cfg = TrainConfig(
        mu=1.0, epochs=2, batch_size=500, warm_start_epochs=0, backbone_update_interval=1
    )
    base = []

    def head_grads(*args):
        # each step restarts the count, so the last one's ends with the epoch
        base.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return _head_grads(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(train_mod, "_head_grads", head_grads):
            sgda_train_grid(data, init, cfg, (0.5, 2.0), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(base) == 2 * n // 500
    assert peak - base[-1] <= n * hidden * 8 + n * (hidden + width) + 131072
