"""Dense softmax network with hand-written reverse-mode gradients.

The model is a stack of dense layers (the shared backbone) feeding one
linear head per class; class scores are the softmax of the head outputs.
No autodiff framework is involved: ``backward`` chains analytic
derivatives layer by layer, and the loss objects it accepts supply the
derivative of the loss with respect to the class probabilities.

Score matrices keep the ``(..., n, K)`` shape, one row per point, but
are stored class-major: each is the transposed view of a C-contiguous
``(..., K, n)`` array.  With K of 2 to 10, the softmax (over classes) and
the per-class loss means (over rows) then run along contiguous memory
instead of one short K-long stretch at a time.  The backbone's activations
stay row-major.

The shared kernels take parameter arrays, not models: ``_backbone`` any
run of one model's layers, ``_head`` one set of heads or a stack of them
with a leading model axis, which is how the trainer steps a grid's heads
at once.

The kernels write in place: after each matmul, the bias, activation and
softmax steps overwrite its output instead of allocating a fresh array
per numpy op, and ``forward_batch`` holds only the running activation,
where the training pass keeps every layer for the backward chain.  The
reason is page faults, not arithmetic: a fresh multi-megabyte array is
new memory that faults in page by page.  The scores are bit-for-bit
those of the allocating version.

So is the backward chain, ``_backbone_grads``, which consumes its
operands: it may overwrite its cotangent and the hidden activations
``acts[1:-1]``, and never writes ``acts[0]`` (the caller's inputs) or
``acts[-1]`` (the features).  ``_backbone`` can refill given buffers, as
the trainer's landing does with the activations the chain consumed.

Everything runs in float64.  Probabilities are clamped to
``[PROB_FLOOR, 1 - PROB_FLOOR]`` before any logarithm, and loss objects
zero their gradient where the clamp is active so that analytic and
finite-difference derivatives agree.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import FormatError, InputError, LabeledDataset, NumericError, _count, _seed, array_fits

PROB_FLOOR = 1e-12

_ACTIVATIONS = ("relu", "tanh", "identity")

FORMAT_VERSION = 1


@dataclass(frozen=True)
class BackboneSpec:
    """Widths of the dense stack, input first, feature output last."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self) -> None:
        widths = tuple(self.layer_widths)
        if len(widths) < 2:
            raise InputError("layer_widths needs at least input and output widths")
        widths = tuple(_count(w, 1, "layer_widths") for w in widths)
        if not all(array_fits(b, a) for a, b in zip(widths, widths[1:])):
            raise InputError(f"layer_widths {widths} give a weight matrix too large")
        if self.activation not in _ACTIVATIONS:
            raise InputError(
                f"unknown activation {self.activation!r}, choose from {_ACTIVATIONS}"
            )
        object.__setattr__(self, "layer_widths", widths)

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_widths[-1]

    def check_dim(self, dim: int) -> None:
        """Refuse data of ``dim`` features, unless the first width is ``dim``."""
        if self.input_dim != dim:
            raise InputError(
                f"first backbone width {self.input_dim} must equal the data dim {dim}"
            )


class SelectiveModel:
    """Backbone parameters plus K linear heads."""

    def __init__(
        self,
        spec: BackboneSpec,
        num_classes: int,
        weights: list,
        biases: list,
        head_w: np.ndarray,
        head_b: np.ndarray,
    ):
        _count(num_classes, 1, "num_classes")
        widths = spec.layer_widths
        if len(weights) != len(widths) - 1 or len(biases) != len(widths) - 1:
            raise InputError("layer parameter count does not match spec")
        for i, (W, b) in enumerate(zip(weights, biases)):
            if W.shape != (widths[i + 1], widths[i]) or b.shape != (widths[i + 1],):
                raise InputError(
                    f"layer {i} expects W{(widths[i + 1], widths[i])}, "
                    f"got {W.shape} / {b.shape}"
                )
        if head_w.shape != (num_classes, spec.feature_dim):
            raise InputError(
                f"heads expect shape {(num_classes, spec.feature_dim)}, got {head_w.shape}"
            )
        if head_b.shape != (num_classes,):
            raise InputError(f"head bias shape {head_b.shape} is wrong")
        self.spec = spec
        self.num_classes = num_classes
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.head_w = np.asarray(head_w, dtype=np.float64)
        self.head_b = np.asarray(head_b, dtype=np.float64)

    def copy(self) -> "SelectiveModel":
        return SelectiveModel(
            self.spec,
            self.num_classes,
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
            self.head_w.copy(),
            self.head_b.copy(),
        )


def init_model(
    spec: BackboneSpec, num_classes: int, seed: int | np.random.Generator
) -> SelectiveModel:
    """Seeded uniform init with limit sqrt(6 / (fan_in + fan_out)); zero biases."""
    _count(num_classes, 1, "num_classes")
    is_rng = isinstance(seed, np.random.Generator)
    rng = seed if is_rng else np.random.default_rng(_seed(seed))
    widths = spec.layer_widths
    weights, biases = [], []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    limit = np.sqrt(6.0 / (spec.feature_dim + num_classes))
    head_w = rng.uniform(-limit, limit, size=(num_classes, spec.feature_dim))
    head_b = np.zeros(num_classes)
    return SelectiveModel(spec, num_classes, weights, biases, head_w, head_b)


def _activation_grad(h: np.ndarray, kind: str) -> np.ndarray | None:
    # derivative expressed through the post-activation value; a product
    # reads relu's boolean mask as 1.0 and 0.0, and the identity's is None
    if kind == "relu":
        return h > 0.0
    if kind == "tanh":
        return 1.0 - h * h
    return None


def _layer(
    h: np.ndarray, W: np.ndarray, b: np.ndarray, kind: str, out: np.ndarray | None = None
) -> np.ndarray:
    """One dense layer's post-activation, computed in the matmul's own output."""
    a = np.matmul(h, W.T, out=out)
    a += b
    if kind == "relu":
        np.maximum(a, 0.0, out=a)
    elif kind == "tanh":
        np.tanh(a, out=a)
    return a


def _backbone(
    weights: list, biases: list, kind: str, X: np.ndarray, out: list | None = None
) -> list:
    """Per-layer activations of the given layers, input first.

    Given every layer of a model, the last is its feature matrix.  Given
    ``out``, one buffer per layer, each layer is written into its buffer.
    """
    acts = [X]
    for i, (W, b) in enumerate(zip(weights, biases)):
        acts.append(_layer(acts[-1], W, b, kind, None if out is None else out[i]))
    return acts


def _head(head_w: np.ndarray, head_b: np.ndarray, feat: np.ndarray) -> np.ndarray:
    """Softmax class scores of last-layer features.

    The heads may carry a leading model axis (``head_w`` of shape ``(M, K,
    width)``), and so may the features; the scores then gain it too, one
    slice per model, each computed exactly as for that model alone.

    The ``(..., n, K)`` result is stored class-major: it is the transposed
    view of a C-contiguous ``(..., K, n)`` array.  The softmax reduces over
    classes and every loss reduces over rows; with K of 2 to 10, a
    row-major layout would walk both one short K-long stretch at a time.
    Every step after the matmul writes into the logits array.
    """
    logits = np.matmul(head_w, feat.swapaxes(-1, -2))
    logits += head_b[..., :, None]
    logits -= np.maximum.reduce(logits, axis=-2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-2, keepdims=True)
    return logits.swapaxes(-1, -2)


def _forward_pass(model: SelectiveModel, X: np.ndarray):
    """Returns (per-layer activations, softmax probabilities)."""
    acts = _backbone(model.weights, model.biases, model.spec.activation, X)
    return acts, _head(model.head_w, model.head_b, acts[-1])


def _check_batch(model: SelectiveModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    model.spec.check_dim(X.shape[1])
    return X


def forward_batch(model: SelectiveModel, X: np.ndarray) -> np.ndarray:
    """Class-probability matrix, one row per input point, stored class-major.

    The same per-layer steps as :func:`_forward_pass`, holding only the
    running activation: inference needs no backward chain.
    """
    h = _check_batch(model, X)
    for W, b in zip(model.weights, model.biases):
        h = _layer(h, W, b, model.spec.activation)
    return _head(model.head_w, model.head_b, h)


class LossSpec(Protocol):
    def value_and_grad(
        self, probs: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]: ...


@dataclass
class GradientBundle:
    """Parameter gradients with the same shapes as the model's parameters."""

    weights: list
    biases: list
    head_w: np.ndarray
    head_b: np.ndarray


def backward(
    model: SelectiveModel, batch: LabeledDataset, loss_spec: LossSpec
) -> tuple[float, GradientBundle]:
    """Loss value and exact parameter gradients on one batch.

    The loss object sees the softmax outputs and returns d(loss)/d(probs);
    the softmax Jacobian, head, and backbone chains are applied here.
    """
    X = _check_batch(model, batch.features)
    return _backward(model, X, batch.labels, loss_spec)


def _backward(model, X: np.ndarray, labels: np.ndarray, loss_spec: LossSpec):
    """:func:`backward` on arrays; a non-finite loss raises :class:`NumericError`."""
    acts, probs = _forward_pass(model, X)
    value, dprobs = loss_spec.value_and_grad(probs, labels)
    if not np.isfinite(value):
        raise NumericError(f"loss evaluated to a non-finite value: {value}")
    dlogits, g_head_w, g_head_b = _head_grads(acts[-1], probs, dprobs)
    g_ws, g_bs = _backbone_grads(model, acts, dlogits @ model.head_w)
    return value, GradientBundle(g_ws, g_bs, g_head_w, g_head_b)


def _backbone_grads(model, acts, d_h: np.ndarray) -> tuple[list, list]:
    """Backbone weight and bias gradients for the feature cotangent ``d_h``.

    ``acts`` are the activations of :func:`_backbone` and ``d_h`` is
    d(loss)/d(features), shaped like ``acts[-1]``.  The chain is linear in
    ``d_h`` for a fixed backbone.  It stops at the first layer's gradients:
    the inputs' cotangent is never formed.

    It works in place: it may overwrite ``d_h`` and the hidden activations
    ``acts[1:-1]``, and never writes ``acts[0]`` or ``acts[-1]``.  Each
    layer multiplies its cotangent by the activation's derivative in
    place, and writes the next cotangent over the activation its weight
    gradient has just read.  The gradients are bit for bit those of the
    allocating chain ``da = d_h * f'(h)``, ``d_h = da @ W``.
    """
    g_ws: list = [None] * len(model.weights)
    g_bs: list = [None] * len(model.biases)
    kind = model.spec.activation
    if not d_h.flags.c_contiguous and 1 in d_h.shape[1:] + acts[-2].shape[1:]:
        # a width of 1 turns the weight gradient into a BLAS vector product,
        # which sums a strided vector in another order than a contiguous one
        d_h = d_h.copy()
    grad = _activation_grad(acts[-1], kind)
    for i in range(len(model.weights) - 1, -1, -1):
        if grad is not None:
            np.multiply(d_h, grad, out=d_h)
        g_ws[i] = d_h.T @ acts[i]
        g_bs[i] = d_h.sum(axis=0)
        if i:
            grad = _activation_grad(acts[i], kind)
            d_h = np.matmul(d_h, model.weights[i], out=acts[i])
    return g_ws, g_bs


def _head_grads(feat, probs, dprobs):
    """d(loss)/d(logits) and the head gradients, given d(loss)/d(probs).

    Stacked like :func:`_head`: with M models every result gains the
    model axis.
    """
    # softmax vector-Jacobian product, row-wise
    inner = np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
    dlogits = probs * (dprobs - inner)
    return dlogits, np.matmul(dlogits.swapaxes(-1, -2), feat), np.add.reduce(dlogits, axis=-2)


def sgd_step(model: SelectiveModel, grads: GradientBundle, lr: float) -> None:
    """In-place descent step on every parameter."""
    for W, g in zip(model.weights, grads.weights):
        W -= lr * g
    for b, g in zip(model.biases, grads.biases):
        b -= lr * g
    model.head_w -= lr * grads.head_w
    model.head_b -= lr * grads.head_b


def _mean_nll(s_raw: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of ``-log s`` over one score per row, and its gradient in ``s``.

    Scores are clamped before the log; the gradient is zero where the
    clamp is active.
    """
    n = s_raw.shape[0]
    s = np.minimum(1.0 - PROB_FLOOR, np.maximum(PROB_FLOOR, s_raw))
    interior = s_raw > PROB_FLOOR
    interior &= s_raw < 1.0 - PROB_FLOOR
    grad = np.where(interior, -1.0 / (n * s), 0.0)
    np.log(s, out=s)
    return float(-np.add.reduce(s) / n), grad


class _CrossEntropy:
    """Mean negative log-probability of the true class."""

    def value_and_grad(self, probs, labels):
        idx = np.arange(probs.shape[0])
        value, g = _mean_nll(probs[idx, labels])
        dprobs = np.zeros_like(probs)
        dprobs[idx, labels] = g
        return value, dprobs


CROSS_ENTROPY = _CrossEntropy()


def warm_start(
    data: LabeledDataset,
    spec: BackboneSpec,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 128,
) -> SelectiveModel:
    """Seeded init plus minibatch SGD on cross-entropy, one head per class of ``data``.

    ``epochs=0`` returns the untouched initialization; identical seeds give
    bit-identical models.
    """
    spec.check_dim(data.dim)
    _count(epochs, 0, "epochs")
    _count(batch_size, 1, "batch_size")
    if not 0.0 < lr < math.inf:
        raise InputError(f"lr must be positive and finite, got {lr!r}")
    rng = np.random.default_rng(_seed(seed))
    model = init_model(spec, data.num_classes, rng)
    n = data.n
    for _ in range(epochs):
        perm = np.arange(n) if batch_size >= n else rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            X, y = np.take(data.features, idx, axis=0), np.take(data.labels, idx)
            _, grads = _backward(model, X, y, CROSS_ENTROPY)
            sgd_step(model, grads, lr)
    return model


def serialize(model: SelectiveModel) -> bytes:
    """Versioned binary payload with full shape metadata."""
    buf = io.BytesIO()
    arrays = {
        "format_version": np.int64(FORMAT_VERSION),
        "layer_widths": np.array(model.spec.layer_widths, dtype=np.int64),
        "activation": np.array(model.spec.activation),
        "num_classes": np.int64(model.num_classes),
        "head_w": model.head_w,
        "head_b": model.head_b,
    }
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"W{i}"] = W
        arrays[f"b{i}"] = b
    np.savez(buf, **arrays)
    return buf.getvalue()


def deserialize(payload: bytes) -> SelectiveModel:
    """Rebuild a model, failing with :class:`FormatError` on any mismatch."""
    try:
        archive = np.load(io.BytesIO(payload))
        names = set(archive.files)
    except Exception as exc:
        raise FormatError(f"unreadable model payload: {exc}") from exc
    try:
        if "format_version" not in names:
            raise FormatError("payload missing format_version")
        version = int(archive["format_version"])
        if version != FORMAT_VERSION:
            raise FormatError(
                f"payload format version {version}, expected {FORMAT_VERSION}"
            )
        spec = BackboneSpec(tuple(archive["layer_widths"]), str(archive["activation"]))
        num_classes = int(archive["num_classes"])
        weights, biases = [], []
        for i in range(len(spec.layer_widths) - 1):
            if f"W{i}" not in names or f"b{i}" not in names:
                raise FormatError(f"payload missing parameters for layer {i}")
            weights.append(archive[f"W{i}"])
            biases.append(archive[f"b{i}"])
        return SelectiveModel(
            spec, num_classes, weights, biases, archive["head_w"], archive["head_b"]
        )
    except FormatError:
        raise
    except (InputError, KeyError, ValueError) as exc:
        raise FormatError(f"malformed model payload: {exc}") from exc
