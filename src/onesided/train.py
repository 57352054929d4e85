"""Constrained training of per-class decision scores.

Each class k carries two empirical quantities: a fit term (mean negative
log-score over points of class k) and a leakage term (mean negative
log-complement-score over points of other classes).  The training
objective couples them through per-class multipliers lambda_k, slack
variables phi_k, and a budget price mu:

    sum_k [ fit_k + lambda_k * (leak_k - phi_k) + mu * phi_k ]

Every fit and leak loss here is a weighted view of one masked pass,
`class_terms`: weights (e_k, 0) give the fit loss, (0, e_k) the leak loss
and (1, lambda) the saddle objective.  A step's cost is its count of numpy
calls, not its arithmetic (a grid of six on a 128-row batch at K = 2 is
about 1.5k numbers), so `label_tables` builds what the steps need of their
labels for every batch of an epoch in one vectorised pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (InputError, LabeledDataset, NumericError, _class_index, _count, _positive,
                   _prices, _seed, _threshold)
from .net import (
    PROB_FLOOR,
    SelectiveModel,
    _backbone,
    _backbone_grads,
    _head,
    _head_grads,
    _mean_nll,
    _row_blocks,
)


@dataclass
class LagrangianState:
    """Multipliers, slacks, and the budget price, each finite and nonnegative.

    ``mu`` prices slack and caps the multipliers.  A stack of M states holds
    ``(M, K)`` multipliers and slacks and an ``(M, 1)`` column of prices.
    The trainer's updates bind new arrays rather than write into these, so
    a reference to them is a snapshot.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    mu: float

    def __post_init__(self) -> None:
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64).copy()
        self.phis = np.asarray(self.phis, dtype=np.float64).copy()
        if self.lambdas.shape != self.phis.shape:
            raise InputError("lambda and phi vectors must share a shape")
        if not all(((0.0 <= a) & (a < math.inf)).all() for a in (self.lambdas, self.phis)):
            raise InputError("multipliers and slacks must be finite and nonnegative")
        mu = np.reshape(_prices(np.ravel(self.mu).tolist(), "mu"), np.shape(self.mu))
        self.mu = float(mu) if mu.ndim == 0 else mu


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one saddle-point run.

    Only :func:`sgda_train` reads ``mu``: a grid brings its own prices, and
    each caps its run's multipliers at ``10 * mu``, so the run solves
    fit + mu * sum_k leak_k.  The trainer takes its seed as an argument.
    Only the callers that build the start model with
    :func:`onesided.net.warm_start` (``run_pipeline``, ``onesided train``)
    read ``warm_start_epochs``.
    """

    mu: float
    epochs: int = 200
    batch_size: int = 128
    lr_min: float = 1e-3
    lr_max: float = 1e-4
    lr_decay: tuple[float, ...] = (0.1, 50)
    backbone_update_interval: int = 20
    warm_start_epochs: int = 30

    def __post_init__(self) -> None:
        if len(self.lr_decay) != 2:
            raise InputError(f"lr_decay must be (factor, epoch), got {self.lr_decay!r}")
        _prices((self.mu,), "mu")
        for name, least in (("epochs", 0), ("warm_start_epochs", 0), ("batch_size", 1),
                            ("backbone_update_interval", 1)):
            _count(getattr(self, name), least, name)
        _positive(self.lr_min, "lr_min")
        # the ascent rate may be 0
        if _threshold(self.lr_max, "lr_max") < 0:
            raise InputError(f"lr_max must be >= 0, got {self.lr_max!r}")
        factor, at_epoch = self.lr_decay
        _positive(factor, "lr_decay factor")
        at_epoch = _threshold(at_epoch, "lr_decay epoch")
        if at_epoch < 0 or not at_epoch.is_integer():
            raise InputError(f"lr_decay epoch must be a whole epoch >= 0, got {self.lr_decay!r}")


# ---------------------------------------------------------------------------
# loss values


class LabelTable(NamedTuple):
    """What :func:`class_terms` needs of one batch's labels, built ahead.

    ``masks`` stacks the own-row and other-row masks, ``(2, n, K)`` and
    class-major like the scores.  ``neg_d`` holds minus the fit and leak
    divisors ``(2, K)``: each term's row count, or 1 for an absent term.
    ``denom`` is ``(n, K)``, the fit divisor on own rows and the leak
    divisor on the others, or ``None`` in a lone batch's table, whose
    gradient (if any is asked) forms it.
    """

    masks: np.ndarray
    neg_d: np.ndarray
    denom: np.ndarray | None


def label_tables(labels, K: int, batch_size: int | None = None):
    """The :class:`LabelTable` of each batch of consecutive rows.

    Batches take ``batch_size`` rows in order, the last one possibly
    fewer; ``None`` makes all rows one batch, whose table leaves
    ``denom`` out.  Every table is a view of arrays built in one
    vectorised pass over all the rows.  Returns the tables and the
    ``(2, K)`` count of batches in which each fit and leak term is absent.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    size = max(1, n if batch_size is None else min(batch_size, n))
    # all rows as one batch make one table, even when there are none
    starts = range(0, max(n, batch_size is None), size)
    # rows padded to whole batches, so that a batch axis can broadcast
    padded = len(starts) * size
    masks = np.zeros((2, K, padded), dtype=bool)
    classes = np.arange(K)[:, None]
    np.equal(labels, classes, out=masks[0, :, :n])
    np.not_equal(labels, classes, out=masks[1, :, :n])
    # rows per term and batch, class-major: (2, K, batches)
    sizes = np.minimum(size, n - np.array(starts, dtype=np.intp))
    n_own = np.bincount(
        np.arange(n) // size * K + labels, minlength=len(starts) * K
    ).reshape(-1, K).T
    counts = np.empty((2, K, len(starts)))
    counts[0] = n_own
    np.subtract(sizes, n_own, out=counts[1])
    absent = counts == 0
    d = np.maximum(counts, 1.0, out=counts)
    denom = [None] * len(starts)
    if batch_size is not None:
        own = masks[0].reshape(K, len(starts), size)
        rows = np.where(own, d[0][..., None], d[1][..., None]).reshape(K, padded)
        rows = rows[:, :n].T
        denom = [rows[a : a + size] for a in starts]
    neg_d = np.negative(d, out=d)
    masks = masks[..., :n].swapaxes(1, 2)
    tables = [
        LabelTable(masks[:, a : a + size], nd, dn)
        for a, nd, dn in zip(starts, neg_d.transpose(2, 0, 1), denom)
    ]
    return tables, absent.sum(axis=2)


def label_table(labels, K: int) -> LabelTable:
    """The :class:`LabelTable` of all of ``labels`` as one batch."""
    return label_tables(labels, K)[0][0]


class ClassTerms(NamedTuple):
    """Per-class means and their gradient from :func:`class_terms`."""

    fit: np.ndarray
    leak: np.ndarray
    dprobs: np.ndarray | None


def class_terms(probs, table: LabelTable, fit_w=None, leak_w=None) -> ClassTerms:
    """Every class's fit and leak term in one masked pass over ``(n, K)`` scores.

    ``fit[k]`` is the mean -log p_k over the class-k rows, ``leak[k]`` the
    mean -log(1 - p_k) over the other rows.  An empty row set makes a term
    absent: it reads 0 and adds no gradient (:func:`label_tables` counts the
    absences).  Scores are clamped to ``[PROB_FLOOR, 1 - PROB_FLOOR]`` before
    the log; the gradient is zero where the clamp is active.  With weights (scalars or
    length-K vectors, ``None`` meaning 0), ``dprobs`` is the gradient of
    ``sum_k fit_w[k] * fit[k] + leak_w[k] * leak[k]``.

    Scores may be a stack ``(M, n, K)`` of M models on the same rows, with
    ``(M, K)`` weights; the means and ``dprobs`` then gain the model axis.
    The table is class-major like the scores of :func:`onesided.net._head`,
    so the row sums run along contiguous memory; row-major scores give the
    same terms up to the rounding of those sums.

    Each step writes into an array an earlier one made: at 10^4 rows a
    fresh array per numpy op costs more in page faults than in arithmetic.
    The row masks apply as products, so a NaN score makes both of its
    class's terms NaN, and its own ``dprobs`` entry too; the trainer's
    finite check relies on this, testing the leak terms and not the fit
    terms, which the clamp bounds by log(1 / PROB_FLOOR).
    """
    masks, neg_d, denom = table
    own = masks[0]
    # one clamped score per entry: p on own rows, 1 - p on the others
    logs = np.subtract(1.0, probs)
    s = np.where(own, probs, logs)
    np.maximum(PROB_FLOOR, s, out=s)
    np.minimum(1.0 - PROB_FLOOR, s, out=s)
    np.log(s, out=logs)
    # the fit row sums from one masked product, the leak row sums from the
    # logs masked in place: one (..., n, K) buffer serves both.  The
    # divisors are negative, so the logs need no negation, and adding 0.0
    # turns an absent term's sum of masked -0.0s into 0.0
    fit = np.add.reduce(np.multiply(logs, own), axis=-2)
    leak = np.add.reduce(np.multiply(logs, masks[1], out=logs), axis=-2)
    for sums, nd in zip((fit, leak), neg_d):
        sums /= nd
        sums += 0.0
    dprobs = None
    if fit_w is not None or leak_w is not None:
        neg_fit_w = -_per_row(fit_w)
        if denom is None:
            denom = np.where(own, -neg_d[0], -neg_d[1])
        np.multiply(s, denom, out=s)
        dprobs = np.divide(np.where(own, neg_fit_w, _per_row(leak_w)), s, out=s)
        inside = probs > PROB_FLOOR
        inside &= probs < 1.0 - PROB_FLOOR
        dprobs *= inside
        # the product gives -0.0 where a negative entry is clamped
        dprobs += 0.0
    return ClassTerms(fit, leak, dprobs)


def _per_row(w) -> np.ndarray:
    """A scalar, ``(K,)`` or ``(M, K)`` class weight, shaped to broadcast over rows."""
    w = np.asarray(0.0 if w is None else w, dtype=np.float64)
    return w[..., None, :] if w.ndim else w


def _saddle_value(terms: ClassTerms, state: LagrangianState):
    """The saddle objective, one value per model of a stacked state."""
    lam = state.lambdas
    return (
        terms.fit.sum(axis=-1)
        + (lam * terms.leak).sum(axis=-1)
        + ((state.mu - lam) * state.phis).sum(axis=-1)
    )


# ---------------------------------------------------------------------------
# loss objects for backward()


class _TermLoss:
    """Class ``k``'s term ``TERM`` of :class:`ClassTerms` (0 fit, 1 leak) as a loss."""

    TERM = 0

    def __init__(self, k: int):
        self.k = _count(k, 0, "k")

    def value_and_grad(self, probs, labels):
        K = probs.shape[1]
        k = _class_index(self.k, K)
        weights = [None, None]
        weights[self.TERM] = np.eye(K)[k]
        terms = class_terms(probs, label_table(labels, K), *weights)
        return float(terms[self.TERM][k]), terms.dprobs


class RestrictedFitLoss(_TermLoss):
    """Per-class fit term as a standalone differentiable loss."""


class LeakLoss(_TermLoss):
    """Per-class leakage term as a standalone differentiable loss."""

    TERM = 1


class LagrangianLoss:
    """Saddle objective at the multipliers of ``state``.

    With a stacked state the value carries one row per model.
    """

    def __init__(self, state: LagrangianState):
        self.state = state

    def value_and_grad(self, probs, labels):
        table = label_table(labels, probs.shape[-1])
        terms = class_terms(probs, table, 1.0, self.state.lambdas)
        return _saddle_value(terms, self.state), terms.dprobs


class GamblersLoss:
    """Negative mean log of true-class score plus discounted opt-out score.

    Expects a model with one extra head: column K is the opt-out score.
    The payoff must satisfy 1 <= payoff < K.
    """

    def __init__(self, payoff: float):
        self.payoff = _positive(payoff, "payoff")

    def value_and_grad(self, probs, labels):
        K = probs.shape[1] - 1
        if K < 1:
            raise InputError("opt-out loss needs at least 2 outputs")
        if not 1.0 <= self.payoff < K:
            raise InputError(
                f"payoff must lie in [1, {K}), got {self.payoff}"
            )
        idx = np.arange(probs.shape[0])
        value, g = _mean_nll(probs[idx, labels] + probs[:, K] / self.payoff)
        dprobs = np.zeros_like(probs)
        dprobs[idx, labels] += g
        dprobs[:, K] += g / self.payoff
        return value, dprobs


# ---------------------------------------------------------------------------
# the saddle-point loop


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    fit_sum: float
    leaks: tuple
    lambdas: tuple
    phis: tuple
    absent_fit: tuple
    absent_leak: tuple


@dataclass(frozen=True)
class TrainingLog:
    """One :class:`EpochRecord` per landing epoch and one for the last epoch.

    A record scores every training row, so the trainer takes one only where
    the backbone has just moved (every ``backbone_update_interval`` epochs)
    and at the end; each counts the batches so far that lacked a term.  A
    run of no epochs keeps one record, at epoch -1, of its start model.
    """

    records: tuple

    def final(self) -> EpochRecord:
        return self.records[-1]


def sgda_train_grid(
    data: LabeledDataset, model: SelectiveModel, config: TrainConfig, mu_grid, seed: int
) -> list:
    """One saddle-point run per budget price in ``mu_grid``, all in lockstep.

    Every run starts from a copy of ``model``, whose input width and class
    count must be the data's, and sees the same batches, their order drawn
    from ``seed`` alone.  So the runs' heads, multipliers and slacks
    stack on a leading mu axis, with one head pass, loss and gradient per
    batch for the whole grid; each slice does the arithmetic of a lone run,
    so its result does not depend on the other grid values.  A step's terms
    and gradient are those of :class:`LagrangianLoss`.  ``config.mu`` and
    ``config.warm_start_epochs`` are not read.

    Heads and slacks descend at ``lr_min`` each batch; the multipliers
    ascend at ``lr_max``, clipped to ``[0, 10 * mu]``.  The cap is never
    below the price, so the problem each run solves is fit + mu * sum_k leak_k:
    the multipliers and slacks shape only the path to it.  Backbone steps
    land every ``backbone_update_interval`` epochs; in between, the heads
    train on cached last-layer features of the training rows, which the
    log's records read too: one after each landing and one after the last
    epoch (see :class:`TrainingLog`).  Cached and recomputed features can
    differ in the last bit, where BLAS rounds a batch's rows unlike the
    full matrix's.  A step's backbone gradient is linear in d(loss)/d(features)
    of its rows, so the steps sum those into one ``(n, M, width)`` buffer
    and a landing runs the backbone backward once per model over all rows:
    the per-batch sum up to rounding.  The trailing ``epochs %
    backbone_update_interval`` epochs have no update to land and do no
    backbone work.

    A non-finite loss, or multipliers or slacks that overflow in an epoch's
    last step, abort with a :class:`NumericError` naming the failing ``mu``
    and carrying that run's last finite epoch (``checkpoint_epoch``,
    ``checkpoint_model``, ``checkpoint_state``): its model and state as they
    stood when the failing epoch began.
    Returns one ``(model, state, log)`` per grid value, in grid order.
    """
    rng = np.random.default_rng([_seed(seed), 1])
    mus = np.array(_prices(mu_grid, "mu_grid")).reshape(-1, 1)
    M, K = mus.shape[0], data.num_classes
    model.spec.check_dim(data.dim)
    data.check_classes(model.num_classes)
    state = LagrangianState(np.zeros((M, K)), np.zeros((M, K)), mus)
    # the heads train as one stack; each model's heads are views of its
    # slice, so a stacked step updates every model in place
    head_w = np.repeat(model.head_w[None], M, axis=0)
    head_b = np.repeat(model.head_b[None], M, axis=0)
    models = [model.copy() for _ in range(M)]
    for m, mdl in enumerate(models):
        mdl.head_w, mdl.head_b = head_w[m], head_b[m]
    kind = model.spec.activation
    lam_max = 10.0 * mus
    n = data.n
    lr_w, lr_l = config.lr_min, config.lr_max
    decay_factor, decay_epoch = config.lr_decay
    # batches so far in which each class's fit and leak term was absent
    absent = np.zeros((2, K), dtype=np.int64)
    records: list = [[] for _ in range(M)]
    record_table = label_table(data.labels, K)
    interval = config.backbone_update_interval
    # no backbone update lands from this epoch on: only the heads train
    frozen_from = config.epochs - config.epochs % interval
    # pending backbone steps, as the summed d(loss)/d(features) of each
    # training row; only a run that lands an update needs them
    if frozen_from:
        cot = np.zeros((n, M, model.spec.feature_dim))
        # one batch's rows of it, written in place: a contiguous block adds
        # into ``cot`` faster than the matmul's model-major result
        batch_cot = np.empty((min(config.batch_size, n), M, model.spec.feature_dim))
    # last-layer features of every training row under the current
    # backbones: one shared matrix until the first update lands, then
    # one slice per model; the shared one fills a block of rows at a time
    feats = np.empty((n, model.spec.feature_dim))
    for rows in _row_blocks(n):
        feats[rows] = _backbone(model.weights, model.biases, kind, data.features[rows])[-1]

    def record(epoch: int) -> None:
        # one model at a time: a stacked pass would hold M (n, K) score
        # matrices at once
        for m, log in enumerate(records):
            probs = _head(head_w[m], head_b[m], feats if feats.ndim == 2 else feats[m])
            terms = class_terms(probs, record_table)
            log.append(
                EpochRecord(
                    epoch=epoch,
                    fit_sum=float(terms.fit.sum()),
                    leaks=tuple(terms.leak.tolist()),
                    lambdas=tuple(state.lambdas[m].tolist()),
                    phis=tuple(state.phis[m].tolist()),
                    absent_fit=tuple(absent[0].tolist()),
                    absent_leak=tuple(absent[1].tolist()),
                )
            )

    def land() -> None:
        # one model at a time, like the record, in one set of hidden
        # activation buffers, freed when the landing ends
        hidden = [np.empty((n, w)) for w in model.spec.layer_widths[1:-1]]
        for m, mdl in enumerate(models):
            acts = _backbone(
                mdl.weights[:-1], mdl.biases[:-1], kind, data.features, hidden
            ) + [feats[m]]
            # consumes the model's cotangents and the hidden activations
            g_ws, g_bs = _backbone_grads(mdl, acts, cot[:, m])
            for p, g in zip(mdl.weights + mdl.biases, g_ws + g_bs):
                p -= lr_w * g
            # the stepped backbone's activations, over the consumed ones
            _backbone(mdl.weights, mdl.biases, kind, data.features, acts[1:])
        cot[:] = 0.0

    for epoch in range(config.epochs):
        if epoch == decay_epoch and epoch > 0:
            lr_w *= decay_factor
            lr_l *= decay_factor
            if epoch < frozen_from and epoch % interval:
                # the landing multiplies by the new rate; the steps taken
                # so far ran at the old one
                cot /= decay_factor
        perm = np.arange(n) if config.batch_size >= n else rng.permutation(n)
        tables, epoch_absent = label_tables(
            np.take(data.labels, perm), K, config.batch_size
        )
        # the checkpoint: each step rebinds fresh multiplier and slack
        # arrays, so references keep the epoch-start ones
        start_w, start_b = head_w.copy(), head_b.copy()
        start_lambdas, start_phis = state.lambdas, state.phis
        for start, table in zip(range(0, n, config.batch_size), tables):
            idx = perm[start : start + config.batch_size]
            # the backbone is fixed until the next landing, so the cached
            # features are this batch's
            feat = np.take(feats, idx, axis=-2)
            probs = _head(head_w, head_b, feat)
            lam, phis = state.lambdas, state.phis
            terms = class_terms(probs, table, 1.0, lam)
            gap = mus - lam
            # the saddle value's multiplier and slack sums: finite exactly
            # when the value is, since the fit sum is bounded and a NaN
            # score makes its class's leak NaN too
            finite = np.isfinite(
                np.add.reduce(lam * terms.leak, axis=-1)
                + np.add.reduce(gap * phis, axis=-1)
            )
            if not finite.all():
                value = _saddle_value(terms, state)[np.argmin(finite)]
                fault = f"loss evaluated to a non-finite value: {value}"
                break
            dlogits, g_head_w, g_head_b = _head_grads(feat, probs, terms.dprobs)
            # heads step now, the backbone's step waits for the landing
            if epoch < frozen_from:
                rows = batch_cot[: idx.size]
                np.matmul(dlogits, head_w, out=rows.swapaxes(0, 1))
                cot[idx] += rows
            head_w -= lr_w * g_head_w
            head_b -= lr_w * g_head_b
            # simultaneous update of slacks and multipliers, into fresh
            # arrays; each bound is the first argument, which np.clip keeps
            # on a tie (so 0.0, never -0.0)
            gap *= lr_w
            new_phis = np.maximum(0.0, np.subtract(phis, gap, out=gap), out=gap)
            new_lambdas = np.subtract(terms.leak, phis)
            new_lambdas *= lr_l
            new_lambdas += lam
            np.maximum(0.0, new_lambdas, out=new_lambdas)
            state.lambdas = np.minimum(lam_max, new_lambdas, out=new_lambdas)
            state.phis = new_phis
        else:
            # no later step checks the last one's update
            finite = np.isfinite(np.stack([state.lambdas, state.phis])).all(axis=(0, 2))
            fault = "multipliers or slacks overflowed"
        if not finite.all():
            m = int(np.argmin(finite))
            mu = float(mus[m, 0])
            err = NumericError(f"training at mu={mu!r}: {fault}")
            err.mu, err.checkpoint_epoch = mu, epoch - 1
            # backbones land after the batches, so the failing model's is
            # still the epoch-start one; the run ends, so it needs no copy
            models[m].head_w, models[m].head_b = start_w[m].copy(), start_b[m].copy()
            err.checkpoint_model = models[m]
            err.checkpoint_state = LagrangianState(start_lambdas[m], start_phis[m], mu)
            raise err
        absent += epoch_absent
        landing = (epoch + 1) % interval == 0
        if landing:
            if feats.ndim == 2:
                feats = np.repeat(feats[None], M, axis=0)
            land()
        if landing or epoch == config.epochs - 1:
            record(epoch)

    if config.epochs == 0:
        record(-1)
    return [
        (
            models[m].copy(),
            LagrangianState(state.lambdas[m], state.phis[m], float(mus[m, 0])),
            TrainingLog(tuple(records[m])),
        )
        for m in range(M)
    ]


def sgda_train(
    data: LabeledDataset, model: SelectiveModel, config: TrainConfig, seed: int
) -> tuple[SelectiveModel, LagrangianState, TrainingLog]:
    """Alternating descent/ascent over minibatches from ``model``.

    The one-price case of :func:`sgda_train_grid`, at ``config.mu``.
    """
    return sgda_train_grid(data, model, config, (config.mu,), seed)[0]
