"""Loss values, multiplier dynamics, and the saddle-point loop."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onesided.net as net_mod
import onesided.train as train_mod
from onesided.core import InputError, LabeledDataset, NumericError
from onesided.net import (
    BLOCK_ROWS,
    CROSS_ENTROPY,
    PROB_FLOOR,
    BackboneSpec,
    SelectiveModel,
    _backbone,
    _head,
    forward_batch,
    init_model,
)
from onesided.train import (
    ClassTerms,
    GamblersLoss,
    LagrangianLoss,
    LagrangianState,
    LeakLoss,
    RestrictedFitLoss,
    TrainConfig,
    class_terms,
    label_table,
    label_tables,
    sgda_train,
    sgda_train_grid,
)
from test_net import (
    blob_data,
    central_difference,
    flatten_grads,
    flatten_params,
    random_batch,
    small_model,
    stack_of,
)
from onesided.net import backward, warm_start


# ---------------------------------------------------------------------------
# loss values: frozen hand numbers


def test_restricted_fit_hand_values():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    labels = np.array([0, 0, 1])
    value, _ = RestrictedFitLoss(0).value_and_grad(probs, labels)
    assert value == pytest.approx((np.log(2) + np.log(4)) / 2, abs=1e-15)
    value1, _ = RestrictedFitLoss(1).value_and_grad(probs, labels)
    assert value1 == pytest.approx(np.log(10), abs=1e-12)


def test_restricted_fit_absent_class_is_zero():
    probs = np.array([[0.5, 0.5]])
    labels = np.array([1])
    value, grad = RestrictedFitLoss(0).value_and_grad(probs, labels)
    assert value == 0.0
    assert not grad.any()


def test_class_losses_refuse_a_class_the_scores_lack():
    # k is a count when the loss is built, and below K once scores arrive
    probs, labels = np.array([[0.5, 0.5]]), np.array([0])
    for loss in (RestrictedFitLoss, LeakLoss):
        for k in (2, 5):
            with pytest.raises(InputError, match=f"class index {k} outside"):
                loss(k).value_and_grad(probs, labels)


def test_leak_hand_values():
    # class-0 scores 0.1 and 0.9 on two non-0 points
    probs = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]])
    labels = np.array([1, 1, 0])
    value, _ = LeakLoss(0).value_and_grad(probs, labels)
    expected = (-np.log(0.9) - np.log(0.1)) / 2
    assert value == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(1.2039728043259361, abs=1e-15)


def terms_of(model, batch):
    table = label_table(batch.labels, batch.num_classes)
    return class_terms(forward_batch(model, batch.features), table)


class RecordingLoss(LagrangianLoss):
    """`LagrangianLoss` keeping its last batch's class terms, for the reference loops.

    ``absent`` holds the per-class loop's fit and leak absence flags, which
    depend on the labels alone: the first model's scores give them.
    """

    def value_and_grad(self, probs, labels):
        K = probs.shape[-1]
        self.terms = class_terms(probs, label_table(labels, K))
        first, zero = probs.reshape(-1, *probs.shape[-2:])[0], np.zeros(K)
        self.absent = loop_terms(first, labels, zero, zero)[2:4]
        return super().value_and_grad(probs, labels)


def lagrangian(model, batch, state):
    """The saddle objective as the trainer's loss object computes it."""
    probs = forward_batch(model, batch.features)
    return float(LagrangianLoss(state).value_and_grad(probs, batch.labels)[0])


def test_lagrangian_zero_multipliers_is_fit_sum():
    model = small_model(seed=1, K=2, widths=(2, 4, 3))
    batch = random_batch(model, 12, 7)
    state = LagrangianState(np.zeros(2), np.zeros(2), mu=1.5)
    value = lagrangian(model, batch, state)
    expected = terms_of(model, batch).fit.sum()
    assert value == pytest.approx(expected, rel=1e-14)


def test_lagrangian_matches_written_out_formula():
    model = small_model(seed=2, K=3)
    batch = random_batch(model, 20, 8)
    state = LagrangianState(
        lambdas=np.array([0.3, 0.0, 1.2]),
        phis=np.array([0.05, 0.4, 0.0]),
        mu=2.0,
    )
    probs = forward_batch(model, batch.features)
    expected = 0.0
    for k in range(3):
        own = batch.labels == k
        other = ~own
        fit = np.mean(-np.log(probs[own, k])) if own.any() else 0.0
        leak = np.mean(-np.log(1 - probs[other, k])) if other.any() else 0.0
        expected += (
            fit
            + state.lambdas[k] * (leak - state.phis[k])
            + state.mu * state.phis[k]
        )
    assert lagrangian(model, batch, state) == pytest.approx(expected, rel=1e-13)


def test_lagrangian_partial_wrt_lambda_is_leak_minus_phi():
    model = small_model(seed=3, K=2, widths=(3, 4, 4))
    batch = random_batch(model, 15, 9)
    for k in range(2):
        lam = np.array([0.4, 0.7])
        state_a = LagrangianState(lam, np.array([0.2, 0.1]), mu=1.0)
        bump = lam.copy()
        bump[k] += 1.0
        state_b = LagrangianState(bump, np.array([0.2, 0.1]), mu=1.0)
        diff = lagrangian(model, batch, state_b) - lagrangian(model, batch, state_a)
        expected = terms_of(model, batch).leak[k] - state_a.phis[k]
        assert diff == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("which", ["lambda", "phi"])
def test_lagrangian_linear_in_multipliers(which):
    # three collinear evaluations: the second difference vanishes
    model = small_model(seed=4, K=2, widths=(2, 3, 3))
    batch = random_batch(model, 10, 10)
    values = []
    for step in range(3):
        lam = np.array([0.2, 0.5])
        phi = np.array([0.3, 0.1])
        if which == "lambda":
            lam = lam + step * np.array([0.7, 0.2])
        else:
            phi = phi + step * np.array([0.4, 0.9])
        state = LagrangianState(lam, phi, mu=1.3)
        values.append(lagrangian(model, batch, state))
    assert values[2] - 2 * values[1] + values[0] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the class-term kernel against a per-class loop


def loop_terms(probs, labels, fit_w, leak_w):
    """Reference: each class's fit and leak term, one class at a time."""
    n, K = probs.shape
    fit, leak = np.zeros(K), np.zeros(K)
    absent_fit, absent_leak = np.zeros(K, dtype=bool), np.zeros(K, dtype=bool)
    dprobs = np.zeros_like(probs)
    for k in range(K):
        rows = labels == k
        if rows.any():
            p_raw = probs[rows, k]
            p = np.clip(p_raw, PROB_FLOOR, 1.0 - PROB_FLOOR)
            fit[k] = np.mean(-np.log(p))
            inside = (p_raw > PROB_FLOOR) & (p_raw < 1.0 - PROB_FLOOR)
            dprobs[rows, k] += np.where(inside, -fit_w[k] / (rows.sum() * p), 0.0)
        else:
            absent_fit[k] = True
        rows = labels != k
        if rows.any():
            p_raw = probs[rows, k]
            q = np.clip(1.0 - p_raw, PROB_FLOOR, 1.0 - PROB_FLOOR)
            leak[k] = np.mean(-np.log(q))
            inside = (p_raw > PROB_FLOOR) & (p_raw < 1.0 - PROB_FLOOR)
            dprobs[rows, k] += np.where(inside, leak_w[k] / (rows.sum() * q), 0.0)
        else:
            absent_leak[k] = True
    return fit, leak, absent_fit, absent_leak, dprobs


def close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(1, 10),
    n=st.integers(1, 40),
    present=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_terms_and_losses_match_per_class_loop(K, n, present, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, K)) * rng.choice([1.0, 30.0])
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[rng.random(n) < 0.2] = np.eye(K)[rng.integers(0, K)]  # scores at 0 and 1
    labels = rng.integers(0, min(present, K), size=n)  # classes >= present are absent
    fit_w = rng.random(K) * (rng.random(K) < 0.7)
    leak_w = rng.random(K) * (rng.random(K) < 0.7)
    state = LagrangianState(2.0 * rng.random(K), rng.random(K), mu=float(rng.random()))
    lam, phi = state.lambdas, state.phis
    zero = np.zeros(K)

    # row-major, and class-major as `_head` stores the trainer's scores
    table = label_table(labels, K)
    for probs in (probs, np.ascontiguousarray(probs.T).T):
        got = class_terms(probs, table, fit_w, leak_w)
        fit, leak, absent_fit, absent_leak, dprobs = loop_terms(probs, labels, fit_w, leak_w)
        assert close(got.fit, fit) and close(got.leak, leak)
        # all rows as one batch: each term is absent in one batch or none
        absent = label_tables(labels, K)[1]
        assert np.array_equal(absent, [absent_fit, absent_leak])
        assert got.dprobs.tobytes() == dprobs.tobytes()
        assert class_terms(probs, table).dprobs is None

        for k in range(K):
            e_k = np.eye(K)[k]
            value, grad = RestrictedFitLoss(k).value_and_grad(probs, labels)
            want = loop_terms(probs, labels, e_k, zero)
            assert close(value, want[0][k]) and grad.tobytes() == want[4].tobytes()
            value, grad = LeakLoss(k).value_and_grad(probs, labels)
            want = loop_terms(probs, labels, zero, e_k)
            assert close(value, want[1][k]) and grad.tobytes() == want[4].tobytes()

        loss = LagrangianLoss(state)
        value, grad = loss.value_and_grad(probs, labels)
        fit, leak, absent_fit, absent_leak, dprobs = loop_terms(
            probs, labels, np.ones(K), state.lambdas
        )
        assert close(value, np.sum(fit + lam * leak + (state.mu - lam) * phi))
        assert grad.tobytes() == dprobs.tobytes()

    model = small_model(seed=seed % 1000, K=K, widths=(2, 3, 3))
    batch = LabeledDataset(rng.normal(size=(n, 2)), labels, K)
    probs = forward_batch(model, batch.features)
    fit, leak = loop_terms(probs, labels, zero, zero)[:2]
    assert close(terms_of(model, batch).fit, fit)
    assert close(terms_of(model, batch).leak, leak)
    assert close(
        lagrangian(model, batch, state), np.sum(fit + lam * leak + (state.mu - lam) * phi)
    )


@settings(max_examples=300, deadline=None)
@given(
    K=st.integers(1, 17),
    width=st.sampled_from([1, 3, 8, 16, 33]),
    n=st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128]), st.integers(300, 700)),
    M=st.integers(1, 6),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_head_and_class_terms_slices_equal_lone_models(K, width, n, M, shared, seed):
    # the lockstep trainer scores and differentiates M models at once; each
    # slice must hold the bits of a lone model, whatever the shapes
    rng = np.random.default_rng(seed)
    spec = BackboneSpec((2, width))
    scale = rng.choice([1.0, 30.0])
    models = [
        SelectiveModel(
            spec,
            K,
            [rng.normal(size=(width, 2))],
            [np.zeros(width)],
            scale * rng.normal(size=(K, width)),
            rng.normal(size=K),
        )
        for _ in range(M)
    ]
    feats = rng.normal(size=(n, width) if shared else (M, n, width))
    labels = rng.integers(0, K, size=n)
    fit_w, leak_w = rng.random((M, K)), rng.random((M, K))

    stack = stack_of(models)
    probs = _head(stack.head_w, stack.head_b, feats)
    table = label_table(labels, K)
    terms = class_terms(probs, table, fit_w, leak_w)
    for m, model in enumerate(models):
        lone = _head(model.head_w, model.head_b, feats if shared else feats[m])
        assert probs[m].tobytes() == lone.tobytes()
        want = class_terms(lone, table, fit_w[m], leak_w[m])
        assert terms.fit[m].tobytes() == want.fit.tobytes()
        assert terms.leak[m].tobytes() == want.leak.tobytes()
        assert terms.dprobs[m].tobytes() == want.dprobs.tobytes()


@pytest.mark.parametrize("M", [None, 3])
def test_scores_and_class_term_gradients_are_stored_class_major(M):
    # the softmax and every loss reduce along contiguous memory only while
    # the (n, K) matrices are views of C-contiguous (K, n) arrays
    models = [small_model(seed=s, widths=(3, 6, 5), K=4) for s in range(M or 1)]
    model = models[0] if M is None else stack_of(models)
    batch = random_batch(models[0], 50, 1)
    feat = np.random.default_rng(2).normal(size=(50, 5))
    probs = _head(model.head_w, model.head_b, feat)
    assert probs.shape[-2:] == (50, 4)
    assert probs.swapaxes(-1, -2).flags.c_contiguous
    weights = np.random.default_rng(3).random(model.head_b.shape)
    for fit_w in (1.0, weights):
        terms = class_terms(probs, label_table(batch.labels, 4), fit_w, weights)
        assert terms.dprobs.swapaxes(-1, -2).flags.c_contiguous


def assert_same_terms(got, want):
    for name in ClassTerms._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(
    K=st.integers(1, 6),
    n=st.integers(1, 60),
    batch_size=st.integers(1, 25),
    present=st.integers(1, 6),
    M=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_epoch_table_slices_equal_batch_tables_and_the_loop(
    K, n, batch_size, present, M, seed
):
    # the trainer builds every batch's label table in one pass per epoch;
    # each slice must give the terms a table of that batch's labels gives,
    # byte for byte, and the per-class loop's: dprobs byte for byte, means
    # to 1e-12.  Weights are those of all three loss objects, zeros
    # included: a zero weight is where -0.0 appears.  The trailing batch
    # may be short, and classes >= present miss every batch
    rng = np.random.default_rng(seed)
    stack = () if M == 0 else (M,)
    logits = rng.normal(size=stack + (K, n)) * rng.choice([1.0, 30.0])
    probs = np.exp(logits - logits.max(axis=-2, keepdims=True))
    probs /= probs.sum(axis=-2, keepdims=True)
    probs = probs.swapaxes(-1, -2)  # class-major, as `_head` stores scores
    probs[..., rng.random(n) < 0.2, :] = np.eye(K)[rng.integers(0, K)]  # 0 and 1
    labels = rng.integers(0, min(present, K), size=n)
    lam = rng.random(stack + (K,)) * (rng.random(stack + (K,)) < 0.5)
    zero, eye = np.zeros(stack + (K,)), np.broadcast_to(np.eye(K), stack + (K, K))
    weights = [(1.0, lam), (zero, zero), (None, None)]
    weights += [(eye[..., k, :], None) for k in range(K)]  # RestrictedFitLoss(k)
    weights += [(None, eye[..., k, :]) for k in range(K)]  # LeakLoss(k)

    tables, absent = label_tables(labels, K, batch_size)
    assert len(tables) == -(-n // batch_size)
    counted = np.zeros((2, K), dtype=np.int64)
    for start, table in zip(range(0, n, batch_size), tables):
        rows = slice(start, start + batch_size)
        y, p = labels[rows], probs[..., rows, :]
        (lone,), lone_absent = label_tables(y, K)
        counted += lone_absent
        for fit_w, leak_w in weights:
            got = class_terms(p, table, fit_w, leak_w)
            want = class_terms(p, lone, fit_w, leak_w)
            if fit_w is None and leak_w is None:
                assert got.dprobs is None and want.dprobs is None
                assert_same_terms(got._replace(dprobs=zero), want._replace(dprobs=zero))
            else:
                assert_same_terms(got, want)
            for m in np.ndindex(stack):
                fw = np.broadcast_to(0.0 if fit_w is None else fit_w, stack + (K,))
                lw = np.broadcast_to(0.0 if leak_w is None else leak_w, stack + (K,))
                fit, leak, absent_fit, absent_leak, dprobs = loop_terms(p[m], y, fw[m], lw[m])
                assert close(got.fit[m], fit) and close(got.leak[m], leak)
                # an absent term reads 0.0, not -0.0
                assert got.fit[m][absent_fit].tobytes() == fit[absent_fit].tobytes()
                assert got.leak[m][absent_leak].tobytes() == leak[absent_leak].tobytes()
                assert np.array_equal(lone_absent, [absent_fit, absent_leak])
                if got.dprobs is not None:
                    assert got.dprobs[m].tobytes() == dprobs.tobytes()
    assert np.array_equal(absent, counted)


def two_mask_terms(probs, table):
    """Reference: the fit and leak means from one ``(..., 2, n, K)`` masked product."""
    masks, neg_d, _ = table
    logs = np.subtract(1.0, probs)
    s = np.where(masks[0], probs, logs)
    np.maximum(PROB_FLOOR, s, out=s)
    np.minimum(1.0 - PROB_FLOOR, s, out=s)
    np.log(s, out=logs)
    means = np.add.reduce(np.multiply(logs[..., None, :, :], masks), axis=-2)
    means /= neg_d
    means += 0.0
    return means[..., 0, :], means[..., 1, :]


@pytest.mark.parametrize("K", [2, 10])
@pytest.mark.parametrize("M", [None, 4])
def test_class_terms_equal_the_two_mask_product_to_the_bit(K, M):
    # class_terms sums fit from one (..., n, K) product and leak from the
    # logs masked in place; both must hold the bits of the (2, n, K)
    # masked product they replace, on a step's batch tables and on the
    # record's all-rows table, absent classes and a NaN score included
    rng = np.random.default_rng(K)
    n, width = 1_000, 6
    feat = rng.normal(size=(n, width))
    head_w = rng.normal(size=(K, width) if M is None else (M, K, width)) * 4.0
    probs = _head(head_w, rng.normal(size=head_w.shape[:-1]), feat)
    probs[..., 7, :] = np.nan
    labels = rng.integers(0, K - 1, size=n)  # the last class is absent
    tables, _ = label_tables(labels, K, 128)
    cases = [(slice(a, a + 128), t) for a, t in zip(range(0, n, 128), tables)]
    cases.append((slice(0, n), label_table(labels, K)))
    for rows, table in cases:
        p = probs[..., rows, :]
        got = class_terms(p, table, 1.0, rng.random(p.shape[:-2] + (K,)))
        fit, leak = two_mask_terms(p, table)
        assert got.fit.tobytes() == fit.tobytes()
        assert got.leak.tobytes() == leak.tobytes()
        assert np.isnan(got.leak).any() == (rows.start == 0)


# ---------------------------------------------------------------------------
# gradient checks for the training losses


def loss_value_closure(kind, batch, state=None, payoff=None):
    def fit_k(m, k):
        P = forward_batch(m, batch.features)
        mask = batch.labels == k
        if not mask.any():
            return 0.0
        return float(np.mean(-np.log(np.clip(P[mask, k], 1e-12, 1 - 1e-12))))

    def leak_k(m, k):
        P = forward_batch(m, batch.features)
        mask = batch.labels != k
        if not mask.any():
            return 0.0
        return float(
            np.mean(-np.log(np.clip(1 - P[mask, k], 1e-12, 1 - 1e-12)))
        )

    if kind == "fit":
        return lambda m: fit_k(m, 0)
    if kind == "leak":
        return lambda m: leak_k(m, 1)
    if kind == "lagrangian":
        def value(m):
            total = 0.0
            for k in range(m.num_classes):
                total += (
                    fit_k(m, k)
                    + state.lambdas[k] * (leak_k(m, k) - state.phis[k])
                    + state.mu * state.phis[k]
                )
            return total
        return value
    if kind == "gamblers":
        def value(m):
            P = forward_batch(m, batch.features)
            K = P.shape[1] - 1
            s = P[np.arange(batch.n), batch.labels] + P[:, K] / payoff
            return float(np.mean(-np.log(np.clip(s, 1e-12, 1 - 1e-12))))
        return value
    raise AssertionError(kind)


def test_training_loss_gradients_match_fd():
    model = small_model(seed=6, K=2, widths=(3, 4, 4))
    batch = random_batch(model, 10, 12)
    state = LagrangianState(np.array([0.5, 1.1]), np.array([0.2, 0.0]), mu=1.7)
    cases = [
        (RestrictedFitLoss(0), loss_value_closure("fit", batch)),
        (LeakLoss(1), loss_value_closure("leak", batch)),
        (LagrangianLoss(state), loss_value_closure("lagrangian", batch, state=state)),
    ]
    for loss_obj, value_fn in cases:
        _, grads = backward(model, batch, loss_obj)
        fd = central_difference(model, value_fn)
        analytic = flatten_grads(grads)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        assert (np.abs(analytic - fd) / denom).max() < 1e-4


def test_gamblers_gradient_matches_fd():
    # 2 real classes plus the opt-out head
    model = small_model(seed=7, K=3, widths=(3, 4, 4))
    rng = np.random.default_rng(13)
    X = rng.normal(size=(9, 3))
    y = rng.integers(0, 2, size=9)
    batch = LabeledDataset(X, y, 3)
    loss_obj = GamblersLoss(1.5)
    _, grads = backward(model, batch, loss_obj)
    fd = central_difference(model, loss_value_closure("gamblers", batch, payoff=1.5))
    analytic = flatten_grads(grads)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    assert (np.abs(analytic - fd) / denom).max() < 1e-4


# ---------------------------------------------------------------------------
# opt-out loss values


def test_gamblers_hand_value():
    probs = np.array([[0.0, 0.0, 1.0]])
    labels = np.array([0])
    value, _ = GamblersLoss(2.0 - 1e-9).value_and_grad(probs, labels)
    assert value == pytest.approx(np.log(2.0), rel=1e-8)


def test_single_score_losses_have_zero_gradient_where_clamped():
    # rows: true-class score 1 (upper clamp), 0 (lower clamp), and interior
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.4], [0.3, 0.3, 0.4]])
    labels = np.array([0, 0, 1])
    _, g = CROSS_ENTROPY.value_and_grad(probs, labels)
    want = np.zeros_like(probs)
    want[2, 1] = -1.0 / (3 * 0.3)
    assert np.array_equal(g, want)
    probs[1, 2] = 0.0  # no opt-out mass, so the gamblers score is 0 too
    _, g = GamblersLoss(1.5).value_and_grad(probs, labels)
    s = 0.3 + 0.4 / 1.5
    want[2, 1] = -1.0 / (3 * s)
    want[2, 2] = want[2, 1] / 1.5
    assert np.array_equal(g, want)


def test_gamblers_loss_payoff_validation():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=6)  # 2 classes + opt-out
    labels = rng.integers(0, 2, 6)
    value, _ = GamblersLoss(1.5).value_and_grad(probs, labels)
    assert np.isfinite(value)
    # the payoff must lie in [1, K), K = 2 true classes here
    for bad in (0.2, 2.0, 3.0):
        with pytest.raises(InputError):
            GamblersLoss(bad).value_and_grad(probs, labels)


# ---------------------------------------------------------------------------
# state and config


def test_state_validation():
    with pytest.raises(InputError):
        LagrangianState(np.array([-0.1]), np.array([0.0]), 1.0)
    with pytest.raises(InputError):
        LagrangianState(np.array([0.1]), np.array([-1.0]), 1.0)
    with pytest.raises(InputError):
        LagrangianState(np.array([0.1]), np.array([0.0]), -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="finite and nonnegative"):
            LagrangianState(np.array([bad]), np.array([0.0]), 1.0)
        with pytest.raises(InputError, match="finite and nonnegative"):
            LagrangianState(np.array([0.1]), np.array([bad]), 1.0)


def test_config_validation():
    with pytest.raises(InputError):
        TrainConfig(mu=-1.0)
    with pytest.raises(InputError):
        TrainConfig(mu=1.0, batch_size=0)
    with pytest.raises(InputError):
        TrainConfig(mu=1.0, backbone_update_interval=0)
    # lr_decay is exactly (factor, epoch), the epoch a whole number: at 2.5
    # the decay would never fire
    for bad in [(), (0.1,), (0.1, 50, 2), (0.1, 2.5), (0.0, 5), (0.1, -1)]:
        with pytest.raises(InputError, match="lr_decay"):
            TrainConfig(mu=1.0, lr_decay=bad)
    assert TrainConfig(mu=1.0, lr_decay=(0.5, 3.0)).lr_decay == (0.5, 3.0)


# ---------------------------------------------------------------------------
# the loop


def overlap_blobs(n, seed, gap=2.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal((-gap / 2, 0.0), 1.0, size=(half, 2)),
            rng.normal((gap / 2, 0.0), 1.0, size=(n - half, 2)),
        ]
    )
    y = np.r_[np.zeros(half, dtype=int), np.ones(n - half, dtype=int)]
    return LabeledDataset(X, y, 2)


SPEC = BackboneSpec((2, 16, 8))


def warm_model(data, config, seed):
    """The start model ``onesided train --seed`` builds: a warm start as ``config`` sets it."""
    return warm_start(
        data, SPEC, config.warm_start_epochs, config.lr_min, seed, config.batch_size,
    )


def test_sgda_zero_epochs_returns_warm_model():
    data = overlap_blobs(100, seed=1)
    cfg = TrainConfig(mu=1.0, epochs=0, warm_start_epochs=3)
    warm = warm_model(data, cfg, 5)
    model, state, log = sgda_train(data, warm, cfg, 5)
    assert model is not warm
    assert np.array_equal(flatten_params(model), flatten_params(warm))
    assert not state.lambdas.any()
    assert len(log.records) == 1


def test_sgda_deterministic():
    data = overlap_blobs(150, seed=2)
    cfg = TrainConfig(mu=1.0, epochs=6, warm_start_epochs=2, batch_size=32)
    m1, s1, l1 = sgda_train(data, warm_model(data, cfg, 3), cfg, 3)
    m2, s2, l2 = sgda_train(data, warm_model(data, cfg, 3), cfg, 3)
    assert np.array_equal(flatten_params(m1), flatten_params(m2))
    assert np.array_equal(s1.lambdas, s2.lambdas)
    assert l1.records == l2.records


def test_sgda_multipliers_stay_projected():
    data = overlap_blobs(120, seed=4)
    cfg = TrainConfig(
        mu=0.5, epochs=25, warm_start_epochs=2, batch_size=32,
        lr_min=0.05, lr_max=0.05, backbone_update_interval=1,
    )
    _, state, log = sgda_train(data, warm_model(data, cfg, 6), cfg, 6)
    # each price caps its multipliers at 10 * mu
    lam_max = 10.0 * cfg.mu
    for rec in log.records:
        assert all(0.0 <= l <= lam_max + 1e-12 for l in rec.lambdas)
        assert all(p >= 0.0 for p in rec.phis)
    assert 0.0 <= state.lambdas.max() <= lam_max + 1e-12


def test_sgda_full_batch_is_one_exact_step():
    data = overlap_blobs(40, seed=7)
    init = init_model(SPEC, 2, seed=123)
    cfg = TrainConfig(
        mu=1.0, epochs=1, batch_size=1000, warm_start_epochs=0,
        backbone_update_interval=1, lr_min=0.01, lr_max=0.005,
    )
    model, state, _ = sgda_train(data, init, cfg, 0)

    expected = init.copy()
    st = LagrangianState(np.zeros(2), np.zeros(2), 1.0)
    loss_obj = RecordingLoss(st)
    _, grads = backward(expected, data, loss_obj)
    expected.head_w -= cfg.lr_min * grads.head_w
    expected.head_b -= cfg.lr_min * grads.head_b
    for W, g in zip(expected.weights, grads.weights):
        W -= cfg.lr_min * g
    for b, g in zip(expected.biases, grads.biases):
        b -= cfg.lr_min * g
    assert np.array_equal(flatten_params(model), flatten_params(expected))
    # lambda took one clipped ascent step from zero
    assert np.array_equal(
        state.lambdas,
        np.clip(cfg.lr_max * loss_obj.terms.leak, 0.0, 10.0),
    )
    assert not state.phis.any()


def tri_blobs(n, seed, gap=2.2):
    # three classes are needed for a real fit/leak tension: with two,
    # 1 - f_1 = f_0 under the softmax and the leak terms collapse into
    # relabeled fit terms
    rng = np.random.default_rng(seed)
    per = n // 3
    centers = [(-gap, 0.0), (gap, 0.0), (0.0, gap)]
    X = np.vstack([rng.normal(c, 1.0, size=(per, 2)) for c in centers])
    y = np.repeat([0, 1, 2], per)
    return LabeledDataset(X, y, 3)


def test_sgda_drives_leak_below_warm_start():
    from onesided.net import warm_start

    data = tri_blobs(300, seed=8)
    warm = warm_start(data, SPEC, epochs=30, lr=0.02, seed=9, batch_size=64)
    warm_leak = terms_of(warm, data).leak.sum()
    cfg = TrainConfig(
        mu=4.0, epochs=60, warm_start_epochs=0, batch_size=64,
        lr_min=0.02, lr_max=0.1, backbone_update_interval=5,
        lr_decay=(0.1, 1000),
    )
    model, _, _ = sgda_train(data, warm, cfg, 9)
    final_leak = terms_of(model, data).leak.sum()
    assert final_leak < warm_leak


def test_sgda_mu_zero_reduces_to_fit_minimization():
    # with mu = 0 and the ascent rate zeroed, the loop must coincide with
    # plain descent on the summed fit terms: multipliers and slacks never
    # move, and full-batch parameters match a manual loop exactly
    data = tri_blobs(60, seed=10)
    init = init_model(SPEC, 3, seed=21)
    cfg = TrainConfig(
        mu=0.0, lr_max=0.0, epochs=5, warm_start_epochs=0,
        batch_size=1000, backbone_update_interval=1, lr_min=0.03,
        lr_decay=(0.1, 1000),
    )
    model, state, log = sgda_train(data, init, cfg, 11)
    assert not state.lambdas.any()
    assert not state.phis.any()
    for rec in log.records:
        assert not any(rec.lambdas) and not any(rec.phis)

    class FitSum:
        def value_and_grad(self, probs, labels):
            total, dprobs = 0.0, np.zeros_like(probs)
            for k in range(probs.shape[1]):
                v, g = RestrictedFitLoss(k).value_and_grad(probs, labels)
                total += v
                dprobs += g
            return total, dprobs

    expected = init.copy()
    for _ in range(5):
        _, grads = backward(expected, data, FitSum())
        expected.head_w -= cfg.lr_min * grads.head_w
        expected.head_b -= cfg.lr_min * grads.head_b
        for W, g in zip(expected.weights, grads.weights):
            W -= cfg.lr_min * g
        for b, g in zip(expected.biases, grads.biases):
            b -= cfg.lr_min * g
    assert np.array_equal(flatten_params(model), flatten_params(expected))


def test_sgda_counts_batches_missing_a_class():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(64, 2))
    y = np.zeros(64, dtype=int)
    y[:4] = 1  # rare class
    data = LabeledDataset(X, y, 2)
    cfg = TrainConfig(mu=1.0, epochs=20, warm_start_epochs=0, batch_size=16)
    _, _, log = sgda_train(data, warm_model(data, cfg, 12), cfg, 12)
    assert log.final().absent_fit[1] > 0
    assert log.final().absent_fit[0] == 0


@pytest.mark.parametrize(
    "epochs, interval, recorded",
    [
        (0, 4, [-1]),
        (3, 4, [2]),
        (8, 4, [3, 7]),
        (10, 4, [3, 7, 9]),
        (5, 1, [0, 1, 2, 3, 4]),
        (7, 3, [2, 5, 6]),
    ],
)
def test_sgda_records_each_landing_and_the_last_epoch(epochs, interval, recorded):
    # a record scores every training row, so the trainer takes one after
    # each backbone landing and one after the last epoch, never two for an
    # epoch; the last one holds the run's totals and the returned model's
    # full-data terms
    rng = np.random.default_rng(13)
    y = rng.choice(3, size=90, p=[0.75, 0.2, 0.05])
    X = rng.normal(size=(90, 2)) + np.c_[np.cos(y), np.sin(y)]
    data = LabeledDataset(X, y, 3)
    cfg = TrainConfig(
        mu=1.0, epochs=epochs, batch_size=8, warm_start_epochs=1, lr_min=0.02,
        lr_max=0.05, backbone_update_interval=interval,
    )
    seed = 14
    model, _, log = sgda_train(data, warm_model(data, cfg, seed), cfg, seed)
    assert [rec.epoch for rec in log.records] == recorded
    # the batches without a row of each class, and without a row of another
    order = np.random.default_rng([seed, 1])
    absent_fit, absent_leak = np.zeros(3, dtype=int), np.zeros(3, dtype=int)
    for _ in range(epochs):
        perm = order.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            counts = np.bincount(y[perm[start : start + cfg.batch_size]], minlength=3)
            absent_fit += counts == 0
            absent_leak += counts == counts.sum()
    final = log.final()
    assert final.absent_fit == tuple(absent_fit) and final.absent_leak == tuple(absent_leak)
    if epochs:
        assert absent_fit[2] > 0 and absent_leak[0] > 0
    terms = terms_of(model, data)
    assert close(final.fit_sum, terms.fit.sum())
    assert close(np.array(final.leaks), terms.leak)


def test_sgda_aborts_on_non_finite_with_checkpoint():
    data = overlap_blobs(60, seed=15)
    poisoned = init_model(SPEC, 2, seed=1)
    poisoned.head_w[0, 0] = np.nan
    cfg = TrainConfig(mu=1.0, epochs=3, warm_start_epochs=0)
    with pytest.raises(NumericError) as ei:
        sgda_train(data, poisoned, cfg, 2)
    assert ei.value.checkpoint_epoch == -1
    assert ei.value.checkpoint_model is not None


def test_sgda_lr_decay_applies():
    # one fast-rate step after decay moves parameters less than before it
    data = overlap_blobs(50, seed=16)
    cfg_no = TrainConfig(
        mu=1.0, epochs=4, warm_start_epochs=0, batch_size=1000,
        backbone_update_interval=1, lr_decay=(0.1, 1000), lr_min=0.05,
    )
    cfg_yes = TrainConfig(
        mu=1.0, epochs=4, warm_start_epochs=0, batch_size=1000,
        backbone_update_interval=1, lr_decay=(0.1, 2), lr_min=0.05,
    )
    init = init_model(SPEC, 2, seed=17)
    m_no, _, _ = sgda_train(data, init, cfg_no, 3)
    m_yes, _, _ = sgda_train(data, init, cfg_yes, 3)
    assert not np.array_equal(flatten_params(m_no), flatten_params(m_yes))


# ---------------------------------------------------------------------------
# the lockstep grid


def reference_sgda(data, config, init, seed):
    """One run of the saddle loop written per model, one LabeledDataset per batch."""
    model = init.copy()
    K = data.num_classes
    state = LagrangianState(np.zeros(K), np.zeros(K), config.mu)
    lam_max = 10.0 * config.mu
    rng = np.random.default_rng([seed, 1])
    lr_w, lr_l = config.lr_min, config.lr_max
    buf = [np.zeros_like(W) for W in model.weights + model.biases]
    absent_fit, absent_leak = np.zeros(K, dtype=int), np.zeros(K, dtype=int)
    records = []

    def record(epoch):
        probs = forward_batch(model, data.features)
        zero = np.zeros(K)
        fit, leak = loop_terms(probs, data.labels, zero, zero)[:2]
        return (epoch, float(fit.sum()), tuple(leak), tuple(state.lambdas),
                tuple(state.phis), tuple(absent_fit), tuple(absent_leak))

    for epoch in range(config.epochs):
        if epoch == config.lr_decay[1] and epoch > 0:
            lr_w *= config.lr_decay[0]
            lr_l *= config.lr_decay[0]
        full = config.batch_size >= data.n
        perm = np.arange(data.n) if full else rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            batch = data.subset(perm[start : start + config.batch_size])
            loss = RecordingLoss(state)
            _, grads = backward(model, batch, loss)
            model.head_w -= lr_w * grads.head_w
            model.head_b -= lr_w * grads.head_b
            for acc, g in zip(buf, grads.weights + grads.biases):
                acc += lr_w * g
            phis = np.maximum(0.0, state.phis - lr_w * (state.mu - state.lambdas))
            state.lambdas = np.clip(
                state.lambdas + lr_l * (loss.terms.leak - state.phis),
                0.0,
                lam_max,
            )
            state.phis = phis
            absent_fit += loss.absent[0]
            absent_leak += loss.absent[1]
        landing = (epoch + 1) % config.backbone_update_interval == 0
        if landing:
            for param, acc in zip(model.weights + model.biases, buf):
                param -= acc
                acc[:] = 0.0
        if landing or epoch == config.epochs - 1:
            records.append(record(epoch))
    return model, state, records or [record(-1)]


def record_tuple(r):
    return (r.epoch, r.fit_sum, r.leaks, r.lambdas, r.phis, r.absent_fit, r.absent_leak)


def assert_same_run(got, want):
    (m1, s1, log1), (m2, s2, log2) = got, want
    assert flatten_params(m1).tobytes() == flatten_params(m2).tobytes()
    assert s1.lambdas.tobytes() == s2.lambdas.tobytes()
    assert s1.phis.tobytes() == s2.phis.tobytes()
    assert s1.mu == s2.mu


def assert_close_to_reference(got, want):
    """A grid run against :func:`reference_sgda`: floats to 1e-12, counts exactly."""
    (model, state, log), (ref_model, ref_state, ref_records) = got, want
    assert close(flatten_params(model), flatten_params(ref_model))
    assert close(state.lambdas, ref_state.lambdas)
    assert close(state.phis, ref_state.phis)
    records = [record_tuple(r) for r in log.records]
    assert len(records) == len(ref_records)
    for a, b in zip(records, ref_records):
        assert a[0] == b[0] and a[5:] == b[5:]
        for x, y in zip(a[1:5], b[1:5]):
            assert close(np.array(x), np.array(y))


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(2, 4),
    n=st.integers(5, 48),
    rare=st.booleans(),
    batch_size=st.sampled_from([4, 7, 16, 1000]),
    epochs=st.integers(0, 5),
    decay_epoch=st.integers(0, 4),
    interval=st.sampled_from([1, 3]),
    mus=st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0, 7.5]), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    cap_binds=st.just(False),
)
# the 10 * mu cap binds on the positive price 0.1 (cap 1.0) by a record
@example(K=2, n=48, rare=False, batch_size=4, epochs=2, decay_epoch=0, interval=1,
         mus=[0.1, 2.0], seed=0, cap_binds=True)
def test_sgda_grid_equals_per_mu_runs(
    K, n, rare, batch_size, epochs, decay_epoch, interval, mus, seed, cap_binds,
):
    # every mu of the lockstep grid must reproduce, bit for bit, a lone
    # sgda_train run at that mu.  The grid takes the interval's backbone
    # gradient over all rows at the landing, where the per-model reference
    # loop takes it batch by batch, so the two sum in another order
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, K, size=n)
    if rare:  # one class on a single row: most small batches miss it
        y = np.where(y == K - 1, 0, y)
        y[rng.integers(n)] = K - 1
    data = LabeledDataset(X, y, K)
    cfg = TrainConfig(
        mu=99.0, epochs=epochs, batch_size=batch_size, lr_min=0.05, lr_max=0.3,
        lr_decay=(0.5, decay_epoch), backbone_update_interval=interval,
        warm_start_epochs=1,
    )
    init = warm_start(data, SPEC, 1, cfg.lr_min, seed, batch_size)
    grid = sgda_train_grid(data, init, cfg, mus, seed)
    assert len(grid) == len(mus)
    for mu, (model, state, log) in zip(mus, grid):
        one = dataclasses.replace(cfg, mu=mu)
        lone = sgda_train(data, init, one, seed)
        assert_same_run((model, state, log), lone)
        assert log.records == lone[2].records
        assert_close_to_reference((model, state, log), reference_sgda(data, one, init, seed))
    if cap_binds:  # some record of the first, positive price sits at its cap
        cap = 10.0 * mus[0]
        assert cap > 0 and any(l == cap for rec in grid[0][2].records for l in rec.lambdas)


WIDE = BackboneSpec((2, 32, 16))


@settings(max_examples=25, deadline=None)
@given(
    K=st.integers(2, 10),
    n=st.integers(150, 400),
    batch_size=st.sampled_from([16, 64, 128]),
    interval=st.integers(2, 4),
    landings=st.integers(0, 2),
    tail=st.integers(1, 3),
    mus=st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**16),
)
def test_sgda_cached_features_match_uncached_reference(
    K, n, batch_size, interval, landings, tail, mus, seed
):
    # the grid trains the heads alone on cached last-layer features once no
    # backbone update is left to land, and records from those features; the
    # reference recomputes the whole network on every batch.  At these widths
    # the BLAS kernel rounds a batch's rows unlike the full matrix's, so
    # floats agree to 1e-12 and counts exactly.  Overlapping classes and
    # small steps keep scores off the clamp, where -log(1 - p) would
    # magnify that rounding.
    epochs = landings * interval + 1 + (tail - 1) % (interval - 1)  # tail frozen
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n)
    X = rng.normal(size=(n, 2)) + np.c_[np.cos(y), np.sin(y)]
    data = LabeledDataset(X, y, K)
    cfg = TrainConfig(
        mu=99.0, epochs=epochs, batch_size=batch_size, lr_min=0.02, lr_max=0.05,
        lr_decay=(0.5, 2), backbone_update_interval=interval, warm_start_epochs=1,
    )
    init = warm_start(data, WIDE, 1, cfg.lr_min, seed, batch_size)
    grid = sgda_train_grid(data, init, cfg, mus, seed)
    for mu, run in zip(mus, grid):
        ref = reference_sgda(data, dataclasses.replace(cfg, mu=mu), init, seed)
        assert len(ref[2]) == landings + 1
        assert_close_to_reference(run, ref)


@settings(max_examples=25, deadline=None)
@given(
    K=st.integers(2, 6),
    batches=st.integers(2, 5),
    batch_size=st.sampled_from([16, 64]),
    one_row_tail=st.booleans(),
    interval=st.integers(2, 4),
    landings=st.integers(1, 3),
    tail=st.integers(0, 1),
    decay_at=st.integers(0, 11),
    mus=st.lists(
        st.sampled_from([0.0, 0.5, 2.0, 7.5]), min_size=1, max_size=4, unique=True
    ),
    seed=st.integers(0, 2**16),
)
def test_sgda_deferred_landing_matches_per_batch_reference(
    K, batches, batch_size, one_row_tail, interval, landings, tail, decay_at, mus, seed,
):
    # the grid takes no backbone gradient per batch: each step adds its
    # rows' feature cotangents to a buffer, and every landing runs one
    # backward over all rows with it.  The reference takes the backbone
    # gradient batch by batch.  The lr decay fires inside an interval, so
    # the buffer holds steps at both rates; a one-row trailing batch reads
    # its row of the feature cache, which the reference recomputes.  Regime
    # as in test_sgda_cached_features_match_uncached_reference.
    n = batches * batch_size + (1 if one_row_tail else batch_size // 2)
    epochs = landings * interval + tail
    mid_interval = [e for e in range(1, landings * interval) if e % interval]
    decay_epoch = mid_interval[decay_at % len(mid_interval)]
    rng = np.random.default_rng(seed)
    y = rng.integers(0, K, size=n)
    X = rng.normal(size=(n, 2)) + np.c_[np.cos(y), np.sin(y)]
    data = LabeledDataset(X, y, K)
    cfg = TrainConfig(
        mu=99.0, epochs=epochs, batch_size=batch_size, lr_min=0.02, lr_max=0.05,
        lr_decay=(0.5, decay_epoch), backbone_update_interval=interval,
        warm_start_epochs=1,
    )
    init = warm_start(data, WIDE, 1, cfg.lr_min, seed, batch_size)
    grid = sgda_train_grid(data, init, cfg, mus, seed)
    for mu, run in zip(mus, grid):
        ref = reference_sgda(data, dataclasses.replace(cfg, mu=mu), init, seed)
        # the backbone moved: a test that never lands would prove nothing
        assert not np.array_equal(run[0].weights[0], init.weights[0])
        assert_close_to_reference(run, ref)


def test_sgda_start_features_equal_the_all_rows_backbone():
    # the trainer caches its start features a block of rows at a time; the
    # cache must hold the bits of one all-rows pass, which the epochs=0
    # record scores
    n = 2 * BLOCK_ROWS + 1
    rng = np.random.default_rng(3)
    data = LabeledDataset(rng.normal(size=(n, 2)) * 5.0, rng.integers(0, 3, n), 3)
    init = init_model(BackboneSpec((2, 7, 5)), 3, seed=4)
    for b in init.biases:
        b[...] = rng.normal(size=b.shape)
    cfg = TrainConfig(mu=1.0, epochs=0, warm_start_epochs=0)
    with mock.patch.object(train_mod, "_head", wraps=train_mod._head) as head:
        sgda_train_grid(data, init, cfg, (0.5, 1.0), 0)
    want = _backbone(init.weights, init.biases, "relu", data.features)[-1]
    for call in head.call_args_list:
        feats = call.args[2]
        assert feats.shape == want.shape and feats.tobytes() == want.tobytes()
    assert head.call_count == 2


def test_sgda_backbone_chain_runs_once_per_model_per_landing():
    # 3 landings of a 2-epoch interval, then one frozen epoch; 4 batches
    # per epoch and 3 models.  No step runs the full backward.
    data = overlap_blobs(100, seed=5)
    init = init_model(SPEC, 2, seed=6)
    cfg = TrainConfig(
        mu=1.0, epochs=7, batch_size=32, warm_start_epochs=0,
        backbone_update_interval=2,
    )
    full = mock.patch.object(net_mod, "_backward", wraps=net_mod._backward)
    chain = mock.patch.object(
        train_mod, "_backbone_grads", wraps=train_mod._backbone_grads
    )
    with full as full, chain as chain:
        sgda_train_grid(data, init, cfg, (0.5, 1.0, 2.0), 7)
    assert (full.call_count, chain.call_count) == (0, 3 * 3)


@pytest.mark.parametrize("interval", [20, 2, 1])
def test_sgda_grid_numeric_error_names_mu_and_carries_its_checkpoint(interval):
    # lr_max this large blows up only the run whose lambda cap is infinite
    # (mu = 1e308 gives 10 * mu = inf); it diverges after two finite epochs,
    # before any landing at interval 20 and after one or two at 2 and 1
    data = overlap_blobs(40, seed=3)
    init = init_model(SPEC, 2, seed=4)
    cfg = TrainConfig(
        mu=1.0, epochs=6, batch_size=1000, warm_start_epochs=0, lr_max=1e308,
        backbone_update_interval=interval,
    )
    big = 1e308
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="mu=1e\\+308") as ei:
            sgda_train_grid(data, init, cfg, (0.5, big, 2.0), 1)
        with pytest.raises(NumericError) as lone:
            sgda_train(data, init, dataclasses.replace(cfg, mu=big), 1)
    err = ei.value
    assert err.mu == big
    assert err.checkpoint_epoch == lone.value.checkpoint_epoch == 1
    assert flatten_params(err.checkpoint_model).tobytes() == flatten_params(
        lone.value.checkpoint_model
    ).tobytes()
    assert err.checkpoint_state.mu == big
    lone_state = lone.value.checkpoint_state
    assert err.checkpoint_state.lambdas.tobytes() == lone_state.lambdas.tobytes()
    # the checkpoint is the model after the last finite epoch of that run
    short = dataclasses.replace(cfg, mu=big, epochs=err.checkpoint_epoch + 1)
    with np.errstate(all="ignore"):
        model, _, _ = sgda_train(data, init, short, 1)
    assert flatten_params(model).tobytes() == flatten_params(
        err.checkpoint_model
    ).tobytes()
    landed = interval <= err.checkpoint_epoch + 1
    assert landed == (interval != 20)
    moved = [
        not np.array_equal(p, q)
        for p, q in zip(err.checkpoint_model.weights, init.weights)
    ]
    assert any(moved) == landed


def loss_object_grid(data, config, mus, init, seed, head=_head):
    """The lockstep grid stepped through ``LagrangianLoss.value_and_grad``.

    The trainer's arithmetic, written with the loss object: per-batch
    labels, the saddle value at every step tested for finiteness.  Returns
    the models and stacked state, or, at the first non-finite value, its
    epoch, model index and value, and that model and state as the epoch
    began.
    """
    M, K, n = len(mus), data.num_classes, data.n
    mus = np.array(mus, dtype=np.float64).reshape(-1, 1)
    state = LagrangianState(np.zeros((M, K)), np.zeros((M, K)), mus)
    head_w = np.repeat(init.head_w[None], M, axis=0)
    head_b = np.repeat(init.head_b[None], M, axis=0)
    models = [init.copy() for _ in range(M)]
    kind, interval = init.spec.activation, config.backbone_update_interval
    lam_max = 10.0 * mus
    rng = np.random.default_rng([seed, 1])
    lr_w, lr_l = config.lr_min, config.lr_max
    feats = net_mod._backbone(init.weights, init.biases, kind, data.features)[-1]
    cot = np.zeros((n, M, init.spec.feature_dim))
    for epoch in range(config.epochs):
        if epoch == config.lr_decay[1] and epoch > 0:
            lr_w *= config.lr_decay[0]
            lr_l *= config.lr_decay[0]
            if epoch % interval:
                cot /= config.lr_decay[0]
        perm = np.arange(n) if config.batch_size >= n else rng.permutation(n)
        start = (head_w.copy(), head_b.copy(), state.lambdas, state.phis)
        for a in range(0, n, config.batch_size):
            idx = perm[a : a + config.batch_size]
            feat = feats[..., idx, :]
            probs = head(head_w, head_b, feat)
            loss = RecordingLoss(state)
            value, dprobs = loss.value_and_grad(probs, data.labels[idx])
            bad = ~np.isfinite(value)
            if bad.any():
                m = int(np.argmax(bad))
                model = models[m]
                model.head_w, model.head_b = start[0][m], start[1][m]
                return epoch, m, value[m], model, start[2][m], start[3][m]
            inner = np.sum(dprobs * probs, axis=-1, keepdims=True)
            dlogits = probs * (dprobs - inner)
            cot[idx] += np.matmul(dlogits, head_w).swapaxes(0, 1)
            head_w -= lr_w * np.matmul(dlogits.swapaxes(-1, -2), feat)
            head_b -= lr_w * dlogits.sum(axis=-2)
            phis = np.maximum(0.0, state.phis - lr_w * (mus - state.lambdas))
            state.lambdas = np.clip(
                state.lambdas + lr_l * (loss.terms.leak - state.phis), 0.0, lam_max
            )
            state.phis = phis
        if (epoch + 1) % interval == 0:
            if feats.ndim == 2:
                feats = np.repeat(feats[None], M, axis=0)
            for m, model in enumerate(models):
                acts = net_mod._backbone(
                    model.weights[:-1], model.biases[:-1], kind, data.features
                ) + [feats[m]]
                g_ws, g_bs = net_mod._backbone_grads(model, acts, cot[:, m])
                for param, g in zip(model.weights + model.biases, g_ws + g_bs):
                    param -= lr_w * g
                feats[m] = net_mod._backbone(
                    model.weights, model.biases, kind, data.features
                )[-1]
            cot[:] = 0.0
    for m, model in enumerate(models):
        model.head_w, model.head_b = head_w[m], head_b[m]
    return models, state


def poisoned_head(at_call, m):
    """``_head`` that writes NaN into model m's stacked heads at one step."""
    calls = 0

    def head(head_w, head_b, feat):
        nonlocal calls
        if head_w.ndim == 3:  # a step, not the per-model record
            calls += 1
            if calls == at_call:
                head_w[m, 0, 0] = np.nan
        return _head(head_w, head_b, feat)

    return head


OVERFLOW = TrainConfig(mu=1.0, epochs=6, batch_size=1000, warm_start_epochs=0, lr_max=1e308)


@pytest.mark.parametrize("epochs", [2, 6])
def test_an_overflow_in_the_last_update_of_an_epoch_ends_the_run_there(epochs):
    # one batch an epoch, so no later step checks an epoch's update: the
    # epoch's end does.  The multipliers, capped at 10 * mu = 1e300, grow
    # past mu, and the slack step lr_min * (lambda - mu) overflows in
    # epoch 1's update
    cfg = dataclasses.replace(OVERFLOW, epochs=epochs, lr_min=1e100, lr_max=1e300)
    data, init = overlap_blobs(40, seed=3), init_model(SPEC, 2, seed=4)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as ei:
        sgda_train_grid(data, init, cfg, (1e299, 2e299), 1)
    err = ei.value
    assert str(err) == "training at mu=1e+299: multipliers or slacks overflowed"
    assert err.checkpoint_epoch == 0
    assert np.isfinite(err.checkpoint_state.lambdas).all()
    assert err.checkpoint_state.phis.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "config, seed, mus, poison, fails",
    [
        # a NaN head in the middle model at the first step of epoch 3, past
        # a landing (3 steps an epoch)
        (TrainConfig(mu=1.0, epochs=4, batch_size=16, warm_start_epochs=0,
                     backbone_update_interval=2), 5, (0.5, 1.0, 2.0), (10, 1), (1, 3)),
        # the lambda overflow: mu = 1e308 makes the cap 10 * mu = inf
        (dataclasses.replace(OVERFLOW, backbone_update_interval=20), 1,
         (0.5, 1e308, 2.0), None, (1, 2)),
        (dataclasses.replace(OVERFLOW, backbone_update_interval=2), 1,
         (0.5, 1e308, 2.0), None, (1, 2)),
        (dataclasses.replace(OVERFLOW, backbone_update_interval=1), 1,
         (0.5, 1e308, 2.0), None, (1, 2)),
        # the slack term alone overflows: capped at 10 * mu = 1e300, the
        # multipliers keep lambda * leak finite while (mu - lambda) * phi is not
        (OVERFLOW, 1, (1e299, 2.0), None, (0, 2)),
        # nothing fails: the runs themselves must agree
        (TrainConfig(mu=1.0, epochs=5, batch_size=16, warm_start_epochs=0,
                     backbone_update_interval=2, lr_decay=(0.5, 3)), 6,
         (0.0, 0.5, 4.0), None, None),
    ],
)
def test_finite_check_raises_where_the_loss_object_value_is_non_finite(
    config, seed, mus, poison, fails
):
    # the trainer tests only the multiplier and slack sums of the saddle
    # value, and words its error from the whole value; the reference tests
    # the whole value LagrangianLoss returns at every step
    data = overlap_blobs(40, seed=3)
    init = init_model(SPEC, 2, seed=4)
    def head():
        return poisoned_head(*poison) if poison else _head

    with np.errstate(all="ignore"):
        want = loss_object_grid(data, config, mus, init, seed, head=head())
        with mock.patch.object(train_mod, "_head", head()):
            if fails is None:
                runs = sgda_train_grid(data, init, config, mus, seed)
                for m, (model, state, _) in enumerate(runs):
                    assert flatten_params(model).tobytes() == flatten_params(
                        want[0][m]
                    ).tobytes()
                    assert state.lambdas.tobytes() == want[1].lambdas[m].tobytes()
                    assert state.phis.tobytes() == want[1].phis[m].tobytes()
                return
            with pytest.raises(NumericError) as ei:
                sgda_train_grid(data, init, config, mus, seed)
    epoch, m, value, model, lambdas, phis = want
    assert (m, epoch) == fails
    err = ei.value
    assert str(err) == (
        f"training at mu={mus[m]!r}: loss evaluated to a non-finite value: {value}"
    )
    assert (err.mu, err.checkpoint_epoch) == (mus[m], epoch - 1)
    assert flatten_params(err.checkpoint_model).tobytes() == flatten_params(model).tobytes()
    assert err.checkpoint_state.lambdas.tobytes() == lambdas.tobytes()
    assert err.checkpoint_state.phis.tobytes() == phis.tobytes()
    assert err.checkpoint_state.mu == mus[m]


def assert_share_no_memory(models):
    """Every parameter owns its memory, and no two of them overlap."""
    params = [p for m in models for p in m.weights + m.biases + [m.head_w, m.head_b]]
    # a view of the trainer's stacked heads would not own its data
    assert all(p.flags.owndata for p in params)
    for i, p in enumerate(params):
        assert not any(np.shares_memory(p, q) for q in params[i + 1 :])


def test_sgda_grid_models_share_no_memory():
    # while training, each model's heads are views of one stacked array;
    # the models handed out must be independent of it and of each other
    data = overlap_blobs(60, seed=2)
    init = init_model(SPEC, 2, seed=3)
    cfg = TrainConfig(
        mu=1.0, epochs=3, batch_size=32, warm_start_epochs=0,
        backbone_update_interval=2,
    )
    runs = sgda_train_grid(data, init, cfg, (0.5, 1.0, 2.0), 0)
    assert_share_no_memory([model for model, _, _ in runs] + [init])
    diverging = dataclasses.replace(cfg, batch_size=1000, lr_max=1e308)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as ei:
        sgda_train_grid(data, init, diverging, (0.5, 1e308), 0)
    assert_share_no_memory([ei.value.checkpoint_model, init])


def test_sgda_grid_rejects_bad_grids():
    data = overlap_blobs(20, seed=1)
    init = init_model(SPEC, 2, seed=0)
    cfg = TrainConfig(mu=1.0, epochs=1, warm_start_epochs=0)
    with pytest.raises(InputError):
        sgda_train_grid(data, init, cfg, (), 0)
    with pytest.raises(InputError):
        sgda_train_grid(data, init, cfg, (1.0, -0.5), 0)


def test_sgda_grid_refuses_a_model_that_does_not_fit_the_data():
    data = overlap_blobs(20, seed=1)
    cfg = TrainConfig(mu=1.0, epochs=1, warm_start_epochs=0)
    wide = init_model(BackboneSpec((3, 8)), 2, seed=0)
    with pytest.raises(InputError, match="first backbone width 3 must equal the data dim 2"):
        sgda_train_grid(data, wide, cfg, (1.0,), 0)
    three = init_model(SPEC, 3, seed=0)
    with pytest.raises(InputError, match="classifier has 3 classes but the data has 2"):
        sgda_train_grid(data, three, cfg, (1.0,), 0)
    with pytest.raises(InputError, match="must equal the data dim"):
        sgda_train(data, wide, cfg, 0)

