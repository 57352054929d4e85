"""Tests for run configuration, hashing, and pipeline orchestration."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import onesided.pipeline as pipeline_mod
from onesided.cli import main
from onesided.core import FormatError, InputError, LabeledDataset, evaluate
from onesided.data import BlobsParams, SyntheticSpec, mixture_oracle_coverage, two_class_mixture
from onesided.data import split_dataset, synthesize, write_csv
from onesided.evaluation import CurvePoint, coverage_error_curve, osp_overlap
from onesided.net import (
    BackboneSpec,
    SelectiveModel,
    backward,
    deserialize,
    forward_batch,
    init_model,
    serialize,
    warm_start,
)
from onesided.oracle import (
    FiniteHypothesisClass,
    budget_alpha_grid,
    default_alpha_grid,
    erm_feasibility_trend,
    sample_analytic_example,
    solve_osp_decoupled,
    solve_osp_exact,
    solve_sc_exact,
)
from onesided.pipeline import (
    METRICS_COLUMNS,
    PipelineResult,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    run_pipeline,
    save_config,
)
from onesided.select import (
    SelectionCriterion,
    default_threshold_grid,
    evaluate_grid,
    harden,
    pick_coverage_constrained,
    pick_error_constrained,
    quick_mu_grid,
)
from onesided.train import (
    GamblersLoss,
    LagrangianState,
    LeakLoss,
    RestrictedFitLoss,
    TrainConfig,
    sgda_train,
    sgda_train_grid,
)


def quick_train(**over):
    base = dict(
        mu=1.0,
        epochs=8,
        batch_size=64,
        lr_min=0.02,
        lr_max=0.05,
        lr_decay=(0.1, 1000),
        backbone_update_interval=4,
        warm_start_epochs=15,
    )
    base.update(over)
    return TrainConfig(**base)


def blob_config(out_dir, **over):
    base = dict(
        seed=0,
        out_dir=str(out_dir),
        synthetic=SyntheticSpec(
            "blobs", 300, seed=2, blobs=BlobsParams(num_classes=3, separation=4.0)
        ),
        backbone=BackboneSpec((2, 8, 6)),
        train=quick_train(),
        criterion=SelectionCriterion("error", 0.05),
        mu_grid=(0.5, 2.0),
        t_grid=(0.0, 0.25, 0.5, 0.75, 0.9),
    )
    base.update(over)
    return RunConfig(**base)


def test_run_config_validation(tmp_path):
    with pytest.raises(InputError):
        blob_config(tmp_path, source_path="also.csv")
    with pytest.raises(InputError):
        RunConfig(seed=0, out_dir=str(tmp_path))
    with pytest.raises(InputError):
        blob_config(tmp_path, split_fractions=(0.5, 0.5, 0.5))
    with pytest.raises(InputError):
        blob_config(tmp_path, split_fractions=(0.8, 0.2, 0.0))
    with pytest.raises(InputError):
        blob_config(tmp_path, mu_grid=())
    with pytest.raises(InputError):
        blob_config(tmp_path, mu_grid=(-1.0,))
    # models are keyed by mu, so a repeated value would drop a trained model
    with pytest.raises(InputError, match="distinct"):
        blob_config(tmp_path, mu_grid=(0.5, 2.0, 0.5))
    with pytest.raises(InputError):
        blob_config(tmp_path, t_grid=(0.5, 1.2))
    with pytest.raises(InputError):
        blob_config(tmp_path, t_grid=())
    with pytest.raises(InputError):
        blob_config(tmp_path, workers=0)
    with pytest.raises(InputError):
        blob_config(tmp_path, curve_targets=(0.1, 0.05))
    with pytest.raises(InputError):
        blob_config(tmp_path, curve_targets=())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "over, key",
    [
        ({"mu_grid": (NAN, 1.0)}, "mu_grid"),
        ({"mu_grid": (0.5, INF)}, "mu_grid"),
        ({"split_fractions": (NAN, 0.5, 0.5)}, "split_fractions"),
        ({"split_fractions": (0.2, -INF, 0.4)}, "split_fractions"),
    ],
)
def test_run_config_rejects_non_finite_values(tmp_path, over, key):
    with pytest.raises(InputError, match=key):
        blob_config(tmp_path, **over)
    # the same values read from JSON, which spells them NaN and Infinity
    doc = json.loads(json.dumps(config_to_dict(blob_config(tmp_path))))
    doc.update({k: list(v) for k, v in over.items()})
    text = json.dumps(doc)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(InputError, match=key):
        config_from_dict(json.loads(text))


def rule_consumers():
    """The code outside the config that reads each ruled value, by config key."""
    data = synthesize(SyntheticSpec("blobs", 60, seed=1))
    model = init_model(BackboneSpec((2, 8, 6)), 3, seed=0)
    grid = evaluate_grid({0.5: model}, (0.0, 0.5), data)
    return {
        "split_fractions": lambda v: split_dataset(data, v, 0),
        "split_seed": lambda v: split_dataset(data, (0.6, 0.2, 0.2), v),
        "mu_grid": lambda v: sgda_train_grid(data, model, quick_train(), v, 0),
        "t_grid": lambda v: evaluate_grid({0.5: model}, v, data),
        "curve_targets": lambda v: coverage_error_curve({0.5: model}, grid, data, v),
        "error": lambda v: pick_error_constrained(grid, v),
        "coverage": lambda v: pick_coverage_constrained(grid, v),
    }


BAD_VALUES = {
    "split_fractions": [(NAN, 0.5, 0.5), (0.5, INF, -INF), (-0.2, 0.6, 0.6), (),
                        (0.5, 0.5), (0.5, 0.6, 0.2)],
    "split_seed": [-1],
    "mu_grid": [(NAN,), (0.5, INF), (-INF,), (-0.5, 1.0), ()],
    "t_grid": [(NAN,), (0.5, INF), (-INF,), (-0.1,), (0.5, 1.2), ()],
    "curve_targets": [(NAN,), (INF,), (-INF,), (-0.1,), (0.1, 1.5), (), (0.1, 0.05)],
    "error": [NAN, INF, -INF, -0.1, 1.5],
    "coverage": [NAN, INF, -INF, -0.1, 1.5],
}


@pytest.mark.parametrize(
    "key, value", [(k, v) for k, values in BAD_VALUES.items() for v in values]
)
def test_each_input_rule_says_the_same_in_the_config_and_its_consumer(
    tmp_path, key, value
):
    # one rule, one home: the config calls the check of the code that reads
    # the value, so both refuse it with the same InputError
    with pytest.raises(InputError) as consumer:
        rule_consumers()[key](value)
    if key in ("error", "coverage"):
        where, over = "config.criterion", {"criterion": {"mode": key, "target": value}}
        with pytest.raises(InputError) as direct:
            blob_config(tmp_path, criterion=SelectionCriterion(key, value))
    else:
        where, over = "config", {key: value}
        with pytest.raises(InputError) as direct:
            blob_config(tmp_path, **over)
    assert str(direct.value) == str(consumer.value)
    doc = config_to_dict(blob_config(tmp_path))
    doc.update(over)
    with pytest.raises(InputError) as loaded:
        config_from_dict(json.loads(json.dumps(doc)))
    assert str(loaded.value) == f"{where}: {consumer.value}"


def shared_rule_callers(tmp_path, capsys):
    """Every caller of the price, seed, input-width and count rules, by rule.

    A caller is ``(key, call)``, and a count caller ``(key, call, least)``
    with its floor.  Each call takes one bad value, and the CLI's raises
    the InputError it printed.  A price or count error begins with the
    caller's name for the value; the seed and width errors name none.
    """
    data = synthesize(SyntheticSpec("blobs", 60, seed=1))
    spec = BackboneSpec((2, 8, 6))
    model = init_model(spec, 3, seed=0)
    parameters = (model.weights, model.biases, model.head_w, model.head_b)
    line, cuts = sample_analytic_example(10, 0), FiniteHypothesisClass.upper_thresholds([0.5])
    csv, model_file = tmp_path / "d.csv", tmp_path / "m.npz"
    write_csv(data, csv)
    model_file.write_bytes(serialize(model))

    def cli(*argv):
        assert main([str(a) for a in argv]) == 1
        raise InputError(capsys.readouterr().err.removeprefix("error: ").rstrip("\n"))

    def grid_cli(command, mu):
        argv = [command, "--val", csv, "--model", model_file, f"--mu={mu}"]
        if command == "select":
            cli(*argv, "--target", 0.1)
        else:
            cli(*argv, "--test", csv, "--targets", 0.1, "--out", tmp_path / "c.csv")

    def blobs(dim):
        return synthesize(SyntheticSpec("blobs", 60, seed=1, blobs=BlobsParams(dim=dim)))

    def eval_cli(dim):
        write_csv(blobs(dim), tmp_path / "wide.csv")
        cli("eval", "--data", tmp_path / "wide.csv", "--model", model_file, "--t", 0.5)

    return {
        "price": [
            ("mu_grid", lambda v: sgda_train_grid(data, model, quick_train(), (v,), 0)),
            ("mu_grid", lambda v: blob_config(tmp_path, mu_grid=(v,))),
            ("mu", lambda v: quick_train(mu=v)),
            ("mu", lambda v: LagrangianState(np.zeros(3), np.zeros(3), v)),
            ("mu", lambda v: LagrangianState(np.zeros((1, 3)), np.zeros((1, 3)), [[v]])),
            ("--mu", lambda v: grid_cli("select", v)),
            ("--mu", lambda v: grid_cli("curve", v)),
        ],
        "seed": [
            ("", lambda v: blob_config(tmp_path, seed=v)),
            ("", lambda v: sgda_train_grid(data, model, quick_train(), (1.0,), v)),
            ("", lambda v: sgda_train(data, model, quick_train(), v)),
            ("", lambda v: SyntheticSpec("blobs", 60, seed=v)),
            ("", lambda v: warm_start(data, spec, 1, 0.1, v)),
            ("", lambda v: init_model(spec, 3, v)),
            ("", lambda v: sample_analytic_example(10, v)),
            ("", lambda v: erm_feasibility_trend(0.02, (10,), 1, base_seed=v)),
        ],
        "width": [
            ("", lambda d: forward_batch(model, blobs(d).features)),
            ("", lambda d: backward(model, blobs(d), LeakLoss(0))),
            ("", lambda d: sgda_train_grid(blobs(d), model, quick_train(), (1.0,), 0)),
            ("", lambda d: warm_start(blobs(d), spec, 1, 0.1, 0)),
            ("", eval_cli),
        ],
        "count": [
            ("num_classes", lambda v: LabeledDataset(np.zeros((2, 1)), [0, 0], v), 1),
            ("epochs", lambda v: quick_train(epochs=v), 0),
            ("warm_start_epochs", lambda v: quick_train(warm_start_epochs=v), 0),
            ("batch_size", lambda v: quick_train(batch_size=v), 1),
            ("backbone_update_interval", lambda v: quick_train(backbone_update_interval=v), 1),
            ("epochs", lambda v: warm_start(data, spec, v, 0.1, 0), 0),
            ("batch_size", lambda v: warm_start(data, spec, 1, 0.1, 0, batch_size=v), 1),
            ("layer_widths", lambda v: BackboneSpec((2, v, 6)), 1),
            ("num_classes", lambda v: SelectiveModel(spec, v, *parameters), 1),
            ("num_classes", lambda v: init_model(spec, v, 0), 1),
            ("num_classes", lambda v: BlobsParams(num_classes=v), 2),
            ("dim", lambda v: BlobsParams(dim=v), 1),
            ("n", lambda v: SyntheticSpec("blobs", v, seed=0), 1),
            ("n", lambda v: sample_analytic_example(v, 0), 1),
            ("num_classes", default_alpha_grid, 1),
            ("num_classes", lambda v: budget_alpha_grid(0.1, 40, v), 1),
            ("n", lambda v: budget_alpha_grid(0.1, v, 2), 0),
            ("seeds_per_size", lambda v: erm_feasibility_trend(0.02, (10,), v), 1),
            ("size", quick_mu_grid, 2),
            ("size", default_threshold_grid, 2),
            ("grid_size", lambda v: mixture_oracle_coverage(two_class_mixture(), 0.1, v), 2),
            ("workers", lambda v: blob_config(tmp_path, workers=v), 1),
            ("split_seed", lambda v: blob_config(tmp_path, split_seed=v), 0),
            ("split_seed", lambda v: split_dataset(data, (0.6, 0.2, 0.2), v), 0),
            ("k", lambda v: solve_osp_exact(line, cuts, v, 0.1), 0),
            ("k", RestrictedFitLoss, 0),
            ("k", LeakLoss, 0),
        ],
    }


# a count caller's floor less one, the one bad value that differs per caller
BELOW_FLOOR = "least - 1"

SHARED_RULE_VALUES = {
    "price": [NAN, INF, -INF, -1.0],
    "seed": [NAN, INF, -INF, -1],
    # the data's width, given to a model whose input width is 2
    "width": [1, 3],
    "count": [1.5, NAN, True, BELOW_FLOOR],
}


@pytest.mark.parametrize(
    "rule, value", [(r, v) for r, values in SHARED_RULE_VALUES.items() for v in values]
)
def test_each_shared_rule_says_the_same_in_every_caller(tmp_path, capsys, rule, value):
    # one copy of each rule: every caller refuses a value with one InputError
    # text, apart from the name the value goes by and a count's floor
    texts = set()
    for key, call, *least in shared_rule_callers(tmp_path, capsys)[rule]:
        with pytest.raises(InputError) as refused:
            call(least[0] - 1 if value == BELOW_FLOOR else value)
        assert str(refused.value).startswith(key)
        texts.add((*least, str(refused.value).removeprefix(key)))
    assert len(texts) == len({t[:-1] for t in texts})


def fraction_and_price_callers(tmp_path):
    """Every entry point of the [0, 1] and price rules, by rule.

    A caller is ``(name, call)``: ``name`` is what its InputError calls the
    value, and ``call`` takes one value and returns what the value decided,
    so that two values can be compared by their results.
    """
    data = synthesize(SyntheticSpec("blobs", 60, seed=1))
    model = init_model(BackboneSpec((2, 8, 6)), 3, seed=0)
    models = {0.5: model}
    grid = evaluate_grid(models, (0.0, 0.5, 0.9), data)
    line, cuts = sample_analytic_example(10, 0), FiniteHypothesisClass.upper_thresholds([0.3, 0.6])
    short = quick_train(epochs=1)

    def cell(res):
        return res.mu_index, res.t_index, res.feasible

    def solved(sol):
        return sol.value, sol.alpha, sol.family.membership(line.features)

    return {
        "fraction": [
            ("threshold", lambda v: harden(model, v).membership(data.features)),
            ("threshold", lambda v: evaluate_grid(models, [v], data).coverage),
            ("threshold", lambda v: blob_config(tmp_path, t_grid=(v,)).t_grid),
            ("target", lambda v: SelectionCriterion("error", v).target),
            ("target", lambda v: cell(pick_error_constrained(grid, v))),
            ("target", lambda v: cell(pick_coverage_constrained(grid, v))),
            ("curve target", lambda v: coverage_error_curve(models, grid, data, [v])),
            ("curve target", lambda v: blob_config(tmp_path, curve_targets=(v,)).curve_targets),
            ("achieved_error", lambda v: CurvePoint(v, 0.5, 0.0)),
            ("achieved_coverage", lambda v: CurvePoint(0.0, v, 0.0)),
            ("target_error", lambda v: CurvePoint(0.0, 0.5, v)),
            ("eps", lambda v: solved(solve_sc_exact(line, cuts, v))),
            ("eps_k", lambda v: solved(solve_osp_exact(line, cuts, 0, v))),
            ("eps", lambda v: solved(solve_osp_decoupled(line, cuts, v))),
            ("eps", lambda v: budget_alpha_grid(v, 10, 2)),
            ("eps", lambda v: mixture_oracle_coverage(two_class_mixture(), v, 20)),
        ],
        "price": [
            ("mu_grid", lambda v: blob_config(tmp_path, mu_grid=(v,)).mu_grid),
            ("mu", lambda v: quick_train(mu=v).mu),
            ("mu", lambda v: LagrangianState(np.zeros(3), np.zeros(3), v).mu),
            ("mu_grid", lambda v: sgda_train_grid(data, model, short, (v,), 0)[0][0].head_w),
        ],
    }


# NaN, the infinities and out-of-range numbers used to be refused; a string,
# None and True escaped as TypeError or were read as a number
NOT_A_FRACTION = [None, "0.5", True, NAN, INF, -INF, -0.1, 1.5]


@pytest.mark.parametrize(
    "rule, value",
    # a price has no upper bound
    [(r, v) for r in ("fraction", "price") for v in NOT_A_FRACTION if (r, v) != ("price", 1.5)],
    ids=repr,
)
def test_fraction_and_price_rules_refuse_what_is_not_a_number_in_range(tmp_path, rule, value):
    for name, call in fraction_and_price_callers(tmp_path)[rule]:
        with pytest.raises(InputError) as refused:
            call(value)
        text = str(refused.value)
        if rule == "fraction":
            assert text == f"{name} must be a number in [0, 1], got {value!r}"
        else:
            assert text.startswith(f"{name} needs one or more finite nonnegative prices")


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(1), 0, 1])
def test_fraction_and_price_rules_read_any_real_number_as_its_float(tmp_path, value):
    for rule, callers in fraction_and_price_callers(tmp_path).items():
        for name, call in callers:
            np.testing.assert_equal(call(value), call(float(value)), err_msg=name)
    stored = [
        SelectionCriterion("error", value).target,
        *vars(CurvePoint(value, value, value)).values(),
        LagrangianState(np.zeros(3), np.zeros(3), value).mu,
    ]
    assert [type(v) for v in stored] == [float] * 4 + [bool, float]
    # a config keeps its JSON type, so that its hash holds
    assert type(quick_train(mu=value).mu) is type(value)


def test_class_count_rule_refuses_a_model_of_another_count():
    data = synthesize(SyntheticSpec("blobs", 60, seed=1))
    model = init_model(BackboneSpec((2, 8, 6)), 4, seed=0)
    grid = evaluate_grid({0.5: init_model(BackboneSpec((2, 8, 6)), 3, seed=0)}, (0.5,), data)
    callers = [
        lambda: evaluate_grid({0.5: model}, (0.5,), data),
        lambda: coverage_error_curve({0.5: model}, grid, data, [0.1]),
        lambda: osp_overlap(model, 0.5, data),
        lambda: evaluate(harden(model, 0.5), data),
        lambda: sgda_train_grid(data, model, quick_train(), (1.0,), 0),
    ]
    for call in callers:
        with pytest.raises(InputError, match=r"^classifier has 4 classes but the data has 3$"):
            call()


@pytest.mark.parametrize(
    "key, value",
    [("mu", NAN), ("mu", INF), ("lr_min", NAN), ("lr_max", INF),
     ("lr_decay", (NAN, 50)), ("lr_decay", (0.1, INF))],
)
def test_train_config_rejects_non_finite_values(tmp_path, key, value):
    with pytest.raises(InputError, match=key):
        quick_train(**{key: value})
    doc = json.loads(json.dumps(config_to_dict(blob_config(tmp_path))))
    doc["train"][key] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(InputError, match=key):
        config_from_dict(json.loads(json.dumps(doc)))


def positive_entry_points(tmp_path):
    """Each value the positive rule checks, by the name its error gives: a call that keeps it."""
    data = lambda: synthesize(SyntheticSpec("blobs", 30, seed=1))
    return {
        "lr_min": lambda v: quick_train(lr_min=v).lr_min,
        "lr_decay factor": lambda v: quick_train(lr_decay=(v, 1000)).lr_decay[0],
        "lr": lambda v: warm_start(data(), BackboneSpec((2, 4)), 0, v, 0),
        "blobs separation": lambda v: BlobsParams(separation=v).separation,
        "blobs spread": lambda v: BlobsParams(spread=v).spread,
        "separation": lambda v: 2.0 * two_class_mixture(v).means[1][0],
        "split_fractions": lambda v: blob_config(tmp_path, split_fractions=(v, 0.2, 0.2)),
        "payoff": lambda v: GamblersLoss(v).payoff,
    }


@pytest.mark.parametrize("value", [None, "0.5", True, NAN, INF, -INF, 0, -1])
@pytest.mark.parametrize("name", list(positive_entry_points(".")))
def test_each_positive_value_refuses_what_is_not_a_positive_finite_number(
    tmp_path, name, value
):
    # True used to pass as 1, a string to escape as TypeError (or, as a
    # split fraction, to be read as a float)
    with pytest.raises(InputError, match=f"^{name} must be a positive finite number, got "):
        positive_entry_points(tmp_path)[name](value)


@pytest.mark.parametrize("value", [None, "0.1", True, NAN, -INF, -1])
def test_lr_max_and_the_decay_epoch_refuse_what_is_not_a_number_in_range(value):
    # each may be 0, so they keep their own ranges after core's type test
    with pytest.raises(InputError, match="^lr_max must be "):
        quick_train(lr_max=value)
    with pytest.raises(InputError, match="^lr_decay epoch must be "):
        quick_train(lr_decay=(0.1, value))
    assert quick_train(lr_max=0).lr_max == 0


@pytest.mark.parametrize("value", [2, np.int64(2), np.float64(2.0)])
def test_the_positive_rule_keeps_each_value_as_given(tmp_path, value):
    calls = positive_entry_points(tmp_path)
    for name in ("lr_min", "lr_decay factor", "blobs separation", "blobs spread", "payoff"):
        assert calls[name](value) is value, name
    assert calls["separation"](value) == 2.0
    fractions = calls["split_fractions"](value * 0.3).split_fractions
    assert fractions == (0.6, 0.2, 0.2) and type(fractions[0]) is float
    blobs = BlobsParams(num_classes=3, separation=value, spread=value)
    cfg = blob_config(
        tmp_path,
        train=quick_train(lr_min=value, lr_decay=(value, 1000)),
        synthetic=SyntheticSpec("blobs", 300, seed=2, blobs=blobs),
    )
    # the hashes these configs had before the rule; JSON holds no np.int64
    pinned = {
        int: "f7cf87c5cde0eed726755c1dfa1ea0fe8d640aa6960b6ba15ed009ed8687d282",
        np.float64: "de426de9c328c4a115959c4235404b9b3632494ee09169e3c76216191769a90c",
    }
    if type(value) in pinned:
        assert config_hash(cfg) == pinned[type(value)]


def test_config_dict_round_trip(tmp_path):
    data_file = tmp_path / "d.csv"
    write_csv(synthesize(SyntheticSpec("blobs", 30, seed=1)), data_file)
    configs = [
        blob_config(tmp_path),
        blob_config(
            tmp_path,
            synthetic=SyntheticSpec(
                "mixture", 200, seed=3, mixture=two_class_mixture()
            ),
            backbone=BackboneSpec((2, 6), activation="tanh"),
            criterion=SelectionCriterion("coverage", 0.8),
            curve_targets=(0.01, 0.05),
            workers=2,
        ),
        blob_config(tmp_path, synthetic=None, source_path=str(data_file)),
        blob_config(tmp_path, synthetic=SyntheticSpec("analytic", 50, seed=0)),
    ]
    for cfg in configs:
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = blob_config(tmp_path)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_from_dict_rejects_bad_documents(tmp_path):
    good = config_to_dict(blob_config(tmp_path))
    bad = dict(good)
    bad["unknown_key"] = 1
    with pytest.raises(InputError):
        config_from_dict(bad)
    missing = dict(good)
    del missing["seed"]
    with pytest.raises(InputError):
        config_from_dict(missing)
    bad_train = json.loads(json.dumps(good))
    bad_train["train"]["typo"] = 2
    with pytest.raises(InputError):
        config_from_dict(bad_train)
    with pytest.raises(InputError):
        config_from_dict("not a mapping")
    # each malformed document fails at the boundary, naming section and key
    mixture = blob_config(
        tmp_path,
        synthetic=SyntheticSpec("mixture", 200, seed=3, mixture=two_class_mixture()),
    )
    missing = "is missing required key"
    cases = [
        (lambda d: d["criterion"].pop("target"), (f"config.criterion {missing} 'target'",)),
        (
            lambda d: d["backbone"].pop("layer_widths"),
            (f"config.backbone {missing} 'layer_widths'",),
        ),
        (
            lambda d: d["synthetic"]["mixture"].pop("priors"),
            (f"config.synthetic.mixture {missing} 'priors'",),
        ),
        (lambda d: d.update(seed="abc"), ("config.seed",)),
        (lambda d: d["train"].update(epochs="10"), ("config.train.epochs",)),
        (lambda d: d["train"].update(restricted="no"), ("config.train.restricted",)),
        (lambda d: d["synthetic"].update(n=10.7), ("config.synthetic.n",)),
        (lambda d: d.update(mu_grid=0.5), ("config.mu_grid",)),
        (lambda d: d.update(train=[1.0]), ("config.train",)),
        (
            lambda d: d["synthetic"]["mixture"]["means"][1].append(2.0),
            ("config.synthetic.mixture", "means"),
        ),
        (
            lambda d: d["backbone"]["layer_widths"].insert(1, "16"),
            ("config.backbone.layer_widths",),
        ),
    ]
    for edit, names in cases:
        doc = json.loads(json.dumps(config_to_dict(mixture)))
        edit(doc)
        with pytest.raises(InputError) as info:
            config_from_dict(doc)
        for name in names:
            assert name in str(info.value)


def test_config_null_key_takes_the_default(tmp_path):
    doc = config_to_dict(blob_config(tmp_path))
    doc["split_seed"] = None
    doc["train"]["warm_start_epochs"] = None
    del doc["t_grid"]
    cfg = config_from_dict(doc)
    assert cfg.split_seed == 0
    assert cfg.train.warm_start_epochs == TrainConfig.warm_start_epochs
    assert cfg.t_grid == RunConfig(seed=0, out_dir=".", synthetic=cfg.synthetic).t_grid


def test_config_hash_is_pinned(tmp_path):
    # The value before the config codec became dataclass-driven: a codec
    # change must not move the hash of an unchanged config.
    pinned = "7abe91b6996a04e0985507a536c8750c25ca65950607dd56f99528d2b2c834b6"
    cfg = blob_config(tmp_path)
    assert config_hash(cfg) == pinned
    save_config(cfg, tmp_path / "config.json")
    assert config_hash(load_config(tmp_path / "config.json")) == pinned


RETIRED = {"adaptive": False, "restricted": True, "seed": 0, "lambda_max": None}


@pytest.mark.parametrize("kept", [RETIRED, {"adaptive": False}, {"seed": None}])
def test_config_with_removed_train_keys(tmp_path, kept):
    # configs saved while these keys were settings hold each at its one
    # accepted value (a null is absent): they load and keep their hash
    cfg = blob_config(tmp_path)
    doc = config_to_dict(cfg)
    assert not set(RETIRED) & set(doc["train"])
    doc["train"].update(kept)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    loaded = load_config(path)
    assert loaded == cfg
    pinned = "7abe91b6996a04e0985507a536c8750c25ca65950607dd56f99528d2b2c834b6"
    assert config_hash(loaded) == pinned
    # any other value, or the value in another type, is refused by name
    for key, value in [("adaptive", True), ("adaptive", 0), ("restricted", False),
                       ("restricted", 1), ("seed", 5), ("seed", 0.0), ("seed", False),
                       ("lambda_max", 0.5), ("lambda_max", 0), ("lambda_max", False),
                       ("lambda_max", NAN)]:
        bad = json.loads(json.dumps(doc))
        bad["train"][key] = value
        with pytest.raises(InputError, match=f"config.train.{key}"):
            config_from_dict(bad)


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("with, for example:\n\n```json\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(block))
    assert cfg.synthetic.blobs.num_classes == 3 and cfg.mu_grid == (0.5, 1.0, 2.0, 4.0)
    assert config_to_dict(cfg)["train"]["lr_decay"] == [0.1, 1000]


def test_load_config_rejects_bad_files(tmp_path):
    with pytest.raises(InputError):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(InputError):
        load_config(broken)


def test_config_hash_scope(tmp_path):
    a = blob_config(tmp_path / "a")
    b = blob_config(tmp_path / "b", workers=4)
    assert config_hash(a) == config_hash(b)
    c = blob_config(tmp_path / "a", seed=1)
    d = blob_config(tmp_path / "a", mu_grid=(0.5, 3.0))
    assert config_hash(a) != config_hash(c)
    assert config_hash(a) != config_hash(d)
    assert len(config_hash(a)) == 64


def test_run_pipeline_artifacts(tmp_path):
    cfg = blob_config(tmp_path / "run", curve_targets=(0.02, 0.05, 0.2))
    # the curve stage runs through the public function, where the
    # benchmark's tracer finds it
    with mock.patch(
        "onesided.pipeline.coverage_error_curve", wraps=coverage_error_curve
    ) as curve:
        res = run_pipeline(cfg)
    assert curve.call_count == 1
    assert isinstance(res, PipelineResult)
    out = Path(cfg.out_dir)
    for name in (
        "config.json",
        "manifest.json",
        "training_log.json",
        "selection_grid.csv",
        "metrics.csv",
        "curve.csv",
    ):
        assert (out / name).is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config_hash"] == res.config_hash
    assert manifest["seed"] == 0
    assert "curve" in manifest["completed"]
    grid_lines = (out / "selection_grid.csv").read_text().strip().splitlines()
    assert grid_lines[0] == "mu,t,coverage,error"
    assert len(grid_lines) == 1 + len(cfg.mu_grid) * len(cfg.t_grid)
    header, row = (out / "metrics.csv").read_text().strip().splitlines()
    assert header == ",".join(METRICS_COLUMNS)
    values = dict(zip(header.split(","), row.split(",")))
    assert values["config_hash"] == res.config_hash
    assert values["flags"] == "ok"
    assert 0.0 <= float(values["coverage"]) <= 1.0
    curve_lines = (out / "curve.csv").read_text().strip().splitlines()
    assert len(curve_lines) == 4
    assert res.curve is not None and len(res.curve) == 3


def test_run_and_cli_eval_score_the_test_split_once_per_model(tmp_path, capsys):
    # every test-split measure reads one score matrix: each distinct model
    # the evaluate stage or the curve picks is scored once, the curve
    # reusing the evaluate stage's scores, and the dense core.evaluate
    # path never runs; osp_overlap would score through the counted _score
    targets = (0.0, 0.02, 0.05, 0.2, 1.0)
    cfg = blob_config(
        tmp_path / "run",
        synthetic=SyntheticSpec("mixture", 600, seed=3, mixture=two_class_mixture()),
        train=quick_train(epochs=12),
        mu_grid=(0.05, 1.0, 16.0),
        t_grid=tuple(np.linspace(0.0, 1.0, 21)),
        curve_targets=targets,
    )
    _, val, test = split_dataset(
        synthesize(cfg.synthetic), cfg.split_fractions, cfg.split_seed
    )
    out = Path(cfg.out_dir)

    def split_of(call):
        X = call.args[1]
        for name, d in (("val", val), ("test", test)):
            if X.shape == d.features.shape and np.array_equal(X, d.features):
                return name
        return "other"

    with (
        mock.patch("onesided.core.assign", side_effect=AssertionError("dense path")),
        mock.patch("onesided.select.forward_batch", wraps=forward_batch) as scored,
    ):
        res = run_pipeline(cfg)
        picks = [pick_error_constrained(res.selection.grid, e).mu_star for e in targets]
        assert res.selection.mu_star in picks
        distinct = list(dict.fromkeys([res.selection.mu_star] + picks))
        assert len(distinct) > 1
        calls = scored.call_args_list
        splits = [split_of(c) for c in calls]
        assert splits == ["val"] * 3 + ["test"] * len(distinct)
        model_files = json.loads((out / "manifest.json").read_text())["files"]["models"]
        for mu, call in zip(distinct, calls[3:]):
            assert (out / model_files[repr(mu)]).read_bytes() == serialize(call.args[0])

        scored.reset_mock()
        csv = tmp_path / "test.csv"
        write_csv(test, csv)
        chosen = out / model_files[repr(res.selection.mu_star)]
        t = repr(res.selection.t_star)
        assert main(["eval", "--data", str(csv), "--model", str(chosen), "--t", t]) == 0
        assert [split_of(c) for c in scored.call_args_list] == ["test"]
    printed = capsys.readouterr().out
    assert f"coverage={res.test_metrics.coverage:.6f}" in printed
    assert f"overlap={res.metrics_row['overlap']:.6f}" in printed


def test_run_pipeline_model_files_load(tmp_path):
    cfg = blob_config(tmp_path / "run")
    res = run_pipeline(cfg)
    model_dir = Path(cfg.out_dir) / "models"
    paths = sorted(model_dir.glob("model_*.npz"))
    assert len(paths) == len(cfg.mu_grid)
    X = np.random.default_rng(0).normal(size=(10, 2))
    for path in paths:
        model = deserialize(path.read_bytes())
        probs = forward_batch(model, X)
        assert np.allclose(probs.sum(axis=1), 1.0)
    # The selected cell's metrics row mirrors the returned result.
    assert res.metrics_row["mu_star"] == res.selection.mu_star
    assert res.metrics_row["coverage"] == res.test_metrics.coverage


def test_run_pipeline_rerun_is_byte_identical(tmp_path):
    res_a = run_pipeline(blob_config(tmp_path / "a"))
    res_b = run_pipeline(blob_config(tmp_path / "b"))
    assert res_a.config_hash == res_b.config_hash
    for name in ("metrics.csv", "selection_grid.csv", "training_log.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_run_pipeline_worker_pool_matches_serial(tmp_path):
    run_pipeline(blob_config(tmp_path / "serial"))
    run_pipeline(blob_config(tmp_path / "pool", workers=2))
    for name in ("metrics.csv", "selection_grid.csv", "training_log.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pool" / name
        ).read_bytes()


def test_run_pipeline_analytic_smoke(tmp_path):
    cfg = blob_config(
        tmp_path / "run",
        synthetic=SyntheticSpec("analytic", 500, seed=3),
        backbone=BackboneSpec((1, 8, 6)),
        criterion=SelectionCriterion("error", 0.04),
    )
    res = run_pipeline(cfg)
    values = dict(
        zip(
            METRICS_COLUMNS,
            (Path(cfg.out_dir) / "metrics.csv")
            .read_text()
            .strip()
            .splitlines()[1]
            .split(","),
        )
    )
    assert values["target"] == "0.04"
    assert 0.0 <= float(values["coverage"]) <= 1.0
    assert res.metrics_row["coverage"] == float(values["coverage"])


def test_run_pipeline_infeasible_selection_flagged(tmp_path):
    # Overlapping blobs plus a threshold grid that cannot reject much
    # make a zero-error target unreachable.
    cfg = blob_config(
        tmp_path / "run",
        synthetic=SyntheticSpec(
            "blobs", 240, seed=5, blobs=BlobsParams(num_classes=3, separation=0.5)
        ),
        criterion=SelectionCriterion("error", 0.0),
        t_grid=(0.0, 0.34),
    )
    res = run_pipeline(cfg)
    assert not res.selection.feasible
    assert res.metrics_row["flags"] == "infeasible"
    row = (Path(cfg.out_dir) / "metrics.csv").read_text().strip().splitlines()[1]
    assert "infeasible" in row


def test_run_pipeline_error_manifest_on_bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,label\n1.0,0\nnot-a-number,1\n")
    cfg = blob_config(
        tmp_path / "run", synthetic=None, source_path=str(bad)
    )
    with pytest.raises(FormatError):
        run_pipeline(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["stage"] == "load_data"
    assert manifest["completed"] == []
    assert "line 3" in manifest["message"]


def test_config_with_a_moved_csv_loads_and_fails_at_load_data(tmp_path):
    data_file = tmp_path / "d.csv"
    write_csv(synthesize(SyntheticSpec("blobs", 30, seed=1)), data_file)
    cfg = blob_config(tmp_path / "run", synthetic=None, source_path=str(data_file))
    save_config(cfg, tmp_path / "config.json")
    pinned = config_hash(cfg)
    data_file.unlink()
    # the config is a record of the run: it outlives its data file
    loaded = load_config(tmp_path / "config.json")
    assert loaded == cfg
    assert config_hash(loaded) == pinned
    with pytest.raises(InputError, match="cannot read"):
        run_pipeline(loaded)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["stage"] == "load_data"
    assert manifest["completed"] == []
    assert str(data_file) in manifest["message"]


def test_non_utf8_csv_fails_at_load_data(tmp_path):
    data_file = tmp_path / "d.csv"
    data_file.write_bytes(b"f0,f1,label\n\xff,0.0,0\n")
    cfg = blob_config(tmp_path / "run", synthetic=None, source_path=str(data_file))
    with pytest.raises(FormatError, match="byte 12 is not valid UTF-8"):
        run_pipeline(cfg)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["stage"] == "load_data"
    assert str(data_file) in manifest["message"]


def test_run_pipeline_error_manifest_preserves_completed_stages(
    tmp_path, monkeypatch
):
    cfg = blob_config(tmp_path / "run")

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(pipeline_mod, "evaluate_grid", boom)
    with pytest.raises(RuntimeError):
        run_pipeline(cfg)
    out = tmp_path / "run"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["stage"] == "select"
    assert manifest["completed"] == ["load_data", "split", "warm_start", "train"]
    assert "forced failure" in manifest["message"]
    # Artifacts from completed stages survive the failure.
    assert (out / "training_log.json").is_file()
    assert sorted(p.name for p in (out / "models").glob("*.npz"))
    assert not (out / "metrics.csv").exists()
