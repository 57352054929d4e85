"""Tests for the command-line front end and its exit-code contract."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import onesided.cli as cli_mod
import onesided.pipeline as pipeline_mod
from onesided.cli import main
from onesided.core import NumericError
from onesided.data import BlobsParams, SyntheticSpec, ingest_csv, synthesize, write_csv
from onesided.net import BackboneSpec, deserialize, forward_batch, init_model, serialize
from onesided.pipeline import config_hash, config_to_dict, load_config
from onesided.select import SelectionCriterion
from onesided.train import TrainConfig


def run(*argv):
    return main(list(argv))


def synth_csv(path, n=240, seed=1, kind="blobs", sep="4.0"):
    args = ["synth", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(path)]
    if kind == "blobs":
        args += ["--classes", "3", "--separation", sep]
    assert run(*args) == 0
    return path


def train_model(data, out, mu="1.0", log=None):
    args = [
        "train",
        "--data", str(data),
        "--mu", mu,
        "--epochs", "6",
        "--batch-size", "64",
        "--lr-min", "0.02",
        "--lr-max", "0.05",
        "--interval", "3",
        "--warm-epochs", "10",
        "--widths", "2,8,6",
        "--out", str(out),
    ]
    if log is not None:
        args += ["--log", str(log)]
    assert run(*args) == 0
    return out


def test_synth_writes_ingestible_csv(tmp_path, capsys):
    out = synth_csv(tmp_path / "d.csv")
    data = ingest_csv(out)
    assert data.n == 240 and data.num_classes == 3
    assert "240 points" in capsys.readouterr().out
    again = tmp_path / "d2.csv"
    synth_csv(again)
    assert out.read_bytes() == again.read_bytes()


def test_synth_analytic(tmp_path):
    out = tmp_path / "an.csv"
    assert run("synth", "--kind", "analytic", "--n", "50", "--seed", "0", "--out", str(out)) == 0
    data = ingest_csv(out)
    assert data.dim == 1 and data.num_classes == 2


def test_synth_mixture_needs_spec_file(tmp_path, capsys):
    assert run("synth", "--kind", "mixture", "--out", str(tmp_path / "m.csv")) == 1
    assert "spec-file" in capsys.readouterr().err
    spec = {
        "kind": "mixture",
        "n": 60,
        "seed": 0,
        "mixture": {
            "means": [[-1.0, 0.0], [1.0, 0.0]],
            "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "priors": [0.5, 0.5],
        },
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "m.csv"
    assert run("synth", "--spec-file", str(spec_file), "--out", str(out)) == 0
    assert ingest_csv(out).num_classes == 2


def test_synth_without_kind_or_spec(tmp_path):
    assert run("synth", "--out", str(tmp_path / "x.csv")) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--kind", "analytic", "--n", "10", "--classes", "5", "--dim", "7"),
         "--kind analytic reads no --classes"),
        (("--kind", "analytic", "--spread", "2"), "--kind analytic reads no --spread"),
        (("--kind", "mixture", "--separation", "3"), "--kind mixture reads no --separation"),
        (("--spec-file", "SPEC", "--kind", "blobs"), "--spec-file reads no --kind"),
        (("--spec-file", "SPEC", "--n", "10"), "--spec-file reads no --n"),
        (("--spec-file", "SPEC", "--seed", "3"), "--spec-file reads no --seed"),
        (("--spec-file", "SPEC", "--dim", "3", "--classes", "4"), "--spec-file reads no --classes"),
    ],
)
def test_synth_refuses_a_flag_its_source_does_not_read(tmp_path, capsys, flags, message):
    # the source is a --kind or a spec file, and it would drop these flags
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "blobs", "n": 30, "seed": 0}))
    out = tmp_path / "x.csv"
    argv = [str(spec_file) if f == "SPEC" else f for f in flags]
    assert run("synth", *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_writes_model_and_log(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    model_path = train_model(data, tmp_path / "m.npz", log=tmp_path / "log.json")
    model = deserialize(model_path.read_bytes())
    X = np.zeros((4, 2))
    assert np.allclose(forward_batch(model, X).sum(axis=1), 1.0)
    log = json.loads((tmp_path / "log.json").read_text())
    assert log["mu"] == 1.0
    # 6 epochs at interval 3: one record per landing
    assert [record["epoch"] for record in log["records"]] == [2, 5]
    for record in log["records"]:
        assert len(record["absent_fit"]) == 3 and len(record["absent_leak"]) == 3
    out = capsys.readouterr().out
    assert "fit_sum=" in out


def test_train_is_deterministic(tmp_path):
    data = synth_csv(tmp_path / "d.csv")
    a = train_model(data, tmp_path / "a.npz")
    b = train_model(data, tmp_path / "b.npz")
    assert a.read_bytes() == b.read_bytes()


def test_train_refuses_the_removed_adaptive_flag(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    out = tmp_path / "m.npz"
    argv = ("train", "--data", str(data), "--mu", "1.0", "--out", str(out))
    assert run(*argv, "--adaptive") == 1
    assert "--adaptive" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_width_mismatch(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    code = run(
        "train", "--data", str(data), "--mu", "1.0", "--widths", "3,8",
        "--out", str(tmp_path / "m.npz"),
    )
    assert code == 1
    assert "must equal the data dim" in capsys.readouterr().err


def test_train_seed_seeds_the_warm_start_and_the_trainer(tmp_path, monkeypatch):
    data = synth_csv(tmp_path / "d.csv")
    seeds = []

    def warm(data, spec, epochs, lr, seed, batch_size):
        seeds.append(seed)
        return init_model(spec, data.num_classes, seed)

    def capture(data, warm, config, seed):
        seeds.append(seed)
        raise NumericError("stopped before training")

    monkeypatch.setattr(cli_mod, "warm_start", warm)
    monkeypatch.setattr(cli_mod, "sgda_train", capture)
    argv = ("train", "--data", str(data), "--mu", "1.0", "--seed", "7")
    assert run(*argv, "--out", str(tmp_path / "m.npz")) == 2
    assert seeds == [7, 7]


def test_train_refuses_a_negative_seed(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    out = tmp_path / "m.npz"
    argv = ("train", "--data", str(data), "--mu", "1.0", "--seed", "-1", "--out", str(out))
    assert run(*argv) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_train_and_synth_flags_default_to_the_dataclass_defaults(tmp_path, monkeypatch):
    # `onesided train` without --epochs trains TrainConfig.epochs, as a config does
    data = synth_csv(tmp_path / "d.csv")
    seen = []

    def capture(data, warm, config, seed):
        seen.append((config, seed))
        raise NumericError("stopped after reading the config")

    monkeypatch.setattr(cli_mod, "sgda_train", capture)
    assert run("train", "--data", str(data), "--mu", "1.0", "--out", str(tmp_path / "m.npz")) == 2
    assert seen == [(TrainConfig(mu=1.0), 0)]
    # `onesided synth --kind blobs` without its flags draws the default spec
    assert run("synth", "--kind", "blobs", "--out", str(tmp_path / "b.csv")) == 0
    spec = SyntheticSpec("blobs", 1000, 0, blobs=BlobsParams())
    assert ingest_csv(tmp_path / "b.csv").features.tobytes() == synthesize(spec).features.tobytes()


@pytest.mark.parametrize("command", ["select", "curve"])
@pytest.mark.parametrize(
    "mus, flags, message",
    [
        (("1", "1"), (), "--mu values must be distinct, got (1.0, 1.0)"),
        (("0.5", "nan"), (), "--mu needs one or more finite nonnegative prices"),
        (("inf",), (), "--mu needs one or more finite nonnegative prices"),
        (("1", "-0.5"), (), "--mu needs one or more finite nonnegative prices"),
        (("1",), ("--t-size", "1"), "--t-size must be a whole number >= 2, got 1"),
    ],
    ids=["repeated", "nan", "inf", "negative", "t-size"],
)
def test_select_and_curve_refuse_a_repeated_or_non_finite_mu(
    tmp_path, capsys, command, mus, flags, message
):
    # models are keyed by mu, so a repeat would drop one of them silently;
    # a refused grid flag names itself, as --mu does
    data = synth_csv(tmp_path / "d.csv")
    model = tmp_path / "m.npz"
    model.write_bytes(serialize(init_model(BackboneSpec((2, 8, 6)), 3, seed=0)))
    capsys.readouterr()
    argv = [command, "--val", str(data), *flags]
    for mu in mus:
        argv += ["--model", str(model), "--mu", mu]
    if command == "select":
        argv += ["--target", "0.1"]
    else:
        argv += ["--test", str(data), "--targets", "0.1", "--out", str(tmp_path / "c.csv")]
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command", ["select", "curve"])
def test_select_and_curve_refuse_t_size_with_t_values(tmp_path, capsys, command):
    # --t-values lists the thresholds, so a --t-size beside it would be dropped
    data = synth_csv(tmp_path / "d.csv")
    model = tmp_path / "m.npz"
    model.write_bytes(serialize(init_model(BackboneSpec((2, 8, 6)), 3, seed=0)))
    capsys.readouterr()
    argv = [command, "--val", str(data), "--model", str(model), "--mu", "1.0"]
    if command == "select":
        argv += ["--target", "0.1"]
    else:
        argv += ["--test", str(data), "--targets", "0.1", "--out", str(tmp_path / "c.csv")]
    assert run(*argv, "--t-values", "0.2,0.5", "--t-size", "5") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: give --t-size or --t-values, not both\n"
    assert captured.out == "" and not (tmp_path / "c.csv").exists()
    assert run(*argv, "--t-values", "0.2,0.5") in (0, 3)


def test_select_feasible_and_grid_out(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    val = synth_csv(tmp_path / "v.csv", n=120, seed=2)
    m1 = train_model(data, tmp_path / "m1.npz", mu="1.0")
    m2 = train_model(data, tmp_path / "m2.npz", mu="4.0")
    grid_out = tmp_path / "grid.csv"
    code = run(
        "select", "--val", str(val),
        "--model", str(m1), "--mu", "1.0",
        "--model", str(m2), "--mu", "4.0",
        "--mode", "error", "--target", "0.05", "--t-size", "20",
        "--grid-out", str(grid_out),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mu_star=" in out and "feasible=true" in out
    lines = grid_out.read_text().strip().splitlines()
    assert lines[0] == "mu,t,coverage,error"
    assert len(lines) == 1 + 2 * 20


def test_select_infeasible_exit_code(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv", sep="0.5", seed=5)
    m1 = train_model(data, tmp_path / "m1.npz")
    code = run(
        "select", "--val", str(data),
        "--model", str(m1), "--mu", "1.0",
        "--target", "0.0", "--t-values", "0.0",
    )
    assert code == 3
    assert "feasible=false" in capsys.readouterr().out


def test_select_model_mu_mismatch(tmp_path):
    data = synth_csv(tmp_path / "d.csv")
    m1 = train_model(data, tmp_path / "m1.npz")
    assert run("select", "--val", str(data), "--model", str(m1), "--target", "0.1") == 1
    assert run("select", "--val", str(data), "--target", "0.1") == 1


def test_eval_prints_metrics(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    m1 = train_model(data, tmp_path / "m1.npz")
    assert run("eval", "--data", str(data), "--model", str(m1), "--t", "0.5") == 0
    out = capsys.readouterr().out
    for field in ("coverage=", "error=", "per_class_error=", "overlap="):
        assert field in out


def test_heldout_csv_is_read_with_the_models_class_count(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv")
    m1 = train_model(data, tmp_path / "m1.npz")
    lines = data.read_text().splitlines()
    no_top = tmp_path / "no_top.csv"
    no_top.write_text("\n".join(l for l in lines if not l.endswith(",2")) + "\n")
    assert run("eval", "--data", str(no_top), "--model", str(m1), "--t", "0.5") == 0
    grid = ["--model", str(m1), "--mu", "1.0", "--t-size", "5"]
    assert run("select", "--val", str(no_top), "--target", "1.0", *grid) == 0
    curve_out = str(tmp_path / "curve.csv")
    assert run(
        "curve", "--val", str(no_top), "--test", str(no_top), "--targets", "1.0",
        "--out", curve_out, *grid,
    ) == 0
    capsys.readouterr()
    too_high = tmp_path / "too_high.csv"
    too_high.write_text("\n".join(lines[:3] + ["0.0,0.0,3"]) + "\n")
    assert run("eval", "--data", str(too_high), "--model", str(m1), "--t", "0.5") == 1
    assert "line 4" in capsys.readouterr().err


def test_select_rejects_models_with_different_class_counts(tmp_path, capsys):
    three = train_model(synth_csv(tmp_path / "d3.csv"), tmp_path / "m3.npz")
    two_csv = tmp_path / "d2.csv"
    synth = ("synth", "--kind", "blobs", "--classes", "2", "--n", "120")
    assert run(*synth, "--out", str(two_csv)) == 0
    two = train_model(two_csv, tmp_path / "m2.npz")
    code = run(
        "select", "--val", str(two_csv), "--target", "0.1",
        "--model", str(three), "--mu", "1.0", "--model", str(two), "--mu", "2.0",
    )
    assert code == 1
    assert "class count" in capsys.readouterr().err


def test_curve_writes_points(tmp_path):
    data = synth_csv(tmp_path / "d.csv")
    val = synth_csv(tmp_path / "v.csv", n=120, seed=2)
    m1 = train_model(data, tmp_path / "m1.npz")
    out = tmp_path / "curve.csv"
    code = run(
        "curve", "--val", str(val), "--test", str(val),
        "--model", str(m1), "--mu", "1.0",
        "--targets", "0.01,0.05,0.2", "--t-size", "20",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "target,achieved_error,achieved_coverage,feasible,method"
    assert len(lines) == 4


def test_curve_infeasible_exit_code(tmp_path, capsys):
    data = synth_csv(tmp_path / "d.csv", sep="0.5", seed=5)
    m1 = train_model(data, tmp_path / "m1.npz")
    out = tmp_path / "curve.csv"
    code = run(
        "curve", "--val", str(data), "--test", str(data),
        "--model", str(m1), "--mu", "1.0",
        "--targets", "0.0", "--t-values", "0.0",
        "--out", str(out),
    )
    assert code == 3
    assert out.is_file()
    assert "infeasible" in capsys.readouterr().err


def test_oracle_analytic_closed_form(capsys):
    assert run("oracle", "--analytic-eps", "0.04") == 0
    out = capsys.readouterr().out
    assert "coverage=0.4" in out
    assert "upper_cut=0.8" in out
    assert "lower_cut=0.2" in out


def test_oracle_exact_solves(tmp_path, capsys):
    an = tmp_path / "an.csv"
    assert run("synth", "--kind", "analytic", "--n", "200", "--seed", "3", "--out", str(an)) == 0
    assert run("oracle", "--data", str(an), "--eps", "0.04", "--mode", "sc") == 0
    sc_out = capsys.readouterr().out
    assert "value=" in sc_out and "feasible" not in sc_out
    assert run(
        "oracle", "--data", str(an), "--eps", "0.04", "--mode", "osp", "--budget-grid"
    ) == 0
    assert "value=" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [["sc"], ["osp"], ["osp", "--budget-grid"]])
def test_oracle_refuses_non_finite_eps(tmp_path, capsys, mode):
    an = tmp_path / "an.csv"
    assert run("synth", "--kind", "analytic", "--n", "50", "--seed", "3", "--out", str(an)) == 0
    capsys.readouterr()
    assert run("oracle", "--data", str(an), "--eps", "nan", "--mode", *mode) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "eps must be a number in [0, 1], got nan" in err


def test_oracle_budget_grid_over_the_cap_exits_1(tmp_path, capsys):
    # 1,000 points in 4 classes at eps 0.3: a budget of 300 errors splits
    # C(303, 3) = 4,590,551 ways, 1.8e7 grid entries against a cap of 10^7
    rows = [f"{i / 1000!r},{i % 4}" for i in range(1000)]
    path = tmp_path / "k4.csv"
    path.write_text("f0,label\n" + "\n".join(rows) + "\n")
    argv = ["oracle", "--data", str(path), "--eps", "0.3", "--mode", "osp"]
    assert run(*argv, "--budget-grid") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "G = 4590551 " in err
    assert run(*argv) == 0


def test_oracle_rejects_wide_data(tmp_path, capsys):
    wide = synth_csv(tmp_path / "w.csv")
    assert run("oracle", "--data", str(wide), "--eps", "0.1") == 1
    assert "1-D" in capsys.readouterr().err
    assert run("oracle") == 1


def pipeline_config(tmp_path, **over):
    from onesided.data import BlobsParams, SyntheticSpec
    from onesided.net import BackboneSpec
    from onesided.pipeline import RunConfig
    from onesided.train import TrainConfig

    base = dict(
        seed=0,
        out_dir=str(tmp_path / "run"),
        synthetic=SyntheticSpec(
            "blobs", 240, seed=2, blobs=BlobsParams(num_classes=3, separation=4.0)
        ),
        backbone=BackboneSpec((2, 8, 6)),
        train=TrainConfig(
            mu=1.0,
            epochs=6,
            batch_size=64,
            lr_min=0.02,
            lr_max=0.05,
            lr_decay=(0.1, 1000),
            backbone_update_interval=3,
            warm_start_epochs=10,
        ),
        criterion=SelectionCriterion("error", 0.05),
        mu_grid=(0.5, 2.0),
        t_grid=(0.0, 0.3, 0.6, 0.9),
    )
    base.update(over)
    cfg = RunConfig(**base)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg), indent=2))
    return path


def test_pipeline_subcommand_with_overrides(tmp_path, capsys):
    cfg_path = pipeline_config(tmp_path)
    out_dir = tmp_path / "other"
    code = run(
        "pipeline", "--config", str(cfg_path),
        "--seed", "7", "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "flags=ok" in capsys.readouterr().out
    row = (out_dir / "metrics.csv").read_text().strip().splitlines()[1]
    assert row.endswith(",7")


def test_pipeline_workers_flag_is_gone_and_the_key_still_loads(tmp_path, capsys):
    cfg_path = pipeline_config(tmp_path, workers=1)
    assert run("pipeline", "--config", str(cfg_path), "--workers", "2") == 1
    assert capsys.readouterr().err.startswith("error:")
    doc = json.loads(cfg_path.read_text())
    assert doc["workers"] == 1 and load_config(cfg_path).workers == 1
    # the key has no effect, so it stays out of the hash
    hashes = set()
    for workers in (1, 3, None):
        doc["workers"] = workers
        cfg_path.write_text(json.dumps(doc))
        hashes.add(config_hash(load_config(cfg_path)))
    assert len(hashes) == 1


def test_pipeline_runs_a_config_with_the_retired_train_keys(tmp_path, capsys):
    # a config saved while `adaptive`, `restricted`, the train seed and
    # `lambda_max` were settings holds each at its one accepted value: it
    # runs under the hash it had then
    cfg_path = pipeline_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    doc["train"].update(adaptive=False, restricted=True, seed=0, lambda_max=None)
    cfg_path.write_text(json.dumps(doc))
    assert run("pipeline", "--config", str(cfg_path)) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    pinned = "7f9d85e37d22b4d58be75c8a38fb42ee9aa05b7f69d43d6c601a4d563bb7cfbc"
    assert manifest["config_hash"] == pinned
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert not {"adaptive", "restricted", "seed", "lambda_max"} & set(saved["train"])


def test_pipeline_subcommand_infeasible(tmp_path, capsys):
    # Overlapping blobs and a reject-nothing threshold grid make a
    # zero-error target unreachable.
    from onesided.data import BlobsParams, SyntheticSpec

    cfg_path = pipeline_config(
        tmp_path,
        synthetic=SyntheticSpec(
            "blobs", 240, seed=5, blobs=BlobsParams(num_classes=3, separation=0.5)
        ),
        criterion=SelectionCriterion("error", 0.0),
        t_grid=(0.0,),
    )
    code = run("pipeline", "--config", str(cfg_path))
    assert code == 3
    assert "flags=infeasible" in capsys.readouterr().out


def test_pipeline_missing_config(tmp_path, capsys):
    assert run("pipeline", "--config", str(tmp_path / "nope.json")) == 1
    assert "error:" in capsys.readouterr().err


def test_pipeline_missing_csv_exits_1_naming_it(tmp_path, capsys):
    csv = tmp_path / "gone.csv"
    cfg_path = pipeline_config(tmp_path, synthetic=None, source_path=str(csv))
    assert run("pipeline", "--config", str(cfg_path)) == 1
    assert str(csv) in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["criterion"].pop("target"), "'target'"),
        (lambda d: d["train"].update(epochs="10"), "train.epochs"),
        (lambda d: d["train"].update(adaptive=True), "config.train.adaptive"),
        (lambda d: d["train"].update(restricted=False), "config.train.restricted"),
        (lambda d: d["train"].update(seed=5), "config.train.seed"),
        (lambda d: d["train"].update(seed=0.0), "config.train.seed"),
        (lambda d: d["train"].update(lambda_max=1.0), "config.train.lambda_max"),
        (lambda d: d["train"].update(lr_min=float("nan")), "lr_min"),
        (lambda d: d.update(mu_grid=[0.5, float("inf")]), "mu_grid"),
        (lambda d: d["train"].update(lr_decay=[0.1]), "lr_decay"),
        (lambda d: d["train"].update(lr_decay=[0.1, 2.5]), "lr_decay"),
        (lambda d: d.update(seed=-1), "config: seed"),
        (lambda d: d.update(split_seed=-1), "config: split_seed"),
        (lambda d: d["synthetic"].update(seed=-1), "config.synthetic: seed"),
        (lambda d: d["synthetic"].update(n=2**70), "config.synthetic: sample size n="),
        (lambda d: d["synthetic"].update(n=2**62), "config.synthetic: sample size n="),
    ],
)
def test_pipeline_malformed_config_exits_1(tmp_path, capsys, edit, key):
    cfg_path = pipeline_config(tmp_path)
    doc = json.loads(cfg_path.read_text())
    edit(doc)
    cfg_path.write_text(json.dumps(doc))
    assert run("pipeline", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "spec, key",
    [
        (
            {
                "kind": "mixture",
                "n": 60,
                "seed": 0,
                "mixture": {"means": [[-1.0], [1.0]], "covariances": [[[1.0]], [[1.0]]]},
            },
            "'priors'",
        ),
        ({"kind": "blobs", "n": 60, "seed": "abc"}, "synthetic.seed"),
    ],
)
def test_synth_malformed_spec_file_exits_1(tmp_path, capsys, spec, key):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "x.csv"
    assert run("synth", "--spec-file", str(spec_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--data", "{bad}", "--eps", "0.1"),
        ("pipeline", "--config", "{bad}"),
        ("synth", "--spec-file", "{bad}", "--out", "{out}"),
    ],
    ids=["csv", "config", "spec-file"],
)
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"f0,label\n1.0,0\n\xff,1\n")
    out = tmp_path / "x.csv"
    assert run(*(a.format(bad=bad, out=out) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: byte 15 is not valid UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, what",
    [
        (("pipeline", "--config", "{bad}"), "config"),
        (("synth", "--spec-file", "{bad}", "--out", "{out}"), "spec file"),
    ],
    ids=["config", "spec-file"],
)
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read {what} {bad}: "),
        ("{not json", "{what} {bad} is not valid JSON: "),
    ],
    ids=["missing", "invalid-json"],
)
def test_unreadable_json_exits_1_naming_the_file(
    tmp_path, capsys, argv, what, content, message
):
    bad = tmp_path / "doc.json"
    if content is not None:
        bad.write_text(content)
    out = tmp_path / "x.csv"
    assert run(*(a.format(bad=bad, out=out) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(what=what, bad=bad))
    assert "Traceback" not in err
    assert not out.exists()


def test_numeric_error_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    data = synth_csv(tmp_path / "d.csv")

    def boom(*args, **kwargs):
        raise NumericError("loss diverged")

    monkeypatch.setattr(cli_mod, "sgda_train", boom)
    code = run(
        "train", "--data", str(data), "--mu", "1.0",
        "--widths", "2,8", "--out", str(tmp_path / "m.npz"),
    )
    assert code == 2
    assert "numeric error" in capsys.readouterr().err


def test_unknown_subcommand_and_flags(tmp_path, capsys):
    assert run("bogus") == 1
    assert run("train", "--nope") == 1
    capsys.readouterr()
    # each price caps its own multipliers at 10 * mu: the second cap is gone
    data, out = synth_csv(tmp_path / "d.csv"), tmp_path / "m.npz"
    argv = ("train", "--data", str(data), "--mu", "1.0", "--lambda-max", "1", "--out", str(out))
    assert run(*argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# A small valid pipeline config, and the values each of its leaves takes in
# turn in the sweep below: nulls, wrong types, edge numbers, non-finite
# floats and a size no numpy array can hold.
SWEEP_CONFIG = {
    "seed": 0,
    "out_dir": "run",
    "synthetic": {
        "kind": "blobs", "n": 300, "seed": 0,
        "blobs": {"num_classes": 3, "dim": 2, "separation": 4.0, "spread": 1.0},
    },
    "split_seed": 0,
    "backbone": {"layer_widths": [2, 8, 4], "activation": "relu"},
    "train": {
        "mu": 1.0, "epochs": 2, "batch_size": 64, "lr_min": 0.02, "lr_max": 0.05,
        "lr_decay": [0.1, 1000], "backbone_update_interval": 1, "seed": 0,
        "warm_start_epochs": 1, "lambda_max": None, "restricted": True,
    },
    "criterion": {"mode": "error", "target": 0.05},
    "mu_grid": [0.5, 1.0],
    "t_grid": [0.0, 0.5, 0.9],
    "curve_targets": [0.02, 0.1],
}
SWEEP_VALUES = (
    None, "x", -1, 0, 1, 3, 1e308, math.nan, math.inf, [], {}, True, [math.nan], 2**70
)
# 2**70 epochs are a valid count, and such a run would not end
ENDLESS = {("train", "epochs"), ("train", "warm_start_epochs")}
# the same config drawing from a two-class mixture, whose leaves are swept too
MIXTURE_SWEEP_CONFIG = {
    **SWEEP_CONFIG,
    "synthetic": {
        "kind": "mixture", "n": 300, "seed": 0,
        "mixture": {
            "means": [[-1.0, 0.0], [1.0, 0.0]],
            "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "priors": [0.5, 0.5],
        },
    },
}


def leaf_paths(doc, path=()):
    """The key path of every scalar in ``doc``, list elements included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def test_no_config_leaf_value_escapes_the_pipeline_command(tmp_path, monkeypatch, capsys):
    # every exit is a code: 1 with "error:", 2 with "numeric error:", or a
    # run; NaN or inf anywhere in the synthetic source exits 1
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    escapes, runs = [], 0
    sweeps = [(SWEEP_CONFIG, path) for path in leaf_paths(SWEEP_CONFIG)]
    sweeps += [
        (MIXTURE_SWEEP_CONFIG, path)
        for path in leaf_paths(MIXTURE_SWEEP_CONFIG)
        if path[:2] == ("synthetic", "mixture")
    ]
    for base, path in sweeps:
        for value in SWEEP_VALUES:
            if path in ENDLESS and value == 2**70:
                continue
            doc = json.loads(json.dumps(base))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            config.write_text(json.dumps(doc))
            where = f"{'.'.join(map(str, path))}={value!r}"
            runs += 1
            try:
                with np.errstate(all="ignore"):
                    code = run("pipeline", "--config", str(config))
            except Exception as exc:
                escapes.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            want = {1: "error:", 2: "numeric error:"}.get(code)
            non_finite = isinstance(value, float) and not math.isfinite(value)
            if path[0] == "synthetic" and non_finite and code != 1:
                escapes.append(f"{where}: exit {code} with {err!r}, not 1")
            elif code not in (0, 1, 2, 3) or (want is not None and want not in err):
                escapes.append(f"{where}: exit {code} with {err!r}")
    assert runs == (35 + 14) * len(SWEEP_VALUES) - len(ENDLESS)
    assert escapes == []


@pytest.mark.parametrize(
    "raised, message",
    [(MemoryError(), "out of memory"),
     (MemoryError("Unable to allocate 7.45 TiB"), "Unable to allocate 7.45 TiB")],
)
def test_memory_error_exits_1_after_the_error_manifest(
    tmp_path, monkeypatch, capsys, raised, message
):
    # a size numpy can index but the machine cannot hold (blobs dim 10**9)
    # fails inside a stage; the stage raises here instead of allocating
    def boom(spec):
        raise raised

    monkeypatch.setattr(pipeline_mod, "synthesize", boom)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SWEEP_CONFIG, "out_dir": str(tmp_path / "run")}))
    assert run("pipeline", "--config", str(config)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (manifest["status"], manifest["stage"]) == ("error", "load_data")


# one bad token in one cell of a valid CSV: a feature cell takes any of the
# first, a label cell any of the second
FEATURE_TOKENS = ("", "nan", "inf", "1e400", "x", "0.5,0.5")
LABEL_TOKENS = ("-1", "1.5", "x")


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(row=st.integers(0, 299), column=st.integers(0, 2), draw=st.data())
def test_one_bad_csv_cell_exits_1_naming_its_line(tmp_path, capsys, row, column, draw):
    path = tmp_path / "data.csv"
    write_csv(synthesize(SyntheticSpec("blobs", 300, seed=0)), path)
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = draw.draw(st.sampled_from(LABEL_TOKENS if column == 2 else FEATURE_TOKENS))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    doc = {k: v for k, v in SWEEP_CONFIG.items() if k != "synthetic"}
    doc.update(source_path=str(path), out_dir=str(tmp_path / "run"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert run("pipeline", "--config", str(config)) == 1
    err = capsys.readouterr().err
    # the header is line 1
    assert err.startswith("error: ") and f" line {row + 2}: " in err
