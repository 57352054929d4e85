"""Run configuration and end-to-end orchestration with on-disk bundles.

A run loads or synthesizes a dataset, splits it, warm starts one
backbone, trains one constrained model per mu-grid value from that
shared warm start (all of them in lockstep, in one process), selects a
(mu, t) cell on the validation split, and reports test metrics.  Every
artifact lands in the run directory and is stamped with the config hash
and seed; a stage failure still persists the completed stages plus an
error manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .core import InputError, Metrics, _count, _prices, _seed
from .data import SyntheticSpec, _split_fractions, ingest_csv, split_dataset, synthesize
from .evaluation import _curve, _curve_targets, _measure
from .net import BackboneSpec, serialize, warm_start
from .select import (
    SelectionCriterion,
    SelectionResult,
    _score,
    _thresholds,
    default_threshold_grid,
    evaluate_grid,
    quick_mu_grid,
)
from .train import TrainConfig, TrainingLog, sgda_train_grid

METRICS_COLUMNS = (
    "target",
    "coverage",
    "error",
    "mu_star",
    "t_star",
    "overlap",
    "flags",
    "config_hash",
    "seed",
)

GRID_COLUMNS = ("mu", "t", "coverage", "error")

CURVE_COLUMNS = ("target", "achieved_error", "achieved_coverage", "feasible", "method")


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on.

    Exactly one of ``source_path`` and ``synthetic`` names the dataset.
    The CSV is not opened here, so a saved config still loads and hashes
    after its data file has moved; a run fails at its ``load_data`` stage.
    ``train`` is a template: the grid supplies ``mu``, and ``seed`` seeds
    the warm start and the trainer.  ``split_seed`` is deliberately separate
    from ``seed`` so seed sweeps can vary optimization while keeping the data
    split fixed.  ``workers`` has no effect: the grid trains in lockstep
    in one process.  The key is still validated (at least 1) and read
    from config files so that older configs keep loading; no command-line
    flag sets it.  The split, prices, thresholds and curve targets are
    checked by the rules of the code that reads them; the config adds that
    ``mu_grid`` values are distinct, since the run keys its models by mu.
    """

    seed: int
    out_dir: str
    source_path: str | None = None
    synthetic: SyntheticSpec | None = None
    split_fractions: tuple[float, ...] = (0.6, 0.2, 0.2)
    split_seed: int = 0
    backbone: BackboneSpec = BackboneSpec((2, 16, 8))
    train: TrainConfig = TrainConfig(mu=1.0)
    criterion: SelectionCriterion = SelectionCriterion("error", 0.05)
    mu_grid: tuple[float, ...] = quick_mu_grid()
    t_grid: tuple[float, ...] = default_threshold_grid()
    curve_targets: tuple[float, ...] | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if (self.source_path is None) == (self.synthetic is None):
            raise InputError(
                "exactly one of source_path and synthetic must be given"
            )
        _seed(self.seed)
        mus = _prices(self.mu_grid, "mu_grid")
        if len(set(mus)) != len(mus):
            raise InputError(f"mu_grid values must be distinct, got {mus}")
        _count(self.workers, 1, "workers")
        fr = _split_fractions(self.split_fractions)
        _count(self.split_seed, 0, "split_seed")
        object.__setattr__(self, "split_fractions", fr)
        object.__setattr__(self, "mu_grid", mus)
        object.__setattr__(self, "t_grid", tuple(_thresholds(self.t_grid).tolist()))
        if self.curve_targets is not None:
            object.__setattr__(self, "curve_targets", _curve_targets(self.curve_targets))


def _plain(obj):
    """A dataclass as nested dicts (keyed by field name) and lists, JSON-ready."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    return obj


_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _value(tp, value, where: str):
    """Check ``value`` against annotation ``tp``; arrays become tuples."""
    if isinstance(tp, types.UnionType):  # ``X | None``: None never reaches here
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _decode(tp, value, where)
    if typing.get_origin(tp) is tuple:  # ``tuple[X, ...]``
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{where} must be a list, got {value!r}")
        return tuple(_value(typing.get_args(tp)[0], v, where) for v in value)
    if not _SCALARS[tp](value):
        raise InputError(f"{where} must be of type {tp.__name__}, got {value!r}")
    return value


def _decode(cls, doc, where: str):
    """Build dataclass ``cls`` from its ``_plain`` form, checking keys and types.

    A missing or null key takes the field default; a field without one is
    required.  Scalars keep their JSON type, so a loaded config hashes as
    the one that was saved.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be a mapping, got {doc!r}")
    fields = dataclasses.fields(cls)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if doc.get(f.name) is not None:
            kwargs[f.name] = _value(hints[f.name], doc[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise InputError(f"{where} is missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    """Plain nested dict mirroring the config field names, JSON-ready."""
    return _plain(config)


# Removed train keys, each at the one value that means what a run does now:
# plain (not Adam-scaled) steps, fit terms on each class's own rows, the
# default train seed, which a pipeline never read (the run seed seeds it),
# and no multiplier cap but each price's own 10 * mu.
_RETIRED = {"adaptive": False, "restricted": True, "seed": 0, "lambda_max": None}


def config_from_dict(d: dict) -> RunConfig:
    """Build and validate a config from the nested dict form.

    A ``_RETIRED`` key in the train section is dropped at its listed value,
    of the listed type, or null; any other value of it is refused.
    """
    train = d.get("train") if isinstance(d, dict) else None
    if isinstance(train, dict):
        for key, kept in _RETIRED.items():
            value = train.get(key)
            if value is not None and (type(value) is not type(kept) or value != kept):
                raise InputError(
                    f"config.train.{key} was removed; only {json.dumps(kept)} is "
                    f"accepted, got {value!r}"
                )
        d = {**d, "train": {k: v for k, v in train.items() if k not in _RETIRED}}
    return _decode(RunConfig, d, "config")


def save_config(config: RunConfig, path: str | Path) -> None:
    _write_json(Path(path), config_to_dict(config))


def _read_json(path: str | Path, what: str):
    """The JSON document at ``path``; errors name it as ``what`` and the path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path}: byte {exc.start} is not valid UTF-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}")


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(_read_json(path, "config"))


def config_hash(config: RunConfig) -> str:
    """Hash of everything that influences results.

    The output directory and the worker count do not change results, so
    they are excluded and a rerun elsewhere hashes the same.
    The hashed train section still holds the ``_RETIRED`` keys, so a config
    and the run artifacts saved before those keys were removed keep their hash.
    """
    doc = config_to_dict(config)
    del doc["out_dir"]
    del doc["workers"]
    doc["train"].update(_RETIRED)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: Path, columns: tuple, rows: list) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_curve(path: Path, points) -> None:
    rows = [
        [p.target_error, p.achieved_error, p.achieved_coverage, p.feasible, "osp"]
        for p in points
    ]
    _write_table(path, CURVE_COLUMNS, rows)


def _log_to_doc(mu: float, log: TrainingLog) -> dict:
    return {"mu": float(mu), "records": [_plain(r) for r in log.records]}


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one run: chosen cell, test metrics, artifact paths."""

    out_dir: Path
    config_hash: str
    selection: SelectionResult
    test_metrics: Metrics
    metrics_row: dict
    curve: tuple | None


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute load, split, warm start, mu-grid training, selection, eval.

    Artifacts written under ``config.out_dir``: config.json,
    manifest.json, models/, training_log.json, selection_grid.csv,
    metrics.csv, and curve.csv when curve targets are given.  A stage
    exception persists an error manifest naming the stage, then
    propagates.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    completed: list = []
    files: dict = {"config": "config.json"}
    save_config(config, out / "config.json")

    def manifest(status: str, stage=None, message=None, selection=None) -> None:
        _write_json(
            out / "manifest.json",
            {
                "status": status,
                "stage": stage,
                "message": message,
                "completed": list(completed),
                "config_hash": chash,
                "seed": config.seed,
                "files": dict(files),
                "selection": selection,
            },
        )

    stage = "load_data"
    try:
        if config.source_path is not None:
            data = ingest_csv(config.source_path)
        else:
            data = synthesize(config.synthetic)
        completed.append(stage)

        stage = "split"
        train_d, val_d, test_d = split_dataset(
            data, config.split_fractions, config.split_seed
        )
        completed.append(stage)

        stage = "warm_start"
        warm = warm_start(
            train_d,
            config.backbone,
            config.train.warm_start_epochs,
            config.train.lr_min,
            config.seed,
            config.train.batch_size,
        )
        completed.append(stage)

        stage = "train"
        trained = sgda_train_grid(train_d, warm, config.train, config.mu_grid, config.seed)
        models = {}
        model_dir = out / "models"
        model_dir.mkdir(exist_ok=True)
        log_docs = []
        model_files = {}
        for i, (mu, (model, _, log)) in enumerate(zip(config.mu_grid, trained)):
            models[mu] = model
            name = f"models/model_{i:02d}.npz"
            (out / name).write_bytes(serialize(model))
            model_files[repr(float(mu))] = name
            log_docs.append(_log_to_doc(mu, log))
        _write_json(
            out / "training_log.json",
            {"config_hash": chash, "seed": config.seed, "per_mu": log_docs},
        )
        files["models"] = model_files
        files["training_log"] = "training_log.json"
        completed.append(stage)

        stage = "select"
        grid = evaluate_grid(models, config.t_grid, val_d)
        result = config.criterion.pick(grid)
        _write_table(
            out / "selection_grid.csv", GRID_COLUMNS, list(grid.rows())
        )
        files["selection_grid"] = "selection_grid.csv"
        completed.append(stage)

        stage = "evaluate"
        # the curve takes these scores out, so they are freed once read
        test_scores = {result.mu_star: _score(models[result.mu_star], test_d)}
        metrics, overlap = _measure(
            test_scores[result.mu_star], test_d.labels, result.t_star
        )
        row = {
            "target": config.criterion.target,
            "coverage": metrics.coverage,
            "error": metrics.raw_error,
            "mu_star": result.mu_star,
            "t_star": result.t_star,
            "overlap": overlap,
            "flags": "ok" if result.feasible else "infeasible",
            "config_hash": chash,
            "seed": config.seed,
        }
        _write_table(
            out / "metrics.csv",
            METRICS_COLUMNS,
            [[row[c] for c in METRICS_COLUMNS]],
        )
        files["metrics"] = "metrics.csv"
        completed.append(stage)

        curve = None
        if config.curve_targets is not None:
            stage = "curve"
            curve = tuple(
                _curve(models, grid, test_d, config.curve_targets, test_scores)
            )
            _write_curve(out / "curve.csv", curve)
            files["curve"] = "curve.csv"
            completed.append(stage)
    except Exception as exc:
        manifest("error", stage=stage, message=f"{type(exc).__name__}: {exc}")
        raise

    manifest(
        "ok",
        selection={
            "mu_star": result.mu_star,
            "t_star": result.t_star,
            "feasible": result.feasible,
        },
    )
    return PipelineResult(
        out_dir=out,
        config_hash=chash,
        selection=result,
        test_metrics=metrics,
        metrics_row=row,
        curve=curve,
    )
