"""Command-line front end.

Subcommands: ``synth`` (generate datasets), ``train`` (one constrained
model), ``select`` (grid search over saved models), ``eval`` (score one
model at one threshold), ``curve`` (coverage against a sweep of target
errors), ``oracle`` (exact finite-class solves), and ``pipeline`` (the
whole run from a config file).

Exit codes: 0 success, 1 input or config error or a MemoryError, 2 numeric
error, 3 infeasible selection (best-effort outputs are still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .core import CapacityError, InputError, NumericError, _count, _prices, evaluate
from .data import BlobsParams, SyntheticSpec, ingest_csv, synthesize, write_csv
from .evaluation import _measure, coverage_error_curve
from .net import BackboneSpec, deserialize, serialize, warm_start
from .oracle import (
    FiniteHypothesisClass,
    analytic_example_coverage,
    budget_alpha_grid,
    canonical_cuts,
    solve_osp_decoupled,
    solve_sc_exact,
)
from .pipeline import (
    GRID_COLUMNS,
    _decode,
    _log_to_doc,
    _read_json,
    _write_curve,
    _write_json,
    _write_table,
    load_config,
    run_pipeline,
)
from .select import (
    SelectionCriterion,
    SelectionGrid,
    _score,
    default_threshold_grid,
    evaluate_grid,
)
from .train import TrainConfig, sgda_train


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as input errors so exit codes stay 1."""

    def error(self, message):
        raise InputError(message)


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}")


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}")


def _read_model(path: str):
    """The model saved at ``path``; an unreadable file is an input error."""
    try:
        return deserialize(Path(path).read_bytes())
    except OSError as exc:
        raise InputError(f"cannot read model {path}: {exc}")


def _load_models(args) -> tuple[dict, int]:
    """The models keyed by mu, and the class count they all share."""
    if not args.model:
        raise InputError("need at least one --model")
    if len(args.model) != len(args.mu):
        raise InputError(
            f"got {len(args.model)} --model values but {len(args.mu)} --mu values"
        )
    mus = _prices(args.mu, "--mu")
    if len(set(mus)) != len(mus):
        raise InputError(f"--mu values must be distinct, got {mus}")
    models = {mu: _read_model(path) for mu, path in zip(mus, args.model)}
    counts = sorted({m.num_classes for m in models.values()})
    if len(counts) > 1:
        raise InputError(f"models disagree on the class count: {counts}")
    return models, counts[0]


def _val_grid(args) -> tuple[dict, SelectionGrid, int]:
    """The models keyed by mu, their grid on ``--val``, and their class count."""
    if args.t_size is not None and args.t_values is not None:
        raise InputError("give --t-size or --t-values, not both")
    models, num_classes = _load_models(args)
    val = ingest_csv(args.val, num_classes)
    size = () if args.t_size is None else (_count(args.t_size, 2, "--t-size"),)
    ts = args.t_values or default_threshold_grid(*size)
    return models, evaluate_grid(models, ts, val), num_classes


# each blob flag and the BlobsParams field it sets
_BLOB_FLAGS = {
    "classes": "num_classes", "dim": "dim", "separation": "separation", "spread": "spread"
}


def _cmd_synth(args) -> int:
    # a source refuses the flags it does not read, rather than drop them
    if args.spec_file is not None:
        source, reads = "--spec-file", ()
    elif args.kind is None:
        raise InputError("give either --spec-file or --kind")
    else:
        source = f"--kind {args.kind}"
        reads = ("kind", "n", "seed", *(_BLOB_FLAGS if args.kind == "blobs" else ()))
    for flag in ("kind", "n", "seed", *_BLOB_FLAGS):
        if getattr(args, flag) is not None and flag not in reads:
            raise InputError(f"{source} reads no --{flag}")
    if args.spec_file is not None:
        doc = _read_json(args.spec_file, "spec file")
    elif args.kind == "mixture":
        raise InputError("mixture synthesis needs --spec-file for its parameters")
    else:
        doc = {
            "kind": args.kind,
            "n": 1000 if args.n is None else args.n,
            "seed": 0 if args.seed is None else args.seed,
        }
        if args.kind == "blobs":
            # a flag left out is a null key, which takes the field default
            doc["blobs"] = {field: getattr(args, flag) for flag, field in _BLOB_FLAGS.items()}
    data = synthesize(_decode(SyntheticSpec, doc, "synthetic"))
    write_csv(data, args.out)
    print(f"wrote {data.n} points, dim {data.dim}, {data.num_classes} classes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    data = ingest_csv(args.data)
    spec = BackboneSpec(args.widths or (data.dim, 16, 8), args.activation)
    config = TrainConfig(
        mu=args.mu,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_min=args.lr_min,
        lr_max=args.lr_max,
        lr_decay=(args.decay_factor, args.decay_epoch),
        backbone_update_interval=args.interval,
        warm_start_epochs=args.warm_epochs,
    )
    warm = warm_start(
        data, spec, config.warm_start_epochs, config.lr_min, args.seed, config.batch_size
    )
    model, state, log = sgda_train(data, warm, config, args.seed)
    Path(args.out).write_bytes(serialize(model))
    final = log.final()
    print(
        f"trained mu={args.mu:g} for {config.epochs} epochs: "
        f"fit_sum={final.fit_sum:.6f} "
        f"leaks={[round(v, 6) for v in final.leaks]}"
    )
    if args.log is not None:
        _write_json(Path(args.log), _log_to_doc(args.mu, log))
    print(f"model written to {args.out}")
    return 0


def _cmd_select(args) -> int:
    _, grid, _ = _val_grid(args)
    criterion = SelectionCriterion(args.mode, args.target)
    result = criterion.pick(grid)
    if args.grid_out is not None:
        _write_table(Path(args.grid_out), GRID_COLUMNS, list(grid.rows()))
    print(
        f"mu_star={result.mu_star:g} t_star={result.t_star:g} "
        f"coverage={result.coverage:.6f} error={result.error:.6f} "
        f"feasible={str(result.feasible).lower()}"
    )
    return 0 if result.feasible else 3


def _cmd_eval(args) -> int:
    model = _read_model(args.model)
    data = ingest_csv(args.data, model.num_classes)
    metrics, overlap = _measure(_score(model, data), data.labels, args.t)
    print(f"coverage={metrics.coverage:.6f}")
    print(f"error={metrics.raw_error:.6f}")
    per_class = " ".join(f"{v:.6f}" for v in metrics.per_class_one_sided_error)
    print(f"per_class_error={per_class}")
    print(f"overlap={overlap:.6f}")
    return 0


def _cmd_curve(args) -> int:
    models, grid, num_classes = _val_grid(args)
    test = ingest_csv(args.test, num_classes)
    points = coverage_error_curve(models, grid, test, args.targets)
    _write_curve(Path(args.out), points)
    print(f"wrote {len(points)} curve points to {args.out}")
    if all(p.feasible for p in points):
        return 0
    print("warning: some targets were infeasible", file=sys.stderr)
    return 3


def _cmd_oracle(args) -> int:
    if args.analytic_eps is not None:
        coverage, upper_cut, lower_cut = analytic_example_coverage(args.analytic_eps)
        print(f"coverage={coverage!r}")
        print(f"upper_cut={upper_cut!r}")
        print(f"lower_cut={lower_cut!r}")
        return 0
    if args.data is None or args.eps is None:
        raise InputError("give --analytic-eps, or both --data and --eps")
    data = ingest_csv(args.data)
    if data.dim != 1:
        raise InputError(f"exact solves need 1-D features, got dim {data.dim}")
    cuts = canonical_cuts(data.features[:, 0])
    hclass = FiniteHypothesisClass.union(
        FiniteHypothesisClass.upper_thresholds(cuts),
        FiniteHypothesisClass.lower_thresholds(cuts),
    )
    if args.mode == "sc":
        solution = solve_sc_exact(data, hclass, args.eps)
    else:
        grid = (
            budget_alpha_grid(args.eps, data.n, data.num_classes)
            if args.budget_grid
            else None
        )
        solution = solve_osp_decoupled(data, hclass, args.eps, alpha_grid=grid)
    metrics = evaluate(solution.family, data)
    print(f"value={solution.value!r}")
    print(f"coverage={metrics.coverage!r}")
    print(f"error={metrics.raw_error!r}")
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.split_seed is not None:
        overrides["split_seed"] = args.split_seed
    if args.mode is not None or args.target is not None:
        mode = args.mode if args.mode is not None else config.criterion.mode
        target = args.target if args.target is not None else config.criterion.target
        overrides["criterion"] = SelectionCriterion(mode, target)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    result = run_pipeline(config)
    row = result.metrics_row
    print(
        f"mu_star={row['mu_star']:g} t_star={row['t_star']:g} "
        f"coverage={row['coverage']:.6f} error={row['error']:.6f} "
        f"flags={row['flags']}"
    )
    print(f"artifacts in {result.out_dir}")
    return 0 if result.selection.feasible else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onesided", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=("analytic", "blobs", "mixture"))
    p.add_argument("--n", type=int, help="sample size (default 1000)")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--classes", type=int, help=f"default {BlobsParams.num_classes}")
    p.add_argument("--dim", type=int, help=f"default {BlobsParams.dim}")
    p.add_argument("--separation", type=float, help=f"default {BlobsParams.separation}")
    p.add_argument("--spread", type=float, help=f"default {BlobsParams.spread}")
    p.add_argument("--spec-file", help="JSON synthetic spec (required for mixture)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train one constrained model")
    p.add_argument("--data", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr-min", type=float, default=TrainConfig.lr_min)
    p.add_argument("--lr-max", type=float, default=TrainConfig.lr_max)
    p.add_argument("--decay-factor", type=float, default=TrainConfig.lr_decay[0])
    p.add_argument("--decay-epoch", type=int, default=TrainConfig.lr_decay[1])
    p.add_argument("--interval", type=int, default=TrainConfig.backbone_update_interval)
    p.add_argument("--seed", type=int, default=0, help="seeds the warm start and the trainer")
    p.add_argument("--warm-epochs", type=int, default=TrainConfig.warm_start_epochs)
    p.add_argument("--widths", type=_comma_ints, help="e.g. 2,16,8 (input width first)")
    p.add_argument("--activation", default="relu")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", help="optional training-log JSON path")
    p.set_defaults(func=_cmd_train)

    def add_model_grid(p):
        p.add_argument("--model", action="append", default=[])
        p.add_argument("--mu", action="append", type=float, default=[])
        p.add_argument("--t-size", type=int)
        p.add_argument("--t-values", type=_comma_floats)

    p = sub.add_parser("select", help="grid search over saved models")
    add_model_grid(p)
    p.add_argument("--val", required=True)
    p.add_argument("--mode", choices=("error", "coverage"), default="error")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--grid-out", help="optional CSV path for the full grid")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("eval", help="score one model at one threshold")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("curve", help="coverage across a sweep of target errors")
    add_model_grid(p)
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--targets", type=_comma_floats, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("oracle", help="exact finite-class solves")
    p.add_argument("--analytic-eps", type=float, help="closed-form 1-D example")
    p.add_argument("--data", help="CSV with 1-D features")
    p.add_argument("--eps", type=float)
    p.add_argument("--mode", choices=("sc", "osp"), default="sc")
    p.add_argument(
        "--budget-grid",
        action="store_true",
        help="sweep integer splits of the error budget (osp mode)",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("pipeline", help="full run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--split-seed", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--mode", choices=("error", "coverage"))
    p.add_argument("--target", type=float)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, CapacityError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
