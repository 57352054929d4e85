"""Selective classification by per-class one-sided decision sets.

Every public name is exported lazily (PEP 562): ``_EXPORTS`` maps each
submodule to the names it exports, and the first access to a name
imports its submodule and keeps the name in the package namespace.
``import onesided`` therefore loads no submodule, and a call loads only
the submodules it uses: the exact solvers need ``core`` and ``oracle``,
not the trainer.  ``__all__`` and ``dir()`` list the same names.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "CapacityError",
        "DecisionSetFamily",
        "FormatError",
        "InputError",
        "LabeledDataset",
        "Metrics",
        "NumericError",
        "REJECT",
        "assign",
        "evaluate",
    ),
    "data": (
        "BlobsParams",
        "MixtureParams",
        "SyntheticSpec",
        "ingest_csv",
        "mixture_oracle_coverage",
        "mixture_posterior",
        "split_dataset",
        "synthesize",
        "two_class_mixture",
        "write_csv",
    ),
    "evaluation": (
        "CurvePoint",
        "coverage_error_curve",
        "osp_overlap",
        "sr_baseline",
    ),
    "net": (
        "BackboneSpec",
        "SelectiveModel",
        "deserialize",
        "forward_batch",
        "init_model",
        "serialize",
        "warm_start",
    ),
    "oracle": (
        "FiniteHypothesisClass",
        "OracleSolution",
        "analytic_example_coverage",
        "budget_alpha_grid",
        "canonical_cuts",
        "default_alpha_grid",
        "erm_feasibility_trend",
        "overlap_mass",
        "sample_analytic_example",
        "solve_osp_decoupled",
        "solve_osp_exact",
        "solve_sc_exact",
    ),
    "pipeline": (
        "PipelineResult",
        "RunConfig",
        "config_hash",
        "load_config",
        "run_pipeline",
        "save_config",
    ),
    "select": (
        "SelectionCriterion",
        "SelectionGrid",
        "SelectionResult",
        "default_threshold_grid",
        "evaluate_grid",
        "harden",
        "pick_coverage_constrained",
        "pick_error_constrained",
        "quick_mu_grid",
    ),
    "train": (
        "LagrangianState",
        "TrainConfig",
        "TrainingLog",
        "sgda_train",
        "sgda_train_grid",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
