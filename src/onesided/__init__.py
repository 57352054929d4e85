"""Selective classification by per-class one-sided decision sets."""

from .core import (
    CapacityError,
    DecisionSetFamily,
    FormatError,
    InputError,
    LabeledDataset,
    Metrics,
    NumericError,
    REJECT,
    assign,
    evaluate,
)
from .data import (
    BlobsParams,
    MixtureParams,
    SyntheticSpec,
    ingest_csv,
    mixture_oracle_coverage,
    mixture_posterior,
    split_dataset,
    synthesize,
    two_class_mixture,
    write_csv,
)
from .evaluation import (
    CurvePoint,
    coverage_error_curve,
    osp_overlap,
    sr_baseline,
)
from .net import (
    BackboneSpec,
    SelectiveModel,
    deserialize,
    forward_batch,
    init_model,
    serialize,
)
from .oracle import (
    FiniteHypothesisClass,
    OracleSolution,
    analytic_example_coverage,
    budget_alpha_grid,
    canonical_cuts,
    default_alpha_grid,
    erm_feasibility_trend,
    overlap_mass,
    sample_analytic_example,
    solve_osp_decoupled,
    solve_osp_exact,
    solve_sc_exact,
)
from .pipeline import (
    PipelineResult,
    RunConfig,
    config_hash,
    load_config,
    run_pipeline,
    save_config,
)
from .select import (
    SelectionCriterion,
    SelectionGrid,
    SelectionResult,
    default_threshold_grid,
    evaluate_grid,
    harden,
    pick_coverage_constrained,
    pick_error_constrained,
    quick_mu_grid,
)
from .train import (
    LagrangianState,
    TrainConfig,
    TrainingLog,
    sgda_train,
    sgda_train_grid,
    warm_start,
)

__version__ = "0.1.0"
