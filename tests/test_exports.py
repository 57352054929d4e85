"""The package's lazy exports, each checked in a fresh interpreter.

A test process has usually imported every submodule already, so what an
access loads is only visible in a new `sys.executable`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = sorted(
    """
    BackboneSpec BlobsParams CapacityError CurvePoint DecisionSetFamily
    FiniteHypothesisClass FormatError InputError LabeledDataset LagrangianState
    Metrics MixtureParams NumericError OracleSolution PipelineResult REJECT
    RunConfig SelectionCriterion SelectionGrid SelectionResult SelectiveModel
    SyntheticSpec TrainConfig TrainingLog analytic_example_coverage assign
    budget_alpha_grid canonical_cuts config_hash coverage_error_curve
    default_alpha_grid default_threshold_grid deserialize erm_feasibility_trend
    evaluate evaluate_grid forward_batch harden ingest_csv init_model
    load_config mixture_oracle_coverage mixture_posterior osp_overlap
    overlap_mass pick_coverage_constrained pick_error_constrained quick_mu_grid
    run_pipeline sample_analytic_example save_config serialize sgda_train
    sgda_train_grid solve_osp_decoupled solve_osp_exact solve_sc_exact
    split_dataset sr_baseline synthesize two_class_mixture warm_start write_csv
    """.split()
)


def run_fresh(code: str):
    """The JSON value ``code`` prints last, run in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'onesided')))\n"
)


def test_solver_access_loads_only_core_and_oracle():
    loaded = run_fresh("import onesided\nonesided.solve_sc_exact\n" + LOADED)
    assert loaded == ["onesided", "onesided.core", "onesided.oracle"]
    loaded = run_fresh("from onesided import solve_sc_exact, LabeledDataset\n" + LOADED)
    assert loaded == ["onesided", "onesided.core", "onesided.oracle"]
    assert run_fresh("import onesided\n" + LOADED) == ["onesided"]


def test_warm_start_access_loads_net_and_not_the_trainer():
    loaded = run_fresh("import onesided\nonesided.warm_start\n" + LOADED)
    assert "onesided.net" in loaded and "onesided.train" not in loaded
    got = run_fresh(
        "import json, onesided, onesided.net\n"
        "print(json.dumps(onesided.warm_start is onesided.net.warm_start))\n"
    )
    assert got is True


def test_star_import_and_dir_give_the_public_names():
    got = run_fresh(
        "import json, onesided\n"
        "ns = {}\n"
        "exec('from onesided import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), dir(onesided)]))\n"
    )
    star, listed = got
    assert star == PUBLIC
    assert set(PUBLIC) <= set(listed)
    assert listed == sorted(listed)
    fresh = run_fresh("import json, onesided\nprint(json.dumps(dir(onesided)))\n")
    assert set(PUBLIC) <= set(fresh)


def test_unknown_name_raises_attribute_error_naming_it():
    got = run_fresh(
        "import json, onesided\n"
        "try:\n"
        "    onesided.no_such_solver\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(onesided, 'ghost')]))\n"
    )
    assert "no_such_solver" in got[0] and "onesided" in got[0]
    assert got[1] is False


def test_submodule_import_still_works():
    got = run_fresh(
        "import json\n"
        "import onesided.train\n"
        "import onesided\n"
        "print(json.dumps([onesided.train.sgda_train is onesided.sgda_train,\n"
        "                  onesided.TrainConfig.__module__]))\n"
    )
    assert got == [True, "onesided.train"]
