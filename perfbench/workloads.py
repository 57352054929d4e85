"""The benchmark's workloads: set-up, one timed operation, and output checks.

Every workload draws its inputs from the run seed, plus a large holdout
sample on which test coverage and error are measured.  Operation ``i``
of a run uses input set ``variant(i)``: 0, 0, 1, ..., DISTINCT - 1, 0, ...
so the first two operations repeat one input (their outputs must be
byte-identical) and the first DISTINCT + 1 operations cover every input
once.  Quality metrics are means over the DISTINCT input sets, so they
depend only on the seed, not on how many operations fit in a run.

`onesided` is imported inside `setup`, so timing `setup` in a fresh
interpreter includes the package import.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

C08_EPS = 0.02
# Quality is measured on 100,000 fresh points: the pipelines' own test splits
# (1,200 points for mixture_k2) carry ~20% sampling noise at error 0.02.
HOLDOUT_CHUNKS = range(12, 32)  # input-set indices of the holdout; inputs use 0..11


def holdout(kind: str, seed: int, **params) -> list:
    """100,000 fresh points from a workload's distribution, drawn in chunks.

    Chunks keep the checks from setting the process's peak memory.
    """
    from onesided import SyntheticSpec, synthesize

    return [
        synthesize(SyntheticSpec(kind=kind, n=5_000, seed=100 + derived_seed(seed, j), **params))
        for j in HOLDOUT_CHUNKS
    ]


def variant(op_index: int, distinct: int) -> int:
    return 0 if op_index == 0 else (op_index - 1) % distinct


def derived_seed(seed: int, j: int) -> int:
    """Seed of input set ``j`` of a run; distinct runs never share one."""
    return 32 * seed + j


@dataclass
class Checked:
    """What an operation produced, as far as the benchmark judges it."""

    fingerprint: bytes  # must repeat exactly when the input repeats
    quality: dict  # test_coverage and test_error
    problems: list = field(default_factory=list)


def _model(result, mu):
    from onesided import deserialize

    out = Path(result.out_dir)
    files = json.loads((out / "manifest.json").read_text())["files"]["models"]
    return deserialize((out / files[repr(mu)]).read_bytes())


def _pipeline_outcome(result, holdout, extra_files=()) -> Checked:
    """Floors every pipeline run must meet, and the chosen cell on the holdout."""
    from onesided import evaluate, harden

    out = Path(result.out_dir)
    names = ("metrics.csv", "selection_grid.csv") + tuple(extra_files)
    fingerprint = b"".join((out / n).read_bytes() for n in names)
    sel = result.selection
    problems = []
    if not sel.feasible:
        problems.append("selection is infeasible")
    if sel.error > C08_EPS + 1e-12:
        problems.append(f"validation error {sel.error} > {C08_EPS}")
    family = harden(_model(result, sel.mu_star), sel.t_star)
    chunks = [evaluate(family, part) for part in holdout]
    quality = {
        "test_coverage": statistics.fmean(m.coverage for m in chunks),
        "test_error": statistics.fmean(m.raw_error for m in chunks),
        "split_coverage": result.test_metrics.coverage,
        "split_error": result.test_metrics.raw_error,
    }
    return Checked(fingerprint, quality, problems)


class Workload:
    """A workload.  ``setup(seed, run_dir)`` builds every input set,
    ``run(state, j)`` is the timed operation on input set ``j``, and
    ``check(state, j, result)`` judges its outputs as a `Checked`.
    """

    name: str
    distinct: int  # input sets drawn from one seed
    params: dict  # recorded with every result

    def final_checks(self, state: dict, firsts: list) -> list:
        """Problems with the run as a whole, given each input's first outcome."""
        return []


class PipelineWorkload(Workload):
    """One `run_pipeline` call per operation, on configs built in set-up."""

    def run(self, state: dict, j: int):
        from onesided import run_pipeline

        return run_pipeline(state["configs"][j])


class MixtureK2(PipelineWorkload):
    """The acceptance c08 run: two-class mixture, six mu, 40 epochs."""

    name = "mixture_k2"
    distinct = 11
    params = {
        "n": 6000, "separation": 3.0, "split": [0.6, 0.2, 0.2], "backbone": [2, 16, 8],
        "mu_grid": "quick_mu_grid(6)", "epochs": 40, "warm_start_epochs": 15,
        "batch_size": 128, "lr_min": 0.02, "lr_max": 0.05, "lr_decay": [0.1, 1000],
        "backbone_update_interval": 4, "thresholds": 100, "target_error": C08_EPS,
        "workers": 1, "distinct_inputs": distinct,
    }

    def setup(self, seed: int, run_dir: Path) -> dict:
        from onesided import BackboneSpec, RunConfig, SelectionCriterion, SyntheticSpec
        from onesided import quick_mu_grid, two_class_mixture
        from onesided.train import TrainConfig

        mixture = two_class_mixture(separation=3.0)
        train = TrainConfig(
            mu=1.0, epochs=40, batch_size=128, lr_min=0.02, lr_max=0.05,
            lr_decay=(0.1, 1000), backbone_update_interval=4, warm_start_epochs=15,
        )
        configs = []
        for j in range(self.distinct):
            s = derived_seed(seed, j)
            configs.append(RunConfig(
                seed=s,
                out_dir=str(run_dir / f"input{j}"),
                synthetic=SyntheticSpec(kind="mixture", n=6000, seed=100 + s, mixture=mixture),
                backbone=BackboneSpec((2, 16, 8)),
                train=train,
                criterion=SelectionCriterion.error_constrained(C08_EPS),
                mu_grid=tuple(quick_mu_grid(6)),
                workers=1,
            ))
        fresh = holdout("mixture", seed, mixture=mixture)
        return {"configs": configs, "holdout": fresh, "mixture": mixture}

    def check(self, state: dict, j: int, result) -> Checked:
        return _pipeline_outcome(result, state["holdout"])

    def final_checks(self, state: dict, firsts: list) -> list:
        """The c08 floors on the test splits, on medians over the inputs as c08 does."""
        from onesided import mixture_oracle_coverage

        err = statistics.median(c.quality["split_error"] for c in firsts)
        cov = statistics.median(c.quality["split_coverage"] for c in firsts)
        floor = 0.85 * mixture_oracle_coverage(state["mixture"], C08_EPS, grid_size=600)
        problems = []
        if err > 0.03:
            problems.append(f"median test error {err} > 0.03")
        if cov < floor:
            problems.append(f"median test coverage {cov} < {floor}")
        return problems


class BlobsK10(PipelineWorkload):
    """Ten-class blobs with a coverage-error curve over large val and test splits."""

    name = "blobs_k10"
    distinct = 5
    curve_targets = (0.01, 0.02, 0.05, 0.1, 0.2)
    params = {
        "n": 24000, "classes": 10, "separation": 3.0, "spread": 0.6, "split": [0.2, 0.4, 0.4],
        "backbone": [2, 32, 16], "mu_grid": "quick_mu_grid(6)", "epochs": 10,
        "warm_start_epochs": 10, "lr_min": 0.02, "thresholds": 100, "target_error": C08_EPS,
        "curve_targets": list(curve_targets), "workers": 1, "distinct_inputs": distinct,
    }

    def setup(self, seed: int, run_dir: Path) -> dict:
        from onesided import BackboneSpec, BlobsParams, RunConfig, SelectionCriterion
        from onesided import SyntheticSpec, quick_mu_grid, split_dataset, synthesize
        from onesided.train import TrainConfig

        blobs = BlobsParams(num_classes=10, dim=2, separation=3.0, spread=0.6)
        configs, vals = [], []
        for j in range(self.distinct):
            s = derived_seed(seed, j)
            config = RunConfig(
                seed=s,
                out_dir=str(run_dir / f"input{j}"),
                synthetic=SyntheticSpec(kind="blobs", n=24000, seed=100 + s, blobs=blobs),
                split_fractions=(0.2, 0.4, 0.4),
                backbone=BackboneSpec((2, 32, 16)),
                train=TrainConfig(mu=1.0, epochs=10, warm_start_epochs=10, lr_min=0.02),
                criterion=SelectionCriterion.error_constrained(C08_EPS),
                mu_grid=tuple(quick_mu_grid(6)),
                curve_targets=self.curve_targets,
                workers=1,
            )
            configs.append(config)
            data = synthesize(config.synthetic)
            vals.append(split_dataset(data, config.split_fractions, config.split_seed)[1])
        fresh = holdout("blobs", seed, blobs=blobs)
        return {"configs": configs, "vals": vals, "holdout": fresh, "seed": seed}

    def check(self, state: dict, j: int, result) -> Checked:
        """A sampled grid cell must equal a direct evaluation of its model."""
        import numpy as np
        from onesided import evaluate, harden

        checked = _pipeline_outcome(result, state["holdout"], extra_files=("curve.csv",))
        grid = result.selection.grid
        rng = np.random.default_rng([state["seed"], j])
        i = int(rng.integers(len(grid.mu_values)))
        k = int(rng.integers(len(grid.t_values)))
        model = _model(result, grid.mu_values[i])
        direct = evaluate(harden(model, grid.t_values[k]), state["vals"][j])
        if direct.coverage != grid.coverage[i, k] or abs(direct.raw_error - grid.error[i, k]) > 1e-12:
            checked.problems.append(
                f"grid cell (mu={grid.mu_values[i]}, t={grid.t_values[k]}) reads "
                f"({grid.coverage[i, k]}, {grid.error[i, k]}) but direct evaluation gives "
                f"({direct.coverage}, {direct.raw_error})"
            )
        return checked


def _instance_class(kind, x, num_classes):
    """The c03 candidate classes, thinned to a size the exhaustive solver takes."""
    import numpy as np
    from onesided import FiniteHypothesisClass, canonical_cuts

    all_cuts = canonical_cuts(x)

    def pick(m):
        return all_cuts[np.unique(np.linspace(0, len(all_cuts) - 1, m).astype(int))]

    if kind == "upper":
        return FiniteHypothesisClass.upper_thresholds(pick({2: 60, 3: 40, 4: 24}[num_classes]))
    if kind == "lower":
        return FiniteHypothesisClass.lower_thresholds(pick({2: 60, 3: 40, 4: 24}[num_classes]))
    if kind == "union":
        m = {2: 30, 3: 20, 4: 12}[num_classes]
        return FiniteHypothesisClass.union(
            FiniteHypothesisClass.upper_thresholds(pick(m)),
            FiniteHypothesisClass.lower_thresholds(pick(m)),
        )
    return FiniteHypothesisClass.intervals(pick({2: 12, 3: 9, 4: 7}[num_classes]))


class OracleSweep(Workload):
    """Exact solvers only: the c02 joint solve, the c10 trend, c03 instances."""

    name = "oracle_sweep"
    distinct = 4
    sc_eps = (0.01, 0.04)
    params = {
        "sc_n": 100_000, "sc_candidates": 402, "sc_eps": list(sc_eps),
        "trend": {"eps": 0.02, "sizes": [100, 1000, 10000], "seeds_per_size": 5},
        "instances": "36 c03 combos: K in (2,3,4) x eps in (0.02,0.05,0.1) x 4 classes, n in [40,200]",
        "distinct_inputs": distinct,
    }

    def setup(self, seed: int, run_dir: Path) -> dict:
        import itertools

        import numpy as np
        from onesided import FiniteHypothesisClass, LabeledDataset, budget_alpha_grid
        from onesided import sample_analytic_example

        cuts = np.linspace(0.0, 1.0, 201)
        hclass = FiniteHypothesisClass.union(
            FiniteHypothesisClass.upper_thresholds(cuts),
            FiniteHypothesisClass.lower_thresholds(cuts),
        )
        combos = list(itertools.product((2, 3, 4), (0.02, 0.05, 0.1), ("upper", "lower", "union", "intervals")))
        inputs = []
        for j in range(self.distinct):
            s = derived_seed(seed, j)
            rng = np.random.default_rng([s, 3])
            instances = []
            for idx, (num_classes, eps, kind) in enumerate(combos):
                n = int(rng.integers(40, 201))
                x = rng.uniform(0.0, 1.0, n)
                if idx % 2 == 0:
                    qs = np.quantile(x, np.linspace(0.0, 1.0, num_classes + 1)[1:-1])
                    labels = np.digitize(x, qs)
                    flip = rng.random(n) < 0.1
                    labels[flip] = rng.integers(0, num_classes, int(flip.sum()))
                else:
                    labels = rng.integers(0, num_classes, n)
                data = LabeledDataset(x[:, None], labels, num_classes)
                alphas = budget_alpha_grid(eps, n, num_classes)
                instances.append((data, _instance_class(kind, x, num_classes), eps, alphas))
            inputs.append({
                "train": sample_analytic_example(100_000, seed=2 * s),
                "test": sample_analytic_example(100_000, seed=2 * s + 1),
                "trend_seed": 10_000_000 * s,
                "instances": instances,
            })
        return {"hclass": hclass, "inputs": inputs}

    def run(self, state: dict, j: int):
        from onesided import erm_feasibility_trend, solve_osp_decoupled, solve_sc_exact

        inp = state["inputs"][j]
        sc = [solve_sc_exact(inp["train"], state["hclass"], eps) for eps in self.sc_eps]
        trend = erm_feasibility_trend(0.02, (100, 1000, 10000), 5, base_seed=inp["trend_seed"])
        pairs = [
            (solve_sc_exact(d, h, eps), solve_osp_decoupled(d, h, eps, alpha_grid=alphas))
            for d, h, eps, alphas in inp["instances"]
        ]
        return sc, trend, pairs

    def check(self, state: dict, j: int, result) -> Checked:
        from onesided import evaluate

        sc, trend, pairs = result
        inp = state["inputs"][j]
        problems = []
        for eps, sol in zip(self.sc_eps, sc):
            dev = abs(sol.value - 2.0 * math.sqrt(eps))
            if dev > 0.02:
                problems.append(f"c02 deviation {dev} > 0.02 at eps={eps}")
        for idx, ((data, _, eps, _), (exact, dec)) in enumerate(zip(inp["instances"], pairs)):
            if (dec.family.membership(data.features).sum(axis=1) > 1).any():
                problems.append(f"instance {idx}: decoupled sets overlap")
            if evaluate(dec.family, data).raw_error > eps + 1e-9:
                problems.append(f"instance {idx}: decoupled solution exceeds eps={eps}")
            if dec.value < exact.value - 2.0 * eps - 1e-9:
                problems.append(f"instance {idx}: decoupled {dec.value} < exact {exact.value} - 2 eps")
        held_out = evaluate(sc[-1].family, inp["test"])
        fingerprint = repr((
            [(s.value, s.chosen_indices) for s in sc],
            [(r.n, r.coverage_deviation, r.constraint_violation) for r in trend],
            [(e.value, e.chosen_indices, d.value, d.chosen_indices) for e, d in pairs],
        )).encode()
        quality = {"test_coverage": held_out.coverage, "test_error": held_out.raw_error}
        return Checked(fingerprint, quality, problems)


WORKLOADS = {w.name: w for w in (MixtureK2(), BlobsK10(), OracleSweep())}
