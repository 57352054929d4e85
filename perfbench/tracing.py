"""Spans around the public calls of each `onesided` layer, recorded from outside.

`Tracer.recording` swaps every target function (and method) for a wrapper
that records a span ``(name, start, end, parent, run_id)`` and restores
the originals on exit.  The package imports names with ``from .x import
y``, so a function is replaced in every ``onesided`` module that holds it,
not only where it is defined.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (span name, module, attribute); "Class.method" patches the class attribute.
TARGETS = (
    ("data.synthesize", "onesided.data", "synthesize"),
    ("data.split", "onesided.data", "split_dataset"),
    ("core.subset", "onesided.core", "LabeledDataset.subset"),
    ("core.evaluate", "onesided.core", "evaluate"),
    ("net.warm_start", "onesided.net", "warm_start"),
    ("net.backward", "onesided.net", "backward"),
    ("net.forward_batch", "onesided.net", "forward_batch"),
    ("net.serialize", "onesided.net", "serialize"),
    ("net.deserialize", "onesided.net", "deserialize"),
    ("train.sgda_train", "onesided.train", "sgda_train"),
    ("train.loss", "onesided.train", "LagrangianLoss.value_and_grad"),
    ("select.evaluate_grid", "onesided.select", "evaluate_grid"),
    ("select.pick", "onesided.select", "pick_error_constrained"),
    ("select.pick", "onesided.select", "pick_coverage_constrained"),
    ("evaluation.curve", "onesided.evaluation", "coverage_error_curve"),
    ("evaluation.osp_overlap", "onesided.evaluation", "osp_overlap"),
    ("oracle.membership_matrix", "onesided.oracle", "FiniteHypothesisClass.membership_matrix"),
    ("oracle.solve_sc_exact", "onesided.oracle", "solve_sc_exact"),
    ("oracle.solve_osp_exact", "onesided.oracle", "solve_osp_exact"),
    ("oracle.solve_osp_decoupled", "onesided.oracle", "solve_osp_decoupled"),
    ("oracle.trend", "onesided.oracle", "erm_feasibility_trend"),
    ("pipeline.run", "onesided.pipeline", "run_pipeline"),
)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _pick_counts(a, r) -> dict:
    grid = a["grid"]
    if "eps" in a:
        useful = int((grid.error <= float(a["eps"])).sum())
    else:
        useful = int((grid.coverage >= float(a["rho"])).sum())
    return {"select.useful_cells": useful, "select.picked_cells": grid.num_cells}


# Counts taken from a call's bound arguments and result after its span ends.
HOOKS = {
    "net.serialize": lambda a, r: {"net.model_bytes": len(r)},
    "train.sgda_train": lambda a, r: {"train.absent_fit": int(sum(r[2].final().absent_fit))},
    "select.evaluate_grid": lambda a, r: {"select.cells": r.num_cells},
    "select.pick": _pick_counts,
    "oracle.membership_matrix": lambda a, r: {"oracle.membership_bytes": r.nbytes},
    "oracle.solve_sc_exact": lambda a, r: {"oracle.sc_tuples": a["hclass"].size ** a["data"].num_classes},
    "pipeline.run": lambda a, r: {"pipeline.bytes_written": _dir_bytes(r.out_dir)},
}


# Per-layer metrics that are totals, reported per traced operation.
_SUMMED = (
    "data.synthesize_s", "data.split_s",
    "core.subset.calls", "core.subset_s", "core.evaluate.calls", "core.evaluate_s",
    "net.warm_start_s", "net.backward.calls", "net.backward_s", "net.backward_self_s",
    "net.forward_batch.calls", "net.forward_batch_s", "net.model_bytes",
    "train.sgda_train.calls", "train.sgda_train_s", "train.sgda_train_self_s",
    "train.loss.calls", "train.loss_s", "train.record_s", "train.steps", "train.absent_fit",
    "select.evaluate_grid.calls", "select.evaluate_grid_s", "select.cells", "select.pick_s",
    "evaluation.curve_s", "evaluation.curve_self_s", "evaluation.osp_overlap_s",
    "oracle.membership_matrix.calls", "oracle.membership_matrix_s",
    "oracle.solve_sc_exact_s", "oracle.sc_tuples",
    "oracle.solve_osp_exact.calls", "oracle.solve_osp_exact_s",
    "oracle.solve_osp_decoupled_s", "oracle.trend_s",
    "pipeline.run_s", "pipeline.self_s", "pipeline.bytes_written",
)
_ALIASES = {"train.steps": "train.loss.calls", "pipeline.self_s": "pipeline.run_self_s"}


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, run_id)
        self.counters: dict = defaultdict(int)
        self.missing: list = []
        self._stack: list = []
        self._run_id = ""

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._run_id)
            if hook is not None:
                for key, amount in hook(sig.bind(*args, **kwargs).arguments, result).items():
                    counters[key] += amount
            return result

        return traced

    def _patches(self) -> list:
        """(owner, attribute, original, wrapper) for every place a target lives."""
        mods = [m for n, m in sys.modules.items() if n == "onesided" or n.startswith("onesided.")]
        patches = []
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            original = owner.__dict__.get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if "." in attr:
                patches.append((owner, leaf, original, wrapper))
                continue
            for mod in mods:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    @contextmanager
    def recording(self, run_id: str):
        """Trace every target call made inside the block under ``run_id``."""
        self._run_id = run_id
        self.missing = []
        patches = self._patches()
        for owner, key, _, wrapper in patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in patches:
                setattr(owner, key, original)

    def layer_metrics(self, traced_walls: list) -> dict:
        """Per-layer metrics, each averaged over the traced operations.

        A span's self time is its duration minus its children's; children
        of one span never overlap, because every call here is synchronous.
        ``traced_walls`` are the operations' wall times measured outside.
        """
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, dur):
            if parent >= 0:
                child[parent] += d
        t: dict = defaultdict(float)
        for (name, _, _, parent, _), d, c in zip(self.spans, dur, child):
            t[name + ".calls"] += 1
            t[name + "_s"] += d
            t[name + "_self_s"] += d - c
            if parent < 0:
                t["top_level_s"] += d
            elif name == "net.forward_batch" and self.spans[parent][0] == "train.sgda_train":
                t["train.record_s"] += d
        t.update(self.counters)
        steps = t["train.loss.calls"]
        ops = len(traced_walls)
        per_op = {name: t[_ALIASES.get(name, name)] / ops for name in _SUMMED}
        per_op["net.serialize_s"] = (t["net.serialize_s"] + t["net.deserialize_s"]) / ops
        per_op["oracle.membership_mb"] = t["oracle.membership_bytes"] / 1e6 / ops
        per_op["train.step_us"] = (
            1e6 * (t["train.sgda_train_s"] - t["train.record_s"]) / steps if steps else 0.0
        )
        per_op["select.feasible_cells_frac"] = (
            t["select.useful_cells"] / t["select.picked_cells"] if t["select.picked_cells"] else 0.0
        )
        per_op["trace.top_level_frac"] = t["top_level_s"] / sum(traced_walls)
        return per_op

    def write(self, path: Path) -> None:
        """Dump every span as ``[name, start, end, parent, run_id]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"], "spans": self.spans}, fh)
