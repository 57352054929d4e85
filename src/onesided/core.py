"""Domain types for selective classification.

A selective classifier is a family of per-class decision sets; a point
falling in set k is predicted as class k, a point in no set is rejected.
This module holds the dataset and decision-set containers plus the
empirical coverage/error metrics everything else is measured with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

REJECT = -1


class InputError(ValueError):
    """Bad user-supplied data, dimensions, or parameter values."""


class CapacityError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap."""


class NumericError(ArithmeticError):
    """A computed quantity became non-finite."""


class FormatError(InputError):
    """A serialized payload is truncated, malformed, or incompatible."""


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable array-backed sample of labeled points.

    Labels are 0-indexed whole numbers in ``[0, num_classes)``; a label
    that is not a number, not finite or not whole (``'1'``, ``nan``,
    ``1.7``) is refused with an :class:`InputError` naming it, and
    whole-valued floats such as ``1.0`` load as integers.  Features are
    stored as float64 and labels in the narrowest signed integer type
    that holds ``num_classes - 1`` (int8 up to 128 classes, int16 up to
    32,768); a subset keeps that type.  Both arrays are copies, marked
    read-only.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        labs = _whole_labels(self.labels)
        if feats.ndim != 2:
            raise InputError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[0] != labs.shape[0]:
            raise InputError(
                f"{feats.shape[0]} feature rows vs {labs.shape[0]} labels"
            )
        _count(self.num_classes, 1, "num_classes")
        if labs.size and (labs.min() < 0 or labs.max() >= self.num_classes):
            raise InputError(
                f"labels must lie in [0, {self.num_classes}), "
                f"saw range [{labs.min()}, {labs.max()}]"
            )
        self._keep(feats.copy(), labs.astype(class_index_type(self.num_classes)))

    def _keep(self, feats: np.ndarray, labs: np.ndarray) -> None:
        """Store arrays no one else holds, marked read-only."""
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """The rows at ``indices``, positions or a boolean mask, in that order.

        Indexing already copies the rows, and rows of a checked dataset
        need no checks, so they are stored as indexed: copied once.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise InputError(f"subset indices must be 1-D, got shape {idx.shape}")
        out = object.__new__(LabeledDataset)
        object.__setattr__(out, "num_classes", self.num_classes)
        out._keep(self.features[idx], self.labels[idx])
        return out

    def check_classes(self, num_classes: int) -> None:
        """The class-count rule: only a ``num_classes``-class classifier reads this data."""
        if num_classes != self.num_classes:
            raise InputError(
                f"classifier has {num_classes} classes but the data has {self.num_classes}"
            )


def _seed(seed):
    """The seed rule: a seed is a whole number >= 0.  Returns it."""
    if not isinstance(seed, numbers.Integral):
        raise InputError(f"seed must be a whole number, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return seed


def _count(value, least: int, name: str) -> int:
    """The count rule: a whole number (not a bool) of at least ``least``.  Returns it as an int."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise InputError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _fraction(value, name: str) -> float:
    """The [0, 1] rule: a real number (not a bool) in [0, 1], so finite.  Returns it as a float."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 <= value <= 1):
        raise InputError(f"{name} must be a number in [0, 1], got {value!r}")
    return float(value)


def _threshold(t, name: str = "threshold") -> float:
    """The finite rule (thresholds, rates): a finite real number, not a bool.  Returns a float."""
    if isinstance(t, bool) or not (isinstance(t, numbers.Real) and math.isfinite(t)):
        raise InputError(f"{name} must be a finite number, got {t!r}")
    return float(t)


def _positive(value, name: str):
    """The positive rule: a finite real number (not a bool) above 0.  Returns it as given."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Real) and 0 < value < math.inf
    ):
        raise InputError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _prices(mu_grid, key: str) -> tuple[float, ...]:
    """The price rule: one or more finite nonnegative real numbers (not bools), as floats.

    Errors name ``key`` and show each real price as a float, so a caller
    that stores prices in an array says the same as one that does not.
    """
    mus = tuple(
        float(m) if isinstance(m, numbers.Real) and not isinstance(m, bool) else m
        for m in mu_grid
    )
    if not mus or not all(type(m) is float and 0.0 <= m < math.inf for m in mus):
        raise InputError(f"{key} needs one or more finite nonnegative prices, got {mus}")
    return mus


def _class_index(k, num_classes: int) -> int:
    """The class-index rule: a count ``k`` below ``num_classes``.  Returns it as an int."""
    k = _count(k, 0, "k")
    if k >= num_classes:
        raise InputError(f"class index {k} outside [0, {num_classes})")
    return k


def array_fits(*shape: int) -> bool:
    """Whether numpy can hold a float64 array of ``shape``: its byte count fits in intp."""
    return math.prod(map(int, shape)) * 8 <= np.iinfo(np.intp).max


def class_index_type(num_classes: int) -> np.dtype:
    """The narrowest signed integer type holding every class index and ``REJECT``."""
    return np.min_scalar_type(-num_classes)


def _whole_labels(labels) -> np.ndarray:
    """``labels`` as a flat array of exact whole numbers, or an :class:`InputError`.

    Integer and boolean arrays pass as they are.  Any other label must be
    a finite whole real number, and the first one that is not is named.
    """
    labs = np.asarray(labels).ravel()
    if labs.dtype.kind in "biu":
        return labs
    if labs.dtype.kind == "f":
        whole = np.isfinite(labs) & (np.floor(labs) == labs)
    else:
        whole = np.array([_is_whole(v) for v in labs.tolist()], dtype=bool)
    if not whole.all():
        i = int(np.argmin(whole))
        bad = labs[i : i + 1].tolist()[0]
        raise InputError(f"labels must be whole numbers, saw {bad!r} at index {i}")
    return labs


def _is_whole(value) -> bool:
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )


@dataclass(frozen=True)
class DecisionSetFamily:
    """K membership predicates over feature space.

    ``member_fn`` maps an ``(n, dim)`` batch to an ``(n, K)`` boolean
    membership matrix.
    """

    member_fn: Callable[[np.ndarray], np.ndarray]
    num_sets: int
    dim: int

    def membership(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise InputError(
                f"family expects dim {self.dim}, got points of dim {X.shape[1]}"
            )
        M = np.asarray(self.member_fn(X), dtype=bool)
        if M.shape != (X.shape[0], self.num_sets):
            raise InputError(
                f"membership returned shape {M.shape}, "
                f"expected {(X.shape[0], self.num_sets)}"
            )
        return M

    @classmethod
    def from_predicates(
        cls,
        predicates: Sequence[Callable[[np.ndarray], np.ndarray]],
        dim: int,
    ) -> "DecisionSetFamily":
        preds = tuple(predicates)
        if not preds:
            raise InputError("a decision-set family needs at least one set")

        def member(X: np.ndarray) -> np.ndarray:
            return np.column_stack(
                [np.asarray(p(X), dtype=bool).ravel() for p in preds]
            )

        return cls(member, len(preds), dim)


@dataclass(frozen=True)
class Metrics:
    """Empirical selective-classification metrics on one dataset."""

    coverage: float
    raw_error: float
    per_class_one_sided_error: np.ndarray


def assign(family: DecisionSetFamily, X: np.ndarray) -> np.ndarray:
    """Vectorized classification: class index per row, ``REJECT`` outside all sets.

    Overlaps resolve toward the smallest class index.  Indices come in
    :func:`class_index_type` of the family's set count, the type of a
    dataset's labels: one byte per row up to 128 sets.
    """
    M = family.membership(X)
    a = np.full(M.shape[0], REJECT, dtype=class_index_type(family.num_sets))
    # the smallest index writes last, so it wins an overlap
    for k in range(family.num_sets - 1, -1, -1):
        np.copyto(a, k, where=M[:, k])
    return a


def evaluate(family: DecisionSetFamily, data: LabeledDataset) -> Metrics:
    """Empirical coverage, raw error, and per-class one-sided errors.

    ``per_class_one_sided_error[k]`` is the fraction of points assigned to
    set k (after tie-breaking) whose label is not k; the raw error is the
    fraction predicted at all and predicted wrongly.
    """
    if data.n == 0:
        raise InputError("cannot evaluate on an empty dataset")
    data.check_classes(family.num_sets)
    a = assign(family, data.features)
    covered = a != REJECT
    coverage = float(np.mean(covered))
    # class indices and labels share their narrow type: no widening copy
    wrong = np.not_equal(a, data.labels)
    wrong &= covered
    raw_error = float(np.mean(wrong))
    # each class's wrong rows, counted from their sorted indices: bincount
    # would first widen them to intp
    classes = np.arange(data.num_classes, dtype=a.dtype)
    ends = np.sort(a[wrong]).searchsorted(classes, "right")
    per_class = np.diff(ends, prepend=0) / data.n
    return Metrics(coverage, raw_error, per_class)
