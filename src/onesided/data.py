"""Dataset synthesis, CSV ingestion, and deterministic splitting.

Synthetic sources cover the closed-form 1-D example, Gaussian mixtures
with a computable posterior (so selective-coverage oracles exist), and
well-separated blobs for quick smoke runs.  The CSV format is a header
``f0,...,f{d-1},label`` followed by decimal feature columns and an
integer label column.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FormatError, InputError, LabeledDataset, _count, _fraction, _seed, array_fits
from .oracle import sample_analytic_example

_KINDS = ("analytic", "mixture", "blobs")


@dataclass(frozen=True)
class MixtureParams:
    """Gaussian mixture: one mean, covariance, and prior per class."""

    means: tuple[tuple[float, ...], ...]
    covariances: tuple[tuple[tuple[float, ...], ...], ...]
    priors: tuple[float, ...]

    def __post_init__(self) -> None:
        arrays = []
        for name in ("means", "covariances", "priors"):
            try:
                arrays.append(np.asarray(getattr(self, name), dtype=np.float64))
            except (TypeError, ValueError) as exc:
                raise InputError(f"{name} must be a rectangular array of numbers: {exc}")
            if not np.isfinite(arrays[-1]).all():
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        means, covs, priors = arrays
        if means.ndim != 2:
            raise InputError(f"means must be (K, d), got shape {means.shape}")
        K, d = means.shape
        if covs.shape != (K, d, d):
            raise InputError(
                f"covariances must have shape {(K, d, d)}, got {covs.shape}"
            )
        if priors.shape != (K,):
            raise InputError(f"priors must have shape ({K},), got {priors.shape}")
        if np.any(priors < 0.0) or abs(priors.sum() - 1.0) > 1e-9:
            raise InputError("priors must be nonnegative and sum to 1")
        for k in range(K):
            if not np.allclose(covs[k], covs[k].T, atol=1e-12):
                raise InputError(f"covariance {k} is not symmetric")
            try:
                np.linalg.cholesky(covs[k])
            except np.linalg.LinAlgError:
                raise InputError(f"covariance {k} is not positive definite")
        to_tuple = lambda a: tuple(map(tuple, a))
        object.__setattr__(self, "means", to_tuple(means))
        object.__setattr__(
            self, "covariances", tuple(to_tuple(c) for c in covs)
        )
        object.__setattr__(self, "priors", tuple(float(p) for p in priors))

    @property
    def num_classes(self) -> int:
        return len(self.priors)

    @property
    def dim(self) -> int:
        return len(self.means[0])

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.means, dtype=np.float64),
            np.asarray(self.covariances, dtype=np.float64),
            np.asarray(self.priors, dtype=np.float64),
        )


@dataclass(frozen=True)
class BlobsParams:
    """Spherical Gaussian blobs with means spread on a circle."""

    num_classes: int = 3
    dim: int = 2
    separation: float = 4.0
    spread: float = 1.0

    def __post_init__(self) -> None:
        _count(self.num_classes, 2, "num_classes")
        _count(self.dim, 1, "dim")
        for name in ("separation", "spread"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InputError(f"blobs {name} must be positive and finite, got {value}")
        if not array_fits(self.num_classes, self.dim):
            raise InputError(
                f"blobs num_classes={self.num_classes} and dim={self.dim} give "
                "means too large for one array"
            )

    def means(self) -> np.ndarray:
        K = self.num_classes
        out = np.zeros((K, self.dim))
        angles = 2.0 * np.pi * np.arange(K) / K
        out[:, 0] = self.separation * np.cos(angles)
        if self.dim >= 2:
            out[:, 1] = self.separation * np.sin(angles)
        return out


@dataclass(frozen=True)
class SyntheticSpec:
    """A named synthetic source plus sample size and seed, with only its kind's parameters."""

    kind: str
    n: int
    seed: int
    mixture: MixtureParams | None = None
    blobs: BlobsParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(
                f"synthetic kind must be one of {_KINDS}, got {self.kind!r}"
            )
        _count(self.n, 1, "n")
        _seed(self.seed)
        for section in ("mixture", "blobs"):
            if section != self.kind and getattr(self, section) is not None:
                raise InputError(f"a {self.kind} source reads no {section} section")
        if self.kind == "mixture" and self.mixture is None:
            raise InputError("mixture synthesis needs mixture parameters")
        if self.kind == "blobs" and self.blobs is None:
            object.__setattr__(self, "blobs", BlobsParams())
        dim = 1 if self.kind == "analytic" else getattr(self, self.kind).dim
        if not array_fits(self.n, dim):
            raise InputError(
                f"sample size n={self.n} is too large for one array of "
                f"{dim} float64 features per point"
            )


def synthesize(spec: SyntheticSpec) -> LabeledDataset:
    """Draw a dataset from the named source, deterministic in the seed."""
    if spec.kind == "analytic":
        return sample_analytic_example(spec.n, spec.seed)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "mixture":
        means, covs, priors = spec.mixture.arrays()
        K, d = means.shape
        labels = rng.choice(K, size=spec.n, p=priors)
        X = np.empty((spec.n, d))
        for k in range(K):
            rows = np.flatnonzero(labels == k)
            if rows.size == 0:
                continue
            L = np.linalg.cholesky(covs[k])
            X[rows] = means[k] + rng.standard_normal((rows.size, d)) @ L.T
        return LabeledDataset(X, labels, K)
    blobs = spec.blobs
    means = blobs.means()
    labels = rng.integers(0, blobs.num_classes, size=spec.n)
    X = means[labels] + blobs.spread * rng.standard_normal((spec.n, blobs.dim))
    return LabeledDataset(X, labels, blobs.num_classes)


def _mixture_log_joint(params: MixtureParams, X: np.ndarray) -> np.ndarray:
    """log(prior_k * density_k(x)) for each point and class."""
    means, covs, priors = params.arrays()
    K, d = means.shape
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != d:
        raise InputError(f"mixture has dim {d}, got points of dim {X.shape[1]}")
    out = np.empty((X.shape[0], K))
    for k in range(K):
        L = np.linalg.cholesky(covs[k])
        diff = X - means[k]
        z = np.linalg.solve(L, diff.T)
        quad = (z**2).sum(axis=0)
        logdet = 2.0 * np.log(np.diag(L)).sum()
        out[:, k] = (
            np.log(priors[k])
            - 0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)
            if priors[k] > 0.0
            else -np.inf
        )
    return out


def mixture_posterior(params: MixtureParams, X: np.ndarray) -> np.ndarray:
    """Class posterior eta_k(x) for each point, rows summing to 1."""
    lj = _mixture_log_joint(params, X)
    lj -= lj.max(axis=1, keepdims=True)
    w = np.exp(lj)
    return w / w.sum(axis=1, keepdims=True)


def mixture_oracle_coverage(
    params: MixtureParams,
    eps: float,
    grid_size: int = 400,
) -> float:
    """Best selective coverage at raw-error budget eps for a known mixture.

    Accepting points in decreasing posterior confidence maximizes
    coverage per unit of error, so the optimum is a confidence
    superlevel set.  Dense-grid integration over a box holding all the
    component mass (means plus 6 standard deviations) with the
    cell masses renormalized to 1; only 2-D mixtures are supported.
    """
    eps = _fraction(eps, "eps")
    _count(grid_size, 2, "grid_size")
    means, covs, _ = params.arrays()
    if means.shape[1] != 2:
        raise InputError("oracle coverage integration supports dim 2 only")
    sds = np.sqrt(np.array([np.diag(c) for c in covs]))
    lo = (means - 6.0 * sds).min(axis=0)
    hi = (means + 6.0 * sds).max(axis=0)
    xs = np.linspace(lo[0], hi[0], grid_size)
    ys = np.linspace(lo[1], hi[1], grid_size)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    lj = _mixture_log_joint(params, pts)
    m = lj.max(axis=1, keepdims=True)
    density = np.exp(m.ravel()) * np.exp(lj - m).sum(axis=1)
    mass = density / density.sum()
    post = np.exp(lj - m)
    post /= post.sum(axis=1, keepdims=True)
    cost = mass * (1.0 - post.max(axis=1))
    order = np.argsort(1.0 - post.max(axis=1), kind="stable")
    cum_cost = np.cumsum(cost[order])
    cum_mass = np.cumsum(mass[order])
    within = cum_cost <= eps
    if not within.any():
        return 0.0
    last = int(np.flatnonzero(within)[-1])
    coverage = cum_mass[last]
    # Fractional inclusion of the first cell past the budget keeps the
    # estimate from undershooting by one whole cell.
    if last + 1 < len(order):
        spent = cum_cost[last]
        nxt = order[last + 1]
        if cost[nxt] > 0.0:
            frac = min(1.0, (eps - spent) / cost[nxt])
            coverage += frac * mass[nxt]
        else:
            coverage += mass[nxt]
    return float(min(coverage, 1.0))


def two_class_mixture(separation: float = 2.0) -> MixtureParams:
    """Symmetric 2-D two-component mixture with identity covariances."""
    if not separation > 0.0:  # MixtureParams refuses inf
        raise InputError("separation must be positive")
    h = separation / 2.0
    eye = ((1.0, 0.0), (0.0, 1.0))
    return MixtureParams(
        means=((-h, 0.0), (h, 0.0)),
        covariances=(eye, eye),
        priors=(0.5, 0.5),
    )


def ingest_csv(path: str | Path, num_classes: int | None = None) -> LabeledDataset:
    """Load a dataset from a headered CSV with a trailing label column.

    Features must be finite.  The class count is ``num_classes`` when given,
    so a file may lack the highest labels; a label at or above it is a
    format error.  Without it the count is the largest label plus one.
    """
    path = Path(path)
    try:
        # decoded whole, so that a bad byte's offset is its offset in the file
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not valid UTF-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise InputError(f"{path} is empty")
    header = rows[0]
    if len(header) < 2 or header[-1].strip() != "label":
        raise FormatError(
            f"{path} line 1: header must end with a 'label' column"
        )
    dim = len(header) - 1
    feats = []
    labels = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != dim + 1:
            raise FormatError(
                f"{path} line {line_no}: expected {dim + 1} fields, got {len(row)}"
            )
        try:
            values = [float(cell) for cell in row[:-1]]
        except ValueError:
            raise FormatError(
                f"{path} line {line_no}: non-numeric feature value"
            )
        if not np.isfinite(values).all():
            raise FormatError(f"{path} line {line_no}: non-finite feature value")
        feats.append(values)
        cell = row[-1].strip()
        try:
            label = int(cell)
        except ValueError:
            raise FormatError(
                f"{path} line {line_no}: label {cell!r} is not an integer"
            )
        if label < 0:
            raise FormatError(
                f"{path} line {line_no}: label {label} is negative"
            )
        if num_classes is not None and label >= num_classes:
            raise FormatError(
                f"{path} line {line_no}: label {label} outside [0, {num_classes})"
            )
        labels.append(label)
    if not feats:
        raise InputError(f"{path} has a header but no data rows")
    labels = np.array(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return LabeledDataset(np.array(feats), labels, num_classes)


def write_csv(data: LabeledDataset, path: str | Path) -> None:
    """Write a dataset in the ingestible CSV format, round-trip exact."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(data.dim)] + ["label"])
        for x, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def _split_fractions(fractions) -> tuple[float, ...]:
    """The split rule: three positive finite fractions summing to 1."""
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3 or not all(0.0 < f < math.inf for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise InputError(
            f"split_fractions must be three positive finite numbers summing to 1, got {fr}"
        )
    return fr


def split_indices(
    n: int, fractions: tuple[float, float, float], seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled index partition of [0, n) into train/val/test blocks."""
    fr = _split_fractions(fractions)
    _count(seed, 0, "split_seed")
    if n < 3:
        raise InputError(f"cannot three-way split {n} points")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fr[0] * n))
    n_val = int(round((fr[0] + fr[1]) * n)) - n_train
    n_train = max(1, min(n_train, n - 2))
    n_val = max(1, min(n_val, n - n_train - 1))
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def split_dataset(
    data: LabeledDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Deterministic train/val/test split by seeded shuffle."""
    tr, va, te = split_indices(data.n, fractions, seed)
    return data.subset(tr), data.subset(va), data.subset(te)
