"""Datasets, loss models, and prediction heads.

Two loss families are supported: a quadratic bowl (used by the Langevin
experiments and as an analytically tractable trainer target) and
l2-regularized logistic regression (binary sigmoid or multiclass
softmax). All parameters are flat float64 vectors so the trainer and
the aggregation operators never need to know the model structure.
Every LossModel method takes an (S, p) matrix of S parameter rows (the
seed-batched trainer's iterates, or a run's checkpoints) and a
DatasetHandle, and returns one value per row; any other shape of rows, a
(p,) vector included, is a ValueError. Row products go through stacked
np.matmul, which makes the same BLAS call per row as an unbatched
product, so a row of a batch equals the one-row call bit for bit (a plain
X @ Theta.T would be one larger product, rounded differently).
Both logistic heads have one layout, class-major (S, h, n) logits, h = 1
for the binary head (one logit per example) and h = c for the softmax
head: each row's (h, d) weights times a C-contiguous (d, n) store, or for
an (S, B) index matrix an (S, d, B) batch factor of the store's columns,
so every reduction over the logits runs along axis 1, elementwise over
the contiguous examples, and the gradient is one stacked matmul of the
(S, h, n) residuals with the example rows. The binary head reads
labelled data only through its sign-folded design matrix
X~ = diag(2y - 1) X (DatasetHandle.signed_features: built once per
handle, read-only, and stored transposed as a (p, n) array), whose logit
is the signed margin z itself, so no pass applies the labels' signs; its
batch factor is the transposed view of the store's gathered rows. The
softmax head's store is DatasetHandle.transposed_features, its batch
factor the view of one np.take of the store's columns, and its
true-class logits are read at their flat offsets (s c + y) n + i. Which
operand a product reads is fixed per head because a transposed operand
rounds differently at some shapes; a wider leading stride does not.
loss_full and grad_full each make their own logits pass, and the trainer
calls loss_full only for a loss it records, a chunk of steps' iterates
per call. The binary slope -sigmoid(-z), which every binary kernel
reads, is the gradient-only -1/(1 + exp(z)): three passes, against the
seven of a slope built from the loss's exp(-|z|). Where exp(z) overflows
(z above 709.78) it is -0.0, its limit; where z <= 0 it equals the
two-sided stable form bit for bit. The softmax head's log-sum-exp and
probabilities both read exp(logits - max) and its sum over the classes.
predict_proba and predict_labels give (S, n, c) probabilities (the
softmax head's a transposed view of its class-major array) and (S, n)
labels from the logits of the handle's unfolded features: the softmax
head's store, and the transposed view of the features for the binary
head. predict_labels reads the argmax straight off the logits, with no
softmax, and the sigmoid of predict_proba is branch-free: its numerator
is max(exp(-|x|), x >= 0), which equals the np.where form bit for bit.
accuracy, the one scoring entry that also takes a (p,) vector, gives (S,)
accuracies for rows, scored in chunks of at most ~40k logits: it counts
hits(rows, data), the (S, n) bool predict_labels == labels, which the
softmax head reads off its logits and the handle's label_weights with no
argmax. Every prediction checks its logits finite unless a Cauchy-Schwarz
bound proves them so, which a NaN or infinite row fails: a non-finite
logit is a NumericDivergenceError.
A batch is an (S, B) index matrix, row s's batch the rows idx[s] of the
dataset: loss_full(rows, data, idx) is each row's loss on its own batch,
and clipped_grad_mean, the practical trainer's step, is the mean of its
per-example gradients after each is scaled to norm at most clip_norm,
without forming them. The step reads its batch as Batches, the index
matrix with the per-example terms that depend on the indices alone (each
example's squared feature norm and the softmax head's true-class logit
offsets), which LossModel.batches builds for a whole chunk of steps'
(count, S, B) index matrices at once; the step's batch factor gather
stays its own. A logistic per-example gradient is R_i (x) x_i +
l2 * theta, with R_i the residual in the logits (softmax probabilities
minus one-hot, or -sigmoid(-z) for a signed row), so its squared norm is
|R_i|^2 |x_i|^2 + 2 l2 <R_i, logits_i> + l2^2 |theta|^2, read off one
logits pass, and the clipped mean is one matmul of the factor-scaled
residuals with the batch, plus l2 theta times the mean clip factor
(ghost clipping: Li et al., arXiv 2110.05679). At l2_reg = 0 those two l2
terms of the norm, that l2 part of the mean and the loss's (l2/2)|theta|^2
are exact zeros, and the kernels skip them: none of the sums they would
join is -0.0, so adding them changes no bit. project_l2 clips rows onto
an l2 ball: the theoretical trainer's projection, and the quadratic
loss's clipped step, whose examples share one gradient.
finite_loss_radius bounds the rows whose batch loss is certainly finite,
so the practical trainer can check its iterates without computing a loss
it does not record.
The diurnal sampler draws minibatches as row indices into the training
data, as the uniform sampler does, so a batch is a gather of those rows.
diurnal_draw maps a block of raw uint64 words (the trainer's chunk of
steps of one seed, 2B words a step) to the block's (count, B) indices in
one call: a 53-bit uniform from each membership word picks the row set,
and an exact integer multiply-shift of each row word picks the row.
"""

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericDivergenceError

# ---------------------------------------------------------------------------
# datasets


def _transposed_store(matrix: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous (p, n) copy of the (n, p) matrix's transpose."""
    store = np.ascontiguousarray(matrix.T)
    store.flags.writeable = False
    return store


@dataclass(eq=False)
class DatasetHandle:
    """A fixed design matrix with integer class labels, and the arrays derived
    from them (the sign-folded matrix, the transposed features, the squared
    row norms, the labels' tie weights) built on first use.
    The loss models read labelled data only through a handle."""

    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) integer class ids
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-d with one entry per row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels must lie in [0, num_classes)")

    @functools.cached_property
    def signed_features(self) -> np.ndarray:
        """(n, p) view of the read-only sign-folded design matrix diag(2y - 1) X,
        which is built on first use from this handle's own features and labels
        and stored transposed, as a C-contiguous (p, n) array."""
        return _transposed_store(self.features * (2.0 * self.labels - 1.0)[:, None]).T

    @functools.cached_property
    def transposed_features(self) -> np.ndarray:
        """The read-only C-contiguous (p, n) transpose of the features, built
        on first use: the store the softmax head's class-major logits read."""
        return _transposed_store(self.features)

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """(n,) squared norm of each feature row, built on first use."""
        return np.einsum("ij,ij->i", self.features, self.features)

    @functools.cached_property
    def label_weights(self) -> np.ndarray:
        """(c, n) int8 tie weights of the labels, built on first use: 1 at each
        row's label, 2 at the classes below it and 0 above. A row's classes at
        the top logit weigh 1 in total exactly when its label is the lowest
        of them, which is the class argmax picks."""
        classes = np.arange(self.num_classes)[:, None]
        return (2 * (classes < self.labels) + (classes == self.labels)).astype(np.int8)

    def __getstate__(self):
        # a copy (as a worker process gets) rebuilds the derived arrays on
        # first use: numpy unpickles arrays writeable
        state = self.__dict__.copy()
        for derived in ("signed_features", "transposed_features", "sq_norms", "label_weights"):
            state.pop(derived, None)
        return state

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "DatasetHandle":
        """The selected rows, as a new handle; an empty selection fails."""
        return DatasetHandle(self.features[indices], self.labels[indices], self.num_classes)


def synth_classification(
    n: int,
    p: int,
    num_classes: int = 2,
    separation: float = 2.0,
    seed: int = 0,
) -> DatasetHandle:
    """Gaussian class clusters with unit within-class covariance.

    Class means sit at distance `separation` from the origin in random
    directions; labels are balanced up to rounding. Everything is a
    deterministic function of the seed.
    """
    if n < 1 or p < 1 or num_classes < 2:
        raise ValueError("need n >= 1, p >= 1, num_classes >= 2")
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(num_classes, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    labels = rng.permutation(np.arange(n) % num_classes)
    features = means[labels] + rng.standard_normal((n, p))
    return DatasetHandle(features, labels, num_classes)


def csv_header(p: int) -> list[str]:
    return [f"f{j}" for j in range(p)] + ["label"]


def load_csv(path: str) -> DatasetHandle:
    """Read a dataset of `f0,...,f{p-1},label` rows under a csv_header line.
    The classes are 0 up to the largest label (at least two), and every one
    of them must have a row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"dataset file {path} is empty") from None
        p = len(header) - 1
        if p < 1 or header != csv_header(p):
            raise ConfigError(f"dataset file {path} has a malformed header")
        feats: list[list[float]] = []
        labels: list[int] = []
        for i, row in enumerate(reader):
            if len(row) != p + 1:
                raise ConfigError(f"dataset file {path} row {i} has {len(row)} fields")
            try:
                feats.append([float(v) for v in row[:p]])
                labels.append(int(row[p]))
            except ValueError:
                raise ConfigError(f"dataset file {path} row {i} is not numeric") from None
    if not feats:
        raise ConfigError(f"dataset file {path} has no data rows")
    feat_arr = np.array(feats)
    bad = np.flatnonzero(~np.isfinite(feat_arr).all(axis=1))
    if bad.size:
        raise ConfigError(f"dataset file {path} row {bad[0]} has a non-finite feature")
    for i, label in enumerate(labels):
        if label < 0:
            raise ConfigError(f"dataset file {path} row {i} has label {label} below 0")
    # a stray large label would otherwise widen the model by its empty classes
    classes = sorted(set(labels))
    for k, label in enumerate(classes):
        if label != k:
            raise ConfigError(
                f"dataset file {path} has no row of class {k} below its largest label {classes[-1]}"
            )
    return DatasetHandle(feat_arr, np.array(labels, dtype=np.int64), max(2, len(classes)))


# ---------------------------------------------------------------------------
# loss models


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e) where x >= 0 and e/(1+e) elsewhere, with e = exp(-|x|) (which
    never overflows), the form that keeps precision on each side. As e is in
    [0, 1] or NaN, max(e, x >= 0) is that numerator without a branch, and
    bit-equal to np.where(x >= 0, 1.0, e)."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _binary_ce(z: np.ndarray) -> np.ndarray:
    # ln(1 + exp(-z)) evaluated stably: exp(-|z|) never overflows
    return np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _softmax_terms(logits: np.ndarray):
    """(max logit, exp(logits - max), the sum of those exps) over the class
    axis 1 of (S, c, n) logits, which the log-sum-exp and the softmax
    probabilities both read; each reduction runs along the contiguous n."""
    zmax = logits.max(axis=1, keepdims=True)
    ex = logits - zmax
    np.exp(ex, out=ex)
    return zmax, ex, ex.sum(axis=1, keepdims=True)


def row_sq_norms(rows: np.ndarray) -> np.ndarray:
    """theta @ theta for every row of an (S, p) matrix, bit-equal to the 1-d dot."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _label_offsets(labels: np.ndarray, num_rows: int, num_classes: int) -> np.ndarray:
    """Flat offsets (s c + y) n + i of each example's true-class logit in
    C-contiguous (S, c, n) logits, S = num_rows: (S, n) for labels shared
    by every row, (n,), and (..., S, n) for (..., S, n) labels, one batch of
    them per row."""
    n = labels.shape[-1]
    return (np.arange(num_rows)[:, None] * num_classes + labels) * n + np.arange(n)


def _finite(logits: np.ndarray) -> np.ndarray:
    """The logits, if every one is finite; else a NumericDivergenceError."""
    if not np.all(np.isfinite(logits)):
        raise NumericDivergenceError("non-finite logits in prediction")
    return logits


def clip_factors(sq_norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """min(1, clip_norm / norm) from squared norms, which are clamped at 0
    against rounding; a norm at or under clip_norm gives exactly 1.0."""
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    return np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))


def project_l2(rows: np.ndarray, radius: float, sq_norms: np.ndarray | None = None) -> np.ndarray:
    """Project each row of an (S, p) matrix onto the origin-centered l2 ball
    of the given radius, which clips it to norm at most radius. sq_norms is
    row_sq_norms(rows), overflow ignored, if the caller has it.

    A finite row whose squared norm overflows is projected through its
    direction u = x / max_j |x_j|, whose norm lies in [1, sqrt(p)], as
    u * min(max_j |x_j|, radius / ||u||). A row with an infinite coordinate
    has no projection: it comes out NaN, without a numpy warning.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if np.ndim(rows) != 2:
        raise ValueError(f"project_l2 takes (S, p) rows, not shape {np.shape(rows)}")
    # the stacked row dot equals np.linalg.norm's dot bit for bit, and a
    # factor of exactly 1.0 leaves rows inside the ball untouched
    if sq_norms is None:
        with np.errstate(over="ignore"):
            sq_norms = row_sq_norms(rows)
    huge = np.isinf(sq_norms)
    if not huge.any():
        return rows * clip_factors(sq_norms, radius)[:, None]
    # an infinite coordinate times its factor 0, or over its row's largest
    # magnitude, is NaN; finite coordinates raise no invalid operation
    with np.errstate(invalid="ignore"):
        out = rows * clip_factors(sq_norms, radius)[:, None]
        scale = np.abs(rows[huge]).max(axis=1)
        unit = rows[huge] / scale[:, None]
        out[huge] = unit * np.minimum(scale, radius / np.sqrt(row_sq_norms(unit)))[:, None]
    return out


class Batches(NamedTuple):
    """(..., S, B) index matrices, idx[..., s, :] the batch of parameter row
    s, with the per-example terms clipped_grad_mean reads of them: each
    example's squared feature norm, data.sq_norms[idx], and, for the softmax
    head, the flat offset of its true-class logit in C-contiguous (S, c, B)
    logits (None for the other heads). LossModel.batches builds them for a
    trainer chunk's (count, S, B) index matrices at once; the chunk's r-th
    step reads step(r)."""

    idx: np.ndarray
    sq_norms: np.ndarray
    label_offsets: np.ndarray | None

    def step(self, r: int) -> "Batches":
        """The (S, B) batches of the chunk's r-th step."""
        offsets = self.label_offsets
        return Batches(self.idx[r], self.sq_norms[r], None if offsets is None else offsets[r])


class LossModel:
    """Common surface for the loss families.

    Subclasses define param_dim, loss_full, grad_full, clipped_grad_mean
    and (for classifiers) predict_proba, and may override
    predict_labels with a cheaper argmax than the probability one, and
    hits, the (S, n) bool predict_labels == labels that accuracy counts,
    with a cheaper test (the softmax head reads class-major logits and the
    handle's tie weights). Every method takes (S, p) parameter rows and a
    DatasetHandle (the quadratic loss reads none of its data) and gives
    one result per row. The curvature attributes drive step-size rules and
    noise calibration:

      lipschitz   bound on a per-example gradient norm (None if unset)
      smoothness  gradient Lipschitz constant
    """

    lipschitz: float | None = None
    smoothness: float = 0.0

    def param_dim(self) -> int:
        raise NotImplementedError

    def loss_full(self, rows: np.ndarray, data: DatasetHandle | None, idx=None) -> np.ndarray:
        """(S,) mean loss of each row on data, or, given an (S, B) index
        matrix, on its own batch: row s's batch is the B rows idx[s] of data."""
        raise NotImplementedError

    def grad_full(self, rows: np.ndarray, data: DatasetHandle | None) -> np.ndarray:
        """(S, p) mean gradient of each row."""
        raise NotImplementedError

    def batches(self, data: DatasetHandle, idx: np.ndarray) -> Batches:
        """The Batches of (..., S, B) index matrices into data."""
        return Batches(idx, data.sq_norms[idx], None)

    def clipped_grad_mean(self, rows, data: DatasetHandle, batches: Batches, clip_norm):
        """(S, p): for each of the (S, p) rows, the mean over its batch of the
        per-example gradients, each first scaled to norm at most clip_norm.
        Row s's batch is the B rows batches.idx[s] of data, for (S, B)
        batches(data, idx)."""
        raise NotImplementedError

    def finite_loss_radius(self, data: DatasetHandle, batch_size: int) -> float:
        """A radius R such that the batch loss is finite for every row whose squared
        norm, as row_sq_norms computes it, is at most R**2, on every batch of
        batch_size rows of data."""
        raise NotImplementedError

    def predict_proba(self, rows: np.ndarray, data: DatasetHandle) -> np.ndarray:
        """(S, n, c) class probabilities of each row on the data's features (the
        softmax head's are a transposed view of its (S, c, n) array)."""
        raise NotImplementedError

    def predict_labels(self, rows: np.ndarray, data: DatasetHandle) -> np.ndarray:
        """(S, n) argmax classes of each row on the data's features."""
        return self.predict_proba(rows, data).argmax(axis=-1)

    def hits(self, rows: np.ndarray, data: DatasetHandle) -> np.ndarray:
        """(S, n) bool: whether each row's predict_labels class is the label."""
        return self.predict_labels(rows, data) == data.labels

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        """The (S, p) parameter rows as float64; any other shape is a ValueError."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.param_dim():
            raise ValueError(
                f"parameter rows have shape {rows.shape}, expected (S, p) = (S, {self.param_dim()})"
            )
        return rows


@dataclass(eq=False)
class QuadraticLoss(LossModel):
    """loss(theta) = curvature/2 * ||theta - center||^2, data-independent.

    The gradient is unbounded on all of R^p, so a Lipschitz constant for
    DP calibration must be supplied explicitly when one is needed.
    """

    center: np.ndarray
    curvature: float = 1.0
    lipschitz: float | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.ndim != 1:
            raise ValueError("center must be a vector")
        if self.curvature <= 0:
            raise ValueError("curvature must be positive")
        self.smoothness = self.curvature

    def param_dim(self) -> int:
        return self.center.shape[0]

    def loss_full(self, rows, data=None, idx=None):
        # every example has the same loss, so a batch's mean is that loss
        return 0.5 * self.curvature * row_sq_norms(self._check_rows(rows) - self.center)

    def grad_full(self, rows, data=None) -> np.ndarray:
        return self.curvature * (self._check_rows(rows) - self.center)

    def clipped_grad_mean(self, rows, data, batches, clip_norm):
        # every example has the same gradient, so the clipped mean is that
        # gradient, clipped
        return project_l2(self.grad_full(rows), clip_norm)

    def finite_loss_radius(self, data, batch_size):
        """R = sqrt(min(1, 2 / curvature) * 1e307) - ||center||, at least 0.

        Proof: a row of norm at most R (the computed square's rounding is
        far inside the margins) has ||theta - center||^2 <= (R + ||center||)^2
        <= 1e307, which is finite, and curvature / 2 times it is at most 1e307."""
        reach = math.sqrt(min(1.0, 2.0 / self.curvature) * 1e307)
        return max(0.0, reach - float(np.linalg.norm(self.center)))

    def predict_proba(self, rows, data):
        self._check_rows(rows)
        raise ValueError("quadratic model has no prediction head")


@dataclass(eq=False)
class LogisticLoss(LossModel):
    """l2-regularized logistic regression.

    Binary (num_classes == 2) uses a single weight vector and sigmoid
    probabilities; otherwise one weight vector per class with a softmax
    head. The per-example loss includes its own (l2_reg/2)*||theta||^2
    term, so the full loss is the plain mean of per-example losses.
    """

    n_features: int
    num_classes: int = 2
    l2_reg: float = 0.0
    lipschitz: float | None = None
    smoothness: float = 0.0

    def __post_init__(self):
        if self.n_features < 1 or self.num_classes < 2:
            raise ValueError("need n_features >= 1 and num_classes >= 2")
        if not 0 <= self.l2_reg < np.inf:
            raise ValueError("l2_reg must be nonnegative and finite")

    @classmethod
    def for_data(
        cls, data: DatasetHandle, l2_reg: float = 0.0, radius: float = 1.0
    ) -> "LogisticLoss":
        """Build the model and its curvature constants from a dataset.

        The per-example gradient norm bound is max_i ||x_i|| + l2_reg * radius,
        valid as long as iterates stay in the radius ball. The smoothness
        bound squares max_i ||x_i||, so that must be finite and below 1e154.
        """
        if not radius > 0:
            raise ValueError("radius must be positive")
        # an overflowed norm is inf, which the bound below rejects
        with np.errstate(over="ignore"):
            max_norm = float(np.linalg.norm(data.features, axis=1).max())
        if not max_norm < 1e154:
            raise ValueError(f"the feature norm bound {max_norm} is not below 1e154")
        hess = 0.25 if data.num_classes == 2 else 0.5
        model = cls(
            n_features=data.p,
            num_classes=data.num_classes,
            l2_reg=l2_reg,
            lipschitz=max_norm + l2_reg * radius,
            smoothness=hess * max_norm**2 + l2_reg,
        )
        return model

    @property
    def binary(self) -> bool:
        return self.num_classes == 2

    def param_dim(self) -> int:
        return self.n_features if self.binary else self.num_classes * self.n_features

    def _logits(self, rows: np.ndarray, design: np.ndarray) -> np.ndarray:
        """(S, h, n) logits, h = 1 for the binary head and c for the softmax
        head: each row's (h, d) weights times a (d, n) design or its own
        (d, n) slice of an (S, d, n) one; one stacked BLAS call per row."""
        weights = rows.reshape(-1, rows.shape[1] // self.n_features, self.n_features)
        return np.matmul(weights, design)

    def _design(self, data: DatasetHandle, idx: np.ndarray | None = None) -> np.ndarray:
        """The (d, n) store the head's logits read (the binary head's sign-folded
        one, whose logits are the margins z, or the softmax head's transposed
        features), or for an (S, B) index matrix the (S, d, B) batch factors:
        for the binary head the transposed view of the store's gathered
        (S, B, d) rows, for the softmax head the view of one np.take of the
        store's columns, a C-contiguous (d, S, B) array."""
        if self.binary:
            signed = data.signed_features
            return signed.T if idx is None else signed[idx].transpose(0, 2, 1)
        if idx is None:
            return data.transposed_features
        return np.take(data.transposed_features, idx, axis=1).transpose(1, 0, 2)

    def _example_rows(self, data: DatasetHandle) -> np.ndarray:
        """The (n, d) rows grad_full multiplies the residuals with: the binary
        head's sign-folded rows, a view of its store, or the softmax head's
        C-contiguous features (the transposed store rounds differently)."""
        return data.signed_features if self.binary else data.features

    def _true_class_offsets(
        self, num_rows: int, data: DatasetHandle, idx: np.ndarray | None = None
    ) -> np.ndarray | None:
        """The flat offsets of the true-class logits of num_rows rows' (S, c, n)
        logits on the data, or for (..., S, B) index matrices on their batches'
        (S, c, B) logits; only the softmax head reads labels, as the binary
        head's are folded into its design."""
        if self.binary:
            return None
        labels = data.labels if idx is None else data.labels[idx]
        return _label_offsets(labels, num_rows, self.num_classes)

    def batches(self, data, idx):
        return Batches(idx, data.sq_norms[idx], self._true_class_offsets(idx.shape[-2], data, idx))

    def _residual(self, logits, label_offsets: np.ndarray | None) -> np.ndarray:
        """Each example's loss slope in its logits: (S, c, n) probabilities minus
        one-hot (subtracted at the true-class label_offsets) for the softmax
        head, and for the binary head -sigmoid(-z) of its (S, 1, n) signed
        margins z, taken as -1/(1 + exp(z)) in three passes over one
        buffer. Where exp(z) overflows that is -0.0, its limit; where z <= 0,
        exp(z) is the exp(-|z|) of the two-sided stable form, so the two agree
        bit for bit there, and within a few ulp where z > 0."""
        if self.binary:
            with np.errstate(over="ignore"):
                e = np.exp(logits)
            e += 1.0
            return np.divide(-1.0, e, out=e)
        _, ex, total = _softmax_terms(logits)
        probs = np.divide(ex, total, out=ex)
        probs.reshape(-1)[label_offsets] -= 1.0
        return probs

    def loss_full(self, rows, data, idx=None):
        rows = self._check_rows(rows)
        logits = self._logits(rows, self._design(data, idx))
        if self.binary:
            ce = _binary_ce(logits[:, 0])
        else:
            zmax, _, total = _softmax_terms(logits)
            lse = (zmax + np.log(total))[:, 0]
            ce = lse - logits.take(self._true_class_offsets(len(rows), data, idx))
        # np.mean's own arithmetic (sum, then divide by n) minus its wrapper cost
        loss = ce.sum(axis=1) / logits.shape[-1]
        if self.l2_reg > 0:
            loss = loss + 0.5 * self.l2_reg * row_sq_norms(rows)
        return loss

    def grad_full(self, rows, data) -> np.ndarray:
        rows = self._check_rows(rows)
        logits = self._logits(rows, self._design(data))
        resid = self._residual(logits, self._true_class_offsets(len(rows), data))
        grad_w = np.matmul(resid, self._example_rows(data)) / data.n
        return grad_w.reshape(rows.shape) + self.l2_reg * rows

    def clipped_grad_mean(self, rows, data, batches, clip_norm):
        rows = self._check_rows(rows)
        design = self._design(data, batches.idx)  # (S, d, B)
        logits = self._logits(rows, design)
        resid = self._residual(logits, batches.label_offsets)
        lam = self.l2_reg
        sq_norms = (resid * resid).sum(axis=1) * batches.sq_norms
        if lam > 0:
            sq_norms = (
                sq_norms
                + 2.0 * lam * (resid * logits).sum(axis=1)
                + lam * lam * row_sq_norms(rows)[:, None]
            )
        factors = clip_factors(sq_norms, clip_norm)  # (S, B)
        batch = batches.idx.shape[-1]
        grad = np.matmul(factors[:, None, :] * resid, np.swapaxes(design, 1, 2)) / batch
        grad = grad.reshape(rows.shape)
        if lam > 0:
            grad = grad + lam * rows * (factors.sum(axis=1) / batch)[:, None]
        return grad

    def finite_loss_radius(self, data, batch_size):
        """R = min(sqrt(1e307), (1e307 / B - ln c) / (2 M), sqrt(2e307 / l2_reg)),
        with B the batch size, c the classes and M = max_i ||x_i||; a term
        whose divisor is 0 drops out.

        Proof: let every row have norm at most R (the computed square's
        rounding is far inside the margins below). A logit is x_i . w with w
        the row, or one class block of it, so |logit| <= M R by
        Cauchy-Schwarz; so is each product in it, and the logits pass is
        finite. An example's cross-entropy is at most 2 M R + ln c: the
        binary max(-z, 0) + log1p(exp(-|z|)) is at most |z| + ln 2, and the
        softmax max logit - true logit + ln(sum of c exps, each at most 1)
        is at most 2 M R + ln c. Their sum over the B batch examples is then
        at most 1e307, and so is its mean. The squared norm is at most 1e307
        and (l2_reg / 2) times it too, so the loss is at most 2e307, a
        ninth of the largest float: far more room than the relative
        rounding of these sums needs."""
        max_norm = math.sqrt(float(data.sq_norms.max()))
        limits = [math.sqrt(1e307)]
        if max_norm > 0:
            limits.append((1e307 / batch_size - math.log(self.num_classes)) / (2.0 * max_norm))
        if self.l2_reg > 0:
            limits.append(math.sqrt(2e307 / self.l2_reg))
        return min(limits)

    def _checked_logits(self, rows, data: DatasetHandle) -> np.ndarray:
        """Finite (S, h, n) logits of the rows on the handle's features, what
        the prediction heads read: the binary head's through the transposed
        view of the features, the softmax head's through its store.

        They are checked finite only when a bound does not prove them so: a
        logit is a row, or a class block of it, dotted with a feature row, at
        most sqrt(max row |theta|^2 * max_i |x_i|^2) in size by
        Cauchy-Schwarz, and its computed value, like the computed squared
        norms, is within a relative d * 2**-53 of a true one, so a computed
        bound below 1e300 leaves every logit finite. A NaN or infinite row
        makes the bound NaN or inf, and the full check runs."""
        rows = self._check_rows(rows)
        design = data.features.T if self.binary else data.transposed_features
        logits = self._logits(rows, design)
        with np.errstate(over="ignore"):
            row_bound = row_sq_norms(rows).max(initial=0.0)
            bound = math.sqrt(float(row_bound) * float(data.sq_norms.max()))
        return logits if bound < 1e300 else _finite(logits)

    def predict_proba(self, rows, data) -> np.ndarray:
        logits = self._checked_logits(rows, data)
        if self.binary:
            pos = _sigmoid(logits[:, 0])
            return np.stack([1.0 - pos, pos], axis=-1)
        _, ex, total = _softmax_terms(logits)
        return np.divide(ex, total, out=ex).transpose(0, 2, 1)

    def predict_labels(self, rows, data) -> np.ndarray:
        """The argmax of the logits, which softmax and sigmoid preserve; a zero
        margin or a logit tie gives the lowest class, as the probability argmax
        does. The two differ only where distinct logits round to equal
        probabilities: there the probability argmax gives the lower class."""
        logits = self._checked_logits(rows, data)
        return (logits[:, 0] > 0).astype(np.int64) if self.binary else logits.argmax(axis=1)

    def hits(self, rows, data) -> np.ndarray:
        """The binary head's hits are its predict_labels that match. The
        softmax head scores its class-major logits, whose class maxima run
        along n: an example's classes at the top logit weigh 1 in
        data.label_weights exactly when its label is the lowest of them, the
        class predict_labels gives."""
        if self.binary:
            return super().hits(rows, data)
        logits = self._checked_logits(rows, data)
        top = logits.max(axis=1, keepdims=True)
        # the narrowest signed type that holds the largest total, 2c - 1
        width = np.min_scalar_type(1 - 2 * self.num_classes)
        return ((logits == top) * data.label_weights).sum(axis=1, dtype=width) == 1


# elements of one (rows, c, n) logits block that accuracy scores at once
ACCURACY_BLOCK = 40_000


def accuracy(model: LossModel, theta: np.ndarray, data: DatasetHandle):
    """Fraction of examples whose predict_labels class matches the label (the
    model's hits): a float for a (p,) vector, an (S,) array for (S, p) rows.
    Rows are scored a chunk at a time, as many as fit ACCURACY_BLOCK (row,
    example, class) logits."""
    theta = np.asarray(theta, dtype=np.float64)
    rows = theta[None] if theta.ndim < 2 else theta
    chunk = max(1, ACCURACY_BLOCK // (data.n * data.num_classes))
    acc = np.empty(len(rows))
    for lo in range(0, len(rows), chunk):
        # a count over n is np.mean's own arithmetic on the boolean hits
        acc[lo : lo + chunk] = model.hits(rows[lo : lo + chunk], data).sum(axis=1) / data.n
    return float(acc[0]) if theta.ndim == 1 else acc


# ---------------------------------------------------------------------------
# diurnal (periodically shifting) minibatch sampler


@dataclass(eq=False)
class DiurnalSchedule:
    """Two row sets of the training data mixed with a triangle-wave probability.

    rows_a and rows_b index rows of the data the trainer trains on, each
    with fewer than 2**32 entries (the bound of diurnal_draw's exact row
    map). At step t an example is a row of rows_a with probability
    |2 (t mod period) / period - 1|, else a row of rows_b, so the batch
    distribution sweeps a -> b -> a over each period.
    """

    period: int
    rows_a: np.ndarray
    rows_b: np.ndarray

    def __post_init__(self):
        if self.period < 2:
            raise ValueError("period must be at least 2")
        self.rows_a = np.asarray(self.rows_a, dtype=np.int64)
        self.rows_b = np.asarray(self.rows_b, dtype=np.int64)
        for name, rows in (("rows_a", self.rows_a), ("rows_b", self.rows_b)):
            if rows.ndim != 1 or rows.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-d index vector")
            if rows.size >= 2**32:
                raise ValueError(f"{name} must have fewer than 2**32 rows")


def diurnal_prob(schedule: DiurnalSchedule, t: int) -> float:
    """Probability that a step-t example is a row of rows_a."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    phase = (t % schedule.period) / schedule.period
    return abs(2.0 * phase - 1.0)


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _scale_words(words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """floor(w * n / 2**64) for uint64 words w and sizes n below 2**32,
    exact in uint64: with w = hi * 2**32 + lo, it is
    (hi * n + (lo * n >> 32)) >> 32, and no term reaches 2**64."""
    hi, lo = words >> _SHIFT32, words & _LOW32
    return (hi * sizes + ((lo * sizes) >> _SHIFT32)) >> _SHIFT32


def diurnal_draw(schedule: DiurnalSchedule, first: int, raw: np.ndarray) -> np.ndarray:
    """(count, B) row indices of the batches of phases first..first + count
    - 1 from a (count, 2B) block of uint64 words, one row per phase.

    Each example is independent: its membership word w becomes the
    uniform (w >> 11) * 2**-53 in [0, 1), and the example comes from
    rows_a when that is below diurnal_prob of its phase (so a phase of
    probability 1 takes rows_a only, and one of 0 rows_b only); its row
    word w, B words further on, picks entry floor(w * n / 2**64) of its
    set of n rows. Row r of the result depends only on row r of raw.
    """
    if raw.ndim != 2 or raw.shape[0] < 1 or raw.shape[1] < 2 or raw.shape[1] % 2:
        raise ValueError(f"need a (count, 2B) block of words, not shape {raw.shape}")
    count, batch = raw.shape[0], raw.shape[1] // 2
    # per-phase probabilities from diurnal_prob, which takes any int phase
    probs = np.array([diurnal_prob(schedule, first + r) for r in range(count)])
    from_a = (raw[:, :batch] >> np.uint64(11)) * 2.0**-53 < probs[:, None]
    n_a, n_b = len(schedule.rows_a), len(schedule.rows_b)
    sizes = np.where(from_a, np.uint64(n_a), np.uint64(n_b))
    picks = _scale_words(raw[:, batch:], sizes).astype(np.int64)
    rows = np.concatenate([schedule.rows_a, schedule.rows_b])
    return rows[np.where(from_a, picks, picks + n_a)]
