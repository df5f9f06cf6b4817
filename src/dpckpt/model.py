"""Datasets, loss models, and prediction heads.

Two loss families are supported: a quadratic bowl (used by the Langevin
experiments and as an analytically tractable trainer target) and
l2-regularized logistic regression (binary sigmoid or multiclass
softmax). All parameters are flat float64 vectors so the trainer and
the aggregation operators never need to know the model structure.
loss_full and grad_full also take an (S, p) matrix of S parameter rows
(the seed-batched trainer's iterates) and return one value per row; a
(p,) vector is the one-row case of the same code. Row products go
through stacked np.matmul, which makes the same BLAS call per row as an
unbatched product, so a batched row equals the unbatched result bit for
bit (a plain X @ Theta.T would be one larger product, rounded differently).
loss_and_grad gives both at once from one logits block: the binary head
shares z = y * margin and exp(-|z|) between the cross-entropy and its
slope, the softmax head shares exp(logits - max) and its row sum between
the log-sum-exp and the probabilities. loss_full and grad_full read the
same helpers, so the fused pair equals the separate calls bit for bit.
predict_proba, predict_labels and accuracy take rows the same way: (S, p)
rows give (S, n, c) probabilities, (S, n) labels and (S,) accuracies.
predict_labels reads the argmax straight off the logits, with no softmax,
and accuracy scores the rows in chunks of at most ~40k logits.
clipped_grad_mean is the practical trainer's step: for S rows, each with
its own (B, d) minibatch, the mean of the per-example gradients after each
is scaled to norm at most clip_norm. It never forms the (B, p) per-example
gradients. A logistic per-example gradient is R_i (x) x_i + l2 * theta,
with R_i the softmax residual (probabilities minus one-hot) or the binary
slope, so its squared norm is |R_i|^2 |x_i|^2 + 2 l2 <R_i, logits_i> +
l2^2 |theta|^2, read off one logits pass, and the clipped mean is one
matmul of the factor-scaled residuals with the batch (ghost clipping: Li
et al., arXiv 2110.05679). batch_loss gives each row's loss on its own
batch the same way.
The diurnal sampler draws a minibatch as row indices into the training
data, as the uniform sampler does, so a batch is a gather of those rows.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericOverflowError

# ---------------------------------------------------------------------------
# datasets


@dataclass(eq=False)
class DatasetHandle:
    """A fixed design matrix with integer class labels.

    The tag names the partition an instance came from ("train", "test",
    ...); operators that require disjoint partitions compare tags rather
    than contents.
    """

    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) integer class ids
    num_classes: int
    tag: str = ""

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

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray, tag: str | None = None) -> "DatasetHandle":
        """The selected rows, without re-running the __post_init__ scans on rows
        of this validated dataset; an empty selection still fails."""
        sub = object.__new__(type(self))
        sub.features, sub.labels = self.features[indices], self.labels[indices]
        sub.num_classes, sub.tag = self.num_classes, self.tag if tag is None else tag
        if sub.features.ndim != 2 or sub.n < 1:
            raise ValueError("subset must select a non-empty 1-d set of rows")
        return sub


def synth_classification(
    n: int,
    p: int,
    num_classes: int = 2,
    separation: float = 2.0,
    seed: int = 0,
    tag: str = "",
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
    if not tag:
        tag = f"synth(n={n},p={p},c={num_classes},sep={separation},seed={seed})"
    return DatasetHandle(features, labels, num_classes, tag)


def csv_header(p: int) -> list[str]:
    return [f"f{j}" for j in range(p)] + ["label"]


def save_csv(data: DatasetHandle, path: str) -> None:
    """Write `f0,...,f{p-1},label` rows; floats use repr for round-trip."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(data.p))
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_csv(path: str, num_classes: int | None = None, tag: str = "") -> DatasetHandle:
    """Read a dataset written by save_csv (or any file matching its header)."""
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
    label_arr = np.array(labels, dtype=np.int64)
    bad = np.flatnonzero(~np.isfinite(feat_arr).all(axis=1))
    if bad.size:
        raise ConfigError(f"dataset file {path} row {bad[0]} has a non-finite feature")
    if num_classes is None:
        num_classes = max(2, int(label_arr.max()) + 1)
    bad = np.flatnonzero((label_arr < 0) | (label_arr >= num_classes))
    if bad.size:
        raise ConfigError(
            f"dataset file {path} row {bad[0]} has label {label_arr[bad[0]]},"
            f" outside [0, {num_classes})"
        )
    return DatasetHandle(feat_arr, label_arr, num_classes, tag or path)


# ---------------------------------------------------------------------------
# loss models


def _sigmoid_from(nonneg: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) from nonneg = (x >= 0) and e = exp(-|x|): 1/(1+e) where x >= 0
    and e/(1+e) elsewhere, the form that keeps precision on each side."""
    return np.where(nonneg, 1.0, e) / (1.0 + e)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows
    return _sigmoid_from(x >= 0, np.exp(-np.abs(x)))


def _margin_terms(margins: np.ndarray, labels: np.ndarray):
    """(signs, z, e): the labels as +-1 signs, z = signs * margins and
    e = exp(-|z|), which the binary cross-entropy and its slope both read."""
    signs = 2.0 * labels - 1.0
    z = signs * margins
    return signs, z, np.exp(-np.abs(z))


def _binary_ce(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # ln(1 + exp(-z)) evaluated stably
    return np.maximum(-z, 0.0) + np.log1p(e)


def _binary_slope(signs: np.ndarray, z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # d/dm ln(1+exp(-y m)) = -y * sigmoid(-z), and -z >= 0 exactly where z <= 0
    return -signs * _sigmoid_from(z <= 0, e)


def _softmax_terms(logits: np.ndarray):
    """(max logit, exp(logits - max), the sum of those exps) over the last
    axis, which the log-sum-exp and the softmax probabilities both read."""
    zmax = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - zmax)
    return zmax, ex, ex.sum(axis=-1, keepdims=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    _, ex, total = _softmax_terms(logits)
    return ex / total


def _row_sq_norms(rows: np.ndarray) -> np.ndarray:
    """theta @ theta for every row of an (S, p) matrix, bit-equal to the 1-d dot."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _label_index(logits: np.ndarray, labels: np.ndarray) -> tuple:
    """Index of each example's true-class logit in (S, n, c) logits, for labels
    shared by every row, (n,), or one batch of labels per row, (S, n)."""
    return np.arange(len(logits))[:, None], np.arange(labels.shape[-1]), labels


def _clip_factors(sq_norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """min(1, clip_norm / norm) from squared norms, which are clamped at 0
    against rounding; a norm at or under clip_norm gives exactly 1.0."""
    norms = np.sqrt(np.maximum(sq_norms, 0.0))
    return np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))


def _check_finite_logits(logits: np.ndarray) -> None:
    if not np.all(np.isfinite(logits)):
        raise NumericOverflowError("non-finite logits in prediction")


class LossModel:
    """Common surface for the loss families.

    Subclasses define param_dim, loss_full, grad_full, loss_and_grad,
    clipped_grad_mean, batch_loss and (for classifiers) predict_proba, and
    may override predict_labels with a cheaper argmax than the probability
    one. The curvature attributes drive step-size rules and noise calibration:

      lipschitz        bound on a per-example gradient norm (None if unset)
      smoothness       gradient Lipschitz constant
      strong_convexity lower curvature bound (0 for non-convex models)
    """

    lipschitz: float | None = None
    smoothness: float = 0.0
    strong_convexity: float = 0.0

    def param_dim(self) -> int:
        raise NotImplementedError

    def loss_full(self, theta: np.ndarray, data: DatasetHandle | None):
        """Mean loss: a float for a (p,) vector, an (S,) array for (S, p) rows."""
        raise NotImplementedError

    def grad_full(self, theta: np.ndarray, data: DatasetHandle | None) -> np.ndarray:
        """Mean gradient: (p,) for a (p,) vector, (S, p) for (S, p) rows."""
        raise NotImplementedError

    def loss_and_grad(self, rows: np.ndarray, data: DatasetHandle | None):
        """((S,) losses, (S, p) gradients) of (S, p) rows, each bit-equal to
        loss_full and grad_full but read off one pass over the data."""
        raise NotImplementedError

    def clipped_grad_mean(self, rows, features, labels, feature_sq_norms, clip_norm):
        """(S, p): for each of the (S, p) rows, the mean over its batch of the
        per-example gradients, each first scaled to norm at most clip_norm.
        Row s's batch is features[s] (B, d) with labels[s] (B,), and
        feature_sq_norms[s] (B,) holds the squared norms of those feature rows."""
        raise NotImplementedError

    def batch_loss(self, rows: np.ndarray, features: np.ndarray, labels: np.ndarray):
        """(S,) mean loss of each of the (S, p) rows on its own batch, the
        (S, B, d) features and (S, B) labels of clipped_grad_mean."""
        raise NotImplementedError

    def predict_proba(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Class probabilities: (n, c) for a (p,) vector, (S, n, c) for (S, p) rows."""
        raise NotImplementedError

    def predict_labels(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Argmax classes: (n,) for a (p,) vector, (S, n) for (S, p) rows."""
        return self.predict_proba(theta, features).argmax(axis=-1)

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.param_dim(),):
            raise ValueError(
                f"parameter vector has shape {theta.shape}, expected ({self.param_dim()},)"
            )
        return theta

    def _check_rows(self, theta: np.ndarray) -> tuple[np.ndarray, bool]:
        """(S, p) parameter rows, and whether a single (p,) vector was passed."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim == 1:
            return self._check_theta(theta)[None, :], True
        if theta.ndim != 2 or theta.shape[1] != self.param_dim():
            raise ValueError(
                f"parameter rows have shape {theta.shape}, expected (S, {self.param_dim()})"
            )
        return theta, False


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
        self.strong_convexity = self.curvature

    def param_dim(self) -> int:
        return self.center.shape[0]

    def loss_full(self, theta, data=None):
        rows, single = self._check_rows(theta)
        loss = 0.5 * self.curvature * _row_sq_norms(rows - self.center)
        return float(loss[0]) if single else loss

    def grad_full(self, theta, data=None) -> np.ndarray:
        rows, single = self._check_rows(theta)
        grad = self.curvature * (rows - self.center)
        return grad[0] if single else grad

    def loss_and_grad(self, rows, data=None):
        diff = self._check_rows(rows)[0] - self.center
        return 0.5 * self.curvature * _row_sq_norms(diff), self.curvature * diff

    def clipped_grad_mean(self, rows, features, labels, feature_sq_norms, clip_norm):
        # every example has the same gradient, so the clipped mean is that
        # gradient, clipped
        grad = self.grad_full(self._check_rows(rows)[0])
        return grad * _clip_factors(_row_sq_norms(grad), clip_norm)[:, None]

    def batch_loss(self, rows, features, labels):
        return self.loss_full(self._check_rows(rows)[0])

    def predict_proba(self, theta, features):
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
        self.strong_convexity = self.l2_reg

    @classmethod
    def for_data(
        cls, data: DatasetHandle, l2_reg: float = 0.0, radius: float = 1.0
    ) -> "LogisticLoss":
        """Build the model and its curvature constants from a dataset.

        The per-example gradient norm bound is max_i ||x_i|| + l2_reg * radius,
        valid as long as iterates stay in the radius ball.
        """
        if not radius > 0:
            raise ValueError("radius must be positive")
        norms = np.linalg.norm(data.features, axis=1)
        max_norm = float(norms.max())
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

    def _logits(self, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
        """(S, n) margins (binary) or (S, n, c) logits, one stacked BLAS call per row."""
        if self.binary:
            return np.matmul(features, rows[:, :, None])[:, :, 0]
        weights = rows.reshape(len(rows), self.num_classes, self.n_features)
        return np.matmul(features, weights.transpose(0, 2, 1))

    def _terms(self, logits: np.ndarray, labels: np.ndarray):
        """What the loss and the gradient both read off the logits."""
        return _margin_terms(logits, labels) if self.binary else _softmax_terms(logits)

    def _loss_from(self, rows, logits, terms, labels) -> np.ndarray:
        if self.binary:
            ce = _binary_ce(*terms[1:])
        else:
            zmax, _, total = terms
            lse = (zmax + np.log(total))[:, :, 0]
            ce = lse - logits[_label_index(logits, labels)]
        # np.mean's own arithmetic (sum, then divide by n) minus its wrapper cost
        return ce.sum(axis=1) / labels.shape[-1] + 0.5 * self.l2_reg * _row_sq_norms(rows)

    def _grad_from(self, rows, terms, data) -> np.ndarray:
        if self.binary:
            coeff = _binary_slope(*terms)
            grad = np.matmul(data.features.T, coeff[:, :, None])[:, :, 0] / data.n
        else:
            _, ex, total = terms
            probs = ex / total
            probs[_label_index(probs, data.labels)] -= 1.0
            grad_w = np.matmul(probs.transpose(0, 2, 1), data.features) / data.n
            grad = grad_w.reshape(len(rows), -1)
        return grad + self.l2_reg * rows

    def loss_full(self, theta, data):
        rows, single = self._check_rows(theta)
        logits = self._logits(rows, data.features)
        loss = self._loss_from(rows, logits, self._terms(logits, data.labels), data.labels)
        return float(loss[0]) if single else loss

    def grad_full(self, theta, data) -> np.ndarray:
        rows, single = self._check_rows(theta)
        logits = self._logits(rows, data.features)
        grad = self._grad_from(rows, self._terms(logits, data.labels), data)
        return grad[0] if single else grad

    def loss_and_grad(self, rows, data):
        rows = self._check_rows(rows)[0]
        logits = self._logits(rows, data.features)
        terms = self._terms(logits, data.labels)
        loss = self._loss_from(rows, logits, terms, data.labels)
        return loss, self._grad_from(rows, terms, data)

    def clipped_grad_mean(self, rows, features, labels, feature_sq_norms, clip_norm):
        rows = self._check_rows(rows)[0]
        logits = self._logits(rows, features)
        if self.binary:
            resid = _binary_slope(*_margin_terms(logits, labels))  # (S, B)
            resid_sq, resid_logits = resid * resid, resid * logits
        else:
            resid = _softmax(logits)  # (S, B, c)
            resid[_label_index(logits, labels)] -= 1.0
            resid_sq = (resid * resid).sum(axis=-1)
            resid_logits = (resid * logits).sum(axis=-1)
        lam = self.l2_reg
        sq_norms = (
            resid_sq * feature_sq_norms
            + 2.0 * lam * resid_logits
            + lam * lam * _row_sq_norms(rows)[:, None]
        )
        factors = _clip_factors(sq_norms, clip_norm)  # (S, B)
        batch = labels.shape[-1]
        if self.binary:
            coeff = (factors * resid)[:, None, :]
            grad = np.matmul(coeff, features)[:, 0, :] / batch
        else:
            coeff = (factors[:, :, None] * resid).transpose(0, 2, 1)
            grad = (np.matmul(coeff, features) / batch).reshape(len(rows), -1)
        return grad + lam * rows * (factors.sum(axis=1) / batch)[:, None]

    def batch_loss(self, rows, features, labels):
        rows = self._check_rows(rows)[0]
        logits = self._logits(rows, features)
        return self._loss_from(rows, logits, self._terms(logits, labels), labels)

    def _checked_logits(self, theta, features):
        """Finite logits of the rows on the features, and whether one (p,)
        vector was passed; what both prediction heads read."""
        rows, single = self._check_rows(theta)
        logits = self._logits(rows, np.atleast_2d(np.asarray(features, dtype=np.float64)))
        _check_finite_logits(logits)
        return logits, single

    def predict_proba(self, theta, features) -> np.ndarray:
        logits, single = self._checked_logits(theta, features)
        if self.binary:
            pos = _sigmoid(logits)
            probs = np.stack([1.0 - pos, pos], axis=-1)
        else:
            probs = _softmax(logits)
        return probs[0] if single else probs

    def predict_labels(self, theta, features) -> np.ndarray:
        """The argmax of the logits, which softmax and sigmoid preserve; a zero
        margin or a logit tie gives the lowest class, as the probability argmax
        does. The two differ only where distinct logits round to equal
        probabilities: there the probability argmax gives the lower class."""
        logits, single = self._checked_logits(theta, features)
        labels = (logits > 0).astype(np.int64) if self.binary else logits.argmax(axis=-1)
        return labels[0] if single else labels


# elements of one (rows, n, c) logits block that accuracy scores at once
ACCURACY_BLOCK = 40_000


def accuracy(model: LossModel, theta: np.ndarray, data: DatasetHandle):
    """Fraction of examples whose predict_labels class matches the label: a
    float for a (p,) vector, an (S,) array for (S, p) rows. Rows are scored a
    chunk at a time, as many as fit ACCURACY_BLOCK (row, example, class) logits."""
    theta = np.asarray(theta, dtype=np.float64)
    rows = np.atleast_2d(theta)
    chunk = max(1, ACCURACY_BLOCK // (data.n * data.num_classes))
    acc = np.empty(len(rows))
    for lo in range(0, len(rows), chunk):
        labels = model.predict_labels(rows[lo : lo + chunk], data.features)
        # a count over n is np.mean's own arithmetic on the boolean hits
        acc[lo : lo + chunk] = (labels == data.labels).sum(axis=1) / data.n
    return float(acc[0]) if theta.ndim == 1 else acc


# ---------------------------------------------------------------------------
# diurnal (periodically shifting) minibatch sampler


@dataclass(eq=False)
class DiurnalSchedule:
    """Two row sets of the training data mixed with a triangle-wave probability.

    rows_a and rows_b index rows of the data the trainer trains on. At
    step t an example is a row of rows_a with probability
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


def diurnal_prob(schedule: DiurnalSchedule, t: int) -> float:
    """Probability that a step-t example is a row of rows_a."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    phase = (t % schedule.period) / schedule.period
    return abs(2.0 * phase - 1.0)


def diurnal_draw(
    schedule: DiurnalSchedule, t: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Row indices of a batch of `count` examples for step t (independent per example)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    p = diurnal_prob(schedule, t)
    from_a = rng.random(count) < p
    rows = np.empty(count, dtype=np.int64)
    n_a = int(from_a.sum())
    if n_a:
        rows[from_a] = schedule.rows_a[rng.integers(0, len(schedule.rows_a), n_a)]
    if count - n_a:
        rows[~from_a] = schedule.rows_b[rng.integers(0, len(schedule.rows_b), count - n_a)]
    return rows
