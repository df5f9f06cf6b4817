"""Datasets, loss gradients, prediction heads, and the diurnal sampler."""

import csv
import math
import pickle
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpckpt import rng
from dpckpt.aggregate import AggregationSpec, omv_batch_labels, select_best_k
from dpckpt.errors import NumericDivergenceError
from dpckpt.harness.experiments import _pds_scores
from dpckpt.model import (
    ACCURACY_BLOCK,
    DatasetHandle,
    DiurnalSchedule,
    LogisticLoss,
    QuadraticLoss,
    accuracy,
    csv_header,
    diurnal_draw,
    diurnal_prob,
    load_csv,
    _scale_words,
    _sigmoid,
    synth_classification,
)
from dpckpt.trainer import EtaSchedule, TrainerConfig, dp_sgd_practical_runs, project_l2
from per_example import clip_rows, clipped_mean, per_example_grads
from references import batch_loss_l2, clipped_grad_mean_l2, diurnal_row, row_loop_batches

# ---------------------------------------------------------------------------
# datasets


def test_synth_shapes_and_balance():
    data = synth_classification(90, 4, num_classes=3, seed=5)
    assert data.features.shape == (90, 4)
    assert data.labels.shape == (90,)
    assert data.num_classes == 3
    # labels are a permutation of 0..n-1 mod C, so classes are balanced
    assert np.bincount(data.labels, minlength=3).tolist() == [30, 30, 30]


def test_synth_deterministic_and_seed_sensitive():
    a = synth_classification(40, 3, seed=1)
    b = synth_classification(40, 3, seed=1)
    c = synth_classification(40, 3, seed=2)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_separation_scales_cluster_distance():
    near = synth_classification(4000, 6, separation=1.0, seed=0)
    far = synth_classification(4000, 6, separation=6.0, seed=0)

    def centroid_gap(data):
        mu0 = data.features[data.labels == 0].mean(axis=0)
        mu1 = data.features[data.labels == 1].mean(axis=0)
        return np.linalg.norm(mu0 - mu1)

    ratio = centroid_gap(far) / centroid_gap(near)
    assert 5.0 < ratio < 7.0


def test_subset_contents():
    data = synth_classification(20, 3, seed=0)
    sub = data.subset(np.array([3, 1, 7]))
    assert sub.n == 3 and sub.p == 3
    assert np.array_equal(sub.features, data.features[[3, 1, 7]])
    assert np.array_equal(sub.labels, data.labels[[3, 1, 7]]) and sub.num_classes == 2
    for empty in (np.array([], dtype=np.int64), np.zeros(20, dtype=bool)):
        with pytest.raises(ValueError):
            data.subset(empty)


def _save_csv(data: DatasetHandle, path: str) -> None:
    """Write `f0,...,f{p-1},label` rows; floats use repr for round-trip."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(data.p))
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def test_csv_round_trip_exact(tmp_path):
    data = synth_classification(25, 4, num_classes=3, seed=13)
    path = tmp_path / "data.csv"
    _save_csv(data, str(path))
    back = load_csv(str(path))
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    # num_classes is inferred from the labels
    assert back.num_classes == 3
    assert csv_header(4) == ["f0", "f1", "f2", "f3", "label"]


@pytest.mark.parametrize("labels, classes", [([3, 0, 2, 1, 0], 4), ([0, 0, 0], 2)])
def test_a_file_using_every_class_up_to_its_largest_label_loads(tmp_path, labels, classes):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n" + "".join(f"{i}.5,{y}\n" for i, y in enumerate(labels)))
    data = load_csv(str(path))
    assert data.labels.tolist() == labels and data.num_classes == classes
    assert data.features[:, 0].tolist() == [i + 0.5 for i in range(len(labels))]


# ---------------------------------------------------------------------------
# quadratic loss


def test_quadratic_loss_value():
    model = QuadraticLoss(center=np.zeros(2))
    assert model.loss_full(np.array([[3.0, 4.0]]), None)[0] == pytest.approx(12.5, abs=1e-15)
    shifted = QuadraticLoss(center=np.array([1.0, 1.0]), curvature=2.0)
    # 2/2 * ||(3,4)-(1,1)||^2 = 13
    assert shifted.loss_full(np.array([[3.0, 4.0]]), None)[0] == pytest.approx(13.0)


def test_quadratic_grad_matches_fd(fd_grad):
    model = QuadraticLoss(center=np.array([0.5, -1.0, 2.0]), curvature=3.0)
    theta = np.array([1.0, 0.2, -0.7])
    fd = fd_grad(lambda th: model.loss_full(th[None], None)[0], theta)
    assert np.allclose(model.grad_full(theta[None], None)[0], fd, atol=1e-6)
    assert model.smoothness == 3.0


def test_quadratic_has_no_prediction_head():
    model = QuadraticLoss(center=np.zeros(2))
    with pytest.raises(Exception):
        model.predict_proba(np.zeros((1, 2)), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# logistic loss


def test_binary_loss_at_origin_is_ln2(binary_model, binary_data):
    theta = np.zeros((1, binary_model.param_dim()))
    assert binary_model.loss_full(theta, binary_data)[0] == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_binary_grad_at_origin_closed_form(binary_model, binary_data):
    theta = np.zeros((1, binary_model.param_dim()))
    signs = 2.0 * binary_data.labels - 1.0
    expected = -(signs[:, None] * binary_data.features).mean(axis=0) / 2.0
    assert np.allclose(binary_model.grad_full(theta, binary_data)[0], expected, atol=1e-12)


@pytest.mark.parametrize("which", ["binary", "multi"])
def test_logistic_grad_matches_fd(which, binary_model, binary_data, multi_model, multi_data, fd_grad):
    model, data = (
        (binary_model, binary_data) if which == "binary" else (multi_model, multi_data)
    )
    gen = np.random.default_rng(4)
    theta = gen.normal(0.0, 0.3, model.param_dim())
    fd = fd_grad(lambda th: model.loss_full(th[None], data)[0], theta)
    assert np.allclose(model.grad_full(theta[None], data)[0], fd, atol=1e-5)


@pytest.mark.parametrize("which", ["binary", "multi"])
def test_per_example_grads_average_to_full(which, binary_model, binary_data, multi_model, multi_data):
    model, data = (
        (binary_model, binary_data) if which == "binary" else (multi_model, multi_data)
    )
    gen = np.random.default_rng(8)
    theta = gen.normal(0.0, 0.5, model.param_dim())
    per = per_example_grads(model, theta, data)
    assert per.shape == (data.n, model.param_dim())
    assert np.allclose(per.mean(axis=0), model.grad_full(theta[None], data)[0], atol=1e-12)


def test_for_data_constants(binary_data):
    model = LogisticLoss.for_data(binary_data, l2_reg=0.1, radius=2.0)
    max_norm = float(np.linalg.norm(binary_data.features, axis=1).max())
    assert model.lipschitz == pytest.approx(max_norm + 0.1 * 2.0)
    assert model.smoothness == pytest.approx(0.25 * max_norm**2 + 0.1)


@pytest.mark.parametrize("scale", [1e300, 1e160])
def test_for_data_rejects_a_feature_norm_bound_whose_square_overflows(binary_data, scale):
    big = DatasetHandle(binary_data.features * scale, binary_data.labels, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="feature norm bound"):
            LogisticLoss.for_data(big)


def test_per_example_grad_norms_within_lipschitz(binary_model, binary_data):
    radius = 2.0
    gen = np.random.default_rng(2)
    for _ in range(5):
        theta = gen.normal(0.0, 1.0, binary_model.param_dim())
        theta *= radius / np.linalg.norm(theta)
        norms = np.linalg.norm(per_example_grads(binary_model, theta, binary_data), axis=1)
        assert norms.max() <= binary_model.lipschitz + 1e-9


def _kernel_case(kind: str, l2: float):
    if kind == "quadratic":
        data = synth_classification(60, 4, num_classes=2, seed=9)
        return QuadraticLoss(center=np.array([0.6, -0.2, 0.4, 0.1]), curvature=1.5), data
    data = synth_classification(90, 5, num_classes=2 if kind == "binary" else 4, seed=9)
    return LogisticLoss.for_data(data, l2_reg=l2), data


@pytest.mark.parametrize("kind", ["binary", "softmax", "quadratic"])
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("clipped", ["none", "some", "all", "at_bound"])
def test_clipped_grad_mean_matches_the_per_example_oracle(kind, l2, clipped):
    model, data = _kernel_case(kind, l2)
    gen = np.random.default_rng(12)
    S, B = 3, 16
    rows = gen.normal(0.0, 0.8, (S, model.param_dim()))
    idx = np.stack([gen.choice(data.n, B, replace=False) for _ in range(S)])
    batches = [data.subset(i) for i in idx]
    per = [per_example_grads(model, rows[s], batches[s]) for s in range(S)]
    norms = np.linalg.norm(per, axis=2)  # (S, B)
    clip_norm = {
        "none": 2.0 * norms.max(),
        "some": float(np.median(norms)),
        "all": 0.5 * norms.min(),
        "at_bound": norms[0, 0],  # example 0 of row 0 sits exactly at the bound
    }[clipped]
    above = (norms > clip_norm).sum()
    assert {"none": above == 0, "all": above == norms.size}.get(clipped, 0 < above < norms.size)

    got = model.clipped_grad_mean(rows, data, model.batches(data, idx), clip_norm)
    oracle = np.stack([clip_rows(per[s], clip_norm).mean(axis=0) for s in range(S)])
    assert got.shape == rows.shape
    assert np.max(np.abs(got - oracle)) <= 1e-12
    losses = model.loss_full(rows, data, idx)
    for s in range(S):
        one = model.clipped_grad_mean(
            rows[s : s + 1], data, model.batches(data, idx[s : s + 1]), clip_norm
        )
        assert np.array_equal(one[0], got[s])
        assert losses[s] == model.loss_full(rows[s : s + 1], batches[s])[0]

    # a one-example batch's clipped mean is that example's clipped gradient:
    # its norm is the sensitivity the privacy ledger charges
    each = model.clipped_grad_mean(
        np.repeat(rows, B, axis=0), data, model.batches(data, idx.reshape(S * B, 1)), clip_norm
    )
    assert np.linalg.norm(each, axis=1).max() <= clip_norm * (1 + 1e-12)
    assert np.max(np.abs(each - clip_rows(np.concatenate(per), clip_norm))) <= 1e-12


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bytes, so also equal signs of zero, which np.array_equal ignores."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["binary", "softmax", "quadratic"])
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_practical_kernels_equal_the_full_l2_formulas(kind, l2):
    """The kernels skip their l2 terms at l2_reg = 0, where each is an exact
    zero, and compute them in the same order otherwise."""
    model, data = _kernel_case(kind, l2)
    gen = np.random.default_rng(14)
    S, B = 4, 16
    rows = gen.normal(0.0, 0.8, (S, model.param_dim()))
    idx = np.stack([gen.choice(data.n, B, replace=False) for _ in range(S)])
    for clip_norm in (1e-3, 0.5, 1e3):  # every, some and no example clipped
        got = model.clipped_grad_mean(rows, data, model.batches(data, idx), clip_norm)
        assert _bit_equal(got, clipped_grad_mean_l2(model, rows, data, idx, clip_norm))
    assert _bit_equal(model.loss_full(rows, data, idx), batch_loss_l2(model, rows, data, idx))


def _fsum_example(model, theta, x, label):
    """(loss, (p,) gradient, largest |logit|) of one example, every sum a
    math.fsum: the binary head's as the softmax of the logits (0, z)."""
    weights = theta.reshape(-1, model.n_features)
    logits = [math.fsum(w * x) for w in weights]
    if model.binary:
        logits = [0.0] + logits
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = math.fsum(exps)
    l2 = model.l2_reg
    loss = math.fsum([top, math.log(total), -logits[label], 0.5 * l2 * math.fsum(theta * theta)])
    resid = [e / total - (k == label) for k, e in enumerate(exps)][1 if model.binary else 0 :]
    grad = np.concatenate([r * x for r in resid]) + l2 * theta
    return loss, grad, max(abs(v) for v in logits)


@pytest.mark.parametrize("num_classes", [2, 3, 8, 9, 10, 17])
def test_softmax_kernels_match_an_fsum_reference(num_classes):
    """loss_full, grad_full and clipped_grad_mean against per-example losses
    and gradients summed by math.fsum, within 1e-12 relative. numpy sums
    fewer than 8 contiguous terms one by one and more of them pairwise; the
    class counts sit on both sides of that switch. A one-example
    loss is a difference of terms as large as its largest logit, so it is
    held to 1e-12 of that."""
    data = synth_classification(40, 6, num_classes=num_classes, seed=num_classes)
    model = LogisticLoss.for_data(data, l2_reg=0.05)
    rows = np.random.default_rng(num_classes).normal(scale=0.7, size=(2, model.param_dim()))
    one_each = np.arange(data.n)[:, None]
    for theta, loss, grad in zip(rows, model.loss_full(rows, data), model.grad_full(rows, data)):
        losses, grads, scales = zip(
            *(_fsum_example(model, theta, x, y) for x, y in zip(data.features, data.labels))
        )
        grads = np.array(grads)
        want = np.array([math.fsum(col) for col in grads.T]) / data.n
        assert loss == pytest.approx(math.fsum(losses) / data.n, rel=1e-12)
        assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()
        # each example alone, as a one-example batch that no clip bound scales
        repeated = np.repeat(theta[None], data.n, axis=0)
        got = model.clipped_grad_mean(repeated, data, model.batches(data, one_each), 1e300)
        assert np.all(np.abs(got - grads).max(axis=1) <= 1e-12 * np.abs(grads).max(axis=1))
        got = model.loss_full(repeated, data, one_each)
        assert np.all(np.abs(got - losses) <= 1e-12 * np.maximum(1.0, scales))


def test_predict_proba_rows_sum_to_one(multi_model, multi_data):
    gen = np.random.default_rng(3)
    theta = gen.normal(0.0, 0.4, (1, multi_model.param_dim()))
    probs = multi_model.predict_proba(theta, multi_data.features)
    assert probs.shape == (1, multi_data.n, 3)
    assert np.allclose(probs.sum(axis=2), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_binary_predict_saturates_at_large_margin():
    model = LogisticLoss(n_features=1)
    probs = model.predict_proba(np.array([[50.0]]), np.array([[1.0]]))
    assert probs[0, 0, 1] == pytest.approx(1.0, abs=1e-20)
    assert probs[0, 0, 0] == pytest.approx(0.0, abs=1e-20)


def test_loss_stays_finite_at_extreme_margins(binary_data):
    model = LogisticLoss.for_data(binary_data)
    theta = np.full((1, model.param_dim()), 1e3)
    assert math.isfinite(model.loss_full(theta, binary_data)[0])


def test_non_finite_logits_rejected():
    model = LogisticLoss(n_features=1)
    with pytest.raises(NumericDivergenceError):
        model.predict_proba(np.array([[np.inf]]), np.array([[1.0]]))


def test_accuracy_against_hand_labels():
    features = np.array([[1.0], [-1.0], [2.0], [-2.0]])
    labels = np.array([1, 0, 0, 1])  # half disagree with sign(x)
    data = DatasetHandle(features, labels, 2)
    model = LogisticLoss(n_features=1)
    assert accuracy(model, np.array([1.0]), data) == 0.5
    assert accuracy(model, np.array([-1.0]), data) == 0.5


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_logistic_loss_rejects_an_l2_reg_that_is_not_nonnegative_and_finite(bad):
    with pytest.raises(ValueError, match="l2_reg must be nonnegative and finite"):
        LogisticLoss(n_features=1, l2_reg=bad)


def test_wrong_theta_shape_rejected(binary_model, binary_data):
    with pytest.raises(ValueError):
        binary_model.loss_full(np.zeros((1, binary_model.param_dim() + 1)), binary_data)


def _masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-pass masked form the branch-free sigmoid replaced."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([800.0, -800.0, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 36.0, -36.0,
                        710.0, -745.0, np.inf, -np.inf])
    z = np.concatenate([special, np.random.default_rng(4).normal(scale=20.0, size=(1000,))])
    got, want = _sigmoid(z), _masked_sigmoid(z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    grid = z[14:].reshape(100, 10)
    assert np.array_equal(_sigmoid(grid), _masked_sigmoid(grid.ravel()).reshape(100, 10))


def _where_sigmoid_from(nonneg: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The np.where numerator the branch-free np.maximum one replaced."""
    return np.where(nonneg, 1.0, e) / (1.0 + e)


def _bits(x: np.ndarray) -> np.ndarray:
    # NaNs compare by their bit pattern too, sign and payload included
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def test_branch_free_slope_is_bit_equal_to_the_where_form():
    mags = np.array([0.0, 5e-324, 1e-300, 1.0, 36.7, 700.0, 1e308, np.inf])
    x = np.concatenate([mags, -mags, [np.nan]])
    want = _where_sigmoid_from(x >= 0, np.exp(-np.abs(x)))
    assert np.array_equal(_bits(_sigmoid(x)), _bits(want))
    # the binary residual -sigmoid(-z) = -1/(1 + exp(z)), for every x as a
    # signed margin z: where z <= 0, exp(z) is exp(-|z|), so it equals the
    # negated where form bit for bit
    binary = LogisticLoss(n_features=1)
    gen = np.random.default_rng(21)
    neg = np.concatenate([-mags, [0.0, -745.2, -709.8]])
    neg = np.concatenate([neg, -gen.uniform(0.0, 800.0, 2000), -gen.exponential(1.0, 2000)])
    got = binary._residual(neg, None)
    e = np.exp(-np.abs(neg))
    assert np.array_equal(_bits(got), _bits(-_where_sigmoid_from(neg <= 0, e)))
    # where 0 < z < ln(max float) it is within a few ulp of that form, which
    # takes e/(1 + e) there; the bit patterns of same-signed floats, read as
    # integers, are ordered, so their difference counts ulps
    top = math.log(np.finfo(np.float64).max)  # 709.78...: exp overflows above
    pos = np.concatenate([mags[1:6], [np.nextafter(top, 0.0)]])
    pos = np.concatenate([pos, gen.uniform(0.0, top, 2000), gen.exponential(1.0, 2000)])
    got = binary._residual(pos, None)
    e = np.exp(-pos)
    old = _bits(-_where_sigmoid_from(pos <= 0, e)).astype(np.int64)
    assert np.all(np.signbit(got))
    assert np.abs(_bits(got).astype(np.int64) - old).max() <= 4
    # where exp(z) overflows, and at +inf, the slope is its limit -0.0; NaN stays NaN
    big = np.array([np.nextafter(top, np.inf), 709.79, 710.0, 1e4, 1e308, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = binary._residual(big, None)
        assert np.isnan(binary._residual(np.array([np.nan]), None)).all()
    assert np.array_equal(_bits(got), _bits(np.full(len(big), -0.0)))


def test_binary_kernels_raise_no_warning_where_the_slope_saturates():
    """The "underflow" rows' margins reach |z| far above 745, where exp(-|z|)
    underflows and exp(z) overflows; no kernel warns on either."""
    model, data, rows = _binary_case("underflow")
    z = model._logits(rows, data.signed_features)
    assert z.max() > 710.0 and z.min() < -746.0
    idx = np.tile(np.arange(20), (len(rows), 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grads = model.grad_full(rows, data)
        losses = model.loss_full(rows, data)
        clipped = model.clipped_grad_mean(rows, data, model.batches(data, idx), 1.0)
    assert np.all(np.isfinite(grads)) and np.all(np.isfinite(losses))
    assert np.all(np.isfinite(clipped))


def _every_family(binary_data, multi_data):
    return [
        (QuadraticLoss(center=np.array([0.5, -1.0, 2.0])), binary_data),
        (LogisticLoss.for_data(binary_data, l2_reg=0.1), binary_data),
        (LogisticLoss.for_data(multi_data, l2_reg=0.1), multi_data),
    ]


@pytest.mark.parametrize("kind", ["binary", "softmax", "quadratic"])
def test_every_kernel_rejects_a_vector_and_names_the_row_shape(kind):
    """Every LossModel method and project_l2 take (S, p) rows only; accuracy
    is the one scoring entry that still takes a (p,) vector."""
    model, data = _kernel_case(kind, 0.05)
    vector = np.zeros(model.param_dim())
    idx = np.zeros((1, 4), dtype=np.int64)
    calls = {
        "loss_full": lambda: model.loss_full(vector, data),
        "loss_full on a batch": lambda: model.loss_full(vector, data, idx),
        "grad_full": lambda: model.grad_full(vector, data),
        "clipped_grad_mean": lambda: model.clipped_grad_mean(
            vector, data, model.batches(data, idx), 1.0
        ),
        "predict_proba": lambda: model.predict_proba(vector, data.features),
        "predict_labels": lambda: model.predict_labels(vector, data.features),
        "project_l2": lambda: project_l2(vector, 1.0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=re.escape("(S, p)")):
            call()
            pytest.fail(f"{name} accepted a (p,) vector")


def test_row_batched_calls_check_the_width(binary_data, multi_data):
    for model, data in _every_family(binary_data, multi_data):
        for bad in (np.zeros((2, model.param_dim() + 1)), np.zeros((1, 1, model.param_dim()))):
            with pytest.raises(ValueError):
                model.grad_full(bad, data)
            with pytest.raises(ValueError):
                model.loss_full(bad, data)
            with pytest.raises(ValueError):
                model.predict_proba(bad, data.features)
            with pytest.raises(ValueError):
                model.predict_labels(bad, data.features)


@given(
    family=st.sampled_from([0, 1, 2]),
    num_rows=st.sampled_from([1, 3]),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_batched_loss_and_grad_equal_per_row_calls(
    binary_data, multi_data, family, num_rows, scale, zero_row, seed
):
    """loss_full and grad_full give one value per row, and a row of a batch
    equals the one-row call bit for bit, also where exp underflows and at a
    zero row."""
    model, data = _every_family(binary_data, multi_data)[family]
    rows = np.random.default_rng(seed).normal(scale=scale, size=(num_rows, model.param_dim()))
    if zero_row:
        rows[0] = 0.0  # every folded margin z is exactly 0, the edge of the z <= 0 branch
    losses, grads = model.loss_full(rows, data), model.grad_full(rows, data)
    assert losses.shape == (num_rows,) and grads.shape == rows.shape
    for row, loss, grad in zip(rows, losses, grads):
        one = model.loss_full(row[None], data)
        assert one.shape == (1,) and _bit_equal(one[0], loss)
        assert _bit_equal(model.grad_full(row[None], data)[0], grad)


def test_row_batch_cases_reach_underflow_and_signed_zeros(binary_data, multi_data):
    """The rows the per-row identity test draws do reach the edge cases it
    names, in the folded margins every binary kernel reads."""
    binary, multi = (m for m, _ in _every_family(binary_data, multi_data)[1:])
    gen = np.random.default_rng(0)
    big = gen.normal(scale=1e3, size=(3, binary.param_dim()))
    z = binary._logits(big, binary_data.signed_features)
    assert np.any(np.exp(-np.abs(z)) == 0.0)
    zero = np.zeros((1, binary.param_dim()))
    # a matmul sum of zeros starts from +0.0, so the folded z of the zero row
    # is +0.0 on every example, even for a -0.0 row or a -0.0 folded feature row
    assert np.all(binary._logits(zero, binary_data.signed_features) == 0.0)
    logits = multi._logits(
        gen.normal(scale=1e3, size=(3, multi.param_dim())), multi_data.transposed_features
    )
    assert np.any(np.exp(logits - logits.max(axis=1, keepdims=True)) == 0.0)


def _binary_case(case):
    """(model, data, (S, p) rows) of one case of the sign-folded binary kernel."""
    base = synth_classification(60, 4, num_classes=2, separation=3.0, seed=5)
    features, labels = base.features.copy(), base.labels.copy()
    rows = np.random.default_rng(11).normal(size=(4, 4))
    if case == "underflow":
        rows *= 1e3  # most |z| are far above 745, where exp(-|z|) is 0.0
    elif case == "zero_rows":
        features[::3] = 0.0  # zero logits for every row
        rows[0] = 0.0  # zero logits on every example
    elif case == "all_zero_labels":
        labels[:] = 0
    elif case == "all_one_labels":
        labels[:] = 1
    data = DatasetHandle(features, labels, 2)
    return LogisticLoss.for_data(data, l2_reg=0.05), data, rows


@pytest.mark.parametrize(
    "case", ["plain", "underflow", "zero_rows", "all_zero_labels", "all_one_labels"]
)
def test_binary_full_kernel_matches_unfolded_references(case):
    """loss_full and grad_full read the folded store, and so do
    clipped_grad_mean and loss_full on the batches of an index matrix; the
    references never fold: a log-add-exp loss of the plain margins and the
    mean of the per-example oracle's (clipped) gradients, all within 1e-12."""
    model, data, rows = _binary_case(case)
    z = model._logits(rows, data.signed_features)
    if case == "underflow":
        assert np.any(np.exp(-np.abs(z)) == 0.0)
    if case == "zero_rows":
        assert np.all(z[0] == 0.0) and np.all(z[:, ::3] == 0.0)
    signs = 2.0 * data.labels - 1.0
    losses, grads = model.loss_full(rows, data), model.grad_full(rows, data)
    for theta, loss, grad in zip(rows, losses, grads):
        # a row of the batch equals the one-row call, bit for bit
        assert model.loss_full(theta[None], data)[0] == loss
        assert np.array_equal(model.grad_full(theta[None], data)[0], grad)
        ce = np.logaddexp(0.0, -signs * (data.features @ theta))
        want_loss = ce.mean() + 0.5 * model.l2_reg * (theta @ theta)
        want_grad = per_example_grads(model, theta, data).mean(axis=0)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
    # the batch kernels, on one 20-row batch per row
    gen = np.random.default_rng(13)
    idx = np.stack([gen.choice(data.n, 20, replace=False) for _ in rows])
    clipped = model.clipped_grad_mean(rows, data, model.batches(data, idx), 1.0)
    for theta, batch_rows, grad, loss in zip(rows, idx, clipped, model.loss_full(rows, data, idx)):
        batch = data.subset(batch_rows)
        ce = np.logaddexp(0.0, -(2.0 * batch.labels - 1.0) * (batch.features @ theta))
        want_loss = ce.mean() + 0.5 * model.l2_reg * (theta @ theta)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        want_grad = clipped_mean(model, theta, batch, 1.0)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def _fresh(data):
    return DatasetHandle(data.features, data.labels, data.num_classes)


@pytest.mark.parametrize("name", ["signed_features", "transposed_features"])
def test_each_store_is_one_read_only_transposed_copy(binary_data, name):
    """signed_features is an (n, p) view of its (p, n) store, and
    transposed_features is the (p, n) store itself."""
    data = _fresh(binary_data)
    store = getattr(data, name)
    assert getattr(data, name) is store
    if name == "signed_features":
        want, store = (2.0 * data.labels - 1.0)[:, None] * data.features, store.T
    else:
        want = data.features
    assert store.shape == (data.p, data.n) and store.flags.c_contiguous
    assert np.array_equal(store.T, want)
    assert not np.shares_memory(store, data.features)
    for write in (lambda: store.__setitem__((0, 0), 1.0), lambda: store.T.__imul__(-1.0)):
        with pytest.raises(ValueError):
            write()
    assert np.array_equal(data.features, binary_data.features)


@pytest.mark.parametrize("which", ["binary", "multi"])
def test_design_gathers_the_store_its_head_reads(which, binary_data, multi_data):
    data = binary_data if which == "binary" else multi_data
    model = LogisticLoss.for_data(data)
    store = data.signed_features if which == "binary" else data.transposed_features
    assert model._design(data) is store
    idx = np.random.default_rng(4).integers(0, data.n, size=(3, 7))
    rows = model._design(data, idx)
    if which == "multi":  # the softmax head's batches are (S, d, B), as its store is (d, n)
        # what the stacked matmuls need: each row's (d, B) factor holds the
        # store's columns and runs along B with a unit stride, as the store does
        assert rows.shape == (3, data.p, 7) and rows.strides[2] == rows.itemsize
        for s in range(3):
            assert np.array_equal(rows[s], store[:, idx[s]])
        rows, store = np.swapaxes(rows, 1, 2), store.T
    assert rows.shape == (3, 7, data.p)
    for s in range(3):
        assert np.array_equal(rows[s], store[idx[s]])


@pytest.mark.parametrize("l2_reg", [0.0, 0.05])
@pytest.mark.parametrize("num_classes", [3, 10])
@pytest.mark.parametrize("num_rows", [1, 2, 40])
def test_softmax_batch_kernels_equal_them_on_the_row_loop_gather(
    num_rows, num_classes, l2_reg, monkeypatch
):
    """clipped_grad_mean and the batch loss_full give the same bits on the
    one-take (S, d, B) view as on a C-contiguous row-at-a-time gather."""
    data = synth_classification(300, 6, num_classes=num_classes, separation=2.0, seed=num_rows)
    model = LogisticLoss.for_data(data, l2_reg=l2_reg)
    gen = np.random.default_rng(num_classes)
    rows = gen.normal(scale=0.5, size=(num_rows, model.param_dim()))
    idx = gen.integers(0, data.n, size=(num_rows, 32))

    def scores():
        batches = model.batches(data, idx)
        return model.clipped_grad_mean(rows, data, batches, 0.5), model.loss_full(rows, data, idx)

    took = scores()
    store = LogisticLoss._design

    def row_loop_design(self, data, idx=None):
        return store(self, data) if idx is None else row_loop_batches(data, idx)

    monkeypatch.setattr(LogisticLoss, "_design", row_loop_design)
    for got, want in zip(took, scores(), strict=True):
        assert np.array_equal(got, want)


def test_softmax_hits_check_finite_rows_the_logit_bound_does_not_cover():
    """Rows whose squared norm overflows fail the bound, and the full check
    then tells a product that overflows from one that does not."""
    model = LogisticLoss(n_features=2, num_classes=3)
    data = DatasetHandle(np.array([[1e-160, 0.0], [0.0, 1e-160]]), np.array([0, 2]), 3)
    fine = np.full((1, 6), 1e160)  # squared norm overflows, logits are 1
    fine[0, 4:] = 2e160
    assert model.hits(fine, data).tolist() == [[False, True]]
    huge = DatasetHandle(np.eye(2) * 1e160, data.labels, 3)  # logits overflow
    with pytest.raises(NumericDivergenceError, match="non-finite logits"):
        with np.errstate(over="ignore"):
            model.hits(fine, huge)


def test_sq_norms_is_built_once_from_the_row_dots(binary_data):
    data = _fresh(binary_data)
    norms = data.sq_norms
    assert data.sq_norms is norms
    assert np.array_equal(norms, np.einsum("ij,ij->i", data.features, data.features))
    assert np.allclose(norms, [row @ row for row in data.features], rtol=1e-14, atol=0.0)


def test_a_subset_folds_its_own_labels(binary_data):
    data = _fresh(binary_data)
    data.signed_features  # the parent's store exists before the subset is taken
    sub = data.subset(np.arange(1, data.n, 3))
    assert np.array_equal(sub.signed_features, (2.0 * sub.labels - 1.0)[:, None] * sub.features)
    assert not np.shares_memory(sub.signed_features, data.signed_features)
    model = LogisticLoss.for_data(data, l2_reg=0.05)
    rows = np.random.default_rng(2).normal(size=(3, data.p))
    assert np.array_equal(model.grad_full(rows, sub), model.grad_full(rows, _fresh(sub)))


def test_a_pickled_handle_rebuilds_its_store_with_equal_gradients(binary_data, multi_data):
    data = _fresh(binary_data)
    data.signed_features, data.sq_norms
    copy = pickle.loads(pickle.dumps(data))
    assert "sq_norms" not in vars(copy)  # derived data, rebuilt on first use
    assert np.array_equal(copy.sq_norms, data.sq_norms)
    assert not copy.signed_features.flags.writeable
    assert np.array_equal(copy.signed_features, data.signed_features)
    model = LogisticLoss.for_data(data, l2_reg=0.05)
    rows = np.random.default_rng(3).normal(size=(3, data.p))
    assert np.array_equal(model.loss_full(rows, copy), model.loss_full(rows, data))
    assert np.array_equal(model.grad_full(rows, copy), model.grad_full(rows, data))
    # the softmax head's tie weights are rebuilt too, so a worker scores alike
    multi = _fresh(multi_data)
    model = LogisticLoss.for_data(multi)
    rows = np.random.default_rng(4).normal(size=(5, model.param_dim()))
    accs = accuracy(model, rows, multi)
    copy = pickle.loads(pickle.dumps(multi))
    for derived in ("label_weights", "transposed_features"):
        assert derived in vars(multi) and derived not in vars(copy)
    assert np.array_equal(accuracy(model, rows, copy), accs)
    assert _bit_equal(copy.label_weights, multi.label_weights)
    assert not copy.transposed_features.flags.writeable
    assert _bit_equal(copy.transposed_features, multi.transposed_features)


def test_row_batched_predictions_equal_per_row_calls(binary_data, multi_data):
    gen = np.random.default_rng(9)
    for model, data in _every_family(binary_data, multi_data)[1:]:
        chunk = max(1, ACCURACY_BLOCK // (data.n * data.num_classes))
        rows = gen.normal(scale=2.0, size=(2 * chunk + 1, model.param_dim()))
        probs, accs = model.predict_proba(rows, data.features), accuracy(model, rows, data)
        hits = model.hits(rows, data)
        assert probs.shape == (len(rows), data.n, data.num_classes)
        assert accs.shape == (len(rows),) and len(set(accs.tolist())) > 1
        assert hits.shape == (len(rows), data.n) and hits.dtype == bool
        # accuracy scores a chunk at a time: rows on either side of its
        # boundaries score as they do alone
        for s, row in enumerate(rows):
            assert np.array_equal(probs[s], model.predict_proba(row[None], data.features)[0])
            assert np.array_equal(hits[s], model.hits(row[None], data)[0])
            one = accuracy(model, row, data)
            assert type(one) is float and accs[s] == one
        assert np.array_equal(accs, hits.sum(axis=1) / data.n)
        assert np.array_equal(hits, model.predict_labels(rows, data.features) == data.labels)


# ---------------------------------------------------------------------------
# labels from logits


@given(
    binary=st.booleans(),
    num_rows=st.sampled_from([1, 3]),
    scale=st.sampled_from([0.1, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_labels_equals_the_probability_argmax(
    binary_data, multi_data, binary, num_rows, scale, seed
):
    data = binary_data if binary else multi_data
    model = LogisticLoss.for_data(data)
    gen = np.random.default_rng(seed)
    theta = gen.normal(scale=scale, size=(num_rows, model.param_dim()))
    labels = model.predict_labels(theta, data.features)
    assert labels.shape == (num_rows, data.n)
    assert np.array_equal(labels, model.predict_proba(theta, data.features).argmax(-1))


def test_predict_labels_exact_ties_give_class_zero(monkeypatch):
    binary = LogisticLoss(n_features=1)
    features = np.array([[1.0], [-1.0]])
    assert binary.predict_labels(np.zeros((1, 1)), features).tolist() == [[0, 0]]
    # a BLAS sum starting from +0.0 never yields -0.0, so feed both signed zeros
    monkeypatch.setattr(binary, "_logits", lambda rows, feats: np.array([[0.0, -0.0]]))
    assert binary.predict_labels(np.zeros((1, 1)), features).tolist() == [[0, 0]]
    assert binary.predict_proba(np.zeros((1, 1)), features).argmax(-1).tolist() == [[0, 0]]
    multi = LogisticLoss(n_features=2, num_classes=3)
    labels = multi.predict_labels(np.zeros((2, 6)), features.repeat(2, axis=1))
    assert labels.tolist() == [[0, 0], [0, 0]]


def test_predict_labels_splits_logits_that_round_to_equal_probabilities():
    """The one place labels differ from the probability argmax: adjacent-float
    logits whose softmax probabilities round equal."""
    model = LogisticLoss(n_features=1, num_classes=3)
    # exp(-ulp(0.1)) rounds to 1.0, so the two top probabilities round equal
    theta, features = np.array([0.1, np.nextafter(0.1, 1.0), -5.0]), np.array([[1.0]])
    probs = model.predict_proba(theta[None], features)[0]
    assert probs[0, 0] == probs[0, 1] and probs.argmax(-1).tolist() == [0]
    assert model.predict_labels(theta[None], features).tolist() == [[1]]
    assert accuracy(model, theta, DatasetHandle(features, np.array([1]), 3)) == 1.0


def test_predict_labels_rejects_non_finite_logits_and_quadratic_models(binary_data):
    model = LogisticLoss(n_features=1)
    data = DatasetHandle(np.array([[1.0]]), np.array([1]), 2)
    with pytest.raises(NumericDivergenceError):
        model.predict_labels(np.array([[np.inf]]), data.features)
    with pytest.raises(NumericDivergenceError):
        accuracy(model, np.array([np.inf]), data)
    softmax, three = LogisticLoss(n_features=1, num_classes=3), DatasetHandle([[1.0]], [2], 3)
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericDivergenceError, match="non-finite logits"):
            accuracy(softmax, np.array([[0.5, bad, -1.0]]), three)
    with pytest.raises(ValueError, match="no prediction head"):
        QuadraticLoss(center=np.zeros(5)).predict_labels(np.zeros((1, 5)), binary_data.features)


@given(
    num_classes=st.sampled_from([2, 3, 10]),
    num_rows=st.integers(1, 4),
    integral=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hits_are_the_predicted_labels_that_match(num_classes, num_rows, integral, seed):
    gen = np.random.default_rng(seed)
    n, d = 60, 3
    model = LogisticLoss(n_features=d, num_classes=num_classes)
    if integral:
        # small integer features and weights give exact logit ties, a label
        # tied with a lower class among them
        features = gen.integers(-2, 3, (n, d)).astype(np.float64)
        rows = gen.integers(-1, 2, (num_rows, model.param_dim())).astype(np.float64)
    else:
        features = gen.normal(size=(n, d))
        rows = gen.normal(scale=2.0, size=(num_rows, model.param_dim()))
    data = DatasetHandle(features, gen.integers(0, num_classes, n), num_classes)
    want = model.predict_labels(rows, features) == data.labels
    assert np.array_equal(model.hits(rows, data), want)


def test_hits_give_a_logit_tie_to_its_lowest_class():
    model = LogisticLoss(n_features=1, num_classes=4)
    rows = np.array([[1.0, 2.0, 2.0, 2.0], [2.0, 1.0, 2.0, 1.0]])
    data = DatasetHandle(np.ones((4, 1)), np.arange(4), 4)
    # row 0 ties classes 1, 2, 3 at the top; row 1 ties classes 0 and 2
    assert model.hits(rows, data).tolist() == [
        [False, True, False, False],
        [True, False, False, False],
    ]
    assert model.predict_labels(rows, data.features).tolist() == [[1] * 4, [0] * 4]


@pytest.mark.parametrize("num_classes", [64, 65, 128, 129])
def test_hits_count_top_class_weights_without_wrapping(num_classes):
    """hits sums an example's top-class tie weights, at most 2c - 1, in the
    narrowest integer type that holds that total (int8 up to 64 classes).
    A zero row ties every class, so a label L weighs 2L + 1 in all, more
    than int8 holds from 65 classes on; the integer rows tie some classes."""
    gen = np.random.default_rng(num_classes)
    d = 2
    model = LogisticLoss(n_features=d, num_classes=num_classes)
    labels = np.concatenate([np.arange(num_classes), gen.integers(0, num_classes, 40)])
    features = gen.integers(-1, 2, (len(labels), d)).astype(np.float64)
    rows = gen.integers(-1, 2, (3, model.param_dim())).astype(np.float64)
    rows[0] = 0.0
    data = DatasetHandle(features, labels, num_classes)
    want = model.predict_labels(rows, features) == data.labels
    assert np.array_equal(model.hits(rows, data), want)
    assert want[0].sum() == np.sum(labels == 0)


def _tie_rows(num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, the class each row's top logit picks) of a one-feature softmax
    head, whose logits on the feature 1.0 are the row's class weights, exact.
    Every pair of classes ties exactly at the top (argmax picks the lower),
    then one is 2, 3 or 4 ulp of 3.0 above the other, in both orders: far
    enough apart that exp(logit - max) stays apart too."""
    rows, picks = [], []
    for a in range(num_classes):
        for b in range(a + 1, num_classes):
            for gap in (0, 2, 3, 4):
                for high in ((a, b) if gap else (a,)):
                    row = np.full(num_classes, -1.0)
                    row[a] = row[b] = 3.0
                    row[high] += gap * np.spacing(3.0)
                    rows.append(row)
                    picks.append(high)
    return np.array(rows), np.array(picks)


@pytest.mark.parametrize("num_classes", [3, 10])
def test_softmax_scores_agree_on_ties_near_ties_and_a_non_finite_logit(num_classes):
    """hits, predict_labels == labels and the argmax of predict_proba give the
    same class on exact and near logit ties; a non-finite logit makes each
    of them raise."""
    model = LogisticLoss(n_features=1, num_classes=num_classes)
    rows, picks = _tie_rows(num_classes)
    data = DatasetHandle(np.ones((num_classes, 1)), np.arange(num_classes), num_classes)
    labels = model.predict_labels(rows, data.features)
    assert np.array_equal(labels, np.repeat(picks[:, None], num_classes, axis=1))
    assert np.array_equal(model.predict_proba(rows, data.features).argmax(-1), labels)
    assert np.array_equal(model.hits(rows, data), labels == data.labels)
    assert np.array_equal(accuracy(model, rows, data), np.full(len(rows), 1.0 / num_classes))
    for bad in (np.inf, -np.inf, np.nan):
        row = rows[:2].copy()  # one finite row, one with the non-finite weight
        row[1, num_classes - 1] = bad
        scores = {
            "hits": lambda: model.hits(row, data),
            "predict_labels": lambda: model.predict_labels(row, data.features),
            "predict_proba": lambda: model.predict_proba(row, data.features),
            "accuracy": lambda: accuracy(model, row, data),
        }
        for name, score in scores.items():
            with pytest.raises(NumericDivergenceError, match="non-finite logits"):
                score()
                pytest.fail(f"{name} scored a non-finite logit")


@pytest.mark.parametrize("num_rows", [1, 2, 80])
def test_hits_equal_the_predicted_labels_on_near_ties_at_the_stock_shape(num_rows):
    """hits read the handle's (p, n) store and predict_labels a C-contiguous
    copy of the transposed features it is given, so both make the same BLAS
    call. Classes 2k + 1 are classes 2k with each weight nudged by -1, 0 or
    +1 in its last bit: their logits part by no more than rounding, where
    a product with the transposed operand picks another class on some
    examples at this shape."""
    data = synth_classification(500, 20, num_classes=10, seed=4)
    model = LogisticLoss.for_data(data)
    gen = np.random.default_rng(num_rows)
    weights = gen.normal(size=(num_rows, 10, 20))
    nudge = gen.choice([-1.0, 0.0, 1.0], size=(num_rows, 5, 20)) * 2.0**-52
    weights[:, 1::2] = weights[:, 0::2] * (1.0 + nudge)
    rows = weights.reshape(num_rows, -1)
    labels = model.predict_labels(rows, data.features)
    assert np.array_equal(labels, np.matmul(weights, data.transposed_features).argmax(axis=1))
    assert np.array_equal(model.hits(rows, data), labels == data.labels)


def test_label_scoring_never_builds_probabilities(monkeypatch, multi_data):
    """accuracy, best-k, OMV, pds_eval's window scoring and the trainer's
    per-step eval all score a LogisticLoss from its logits alone."""
    model = LogisticLoss.for_data(multi_data, l2_reg=0.01)

    def no_probs(self, theta, features):
        raise AssertionError("predict_proba called where only labels are read")

    monkeypatch.setattr(LogisticLoss, "predict_proba", no_probs)
    params = np.random.default_rng(5).normal(size=(6, model.param_dim()))
    steps = list(range(1, 7))
    assert accuracy(model, params, multi_data).shape == (6,)
    assert len(select_best_k(params, steps, model, multi_data, 2)) == 2
    assert omv_batch_labels(params, model, multi_data.features).shape == (multi_data.n,)
    run = SimpleNamespace(params=params, steps=np.array(steps))
    parts = {"validation": multi_data, "test": multi_data}
    beta_specs, k_specs = [AggregationSpec("ema", beta=0.5)], [AggregationSpec("upa_k", k=2)]
    _pds_scores(model, parts, beta_specs, k_specs, 3, run)
    config = TrainerConfig("practical", 4, EtaSchedule("constant", 0.1), batch_size=8)
    (run,) = dp_sgd_practical_runs(
        model, multi_data, config, [0], noise_multiplier=1.0, eval_data=multi_data
    )
    assert np.all(np.isfinite(run.metrics[:, 1]))


# ---------------------------------------------------------------------------
# diurnal sampler


def _two_row_sets(n=60, p=3):
    """A dataset whose first n rows are class 0 and last n rows class 1,
    and those two row sets."""
    features = np.random.default_rng(0).normal(size=(2 * n, p))
    data = DatasetHandle(features, np.repeat([0, 1], n), 2)
    return data, np.arange(n), np.arange(n, 2 * n)


def _batch_words(seed, first, count, batch):
    """A seed's STREAM_BATCH words of rows first..first + count - 1, 2B a row."""
    return rng.raw_rows(seed, rng.STREAM_BATCH, 0, first, count, 2 * batch)


def test_diurnal_draw_rows_match_the_per_step_reference():
    # interleaved, unequal row sets of a shuffled dataset
    data = synth_classification(150, 4, num_classes=3, seed=2)
    sched = DiurnalSchedule(
        period=8,
        rows_a=np.flatnonzero(data.labels == 1),
        rows_b=np.flatnonzero(data.labels != 1),
    )
    # phases 0, 8, 16 draw only rows_a and 4, 12 only rows_b; an odd batch
    # leaves half of each row's last counter block unused
    for seed in (0, 5, -1, 2**64 - 1):
        for first, count, batch in ((0, 17, 24), (5, 3, 7), (2**32 - 1, 2, 1)):
            got = diurnal_draw(sched, first, _batch_words(seed, first, count, batch))
            assert got.shape == (count, batch) and got.dtype == np.int64
            for r, row in enumerate(got):
                assert np.array_equal(row, diurnal_row(seed, sched, first + r + 1, batch))


_EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
_EDGE_SIZES = [1, 2, 3, 1749, 2**32 - 1]


def test_diurnal_row_map_is_the_exact_integer_product():
    words = np.array(_EDGE_WORDS, dtype=np.uint64)[:, None]
    sizes = np.array(_EDGE_SIZES, dtype=np.uint64)[None, :]
    want = [[(w * n) >> 64 for n in _EDGE_SIZES] for w in _EDGE_WORDS]
    assert _scale_words(words, sizes).tolist() == want


@given(word=st.integers(0, 2**64 - 1), size=st.integers(1, 2**32 - 1))
def test_diurnal_row_map_matches_big_integers(word, size):
    got = _scale_words(np.array([word], dtype=np.uint64), np.array([size], dtype=np.uint64))
    assert int(got[0]) == (word * size) >> 64 < size


def test_diurnal_prob_triangle_wave():
    _, a, b = _two_row_sets()
    sched = DiurnalSchedule(period=8, rows_a=a, rows_b=b)
    assert diurnal_prob(sched, 0) == 1.0
    assert diurnal_prob(sched, 2) == 0.5
    assert diurnal_prob(sched, 4) == 0.0
    assert diurnal_prob(sched, 6) == 0.5
    assert diurnal_prob(sched, 8) == 1.0  # periodic
    with pytest.raises(ValueError):
        diurnal_prob(sched, -1)


def test_diurnal_draw_pure_phases():
    data, a, b = _two_row_sets()
    sched = DiurnalSchedule(period=8, rows_a=a, rows_b=b)
    words = _batch_words(0, 0, 2, 32)
    # the extreme membership words: 2**64 - 1 is the uniform 1 - 2**-53
    words[:, :2] = [0, 2**64 - 1]
    rows_a = diurnal_draw(sched, 0, words[:1])
    assert np.all(data.labels[rows_a] == 0)  # p=1, every row from rows_a
    rows_b = diurnal_draw(sched, 4, words[1:])
    assert np.all(data.labels[rows_b] == 1)  # p=0, every row from rows_b
    assert rows_a.shape == (1, 32) and rows_a.dtype == np.int64


def test_diurnal_draw_mixes_at_half_phase():
    # 40,000 examples of one step at phase 2 of 8, where p = 1/2
    sched = DiurnalSchedule(period=8, rows_a=[0, 1, 2], rows_b=[3, 4, 5])
    assert diurnal_prob(sched, 2) == 0.5
    rows = diurnal_draw(sched, 2, _batch_words(1, 2, 1, 40_000))[0]
    counts = np.bincount(rows, minlength=6)
    n_a = counts[:3].sum()
    assert abs(n_a / rows.size - 0.5) < 4 * math.sqrt(0.25 / rows.size)
    # each row of a 3-row set takes a third of that set's draws
    for share, total in ((counts[:3], n_a), (counts[3:], rows.size - n_a)):
        se = math.sqrt((1 / 3) * (2 / 3) / total)
        assert np.all(np.abs(share / total - 1 / 3) < 4 * se)


def test_diurnal_validation_errors():
    data, a, b = _two_row_sets()
    with pytest.raises(ValueError):
        DiurnalSchedule(period=1, rows_a=a, rows_b=b)
    for rows in (np.array([], dtype=np.int64), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError):
            DiurnalSchedule(period=4, rows_a=a, rows_b=rows)
    # a zero-stride vector of 2**32 rows takes no memory
    with pytest.raises(ValueError, match="fewer than 2"):
        DiurnalSchedule(period=4, rows_a=np.broadcast_to(np.int64(0), (2**32,)), rows_b=b)
    sched = DiurnalSchedule(period=4, rows_a=a, rows_b=b)
    words = _batch_words(0, 0, 2, 3)
    for bad in (words[:0], words[:, :5], words[0], words[:, :0]):
        with pytest.raises(ValueError, match="block of words"):
            diurnal_draw(sched, 0, bad)
    with pytest.raises(ValueError):
        diurnal_draw(sched, -1, words)

    # rows outside the training data fail before the first step
    model = LogisticLoss.for_data(data)
    steps_taken = []
    model.clipped_grad_mean = lambda *args: steps_taken.append(1)
    for rows in (np.array([0, -1]), np.array([0, data.n])):
        config = TrainerConfig(
            "practical", 3, EtaSchedule("constant", 0.1), batch_size=4,
            diurnal=DiurnalSchedule(period=4, rows_a=a, rows_b=rows),
        )
        with pytest.raises(ValueError, match="diurnal rows"):
            dp_sgd_practical_runs(model, data, config, [0], noise_multiplier=0.0)
    assert steps_taken == []
