"""Datasets, loss gradients, prediction heads, and the diurnal sampler."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpckpt.aggregate import AggregationSpec, omv_batch_labels, select_best_k
from dpckpt.errors import NumericOverflowError
from dpckpt.harness.experiments import stability_report
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
    save_csv,
    _sigmoid,
    synth_classification,
)
from dpckpt.rng import step_generator
from dpckpt.trainer import EtaSchedule, TrainerConfig, dp_sgd_practical
from per_example import clip_rows, per_example_grads

# ---------------------------------------------------------------------------
# datasets


def test_synth_shapes_and_balance():
    data = synth_classification(90, 4, num_classes=3, seed=5)
    assert data.features.shape == (90, 4)
    assert data.labels.shape == (90,)
    assert data.num_classes == 3
    # labels are a permutation of 0..n-1 mod C, so classes are balanced
    assert np.bincount(data.labels, minlength=3).tolist() == [30, 30, 30]
    assert "n=90" in data.tag


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


def test_subset_tags_and_contents():
    data = synth_classification(20, 3, seed=0, tag="train")
    sub = data.subset(np.array([3, 1, 7]), tag="validation")
    assert sub.n == 3 and sub.p == 3
    assert sub.tag == "validation"
    assert np.array_equal(sub.features, data.features[[3, 1, 7]])
    assert np.array_equal(sub.labels, data.labels[[3, 1, 7]]) and sub.num_classes == 2
    inherit = data.subset(np.array([0, 2]))
    assert inherit.tag == "train"
    for empty in (np.array([], dtype=np.int64), np.zeros(20, dtype=bool)):
        with pytest.raises(ValueError):
            data.subset(empty)


def test_csv_round_trip_exact(tmp_path):
    data = synth_classification(25, 4, num_classes=3, seed=13, tag="orig")
    path = tmp_path / "data.csv"
    save_csv(data, str(path))
    back = load_csv(str(path), tag="copy")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)
    # num_classes inferred from the labels when not given
    assert back.num_classes == 3
    assert back.tag == "copy"
    assert csv_header(4) == ["f0", "f1", "f2", "f3", "label"]


# ---------------------------------------------------------------------------
# quadratic loss


def test_quadratic_loss_value():
    model = QuadraticLoss(center=np.zeros(2))
    assert model.loss_full(np.array([3.0, 4.0]), None) == pytest.approx(12.5, abs=1e-15)
    shifted = QuadraticLoss(center=np.array([1.0, 1.0]), curvature=2.0)
    # 2/2 * ||(3,4)-(1,1)||^2 = 13
    assert shifted.loss_full(np.array([3.0, 4.0]), None) == pytest.approx(13.0)


def test_quadratic_grad_matches_fd(fd_grad):
    model = QuadraticLoss(center=np.array([0.5, -1.0, 2.0]), curvature=3.0)
    theta = np.array([1.0, 0.2, -0.7])
    fd = fd_grad(lambda th: model.loss_full(th, None), theta)
    assert np.allclose(model.grad_full(theta, None), fd, atol=1e-6)
    assert model.strong_convexity == 3.0
    assert model.smoothness == 3.0


def test_quadratic_has_no_prediction_head():
    model = QuadraticLoss(center=np.zeros(2))
    with pytest.raises(Exception):
        model.predict_proba(np.zeros(2), np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# logistic loss


def test_binary_loss_at_origin_is_ln2(binary_model, binary_data):
    theta = np.zeros(binary_model.param_dim())
    assert binary_model.loss_full(theta, binary_data) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_binary_grad_at_origin_closed_form(binary_model, binary_data):
    theta = np.zeros(binary_model.param_dim())
    signs = 2.0 * binary_data.labels - 1.0
    expected = -(signs[:, None] * binary_data.features).mean(axis=0) / 2.0
    assert np.allclose(binary_model.grad_full(theta, binary_data), expected, atol=1e-12)


@pytest.mark.parametrize("which", ["binary", "multi"])
def test_logistic_grad_matches_fd(which, binary_model, binary_data, multi_model, multi_data, fd_grad):
    model, data = (
        (binary_model, binary_data) if which == "binary" else (multi_model, multi_data)
    )
    gen = np.random.default_rng(4)
    theta = gen.normal(0.0, 0.3, model.param_dim())
    fd = fd_grad(lambda th: model.loss_full(th, data), theta)
    assert np.allclose(model.grad_full(theta, data), fd, atol=1e-5)


@pytest.mark.parametrize("which", ["binary", "multi"])
def test_per_example_grads_average_to_full(which, binary_model, binary_data, multi_model, multi_data):
    model, data = (
        (binary_model, binary_data) if which == "binary" else (multi_model, multi_data)
    )
    gen = np.random.default_rng(8)
    theta = gen.normal(0.0, 0.5, model.param_dim())
    per = per_example_grads(model, theta, data)
    assert per.shape == (data.n, model.param_dim())
    assert np.allclose(per.mean(axis=0), model.grad_full(theta, data), atol=1e-12)


def test_for_data_constants(binary_data):
    model = LogisticLoss.for_data(binary_data, l2_reg=0.1, radius=2.0)
    max_norm = float(np.linalg.norm(binary_data.features, axis=1).max())
    assert model.lipschitz == pytest.approx(max_norm + 0.1 * 2.0)
    assert model.smoothness == pytest.approx(0.25 * max_norm**2 + 0.1)
    assert model.strong_convexity == 0.1


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

    features, labels = data.features[idx], data.labels[idx]
    sq_norms = np.einsum("ij,ij->i", data.features, data.features)[idx]
    got = model.clipped_grad_mean(rows, features, labels, sq_norms, clip_norm)
    oracle = np.stack([clip_rows(per[s], clip_norm).mean(axis=0) for s in range(S)])
    assert got.shape == rows.shape
    assert np.max(np.abs(got - oracle)) <= 1e-12
    losses = model.batch_loss(rows, features, labels)
    for s in range(S):
        one = model.clipped_grad_mean(rows[s : s + 1], features[s : s + 1], labels[s : s + 1],
                                      sq_norms[s : s + 1], clip_norm)
        assert np.array_equal(one[0], got[s])
        assert losses[s] == model.loss_full(rows[s], batches[s])

    # a one-example batch's clipped mean is that example's clipped gradient:
    # its norm is the sensitivity the privacy ledger charges
    each = model.clipped_grad_mean(
        np.repeat(rows, B, axis=0), features.reshape(S * B, 1, -1), labels.reshape(S * B, 1),
        sq_norms.reshape(S * B, 1), clip_norm,
    )
    assert np.linalg.norm(each, axis=1).max() <= clip_norm * (1 + 1e-12)
    assert np.max(np.abs(each - clip_rows(np.concatenate(per), clip_norm))) <= 1e-12


def test_predict_proba_rows_sum_to_one(multi_model, multi_data):
    gen = np.random.default_rng(3)
    theta = gen.normal(0.0, 0.4, multi_model.param_dim())
    probs = multi_model.predict_proba(theta, multi_data.features)
    assert probs.shape == (multi_data.n, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_binary_predict_saturates_at_large_margin():
    model = LogisticLoss(n_features=1)
    probs = model.predict_proba(np.array([50.0]), np.array([[1.0]]))
    assert probs[0, 1] == pytest.approx(1.0, abs=1e-20)
    assert probs[0, 0] == pytest.approx(0.0, abs=1e-20)


def test_loss_stays_finite_at_extreme_margins(binary_data):
    model = LogisticLoss.for_data(binary_data)
    theta = np.full(model.param_dim(), 1e3)
    assert math.isfinite(model.loss_full(theta, binary_data))


def test_non_finite_logits_rejected():
    model = LogisticLoss(n_features=1)
    with pytest.raises(NumericOverflowError):
        model.predict_proba(np.array([np.inf]), np.array([[1.0]]))


def test_accuracy_against_hand_labels():
    features = np.array([[1.0], [-1.0], [2.0], [-2.0]])
    labels = np.array([1, 0, 0, 1])  # half disagree with sign(x)
    data = DatasetHandle(features, labels, 2, tag="t")
    model = LogisticLoss(n_features=1)
    assert accuracy(model, np.array([1.0]), data) == 0.5
    assert accuracy(model, np.array([-1.0]), data) == 0.5


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_logistic_loss_rejects_an_l2_reg_that_is_not_nonnegative_and_finite(bad):
    with pytest.raises(ValueError, match="l2_reg must be nonnegative and finite"):
        LogisticLoss(n_features=1, l2_reg=bad)


def test_wrong_theta_shape_rejected(binary_model, binary_data):
    with pytest.raises(ValueError):
        binary_model.loss_full(np.zeros(binary_model.param_dim() + 1), binary_data)


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


def _every_family(binary_data, multi_data):
    return [
        (QuadraticLoss(center=np.array([0.5, -1.0, 2.0])), binary_data),
        (LogisticLoss.for_data(binary_data, l2_reg=0.1), binary_data),
        (LogisticLoss.for_data(multi_data, l2_reg=0.1), multi_data),
    ]


def test_row_batched_loss_and_grad_equal_per_row_calls(binary_data, multi_data):
    gen = np.random.default_rng(8)
    for model, data in _every_family(binary_data, multi_data):
        rows = gen.normal(scale=2.0, size=(5, model.param_dim()))
        losses, grads = model.loss_full(rows, data), model.grad_full(rows, data)
        assert losses.shape == (5,) and grads.shape == rows.shape
        for row, loss, grad in zip(rows, losses, grads):
            one = model.loss_full(row, data)
            assert isinstance(one, float) and loss == one
            assert np.array_equal(grad, model.grad_full(row, data))


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
def test_loss_and_grad_equals_the_separate_calls(
    binary_data, multi_data, family, num_rows, scale, zero_row, seed
):
    model, data = _every_family(binary_data, multi_data)[family]
    rows = np.random.default_rng(seed).normal(scale=scale, size=(num_rows, model.param_dim()))
    if zero_row:
        rows[0] = 0.0  # every logit is exactly 0, so z = signs * 0 holds both +0.0 and -0.0
    losses, grads = model.loss_and_grad(rows, data)
    assert losses.shape == (num_rows,) and grads.shape == rows.shape
    assert np.array_equal(losses, model.loss_full(rows, data))
    assert np.array_equal(grads, model.grad_full(rows, data))


def test_loss_and_grad_cases_reach_underflow_and_signed_zeros(binary_data, multi_data):
    """The rows the bit-identity test draws do reach the edge cases it names."""
    binary, multi = (m for m, _ in _every_family(binary_data, multi_data)[1:])
    gen = np.random.default_rng(0)
    big = gen.normal(scale=1e3, size=(3, binary.param_dim()))
    z = (2.0 * binary_data.labels - 1.0) * binary._logits(big, binary_data.features)
    assert np.any(np.exp(-np.abs(z)) == 0.0)
    z0 = (2.0 * binary_data.labels - 1.0) * binary._logits(np.zeros((1, binary.param_dim())),
                                                           binary_data.features)
    assert np.all(z0 == 0.0) and np.any(np.signbit(z0)) and not np.all(np.signbit(z0))
    logits = multi._logits(gen.normal(scale=1e3, size=(3, multi.param_dim())), multi_data.features)
    assert np.any(np.exp(logits - logits.max(axis=-1, keepdims=True)) == 0.0)


def test_row_batched_predictions_equal_per_row_calls(binary_data, multi_data):
    gen = np.random.default_rng(9)
    for model, data in _every_family(binary_data, multi_data)[1:]:
        chunk = max(1, ACCURACY_BLOCK // (data.n * data.num_classes))
        rows = gen.normal(scale=2.0, size=(2 * chunk + 1, model.param_dim()))
        probs, accs = model.predict_proba(rows, data.features), accuracy(model, rows, data)
        assert probs.shape == (len(rows), data.n, data.num_classes)
        assert accs.shape == (len(rows),) and len(set(accs.tolist())) > 1
        for s, row in enumerate(rows):
            assert np.array_equal(probs[s], model.predict_proba(row, data.features))
            one = accuracy(model, row, data)
            assert type(one) is float and accs[s] == one


# ---------------------------------------------------------------------------
# labels from logits


@given(
    binary=st.booleans(),
    single=st.booleans(),
    scale=st.sampled_from([0.1, 1.0, 10.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_labels_equals_the_probability_argmax(
    binary_data, multi_data, binary, single, scale, seed
):
    data = binary_data if binary else multi_data
    model = LogisticLoss.for_data(data)
    gen = np.random.default_rng(seed)
    theta = gen.normal(scale=scale, size=model.param_dim() if single else (3, model.param_dim()))
    labels = model.predict_labels(theta, data.features)
    assert labels.shape == ((data.n,) if single else (3, data.n))
    assert np.array_equal(labels, model.predict_proba(theta, data.features).argmax(-1))


def test_predict_labels_exact_ties_give_class_zero(monkeypatch):
    binary = LogisticLoss(n_features=1)
    features = np.array([[1.0], [-1.0]])
    assert binary.predict_labels(np.zeros(1), features).tolist() == [0, 0]
    # a BLAS sum starting from +0.0 never yields -0.0, so feed both signed zeros
    monkeypatch.setattr(binary, "_logits", lambda rows, feats: np.array([[0.0, -0.0]]))
    assert binary.predict_labels(np.zeros(1), features).tolist() == [0, 0]
    assert binary.predict_proba(np.zeros(1), features).argmax(-1).tolist() == [0, 0]
    multi = LogisticLoss(n_features=2, num_classes=3)
    labels = multi.predict_labels(np.zeros((2, 6)), features.repeat(2, axis=1))
    assert labels.tolist() == [[0, 0], [0, 0]]


def test_predict_labels_splits_logits_that_round_to_equal_probabilities():
    """The one place labels differ from the probability argmax: adjacent-float
    logits whose softmax probabilities round equal."""
    model = LogisticLoss(n_features=1, num_classes=3)
    # exp(-ulp(0.1)) rounds to 1.0, so the two top probabilities round equal
    theta, features = np.array([0.1, np.nextafter(0.1, 1.0), -5.0]), np.array([[1.0]])
    probs = model.predict_proba(theta, features)
    assert probs[0, 0] == probs[0, 1] and probs.argmax(-1).tolist() == [0]
    assert model.predict_labels(theta, features).tolist() == [1]
    assert accuracy(model, theta, DatasetHandle(features, np.array([1]), 3)) == 1.0


def test_predict_labels_rejects_non_finite_logits_and_quadratic_models(binary_data):
    model = LogisticLoss(n_features=1)
    data = DatasetHandle(np.array([[1.0]]), np.array([1]), 2)
    with pytest.raises(NumericOverflowError):
        model.predict_labels(np.array([np.inf]), data.features)
    with pytest.raises(NumericOverflowError):
        accuracy(model, np.array([np.inf]), data)
    with pytest.raises(ValueError, match="no prediction head"):
        QuadraticLoss(center=np.zeros(5)).predict_labels(np.zeros(5), binary_data.features)


def test_label_scoring_never_builds_probabilities(monkeypatch, multi_data):
    """accuracy, best-k, OMV, the stability report and the trainer's per-step
    eval all score a LogisticLoss from its logits alone."""
    model = LogisticLoss.for_data(multi_data, l2_reg=0.01)

    def no_probs(self, theta, features):
        raise AssertionError("predict_proba called where only labels are read")

    monkeypatch.setattr(LogisticLoss, "predict_proba", no_probs)
    params = np.random.default_rng(5).normal(size=(6, model.param_dim()))
    steps = list(range(1, 7))
    assert accuracy(model, params, multi_data).shape == (6,)
    assert len(select_best_k(params, steps, model, multi_data, 2)) == 2
    assert omv_batch_labels(params, model, multi_data.features).shape == (multi_data.n,)
    stability_report(params, steps, model, multi_data, [AggregationSpec("ema", beta=0.5)], 3)
    config = TrainerConfig("practical", 4, EtaSchedule("constant", 0.1), batch_size=8)
    run = dp_sgd_practical(model, multi_data, config, noise_multiplier=1.0, eval_data=multi_data)
    assert np.all(np.isfinite(run.metrics[:, 1]))


# ---------------------------------------------------------------------------
# diurnal sampler


def _two_row_sets(n=60, p=3):
    """A dataset whose first n rows are class 0 and last n rows class 1,
    and those two row sets."""
    features = np.random.default_rng(0).normal(size=(2 * n, p))
    data = DatasetHandle(features, np.repeat([0, 1], n), 2, tag="train")
    return data, np.arange(n), np.arange(n, 2 * n)


def _mask_and_gather(sched, data, t, count, gen):
    """Reference batch assembly: copy each row set out as its own source,
    then fill the batch from them through the from-a mask."""
    source_a, source_b = data.subset(sched.rows_a), data.subset(sched.rows_b)
    from_a = gen.random(count) < diurnal_prob(sched, t)
    feats = np.empty((count, data.p))
    labels = np.empty(count, dtype=np.int64)
    n_a = int(from_a.sum())
    if n_a:
        idx = gen.integers(0, source_a.n, n_a)
        feats[from_a] = source_a.features[idx]
        labels[from_a] = source_a.labels[idx]
    if count - n_a:
        idx = gen.integers(0, source_b.n, count - n_a)
        feats[~from_a] = source_b.features[idx]
        labels[~from_a] = source_b.labels[idx]
    return feats, labels


def test_diurnal_rows_match_mask_and_gather_assembly():
    # interleaved, unequal row sets of a shuffled dataset
    data = synth_classification(150, 4, num_classes=3, seed=2)
    sched = DiurnalSchedule(
        period=8,
        rows_a=np.flatnonzero(data.labels == 1),
        rows_b=np.flatnonzero(data.labels != 1),
    )
    for seed in range(6):
        # t = 0, 8, 16 draw only rows_a and t = 4, 12 only rows_b
        for t in range(17):
            batch = data.subset(diurnal_draw(sched, t, 24, step_generator(seed, 7, t)))
            feats, labels = _mask_and_gather(sched, data, t, 24, step_generator(seed, 7, t))
            assert np.array_equal(batch.features, feats)
            assert np.array_equal(batch.labels, labels)


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
    rows_a = diurnal_draw(sched, 0, 32, step_generator(0, 7, 1))
    assert np.all(data.labels[rows_a] == 0)  # p=1, every row from rows_a
    rows_b = diurnal_draw(sched, 4, 32, step_generator(0, 7, 2))
    assert np.all(data.labels[rows_b] == 1)
    assert rows_a.shape == (32,) and rows_a.dtype == np.int64


def test_diurnal_draw_mixes_at_half_phase():
    data, a, b = _two_row_sets(n=200)
    sched = DiurnalSchedule(period=8, rows_a=a, rows_b=b)
    counts = []
    for rep in range(200):
        rows = diurnal_draw(sched, 2, 16, step_generator(1, 7, rep))
        counts.append(int((data.labels[rows] == 0).sum()))
    # mean fraction from rows_a should be near p=0.5
    assert abs(np.mean(counts) / 16.0 - 0.5) < 0.03


def test_diurnal_validation_errors():
    data, a, b = _two_row_sets()
    with pytest.raises(ValueError):
        DiurnalSchedule(period=1, rows_a=a, rows_b=b)
    for rows in (np.array([], dtype=np.int64), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(ValueError):
            DiurnalSchedule(period=4, rows_a=a, rows_b=rows)
    sched = DiurnalSchedule(period=4, rows_a=a, rows_b=b)
    with pytest.raises(ValueError):
        diurnal_draw(sched, 0, 0, step_generator(0, 7, 0))

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
            dp_sgd_practical(model, data, config, noise_multiplier=0.0)
    assert steps_taken == []
