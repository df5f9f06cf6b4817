"""Both trainers, step schedules, projection, clipping, and run IO."""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpckpt.errors import NumericDivergenceError
from dpckpt.model import (
    DatasetHandle,
    DiurnalSchedule,
    LogisticLoss,
    QuadraticLoss,
    accuracy,
    synth_classification,
)
from dpckpt.privacy import (
    calibrate_practical,
    calibrate_theoretical,
    compose_zcdp,
    epsilon_to_zcdp,
)
from dpckpt.trainer import (
    MAX_STEPS,
    Checkpoint,
    EtaSchedule,
    RunRecord,
    TrainerConfig,
    checkpoint_steps,
    choose_T,
    dp_sgd_practical_runs,
    dp_sgd_theoretical_runs,
    load_run,
    min_loss_in_ball,
    minimize_loss,
    project_l2,
    save_run,
    theorem_step_size,
)
from dpckpt import rng
from per_example import clip_rows, clipped_mean
from references import diurnal_row, gaussian_row, minibatch_indices


def _dummy_data(n: int, p: int = 1) -> DatasetHandle:
    # the quadratic loss never reads features; only n matters for calibration
    return DatasetHandle(np.zeros((n, p)), np.zeros(n, dtype=int), 2)


# ---------------------------------------------------------------------------
# schedules and small helpers


def test_eta_schedule():
    const = EtaSchedule("constant", 0.3)
    assert const.at(1) == 0.3
    assert const.at(100) == 0.3
    inv = EtaSchedule("inverse_sqrt", 2.0)
    assert inv.at(1) == 2.0
    assert inv.at(4) == 1.0
    with pytest.raises(ValueError):
        EtaSchedule("linear", 0.1)
    with pytest.raises(ValueError):
        EtaSchedule("constant", 0.0)
    with pytest.raises(ValueError, match="finite"):
        EtaSchedule("constant", math.inf)


def test_theorem_step_size():
    sched = theorem_step_size(radius=1.0, lipschitz=3.0, noise_std=2.0, dim=4)
    assert sched.kind == "inverse_sqrt"
    # 2R / (L + sigma sqrt(p)) = 2 / (3 + 4)
    assert sched.value == pytest.approx(2.0 / 7.0)
    noiseless = theorem_step_size(2.0, 5.0, 0.0, 16)
    assert noiseless.value == pytest.approx(4.0 / 5.0)


def test_choose_T():
    assert choose_T(1000, 0.5) == 500
    assert choose_T(1000, 1e-9) == 1
    assert choose_T(3, 0.4) == 2  # ceil(1.2)
    assert choose_T(1000, epsilon_to_zcdp(1.0, 1e-5)) == 21
    assert choose_T(1000, epsilon_to_zcdp(8.0, 1e-5)) == 1050
    with pytest.raises(ValueError):
        choose_T(0, 0.5)
    with pytest.raises(ValueError):
        choose_T(10, 0.0)
    with pytest.raises(ValueError, match="explicit step count"):
        choose_T(10, math.inf)
    # a step count must stay below 2**31, also where n * rho overflows to inf
    assert choose_T(1, 2**31 - 1.5) == 2**31 - 1
    for n, rho in ((1, 2**31 - 0.5), (1000, 1e300), (1000, 1e308)):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            choose_T(n, rho)


def test_project_l2():
    inside = np.array([[0.3, 0.4]])
    assert np.array_equal(project_l2(inside, 1.0), inside)
    out = project_l2(np.array([[3.0, 4.0]]), 1.0)
    assert np.allclose(out, [[0.6, 0.8]])
    assert np.linalg.norm(out) == pytest.approx(1.0)
    assert np.array_equal(project_l2(np.zeros((1, 3)), 0.5), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        project_l2(inside, 0.0)


def test_project_l2_puts_a_row_whose_squared_norm_overflows_on_the_sphere():
    gen = np.random.default_rng(3)
    rows = gen.normal(scale=2.0, size=(6, 3))
    rows[1] = [-1e200, 3e199, 1e-300]
    rows[4] = [1.7e308, -1.7e308, 1e308]  # its norm itself overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(project_l2(np.array([[1e200, 0.0, 0.0]]), 2.0), [[2.0, 0.0, 0.0]])
        out = project_l2(rows, 2.0)
        ones = [project_l2(row[None], 2.0)[0] for row in rows]
    for i in (0, 2, 3, 5):
        # an ordinary row is the one-row call and the plain norm's projection, bit for bit
        norm = np.linalg.norm(rows[i])
        assert np.array_equal(out[i], rows[i] * min(1.0, 2.0 / max(norm, 1e-300)))
        assert np.array_equal(out[i], ones[i])
    for i in (1, 4):
        assert np.array_equal(out[i], ones[i])
        assert np.linalg.norm(out[i]) == pytest.approx(2.0, rel=1e-15)
        direction = rows[i] / np.abs(rows[i]).max()
        np.testing.assert_allclose(out[i], 2.0 * direction / np.linalg.norm(direction), rtol=1e-15)


def test_clip_rows():
    grads = np.array([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0]])
    clipped = clip_rows(grads, 1.0)
    assert np.allclose(clipped[0], [0.6, 0.8])
    assert np.array_equal(clipped[1], grads[1])  # under the bound, untouched
    assert np.array_equal(clipped[2], [0.0, 0.0])
    norms = np.linalg.norm(clip_rows(np.random.default_rng(0).normal(size=(50, 4)), 0.7), axis=1)
    assert norms.max() <= 0.7 + 1e-12


def test_minibatch_indices():
    a = minibatch_indices(seed=5, step=3, n=100, batch_size=16)
    b = minibatch_indices(seed=5, step=3, n=100, batch_size=16)
    c = minibatch_indices(seed=5, step=4, n=100, batch_size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert len(set(a.tolist())) == 16  # sampling without replacement
    assert a.min() >= 0 and a.max() < 100
    with pytest.raises(ValueError):
        minibatch_indices(0, 1, 10, 11)


def test_checkpoint_steps():
    assert checkpoint_steps(10, 3) == [3, 6, 9, 10]
    assert checkpoint_steps(10, 1) == list(range(1, 11))
    assert checkpoint_steps(5, 5) == [5]
    assert checkpoint_steps(10, 20) == [10]  # cadence longer than the run


def test_resolved_checkpoint_cadence():
    eta = EtaSchedule("constant", 0.1)
    for steps, every in ((1, 1), (2048, 1), (2049, 2), (5000, 3), (2**31 - 1, 2**20)):
        # ceil(steps / 2048): every step up to 2048 steps, at most 2048 checkpoints
        config = TrainerConfig("theoretical", steps, eta)
        assert config.checkpoint_every == every
        assert len(checkpoint_steps(steps, every)) <= 2048
    explicit = TrainerConfig("theoretical", 5000, eta, checkpoint_every=100)
    assert explicit.checkpoint_every == 100


def test_trainer_config_validation():
    eta = EtaSchedule("constant", 0.1)
    with pytest.raises(ValueError):
        TrainerConfig("magic", 10, eta)
    with pytest.raises(ValueError):
        TrainerConfig("practical", 0, eta)
    with pytest.raises(ValueError):
        TrainerConfig("practical", 10, eta, batch_size=0)
    with pytest.raises(ValueError):
        TrainerConfig("practical", 10, eta, checkpoint_every=11)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="projection_radius"):
            TrainerConfig("theoretical", 10, eta, projection_radius=bad)
        with pytest.raises(ValueError, match="clip_norm"):
            TrainerConfig("practical", 10, eta, clip_norm=bad)
    with pytest.raises(ValueError, match="clip_norm must be positive and finite"):
        TrainerConfig("practical", 10, eta, clip_norm=math.inf)
    assert TrainerConfig("practical", 2**31 - 1, eta).num_steps == 2**31 - 1
    for steps in (2**31, 99999999999999999999):
        with pytest.raises(ValueError, match="below 2\\*\\*31"):
            TrainerConfig("practical", steps, eta)


# ---------------------------------------------------------------------------
# theoretical trainer


def test_zero_noise_theoretical_converges_to_minimizer():
    center = np.array([0.4, -0.3, 0.2])
    model = QuadraticLoss(center=center, curvature=1.0, lipschitz=1.0)
    config = TrainerConfig(
        "theoretical", 300, EtaSchedule("inverse_sqrt", 0.5), projection_radius=2.0
    )
    (record,) = dp_sgd_theoretical_runs(model, _dummy_data(100), config, [0], rho=math.inf)
    assert np.allclose(record.final_params(), center, atol=1e-2)
    assert record.budget.rho == math.inf
    assert record.budget.epsilon == math.inf
    # loss decreases overall and ends near the minimum (which is 0 here)
    assert record.metrics[-1, 0] < 1e-3
    assert np.isnan(record.metrics[-1, 1])  # no eval data given


def test_theoretical_starts_at_origin():
    model = QuadraticLoss(center=np.array([5.0, 0.0]), curvature=1.0, lipschitz=1.0)
    config = TrainerConfig(
        "theoretical", 1, EtaSchedule("constant", 0.25), projection_radius=10.0
    )
    (record,) = dp_sgd_theoretical_runs(model, _dummy_data(50), config, [0], rho=math.inf)
    # one step from 0: theta = -eta * grad(0) = -0.25 * (0 - 5, 0) = (1.25, 0)
    assert np.allclose(record.final_params(), [1.25, 0.0], atol=1e-12)


def test_theoretical_iterates_respect_projection_radius():
    model = QuadraticLoss(center=np.array([8.0, 8.0]), curvature=1.0, lipschitz=1.0)
    config = TrainerConfig(
        "theoretical", 50, EtaSchedule("constant", 0.4), projection_radius=1.5,
        checkpoint_every=1,
    )
    (record,) = dp_sgd_theoretical_runs(model, _dummy_data(50), config, [0], rho=1.0)
    norms = [np.linalg.norm(c.params) for c in record.checkpoints]
    assert max(norms) <= 1.5 + 1e-12
    # pull toward a far center keeps the iterate pinned to the boundary
    assert norms[-1] == pytest.approx(1.5)


def test_theoretical_rerun_bit_identical():
    model = QuadraticLoss(center=np.zeros(4), curvature=1.0, lipschitz=2.0)
    config = TrainerConfig("theoretical", 60, EtaSchedule("inverse_sqrt", 0.3))
    (a,) = dp_sgd_theoretical_runs(model, _dummy_data(200), config, [9], rho=0.5)
    (b,) = dp_sgd_theoretical_runs(model, _dummy_data(200), config, [9], rho=0.5)
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        assert ca.step == cb.step
        assert np.array_equal(ca.params, cb.params)
    assert np.array_equal(a.metrics, b.metrics, equal_nan=True)
    (other,) = dp_sgd_theoretical_runs(model, _dummy_data(200), config, [10], rho=0.5)
    assert not np.array_equal(a.final_params(), other.final_params())


def test_theoretical_noise_variance_end_to_end():
    """Tail iterates of an unprojected quadratic match the AR(1) law.

    theta_{t+1} = (1 - eta m) theta_t - eta b_t has stationary variance
    eta^2 s^2 / (1 - (1 - eta m)^2) per coordinate, with s^2 the
    calibrated per-step noise variance. This pins the injected noise
    magnitude, not just its seedability.
    """
    n, T, rho, eta = 1000, 6000, 0.5, 0.05
    model = QuadraticLoss(center=np.zeros(8), curvature=1.0, lipschitz=1.0)
    config = TrainerConfig(
        "theoretical", T, EtaSchedule("constant", eta),
        projection_radius=50.0, checkpoint_every=1,
    )
    (record,) = dp_sgd_theoretical_runs(model, _dummy_data(n), config, [21], rho=rho)
    s2 = calibrate_theoretical(1.0, T, n, rho) ** 2
    expected = eta**2 * s2 / (1.0 - (1.0 - eta) ** 2)
    tail = np.stack([c.params for c in record.checkpoints[1000:]])
    observed = tail.var(axis=0, ddof=1).mean()
    assert observed == pytest.approx(expected, rel=0.2)


def test_theoretical_requires_lipschitz():
    model = QuadraticLoss(center=np.zeros(2))  # no Lipschitz bound set
    config = TrainerConfig("theoretical", 5, EtaSchedule("constant", 0.1))
    with pytest.raises(ValueError):
        dp_sgd_theoretical_runs(model, _dummy_data(10), config, [0], rho=0.5)
    with pytest.raises(ValueError):
        dp_sgd_theoretical_runs(
            QuadraticLoss(center=np.zeros(2), lipschitz=1.0),
            _dummy_data(10),
            TrainerConfig("practical", 5, EtaSchedule("constant", 0.1)),
            [0],
            rho=0.5,
        )


def _batch_setup(family: str):
    if family == "quadratic":
        model = QuadraticLoss(center=np.array([0.7, -0.4, 0.3]), curvature=1.5, lipschitz=2.0)
        return model, _dummy_data(60, 3)
    classes = 2 if family == "binary" else 3
    data = synth_classification(60, 4, num_classes=classes, separation=2.0, seed=5)
    return LogisticLoss.for_data(data, l2_reg=0.05, radius=1.0), data


@given(
    family=st.sampled_from(["binary", "softmax", "quadratic"]),
    rho=st.sampled_from([math.inf, 0.05, 2.0]),
    seeds=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=4, unique=True),
    steps=st.integers(1, 40),
    every=st.integers(1, 7),
)
def test_batched_runs_equal_separate_runs(family, rho, seeds, steps, every):
    model, data = _batch_setup(family)
    config = TrainerConfig(
        "theoretical", steps, EtaSchedule("inverse_sqrt", 0.4), projection_radius=0.8,
        checkpoint_every=min(every, steps),
    )
    batched = dp_sgd_theoretical_runs(model, data, config, seeds, rho=rho)
    assert len(batched) == len(seeds)
    for s, got in zip(seeds, batched):
        (alone,) = dp_sgd_theoretical_runs(model, data, config, [s], rho=rho)
        assert got.config == config and got.seed == s
        assert [c.step for c in got.checkpoints] == [c.step for c in alone.checkpoints]
        assert np.array_equal(got.checkpoint_params(), alone.checkpoint_params())
        assert np.array_equal(got.metrics, alone.metrics, equal_nan=True)
        assert got.budget == alone.budget


def _scalar_reference(model, data, config, seed, rho):
    """The one-row trainer loop, step by step, as an independent oracle."""
    noise_std = calibrate_theoretical(model.lipschitz, config.num_steps, data.n, rho)
    theta = np.zeros(model.param_dim())
    params, losses = [], []
    for t in range(1, config.num_steps + 1):
        g = model.grad_full(theta[None], data)[0]
        if noise_std > 0:
            g = g + noise_std * gaussian_row(seed, rng.STREAM_NOISE, 0, t - 1, len(theta))
        theta = theta - config.eta.at(t) * g
        norm = float(np.linalg.norm(theta))
        if norm > config.projection_radius:
            theta = theta * (config.projection_radius / norm)
        params.append(theta)
        losses.append(model.loss_full(theta[None], data)[0])
    return np.array(params), np.array(losses)


@pytest.mark.parametrize("family", ["binary", "softmax", "quadratic"])
def test_batched_rows_match_the_scalar_loop(family):
    model, data = _batch_setup(family)
    config = TrainerConfig(
        "theoretical", 30, EtaSchedule("inverse_sqrt", 0.6), projection_radius=0.5,
        checkpoint_every=1,
    )
    seeds = [4, 2**64 - 3, -7]
    for s, record in zip(seeds, dp_sgd_theoretical_runs(model, data, config, seeds, rho=0.3)):
        params, losses = _scalar_reference(model, data, config, s, 0.3)
        assert np.array_equal(record.checkpoint_params(), params)
        assert np.array_equal(record.metrics[:, 0], losses)


def _two_call_reference(model, data, config, seeds, rho):
    """The step before the fused kernel, over all S rows: grad_full at the
    current iterate, per-step gaussian_row noise, project_l2, then
    loss_full and accuracy at the new iterate."""
    noise_std = calibrate_theoretical(model.lipschitz, config.num_steps, data.n, rho)
    theta = np.zeros((len(seeds), model.param_dim()))
    params, metrics = [], []
    for t in range(1, config.num_steps + 1):
        g = model.grad_full(theta, data)
        if noise_std > 0:
            g = g + noise_std * np.stack(
                [gaussian_row(s, rng.STREAM_NOISE, 0, t - 1, theta.shape[1]) for s in seeds]
            )
        theta = project_l2(theta - config.eta.at(t) * g, config.projection_radius)
        params.append(theta)
        metrics.append(np.stack([model.loss_full(theta, data), accuracy(model, theta, data)], 1))
    return np.stack(params, axis=1), np.stack(metrics, axis=1)


@pytest.mark.parametrize("family", ["binary", "softmax"])
@pytest.mark.parametrize("seeds", [[3], [3, 2**64 - 1, -5]], ids=["S1", "S3"])
@pytest.mark.parametrize("rho", [0.3, math.inf], ids=["noisy", "noiseless"])
def test_fused_steps_replay_the_two_call_step(family, seeds, rho):
    model, data = _batch_setup(family)
    config = TrainerConfig(
        "theoretical", 25, EtaSchedule("inverse_sqrt", 0.7), projection_radius=0.6,
        checkpoint_every=1,
    )
    params, metrics = _two_call_reference(model, data, config, seeds, rho)
    records = dp_sgd_theoretical_runs(model, data, config, seeds, rho=rho, eval_data=data)
    for s, record in enumerate(records):
        assert np.array_equal(record.params, params[s])
        assert np.array_equal(record.metrics, metrics[s])


@pytest.mark.parametrize("family", ["binary", "softmax"])
def test_theoretical_run_forms_the_logits_once_per_step(family, monkeypatch):
    model, data = _batch_setup(family)
    real, calls = LogisticLoss._logits, []

    def counting(self, rows, features):
        calls.append(len(rows))
        return real(self, rows, features)

    monkeypatch.setattr(LogisticLoss, "_logits", counting)
    config = TrainerConfig("theoretical", 9, EtaSchedule("constant", 0.1))
    dp_sgd_theoretical_runs(model, data, config, [1, 2], rho=0.5)
    assert calls == [2] * (9 + 1)


@pytest.mark.parametrize("family", ["binary", "softmax", "quadratic"])
def test_unrecorded_loss_leaves_the_runs_unchanged(family, monkeypatch):
    model, data = _batch_setup(family)
    # the quadratic model has no prediction head to score
    eval_data = None if family == "quadratic" else data
    config = TrainerConfig(
        "theoretical", 20, EtaSchedule("inverse_sqrt", 0.5), projection_radius=0.7,
        checkpoint_every=3,
    )
    seeds = [1, 2, 3]
    recorded = dp_sgd_theoretical_runs(model, data, config, seeds, rho=0.3, eval_data=eval_data)

    def no_loss(*args, **kwargs):
        raise AssertionError("a loss was computed")

    for name in ("loss_and_grad", "loss_full"):
        monkeypatch.setattr(type(model), name, no_loss)
    skipped = dp_sgd_theoretical_runs(
        model, data, config, seeds, rho=0.3, eval_data=eval_data, record_loss=False
    )
    for s, full, lean in zip(seeds, recorded, skipped):
        assert np.array_equal(lean.params, full.params)
        assert np.array_equal(lean.steps, full.steps)
        assert np.all(np.isnan(lean.metrics[:, 0]))
        assert np.array_equal(lean.metrics[:, 1], full.metrics[:, 1], equal_nan=True)
        if eval_data is not None:
            assert not np.any(np.isnan(lean.metrics[:, 1]))
        (alone,) = dp_sgd_theoretical_runs(
            model, data, config, [s], rho=0.3, eval_data=eval_data, record_loss=False
        )
        assert np.array_equal(alone.params, lean.params)
        assert np.array_equal(alone.steps, lean.steps)
        assert np.array_equal(alone.metrics, lean.metrics, equal_nan=True)


def test_runs_need_their_mode_and_at_least_one_seed():
    model, data = _batch_setup("quadratic")
    theoretical = TrainerConfig("theoretical", 5, EtaSchedule("constant", 0.1), batch_size=8)
    practical = TrainerConfig("practical", 5, EtaSchedule("constant", 0.1), batch_size=8)
    with pytest.raises(ValueError, match="config.mode"):
        dp_sgd_practical_runs(model, data, theoretical, [1], 1.0)
    with pytest.raises(ValueError, match="config.mode"):
        dp_sgd_theoretical_runs(model, data, practical, [1], rho=0.5)
    with pytest.raises(ValueError, match="at least one seed"):
        dp_sgd_practical_runs(model, data, practical, [], 1.0)
    with pytest.raises(ValueError, match="at least one seed"):
        dp_sgd_theoretical_runs(model, data, theoretical, [], rho=0.5)


# ---------------------------------------------------------------------------
# practical trainer


@pytest.fixture(scope="module")
def practical_setup():
    data = synth_classification(300, 4, num_classes=2, separation=3.0, seed=2)
    model = LogisticLoss.for_data(data, l2_reg=0.01, radius=1.0)
    return model, data


def test_practical_z0_equals_plain_sgd(practical_setup):
    model, data = practical_setup
    config = TrainerConfig(
        "practical", 40, EtaSchedule("constant", 0.2),
        clip_norm=0.5, batch_size=32, checkpoint_every=1,
    )
    (record,) = dp_sgd_practical_runs(model, data, config, [6], noise_multiplier=0.0, delta=1e-5)
    assert record.budget.rho == math.inf

    # replay the loop with explicit per-example gradients, clipped and
    # averaged, and no noise; the trainer's clipped mean never forms them,
    # so it matches to the vectorised-path tolerance, not bit for bit
    theta = 0.02 * rng.uniform_vector(6, rng.STREAM_INIT, 0, model.param_dim()) - 0.01
    for t in range(1, 41):
        idx = minibatch_indices(6, t, data.n, 32)
        theta = theta - 0.2 * clipped_mean(model, theta, data.subset(idx), 0.5)
        assert np.max(np.abs(record.params[t - 1] - theta)) <= 1e-12


def test_practical_noise_changes_trajectory_but_not_batches(practical_setup):
    model, data = practical_setup
    config = TrainerConfig("practical", 30, EtaSchedule("constant", 0.1), batch_size=16)
    (quiet,) = dp_sgd_practical_runs(model, data, config, [3], noise_multiplier=0.0, delta=1e-5)
    (noisy,) = dp_sgd_practical_runs(model, data, config, [3], noise_multiplier=1.0, delta=1e-5)
    assert not np.array_equal(quiet.final_params(), noisy.final_params())
    # rho = T / (2 z^2)
    assert noisy.budget.rho == pytest.approx(30 / 2.0)
    (again,) = dp_sgd_practical_runs(model, data, config, [3], noise_multiplier=1.0, delta=1e-5)
    assert np.array_equal(noisy.final_params(), again.final_params())


@pytest.mark.parametrize("z", [0.3, 1.0, 1.7, 12.5])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 30, 999])
def test_calibrate_practical_composes_equal_steps_like_compose_zcdp(z, steps):
    _, rho_step = calibrate_practical(1.0, z, 1, 4)
    assert calibrate_practical(1.0, z, steps, 4)[1] == compose_zcdp([rho_step] * steps)


def test_calibrate_practical_total_rho_in_closed_form():
    # a T-element list here would hold 2**31 - 1 floats
    assert calibrate_practical(1.0, 1.0, MAX_STEPS, 1)[1] == MAX_STEPS * 0.5
    with pytest.raises(ValueError, match="total rho out of float range"):
        calibrate_practical(1.0, 1e-154, 4, 1)
    assert calibrate_practical(1.0, 0.0, 4, 1) == (0.0, math.inf)


def test_practical_init_is_small_uniform(practical_setup):
    model, data = practical_setup
    config = TrainerConfig("practical", 1, EtaSchedule("constant", 1e-12), batch_size=8)
    (record,) = dp_sgd_practical_runs(model, data, config, [14], noise_multiplier=0.0, delta=1e-5)
    assert np.all(np.abs(record.final_params()) <= 0.01 + 1e-9)
    (other,) = dp_sgd_practical_runs(model, data, config, [15], noise_multiplier=0.0, delta=1e-5)
    assert not np.array_equal(record.final_params(), other.final_params())


def test_practical_learns_separable_data(practical_setup):
    model, data = practical_setup
    from dpckpt.model import accuracy

    config = TrainerConfig("practical", 150, EtaSchedule("constant", 0.5), batch_size=64)
    (record,) = dp_sgd_practical_runs(
        model, data, config, [1], noise_multiplier=0.0, delta=1e-5, eval_data=data
    )
    assert accuracy(model, record.final_params(), data) > 0.9
    assert record.metrics[-1, 1] > 0.9  # eval column populated


def _practical_reference(model, data, config, seed, z, eval_data):
    """The practical loop with one gaussian_row draw per step, and one
    diurnal_row draw per step for a diurnal schedule, as an independent
    oracle for the trainer's chunked noise and batches. It takes the same
    clipped_grad_mean kernel on each step's batch, so it matches bit for
    bit."""
    std = z * config.clip_norm / config.batch_size
    theta = 0.02 * rng.uniform_vector(seed, rng.STREAM_INIT, 0, model.param_dim()) - 0.01
    params, metrics = [], []
    for t in range(1, config.num_steps + 1):
        if config.diurnal is not None:
            idx = diurnal_row(seed, config.diurnal, t, config.batch_size)
        else:
            idx = minibatch_indices(seed, t, data.n, config.batch_size)
        batch = data.subset(idx)
        g = model.clipped_grad_mean(theta[None], data, idx[None], config.clip_norm)[0]
        g = g + std * gaussian_row(seed, rng.STREAM_NOISE, 0, t - 1, len(theta))
        theta = theta - config.eta.at(t) * g
        params.append(theta)
        metrics.append((model.loss_full(theta[None], batch)[0], accuracy(model, theta, eval_data)))
    return np.array(params), np.array(metrics)


@pytest.mark.parametrize("diurnal", [False, True])
def test_practical_block_noise_matches_per_step_draws(diurnal):
    # softmax with p * classes = 75 coordinates: each block draw spans
    # several steps and the last chunk is partial
    data = synth_classification(200, 25, num_classes=3, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.01, radius=1.0)
    schedule = None
    if diurnal:
        schedule = DiurnalSchedule(
            period=6,
            rows_a=np.flatnonzero(data.labels == 0),
            rows_b=np.flatnonzero(data.labels != 0),
        )
    config = TrainerConfig(
        "practical", 250, EtaSchedule("constant", 0.3), clip_norm=0.7, batch_size=16,
        checkpoint_every=1, diurnal=schedule,
    )
    assert rng.steps_per_draw(1, model.param_dim()) < config.num_steps
    (record,) = dp_sgd_practical_runs(
        model, data, config, [9], noise_multiplier=1.3, eval_data=data
    )
    params, metrics = _practical_reference(model, data, config, 9, 1.3, data)
    assert np.array_equal(record.checkpoint_params(), params)
    assert np.array_equal(record.metrics, metrics)


def test_practical_diurnal_runs_do_not_depend_on_the_chunk_size(monkeypatch):
    model, data = _batch_setup("softmax")
    rows = np.arange(data.n)
    config = TrainerConfig(
        "practical", 23, EtaSchedule("constant", 0.5), clip_norm=0.6, batch_size=8,
        checkpoint_every=3,
        diurnal=DiurnalSchedule(period=5, rows_a=rows[rows % 3 == 0], rows_b=rows[rows % 3 != 0]),
    )
    seeds = [4, -1, 2**64 - 1]
    whole = dp_sgd_practical_runs(model, data, config, seeds, 1.3, eval_data=data)
    assert rng.steps_per_draw(len(seeds), config.batch_size) >= config.num_steps
    # 3 seeds x 4 batch blocks a step: a bound of 30 blocks allows 2 steps
    # per draw, a bound of 1 block one step
    for blocks, per_draw in ((30, 2), (1, 1)):
        monkeypatch.setattr(rng, "MAX_BLOCKS", blocks)
        assert rng.steps_per_draw(len(seeds), config.batch_size) == per_draw
        chunked = dp_sgd_practical_runs(model, data, config, seeds, 1.3, eval_data=data)
        for got, want in zip(chunked, whole, strict=True):
            assert np.array_equal(got.params, want.params)
            assert np.array_equal(got.metrics, want.metrics)


def test_practical_batch_size_validation(practical_setup):
    model, data = practical_setup
    config = TrainerConfig(
        "practical", 5, EtaSchedule("constant", 0.1), batch_size=data.n + 1
    )
    with pytest.raises(ValueError):
        dp_sgd_practical_runs(model, data, config, [0], noise_multiplier=0.0, delta=1e-5)
    with pytest.raises(ValueError):
        dp_sgd_practical_runs(
            model,
            data,
            TrainerConfig("practical", 5, EtaSchedule("constant", 0.1)),
            [0],
            noise_multiplier=-0.5,
            delta=1e-5,
        )


@given(
    family=st.sampled_from(["binary", "softmax", "quadratic"]),
    diurnal=st.booleans(),
    z=st.sampled_from([0.0, 1.3]),
    seeds=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=4, unique=True),
    steps=st.integers(1, 30),
    every=st.integers(1, 7),
)
def test_practical_batched_runs_equal_separate_runs(family, diurnal, z, seeds, steps, every):
    model, data = _batch_setup(family)
    schedule = None
    if diurnal:
        rows = np.arange(data.n)
        schedule = DiurnalSchedule(period=5, rows_a=rows[rows % 3 == 0], rows_b=rows[rows % 3 != 0])
    config = TrainerConfig(
        "practical", steps, EtaSchedule("constant", 0.5), clip_norm=0.6, batch_size=8,
        checkpoint_every=min(every, steps), diurnal=schedule,
    )
    eval_data = None if family == "quadratic" else data
    batched = dp_sgd_practical_runs(model, data, config, seeds, z, eval_data=eval_data)
    assert len(batched) == len(seeds)
    for s, got in zip(seeds, batched):
        (alone,) = dp_sgd_practical_runs(model, data, config, [s], z, eval_data=eval_data)
        assert got.config == config and got.seed == s
        assert np.array_equal(got.steps, alone.steps)
        assert np.array_equal(got.params, alone.params)
        assert np.array_equal(got.metrics, alone.metrics, equal_nan=True)
        assert got.budget == alone.budget


@pytest.mark.parametrize("family", ["binary", "softmax"])
@pytest.mark.parametrize("diurnal", [False, True], ids=["uniform", "diurnal"])
def test_practical_unrecorded_loss_leaves_the_runs_unchanged(family, diurnal, monkeypatch):
    model, data = _batch_setup(family)
    schedule = None
    if diurnal:
        rows = np.arange(data.n)
        schedule = DiurnalSchedule(period=5, rows_a=rows[rows % 3 == 0], rows_b=rows[rows % 3 != 0])
    config = TrainerConfig(
        "practical", 25, EtaSchedule("constant", 0.5), clip_norm=0.6, batch_size=8,
        checkpoint_every=4, diurnal=schedule,
    )
    seeds = [1, 2, 3]
    recorded = dp_sgd_practical_runs(model, data, config, seeds, 1.3, eval_data=data)

    def no_loss(*args, **kwargs):
        raise AssertionError("a batch loss was computed")

    monkeypatch.setattr(type(model), "loss_full", no_loss)
    skipped = dp_sgd_practical_runs(
        model, data, config, seeds, 1.3, eval_data=data, record_loss=False
    )
    for full, lean in zip(recorded, skipped):
        assert np.array_equal(lean.params, full.params)
        assert np.array_equal(lean.steps, full.steps)
        assert np.all(np.isnan(lean.metrics[:, 0]))
        assert not np.any(np.isnan(full.metrics[:, 0]))
        assert np.array_equal(lean.metrics[:, 1], full.metrics[:, 1])


# ---------------------------------------------------------------------------
# divergence


class _NaNGradientOnCall(QuadraticLoss):
    """Quadratic loss whose gradient turns NaN in `rows` on its nan_call-th call.

    QuadraticLoss.clipped_grad_mean(rows, data, idx, clip_norm) reads neither
    data nor idx and calls grad_full once per practical step;
    the theoretical trainer's t-th gradient call (grad_full at the origin,
    then loss_and_grad, or grad_full when the loss is not recorded) gives
    the gradient of step t. So either trainer's nan_call-th counted call
    feeds step nan_call.
    """

    def __init__(self, nan_call: int, rows=..., **kwargs):
        super().__init__(center=np.array([0.5, -0.5]), lipschitz=1.0, **kwargs)
        self.nan_call, self.rows, self.calls = nan_call, rows, 0

    def _count(self, grad):
        self.calls += 1
        if self.calls == self.nan_call:
            grad[self.rows] = math.nan
        return grad

    def grad_full(self, theta, data=None):
        return self._count(super().grad_full(theta, data))

    def loss_and_grad(self, rows, data=None):
        loss, grad = super().loss_and_grad(rows, data)
        return loss, self._count(grad)


@pytest.mark.parametrize("record_loss", [True, False])
def test_practical_raises_at_the_step_whose_gradient_is_nan(record_loss):
    model = _NaNGradientOnCall(nan_call=4)
    config = TrainerConfig("practical", 10, EtaSchedule("constant", 0.1), batch_size=4)
    with pytest.raises(NumericDivergenceError) as info:
        dp_sgd_practical_runs(
            model, _dummy_data(20, 2), config, [0], noise_multiplier=1.0, record_loss=record_loss
        )
    assert info.value.step == 4


@pytest.mark.parametrize("record_loss", [True, False])
def test_batched_practical_raises_when_one_row_turns_nan(record_loss):
    model = _NaNGradientOnCall(nan_call=5, rows=1)
    config = TrainerConfig("practical", 10, EtaSchedule("constant", 0.1), batch_size=4)
    with pytest.raises(NumericDivergenceError) as info:
        dp_sgd_practical_runs(
            model, _dummy_data(20, 2), config, [1, 2, 3], noise_multiplier=1.0,
            record_loss=record_loss,
        )
    assert info.value.step == 5


def _worst_rows(model, data, radius):
    """Three rows of norm just under radius: one along which the largest
    feature row's loss grows fastest (its negated signed row for the binary
    head, the row itself in a wrong class's block for the softmax head), its
    negation, and an axis."""
    i = np.argmax(data.sq_norms)
    rows = np.zeros((3, model.param_dim()))
    if model.binary:
        rows[0] = -data.signed_features[i]
    else:
        wrong = (data.labels[i] + 1) % model.num_classes
        rows[0, wrong * model.n_features : (wrong + 1) * model.n_features] = data.features[i]
    rows[1] = -rows[0]
    rows[2, 0] = 1.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows * radius * (1.0 - 1e-12)


@pytest.mark.parametrize("family", ["binary", "softmax"])
@pytest.mark.parametrize(
    "feature_scale, l2_reg, binding", [(1e153, 0.5, "logit"), (1.0, 1e10, "l2"), (1.0, 0.5, "norm")]
)
def test_rows_just_inside_the_finite_loss_radius_have_a_finite_batch_loss(
    family, feature_scale, l2_reg, binding
):
    classes = 2 if family == "binary" else 3
    data = synth_classification(40, 4, num_classes=classes, separation=2.0, seed=3)
    data = DatasetHandle(data.features * feature_scale, data.labels, classes)
    model = LogisticLoss(4, classes, l2_reg=l2_reg)
    batch = 16
    radius = model.finite_loss_radius(data, batch)
    max_norm = math.sqrt(data.sq_norms.max())
    assert radius == {
        "logit": (1e307 / batch - math.log(classes)) / (2.0 * max_norm),
        "l2": math.sqrt(2e307 / l2_reg),
        "norm": math.sqrt(1e307),
    }[binding]
    rows = _worst_rows(model, data, radius)
    idx = np.tile(np.argsort(-data.sq_norms)[:batch], (len(rows), 1))
    with np.errstate(over="raise"):
        loss = model.loss_full(rows, data, idx)
    assert np.all(np.isfinite(loss))
    # the bound is not vacuous: rows 1e4 times past it overflow
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(model.loss_full(1e4 * rows, data, idx)))


class _SetRadius(LogisticLoss):
    """A logistic model whose finite-loss radius is set by hand."""

    radius = math.inf

    def finite_loss_radius(self, data, batch_size):
        return self.radius


@pytest.mark.parametrize("record_loss", [True, False])
def test_practical_raises_at_the_step_whose_row_leaves_the_finite_loss_ball(record_loss):
    data = synth_classification(60, 4, num_classes=2, separation=2.0, seed=5)
    model = _SetRadius(4, 2, l2_reg=0.05)
    config = TrainerConfig(
        "practical", 12, EtaSchedule("constant", 0.5), clip_norm=0.6, batch_size=8,
        checkpoint_every=1,
    )
    seeds = [1, 2, 3]
    runs = dp_sgd_practical_runs(model, data, config, seeds, 1.3, record_loss=record_loss)
    norms = np.linalg.norm(np.stack([run.params for run in runs]), axis=2).max(axis=0)
    # the first step whose largest row norm beats every earlier step's
    step = 1 + next(t for t in range(6, 12) if norms[t] > norms[:t].max())
    model.radius = norms[step - 1] * (1.0 - 1e-12)  # that step's row is just outside
    assert norms[: step - 1].max() < model.radius
    with pytest.raises(NumericDivergenceError) as info:
        dp_sgd_practical_runs(model, data, config, seeds, 1.3, record_loss=record_loss)
    assert info.value.step == step
    model.radius = norms.max() * (1.0 + 1e-12)  # every row just inside
    again = dp_sgd_practical_runs(model, data, config, seeds, 1.3, record_loss=record_loss)
    assert all(np.array_equal(a.params, b.params) for a, b in zip(again, runs))


@pytest.mark.parametrize("record_loss", [True, False])
def test_batched_theoretical_raises_when_one_row_turns_nan(record_loss):
    model = _NaNGradientOnCall(nan_call=3, rows=1)
    config = TrainerConfig("theoretical", 10, EtaSchedule("inverse_sqrt", 0.4))
    with pytest.raises(NumericDivergenceError) as info:
        dp_sgd_theoretical_runs(
            model, _dummy_data(20, 2), config, [1, 2], rho=0.5, record_loss=record_loss
        )
    assert info.value.step == 3


# ---------------------------------------------------------------------------
# minimizers and excess risk


def test_minimizer_quadratic_center_inside_ball():
    model = QuadraticLoss(center=np.array([0.2, -0.1]), curvature=2.0)
    theta = minimize_loss(model, None, radius=1.0)
    assert np.allclose(theta, model.center, atol=1e-6)
    assert min_loss_in_ball(model, None, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_minimizer_quadratic_center_outside_ball():
    center = np.array([3.0, 4.0])  # norm 5, ball radius 1
    model = QuadraticLoss(center=center, curvature=1.0)
    theta = minimize_loss(model, None, radius=1.0)
    assert np.allclose(theta, center / 5.0, atol=1e-6)
    # loss at the boundary point: 0.5 * (5 - 1)^2 = 8
    assert min_loss_in_ball(model, None, 1.0) == pytest.approx(8.0, abs=1e-6)


def test_excess_risk_properties(practical_setup):
    model, data = practical_setup
    theta_star = minimize_loss(model, data, radius=1.0)
    min_loss = min_loss_in_ball(model, data, 1.0)
    assert model.loss_full(theta_star[None], data)[0] - min_loss == pytest.approx(0.0, abs=1e-8)
    gen = np.random.default_rng(0)
    for _ in range(3):
        theta = project_l2(gen.normal(size=(1, model.param_dim())), 1.0)
        assert model.loss_full(theta, data)[0] - min_loss >= 0.0


# ---------------------------------------------------------------------------
# run IO


def test_save_load_round_trip(tmp_path, practical_setup):
    model, data = practical_setup
    config = TrainerConfig(
        "practical", 25, EtaSchedule("inverse_sqrt", 0.4),
        projection_radius=1.5, clip_norm=0.8, batch_size=16,
        checkpoint_every=5,
    )
    (record,) = dp_sgd_practical_runs(model, data, config, [42], noise_multiplier=1.2, delta=1e-6)
    run_dir = str(tmp_path / "run0")
    save_run(record, run_dir)
    back = load_run(run_dir)

    assert back.seed == record.seed
    assert back.config.mode == "practical"
    assert back.config.num_steps == 25
    assert back.config.eta == record.config.eta
    assert back.config.clip_norm == 0.8
    assert back.config.checkpoint_every == 5
    assert back.budget.rho == pytest.approx(record.budget.rho)
    assert back.budget.epsilon == pytest.approx(record.budget.epsilon)
    assert back.budget.delta == 1e-6
    assert len(back.checkpoints) == len(record.checkpoints)
    for ca, cb in zip(record.checkpoints, back.checkpoints):
        assert ca.step == cb.step
        assert np.array_equal(ca.params, cb.params)  # bit-exact binary format
    assert np.array_equal(
        np.nan_to_num(back.metrics), np.nan_to_num(record.metrics)
    )


def test_save_load_infinite_budget(tmp_path, practical_setup):
    model, data = practical_setup
    config = TrainerConfig("practical", 4, EtaSchedule("constant", 0.1), batch_size=8)
    (record,) = dp_sgd_practical_runs(model, data, config, [0], noise_multiplier=0.0, delta=1e-5)
    run_dir = str(tmp_path / "run_inf")
    save_run(record, run_dir)
    back = load_run(run_dir)
    assert back.budget.rho == math.inf
    assert back.budget.epsilon == math.inf


def test_save_run_ignores_the_clock(tmp_path, practical_setup, monkeypatch):
    model, data = practical_setup
    config = TrainerConfig("practical", 6, EtaSchedule("constant", 0.1), batch_size=8)
    (record,) = dp_sgd_practical_runs(model, data, config, [3], noise_multiplier=1.0)
    run_dirs = []
    for stamp in ("2001-01-01T00:00:00+0000", "2030-06-15T12:34:56+0200"):
        monkeypatch.setattr(time, "strftime", lambda *args, stamp=stamp: stamp)
        run_dirs.append(tmp_path / stamp[:4])
        save_run(record, str(run_dirs[-1]))
    for name in ("manifest.json", "checkpoints.bin", "metrics.csv"):
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()


def _rewrite_metrics(edit):
    def corrupt(run_dir):
        path = os.path.join(run_dir, "metrics.csv")
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([header] + edit(rows)) + "\n")

    return corrupt


def _rename_metrics_column(run_dir):
    path = os.path.join(run_dir, "metrics.csv")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("eval_acc", "test_acc", 1))


def _rewrite_manifest(edit):
    def corrupt(run_dir):
        path = os.path.join(run_dir, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(path, "w") as fh:
            json.dump(manifest, fh)

    return corrupt


def _resize_bin(delta_bytes):
    def corrupt(run_dir):
        path = os.path.join(run_dir, "checkpoints.bin")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) + delta_bytes)

    return corrupt


@pytest.mark.parametrize(
    "corrupt, name",
    [
        (_resize_bin(-8), "checkpoints.bin"),
        (_resize_bin(8), "checkpoints.bin"),
        (_rewrite_metrics(lambda rows: ["0" + rows[0][1:]] + rows[1:]), "metrics.csv"),
        (_rewrite_metrics(lambda rows: rows[:2] + rows[3:]), "metrics.csv"),
        (_rewrite_metrics(lambda rows: rows[:2] + rows[1:]), "metrics.csv"),
        (_rewrite_metrics(lambda rows: rows[:1] + ["2,0.5"] + rows[2:]), "metrics.csv"),
        (_rewrite_metrics(lambda rows: rows[:1] + ["2,abc,0.5"] + rows[2:]), "metrics.csv"),
        (_rename_metrics_column, "metrics.csv"),
        (_rewrite_metrics(lambda rows: rows[:-1]), "metrics.csv"),
        (_rewrite_manifest(lambda m: m.pop("dim")), "manifest.json"),
        (_rewrite_manifest(lambda m: m["checkpoint_steps"].reverse()), "manifest.json"),
    ],
    ids=[
        "truncated-bin", "extended-bin", "step-0-row", "missing-row", "duplicate-row",
        "two-field-row", "text-cell", "changed-header", "last-row-dropped", "no-dim",
        "reversed-steps",
    ],
)
def test_load_run_rejects_corrupt_run_dirs(tmp_path, practical_setup, corrupt, name):
    model, data = practical_setup
    config = TrainerConfig(
        "practical", 4, EtaSchedule("constant", 0.1), batch_size=8, checkpoint_every=2
    )
    run_dir = str(tmp_path / "run")
    save_run(dp_sgd_practical_runs(model, data, config, [0], noise_multiplier=1.0)[0], run_dir)
    load_run(run_dir)  # intact before the corruption
    corrupt(run_dir)
    with pytest.raises(ValueError) as exc:
        load_run(run_dir)
    assert os.path.join(run_dir, name) in str(exc.value)


def test_kept_accessors_agree_with_the_checkpoint_matrix(tmp_path, practical_setup):
    """checkpoints, checkpoint_params() and final_params() read params/steps."""
    model, data = practical_setup
    records = dp_sgd_theoretical_runs(
        model, data,
        TrainerConfig("theoretical", 9, EtaSchedule("inverse_sqrt", 0.4), checkpoint_every=4),
        [3],
        rho=0.5,
    ) + dp_sgd_practical_runs(
        model, data,
        TrainerConfig("practical", 9, EtaSchedule("constant", 0.2), batch_size=16,
                      checkpoint_every=4),
        [3],
        noise_multiplier=1.0,
    )
    for i, record in enumerate(list(records)):
        save_run(record, str(tmp_path / f"run{i}"))
        back = load_run(str(tmp_path / f"run{i}"))
        assert back.params.tobytes() == record.params.tobytes()
        records.append(back)
    for record in records:
        assert record.params.dtype == np.float64
        assert record.params.shape == (3, model.param_dim())
        assert record.steps.tolist() == [4, 8, 9]
        ckpts = record.checkpoints
        assert [c.step for c in ckpts] == [4, 8, 9]
        assert all(type(c.step) is int and isinstance(c, Checkpoint) for c in ckpts)
        assert all(c.params.tobytes() == row.tobytes() for c, row in zip(ckpts, record.params))
        copy = record.checkpoint_params()
        assert copy.tobytes() == record.params.tobytes()
        assert not np.shares_memory(copy, record.params)
        assert record.final_params().tobytes() == record.params[-1].tobytes()


def test_run_record_accessors():
    record = RunRecord(
        TrainerConfig("theoretical", 4, EtaSchedule("constant", 0.1), checkpoint_every=2),
        seed=0,
        budget=None,
        params=np.array([[1.0], [2.0]]),
        steps=np.array([2, 4]),
        metrics=np.zeros((4, 2)),
    )
    assert np.array_equal(record.steps, [2, 4])  # checkpoint steps, one per row
    assert record.seed == 0
    assert [c.step for c in record.checkpoints] == [2, 4]
    assert np.array_equal(record.checkpoint_params()[1], [2.0])
    assert np.array_equal(record.final_params(), [2.0])
