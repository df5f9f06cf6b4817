"""Checkpoint aggregation operators against brute-force reimplementations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpckpt.aggregate import (
    AggregationSpec,
    combine,
    ema_beta,
    omv_batch_labels,
    opa_batch_labels,
    rolling,
    select_best_k,
    upa_past_k,
    weights,
    window_key,
)
from dpckpt.model import DatasetHandle


def _stream(count: int, dim: int, seed: int = 0) -> list[np.ndarray]:
    gen = np.random.default_rng(seed)
    return [gen.normal(size=dim) for _ in range(count)]


def _ema(beta):
    return AggregationSpec("ema", beta=beta)


def _pda(gamma):
    return AggregationSpec("pda", gamma=gamma)


def _tail(alpha):
    return AggregationSpec("upa_tail", alpha=alpha)


# ---------------------------------------------------------------------------
# spec objects


def test_aggregation_spec_labels_and_validation():
    assert AggregationSpec("ema", beta=0.99).label() == "ema(beta=0.99)"
    assert AggregationSpec("upa_k", k=5).label() == "upa_k(k=5)"
    assert AggregationSpec("upa_tail", alpha=0.5).label() == "upa_tail(alpha=0.5)"
    assert AggregationSpec("pda", gamma=1.0).label() == "pda(gamma=1.0)"
    assert AggregationSpec("best_k", k=3, beta=0.9).label() == "best_k(k=3,beta=0.9)"
    with pytest.raises(ValueError):
        AggregationSpec("median")
    with pytest.raises(ValueError):
        AggregationSpec("ema")  # missing beta
    with pytest.raises(ValueError):
        AggregationSpec("upa_k", k=5, beta=0.9)  # extra param
    with pytest.raises(ValueError):
        AggregationSpec("upa_k", k=0)
    with pytest.raises(ValueError):
        AggregationSpec("upa_tail", alpha=1.5)
    with pytest.raises(ValueError):
        AggregationSpec("pda", gamma=-0.1)


# ---------------------------------------------------------------------------
# EMA


def test_ema_beta_schedule():
    # warm-up term binds while (1+t)/(10+t) < cap
    assert ema_beta(0.9999, 0) == pytest.approx(0.1)
    assert ema_beta(0.9999, 1) == pytest.approx(2.0 / 11.0)
    assert ema_beta(0.9999, 90) == pytest.approx(91.0 / 100.0)
    # small caps bind immediately
    assert ema_beta(0.05, 0) == 0.05
    assert ema_beta(0.05, 1000) == 0.05
    with pytest.raises(ValueError):
        ema_beta(0.0, 0)
    with pytest.raises(ValueError):
        ema_beta(1.1, 0)
    with pytest.raises(ValueError):
        ema_beta(0.9, -1)


def test_ema_decays_the_old_average():
    """One update from a cold start keeps only a small share of theta_0.

    With cap 0.9999 the warm-up gives beta_1 = 2/11, so the average after
    seeing theta_1 is (2/11) theta_0 + (9/11) theta_1.
    """
    got = combine(_ema(0.9999), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(got, [2.0 / 11.0, 9.0 / 11.0], atol=1e-15)


def _brute_force_ema(thetas, beta_cap):
    current = np.array(thetas[0], dtype=np.float64)
    for t in range(1, len(thetas)):
        b = min(beta_cap, (1.0 + t) / (10.0 + t))
        current = b * current + (1.0 - b) * np.asarray(thetas[t])
    return current


@pytest.mark.parametrize("beta_cap", [0.3, 0.85, 0.99, 1.0])
def test_ema_over_stream_matches_brute_force(beta_cap):
    thetas = _stream(40, 6, seed=int(beta_cap * 100))
    got = combine(_ema(beta_cap), thetas)
    assert np.allclose(got, _brute_force_ema(thetas, beta_cap), atol=1e-12)


def test_ema_constant_stream_is_fixed_point():
    theta = np.array([0.5, -2.0, 1.0])
    assert np.allclose(combine(_ema(0.97), [theta] * 25), theta, atol=1e-12)


def test_ema_stream_states_prefix_consistent():
    thetas = _stream(12, 3, seed=4)
    running = rolling(_ema(0.9), thetas, range(1, 13), 12)
    assert len(running) == 12
    for i, value in enumerate(running):
        assert np.allclose(value, _brute_force_ema(thetas[: i + 1], 0.9), atol=1e-12)


@pytest.mark.parametrize(
    "spec", [_ema(0.99), _ema(0.9), _ema(0.5), _ema(1.0), _pda(2.0), _pda(0.0), _pda(0.7)],
    ids=lambda spec: spec.label(),
)
@pytest.mark.parametrize("K, last_n", [(1, 1), (2, 2), (9, 4), (30, 30), (40, 1)])
def test_rolling_folds_equal_the_per_row_weights(spec, K, last_n):
    """The one-matrix rolling form of ema and pda equals weights() applied to
    each prefix, bit for bit; last_n = K reaches the one-row prefix."""
    steps = np.arange(1, K + 1) * 3
    per_row = np.zeros((last_n, K))
    for row, end in enumerate(range(K - last_n + 1, K + 1)):
        per_row[row, :end] = weights(spec, steps[:end])
    # against the identity matrix rolling returns its weight matrix itself
    assert np.array_equal(rolling(spec, np.eye(K), steps, last_n), per_row)
    params = np.array(_stream(K, 5, seed=K))
    assert np.array_equal(rolling(spec, params, steps, last_n), per_row @ params)


@pytest.mark.parametrize("k", [1, 3, 9, 40, 200, 700])
@pytest.mark.parametrize("K, last_n", [(1, 1), (9, 4), (30, 30), (40, 1), (800, 80)])
def test_rolling_upa_k_equals_the_per_row_weights(k, K, last_n):
    """upa_k's rolling matrix equals weights() on each prefix, with k cut to
    the prefix's length where it is longer, bit for bit; (800, 80) is the
    stock pds_eval window."""
    steps = np.arange(1, K + 1)
    per_row = np.zeros((last_n, K))
    for row, end in enumerate(range(K - last_n + 1, K + 1)):
        per_row[row, :end] = weights(AggregationSpec("upa_k", k=min(k, end)), steps[:end])
    spec = AggregationSpec("upa_k", k=k)
    assert np.array_equal(rolling(spec, np.eye(K), steps, last_n), per_row)
    params = np.array(_stream(K, 5, seed=K))
    assert np.array_equal(rolling(spec, params, steps, last_n), per_row @ params)


def test_specs_with_one_window_key_roll_byte_equal_windows():
    """Over K checkpoints the warm-up coefficient (1+t)/(10+t) stays at most
    K / (K + 9), so EMA caps above it never bind and share one key, as pda's
    gamma 0 does with a gamma that rounds away beside 1; specs of one key
    roll byte-equal windows, and a binding cap, another gamma or another k
    keys apart."""
    K, last_n = 800, 80
    params, steps = np.array(_stream(K, 6, seed=8)), np.arange(1, K + 1) * 2
    groups = [
        [_ema(0.99), _ema(0.999), _ema(0.9999), _ema(1.0)],
        [_pda(0.0), _pda(1e-20)],
        [AggregationSpec("upa_k", k=50), AggregationSpec("upa_k", k=50)],
    ]
    for group in groups:
        assert len({window_key(spec, K) for spec in group}) == 1
        windows = {rolling(spec, params, steps, last_n).tobytes() for spec in group}
        assert len(windows) == 1
    apart = [_ema(0.95), _ema(0.98), _pda(0.5), AggregationSpec("upa_k", k=49)]
    keys = [window_key(spec, K) for spec in apart] + [window_key(g[0], K) for g in groups]
    assert len(set(keys)) == len(keys)


def test_ema_single_element_stream_identity():
    theta = np.array([3.0, 1.0])
    assert np.array_equal(combine(_ema(0.99), [theta]), theta)


# ---------------------------------------------------------------------------
# UPA


def test_upa_past_k_brute_force():
    thetas = _stream(9, 4, seed=1)
    for k in (1, 3, 9):
        expected = sum(thetas[9 - k :]) / k
        assert np.allclose(upa_past_k(thetas, k), expected, atol=1e-12)
    assert np.array_equal(upa_past_k(thetas, 1), thetas[-1])  # k=1 is the last iterate
    with pytest.raises(ValueError):
        upa_past_k(thetas, 0)
    with pytest.raises(ValueError):
        upa_past_k(thetas, 10)


def test_upa_tail_half_of_four():
    thetas = [np.array([float(i)]) for i in (1, 2, 3, 4)]
    # T=4, alpha=0.5: cut=2, keep steps 3 and 4
    assert combine(_tail(0.5), thetas) == pytest.approx(3.5)
    # alpha=1 keeps everything
    assert combine(_tail(1.0), thetas) == pytest.approx(2.5)
    # alpha=1/T keeps only the last step: cut = floor(3) = 3
    assert combine(_tail(0.25), thetas) == pytest.approx(4.0)


def test_upa_tail_with_explicit_steps():
    # checkpoints at steps 2,4,6,8,10; alpha=0.3 cuts at floor(7)=7
    thetas = [np.array([float(s)]) for s in (2, 4, 6, 8, 10)]
    got = combine(_tail(0.3), thetas, steps=[2, 4, 6, 8, 10])
    assert got == pytest.approx(9.0)  # mean of steps 8 and 10


def test_upa_tail_validation():
    thetas = [np.zeros(1)] * 4
    with pytest.raises(ValueError):
        combine(_tail(0.0), thetas)
    with pytest.raises(ValueError):
        combine(_tail(1.2), thetas)
    with pytest.raises(ValueError):
        combine(_tail(0.5), [])
    with pytest.raises(ValueError):
        combine(_tail(0.5), thetas, steps=[1, 2])  # misaligned
    # the final step always survives the cut, even for tiny alpha
    for alpha in (1e-6, 1e-17):
        last_only = combine(_tail(alpha), [np.array([float(i)]) for i in range(1, 5)])
        assert last_only == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# PDA


def _brute_force_pda(thetas, gamma):
    current = np.array(thetas[0], dtype=np.float64)
    for t in range(2, len(thetas) + 1):
        w = (gamma + 1.0) / (t + gamma)
        current = (1.0 - w) * current + w * np.asarray(thetas[t - 1])
    return current


@pytest.mark.parametrize("gamma", [0.0, 1.0, 5.0])
def test_pda_over_stream_matches_brute_force(gamma):
    thetas = _stream(30, 5, seed=int(gamma) + 7)
    assert np.allclose(combine(_pda(gamma), thetas), _brute_force_pda(thetas, gamma), atol=1e-12)


def test_pda_gamma0_is_running_mean():
    thetas = _stream(17, 3, seed=2)
    for prefix in range(1, 18):
        got = combine(_pda(0.0), thetas[:prefix])
        assert np.allclose(got, np.mean(thetas[:prefix], axis=0), atol=1e-12)


def test_pda_gamma1_weights():
    # gamma=1: w_t = 2/(t+1); three elements give weights (1/6, 2/6, 3/6)
    thetas = [np.array([1.0]), np.array([0.0]), np.array([0.0])]
    assert combine(_pda(1.0), thetas) == pytest.approx(1.0 / 6.0)
    thetas = [np.array([0.0]), np.array([0.0]), np.array([1.0])]
    assert combine(_pda(1.0), thetas) == pytest.approx(0.5)


def test_pda_constant_stream_is_fixed_point():
    theta = np.array([2.0, -1.0])
    assert np.allclose(combine(_pda(3.0), [theta] * 12), theta, atol=1e-12)


# ---------------------------------------------------------------------------
# convexity: every parameter-space aggregate stays in the coordinate hull


@given(
    data=st.lists(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=2,
        max_size=12,
    ),
    beta=st.floats(min_value=0.05, max_value=1.0),
    gamma=st.floats(min_value=0.0, max_value=4.0),
    alpha=st.floats(min_value=0.05, max_value=1.0),
)
def test_aggregates_are_convex_combinations(data, beta, gamma, alpha):
    thetas = [np.array(row) for row in data]
    lo = np.min(thetas, axis=0) - 1e-9
    hi = np.max(thetas, axis=0) + 1e-9
    for agg in (
        combine(_ema(beta), thetas),
        combine(_pda(gamma), thetas),
        upa_past_k(thetas, len(thetas) // 2 + 1),
        combine(_tail(alpha), thetas),
    ):
        assert np.all(agg >= lo) and np.all(agg <= hi)


@given(
    gaps=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    gamma=st.floats(min_value=0.0, max_value=10.0),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    data=st.data(),
)
def test_weights_lie_on_the_simplex(gaps, beta, gamma, alpha, data):
    steps = np.cumsum(gaps)
    k = data.draw(st.integers(min_value=1, max_value=len(steps)))
    for spec in (
        _ema(beta),
        _pda(gamma),
        _tail(alpha),
        AggregationSpec("upa_k", k=k),
        AggregationSpec("best_k", k=k, beta=beta),
    ):
        w = weights(spec, steps)
        assert w.shape == (len(steps),)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_refuse_output_space_kinds():
    for spec in (AggregationSpec("opa", k=2), AggregationSpec("omv", k=2)):
        with pytest.raises(ValueError):
            weights(spec, [1, 2, 3])


# ---------------------------------------------------------------------------
# prediction-space aggregation


def test_opa_averages_probabilities(prob_model):
    # parameters are probability rows: mean of (0.6,0.4,0) and (0,0.2,0.8)
    # the labels tie one vote each, so only the averaged row (0.3, 0.3, 0.4)
    # picks class 2
    thetas = [np.array([0.6, 0.4, 0.0]), np.array([0.0, 0.2, 0.8])]
    inputs = prob_model.inputs(1)
    assert opa_batch_labels(thetas, prob_model, inputs).tolist() == [2]
    assert omv_batch_labels(thetas, prob_model, inputs).tolist() == [0]


def test_opa_vs_omv_disagree_on_crafted_votes(prob_model):
    # two mild votes for class 1, one confident vote for class 0
    thetas = [
        np.array([0.4, 0.6, 0.0]),
        np.array([0.4, 0.6, 0.0]),
        np.array([1.0, 0.0, 0.0]),
    ]
    inputs = prob_model.inputs(1)
    assert omv_batch_labels(thetas, prob_model, inputs).tolist() == [1]  # majority of labels
    assert opa_batch_labels(thetas, prob_model, inputs).tolist() == [0]  # probability mass wins


def test_omv_tie_goes_to_lowest_class(prob_model):
    thetas = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    assert omv_batch_labels(thetas, prob_model, prob_model.inputs(1)).tolist() == [0]


def test_batch_label_helpers_match_scalar_ops(prob_model):
    gen = np.random.default_rng(5)
    raw = gen.uniform(0.05, 1.0, size=(7, 3))
    thetas = [row for row in raw]
    inputs = prob_model.inputs(4)
    opa_batch = opa_batch_labels(thetas, prob_model, inputs)
    omv_batch = omv_batch_labels(thetas, prob_model, inputs)
    for i in range(4):
        row = inputs.subset([i])
        probs = [prob_model.predict_proba(theta[None], row)[0, 0] for theta in thetas]
        assert opa_batch[i] == int(np.argmax(np.mean(probs, axis=0)))
        votes = [int(np.argmax(p)) for p in probs]
        assert omv_batch[i] == int(np.argmax(np.bincount(votes)))


# ---------------------------------------------------------------------------
# best-k selection


def _ranked_checkpoints(prob_model):
    # class-2 probability increases with step for even steps, making the
    # accuracy ranking on all-label-2 data known by construction
    heldout = DatasetHandle(np.zeros((10, 3)), np.full(10, 2), 3)
    probs = {
        1: [0.8, 0.1, 0.1],  # predicts 0: accuracy 0
        2: [0.1, 0.2, 0.7],  # predicts 2: accuracy 1
        3: [0.1, 0.8, 0.1],  # predicts 1: accuracy 0
        4: [0.2, 0.1, 0.7],  # predicts 2: accuracy 1
    }
    return np.array(list(probs.values())), list(probs), heldout


def test_select_best_k_ranks_by_accuracy_then_step(prob_model):
    params, steps, heldout = _ranked_checkpoints(prob_model)
    best = select_best_k(params, steps, prob_model, heldout, k=2)
    # both accuracy-1 checkpoints, earlier step first on the tie
    assert [steps[i] for i in best] == [2, 4]
    top3 = select_best_k(params, steps, prob_model, heldout, k=3)
    # third place: accuracy-0 tie broken by step
    assert [steps[i] for i in top3] == [2, 4, 1]


def test_select_best_k_rejects_a_k_outside_the_checkpoints(prob_model):
    params, steps, heldout = _ranked_checkpoints(prob_model)
    for k in (0, 5):  # 5 > the 4 available
        with pytest.raises(ValueError, match=f"k={k} outside"):
            select_best_k(params, steps, prob_model, heldout, k=k)


def test_ema_over_best_k_folds_from_top_checkpoint(prob_model):
    params, steps, heldout = _ranked_checkpoints(prob_model)
    best = select_best_k(params, steps, prob_model, heldout, k=3)
    got = combine(AggregationSpec("best_k", k=3, beta=0.6), params[best])
    ranked = [np.array([0.1, 0.2, 0.7]), np.array([0.2, 0.1, 0.7]), np.array([0.8, 0.1, 0.1])]
    expected = ranked[0]
    for theta in ranked[1:]:
        expected = 0.6 * expected + 0.4 * theta
    assert np.allclose(got, expected, atol=1e-12)


def test_ema_over_best_k_single_element_identity(prob_model):
    params, steps, heldout = _ranked_checkpoints(prob_model)
    best = select_best_k(params, steps, prob_model, heldout, k=1)
    got = combine(AggregationSpec("best_k", k=1, beta=0.9), params[best])
    assert np.allclose(got, [0.1, 0.2, 0.7])
    with pytest.raises(ValueError):
        combine(AggregationSpec("best_k", k=1, beta=0.9), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        AggregationSpec("best_k", k=1, beta=0.0)
