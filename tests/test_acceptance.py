"""Acceptance gate: end-to-end checks of the package's headline claims.

Each test prints exactly one line, `AC<n> <name>: PASS/FAIL (numbers)`,
before asserting, so a full run leaves a readable scorecard. Output
capture is disabled via pyproject, so the lines show up under pytest -v.

The heavy tests drive the real experiment tasks at their stock defaults
with master seed 0 and also enforce their wall-clock budgets.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from dpckpt import aggregate, privacy, rng, trainer, uncertainty
from dpckpt.aggregate import AggregationSpec
from dpckpt.harness.config import ConfigView
from dpckpt.harness.experiments import run_experiment
from dpckpt.model import LogisticLoss, QuadraticLoss, synth_classification

from monte_carlo import gaussian_hockey_stick_mc, subgaussian_tail_mc
from references import expectation_gap_bound, lookup, renyi_gaussians_shared_cov, subgaussian_tail
from test_uncertainty import simpson_t_cdf


def _gate(name: str, ok: bool, details: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"{name}: {details}"


# ---------------------------------------------------------------------------
# AC1: every aggregation operator matches an independent brute-force oracle


def _brute_ema(thetas, cap):
    current = np.array(thetas[0], dtype=np.float64)
    for t in range(1, len(thetas)):
        b = min(cap, (1.0 + t) / (10.0 + t))
        current = b * current + (1.0 - b) * np.asarray(thetas[t])
    return current


def _brute_pda(thetas, gamma):
    current = np.array(thetas[0], dtype=np.float64)
    for t in range(2, len(thetas) + 1):
        w = (gamma + 1.0) / (t + gamma)
        current = (1.0 - w) * current + w * np.asarray(thetas[t - 1])
    return current


def test_ac1_aggregator_exactness():
    gen = np.random.default_rng(2026)
    worst = 0.0
    for trial in range(20):
        n = int(gen.integers(2, 40))
        thetas = [gen.normal(size=5) for _ in range(n)]
        steps = np.cumsum(gen.integers(1, 4, size=n)).tolist()

        cap = float(gen.uniform(0.05, 1.0))
        worst = max(worst, float(np.max(np.abs(
            aggregate.combine(AggregationSpec("ema", beta=cap), thetas)
            - _brute_ema(thetas, cap)))))

        gamma = float(gen.uniform(0.0, 5.0))
        worst = max(worst, float(np.max(np.abs(
            aggregate.combine(AggregationSpec("pda", gamma=gamma), thetas)
            - _brute_pda(thetas, gamma)))))

        k = int(gen.integers(1, n + 1))
        worst = max(worst, float(np.max(np.abs(
            aggregate.upa_past_k(thetas, k) - np.mean(thetas[-k:], axis=0)))))

        alpha = float(gen.uniform(0.05, 1.0))
        cut = math.floor((1.0 - alpha) * steps[-1])
        tail = [th for th, s in zip(thetas, steps) if s > cut]
        worst = max(worst, float(np.max(np.abs(
            aggregate.combine(AggregationSpec("upa_tail", alpha=alpha), thetas, steps)
            - np.mean(tail, axis=0)))))

    # prediction-space operators against direct probability averaging / voting
    data = synth_classification(40, 5, num_classes=3, separation=3.0, seed=21)
    model = LogisticLoss.for_data(data, l2_reg=0.01, radius=2.0)
    params = [gen.normal(size=model.param_dim()) for _ in range(9)]
    opa_labels = aggregate.opa_batch_labels(params, model, data)
    omv_labels = aggregate.omv_batch_labels(params, model, data)
    opa_mismatch = omv_mismatch = 0
    for i, (opa_label, omv_label) in enumerate(zip(opa_labels, omv_labels)):
        x = data.subset([i])
        probs = np.mean([model.predict_proba(t[None], x)[0, 0] for t in params], axis=0)
        if opa_label != int(np.argmax(probs)):
            opa_mismatch += 1
        votes = [int(np.argmax(model.predict_proba(t[None], x)[0, 0])) for t in params]
        if omv_label != int(np.argmax(np.bincount(votes))):
            omv_mismatch += 1

    # running-mean and single-checkpoint identities
    running_ok = all(
        np.allclose(
            aggregate.combine(AggregationSpec("pda", gamma=0.0), thetas[: i + 1]),
            np.mean(thetas[: i + 1], axis=0),
            atol=1e-12,
        )
        for i in range(len(thetas))
    )
    one = [thetas[0]]
    identity_ok = (
        np.array_equal(aggregate.upa_past_k(thetas, 1), thetas[-1])
        and np.array_equal(aggregate.combine(AggregationSpec("ema", beta=0.9), one), one[0])
        and np.array_equal(aggregate.combine(AggregationSpec("pda", gamma=1.0), one), one[0])
        and np.array_equal(
            aggregate.combine(AggregationSpec("upa_tail", alpha=0.5), one, [4]), one[0]
        )
    )

    ok = worst < 1e-12 and opa_mismatch == 0 and omv_mismatch == 0 and running_ok and identity_ok
    _gate(
        "AC1 aggregator-exactness",
        ok,
        f"max |op - oracle| = {worst:.2e}, opa/omv mismatches = "
        f"{opa_mismatch}/{omv_mismatch}, identities = {identity_ok}",
    )


# ---------------------------------------------------------------------------
# AC2: tail averages beat the last iterate on excess risk


def test_ac2_averages_beat_last_iterate(tmp_path):
    start = time.monotonic()
    table = run_experiment(
        ConfigView({}), str(tmp_path), master_seed=0, workers=1, task="risk_compare"
    )
    elapsed = time.monotonic() - start

    last = lookup(table, "excess_last").mean
    tail = lookup(table, "excess_upa_tail(alpha=0.5)").mean
    pda = lookup(table, "excess_pda(gamma=1.0)").mean
    frac = lookup(table, "frac_upa_tail(alpha=0.5)_beats_last").mean

    ok = tail <= last and pda <= last and frac >= 0.8 and elapsed < 600
    _gate(
        "AC2 averages-beat-last-iterate",
        ok,
        f"excess last={last:.4f} tail={tail:.4f} pda={pda:.4f}, "
        f"tail wins {frac:.0%} of seeds, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# AC3: variance-estimator bias decays with burn-in and checkpoint spacing


def test_ac3_variance_estimator_bias_decay(tmp_path):
    start = time.monotonic()
    table = run_experiment(
        ConfigView({}), str(tmp_path), master_seed=0, workers=1, task="dpld_bias"
    )
    elapsed = time.monotonic() - start

    def bias(t1, gap):
        row = lookup(table, f"abs_bias(t1={t1},gap={gap})")
        return row.mean, row.std  # std column carries the SE of mean_S

    b_far, se_far = bias(20.0, 20.0)
    b_near, _ = bias(0.01, 0.01)

    def non_increasing(points):
        prev_b, prev_se = bias(*points[0])
        for pt in points[1:]:
            b, se = bias(*pt)
            if b > prev_b + 2.0 * math.hypot(se, prev_se):
                return False
            prev_b, prev_se = b, se
        return True

    trend_t1 = non_increasing([(0.1, 10.0), (1.0, 10.0), (10.0, 10.0)])
    trend_gap = non_increasing([(10.0, 0.1), (10.0, 1.0), (10.0, 10.0)])

    ok = (
        b_far <= 3.0 * se_far
        and 5.0 * b_far <= b_near
        and trend_t1
        and trend_gap
        and elapsed < 300
    )
    _gate(
        "AC3 variance-bias-decay",
        ok,
        f"|bias|(20,20)={b_far:.4f} ({b_far / se_far:.2f} SE), "
        f"|bias|(0.01,0.01)={b_near:.4f} ({b_near / max(b_far, 1e-300):.0f}x), "
        f"trends t1/gap = {trend_t1}/{trend_gap}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# AC4: single-run checkpoint intervals are no wider than independent runs


def test_ac4_checkpoint_intervals_competitive(tmp_path):
    start = time.monotonic()
    table = run_experiment(
        ConfigView({}), str(tmp_path), master_seed=0, workers=1, task="uq_compare"
    )
    elapsed = time.monotonic() - start

    fracs = {
        (eps, k): lookup(table, f"frac_checkpoints_narrower(eps={eps},k={k})").mean
        for eps in (1.0, 8.0)
        for k in (3, 5, 10)
    }
    ok = all(f >= 0.8 for f in fracs.values()) and elapsed < 900
    pretty = ", ".join(f"eps={e:g}/k={k}: {f:.0%}" for (e, k), f in fracs.items())
    _gate("AC4 checkpoint-interval-width", ok, f"narrower-or-equal fracs {pretty}, {elapsed:.0f}s")
    assert os.path.exists(os.path.join(str(tmp_path), "uq_report.json"))


# ---------------------------------------------------------------------------
# AC5: aggregation stabilizes accuracy under a periodically shifting source


def test_ac5_aggregation_stabilizes_drift(tmp_path):
    start = time.monotonic()
    table = run_experiment(
        ConfigView({}), str(tmp_path), master_seed=0, workers=1, task="pds_eval"
    )
    elapsed = time.monotonic() - start

    std_base = lookup(table, "window_std_baseline").mean
    std_ema = lookup(table, "window_std_ema").mean
    std_upa = lookup(table, "window_std_upa").mean
    mean_base = lookup(table, "window_mean_baseline").mean
    best_mean = max(lookup(table, "window_mean_ema").mean, lookup(table, "window_mean_upa").mean)

    ok = (
        std_ema <= 0.5 * std_base
        and std_upa <= 0.5 * std_base
        and best_mean >= mean_base
        and elapsed < 600
    )
    _gate(
        "AC5 drift-stabilization",
        ok,
        f"window std base={std_base:.4f} ema={std_ema:.4f} upa={std_upa:.4f}, "
        f"mean base={mean_base:.4f} best-aggregate={best_mean:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# AC6: privacy accounting closed forms, the exact hockey-stick divergence,
# and its Monte-Carlo audit


def test_ac6_privacy_accounting():
    eps_err = abs(privacy.zcdp_to_epsilon(0.5, 1e-5) - 5.298525912188081)

    worst_round_trip = 0.0
    for eps in (0.1, 1.0, 5.298525912188081, 8.0, 20.0):
        for delta in (1e-7, 1e-5, 1e-2):
            rho = privacy.epsilon_to_zcdp(eps, delta)
            worst_round_trip = max(worst_round_trip, abs(privacy.zcdp_to_epsilon(rho, delta) - eps))

    worst_calib = 0.0
    for (lip, steps, n, rho) in ((1.0, 2, 10, 1.0), (2.0, 500, 1000, 0.5), (0.5, 21, 1000, 0.1)):
        got = privacy.calibrate_theoretical(lip, steps, n, rho)
        want = lip * math.sqrt(steps / (2.0 * n * rho))
        worst_calib = max(worst_calib, abs(got - want))

    # a sigma calibrated for rho-zCDP must satisfy the implied (eps, delta) pair
    rho, delta = 0.5, 1e-5
    eps = privacy.zcdp_to_epsilon(rho, delta)
    sigma = math.sqrt(1.0 / (2.0 * rho))
    exact = privacy.gaussian_hockey_stick(sigma, eps)
    est, se = gaussian_hockey_stick_mc(sigma, eps, n_samples=2_000_000, seed=5)
    guarantee_ok = est <= delta + 3.0 * se

    ok = (
        eps_err < 1e-9 and worst_round_trip < 1e-9 and worst_calib < 1e-9 and guarantee_ok
        and exact <= delta
    )
    _gate(
        "AC6 privacy-accounting",
        ok,
        f"closed-form errors {max(eps_err, worst_round_trip, worst_calib):.2e}, "
        f"hockey-stick {est:.2e} vs delta+3se {delta + 3.0 * se:.2e}, exact {exact:.4e}",
    )


# ---------------------------------------------------------------------------
# AC7: t quantiles, interval coverage, and variance unbiasedness


def test_ac7_interval_machinery():
    start = time.monotonic()
    # quantile against a Simpson-rule CDF inverted by bisection
    target = 0.975
    lo, hi = 0.0, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if simpson_t_cdf(mid, 4) < target:
            lo = mid
        else:
            hi = mid
    oracle_q = 0.5 * (lo + hi)
    q = uncertainty.t_quantile(4, 0.975)
    q_err = abs(q - oracle_q)

    # coverage of the nominal-95% interval over draws with a known mean
    trials, k = 10_000, 5
    gen = rng.step_generator(2024, rng.STREAM_TRIAL, 0)
    draws = gen.standard_normal((trials, k))
    half_widths = uncertainty.t_widths(draws.T, level=0.95) / 2
    coverage = int(np.count_nonzero(np.abs(draws.mean(axis=1)) <= half_widths)) / trials

    # the per-trial sample variance of variance_bias_experiment is unbiased
    # for the population variance
    var_draws = 2.0 * rng.step_generator(7, rng.STREAM_TRIAL, 1).standard_normal((100_000, 5))
    mean_s2 = float(np.mean(np.var(var_draws, axis=1, ddof=1)))
    var_rel_err = abs(mean_s2 - 4.0) / 4.0

    elapsed = time.monotonic() - start
    ok = q_err <= 1e-3 and abs(coverage - 0.95) <= 0.01 and var_rel_err <= 0.01 and elapsed < 180
    _gate(
        "AC7 interval-machinery",
        ok,
        f"t(4,0.975)={q:.6f} vs oracle {oracle_q:.6f} (err {q_err:.1e}), "
        f"coverage {coverage:.4f}, E[S^2] rel err {var_rel_err:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# AC8: concentration bounds hold exactly and empirically with Monte-Carlo slack


def test_ac8_concentration_bounds():
    start = time.monotonic()
    tail_violations = 0
    worst_tail_margin = -math.inf
    worst_exact_margin = -math.inf
    for dim in (1, 4, 16):
        for x in (1.0, 2.0, 3.0):
            tail, bound = subgaussian_tail(dim, x)
            worst_exact_margin = max(worst_exact_margin, tail - bound)
            emp, se = subgaussian_tail_mc(dim, x, samples=1_000_000, seed=dim)
            margin = emp - (bound + 3.0 * se)
            worst_tail_margin = max(worst_tail_margin, margin)
            if margin > 0:
                tail_violations += 1

    gap_violations = 0
    worst_gap_margin = -math.inf
    n = 200_000
    for i, gap in enumerate((0.25, 0.5, 1.0)):
        for j, var in enumerate((0.5, 1.0, 2.0)):
            gen = rng.step_generator(31, rng.STREAM_ORACLE, 10 * i + j)
            sd = math.sqrt(var)
            f_p = np.clip(gen.normal(0.0, sd, n), -1.0, 1.0)
            f_q = np.clip(gen.normal(gap, sd, n), -1.0, 1.0)
            emp_gap = abs(float(f_p.mean()) - float(f_q.mean()))
            se = math.hypot(f_p.std(ddof=1), f_q.std(ddof=1)) / math.sqrt(n)
            d2 = renyi_gaussians_shared_cov(np.zeros(1), np.array([gap]), var, 2.0)
            bound = expectation_gap_bound(d2)
            margin = emp_gap - (bound + 3.0 * se)
            worst_gap_margin = max(worst_gap_margin, margin)
            if margin > 0:
                gap_violations += 1

    elapsed = time.monotonic() - start
    ok = tail_violations == 0 and gap_violations == 0 and elapsed < 180
    _gate(
        "AC8 concentration-bounds",
        ok,
        f"tail violations {tail_violations}/9 (worst margin {worst_tail_margin:.2e}, "
        f"exact {worst_exact_margin:.2e}), "
        f"gap violations {gap_violations}/9 (worst margin {worst_gap_margin:.2e}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# AC9: reruns are byte-identical and post-processing leaves the ledger alone


TRAIN_CFG = {
    "task": "train",
    "train.mode": "practical",
    "train.steps": "40",
    "train.batch_size": "25",
    "data.n": "200",
    "data.p": "4",
}

AGG_CFG = {
    "task": "aggregate_eval",
    "train.steps": "60",
    "data.n": "300",
    "data.p": "4",
    "num_seeds": "2",
    "save_runs": "false",
}


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_ac9_determinism_and_postprocessing(tmp_path):
    identical = True
    for cfg, files in ((TRAIN_CFG, ("table.csv", "metrics.csv")), (AGG_CFG, ("table.csv", "aggregates.json"))):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{cfg['task']}_{name}")
            run_experiment(ConfigView(dict(cfg)), out, master_seed=0, workers=1)
            outs.append(out)
        for fname in files:
            if _file_bytes(os.path.join(outs[0], fname)) != _file_bytes(os.path.join(outs[1], fname)):
                identical = False

    # aggregation and interval construction never touch the recorded budget
    data = synth_classification(300, 4, num_classes=2, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.01, radius=1.0)
    config = trainer.TrainerConfig(
        mode="practical",
        num_steps=30,
        eta=trainer.EtaSchedule("constant", 0.1),
        batch_size=25,
        checkpoint_every=1,
    )
    (record,) = trainer.dp_sgd_practical_runs(
        model, data, config, [3], noise_multiplier=1.0, delta=1e-5
    )
    before = (record.budget.rho, record.budget.epsilon, record.budget.delta)
    params_before = [p.copy() for p in record.checkpoint_params()]

    params = record.checkpoint_params()
    aggregate.combine(AggregationSpec("ema", beta=0.9), params)
    aggregate.upa_past_k(params, 5)
    aggregate.combine(AggregationSpec("pda", gamma=1.0), params)
    stats = uncertainty.statistic_matrix(
        params, model, data.subset(np.arange(8)), "modal_class_probability"
    )
    uncertainty.t_widths(stats[-5:], level=0.95)
    uncertainty.t_widths(stats[uncertainty.independent_rows(range(len(params)), 5, 0)], 0.95)

    after = (record.budget.rho, record.budget.epsilon, record.budget.delta)
    # checkpoint_params() returns a copy, so check the matrix the operators read too
    ledger_ok = (
        after == before
        and np.array_equal(params, params_before)
        and all(np.array_equal(a, b) for a, b in zip(record.checkpoint_params(), params_before))
    )

    ok = identical and ledger_ok
    _gate(
        "AC9 determinism-and-postprocessing",
        ok,
        f"byte-identical reruns = {identical}, budget/checkpoints untouched = {ledger_ok}",
    )
