"""Finite-width network: init, forward pass, gradient descent, lazy tracking."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntkorigin import (
    ANALYTIC,
    Direction,
    DivergenceError,
    InvalidInput,
    LinearTarget,
    MLPConfig,
    MLPModel,
    MonteCarlo,
    NaNError,
    NumericalFailure,
    PointWisePredictor,
    SinusoidalTarget,
    TikhonovConfig,
    assemble_gram,
    evaluate_batch,
    init_features,
    init_model,
    mlp,
    parameter_displacement,
    predict,
    shift_set,
    tikhonov_solve,
    train,
)
from ntkorigin.configs import overlay_config
from ntkorigin.runner import realization_from_config, target_from_config


class TestConfig:
    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(InvalidInput, match="lr must be positive and finite"):
            MLPConfig(width=4, lr=lr)


class TestInit:
    def test_deterministic(self):
        cfg = MLPConfig(width=32, seed=5)
        a = init_model(cfg, d=3)
        b = init_model(cfg, d=3)
        assert np.array_equal(a.hidden, b.hidden)
        assert np.array_equal(a.output, b.output)

    def test_single_neuron_form(self):
        cfg = MLPConfig(width=1, seed=2)
        model = init_model(cfg, d=1)
        w = model.hidden[0]
        expected = model.output[0] * max(0.0, w[0] * 0.7 + w[1])
        assert evaluate_batch(model, np.array([[0.7]]))[0] == pytest.approx(expected, rel=1e-15)

    def test_initial_function_is_exactly_zero_for_even_width(self):
        # Paired signs cancel every activation, so the mean over seeds is zero
        # with zero variance rather than merely zero in expectation.
        for seed in range(20):
            model = init_model(MLPConfig(width=64, seed=seed), d=2)
            xs = np.random.default_rng(seed).uniform(-3, 3, (7, 2))
            assert np.array_equal(evaluate_batch(model, xs), np.zeros(7))

    def test_hidden_init_matches_feature_sample(self):
        cfg = MLPConfig(width=128, seed=9)
        model = init_model(cfg, d=2)
        fs = init_features(cfg, d=2)
        assert np.array_equal(model.hidden[::2], fs.weights)


class TestEvaluate:
    def test_zero_output_weights(self):
        model = MLPModel(hidden=np.ones((4, 3)), output=np.zeros(4))
        assert evaluate_batch(model, np.array([[5.0, -2.0]]))[0] == 0.0

    def test_single_neuron_by_hand(self):
        model = MLPModel(hidden=np.array([[1.0, 0.0]]), output=np.array([1.0]))
        assert evaluate_batch(model, np.array([[2.0]]))[0] == pytest.approx(2.0)

    def test_all_preactivations_negative(self):
        model = MLPModel(hidden=np.array([[0.0, -1.0], [0.0, -2.0]]), output=np.array([1.0, 1.0]))
        assert evaluate_batch(model, np.array([[3.0]]))[0] == 0.0


class TestTrain:
    @staticmethod
    def _task(n=1, t=10.0, seed=11):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(-1, 1, (n, 2))
        v = Direction([0.8, 0.6])
        g = SinusoidalTarget(u=[1.3, -0.7], phase=0.4)
        return shift_set(phi, v, t, g)

    def test_zero_steps_leaves_model_unchanged(self):
        ts = self._task()
        cfg = MLPConfig(width=16, steps=0, seed=1)
        model = init_model(cfg, d=2)
        trained, losses = train(model, ts, cfg)
        assert np.array_equal(trained.hidden, model.hidden)
        assert np.array_equal(trained.output, model.output)
        assert losses.size == 1

    def test_single_point_interpolation(self):
        ts = self._task(n=1)
        cfg = MLPConfig(width=512, steps=5000, seed=3)
        model = init_model(cfg, d=2)
        trained, losses = train(model, ts, cfg)
        assert losses[-1] < 1e-4 * losses[0]
        assert np.all(np.diff(losses[10:]) <= 0)

    def test_zero_labels_small_init_monotone(self):
        ts = shift_set(np.array([[0.5, 0.2], [-0.3, 0.1]]), Direction([1.0, 0.0]), 1.0, LinearTarget(a=[0.0, 0.0], b=0.0))
        rng = np.random.default_rng(7)
        model = MLPModel(hidden=rng.standard_normal((32, 3)), output=0.01 * rng.standard_normal(32))
        cfg = MLPConfig(width=32, steps=200, seed=7)
        _, losses = train(model, ts, cfg)
        assert np.all(np.diff(losses[10:]) <= 0)

    def test_divergence_detected(self):
        ts = self._task(n=1)
        cfg = MLPConfig(width=8, steps=500, lr=50.0, seed=1)
        model = init_model(cfg, d=2)
        with pytest.raises(DivergenceError):
            train(model, ts, cfg)

    @pytest.mark.parametrize("shape, dtype", [((3, 4096), np.float64), ((8, 64), bool), ((5,), np.float64)])
    def test_step_buffers_start_on_a_cache_line(self, shape, dtype):
        buf = mlp._line_aligned(shape, dtype)
        assert buf.ctypes.data % 64 == 0
        assert buf.shape == shape and buf.dtype == dtype and buf.flags.c_contiguous and buf.flags.writeable

    def test_all_dead_init_names_the_cause(self):
        # The single hidden unit of seed 0 is inactive on the single input,
        # so the default learning rate has a zero gram diagonal to divide by.
        ts = shift_set(np.array([[0.5]]), Direction([1.0]), 0.0, LinearTarget(a=[1.0], b=0.0))
        cfg = MLPConfig(width=1, steps=10, seed=0)
        model = init_model(cfg, d=1)
        with pytest.raises(NumericalFailure, match="no hidden unit is active"):
            train(model, ts, cfg)


def _two_pass_train(model, ts, cfg, target_loss=None):
    """Reference copy of `train`'s arithmetic, hidden weights as columns, with
    a forward pass at the top of every step and a second one to score it."""
    a_in = ts.augmented
    y = ts.labels
    sq = np.sqrt(model.width)
    w = model.hidden.T.copy()
    out = model.output.copy()
    if cfg.lr is None:
        z0 = a_in @ w
        contrib = ((a_in * a_in).sum(axis=1)[:, None] + z0**2) * (z0 >= 0.0)
        lr = 0.1 / float(contrib.mean(axis=1).mean())
    else:
        lr = cfg.lr
    scale = lr / sq
    losses = np.empty(cfg.steps + 1)
    f = np.maximum(a_in @ w, 0.0) @ out / sq
    loss0 = 0.5 * float(np.sum((f - y) ** 2))
    losses[0] = loss0
    abort_at = 10.0 * loss0 if loss0 > 0 else np.inf
    for step in range(cfg.steps):
        z = a_in @ w
        act = (z >= 0.0).astype(np.float64)
        relu = np.maximum(z, 0.0)
        r = (relu @ out / sq - y) * scale
        grad_out = relu.T @ r
        grad_w = (a_in.T * r) @ act * out
        w = w - grad_w
        out = out - grad_out
        loss = 0.5 * float(np.sum((np.maximum(a_in @ w, 0.0) @ out / sq - y) ** 2))
        losses[step + 1] = loss
        if not np.isfinite(loss):
            raise NaNError(f"loss became non-finite at step {step + 1}")
        if loss > abort_at:
            raise DivergenceError(f"loss {loss:.3e} exceeded 10x initial at step {step + 1}")
        if target_loss is not None and loss <= target_loss:
            losses = losses[: step + 2]
            break
    return MLPModel(hidden=w.T, output=out), losses


def _row_layout_two_pass_train(model, ts, cfg, target_loss=None):
    """Reference copy of the row-layout arithmetic `train` used before its
    hidden weights became columns: one row per hidden unit, the residual
    times the output weights masked over an (n, m) matrix, and a forward
    pass at the top of every step and a second one to score it."""
    a_in = ts.augmented
    y = ts.labels
    sq = np.sqrt(model.width)
    hidden = model.hidden.copy()
    out = model.output.copy()
    if cfg.lr is None:
        z0 = a_in @ hidden.T
        contrib = ((a_in * a_in).sum(axis=1)[:, None] + z0**2) * (z0 >= 0.0)
        lr = 0.1 / float(contrib.mean(axis=1).mean())
    else:
        lr = cfg.lr
    losses = np.empty(cfg.steps + 1)
    f = np.maximum(a_in @ hidden.T, 0.0) @ out / sq
    loss0 = 0.5 * float(np.sum((f - y) ** 2))
    losses[0] = loss0
    abort_at = 10.0 * loss0 if loss0 > 0 else np.inf
    for step in range(cfg.steps):
        z = a_in @ hidden.T
        act = z >= 0.0
        relu = np.where(act, z, 0.0)
        resid = relu @ out / sq - y
        grad_out = relu.T @ resid / sq
        grad_hidden = ((act * resid[:, None]) * out[None, :]).T @ a_in / sq
        hidden = hidden - lr * grad_hidden
        out = out - lr * grad_out
        loss = 0.5 * float(np.sum((np.maximum(a_in @ hidden.T, 0.0) @ out / sq - y) ** 2))
        losses[step + 1] = loss
        if not np.isfinite(loss):
            raise NaNError(f"loss became non-finite at step {step + 1}")
        if loss > abort_at:
            raise DivergenceError(f"loss {loss:.3e} exceeded 10x initial at step {step + 1}")
        if target_loss is not None and loss <= target_loss:
            losses = losses[: step + 2]
            break
    return MLPModel(hidden=hidden, output=out), losses


def _outcome(fn, *args, **kwargs):
    """(model, losses) on success, or the exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # both forms must fail alike, whatever the error
        return type(exc), str(exc)


# Training runs drawn by both trajectory tests.
_RUNS = dict(
    width=st.sampled_from([1, 2, 3, 64, 129]),
    n=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    lr=st.none() | st.floats(min_value=1e-4, max_value=1e-2),
)


def _run(width, n, d, seed, lr):
    """(model, training set, config) of one drawn run of 30 steps."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-1, 1, (n, d))
    g = SinusoidalTarget(u=rng.standard_normal(d), phase=0.4)
    ts = shift_set(phi, Direction(rng.standard_normal(d)), float(rng.uniform(0.5, 10.0)), g)
    cfg = MLPConfig(width=width, steps=30, lr=lr, seed=seed)
    return init_model(cfg, d), ts, cfg


def _row_layout_drift(model, ts, cfg):
    """Largest relative move of `train` from the row-layout reference: of a
    loss against the reference's largest loss, and of a parameter against
    the largest entry of its array. None when both fail, which they must
    alike."""
    want = _outcome(_row_layout_two_pass_train, model, ts, cfg)
    got = _outcome(train, model, ts, cfg)
    if want[0] is ZeroDivisionError:
        assert got[0] is NumericalFailure
        return None
    if isinstance(want[1], str):
        assert got[0] is want[0]
        return None
    assert isinstance(got[1], np.ndarray)
    moves = [np.max(np.abs(got[1] - want[1])) / np.max(want[1])]
    for name in ("hidden", "output"):
        a, b = getattr(got[0], name), getattr(want[0], name)
        moves.append(np.max(np.abs(a - b)) / np.max(np.abs(b)))
    return float(max(moves))


# Bound on the drift from the row layout while the loss falls. Worst case
# measured over 220000 drawn runs: 5.0e-11, on a run whose one label is
# 2.3e-5, so its residual is all cancellation.
ROW_LAYOUT_RTOL = 1e-9


class TestSinglePassMatchesTwoPass:
    """`train` runs one forward pass per step; its trajectory must equal the
    two-pass reference of its arithmetic bit for bit, early stops and aborts
    included, and stay within a rounding bound of the row-layout one."""

    @given(**_RUNS, stop_after=st.none() | st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_trajectory_bit_identical(self, width, n, d, seed, lr, stop_after):
        model, ts, cfg = _run(width, n, d, seed, lr)
        target = None
        if stop_after is not None:
            # A loss the reference reaches, so the early stop fires.
            ref = _outcome(_two_pass_train, model, ts, cfg)
            if isinstance(ref[1], np.ndarray):
                target = float(ref[1][min(stop_after, cfg.steps)])
        want = _outcome(_two_pass_train, model, ts, cfg, target_loss=target)
        got = _outcome(train, model, ts, cfg, target_loss=target)
        if want[0] is ZeroDivisionError:
            # The reference has no guard against an all-dead init.
            assert got[0] is NumericalFailure
            return
        if isinstance(want[1], str):
            assert got == want
            return
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0].hidden, want[0].hidden)
        assert np.array_equal(got[0].output, want[0].output)

    @given(**_RUNS)
    @settings(max_examples=60, deadline=None)
    def test_trajectory_drifts_from_row_layout_within_rounding(self, width, n, d, seed, lr):
        model, ts, cfg = _run(width, n, d, seed, lr)
        if _row_layout_drift(model, ts, cfg) is None:
            return
        # Once its loss rises, a run oscillates near the edge of stability and
        # about doubles any rounding difference every step (up to 7.8e-9 over
        # 30 steps at width 2), so the bound holds while the loss falls.
        _, losses = _row_layout_two_pass_train(model, ts, cfg)
        rises = np.flatnonzero(np.diff(losses) > 0)
        falling = replace(cfg, steps=int(rises[0]) if rises.size else cfg.steps)
        assert _row_layout_drift(model, ts, falling) <= ROW_LAYOUT_RTOL

    @pytest.mark.parametrize("stop", [False, True], ids=["full", "early-stop"])
    @pytest.mark.parametrize("width", [64, 4096])
    def test_trajectory_bit_identical_at_benchmark_shape(self, width, stop):
        # The `mlp-train` benchmark's eight points at config seed 1, built as
        # tools/default_digests.py builds them, at both of its widths.
        rng = random.Random(1)
        points = [[rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(8)]
        sweep = overlay_config("mlp-compare", {"seed": 1, "points": points, "widths": [64, 4096]})
        phi = realization_from_config(sweep, np.random.default_rng(1))
        ts = shift_set(phi, Direction(sweep["v_phi"]), sweep["t"], target_from_config(sweep["target"]))
        cfg = MLPConfig(width=width, steps=200, seed=1)
        model = init_model(cfg, d=2)
        target = None
        if stop:
            target = float(_two_pass_train(model, ts, cfg)[1][150])
        want_model, want = _two_pass_train(model, ts, cfg, target_loss=target)
        got_model, got = train(model, ts, cfg, target_loss=target)
        assert got.size == (151 if stop else 201)
        assert np.array_equal(got, want)
        assert np.array_equal(got_model.hidden, want_model.hidden)
        assert np.array_equal(got_model.output, want_model.output)

    def test_divergence_raised_at_the_same_step(self):
        ts = TestTrain._task(n=1)
        cfg = MLPConfig(width=8, steps=500, lr=50.0, seed=1)
        model = init_model(cfg, d=2)
        with pytest.raises(DivergenceError) as want:
            _two_pass_train(model, ts, cfg)
        with pytest.raises(DivergenceError) as got:
            train(model, ts, cfg)
        assert str(got.value) == str(want.value)


class TestLazyRegime:
    def test_displacement_shrinks_with_width(self):
        ts = TestTrain._task(n=1)
        disps = {}
        for width in (64, 4096):
            cfg = MLPConfig(width=width, steps=5000, seed=123)
            model = init_model(cfg, d=2)
            trained, losses = train(model, ts, cfg, target_loss=1e-6 * losses_init(model, ts))
            disps[width] = parameter_displacement(model, trained)
        assert disps[4096] < disps[64]

    def test_near_origin_tracking_single_far_point(self):
        ts = TestTrain._task(n=1)
        cfg = MLPConfig(width=4096, steps=50000, seed=123)
        model = init_model(cfg, d=2)
        trained, losses = train(model, ts, cfg, target_loss=1e-6 * losses_init(model, ts))
        assert losses[-1] <= 1e-6 * losses[0]
        km = assemble_gram(ts, ANALYTIC)
        alpha = tikhonov_solve(km, TikhonovConfig(delta=1e-8, mode="relative"), ts.labels)
        pred = PointWisePredictor(training=ts, alpha=alpha)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, (1, 2))
            fk = predict(pred, x)[0]
            fn = evaluate_batch(trained, x)[0]
            assert abs(fn - fk) <= max(0.1 * abs(fk), 0.05)

    @pytest.mark.xfail(
        reason=(
            "With 8 near-colinear training points at shift 10, Monte Carlo noise "
            "collapses the empirical gram's smallest eigenvalues, and the "
            "near-origin evaluation functional amplifies the finite-width "
            "tracking error past the 10%/0.05 budget at width 4096 (measured "
            "1.8x-6.5x over across seeds, including against the GD-matched "
            "kernel coefficient). Kept at the stated tolerance for the record."
        ),
        strict=True,
    )
    def test_near_origin_tracking_eight_points_loose(self):
        ts = TestTrain._task(n=8)
        steps = 20000
        cfg = MLPConfig(width=4096, steps=steps, seed=123)
        model = init_model(cfg, d=2)
        fs = init_features(cfg, d=2)
        km = assemble_gram(ts, MonteCarlo(fs))
        trained, _ = train(model, ts, cfg)
        # GD-matched kernel coefficient: same learning rate, same step count.
        z0 = ts.augmented @ model.hidden.T
        contrib = ((ts.augmented**2).sum(axis=1)[:, None] + z0**2) * (z0 >= 0.0)
        lr = 0.1 / float(contrib.mean(axis=1).mean())
        evals, evecs = np.linalg.eigh(km.entries)
        filt = np.where(
            evals > 1e-300, (1.0 - (1.0 - lr * evals) ** steps) / np.maximum(evals, 1e-300), lr * steps
        )
        coeff = evecs @ (filt * (evecs.T @ ts.labels))
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            fn = evaluate_batch(trained, x[None])[0]
            row = np.array([float(np.mean(((np.append(x, 1.0) @ fs.weights.T) >= 0)
                                           * ((ts.augmented[i] @ fs.weights.T) >= 0)
                                           * (np.dot(np.append(x, 1.0), ts.augmented[i])
                                              + (np.append(x, 1.0) @ fs.weights.T)
                                              * (ts.augmented[i] @ fs.weights.T))))
                            for i in range(ts.n)])
            fk = float(row @ coeff)
            assert abs(fn - fk) <= max(0.1 * abs(fk), 0.05)


def losses_init(model, ts):
    resid = evaluate_batch(model, ts.shifted) - ts.labels
    return 0.5 * float(np.sum(resid**2))
