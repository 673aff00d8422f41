import math
import os
import subprocess
import sys

import numpy as np
import pytest

from adaptdae.gp import (
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    optimize_hyperparams,
    predict_mean,
    se_kernel,
)


def dense_posterior_mean(model, x):
    """Naive matrix-inverse oracle for the posterior mean."""
    X = model.train_inputs
    K = kernel_matrix(X, X, model.sigma_f, model.length_scale)
    K = K + (model.noise_var + model.jitter) * np.eye(X.shape[0])
    yc = model.train_targets - model.target_mean
    k_star = kernel_matrix(np.atleast_2d(x), X, model.sigma_f, model.length_scale)[0]
    return float(k_star @ np.linalg.inv(K) @ yc) + model.target_mean


def dense_lml(X, y, sigma_f, length_scale, noise_var, jitter):
    """Brute-force marginal likelihood via an explicit determinant."""
    n = X.shape[0]
    K = kernel_matrix(X, X, sigma_f, length_scale) + (noise_var + jitter) * np.eye(n)
    yc = y - y.mean()
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-0.5 * yc @ np.linalg.inv(K) @ yc - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


class TestKernel:
    def test_same_point(self):
        x = np.array([1.0, 2.0])
        assert se_kernel(x, x, sigma_f=1.7, length_scale=0.3) == pytest.approx(1.7**2)

    def test_far_apart_vanishes(self):
        assert se_kernel(np.array([0.0]), np.array([100.0]), 1.0, 1.0) < 1e-300

    def test_unit_distance(self):
        got = se_kernel(np.array([0.0]), np.array([1.0]), 1.0, 1.0)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert se_kernel(a, b, 1.2, 0.7) == pytest.approx(se_kernel(b, a, 1.2, 0.7), abs=1e-15)

    def test_gram_matrix_symmetric(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        K = kernel_matrix(X, X, 1.0, 1.0)
        assert np.max(np.abs(K - K.T)) < 1e-12

    def test_nonpositive_length_scale_rejected(self):
        with pytest.raises(ValueError):
            se_kernel(np.array([0.0]), np.array([1.0]), 1.0, 0.0)


class TestFitPredict:
    def test_single_point_interpolation(self):
        model = fit(np.array([[0.5]]), np.array([3.0]), noise_var=0.0)
        assert predict_mean(model, np.array([0.5])) == pytest.approx(3.0, abs=1e-6)

    def test_duplicate_inputs_with_noise(self):
        model = fit(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]), noise_var=0.1)
        pred = predict_mean(model, np.array([1.0]))
        assert 0.0 < pred < 2.0
        # closed form: symmetric system pulls the prediction to the target mean
        assert pred == pytest.approx(1.0, abs=1e-9)

    def test_interpolates_at_jitter_noise(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, size=(6, 1))
        y = np.sin(X[:, 0])
        model = fit(X, y, sigma_f=1.0, length_scale=1.0, noise_var=0.0)
        for xi, yi in zip(X, y):
            assert predict_mean(model, xi) == pytest.approx(yi, abs=1e-4)

    def test_far_field_returns_prior_mean(self):
        # zero-mean targets, so the prior pulls predictions to zero far away
        X = np.array([[0.0], [1.0]])
        model = fit(X, np.array([-1.0, 1.0]), noise_var=1e-6)
        assert abs(predict_mean(model, np.array([50.0]))) < 1e-10

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3, 21))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            model = fit(X, y, sigma_f=1.3, length_scale=0.9, noise_var=1e-2)
            for _ in range(5):
                x = rng.normal(size=d)
                assert predict_mean(model, x) == pytest.approx(
                    dense_posterior_mean(model, x), abs=1e-8
                )

    def test_order_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        model_a = fit(X, y, noise_var=1e-3)
        perm = rng.permutation(8)
        model_b = fit(X[perm], y[perm], noise_var=1e-3)
        for _ in range(5):
            x = rng.normal(size=2)
            assert predict_mean(model_a, x) == pytest.approx(predict_mean(model_b, x), abs=1e-10)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((3, 1)), np.zeros(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 1)), np.zeros(0))

    def test_query_dimension_checked(self):
        model = fit(np.zeros((2, 2)), np.array([0.0, 1.0]), noise_var=0.1)
        with pytest.raises(ValueError):
            predict_mean(model, np.array([0.0]))


class TestMarginalLikelihood:
    def test_matches_dense_oracle_four_points(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 1))
        y = rng.normal(size=4)
        model = fit(X, y, sigma_f=0.8, length_scale=0.6, noise_var=1e-3)
        expected = dense_lml(X, y, 0.8, 0.6, 1e-3, model.jitter)
        assert model.log_marginal == pytest.approx(expected, abs=1e-8)

    def test_zero_targets_prefer_smallest_signal(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 1))
        y = np.zeros(10)
        sigma_f, _ = optimize_hyperparams(X, y, noise_var=1e-2)
        assert sigma_f == pytest.approx(0.1)

    def test_never_worse_than_initial(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            X = rng.normal(size=(12, 2))
            y = rng.normal(size=12)
            initial = (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.1, 2.0)))
            best = optimize_hyperparams(X, y, noise_var=1e-2, initial=initial)
            lml_best = log_marginal_likelihood(X, y, *best, 1e-2)
            lml_init = log_marginal_likelihood(X, y, *initial, 1e-2)
            assert lml_best >= lml_init - 1e-12

    def test_length_scale_recovery(self):
        # generative check: sample from a known kernel and refit
        rng = np.random.default_rng(8)
        X = np.linspace(-5, 5, 50)[:, None]
        K = kernel_matrix(X, X, sigma_f=1.0, length_scale=1.0) + 1e-8 * np.eye(50)
        y = np.linalg.cholesky(K) @ rng.standard_normal(50)
        _, length_scale = optimize_hyperparams(X, y, noise_var=1e-4)
        assert 0.5 <= length_scale <= 2.0

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            optimize_hyperparams(np.zeros((1, 1)), np.zeros(1))


def test_scipy_is_imported_only_when_a_gp_is_fitted():
    # runs that never fit a GP (sdae, midae, validate, replay) skip its import
    code = (
        "import sys, adaptdae.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "from adaptdae.gp import fit\n"
        "fit([[0.0], [1.0]], [0.0, 1.0])\n"
        "assert 'scipy.linalg' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
