"""Gaussian process regression with a squared exponential kernel.

Small and deliberately plain: Cholesky factorisation of the jittered Gram
matrix, zero prior mean over mean-centred targets, and hyperparameter
selection by scanning a log-spaced grid for the best marginal likelihood.
Fitted models are immutable; predictions are safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

SIGMA_GRID = np.geomspace(0.1, 10.0, 7)
LENGTH_GRID = np.geomspace(0.05, 5.0, 7)


def se_kernel(x: np.ndarray, x2: np.ndarray, sigma_f: float, length_scale: float) -> float:
    """Squared exponential covariance between two points."""
    if length_scale <= 0:
        raise ValueError("length_scale must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    if x.shape != x2.shape:
        raise ValueError("points must share a dimensionality")
    sq = float(np.sum((x - x2) ** 2))
    return sigma_f**2 * math.exp(-sq / (2.0 * length_scale**2))


def kernel_matrix(A: np.ndarray, B: np.ndarray, sigma_f: float, length_scale: float) -> np.ndarray:
    """Gram matrix between two point sets, rows are points."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    sq = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return sigma_f**2 * np.exp(-sq / (2.0 * length_scale**2))


@dataclass(frozen=True)
class GprModel:
    train_inputs: np.ndarray
    train_targets: np.ndarray
    sigma_f: float
    length_scale: float
    noise_var: float
    jitter: float
    chol_factor: np.ndarray
    alpha_vec: np.ndarray
    target_mean: float
    log_marginal: float


def _factorise(K: np.ndarray, noise_var: float) -> tuple[np.ndarray, float]:
    # scipy is imported on first use: runs that never fit a GP skip its cost
    from scipy.linalg import cholesky

    n = K.shape[0]
    base = K + noise_var * np.eye(n)
    last_err = None
    for jitter in JITTERS:
        try:
            return cholesky(base + jitter * np.eye(n), lower=True), jitter
        except np.linalg.LinAlgError as err:
            last_err = err
    raise np.linalg.LinAlgError(
        f"Gram matrix stayed non positive definite after jitter escalation: {last_err}"
    )


def fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    sigma_f: float = 1.0,
    length_scale: float = 1.0,
    noise_var: float = 0.0,
) -> GprModel:
    """Factorise the training covariance and solve for the weight vector."""
    from scipy.linalg import cho_solve

    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on count")
    if X.shape[0] == 0:
        raise ValueError("need at least one observation")
    mean = float(y.mean())
    yc = y - mean
    K = kernel_matrix(X, X, sigma_f, length_scale)
    L, jitter = _factorise(K, noise_var)
    alpha = cho_solve((L, True), yc)
    lml = (
        -0.5 * float(yc @ alpha)
        - float(np.sum(np.log(np.diag(L))))
        - 0.5 * X.shape[0] * math.log(2.0 * math.pi)
    )
    return GprModel(
        train_inputs=X,
        train_targets=y,
        sigma_f=float(sigma_f),
        length_scale=float(length_scale),
        noise_var=float(noise_var),
        jitter=jitter,
        chol_factor=L,
        alpha_vec=alpha,
        target_mean=mean,
        log_marginal=lml,
    )


def predict_mean(model: GprModel, x: np.ndarray) -> float:
    """Posterior mean at one query point."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != model.train_inputs.shape[1]:
        raise ValueError("query dimensionality does not match training inputs")
    k_star = kernel_matrix(x[None, :], model.train_inputs, model.sigma_f, model.length_scale)[0]
    return float(k_star @ model.alpha_vec) + model.target_mean


def log_marginal_likelihood(
    inputs: np.ndarray,
    targets: np.ndarray,
    sigma_f: float,
    length_scale: float,
    noise_var: float,
) -> float:
    """Marginal likelihood of the mean-centred targets under the kernel."""
    return fit(inputs, targets, sigma_f, length_scale, noise_var).log_marginal


def optimize_hyperparams(
    inputs: np.ndarray,
    targets: np.ndarray,
    noise_var: float = 0.0,
    initial: tuple[float, float] = (1.0, 1.0),
) -> tuple[float, float]:
    """Pick the grid point with the best marginal likelihood.

    The initial setting is always a candidate, so the winner is never worse
    than it.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] < 2:
        raise ValueError("hyperparameter search needs at least two observations")
    candidates = [initial] + [(float(s), float(l)) for s in SIGMA_GRID for l in LENGTH_GRID]
    best = None
    best_lml = -np.inf
    for sigma_f, length_scale in candidates:
        try:
            lml = log_marginal_likelihood(X, y, sigma_f, length_scale, noise_var)
        except np.linalg.LinAlgError:
            continue
        if lml > best_lml:
            best_lml = lml
            best = (sigma_f, length_scale)
    if best is None:
        raise np.linalg.LinAlgError("every hyperparameter candidate failed to factorise")
    return best
