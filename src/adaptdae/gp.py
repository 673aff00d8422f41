"""Gaussian process regression with a squared exponential kernel.

Small and deliberately plain: Cholesky factorisation of the jittered Gram
matrix, zero prior mean over mean-centred targets, and hyperparameter
selection by scanning a log-spaced grid, built once at import, for the best
marginal likelihood.  One routine, ``_solve_candidates``, factorises and
solves: the scan hands it every candidate at once, and ``fit`` is its
one-candidate case.  It computes the pairwise distances once, takes one
``exp`` per length scale and factorises each candidate's Gram matrix in
place.  Per candidate it does no more than refill that buffer (the noisy
diagonal through a view of it), call LAPACK and form the log-likelihood.
It calls LAPACK ``potrf``/``potrs`` directly, with positional arguments:
the same routines, and the same bits, as scipy's ``cholesky`` and
``cho_solve`` without their argument checks.  Finiteness is checked here
instead.  A fitted model keeps its training inputs' squared norms, so a
prediction computes only the query's half of the distances.
The routines come from scipy's compiled ``scipy.linalg._flapack`` module,
loaded by file on the first fit, so no run imports the ``scipy.linalg``
package and its ~0.1 s set-up.  Fitted models are immutable; predictions
are safe to share.

The ``_flapack`` wrappers hold the GIL while LAPACK runs.  On a 2 vCPU AMD
EPYC, a Python thread counting beside a 2500 x 2500 ``dpotrf`` (116 ms)
went 104-111 ms without running, while beside numpy's ``A @ A`` (414 ms)
and ``np.linalg.cholesky`` (215 ms), which release it, it never waited more
than 18 ms.  So a search moved to another thread through these wrappers
would still stall the loop's thread.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

JITTERS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

SIGMA_GRID = np.geomspace(0.1, 10.0, 7)
LENGTH_GRID = np.geomspace(0.05, 5.0, 7)
# the search's 49 (sigma_f, length_scale) points, as Python floats
GRID = tuple((float(s), float(l)) for s in SIGMA_GRID for l in LENGTH_GRID)


def _sq_dists(A: np.ndarray, B: np.ndarray, B_sq_norms: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of two point sets, clipped at 0;
    ``B_sq_norms`` is ``B``'s half, ``np.sum(B**2, axis=1)``, if known."""
    if B_sq_norms is None:
        B_sq_norms = np.sum(B**2, axis=1)
    sq = np.sum(A**2, axis=1)[:, None] + B_sq_norms[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _decay(sq: np.ndarray, length_scale: float) -> np.ndarray:
    # in one fresh buffer; sq stays as it is, since the search reuses it
    # for every length scale
    out = np.negative(sq)
    out /= 2.0 * length_scale**2
    return np.exp(out, out=out)


def kernel_matrix(A: np.ndarray, B: np.ndarray, sigma_f: float, length_scale: float) -> np.ndarray:
    """Gram matrix between two point sets, rows are points."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    return sigma_f**2 * _decay(_sq_dists(A, B), length_scale)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    # LAPACK does not check: a NaN would come back as a NaN factor, not an error
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


@dataclass(frozen=True)
class GprModel:
    train_inputs: np.ndarray
    train_targets: np.ndarray
    sigma_f: float
    length_scale: float
    noise_var: float
    jitter: float
    alpha_vec: np.ndarray
    target_mean: float
    log_marginal: float

    @functools.cached_property
    def train_sq_norms(self) -> np.ndarray:
        """The training half of ``_sq_dists(x, train_inputs)``, kept for
        every prediction."""
        return np.sum(self.train_inputs**2, axis=1)


@functools.cache
def _flapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``.

    Loaded on first use, so runs that never fit a GP skip it.  The module
    file is found without running any scipy package code and registered
    under its own name, so a later ``import scipy.linalg`` reuses this
    instance, and an earlier one is reused here.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in (scipy.submodule_search_locations or ())] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"the GP needs scipy: {name} was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _observations(inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Inputs, targets, mean-centred targets and their mean, checked once per call."""
    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("inputs and targets disagree on count")
    if X.shape[0] == 0:
        raise ValueError("need at least one observation")
    mean = float(y.mean())
    return X, y, _finite(y - mean, "targets"), mean


def _solve_candidates(
    X: np.ndarray, yc: np.ndarray, noise_var: float, candidates: list[tuple[float, float]]
) -> list[tuple[np.ndarray, float, float] | None]:
    """Weights, jitter and log marginal likelihood of each ``(sigma_f,
    length_scale)`` candidate (GPML Algorithm 2.1), in candidate order; None
    where no jitter factorises ``K + (noise_var + jitter) I``.

    Candidates are solved grouped by length scale: a group shares one
    ``exp`` and one finiteness check of its noisy diagonals, and each
    candidate's Gram matrix is factorised in place in one reused buffer.
    """
    lapack = _flapack()
    dpotrf, dpotrs = lapack.dpotrf, lapack.dpotrs
    groups: dict[float, list[int]] = {}
    for i, (_, length_scale) in enumerate(candidates):
        groups.setdefault(length_scale, []).append(i)
    sq = _sq_dists(X, X)
    n = sq.shape[0]
    K = np.empty((n, n))  # C-ordered, so that the reshape below is a view
    # K.T is Fortran-ordered, so potrf factorises it where it lies and reads
    # K's upper triangle: _sq_dists(X, X) is exactly symmetric, so that is
    # the lower one.  K_diag is a writable view of K's diagonal.
    Kt, K_diag = K.T, K.reshape(-1)[:: n + 1]
    half_n_log_2pi = 0.5 * n * math.log(2.0 * math.pi)
    solved: list[tuple[np.ndarray, float, float] | None] = [None] * len(candidates)
    for length_scale, members in groups.items():
        D = _finite(_decay(sq, length_scale), "the Gram matrix")
        s2 = np.array([candidates[i][0] ** 2 for i in members], dtype=np.float64)
        diags = _finite(s2[:, None] * D.diagonal() + noise_var, "the noisy Gram diagonal")
        for i, sigma2, diag in zip(members, s2, diags):
            for jitter in JITTERS:
                # a failed attempt leaves K part-factorised: refill it
                np.multiply(D, sigma2, out=K)
                np.add(diag, jitter, out=K_diag)
                L, info = dpotrf(Kt, 1, 0, 1)  # lower, clean, overwrite_a
                if info == 0:
                    break
            else:
                continue
            alpha, _ = dpotrs(L, yc, 1)  # lower
            # one log and one sum of the strided diagonal per candidate: a
            # group's diagonals logged and summed as one 2-D array may take
            # other numpy loops and round differently
            lml = -0.5 * float(yc @ alpha) - float(np.log(L.diagonal()).sum()) - half_n_log_2pi
            solved[i] = (alpha, jitter, lml)
    return solved


def fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    sigma_f: float = 1.0,
    length_scale: float = 1.0,
    noise_var: float = 0.0,
) -> GprModel:
    """Factorise the training covariance and solve for the weight vector:
    the search's solve with one candidate."""
    X, y, yc, mean = _observations(inputs, targets)
    (solved,) = _solve_candidates(X, yc, noise_var, [(sigma_f, length_scale)])
    if solved is None:
        raise np.linalg.LinAlgError("Gram matrix stayed non positive definite after jitter escalation")
    alpha, jitter, lml = solved
    return GprModel(
        train_inputs=X,
        train_targets=y,
        sigma_f=float(sigma_f),
        length_scale=float(length_scale),
        noise_var=float(noise_var),
        jitter=jitter,
        alpha_vec=alpha,
        target_mean=mean,
        log_marginal=lml,
    )


def predict_mean(model: GprModel, x: np.ndarray) -> float:
    """Posterior mean at one query point; the training half of its distances is the model's."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    X = model.train_inputs
    if x.shape[0] != X.shape[1]:
        raise ValueError("query dimensionality does not match training inputs")
    k_star = _decay(_sq_dists(x[None, :], X, model.train_sq_norms), model.length_scale)[0]
    k_star *= model.sigma_f**2
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

    The initial setting is always the first candidate, so the winner is
    never worse than it; a grid point equal to it is not scored again.
    """
    X, _, yc, _ = _observations(inputs, targets)
    if X.shape[0] < 2:
        raise ValueError("hyperparameter search needs at least two observations")
    # an equal grid point would score the same and lose the strict tie below
    candidates = [initial] + [c for c in GRID if c != initial]
    best = None
    best_lml = -np.inf
    for candidate, solved in zip(candidates, _solve_candidates(X, yc, noise_var, candidates)):
        if solved is not None and solved[2] > best_lml:
            best, best_lml = candidate, solved[2]
    if best is None:
        raise np.linalg.LinAlgError("every hyperparameter candidate failed to factorise")
    return best
