import importlib.machinery
import importlib.util
import math
import os
import pickle
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve, cholesky

from adaptdae import gp
from adaptdae.gp import (
    JITTERS,
    LENGTH_GRID,
    SIGMA_GRID,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    optimize_hyperparams,
    predict_mean,
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


def reference_fit(X, y, sigma_f, length_scale, noise_var):
    """Every candidate fitted from scratch through scipy's checked wrappers:
    the bit-exact reference for ``fit``.  Returns the factor, the weights,
    the jitter and the log marginal likelihood."""
    sq = np.sum(X**2, axis=1)[:, None] + np.sum(X**2, axis=1)[None, :] - 2.0 * (X @ X.T)
    np.maximum(sq, 0.0, out=sq)
    K = sigma_f**2 * np.exp(-sq / (2.0 * length_scale**2))
    n = X.shape[0]
    base = K + noise_var * np.eye(n)
    for jitter in JITTERS:
        try:
            L = cholesky(base + jitter * np.eye(n), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise np.linalg.LinAlgError("no jitter factorised")
    yc = y - float(y.mean())
    alpha = cho_solve((L, True), yc)
    lml = -0.5 * float(yc @ alpha) - float(np.sum(np.log(np.diag(L)))) - 0.5 * n * math.log(2.0 * math.pi)
    return L, alpha, jitter, lml


def candidates(initial):
    return [initial] + [(float(s), float(l)) for s in SIGMA_GRID for l in LENGTH_GRID]


def reference_search(X, y, noise_var, initial):
    """The 50-candidate scan with one reference fit per candidate."""
    best, best_lml = None, -np.inf
    for sigma_f, length_scale in candidates(initial):
        try:
            lml = reference_fit(X, y, sigma_f, length_scale, noise_var)[3]
        except np.linalg.LinAlgError:
            continue
        if lml > best_lml:
            best, best_lml = (sigma_f, length_scale), lml
    return best


@st.composite
def gp_problems(draw):
    """Random observations, some with repeated rows, and a noise level."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 3.0])), size=(n, d))
    repeats = draw(st.integers(0, n - 1))
    if repeats:
        X[rng.choice(n, repeats, replace=False)] = X[rng.integers(0, n, repeats)]
    y = rng.normal(size=n)
    noise_var = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    initial = draw(st.one_of(st.just((1.0, 1.0)), st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 5.0))))
    return X, y, noise_var, initial


# a Gram matrix that factorises only from the fourth jitter on, at (1, 1)
ESCALATING = (np.linspace(0.0, 1.0, 30)[:, None], np.sin(3.0 * np.linspace(0.0, 1.0, 30)), -5e-8, (1.0, 1.0))


class TestReferenceEquality:
    @settings(max_examples=80, deadline=None)
    @given(problem=gp_problems(), sigma_f=st.floats(0.1, 10.0), length_scale=st.floats(0.05, 5.0))
    @example(problem=ESCALATING, sigma_f=1.0, length_scale=1.0)
    @example(problem=ESCALATING[:2] + (-1e3, (1.0, 1.0)), sigma_f=1.0, length_scale=1.0)
    def test_fit_equals_the_reference_bit_for_bit(self, problem, sigma_f, length_scale):
        X, y, noise_var, _ = problem
        try:
            expected = reference_fit(X, y, sigma_f, length_scale, noise_var)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                fit(X, y, sigma_f, length_scale, noise_var)
            return
        model = fit(X, y, sigma_f, length_scale, noise_var)
        _, alpha, jitter, lml = expected
        assert model.alpha_vec.tobytes() == alpha.tobytes()
        assert (model.jitter, model.log_marginal) == (jitter, lml)

    @settings(max_examples=40, deadline=None)
    @given(problem=gp_problems())
    def test_search_picks_the_reference_winner(self, problem):
        X, y, noise_var, initial = problem
        if X.shape[0] < 2:
            return
        best = optimize_hyperparams(X, y, noise_var, initial)
        assert best == reference_search(X, y, noise_var, initial)
        lmls = []
        for sigma_f, length_scale in candidates(initial):
            try:
                lmls.append(log_marginal_likelihood(X, y, sigma_f, length_scale, noise_var))
            except np.linalg.LinAlgError:
                lmls.append(-np.inf)
        assert best == candidates(initial)[int(np.argmax(lmls))]


@st.composite
def search_problems(draw):
    """Up to 150 observations (the desk's ``rl.max_observations``), some
    rows repeated, and a noise variance: zero, so that repeated rows need
    jitter escalation; negative, so that more of them do; or so negative
    that every candidate fails."""
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 3.0])), size=(n, d))
    repeats = draw(st.integers(0, n - 1))
    if repeats:
        X[rng.choice(n, repeats, replace=False)] = X[rng.integers(0, n, repeats)]
    noise_var = draw(st.sampled_from([0.0, 0.0, 1e-2, 0.2, -5e-8, -1e3]))
    initial = draw(st.one_of(st.just((1.0, 1.0)), st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 5.0))))
    return X, rng.normal(size=n), noise_var, initial


class TestCandidateScores:
    @settings(max_examples=40, deadline=None)
    @given(problem=search_problems())
    @example(problem=ESCALATING)
    def test_every_score_is_the_references_bit_for_bit(self, problem):
        X, y, noise_var, initial = problem
        solved = gp._solve_candidates(X, y - float(y.mean()), noise_var, candidates(initial))
        for (sigma_f, length_scale), got in zip(candidates(initial), solved, strict=True):
            try:
                _, alpha, jitter, lml = reference_fit(X, y, sigma_f, length_scale, noise_var)
            except np.linalg.LinAlgError:
                assert got is None
                continue
            assert got is not None and got[0].tobytes() == alpha.tobytes()
            assert got[1] == jitter and np.float64(got[2]).tobytes() == np.float64(lml).tobytes()

    def test_the_example_escalates_and_the_all_fail_case_raises(self):
        X, y, noise_var, initial = ESCALATING
        assert fit(X, y, *initial, noise_var).jitter == JITTERS[3]
        assert gp._solve_candidates(X, y - y.mean(), -1e3, candidates(initial)) == [None] * 50
        with pytest.raises(np.linalg.LinAlgError, match="every hyperparameter candidate"):
            optimize_hyperparams(X, y, -1e3, initial)

    @settings(max_examples=200, deadline=None)
    @given(
        X=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
            elements=st.floats(-1e3, 1e3, allow_subnormal=False),
        ),
        fortran=st.booleans(),
    )
    def test_squared_distances_are_exactly_symmetric(self, X, fortran):
        # in-place factorisation reads the upper triangle as the lower one
        X = np.asfortranarray(X) if fortran else X
        sq = gp._sq_dists(X, X)
        assert sq.tobytes() == np.ascontiguousarray(sq.T).tobytes()


class TestNonFinite:
    X = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]])
    y = np.array([0.3, -0.2, 0.8])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["inputs", "targets", "noise_var"])
    def test_raises_value_error(self, where, bad):
        X, y, noise_var = self.X.copy(), self.y.copy(), 0.01
        if where == "inputs":
            X[1, 0] = bad
        elif where == "targets":
            y[2] = bad
        else:
            noise_var = bad
        # inf - inf warns on the way to the check, as it did through scipy's
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                fit(X, y, 1.0, 1.0, noise_var)
            with pytest.raises(ValueError):
                optimize_hyperparams(X, y, noise_var)

    def test_negative_noise_fails_every_candidate(self):
        # below -sigma_f**2 for every grid sigma, so no jitter can rescue it
        with pytest.raises(np.linalg.LinAlgError):
            fit(self.X, self.y, 1.0, 1.0, -1e3)
        with pytest.raises(np.linalg.LinAlgError):
            optimize_hyperparams(self.X, self.y, -1e3)


class TestKernel:
    def test_same_point(self):
        x = np.array([[1.0, 2.0]])
        assert kernel_matrix(x, x, sigma_f=1.7, length_scale=0.3)[0, 0] == pytest.approx(1.7**2)

    def test_far_apart_vanishes(self):
        assert kernel_matrix(np.array([[0.0]]), np.array([[100.0]]), 1.0, 1.0)[0, 0] < 1e-300

    def test_unit_distance(self):
        got = kernel_matrix(np.array([[0.0]]), np.array([[1.0]]), 1.0, 1.0)[0, 0]
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        assert kernel_matrix(a, b, 1.2, 0.7)[0, 0] == pytest.approx(kernel_matrix(b, a, 1.2, 0.7)[0, 0], abs=1e-15)

    def test_gram_matrix_symmetric(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        K = kernel_matrix(X, X, 1.0, 1.0)
        assert np.max(np.abs(K - K.T)) < 1e-12


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


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True, timeout=60)


def test_scipy_is_imported_only_when_a_gp_is_fitted():
    # runs that never fit a GP (sdae, midae, validate, replay) skip its import
    run_python(
        "import sys, adaptdae.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "from adaptdae.gp import fit\n"
        "fit([[0.0], [1.0]], [0.0, 1.0])\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules\n"
    )


TINY_RADAE = """policy = radae
stream.batches = 12
stream.batch_size = 20
stream.dims = 6
stream.per_class = 30
nn.widths = 8
rl.warmup_batches = 3
rl.greedy_after = 6
rl.refit_interval = 2
"""

# the same LAPACK calls on pickled (matrix, right-hand side) pairs, run on the
# `lapack` module bound by the line put in front, in a fresh process
LAPACK_CALLS = """
import pickle, sys
with open(sys.argv[1], "rb") as f:
    problems = pickle.load(f)
out = []
for A, b in problems:
    L, info = lapack.dpotrf(A, lower=1, clean=1)
    out.append((L, info, lapack.dpotrs(L, b, lower=1)[0] if info == 0 else None))
with open(sys.argv[2], "wb") as f:
    pickle.dump(out, f)
"""


class TestLapackLoader:
    def test_a_radae_run_fits_without_importing_the_scipy_package(self):
        run_python(
            "import sys\n"
            "from adaptdae.config import parse_config\n"
            "from adaptdae.harness import run_experiment\n"
            f"run_experiment(parse_config({TINY_RADAE!r}), out_path='')\n"
            "assert 'scipy.linalg._flapack' in sys.modules\n"
            "assert 'scipy' not in sys.modules and 'scipy.linalg' not in sys.modules\n"
        )

    def test_loaded_routines_give_the_bytes_of_scipys(self, tmp_path):
        rng = np.random.default_rng(13)
        problems = []
        for n in (1, 2, 7, 30, 80):
            B = rng.normal(size=(n, n))
            problems.append((B @ B.T + 1e-3 * np.eye(n), rng.normal(size=n)))
        # a Gram matrix that factorises only from the fourth jitter on
        X = np.linspace(0.0, 1.0, 30)[:, None]
        K = kernel_matrix(X, X, 1.0, 1.0)
        y = np.sin(3.0 * X[:, 0])
        assert fit(X, y, 1.0, 1.0, -5e-8).jitter == JITTERS[3]
        problems += [(K + (jitter - 5e-8) * np.eye(30), y) for jitter in JITTERS]
        with open(tmp_path / "problems.pkl", "wb") as f:
            pickle.dump(problems, f)
        outputs = []
        for side, binding in (
            ("loader", "from adaptdae.gp import _flapack\nlapack = _flapack()\n"),
            ("scipy", "from scipy.linalg import lapack\n"),
        ):
            check = "assert 'scipy.linalg' not in sys.modules\n" if side == "loader" else ""
            run_python(binding + LAPACK_CALLS + check, str(tmp_path / "problems.pkl"), str(tmp_path / side))
            with open(tmp_path / side, "rb") as f:
                outputs.append(f.read())
        infos = [info for _, info, _ in pickle.loads(outputs[0])]
        assert [info > 0 for info in infos] == [False] * 5 + [True] * 3 + [False] * 2
        assert outputs[0] == outputs[1]

    def test_an_imported_scipy_linalg_shares_the_loaded_module(self):
        run_python(
            "import scipy.linalg.lapack\n"
            "from adaptdae import gp\n"
            "assert gp._flapack() is scipy.linalg.lapack._flapack\n"
        )
        run_python(
            "from adaptdae import gp\n"
            "module = gp._flapack()\n"
            "import scipy.linalg.lapack\n"
            "assert scipy.linalg.lapack._flapack is module\n"
            "assert scipy.linalg.lapack.dpotrf is module.dpotrf\n"
        )

    @pytest.mark.parametrize("missing", ["scipy", "the extension"])
    def test_missing_lapack_raises_an_import_error_naming_scipy(self, missing, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        if missing == "scipy":
            monkeypatch.setitem(sys.modules, "scipy", None)  # what find_spec reads as not installed
        else:
            empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            empty.submodule_search_locations = [str(tmp_path)]
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
        with pytest.raises(ImportError, match="scipy"):
            gp._flapack.__wrapped__()


@pytest.mark.parametrize("initial", ["grid winner", "grid point", "off the grid"])
def test_an_initial_on_the_grid_is_solved_once(initial, monkeypatch):
    rng = np.random.default_rng(21)
    X, y = rng.normal(size=(25, 3)), rng.normal(size=25)
    start = {
        "grid winner": reference_search(X, y, 0.2, (1.0, 1.0)),
        "grid point": (float(SIGMA_GRID[1]), float(LENGTH_GRID[5])),
        "off the grid": (1.0, 1.0),
    }[initial]
    expected = reference_search(X, y, 0.2, start)
    lapack = gp._flapack()
    infos = []

    def dpotrf(*args, **kwargs):
        L, info = lapack.dpotrf(*args, **kwargs)
        infos.append(info)
        return L, info

    monkeypatch.setattr(gp, "_flapack", lambda: types.SimpleNamespace(dpotrf=dpotrf, dpotrs=lapack.dpotrs))
    assert optimize_hyperparams(X, y, 0.2, start) == expected
    # at this noise every candidate factorises at the first jitter: one call each
    assert infos == [0] * (50 if initial == "off the grid" else 49)
