"""Logit IRLS and elastic-net coordinate descent."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import with_blas_threads
from rarepred.dataset import Dataset, Feature
from rarepred.linear import (
    _TSQR_ROWS,
    _tsqr_lstsq,
    fit_elastic_net,
    fit_logit,
    predict_proba,
)
from rarepred.rng import generator


def array_dataset(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    names = names or [f"x{j}" for j in range(X.shape[1])]
    return Dataset(
        features=tuple(Feature(n, "continuous") for n in names),
        values=X,
        labels={"y": np.asarray(y, dtype=np.int64)},
    )


def logistic_sample(seed, n, coefs, intercept):
    rng = generator(seed)
    X = rng.normal(size=(n, len(coefs)))
    eta = intercept + X @ np.asarray(coefs)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    return array_dataset(X, y)


class TestLogit:
    def test_grouped_binary_exact_mle(self):
        # x=0: 10/30 positive, x=1: 30/40 positive; the MLE is closed-form
        x = np.array([0.0] * 30 + [1.0] * 40).reshape(-1, 1)
        y = np.array([1] * 10 + [0] * 20 + [1] * 30 + [0] * 10)
        model = fit_logit(array_dataset(x, y), "y")
        assert model.converged
        assert abs(model.intercept - math.log(0.5)) < 1e-6
        assert abs(model.coef[0] - math.log(6.0)) < 1e-6

    def test_intercept_only_structure(self):
        # zero-variance feature: slope must not move the fit
        x = np.ones((50, 1))
        y = np.array([1] * 10 + [0] * 40)
        model = fit_logit(array_dataset(x, y), "y")
        ds = array_dataset(x, y)
        p = predict_proba(model, ds)
        np.testing.assert_allclose(p, 0.2, atol=1e-8)

    def test_coefficient_recovery(self):
        ds = logistic_sample(42, 20000, [1.5, -2.0, 0.0], 0.3)
        model = fit_logit(ds, "y")
        assert model.converged
        np.testing.assert_allclose(model.coef, [1.5, -2.0, 0.0], atol=0.1)
        assert abs(model.intercept - 0.3) < 0.1

    def test_quasi_separation_flagged(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_logit(array_dataset(x, y), "y")
        assert model.quasi_separated
        assert not model.converged

    def test_loglik_matches_manual(self):
        ds = logistic_sample(7, 300, [0.8], -0.5)
        model = fit_logit(ds, "y")
        p = predict_proba(model, ds)
        y = ds.label("y")
        manual = float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
        assert abs(model.loglik - manual) < 1e-6

    def test_model_bytes_same_at_one_and_two_blas_threads(self):
        # 80k rows: enough for a row reduction left to the BLAS thread pool
        # to change the coefficient bits between 1 and 2 threads
        script = (
            "import hashlib\n"
            "from rarepred.benchmarks import rare_linear_spec\n"
            "from rarepred.dataset import synth_generate\n"
            "from rarepred.linear import fit_logit\n"
            "from rarepred.serialize import model_to_text\n"
            "ds = synth_generate(rare_linear_spec(n=80000, seed=7))\n"
            "text = model_to_text(fit_logit(ds, 'outcome'))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        digests = []
        for threads in (1, 2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=with_blas_threads(threads),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_feature_subset_and_name_lookup(self):
        ds = logistic_sample(3, 500, [1.0, -1.0], 0.0)
        model = fit_logit(ds, "y", features=["x1"])
        assert model.feature_names == ("x1",)
        # prediction looks the feature up by name even in reordered data
        swapped = Dataset(features=ds.features[::-1], values=ds.values[:, ::-1], labels=ds.labels)
        np.testing.assert_allclose(
            predict_proba(model, ds), predict_proba(model, swapped)
        )


def tsqr_lstsq_oracle(M, b):
    """``linear._tsqr_lstsq`` as it was, on the whole weighted design ``M`` and
    response ``b``: the oracle for the solve that weights one block at a time."""
    n, k = M.shape
    Mb = np.column_stack([M, b])
    R = np.zeros((0, k + 1))
    for start in range(0, n, _TSQR_ROWS):
        R = np.linalg.qr(np.vstack([R, Mb[start : start + _TSQR_ROWS]]), mode="r")
    rcond = np.finfo(np.float64).eps * max(n, k)
    return np.linalg.lstsq(R[:k, :k], R[:k, k], rcond=rcond)[0]


class TestTsqrOracle:
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 5000])
    def test_blockwise_weighting_matches_whole_matrix(self, n):
        rng = generator(60 + n)
        x = rng.normal(size=(n, 2))
        # intercept, two features, a collinear copy and a constant column
        A = np.column_stack([np.ones(n), x, 2.0 * x[:, 0] - x[:, 1], np.full(n, 3.0)])
        z = rng.normal(size=n)
        sw = np.sqrt(rng.random(n) * 0.25)
        sw[rng.random(n) < 0.1] = 0.0
        got = _tsqr_lstsq(A, z, sw)
        want = tsqr_lstsq_oracle(A * sw[:, None], z * sw)
        assert got.tobytes() == want.tobytes()


class TestElasticNet:
    def test_lam_zero_matches_logit(self):
        ds = logistic_sample(11, 600, [1.0, -0.7], 0.2)
        logit = fit_logit(ds, "y")
        enet = fit_elastic_net(ds, "y", lam=0.0, alpha=0.5)
        assert enet.converged
        assert np.max(np.abs(enet.coef - logit.coef)) < 1e-4
        assert abs(enet.intercept - logit.intercept) < 1e-4

    def test_objective_path_monotone(self):
        ds = logistic_sample(5, 400, [1.2, -0.4, 0.6], -0.3)
        for lam, alpha in [(0.0, 0.0), (0.05, 0.0), (0.05, 1.0), (0.02, 0.4)]:
            model = fit_elastic_net(ds, "y", lam=lam, alpha=alpha)
            path = np.array(model.objective_path)
            assert np.all(np.diff(path) <= 1e-12)

    def test_lasso_end_gives_exact_zeros(self):
        ds = logistic_sample(13, 800, [2.0, 0.1, 0.0], 0.0)
        model = fit_elastic_net(ds, "y", lam=0.08, alpha=0.0)
        assert model.coef[0] != 0.0
        assert model.coef[2] == 0.0

    def test_lasso_support_nested_in_lam(self):
        ds = logistic_sample(17, 1200, [2.0, -1.0, 0.4, 0.0], 0.1)
        supports = []
        for lam in (0.001, 0.01, 0.05, 0.2, 0.6):
            model = fit_elastic_net(ds, "y", lam=lam, alpha=0.0)
            supports.append(frozenset(np.flatnonzero(model.coef != 0.0)))
        for smaller_lam, larger_lam in zip(supports, supports[1:]):
            assert larger_lam <= smaller_lam

    def test_ridge_end_shrinks_without_zeros(self):
        ds = logistic_sample(19, 800, [1.5, -1.0, 0.5], 0.0)
        norms = []
        for lam in (0.01, 0.1, 1.0):
            model = fit_elastic_net(ds, "y", lam=lam, alpha=1.0)
            assert np.all(model.coef != 0.0)
            norms.append(float(np.linalg.norm(model.coef)))
        assert norms[0] > norms[1] > norms[2]

    def test_constant_feature_pinned_zero(self):
        rng = generator(23)
        X = np.column_stack([rng.normal(size=200), np.full(200, 3.0)])
        y = (rng.random(200) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(np.int64)
        model = fit_elastic_net(array_dataset(X, y), "y", lam=0.01, alpha=0.0)
        assert model.coef[1] == 0.0

    def test_intercept_unpenalized(self):
        # a strong base rate must survive heavy penalty: coefs die, intercept stays
        rng = generator(29)
        X = rng.normal(size=(500, 2))
        y = (rng.random(500) < 0.9).astype(np.int64)
        model = fit_elastic_net(array_dataset(X, y), "y", lam=5.0, alpha=0.0)
        np.testing.assert_array_equal(model.coef, 0.0)
        ybar = y.mean()
        assert abs(model.intercept - math.log(ybar / (1 - ybar))) < 1e-3

    def test_sweep_cap_reports_not_converged(self):
        ds = logistic_sample(31, 300, [1.0, -1.0], 0.0)
        model = fit_elastic_net(ds, "y", lam=0.0, alpha=0.0, max_sweeps=1)
        assert not model.converged
        assert model.n_sweeps == 1

    def test_input_scale_reporting(self):
        # scaling a feature by c must scale its coefficient by 1/c at lam=0
        ds = logistic_sample(37, 900, [0.8, -0.5], 0.1)
        scaled_values = ds.values.copy()
        scaled_values[:, 0] *= 10.0
        ds_scaled = array_dataset(scaled_values, ds.label("y"))
        a = fit_elastic_net(ds, "y", lam=0.0, alpha=0.5)
        b = fit_elastic_net(ds_scaled, "y", lam=0.0, alpha=0.5)
        assert abs(b.coef[0] - a.coef[0] / 10.0) < 1e-4
        assert abs(b.coef[1] - a.coef[1]) < 1e-4

    def test_predict_proba_manual(self):
        model = fit_elastic_net(
            logistic_sample(41, 300, [1.0], 0.0), "y", lam=0.01, alpha=1.0
        )
        ds = logistic_sample(43, 5, [1.0], 0.0)
        p = predict_proba(model, ds)
        eta = model.intercept + ds.values[:, 0] * model.coef[0]
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-eta)))
        assert np.all((p > 0) & (p < 1))
