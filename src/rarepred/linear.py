"""Logistic regression by IRLS and elastic-net logistic regression by
cyclic coordinate descent.

Penalty convention
------------------
``penalty(beta, lam, alpha) = lam * sum((1 - alpha) * |b| + alpha * b**2)``.
The mixing parameter is therefore REVERSED relative to the common glmnet
convention: ``alpha = 0`` is the pure L1 (lasso) end with exact zeros, and
``alpha = 1`` is the pure L2 (ridge) end that shrinks without zeroing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError

__all__ = [
    "LogitModel",
    "ElasticNetModel",
    "penalty",
    "fit_logit",
    "fit_elastic_net",
    "predict_proba",
]


def penalty(beta: np.ndarray, lam: float, alpha: float) -> float:
    """Mixed penalty lam * sum((1-alpha)|b| + alpha*b^2) over coefficients."""
    if lam < 0:
        raise DatasetError("lam must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise DatasetError("alpha must lie in [0, 1]")
    b = np.asarray(beta, dtype=np.float64)
    return float(lam * np.sum((1.0 - alpha) * np.abs(b) + alpha * b * b))


@dataclass
class LogitModel:
    """Unpenalized logistic fit. Coefficients are on the input scale."""

    feature_names: tuple[str, ...]
    intercept: float
    coef: np.ndarray
    feature_scales: np.ndarray
    converged: bool
    n_iter: int
    loglik: float
    quasi_separated: bool = False


@dataclass
class ElasticNetModel:
    """Penalized logistic fit; the penalty applies on the standardized scale.

    ``objective_path`` holds the internal objective after each full sweep,
    which is non-increasing by construction (each coordinate update is
    backtracked against the true objective).
    """

    feature_names: tuple[str, ...]
    intercept: float
    coef: np.ndarray
    feature_scales: np.ndarray
    lam: float
    alpha: float
    converged: bool
    n_sweeps: int
    objective_path: list[float] = field(default_factory=list)


def _design(ds: Dataset, label: str, features: list[str] | tuple[str, ...] | None):
    names, X = ds.columns(features)
    y = ds.label(label).astype(np.float64)
    if X.shape[0] < 2:
        raise DatasetError("need at least 2 rows to fit")
    return names, X, y


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _column_sds(X: np.ndarray) -> np.ndarray:
    return X.std(axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])


def fit_logit(
    ds: Dataset,
    label: str,
    features: list[str] | tuple[str, ...] | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LogitModel:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares.

    Convergence is declared when the log-likelihood moves by less than
    ``tol`` between iterations. Quasi-separated fits (fitted log-odds
    running away, probabilities pinned at 0/1) are returned with
    ``converged=False`` and ``quasi_separated=True`` rather than raised:
    on rare-outcome data near-separation is a finding, not a crash.
    """
    names, X, y = _design(ds, label, features)
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X])
    beta = np.zeros(A.shape[1])
    eta = A @ beta
    loglik = float(np.sum(y * eta - _log1pexp(eta)))
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        p = _sigmoid(eta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        z = eta + (y - p) / w
        sw = np.sqrt(w)
        # solve the weighted least-squares step; lstsq tolerates collinear
        # and constant columns (minimum-norm solution zeroes the slack)
        beta, *_ = np.linalg.lstsq(A * sw[:, None], z * sw, rcond=None)
        eta = A @ beta
        new_loglik = float(np.sum(y * eta - _log1pexp(eta)))
        done = abs(new_loglik - loglik) < tol
        loglik = new_loglik
        if done:
            converged = True
            break
    separated = bool(np.max(np.abs(eta)) > 30.0)
    return LogitModel(
        feature_names=names,
        intercept=float(beta[0]),
        coef=beta[1:].copy(),
        feature_scales=_column_sds(X),
        converged=converged and not separated,
        n_iter=n_iter,
        loglik=loglik,
        quasi_separated=separated,
    )


def fit_elastic_net(
    ds: Dataset,
    label: str,
    lam: float,
    alpha: float,
    features: list[str] | tuple[str, ...] | None = None,
    tol: float = 1e-6,
    max_sweeps: int = 10000,
) -> ElasticNetModel:
    """Penalized logistic regression by cyclic coordinate descent.

    Features are standardized internally (mean 0, sd 1 with n-1); the
    penalty applies to the standardized-scale coefficients and the
    intercept is never penalized. Each coordinate takes a proximal Newton
    step (soft-thresholding absorbs the L1 part) and backtracks until the
    true objective does not increase, so the per-sweep objective path is
    monotone. Reported coefficients are mapped back to the input scale.
    Convergence: largest standardized-coefficient change in a sweep below
    ``tol``.
    """
    if lam < 0:
        raise DatasetError("lam must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise DatasetError("alpha must lie in [0, 1]")
    names, X, y = _design(ds, label, features)
    n, k = X.shape
    means = X.mean(axis=0)
    sds = _column_sds(X)
    live = sds > 0.0  # constant columns carry no information, pin to 0
    scale = np.where(live, sds, 1.0)
    Z = (X - means) / scale

    l1 = lam * (1.0 - alpha)
    l2 = lam * alpha

    beta = np.zeros(k)
    ybar = float(y.mean())
    b0 = math.log(ybar / (1.0 - ybar)) if 0.0 < ybar < 1.0 else 0.0
    eta = np.full(n, b0)  # invariant: eta == b0 + Z @ beta

    def objective(eta_vec: np.ndarray, coefs: np.ndarray) -> float:
        nll = float(np.sum(_log1pexp(eta_vec) - y * eta_vec)) / n
        return nll + float(l1 * np.sum(np.abs(coefs)) + l2 * np.sum(coefs * coefs))

    obj = objective(eta, beta)
    path: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0

        # unpenalized intercept, Newton step with backtracking
        p = _sigmoid(eta)
        g0 = float(np.mean(p - y))
        h0 = max(float(np.mean(p * (1.0 - p))), 1e-10)
        step = -g0 / h0
        t = 1.0
        for _ in range(60):
            cand_eta = eta + t * step
            cand_obj = objective(cand_eta, beta)
            if cand_obj <= obj:
                eta, obj = cand_eta, cand_obj
                b0 += t * step
                max_delta = max(max_delta, abs(t * step))
                break
            t *= 0.5

        for j in range(k):
            if not live[j]:
                continue
            zj = Z[:, j]
            p = _sigmoid(eta)
            g = float(np.mean((p - y) * zj)) + 2.0 * l2 * beta[j]
            h = max(float(np.mean(p * (1.0 - p) * zj * zj)) + 2.0 * l2, 1e-10)
            raw = h * beta[j] - g
            prox = math.copysign(max(abs(raw) - l1, 0.0), raw) / h
            step = prox - beta[j]
            if step == 0.0:
                continue
            t = 1.0
            for _ in range(60):
                nb = beta[j] + t * step
                cand_eta = eta + (nb - beta[j]) * zj
                cand = beta.copy()
                cand[j] = nb
                cand_obj = objective(cand_eta, cand)
                if cand_obj <= obj:
                    eta, obj = cand_eta, cand_obj
                    max_delta = max(max_delta, abs(nb - beta[j]))
                    beta[j] = nb
                    break
                t *= 0.5

        path.append(obj)
        if max_delta < tol:
            converged = True
            break

    coef_input = np.where(live, beta / scale, 0.0)
    intercept = b0 - float(np.sum(beta * means / scale))
    return ElasticNetModel(
        feature_names=names,
        intercept=intercept,
        coef=coef_input,
        feature_scales=sds,
        lam=lam,
        alpha=alpha,
        converged=converged,
        n_sweeps=sweeps,
        objective_path=path,
    )


def predict_proba(model: LogitModel | ElasticNetModel, ds: Dataset) -> np.ndarray:
    """sigmoid(intercept + x . coef) per row, matching features by name."""
    eta = model.intercept + ds.columns(model.feature_names)[1] @ model.coef
    return _sigmoid(eta)
