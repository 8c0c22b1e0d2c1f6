"""Pseudo-outcome regression for adaptively collected randomized data.

The chronological stream (x_t, t_t, y_t, p_t) is converted to inverse
propensity pseudo-outcomes and fit by ridge / OLS in a fixed
feature space, with the self-normalized confidence width and a sandwich
variance estimate for asymptotic intervals. A fit is one frozen RidgeSolution
holding lambda once, for V and for the width's det(lambda I) alike. Everything
here reads phi rows: a fit predicts <theta_hat, phi>, and callers map x once.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

MAX_CONDITION = 1e12
SOLVE_RTOL = 1e-10


class SingularDesignError(np.linalg.LinAlgError):
    """lambda = 0 requested with a rank-deficient information matrix."""


def pseudo_outcome_values(ts, ys, ps):
    """Y~ = t y / p - (1 - t) y / (1 - p) per unit; unbiased CATE labels."""
    ts = np.asarray(ts)
    ys = np.asarray(ys, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if np.any((ps <= 0.0) | (ps >= 1.0)):
        raise ValueError("assignment probability outside (0, 1)")
    return np.where(ts == 1, ys / ps, -ys / (1.0 - ps))


@dataclass(frozen=True, eq=False)
class RidgeSolution:
    """theta_hat, the information matrix V = lam I + sum_t phi_t phi_t^T
    over n rows, and lam; theta_hat and V are read-only copies."""

    theta_hat: np.ndarray
    V: np.ndarray
    lam: float
    n: int

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError("lambda must be nonnegative")
        for name in ("theta_hat", "V"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ConfidenceParams:
    sigma: float
    S: float
    delta: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


def default_sigma(bounds):
    """Sub-Gaussian scale 2 L_p implied by the propensity bounds."""
    return 2.0 * bounds.pseudo_outcome_bound


def fit_ridge_arrays(phis, yts, lam):
    """Solve (lambda I + sum phi phi^T) theta = sum phi Y~."""
    dim = phis.shape[1]
    # The copy keeps the general matrix product: phis.T @ phis itself takes
    # BLAS's symmetric rank-k path, which rounds differently in the last bits.
    V = lam * np.eye(dim) + phis.T @ phis.copy()
    b = (phis * yts[:, None]).sum(axis=0)
    if lam == 0.0:
        cond = np.linalg.cond(V) if len(phis) else np.inf
        if not np.isfinite(cond) or cond > MAX_CONDITION:
            rank = np.linalg.matrix_rank(V) if len(phis) else 0
            raise SingularDesignError(
                f"lambda = 0 with singular design: rank {rank} < {dim}"
            )
    theta = np.linalg.solve(V, b)
    resid = np.linalg.norm(V @ theta - b) / (1.0 + np.linalg.norm(b))
    if resid > SOLVE_RTOL:
        theta, *_ = np.linalg.lstsq(V, b, rcond=None)
    return RidgeSolution(theta_hat=theta, V=V, lam=lam, n=len(phis))


# ---------------------------------------------------------------------------
# Finite-sample confidence machinery


def beta_bound(params, solution):
    """sigma sqrt(2 log(det(V)^1/2 / (det(lambda I)^1/2 delta))) + sqrt(lambda) S,
    with the solution's V and the lambda that V was built with."""
    lam = solution.lam
    if lam <= 0:
        raise ValueError("the determinant-ratio bound requires lambda > 0")
    dim = solution.V.shape[0]
    sign, logdet = np.linalg.slogdet(solution.V)
    if sign <= 0:
        raise np.linalg.LinAlgError("information matrix is not positive definite")
    log_ratio = 0.5 * logdet - 0.5 * dim * np.log(lam) - np.log(params.delta)
    return params.sigma * np.sqrt(2.0 * log_ratio) + np.sqrt(lam) * params.S


def confidence_width(solution, params, phi):
    """Half-width beta * sqrt(phi^T V^-1 phi) of the pointwise CATE bound."""
    beta = beta_bound(params, solution)
    lev = float(phi @ np.linalg.solve(solution.V, phi))
    return beta * np.sqrt(max(lev, 0.0))


def ellipsoid_radius(solution, theta_star):
    """||theta_hat - theta*||_V, the self-normalized deviation."""
    diff = solution.theta_hat - np.asarray(theta_star)
    return float(np.sqrt(diff @ solution.V @ diff))


@dataclass(frozen=True)
class SandwichEstimate:
    sigma_hat: np.ndarray
    omega_hat: np.ndarray
    avar: np.ndarray


def sandwich_from_arrays(phis, yts, solution):
    """Plug-in Sigma^-1 Omega Sigma^-1 from the fitted residuals."""
    n = len(phis)
    dim = phis.shape[1]
    if n < dim:
        raise ValueError(f"need at least d = {dim} records, got {n}")
    sigma_hat = phis.T @ phis / n
    if np.linalg.cond(sigma_hat) > MAX_CONDITION:
        raise np.linalg.LinAlgError("normalized information matrix is singular")
    resid = yts - phis @ solution.theta_hat
    omega_hat = (phis * (resid**2)[:, None]).T @ phis / n
    sigma_inv = np.linalg.inv(sigma_hat)
    avar = sigma_inv @ omega_hat @ sigma_inv
    return SandwichEstimate(sigma_hat=sigma_hat, omega_hat=omega_hat, avar=avar)


def pointwise_ci(solution, sandwich, phi, level, n):
    """<theta_hat, phi> +- z sqrt(phi^T avar phi / B)."""
    center = float(phi @ solution.theta_hat)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(max(float(phi @ sandwich.avar @ phi), 0.0) / n)
    return center - half, center + half


# ---------------------------------------------------------------------------
# Serialization (solution.json)


def solution_to_json(solution):
    return {
        "theta_hat": list(map(float, solution.theta_hat)),
        "lambda": solution.lam,
        "n": solution.n,
        "V": solution.V.ravel().tolist(),
    }


def solution_from_json(doc):
    dim = len(doc["theta_hat"])
    return RidgeSolution(theta_hat=doc["theta_hat"], lam=doc["lambda"], n=doc["n"],
                         V=np.reshape(doc["V"], (dim, dim)))
