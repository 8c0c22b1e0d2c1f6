"""Pseudo-outcome regression for adaptively collected randomized data.

The chronological stream (x_t, t_t, y_t, p_t) is converted to inverse
propensity pseudo-outcomes and fit by ridge / OLS in a fixed feature space,
with the self-normalized confidence width and the sandwich covariance that
the CLT audit standardizes by. A fit is one frozen RidgeSolution
holding lambda once, for V and for the width's det(lambda I) alike. Everything
here reads phi rows: a fit predicts <theta_hat, phi>, and callers map x once.
"""

from dataclasses import dataclass

import numpy as np

from .core import finite_numbers
from .envs import known_keys

MAX_CONDITION = 1e12


class SingularDesignError(np.linalg.LinAlgError):
    """lambda = 0 requested with a rank-deficient information matrix."""


def pseudo_outcome_values(ts, ys, ps):
    """Y~ = t y / p - (1 - t) y / (1 - p) per unit; unbiased CATE labels."""
    ts = np.asarray(ts)
    ys = np.asarray(ys, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if not np.all((ps > 0.0) & (ps < 1.0)):  # NaN fails both
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


def default_sigma(bounds):
    """Sub-Gaussian scale 2 L_p implied by the propensity bounds."""
    return 2.0 * bounds.pseudo_outcome_bound


def fit_ridge_arrays(phis, yts, lam):
    """Solve (lambda I + sum phi phi^T) theta = sum phi Y~; at lambda = 0 a
    design whose condition number exceeds MAX_CONDITION is a SingularDesignError."""
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
    return RidgeSolution(theta_hat=np.linalg.solve(V, b), V=V, lam=lam, n=len(phis))


# ---------------------------------------------------------------------------
# Finite-sample confidence machinery


def beta_bound(solution, sigma, S, delta):
    """sigma sqrt(2 log(det(V)^1/2 / (det(lambda I)^1/2 delta))) + sqrt(lambda) S,
    a float, with the solution's V and the lambda that V was built with.
    ValueError unless sigma > 0, 0 < delta < 1 (NaN fails both) and lambda > 0;
    LinAlgError unless V is positive definite."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    lam = solution.lam
    if lam <= 0:
        raise ValueError("the determinant-ratio bound requires lambda > 0")
    dim = solution.V.shape[0]
    sign, logdet = np.linalg.slogdet(solution.V)
    if sign <= 0:
        raise np.linalg.LinAlgError("information matrix is not positive definite")
    log_ratio = 0.5 * logdet - 0.5 * dim * np.log(lam) - np.log(delta)
    return sigma * np.sqrt(2.0 * log_ratio) + np.sqrt(lam) * S


def pool_leverage(solution, phis):
    """phi^T V^-1 phi per row of phis, from one d x d inverse of the solution's V;
    the paper's pointwise width is beta * sqrt(pool_leverage)."""
    return np.einsum("ij,ij->i", phis @ np.linalg.inv(solution.V), phis)


def ellipsoid_radius(solution, theta_star):
    """||theta_hat - theta*||_V, the self-normalized deviation."""
    diff = solution.theta_hat - np.asarray(theta_star)
    return float(np.sqrt(diff @ solution.V @ diff))


def sandwich_from_arrays(phis, yts, solution):
    """The plug-in asymptotic covariance Sigma^-1 Omega Sigma^-1, a d x d array,
    with Sigma = sum phi phi^T / n and Omega = sum r^2 phi phi^T / n over the n
    rows and their residuals r = Y~ - <theta_hat, phi>. ValueError for n < d;
    LinAlgError when Sigma's condition number exceeds MAX_CONDITION."""
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
    return sigma_inv @ omega_hat @ sigma_inv


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
    """The RidgeSolution of a solution.json document: theta_hat (d numbers),
    lambda, n (a nonnegative integer) and V (d x d numbers, row by row), and
    no other key. Every error names solution.json."""
    doc = known_keys(finite_numbers(doc, "solution.json"), "solution.json",
                     "theta_hat", "lambda", "n", "V")
    theta_hat, V, n = doc["theta_hat"], doc["V"], doc["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"solution.json n must be a nonnegative integer, got {n!r}")
    if type(theta_hat) is not list or type(V) is not list or len(V) != len(theta_hat)**2:
        raise ValueError("solution.json V must be a list of d x d numbers, d the length "
                         "of the list theta_hat")
    try:
        return RidgeSolution(theta_hat=theta_hat, lam=doc["lambda"], n=n,
                             V=np.reshape(V, (len(theta_hat),) * 2))
    except ValueError as e:
        raise ValueError(f"solution.json: {e}") from None
