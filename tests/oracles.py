"""Independent oracles the tests check the library against.

Each is a closed form or a quadrature that no code in ``isograd`` runs, so a
test that compares the library with one of them compares two derivations.
"""

import math

import numpy as np

from isograd.gaussian import NormalParams
from isograd.jointbinary import CountData

#: Gauss-Legendre nodes per axis; the box spans mu +- QUADRATURE_SPAN * sigma.
QUADRATURE_NODES = 64
QUADRATURE_SPAN = 8.0


def marginal_entropy_gradient(free: np.ndarray) -> np.ndarray:
    """Closed-form entropy gradient -log(x_i / x_rest) over free coordinates."""
    free = np.asarray(free, dtype=float)
    rest = 1.0 - free.sum()
    return -np.log(free / rest)


def bivariate_normal_density(params: NormalParams, X, Y) -> np.ndarray:
    """exp(-d^T S^-1 d / 2) / (2 pi sqrt(det S)) on a mesh, from the
    covariance matrix S of ``params`` and the offsets d = (X, Y) - mu."""
    sx, sy, rho = params.sigma_x, params.sigma_y, params.rho
    cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
    d = np.stack((np.asarray(X) - params.mu_x, np.asarray(Y) - params.mu_y),
                 axis=-1)
    quad = np.einsum("...i,ij,...j->...", d, np.linalg.inv(cov), d)
    norm = 2.0 * math.pi * math.sqrt(np.linalg.det(cov))
    return np.exp(-0.5 * quad) / norm


def quadrature_expectation(params: NormalParams, f) -> float:
    """E[f(x, y)] by a tensor Gauss-Legendre rule over the quadrature box,
    weighted by :func:`bivariate_normal_density`."""
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    half_x = QUADRATURE_SPAN * params.sigma_x
    half_y = QUADRATURE_SPAN * params.sigma_y
    xs = params.mu_x + half_x * t
    ys = params.mu_y + half_y * t
    wx = w * half_x
    wy = w * half_y
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = (np.asarray(f(X, Y), dtype=float)
            * bivariate_normal_density(params, X, Y))
    return float(wx @ vals @ wy)


def log_likelihood(counts: CountData, j) -> float:
    """Multinomial log likelihood sum n_o log p_o (0 log 0 = 0)."""
    n = np.asarray(counts.counts, dtype=float)
    j = np.asarray(j, dtype=float)
    if np.any((n > 0) & (j <= 0.0)):
        return -math.inf
    with np.errstate(divide="ignore"):
        logs = np.where(n > 0, np.log(np.where(j > 0, j, 1.0)), 0.0)
    return float((n * logs).sum())
