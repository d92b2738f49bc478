"""Reference computations for the benchmark, made apart from gatedq.

Nothing here imports gatedq.  Each function rebuilds a quantity that
gatedq computes, by a different route:

* KernelFixedPoint iterates the stage-length kernel
  q(x, y) = (lam x exp(-lam x Gbar(y)) + exp(-lam x)) g(y)
  on a composite Gauss-Legendre grid.  It yields the stationary density of
  the active phase, beta_1, E[K] = lam beta_1 + E[exp(-lam Y)], and the
  M/G customers-per-stage pmf by integrating Poisson weights against the
  density.
* gi_poisson_chain builds the GI/M customers-per-stage chain for Poisson
  arrivals from P_ij = E[Poisson(lam M_i; j - 1)], where M_i is the maximum
  of i exponential services, by quadrature over the law of M_i.
* gi_deterministic_chain builds the exact chain for deterministic
  spacing c: P_ij = F_i(j c) - F_i((j - 1) c), F_i(t) = (1 - exp(-mu t))^i.
* stationary_law solves pi = pi P on the truncated state space.

Service laws are given as (pdf, sf, y_max) with numpy-vectorised pdf and
sf and a support end y_max beyond which the law has no mass worth keeping.
"""

from __future__ import annotations

import math

import numpy as np

GL_NODES = 24


def gauss_panels(lo: float, hi: float, panels: int, nodes: int = GL_NODES):
    """Nodes and weights of composite Gauss-Legendre on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


def exponential_law(mu: float):
    return (lambda y: mu * np.exp(-mu * y),
            lambda y: np.exp(-mu * y),
            45.0 / mu)


def erlang2_law(rate: float):
    return (lambda y: rate * rate * y * np.exp(-rate * y),
            lambda y: (1.0 + rate * y) * np.exp(-rate * y),
            50.0 / rate)


def uniform_law(b: float):
    return (lambda y: np.where(np.asarray(y) <= b, 1.0 / b, 0.0),
            lambda y: np.clip(1.0 - np.asarray(y, dtype=float) / b, 0.0, 1.0),
            b)


def kernel(lam: float, law, x, y):
    """q(x, y) for arrays x (rows) and y (columns)."""
    pdf, sf, _ = law
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[None, :]
    return (lam * x * np.exp(-lam * x * sf(y)) + np.exp(-lam * x)) * pdf(y)


def poisson_weights(mean, counts):
    """Poisson(mean; n) for an array of means (rows) and counts (columns)."""
    mean = np.asarray(mean, dtype=float)[:, None]
    n = np.asarray(counts)[None, :]
    with np.errstate(divide="ignore"):
        logw = n * np.log(mean) - mean - np.vectorize(math.lgamma)(n + 1.0)
    return np.where(n == 0, np.exp(-mean), np.exp(logw))


class KernelFixedPoint:
    """Stationary active-phase density of the gated M/G/inf chain.

    f <- integral f(x) q(x, .) dx is iterated from f = g until the sup-norm
    change falls below tol, renormalising the mass to one after each sweep.
    Values between grid nodes come from one more application of the kernel
    (Nystrom interpolation), which is as accurate as the grid itself.
    """

    def __init__(self, lam: float, law, panels: int = 16, tol: float = 1e-15,
                 max_iter: int = 5000):
        self.lam = lam
        self.law = law
        self.y, self.w = gauss_panels(0.0, law[2], panels)
        q = kernel(lam, law, self.y, self.y)
        f = law[0](self.y)
        f = f / (f @ self.w)
        for it in range(1, max_iter + 1):
            nxt = (f * self.w) @ q
            nxt = nxt / (nxt @ self.w)
            change = float(np.abs(nxt - f).max())
            f = nxt
            if change < tol * max(1.0, float(f.max())):
                break
        else:
            raise RuntimeError(f"kernel fixed point did not settle: {change}")
        self.f = f
        self.iterations = it

    def density(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (self.f * self.w) @ kernel(self.lam, self.law, self.y, t)

    @property
    def beta1(self) -> float:
        return float((self.f * self.w) @ self.y)

    @property
    def mean_k(self) -> float:
        return self.lam * self.beta1 + float(
            (self.f * self.w) @ np.exp(-self.lam * self.y))

    def pmf(self, k: int) -> float:
        lam_y = self.lam * self.y
        if k == 1:
            weight = (1.0 + lam_y) * np.exp(-lam_y)
        else:
            weight = poisson_weights(lam_y, [k])[:, 0]
        return float((self.f * self.w) @ weight)


def gi_poisson_chain(arrival_rate: float, mu: float, n_states: int = 60):
    """P[i-1, j-1] = E[Poisson(arrival_rate M_i; j-1)], by quadrature.

    M_i, the maximum of i Exp(mu) services, has density
    i mu exp(-mu t) (1 - exp(-mu t))^(i-1); its tail is below i exp(-mu t),
    so the grid stops where that bound is negligible for i = n_states.
    """
    t_max = (math.log(n_states) + 45.0) / mu
    t, w = gauss_panels(0.0, t_max, 48)
    i = np.arange(1, n_states + 1)[:, None]
    e = np.exp(-mu * t)[None, :]
    dens = i * mu * e * (1.0 - e) ** (i - 1)
    pois = poisson_weights(arrival_rate * t, np.arange(n_states))
    return (dens * w[None, :]) @ pois


def gi_deterministic_chain(c: float, mu: float, n_states: int = 60):
    """Exact chain for deterministic spacing c and Exp(mu) services."""
    i = np.arange(1, n_states + 1)[:, None]
    j = np.arange(1, n_states + 1)[None, :]
    return ((-np.expm1(-mu * j * c)) ** i
            - (-np.expm1(-mu * (j - 1) * c)) ** i)


def stationary_law(p: np.ndarray) -> np.ndarray:
    """pi with pi P = pi, sum pi = 1, on the truncated states 1..n.

    Mass a row sends past state n (negligible at the loads used) is
    folded back into that row's last column so the truncation stays
    stochastic.
    """
    p = p.copy()
    p[:, -1] += 1.0 - p.sum(axis=1)
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)
