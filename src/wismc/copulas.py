"""Bivariate copula families: evaluation, rank-based fitting and sampling.

Families shipped: independence, gaussian, clayton, gumbel and t. Boundary
identities C(u,0)=C(0,v)=0, C(u,1)=u, C(1,v)=v are returned exactly; interior
values of the gaussian and t families come from fixed-node quadrature so
evaluation is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
from scipy.special import ndtr, ndtri, roots_genlaguerre, stdtr, stdtrit

from .errors import EstimationError, ParameterError

__all__ = ["CopulaSpec", "copula_eval", "fit_copula", "sample_copula", "FAMILIES"]

FAMILIES = ("independence", "gaussian", "clayton", "gumbel", "t")

# Gauss-Legendre nodes reused by every bivariate-normal evaluation.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def _bvn_cdf(x, y, rho: float):
    """P(X <= x, Y <= y) for standard bivariate normals with correlation rho.

    Uses the identity Phi2(x,y;rho) = Phi(x)Phi(y) + (1/2pi) *
    int_0^asin(rho) exp(-(x^2 - 2xy sin(th) + y^2) / (2 cos^2(th))) dth,
    whose integrand is smooth, so fixed Gauss-Legendre nodes give near
    machine precision for |rho| < 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if rho >= 1.0:
        return ndtr(np.minimum(x, y))
    if rho <= -1.0:
        return np.maximum(ndtr(x) + ndtr(y) - 1.0, 0.0)
    base = ndtr(x) * ndtr(y)
    if rho == 0.0:
        return base
    upper = np.arcsin(rho)
    theta = 0.5 * upper * (_GL_NODES + 1.0)
    w = 0.5 * upper * _GL_WEIGHTS
    finite = np.isfinite(x) & np.isfinite(y)
    xf = np.where(finite, x, 0.0)[..., None]
    yf = np.where(finite, y, 0.0)[..., None]
    cos2 = np.cos(theta) ** 2
    integrand = np.exp(-(xf * xf - 2.0 * xf * yf * np.sin(theta) + yf * yf) / (2.0 * cos2))
    corr = (integrand * w).sum(axis=-1) / (2.0 * np.pi)
    out = base + np.where(finite, corr, 0.0)
    return np.clip(out, 0.0, 1.0)


_BVT_NODE_CACHE: dict = {}


def _bvt_cdf(x, y, rho: float, df: float):
    """Bivariate t CDF as a chi-square scale mixture of bivariate normals,
    integrated with generalized Gauss-Laguerre nodes (positive weights, so the
    result inherits 2-increasingness from the normal kernel)."""
    if df not in _BVT_NODE_CACHE:
        nodes, weights = roots_genlaguerre(64, df / 2.0 - 1.0)
        _BVT_NODE_CACHE[df] = (nodes, weights / weights.sum())
    nodes, weights = _BVT_NODE_CACHE[df]
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    scale = np.sqrt(2.0 * nodes / df)
    vals = _bvn_cdf(x * scale, y * scale, rho)
    return np.clip((vals * weights).sum(axis=-1), 0.0, 1.0)


@dataclass(frozen=True)
class CopulaSpec:
    """A fitted or hand-set copula: family name plus its parameters.

    gaussian: ``rho`` in (-1, 1); clayton: ``theta`` > 0; gumbel: ``theta``
    >= 1; t: ``rho`` in (-1, 1) and ``df`` > 0. All three parameters are
    finite, used or not. ``fitted_from`` records
    estimation metadata (sample size, Kendall tau, ...) and does not affect
    evaluation.
    """

    family: str = "independence"
    rho: float = 0.0
    theta: float = 1.0
    df: float = 4.0
    fitted_from: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown copula family {self.family!r}")
        if self.family in ("gaussian", "t") and not -1.0 < self.rho < 1.0:
            raise ParameterError("correlation parameter must lie in (-1, 1)")
        if self.family == "clayton" and self.theta <= 0:
            raise ParameterError("clayton theta must be positive")
        if self.family == "gumbel" and self.theta < 1.0:
            raise ParameterError("gumbel theta must be >= 1")
        if self.family == "t" and self.df <= 0:
            raise ParameterError("t copula needs df > 0")
        if not np.isfinite([self.rho, self.theta, self.df]).all():
            raise ParameterError("copula parameters must be finite")


def copula_eval(spec: CopulaSpec, u, v):
    """C(u, v) for the given family; exact on the unit-square boundary."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    tol = 1e-9  # tolerate accumulated rounding from cdf construction
    if np.any((u < -tol) | (u > 1 + tol) | (v < -tol) | (v > 1 + tol)):
        raise ParameterError("copula arguments must lie in [0, 1]")
    u = np.clip(u, 0.0, 1.0)
    v = np.clip(v, 0.0, 1.0)
    # copulas are 1-Lipschitz, so snapping arguments this close to the
    # boundary changes the value by at most the snap width; it keeps the
    # boundary identities exact for cdf tops carrying rounding noise
    snap = 1e-12
    u = np.where(u > 1.0 - snap, 1.0, np.where(u < snap, 0.0, u))
    v = np.where(v > 1.0 - snap, 1.0, np.where(v < snap, 0.0, v))
    u, v = np.broadcast_arrays(u, v)
    out = np.empty(u.shape)
    zero = (u == 0) | (v == 0)
    u_one = (v == 1) & ~zero
    v_one = (u == 1) & ~zero & ~u_one
    interior = ~(zero | u_one | v_one)
    out[zero] = 0.0
    out[u_one] = u[u_one]
    out[v_one] = v[v_one]
    ui, vi = u[interior], v[interior]
    if spec.family == "independence":
        out[interior] = ui * vi
    elif spec.family == "gaussian":
        out[interior] = _bvn_cdf(ndtri(ui), ndtri(vi), spec.rho)
    elif spec.family == "t":
        out[interior] = _bvt_cdf(stdtrit(spec.df, ui), stdtrit(spec.df, vi),
                                 spec.rho, spec.df)
    elif spec.family == "clayton":
        th = spec.theta
        out[interior] = (ui ** (-th) + vi ** (-th) - 1.0) ** (-1.0 / th)
    elif spec.family == "gumbel":
        th = spec.theta
        s = ((-np.log(ui)) ** th + (-np.log(vi)) ** th) ** (1.0 / th)
        out[interior] = np.exp(-s)
    if out.ndim == 0:
        return float(out)
    return out


def average_ranks(x) -> np.ndarray:
    """Ranks 1..n of a 1-d sample as float64, tied values sharing the mean
    of their ranks; all NaN when the sample holds a NaN. The same doubles as
    ``scipy.stats.rankdata(x)``."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    y = x[order]
    first = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    counts = np.diff(first, append=y.size)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat((first + 1.0) + (counts - 1.0) / 2, counts)
    if np.isnan(x).any():
        ranks[:] = np.nan
    return ranks


def fit_copula(x, y, family: str = "gaussian", df: float = 4.0) -> CopulaSpec:
    """Fit from paired samples via ranks.

    gaussian: Pearson correlation of the normal scores of the (tie-averaged)
    ranks; clayton: theta = 2 tau / (1 - tau); gumbel: theta = 1 / (1 - tau);
    t: rho = sin(pi tau / 2) with ``df`` held fixed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise EstimationError("paired samples required")
    n = x.size
    if n < 30:
        raise EstimationError("need at least 30 pairs to fit a copula")
    if np.unique(x).size < 2 or np.unique(y).size < 2:
        raise EstimationError("degenerate ranks: a margin is constant")
    meta = {"n": n}
    if family == "independence":
        return CopulaSpec(family="independence", fitted_from=meta)
    if family == "gaussian":
        zu = ndtri(average_ranks(x) / (n + 1.0))
        zv = ndtri(average_ranks(y) / (n + 1.0))
        rho = float(np.corrcoef(zu, zv)[0, 1])
        rho = min(max(rho, -1.0 + 1e-12), 1.0 - 1e-12)
        return CopulaSpec(family="gaussian", rho=rho, fitted_from=meta)
    # scipy.stats costs more than the rest of `import wismc` together, so
    # only the Kendall-tau families load it
    from scipy.stats import kendalltau

    tau = float(kendalltau(x, y).statistic)
    meta["kendall_tau"] = tau
    capped = min(tau, 1.0 - 1e-9)  # perfect concordance maps to a large theta
    if family == "clayton":
        if tau <= 0:
            raise EstimationError("clayton requires positive Kendall tau")
        return CopulaSpec(family="clayton", theta=2.0 * capped / (1.0 - capped),
                          fitted_from=meta)
    if family == "gumbel":
        if tau < 0:
            raise EstimationError("gumbel requires non-negative Kendall tau")
        return CopulaSpec(family="gumbel", theta=1.0 / (1.0 - max(capped, 0.0)),
                          fitted_from=meta)
    if family == "t":
        rho = float(np.sin(0.5 * np.pi * tau))
        rho = min(max(rho, -1.0 + 1e-12), 1.0 - 1e-12)
        return CopulaSpec(family="t", rho=rho, df=df, fitted_from=meta)
    raise ParameterError(f"unknown copula family {family!r}")


def sample_copula(spec: CopulaSpec, n: int, rng: np.random.Generator):
    """Draw n dependent uniform pairs (u, v) from the copula."""
    if spec.family == "independence":
        return rng.random(n), rng.random(n)
    if spec.family == "gaussian":
        z1 = rng.standard_normal(n)
        z2 = spec.rho * z1 + np.sqrt(1.0 - spec.rho ** 2) * rng.standard_normal(n)
        return ndtr(z1), ndtr(z2)
    if spec.family == "t":
        z1 = rng.standard_normal(n)
        z2 = spec.rho * z1 + np.sqrt(1.0 - spec.rho ** 2) * rng.standard_normal(n)
        s = np.sqrt(rng.chisquare(spec.df, n) / spec.df)
        return stdtr(spec.df, z1 / s), stdtr(spec.df, z2 / s)
    if spec.family == "clayton":
        g = rng.gamma(1.0 / spec.theta, 1.0, n)
        e1, e2 = rng.exponential(1.0, n), rng.exponential(1.0, n)
        return ((1.0 + e1 / g) ** (-1.0 / spec.theta),
                (1.0 + e2 / g) ** (-1.0 / spec.theta))
    if spec.family == "gumbel":
        if spec.theta == 1.0:
            return rng.random(n), rng.random(n)
        alpha = 1.0 / spec.theta
        s = _positive_stable(alpha, n, rng)
        e1, e2 = rng.exponential(1.0, n), rng.exponential(1.0, n)
        return (np.exp(-((e1 / s) ** alpha)), np.exp(-((e2 / s) ** alpha)))
    raise ParameterError(f"unknown copula family {spec.family!r}")


def _positive_stable(alpha: float, n: int, rng: np.random.Generator):
    """Chambers-Mallows-Stuck sampler for the positive stable law used by the
    gumbel frailty construction."""
    theta = np.pi * (rng.random(n) - 0.5)
    w = rng.exponential(1.0, n)
    a = np.sin(alpha * (theta + np.pi / 2.0)) / np.cos(theta) ** (1.0 / alpha)
    b = (np.cos(theta - alpha * (theta + np.pi / 2.0)) / w) ** ((1.0 - alpha) / alpha)
    return a * b
