"""Adaptive quadrature for semi-infinite integrals, principal values, and k(lambda).

The engine is a vectorized adaptive Gauss-Kronrod (G7, K15) scheme: every
panel is evaluated with the embedded pair, the |K15 - G7| difference serves as
the panel error estimate, and panels carrying the bulk of the error are
bisected until the total estimate meets the configured tolerance.

Principal values are computed by symmetric subtraction: on a window
[c - h, c + h] around the pole the regularized integrand
(f(x) - f(c)) / (x - c) is integrated, the analytic log term
f(c) * ln((b - c)/(c - a)) is added (zero for a symmetric window), and the
remaining outer pieces are regular adaptive integrals.

For the built-in coupling families the spectral layer evaluates k, its
principal value and the weight integral from exponential-integral closed
forms (see ``leveldecay.spectrum``).  ``k_regular``, ``k_pv`` and
``weight_integral`` here compute the same integrals by adaptive quadrature:
they are the gate those closed forms must pass before first use and the
reference the tests compare against.

Integrands must be vectorized (accept and return numpy arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .coupling import CouplingFamily, coupling_sq, tail_mass

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .spectrum import ModelParams


class NonConvergenceError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, error={error!r})")
        self.value = value
        self.error = error


class InvalidSingularityError(ValueError):
    """Principal-value singularity location outside the admissible range."""


class DivergentAtE1Error(ValueError):
    """k(lambda) requested at the continuum edge for a coupling with V(0) != 0."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation policy for the adaptive integrators.

    ``tail_cut`` is a dimensionless multiplier: semi-infinite integrals are
    truncated at tail_cut * scale, where the scale is the coupling cutoff for
    model integrands.  The closed-form tail remainder of the exponential
    families is checked against ``abs_tol`` wherever a model is integrated.
    ``pv_window`` is the half-width of the symmetric subtraction window around
    a principal-value singularity (shrunk when the window would leave the
    integration domain).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 4000
    pv_window: float = 0.5
    tail_cut: float = 60.0

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if int(self.max_subdivisions) < 1:
            raise ValueError("max_subdivisions must be a positive integer")
        if not (self.pv_window > 0.0 and math.isfinite(self.pv_window)):
            raise ValueError("pv_window must be positive and finite")
        if not (self.tail_cut > 0.0 and math.isfinite(self.tail_cut)):
            raise ValueError("tail_cut must be positive and finite")


# Gauss-Kronrod (G7, K15) abscissae and weights on [-1, 1].
_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
])
_WK0 = 0.2094821410847278
_WG = np.array([0.1294849661688697, 0.2797053914892766, 0.3818300505051189])
_WG0 = 0.4179591836734694

_XGK_FULL = np.concatenate([-_XK, [0.0], _XK[::-1]])
_WGK_FULL = np.concatenate([_WK, [_WK0], _WK[::-1]])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG_FULL = np.array([_WG[0], _WG[1], _WG[2], _WG0, _WG[2], _WG[1], _WG[0]])

# 6-point Gauss-Legendre rule on [-1, 1], for the oscillatory panel rules of
# ``evolution`` (the spectral transform) and ``volterra`` (the kernel gate).
# With panels capped at a quarter period the phase factor is resolved far
# below the density table's own accuracy.
_GL_X = np.array([
    -0.9324695142031521, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031521,
])
_GL_W = np.array([
    0.1713244923791704, 0.3607615730481386, 0.4679139345726910,
    0.4679139345726910, 0.3607615730481386, 0.1713244923791704,
])

_EPS = float(np.finfo(float).eps)


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the (G7, K15) pair on panels [a_i, b_i]; returns (values, errors)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _XGK_FULL[None, :]
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kron = half * (fx @ _WGK_FULL)
    gauss = half * (fx[:, _G_IDX] @ _WG_FULL)
    err = np.abs(kron - gauss)
    return kron, np.maximum(err, 50.0 * _EPS * np.abs(kron))


def _split_panels(f: Callable, a, b, vals, errs, mask) -> tuple[np.ndarray, ...]:
    """Bisect the panels picked by ``mask``; all panels, sorted by left edge."""
    mid = 0.5 * (a[mask] + b[mask])
    split_a = np.concatenate([a[mask], mid])
    split_b = np.concatenate([mid, b[mask]])
    new_vals, new_errs = _gk15(f, split_a, split_b)
    a = np.concatenate([a[~mask], split_a])
    b = np.concatenate([b[~mask], split_b])
    vals = np.concatenate([vals[~mask], new_vals])
    errs = np.concatenate([errs[~mask], new_errs])
    order = np.argsort(a, kind="stable")
    return a[order], b[order], vals[order], errs[order]


def _adapt(
    f: Callable,
    edges: np.ndarray,
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> tuple[float, float]:
    """Adaptive driver: bisect the panels dominating the error until converged."""
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    b = edges[1:]
    vals, errs = _gk15(f, a, b)
    n_splits = 0
    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            return total, err
        mask = errs > tol / (2.0 * len(vals))
        n_new = int(mask.sum())
        if n_splits + n_new > max_subdivisions:
            raise NonConvergenceError(
                "adaptive quadrature did not converge within the subdivision budget",
                total, err,
            )
        n_splits += n_new
        a, b, vals, errs = _split_panels(f, a, b, vals, errs, mask)


def _edges_toward(lo: float, hi: float, levels: int, toward_lo: bool = True) -> np.ndarray:
    """Panel edges on [lo, hi] accumulating geometrically toward one endpoint."""
    frac = 0.5 ** np.arange(levels, 0, -1)
    if toward_lo:
        inner = lo + (hi - lo) * frac
    else:
        inner = hi - (hi - lo) * frac[::-1]
    return np.unique(np.concatenate([[lo], inner, [hi]]))


def integrate_semiinf(
    f: Callable,
    cfg: QuadratureConfig,
    scale: float = 1.0,
) -> tuple[float, float]:
    """Integrate a vectorized f over [0, inf), truncated at tail_cut * scale.

    The integrand must be continuous and absolutely integrable with a decaying
    tail; the caller is responsible for choosing ``scale`` so that the
    truncation remainder is below ``cfg.abs_tol`` (for the built-in coupling
    families this is certified via their closed-form tail bound).

    Returns:
        (value, error_estimate) with |value - exact| bounded by
        max(abs_tol, rel_tol * |value|) on convergence.

    Raises:
        NonConvergenceError: subdivision budget exhausted.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    upper = cfg.tail_cut * scale
    edges = _edges_toward(0.0, upper, levels=42)
    return _adapt(f, edges, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)


def principal_value(
    f: Callable,
    c: float,
    cfg: QuadratureConfig,
    upper: float | None = None,
    scale: float = 1.0,
) -> float:
    """Cauchy principal value of the integral of f(x)/(x - c) over [0, upper).

    ``f`` must be vectorized and continuous at the pole c > 0.  With
    ``upper=None`` the domain is [0, inf), truncated at c + tail_cut * scale.
    The pole is handled on a symmetric window by subtraction of f(c); the
    window half-width is cfg.pv_window, shrunk to stay inside the domain.

    Raises:
        InvalidSingularityError: c <= 0, or c outside a finite domain.
        NonConvergenceError: a regular piece failed to converge.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise InvalidSingularityError(f"singularity must lie in (0, upper), got c={c!r}")
    if upper is None:
        domain_hi = c + cfg.tail_cut * scale
    else:
        if c >= upper:
            raise InvalidSingularityError(f"singularity c={c!r} not interior to (0, {upper!r})")
        domain_hi = upper
    h = min(cfg.pv_window, 0.5 * c, 0.5 * (domain_hi - c))
    lo, hi = c - h, c + h

    fc = float(np.asarray(f(np.array([c])), dtype=float)[0])

    def regularized(x):
        return (np.asarray(f(x), dtype=float) - fc) / (x - c)

    abs_share = 0.25 * cfg.abs_tol
    rel_share = 0.25 * cfg.rel_tol
    window, _ = _adapt(
        regularized, np.array([lo, c, hi]), abs_share, rel_share, cfg.max_subdivisions
    )
    # Analytic log term; identically zero for the symmetric window used here.
    log_term = fc * math.log((hi - c) / (c - lo))

    def cauchy(x):
        return np.asarray(f(x), dtype=float) / (x - c)

    left = 0.0
    if lo > 0.0:
        left, _ = _adapt(
            cauchy, _edges_toward(0.0, lo, levels=30, toward_lo=False),
            abs_share, rel_share, cfg.max_subdivisions,
        )
    right, _ = _adapt(
        cauchy, _edges_toward(hi, domain_hi, levels=42, toward_lo=True),
        abs_share, rel_share, cfg.max_subdivisions,
    )
    return window + log_term + left + right


def _check_tail(params: ModelParams, a: float, cfg: QuadratureConfig) -> float:
    """Truncation point for k integrands, certified against the tail bound."""
    upper = cfg.tail_cut * params.coupling.cutoff
    bound = tail_mass(params.coupling, upper) / (upper + a)
    if bound > cfg.abs_tol:
        raise ValueError(
            f"tail_cut={cfg.tail_cut!r} leaves a truncation remainder {bound!r} "
            f"above abs_tol={cfg.abs_tol!r}"
        )
    return upper


def k_regular(params: ModelParams, lam: float, cfg: QuadratureConfig) -> float:
    """The transform k(lambda): integral of |V(x)|^2 / (x + e1 - lambda) over [0, inf).

    Requires lambda < e1 (below the continuum edge), where the integrand is
    nonsingular; lambda = e1 is additionally admitted for the 3d family, whose
    |V|^2 vanishes linearly at the edge so the integral still converges.
    k is positive for g2 > 0 and strictly increasing in lambda.

    Raises:
        DivergentAtE1Error: lambda = e1 requested for a 2d-family model.
        ValueError: lambda > e1.
    """
    model = params.coupling
    a = params.e1 - lam
    if a < 0.0:
        raise ValueError(f"k_regular requires lambda <= e1, got lambda={lam!r}")
    if model.strength_sq == 0.0:
        return 0.0
    if a == 0.0 and model.family is CouplingFamily.TWO_DIM_EXP:
        raise DivergentAtE1Error(
            "k(lambda) diverges at the continuum edge when V(0) != 0"
        )
    upper = _check_tail(params, a, cfg)
    cutoff = model.cutoff
    if a == 0.0 or a >= 1e-6 * cutoff:

        def integrand(x):
            return coupling_sq(model, x) / (x + a)

        value, _ = _adapt(
            integrand, _edges_toward(0.0, upper, levels=48),
            cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions,
        )
        return value
    # Very close to the edge the integrand mass piles up at x ~ a; the
    # substitution u = ln(x + a) flattens it into an O(1)-scale integrand.
    u_lo, u_hi = math.log(a), math.log(upper + a)

    def integrand_u(u):
        x = np.maximum(np.exp(u) - a, 0.0)
        return coupling_sq(model, x)

    n_seed = max(16, int(math.ceil((u_hi - u_lo) / math.log(2.0))))
    edges = np.linspace(u_lo, u_hi, n_seed + 1)
    value, _ = _adapt(integrand_u, edges, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)
    return value


def k_pv(params: ModelParams, t: float, cfg: QuadratureConfig) -> float:
    """Principal value of the k transform at a point t > e1 inside the continuum.

    Computes PV of the integral of |V(x)|^2 / (x + e1 - t) over [0, inf) via
    ``principal_value`` with pole c = t - e1.
    """
    model = params.coupling
    if model.strength_sq == 0.0:
        return 0.0
    c = t - params.e1
    if c <= 0.0:
        raise InvalidSingularityError(f"k_pv requires t > e1, got t={t!r}")
    _check_tail(params, 0.0, cfg)

    def f(x):
        return coupling_sq(model, x)

    return principal_value(f, c, cfg, upper=None, scale=model.cutoff)


def weight_integral(params: ModelParams, a: float, cfg: QuadratureConfig) -> float:
    """Integral of |V(x)|^2 / (x + a)^2 over [0, inf) for a distance a > 0.

    Evaluated in the substitution u = ln(x + a), which keeps the integrand on
    an O(1) scale however small ``a`` is, at a relative tolerance of at most
    1e-11.
    """
    model = params.coupling
    if not a > 0.0:
        raise ValueError(f"weight_integral requires a > 0, got a={a!r}")
    upper = cfg.tail_cut * model.cutoff
    u_lo, u_hi = math.log(a), math.log(upper + a)

    def integrand(u):
        x = np.maximum(np.exp(u) - a, 0.0)
        return np.exp(-u) * coupling_sq(model, x)

    wcfg = replace(cfg, rel_tol=min(cfg.rel_tol, 1e-11))
    n_seed = max(16, int(math.ceil((u_hi - u_lo) / math.log(2.0))))
    edges = np.linspace(u_lo, u_hi, n_seed + 1)
    value, _ = _adapt(integrand, edges, wcfg.abs_tol, wcfg.rel_tol, wcfg.max_subdivisions)
    return value
