"""The gate of the closed forms and its engine: adaptive quadrature of k(lambda),
its principal value and the weight integral.

For the built-in coupling families the spectral layer evaluates k, its
principal value and the weight integral from exponential-integral closed
forms (see ``leveldecay.spectrum``).  ``k_regular``, ``k_pv`` and
``weight_integral`` compute the same integrals by adaptive quadrature: they
are the gate those closed forms must pass before first use and the reference
the tests compare against, and ``k_regular`` is the k of the eigenvalue
oracle of ``verify`` criterion 8, which the eigenvalue solver's steps never
evaluate.  k and the weight integral are one integral,
|V(x)|^2 / (x + a)^p in u = ln(x + a); the principal value subtracts |V(c)|^2
on a window around the pole.

The engine is a vectorized adaptive Gauss-Kronrod (G7, K15) scheme: every
panel is evaluated with the embedded pair, the |K15 - G7| difference serves as
the panel error estimate, and panels carrying the bulk of the error are
bisected until the total estimate meets the tolerance.  ``_refine`` also
refines the density table of ``leveldecay.spectrum``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .coupling import coupling_sq, tail_mass

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .spectrum import ModelParams


class NumericalError(RuntimeError):
    """Base of every numerical failure: a tolerance, budget or gate not met."""


class NonConvergenceError(NumericalError):
    """Subdivision budget exhausted before the tolerance was met."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, error={error!r})")
        self.value = value
        self.error = error


# Integrator tolerances and budget, the half-width of the principal-value
# subtraction window (shrunk where it would leave the domain), and the
# truncation: k and the weight integral stop at TAIL_CUT coupling cutoffs, the
# principal value that far beyond its pole, where the closed-form tail
# remainder must stay below TAIL_TOL.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 4000
_PV_WINDOW = 0.5
TAIL_CUT = 60.0
TAIL_TOL = 1e-10


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

# 10-point Gauss-Legendre rule on [-1, 1], for the oscillatory panel rules of
# ``evolution`` (the spectral transform) and ``volterra`` (the kernel gate).
# On panels of one full period 2 pi / t_max it integrates the phase factor
# times the density to rounding: on the transform's test grids it stays
# within 5.4e-15 of 12 points on eighth-period panels.
_GL_X = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_GL_W = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
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


def _refine(
    f: Callable,
    edges: np.ndarray,
    abs_tol: float,
    rel_tol: float,
    budget: int,
) -> tuple[np.ndarray, ...]:
    """Bisect the panels dominating the error until the summed estimate meets
    max(abs_tol, rel_tol * |sum|); returns the converged panels (a, b, vals, errs).

    Raises:
        NonConvergenceError: more than ``budget`` bisections needed.
    """
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
            return a, b, vals, errs
        mask = errs > tol / (2.0 * len(vals))
        n_new = int(mask.sum())
        if n_splits + n_new > budget:
            raise NonConvergenceError(
                "adaptive quadrature did not converge within the subdivision budget",
                total, err,
            )
        n_splits += n_new
        a, b, vals, errs = _split_panels(f, a, b, vals, errs, mask)


def _adapt(
    f: Callable, edges: np.ndarray, abs_tol: float = _ABS_TOL, rel_tol: float = _REL_TOL
) -> tuple[float, float]:
    """Integral of f over [edges[0], edges[-1]] and its error estimate."""
    _, _, vals, errs = _refine(f, edges, abs_tol, rel_tol, _MAX_SUBDIVISIONS)
    return float(vals.sum()), float(errs.sum())


def _edges_toward(lo: float, hi: float, levels: int, toward_lo: bool = True) -> np.ndarray:
    """Panel edges on [lo, hi] accumulating geometrically toward one endpoint."""
    frac = 0.5 ** np.arange(levels, 0, -1)
    if toward_lo:
        inner = lo + (hi - lo) * frac
    else:
        inner = hi - (hi - lo) * frac[::-1]
    return np.unique(np.concatenate([[lo], inner, [hi]]))


def _check_tail(params: ModelParams, a: float) -> float:
    """Truncation point for k integrands, certified against the tail bound."""
    model = params.coupling
    upper = TAIL_CUT * model.cutoff
    bound = tail_mass(model, upper) / (upper + a)
    if bound > TAIL_TOL:
        raise ValueError(
            f"coupling g_sq={model.strength_sq!r} leaves a truncation remainder "
            f"{bound!r} beyond {TAIL_CUT:g} cutoffs, above the bound {TAIL_TOL!r}"
        )
    return upper


def _log_integral(params: ModelParams, a: float, p: int) -> float:
    """Integral of |V(x)|^2 / (x + a)^p over [0, inf) for a distance a > 0.

    Evaluated in the substitution u = ln(x + a), which keeps the integrand on
    an O(1) scale however small ``a`` is, at a relative tolerance of 1e-11.
    """
    if not a > 0.0:
        raise ValueError(f"requires lambda < e1, i.e. a = e1 - lambda > 0; got a={a!r}")
    model = params.coupling
    upper = _check_tail(params, a)
    u_lo, u_hi = math.log(a), math.log(upper + a)

    def integrand(u):
        x = np.maximum(np.exp(u) - a, 0.0)
        return np.exp((1 - p) * u) * coupling_sq(model, x)

    n_seed = max(16, int(math.ceil((u_hi - u_lo) / math.log(2.0))))
    edges = np.linspace(u_lo, u_hi, n_seed + 1)
    value, _ = _adapt(integrand, edges, rel_tol=1e-11)
    return value


def k_regular(params: ModelParams, lam: float) -> float:
    """The transform k(lambda): integral of |V(x)|^2 / (x + e1 - lambda) over [0, inf).

    Requires lambda < e1 (below the continuum edge), where the integrand is
    nonsingular; k is positive for g2 > 0 and strictly increasing in lambda.
    """
    return _log_integral(params, params.e1 - lam, 1)


def k_pv(params: ModelParams, t: float) -> float:
    """Principal value of the k transform at a point t > e1 inside the continuum.

    PV of the integral of |V(x)|^2 / (x - c) over [0, inf), c = t - e1,
    truncated at c + TAIL_CUT cutoffs.  On a window [c - h, c + h] the
    regularized integrand (|V(x)|^2 - |V(c)|^2) / (x - c) is integrated; the
    outer pieces are regular adaptive integrals.  The window half-width h is
    _PV_WINDOW, shrunk to stay inside the domain.
    """
    model = params.coupling
    c = t - params.e1
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"k_pv requires e1 < t < inf, got t={t!r}")
    domain_hi = c + _check_tail(params, 0.0)
    h = min(_PV_WINDOW, 0.5 * c, 0.5 * (domain_hi - c))
    lo, hi = c - h, c + h
    fc = float(coupling_sq(model, np.array([c]))[0])

    def regularized(x):
        return (coupling_sq(model, x) - fc) / (x - c)

    def cauchy(x):
        return coupling_sq(model, x) / (x - c)

    abs_share = 0.25 * _ABS_TOL
    rel_share = 0.25 * _REL_TOL
    window, _ = _adapt(regularized, np.array([lo, c, hi]), abs_share, rel_share)
    # Analytic log term of the subtracted |V(c)|^2 / (x - c).  It corrects for
    # the rounded window ends: c - h and c + h are rounded, so (hi - c)/(c - lo)
    # can differ from 1 by an ulp.
    log_term = fc * math.log((hi - c) / (c - lo))
    left, _ = _adapt(
        cauchy, _edges_toward(0.0, lo, levels=30, toward_lo=False), abs_share, rel_share
    )
    right, _ = _adapt(
        cauchy, _edges_toward(hi, domain_hi, levels=42, toward_lo=True), abs_share, rel_share
    )
    return window + log_term + left + right


def weight_integral(params: ModelParams, a: float) -> float:
    """Integral of |V(x)|^2 / (x + a)^2 over [0, inf) for a distance a > 0."""
    return _log_integral(params, a, 2)
