"""The gate of the closed forms and its engine: adaptive quadrature of k~(xi),
its principal value and the weight integral.

For the built-in coupling families the spectral layer evaluates these three
integrals from exponential-integral closed forms (see ``leveldecay.spectrum``).
Quadrature has two entry points: ``gate_integrals`` takes all three of a
``Canonical`` model at a list of distances s in xi from the edge in one pass,
the gate those closed forms must pass before first use and the tests'
reference; ``k_regular`` takes k~ alone of a ``Canonical`` model at one
distance, for the eigenvalue oracle of ``verify`` criterion 8.
In the canonical model (``coupling``) all three are one integral in xi, of
(|V(xi)|^2 - f0) / (xi - c)^n: k and the weight integral at c = -s, f0 = 0
and n = 1, 2, seeded geometrically in xi + s; the principal value at the pole
c = s with f0 = |V(s)|^2, smooth at s, plus the exact log term of the
subtracted f0 / (xi - c).

The engine is a vectorized adaptive Gauss-Kronrod (G7, K15) scheme: every
panel is evaluated with the embedded pair, the |K15 - G7| difference serves as
the panel error estimate, and panels carrying the bulk of the error are
bisected until the total estimate meets the tolerance.  ``_refine`` is the one
refinement loop.  It refines many integrals at once, each to its own
tolerance, budget and error total: the gate's thirty-six in one pass, k alone
for ``k_regular``, and the density table of ``leveldecay.spectrum``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .coupling import TAIL_CUT, Canonical, coupling_sq


class NumericalError(RuntimeError):
    """Base of every numerical failure: a tolerance, budget or gate not met."""


class NonConvergenceError(NumericalError):
    """Subdivision budget exhausted before the tolerance was met."""

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, error={error!r})")
        self.value = value
        self.error = error


# Integrator tolerances and budget; k and the weight integral stop at
# xi = TAIL_CUT, the principal value that far beyond its pole.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 4000


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


def _gk15(
    f: Callable, a: np.ndarray, b: np.ndarray, which: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the (G7, K15) pair on panels [a_i, b_i] of integrals ``which``;
    returns (values, errors)."""
    half = 0.5 * (b - a)
    mid = 0.5 * a + 0.5 * b
    nodes = mid[:, None] + half[:, None] * _XGK_FULL[None, :]
    fx = np.asarray(f(nodes.ravel(), which), dtype=float).reshape(nodes.shape)
    kron = half * (fx @ _WGK_FULL)
    gauss = half * (fx[:, _G_IDX] @ _WG_FULL)
    err = np.abs(kron - gauss)
    return kron, np.maximum(err, 50.0 * _EPS * np.abs(kron))


def _split_panels(f: Callable, a, b, vals, errs, which, mask) -> tuple[np.ndarray, ...]:
    """Bisect the panels picked by ``mask``, each replaced in place by its two
    halves, so the panels stay grouped by integral and sorted by left edge."""
    mid = 0.5 * a[mask] + 0.5 * b[mask]
    new_vals, new_errs = _gk15(
        f, np.concatenate([a[mask], mid]), np.concatenate([mid, b[mask]]),
        np.tile(which[mask], 2),
    )
    at = np.repeat(np.arange(a.size), mask + 1)
    left = np.flatnonzero(mask)
    left += np.arange(left.size)
    a, b, vals, errs, which = a[at], b[at], vals[at], errs[at], which[at]
    b[left] = a[left + 1] = mid
    vals[left], vals[left + 1] = np.split(new_vals, 2)
    errs[left], errs[left + 1] = np.split(new_errs, 2)
    return a, b, vals, errs, which


def _refine(f: Callable, seeds, abs_tol, rel_tol, budget) -> tuple[np.ndarray, ...]:
    """Refine m integrals at once, integral i seeded with the panels between
    the edges ``seeds[i]``: bisect the panels dominating each integral's error
    until its summed estimate meets max(abs_tol_i, rel_tol_i * |sum_i|).

    ``abs_tol``, ``rel_tol`` and ``budget`` are one value for all integrals or
    one per integral.  ``f(x, which)`` evaluates the integrands at the nodes
    x, fifteen to a panel: panel j's nodes x[15 j:15 j + 15] belong to
    integral which[j].  The convergence test sums each integral's panels in
    order; an integral that has met its tolerance is not bisected again.
    Returns the converged panels (a, b, vals, errs, which),
    grouped by integral in order and sorted by left edge within each.

    Raises:
        NonConvergenceError: an integral needs more than its budget of
            bisections.
    """
    m = len(seeds)
    abs_tol, rel_tol, budget = (np.broadcast_to(v, (m,)) for v in (abs_tol, rel_tol, budget))
    seeds = [np.asarray(edges, dtype=float) for edges in seeds]
    a = np.concatenate([edges[:-1] for edges in seeds])
    b = np.concatenate([edges[1:] for edges in seeds])
    which = np.repeat(np.arange(m), [edges.size - 1 for edges in seeds])
    vals, errs = _gk15(f, a, b, which)
    n_splits = np.zeros(m, dtype=np.int64)
    while True:
        total = np.bincount(which, vals, m)
        err = np.bincount(which, errs, m)
        tol = np.fmax(abs_tol, rel_tol * np.abs(total))  # a NaN sum: abs_tol
        done = err <= tol
        if done.all():
            return a, b, vals, errs, which
        limit = np.where(done, np.inf, tol / (2.0 * np.bincount(which, minlength=m)))
        mask = errs > limit[which]
        n_new = np.bincount(which[mask], minlength=m)
        # An open integral with no panel to bisect (a NaN error) never closes.
        over = np.flatnonzero((n_splits + n_new > budget) | (~done & (n_new == 0)))
        if over.size:
            own = which == over[0]
            raise NonConvergenceError(
                "adaptive quadrature did not converge within the subdivision budget",
                float(vals[own].sum()), float(errs[own].sum()),
            )
        n_splits += n_new
        a, b, vals, errs, which = _split_panels(f, a, b, vals, errs, which, mask)


def _edges_toward(lo: float, hi: float, levels: int) -> np.ndarray:
    """Panel edges on [lo, hi] accumulating geometrically toward lo."""
    inner = lo + (hi - lo) * 0.5 ** np.arange(levels, 0, -1)
    return np.unique(np.concatenate([[lo], inner, [hi]]))


class _Integral(NamedTuple):
    """One integral for ``_integrals``: of (|V(x)|^2 - f0) / (x - c)^order
    over its seed edges in x, to the relative tolerance ``rel_tol``."""

    edges: np.ndarray
    rel_tol: float
    c: float
    order: int = 1
    f0: float = 0.0


def _integrals(model: Canonical, parts: list[_Integral]) -> list[float]:
    """Every integral of ``parts`` over its edges, refined in one pass of
    ``_refine``; each sums its own converged panels."""
    c, order, f0 = np.array([(q.c, q.order, q.f0) for q in parts]).T

    def integrand(x, which):
        x, j = x.reshape(which.size, -1), which[:, None]
        return ((coupling_sq(model.coupling, x) - f0[j]) / (x - c[j]) ** order[j]).ravel()

    _, _, vals, _, which = _refine(
        integrand, [q.edges for q in parts], _ABS_TOL, [q.rel_tol for q in parts],
        _MAX_SUBDIVISIONS,
    )
    return [float(v.sum()) for v in np.split(vals, np.flatnonzero(np.diff(which)) + 1)]


def _k_part(s: float, order: int) -> _Integral:
    """k (order 1) or the weight integral (order 2) at 0 < s < inf, to a
    relative 1e-11, seeded with 1.5 panels an octave in xi + s."""
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"k requires 0 < s < inf, got s = {s!r}")
    ln_lo, ln_hi = math.log(s), math.log(TAIL_CUT + s)
    n_seed = max(16, math.ceil(1.5 * (ln_hi - ln_lo) / math.log(2.0)))
    edges = np.exp(np.linspace(ln_lo, ln_hi, n_seed + 1)) - s
    edges[0] = 0.0  # exp(ln s) - s can miss 0 by an ulp of s
    return _Integral(edges, 1e-11, -s, order)


def _pv_part(model: Canonical, c: float) -> tuple[_Integral, float]:
    """PV k at xi = c over [0, U], U = c + TAIL_CUT, and the log term
    |V(c)|^2 ln((U - c) / c) of the subtracted part."""
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"PV k requires e1 < t < inf, got xi = (t - e1) / L = {c!r}")
    upper = c + TAIL_CUT
    fc = coupling_sq(model.coupling, c)
    edges = np.unique(np.append(np.linspace(0.0, upper, 17), c))
    return _Integral(edges, _REL_TOL, c, f0=fc), fc * math.log((upper - c) / c)


def k_regular(model: Canonical, s: float) -> float:
    """k~ at xi = -s of the canonical ``model``: the integral of |V(xi)|^2 /
    (xi + s) over [0, inf), nonsingular for 0 < s < inf (below the edge),
    positive for gamma > 0 and decreasing in s.  A caller's k(lambda) is L k~
    at s = (e1 - lambda) / L, its truncation certified with the caller's model."""
    return _integrals(model, [_k_part(s, 1)])[0]


def gate_integrals(model: Canonical, distances) -> tuple[np.ndarray, ...]:
    """The three arrays k~ at xi = -s, PV k~ at xi = s and the weight integral
    at s of the canonical ``model`` over the distances s in xi: three integrals
    per s, refined in one ``_refine`` pass, each truncated at xi = TAIL_CUT."""
    parts, log_terms = [], []
    for s in distances:
        pv, log_term = _pv_part(model, s)
        parts += [_k_part(s, 1), pv, _k_part(s, 2)]
        log_terms.append(log_term)
    v = np.array(_integrals(model, parts)).reshape(-1, 3)
    return v[:, 0], v[:, 1] + np.array(log_terms), v[:, 2]
