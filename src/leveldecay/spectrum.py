"""Spectral data of the coupled level-continuum system.

For level energies e1 < e2 and a coupling model, the spectrum consists of an
absolutely continuous part covering [e1, inf) with density rho, plus at most
one simple eigenvalue e0 < e1.  In the canonical model (``coupling``), on
xi = (lam - e1) / L with |V(xi)|^2 = gamma xi^p e^{-xi}, the eigenvalue
xi0 = -s0 solves

    F(s) = beta + s - gamma k_p(s) = 0,    k_p(s) = integral of xi^p e^{-xi} / (xi + s),

always at p = 0 (2d: k_0 diverges at the edge) and, for p >= 1, exactly
when gamma (p - 1)! > beta.  Its weight in the spectral measure of the
initial excited state is the residue w = s / (s - gamma s k_p'(s)) of the
resolvent, and the density is

    rho~(xi) = |V(xi)|^2 / [(beta - xi - gamma P_p(xi))^2 + pi^2 |V(xi)|^4]

for xi > 0, zero below.  The measure is normalized: w plus the integrated
density equals 1, which every assembled table is checked against.  k_p and
the principal value P_p are closed forms in the exponential integrals Ei and
E1 (Abramowitz & Stegun 5.1) of s, each one step up in p, and so is the
slope s k' = s dk/ds that Newton steps on:

    k_0 = e^{s} E1(s),     k_{n+1} = n! - s k_n,
    P_0 = -e^{-s} Ei(s),   P_{n+1} = n! + s P_n      (PV k),
    s k_0' = s k_0 - 1,    s k_{n+1}' = s (n! - (n + 1 + s) k_n).

The weight integral -k_p'(s) is read from that slope.  Before a family's
closed forms are first used, k, PV k and that slope must agree with adaptive
quadrature to a relative 1e-8 at twelve points, at gamma = 1; the gate
refines those 36 integrals in one batched pass
(``quadrature.gate_integrals``).  A mismatch raises ``ClosedFormMismatchError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .coupling import (
    Canonical, CouplingFamily, ModelParams, Units, coupling_sq, sq_over_x_integral,
)
from .quadrature import (
    _EPS,
    TAIL_CUT,
    NumericalError,
    _check_tail,
    _edges_toward,
    _refine,
    gate_integrals,
)


class BracketFailureError(NumericalError):
    """Root bracketing or residual polishing failed; coupling and k disagree."""


class NormalizationFailureError(NumericalError):
    """Assembled spectral measure is not a probability measure within tolerance."""


class ThresholdMarginalError(NumericalError, ValueError):
    """Model sits numerically on the bound-state threshold; refusing to resolve it."""


class ClosedFormMismatchError(NumericalError):
    """Closed-form k, PV k or weight integral disagrees with adaptive quadrature."""


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the bound-state threshold test.

    ``exists`` reports whether the eigenvalue below the continuum edge exists:
    whether ``rhs``, the integral of |V|^2/x, exceeds the level gap e2 - e1
    (``inf`` marks the divergent 2d case, where the eigenvalue always exists).
    ``degenerate`` flags the zero-coupling model, for which the test is
    meaningless (the unperturbed level e2 survives as a point mass instead).
    ``marginal`` flags |gap - rhs| < 1e-8: numerically on the threshold, which
    downstream solvers refuse to resolve.
    """

    exists: bool
    rhs: float
    degenerate: bool = False
    marginal: bool = False


_MARGINAL_BAND = 1e-8


def threshold_check(params: ModelParams) -> ThresholdResult:
    """Decide whether the discrete eigenvalue below the edge exists."""
    gap = params.level_gap
    model = params.coupling
    if model.strength_sq == 0.0:
        return ThresholdResult(exists=False, rhs=0.0, degenerate=True)
    rhs = sq_over_x_integral(model)
    if math.isinf(rhs):
        return ThresholdResult(exists=True, rhs=rhs)
    marginal = abs(gap - rhs) < _MARGINAL_BAND
    return ThresholdResult(exists=rhs > gap, rhs=rhs, marginal=marginal)


# Beyond this s the scaled exponential integrals are 0 * inf in double
# precision, and their asymptotic series is exact to far below rounding.
_ASYMPTOTIC_S = 700.0
_ASYMPTOTIC_TERMS = 12
# Below this ln s the edge distance underflows; e^{s} E1(s) -> -gamma - ln s.
_EDGE_LN_S = -700.0
_GATE_POINTS = tuple(float(s) for s in np.geomspace(1e-8, 1e3, 12))
_GATE_TOL = 1e-8
# (n, (n - 1)!) for every n whose (n - 1)! is a finite float.  The recurrences
# in p slice it, which costs less per call than counting n and n! in the loop.
_STEPS = tuple((n, float(math.factorial(n - 1))) for n in range(1, 172))


def _asymptotic_series(s: np.ndarray, sign: float) -> np.ndarray:
    """Sum over n < 12 of sign^n n! / s^(n+1), evaluated at max(s, 700)."""
    inv = 1.0 / np.maximum(s, _ASYMPTOTIC_S)
    term = inv
    total = inv
    for n in range(1, _ASYMPTOTIC_TERMS):
        term = term * (sign * n) * inv
        total = total + term
    return total


def _scaled_ei(s):
    """e^{-s} Ei(s) for s > 0, with Ei = Shi + Chi (Abramowitz & Stegun 5.2)."""
    near = np.minimum(s, _ASYMPTOTIC_S)
    shi, chi = special.shichi(near)
    out = np.exp(-near) * (shi + chi)
    far = s > _ASYMPTOTIC_S
    return np.where(far, _asymptotic_series(s, 1.0), out) if np.any(far) else out


def _scaled_e1(s: float) -> float:
    """e^{s} E1(s) for a scalar s > 0 (only e0 and w need it, one value at a time)."""
    if s > _ASYMPTOTIC_S:
        return float(_asymptotic_series(s, -1.0))
    return math.exp(s) * float(special.exp1(s))


# The closed forms at gamma = 1 in the scaled distance s from the edge, by
# the module docstring's recurrences in p, step n on (n, (n - 1)!) of _STEPS.
def _k_unit_and_slope(family: CouplingFamily, s: float, e: float) -> tuple[float, float]:
    """k_p(s) for k(e1 - s) below the edge and s dk_p/ds, from e = e^{s} E1(s)."""
    k, s_dk = e, s * e - 1.0
    for n, fact in _STEPS[:family.power]:
        k, s_dk = fact - s * k, s * (fact - (n + s) * k)
    return k, s_dk


def _pv_k_unit(family: CouplingFamily, s):
    """P_p(s), PV k(e1 + s) inside the continuum."""
    pv = -_scaled_ei(s)
    for _, fact in _STEPS[:family.power]:
        pv = fact + s * pv
    return pv


@functools.lru_cache(maxsize=None)
def _closed_form_gate(family: CouplingFamily) -> bool:
    """Gate one family's closed forms against adaptive quadrature, at
    gamma = 1 over s in [1e-8, 1e3], which covers every model of the family.
    The relative 1e-8 checks values far below 1, such as the weight integral
    at s = 1e3 (about 1e-6), to the same digits as the rest.
    """
    unit = Canonical(family, 1.0, 1.0).params
    k, pv, weight = (q.tolist() for q in gate_integrals(unit, _GATE_POINTS))
    for s, k_s, pv_s, weight_s in zip(_GATE_POINTS, k, pv, weight):
        k_closed, s_dk = _k_unit_and_slope(family, s, _scaled_e1(s))
        for name, closed, quad in (
            ("k", k_closed, k_s),
            ("PV k", _pv_k_unit(family, s), pv_s),
            ("weight integral", -s_dk / s, weight_s),
        ):
            closed = float(closed)
            if not abs(closed - quad) <= _GATE_TOL * abs(closed):
                raise ClosedFormMismatchError(
                    f"{family.value} closed-form {name} {closed!r} deviates from "
                    f"quadrature {quad!r} at s={s!r}; refusing to use it"
                )
    return True


def k_pv_closed(model: Canonical, xi):
    """gamma P_p(xi): the principal value of k at xi > 0 (an array), in closed form."""
    _closed_form_gate(model.family)
    return model.gamma * _pv_k_unit(model.family, xi)


def _eigen_equation(family, beta, gamma, u) -> tuple[float, float]:
    """F(u) = beta + s - gamma k_p(s) and dF/du at s = e^u.  Below
    u = -700, where s underflows, s = 0 and e^{s} E1(s) = -gamma_E - u."""
    s = math.exp(u)
    if u > _EDGE_LN_S:
        k, s_dk = _k_unit_and_slope(family, s, _scaled_e1(s))
    else:
        k, s_dk = _k_unit_and_slope(family, 0.0, -np.euler_gamma - u)
    return beta + s - gamma * k, s - gamma * s_dk


def _newton_in_bracket(f_and_slope, lo, fd_lo, hi, fd_hi) -> tuple[float, float]:
    """Root u and F(u) of an increasing F with F(lo) <= 0 <= F(hi).

    Newton from the end with the smaller |F|; a step that would leave the
    bracket or is longer than half the previous one becomes bisection.  A
    step shorter than the tolerance means Newton has converged from one side,
    where F's rounding can hold it: it becomes a probe across the root of one
    tolerance, doubled on each consecutive probe and exempt from the
    half-step rule, so the bracket closes on the root from both sides.  Once
    it is narrower than 1e-15 + 4 eps |u|, the end or secant point between
    them with the smallest |F| is returned.
    """
    f_lo, f_hi = fd_lo[0], fd_hi[0]
    u, (f, df) = (lo, fd_lo) if -f_lo < f_hi else (hi, fd_hi)
    step = math.inf
    probes = 0  # consecutive probes across the root
    for _ in range(200):
        if f == 0.0:
            return u, f
        tol = 1e-15 + 4.0 * _EPS * abs(u)
        if hi - lo < tol:
            break
        newton = -f / df if df != 0.0 else math.inf
        if abs(newton) < tol:
            newton = math.copysign(tol * 2.0**probes, newton)
            probes += 1
            ok = lo < u + newton < hi
        else:
            probes = 0
            ok = lo < u + newton < hi and abs(newton) <= 0.5 * abs(step)
        step = newton if ok else 0.5 * (lo + hi) - u
        u += step
        f, df = f_and_slope(u)
        if f < 0.0:
            lo, f_lo = u, f
        else:
            hi, f_hi = u, f
    else:
        raise BracketFailureError("root iteration did not converge in 200 steps")
    # Where F is steep in u, both ends can miss the root by a few ulps.
    u = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    if lo < u < hi and abs(f := f_and_slope(u)[0]) < min(-f_lo, f_hi):
        return u, f
    return (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)


def _solve_eigenvalue(model: Canonical) -> float:
    """ln s0 of the unique eigenvalue xi0 = -s0 of a canonical model the
    threshold test has found a bound state in (neither degenerate nor marginal).

    F(s) is strictly increasing, positive for large s and negative toward the
    edge, so a sign-change bracket pins the root, solved in u = ln s, which
    holds distances that underflow as s: there k_p takes its edge asymptote.
    The far end of the bracket starts at s = beta and doubles; F > 0 is
    certain from s = sqrt(gamma p!) on, since gamma k_p(s) < gamma p! / s.
    The near end steps toward the edge in u by doubling steps.  Newton steps
    in u on the slope s dk/ds, safeguarded as ``_newton_in_bracket`` says.
    The root is certified by the residual gate |F| <= 1e-10 (beta + s), the
    scale of the terms F cancels.  ln s, not s, crosses the map to e0 and w.

    Raises:
        BracketFailureError: bracketing, iteration or residual tolerance failed.
    """
    family, gamma, beta = model
    _closed_form_gate(family)
    f_and_slope = functools.partial(_eigen_equation, family, beta, gamma)

    d = beta
    positive_from = math.sqrt(gamma * math.factorial(family.power))
    d_limit = 2.0 * max(positive_from, d)
    u_hi = math.log(d)
    while (fd_hi := f_and_slope(u_hi))[0] < 0.0:
        d *= 2.0
        if d > d_limit:
            raise BracketFailureError(
                f"F < 0 at s = {d / 2.0!r}, beyond {positive_from!r} where it "
                "must be positive"
            )
        u_hi = math.log(d)
    step = 1.0
    while (fd_lo := f_and_slope(u_hi - step))[0] > 0.0:
        step *= 2.0
        if step > 2.0**60:
            raise BracketFailureError("near-edge bracket expansion exhausted")
    u_root, residual = _newton_in_bracket(f_and_slope, u_hi - step, fd_lo, u_hi, fd_hi)
    res_tol = 1e-10 * (beta + math.exp(u_root))
    if not abs(residual) <= res_tol:
        raise BracketFailureError(
            f"root residual {residual!r} did not reach tolerance {res_tol!r}"
        )
    return u_root


def eigen_weight(params: ModelParams, ln_s: float) -> float:
    """Weight w of the eigenvalue e0 = e1 - a in the initial state's spectral
    measure, at ln s0 = ln(a / L), the root of the eigenvalue solve.

    w = 1 / (1 + integral of |V(x)|^2 / (x + a)^2), the residue of the
    resolvent: w = s / (s - gamma s dk_p/ds) at s = s0, taken as
    a / (a - L gamma s dk_p/ds) at a = exp(ln s0 + ln L), the float e0
    subtracts from e1.  The slope takes the eigenvalue equation's edge limit
    where s0 underflows; w is 1.0 at g2 = 0, 0.0 where a underflows, and
    strictly inside (0, 1) between.
    """
    model = params.coupling
    _closed_form_gate(model.family)
    a = math.exp(ln_s + math.log(model.cutoff))
    if ln_s > _EDGE_LN_S:
        s = math.exp(ln_s)
        s_dk = _k_unit_and_slope(model.family, s, _scaled_e1(s))[1]
    else:
        s_dk = _k_unit_and_slope(model.family, 0.0, -np.euler_gamma - ln_s)[1]
    # L gamma = g2 L^p, exact in the caller's units.
    return a / (a - model.strength_sq * model.cutoff ** model.family.power * s_dk)


def point_mass(params: ModelParams) -> tuple[ThresholdResult, float | None, float | None]:
    """The point part of the spectral measure, (threshold test, e0, w): (e2, 1.0)
    at zero coupling, (None, None) on the threshold (``marginal``), (None, 0.0)
    without a bound state, else the eigenvalue e0 < e1 and its
    ``eigen_weight``.  It is the package's one route to e0.

    Raises:
        BracketFailureError: the eigenvalue solve failed to bracket, converge
            or meet its residual tolerance.
    """
    check = threshold_check(params)
    if check.degenerate:
        return check, params.e2, 1.0
    if check.marginal:
        return check, None, None
    if not check.exists:
        return check, None, 0.0
    units = Units(params)
    ln_s = _solve_eigenvalue(units.model)
    return check, units.eigenvalue(ln_s), eigen_weight(params, ln_s)


def spectral_density(params: ModelParams, t):
    """Density rho(t) of the absolutely continuous spectral part at energies t
    (scalar or array; a float for a scalar).

    Zero for t <= e1 (at the edge itself every family gives the limit 0: for
    p >= 1 the numerator vanishes, at p = 0 the principal value diverges).
    """
    scalar = np.ndim(t) == 0
    units = Units(params)
    model = units.model
    xi = units.xi(np.atleast_1d(np.asarray(t, dtype=float)))
    inside = xi > 0.0
    xi = np.where(inside, xi, 1.0)
    v = coupling_sq(model.coupling, xi)
    shift = model.beta - xi - k_pv_closed(model, xi)
    # Terms times 2^n, n the exponent of 1 / gamma: exact, and squares of
    # gamma's size stay in range for any L.  A scaled shift beyond about 1e154
    # squares to inf, and v / inf = 0 is rho's exact limit there.
    n = -math.frexp(model.gamma)[1]
    with np.errstate(over="ignore"):
        v_n, shift_n = np.ldexp(v, n), np.ldexp(shift, n)
        denom = shift_n * shift_n + (math.pi * v_n) ** 2
        rho = np.divide(v_n, denom, out=np.zeros_like(v), where=inside & (v > 0.0))
        rho = units.down(np.ldexp(rho, n))
    return float(rho[0]) if scalar else rho


@dataclass(frozen=True)
class SpectralData:
    """Complete spectral data of one scenario.

    ``params`` is the model the data belongs to; the spectral transform
    evaluates rho from it exactly.  ``grid``/``density`` tabulate rho at the
    nodes the mass integration evaluated on [e1, e1 + TAIL_CUT * L].
    ``segments``/``segment_mass`` record the converged integration panels and
    their masses (the coarse partition the transform cuts into its panels).
    ``eigenvalue`` is None when no bound state exists; for the degenerate
    zero-coupling model it holds the surviving unperturbed level e2 with
    weight 1 (flagged via ``degenerate``), the one case where it is not
    below e1.  ``threshold_rhs`` is the threshold test's integral of |V|^2/x
    (the level gap it is compared with is ``params.level_gap``).
    ``normalization_defect`` is |weight + mass + tail - 1|, the tail being the
    density's estimated mass beyond the table.
    """

    params: ModelParams
    eigenvalue: float | None
    weight: float
    grid: np.ndarray
    density: np.ndarray
    segments: np.ndarray
    segment_mass: np.ndarray
    threshold_rhs: float
    normalization_defect: float
    degenerate: bool = False


_NORMALIZATION_GATE = 1e-4
# The density table's absolute tolerance on the integrated density, and its
# bisection budget.
_MASS_TOL = 1e-9
_MAX_PANELS = 12000


def _resonance_seeds(model: Canonical, bottom: float) -> np.ndarray:
    """Seed grid points across the resonance bump of the density, and the
    octaves from its center up to ``bottom``, the edge ladder's lowest seed."""
    center = model.beta - float(k_pv_closed(model, model.beta))
    if not 0.0 < center < TAIL_CUT:
        return np.empty(0)
    width = max(math.pi * coupling_sq(model.coupling, center), 1e-9)
    offsets = np.array([
        0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
    ])
    pts = center + width * np.concatenate([-offsets[:0:-1], offsets])
    octaves = center * 2.0 ** np.arange(1, math.ceil(math.log2(bottom / center)))
    return np.concatenate([pts[(pts > 0.0) & (pts < TAIL_CUT)], octaves])


def _edge_bump_seeds(family: CouplingFamily, s0: float | None) -> np.ndarray:
    """Seed the near-edge density bump mirroring a 2d eigenvalue at xi = -s0."""
    if s0 is None or family.power != 0 or not 0.0 < s0 < 1.0:
        return np.empty(0)
    pts = s0 * np.exp(np.linspace(-8.0, 8.0, 33))
    return pts[(pts > 0.0) & (pts < TAIL_CUT)]


def build_spectral_data(params: ModelParams) -> SpectralData:
    """Assemble eigenvalue, weight, and an adaptively refined density table.

    Eigenvalue and weight are ``point_mass``'s; at zero coupling they are the
    whole record, with an empty table.  The density is integrated over
    xi in [0, TAIL_CUT] with the Gauss-Kronrod machinery; panels are
    bisected until the integrated-mass error estimate is below 1e-9, with
    extra seed points placed geometrically against the edge, across the
    resonance bump, and (2d case) around the near-edge structure mirroring
    the eigenvalue.  All evaluated nodes become the table, at the caller's
    lambda = e1 + L xi and rho = rho~ / L.  The total measure must
    come out as a probability measure: a normalization defect above 1e-4
    raises.

    Raises:
        NonConvergenceError: the table needs more than 12000 bisections.
        NormalizationFailureError: |weight + mass + tail - 1| > 1e-4.
        ThresholdMarginalError: model numerically on threshold.
    """
    _check_tail(params)
    check, e0, weight = point_mass(params)
    if check.marginal:
        raise ThresholdMarginalError(
            "model sits on the bound-state threshold: |gap - rhs| = "
            f"{abs(params.level_gap - check.rhs)!r} is inside the {_MARGINAL_BAND} "
            "marginal band; spectral data is not resolvable"
        )
    if check.degenerate:
        empty = np.empty(0)
        return SpectralData(
            params, e0, weight, empty, empty, empty, empty,
            threshold_rhs=check.rhs, normalization_defect=0.0, degenerate=True,
        )

    units = Units(params)
    model = units.model
    ladder = _edges_toward(0.0, TAIL_CUT, levels=44)
    edges = np.unique(np.concatenate([
        ladder, np.linspace(0.0, TAIL_CUT, 25), _resonance_seeds(model, ladder[1]),
        _edge_bump_seeds(model.family, None if e0 is None else -units.xi(e0)),
    ]))

    # Every node the mass integration evaluates becomes part of the table, with
    # rho in the caller's units: over xi it integrates to mass / L, and it
    # stays in range where rho~ = L rho would overflow (L near 1e306).
    nodes: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def rho_batch(pts: np.ndarray) -> np.ndarray:
        rho = units.down(spectral_density(model.params, pts))
        nodes.append(pts)
        values.append(rho)
        return rho

    a, b, vals, _, _ = _refine(
        lambda x, _: rho_batch(x), [edges], units.down(_MASS_TOL), 0.0, _MAX_PANELS
    )
    rho_end = float(rho_batch(np.array([0.0, TAIL_CUT]))[1])
    table_t, first = np.unique(units.energy(np.concatenate(nodes)), return_index=True)
    table_rho = np.concatenate(values)[first]
    segment_mass = units.up(vals)
    mass = float(segment_mass.sum())
    tail = units.up(rho_end)  # the mass beyond xi = TAIL_CUT, where rho falls like e^{-xi}

    defect = abs(weight + mass + tail - 1.0)
    if not defect <= _NORMALIZATION_GATE:
        raise NormalizationFailureError(
            f"spectral measure normalization defect {defect!r} exceeds "
            f"{_NORMALIZATION_GATE}; quadrature inconsistent or eigenvalue missed"
        )
    return SpectralData(
        params=params,
        eigenvalue=e0,
        weight=weight,
        grid=table_t,
        density=table_rho,
        segments=units.energy(np.append(a, b[-1])),
        segment_mass=segment_mass,
        threshold_rhs=check.rhs,
        normalization_defect=defect,
    )
