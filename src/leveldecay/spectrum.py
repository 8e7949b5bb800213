"""Spectral data of the coupled level-continuum system.

For level energies e1 < e2 and a coupling model, the spectrum consists of an
absolutely continuous part covering [e1, inf) with density rho, plus at most
one simple eigenvalue e0 < e1.  The eigenvalue solves

    e2 - lam = k(lam),    k(lam) = integral of |V(x)|^2 / (x + e1 - lam),

exists always at p = 0 (2d: k diverges at the edge) and, for p >= 1,
exactly when e2 - e1 is smaller than the integral of |V(x)|^2 / x.
Its weight in the spectral measure of the initial excited state is the
residue w = 1 / (1 + dk/dlam) of the resolvent at e0, and the density is

    rho(t) = |V(t - e1)|^2 / [(e2 - t - PV k(t))^2 + pi^2 |V(t - e1)|^4]

for t > e1, zero below.  The measure is normalized: w plus the integrated
density equals 1, which every assembled table is checked against.

For |V|^2 = g2 x^p e^{-x/L}, k and PV k are g2 L^p times closed forms in the
exponential integrals Ei and E1 (Abramowitz & Stegun 5.1) of s, the distance
from the edge in units of L, so e0, w and rho are computed from those.  Each
is one step up in p, and so is the slope s k' = s dk/ds that Newton steps on:

    k_0 = e^{s} E1(s),     k_{n+1} = n! - s k_n,
    P_0 = -e^{-s} Ei(s),   P_{n+1} = n! + s P_n      (PV k),
    s k_0' = s k_0 - 1,    s k_{n+1}' = s (n! - (n + 1 + s) k_n).

The weight integral dk/dlam, of |V(x)|^2 / (x + e1 - lam)^2, is read from
that slope.  Before a family's closed forms are first used, k, PV k and that
slope must agree with adaptive quadrature to a relative 1e-8 at twelve
points; the gate refines those 36 integrals in one batched pass
(``quadrature.gate_integrals``).  A mismatch raises ``ClosedFormMismatchError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .coupling import CouplingFamily, CouplingModel, coupling_sq, sq_over_x_integral
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
class ModelParams:
    """One physical scenario: level energies e1 < e2 and the coupling model."""

    e1: float
    e2: float
    coupling: CouplingModel

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e1) and math.isfinite(self.e2)):
            raise ValueError("level energies must be finite")
        if not self.e2 > self.e1:
            raise ValueError(f"e2 must exceed e1, got e1={self.e1!r}, e2={self.e2!r}")
        if not math.isfinite(self.level_gap):
            raise ValueError(
                f"level gap e2 - e1 must be finite, got e1={self.e1!r}, e2={self.e2!r}"
            )

    @property
    def level_gap(self) -> float:
        return self.e2 - self.e1


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


# The closed forms at g2 = L = 1 in the scaled distance s from the edge, by
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


def _k_scale(model: CouplingModel) -> float:
    """g2 L^p, the factor between k (or PV k) and its g2 = L = 1 form."""
    scale = model.strength_sq
    for _ in range(model.family.power):
        scale *= model.cutoff
    return scale


@functools.lru_cache(maxsize=None)
def _closed_form_gate(family: CouplingFamily) -> bool:
    """Gate one family's closed forms against adaptive quadrature.

    Every closed form is a power of L times g2 times a function of s alone, so
    one check at g2 = L = 1 over s in [1e-8, 1e3] covers every model of the
    family.  The quadrature side is ``gate_integrals``: all 36 adaptive
    integrals in one pass.  Raises ``ClosedFormMismatchError`` on a relative
    deviation above 1e-8, so values far below 1, such as the weight integral
    at s = 1e3 (about 1e-6), are checked to the same digits as the rest.
    """
    params = ModelParams(0.0, 1.0, CouplingModel(family, 1.0, 1.0))
    k, pv, weight = (q.tolist() for q in gate_integrals(params, _GATE_POINTS))
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


def k_pv_closed(params: ModelParams, t):
    """Principal value of k at energies t > e1 (scalar or array), in closed form."""
    model = params.coupling
    _closed_form_gate(model.family)
    s = (np.asarray(t, dtype=float) - params.e1) / model.cutoff
    return _k_scale(model) * _pv_k_unit(model.family, s)


def _eigen_equation(family, gap, scale, ln_cutoff, u) -> tuple[float, float]:
    """F(u) = gap + e^u - g2 L^p k_unit(s) and dF/du at s = e^u / L.  Below
    ln s = -700, where s underflows, s = 0 and e^{s} E1(s) = -gamma - ln s."""
    ln_s = u - ln_cutoff
    if ln_s > _EDGE_LN_S:
        s = math.exp(ln_s)
        k, s_dk = _k_unit_and_slope(family, s, _scaled_e1(s))
    else:
        k, s_dk = _k_unit_and_slope(family, 0.0, -np.euler_gamma - ln_s)
    a = math.exp(u)
    return gap + a - scale * k, a - scale * s_dk


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


def _solve_eigenvalue(params: ModelParams) -> float:
    """The unique eigenvalue e0 < e1 of a model the threshold test has found a
    bound state in (neither degenerate nor marginal).

    With a = e1 - lam, F = e2 - lam - k(lam) = gap + a - k(e1 - a) is strictly
    increasing in a, positive for large a and negative toward the edge, so a
    sign-change bracket pins the root uniquely.  The root is solved in
    u = ln a on the closed form of k, which stays well conditioned down to
    distances that underflow double precision: there k takes its edge
    asymptote.  The far end of the bracket starts at a = e2 - e1 and
    doubles; F > 0 is certain from a = sqrt(integral of |V|^2) on, since
    k(e1 - a) < (integral of |V|^2) / a, so the search gives up only beyond
    twice the larger of that bound and the level gap.  The near end steps
    toward the edge in u by doubling steps.  Inside the bracket Newton
    steps in u on the slope s dk/ds, safeguarded by bisection and closed by
    a probe across the root once Newton has converged from one side, run
    until the bracket is narrower than 1e-15 + 4 eps |u|.  The root is
    certified by the residual gate |F| <= 1e-10 max(1, gap + a), the scale
    of the terms F cancels, which does not use the slope.

    Raises:
        BracketFailureError: bracketing, iteration or residual tolerance failed.
    """
    model = params.coupling
    _closed_form_gate(model.family)
    gap = params.level_gap
    scale = _k_scale(model)
    f_and_slope = functools.partial(
        _eigen_equation, model.family, gap, scale, math.log(model.cutoff)
    )

    d = gap
    # sqrt(g2 L^{p+1} p!) in products, which overflow to inf, not to an error.
    positive_from = math.sqrt(scale * model.cutoff * math.factorial(model.family.power))
    d_limit = 2.0 * max(positive_from, d)
    u_hi = math.log(d)
    while (fd_hi := f_and_slope(u_hi))[0] < 0.0:
        d *= 2.0
        if d > d_limit:
            raise BracketFailureError(
                f"F < 0 at a = {d / 2.0!r}, beyond {positive_from!r} where it "
                "must be positive"
            )
        u_hi = math.log(d)
    step = 1.0
    while (fd_lo := f_and_slope(u_hi - step))[0] > 0.0:
        step *= 2.0
        if step > 2.0**60:
            raise BracketFailureError("near-edge bracket expansion exhausted")
    u_root, residual = _newton_in_bracket(f_and_slope, u_hi - step, fd_lo, u_hi, fd_hi)
    res_tol = 1e-10 * max(1.0, gap + math.exp(u_root))
    if not abs(residual) <= res_tol:
        raise BracketFailureError(
            f"root residual {residual!r} did not reach tolerance {res_tol!r}"
        )
    e0 = params.e1 - math.exp(u_root)
    if not e0 < params.e1:
        # Distance to the edge underflows; report the closest float below e1.
        e0 = float(np.nextafter(params.e1, -math.inf))
    return e0


def eigen_weight(params: ModelParams, e0: float) -> float:
    """Weight w of the eigenvalue e0 in the initial state's spectral measure.

    w = 1 / (1 + integral of |V(x)|^2 / (x + a)^2) with a = e1 - e0, the
    residue of the resolvent.  The integral is -dk/da, so with s = a / L,
    w = a / (a - g2 L^p s dk/ds), strictly inside (0, 1) for g2 > 0, from
    the slope the eigenvalue solve steps on.  For distances below
    the double-precision representability floor (a < 1e-280, reachable only
    for extremely weak 2d couplings) the weight underflows and 0.0 is
    returned.
    """
    model = params.coupling
    if model.strength_sq == 0.0:
        return 1.0
    a = params.e1 - e0
    if not a > 0.0:
        raise ValueError(f"eigen_weight requires e0 < e1, got e0={e0!r}")
    if a < 1e-280:
        return 0.0
    _closed_form_gate(model.family)
    s = a / model.cutoff
    # Where s underflows to 0, e^s E1(s) takes its edge asymptote, as in the solve.
    e = _scaled_e1(s) if s > 0.0 else math.log(model.cutoff) - math.log(a) - np.euler_gamma
    s_dk = _k_unit_and_slope(model.family, s, e)[1]
    return a / (a - _k_scale(model) * s_dk)


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
    e0 = _solve_eigenvalue(params)
    return check, e0, eigen_weight(params, e0)


def spectral_density(params: ModelParams, t):
    """Density rho(t) of the absolutely continuous spectral part at energies t
    (scalar or array; a float for a scalar).

    Zero for t <= e1 (at the edge itself every family gives the limit 0: for
    p >= 1 the numerator vanishes, at p = 0 the principal value diverges).
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    inside = t > params.e1
    t_in = np.where(inside, t, params.e1 + params.coupling.cutoff)
    v = coupling_sq(params.coupling, t_in - params.e1)
    denom_shift = params.e2 - t_in - k_pv_closed(params, t_in)
    # A shift beyond about 1e154 squares to inf, and v / inf = 0 is rho's
    # exact limit there.
    with np.errstate(over="ignore"):
        denom = denom_shift * denom_shift + (math.pi * v) ** 2
    rho = np.divide(v, denom, out=np.zeros_like(v), where=inside & (v > 0.0))
    return float(rho[0]) if scalar else rho


@dataclass(frozen=True)
class SpectralData:
    """Complete spectral data of one scenario.

    ``params`` is the model the data belongs to; the spectral transform
    evaluates rho from it exactly.  ``grid``/``density`` tabulate rho at the
    nodes the mass integration evaluated on [e1, e1 + TAIL_CUT * cutoff].
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


def _resonance_seeds(params: ModelParams, lam_max: float) -> np.ndarray:
    """Seed grid points across the resonance bump of the density."""
    center = params.e2 - float(k_pv_closed(params, params.e2))
    if not params.e1 < center < lam_max:
        return np.empty(0)
    width = math.pi * coupling_sq(params.coupling, center - params.e1)
    width = max(width, 1e-9 * params.coupling.cutoff)
    offsets = np.array([
        0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
    ])
    pts = center + width * np.concatenate([-offsets[:0:-1], offsets])
    return pts[(pts > params.e1) & (pts < lam_max)]


def _edge_bump_seeds(
    params: ModelParams, e0: float | None, lam_max: float
) -> np.ndarray:
    """Seed the near-edge density bump mirroring a 2d eigenvalue at e1 - a0."""
    if e0 is None or params.coupling.family.power != 0:
        return np.empty(0)
    a0 = params.e1 - e0
    if not 0.0 < a0 < params.coupling.cutoff:
        return np.empty(0)
    pts = params.e1 + a0 * np.exp(np.linspace(-8.0, 8.0, 33))
    return pts[(pts > params.e1) & (pts < lam_max)]


def build_spectral_data(params: ModelParams) -> SpectralData:
    """Assemble eigenvalue, weight, and an adaptively refined density table.

    Eigenvalue and weight are ``point_mass``'s; at zero coupling they are the
    whole record, with an empty table.  The density is integrated over
    [e1, e1 + TAIL_CUT * cutoff] with the Gauss-Kronrod machinery; panels are
    bisected until the integrated-mass error estimate is below 1e-9, with
    extra seed points placed geometrically against the edge, across the
    resonance bump, and (2d case) around the near-edge structure mirroring
    the eigenvalue.  All evaluated nodes become the table.  The total measure
    must come out as a probability measure: a normalization defect above 1e-4
    raises.

    Raises:
        NonConvergenceError: the table needs more than 12000 bisections.
        NormalizationFailureError: |weight + mass + tail - 1| > 1e-4.
        ThresholdMarginalError: model numerically on threshold.
    """
    _check_tail(params, 0.0)
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

    e1 = params.e1
    lam_max = e1 + TAIL_CUT * params.coupling.cutoff
    seeds = [
        _edges_toward(e1, lam_max, levels=44),
        np.linspace(e1, lam_max, 25),
        _resonance_seeds(params, lam_max),
        _edge_bump_seeds(params, e0, lam_max),
    ]
    edges = np.unique(np.concatenate(seeds))

    # Every node the mass integration evaluates becomes part of the table.
    nodes: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def rho_batch(pts: np.ndarray) -> np.ndarray:
        rho = spectral_density(params, pts)
        nodes.append(pts)
        values.append(rho)
        return rho

    a, b, vals, _, _ = _refine(
        lambda x, _: rho_batch(x), [edges], _MASS_TOL, 0.0, _MAX_PANELS
    )
    rho_end = spectral_density(params, lam_max)
    nodes.append(np.array([e1, lam_max]))
    values.append(np.array([0.0, rho_end]))
    table_t, first = np.unique(np.concatenate(nodes), return_index=True)
    table_rho = np.concatenate(values)[first]
    mass = float(vals.sum())
    tail = rho_end * params.coupling.cutoff

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
        segments=np.append(a, b[-1]),
        segment_mass=vals,
        threshold_rhs=check.rhs,
        normalization_defect=defect,
    )
