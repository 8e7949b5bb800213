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
from typing import NamedTuple

import numpy as np
from scipy import special

from .coupling import (
    TAIL_CUT, Canonical, CouplingFamily, ModelParams, coupling_sq, sq_over_x_integral,
)
from .quadrature import (
    _EPS,
    NumericalError,
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


class ThresholdResult(NamedTuple):
    """Outcome of the bound-state threshold test, r = gamma (p - 1)! against beta.

    ``exists``: r > beta, the eigenvalue below the edge exists.  ``rhs`` is
    r L, the integral of |V|^2/x in the caller's units (``inf`` in 2d, where
    the eigenvalue always exists).  ``degenerate`` flags gamma = 0, where the
    unperturbed level e2 survives as a point mass.  ``marginal`` flags
    ``distance`` = |beta - r| < 1e-8, a band relative to L: numerically on the
    threshold, which downstream solvers refuse to resolve.
    """

    exists: bool
    rhs: float
    degenerate: bool = False
    marginal: bool = False
    distance: float = math.inf


_MARGINAL_BAND = 1e-8
# The tests at zero coupling, and every 2d test, read the same.
_DEGENERATE = ThresholdResult(exists=False, rhs=0.0, degenerate=True)
_DIVERGENT = ThresholdResult(exists=True, rhs=math.inf)


def threshold_check(model: Canonical, cutoff: float) -> ThresholdResult:
    """Decide whether the eigenvalue below the edge exists on (family, gamma, beta)
    of ``model`` alone; the caller's cutoff L only states ``rhs`` in its units."""
    family, gamma, beta = model
    if gamma == 0.0:
        return _DEGENERATE
    r = sq_over_x_integral(family, gamma, 1.0)
    if math.isinf(r):
        return _DIVERGENT
    distance = abs(beta - r)
    return ThresholdResult(r > beta, r * cutoff, False, distance < _MARGINAL_BAND, distance)


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
# ln 2 = hi + lo (Cody & Waite): m hi is exact for |m| < 2^11.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


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
    unit = Canonical(family, 1.0, 1.0)
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


def _eigen_equation(family, beta, gamma, u) -> tuple[float, float, float]:
    """F(u) = beta + s - gamma k_p(s), dF/du and s dk_p/ds at s = e^u.  Below
    u = -700, where s underflows, s = 0 and e^{s} E1(s) = -gamma_E - u."""
    s = math.exp(u)
    if u > _EDGE_LN_S:
        k, s_dk = _k_unit_and_slope(family, s, _scaled_e1(s))
    else:
        k, s_dk = _k_unit_and_slope(family, 0.0, -np.euler_gamma - u)
    return beta + s - gamma * k, s - gamma * s_dk, s_dk


def _newton_in_bracket(equation, lo, at_lo, hi, at_hi) -> tuple[float, tuple]:
    """Root u of an increasing F with F(lo) <= 0 <= F(hi), and ``equation``'s
    value there; ``at_lo`` and ``at_hi`` are its values (F, dF/du, ...) at
    the ends.

    Newton from the end with the smaller |F|; a step that would leave the
    bracket or is longer than half the step before the last one becomes
    bisection (the safeguard of Numerical Recipes' ``rtsafe``, Press et al.
    9.4).  A step shorter than the tolerance 1e-15 + 4 eps |u| means Newton
    has converged from one side, where F's rounding can hold it: it becomes a
    probe across the root of half the tolerance, doubled on each consecutive
    probe, so the bracket closes on the root from both sides.  Probes are
    exempt from the half-step rule and are not steps it compares with.  A
    bracket narrower than twice the tolerance is bisected, which closes it.
    Once it is closed, the end or secant point between them with the
    smallest |F| is returned.
    """
    u, at = (lo, at_lo) if -at_lo[0] < at_hi[0] else (hi, at_hi)
    step = before = math.inf  # the last step and the one before it, probes aside
    probes = 0  # consecutive probes across the root
    for _ in range(200):
        f, df = at[0], at[1]
        if f == 0.0:
            return u, at
        tol = 1e-15 + 4.0 * _EPS * abs(u)
        if hi - lo < tol:
            break
        newton = -f / df if df != 0.0 else math.inf
        if abs(newton) < tol:
            newton = math.copysign(0.5 * tol * 2.0**probes, newton)
            probes += 1
            ok = lo < u + newton < hi
        else:
            probes = 0
            ok = lo < u + newton < hi and abs(newton) <= 0.5 * abs(before)
        if ok and hi - lo >= 2.0 * tol:
            u += newton
            if not probes:
                before, step = step, newton
        else:
            before, step = step, 0.5 * (lo + hi) - u
            u += step
        at = equation(u)
        if at[0] < 0.0:
            lo, at_lo = u, at
        else:
            hi, at_hi = u, at
    else:
        raise BracketFailureError("root iteration did not converge in 200 steps")
    # Where F is steep in u, both ends can miss the root by a few ulps.
    f_lo, f_hi = at_lo[0], at_hi[0]
    u = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    if lo < u < hi and abs((at := equation(u))[0]) < min(-f_lo, f_hi):
        return u, at
    return (lo, at_lo) if -f_lo < f_hi else (hi, at_hi)


def _solve_eigenvalue(model: Canonical) -> tuple[float, float]:
    """ln s0 of the unique eigenvalue xi0 = -s0 of a canonical model the
    threshold test has found a bound state in (neither degenerate nor
    marginal), and the slope s dk/ds at the root, which the weight takes.

    F(s) is strictly increasing, positive for large s and negative toward the
    edge, so a sign-change bracket pins the root, solved in u = ln s, which
    holds distances that underflow as s: there k_p takes its edge asymptote.
    The far end of the bracket starts at s = beta and doubles; F > 0 is
    certain from s = sqrt(gamma p!) on, since gamma k_p(s) < gamma p! / s.
    The near end is tried at u_hi - max(d, 2 F / F'), twice the Newton step
    from u_hi or the reach d = 1, 2, 4, ... if that is longer; a trial with
    F > 0 becomes the new u_hi.  Where F is about linear in u, as in 2d
    toward the edge, twice the Newton step lands about as far past the root
    as u_hi is before it.  Newton steps in u on the slope s dk/ds,
    safeguarded as ``_newton_in_bracket`` says.  The root is certified by
    the residual gate |F| <= 1e-10 (beta + s), the scale of the terms F
    cancels.  ln s, not s, crosses the map to e0 and gives w.

    Raises:
        BracketFailureError: bracketing, iteration or residual tolerance failed.
    """
    family, gamma, beta = model
    _closed_form_gate(family)
    if math.isinf(beta / gamma):
        # 2d alone binds so weakly (3d needs gamma > beta): below u = -700
        # F = beta + gamma (gamma_E + u), whose root is below the float range.
        # s0 is 0 there, and s dk/ds its edge limit -1.
        return -math.inf, -1.0
    equation = functools.partial(_eigen_equation, family, beta, gamma)

    d = beta
    positive_from = math.sqrt(gamma * math.factorial(family.power))
    d_limit = 2.0 * max(positive_from, d)
    u_hi = math.log(d)
    while (at_hi := equation(u_hi))[0] < 0.0:
        d *= 2.0
        if d > d_limit:
            raise BracketFailureError(
                f"F < 0 at s = {d / 2.0!r}, beyond {positive_from!r} where it "
                "must be positive"
            )
        u_hi = math.log(d)
    reach = 1.0
    while True:
        f, df = at_hi[0], at_hi[1]
        u_lo = u_hi - (max(reach, 2.0 * f / df) if df > 0.0 else reach)
        if (at_lo := equation(u_lo))[0] <= 0.0:
            break
        u_hi, at_hi = u_lo, at_lo
        reach *= 2.0
        if reach > 2.0**60:
            raise BracketFailureError("near-edge bracket expansion exhausted")
    u_root, at = _newton_in_bracket(equation, u_lo, at_lo, u_hi, at_hi)
    res_tol = 1e-10 * (beta + math.exp(u_root))
    if not abs(at[0]) <= res_tol:
        raise BracketFailureError(
            f"root residual {at[0]!r} did not reach tolerance {res_tol!r}"
        )
    return u_root, at[2]


def eigen_weight(model: Canonical, ln_s: float, s_dk: float | None = None) -> float:
    """Weight w of the eigenvalue xi0 = -s0 of a canonical model, the twin's w
    of every caller's model, at the solve's root ln s0: the resolvent's residue
    w = s / (s - gamma s dk_p/ds) at s = exp(ln s0), 1.0 at gamma = 0.  Below
    the normal range s and gamma = f 2^m are both taken times 2^-m, with
    s 2^-m = exp((ln s0 - m ln2_hi) - m ln2_lo), so w keeps its digits where
    s0 underflows.  The slope s dk/ds is the eigenvalue equation's at ln s0,
    edge limit included; ``point_mass`` passes the solve's own, the same bits.
    """
    if s_dk is None:
        _closed_form_gate(model.family)
        # s dk/ds depends on neither beta nor gamma.
        s_dk = _eigen_equation(model.family, 0.0, 0.0, ln_s)[2]
    gamma, s = model.gamma, math.exp(ln_s)
    if s < 2.0**-1022:
        gamma, m = math.frexp(gamma)
        s = math.exp((ln_s - m * _LN2_HI) - m * _LN2_LO)
    return s / (s - gamma * s_dk)


def _point(family: CouplingFamily, g2: float, cutoff: float, e1: float,
           e2: float) -> tuple[ThresholdResult, float | None, float | None, float | None]:
    """``point_mass`` of the model (family, g2, L) at levels e1 < e2 from floats
    alone, and ln s0: the threshold test, solve and weight on one ``Canonical.of``
    the model, and the map of its ln s0 back to e0 = e1 - exp(ln s0 + ln L) (the
    closest float below e1 where that rounds to e1) in the caller's units."""
    model = Canonical.of(family, g2, cutoff, e2 - e1)
    check = threshold_check(model, cutoff)
    if check.degenerate:
        return check, e2, 1.0, None
    if check.marginal:
        return check, None, None, None
    if not check.exists:
        return check, None, 0.0, None
    ln_s, s_dk = _solve_eigenvalue(model)
    e0 = e1 - math.exp(ln_s + math.log(cutoff))
    if not e0 < e1:
        e0 = math.nextafter(e1, -math.inf)
    return check, e0, eigen_weight(model, ln_s, s_dk), ln_s


def point_mass(params: ModelParams) -> tuple[ThresholdResult, float | None, float | None]:
    """The point part of the spectral measure, (threshold test, e0, w): (e2, 1.0)
    at zero coupling, (None, None) on the threshold (``marginal``), (None, 0.0)
    without a bound state, else the eigenvalue e0 < e1 and its
    ``eigen_weight``.  It is the package's one route to e0, and its float
    core is every sweep row's (``scenario.sweep_points``).

    A ``ModelParams`` is certified when built, so nothing is refused here
    but a failed solve.

    Raises:
        BracketFailureError: the eigenvalue solve failed to bracket, converge
            or meet its residual tolerance.
    """
    c = params.coupling
    return _point(c.family, c.strength_sq, c.cutoff, params.e1, params.e2)[:3]


def spectral_density(model: Canonical, xi):
    """Density rho~(xi) of the canonical model's absolutely continuous
    spectral part (scalar or array; a float for a scalar).  A caller's
    density is rho(lambda) = rho~((lambda - e1) / L) / L.

    Zero for xi <= 0 (at the edge itself every family gives the limit 0: for
    p >= 1 the numerator vanishes, at p = 0 the principal value diverges).
    """
    scalar = np.ndim(xi) == 0
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
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
        rho = np.ldexp(rho, n)
    return float(rho[0]) if scalar else rho


@dataclass(frozen=True)
class SpectralData:
    """Complete spectral data of one scenario, tabulated in xi as its canonical twin's.

    ``params`` is the model the data belongs to; the spectral transform
    evaluates rho~ of its canonical twin exactly.  ``grid``/``density``
    tabulate rho~ = L rho at the nodes xi the mass integration evaluated on
    [0, TAIL_CUT].
    ``segments``/``segment_mass`` record the converged integration panels and
    their masses (the coarse partition the transform cuts into its panels).
    ``eigenvalue`` is None when no bound state exists; for the degenerate
    zero-coupling model it holds the surviving unperturbed level e2 with
    weight 1 (flagged via ``degenerate``), the one case where it is not
    below e1; ``xi0`` is it in xi.  ``threshold_rhs`` is the threshold test's
    ``rhs``, r L (the test compares r with beta = ``params.level_gap`` / L).
    ``normalization_defect`` is |weight + mass + tail - 1|, the tail being the
    density's estimated mass beyond the table.
    """

    params: ModelParams
    eigenvalue: float | None
    xi0: float | None
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


def _edge_bump_seeds(family: CouplingFamily, ln_s: float | None) -> np.ndarray:
    """Seed the near-edge density bump mirroring a 2d eigenvalue at xi = -s0 > -1,
    s0 = exp(ln s0) of the solve."""
    if ln_s is None or family.power != 0 or not ln_s < 0.0:
        return np.empty(0)
    pts = math.exp(ln_s) * np.exp(np.linspace(-8.0, 8.0, 33))
    return pts[(pts > 0.0) & (pts < TAIL_CUT)]


def build_spectral_data(params: ModelParams) -> SpectralData:
    """Assemble eigenvalue, weight, and an adaptively refined density table.

    Eigenvalue and weight are ``point_mass``'s; at zero coupling they are the
    whole record, with an empty table.  The canonical density rho~ is
    integrated over xi in [0, TAIL_CUT] with the Gauss-Kronrod machinery;
    panels are bisected until the integrated-mass error estimate is below
    1e-9, with extra seed points placed geometrically against the edge,
    across the resonance bump, and (2d case) around the near-edge structure
    mirroring the eigenvalue at s0 = exp(ln s0) of the solve.  All evaluated
    nodes become the table (xi, rho~), never mapped to the caller's units.
    The total measure must be a probability measure: a defect above 1e-4 raises.

    Raises:
        NonConvergenceError: the table needs more than 12000 bisections.
        NormalizationFailureError: |weight + mass + tail - 1| > 1e-4.
        ThresholdMarginalError: model numerically on threshold.
    """
    c = params.coupling
    check, e0, weight, ln_s = _point(c.family, c.strength_sq, c.cutoff, params.e1, params.e2)
    if check.marginal:
        raise ThresholdMarginalError(
            f"model sits on the bound-state threshold: |beta - r| = {check.distance!r} "
            f"is inside the {_MARGINAL_BAND} marginal band; spectral data is not resolvable"
        )
    model = params.canonical
    if check.degenerate:
        empty = np.empty(0)
        return SpectralData(
            params, e0, model.beta, weight, empty, empty, empty, empty,
            threshold_rhs=check.rhs, normalization_defect=0.0, degenerate=True,
        )

    ladder = _edges_toward(0.0, TAIL_CUT, levels=44)
    edges = np.unique(np.concatenate([
        ladder, np.linspace(0.0, TAIL_CUT, 25), _resonance_seeds(model, ladder[1]),
        _edge_bump_seeds(model.family, ln_s),
    ]))

    # Every node the mass integration evaluates becomes part of the table.  It
    # integrates rho~ 2^-n, n the exponent of 1 / gamma as in ``spectral_density``:
    # exact, and its panel sums stay in range at L = 1e306 (2d gamma = 1e-309).
    n = -math.frexp(model.gamma)[1]
    nodes: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def rho_batch(pts: np.ndarray) -> np.ndarray:
        nodes.append(pts)
        values.append(spectral_density(model, pts))
        return np.ldexp(values[-1], -n)

    a, b, vals, _, _ = _refine(
        lambda x, _: rho_batch(x), [edges], math.ldexp(_MASS_TOL, -n), 0.0, _MAX_PANELS
    )
    rho_batch(np.array([0.0, TAIL_CUT]))
    tail = float(values[-1][1])  # the mass beyond xi = TAIL_CUT, where rho~ falls like e^{-xi}
    segment_mass = np.ldexp(vals, n)
    defect = abs(weight + float(segment_mass.sum()) + tail - 1.0)
    if not defect <= _NORMALIZATION_GATE:
        raise NormalizationFailureError(
            f"spectral measure normalization defect {defect!r} exceeds "
            f"{_NORMALIZATION_GATE}; quadrature inconsistent or eigenvalue missed"
        )
    grid, first = np.unique(np.concatenate(nodes), return_index=True)
    return SpectralData(
        params, e0, None if ln_s is None else -math.exp(ln_s), weight, grid,
        np.concatenate(values)[first], np.append(a, b[-1]), segment_mass,
        threshold_rhs=check.rhs, normalization_defect=defect,
    )
