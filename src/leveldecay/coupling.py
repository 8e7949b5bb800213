"""Coupling-function families |V(x)|^2 between the discrete level and the continuum,
and the one map between a caller's units and the package's own.

Each family is one power law, |V(x)|^2 = g2 x^p exp(-x/L) with p = d - 2 for
a continuum of dimension d: ``TWO_DIM_EXP`` (p = 0) is nonzero at the edge
x = 0, ``THREE_DIM_EXP`` (p = 1) vanishes linearly there.  The integral of
|V|^2 over [0, inf) is g2 L^{p+1} p!, that of |V|^2 / x is g2 L^p (p - 1)!,
divergent at p = 0.  The exponential cutoff makes every downstream integral
checkable against a closed form, which is why these families were chosen.

Inside the package a model is ``Canonical`` (e1 = 0, L = 1): the family,
gamma = g2 L^{p-1} and beta = (e2 - e1) / L, on xi = (lambda - e1) / L and
tau = L t, with |V|^2 = gamma xi^p e^{-xi}.  The entry points that take a
caller's ``ModelParams`` map to and from it through ``Units``, which is exact
at e1 = 0, L = 1; inner code takes the ``Canonical`` it holds.  ``Canonical.of``
is that map from bare floats, so no model object is built per sweep point.

Only |V|^2 enters any formula in this package, so the phase of V is never
modeled.  Natural units throughout (all energies and times dimensionless).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class CouplingFamily(enum.Enum):
    """The coupling's power law: ``power`` is p = d - 2, d the value's leading digit."""

    TWO_DIM_EXP = "2d-exp"
    THREE_DIM_EXP = "3d-exp"

    def __init__(self, value: str) -> None:
        self.power = int(value[0]) - 2


@dataclass(frozen=True)
class CouplingModel:
    """One member of a coupling family: strength g2 >= 0 and cutoff scale L > 0.

    ``strength_sq`` is the squared coupling strength g2 (so g2 = 0 switches the
    interaction off); ``cutoff`` is the exponential decay scale L of |V|^2.
    """

    family: CouplingFamily
    strength_sq: float
    cutoff: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.strength_sq) and self.strength_sq >= 0.0):
            raise ValueError(f"strength_sq must be finite and >= 0, got {self.strength_sq!r}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise ValueError(f"cutoff must be finite and > 0, got {self.cutoff!r}")


def coupling_sq(model: CouplingModel, x):
    """Evaluate |V(x)|^2 at ``x`` (scalar or array), for x >= 0."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("coupling_sq requires x >= 0")
    out = model.strength_sq
    for _ in range(model.family.power):
        out = out * xa
    out = out * np.exp(-xa / model.cutoff)
    return float(out) if out.ndim == 0 else out


def l2_norm_sq(model: CouplingModel) -> float:
    """Closed form of the full-line norm integral of |V|^2 over [0, inf).

    L ** (p + 1) where it is finite, since the product L ... L differs from it
    in the last bit for some L; where it alone overflows, g2 L ... L p! in
    products, finite when g2 brings it back into range, inf otherwise.
    """
    p = model.family.power
    try:
        return model.strength_sq * model.cutoff ** (p + 1) * math.factorial(p)
    except OverflowError:
        out = model.strength_sq
        for _ in range(p + 1):
            out *= model.cutoff
        return out * math.factorial(p)


def sq_over_x_integral(family: CouplingFamily, g2: float, cutoff: float) -> float:
    """Closed form of the integral of |V(x)|^2 / x over [0, inf) for the
    model (family, g2, L).

    At p = 0 (2d) the integrand behaves like g2/x near zero and the integral
    diverges; ``inf`` is returned as an in-band divergence marker (not an
    error).  The zero-coupling model integrates to 0 for every family.
    """
    if g2 == 0.0:
        return 0.0
    rhs = g2 * cutoff if family.power else math.inf
    for n in range(1, family.power):
        rhs *= n * cutoff
    return rhs


def tail_mass(family: CouplingFamily, gamma: float, x0: float) -> float:
    """Closed-form remainder of the integral of gamma xi^p e^{-xi}, the canonical
    |V|^2 of strength gamma, beyond ``x0`` >= 0.

    Used to certify truncation of semi-infinite integrals: every integrand in
    this package is |V(xi)|^2 times a factor bounded on the tail, so its
    truncation remainder is bounded by a multiple of this value.  Products,
    not powers, so a remainder too large for a float is inf, not an error.
    """
    if x0 < 0.0:
        raise ValueError("x0 must be nonnegative")
    poly, x0_n = 1.0, 1.0
    for n in range(1, family.power + 1):
        x0_n *= x0
        poly = x0_n + n * poly
    return gamma * poly * math.exp(-x0)


# Every |V|^2 integral stops at xi = TAIL_CUT; ``certify_tail`` bounds the rest.
TAIL_CUT = 60.0
TAIL_TOL = 1e-10


def gamma_of(family: CouplingFamily, g2: float, cutoff: float) -> float:
    """gamma = g2 L^{p-1}, the strength of the coupling (family, g2, L) at L = 1."""
    return g2 / cutoff if family.power == 0 else g2 * cutoff ** (family.power - 1)


def certify_tail(coupling: CouplingModel) -> None:
    """The tail certificate: refuse a coupling whose cut TAIL_CUT L overflows (the
    maps to lambda need it), whose gamma underflows to 0 from g2 > 0 (it would
    read as no coupling), or whose remainder of gamma xi^p e^{-xi} / xi beyond
    xi = TAIL_CUT, a pure number rounded monotonically in gamma, exceeds TAIL_TOL
    (3d g2 < 1.1e16 at any L, 2d g2 / L < 6.9e17).  ``ModelParams`` runs it."""
    g2, cutoff = coupling.strength_sq, coupling.cutoff
    if not math.isfinite(TAIL_CUT * cutoff):
        raise ValueError(
            f"coupling g_sq={g2!r}, cutoff={cutoff!r}: truncated at x=inf, since "
            f"{TAIL_CUT!r} cutoffs overflow; x must be finite"
        )
    gamma = gamma_of(coupling.family, g2, cutoff)
    if g2 > 0.0 and not gamma > 0.0:
        raise ValueError(f"coupling g_sq={g2!r}, cutoff={cutoff!r}: gamma underflows to 0")
    bound = tail_mass(coupling.family, gamma, TAIL_CUT) / TAIL_CUT
    if not bound <= TAIL_TOL:
        raise ValueError(
            f"coupling g_sq={g2!r}, cutoff={cutoff!r}: truncated at x={TAIL_CUT * cutoff!r}, "
            f"remainder {bound!r}; x must be finite, the remainder <= {TAIL_TOL!r}"
        )


@dataclass(frozen=True)
class ModelParams:
    """One physical scenario: level energies e1 < e2 and the coupling model, one
    the package can solve.  Construction is the one model check and raises
    ValueError for levels that are not finite with e1 < e2, whose gap e2 - e1
    overflows, or whose gap over the cutoff L underflows to 0, and then for a
    coupling ``certify_tail`` refuses."""

    e1: float
    e2: float
    coupling: CouplingModel

    def __post_init__(self) -> None:
        e1, e2 = self.e1, self.e2
        if not (math.isfinite(e1) and math.isfinite(e2)):
            raise ValueError("level energies must be finite")
        if not e2 > e1:
            raise ValueError(f"e2 must exceed e1, got e1={e1!r}, e2={e2!r}")
        gap = e2 - e1
        if not math.isfinite(gap):
            raise ValueError(f"level gap e2 - e1 must be finite, got e1={e1!r}, e2={e2!r}")
        if not gap / self.coupling.cutoff > 0.0:
            raise ValueError(f"level gap {gap!r} over the cutoff underflows to 0")
        certify_tail(self.coupling)

    @property
    def level_gap(self) -> float:
        return self.e2 - self.e1

    @property
    def canonical(self) -> Canonical:
        c = self.coupling
        return Canonical.of(c.family, c.strength_sq, c.cutoff, self.level_gap)


class Canonical(NamedTuple):
    """A model at e1 = 0 and L = 1: the family, gamma and the level gap beta."""

    family: CouplingFamily
    gamma: float
    beta: float

    @classmethod
    def of(cls, family: CouplingFamily, g2: float, cutoff: float, gap: float) -> Canonical:
        """The canonical form of the caller's model (family, g2, L) at level
        gap e2 - e1: gamma = g2 L^{p-1}, beta = gap / L."""
        return cls(family, gamma_of(family, g2, cutoff), gap / cutoff)

    @property
    def coupling(self) -> CouplingModel:
        """|V(xi)|^2 = gamma xi^p e^{-xi}, the coupling at L = 1."""
        return CouplingModel(self.family, self.gamma, 1.0)


class Units:
    """The map between a caller's model (``coupling`` its |V|^2) and its
    ``Canonical`` form ``model``: lambda = e1 + L xi, tau = L t, rho = rho~ / L,
    k = L k~, a rate L r~, with gamma = g2 L^{p-1} and C(t) = e^{-i e1 t} C~(L t).
    Every result is the twin's, mapped here, but e0 = e1 - L s0, which
    ``spectrum.point_mass`` maps from ln s0, and the threshold's r L."""

    __slots__ = ("model", "e1", "coupling")

    def __init__(self, params: ModelParams) -> None:
        self.coupling = params.coupling
        self.model = params.canonical
        self.e1 = params.e1

    def up(self, x):
        return self.coupling.cutoff * x

    def down(self, x):
        return x / self.coupling.cutoff

    def xi(self, lam):
        return (lam - self.e1) / self.coupling.cutoff

    def energy(self, xi):
        return self.e1 + self.coupling.cutoff * xi

    def phase(self, c: np.ndarray, t: np.ndarray) -> np.ndarray:
        """C(t) from C~(L t): e^{-i e1 t} C~, none at e1 = 0."""
        return c * np.exp(-1j * self.e1 * t) if self.e1 else c
