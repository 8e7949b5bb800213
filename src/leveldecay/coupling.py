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
tau = L t, with |V|^2 = gamma xi^p e^{-xi}.  The public entry points map to and
from it through ``Units``, which is exact at e1 = 0, L = 1.

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


def sq_over_x_integral(model: CouplingModel) -> float:
    """Closed form of the integral of |V(x)|^2 / x over [0, inf).

    At p = 0 (2d) the integrand behaves like g2/x near zero and the integral
    diverges; ``inf`` is returned as an in-band divergence marker (not an
    error).  The zero-coupling model integrates to 0 for every family.
    """
    if model.strength_sq == 0.0:
        return 0.0
    rhs = model.strength_sq * model.cutoff if model.family.power else math.inf
    for n in range(1, model.family.power):
        rhs *= n * model.cutoff
    return rhs


def tail_mass(model: CouplingModel, x0: float) -> float:
    """Closed-form remainder of the |V|^2 integral beyond ``x0`` >= 0.

    Used to certify truncation of semi-infinite integrals: every integrand in
    this package is |V(x)|^2 times a factor bounded on the tail, so its
    truncation remainder is bounded by a multiple of this value.  Products,
    not powers, so a remainder too large for a float is inf, not an error.
    """
    if x0 < 0.0:
        raise ValueError("x0 must be nonnegative")
    poly, x0_n = 1.0, 1.0
    for n in range(1, model.family.power + 1):
        x0_n *= x0
        poly = x0_n + n * model.cutoff * poly
    return model.strength_sq * model.cutoff * poly * math.exp(-x0 / model.cutoff)


def certify_tail(model: CouplingModel, cut: float, tol: float) -> None:
    """Refuse a model whose |V|^2 integrals cannot be cut at a finite
    x = cut L with a tail remainder over x of at most ``tol``."""
    upper = cut * model.cutoff
    bound = tail_mass(model, upper) / upper
    if not (math.isfinite(upper) and bound <= tol):  # a NaN bound fails
        raise ValueError(
            f"coupling g_sq={model.strength_sq!r}, cutoff={model.cutoff!r}: truncated at x="
            f"{upper!r}, remainder {bound!r}; x must be finite, the remainder <= {tol!r}"
        )


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
        if not self.level_gap / self.coupling.cutoff > 0.0:
            raise ValueError(f"level gap {self.level_gap!r} over the cutoff underflows to 0")

    @property
    def level_gap(self) -> float:
        return self.e2 - self.e1


class Canonical(NamedTuple):
    """A model at e1 = 0 and L = 1: the family, gamma and the level gap beta."""

    family: CouplingFamily
    gamma: float
    beta: float

    @property
    def coupling(self) -> CouplingModel:
        """|V(xi)|^2 = gamma xi^p e^{-xi}, the coupling at L = 1."""
        return CouplingModel(self.family, self.gamma, 1.0)

    @property
    def params(self) -> ModelParams:
        """The model at e1 = 0, L = 1, where every entry point's map is exact."""
        return ModelParams(0.0, self.beta, self.coupling)


class Units:
    """The map between a caller's model (``coupling`` its |V|^2) and its
    ``Canonical`` form ``model``: lambda = e1 + L xi, tau = L t, rho = rho~ / L,
    k = L k~ with gamma = g2 L^{p-1}, e0 = e1 - L s0 from ln s0, w unchanged
    and C(t) = e^{-i e1 t} C~(L t)."""

    __slots__ = ("model", "e1", "coupling")

    def __init__(self, params: ModelParams) -> None:
        coupling = self.coupling = params.coupling
        g2, cutoff, p = coupling.strength_sq, coupling.cutoff, coupling.family.power
        gamma = g2 / cutoff if p == 0 else g2 * cutoff ** (p - 1)
        self.model = Canonical(coupling.family, gamma, params.level_gap / cutoff)
        self.e1 = params.e1

    def up(self, x):
        return self.coupling.cutoff * x

    def down(self, x):
        return x / self.coupling.cutoff

    def xi(self, lam):
        return (lam - self.e1) / self.coupling.cutoff

    def energy(self, xi):
        return self.e1 + self.coupling.cutoff * xi

    def eigenvalue(self, ln_s: float) -> float:
        """e1 - exp(ln s0 + ln L), or the closest float below e1 if it underflows."""
        e0 = self.e1 - math.exp(ln_s + math.log(self.coupling.cutoff))
        return e0 if e0 < self.e1 else float(np.nextafter(self.e1, -math.inf))

    def phase(self, c: np.ndarray, t: np.ndarray) -> np.ndarray:
        """C(t) from C~(L t): e^{-i e1 t} C~, none at e1 = 0."""
        return c * np.exp(-1j * self.e1 * t) if self.e1 else c
