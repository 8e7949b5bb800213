"""Coupling-function families |V(x)|^2 between the discrete level and the continuum.

Two exponential-cutoff families are provided, one per continuum geometry:

* ``TWO_DIM_EXP``:   |V(x)|^2 = g2 * exp(-x/L)        (nonzero at the edge x = 0)
* ``THREE_DIM_EXP``: |V(x)|^2 = g2 * x * exp(-x/L)    (vanishes linearly at x = 0)

Both are continuous, strictly positive on (0, inf) for g2 > 0, and square
integrable.  The exponential cutoff makes every downstream integral checkable
against a closed form, which is why these particular families were chosen.

Only |V|^2 enters any formula in this package, so the phase of V is never
modeled.  Natural units throughout (all energies and times dimensionless).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class CouplingFamily(enum.Enum):
    """Structural class of the coupling near the continuum edge x = 0."""

    TWO_DIM_EXP = "2d-exp"
    THREE_DIM_EXP = "3d-exp"


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
    decay = np.exp(-xa / model.cutoff)
    if model.family is CouplingFamily.THREE_DIM_EXP:
        out = model.strength_sq * xa * decay
    else:
        out = model.strength_sq * decay
    return float(out) if out.ndim == 0 else out


def l2_norm_sq(model: CouplingModel) -> float:
    """Closed form of the full-line norm integral of |V|^2 over [0, inf)."""
    if model.family is CouplingFamily.THREE_DIM_EXP:
        return model.strength_sq * model.cutoff**2
    return model.strength_sq * model.cutoff


def sq_over_x_integral(model: CouplingModel) -> float:
    """Closed form of the integral of |V(x)|^2 / x over [0, inf).

    For the 3d family this converges and equals g2 * L.  For the 2d family the
    integrand behaves like g2/x near zero and the integral diverges; ``inf`` is
    returned as an in-band divergence marker (not an error).  The zero-coupling
    model integrates to 0 for either family.
    """
    if model.strength_sq == 0.0:
        return 0.0
    if model.family is CouplingFamily.THREE_DIM_EXP:
        return model.strength_sq * model.cutoff
    return math.inf


def tail_mass(model: CouplingModel, x0: float) -> float:
    """Closed-form remainder of the |V|^2 integral beyond ``x0`` >= 0.

    Used to certify truncation of semi-infinite integrals: every integrand in
    this package is |V(x)|^2 times a factor bounded on the tail, so its
    truncation remainder is bounded by a multiple of this value.
    """
    if x0 < 0.0:
        raise ValueError("x0 must be nonnegative")
    decay = math.exp(-x0 / model.cutoff)
    if model.family is CouplingFamily.THREE_DIM_EXP:
        return model.strength_sq * model.cutoff * (x0 + model.cutoff) * decay
    return model.strength_sq * model.cutoff * decay

