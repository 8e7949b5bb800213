"""40-digit references for the eigenvalue solve and the weight.

    python tests/eigen_reference.py [INDEX ...]

For each canonical model (family, gamma, beta) at e1 = 0 and L = 1, solves
F(u) = beta + s - gamma k_p(s) = 0 in u = ln s with mpmath at 50 digits, and
prints the row ``test_eigen_reference.py`` freezes: the family, gamma and
beta, then ln s0 and w = s / F'(u0) to 40 digits, and F'(u0), the slope
that scales the solve's error bound, as a float.  With indices, only those
rows are printed.  Nothing here imports the package: k_0 = e^s E1(s) is
mpmath's, and k_1 = 1 - s k_0, s k_0' = s k_0 - 1 and s k_1' = -s (k_0 +
s k_0') are exact identities.  The root is bisected on a bracket whose far
end s = sqrt(gamma p!) + 1 is past the root (gamma k_p(s) < gamma p! / s)
and whose near end halves in u until F < 0.  The file name keeps pytest from
collecting it; mpmath is a test dependency.

The models: 2d at gamma / beta from 1e-3 (u0 about -1000, where s0 and w
underflow in double precision) to 3, and 3d from gamma = (1 + 1e-4) beta,
just above the threshold gamma = beta, to 5 beta, at beta in {1, 0.5, 2}.
"""

from __future__ import annotations

import sys

import mpmath as mp

_RATIOS_2D = (1e-3, 1.5e-3, 2e-3, 3e-3, 5e-3, 7e-3, 1e-2, 1.5e-2, 2e-2, 3e-2, 5e-2,
              7e-2, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0)
_EXCESS_3D = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5,
              2.0, 2.5, 3.0, 3.5, 4.0)
_BETAS = (1.0, 0.5, 2.0)
MODELS = tuple(
    [("2d-exp", r * _BETAS[i % 3], _BETAS[i % 3]) for i, r in enumerate(_RATIOS_2D)]
    + [("3d-exp", (1.0 + x) * _BETAS[i % 3], _BETAS[i % 3]) for i, x in enumerate(_EXCESS_3D)]
)


def _k_and_slope(power: int, s):
    """k_p(s) and s dk_p/ds."""
    k = mp.exp(s) * mp.e1(s)
    s_dk = s * k - 1
    if power == 1:
        k, s_dk = 1 - s * k, -s * (k + s_dk)
    return k, s_dk


def reference(family: str, gamma: float, beta: float):
    """(ln s0, w, F'(u0)) of one canonical model, at mpmath's working precision."""
    power = 0 if family == "2d-exp" else 1
    gamma, beta = mp.mpf(gamma), mp.mpf(beta)

    def f(u):
        s = mp.exp(u)
        return beta + s - gamma * _k_and_slope(power, s)[0]

    hi = mp.log(mp.sqrt(gamma * mp.factorial(power)) + 1)
    lo = hi - 1
    while f(lo) >= 0:
        lo = hi - 2 * (hi - lo)
    while hi - lo > mp.mpf(10) ** (-mp.mp.dps + 5) * max(1, abs(lo)):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    u = (lo + hi) / 2
    s = mp.exp(u)
    slope = s - gamma * _k_and_slope(power, s)[1]
    return u, s / slope, slope


def row(family: str, gamma: float, beta: float) -> str:
    u, w, slope = reference(family, gamma, beta)
    return (f'    ("{family}", {gamma!r}, {beta!r}, "{mp.nstr(u, 40)}", '
            f'"{mp.nstr(w, 40)}", {float(slope)!r}),')


def main(argv: list[str]) -> int:
    mp.mp.dps = 50
    for i in map(int, argv) if argv else range(len(MODELS)):
        print(row(*MODELS[i]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
