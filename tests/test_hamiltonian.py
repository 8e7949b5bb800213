"""The paper's Hamiltonian, discretized: the level beta coupled to N continuum
states, against the package's threshold, e0 and w.

In the canonical model (e1 = 0, L = 1) the continuum carries the measure
xi^p e^{-xi} d xi, p = 0 in 2d and 1 in 3d.  Its N-point Gauss rule (nodes
xi_j, weights W_j) comes from Golub-Welsch: the eigenvalues of the Jacobi
matrix of the generalized Laguerre polynomials, diagonal 2k + p + 1 and
off-diagonal sqrt(k (k + p)), and the weights p! v_0^2 from the first
components of its eigenvectors.  This works at N = 400, where the
three-term recurrence of the polynomials themselves overflows.  The
discrete model is

    H_N = [[beta, v^T], [v, diag(xi_j)]],    v_j = sqrt(gamma W_j),

whose coupling gamma W_j at xi_j samples |V(xi)|^2 = gamma xi^p e^{-xi}.

Below the lowest node, E is an eigenvalue of H_N exactly when
beta - E = gamma sum_j W_j / (xi_j - E), whose right side is increasing in
E; so H_N has an eigenvalue below 0, and one only, exactly when
beta < gamma S, S = sum_j W_j / xi_j.  S is N / (N + 1) at p = 1, which
tends to (p - 1)! = 1, and the harmonic number H_N at p = 0, which diverges:
the paper's 3d threshold gamma (p - 1)! > beta and its 2d "always" are the
N -> infinity limits of these exact statements.

At N = 400 the lowest eigenvalue of H_N and the squared first component of
its eigenvector give e0 and w of ``point_mass`` for the verify models
3d-above-moderate (to rounding) and 2d-moderate (to 7e-10 relative).  The
models 2d-small and 3d-above-small bind too weakly for 400 nodes to resolve
them (at N = 400, e0 reads 80 and 6.4e-8 relative off), so they are left out.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from leveldecay import point_mass
from leveldecay.verification import MATRIX


def _laguerre_rule(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule of xi^p e^{-xi} on [0, inf)."""
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + p))
    jacobi = np.diag(2.0 * k + p + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, math.factorial(p) * vectors[0] ** 2


def _hamiltonian(p: int, n: int, gamma: float, beta: float) -> np.ndarray:
    """H_N of the module docstring, on the n-point rule of power p."""
    nodes, weights = _laguerre_rule(p, n)
    h = np.diag(np.concatenate([[beta], nodes]))
    h[0, 1:] = h[1:, 0] = np.sqrt(gamma * weights)
    return h


@pytest.mark.parametrize("n", [5, 10, 25, 50])
@pytest.mark.parametrize("p", [0, 1])
def test_the_rule_sums_one_over_xi_in_closed_form(p, n):
    # Measured at most 5.1e-14 relative (p = 0, N = 50).
    nodes, weights = _laguerre_rule(p, n)
    got = float(np.sum(weights / nodes))
    want = n / (n + 1) if p else math.fsum(1.0 / j for j in range(1, n + 1))
    assert abs(got - want) <= 1e-13 * want


@given(
    p=st.sampled_from([0, 1]),
    n=st.integers(3, 40),
    gamma=st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
    ratio=st.one_of(
        st.floats(-3.0, 3.0).map(lambda u: 10.0**u),
        st.floats(-1e-4, 1e-4).map(lambda d: 1.0 + d),
    ),
)
def test_a_level_below_zero_exactly_when_beta_is_below_gamma_s(p, n, gamma, ratio):
    nodes, weights = _laguerre_rule(p, n)
    s = float(np.sum(weights / nodes))
    beta = ratio * gamma * s
    assume(abs(beta / (gamma * s) - 1.0) >= 1e-6)
    below = int(np.sum(np.linalg.eigvalsh(_hamiltonian(p, n, gamma, beta)) < 0.0))
    assert below == int(beta < gamma * s)


@pytest.mark.parametrize("name, e0_rel, w_abs", [
    # Measured 3.3e-15 and 1.8e-15: rounding.
    ("3d-above-moderate", 1e-14, 1e-14),
    # Measured 6.6e-10 and 1.2e-9: the discretization at N = 400.
    ("2d-moderate", 1e-9, 2e-9),
])
def test_the_lowest_level_at_400_nodes_is_point_mass(name, e0_rel, w_abs):
    ms = next(ms for ms in MATRIX if ms.name == name)
    params = ms.scenario().params
    model = params.canonical
    _, e0, w = point_mass(params)
    energies, vectors = np.linalg.eigh(
        _hamiltonian(model.family.power, 400, model.gamma, model.beta)
    )
    assert abs(energies[0] - e0) <= e0_rel * abs(e0)
    assert abs(vectors[0, 0] ** 2 - w) <= w_abs
