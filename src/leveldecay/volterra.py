"""Independent time-domain route: memory-kernel integro-differential equation.

The solve is canonical (``coupling``): in tau = L t, with
y(tau) = C~(tau) * exp(i beta tau), the survival amplitude satisfies

    dy/dtau = integral over [0, tau] of K~(tau - sigma) y(sigma) d sigma,    y(0) = 1,

with the memory kernel K~(tau) = -exp(i beta tau) * F(tau), F the Fourier
transform of |V(xi)|^2 = gamma xi^p e^{-xi}: the closed form
F(tau) = gamma p! / (1 + i tau)^{p+1}, verified against direct oscillatory
quadrature before a family's first use, so a mismatch cannot silently
corrupt this route.  ``kernel`` and ``build_kernel_table`` take the
``Canonical`` model and tau; a caller's kernel is K(t) = L^2 K~(L t).
``solve_ide`` takes the caller's ``ModelParams``: it runs at the step L h and
forms C~ at tau = k L h; C(t) = e^{-i e1 t} C~(L t) is the model's ``phase``,
the spectral route's map, so a model's series is its canonical twin's.  No
spectral data enters anywhere, which is what makes the solution an
independent cross-check of the spectral route.

The stepper is trapezoidal convolution quadrature with a predictor-corrector
update (Heun), second-order accurate.  Each step needs the lagged history sum
over every earlier sample.  The steps are solved 1024 at a time: the Heun
recurrence is linear, so a chunk's unknowns meet one constant
lower-triangular Toeplitz matrix, whose inverse is built once per solve: its
first column by doubling, with direct convolutions (Brent & Kung 1978, J. ACM
25:581).  The inverse carries the lags between a chunk's own samples; every
other lag comes from a partitioned convolution of the solution with the
kernel (Gardner 1995, J. Audio Eng. Soc. 43:127), scheduled as a recursion
over blocks (Hairer, Lubich & Schlichte 1985, SIAM J. Sci. Stat. Comput.
6:532): a block of 8192, 65536, ... samples solves its eight sub-blocks in
turn, and before each sub-block it adds the lags into it of the sub-blocks
already solved, each through one kernel partition.  Every history product
is an FFT product: each sub-block of y is transformed once, each fixed
factor (the inverse, each kernel partition) once per solve, and each
sub-block after the first takes one inverse transform of its summed
spectra; the inverse's unit diagonal is applied exactly, outside its
product.  The unknowns are the increments y_m - y_{m-1}, not y: every chunk
reuses the inverse, so the rounding of its first column is a fixed error
that each chunk carries into all later ones, and that rounding scales with
the matrix's off-diagonal entries, small for the increments, of order one
for y.  Over 3000 steps a chunked solve for y drifts from an
extended-precision step-by-step recurrence by up to 3e-14, the increment
form by at most 4e-15.  A solve of N steps costs O(N log N log_8 N) and
gives the direct O(N^2) step-by-step recurrence to rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .coupling import (
    Canonical, CouplingFamily, CouplingModel, ModelParams, coupling_sq, l2_norm_sq,
)
from .evolution import AmplitudeSeries, MethodTag, check_probability
from .quadrature import _GL_W, _GL_X, NumericalError


class KernelMismatchError(NumericalError):
    """Closed-form kernel disagrees with direct quadrature of its definition."""


def _fourier_closed_form(model: CouplingModel, tau) -> np.ndarray:
    """Closed form of the |V|^2 Fourier transform over [0, inf) at the scaled
    time(s) tau = L t: the integral of |V|^2 over (1 + i tau)^{p+1}, divided
    by 1 + i tau one factor at a time where that power overflows."""
    denom = base = 1.0 + 1j * np.asarray(tau, dtype=float)
    l2 = l2_norm_sq(model)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(model.family.power):
            denom = denom * base
        out = l2 / denom
    far = ~np.isfinite(denom)
    if far.any():
        for _ in range(model.family.power + 1):
            l2 = l2 / base
        out = np.where(far, l2, out)
    return out


def kernel(model: Canonical, tau) -> complex | np.ndarray:
    """Memory kernel K~(tau) of the canonical model for tau >= 0 (scalar or
    array), via the closed form."""
    ta = np.asarray(tau, dtype=float)
    if np.any(ta < 0.0):
        raise ValueError("kernel requires tau >= 0")
    out = -np.exp(1j * model.beta * ta) * _fourier_closed_form(model.coupling, ta)
    return complex(out) if out.ndim == 0 else out


# The gate's quadrature truncates |V(xi)|^2 at xi = _GATE_TAIL_CUT.
_GATE_TAIL_CUT = 80.0


def _fourier_quad(model: CouplingModel, t: float) -> complex:
    """Direct oscillatory quadrature of the |V|^2 Fourier transform at one t,
    over [0, 80]: the transform's Gauss-Legendre rule on panels of at most
    one period."""
    width = _GATE_TAIL_CUT / 64.0
    if t != 0.0:
        width = min(width, 2.0 * math.pi / abs(t))
    n = int(math.ceil(_GATE_TAIL_CUT / width))
    edges = np.linspace(0.0, _GATE_TAIL_CUT, n + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    fx = coupling_sq(model, nodes.ravel()).reshape(nodes.shape)
    phase = np.exp(-1j * t * nodes)
    return complex(((fx * phase) @ _GL_W * half).sum())


@functools.cache
def _self_check(family: CouplingFamily) -> bool:
    """Gate a family's closed-form kernel against direct quadrature at
    gamma = 1 over 10 times in [0, 4], which covers every model of the family
    (F is gamma times a function of tau).  Raises ``KernelMismatchError`` on
    a deviation above 1e-8 * max(1, |value|).
    """
    model = CouplingModel(family, 1.0, 1.0)
    for t in np.linspace(0.0, 4.0, 10):
        cf = complex(_fourier_closed_form(model, t))
        quad = _fourier_quad(model, float(t))
        if abs(cf - quad) > 1e-8 * max(1.0, abs(cf)):
            raise KernelMismatchError(
                f"{family.value} closed-form kernel deviates from quadrature by "
                f"{abs(cf - quad)!r} at tau={t!r}; refusing to use it"
            )
    return True


def build_kernel_table(model: Canonical, horizon: float, step: float) -> np.ndarray:
    """Kernel samples K~(j h), j = 0..round(horizon / h), of the canonical
    model in tau, after the self-check gate.

    K~(0) = -gamma p!; the samples lie on the solver grid j * step.
    """
    if not (step > 0.0 and horizon >= step):
        raise ValueError("need step > 0 and horizon >= step")
    _self_check(model.family)
    n = int(round(horizon / step))
    return np.asarray(kernel(model, np.arange(n + 1) * step))


def default_step(params: ModelParams) -> float:
    """Default solver step: resolves both the cutoff and the level-gap scales."""
    return min(0.01 / params.coupling.cutoff, 0.01 / params.level_gap)


# Steps are solved in chunks of _CHUNK samples (see _chunk_operators).  A
# block of _RADIX L samples, L = _CHUNK _RADIX^l, solves its _RADIX
# sub-blocks in turn, and sub-block d takes the lags of each earlier
# sub-block c through the kernel partition of lags ((d - c - 1) L,
# (d - c + 1) L); every lag from before a chunk is summed once, in the one
# block where the two first share a parent.  Of the radices R = 4, 8, 16
# and 32, 8 timed fastest on solve pairs of 40,000 and 20,000 steps (2-vCPU
# machine); 16 was faster at 1e6 steps.  Besides K and y a solve keeps the
# lags into each block until it returns and the spectra that later
# sub-blocks need: near R L steps, up to R - 1 sub-blocks and R - 1
# partitions of 2L points each, as much as 4 (R - 1) / R arrays of the
# solve's length.
_CHUNK = 1024
_RADIX = 8


def _chunk_operators(k: np.ndarray, h: float, n: int):
    """The fixed parts of an n-step chunk solve: (delta, b, c, G, u).

    With s_m the trapezoid history sum of step m without its newest sample
    (s_0 = -K[0] y_0 / 2), the Heun step is

        y_m - y_{m-1} = delta y_{m-1} + b s_{m-1} + c s_m.

    Inside a chunk starting at M, y_j = y_{M-1} + (d_M + ... + d_j), so the
    unknown increments d meet a constant lower-triangular Toeplitz matrix T
    whose entries come from the kernel's partial sums G[l] = K[1] + ... + K[l].
    T^-1 is lower-triangular Toeplitz as well, so its first column ``u`` is
    all of it: it carries the lags between the chunk's own samples, and
    every other lag is in the chunk's known history.  ``k`` holds at least n
    samples.
    """
    k0 = complex(k[0])
    b = (0.5 * h + 0.25 * h**3 * k0) * h
    delta = 0.25 * h * h * k0 + b * 0.5 * k0
    c = 0.5 * h * h
    # Every chunk reuses G, so its rounding is a fixed bias on the kernel;
    # summing in extended precision rounds each G[l] once.
    g = np.zeros(n, dtype=complex)
    g[1:] = np.cumsum(k[1:n], dtype=np.clongdouble)
    t = np.empty(n, dtype=complex)
    t[0] = 1.0
    t[1:] = -delta - b * g[:-1] - c * g[1:]
    # First column of T^-1 by doubling (Brent & Kung 1978): with u that of
    # the leading j x j block's inverse, the next entries are -T_j^-1 (B u),
    # B the block below it, whose product with u is the "valid" part of a
    # convolution.  Direct products keep dot-product rounding.
    u = np.ones(1, dtype=complex)
    while (j := u.size) < n:
        m = min(j, n - j)
        below = np.convolve(t[1:j + m], u, "valid")
        u = np.concatenate([u, -np.convolve(u[:m], below)[:m]])
    return delta, b, c, g, u


def solve_ide(
    params: ModelParams, horizon: float, step: float | None = None, stride: int = 1
) -> AmplitudeSeries:
    """Solve the memory-kernel equation and return C(t) at every ``stride``-th step.

    The scheme and its cost are the module docstring's: chunks of 1024
    increments through the inverse of one Toeplitz matrix, the other lags
    from the partitioned history, where a block solves its sub-blocks in
    turn (``block``), and y[0]'s lags into the first chunk from exact
    products.  ``step`` defaults to ``default_step(params)``.  The overshoot
    budget on |C|^2 = |y|^2 is checked at every step before the output rows
    t = 0, stride h, 2 stride h, ... are taken, so a stride hides no
    overshoot.  C(t) is ``params.phase`` of the twin's C~ = e^{-i beta tau} y.
    """
    h = step if step is not None else default_step(params)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step must be positive and finite")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    if horizon < h:
        raise ValueError("horizon must cover at least one step")
    model = params.canonical
    h_tau = params.up(h)
    k = build_kernel_table(model, params.up(horizon), h_tau)
    n_steps = len(k) - 1
    y = np.empty(n_steps + 1, dtype=complex)
    y[0] = 1.0 + 0.0j
    # A solve shorter than one chunk sizes its operators to its own length.
    n = min(_CHUNK, n_steps + 1)
    delta, b, c, g, u = _chunk_operators(k, h_tau, n)
    u[0] = 0.0  # T^-1's unit diagonal: each chunk adds rhs itself to d
    # T^-1 (rhs) is a linear convolution of at most 2n - 1 terms, so a
    # 2n-point FFT does not wrap.
    u_hat = np.fft.fft(u, 2 * n)
    partitions = {}
    s_prev = complex(-0.5 * y[0] * k[0])

    def chunk(m: int, windows: list) -> None:
        nonlocal s_prev
        start, stop = max(m, 1), min(m + n, n_steps + 1)
        # s over the chunk, less the part T carries (the increments' own):
        # the end corrections -K[j] y[0] / 2, then the lags of every
        # earlier block, coarsest first.  No block holds y[0] before the
        # first chunk, so its lags there are exact products.
        s_known = -0.5 * y[0] * k[start:stop]
        if not m:
            s_known += y[0] * k[start:stop]
        for m0, lags in windows:
            s_known += lags[start - m0:stop - m0]
        r = stop - start
        y_last = y[start - 1]
        s_known += y_last * g[:r]
        rhs = c * s_known + delta * y_last
        rhs[0] += b * s_prev
        rhs[1:] += b * s_known[:-1]
        d = rhs + np.fft.ifft(np.fft.fft(rhs, 2 * n) * u_hat)[:r]
        np.cumsum(d, out=y[start:stop])
        y[start:stop] += y_last
        s_prev = complex(s_known[-1] + g[r - 1:0:-1] @ d[:r - 1])

    def block(m: int, size: int, windows: list) -> None:
        """Solve y[m:m + size], cut at the end of y, given ``windows``: the
        (start, lags) of every earlier block, coarsest first.

        Its sub-blocks of L = size / _RADIX are solved in turn, sub-block d
        with one more window: points [L - 1, 2L - 1), a middle product with
        nothing wrapped into them, of each earlier sub-block c's 2L-point
        spectrum times that of K[(d - c - 1) L + 1:(d - c + 1) L], summed.
        ``partitions`` holds a kernel partition's by (L, d - c) while a later
        sub-block at its level needs it."""
        if size == n:
            return chunk(m, windows)
        size //= _RADIX
        last = n_steps // size  # the last sub-block at this level that starts in y
        tail = last % _RADIX
        spectra = []
        for d in range(m // size, min(m // size + _RADIX, last + 1)):
            new = []  # the previous sub-block's window goes before this one's
            if d % _RADIX:
                final = d % _RADIX == _RADIX - 1 or d == last
                spectra.append(np.fft.fft(y[(d - 1) * size:d * size], 2 * size))
                acc = None
                for delta in range(len(spectra), 0, -1):
                    x = spectra.pop(0) if final else spectra[-delta]
                    t_hat = partitions.pop((size, delta), None)
                    if t_hat is None:
                        lo = (delta - 1) * size + 1
                        t_hat = np.fft.fft(k[lo:lo + 2 * size - 1], 2 * size)
                    # The last sub-block at this level with a source delta back.
                    if d < (last if tail >= delta else last - tail - 1):
                        partitions[size, delta] = t_hat
                    if acc is None:  # at the last sub-block x is at its last use
                        acc = np.multiply(x, t_hat, out=x) if final else x * t_hat
                    else:
                        acc += x * t_hat
                    del x, t_hat  # a spectrum at its last use goes before the next
                np.fft.ifft(acc, out=acc)
                n_out = min(size, n_steps + 1 - d * size)
                new = [(d * size, acc[size - 1:size - 1 + n_out].copy())]
                del acc
            block(d * size, size, windows + new)

    top = n
    while top <= n_steps:
        top *= _RADIX
    block(0, top, [])
    del block  # a cycle through itself: it would hold y and K to the next gc

    check_probability(MethodTag.VOLTERRA, np.abs(y) ** 2)
    rows = np.arange(0, n_steps + 1, stride)
    times = rows * h
    c = np.exp(-1j * model.beta * (rows * h_tau)) * y[::stride]
    return AmplitudeSeries(times, params.phase(c, times), MethodTag.VOLTERRA)
