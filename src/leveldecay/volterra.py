"""Independent time-domain route: memory-kernel integro-differential equation.

The solve is canonical (``coupling``): in tau = L t, with
y(tau) = C~(tau) * exp(i beta tau), the survival amplitude satisfies

    dy/dtau = integral over [0, tau] of K(tau - sigma) y(sigma) d sigma,    y(0) = 1,

with the memory kernel K(tau) = -exp(i beta tau) * F(tau), F the Fourier
transform of |V(xi)|^2 = gamma xi^p e^{-xi}: the closed form
F(tau) = gamma p! / (1 + i tau)^{p+1}, verified against direct oscillatory
quadrature before a family's first use, so a mismatch cannot silently
corrupt this route.  It runs at the step L h; C(t) = e^{-i e1 t} C~(L t),
and the caller's kernel L^2 K(L t) has g2 L^{p+1} p! for gamma p!.  No
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
kernel, added ahead of time as each block completes (Gardner 1995, J. Audio
Eng. Soc. 43:127): on levels of blocks of 1024, 8192, 65536, ... samples,
each block of y meets the later blocks of its parent eight times its size
through one kernel partition each.  Every history product is an FFT
product: each block of y is transformed once, each fixed factor (the
inverse, each kernel partition) once per solve, and each target block takes
one inverse transform of its summed spectra; the inverse's unit diagonal is
applied exactly, outside its product.  The unknowns are the increments
y_m - y_{m-1}, not y: every chunk reuses the inverse, so the rounding of its
first column is a fixed error that each chunk carries into all later ones,
and that rounding scales with the matrix's off-diagonal entries, small for
the increments, of order one for y.  Over 3000 steps a chunked solve for y
drifts from an extended-precision step-by-step recurrence by up to 3e-14,
the increment form by at most 4e-15.  A solve of N steps costs
O(N log N log_8 N) and gives the direct O(N^2) step-by-step recurrence to
rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .coupling import CouplingFamily, CouplingModel, Units, coupling_sq, l2_norm_sq
from .evolution import AmplitudeSeries, MethodTag, check_probability
from .quadrature import _GL_W, _GL_X, NumericalError
from .spectrum import ModelParams


class KernelMismatchError(NumericalError):
    """Closed-form kernel disagrees with direct quadrature of its definition."""


def _fourier_closed_form(model: CouplingModel, tau) -> np.ndarray:
    """Closed form of the |V|^2 Fourier transform over [0, inf) at the scaled
    time(s) tau = L t: the integral of |V|^2 over (1 + i tau)^{p+1}."""
    denom = base = 1.0 + 1j * np.asarray(tau, dtype=float)
    for _ in range(model.family.power):
        denom = denom * base
    return l2_norm_sq(model) / denom


def kernel(params: ModelParams, t) -> complex | np.ndarray:
    """Memory kernel K(t) for t >= 0 (scalar or array), via the closed form."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0):
        raise ValueError("kernel requires t >= 0")
    tau = Units(params).up(ta)
    out = -np.exp(1j * params.level_gap * ta) * _fourier_closed_form(params.coupling, tau)
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


def build_kernel_table(params: ModelParams, horizon: float, step: float) -> np.ndarray:
    """Kernel samples K(j h), j = 0..round(horizon / h), after the self-check gate.

    K(0) = -l2_norm_sq; the samples lie on the solver grid j * step.
    """
    if not (step > 0.0 and horizon >= step):
        raise ValueError("need step > 0 and horizon >= step")
    _self_check(params.coupling.family)
    n = int(round(horizon / step))
    return np.asarray(kernel(params, np.arange(n + 1) * step))


def default_step(params: ModelParams) -> float:
    """Default solver step: resolves both the cutoff and the level-gap scales."""
    return min(0.01 / params.coupling.cutoff, 0.01 / params.level_gap)


# Steps are solved in chunks of _CHUNK samples (see _chunk_operators).  In
# the partitioned convolution level l has blocks of L = _CHUNK _RADIX^l
# samples, and for every pair of L-blocks c < d inside one _RADIX L parent,
# block d's history gains the lags of y's block c through the kernel
# partition of lags ((d - c - 1) L, (d - c + 1) L).  Two chunks first share a
# parent at exactly one level, so every lag from before a chunk is summed
# once.  Of the radices R = 4, 8, 16 and 32, 8 timed fastest on solve pairs of
# 40,000 and 20,000 steps (2-vCPU machine); 16 was faster at 1e6 steps.
# Besides K and y a solve keeps each level's lags for its current target
# block only, and the spectra that later targets need: near R L steps that
# is up to R - 1 blocks and R - 1 partitions of 2L points each, as much as
# 4 (R - 1) / R arrays of the solve's length.
_CHUNK = 1024
_RADIX = 8


def _target(m: int) -> tuple[int, int, int]:
    """The block that takes history at chunk start m > 0: (L, first, d).

    d = m / L, and L is the largest level block size that divides m, the one
    level at which d is not the first block of its _RADIX L parent; its
    sources are the blocks first ... d - 1 before it in that parent.
    """
    size = _CHUNK
    while m % (size * _RADIX) == 0:
        size *= _RADIX
    d = m // size
    return size, d - d % _RADIX, d


def _add_history(
    k: np.ndarray, y: np.ndarray, m: int, sources: dict, partitions: dict, windows: dict
) -> None:
    """Set ``windows[L]`` to (m, the lags into y[m:m + L] of earlier blocks).

    (L, first, d) = _target(m), and m is a chunk start.  For each source
    block c = first ... d - 1 the 2L-point spectrum of y[c L:(c + 1) L] meets
    that of the kernel partition K[(d - c - 1) L + j], 1 <= j < 2L, stored
    from index 0; points [L - 1, 2L - 1) of their product are a middle
    product, exact linear convolution with nothing wrapped into them.  The
    lags are cut at the end of y.  ``sources`` holds y's block spectra by
    (L, c) until the last target of their parent, ``partitions`` the
    kernel's by (L, d - c) while a later target needs them, so each goes
    with its last use.  The windows of this level and of every finer one
    end at m, and go here.
    """
    size, first, d = _target(m)
    n_fft = 2 * size
    last = (y.size - 1) // size  # the last block that starts in y
    tail = last % _RADIX
    final = d % _RADIX == _RADIX - 1 or d == last  # the parent's last target
    for key in [key for key in windows if key <= size]:
        del windows[key]  # this level's and every finer level's end at m
    acc = None
    for c in range(first, d):
        delta = d - c
        if c == d - 1:
            x = np.fft.fft(y[m - size:m], n_fft)
            if not final:
                sources[size, c] = x
        else:
            x = sources.pop((size, c)) if final else sources[size, c]
        t_hat = partitions.pop((size, delta), None)
        if t_hat is None:
            lo = (delta - 1) * size + 1
            t_hat = np.fft.fft(k[lo:lo + n_fft - 1], n_fft)
        # The last target at this level with a source delta blocks back.
        if d < (last if tail >= delta else last - tail - 1):
            partitions[size, delta] = t_hat
        if acc is None:  # at the parent's last target x is at its last use
            acc = np.multiply(x, t_hat, out=x) if final else x * t_hat
        else:
            acc += x * t_hat
        del x, t_hat  # a spectrum at its last use goes before the next
    np.fft.ifft(acc, out=acc)
    n_out = min(size, y.size - m)
    windows[size] = (m, acc[size - 1:size - 1 + n_out].copy())


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
    from the partitioned history of completed blocks (``_add_history``), and
    y[0]'s lags into the first chunk from exact products.  ``step`` defaults
    to ``default_step(params)``.  The overshoot budget on |C|^2 = |y|^2 is
    checked at every step before the output rows t = 0, stride h, 2 stride h,
    ... are taken, so a stride hides no overshoot.
    """
    h = step if step is not None else default_step(params)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step must be positive and finite")
    if stride < 1:
        raise ValueError("stride must be a positive integer")
    if horizon < h:
        raise ValueError("horizon must cover at least one step")
    units = Units(params)
    h_tau = units.up(h)
    k = build_kernel_table(units.model.params, units.up(horizon), h_tau)
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
    sources, partitions, windows = {}, {}, {}
    s_prev = complex(-0.5 * y[0] * k[0])
    for m in range(0, n_steps + 1, n):
        start, stop = max(m, 1), min(m + n, n_steps + 1)
        # s over the chunk, less the part T carries (the increments' own):
        # the end corrections -K[j] y[0] / 2, then the lags of every
        # completed block, coarsest level first.  No block holds y[0]
        # before the first chunk, so its lags there are exact products.
        s_known = -0.5 * y[0] * k[start:stop]
        if m:
            _add_history(k, y, m, sources, partitions, windows)
        else:
            s_known += y[0] * k[start:stop]
        for size in sorted(windows, reverse=True):
            m0, lags = windows[size]
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

    check_probability(MethodTag.VOLTERRA, np.abs(y) ** 2)
    times = np.arange(0, n_steps + 1, stride) * h
    # C(t) = e^{-i e2 t} y(L t), phase first: numpy's complex product is not
    # bitwise commutative, and this is the order the rows of every solve of
    # 16,384 steps or more have been computed in (numpy swapped the operands
    # of the full-grid product).
    amplitude = np.exp(-1j * params.e2 * times) * y[::stride]
    return AmplitudeSeries(times, amplitude, MethodTag.VOLTERRA)
