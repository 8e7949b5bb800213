"""Independent time-domain route: memory-kernel integro-differential equation.

With y(t) = C(t) * exp(i e2 t), the survival amplitude satisfies

    dy/dt = integral over [0, t] of K(t - s) y(s) ds,    y(0) = 1,

with the memory kernel K(t) = -exp(i (e2 - e1) t) * F(t), F the Fourier
transform of |V|^2 over the continuum.  For the built-in exponential families
F has a closed form (a rational function of 1 + i L t), which is verified
against direct oscillatory quadrature before a family's first use, so a
mismatch cannot silently corrupt this route.  No spectral data enters
anywhere, which is what makes the solution an independent cross-check of the
spectral route.

The stepper is trapezoidal convolution quadrature with a predictor-corrector
update (Heun), second-order accurate.  Each step needs the lagged history sum
over every earlier sample.  The steps are solved 1024 at a time: the Heun
recurrence is linear, so a chunk's unknowns meet one constant
lower-triangular Toeplitz matrix, whose inverse is built once per solve: its
first column by doubling, with direct convolutions (Brent & Kung 1978, J. ACM
25:581).  The inverse carries the lags between a chunk's own samples; every
other lag comes from dyadic bands of aligned blocks of the solution, added
ahead of time as each block completes (Hairer, Lubich & Schlichte 1985, SIAM
J. Sci. Stat. Comput. 6:532): lags [1, 2048) of each 1024-sample block, and
lags [L, 2L) of each L-sample block for L = 2048, 4096, ...  Every history
product is an FFT product whose fixed factor (the inverse, each band of the
kernel) is transformed once per solve; the inverse's unit diagonal is applied
exactly, outside its product.  The unknowns are the increments
y_m - y_{m-1}, not y: every chunk reuses the inverse, so the rounding of its
first column is a fixed error that each chunk carries into all later ones,
and that rounding scales with the matrix's off-diagonal entries, small for
the increments, of order one for y.  Over 3000 steps a chunked solve for y
drifts from an extended-precision step-by-step recurrence by up to 3e-14,
the increment form by at most 4e-15.  A solve of N steps costs
O(N log^2 N) and gives the direct O(N^2) step-by-step recurrence to
rounding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .coupling import CouplingFamily, CouplingModel, coupling_sq
from .evolution import AmplitudeSeries, MethodTag, _next_fast_len, check_probability
from .quadrature import _GL_W, _GL_X, NumericalError
from .spectrum import ModelParams


class KernelMismatchError(NumericalError):
    """Closed-form kernel disagrees with direct quadrature of its definition."""


def _fourier_closed_form(model: CouplingModel, t) -> np.ndarray:
    """Closed form of the |V|^2 Fourier transform over [0, inf) at time(s) t."""
    t = np.asarray(t, dtype=float)
    denom = 1.0 + 1j * model.cutoff * t
    if model.family is CouplingFamily.THREE_DIM_EXP:
        return model.strength_sq * model.cutoff**2 / (denom * denom)
    return model.strength_sq * model.cutoff / denom


def kernel(params: ModelParams, t) -> complex | np.ndarray:
    """Memory kernel K(t) for t >= 0 (scalar or array), via the closed form."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0.0):
        raise ValueError("kernel requires t >= 0")
    out = -np.exp(1j * params.level_gap * ta) * _fourier_closed_form(params.coupling, ta)
    return complex(out) if out.ndim == 0 else out


# The gate's quadrature truncates |V|^2 at _GATE_TAIL_CUT cutoffs.
_GATE_TAIL_CUT = 80.0


def _fourier_quad(model: CouplingModel, t: float) -> complex:
    """Direct oscillatory quadrature of the |V|^2 Fourier transform at one t:
    the transform's Gauss-Legendre rule on panels of at most one period."""
    upper = _GATE_TAIL_CUT * model.cutoff
    width = upper / 64.0
    if t != 0.0:
        width = min(width, 2.0 * math.pi / abs(t))
    n = int(math.ceil(upper / width))
    edges = np.linspace(0.0, upper, n + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    fx = coupling_sq(model, nodes.ravel()).reshape(nodes.shape)
    phase = np.exp(-1j * t * nodes)
    return complex(((fx * phase) @ _GL_W * half).sum())


@functools.cache
def _self_check(family: CouplingFamily) -> bool:
    """Gate a family's closed-form kernel against direct quadrature.

    F(t) = g2 L^(p+1) F_1(L t), and the quadrature's panels depend on L t
    alone, so one check at g2 = L = 1 over 10 times in [0, 4] covers every
    model of the family.  Raises ``KernelMismatchError`` on a deviation above
    1e-8 * max(1, |value|).
    """
    model = CouplingModel(family, 1.0, 1.0)
    for t in np.linspace(0.0, 4.0, 10):
        cf = complex(_fourier_closed_form(model, t))
        quad = _fourier_quad(model, float(t))
        if abs(cf - quad) > 1e-8 * max(1.0, abs(cf)):
            raise KernelMismatchError(
                f"{family.value} closed-form kernel deviates from quadrature by "
                f"{abs(cf - quad)!r} at L t={t!r}; refusing to use it"
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


# Steps are solved in chunks of _SHORT_LAGS, aligned with the blocks below.
# A chunk's own lags come from T^-1 (see _chunk_operators), one FFT product
# per chunk whose unit diagonal is applied exactly, outside the product.
# Every other lag comes from band products of aligned blocks of y, added
# before the chunk that starts at the block's end (Hairer, Lubich & Schlichte
# 1985): lags [1, 2 _SHORT_LAGS) of each _SHORT_LAGS-sample block, and lags
# [L, 2L) of each L-sample block for L = 2 _SHORT_LAGS, 4 _SHORT_LAGS, ...
# O(N log^2 N) in total.
_SHORT_LAGS = 1024


def _add_block_products(
    k: np.ndarray, y: np.ndarray, out: np.ndarray, m: int, spectra: dict
) -> None:
    """Add the lags [lo, 2L) of every aligned block y[m - L:m] to out[m:].

    Runs for every band L = _SHORT_LAGS, 2 _SHORT_LAGS, ... whose aligned
    block ends at m.  The first band takes lags from 1 (lo = 1) and every
    band above it from L (lo = L), so the bands cover each lag from a sample
    before an output's own chunk exactly once.  Each product is truncated to
    the outputs left in ``out``, which also truncates its inputs.  ``spectra``
    holds the solve's kernel band spectra by L: a full band's spectrum is
    computed once and kept while another full block of it lies ahead; a
    truncated last block transforms its own slice.
    """
    size, lo = _SHORT_LAGS, 1
    while m % size == 0:
        n_out = min(2 * size - 1, out.size - m)
        take = min(size, n_out + size - lo)
        taps = min(2 * size, size + n_out) - lo
        n_fft = _next_fast_len(take + taps - 1)
        kb = spectra.pop(size, None)
        if kb is None:
            kb = np.fft.fft(k[lo:lo + taps], n_fft)
        if m + 2 * size <= out.size:  # the next block is full as well
            spectra[size] = kb
        product = np.fft.fft(y[m - size:m - size + take], n_fft)
        product *= kb
        np.fft.ifft(product, out=product)
        out[m:m + n_out] += product[size - lo:size - lo + n_out]
        size *= 2
        lo = size


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

    Trapezoidal convolution with a Heun predictor-corrector step: second-order
    accurate.  The steps are solved 1024 at a time: the Heun recurrence is
    linear, so each chunk's increments y_m - y_{m-1} are one product with the
    precomputed inverse of a lower-triangular Toeplitz matrix, and the samples
    are y_{M-1} plus their running sum.  Solving for the increments rather
    than for y keeps each chunk's rounding at the size of the increments, so
    the result stays within rounding of the step-by-step recurrence however
    many chunks it spans; the inverse's unit diagonal is applied exactly.
    The inverse carries the lags between a chunk's own samples; every other
    lag comes from band products of the completed blocks of y, added before
    the chunk, and y[0]'s lags into the first chunk from exact products.  The
    history sums take O(N log^2 N) in the step count N: every history product
    is an FFT product whose fixed spectrum (T^-1, each band of the kernel) is
    computed once per solve.  ``step`` defaults to
    ``default_step(params)``.  The overshoot budget on |C|^2 = |y|^2 is
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
    k = build_kernel_table(params, horizon, h)
    n_steps = len(k) - 1
    y = np.empty(n_steps + 1, dtype=complex)
    y[0] = 1.0 + 0.0j
    # A solve shorter than one chunk sizes its operators to its own length.
    n = min(_SHORT_LAGS, n_steps + 1)
    # ``history`` starts as the end corrections -K[m] y[0] / 2 of every s_m
    # and collects the lags from every completed block; a chunk's history is
    # complete once the blocks ending at its start are added.  No block
    # holds y[0] before the first chunk, so its lags there are added here.
    history = -0.5 * y[0] * k
    history[1:n] += y[0] * k[1:n]
    delta, b, c, g, u = _chunk_operators(k, h, n)
    u[0] = 0.0  # T^-1's unit diagonal: each chunk adds rhs itself to d
    # T^-1 (rhs) is a linear convolution of at most 2n - 1 terms, so a
    # 2n-point FFT does not wrap.
    u_hat = np.fft.fft(u, 2 * n)
    spectra = {}
    s_prev = complex(history[0])
    for m in range(0, n_steps + 1, n):
        start, stop = max(m, 1), min(m + n, n_steps + 1)
        if m:
            _add_block_products(k, y, history, m, spectra)
        r = stop - start
        y_last = y[start - 1]
        # s over the chunk, less the part T carries (the increments' own).
        s_known = history[start:stop] + y_last * g[:r]
        rhs = c * s_known + delta * y_last
        rhs[0] += b * s_prev
        rhs[1:] += b * s_known[:-1]
        d = rhs + np.fft.ifft(np.fft.fft(rhs, 2 * n) * u_hat)[:r]
        np.cumsum(d, out=y[start:stop])
        y[start:stop] += y_last
        s_prev = complex(s_known[-1] + g[r - 1:0:-1] @ d[:r - 1])
    del history

    check_probability(MethodTag.VOLTERRA, np.abs(y) ** 2)
    times = np.arange(0, n_steps + 1, stride) * h
    # Phase first: numpy's complex product is not bitwise commutative, and
    # this is the order the rows of every solve of 16,384 steps or more have
    # been computed in (numpy swapped the operands of the full-grid product).
    return AmplitudeSeries(
        times, np.exp(-1j * params.e2 * times) * y[::stride], MethodTag.VOLTERRA
    )
